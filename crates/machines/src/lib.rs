//! MicroVM substrate for the Celestial LEO edge testbed.
//!
//! The original Celestial backs every satellite and ground-station server
//! with a Firecracker microVM. This crate models that substrate so the
//! testbed can run hermetically and in virtual time:
//!
//! * [`machine`] — the microVM lifecycle state machine (created → booting →
//!   running ↔ suspended, stopped, failed) with Firecracker-like boot
//!   latencies,
//! * [`firecracker`] — the resource model: per-microVM memory footprint
//!   (including the virtio device memory that stays blocked while a VM is
//!   suspended, §4.2/Fig. 8), optional ballooning, and root-filesystem
//!   de-duplication,
//! * [`cgroup`] — the cgroup-style CPU quota model used to emulate severely
//!   constrained satellite servers,
//! * [`host`] — Celestial hosts with core/memory capacity, over-provisioning
//!   and utilisation accounting (Figs. 7 and 8),
//! * [`fault`] — fault injection for radiation-induced crashes and reboots,
//! * [`chaos`] — correlated fault generators (plane outages, solar storms,
//!   region blackouts, link-flap storms) with seed-deterministic,
//!   stream-independent schedules.
//!
//! # Examples
//!
//! ```
//! use celestial_machines::machine::MicroVm;
//! use celestial_types::ids::{MachineId, NodeId};
//! use celestial_types::resources::MachineResources;
//! use celestial_types::time::SimInstant;
//!
//! let mut vm = MicroVm::new(
//!     MachineId(0),
//!     NodeId::satellite(0, 42),
//!     MachineResources::paper_satellite(),
//! );
//! vm.boot(SimInstant::EPOCH).unwrap();
//! assert!(vm.state().is_booting());
//! vm.finish_boot(vm.ready_at().unwrap()).unwrap();
//! assert!(vm.state().is_running());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cgroup;
pub mod chaos;
pub mod fault;
pub mod firecracker;
pub mod host;
pub mod machine;

pub use chaos::{ChaosEngine, ChaosSpec, ChaosTopology, ChaosWindow};
pub use fault::{FaultEvent, FaultInjector, FaultKind};
pub use firecracker::{FirecrackerModel, RootfsCache};
pub use host::Host;
pub use machine::{MachineState, MicroVm};

//! The host-sharded programming plane.
//!
//! Celestial's coordinator never programs the network itself: every host
//! runs a daemon that receives only the flows involving machines placed on
//! that host and installs the `tc`/WireGuard rules locally (§3.3). That is
//! what lets the testbed scale past one machine — each host applies its own
//! slice of the programme in parallel with all the others.
//!
//! This module reproduces that plane:
//!
//! * [`PlacementPolicy`] pins every node to a host deterministically (the
//!   round-robin pinning the testbed has always used),
//! * [`ShardPlan`] is the tiny, copyable description of the sharding (the
//!   host count) shared between the coordinator's programme
//!   partitioning and the emulation,
//! * [`HostShard`] is one host's slice of the virtual network: it owns
//!   exactly the directed rules originating on its host, so a cross-host
//!   pair is *mirrored* to both endpoint shards — each programs its own
//!   egress direction, with the overlay latency compensation applied per
//!   side,
//! * [`ShardedNetwork`] assembles the shards and routes traffic through the
//!   source node's shard, and
//! * [`NetworkPlane`] lets the testbed run either the classic single global
//!   [`VirtualNetwork`] or the sharded plane behind one API.
//!
//! The sharded plane is **bit-identical** to the global one: every directed
//! rule exists exactly once across all shards, with the same compensated and
//! quantized parameters, so packets traverse the same qdisc state and the
//! aggregate counters match a global network's (`tests/shard_lockstep.rs`
//! pins this). See `docs/SHARDING.md` for the ownership rule and the
//! compensation-per-side table.

use crate::network::{DeltaApplication, VirtualNetwork};
use crate::overlay::HostOverlay;
use crate::packet::Packet;
use crate::programme::{PairProgram, ProgrammeDelta};
use celestial_types::ids::{HostId, NodeId};
use celestial_types::time::SimInstant;
use celestial_types::Latency;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How emulated machines are pinned onto hosts.
///
/// The policy is a pure function of the node identity and the host count, so
/// the coordinator can partition the network programme per host without ever
/// consulting the emulation's placement state — both sides compute the same
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Deterministic round-robin: every node has a stable *pin index*
    /// ([`PlacementPolicy::pin`]) and lives on host `pin % host_count`.
    #[default]
    RoundRobin,
}

impl PlacementPolicy {
    /// The stable pin index of a node: ground stations use their
    /// configuration index, satellites mix shell and in-shell index. The pin
    /// does not depend on the host count, which makes the shard partition
    /// commute with re-pinning to a different host count (property-tested in
    /// `tests/shard_partition.rs`).
    pub fn pin(&self, node: NodeId) -> usize {
        match node {
            NodeId::GroundStation(gst) => gst.index(),
            NodeId::Satellite(sat) => sat.shell.index() * 31 + sat.index as usize,
        }
    }

    /// The host a node is pinned to under this policy for `host_count`
    /// hosts.
    pub fn host_for(&self, node: NodeId, host_count: usize) -> HostId {
        HostId((self.pin(node) % host_count.max(1)) as u32)
    }
}

/// The sharding description shared between the coordinator (which partitions
/// the programme per host) and the emulation (which applies each host's
/// slice): the number of hosts. Nodes are pinned with
/// [`PlacementPolicy::RoundRobin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Number of hosts (= shards).
    pub hosts: u32,
}

impl ShardPlan {
    /// Creates a plan over `hosts` hosts.
    pub fn new(hosts: u32) -> Self {
        ShardPlan {
            hosts: hosts.max(1),
        }
    }

    /// Number of shards (one per host).
    pub fn shard_count(&self) -> usize {
        self.hosts as usize
    }

    /// The host a node is pinned to under this plan.
    pub fn host_of(&self, node: NodeId) -> HostId {
        PlacementPolicy::RoundRobin.host_for(node, self.hosts as usize)
    }

    /// The shards a programmed pair belongs to: its two endpoint hosts —
    /// one shard for a same-host pair, two for a cross-host pair.
    pub fn shards_of_pair(&self, a: NodeId, b: NodeId) -> (HostId, Option<HostId>) {
        let ha = self.host_of(a);
        let hb = self.host_of(b);
        if ha == hb {
            (ha, None)
        } else {
            (ha, Some(hb))
        }
    }
}

/// One host's slice of the virtual network.
///
/// A shard owns exactly the directed `tc` rules that originate on its host:
/// a same-host pair lives entirely in one shard (both directions), a
/// cross-host pair is mirrored to both endpoint shards, each holding the
/// egress direction of its own machine. Latency compensation is applied per
/// side from the shard's own overlay view — the underlay latency is
/// canonical-order symmetric, so both halves program the same compensated
/// delay.
#[derive(Debug, Clone)]
pub struct HostShard {
    host: HostId,
    plan: ShardPlan,
    network: VirtualNetwork,
    pairs: usize,
    last_apply: DeltaApplication,
    last_apply_ns: u64,
}

impl HostShard {
    fn new(host: HostId, plan: ShardPlan) -> Self {
        HostShard {
            host,
            plan,
            network: VirtualNetwork::with_overlay(HostOverlay::new(plan.hosts)),
            pairs: 0,
            last_apply: DeltaApplication::default(),
            last_apply_ns: 0,
        }
    }

    /// The host this shard belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The shard's slice of the virtual network.
    pub fn network(&self) -> &VirtualNetwork {
        &self.network
    }

    /// Number of pairs this shard currently owns (same-host pairs once,
    /// cross-host pairs mirrored into both endpoint shards).
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// What the most recent delta application touched on this shard.
    pub fn last_apply(&self) -> DeltaApplication {
        self.last_apply
    }

    /// Wall-clock nanoseconds the most recent delta application took on
    /// this shard — the per-host cost that runs in parallel across hosts in
    /// a real deployment.
    pub fn last_apply_ns(&self) -> u64 {
        self.last_apply_ns
    }

    /// Whether `node`'s machine belongs to this shard's host.
    ///
    /// Decided by the plan's pure pinning formula, not the placement map:
    /// the per-host delta was partitioned by exactly this plan, so the
    /// answer is identical — and the formula costs a few arithmetic ops per
    /// endpoint instead of a map lookup, which dominates the apply at scale.
    fn places(&self, node: NodeId) -> bool {
        self.plan.host_of(node) == self.host
    }

    /// Programs one pair of this shard's delta: both directions for a
    /// same-host pair, the locally originating direction for a mirrored
    /// cross-host pair. The clamp infidelity is accounted on the owner side
    /// only (the shard placing the canonical endpoint `a`), so the aggregate
    /// over all shards equals a global network's count.
    fn program(&mut self, pair: &PairProgram) -> bool {
        match (self.places(pair.a), self.places(pair.b)) {
            (true, true) => {
                self.network
                    .program_pair(pair.a, pair.b, pair.latency, pair.bandwidth);
                true
            }
            (true, false) => {
                self.network
                    .program_directed(pair.a, pair.b, pair.latency, pair.bandwidth, true);
                true
            }
            (false, true) => {
                self.network
                    .program_directed(pair.b, pair.a, pair.latency, pair.bandwidth, false);
                true
            }
            (false, false) => false,
        }
    }

    /// Applies this host's slice of an epoch's programme delta, mirroring
    /// [`VirtualNetwork::apply_delta`]'s batch semantics (removals first).
    /// Entries whose endpoints are both placed elsewhere are ignored — a
    /// shard only ever touches rules it owns.
    pub fn apply_delta(&mut self, delta: &ProgrammeDelta) -> DeltaApplication {
        let started = Instant::now();
        let mut application = DeltaApplication::default();
        for &(a, b) in &delta.removed {
            let removed = match (self.places(a), self.places(b)) {
                (true, true) => self.network.unprogram_pair(a, b),
                (true, false) => self.network.unprogram_directed(a, b),
                (false, true) => self.network.unprogram_directed(b, a),
                (false, false) => false,
            };
            if removed {
                application.pairs_removed += 1;
                self.pairs = self.pairs.saturating_sub(1);
            }
        }
        for pair in &delta.added {
            if self.program(pair) {
                application.pairs_programmed += 1;
                self.pairs += 1;
            }
        }
        for pair in &delta.changed {
            if self.program(pair) {
                application.pairs_programmed += 1;
            }
        }
        self.last_apply = application;
        self.last_apply_ns = started.elapsed().as_nanos() as u64;
        application
    }
}

/// Per-epoch report of a sharded apply: what each shard touched and how
/// long each slice took, plus the wall-clock time of the parallel batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardApplyReport {
    /// What each shard's application touched, indexed by host.
    pub applications: Vec<DeltaApplication>,
    /// Per-shard apply time in nanoseconds, indexed by host. The maximum is
    /// the critical path of the epoch: in a real deployment every shard runs
    /// on its own host, so the slowest shard bounds the boundary stall.
    pub shard_ns: Vec<u64>,
    /// Wall-clock nanoseconds of the whole `std::thread::scope` batch on
    /// this machine.
    pub wall_ns: u64,
}

impl ShardApplyReport {
    /// The critical path of the parallel apply: the slowest shard's time in
    /// nanoseconds.
    pub fn critical_path_ns(&self) -> u64 {
        self.shard_ns.iter().copied().max().unwrap_or(0)
    }
}

/// The host-sharded virtual network: one [`HostShard`] per host, traffic
/// routed through the source node's shard.
#[derive(Debug, Clone)]
pub struct ShardedNetwork {
    plan: ShardPlan,
    shards: Vec<HostShard>,
}

impl ShardedNetwork {
    /// Creates a sharded network for the given plan, with one shard per
    /// host.
    pub fn new(plan: ShardPlan) -> Self {
        ShardedNetwork {
            plan,
            shards: (0..plan.hosts).map(|h| HostShard::new(HostId(h), plan)).collect(),
        }
    }

    /// The sharding plan.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The shards, indexed by host.
    pub fn shards(&self) -> &[HostShard] {
        &self.shards
    }

    /// Places a node's machine onto a host. The placement is mirrored into
    /// every shard's overlay view: each shard needs both endpoints' hosts to
    /// compensate its side of a mirrored pair.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not the host the plan pins `node` to: shard
    /// ownership, routing and the coordinator's per-host partition are all
    /// derived from the plan's pure pinning formula, so an off-plan
    /// placement would silently strand the node's rules in a shard its
    /// traffic never routes through.
    pub fn place(&mut self, node: NodeId, host: HostId) {
        assert_eq!(
            host,
            self.plan.host_of(node),
            "sharded placement must follow the plan's pinning for {node}"
        );
        for shard in &mut self.shards {
            shard.network.overlay_mut().place(node, host);
        }
    }

    /// Sets the default inter-host latency on every shard's overlay view.
    pub fn set_default_host_latency(&mut self, latency: Latency) {
        for shard in &mut self.shards {
            shard.network.overlay_mut().set_default_latency(latency);
        }
    }

    /// Records a measured host-pair latency on every shard's overlay view.
    pub fn set_host_latency(&mut self, a: HostId, b: HostId, latency: Latency) {
        for shard in &mut self.shards {
            shard.network.overlay_mut().set_host_latency(a, b, latency);
        }
    }

    /// The shard index owning traffic originating at `node` — the plan's
    /// pinning, the same single source of truth ownership and partitioning
    /// use ([`ShardedNetwork::place`] enforces that actual placement
    /// agrees).
    fn shard_of(&self, node: NodeId) -> usize {
        self.plan.host_of(node).index()
    }

    /// Applies one epoch's per-host deltas, one shard per thread over
    /// [`std::thread::scope`] — the coordinator/pipeline handover of the
    /// sharded plane. `deltas` is indexed by host (as produced by the
    /// coordinator's partitioned merge walk); missing tails are treated as
    /// empty.
    ///
    /// The result is deterministic: shards own disjoint directed-rule sets,
    /// so the outcome is independent of thread scheduling.
    pub fn apply_delta_sharded(&mut self, deltas: &[ProgrammeDelta]) -> ShardApplyReport {
        let started = Instant::now();
        let empty = ProgrammeDelta::default();
        std::thread::scope(|scope| {
            for (index, shard) in self.shards.iter_mut().enumerate() {
                let delta = deltas.get(index).unwrap_or(&empty);
                scope.spawn(move || {
                    shard.apply_delta(delta);
                });
            }
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        ShardApplyReport {
            applications: self.shards.iter().map(|s| s.last_apply).collect(),
            shard_ns: self.shards.iter().map(|s| s.last_apply_ns).collect(),
            wall_ns,
        }
    }

    /// Like [`ShardedNetwork::apply_delta_sharded`], but applies the shards
    /// one after another on the calling thread. Same result (shards are
    /// disjoint); the per-shard timings in the report are *uncontended* —
    /// on a machine with fewer cores than shards, concurrently running
    /// shards time-share cores and their individual wall clocks stop
    /// meaning "this shard's work". Benchmarks use this to measure the
    /// per-host critical path independently of the bench machine's core
    /// count.
    pub fn apply_delta_serial(&mut self, deltas: &[ProgrammeDelta]) -> ShardApplyReport {
        let started = Instant::now();
        let empty = ProgrammeDelta::default();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            shard.apply_delta(deltas.get(index).unwrap_or(&empty));
        }
        ShardApplyReport {
            applications: self.shards.iter().map(|s| s.last_apply).collect(),
            shard_ns: self.shards.iter().map(|s| s.last_apply_ns).collect(),
            wall_ns: started.elapsed().as_nanos() as u64,
        }
    }

    /// Sends a packet through the source node's shard. Exactly one shard
    /// holds the directed rule for any `(source, destination)` pair, so the
    /// qdisc state evolution matches a single global network's.
    pub fn send<R: Rng + ?Sized>(
        &mut self,
        packet: &Packet,
        now: SimInstant,
        rng: &mut R,
    ) -> Vec<(SimInstant, Packet)> {
        let shard = self.shard_of(packet.source);
        self.shards[shard].network.send(packet, now, rng)
    }

    /// True if traffic can currently flow from `from` to `to`.
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.shards[self.shard_of(from)].network.is_reachable(from, to)
    }

    /// The observed end-to-end latency from `from` to `to`, answered by the
    /// source's shard (see [`VirtualNetwork::effective_latency`]).
    pub fn effective_latency(&self, from: NodeId, to: NodeId) -> Option<Latency> {
        self.shards[self.shard_of(from)].network.effective_latency(from, to)
    }

    /// Aggregate counters over all shards: `(sent, delivered, dropped)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |(s, d, p), shard| {
            let (sent, delivered, dropped) = shard.network.counters();
            (s + sent, d + delivered, p + dropped)
        })
    }

    /// Aggregate latency-clamp count over all shards. Clamps are accounted
    /// on the owner side of each pair only, so this equals the count a
    /// single global network would report for the same programme.
    pub fn latency_clamp_count(&self) -> u64 {
        self.shards.iter().map(|s| s.network.latency_clamp_count()).sum()
    }

    /// Per-shard pair counts, indexed by host.
    pub fn pair_counts(&self) -> Vec<usize> {
        self.shards.iter().map(HostShard::pair_count).collect()
    }
}

/// The network plane the testbed runs on: the classic single global
/// [`VirtualNetwork`] or the host-sharded [`ShardedNetwork`]. Both expose
/// the same observable behaviour; the sharded plane additionally applies
/// per-host deltas in parallel.
#[derive(Debug, Clone)]
pub enum NetworkPlane {
    /// One global rule table (the single-host deployment).
    Global(VirtualNetwork),
    /// One shard per host (the paper's multi-host deployment).
    Sharded(ShardedNetwork),
}

impl NetworkPlane {
    /// Creates a global plane over the given overlay.
    pub fn global(overlay: HostOverlay) -> Self {
        NetworkPlane::Global(VirtualNetwork::with_overlay(overlay))
    }

    /// Creates a sharded plane for the given plan.
    pub fn sharded(plan: ShardPlan) -> Self {
        NetworkPlane::Sharded(ShardedNetwork::new(plan))
    }

    /// Number of shards: 1 for the global plane.
    pub fn shard_count(&self) -> usize {
        match self {
            NetworkPlane::Global(_) => 1,
            NetworkPlane::Sharded(sharded) => sharded.shards().len(),
        }
    }

    /// The sharded plane, if this is one.
    pub fn as_sharded(&self) -> Option<&ShardedNetwork> {
        match self {
            NetworkPlane::Global(_) => None,
            NetworkPlane::Sharded(sharded) => Some(sharded),
        }
    }

    /// The sharded plane, mutably, if this is one.
    pub fn as_sharded_mut(&mut self) -> Option<&mut ShardedNetwork> {
        match self {
            NetworkPlane::Global(_) => None,
            NetworkPlane::Sharded(sharded) => Some(sharded),
        }
    }

    /// The global network, if this is the global plane.
    pub fn as_global(&self) -> Option<&VirtualNetwork> {
        match self {
            NetworkPlane::Global(network) => Some(network),
            NetworkPlane::Sharded(_) => None,
        }
    }

    /// Places a node's machine onto a host.
    pub fn place(&mut self, node: NodeId, host: HostId) {
        match self {
            NetworkPlane::Global(network) => network.overlay_mut().place(node, host),
            NetworkPlane::Sharded(sharded) => sharded.place(node, host),
        }
    }

    /// Sets the default inter-host latency of the overlay.
    pub fn set_default_host_latency(&mut self, latency: Latency) {
        match self {
            NetworkPlane::Global(network) => network.overlay_mut().set_default_latency(latency),
            NetworkPlane::Sharded(sharded) => sharded.set_default_host_latency(latency),
        }
    }

    /// Sends a packet (see [`VirtualNetwork::send`]).
    pub fn send<R: Rng + ?Sized>(
        &mut self,
        packet: &Packet,
        now: SimInstant,
        rng: &mut R,
    ) -> Vec<(SimInstant, Packet)> {
        match self {
            NetworkPlane::Global(network) => network.send(packet, now, rng),
            NetworkPlane::Sharded(sharded) => sharded.send(packet, now, rng),
        }
    }

    /// True if traffic can currently flow from `from` to `to`.
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            NetworkPlane::Global(network) => network.is_reachable(from, to),
            NetworkPlane::Sharded(sharded) => sharded.is_reachable(from, to),
        }
    }

    /// The observed end-to-end latency between two nodes, or `None` if
    /// unreachable.
    pub fn effective_latency(&self, from: NodeId, to: NodeId) -> Option<Latency> {
        match self {
            NetworkPlane::Global(network) => network.effective_latency(from, to),
            NetworkPlane::Sharded(sharded) => sharded.effective_latency(from, to),
        }
    }

    /// Counters: `(sent, delivered, dropped)`, aggregated over shards.
    pub fn counters(&self) -> (u64, u64, u64) {
        match self {
            NetworkPlane::Global(network) => network.counters(),
            NetworkPlane::Sharded(sharded) => sharded.counters(),
        }
    }

    /// Number of clamped latency compensations (see
    /// [`VirtualNetwork::latency_clamp_count`]), aggregated over shards.
    pub fn latency_clamp_count(&self) -> u64 {
        match self {
            NetworkPlane::Global(network) => network.latency_clamp_count(),
            NetworkPlane::Sharded(sharded) => sharded.latency_clamp_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_types::Bandwidth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gst(i: u32) -> NodeId {
        NodeId::ground_station(i)
    }

    fn pair(a: u32, b: u32, ms: f64) -> PairProgram {
        PairProgram {
            a: gst(a),
            b: gst(b),
            latency: Latency::from_millis_f64(ms),
            bandwidth: Bandwidth::from_mbps(100),
        }
    }

    /// A 4-host sharded network with gst i placed on host i % hosts (the
    /// round-robin pinning).
    fn sharded(hosts: u32, nodes: u32) -> ShardedNetwork {
        let plan = ShardPlan::new(hosts);
        let mut net = ShardedNetwork::new(plan);
        for i in 0..nodes {
            net.place(gst(i), plan.host_of(gst(i)));
        }
        net
    }

    #[test]
    fn round_robin_pinning_matches_the_testbed_formula() {
        let policy = PlacementPolicy::RoundRobin;
        assert_eq!(policy.host_for(gst(5), 3), HostId(2));
        assert_eq!(
            policy.host_for(NodeId::satellite(1, 4), 3),
            HostId((31 + 4) % 3)
        );
        // One host: everything is local.
        assert_eq!(policy.host_for(gst(5), 1), HostId(0));
        let plan = ShardPlan::new(2);
        assert_eq!(plan.shards_of_pair(gst(0), gst(2)), (HostId(0), None));
        assert_eq!(plan.shards_of_pair(gst(0), gst(1)), (HostId(0), Some(HostId(1))));
    }

    #[test]
    fn same_host_pairs_live_in_exactly_one_shard() {
        let mut net = sharded(4, 8);
        // gst 0 and gst 4 both live on host 0.
        let delta = ProgrammeDelta {
            epoch: 1,
            added: vec![pair(0, 4, 3.0)],
            changed: Vec::new(),
            removed: Vec::new(),
        };
        // The coordinator would route this delta to host 0 only, but even a
        // broadcast is safe: other shards ignore pairs they don't place.
        let report = net.apply_delta_sharded(&[delta.clone(), delta.clone(), delta.clone(), delta]);
        assert_eq!(report.applications[0].pairs_programmed, 1);
        for host in 1..4 {
            assert_eq!(report.applications[host], DeltaApplication::default());
        }
        assert_eq!(net.pair_counts(), vec![1, 0, 0, 0]);
        assert!(net.is_reachable(gst(0), gst(4)));
        assert!(net.is_reachable(gst(4), gst(0)));
        // No compensation for the co-located pair.
        assert_eq!(
            net.effective_latency(gst(0), gst(4)),
            Some(Latency::from_millis_f64(3.0))
        );
    }

    #[test]
    fn cross_host_pairs_are_mirrored_with_per_side_compensation() {
        let mut net = sharded(2, 2);
        let delta = ProgrammeDelta {
            epoch: 1,
            added: vec![pair(0, 1, 8.0)],
            changed: Vec::new(),
            removed: Vec::new(),
        };
        net.apply_delta_sharded(&[delta.clone(), delta]);
        assert_eq!(net.pair_counts(), vec![1, 1], "mirrored into both endpoint shards");
        // Each shard holds exactly its egress direction.
        assert!(net.shards()[0].network().is_reachable(gst(0), gst(1)));
        assert!(!net.shards()[0].network().is_reachable(gst(1), gst(0)));
        assert!(net.shards()[1].network().is_reachable(gst(1), gst(0)));
        assert!(!net.shards()[1].network().is_reachable(gst(0), gst(1)));
        // Both sides compensated for the 0.2 ms default underlay; end-to-end
        // latency is the 8 ms target from either side.
        assert_eq!(net.effective_latency(gst(0), gst(1)), Some(Latency::from_millis_f64(8.0)));
        assert_eq!(net.effective_latency(gst(1), gst(0)), Some(Latency::from_millis_f64(8.0)));
        // A packet routes through the source's shard and arrives once.
        let mut rng = StdRng::seed_from_u64(9);
        let packet = Packet::new(gst(0), gst(1), 1_250);
        let deliveries = net.send(&packet, SimInstant::EPOCH, &mut rng);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(net.counters().0, 1);
    }

    #[test]
    fn clamps_are_counted_once_per_cross_host_pair() {
        let mut net = sharded(2, 2);
        let delta = ProgrammeDelta {
            epoch: 1,
            added: vec![PairProgram {
                a: gst(0),
                b: gst(1),
                latency: Latency::from_micros(50),
                bandwidth: Bandwidth::from_gbps(1),
            }],
            changed: Vec::new(),
            removed: Vec::new(),
        };
        net.apply_delta_sharded(&[delta.clone(), delta]);
        assert_eq!(net.latency_clamp_count(), 1, "owner side counts, mirror side doesn't");
    }

    #[test]
    fn removal_tears_down_both_mirrored_halves() {
        let mut net = sharded(2, 2);
        let added = ProgrammeDelta {
            epoch: 1,
            added: vec![pair(0, 1, 5.0)],
            changed: Vec::new(),
            removed: Vec::new(),
        };
        net.apply_delta_sharded(&[added.clone(), added]);
        let removed = ProgrammeDelta {
            epoch: 2,
            added: Vec::new(),
            changed: Vec::new(),
            removed: vec![(gst(0), gst(1))],
        };
        let report = net.apply_delta_sharded(&[removed.clone(), removed]);
        assert_eq!(report.applications[0].pairs_removed, 1);
        assert_eq!(report.applications[1].pairs_removed, 1);
        assert_eq!(net.pair_counts(), vec![0, 0]);
        assert!(!net.is_reachable(gst(0), gst(1)));
        assert!(!net.is_reachable(gst(1), gst(0)));
        assert_eq!(report.critical_path_ns().max(1) > 0, true);
    }

    #[test]
    #[should_panic(expected = "follow the plan")]
    fn off_plan_placement_is_rejected() {
        // Ownership, routing and the coordinator's partition all derive
        // from the plan's pinning; a divergent placement must fail loudly
        // instead of stranding the node's rules in an unrouted shard.
        let mut net = ShardedNetwork::new(ShardPlan::new(2));
        net.place(gst(1), HostId(0));
    }

    #[test]
    fn network_plane_dispatches_to_both_backends() {
        let mut global = NetworkPlane::global(HostOverlay::new(1));
        let mut sharded = NetworkPlane::sharded(ShardPlan::new(2));
        assert_eq!(global.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 2);
        assert!(global.as_global().is_some() && global.as_sharded().is_none());
        assert!(sharded.as_sharded().is_some() && sharded.as_global().is_none());
        // Global placement is free; sharded placement must follow the plan
        // (gst 1 pins to host 1, making the pair cross-host there — the
        // compensated rule plus the underlay still reproduce the target).
        global.place(gst(0), HostId(0));
        global.place(gst(1), HostId(0));
        sharded.place(gst(0), HostId(0));
        sharded.place(gst(1), HostId(1));
        let delta = ProgrammeDelta {
            epoch: 1,
            added: vec![pair(0, 1, 2.0)],
            changed: Vec::new(),
            removed: Vec::new(),
        };
        match &mut global {
            NetworkPlane::Global(network) => {
                network.apply_delta(&delta);
            }
            NetworkPlane::Sharded(_) => unreachable!(),
        }
        sharded
            .as_sharded_mut()
            .unwrap()
            .apply_delta_sharded(&[delta.clone(), delta]);
        for plane in [&global, &sharded] {
            assert!(plane.is_reachable(gst(0), gst(1)));
            assert_eq!(
                plane.effective_latency(gst(0), gst(1)),
                Some(Latency::from_millis_f64(2.0))
            );
            assert_eq!(plane.latency_clamp_count(), 0);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let packet = Packet::new(gst(0), gst(1), 100);
        let a = global.send(&packet, SimInstant::EPOCH, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let b = sharded.send(&packet, SimInstant::EPOCH, &mut rng);
        assert_eq!(a, b, "identical rules, identical deliveries");
        assert_eq!(global.counters(), sharded.counters());
    }
}

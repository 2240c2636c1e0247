//! The testbed runtime: guest applications over the emulated constellation.
//!
//! [`Testbed`] assembles the full Celestial architecture — coordinator,
//! machine managers, network emulation, DNS and info API — and executes a
//! [`GuestApplication`] against it in virtual time. The application plays the
//! role of the software that would run *inside* the microVMs of the original
//! system: it addresses nodes by their identifiers, sends messages whose
//! delivery is governed by the emulated network, reacts to timers, and may
//! query the info API exactly as a real guest would query the per-host HTTP
//! server.
//!
//! # Multi-tenancy
//!
//! A testbed runs one or more *tenants* over a single shared epoch pipeline
//! (see `docs/TENANTS.md`). Each tenant is a full [`TenantRuntime`] — its
//! own machine managers, network plane, fault schedule and RNG — while the
//! expensive orbital propagation and path solve are computed once per epoch
//! and fanned out. A solo testbed is the one-tenant degenerate case and
//! behaves bit-identically to a pre-tenancy run; fleets execute one guest
//! application per tenant through [`Testbed::run_fleet`].

use crate::config::{ChaosConfig, TestbedConfig};
use crate::coordinator::Coordinator;
use crate::database::InfoDatabase;
use crate::dns::DnsService;
use crate::machine_manager::MachineManager;
use celestial_netem::ProgrammeDelta;
use celestial_constellation::{Constellation, FlapWindow, LinkSuppression};
use celestial_machines::chaos::{ChaosEngine, ChaosSpec, ChaosTopology};
use celestial_machines::{FaultEvent, FaultKind, FirecrackerModel};
use celestial_netem::overlay::HostOverlay;
use celestial_netem::packet::Packet;
use celestial_netem::shard::{NetworkPlane, PlacementPolicy, ShardApplyReport, ShardPlan};
use celestial_sim::metrics::TimeSeries;
use celestial_sim::{SimRng, Simulation};
use celestial_types::ids::{HostId, NodeId, TenantId};
use celestial_types::resources::MachineResources;
use celestial_types::time::{SimDuration, SimInstant};
use celestial_types::{Error, Latency, Result};
use std::collections::{BTreeMap, BTreeSet};

/// A guest application running on the testbed.
///
/// All methods have empty default implementations so applications only
/// implement the hooks they need.
pub trait GuestApplication {
    /// Called once at the start of the experiment, after the ground-station
    /// machines have booted and the first constellation update has run.
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        let _ = ctx;
    }

    /// Called after every constellation update (every `update-interval-s`
    /// seconds of simulated time).
    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        let _ = ctx;
    }

    /// Called when a timer set with [`AppContext::set_timer`] fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut AppContext<'_>) {
        let _ = (tag, ctx);
    }

    /// Called when a message is delivered to a running machine.
    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        let _ = (message, ctx);
    }
}

/// Deferred actions collected from application callbacks and applied by the
/// runtime once the callback returns.
#[derive(Debug)]
enum Command {
    Send {
        from: NodeId,
        to: NodeId,
        size_bytes: u64,
        payload: Vec<u8>,
    },
    SetTimer {
        delay: SimDuration,
        tag: u64,
    },
    SetCpuLoad {
        node: NodeId,
        load: f64,
    },
    FailMachine {
        node: NodeId,
    },
    RebootMachine {
        node: NodeId,
    },
}

/// The API surface available to a guest application inside a callback.
pub struct AppContext<'a> {
    now: SimInstant,
    tenant: TenantId,
    database: &'a InfoDatabase,
    dns: &'a DnsService,
    managers: &'a [MachineManager],
    node_to_host: &'a BTreeMap<NodeId, usize>,
    network: &'a NetworkPlane,
    rng: &'a mut SimRng,
    commands: Vec<Command>,
}

impl<'a> AppContext<'a> {
    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// The tenant this application runs as (tenant 0 in a solo testbed).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The coordinator's information database (the guest-visible info API).
    pub fn database(&self) -> &InfoDatabase {
        self.database
    }

    /// The Celestial DNS service.
    pub fn dns(&self) -> &DnsService {
        self.dns
    }

    /// The node of the ground station with the given configured name.
    pub fn ground_station(&self, name: &str) -> Option<NodeId> {
        self.database
            .ground_station_by_name(name)
            .map(|(id, _)| NodeId::GroundStation(id))
    }

    /// The satellite currently offering the lowest-latency uplink to the
    /// given ground station, if any satellite is in view.
    pub fn best_uplink(&self, gst: NodeId) -> Option<NodeId> {
        let gst = gst.as_ground_station()?;
        self.database
            .state()
            .and_then(|s| s.best_uplink(gst))
            .map(NodeId::Satellite)
    }

    /// The satellites currently visible from a ground station.
    pub fn visible_satellites(&self, gst: NodeId) -> Vec<NodeId> {
        let Some(gst) = gst.as_ground_station() else {
            return Vec::new();
        };
        self.database
            .visible_satellites(gst)
            .map(|sats| sats.into_iter().map(NodeId::Satellite).collect())
            .unwrap_or_default()
    }

    /// The one-way network latency the constellation calculation expects
    /// between two nodes right now (the quantity a tracking service would
    /// compute), or `None` if they are not connected.
    pub fn expected_latency(&self, a: NodeId, b: NodeId) -> Option<Latency> {
        self.database.path_latency(a, b).ok().flatten()
    }

    /// The end-to-end latency currently programmed into the network
    /// emulation between two nodes, or `None` if the pair is unreachable.
    pub fn emulated_latency(&self, a: NodeId, b: NodeId) -> Option<Latency> {
        self.network.effective_latency(a, b)
    }

    /// Whether the machine backing `node` is currently running.
    pub fn is_running(&self, node: NodeId) -> bool {
        self.node_to_host
            .get(&node)
            .map(|host| self.managers[*host].is_running(node))
            .unwrap_or(false)
    }

    /// The deterministic random number generator of the experiment.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends a message of `size_bytes` (wire size) carrying `payload` from
    /// one node to another. Delivery time and loss are governed by the
    /// emulated network; messages from machines that are not running are
    /// dropped.
    pub fn send(&mut self, from: NodeId, to: NodeId, size_bytes: u64, payload: Vec<u8>) {
        self.commands.push(Command::Send {
            from,
            to,
            size_bytes,
            payload,
        });
    }

    /// Schedules [`GuestApplication::on_timer`] to be called with `tag` after
    /// `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer { delay, tag });
    }

    /// Sets the guest CPU load of a node's machine (a fraction of its
    /// allocated vCPUs in `[0, 1]`), feeding the host utilisation traces.
    pub fn set_cpu_load(&mut self, node: NodeId, load: f64) {
        self.commands.push(Command::SetCpuLoad { node, load });
    }

    /// Crashes the machine backing `node`, e.g. to emulate a radiation
    /// fault from within the application.
    pub fn fail_machine(&mut self, node: NodeId) {
        self.commands.push(Command::FailMachine { node });
    }

    /// Reboots the machine backing `node` (valid after a failure or stop).
    pub fn reboot_machine(&mut self, node: NodeId) {
        self.commands.push(Command::RebootMachine { node });
    }
}

/// Events of the testbed's internal discrete-event loop. Each scheduled
/// event carries the index of the tenant it belongs to, so a fleet's tenants
/// interleave on one queue while every tenant's relative order matches its
/// solo run (the queue is FIFO-stable at equal timestamps).
#[derive(Debug)]
enum Event {
    ConstellationUpdate,
    UtilizationSample,
    BootComplete(NodeId),
    AppTimer(u64),
    Deliver(Packet),
    Fault(FaultEvent),
    Recover(NodeId),
}

enum AppCall {
    Start,
    ConstellationUpdate,
    Timer(u64),
    Message(Packet),
}

/// One tenant's private half of the testbed: machine managers, network
/// plane, placements, fault schedule, RNG and counters.
///
/// Every tenant borrows the shared orbital state and path matrix computed
/// once per epoch by the coordinator's pipeline; everything in this struct
/// is isolated per tenant (see `docs/TENANTS.md`).
#[derive(Debug)]
pub struct TenantRuntime {
    id: TenantId,
    name: String,
    managers: Vec<MachineManager>,
    node_to_host: BTreeMap<NodeId, usize>,
    network: NetworkPlane,
    rng: SimRng,
    scheduled_faults: Vec<FaultEvent>,
    host_cpu: Vec<TimeSeries>,
    host_memory: Vec<TimeSeries>,
    host_processes: Vec<TimeSeries>,
    messages_delivered: u64,
    messages_dropped: u64,
    failed_recoveries: u64,
    /// Faults that landed on a machine unable to take them (already down,
    /// never created, or not running for a degradation) and were ignored.
    ignored_faults: u64,
    /// Nodes currently degraded (reduced CPU share); their recovery restores
    /// the quota instead of re-activating the machine.
    degraded: BTreeSet<NodeId>,
    /// Injected fault windows currently in effect.
    active_faults: u64,
}

impl TenantRuntime {
    fn new(
        id: TenantId,
        name: String,
        config: &TestbedConfig,
        shard_plan: Option<ShardPlan>,
        scheduled_faults: Vec<FaultEvent>,
    ) -> Self {
        let model = FirecrackerModel {
            ballooning: config.ballooning,
            ..FirecrackerModel::default()
        };
        let managers: Vec<MachineManager> = config
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| MachineManager::new(HostId(i as u32), h.cores, h.memory_mib, model))
            .collect();
        let mut network = match shard_plan {
            Some(plan) => NetworkPlane::sharded(plan),
            None => NetworkPlane::global(HostOverlay::new(config.hosts.len() as u32)),
        };
        if let Some(us) = config.host_latency_us {
            network.set_default_host_latency(Latency::from_micros(us));
        }
        let host_count = managers.len();
        TenantRuntime {
            id,
            name,
            managers,
            node_to_host: BTreeMap::new(),
            network,
            // Every tenant draws from an identical stream seeded by the run
            // seed, exactly like a solo testbed: a pinned tenant's run is
            // reproducible independently of how many neighbours it has.
            rng: SimRng::seed_from_u64(config.seed),
            scheduled_faults,
            host_cpu: vec![TimeSeries::new(); host_count],
            host_memory: vec![TimeSeries::new(); host_count],
            host_processes: vec![TimeSeries::new(); host_count],
            messages_delivered: 0,
            messages_dropped: 0,
            failed_recoveries: 0,
            ignored_faults: 0,
            degraded: BTreeSet::new(),
            active_faults: 0,
        }
    }

    /// This tenant's identifier.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// This tenant's configured name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This tenant's machine managers, one per host.
    pub fn managers(&self) -> &[MachineManager] {
        &self.managers
    }

    /// This tenant's network plane.
    pub fn network(&self) -> &NetworkPlane {
        &self.network
    }

    /// Counters of this tenant's application messages
    /// `(delivered, dropped)`.
    pub fn message_counters(&self) -> (u64, u64) {
        (self.messages_delivered, self.messages_dropped)
    }

    /// Number of this tenant's post-fault reboots that failed.
    pub fn failed_recoveries(&self) -> u64 {
        self.failed_recoveries
    }

    /// Number of this tenant's injected faults that were ignored because
    /// the target machine could not take them.
    pub fn ignored_faults(&self) -> u64 {
        self.ignored_faults
    }

    /// Number of this tenant's injected fault windows currently in effect.
    pub fn active_faults(&self) -> u64 {
        self.active_faults
    }

    /// This tenant's per-host CPU utilisation traces (percent).
    pub fn host_cpu_series(&self) -> &[TimeSeries] {
        &self.host_cpu
    }

    /// This tenant's per-host memory utilisation traces (percent).
    pub fn host_memory_series(&self) -> &[TimeSeries] {
        &self.host_memory
    }

    /// This tenant's per-host Firecracker process counts.
    pub fn host_process_series(&self) -> &[TimeSeries] {
        &self.host_processes
    }

    fn host_for(&mut self, node: NodeId) -> usize {
        if let Some(host) = self.node_to_host.get(&node) {
            return *host;
        }
        // The placement policy is the same pure function the coordinator's
        // programme partitioning uses, so a sharded plane's slices always
        // agree with where the machines actually run.
        let host = PlacementPolicy::RoundRobin.host_for(node, self.managers.len());
        self.node_to_host.insert(node, host.index());
        self.network.place(node, host);
        host.index()
    }

    fn boot_ground_stations(&mut self, config: &TestbedConfig) -> Result<()> {
        for (i, gst) in config.ground_stations.iter().enumerate() {
            let node = NodeId::ground_station(i as u32);
            let resources = gst.resources.clone();
            let host = self.host_for(node);
            let ready = self.managers[host].activate(node, &resources, SimInstant::EPOCH)?;
            self.managers[host].finish_boot(node, ready)?;
        }
        Ok(())
    }

    fn sample(&mut self, t: SimInstant) {
        for (i, manager) in self.managers.iter().enumerate() {
            let sample = manager.sample();
            self.host_cpu[i].record(t, sample.cpu * 100.0);
            self.host_memory[i].record(t, sample.memory * 100.0);
            self.host_processes[i].record(t, sample.firecracker_processes as f64);
        }
    }

    /// Applies one epoch's machine lifecycle and network programme to this
    /// tenant, returning the apply report when the plane is sharded.
    fn apply_epoch(
        &mut self,
        sim: &mut Simulation<(usize, Event)>,
        now: SimInstant,
        config: &TestbedConfig,
        to_activate: &[NodeId],
        suspended: &[NodeId],
        delta: &ProgrammeDelta,
        host_deltas: &[ProgrammeDelta],
    ) -> Result<Option<ShardApplyReport>> {
        // Machine lifecycle: boot newly active satellites, resume returning
        // ones, suspend those that left the bounding box. Ground stations
        // are booted during setup and never suspended.
        for node in to_activate {
            let resources = resources_for(config, *node);
            let host = self.host_for(*node);
            let ready = self.managers[host].activate(*node, &resources, now)?;
            if ready > now {
                sim.schedule_at(ready, (self.id.index(), Event::BootComplete(*node)));
            }
        }
        for node in suspended {
            let host = self.host_for(*node);
            if self.managers[host].has_machine(*node) {
                self.managers[host].suspend(*node)?;
            }
        }

        // Network programming: apply this tenant's change set. New pairs may
        // involve machines the placement has not seen yet; place them before
        // programming so compensation sees their hosts.
        let fresh_nodes: Vec<NodeId> = delta
            .added
            .iter()
            .flat_map(|pair| [pair.a, pair.b])
            .filter(|node| !self.node_to_host.contains_key(node))
            .collect();
        for node in fresh_nodes {
            self.host_for(node);
        }
        match &mut self.network {
            NetworkPlane::Global(network) => {
                network.apply_delta(delta);
                Ok(None)
            }
            NetworkPlane::Sharded(sharded) => {
                // Every host applies its own slice, in parallel — the
                // multi-host handover of the paper's architecture.
                Ok(Some(sharded.apply_delta_sharded(host_deltas)))
            }
        }
    }

    fn inject_fault(&mut self, sim: &mut Simulation<(usize, Event)>, fault: FaultEvent) {
        let host = self.host_for(fault.node);
        let applied = match fault.kind {
            // Degradation shrinks the CPU quota through the cgroup path;
            // the machine keeps running.
            FaultKind::Degradation { cpu_share_percent } => self.managers[host]
                .degrade(fault.node, cpu_share_percent)
                .map(|()| {
                    self.degraded.insert(fault.node);
                })
                .is_ok(),
            FaultKind::CrashAndReboot | FaultKind::PermanentFailure => {
                self.managers[host].fail(fault.node).is_ok()
            }
        };
        if applied {
            self.active_faults += 1;
            if let Some(recover_at) = fault.recover_at {
                sim.schedule_at(recover_at, (self.id.index(), Event::Recover(fault.node)));
            }
        } else {
            // A fault on a machine that cannot take it — already down inside
            // an earlier outage window, never created, or not running for a
            // degradation — is ignored and counted, and schedules no
            // recovery: the earlier window's recovery is already pending.
            self.ignored_faults += 1;
        }
    }

    fn recover(
        &mut self,
        sim: &mut Simulation<(usize, Event)>,
        config: &TestbedConfig,
        now: SimInstant,
        node: NodeId,
    ) -> Result<()> {
        self.active_faults = self.active_faults.saturating_sub(1);
        let host = self.host_for(node);
        if self.degraded.remove(&node) {
            // Degradation recovery: restore the full quota.
            if self.managers[host].restore(node).is_err() {
                self.failed_recoveries += 1;
            }
            return Ok(());
        }
        let resources = resources_for(config, node);
        match self.managers[host].activate(node, &resources, now) {
            Ok(ready) => {
                if ready > now {
                    sim.schedule_at(ready, (self.id.index(), Event::BootComplete(node)));
                }
            }
            // A failed post-fault reboot must not vanish: count it so
            // experiments can detect machines that never came back.
            Err(_) => self.failed_recoveries += 1,
        }
        Ok(())
    }

    fn apply_commands(
        &mut self,
        sim: &mut Simulation<(usize, Event)>,
        now: SimInstant,
        config: &TestbedConfig,
        commands: Vec<Command>,
    ) -> Result<()> {
        for command in commands {
            match command {
                Command::Send {
                    from,
                    to,
                    size_bytes,
                    payload,
                } => {
                    let host = self.host_for(from);
                    if !self.managers[host].is_running(from) {
                        self.messages_dropped += 1;
                        continue;
                    }
                    let packet = Packet::with_size_and_payload(from, to, size_bytes, payload);
                    let deliveries = self.network.send(&packet, now, &mut self.rng);
                    if deliveries.is_empty() {
                        self.messages_dropped += 1;
                    }
                    for (arrival, delivered) in deliveries {
                        sim.schedule_at(arrival, (self.id.index(), Event::Deliver(delivered)));
                    }
                }
                Command::SetTimer { delay, tag } => {
                    sim.schedule_at(now + delay, (self.id.index(), Event::AppTimer(tag)));
                }
                Command::SetCpuLoad { node, load } => {
                    let host = self.host_for(node);
                    self.managers[host].set_cpu_load(node, load);
                }
                Command::FailMachine { node } => {
                    let host = self.host_for(node);
                    self.managers[host]
                        .fail(node)
                        .map_err(|e| Error::Application(e.to_string()))?;
                }
                Command::RebootMachine { node } => {
                    let resources = resources_for(config, node);
                    let host = self.host_for(node);
                    let ready = self.managers[host].activate(node, &resources, now)?;
                    if ready > now {
                        sim.schedule_at(ready, (self.id.index(), Event::BootComplete(node)));
                    }
                }
            }
        }
        Ok(())
    }
}

fn resources_for(config: &TestbedConfig, node: NodeId) -> MachineResources {
    match node {
        NodeId::Satellite(sat) => config
            .shells
            .get(sat.shell.index())
            .map(|s| s.resources.clone())
            .unwrap_or_default(),
        NodeId::GroundStation(gst) => config
            .ground_stations
            .get(gst.index())
            .map(|g| g.resources.clone())
            .unwrap_or_default(),
    }
}

/// The assembled testbed.
pub struct Testbed {
    config: TestbedConfig,
    coordinator: Coordinator,
    tenants: Vec<TenantRuntime>,
    dns: DnsService,
    now: SimInstant,
    /// Total chaos events lowered from the chaos schedule (fault events plus
    /// link-flap windows); zero when chaos is disabled.
    chaos_events: u64,
    /// Whether a `[chaos]` section is configured (drives `/info` reporting).
    chaos_enabled: bool,
}

impl Testbed {
    /// Builds a testbed from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the configuration is invalid and
    /// propagates constellation construction failures.
    pub fn new(config: &TestbedConfig) -> Result<Self> {
        config.validate()?;
        let mut constellation = Constellation::builder()
            .shells(config.shells.iter().cloned())
            .ground_stations(config.ground_stations.iter().cloned())
            .bounding_box(config.bounding_box)
            .path_algorithm(config.path_algorithm)
            .build()?;

        // Lower the chaos schedule before the coordinator is built: the epoch
        // pipeline clones the constellation at construction, so the link-flap
        // mask must already be installed for the pipelined worker to see it.
        let mut chaos_faults: Vec<FaultEvent> = Vec::new();
        let mut chaos_events = 0u64;
        if let Some(chaos) = &config.chaos {
            let (faults, mask) = Self::schedule_chaos(config, chaos, &constellation)?;
            chaos_events = faults.len() as u64 + mask.windows().len() as u64;
            chaos_faults = faults;
            constellation.set_link_suppression(mask);
        }

        let dns = DnsService::new(
            config.shells.iter().map(|s| s.satellite_count()).collect(),
            config.ground_stations.iter().map(|g| g.name.clone()).collect(),
        );

        // One shard per host when the sharded plane is configured; the
        // coordinator partitions its programme with the same plan the
        // emulation places machines with, so each host's slice is complete.
        let shard_plan = config.shards.map(ShardPlan::new);
        // A [scenario] generates its own tenant fleet (scenario-0000..N,
        // mutually exclusive with [tenants] — enforced by validation);
        // otherwise the [tenants] fan-out or a solo tenant applies.
        let tenant_names: Vec<String> = if let Some(scenario) = &config.scenario {
            scenario.tenant_names()
        } else {
            config
                .tenants
                .as_ref()
                .map(|t| t.tenant_names())
                .unwrap_or_else(|| vec!["tenant-0".to_owned()])
        };
        let mut coordinator = Coordinator::with_scoped_fanout(
            constellation,
            SimDuration::from_secs_f64(config.update_interval_s),
            config.pipeline,
            shard_plan,
            tenant_names.clone(),
            config.paths.map(|p| p.scope_params()).unwrap_or_default(),
        );
        // With a `[serve]` section every update publishes an epoch snapshot
        // for the lock-free serving plane (see docs/SERVE.md).
        if config.serve.is_some() {
            coordinator.enable_snapshots();
        }

        // Every tenant runs the same chaos schedule against its own
        // machines, just as every tenant sees the same orbital mechanics.
        let tenants: Vec<TenantRuntime> = tenant_names
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                TenantRuntime::new(TenantId(i as u32), name, config, shard_plan, chaos_faults.clone())
            })
            .collect();

        Ok(Testbed {
            config: config.clone(),
            coordinator,
            tenants,
            dns,
            now: SimInstant::EPOCH,
            chaos_events,
            chaos_enabled: config.chaos.is_some(),
        })
    }

    /// Lowers the `[chaos]` configuration onto concrete fault events and a
    /// link-suppression mask.
    ///
    /// Every generator draws from its own `SimRng::derive("chaos.<g>")`
    /// stream seeded from the run seed, so the schedule is bit-reproducible
    /// and independent of everything else the testbed randomises. The
    /// horizon leaves two update intervals of slack before the experiment
    /// ends, which is what makes the post-recovery convergence guarantee of
    /// `docs/CHAOS.md` observable within the run.
    fn schedule_chaos(
        config: &TestbedConfig,
        chaos: &ChaosConfig,
        constellation: &Constellation,
    ) -> Result<(Vec<FaultEvent>, LinkSuppression)> {
        let engine = ChaosEngine {
            plane_outages: chaos.plane_outages,
            plane_outage_mean_s: chaos.plane_outage_mean_s,
            solar_storms: chaos.solar_storms,
            solar_storm_mean_s: chaos.solar_storm_mean_s,
            solar_storm_band_half_width_deg: chaos.solar_storm_band_half_width_deg,
            solar_storm_cpu_share_percent: chaos.solar_storm_cpu_share_percent,
            region_blackouts: chaos.region_blackouts,
            region_blackout_mean_s: chaos.region_blackout_mean_s,
            region_blackout_radius_km: chaos.region_blackout_radius_km,
            link_flap_storms: chaos.link_flap_storms,
            link_flap_mean_s: chaos.link_flap_mean_s,
            link_flap_period_s: chaos.link_flap_period_s,
        };
        let topology = ChaosTopology {
            shells: config
                .shells
                .iter()
                .map(|s| (s.walker.planes, s.walker.satellites_per_plane))
                .collect(),
            ground_stations: config
                .ground_stations
                .iter()
                .map(|g| (g.position.latitude_deg(), g.position.longitude_deg()))
                .collect(),
        };
        let horizon = (config.duration_s - 2.0 * config.update_interval_s).max(0.0);
        let windows = engine.generate(&topology, horizon, &SimRng::seed_from_u64(config.seed));

        let mut faults = Vec::new();
        let mut flaps = Vec::new();
        for window in &windows {
            let at = SimInstant::from_secs_f64(window.start_s);
            let recover_at = Some(SimInstant::from_secs_f64(window.end_s));
            match window.spec {
                ChaosSpec::PlaneOutage { shell, plane } => {
                    let per_plane = config.shells[shell as usize].walker.satellites_per_plane;
                    for idx in plane * per_plane..(plane + 1) * per_plane {
                        faults.push(FaultEvent {
                            node: NodeId::satellite(shell, idx),
                            at,
                            kind: FaultKind::CrashAndReboot,
                            recover_at,
                        });
                    }
                }
                ChaosSpec::SolarStorm { lat_min_deg, lat_max_deg, cpu_share_percent } => {
                    // Band membership against propagated positions at the
                    // window start — the storm hits the satellites actually
                    // crossing the band, not a static index range.
                    let state = constellation.state_at(window.start_s)?;
                    for (shell_idx, shell) in config.shells.iter().enumerate() {
                        for sat_idx in 0..shell.satellite_count() {
                            let node = NodeId::satellite(shell_idx as u16, sat_idx);
                            let lat = state.position(node)?.to_geodetic().latitude_deg();
                            if (lat_min_deg..=lat_max_deg).contains(&lat) {
                                faults.push(FaultEvent {
                                    node,
                                    at,
                                    kind: FaultKind::Degradation { cpu_share_percent },
                                    recover_at,
                                });
                            }
                        }
                    }
                }
                ChaosSpec::RegionBlackout { center_lat_deg, center_lon_deg, radius_km } => {
                    let center = celestial_types::geo::Geodetic::new(
                        center_lat_deg,
                        center_lon_deg,
                        0.0,
                    );
                    for (gst_idx, gst) in config.ground_stations.iter().enumerate() {
                        if center.great_circle_distance_km(&gst.position) <= radius_km {
                            faults.push(FaultEvent {
                                node: NodeId::ground_station(gst_idx as u32),
                                at,
                                kind: FaultKind::CrashAndReboot,
                                recover_at,
                            });
                        }
                    }
                }
                ChaosSpec::LinkFlap { period_s, down_fraction, salt } => {
                    flaps.push(FlapWindow {
                        start_s: window.start_s,
                        end_s: window.end_s,
                        period_s,
                        down_fraction,
                        salt,
                    });
                }
            }
        }
        faults.sort_by_key(|f| (f.at, f.node));
        Ok((faults, LinkSuppression::new(flaps)))
    }

    /// The configuration this testbed was built from.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// The emulated constellation.
    pub fn constellation(&self) -> &Constellation {
        self.coordinator.constellation()
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The epoch-snapshot store the serving plane reads from; `Some` exactly
    /// when the configuration has a `[serve]` section (see `docs/SERVE.md`).
    pub fn snapshot_store(&self) -> Option<&std::sync::Arc<crate::snapshot::SnapshotStore>> {
        self.coordinator.snapshot_store()
    }

    /// The DNS service.
    pub fn dns(&self) -> &DnsService {
        &self.dns
    }

    /// Number of tenants sharing this testbed's epoch pipeline (1 for a
    /// solo testbed; see `docs/TENANTS.md`).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// One tenant's runtime, by identifier.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn tenant(&self, tenant: TenantId) -> &TenantRuntime {
        &self.tenants[tenant.index()]
    }

    /// All tenant runtimes, indexed by [`TenantId`].
    pub fn tenants(&self) -> &[TenantRuntime] {
        &self.tenants
    }

    /// The machine managers of tenant 0, one per host.
    pub fn managers(&self) -> &[MachineManager] {
        &self.tenants[0].managers
    }

    /// Tenant 0's network plane: the single global rule table, or one shard
    /// per host when `shards = N` is configured (see `docs/SHARDING.md`).
    pub fn network(&self) -> &NetworkPlane {
        &self.tenants[0].network
    }

    /// Tenant 0's per-host CPU utilisation traces recorded during the run
    /// (percent).
    pub fn host_cpu_series(&self) -> &[TimeSeries] {
        &self.tenants[0].host_cpu
    }

    /// Tenant 0's per-host memory utilisation traces recorded during the
    /// run (percent).
    pub fn host_memory_series(&self) -> &[TimeSeries] {
        &self.tenants[0].host_memory
    }

    /// Tenant 0's per-host Firecracker process counts recorded during the
    /// run.
    pub fn host_process_series(&self) -> &[TimeSeries] {
        &self.tenants[0].host_processes
    }

    /// Counters of tenant 0's application messages `(delivered, dropped)`.
    pub fn message_counters(&self) -> (u64, u64) {
        self.tenants[0].message_counters()
    }

    /// Number of tenant 0's post-fault reboots that failed (the machine
    /// could not be re-activated when its recovery event fired). A healthy
    /// run reports zero; failures no longer vanish silently.
    pub fn failed_recoveries(&self) -> u64 {
        self.tenants[0].failed_recoveries
    }

    /// Number of tenant 0's injected faults that were ignored because the
    /// target machine could not take them — e.g. a second crash landing
    /// inside an earlier outage window, or a degradation of a machine that
    /// is not running. Mirrors
    /// [`failed_recoveries`](Self::failed_recoveries): nothing vanishes
    /// silently.
    pub fn ignored_faults(&self) -> u64 {
        self.tenants[0].ignored_faults
    }

    /// Total chaos events lowered from the `[chaos]` schedule (fault events
    /// plus link-flap windows); zero when chaos is disabled.
    pub fn chaos_events(&self) -> u64 {
        self.chaos_events
    }

    /// Number of tenant 0's injected fault windows currently in effect.
    pub fn active_faults(&self) -> u64 {
        self.tenants[0].active_faults
    }

    /// Schedules fault events (e.g. generated by
    /// [`celestial_machines::FaultInjector`]) to be injected into tenant 0
    /// during the run.
    pub fn schedule_faults(&mut self, faults: impl IntoIterator<Item = FaultEvent>) {
        self.tenants[0].scheduled_faults.extend(faults);
    }

    /// Schedules fault events to be injected into one tenant during the
    /// run; other tenants are unaffected (see `docs/TENANTS.md`).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn schedule_faults_for(
        &mut self,
        tenant: TenantId,
        faults: impl IntoIterator<Item = FaultEvent>,
    ) {
        self.tenants[tenant.index()].scheduled_faults.extend(faults);
    }

    /// Runs a guest application for the configured experiment duration.
    ///
    /// The application runs as tenant 0; fleets run one application per
    /// tenant through [`run_fleet`](Self::run_fleet).
    ///
    /// # Errors
    ///
    /// Propagates constellation, machine and configuration errors, and
    /// rejects multi-tenant testbeds (which need one application per
    /// tenant).
    pub fn run(&mut self, app: &mut dyn GuestApplication) -> Result<()> {
        let mut apps: [&mut dyn GuestApplication; 1] = [app];
        self.run_fleet(&mut apps)
    }

    /// Runs one guest application per tenant for the configured experiment
    /// duration, interleaving all tenants over the shared epoch pipeline.
    ///
    /// `apps[i]` runs as tenant `i`. Tenants are isolated: each has its own
    /// machines, network, faults and RNG, so a tenant's observations are
    /// bit-identical whether it runs solo or inside a fleet (see
    /// `docs/TENANTS.md`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Application`] when the number of applications does
    /// not match the number of tenants, and propagates constellation,
    /// machine and configuration errors.
    pub fn run_fleet(&mut self, apps: &mut [&mut dyn GuestApplication]) -> Result<()> {
        if apps.len() != self.tenants.len() {
            return Err(Error::Application(format!(
                "the fleet has {} tenants but {} applications were supplied",
                self.tenants.len(),
                apps.len()
            )));
        }
        let end = SimInstant::from_secs_f64(self.config.duration_s);
        let mut sim: Simulation<(usize, Event)> = Simulation::new();

        // Setup: boot every ground-station machine so applications can start
        // immediately (the paper's experiments have a setup phase before the
        // measured window).
        for tenant in &mut self.tenants {
            tenant.boot_ground_stations(&self.config)?;
        }

        // First constellation update, then recurring events.
        self.apply_constellation_update(&mut sim, SimInstant::EPOCH)?;
        let interval = self.coordinator.update_interval();
        sim.schedule_at(SimInstant::EPOCH + interval, (0, Event::ConstellationUpdate));
        for i in 0..self.tenants.len() {
            sim.schedule_at(SimInstant::EPOCH, (i, Event::UtilizationSample));
        }
        for i in 0..self.tenants.len() {
            for fault in std::mem::take(&mut self.tenants[i].scheduled_faults) {
                sim.schedule_at(fault.at, (i, Event::Fault(fault)));
            }
        }

        for (i, app) in apps.iter_mut().enumerate() {
            self.run_app_callback(&mut sim, SimInstant::EPOCH, i, &mut **app, AppCall::Start)?;
        }

        while let Some((t, (i, event))) = sim.step() {
            if t > end {
                break;
            }
            self.now = t;
            match event {
                Event::ConstellationUpdate => {
                    self.apply_constellation_update(&mut sim, t)?;
                    sim.schedule_at(t + interval, (0, Event::ConstellationUpdate));
                    for (j, app) in apps.iter_mut().enumerate() {
                        self.run_app_callback(
                            &mut sim,
                            t,
                            j,
                            &mut **app,
                            AppCall::ConstellationUpdate,
                        )?;
                    }
                }
                Event::UtilizationSample => {
                    self.tenants[i].sample(t);
                    sim.schedule_at(
                        t + SimDuration::from_secs_f64(self.config.utilization_sample_interval_s),
                        (i, Event::UtilizationSample),
                    );
                }
                Event::BootComplete(node) => {
                    let tenant = &mut self.tenants[i];
                    let host = tenant.host_for(node);
                    tenant.managers[host].finish_boot(node, t)?;
                }
                Event::AppTimer(tag) => {
                    self.run_app_callback(&mut sim, t, i, &mut *apps[i], AppCall::Timer(tag))?;
                }
                Event::Deliver(packet) => {
                    let tenant = &mut self.tenants[i];
                    let host = tenant.host_for(packet.destination);
                    if tenant.managers[host].is_running(packet.destination) {
                        tenant.messages_delivered += 1;
                        self.run_app_callback(
                            &mut sim,
                            t,
                            i,
                            &mut *apps[i],
                            AppCall::Message(packet),
                        )?;
                    } else {
                        tenant.messages_dropped += 1;
                    }
                }
                Event::Fault(fault) => {
                    self.tenants[i].inject_fault(&mut sim, fault);
                }
                Event::Recover(node) => {
                    self.tenants[i].recover(&mut sim, &self.config, t, node)?;
                }
            }
        }
        self.now = end;
        Ok(())
    }

    fn apply_constellation_update(
        &mut self,
        sim: &mut Simulation<(usize, Event)>,
        now: SimInstant,
    ) -> Result<()> {
        let diff = self.coordinator.update(now.as_secs_f64())?;

        if self.chaos_enabled {
            // Surface the chaos counters on `/info` at every epoch boundary:
            // the static schedule size, the fault windows currently in
            // effect, and how many links this epoch's flap mask removed.
            let suppressed = self
                .coordinator
                .database()
                .state()
                .map_or(0, |s| s.suppressed_link_count() as u64);
            self.coordinator.record_chaos(
                self.chaos_events,
                self.tenants[0].active_faults,
                suppressed,
            );
        }

        // The orbital diff is shared: every tenant boots and suspends the
        // same machines, then applies its own programme change set.
        let mut to_activate: Vec<NodeId> = Vec::new();
        for (node, activity) in &diff.machines_added {
            if *activity == celestial_constellation::snapshot::MachineActivity::Active {
                to_activate.push(*node);
            }
        }
        to_activate.extend(diff.activated.iter().copied());

        for i in 0..self.tenants.len() {
            let tenant = TenantId(i as u32);
            let report = self.tenants[i].apply_epoch(
                sim,
                now,
                &self.config,
                &to_activate,
                &diff.suspended,
                self.coordinator.programme_delta_for(tenant),
                self.coordinator.host_deltas_for(tenant),
            )?;
            // The `/info` shard-apply report tracks tenant 0, keeping solo
            // reporting bit-identical to a pre-tenancy run.
            if i == 0 {
                if let Some(report) = report {
                    self.coordinator.record_shard_apply(&report);
                }
            }
        }
        Ok(())
    }

    fn run_app_callback(
        &mut self,
        sim: &mut Simulation<(usize, Event)>,
        now: SimInstant,
        index: usize,
        app: &mut dyn GuestApplication,
        call: AppCall,
    ) -> Result<()> {
        let tenant = &mut self.tenants[index];
        let mut ctx = AppContext {
            now,
            tenant: tenant.id,
            database: self.coordinator.database(),
            dns: &self.dns,
            managers: &tenant.managers,
            node_to_host: &tenant.node_to_host,
            network: &tenant.network,
            rng: &mut tenant.rng,
            commands: Vec::new(),
        };
        match call {
            AppCall::Start => app.on_start(&mut ctx),
            AppCall::ConstellationUpdate => app.on_constellation_update(&mut ctx),
            AppCall::Timer(tag) => app.on_timer(tag, &mut ctx),
            AppCall::Message(packet) => app.on_message(&packet, &mut ctx),
        }
        let commands = ctx.commands;
        self.tenants[index].apply_commands(sim, now, &self.config, commands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::{BoundingBox, GroundStation, Shell};
    use celestial_sgp4::WalkerShell;
    use celestial_types::geo::Geodetic;

    fn west_africa_config(duration_s: f64) -> TestbedConfig {
        TestbedConfig::builder()
            .seed(1)
            .update_interval_s(2.0)
            .duration_s(duration_s)
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 24, 22)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap()
    }

    /// A ping-pong application between the two configured ground stations.
    #[derive(Default)]
    struct PingPong {
        accra: Option<NodeId>,
        abuja: Option<NodeId>,
        rtts_ms: Vec<f64>,
        sent_at: BTreeMap<u64, SimInstant>,
        next_seq: u64,
    }

    impl PingPong {
        fn send_ping(&mut self, ctx: &mut AppContext<'_>) {
            let (Some(a), Some(b)) = (self.accra, self.abuja) else { return };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.sent_at.insert(seq, ctx.now());
            ctx.send(a, b, 1_250, seq.to_le_bytes().to_vec());
        }
    }

    impl GuestApplication for PingPong {
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            self.accra = ctx.ground_station("accra");
            self.abuja = ctx.ground_station("abuja");
            assert!(ctx.is_running(self.accra.unwrap()));
            self.send_ping(ctx);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }

        fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
            self.send_ping(ctx);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }

        fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
            let seq = u64::from_le_bytes(message.payload[..8].try_into().unwrap());
            if message.destination == self.abuja.unwrap() {
                // Bounce the ping straight back.
                ctx.send(self.abuja.unwrap(), self.accra.unwrap(), 1_250, message.payload.to_vec());
            } else if let Some(sent) = self.sent_at.remove(&seq) {
                self.rtts_ms.push(ctx.now().duration_since(sent).as_millis_f64());
            }
        }
    }

    #[test]
    fn ping_pong_round_trips_match_the_emulated_network() {
        let config = west_africa_config(30.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        // One ping per second for 30 seconds; most should complete.
        assert!(app.rtts_ms.len() >= 20, "only {} RTTs", app.rtts_ms.len());
        for rtt in &app.rtts_ms {
            // Accra–Abuja over 550 km satellites: a few ms each way, never
            // more than a few tens of milliseconds, never below ~2 ms.
            assert!(*rtt >= 2.0 && *rtt <= 80.0, "rtt {rtt}");
        }
        let (delivered, _) = testbed.message_counters();
        assert!(delivered >= 40);
    }

    #[test]
    fn utilization_traces_are_recorded() {
        let config = west_africa_config(10.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        assert_eq!(testbed.host_cpu_series().len(), 3);
        for series in testbed.host_cpu_series() {
            assert!(series.len() >= 10);
        }
        // At least one host runs satellites of the bounding box.
        let max_processes: f64 = testbed
            .host_process_series()
            .iter()
            .flat_map(|s| s.values())
            .fold(0.0, f64::max);
        assert!(max_processes >= 1.0);
    }

    #[test]
    fn bounding_box_suspends_and_resumes_machines_over_time() {
        let config = west_africa_config(120.0);
        let mut testbed = Testbed::new(&config).unwrap();
        struct Nop;
        impl GuestApplication for Nop {}
        testbed.run(&mut Nop).unwrap();
        // Some machines must have been created for satellites.
        let total_machines: usize = testbed.managers().iter().map(|m| m.host().machine_count()).sum();
        assert!(total_machines > 2, "machines {total_machines}");
        // Process counts change over time as satellites enter and leave.
        let any_change = testbed.host_process_series().iter().any(|s| {
            let values = s.values();
            values.iter().any(|v| *v != values[0])
        });
        assert!(any_change);
    }

    #[test]
    fn fault_injection_crashes_and_recovers_machines() {
        let config = west_africa_config(20.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let accra = NodeId::ground_station(0);
        testbed.schedule_faults([FaultEvent {
            node: accra,
            at: SimInstant::from_secs_f64(5.0),
            kind: celestial_machines::FaultKind::CrashAndReboot,
            recover_at: Some(SimInstant::from_secs_f64(10.0)),
        }]);
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        // The experiment still completes and produces RTTs despite the crash.
        assert!(!app.rtts_ms.is_empty());
        let (_, dropped) = testbed.message_counters();
        assert!(dropped > 0, "messages to the crashed machine should drop");
        // The machine recovered before the end of the run, and no recovery
        // attempt failed silently.
        let host = testbed
            .managers()
            .iter()
            .find(|m| m.has_machine(accra))
            .unwrap();
        assert!(host.is_running(accra));
        assert_eq!(testbed.failed_recoveries(), 0);
    }

    #[test]
    fn degradation_throttles_instead_of_crashing() {
        let config = west_africa_config(20.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let accra = NodeId::ground_station(0);
        // No recovery: the reduced quota must still be in force at the end.
        testbed.schedule_faults([FaultEvent {
            node: accra,
            at: SimInstant::from_secs_f64(5.0),
            kind: celestial_machines::FaultKind::Degradation { cpu_share_percent: 25 },
            recover_at: None,
        }]);
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        let host = testbed
            .managers()
            .iter()
            .find(|m| m.has_machine(accra))
            .unwrap();
        // The machine was throttled, not killed: it keeps running, keeps
        // answering pings, and no message is dropped.
        assert!(host.is_running(accra));
        assert!((host.cpu_share(accra).unwrap() - 0.25).abs() < 1e-9);
        assert!(!app.rtts_ms.is_empty());
        let (_, dropped) = testbed.message_counters();
        assert_eq!(dropped, 0, "degradation must not drop traffic");
        assert_eq!(testbed.ignored_faults(), 0);
    }

    #[test]
    fn degradation_recovery_restores_the_full_quota() {
        let config = west_africa_config(20.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let accra = NodeId::ground_station(0);
        testbed.schedule_faults([FaultEvent {
            node: accra,
            at: SimInstant::from_secs_f64(5.0),
            kind: celestial_machines::FaultKind::Degradation { cpu_share_percent: 25 },
            recover_at: Some(SimInstant::from_secs_f64(10.0)),
        }]);
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        let host = testbed
            .managers()
            .iter()
            .find(|m| m.has_machine(accra))
            .unwrap();
        assert!(host.is_running(accra));
        assert!((host.cpu_share(accra).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(testbed.failed_recoveries(), 0);
    }

    #[test]
    fn faults_on_downed_machines_are_ignored_and_counted() {
        let config = west_africa_config(30.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let accra = NodeId::ground_station(0);
        testbed.schedule_faults([
            FaultEvent {
                node: accra,
                at: SimInstant::from_secs_f64(5.0),
                kind: celestial_machines::FaultKind::CrashAndReboot,
                recover_at: Some(SimInstant::from_secs_f64(15.0)),
            },
            // Strikes while the machine is already down: ignored, and its
            // recovery must not be scheduled (the machine stays down until
            // the first fault's recovery at t=15).
            FaultEvent {
                node: accra,
                at: SimInstant::from_secs_f64(8.0),
                kind: celestial_machines::FaultKind::CrashAndReboot,
                recover_at: Some(SimInstant::from_secs_f64(9.0)),
            },
            // A degradation on a downed machine is equally ignored.
            FaultEvent {
                node: accra,
                at: SimInstant::from_secs_f64(10.0),
                kind: celestial_machines::FaultKind::Degradation { cpu_share_percent: 50 },
                recover_at: Some(SimInstant::from_secs_f64(12.0)),
            },
        ]);
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        assert_eq!(testbed.ignored_faults(), 2);
        let host = testbed
            .managers()
            .iter()
            .find(|m| m.has_machine(accra))
            .unwrap();
        assert!(host.is_running(accra));
        // The ignored degradation left no residual quota once the machine
        // rebooted.
        assert!((host.cpu_share(accra).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(testbed.failed_recoveries(), 0);
    }

    #[test]
    fn chaos_section_schedules_faults_and_reports_counters() {
        let mut config = west_africa_config(40.0);
        config.chaos = Some(crate::config::ChaosConfig::default());
        let mut testbed = Testbed::new(&config).unwrap();
        assert!(testbed.chaos_events() > 0);
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        let report = testbed
            .coordinator()
            .database()
            .chaos_report()
            .expect("chaos runs must publish a chaos report");
        assert_eq!(report.events, testbed.chaos_events());
        // Deterministic: the same seed schedules the same chaos.
        let twin = Testbed::new(&config).unwrap();
        assert_eq!(twin.chaos_events(), testbed.chaos_events());
    }

    #[test]
    fn chaos_free_runs_publish_no_chaos_report() {
        let config = west_africa_config(10.0);
        let mut testbed = Testbed::new(&config).unwrap();
        let mut app = PingPong::default();
        testbed.run(&mut app).unwrap();
        assert!(testbed.coordinator().database().chaos_report().is_none());
        assert_eq!(testbed.chaos_events(), 0);
    }

    #[test]
    fn a_fleet_runs_every_tenant_identically_to_a_solo_run() {
        let solo_config = west_africa_config(20.0);
        let mut solo = Testbed::new(&solo_config).unwrap();
        let mut solo_app = PingPong::default();
        solo.run(&mut solo_app).unwrap();

        let mut fleet_config = west_africa_config(20.0);
        fleet_config.tenants = Some(crate::config::TenantsConfig {
            count: 3,
            names: Vec::new(),
        });
        let mut fleet = Testbed::new(&fleet_config).unwrap();
        assert_eq!(fleet.tenant_count(), 3);
        let mut apps = [PingPong::default(), PingPong::default(), PingPong::default()];
        {
            let mut refs: Vec<&mut dyn GuestApplication> = apps
                .iter_mut()
                .map(|a| a as &mut dyn GuestApplication)
                .collect();
            fleet.run_fleet(&mut refs).unwrap();
        }
        for (i, app) in apps.iter().enumerate() {
            assert_eq!(
                app.rtts_ms, solo_app.rtts_ms,
                "tenant {i} diverged from the solo run"
            );
            let tenant = fleet.tenant(TenantId(i as u32));
            assert_eq!(tenant.message_counters(), solo.message_counters());
            assert_eq!(tenant.failed_recoveries(), 0);
            assert_eq!(tenant.name(), format!("tenant-{i}"));
        }
    }

    #[test]
    fn fleet_faults_stay_with_their_tenant() {
        let mut config = west_africa_config(20.0);
        config.tenants = Some(crate::config::TenantsConfig {
            count: 2,
            names: vec!["victim".to_owned(), "bystander".to_owned()],
        });
        let mut testbed = Testbed::new(&config).unwrap();
        let accra = NodeId::ground_station(0);
        testbed.schedule_faults_for(
            TenantId(0),
            [FaultEvent {
                node: accra,
                at: SimInstant::from_secs_f64(5.0),
                kind: celestial_machines::FaultKind::CrashAndReboot,
                recover_at: Some(SimInstant::from_secs_f64(10.0)),
            }],
        );
        let mut victim = PingPong::default();
        let mut bystander = PingPong::default();
        {
            let mut refs: Vec<&mut dyn GuestApplication> = vec![&mut victim, &mut bystander];
            testbed.run_fleet(&mut refs).unwrap();
        }
        let (_, victim_dropped) = testbed.tenant(TenantId(0)).message_counters();
        let (_, bystander_dropped) = testbed.tenant(TenantId(1)).message_counters();
        assert!(victim_dropped > 0, "the victim's crash must drop messages");
        assert_eq!(bystander_dropped, 0, "the bystander must be unaffected");
        assert_eq!(testbed.tenant(TenantId(0)).name(), "victim");
        assert_eq!(testbed.tenant(TenantId(1)).name(), "bystander");
    }

    #[test]
    fn run_fleet_rejects_a_mismatched_application_count() {
        let mut config = west_africa_config(10.0);
        config.tenants = Some(crate::config::TenantsConfig { count: 2, names: Vec::new() });
        let mut testbed = Testbed::new(&config).unwrap();
        let mut app = PingPong::default();
        let mut refs: Vec<&mut dyn GuestApplication> = vec![&mut app];
        let err = testbed.run_fleet(&mut refs).unwrap_err();
        assert!(err.to_string().contains("2 tenants"), "{err}");
    }
}

//! The lockstep harness: a journalling guest application plus run/compare
//! helpers that capture **everything a run observes** as one comparable
//! value. `tests/shard_lockstep.rs` uses it to prove the sharded plane
//! bit-identical to the global network; `tests/chaos_convergence.rs` uses it
//! to prove chaos runs deterministic and convergent (`docs/CHAOS.md`).

use celestial::config::{
    ScenarioBlock, ScenarioBlockKind, ScenarioConfig, ServeConfig, TenantsConfig, TestbedConfig,
};
use celestial_apps::ScenarioTenant;
use celestial::pipeline::PipelineMode;
use celestial::testbed::{AppContext, GuestApplication, Testbed};
use celestial::Coordinator;
use celestial_types::ids::TenantId;
use celestial_constellation::Constellation;
use celestial_serve::ServePlane;
use httpd::Client;
use celestial_constellation::{BoundingBox, GroundStation, ScopeParams, Shell};
use celestial_machines::FaultEvent;
use celestial_netem::packet::Packet;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::{SimDuration, SimInstant};

/// The host counts to exercise, from `CELESTIAL_LOCKSTEP_HOSTS` (a comma
/// list, default `1,4`), which CI uses to split the 1-host and 4-host legs
/// into separate jobs.
pub fn host_matrix() -> Vec<u32> {
    let spec = std::env::var("CELESTIAL_LOCKSTEP_HOSTS").unwrap_or_else(|_| "1,4".to_owned());
    let hosts: Vec<u32> = spec
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .filter(|&h| h >= 1)
        .collect();
    assert!(!hosts.is_empty(), "CELESTIAL_LOCKSTEP_HOSTS={spec:?} names no host count");
    hosts
}

/// The lockstep configuration: 12×16 +GRID shell over a West-Africa
/// bounding box, two ground stations, 1 s epochs. The deliberately large
/// 6 ms host latency makes the ground-station pair's few-millisecond targets
/// clamp, so the clamp accounting is exercised for real (and must agree
/// between the planes).
pub fn config(seed: u64, duration_s: f64, mode: PipelineMode, hosts: u32, sharded: bool) -> TestbedConfig {
    let mut builder = TestbedConfig::builder()
        .seed(seed)
        .update_interval_s(1.0)
        .duration_s(duration_s)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(mode)
        .host_latency_us(6_000)
        .hosts(vec![celestial::config::HostConfig::default(); hosts as usize]);
    if sharded {
        builder = builder.shards(hosts);
    }
    builder.build().expect("valid config")
}

/// Whether the megascale lockstep legs are enabled: they re-run the suites
/// on a 72×22 Starlink-class shell (1,584 satellites) with the scoped
/// solve pruning most source rows, which is too heavy for the default
/// `cargo test` pass. CI runs them in a dedicated release-mode leg with
/// `CELESTIAL_MEGASCALE=1` (see `docs/MEGASCALE.md`).
pub fn megascale_enabled() -> bool {
    std::env::var("CELESTIAL_MEGASCALE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The megascale lockstep configuration: the same ground stations, bounding
/// box and host latency as [`config`], on a 72×22 shell at a reduced epoch
/// count — enough boundaries for satellites to enter and leave the scope
/// while keeping a four-way lockstep comparison affordable.
pub fn megascale_config(
    seed: u64,
    duration_s: f64,
    mode: PipelineMode,
    hosts: u32,
    sharded: bool,
) -> TestbedConfig {
    let mut builder = TestbedConfig::builder()
        .seed(seed)
        .update_interval_s(1.0)
        .duration_s(duration_s)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 72, 22)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(mode)
        .host_latency_us(6_000)
        .hosts(vec![celestial::config::HostConfig::default(); hosts as usize]);
    if sharded {
        builder = builder.shards(hosts);
    }
    builder.build().expect("valid config")
}

/// A ping-pong application journalling every constellation update: the
/// `/info`-visible programme counters, the emulated and expected pair
/// latency, machine liveness, and the network-plane counters including the
/// clamp count.
#[derive(Default)]
pub struct Journal {
    accra: Option<NodeId>,
    abuja: Option<NodeId>,
    rtts_ms: Vec<f64>,
    sent_at: std::collections::BTreeMap<u64, SimInstant>,
    next_seq: u64,
    epochs: Vec<String>,
}

impl Journal {
    fn ping(&mut self, ctx: &mut AppContext<'_>) {
        let (Some(a), Some(b)) = (self.accra, self.abuja) else { return };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at.insert(seq, ctx.now());
        ctx.send(a, b, 1_250, seq.to_le_bytes().to_vec());
    }
}

impl GuestApplication for Journal {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.accra = ctx.ground_station("accra");
        self.abuja = ctx.ground_station("abuja");
        self.ping(ctx);
        ctx.set_timer(SimDuration::from_millis(1_000), 0);
    }

    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        let stats = ctx.database().programme_stats();
        let line = format!(
            "t={:?} stats={:?} emulated={:?} expected={:?} accra_up={} abuja_up={}",
            ctx.database().updated_at_seconds(),
            stats.map(|s| (s.epoch, s.pairs, s.delta_ops)),
            ctx.emulated_latency(self.accra.unwrap(), self.abuja.unwrap()),
            ctx.expected_latency(self.accra.unwrap(), self.abuja.unwrap()),
            ctx.is_running(self.accra.unwrap()),
            ctx.is_running(self.abuja.unwrap()),
        );
        self.epochs.push(line);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
        self.ping(ctx);
        ctx.set_timer(SimDuration::from_millis(1_000), 0);
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        let seq = u64::from_le_bytes(message.payload[..8].try_into().unwrap());
        if message.destination == self.abuja.unwrap() {
            ctx.send(self.abuja.unwrap(), self.accra.unwrap(), 1_250, message.payload.to_vec());
        } else if let Some(sent) = self.sent_at.remove(&seq) {
            self.rtts_ms.push(ctx.now().duration_since(sent).as_millis_f64());
        }
    }
}

/// Everything a run observes that must be bit-identical across planes,
/// pipeline modes, and repeated runs.
#[derive(Debug, PartialEq)]
pub struct Observations {
    pub epochs: Vec<String>,
    pub rtts_ms: Vec<f64>,
    pub messages: (u64, u64),
    pub network: (u64, u64, u64),
    pub clamps: u64,
    pub failed_recoveries: u64,
    pub ignored_faults: u64,
    pub updates: u64,
}

/// Runs the journalling application over `config` plus manually scheduled
/// `faults` and captures the observations. Sharded runs additionally assert
/// the sharded plane's own consistency: the `/info`-visible per-shard pair
/// counts (maintained by the coordinator's partitioned merge walk) must
/// match what the shards actually hold, and every shard must have applied
/// its slice.
pub fn run_config(config: &TestbedConfig, faults: Vec<FaultEvent>) -> Observations {
    let mut testbed = Testbed::new(config).expect("testbed");
    testbed.schedule_faults(faults);
    let mut app = Journal::default();
    testbed.run(&mut app).expect("run");

    if let Some(shards) = config.shards {
        let plane = testbed.network().as_sharded().expect("sharded plane");
        let report = testbed
            .coordinator()
            .database()
            .shard_report()
            .expect("shard report surfaced");
        assert_eq!(report.pairs, plane.pair_counts(), "store/emulation shard counts diverged");
        assert_eq!(report.apply_ns.len() as u32, shards);
    } else {
        assert!(testbed.network().as_global().is_some());
        assert!(testbed.coordinator().database().shard_report().is_none());
    }

    Observations {
        epochs: app.epochs,
        rtts_ms: app.rtts_ms,
        messages: testbed.message_counters(),
        network: testbed.network().counters(),
        clamps: testbed.network().latency_clamp_count(),
        failed_recoveries: testbed.failed_recoveries(),
        ignored_faults: testbed.ignored_faults(),
        updates: testbed.coordinator().update_count(),
    }
}

/// Runs a fleet of `tenants` journalling applications over `config` and
/// captures the observations of the tenant at index `pinned`.
/// `noise_faults` are scheduled on every tenant **except** the pinned one,
/// so a lockstep comparison against a fault-free solo run proves tenant
/// isolation on top of bit-identity (see `docs/TENANTS.md`).
pub fn run_fleet_config(
    config: &TestbedConfig,
    tenants: u32,
    pinned: usize,
    noise_faults: Vec<FaultEvent>,
) -> Observations {
    let mut config = config.clone();
    config.tenants = Some(TenantsConfig {
        count: tenants,
        names: Vec::new(),
    });
    let mut testbed = Testbed::new(&config).expect("testbed");
    for index in 0..tenants as usize {
        if index != pinned {
            testbed.schedule_faults_for(TenantId(index as u32), noise_faults.clone());
        }
    }
    let mut apps: Vec<Journal> = (0..tenants).map(|_| Journal::default()).collect();
    let mut refs: Vec<&mut dyn GuestApplication> = apps
        .iter_mut()
        .map(|app| app as &mut dyn GuestApplication)
        .collect();
    testbed.run_fleet(&mut refs).expect("fleet run");

    let tenant = testbed.tenant(TenantId(pinned as u32));
    let app = apps.swap_remove(pinned);
    Observations {
        epochs: app.epochs,
        rtts_ms: app.rtts_ms,
        messages: tenant.message_counters(),
        network: tenant.network().counters(),
        clamps: tenant.network().latency_clamp_count(),
        failed_recoveries: tenant.failed_recoveries(),
        ignored_faults: tenant.ignored_faults(),
        updates: testbed.coordinator().update_count(),
    }
}

/// The deterministic routes of the serve leg: every info-API route class
/// plus a 404 and a 400, with the requester identity pinned via
/// `x-celestial-node` so replies do not depend on the peer address.
/// `/info` is deliberately absent — it reports wall-clock pipeline timings
/// and can never be bit-identical across runs.
pub const SERVE_ROUTES: &[(&str, &[(&str, &str)])] = &[
    ("/self", &[("x-celestial-node", "0.gst")]),
    ("/self", &[("x-celestial-node", "5.0")]),
    ("/shell/0", &[]),
    ("/sat/0/5", &[]),
    ("/gst/accra", &[]),
    ("/path/0.gst/1.gst", &[]),
    ("/bogus", &[]),
    ("/sat/x/1", &[]),
];

/// The serve leg's constellation: the same 12×16 +GRID shell and
/// ground-station pair as [`config`], built directly (no testbed) so the
/// coordinator can be stepped one epoch at a time with a serving plane
/// attached.
pub fn serve_constellation() -> Constellation {
    Constellation::builder()
        .shell(celestial_constellation::Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

/// Runs a coordinator in `mode` for `epochs` epochs with a live serving
/// plane answering from its snapshot store, requesting every
/// [`SERVE_ROUTES`] entry over HTTP after each boundary. Returns the journal
/// of `epoch route -> status body` lines; two runs observe the same world
/// exactly when their journals are bit-identical.
pub fn serve_journal(mode: PipelineMode, epochs: u32) -> Vec<String> {
    let interval = SimDuration::from_secs(1);
    let mut coordinator = Coordinator::with_scoped_fanout(
        serve_constellation(),
        interval,
        mode,
        None,
        vec!["tenant-0".to_owned()],
        ScopeParams::default(),
    );
    let store = coordinator.enable_snapshots();
    let plane = ServePlane::start(&ServeConfig::default(), store).expect("serve plane starts");
    let mut client = Client::connect(plane.addr()).expect("connect to serve plane");

    let mut journal = Vec::new();
    for epoch in 0..epochs {
        coordinator.update(f64::from(epoch)).expect("update");
        for (route, headers) in SERVE_ROUTES {
            let reply = client.get_with_headers(route, headers).expect("serve request");
            journal.push(format!(
                "e={} {route} -> {} {}",
                epoch + 1,
                reply.status,
                String::from_utf8_lossy(&reply.body),
            ));
        }
    }
    journal
}

/// Asserts two observation sets bit-identical, field by field, with
/// divergence-localising messages (`label` names the observed run).
pub fn assert_lockstep(label: &str, reference: &Observations, observed: &Observations) {
    assert_eq!(
        reference.epochs.len(),
        observed.epochs.len(),
        "{label} epoch count diverged"
    );
    for (epoch, (a, b)) in reference.epochs.iter().zip(&observed.epochs).enumerate() {
        assert_eq!(a, b, "{label} journal diverged at epoch {epoch}");
    }
    assert_eq!(reference.rtts_ms, observed.rtts_ms, "{label} RTTs diverged");
    assert_eq!(reference.messages, observed.messages, "{label} messages");
    assert_eq!(reference.network, observed.network, "{label} net counters");
    assert_eq!(reference.clamps, observed.clamps, "{label} clamp count");
    assert_eq!(
        reference.failed_recoveries, observed.failed_recoveries,
        "{label} failed recoveries"
    );
    assert_eq!(
        reference.ignored_faults, observed.ignored_faults,
        "{label} ignored faults"
    );
    assert_eq!(reference.updates, observed.updates, "{label} update count");
}

/// The scenario lockstep block set: one block of every kind, with
/// deliberately awkward intervals (30 ms, 250 ms, 333 ms) that never divide
/// the 1 s epochs, so flow-window accounting is exercised off the aligned
/// path. Stations are left positional except the failover pair, which is
/// wired backwards (primary accra, backup abuja) to cover explicit naming.
pub fn scenario_blocks() -> Vec<ScenarioBlock> {
    vec![
        ScenarioBlock {
            kind: ScenarioBlockKind::Cbr,
            name: "calls".to_owned(),
            population: 300,
            bitrate_bps: 2_600_000,
            interval_ms: 30.0,
            ..ScenarioBlock::default()
        },
        ScenarioBlock {
            kind: ScenarioBlockKind::Mobile,
            name: "riders".to_owned(),
            population: 200,
            ..ScenarioBlock::default()
        },
        ScenarioBlock {
            kind: ScenarioBlockKind::Iot,
            name: "buoys".to_owned(),
            population: 400,
            interval_ms: 333.0,
            burst_prob: 0.2,
            burst_factor: 8,
            ..ScenarioBlock::default()
        },
        ScenarioBlock {
            kind: ScenarioBlockKind::Cdn,
            name: "edge".to_owned(),
            population: 150,
            interval_ms: 250.0,
            hit_ratio: 0.85,
            ..ScenarioBlock::default()
        },
        ScenarioBlock {
            kind: ScenarioBlockKind::Failover,
            name: "backup".to_owned(),
            population: 100,
            sink: "accra".to_owned(),
            fallback: "abuja".to_owned(),
            ..ScenarioBlock::default()
        },
    ]
}

/// The scenario lockstep configuration: [`config`] plus a `[scenario]`
/// generator composing [`scenario_blocks`] into `tenants` generated tenants.
pub fn scenario_config(
    seed: u64,
    duration_s: f64,
    mode: PipelineMode,
    hosts: u32,
    sharded: bool,
    tenants: u32,
) -> TestbedConfig {
    let mut config = config(seed, duration_s, mode, hosts, sharded);
    config.scenario = Some(ScenarioConfig {
        tenants,
        blocks: scenario_blocks(),
    });
    config.validate().expect("valid scenario config");
    config
}

/// Captures one scenario tenant's observations: its per-epoch journal (all
/// block counters), probe latencies, and the tenant-scoped runtime counters.
fn scenario_observations(
    testbed: &Testbed,
    tenant: TenantId,
    app: &ScenarioTenant,
) -> Observations {
    let runtime = testbed.tenant(tenant);
    Observations {
        epochs: app.journal().to_vec(),
        rtts_ms: app.latencies_ms().to_vec(),
        messages: runtime.message_counters(),
        network: runtime.network().counters(),
        clamps: runtime.network().latency_clamp_count(),
        failed_recoveries: runtime.failed_recoveries(),
        ignored_faults: runtime.ignored_faults(),
        updates: testbed.coordinator().update_count(),
    }
}

/// Runs the generated tenant at `pinned` **solo**, fault-free: the fleet
/// config reduced to a single generated tenant, running the pinned tenant's
/// own generated application (same name, hence the same derived
/// `scenario.<tenant>.<block>` RNG streams as inside the fleet).
pub fn run_scenario_solo(config: &TestbedConfig, pinned: u32) -> Observations {
    let mut app = ScenarioTenant::for_index(config, pinned).expect("generate pinned tenant");
    let mut solo = config.clone();
    solo.scenario.as_mut().expect("scenario config").tenants = 1;
    let mut testbed = Testbed::new(&solo).expect("testbed");
    testbed.run(&mut app).expect("solo run");
    scenario_observations(&testbed, TenantId(0), &app)
}

/// Runs the full generated scenario fleet with `noise_faults` scheduled on
/// every tenant **except** `pinned`, and captures the pinned tenant's
/// observations (compare against [`run_scenario_solo`] for the isolation
/// contract, `docs/SCENARIOS.md`).
pub fn run_scenario_fleet(
    config: &TestbedConfig,
    pinned: usize,
    noise_faults: Vec<FaultEvent>,
) -> Observations {
    let tenants = config.scenario.as_ref().expect("scenario config").tenants;
    let mut testbed = Testbed::new(config).expect("testbed");
    for index in 0..tenants as usize {
        if index != pinned {
            testbed.schedule_faults_for(TenantId(index as u32), noise_faults.clone());
        }
    }
    let mut apps = ScenarioTenant::generate(config).expect("generate fleet");
    let mut refs: Vec<&mut dyn GuestApplication> = apps
        .iter_mut()
        .map(|app| app as &mut dyn GuestApplication)
        .collect();
    testbed.run_fleet(&mut refs).expect("fleet run");
    scenario_observations(&testbed, TenantId(pinned as u32), &apps[pinned])
}

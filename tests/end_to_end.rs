//! End-to-end integration tests spanning every crate of the workspace:
//! configuration → constellation → coordinator → machines → network →
//! applications.

use celestial::config::{HostConfig, TestbedConfig};
use celestial::estimator::{CostModel, ResourceEstimator};
use celestial::testbed::{AppContext, GuestApplication, Testbed};
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_constellation::{BoundingBox, GroundStation, Shell};
use celestial_netem::packet::Packet;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimDuration;

/// The §4 meetup testbed as a configuration file, shared with the strict
/// configuration tests.
const FULL_CONFIG_TOML: &str = include_str!("full_config.toml");

#[test]
fn toml_configuration_drives_a_full_meetup_experiment() {
    let config = TestbedConfig::from_toml(FULL_CONFIG_TOML).expect("valid TOML");
    assert_eq!(config.shells[0].satellite_count(), 1584);
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = MeetupExperiment::new(MeetupConfig::new(BridgeDeployment::Satellite));
    testbed.run(&mut app).expect("run");

    let latencies = app.all_latencies_ms();
    assert!(latencies.len() > 2_000, "only {} samples", latencies.len());
    let stats = celestial_sim::metrics::summarize(&latencies);
    // The headline claim of the paper's §4: the satellite bridge keeps the
    // conference within a few tens of milliseconds.
    assert!(stats.median < 25.0, "median {} ms", stats.median);
    // The coordinator kept updating throughout the run.
    assert!(testbed.coordinator().update_count() >= 20);
    // Utilisation traces exist for every host and stay within bounds.
    for series in testbed.host_cpu_series() {
        assert!(!series.is_empty());
        assert!(series.values().iter().all(|v| (0.0..=100.0).contains(v)));
    }
    for series in testbed.host_memory_series() {
        assert!(series.values().iter().all(|v| (0.0..=100.0).contains(v)));
    }
}

#[test]
fn dns_info_api_and_estimator_agree_with_the_running_testbed() {
    let config = TestbedConfig::from_toml(FULL_CONFIG_TOML).expect("valid TOML");
    let mut testbed = Testbed::new(&config).expect("testbed");

    struct Nop;
    impl GuestApplication for Nop {}
    testbed.run(&mut Nop).expect("run");

    // DNS resolves satellites and ground stations to unique addresses.
    let accra_ip = testbed.dns().resolve("accra.gst.celestial").expect("accra");
    let sat_ip = testbed.dns().resolve("100.0.celestial").expect("satellite");
    assert_ne!(accra_ip, sat_ip);

    // The info API answers guest queries from the coordinator's database.
    let database = testbed.coordinator().database();
    let api = celestial::info_api::InfoApi::new(database);
    let info = api
        .handle_path(NodeId::ground_station(0), "/info")
        .expect("info route");
    assert_eq!(info["satellites"], 1584);
    let path = api
        .handle_path(NodeId::ground_station(0), "/path/accra.gst/abuja.gst")
        .expect("path route");
    assert_eq!(path["connected"], true);
    assert!(path["latency_ms"].as_f64().unwrap() > 0.0);

    // The resource estimator's prediction is consistent with what actually
    // got booted during the run.
    let estimate = ResourceEstimator::estimate(&config);
    let booted: usize = testbed
        .managers()
        .iter()
        .map(|m| m.host().machine_count())
        .sum();
    assert!(booted > 0);
    assert!(
        (booted as f64) < estimate.expected_active_satellites * 4.0 + 10.0,
        "booted {booted}, estimated {}",
        estimate.expected_active_satellites
    );

    // The cost model reproduces the paper's two-orders-of-magnitude saving.
    let model = CostModel::default();
    assert!(model.saving_factor(3, 4409, 15.0) > 100.0);
}

/// A CDN-prefetch-style application that exercises machine suspension: it
/// sends a payload to every *active* satellite every 10 seconds and counts
/// how many are reachable.
#[derive(Default)]
struct ActiveSatelliteSweep {
    station: Option<NodeId>,
    reachable_per_round: Vec<usize>,
    current_round: usize,
}

impl GuestApplication for ActiveSatelliteSweep {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.station = ctx.ground_station("accra");
        ctx.set_timer(SimDuration::from_secs(10), 1);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
        let Some(station) = self.station else { return };
        let visible = ctx.visible_satellites(station);
        self.reachable_per_round.push(0);
        self.current_round = self.reachable_per_round.len() - 1;
        for sat in visible {
            if ctx.is_running(sat) {
                ctx.send(station, sat, 1_000, vec![42]);
            }
        }
        ctx.set_timer(SimDuration::from_secs(10), 1);
    }

    fn on_message(&mut self, message: &Packet, _ctx: &mut AppContext<'_>) {
        if message.payload.first() == Some(&42) {
            if let Some(count) = self.reachable_per_round.get_mut(self.current_round) {
                *count += 1;
            }
        }
    }
}

#[test]
fn bounding_box_keeps_visible_satellites_running() {
    let config = TestbedConfig::builder()
        .seed(3)
        .update_interval_s(2.0)
        .duration_s(60.0)
        .shell(Shell::from_walker(WalkerShell::starlink_shell1()))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .hosts(vec![HostConfig::default(); 2])
        .build()
        .expect("valid config");
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = ActiveSatelliteSweep::default();
    testbed.run(&mut app).expect("run");

    // Satellites visible from Accra lie inside the bounding box, so they are
    // running and answer (i.e. the suspension logic does not starve the
    // application).
    assert!(!app.reachable_per_round.is_empty());
    let rounds_with_answers = app
        .reachable_per_round
        .iter()
        .filter(|count| **count > 0)
        .count();
    assert!(
        rounds_with_answers >= app.reachable_per_round.len() / 2,
        "answers in {rounds_with_answers} of {} rounds",
        app.reachable_per_round.len()
    );
}

#[test]
fn network_programme_matches_an_independent_reference_and_is_never_uncapped() {
    // Regression guard for the delta-based programme engine: the programme
    // over every pair of programmable nodes (ground stations + active
    // satellites, including sat↔sat) must match a from-scratch reference —
    // one Dijkstra per source straight off the graph, with the bottleneck
    // read from the link *list* (independently of the CSR bandwidth arrays
    // the engine itself uses). A pair whose predecessor walk breaks or whose
    // path crosses a link without bandwidth must be absent, never uncapped.
    use celestial::coordinator::PairProgram;
    use celestial_constellation::path::{NO_NODE, UNREACHABLE};
    use celestial_types::Bandwidth;
    use std::collections::BTreeMap;

    let config = TestbedConfig::from_toml(FULL_CONFIG_TOML).expect("valid TOML");
    let constellation = celestial_constellation::Constellation::builder()
        .shells(config.shells.iter().cloned())
        .ground_stations(config.ground_stations.iter().cloned())
        .bounding_box(config.bounding_box)
        .path_algorithm(config.path_algorithm)
        .build()
        .expect("constellation");
    let mut coordinator =
        celestial::Coordinator::new(constellation, SimDuration::from_secs_f64(config.update_interval_s));

    for step in 0..3u32 {
        coordinator.update(f64::from(step) * config.update_interval_s).expect("update");
        let programme = coordinator.network_programme().expect("programme");
        assert!(!programme.is_empty());
        assert!(
            programme.iter().all(|p| !p.bandwidth.is_infinite()),
            "uncapped pair leaked into the programme at step {step}"
        );

        // Independent reference: direct link bandwidths from the link list.
        let state = coordinator.database().state().expect("state");
        let mut link_bandwidth: BTreeMap<(usize, usize), Bandwidth> = BTreeMap::new();
        for link in &state.links {
            let a = state.node_index(link.a).unwrap();
            let b = state.node_index(link.b).unwrap();
            let key = if a <= b { (a, b) } else { (b, a) };
            let entry = link_bandwidth.entry(key).or_insert(Bandwidth::ZERO);
            if link.bandwidth > *entry {
                *entry = link.bandwidth;
            }
        }

        // Programmable nodes in ascending node-index order: active
        // satellites first (satellite indices precede ground stations).
        let mut sources: Vec<usize> = state
            .active_satellites()
            .into_iter()
            .map(|sat| state.node_index(NodeId::Satellite(sat)).unwrap())
            .collect();
        sources.extend(
            (0..state.ground_station_count() as u32)
                .map(|gst| state.node_index(NodeId::ground_station(gst)).unwrap()),
        );
        assert!(sources.windows(2).all(|w| w[0] < w[1]));

        let mut reference: Vec<PairProgram> = Vec::new();
        for (i, &source) in sources.iter().enumerate() {
            let (dist, prev) = state.graph().dijkstra(source);
            for &target in &sources[i + 1..] {
                if dist[target] == UNREACHABLE {
                    continue;
                }
                // Fold the bottleneck; a broken chain or missing link makes
                // the pair unreachable in the reference too.
                let mut bandwidth: Option<Bandwidth> = None;
                let mut here = target;
                let complete = loop {
                    if here == source {
                        break true;
                    }
                    if prev[here] == NO_NODE {
                        break false;
                    }
                    let parent = prev[here] as usize;
                    let key = if parent <= here { (parent, here) } else { (here, parent) };
                    match link_bandwidth.get(&key) {
                        Some(bw) => {
                            bandwidth = Some(bandwidth.map_or(*bw, |cur| cur.bottleneck(*bw)))
                        }
                        None => break false,
                    }
                    here = parent;
                };
                let (true, Some(bandwidth)) = (complete, bandwidth) else {
                    continue;
                };
                reference.push(PairProgram {
                    a: state.node_id(source).unwrap(),
                    b: state.node_id(target).unwrap(),
                    latency: celestial_types::Latency::from_micros(dist[target]).quantized_tenth_ms(),
                    bandwidth,
                });
            }
        }

        assert_eq!(programme.len(), reference.len(), "pair count at step {step}");
        for (got, want) in programme.iter().zip(&reference) {
            assert_eq!(got, want, "programme entry diverged at step {step}");
        }
        // Full coverage classes: gst↔gst, sat↔gst and sat↔sat all present.
        assert!(programme.iter().any(|p| p.a.is_ground_station() && p.b.is_ground_station()));
        assert!(programme.iter().any(|p| p.a.is_satellite() && p.b.is_ground_station()));
        assert!(programme.iter().any(|p| p.a.is_satellite() && p.b.is_satellite()));
    }
}

/// A satellite-hosted workload: on every constellation update, pick two
/// running active satellites and exchange a message between them, verifying
/// that the emulated network programs active-sat↔active-sat pairs.
#[derive(Default)]
struct SatelliteToSatellite {
    sent: u64,
    delivered: u64,
    latency_checks: u64,
}

impl GuestApplication for SatelliteToSatellite {
    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        let Some(state) = ctx.database().state() else { return };
        let running: Vec<NodeId> = state
            .active_satellites()
            .into_iter()
            .map(NodeId::Satellite)
            .filter(|sat| ctx.is_running(*sat))
            .take(2)
            .collect();
        let [a, b] = running.as_slice() else { return };
        let (a, b) = (*a, *b);
        // The pair must be programmed into the emulation, and its emulated
        // latency must match the constellation calculation up to the 0.1 ms
        // tc quantization.
        let emulated = ctx.emulated_latency(a, b).expect("sat↔sat pair is programmed");
        let expected = ctx.expected_latency(a, b).expect("sat↔sat pair is connected");
        let drift_ms = (emulated.as_millis_f64() - expected.as_millis_f64()).abs();
        assert!(drift_ms <= 0.051, "sat↔sat latency drifts by {drift_ms} ms");
        self.latency_checks += 1;
        self.sent += 1;
        ctx.send(a, b, 1_000, vec![7]);
    }

    fn on_message(&mut self, message: &Packet, _ctx: &mut AppContext<'_>) {
        if message.payload.first() == Some(&7) {
            self.delivered += 1;
        }
    }
}

#[test]
fn active_satellites_can_exchange_messages() {
    let config = TestbedConfig::builder()
        .seed(11)
        .update_interval_s(2.0)
        .duration_s(40.0)
        .shell(Shell::from_walker(WalkerShell::starlink_shell1()))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .hosts(vec![HostConfig::default(); 2])
        .build()
        .expect("valid config");
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = SatelliteToSatellite::default();
    testbed.run(&mut app).expect("run");
    assert!(app.latency_checks > 5, "only {} latency checks", app.latency_checks);
    assert!(app.sent > 5, "only {} sat↔sat messages sent", app.sent);
    assert!(
        app.delivered >= app.sent / 2,
        "only {}/{} sat↔sat messages delivered",
        app.delivered,
        app.sent
    );
    assert_eq!(testbed.failed_recoveries(), 0);
}

/// A raw `shards = N` TOML drives a sharded testbed end to end: the plane
/// comes up sharded, traffic flows, and the `/info`-visible shard figures
/// are populated (see `docs/SHARDING.md`).
#[test]
fn toml_shards_key_drives_a_sharded_run_end_to_end() {
    let toml = r#"
seed = 7
update-interval-s = 2.0
duration-s = 20.0
shards = 3
host-latency-us = 250

[bounding-box]
lat-min = -5.0
lat-max = 20.0
lon-min = -10.0
lon-max = 20.0

[[shell]]
altitude-km = 550.0
inclination-deg = 53.0
planes = 24
satellites-per-plane = 22

[[ground-station]]
name = "accra"
lat = 5.6037
lon = -0.187

[[ground-station]]
name = "abuja"
lat = 9.0765
lon = 7.3986
"#;
    let config = TestbedConfig::from_toml(toml).expect("valid sharded config");
    assert_eq!(config.shards, Some(3));
    assert_eq!(config.hosts.len(), 3, "shards provisions one host per shard");
    let mut testbed = Testbed::new(&config).expect("testbed");

    struct Ping {
        accra: Option<NodeId>,
        abuja: Option<NodeId>,
        answered: u32,
    }
    impl GuestApplication for Ping {
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            self.accra = ctx.ground_station("accra");
            self.abuja = ctx.ground_station("abuja");
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
            ctx.send(self.accra.unwrap(), self.abuja.unwrap(), 1_250, Vec::new());
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
            if message.destination == self.abuja.unwrap() {
                ctx.send(self.abuja.unwrap(), self.accra.unwrap(), 1_250, Vec::new());
            } else {
                self.answered += 1;
            }
        }
    }
    let mut app = Ping { accra: None, abuja: None, answered: 0 };
    testbed.run(&mut app).expect("run");
    assert!(app.answered >= 10, "only {} pings answered", app.answered);

    let plane = testbed.network().as_sharded().expect("sharded plane");
    assert_eq!(plane.shards().len(), 3);
    assert!(plane.pair_counts().iter().sum::<usize>() > 0);
    let report = testbed
        .coordinator()
        .database()
        .shard_report()
        .expect("shard report");
    assert_eq!(report.pairs, plane.pair_counts());
    assert_eq!(report.apply_ns.len(), 3);
}

fn fault_edge_config() -> TestbedConfig {
    TestbedConfig::builder()
        .seed(5)
        .update_interval_s(2.0)
        .duration_s(30.0)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .hosts(vec![HostConfig::default()])
        .build()
        .expect("valid config")
}

struct Nothing;
impl GuestApplication for Nothing {}

/// A `recover_at` beyond the experiment end must not be an error: the run
/// completes its full schedule, the machine simply stays down, and the books
/// record one still-active fault and no failed recovery.
#[test]
fn recovery_beyond_the_experiment_end_leaves_the_machine_down() {
    use celestial_machines::{FaultEvent, FaultKind};
    use celestial_types::time::SimInstant;

    let config = fault_edge_config();
    let mut reference = Testbed::new(&config).expect("testbed");
    reference.run(&mut Nothing).expect("run");

    let accra = NodeId::ground_station(0);
    let mut testbed = Testbed::new(&config).expect("testbed");
    testbed.schedule_faults([FaultEvent {
        node: accra,
        at: SimInstant::from_secs_f64(10.0),
        kind: FaultKind::CrashAndReboot,
        recover_at: Some(SimInstant::from_secs_f64(100.0)),
    }]);
    testbed.run(&mut Nothing).expect("run");

    let host = testbed.managers().iter().find(|m| m.has_machine(accra)).expect("host");
    assert!(!host.is_running(accra), "recovery past the end must not fire");
    assert_eq!(testbed.active_faults(), 1);
    assert_eq!(testbed.failed_recoveries(), 0);
    assert_eq!(testbed.ignored_faults(), 0);
    // The outage does not cut the run short: same epoch schedule as the
    // fault-free reference.
    assert_eq!(testbed.coordinator().update_count(), reference.coordinator().update_count());
}

/// Faults scheduled entirely beyond the end never fire at all — for the
/// machine *and* the books, the run is indistinguishable from a fault-free
/// one.
#[test]
fn faults_beyond_the_experiment_end_never_fire() {
    use celestial_machines::{FaultEvent, FaultKind};
    use celestial_types::time::SimInstant;

    let config = fault_edge_config();
    let accra = NodeId::ground_station(0);
    let mut testbed = Testbed::new(&config).expect("testbed");
    testbed.schedule_faults([
        FaultEvent {
            node: accra,
            at: SimInstant::from_secs_f64(100.0),
            kind: FaultKind::CrashAndReboot,
            recover_at: Some(SimInstant::from_secs_f64(110.0)),
        },
        FaultEvent {
            node: accra,
            at: SimInstant::from_secs_f64(200.0),
            kind: FaultKind::Degradation { cpu_share_percent: 10 },
            recover_at: None,
        },
    ]);
    testbed.run(&mut Nothing).expect("run");

    let host = testbed.managers().iter().find(|m| m.has_machine(accra)).expect("host");
    assert!(host.is_running(accra));
    assert!((host.cpu_share(accra).unwrap() - 1.0).abs() < 1e-9);
    assert_eq!(testbed.active_faults(), 0);
    assert_eq!(testbed.ignored_faults(), 0);
    assert_eq!(testbed.failed_recoveries(), 0);
}

//! Lockstep tests of the pipelined epoch engine: a pipelined run must be
//! **bit-identical** to a synchronous run — the same `ProgrammeDelta`
//! sequence, the same path matrices, the same `/info` counters at every
//! epoch — and a machine failure mid-epoch must never observe the
//! precomputed next epoch early. This is the determinism contract of
//! `docs/PIPELINE.md`.

use celestial::config::TestbedConfig;
use celestial::pipeline::PipelineMode;
use celestial::testbed::{AppContext, GuestApplication, Testbed};
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, ScopeParams, Shell};
use celestial_machines::{FaultEvent, FaultKind};
use celestial_netem::packet::Packet;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::{SimDuration, SimInstant};

fn constellation() -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

/// Coordinator-level lockstep across well over 100 epochs: every observable
/// of every update — the machine diff, the programme delta that shapes the
/// links, the path matrix, the installed state and the `/info` counters —
/// must be bit-identical between the two modes.
#[test]
fn pipelined_coordinator_is_bit_identical_to_synchronous_across_100_epochs() {
    let interval = SimDuration::from_secs(2);
    let mut sync = Coordinator::new(constellation(), interval);
    let mut pipe = Coordinator::with_scoped_fanout(
        constellation(),
        interval,
        PipelineMode::Pipelined,
        None,
        vec!["tenant-0".to_owned()],
        ScopeParams::default(),
    );
    assert_eq!(pipe.pipeline_mode(), PipelineMode::Pipelined);

    let mut t = SimInstant::EPOCH;
    for epoch in 0..105u32 {
        let seconds = t.as_secs_f64();
        let diff_sync = sync.update(seconds).expect("sync update");
        let diff_pipe = pipe.update(seconds).expect("pipelined update");
        assert_eq!(diff_sync, diff_pipe, "diff diverged at epoch {epoch}");
        assert_eq!(
            sync.programme_delta(),
            pipe.programme_delta(),
            "programme delta diverged at epoch {epoch}"
        );
        assert_eq!(
            sync.last_path_solve(),
            pipe.last_path_solve(),
            "solve stats diverged at epoch {epoch}"
        );
        assert_eq!(
            sync.database().paths(),
            pipe.database().paths(),
            "path matrix diverged at epoch {epoch}"
        );
        assert_eq!(
            sync.database().state(),
            pipe.database().state(),
            "installed state diverged at epoch {epoch}"
        );
        assert_eq!(
            sync.database().programme_stats(),
            pipe.database().programme_stats(),
            "/info programme counters diverged at epoch {epoch}"
        );
        t = t + interval;
    }

    assert_eq!(sync.update_count(), 105);
    assert_eq!(pipe.update_count(), 105);
    assert_eq!(
        sync.network_programme().unwrap(),
        pipe.network_programme().unwrap(),
        "final full programme diverged"
    );
    // Every epoch after the cold start was genuinely served from the
    // background precompute — the lockstep above exercised the pipeline, not
    // a fallback path.
    let stats = pipe.pipeline_stats();
    assert_eq!(stats.handovers, 105);
    assert_eq!(stats.precomputed, 104);
    assert_eq!(stats.mispredicted, 0);
}

fn testbed_config(mode: PipelineMode, duration_s: f64) -> TestbedConfig {
    TestbedConfig::builder()
        .seed(11)
        .update_interval_s(1.0)
        .duration_s(duration_s)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(mode)
        .build()
        .expect("valid config")
}

fn faults() -> Vec<FaultEvent> {
    // Mid-epoch instants on purpose: failures land while the next epoch is
    // already being precomputed in the background.
    vec![
        FaultEvent {
            node: NodeId::ground_station(1),
            at: SimInstant::from_secs_f64(5.3),
            kind: FaultKind::CrashAndReboot,
            recover_at: Some(SimInstant::from_secs_f64(9.7)),
        },
        FaultEvent {
            node: NodeId::satellite(0, 5),
            at: SimInstant::from_secs_f64(20.5),
            kind: FaultKind::CrashAndReboot,
            recover_at: Some(SimInstant::from_secs_f64(24.1)),
        },
        FaultEvent {
            node: NodeId::ground_station(0),
            at: SimInstant::from_secs_f64(60.9),
            kind: FaultKind::CrashAndReboot,
            recover_at: Some(SimInstant::from_secs_f64(63.4)),
        },
    ]
}

/// A ping-pong application that also journals every constellation update:
/// the `/info`-visible counters, the emulated and expected latency of the
/// ground-station pair, and the machine states it can observe.
#[derive(Default)]
struct Journal {
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

    fn journal_epoch(&mut self, ctx: &mut AppContext<'_>) {
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
}

impl GuestApplication for Journal {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.accra = ctx.ground_station("accra");
        self.abuja = ctx.ground_station("abuja");
        self.ping(ctx);
        ctx.set_timer(SimDuration::from_millis(1_000), 0);
    }

    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        self.journal_epoch(ctx);
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

/// Full-testbed lockstep with faults injected: 105 epochs, three mid-epoch
/// crashes with recoveries. Every journalled epoch observation, every RTT
/// and every end-of-run counter must match between the two modes.
#[test]
fn pipelined_testbed_with_faults_matches_synchronous_run() {
    let mut journals: Vec<Journal> = Vec::new();
    let mut counters = Vec::new();
    for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
        let config = testbed_config(mode, 105.0);
        let mut testbed = Testbed::new(&config).expect("testbed");
        testbed.schedule_faults(faults());
        let mut app = Journal::default();
        testbed.run(&mut app).expect("run");
        assert_eq!(
            testbed.coordinator().pipeline_mode(),
            mode,
            "config mode not applied"
        );
        counters.push((
            testbed.message_counters(),
            testbed.failed_recoveries(),
            testbed.coordinator().update_count(),
            testbed.network().counters(),
        ));
        journals.push(app);
    }

    let (sync, pipe) = (&journals[0], &journals[1]);
    assert!(sync.epochs.len() >= 100, "only {} epochs journalled", sync.epochs.len());
    assert_eq!(sync.epochs.len(), pipe.epochs.len());
    for (epoch, (a, b)) in sync.epochs.iter().zip(&pipe.epochs).enumerate() {
        assert_eq!(a, b, "journal diverged at epoch {epoch}");
    }
    assert_eq!(sync.rtts_ms, pipe.rtts_ms, "RTT sequence diverged");
    assert!(!sync.rtts_ms.is_empty());
    assert_eq!(counters[0], counters[1], "end-of-run counters diverged");
}

/// Regression: a machine failure mid-epoch must act on the *current* epoch's
/// world view, even though the next epoch is already precomputed in the
/// background — the testbed must never observe next-epoch state early.
#[test]
fn mid_epoch_fault_does_not_observe_next_epoch_state_early() {
    struct MidEpoch {
        accra: Option<NodeId>,
        abuja: Option<NodeId>,
        checks: u32,
        failed_at: Option<SimInstant>,
    }
    impl GuestApplication for MidEpoch {
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            self.accra = ctx.ground_station("accra");
            self.abuja = ctx.ground_station("abuja");
            // Timers at odd instants: boundaries are at even seconds (2 s
            // update interval), so every firing lands mid-epoch.
            ctx.set_timer(SimDuration::from_millis(5_000), 1);
        }

        fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
            let now = ctx.now().as_secs_f64();
            // The database must still hold the epoch of the *last* boundary:
            // with a 2 s interval, floor(now / 2) * 2 — never the next
            // epoch, which the background worker has long finished.
            let expected_epoch_t = (now / 2.0).floor() * 2.0;
            assert_eq!(
                ctx.database().updated_at_seconds(),
                Some(expected_epoch_t),
                "epoch state from the future observed at t={now}"
            );
            if self.failed_at.is_none() {
                // Crash abuja mid-epoch; the failure must take effect
                // immediately in the current epoch's world.
                ctx.fail_machine(self.abuja.unwrap());
                self.failed_at = Some(ctx.now());
            }
            self.checks += 1;
            if self.checks == 1 {
                ctx.set_timer(SimDuration::from_millis(200), 2);
            } else if self.checks == 2 {
                assert!(!ctx.is_running(self.abuja.unwrap()), "failure not applied");
                ctx.reboot_machine(self.abuja.unwrap());
                ctx.set_timer(SimDuration::from_millis(4_000), 3);
            } else {
                assert!(ctx.is_running(self.abuja.unwrap()), "reboot not applied");
            }
        }
    }

    let config = TestbedConfig::builder()
        .seed(3)
        .update_interval_s(2.0)
        .duration_s(20.0)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(PipelineMode::Pipelined)
        .build()
        .expect("valid config");
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = MidEpoch {
        accra: None,
        abuja: None,
        checks: 0,
        failed_at: None,
    };
    testbed.run(&mut app).expect("run");
    assert_eq!(app.checks, 3, "not every mid-epoch check fired");
    // The pipeline really was ahead of the event loop the whole time.
    let stats = testbed.coordinator().pipeline_stats();
    assert!(stats.precomputed >= 8, "precompute never ran: {stats:?}");
    assert_eq!(stats.mispredicted, 0);
    assert_eq!(testbed.failed_recoveries(), 0);
}

//! Convergence and determinism guarantees of the chaos engine
//! (`docs/CHAOS.md`), across ≥ 5 chaos seeds in all four mode combinations
//! — {global, sharded} × {synchronous, pipelined}:
//!
//! 1. **Convergence** — once every chaos window has recovered (the engine
//!    schedules nothing past `duration − 2·interval`), the network programme
//!    is bit-identical to a fault-free reference run
//!    (`celestial::invariants::programme_divergence`).
//! 2. **No uncapped pairs** — no programme ever contains a
//!    `Bandwidth::INFINITY` entry, checked per epoch under an active link
//!    flap storm and on every final programme
//!    (`celestial::invariants::check_no_uncapped`).
//! 3. **Bit-reproducibility** — a chaos run's full observable history
//!    (journals, RTTs, counters) is identical across repeated runs, planes,
//!    and pipeline modes, i.e. chaos is a pure function of the seed.
//!
//! The seed matrix is driven by `CELESTIAL_CHAOS_SEEDS` (a comma list,
//! default `11,23,37,41,59`), which CI uses to split seed legs into
//! separate jobs.

mod common;

use common::lockstep::{assert_lockstep, config, run_config};

use celestial::config::{ChaosConfig, TestbedConfig};
use celestial::coordinator::PairProgram;
use celestial::invariants::{check_no_uncapped, programme_divergence};
use celestial::pipeline::PipelineMode;
use celestial::testbed::Testbed;
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, LinkSuppression, Shell};
use celestial_machines::chaos::{ChaosEngine, ChaosSpec, ChaosTopology};
use celestial_sgp4::WalkerShell;
use celestial_sim::SimRng;
use celestial_types::geo::Geodetic;
use celestial_types::time::SimDuration;

const DURATION_S: f64 = 60.0;

/// The chaos seeds to exercise, from `CELESTIAL_CHAOS_SEEDS`.
fn seeds() -> Vec<u64> {
    let spec = std::env::var("CELESTIAL_CHAOS_SEEDS").unwrap_or_else(|_| "11,23,37,41,59".to_owned());
    let seeds: Vec<u64> = spec
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .collect();
    assert!(!seeds.is_empty(), "CELESTIAL_CHAOS_SEEDS={spec:?} names no seed");
    seeds
}

/// The four mode combinations: (label, pipeline mode, hosts, sharded). All
/// run on four hosts — machine placement (and so the emulated cross-host
/// latency) depends on the host count, so histories are only comparable at a
/// fixed count; the sharded flag varies the programming plane on top.
const COMBOS: [(&str, PipelineMode, u32, bool); 4] = [
    ("global/synchronous", PipelineMode::Synchronous, 4, false),
    ("global/pipelined", PipelineMode::Pipelined, 4, false),
    ("sharded/synchronous", PipelineMode::Synchronous, 4, true),
    ("sharded/pipelined", PipelineMode::Pipelined, 4, true),
];

fn chaos_config(seed: u64, mode: PipelineMode, hosts: u32, sharded: bool) -> TestbedConfig {
    let mut cfg = config(seed, DURATION_S, mode, hosts, sharded);
    cfg.chaos = Some(ChaosConfig::default());
    cfg
}

/// Runs a full testbed and returns its final network programme; asserts the
/// run was chaotic for real (events scheduled) yet clean (every recovery
/// succeeded).
fn final_programme(cfg: &TestbedConfig) -> Vec<PairProgram> {
    let mut testbed = Testbed::new(cfg).expect("testbed");
    if cfg.chaos.is_some() {
        assert!(testbed.chaos_events() > 0, "chaos run scheduled no events — vacuous");
    }
    let mut app = common::lockstep::Journal::default();
    testbed.run(&mut app).expect("run");
    assert_eq!(testbed.failed_recoveries(), 0);
    testbed.coordinator().network_programme().expect("programme")
}

/// Convergence + no-uncapped: for every seed and every mode combination,
/// the post-recovery programme is bit-identical to the fault-free reference
/// and never contains an uncapped pair.
#[test]
fn chaos_runs_converge_to_the_fault_free_programme() {
    for seed in seeds() {
        // One fault-free reference per seed; the converged programme must
        // not depend on the plane or the pipeline mode either.
        let reference = final_programme(&config(seed, DURATION_S, PipelineMode::Synchronous, 1, false));
        assert!(check_no_uncapped(&reference).is_empty());
        for (label, mode, hosts, sharded) in COMBOS {
            let observed = final_programme(&chaos_config(seed, mode, hosts, sharded));
            let uncapped = check_no_uncapped(&observed);
            assert!(uncapped.is_empty(), "seed {seed} {label}: {uncapped:?}");
            let divergence = programme_divergence(&reference, &observed);
            assert!(
                divergence.is_empty(),
                "seed {seed} {label} did not converge: {divergence:?}"
            );
        }
    }
}

/// Bit-reproducibility: the same seeded chaos run observes an identical
/// history on a re-run, and the history does not depend on the plane or the
/// pipeline mode (sharded applies run one thread per shard; the pipelined
/// mode precomputes epochs on a background worker).
#[test]
fn chaos_runs_are_bit_reproducible_across_runs_and_threads() {
    for seed in seeds() {
        let reference = run_config(&chaos_config(seed, PipelineMode::Synchronous, 4, false), vec![]);
        assert!(!reference.epochs.is_empty());
        let rerun = run_config(&chaos_config(seed, PipelineMode::Synchronous, 4, false), vec![]);
        assert_lockstep(&format!("seed {seed} rerun"), &reference, &rerun);
        for (label, mode, hosts, sharded) in COMBOS {
            let observed = run_config(&chaos_config(seed, mode, hosts, sharded), vec![]);
            assert_lockstep(&format!("seed {seed} {label}"), &reference, &observed);
        }
    }
}

/// Per-epoch no-uncapped sweep at the coordinator level: with a link flap
/// storm actively suppressing links, *every* epoch's programme stays capped,
/// and one epoch after the last window ends the programme is bit-identical
/// to an unsuppressed coordinator's.
#[test]
fn no_epoch_programs_an_uncapped_pair_under_link_flaps() {
    let base = Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("constellation");
    let topology = ChaosTopology {
        shells: vec![(12, 16)],
        ground_stations: vec![(5.6037, -0.187), (9.0765, 7.3986)],
    };
    for seed in seeds() {
        // Several aggressive flap storms, windows within [0, 40).
        let engine = ChaosEngine {
            plane_outages: 0,
            solar_storms: 0,
            region_blackouts: 0,
            link_flap_storms: 3,
            link_flap_mean_s: 15.0,
            ..ChaosEngine::default()
        };
        let windows = engine.generate(&topology, 40.0, &SimRng::seed_from_u64(seed));
        assert!(!windows.is_empty(), "seed {seed} generated no flap windows");
        let flaps: Vec<_> = windows
            .iter()
            .map(|w| match w.spec {
                ChaosSpec::LinkFlap { period_s, down_fraction, salt } => {
                    celestial_constellation::FlapWindow {
                        start_s: w.start_s,
                        end_s: w.end_s,
                        period_s,
                        down_fraction,
                        salt,
                    }
                }
                ref other => panic!("unexpected chaos spec {other:?}"),
            })
            .collect();
        let mask = LinkSuppression::new(flaps);
        let last_end = mask.last_end_s();
        assert!(last_end > 0.0 && last_end <= 40.0);

        let mut suppressed = base.clone();
        suppressed.set_link_suppression(mask);
        let interval = SimDuration::from_secs_f64(1.0);
        let mut chaotic = Coordinator::new(suppressed, interval);
        let mut reference = Coordinator::new(base.clone(), interval);
        let mut suppressed_epochs = 0usize;
        for epoch in 0..=45u32 {
            let t = f64::from(epoch);
            chaotic.update(t).expect("chaotic update");
            reference.update(t).expect("reference update");
            let programme = chaotic.network_programme().expect("programme");
            let uncapped = check_no_uncapped(&programme);
            assert!(uncapped.is_empty(), "seed {seed} t={t}: {uncapped:?}");
            let ref_programme = reference.network_programme().expect("programme");
            if t <= last_end {
                if programme != ref_programme {
                    suppressed_epochs += 1;
                }
            } else if t > last_end + 1.0 {
                // One epoch past the last window the mask is inert: the
                // retained programmes have re-converged bit-exactly.
                let divergence = programme_divergence(&ref_programme, &programme);
                assert!(divergence.is_empty(), "seed {seed} t={t}: {divergence:?}");
            }
        }
        // The storm must have bitten (links actually suppressed) or the
        // sweep proves nothing.
        assert!(suppressed_epochs > 0, "seed {seed}: flap storm never changed the programme");
    }
}

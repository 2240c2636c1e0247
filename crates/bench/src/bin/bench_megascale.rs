//! Mega-constellation benchmark: emits `BENCH_megascale.json` for the perf
//! trajectory.
//!
//! Sweeps +GRID shells from the 1,024-satellite default up to a
//! 16,384-satellite mega-constellation and measures the full epoch compute
//! (batch propagation → scoped path solve → windowed programme walk) on a
//! **single thread**, against the paper's 1 s update interval. A regional
//! bounding box (West Africa, ≈1.8 % of the Earth's surface) keeps the
//! programme realistic: a few hundred active satellites out of thousands.
//!
//! Alongside the timing, every scale re-proves the headline exactness
//! guarantee: the scoped solve's rows are compared bit-for-bit against full
//! (unbounded) Dijkstra rows on every (required, required) pair — the exact
//! set of entries the programme store and the info API read.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_megascale            # full sweep
//! $ cargo run --release -p celestial-bench --bin bench_megascale -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small scales, fewer epochs), `--epochs N`,
//! `--budget-ms N` (default 1000), `--out FILE` (default
//! `BENCH_megascale.json`, or `BENCH_megascale_smoke.json` under `--quick`).
//! Exits non-zero if the largest swept scale exceeds the budget or any
//! scoped row differs from the full solve.

use celestial::pipeline::EpochCompute;
use celestial_constellation::{
    BoundingBox, Constellation, GroundStation, PathEngine, ScopeParams, Shell, SolveScope,
};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use serde_json::{json, Value};
use std::time::Instant;

struct Options {
    quick: bool,
    epochs: u32,
    budget_ms: f64,
    out: String,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = Options {
        quick: false,
        epochs: 5,
        budget_ms: 1000.0,
        out: celestial_bench::bench_out("megascale", &args),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                options.quick = true;
                options.epochs = 3;
            }
            "--epochs" => {
                if let Some(v) = iter.next() {
                    options.epochs = v.parse().expect("--epochs takes a number");
                }
            }
            "--budget-ms" => {
                if let Some(v) = iter.next() {
                    options.budget_ms = v.parse().expect("--budget-ms takes milliseconds");
                }
            }
            "--out" => {
                if let Some(v) = iter.next() {
                    options.out = v.clone();
                }
            }
            other => eprintln!("ignoring unknown flag {other:?}"),
        }
    }
    options
}

fn constellation(planes: u32, per_plane: u32) -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, planes, per_plane)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

/// Proves the exactness contract at this scale: scoped-solve rows equal
/// full-solve rows on every (required, required) pair at `t`. Returns the
/// number of compared pairs, panicking on the first mismatch.
fn prove_rows_exact(planes: u32, per_plane: u32, t: f64) -> usize {
    let constellation = constellation(planes, per_plane);
    let state = constellation.state_at(t).expect("state");
    let mut scope = SolveScope::new();
    scope.derive(&state, &constellation.bounding_box(), &ScopeParams::default());
    let required: Vec<u32> =
        (0..state.node_count() as u32).filter(|&i| scope.is_required(i as usize)).collect();

    let mut scoped = PathEngine::with_threads(1);
    let mut full = PathEngine::with_threads(1);
    let scoped_paths = scoped.solve_scope(state.graph(), &scope);
    let full_paths = full.solve_sources(state.graph(), &required);
    let mut pairs = 0usize;
    for &a in &required {
        for &b in &required {
            if a == b {
                continue;
            }
            let (a, b) = (a as usize, b as usize);
            assert!(
                scoped_paths.is_exact(a, b),
                "required pair ({a}, {b}) not exact in the scoped solve"
            );
            assert_eq!(
                scoped_paths.latency_micros(a, b),
                full_paths.latency_micros(a, b),
                "scoped row differs from the full solve on pair ({a}, {b})"
            );
            pairs += 1;
        }
    }
    pairs
}

fn main() {
    let options = parse_options();
    // (planes, satellites-per-plane): the full sweep runs from the
    // 1,024-satellite default over a 72×22 Starlink-class shell to a
    // 16,384-satellite mega-constellation; --quick keeps CI at the two
    // smallest scales.
    let scales: Vec<(u32, u32)> = if options.quick {
        vec![(8, 8), (12, 16)]
    } else {
        vec![(32, 32), (72, 22), (64, 64), (128, 128)]
    };

    println!(
        "# bench_megascale: {} scales, {} measured epochs each, single-threaded, budget {} ms",
        scales.len(),
        options.epochs,
        options.budget_ms
    );

    let mut results: Vec<Value> = Vec::new();
    let mut over_budget = false;
    for &(planes, per_plane) in &scales {
        let satellites = planes * per_plane;
        // The exactness proof first: one timestep inside the sweep window.
        let exact_pairs = prove_rows_exact(planes, per_plane, 1.0);

        // Single-threaded epoch loop: epoch 0 pays one-off allocation and
        // the cold full landmark rows, so it warms up unmeasured; epochs
        // 1..=N are the steady state the 1 s interval has to absorb.
        let mut compute = EpochCompute::with_threads(constellation(planes, per_plane), 1);
        compute.compute(0.0).expect("warm-up epoch");
        let mut epoch_ms: Vec<f64> = Vec::with_capacity(options.epochs as usize);
        for epoch in 1..=options.epochs {
            let started = Instant::now();
            compute.compute(f64::from(epoch)).expect("epoch");
            epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let max_ms = epoch_ms.iter().cloned().fold(0.0f64, f64::max);
        let mean_ms = epoch_ms.iter().sum::<f64>() / f64::from(options.epochs);
        let report = compute.scope_report();
        println!(
            "#   epochs: [{}] ms",
            epoch_ms.iter().map(|ms| format!("{ms:.1}")).collect::<Vec<_>>().join(", ")
        );
        let within = max_ms < options.budget_ms;
        over_budget |= !within;
        println!(
            "+GRID {planes:>3}x{per_plane:<3} {satellites:>6} sats  \
             mean {mean_ms:>8.2} ms  max {max_ms:>8.2} ms  \
             scope {:>4}/{:<6} sources  settled {:>9}  rows_exact on {exact_pairs} pairs  {}",
            report.sources,
            satellites + 2,
            report.settled,
            if within { "OK" } else { "OVER BUDGET" }
        );
        results.push(json!({
            "planes": planes,
            "satellites_per_plane": per_plane,
            "satellites": satellites,
            "nodes": satellites + 2,
            "epochs": options.epochs,
            "mean_epoch_ms": mean_ms,
            "max_epoch_ms": max_ms,
            "budget_ms": options.budget_ms,
            "within_budget": within,
            "scope_sources": report.sources,
            "scope_required": report.required,
            "scope_satellites": report.scope_satellites,
            "active_satellites": report.active_satellites,
            "settled": report.settled,
            "rows_exact": true,
            "exact_pairs": exact_pairs,
            "epoch_ms": epoch_ms,
        }));
    }

    let document = json!({
        "bench": "megascale",
        "quick": options.quick,
        "threads": 1,
        "budget_ms": options.budget_ms,
        "bounding_box": "west_africa",
        "results": results,
    });
    let body = serde_json::to_string(&document).expect("serializable document");
    std::fs::write(&options.out, &body).expect("write BENCH_megascale.json");
    println!("# wrote {}", options.out);

    assert!(
        !over_budget,
        "an epoch exceeded the {} ms budget (see {})",
        options.budget_ms, options.out
    );
}

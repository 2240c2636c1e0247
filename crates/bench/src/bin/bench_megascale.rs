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
//! Flags: `--quick` (small scales, fewer epochs), `--out FILE` (default
//! `BENCH_megascale.json`, or `BENCH_megascale_smoke.json` under `--quick`).
//! Exits 1, after writing the report, if an epoch at any swept scale
//! reaches the 1,000 ms budget, any scoped row differs from the full solve,
//! or the scope prunes nothing.

use celestial::pipeline::EpochCompute;
use celestial_bench::{grid_constellation, BenchReport, Op, Options};
use celestial_constellation::{BoundingBox, Constellation, PathEngine, ScopeParams, SolveScope};
use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// The swept +GRID scales (planes, satellites per plane) and the measured
/// epochs per scale.
struct Params {
    scales: &'static [(u32, u32)],
    epochs: u32,
}

/// The full sweep runs from the 1,024-satellite default over a 72×22
/// Starlink-class shell to a 16,384-satellite mega-constellation; `--quick`
/// keeps CI at the two smallest scales.
const FULL: Params = Params { scales: &[(32, 32), (72, 22), (64, 64), (128, 128)], epochs: 5 };
const QUICK: Params = Params { scales: &[(8, 8), (12, 16)], epochs: 3 };

/// The paper's update interval, which every epoch must fit inside.
const BUDGET_MS: f64 = 1000.0;

/// Worker threads of the measured epoch: the budget must hold
/// single-threaded.
const THREADS: usize = 1;

fn constellation(planes: u32, per_plane: u32) -> Constellation {
    grid_constellation(planes, per_plane, BoundingBox::west_africa())
}

/// Proves the exactness contract at this scale: scoped-solve rows equal
/// full-solve rows on every (required, required) pair at `t`. Returns the
/// number of compared pairs and of pairs that are not exact or differ.
fn prove_rows_exact(planes: u32, per_plane: u32, t: f64) -> (usize, usize) {
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
    let (mut pairs, mut mismatches) = (0usize, 0usize);
    for &a in &required {
        for &b in &required {
            if a == b {
                continue;
            }
            let (a, b) = (a as usize, b as usize);
            let exact = scoped_paths.is_exact(a, b)
                && scoped_paths.latency_micros(a, b) == full_paths.latency_micros(a, b);
            if !exact {
                eprintln!("# scoped row differs from the full solve on pair ({a}, {b})");
            }
            mismatches += usize::from(!exact);
            pairs += 1;
        }
    }
    (pairs, mismatches)
}

fn main() -> ExitCode {
    let options = Options::from_args(None);
    let params = options.pick(FULL, QUICK);
    println!(
        "# bench_megascale: {} scales, {} measured epochs each, single-threaded, budget {BUDGET_MS} ms",
        params.scales.len(),
        params.epochs,
    );

    let mut report = BenchReport::new("megascale", &options);
    let mut results: Vec<Value> = Vec::new();
    for &(planes, per_plane) in params.scales {
        let satellites = planes * per_plane;
        // The exactness proof first: one timestep inside the sweep window.
        let (exact_pairs, mismatches) = prove_rows_exact(planes, per_plane, 1.0);

        // Single-threaded epoch loop: epoch 0 pays one-off allocation and
        // the cold full landmark rows, so it warms up unmeasured; epochs
        // 1..=N are the steady state the 1 s interval has to absorb.
        let mut compute = EpochCompute::with_threads(constellation(planes, per_plane), THREADS);
        compute.compute(0.0).expect("warm-up epoch");
        let mut epoch_ms: Vec<f64> = Vec::with_capacity(params.epochs as usize);
        for epoch in 1..=params.epochs {
            let started = Instant::now();
            compute.compute(f64::from(epoch)).expect("epoch");
            epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let max_ms = epoch_ms.iter().cloned().fold(0.0f64, f64::max);
        let mean_ms = epoch_ms.iter().sum::<f64>() / f64::from(params.epochs);
        let scope = compute.scope_report();
        println!(
            "#   epochs: [{}] ms",
            epoch_ms.iter().map(|ms| format!("{ms:.1}")).collect::<Vec<_>>().join(", ")
        );
        let within = max_ms < BUDGET_MS;
        println!(
            "+GRID {planes:>3}x{per_plane:<3} {satellites:>6} sats  \
             mean {mean_ms:>8.2} ms  max {max_ms:>8.2} ms  \
             scope {:>4}/{:<6} sources  settled {:>9}  {mismatches} of {exact_pairs} pairs inexact  {}",
            scope.sources,
            satellites + 2,
            scope.settled,
            if within { "OK" } else { "OVER BUDGET" }
        );
        results.push(json!({
            "planes": planes,
            "satellites_per_plane": per_plane,
            "satellites": satellites,
            "nodes": satellites + 2,
            "epochs": params.epochs,
            "mean_epoch_ms": mean_ms,
            "max_epoch_ms": max_ms,
            "budget_ms": BUDGET_MS,
            "within_budget": within,
            "scope_sources": scope.sources,
            "scope_required": scope.required,
            "scope_satellites": scope.scope_satellites,
            "active_satellites": scope.active_satellites,
            "settled": scope.settled,
            "rows_exact": mismatches == 0,
            "exact_pairs": exact_pairs,
            "epoch_ms": epoch_ms,
        }));
        let scale = format!("{planes}x{per_plane}");
        report.gate(format!("inexact_pairs_{scale}"), mismatches as f64, Op::Eq, 0.0);
        report.gate(format!("exact_pairs_{scale}"), exact_pairs as f64, Op::Gt, 0.0);
        report.gate(format!("max_epoch_ms_{scale}"), max_ms, Op::Lt, BUDGET_MS);
        // The scope must prune something.
        report.gate(
            format!("scope_sources_{scale}"),
            scope.sources as f64,
            Op::Lt,
            f64::from(satellites + 2),
        );
    }

    report.gate("threads", THREADS as f64, Op::Eq, 1.0);
    report.gate("scales", results.len() as f64, Op::Ge, 1.0);
    report.finish(json!({
        "quick": options.quick,
        "threads": THREADS,
        "budget_ms": BUDGET_MS,
        "bounding_box": "west_africa",
        "results": results,
    }))
}

//! Network-programming benchmark: emits `BENCH_netprog.json` for the perf
//! trajectory.
//!
//! Measures, on a +GRID constellation with a bounding box, how many pair
//! programmings a steady-state constellation update performs under two
//! policies:
//!
//! * **full** — the pre-delta behaviour: every programmed pair is rewritten
//!   on every update (the per-update cost is the full programme size),
//! * **delta** — the [`celestial::netprog`] engine: only pairs whose
//!   quantized latency or bottleneck bandwidth changed are touched
//!   (`added + changed + removed` operations).
//!
//! The counts are deterministic (they depend only on orbital mechanics and
//! the 0.1 ms quantization), so the reported ratio is hardware-independent.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_netprog            # default
//! $ cargo run --release -p celestial-bench --bin bench_netprog -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph, fewer updates), `--out FILE` (default
//! `BENCH_netprog.json`, or `BENCH_netprog_smoke.json` under `--quick`).
//! The gates (the delta engine does at least 5× fewer pair programmings
//! than the full rebuild; every update's delta adds up) are evaluated
//! here: a failed gate exits 1 after the report is written.

use celestial::Coordinator;
use celestial_bench::{grid_constellation, min_field, BenchReport, Op, Options};
use celestial_constellation::BoundingBox;
use celestial_types::time::SimDuration;
use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// The measured +GRID and the number of steady-state updates.
struct Params {
    planes: u32,
    per_plane: u32,
    updates: u32,
}

/// The full run mirrors bench_paths' 1024-satellite +GRID.
const FULL: Params = Params { planes: 32, per_plane: 32, updates: 10 };
const QUICK: Params = Params { planes: 12, per_plane: 16, updates: 5 };

/// One-second updates are the steady-state cadence of the paper's
/// experiments.
const INTERVAL_S: f64 = 1.0;

fn main() -> ExitCode {
    let options = Options::from_args(None);
    let params = options.pick(FULL, QUICK);
    let constellation =
        grid_constellation(params.planes, params.per_plane, BoundingBox::west_africa());
    let nodes = constellation.node_count();
    let mut coordinator = Coordinator::new(constellation, SimDuration::from_secs_f64(INTERVAL_S));

    // Warm-up epoch: every reachable pair is added; steady state starts
    // after it.
    coordinator.update(0.0).expect("first update");
    let initial_pairs = coordinator.programme_pair_count();
    println!(
        "# bench_netprog: {nodes} nodes (+GRID {}x{}), {} initial pairs, {} steady-state updates at {} s",
        params.planes, params.per_plane, initial_pairs, params.updates, INTERVAL_S
    );

    let mut results: Vec<Value> = Vec::new();
    let mut full_ops: u64 = 0;
    let mut delta_ops: u64 = 0;
    // Updates whose operation count is not `added + changed + removed`.
    let mut mismatched = 0usize;
    for update in 1..=params.updates {
        let t = f64::from(update) * INTERVAL_S;
        let start = Instant::now();
        coordinator.update(t).expect("steady-state update");
        let update_ns = start.elapsed().as_nanos() as u64;
        let delta = coordinator.programme_delta();
        let pairs = coordinator.programme_pair_count();
        // The full-rebuild policy rewrites every pair; the delta policy
        // touches only the change set.
        full_ops += pairs as u64;
        delta_ops += delta.op_count() as u64;
        mismatched += usize::from(
            delta.op_count() != delta.added.len() + delta.changed.len() + delta.removed.len(),
        );
        println!(
            "update {update:>3}: {pairs:>6} pairs, delta {:>5} ops ({} added, {} changed, {} removed)",
            delta.op_count(),
            delta.added.len(),
            delta.changed.len(),
            delta.removed.len()
        );
        results.push(json!({
            "update": update,
            "t_s": t,
            "pairs": pairs,
            "delta_ops": delta.op_count(),
            "added": delta.added.len(),
            "changed": delta.changed.len(),
            "removed": delta.removed.len(),
            "update_ns": update_ns,
        }));
    }

    // Guard against a degenerate zero-change window: the ratio is computed
    // against at least one operation.
    let ratio = full_ops as f64 / (delta_ops.max(1)) as f64;
    println!(
        "# full rebuild: {full_ops} pair programmings, delta engine: {delta_ops} ({ratio:.1}x fewer)"
    );

    let mut report = BenchReport::new("netprog", &options);
    report.gate("nodes", nodes as f64, Op::Gt, 0.0);
    report.gate("initial_pairs", initial_pairs as f64, Op::Gt, 0.0);
    report.gate("results", results.len() as f64, Op::Ge, 1.0);
    report.gate("min_pairs", min_field(&results, "pairs"), Op::Gt, 0.0);
    report.gate("updates_with_unbalanced_delta", mismatched as f64, Op::Eq, 0.0);
    // The counts are deterministic (orbital mechanics + 0.1 ms
    // quantization), so the ratio is stable across machines.
    report.gate("ratio", ratio, Op::Ge, 5.0);
    report.finish(json!({
        "nodes": nodes,
        "planes": params.planes,
        "satellites_per_plane": params.per_plane,
        "updates": params.updates,
        "interval_s": INTERVAL_S,
        "initial_pairs": initial_pairs,
        "full_pair_programmings": full_ops,
        "delta_pair_programmings": delta_ops,
        "ratio": ratio,
        "results": results,
    }))
}

//! Multi-tenant fan-out benchmark: emits `BENCH_tenants.json`.
//!
//! Measures the per-tenant cost of one epoch pipeline serving N tenants
//! (see `docs/TENANTS.md`). The pipeline computes the shared epoch core —
//! orbital propagation, snapshot diff, shortest-path solve — exactly once
//! per update regardless of the tenant count; only the per-tenant programme
//! deltas fan out. The headline metric is the **amortization ratio**: the
//! per-tenant ms/epoch of a 16-tenant fleet divided by a solo run, gated
//! at ≤ 0.5 (in practice the shared core dominates and the ratio is far
//! lower).
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_tenants            # default
//! $ cargo run --release -p celestial-bench --bin bench_tenants -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph, fewer epochs), `--out FILE` (default
//! `BENCH_tenants.json`, or `BENCH_tenants_smoke.json` under `--quick`).
//! The gates (the amortization ratio, every fleet size timed) are
//! evaluated here: a failed gate exits 1 after the report is written.

use celestial::pipeline::{EpochCompute, EpochPipeline, PipelineMode};
use celestial_bench::{grid_constellation, min_field, BenchReport, Op, Options};
use celestial_constellation::{BoundingBox, Constellation};
use celestial_types::time::SimDuration;
use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// The tenant counts on the cost-per-tenant curve.
const TENANT_COUNTS: [usize; 3] = [1, 4, 16];

/// The measured +GRID and the number of steady epochs.
struct Params {
    planes: u32,
    per_plane: u32,
    epochs: u32,
}

/// The full run mirrors bench_epoch: a 1024-satellite +GRID.
const FULL: Params = Params { planes: 32, per_plane: 32, epochs: 20 };
const QUICK: Params = Params { planes: 12, per_plane: 16, epochs: 10 };

/// The steady-state one-second update cadence.
const INTERVAL_S: f64 = 1.0;

fn constellation(params: &Params) -> Constellation {
    grid_constellation(params.planes, params.per_plane, BoundingBox::west_africa())
}

/// Runs `epochs` steady-state boundaries of a synchronous pipeline fanning
/// out to `tenants` tenants and returns the steady total wall ms. Epoch 0
/// (the one-off allocation + full solve) is warmed up outside the window.
fn run_fanout(params: &Params, tenants: usize) -> f64 {
    let mut compute = EpochCompute::new(constellation(params));
    compute.set_tenant_count(tenants);
    let interval = SimDuration::from_secs_f64(INTERVAL_S);
    let mut pipeline = EpochPipeline::new(compute, PipelineMode::Synchronous, interval);

    // Warm up: the first epoch pays buffer allocation and the full
    // (non-incremental) programme; steady state starts at epoch 1.
    let bundle = pipeline.advance(0.0).expect("warm-up epoch");
    assert_eq!(bundle.tenant_count(), tenants);
    pipeline.recycle(bundle);

    let started = Instant::now();
    for epoch in 1..=params.epochs {
        let t = f64::from(epoch) * INTERVAL_S;
        let bundle = pipeline.advance(t).expect("epoch computation");
        pipeline.recycle(bundle);
    }
    started.elapsed().as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let options = Options::from_args(None);
    let params = options.pick(FULL, QUICK);
    let nodes = constellation(&params).node_count();
    println!(
        "# bench_tenants: {nodes} nodes (+GRID {}x{}), {} steady epochs at {INTERVAL_S} s",
        params.planes, params.per_plane, params.epochs
    );

    let mut results: Vec<Value> = Vec::new();
    let mut per_tenant_ms = Vec::new();
    for &tenants in &TENANT_COUNTS {
        let total_ms = run_fanout(&params, tenants);
        let ms_per_epoch = total_ms / f64::from(params.epochs);
        let per_tenant = ms_per_epoch / tenants as f64;
        per_tenant_ms.push(per_tenant);
        println!(
            "{tenants:>3} tenants: {ms_per_epoch:8.3} ms/epoch, {per_tenant:8.3} ms/epoch/tenant"
        );
        results.push(json!({
            "tenants": tenants,
            "ms_per_epoch": ms_per_epoch,
            "ms_per_epoch_per_tenant": per_tenant,
            "total_ms": total_ms,
        }));
    }

    // The amortization the fan-out buys: the shared epoch core (propagation,
    // diff, path solve) is computed once however many tenants ride on it, so
    // per-tenant cost collapses as the fleet grows.
    let amortization = per_tenant_ms[per_tenant_ms.len() - 1] / per_tenant_ms[0].max(1e-9);
    println!(
        "# 16-tenant per-tenant cost is {amortization:.3}x solo (gated \u{2264} 0.5x)"
    );

    let mut report = BenchReport::new("tenants", &options);
    report.gate("nodes", nodes as f64, Op::Gt, 0.0);
    report.gate("epochs", f64::from(params.epochs), Op::Gt, 0.0);
    report.gate("tenant_counts", results.len() as f64, Op::Eq, TENANT_COUNTS.len() as f64);
    report.gate("min_ms_per_epoch", min_field(&results, "ms_per_epoch"), Op::Gt, 0.0);
    report.gate(
        "min_ms_per_epoch_per_tenant",
        min_field(&results, "ms_per_epoch_per_tenant"),
        Op::Gt,
        0.0,
    );
    report.gate("amortization_16_vs_1", amortization, Op::Le, 0.5);
    report.finish(json!({
        "nodes": nodes,
        "planes": params.planes,
        "satellites_per_plane": params.per_plane,
        "epochs": params.epochs,
        "interval_s": INTERVAL_S,
        "tenant_counts": TENANT_COUNTS.to_vec(),
        "results": results,
        "amortization_16_vs_1": amortization,
    }))
}

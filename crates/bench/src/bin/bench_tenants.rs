//! Multi-tenant fan-out benchmark: emits `BENCH_tenants.json`.
//!
//! Measures the per-tenant cost of one epoch pipeline serving N tenants
//! (see `docs/TENANTS.md`). The pipeline computes the shared epoch core —
//! orbital propagation, snapshot diff, shortest-path solve — exactly once
//! per update regardless of the tenant count; only the per-tenant programme
//! deltas fan out. The headline metric is the **amortization ratio**: the
//! per-tenant ms/epoch of a 16-tenant fleet divided by a solo run. CI
//! asserts it stays ≤ 0.5 (in practice the shared core dominates and the
//! ratio is far lower).
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_tenants            # default
//! $ cargo run --release -p celestial-bench --bin bench_tenants -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph, fewer epochs), `--planes N`,
//! `--satellites-per-plane N`, `--epochs N`, `--interval-s S`,
//! `--out FILE` (default `BENCH_tenants.json`, or
//! `BENCH_tenants_smoke.json` under `--quick`).

use celestial::pipeline::{EpochCompute, EpochPipeline, PipelineMode};
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::time::SimDuration;
use serde_json::{json, Value};
use std::time::Instant;

/// The tenant counts on the cost-per-tenant curve.
const TENANT_COUNTS: [usize; 3] = [1, 4, 16];

struct Options {
    planes: u32,
    per_plane: u32,
    epochs: u32,
    interval_s: f64,
    out: String,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The default mirrors bench_epoch: a 1024-satellite +GRID at the
    // steady-state one-second update cadence.
    let mut options = Options {
        planes: 32,
        per_plane: 32,
        epochs: 20,
        interval_s: 1.0,
        out: celestial_bench::bench_out("tenants", &args),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                options.planes = 12;
                options.per_plane = 16;
                options.epochs = 10;
            }
            "--planes" => {
                if let Some(v) = iter.next() {
                    options.planes = v.parse().expect("--planes takes a number");
                }
            }
            "--satellites-per-plane" => {
                if let Some(v) = iter.next() {
                    options.per_plane = v.parse().expect("--satellites-per-plane takes a number");
                }
            }
            "--epochs" => {
                if let Some(v) = iter.next() {
                    options.epochs = v.parse().expect("--epochs takes a number");
                }
            }
            "--interval-s" => {
                if let Some(v) = iter.next() {
                    options.interval_s = v.parse().expect("--interval-s takes seconds");
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

fn constellation(options: &Options) -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(
            550.0,
            53.0,
            options.planes,
            options.per_plane,
        )))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

/// Runs `epochs` steady-state boundaries of a synchronous pipeline fanning
/// out to `tenants` tenants and returns the steady total wall ms. Epoch 0
/// (the one-off allocation + full solve) is warmed up outside the window.
fn run_fanout(options: &Options, tenants: usize) -> f64 {
    let mut compute = EpochCompute::new(constellation(options));
    compute.set_tenant_count(tenants);
    let interval = SimDuration::from_secs_f64(options.interval_s);
    let mut pipeline = EpochPipeline::new(compute, PipelineMode::Synchronous, interval);

    // Warm up: the first epoch pays buffer allocation and the full
    // (non-incremental) programme; steady state starts at epoch 1.
    let bundle = pipeline.advance(0.0).expect("warm-up epoch");
    assert_eq!(bundle.tenant_count(), tenants);
    pipeline.recycle(bundle);

    let started = Instant::now();
    for epoch in 1..=options.epochs {
        let t = f64::from(epoch) * options.interval_s;
        let bundle = pipeline.advance(t).expect("epoch computation");
        pipeline.recycle(bundle);
    }
    started.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let options = parse_options();
    let nodes = constellation(&options).node_count();
    println!(
        "# bench_tenants: {nodes} nodes (+GRID {}x{}), {} steady epochs at {} s",
        options.planes, options.per_plane, options.epochs, options.interval_s
    );

    let mut results: Vec<Value> = Vec::new();
    let mut per_tenant_ms = Vec::new();
    for &tenants in &TENANT_COUNTS {
        let total_ms = run_fanout(&options, tenants);
        let ms_per_epoch = total_ms / f64::from(options.epochs);
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
        "# 16-tenant per-tenant cost is {amortization:.3}x solo (CI gates \u{2264} 0.5x)"
    );

    let document = json!({
        "bench": "tenants",
        "nodes": nodes,
        "planes": options.planes,
        "satellites_per_plane": options.per_plane,
        "epochs": options.epochs,
        "interval_s": options.interval_s,
        "tenant_counts": TENANT_COUNTS.to_vec(),
        "results": results,
        "amortization_16_vs_1": amortization,
    });
    let body = serde_json::to_string(&document).expect("serializable document");
    std::fs::write(&options.out, &body).expect("write BENCH_tenants.json");
    println!("# wrote {}", options.out);
}

//! Epoch-engine benchmark: emits `BENCH_epoch.json` for the perf trajectory.
//!
//! Measures the wall-clock cost per constellation epoch under three
//! configurations of the epoch engine on the default 32×32 +GRID:
//!
//! * **serial** — the seed behaviour: single-threaded per-satellite
//!   propagation, epoch computed inline at the boundary while the event loop
//!   stalls,
//! * **batch** — batch propagation fanned out over worker threads into
//!   retained buffers ([`celestial_constellation::StateBuffers`]), still
//!   computed inline,
//! * **pipelined** — the full [`celestial::pipeline::EpochPipeline`]: the
//!   next epoch is precomputed on a background worker while the event loop
//!   plays the current epoch's events.
//!
//! Between epoch boundaries the benchmark *plays* the epoch by sleeping for
//! a playout window calibrated to the serial compute time — the honest model
//! of the paper's testbed, where emulation fills the (real-time) update
//! interval. The headline metric is the **boundary stall**: how long the
//! event loop is blocked at each epoch handover. A synchronous engine stalls
//! for the full epoch computation; the pipeline stalls only for the channel
//! receive of an already finished bundle — that stall ratio is the
//! epoch-throughput improvement a saturated event loop observes, and CI
//! asserts it stays ≥ 1.5× for the pipelined engine (in practice it is far
//! higher). Wall-clock ms/epoch (including playout) is reported alongside
//! for context.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_epoch            # default
//! $ cargo run --release -p celestial-bench --bin bench_epoch -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph, fewer epochs), `--planes N`,
//! `--satellites-per-plane N`, `--epochs N`, `--interval-s S`,
//! `--out FILE` (default `BENCH_epoch.json`, or
//! `BENCH_epoch_smoke.json` under `--quick`).

use celestial::pipeline::{EpochCompute, EpochPipeline, PipelineMode};
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::time::SimDuration;
use serde_json::{json, Value};
use std::time::{Duration, Instant};

struct Options {
    planes: u32,
    per_plane: u32,
    epochs: u32,
    interval_s: f64,
    out: String,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The default mirrors bench_paths/bench_netprog: a 1024-satellite +GRID
    // at the steady-state one-second update cadence.
    let mut options = Options {
        planes: 32,
        per_plane: 32,
        epochs: 20,
        interval_s: 1.0,
        out: celestial_bench::bench_out("epoch", &args),
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

/// Runs `epochs` epoch boundaries at the configured cadence, sleeping for
/// `playout` between boundaries to model the event loop playing the epoch.
/// Returns (total wall ms, mean boundary-wait ms).
fn run_epochs(
    mut pipeline: EpochPipeline,
    options: &Options,
    playout: Duration,
) -> (f64, f64) {
    let started = Instant::now();
    for epoch in 0..options.epochs {
        let t = f64::from(epoch) * options.interval_s;
        let bundle = pipeline.advance(t).expect("epoch computation");
        pipeline.recycle(bundle);
        std::thread::sleep(playout);
    }
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let wait_ms = pipeline.stats().total_wait_ns as f64 / 1e6 / f64::from(options.epochs);
    (total_ms, wait_ms)
}

fn main() {
    let options = parse_options();
    let nodes = constellation(&options).node_count();

    // Calibrate the playout window: the steady-state compute time of the
    // serial seed path (a few warm-up epochs, inline, no sleep). The paper's
    // argument is exactly that emulation work of this order fills the
    // interval while the next epoch computes.
    let mut calibrate = EpochCompute::with_threads(constellation(&options), 1);
    let mut serial_compute_ms = 0.0;
    let calibration_epochs = 5u32;
    for epoch in 0..=calibration_epochs {
        let t = f64::from(epoch) * options.interval_s;
        let started = Instant::now();
        calibrate.compute(t).expect("calibration epoch");
        // Skip the first epoch: it pays one-off allocation + full solve.
        if epoch > 0 {
            serial_compute_ms += started.elapsed().as_secs_f64() * 1e3;
        }
    }
    serial_compute_ms /= f64::from(calibration_epochs);
    // The playout only needs to give the background worker comfortable wall
    // time to finish the precompute; its exact length cancels out of the
    // stall metric. 1.5× the serial compute, floored at 2 ms so sleep
    // granularity never starves the worker.
    let playout = Duration::from_secs_f64((serial_compute_ms * 1.5 / 1e3).max(0.002));
    let playout_ms = playout.as_secs_f64() * 1e3;
    println!(
        "# bench_epoch: {nodes} nodes (+GRID {}x{}), {} epochs at {} s, \
         serial compute {serial_compute_ms:.2} ms, playout {playout_ms:.2} ms",
        options.planes, options.per_plane, options.epochs, options.interval_s
    );

    let interval = SimDuration::from_secs_f64(options.interval_s);
    let configs: [(&str, Box<dyn Fn() -> EpochPipeline>); 3] = [
        (
            "serial",
            Box::new(|| {
                EpochPipeline::new(
                    EpochCompute::with_threads(constellation(&options), 1),
                    PipelineMode::Synchronous,
                    interval,
                )
            }),
        ),
        (
            "batch",
            Box::new(|| {
                EpochPipeline::new(
                    EpochCompute::new(constellation(&options)),
                    PipelineMode::Synchronous,
                    interval,
                )
            }),
        ),
        (
            "pipelined",
            Box::new(|| {
                EpochPipeline::new(
                    EpochCompute::new(constellation(&options)),
                    PipelineMode::Pipelined,
                    interval,
                )
            }),
        ),
    ];

    let mut results: Vec<Value> = Vec::new();
    let mut stall_ms = [0.0f64; 3];
    for (index, (name, build)) in configs.iter().enumerate() {
        let (total_ms, wait_ms) = run_epochs(build(), &options, playout);
        let per_epoch = total_ms / f64::from(options.epochs);
        stall_ms[index] = wait_ms;
        println!(
            "{name:>9}: boundary stall {wait_ms:8.3} ms/epoch (wall {per_epoch:.3} ms/epoch incl. playout)"
        );
        results.push(json!({
            "config": name,
            "boundary_stall_ms": wait_ms,
            "ms_per_epoch": per_epoch,
            "total_ms": total_ms,
        }));
    }

    // The stall is what bounds epoch throughput once emulation fills the
    // update interval: a saturated event loop completes an epoch every
    // `playout + stall`, with `playout` fixed by the experiment.
    let speedup_batch = stall_ms[0] / stall_ms[1].max(1e-6);
    let speedup_pipelined = stall_ms[0] / stall_ms[2].max(1e-6);
    println!(
        "# boundary-stall speedup over serial: batch {speedup_batch:.2}x, pipelined {speedup_pipelined:.2}x"
    );

    let document = json!({
        "bench": "epoch",
        "nodes": nodes,
        "planes": options.planes,
        "satellites_per_plane": options.per_plane,
        "epochs": options.epochs,
        "interval_s": options.interval_s,
        "serial_compute_ms": serial_compute_ms,
        "playout_ms": playout_ms,
        "results": results,
        "speedup_batch": speedup_batch,
        "speedup_pipelined": speedup_pipelined,
    });
    let body = serde_json::to_string(&document).expect("serializable document");
    std::fs::write(&options.out, &body).expect("write BENCH_epoch.json");
    println!("# wrote {}", options.out);
}

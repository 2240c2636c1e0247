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
//! Flags: `--quick` (small graph, fewer updates), `--planes N`,
//! `--satellites-per-plane N`, `--updates N`, `--interval-s S`,
//! `--out FILE` (default `BENCH_netprog.json`, or
//! `BENCH_netprog_smoke.json` under `--quick`).

use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::time::SimDuration;
use serde_json::{json, Value};
use std::time::Instant;

struct Options {
    planes: u32,
    per_plane: u32,
    updates: u32,
    interval_s: f64,
    out: String,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The default mirrors bench_paths' 1024-satellite +GRID; one-second
    // updates are the steady-state cadence of the paper's experiments.
    let mut options = Options {
        planes: 32,
        per_plane: 32,
        updates: 10,
        interval_s: 1.0,
        out: celestial_bench::bench_out("netprog", &args),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                options.planes = 12;
                options.per_plane = 16;
                options.updates = 5;
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
            "--updates" => {
                if let Some(v) = iter.next() {
                    options.updates = v.parse().expect("--updates takes a number");
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

fn main() {
    let options = parse_options();
    let constellation = Constellation::builder()
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
        .expect("valid constellation");
    let nodes = constellation.node_count();
    let mut coordinator = Coordinator::new(
        constellation,
        SimDuration::from_secs_f64(options.interval_s),
    );

    // Warm-up epoch: every reachable pair is added; steady state starts
    // after it.
    coordinator.update(0.0).expect("first update");
    let initial_pairs = coordinator.programme_pair_count();
    println!(
        "# bench_netprog: {nodes} nodes (+GRID {}x{}), {} initial pairs, {} steady-state updates at {} s",
        options.planes, options.per_plane, initial_pairs, options.updates, options.interval_s
    );

    let mut results: Vec<Value> = Vec::new();
    let mut full_ops: u64 = 0;
    let mut delta_ops: u64 = 0;
    for update in 1..=options.updates {
        let t = f64::from(update) * options.interval_s;
        let start = Instant::now();
        coordinator.update(t).expect("steady-state update");
        let update_ns = start.elapsed().as_nanos() as u64;
        let delta = coordinator.programme_delta();
        let pairs = coordinator.programme_pair_count();
        // The full-rebuild policy rewrites every pair; the delta policy
        // touches only the change set.
        full_ops += pairs as u64;
        delta_ops += delta.op_count() as u64;
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

    let document = json!({
        "bench": "netprog",
        "nodes": nodes,
        "planes": options.planes,
        "satellites_per_plane": options.per_plane,
        "updates": options.updates,
        "interval_s": options.interval_s,
        "initial_pairs": initial_pairs,
        "full_pair_programmings": full_ops,
        "delta_pair_programmings": delta_ops,
        "ratio": ratio,
        "results": results,
    });
    let body = serde_json::to_string(&document).expect("serializable document");
    std::fs::write(&options.out, &body).expect("write BENCH_netprog.json");
    println!("# wrote {}", options.out);
}

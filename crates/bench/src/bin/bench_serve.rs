//! Serving-plane benchmark: emits `BENCH_serve.json` for the perf trajectory.
//!
//! Two experiments over the same HTTP stack (`shims/httpd`, identical
//! server, identical `/self` route):
//!
//! **1. Saturated boundary — what read service survives?** At the paper's
//! scale the constellation computation fills the update interval, so the
//! interesting regime is a coordinator that is *always* computing the next
//! epoch. The benchmark drives boundaries back-to-back for a fixed wall
//! window and compares two read paths:
//!
//! * **locked** — the naive baseline: every request locks a
//!   `Mutex<Coordinator>` and queries the live [`InfoApi`]; the boundary
//!   holds the same lock for its whole computation, so reads stall for
//!   every epoch computation.
//! * **snapshot** — the serving plane of `docs/SERVE.md`: the coordinator
//!   publishes an epoch-versioned snapshot at each boundary and
//!   [`ServePlane`] answers lock-free from per-thread cached `Arc`s, so
//!   reads keep completing while the boundary computes.
//!
//! The headline is `boundary_req_per_s`: the read rate sustained **inside
//! the epoch-computation windows** (request completions timestamped against
//! the recorded update spans). Whole-window `req_per_s` is reported too —
//! on a single core it converges for both paths (the CPU, not the lock, is
//! the bottleneck there), which is exactly why the in-boundary rate is the
//! honest discriminator. CI gates snapshot ≥ 2× locked on
//! `boundary_req_per_s` in the `--quick` smoke; client-observed p50/p99
//! tell the same story as latency (the locked p99 absorbs whole epoch
//! computations).
//!
//! **2. Handover stall — does serving load stretch the boundary?** A
//! *pipelined* coordinator (the `BENCH_epoch.json` configuration: next
//! epoch precomputed in the background, playout window between boundaries)
//! runs once idle and once with the serving plane under client load. The
//! per-epoch handover stall — the event loop's wait at the boundary,
//! `PipelineStats::total_wait_ns` — must not grow materially under load:
//! snapshot readers never take a lock the boundary needs. Reported as
//! `handover_stall_loaded_ms` / `handover_stall_idle_ms`.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_serve            # default
//! $ cargo run --release -p celestial-bench --bin bench_serve -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (smaller graph, shorter runs), `--planes N`,
//! `--satellites-per-plane N`, `--window-s S` (saturated-leg measurement
//! window), `--epochs N` (handover leg), `--clients N`,
//! `--out FILE` (default `BENCH_serve.json`, or
//! `BENCH_serve_smoke.json` under `--quick`).

use celestial::config::ServeConfig;
use celestial::info_api::InfoApi;
use celestial::pipeline::PipelineMode;
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, ScopeParams, Shell};
use celestial_serve::ServePlane;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimDuration;
use httpd::{Client, Request, Response, Server};
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ROUTE: &str = "/self";
const INTERVAL_S: f64 = 1.0;
/// Every reader thread keeps going until the updater finishes, with this
/// floor so a starved thread still produces samples on 1-core runners.
const MIN_REQUESTS: usize = 50;

struct Options {
    planes: u32,
    per_plane: u32,
    epochs: u32,
    clients: u32,
    window_s: f64,
    out: String,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = Options {
        planes: 24,
        per_plane: 24,
        epochs: 40,
        clients: 2,
        window_s: 3.0,
        out: celestial_bench::bench_out("serve", &args),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                options.planes = 12;
                options.per_plane = 16;
                options.epochs = 25;
                options.window_s = 1.5;
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
            "--clients" => {
                if let Some(v) = iter.next() {
                    options.clients = v.parse().expect("--clients takes a number");
                }
            }
            "--window-s" => {
                if let Some(v) = iter.next() {
                    options.window_s = v.parse().expect("--window-s takes seconds");
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

/// One observed request: completion offset against the run clock and
/// client-observed latency, both in nanoseconds.
type Sample = (u64, u64);

/// One reader: hammers `ROUTE` over a keep-alive connection until `stop`.
fn reader(addr: SocketAddr, clock: Instant, stop: Arc<AtomicBool>) -> Vec<Sample> {
    let mut client = Client::connect(addr).expect("reader connect");
    let headers = [("x-celestial-node", "0.gst")];
    let mut samples = Vec::with_capacity(4096);
    while !stop.load(Ordering::Relaxed) || samples.len() < MIN_REQUESTS {
        let started = Instant::now();
        let reply = client.get_with_headers(ROUTE, &headers).expect("reader request");
        assert_eq!(reply.status, 200, "bench route must answer 200");
        samples.push((
            clock.elapsed().as_nanos() as u64,
            started.elapsed().as_nanos() as u64,
        ));
    }
    samples
}

fn spawn_readers(
    addr: SocketAddr,
    clock: Instant,
    clients: u32,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Vec<Sample>>> {
    (0..clients)
        .map(|_| {
            let stop = Arc::clone(stop);
            std::thread::spawn(move || reader(addr, clock, stop))
        })
        .collect()
}

fn join_samples(readers: Vec<std::thread::JoinHandle<Vec<Sample>>>) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    for handle in readers {
        samples.extend(handle.join().expect("reader thread"));
    }
    samples
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index] as f64 / 1e3
}

struct ReadMetrics {
    label: &'static str,
    epochs: u64,
    requests: usize,
    req_per_s: f64,
    boundary_req_per_s: f64,
    boundary_share: f64,
    p50_us: f64,
    p99_us: f64,
}

impl ReadMetrics {
    /// Builds the metrics from the run's samples and the recorded
    /// epoch-computation windows (offsets against the same clock).
    fn from_run(
        label: &'static str,
        epochs: u64,
        wall_s: f64,
        samples: Vec<Sample>,
        windows: &[(u64, u64)],
    ) -> ReadMetrics {
        let in_windows = |at: u64| -> bool {
            let index = windows.partition_point(|&(start, _)| start <= at);
            index > 0 && at < windows[index - 1].1
        };
        let in_boundary = samples.iter().filter(|&&(at, _)| in_windows(at)).count();
        let window_s: f64 = windows
            .iter()
            .map(|&(start, end)| (end - start) as f64 / 1e9)
            .sum();
        let mut latencies: Vec<u64> = samples.iter().map(|&(_, latency)| latency).collect();
        latencies.sort_unstable();
        ReadMetrics {
            label,
            epochs,
            requests: samples.len(),
            req_per_s: samples.len() as f64 / wall_s,
            boundary_req_per_s: in_boundary as f64 / window_s.max(1e-9),
            boundary_share: window_s / wall_s,
            p50_us: percentile_us(&latencies, 0.50),
            p99_us: percentile_us(&latencies, 0.99),
        }
    }

    fn to_json(&self, clients: u32) -> Value {
        json!({
            "config": self.label,
            "clients": clients,
            "epochs": self.epochs,
            "requests": self.requests as u64,
            "req_per_s": self.req_per_s,
            "boundary_req_per_s": self.boundary_req_per_s,
            "boundary_share_of_wall": self.boundary_share,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        })
    }
}

/// Experiment 1, locked leg: boundaries driven back-to-back, every read
/// competing for the coordinator mutex the boundary holds.
fn run_locked_saturated(options: &Options) -> ReadMetrics {
    let coordinator = Arc::new(Mutex::new(Coordinator::new(
        constellation(options),
        SimDuration::from_secs_f64(INTERVAL_S),
    )));
    coordinator.lock().unwrap().update(0.0).expect("first update");

    let handler_coordinator = Arc::clone(&coordinator);
    let server = Server::bind(
        "127.0.0.1:0",
        2,
        Arc::new(move |request: &Request| -> Response {
            let guard = handler_coordinator.lock().unwrap();
            let api = InfoApi::new(guard.database());
            match api.handle_path(NodeId::ground_station(0), request.path()) {
                Ok(value) => Response::json(200, serde_json::to_string(&value).unwrap()),
                Err(error) => Response::json(
                    400,
                    format!(r#"{{"error":"{}"}}"#, error.to_string().replace('"', "'")),
                ),
            }
        }),
    )
    .expect("locked server binds");

    let clock = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(server.addr(), clock, options.clients, &stop);
    let mut windows = Vec::new();
    let mut epochs = 0u64;
    while clock.elapsed().as_secs_f64() < options.window_s {
        epochs += 1;
        // The window is strictly the lock-held span: the updater's own
        // wait to *acquire* the lock is contention where readers are still
        // being served, and must not be counted as boundary time.
        let mut guard = coordinator.lock().unwrap();
        let start = clock.elapsed().as_nanos() as u64;
        guard
            .update(epochs as f64 * INTERVAL_S)
            .expect("locked update");
        windows.push((start, clock.elapsed().as_nanos() as u64));
        drop(guard);
    }
    let wall_s = clock.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let samples = join_samples(readers);
    ReadMetrics::from_run("locked", epochs, wall_s, samples, &windows)
}

/// Experiment 1, snapshot leg: the same back-to-back boundaries, reads
/// answered lock-free by the serving plane.
fn run_snapshot_saturated(options: &Options) -> (ReadMetrics, (u64, u64)) {
    let mut coordinator = Coordinator::new(
        constellation(options),
        SimDuration::from_secs_f64(INTERVAL_S),
    );
    let store = coordinator.enable_snapshots();
    coordinator.update(0.0).expect("first update");
    let config = ServeConfig {
        workers: 2,
        rate_limit_per_epoch: 0,
        ..ServeConfig::default()
    };
    let plane = ServePlane::start(&config, Arc::clone(&store)).expect("serve plane starts");

    let clock = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(plane.addr(), clock, options.clients, &stop);
    let mut windows = Vec::new();
    let mut epochs = 0u64;
    while clock.elapsed().as_secs_f64() < options.window_s {
        epochs += 1;
        let start = clock.elapsed().as_nanos() as u64;
        coordinator
            .update(epochs as f64 * INTERVAL_S)
            .expect("snapshot update");
        windows.push((start, clock.elapsed().as_nanos() as u64));
    }
    let wall_s = clock.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let samples = join_samples(readers);
    let metrics = ReadMetrics::from_run("snapshot", epochs, wall_s, samples, &windows);
    (metrics, store.publish_stats())
}

/// Experiment 2: a pipelined coordinator at the `bench_epoch` cadence (the
/// playout window gives the background worker comfortable wall time even
/// with readers sharing the core), idle or under client load. Returns the
/// mean per-epoch handover stall in milliseconds.
fn run_handover(options: &Options, clients: u32, playout: Duration) -> f64 {
    let mut coordinator = Coordinator::with_scoped_fanout(
        constellation(options),
        SimDuration::from_secs_f64(INTERVAL_S),
        PipelineMode::Pipelined,
        None,
        vec!["tenant-0".to_owned()],
        ScopeParams::default(),
    );
    let store = coordinator.enable_snapshots();
    coordinator.update(0.0).expect("first update");
    let config = ServeConfig {
        workers: 2,
        rate_limit_per_epoch: 0,
        ..ServeConfig::default()
    };
    let plane = ServePlane::start(&config, Arc::clone(&store)).expect("serve plane starts");

    let clock = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(plane.addr(), clock, clients, &stop);
    // Let the pipeline warm and the readers reach steady state off the
    // measured window.
    std::thread::sleep(playout);
    let wait_before = coordinator.pipeline_stats().total_wait_ns;
    for epoch in 1..=options.epochs {
        coordinator
            .update(f64::from(epoch) * INTERVAL_S)
            .expect("pipelined update");
        std::thread::sleep(playout);
    }
    let wait_ns = coordinator.pipeline_stats().total_wait_ns - wait_before;
    stop.store(true, Ordering::Relaxed);
    join_samples(readers);
    wait_ns as f64 / 1e6 / f64::from(options.epochs)
}

fn main() {
    let options = parse_options();
    let nodes = constellation(&options).node_count();

    // Calibrate the steady-state epoch compute time (sets the pipelined
    // leg's playout window; the saturated legs need no cadence at all).
    let mut calibrate = Coordinator::new(
        constellation(&options),
        SimDuration::from_secs_f64(INTERVAL_S),
    );
    let calibration_epochs = 5u32;
    let mut update_ms = 0.0;
    for epoch in 0..=calibration_epochs {
        let started = Instant::now();
        calibrate
            .update(f64::from(epoch) * INTERVAL_S)
            .expect("calibration update");
        if epoch > 0 {
            update_ms += started.elapsed().as_secs_f64() * 1e3;
        }
    }
    update_ms /= f64::from(calibration_epochs);
    // 4x the compute, floored at 4 ms: the background worker must finish
    // within the playout even when readers take most of a single core.
    let playout = Duration::from_secs_f64((update_ms * 4.0 / 1e3).max(0.004));
    println!(
        "# bench_serve: {nodes} nodes (+GRID {}x{}), {} clients, saturated window {} s, \
         epoch compute {update_ms:.2} ms, handover playout {:.2} ms x {} epochs",
        options.planes,
        options.per_plane,
        options.clients,
        options.window_s,
        playout.as_secs_f64() * 1e3,
        options.epochs,
    );

    let locked = run_locked_saturated(&options);
    let (snapshot, (published, recycled)) = run_snapshot_saturated(&options);
    for run in [&locked, &snapshot] {
        println!(
            "{:>9}: boundary {:>8.0} req/s (share {:>4.1}%)  overall {:>8.0} req/s  \
             p50 {:>8.1} us  p99 {:>9.1} us  ({} epochs)",
            run.label,
            run.boundary_req_per_s,
            run.boundary_share * 1e2,
            run.req_per_s,
            run.p50_us,
            run.p99_us,
            run.epochs,
        );
    }
    let throughput_ratio = snapshot.boundary_req_per_s / locked.boundary_req_per_s.max(1e-9);

    let handover_idle_ms = run_handover(&options, 0, playout);
    let handover_loaded_ms = run_handover(&options, options.clients, playout);
    let stall_ratio = handover_loaded_ms / handover_idle_ms.max(1e-9);
    println!(
        "# snapshot/locked in-boundary throughput {throughput_ratio:.2}x; pipelined handover \
         stall idle {handover_idle_ms:.4} ms vs loaded {handover_loaded_ms:.4} ms \
         ({stall_ratio:.3}x); snapshots published {published}, recycled {recycled}"
    );

    let document = json!({
        "bench": "serve",
        "nodes": nodes,
        "planes": options.planes,
        "satellites_per_plane": options.per_plane,
        "window_s": options.window_s,
        "epochs": options.epochs,
        "clients": options.clients,
        "interval_s": INTERVAL_S,
        "update_ms": update_ms,
        "playout_ms": playout.as_secs_f64() * 1e3,
        "results": [
            locked.to_json(options.clients),
            snapshot.to_json(options.clients),
        ],
        "throughput_ratio": throughput_ratio,
        "handover_stall_idle_ms": handover_idle_ms,
        "handover_stall_loaded_ms": handover_loaded_ms,
        "handover_stall_ratio": stall_ratio,
        "snapshots_published": published,
        "snapshots_recycled": recycled,
    });
    let body = serde_json::to_string(&document).expect("serializable document");
    std::fs::write(&options.out, &body).expect("write BENCH_serve.json");
    println!("# wrote {}", options.out);
}

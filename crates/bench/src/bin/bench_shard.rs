//! Host-sharding benchmark: emits `BENCH_shard.json` for the perf
//! trajectory.
//!
//! Measures, on a +GRID constellation with a bounding box, what one epoch's
//! network programming costs under the two planes:
//!
//! * **global** — one rule table: every epoch's full `ProgrammeDelta` is
//!   applied to a single `VirtualNetwork` (the single-host deployment),
//! * **sharded** — the `celestial_netem::shard` plane: the coordinator
//!   partitions the delta per host and every `HostShard` applies its own
//!   slice, one thread per shard over `std::thread::scope`.
//!
//! Two speedups are reported per host count:
//!
//! * `speedup_critical` — global apply time over the *slowest shard's* apply
//!   time. In the deployment the paper describes, every shard runs on its
//!   own physical host, so the slowest shard is the wall-clock critical path
//!   of the epoch — this is the figure that scales with the host count and
//!   the one CI gates on (≥ 1.5× at 4 hosts).
//! * `speedup_wall` — global apply time over the `thread::scope` wall time
//!   *on this machine*, which additionally depends on how many cores the
//!   bench machine has (a single-core runner cannot overlap shard applies).
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_shard            # default
//! $ cargo run --release -p celestial-bench --bin bench_shard -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph, fewer updates), `--planes N`,
//! `--satellites-per-plane N`, `--updates N`, `--interval-s S`,
//! `--hosts A,B,C`, `--out FILE` (default `BENCH_shard.json`, or
//! `BENCH_shard_smoke.json` under `--quick`).

use celestial::pipeline::PipelineMode;
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, ScopeParams, Shell};
use celestial_netem::shard::{ShardPlan, ShardedNetwork};
use celestial_netem::{HostOverlay, VirtualNetwork};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimDuration;
use serde_json::{json, Value};
use std::time::Instant;

struct Options {
    planes: u32,
    per_plane: u32,
    updates: u32,
    interval_s: f64,
    hosts: Vec<u32>,
    out: String,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = Options {
        planes: 32,
        per_plane: 32,
        updates: 10,
        interval_s: 1.0,
        hosts: vec![1, 2, 4, 8],
        out: celestial_bench::bench_out("shard", &args),
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
            "--hosts" => {
                if let Some(v) = iter.next() {
                    options.hosts = v
                        .split(',')
                        .map(|h| h.trim().parse().expect("--hosts takes a comma list"))
                        .collect();
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
        // A wide bounding box on purpose: the apply cost scales with the
        // number of programmed pairs, and a small regional box leaves the
        // programme too small to measure meaningfully.
        .bounding_box(BoundingBox::new(-50.0, 50.0, -120.0, 60.0))
        .build()
        .expect("valid constellation")
}

fn main() {
    let options = parse_options();
    let base = constellation(&options);
    let nodes = base.node_count();
    println!(
        "# bench_shard: {nodes} nodes (+GRID {}x{}), {} updates at {} s, hosts {:?}",
        options.planes, options.per_plane, options.updates, options.interval_s, options.hosts
    );

    // The node identities are fixed per topology; used to pre-place every
    // machine (as the testbed does lazily) so compensation lookups cost the
    // same in both planes.
    let state = base.state_at(0.0).expect("epoch state");
    let node_ids: Vec<NodeId> = (0..state.node_count())
        .map(|index| state.node_id(index).expect("node index in range"))
        .collect();
    drop(state);

    let mut results: Vec<Value> = Vec::new();
    let mut speedup_at_4 = None;
    for &hosts in &options.hosts {
        let plan = ShardPlan::new(hosts);
        let mut coordinator = Coordinator::with_scoped_fanout(
            base.clone(),
            SimDuration::from_secs_f64(options.interval_s),
            PipelineMode::Synchronous,
            Some(plan),
            vec!["tenant-0".to_owned()],
            ScopeParams::default(),
        );
        let mut global = VirtualNetwork::with_overlay(HostOverlay::new(hosts));
        // Two identical sharded planes: one applied serially so each
        // shard's time is measured uncontended (the per-host critical
        // path), one applied over `thread::scope` for the wall time on
        // this machine.
        let mut sharded = ShardedNetwork::new(plan);
        let mut sharded_parallel = ShardedNetwork::new(plan);
        for &node in &node_ids {
            let host = plan.host_of(node);
            global.overlay_mut().place(node, host);
            sharded.place(node, host);
            sharded_parallel.place(node, host);
        }

        let mut global_ns: u64 = 0;
        let mut critical_ns: u64 = 0;
        let mut wall_ns: u64 = 0;
        let mut delta_ops: u64 = 0;
        let mut updates: Vec<Value> = Vec::new();
        for update in 0..=options.updates {
            let t = f64::from(update) * options.interval_s;
            coordinator.update(t).expect("update");
            let delta = coordinator.programme_delta();
            delta_ops += delta.op_count() as u64;

            let started = Instant::now();
            global.apply_delta(delta);
            let epoch_global_ns = started.elapsed().as_nanos() as u64;
            let serial = sharded.apply_delta_serial(coordinator.host_deltas());
            let epoch_critical_ns = serial.critical_path_ns();
            let parallel = sharded_parallel.apply_delta_sharded(coordinator.host_deltas());
            global_ns += epoch_global_ns;
            critical_ns += epoch_critical_ns;
            wall_ns += parallel.wall_ns;
            updates.push(json!({
                "update": update,
                "delta_ops": delta.op_count(),
                "global_ns": epoch_global_ns,
                "critical_ns": epoch_critical_ns,
                "wall_ns": parallel.wall_ns,
            }));
        }

        // Sanity: both planes hold exactly the same directed rules.
        let shard_rules: usize = sharded
            .shards()
            .iter()
            .map(|s| s.network().tc().rule_count())
            .sum();
        assert_eq!(
            global.tc().rule_count(),
            shard_rules,
            "planes diverged at {hosts} hosts"
        );

        let speedup_critical = global_ns as f64 / critical_ns.max(1) as f64;
        let speedup_wall = global_ns as f64 / wall_ns.max(1) as f64;
        println!(
            "hosts {hosts:>2}: global {:>8.3} ms, slowest shard {:>8.3} ms ({speedup_critical:.2}x), wall {:>8.3} ms ({speedup_wall:.2}x), {} pairs",
            global_ns as f64 / 1e6,
            critical_ns as f64 / 1e6,
            wall_ns as f64 / 1e6,
            coordinator.programme_pair_count(),
        );
        if hosts == 4 {
            speedup_at_4 = Some(speedup_critical);
        }
        results.push(json!({
            "hosts": hosts,
            "pairs": coordinator.programme_pair_count(),
            "delta_ops": delta_ops,
            "global_ms": global_ns as f64 / 1e6,
            "critical_path_ms": critical_ns as f64 / 1e6,
            "wall_ms": wall_ns as f64 / 1e6,
            "speedup_critical": speedup_critical,
            "speedup_wall": speedup_wall,
            "updates": updates,
        }));
    }

    let document = json!({
        "bench": "shard",
        "nodes": nodes,
        "planes": options.planes,
        "satellites_per_plane": options.per_plane,
        "updates": options.updates,
        "interval_s": options.interval_s,
        "results": results,
        "speedup_at_4_hosts": speedup_at_4,
    });
    let body = serde_json::to_string(&document).expect("serializable document");
    std::fs::write(&options.out, &body).expect("write BENCH_shard.json");
    println!("# wrote {}", options.out);
}

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
//!   of the epoch — a modelled figure that scales with the host count and
//!   the one gated here (≥ 1.5× at 4 hosts).
//! * `speedup_wall` — global apply time over the `thread::scope` wall time
//!   *on this machine*, which additionally depends on how many cores the
//!   bench machine has (`host_cores` in the report; a single-core runner
//!   cannot overlap shard applies).
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_shard            # default
//! $ cargo run --release -p celestial-bench --bin bench_shard -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph, fewer updates), `--out FILE` (default
//! `BENCH_shard.json`, or `BENCH_shard_smoke.json` under `--quick`). The
//! gates (the critical-path speedup at 4 hosts, both planes holding the
//! same rules) are evaluated here: a failed gate exits 1 after the report
//! is written.

use celestial::pipeline::PipelineMode;
use celestial::Coordinator;
use celestial_bench::{grid_constellation, min_field, BenchReport, Op, Options};
use celestial_constellation::{BoundingBox, ScopeParams};
use celestial_netem::shard::{ShardPlan, ShardedNetwork};
use celestial_netem::{HostOverlay, VirtualNetwork};
use celestial_types::ids::NodeId;
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

const FULL: Params = Params { planes: 32, per_plane: 32, updates: 10 };
const QUICK: Params = Params { planes: 12, per_plane: 16, updates: 5 };

/// The steady-state one-second update cadence.
const INTERVAL_S: f64 = 1.0;

/// The host counts measured.
const HOSTS: [u32; 4] = [1, 2, 4, 8];

fn main() -> ExitCode {
    let options = Options::from_args(None);
    let params = options.pick(FULL, QUICK);
    // A wide bounding box on purpose: the apply cost scales with the number
    // of programmed pairs, and a small regional box leaves the programme too
    // small to measure meaningfully.
    let base = grid_constellation(
        params.planes,
        params.per_plane,
        BoundingBox::new(-50.0, 50.0, -120.0, 60.0),
    );
    let nodes = base.node_count();
    println!(
        "# bench_shard: {nodes} nodes (+GRID {}x{}), {} updates at {INTERVAL_S} s, hosts {HOSTS:?}",
        params.planes, params.per_plane, params.updates
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
    // Host counts whose two planes ended with different rule counts.
    let mut diverged = 0usize;
    for hosts in HOSTS {
        let plan = ShardPlan::new(hosts);
        let mut coordinator = Coordinator::with_scoped_fanout(
            base.clone(),
            SimDuration::from_secs_f64(INTERVAL_S),
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
        for update in 0..=params.updates {
            let t = f64::from(update) * INTERVAL_S;
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

        // Both planes must hold exactly the same directed rules.
        let shard_rules: usize = sharded
            .shards()
            .iter()
            .map(|s| s.network().tc().rule_count())
            .sum();
        diverged += usize::from(global.tc().rule_count() != shard_rules);

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

    let mut report = BenchReport::new("shard", &options);
    report.gate("nodes", nodes as f64, Op::Gt, 0.0);
    report.gate("min_pairs", min_field(&results, "pairs"), Op::Gt, 0.0);
    report.gate("min_global_ms", min_field(&results, "global_ms"), Op::Gt, 0.0);
    report.gate("min_critical_path_ms", min_field(&results, "critical_path_ms"), Op::Gt, 0.0);
    report.gate("host_counts_with_diverged_planes", diverged as f64, Op::Eq, 0.0);
    report.gate(
        "speedup_at_4_hosts",
        speedup_at_4.expect("4 is a measured host count"),
        Op::Ge,
        1.5,
    );
    report.finish(json!({
        "nodes": nodes,
        "planes": params.planes,
        "satellites_per_plane": params.per_plane,
        "updates": params.updates,
        "interval_s": INTERVAL_S,
        "results": results,
        "speedup_at_4_hosts": speedup_at_4,
    }))
}

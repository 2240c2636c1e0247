//! Path-engine benchmark: emits `BENCH_paths.json` for the perf trajectory.
//!
//! Compares, on a +GRID constellation graph, the seed implementation
//! (nested-`Vec` adjacency, per-source allocation, `Option<usize>` next-hop
//! matrix — reimplemented here verbatim as the baseline) against the CSR
//! [`NetworkGraph`] and the parallel [`celestial_constellation::PathEngine`],
//! plus the Floyd–Warshall reference on small graphs and a single-source
//! Dijkstra from a ground station on the 72×22 Starlink shell.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_paths            # 1000+ nodes
//! $ cargo run --release -p celestial-bench --bin bench_paths -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (small graph), `--out FILE` (default `BENCH_paths.json`,
//! or `BENCH_paths_smoke.json` under `--quick`). The gates (a non-empty
//! graph, every record timed) are evaluated here: a failed gate exits 1
//! after the report is written.

use celestial_bench::{grid_constellation, min_field, BenchReport, Op, Options};
use celestial_constellation::path::{Cost, NetworkGraph, UNREACHABLE};
use celestial_constellation::{BoundingBox, PathAlgorithm, PathEngine};
use serde_json::{json, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::process::ExitCode;
use std::time::Instant;

/// The seed's path subsystem, reimplemented as the benchmark baseline:
/// nested-`Vec` adjacency, a fresh allocation per Dijkstra source, and the
/// predecessor→next-hop conversion walk per (source, target) pair.
struct LegacyGraph {
    adjacency: Vec<Vec<(usize, Cost)>>,
}

impl LegacyGraph {
    fn from_graph(graph: &NetworkGraph) -> Self {
        let mut adjacency = vec![Vec::new(); graph.node_count()];
        for &(a, b, w) in graph.edges() {
            adjacency[a as usize].push((b as usize, w));
            adjacency[b as usize].push((a as usize, w));
        }
        LegacyGraph { adjacency }
    }

    fn dijkstra(&self, source: usize) -> (Vec<Cost>, Vec<Option<usize>>) {
        let n = self.adjacency.len();
        let mut dist = vec![UNREACHABLE; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[source] = 0;
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adjacency[u] {
                let candidate = d.saturating_add(w);
                if candidate < dist[v] {
                    dist[v] = candidate;
                    prev[v] = Some(u);
                    heap.push(Reverse((candidate, v)));
                }
            }
        }
        (dist, prev)
    }

    fn all_pairs_dijkstra(&self) -> (Vec<Vec<Cost>>, Vec<Vec<Option<usize>>>) {
        let n = self.adjacency.len();
        let mut dist = Vec::with_capacity(n);
        let mut next = vec![vec![None; n]; n];
        for source in 0..n {
            let (d, prev) = self.dijkstra(source);
            for target in 0..n {
                if target == source || d[target] == UNREACHABLE {
                    continue;
                }
                let mut hop = target;
                while let Some(p) = prev[hop] {
                    if p == source {
                        break;
                    }
                    hop = p;
                }
                next[source][target] = Some(hop);
            }
            dist.push(d);
        }
        (dist, next)
    }
}

/// Times `op` adaptively: at least `min_iters` runs and at least ~0.5 s of
/// wall clock, whichever is more (bounded at one million iterations as a
/// backstop for degenerate nanosecond-scale operations), and returns
/// (ns/op, iterations).
fn measure<T>(min_iters: u32, mut op: impl FnMut() -> T) -> (u64, u32) {
    // One warm-up run populates caches (and the engine's reusable buffers).
    std::hint::black_box(op());
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        std::hint::black_box(op());
        iters += 1;
        if iters >= min_iters && (start.elapsed().as_millis() >= 500 || iters >= 1_000_000) {
            break;
        }
    }
    ((start.elapsed().as_nanos() / u128::from(iters)) as u64, iters)
}

/// The measured +GRID (planes, satellites per plane) and the node-count
/// sweep of the engine's full solve.
struct Params {
    grid: (u32, u32),
    sweep: &'static [(u32, u32)],
}

/// The default is a 1024-satellite +GRID, comfortably past the 1,000-node
/// mark; the sweep stops well short of mega scale because the full solve is
/// exactly what stops scaling there.
const FULL: Params = Params { grid: (32, 32), sweep: &[(16, 16), (32, 32), (48, 48)] };
const QUICK: Params = Params { grid: (8, 8), sweep: &[(4, 4), (8, 8)] };

/// The first shell of the Starlink phase-I constellation (72 planes of 22).
const STARLINK_SHELL: (u32, u32) = (72, 22);

fn graph_of((planes, per_plane): (u32, u32)) -> NetworkGraph {
    let constellation = grid_constellation(planes, per_plane, BoundingBox::whole_earth());
    constellation.state_at(0.0).expect("state").graph().clone()
}

fn main() -> ExitCode {
    let options = Options::from_args(None);
    let params = options.pick(FULL, QUICK);
    let (planes, per_plane) = params.grid;
    let graph = graph_of(params.grid);
    let nodes = graph.node_count();
    let edges = graph.edge_count();
    println!("# bench_paths: {nodes} nodes, {edges} edges (+GRID {planes}x{per_plane})");

    let mut results: Vec<Value> = Vec::new();
    let mut record = |algorithm: &str, graph: &NetworkGraph, ns_per_op: u64, iters: u32| {
        println!("{algorithm:<28} {ns_per_op:>14} ns/op  ({iters} iterations)");
        results.push(json!({
            "algorithm": algorithm,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "ns_per_op": ns_per_op,
            "iterations": iters,
        }));
    };

    // The seed baseline: nested-Vec all-pairs Dijkstra with next-hop
    // conversion, exactly as `all_pairs_dijkstra` shipped before the CSR
    // engine landed.
    let legacy = LegacyGraph::from_graph(&graph);
    let (ns, iters) = measure(2, || legacy.all_pairs_dijkstra());
    record("seed_nested_vec_dijkstra", &graph, ns, iters);

    // CSR graph, sequential per-source Dijkstra.
    let (ns, iters) = measure(2, || graph.all_pairs_dijkstra());
    record("csr_dijkstra", &graph, ns, iters);

    // The engine: parallel workers + reused buffers (zero steady-state
    // allocation).
    let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
    let (ns, iters) = measure(3, || {
        engine.solve(&graph);
        engine.last_solve().solved_sources
    });
    record(&format!("engine_parallel_x{}", engine.threads()), &graph, ns, iters);

    // The engine restricted to the coordinator's sources: the two ground
    // stations (the realistic per-update workload shape).
    let gst_sources = [(nodes - 2) as u32, (nodes - 1) as u32];
    let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
    let (ns, iters) = measure(10, || {
        engine.solve_sources(&graph, &gst_sources);
        engine.last_solve().solved_sources
    });
    record("engine_ground_station_rows", &graph, ns, iters);

    // Floyd–Warshall is cubic: only feasible on small graphs.
    if nodes <= 256 {
        let (ns, iters) = measure(2, || graph.floyd_warshall());
        record("floyd_warshall", &graph, ns, iters);
    }

    // One ground station's row on the first Starlink shell, whatever the
    // measured grid: the single-source solve the info API falls back to.
    let starlink = graph_of(STARLINK_SHELL);
    let source = starlink.node_count() - 1;
    let (ns, iters) = measure(10, || starlink.dijkstra(source));
    record("single_source_dijkstra_72x22", &starlink, ns, iters);

    // Node-count sweep: the scaling curve of the engine's full solve, the
    // baseline the scoped megascale bench (BENCH_megascale.json) prunes
    // against. Each record carries its own node count.
    let mut sweep: Vec<Value> = Vec::new();
    for &(planes, per_plane) in params.sweep {
        let graph = graph_of((planes, per_plane));
        let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
        let (ns, iters) = measure(2, || {
            engine.solve(&graph);
            engine.last_solve().solved_sources
        });
        println!(
            "engine_full_sweep            {ns:>14} ns/op  ({iters} iterations, {} nodes)",
            graph.node_count()
        );
        sweep.push(json!({
            "algorithm": "engine_full_solve",
            "planes": planes,
            "satellites_per_plane": per_plane,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "ns_per_op": ns,
            "iterations": iters,
        }));
    }

    let mut report = BenchReport::new("paths", &options);
    report.gate("nodes", nodes as f64, Op::Gt, 0.0);
    report.gate("edges", edges as f64, Op::Gt, 0.0);
    report.gate("results", results.len() as f64, Op::Ge, 1.0);
    report.gate("min_ns_per_op", min_field(&results, "ns_per_op"), Op::Gt, 0.0);
    report.gate("min_iterations", min_field(&results, "iterations"), Op::Gt, 0.0);
    report.finish(json!({
        "nodes": nodes,
        "edges": edges,
        "planes": planes,
        "satellites_per_plane": per_plane,
        "results": results,
        "node_sweep": sweep,
    }))
}

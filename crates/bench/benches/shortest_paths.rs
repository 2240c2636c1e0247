//! E11: shortest-path ablation — per-source Dijkstra vs. Floyd–Warshall vs.
//! the parallel [`PathEngine`].
//!
//! Celestial replaces SILLEO-SCNS's path computation with "more efficient
//! implementations of Dijkstra's algorithm and the Floyd–Warshall algorithm".
//! This bench compares the stateless algorithms on +GRID constellation
//! graphs of increasing size, the engine's parallel full solve, and the
//! single-source case the coordinator uses as the info-API fallback. The
//! standalone `bench_paths` binary emits the same comparison as
//! `BENCH_paths.json` for the perf trajectory.

use celestial_constellation::{Constellation, GroundStation, PathAlgorithm, PathEngine, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn graph(planes: u32, per_plane: u32) -> celestial_constellation::NetworkGraph {
    let constellation = Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, planes, per_plane)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6, -0.19, 0.0)))
        .build()
        .expect("valid constellation");
    constellation.state_at(0.0).expect("state").graph().clone()
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_pairs_shortest_paths");
    group.sample_size(10);
    for (planes, per_plane) in [(6u32, 6u32), (10, 10), (16, 16)] {
        let g = graph(planes, per_plane);
        let nodes = g.node_count();
        group.bench_with_input(BenchmarkId::new("dijkstra", nodes), &g, |b, g| {
            b.iter(|| g.all_pairs_dijkstra());
        });
        group.bench_with_input(BenchmarkId::new("floyd_warshall", nodes), &g, |b, g| {
            b.iter(|| g.floyd_warshall());
        });
        group.bench_with_input(BenchmarkId::new("engine_parallel", nodes), &g, |b, g| {
            let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
            b.iter(|| {
                engine.solve(g);
                engine.last_solve().solved_sources
            });
        });
    }
    group.finish();
}

fn bench_single_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_source_dijkstra");
    let g = graph(72, 22);
    group.bench_function("starlink_shell1_from_ground_station", |b| {
        let source = g.node_count() - 1;
        b.iter(|| g.dijkstra(source));
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_single_source);
criterion_main!(benches);

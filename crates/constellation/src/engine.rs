//! The high-throughput path engine: the scoped, parallel shortest-path
//! solve every epoch runs.
//!
//! The coordinator must recompute shortest paths over the whole
//! constellation graph at every update interval, which dominates its cost at
//! scale (§3.1). [`PathEngine`] attacks that hot path in three ways on top
//! of the CSR representation of [`crate::path::NetworkGraph`]:
//!
//! 1. **Scoped rows** — [`SolveScope`] restricts the solve to the rows the
//!    programme needs, and each row runs a bounded Dijkstra that stops once
//!    every required node is settled. Every entry a reader can see is
//!    bit-identical to a full solve (see `docs/MEGASCALE.md`).
//! 2. **Parallel per-source Dijkstra** — rows are fanned out over
//!    `std::thread::scope` workers (no external dependencies), each writing
//!    into disjoint rows of the flat result matrix.
//! 3. **Scratch reuse** — the result matrix and the worker heaps are owned
//!    by the engine and rewritten in place, so a steady-state solve performs
//!    no allocation beyond what the OS hands back to the reused buffers.
//!
//! The graph's per-edge bandwidth channel is deliberately invisible here:
//! paths are selected by latency alone, and the coordinator's programme
//! delta picks bandwidth changes up when it walks the predecessor chains.
//!
//! `docs/PATHS.md` describes the solve and the `path-algorithm`
//! configuration key, which only accepts `"dijkstra"`.

use crate::bbox::BoundingBox;
use crate::constellation::ConstellationState;
use crate::path::{Cost, DijkstraHeap, NetworkGraph, PathAlgorithm, ShortestPaths};

/// How a solve was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveKind {
    /// Every requested source row was solved with a full per-source
    /// Dijkstra ([`PathEngine::solve_sources`]).
    #[default]
    FullDijkstra,
    /// A [`SolveScope`]-restricted solve: bounded per-source Dijkstra runs
    /// that terminate once every required (programme) target is settled,
    /// plus full rows for the ALT landmarks.
    Scoped,
}

/// Statistics about the most recent solve, for logging, benchmarks and
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// How the solve was executed.
    pub kind: SolveKind,
    /// Number of source rows solved.
    pub solved_sources: usize,
    /// Scoped solves only: number of in-scope source rows solved.
    pub scope_sources: usize,
    /// Scoped solves only: number of required (programme) target nodes each
    /// bounded row had to settle before terminating.
    pub scope_required: usize,
    /// Scoped solves only: number of fully solved ALT landmark rows.
    pub scope_landmarks: usize,
    /// Scoped solves only: total nodes settled across all bounded rows —
    /// the figure that shows how much work the early termination saved
    /// (compare with `scope_sources × node_count` for a full solve).
    pub scope_settled: u64,
}

/// Tuning knobs of the scope derivation (the `[paths]` table of the
/// configuration file; see `docs/MEGASCALE.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScopeParams {
    /// Degrees by which the configured bounding box is expanded to admit
    /// near-boundary satellites into the solve scope.
    pub margin_deg: f64,
    /// Per ground station, the `k` nearest satellites (by ECEF distance,
    /// ties broken by node index) added to the scope regardless of the box.
    pub k_nearest: usize,
    /// Number of fully solved landmark rows kept for the ALT fallback of
    /// out-of-scope queries. Landmark node ids are a pure function of the
    /// satellite count, so they only change when the topology class does.
    pub landmarks: usize,
}

impl Default for ScopeParams {
    fn default() -> Self {
        ScopeParams {
            margin_deg: 10.0,
            k_nearest: 16,
            landmarks: 8,
        }
    }
}

/// The set of source rows a scoped solve computes, split into *required*
/// nodes (the programme sources — active satellites and ground stations —
/// whose pairwise entries must come out bit-identical to a full solve) and
/// the wider *scope* (expanded-bounding-box satellites, per-ground-station
/// nearest neighbourhoods and ALT landmarks) that pads the search so the
/// bounded rows stay cheap without ever being read directly.
///
/// The scope is a reusable buffer: [`SolveScope::derive`] refills it from a
/// constellation state every epoch without allocating in steady state.
#[derive(Debug, Clone, Default)]
pub struct SolveScope {
    node_count: u32,
    /// Strictly ascending solve sources (scope ∪ required ∪ landmarks).
    sources: Vec<u32>,
    /// Node-indexed required bitset; required nodes are always sources.
    required: Vec<bool>,
    required_count: u32,
    /// Sorted landmark node ids (always a subset of `sources`).
    landmarks: Vec<u32>,
    /// Node-indexed scope bitset (scratch for the derivation).
    scope: Vec<bool>,
    /// Scratch for the per-ground-station k-nearest selection.
    nearest: Vec<(f64, u32)>,
    /// Satellites inside the configured (unexpanded) bounding box.
    active_satellites: usize,
    /// Satellites in the solve scope (expanded box + neighbourhoods +
    /// landmarks).
    scope_satellites: usize,
}

impl SolveScope {
    /// An empty scope; fill it with [`SolveScope::derive`] or
    /// [`SolveScope::from_sets`].
    pub fn new() -> Self {
        SolveScope::default()
    }

    /// Derives the scope for one constellation state: required rows are the
    /// programme sources (bounding-box-active satellites plus every ground
    /// station); the scope widens that by satellites inside the box expanded
    /// by `params.margin_deg`, the `params.k_nearest` satellites closest to
    /// each ground station, and `params.landmarks` evenly spaced landmark
    /// satellites whose rows are solved fully for the ALT fallback.
    pub fn derive(
        &mut self,
        state: &ConstellationState,
        bounding_box: &BoundingBox,
        params: &ScopeParams,
    ) {
        let n = state.node_count();
        let sat_total = state.satellite_count();
        let sats = state.satellite_positions_raw();
        let active = state.active_raw();
        let expanded = bounding_box.expanded(params.margin_deg.max(0.0));
        self.node_count = n as u32;
        self.required.clear();
        self.required.resize(n, false);
        self.scope.clear();
        self.scope.resize(n, false);
        let mut required_count = 0u32;
        let mut active_satellites = 0usize;
        for i in 0..sat_total {
            if active[i] {
                // Bounding-box-active satellites are programme sources; the
                // expanded box contains the configured box (margin >= 0), so
                // every required satellite is in scope.
                self.required[i] = true;
                self.scope[i] = true;
                required_count += 1;
                active_satellites += 1;
            } else if expanded.contains(&sats[i].to_geodetic()) {
                self.scope[i] = true;
            }
        }
        for g in sat_total..n {
            self.required[g] = true;
            self.scope[g] = true;
            required_count += 1;
        }
        // The k nearest satellites to each ground station join the scope:
        // uplink-relevant rows stay cheap even when a station sits right at
        // the box edge. ECEF distance, ties broken by node index, so the
        // selection is deterministic.
        let k = params.k_nearest.min(sat_total);
        if k > 0 {
            for gp in state.ground_positions_raw() {
                self.nearest.clear();
                self.nearest
                    .extend(sats.iter().enumerate().map(|(i, p)| (p.distance_to(gp), i as u32)));
                self.nearest
                    .select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &(_, i) in &self.nearest[..k] {
                    self.scope[i as usize] = true;
                }
            }
        }
        // Landmarks: evenly spaced satellite indices — a pure function of
        // the satellite count, so the set only changes when the topology
        // class does (never between epochs of one constellation).
        self.landmarks.clear();
        let landmark_count = params.landmarks.min(sat_total);
        for j in 0..landmark_count {
            let idx = (j * sat_total / landmark_count) as u32;
            self.landmarks.push(idx);
            self.scope[idx as usize] = true;
        }
        self.required_count = required_count;
        self.active_satellites = active_satellites;
        self.sources.clear();
        self.sources
            .extend((0..n as u32).filter(|&i| self.scope[i as usize]));
        self.scope_satellites = self
            .sources
            .iter()
            .take_while(|&&s| (s as usize) < sat_total)
            .count();
    }

    /// Builds a scope from explicit node sets — the constructor benches and
    /// property tests use to exercise arbitrary scopes.
    ///
    /// # Panics
    ///
    /// Panics if any node index is out of range.
    pub fn from_sets(
        node_count: usize,
        required_nodes: &[u32],
        extra_scope_nodes: &[u32],
        landmarks: &[u32],
    ) -> Self {
        let mut scope = SolveScope::new();
        scope.node_count = node_count as u32;
        scope.required.resize(node_count, false);
        scope.scope.resize(node_count, false);
        for &r in required_nodes {
            let r = r as usize;
            assert!(r < node_count, "required node out of range");
            if !scope.required[r] {
                scope.required[r] = true;
                scope.required_count += 1;
            }
            scope.scope[r] = true;
        }
        for &s in extra_scope_nodes {
            assert!((s as usize) < node_count, "scope node out of range");
            scope.scope[s as usize] = true;
        }
        for &l in landmarks {
            assert!((l as usize) < node_count, "landmark out of range");
            scope.scope[l as usize] = true;
        }
        scope.landmarks.extend_from_slice(landmarks);
        scope.landmarks.sort_unstable();
        scope.landmarks.dedup();
        scope
            .sources
            .extend((0..node_count as u32).filter(|&i| scope.scope[i as usize]));
        scope
    }

    /// The strictly ascending solve sources.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Whether `node` is a required (programme) node.
    pub fn is_required(&self, node: usize) -> bool {
        self.required.get(node).copied().unwrap_or(false)
    }

    /// Number of required (programme) nodes.
    pub fn required_count(&self) -> usize {
        self.required_count as usize
    }

    /// The sorted landmark node ids.
    pub fn landmarks(&self) -> &[u32] {
        &self.landmarks
    }

    /// Satellites inside the configured (unexpanded) bounding box — the
    /// `scope_active_satellites` figure the `/info` route reports.
    pub fn active_satellites(&self) -> usize {
        self.active_satellites
    }

    /// Satellites admitted to the solve scope.
    pub fn scope_satellites(&self) -> usize {
        self.scope_satellites
    }
}

/// A reusable, parallel shortest-path solver.
///
/// The engine owns the result matrix and all scratch memory; feeding it the
/// graph of each timestep returns a borrowed [`ShortestPaths`] without
/// re-allocating in steady state.
///
/// # Examples
///
/// ```
/// use celestial_constellation::engine::PathEngine;
/// use celestial_constellation::path::{NetworkGraph, PathAlgorithm};
///
/// // Timestep 0: a 3-node line 0 —10— 1 —10— 2.
/// let g0 = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10)]);
/// let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
/// let paths = engine.solve(&g0);
/// assert_eq!(paths.latency_micros(0, 2), Some(20));
/// assert_eq!(paths.path(0, 2), Some(vec![0, 1, 2]));
///
/// // Timestep 1: a direct 5 µs link appears; the engine re-solves and the
/// // shortest path switches to the new edge.
/// let g1 = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10), (0, 2, 5)]);
/// let paths = engine.solve(&g1);
/// assert_eq!(paths.latency_micros(0, 2), Some(5));
/// assert_eq!(paths.path(0, 2), Some(vec![0, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct PathEngine {
    threads: usize,
    /// Whether `paths` holds a solve.
    solved: bool,
    /// The result, rewritten in place by every solve.
    paths: ShortestPaths,
    /// One Dijkstra heap per worker thread, reused across solves.
    heaps: Vec<DijkstraHeap>,
    /// `0..n` for [`PathEngine::solve`], kept across solves.
    all_sources: Vec<u32>,
    /// Per-row settled-node counts of the most recent solve (scratch).
    row_settled: Vec<u32>,
    stats: SolveStats,
}

/// One row job of a solve: source, bounded?, distance row, predecessor row,
/// exactness bound and settled-node count.
type RowJob<'a> = (u32, bool, &'a mut [Cost], &'a mut [u32], &'a mut Cost, &'a mut u32);

impl PathEngine {
    /// Creates an engine with as many worker threads as the machine offers.
    ///
    /// # Panics
    ///
    /// Panics unless `algorithm` is [`PathAlgorithm::Dijkstra`]: every other
    /// algorithm was removed (see [`PathAlgorithm::ensure_supported`]).
    pub fn new(algorithm: PathAlgorithm) -> Self {
        if let Err(e) = algorithm.ensure_supported() {
            panic!("{e}");
        }
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// Creates an engine with an explicit worker-thread count (1 solves on
    /// the calling thread without spawning).
    pub fn with_threads(threads: usize) -> Self {
        PathEngine {
            threads: threads.max(1),
            solved: false,
            paths: ShortestPaths::for_all_sources(0),
            heaps: Vec::new(),
            all_sources: Vec::new(),
            row_settled: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Statistics about the most recent solve.
    pub fn last_solve(&self) -> SolveStats {
        self.stats
    }

    /// The most recent result, if any solve has happened.
    pub fn paths(&self) -> Option<&ShortestPaths> {
        self.solved.then_some(&self.paths)
    }

    /// Solves shortest paths from *every* node of `graph`.
    pub fn solve(&mut self, graph: &NetworkGraph) -> &ShortestPaths {
        let n = graph.node_count() as u32;
        if self.all_sources.len() != n as usize {
            self.all_sources.clear();
            self.all_sources.extend(0..n);
        }
        let sources = std::mem::take(&mut self.all_sources);
        self.solve_sources(graph, &sources);
        self.all_sources = sources;
        &self.paths
    }

    /// Solves full shortest-path rows for the given source nodes. This is
    /// the reference the scoped solve's exactness is tested against.
    ///
    /// # Panics
    ///
    /// Panics if a source index is out of range for `graph`.
    pub fn solve_sources(&mut self, graph: &NetworkGraph, sources: &[u32]) -> &ShortestPaths {
        let n = graph.node_count();
        assert!(
            sources.iter().all(|&s| (s as usize) < n),
            "source index out of range"
        );
        self.paths.reset(n as u32, sources);
        self.solve_rows(graph, None);
        self.stats = SolveStats {
            kind: SolveKind::FullDijkstra,
            solved_sources: sources.len(),
            ..SolveStats::default()
        };
        &self.paths
    }

    /// Solves the rows of a [`SolveScope`]: every source row is computed with
    /// a bounded Dijkstra that stops once all of the scope's *required* nodes
    /// are settled (landmark rows run to completion for the ALT fallback).
    ///
    /// The exactness contract — checked by the property tests and relied on
    /// by every reader: for any pair of required nodes `a, b`, the returned
    /// result's `latency_micros(a, b)`, `predecessor(a, b)` and `path(a, b)`
    /// are bit-identical to a full [`PathEngine::solve_sources`] over the
    /// same sources; entries outside a row's exactness bound answer `None`
    /// and must be re-queried through
    /// [`ShortestPaths::one_shot_latency`](crate::path::ShortestPaths::one_shot_latency).
    ///
    /// # Panics
    ///
    /// Panics if the scope was derived for a different node count than
    /// `graph` has.
    pub fn solve_scope(&mut self, graph: &NetworkGraph, scope: &SolveScope) -> &ShortestPaths {
        let n = graph.node_count();
        assert_eq!(
            scope.node_count as usize, n,
            "scope node count does not match the graph"
        );
        // The result is written in place: at mega scale the row matrix runs
        // to hundreds of megabytes, and a second buffer would both double
        // peak memory and pay a first-touch stall for every page of it.
        self.paths.reset(n as u32, &scope.sources);
        self.paths.landmarks.extend_from_slice(&scope.landmarks);
        self.solve_rows(graph, Some(scope));
        self.stats = SolveStats {
            kind: SolveKind::Scoped,
            solved_sources: scope.sources.len(),
            scope_sources: scope.sources.len(),
            scope_required: scope.required_count as usize,
            scope_landmarks: scope.landmarks.len(),
            scope_settled: self.row_settled.iter().map(|&s| u64::from(s)).sum(),
        };
        &self.paths
    }

    /// Solves every row of the freshly reset result in place, fanned out
    /// over the worker threads. Without a scope every row runs the full
    /// kernel; with one, non-landmark rows run the bounded kernel and record
    /// their exactness bound (landmark rows keep the reset-time bound of
    /// `UNREACHABLE`, fully exact).
    fn solve_rows(&mut self, graph: &NetworkGraph, scope: Option<&SolveScope>) {
        self.solved = true;
        let n = graph.node_count();
        let rows = self.paths.sources.len();
        self.row_settled.clear();
        self.row_settled.resize(rows, 0);
        if rows == 0 {
            return;
        }
        let ShortestPaths {
            sources,
            dist,
            prev,
            exact_bounds,
            ..
        } = &mut self.paths;
        let mut jobs: Vec<RowJob<'_>> = Vec::with_capacity(rows);
        for ((((dist_row, prev_row), bound), settled), &source) in dist
            .chunks_mut(n)
            .zip(prev.chunks_mut(n))
            .zip(exact_bounds.iter_mut())
            .zip(self.row_settled.iter_mut())
            .zip(sources.iter())
        {
            let bounded = scope.is_some_and(|s| s.landmarks.binary_search(&source).is_err());
            jobs.push((source, bounded, dist_row, prev_row, bound, settled));
        }

        let workers = self.threads.min(jobs.len());
        while self.heaps.len() < workers {
            self.heaps.push(DijkstraHeap::new());
        }
        let (required, required_count) =
            scope.map_or((&[][..], 0), |s| (&s.required[..], s.required_count));
        let run = |job: &mut RowJob<'_>, heap: &mut DijkstraHeap| {
            let (source, bounded, dist_row, prev_row, bound, settled) = job;
            if *bounded {
                let (b, s) = graph.dijkstra_bounded_into(
                    *source,
                    required,
                    required_count,
                    dist_row,
                    prev_row,
                    heap,
                );
                **bound = b;
                **settled = s;
            } else {
                graph.dijkstra_into(*source, dist_row, prev_row, heap);
                **settled = n as u32;
            }
        };
        if workers <= 1 {
            let heap = &mut self.heaps[0];
            for job in &mut jobs {
                run(job, heap);
            }
        } else {
            let per_worker = jobs.len().div_ceil(workers);
            std::thread::scope(|s| {
                for (chunk, heap) in jobs.chunks_mut(per_worker).zip(self.heaps.iter_mut()) {
                    s.spawn(move || {
                        for job in chunk {
                            run(job, heap);
                        }
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Edge;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random connected-ish graph: spanning chain plus `extra` chords.
    fn random_edges(rng: &mut StdRng, n: usize, extra: usize) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 1..n as u32 {
            let parent = rng.gen_range(0..i);
            edges.push((parent, i, rng.gen_range(1..1000)));
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a != b {
                edges.push((a.min(b), a.max(b), rng.gen_range(1..1000)));
            }
        }
        edges
    }

    /// Applies a random timestep delta: drop some edges, add some chords,
    /// re-weight others.
    fn mutate_edges(rng: &mut StdRng, n: usize, edges: &[Edge], churn: usize) -> Vec<Edge> {
        let mut next: Vec<Edge> = edges.to_vec();
        for _ in 0..churn {
            match rng.gen_range(0..3u32) {
                0 if next.len() > n => {
                    // Removing a chain edge may disconnect the graph — that
                    // is a legal constellation event (an ISL is cut).
                    let at = rng.gen_range(0..next.len());
                    next.swap_remove(at);
                }
                1 => {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a != b {
                        next.push((a.min(b), a.max(b), rng.gen_range(1..1000)));
                    }
                }
                _ => {
                    let at = rng.gen_range(0..next.len());
                    next[at].2 = rng.gen_range(1..1000);
                }
            }
        }
        next
    }

    /// Asserts that the engine result matches a from-scratch reference on
    /// distances and that every reported path is a real path of that length.
    fn assert_matches_reference(graph: &NetworkGraph, result: &ShortestPaths) {
        let reference = graph.all_pairs_dijkstra();
        let n = graph.node_count();
        for a in 0..n {
            if !result.is_solved(a) {
                continue;
            }
            for b in 0..n {
                assert_eq!(
                    result.latency_micros(a, b),
                    reference.latency_micros(a, b),
                    "distance mismatch {a}->{b}"
                );
                if let Some(total) = result.latency_micros(a, b) {
                    let path = result.path(a, b).expect("reachable pair has a path");
                    assert_eq!(*path.first().unwrap(), a);
                    assert_eq!(*path.last().unwrap(), b);
                    let mut walked = 0;
                    for w in path.windows(2) {
                        let hop = graph
                            .neighbors(w[0])
                            .find(|&(v, _)| v as usize == w[1])
                            .expect("path edge exists in graph");
                        walked += hop.1;
                    }
                    assert_eq!(walked, total, "path cost mismatch {a}->{b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "path-algorithm \"incremental\" was removed")]
    fn new_rejects_removed_algorithms() {
        PathEngine::new(PathAlgorithm::Incremental);
    }

    #[test]
    fn empty_graph_solves_to_an_empty_result() {
        let g = NetworkGraph::new(0);
        let mut engine = PathEngine::with_threads(2);
        let paths = engine.solve(&g).clone();
        assert_eq!(paths.node_count(), 0);
        assert_eq!(paths.source_count(), 0);
        assert_eq!(engine.last_solve().solved_sources, 0);
    }

    #[test]
    fn source_restriction_solves_only_requested_rows() {
        let g = NetworkGraph::from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let mut engine = PathEngine::with_threads(2);
        let paths = engine.solve_sources(&g, &[0, 4]);
        assert_eq!(paths.source_count(), 2);
        assert!(paths.is_solved(0) && paths.is_solved(4));
        assert!(!paths.is_solved(2));
        assert_eq!(paths.latency_micros(0, 4), Some(4));
        assert_eq!(paths.latency_micros(2, 0), None, "unsolved row reports None");
        assert_eq!(paths.path(2, 2), None, "unsolved self-path reports None");
        assert_eq!(paths.path(4, 0), Some(vec![4, 3, 2, 1, 0]));
    }

    #[test]
    fn changing_source_set_still_yields_correct_rows() {
        let g = NetworkGraph::from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let mut engine = PathEngine::with_threads(1);
        engine.solve_sources(&g, &[0, 4]);
        let paths = engine.solve_sources(&g, &[0, 2]).clone();
        assert_eq!(engine.last_solve().kind, SolveKind::FullDijkstra);
        assert!(paths.is_solved(2) && !paths.is_solved(4));
        assert_eq!(paths.latency_micros(2, 4), Some(2));
        assert_matches_reference(&g, &paths);
    }

    #[test]
    fn scoped_solve_reports_scope_stats_and_landmark_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 80;
        let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, 60));
        let required: Vec<u32> = vec![3, 9, 27, 77];
        let scope = SolveScope::from_sets(n, &required, &[40, 41], &[0, 50]);
        let mut engine = PathEngine::with_threads(2);
        let paths = engine.solve_scope(&graph, &scope).clone();
        let stats = engine.last_solve();
        assert_eq!(stats.kind, SolveKind::Scoped);
        assert_eq!(stats.scope_sources, scope.sources().len());
        assert_eq!(stats.scope_required, 4);
        assert_eq!(stats.scope_landmarks, 2);
        assert!(stats.scope_settled > 0);
        assert_eq!(paths.landmark_nodes(), &[0, 50]);
        // Landmark rows are fully exact: every target answers.
        for t in 0..n {
            assert!(paths.is_exact(0, t));
            assert!(paths.is_exact(50, t));
        }
        // A full solve after a scoped one replaces every bounded row.
        let full = engine.solve_sources(&graph, &[3, 9, 27, 77]).clone();
        assert_eq!(engine.last_solve().kind, SolveKind::FullDijkstra);
        assert!(full.landmark_nodes().is_empty());
        assert_matches_reference(&graph, &full);
    }

    #[test]
    fn out_of_scope_entries_answer_none_and_fall_back_to_one_shot() {
        // A long line: a bounded row from source 0 with only nearby targets
        // required stops early, so the far end must be inexact.
        let n = 200;
        let edges: Vec<Edge> = (1..n as u32).map(|i| (i - 1, i, 10)).collect();
        let graph = NetworkGraph::from_edges(n, edges);
        let scope = SolveScope::from_sets(n, &[0, 1, 2, 3], &[], &[]);
        let mut engine = PathEngine::with_threads(1);
        let paths = engine.solve_scope(&graph, &scope);
        assert!(paths.is_exact(0, 3));
        assert_eq!(paths.latency_micros(0, 3), Some(30));
        assert!(!paths.is_exact(0, n - 1), "far end is beyond the bound");
        assert_eq!(paths.latency_micros(0, n - 1), None);
        assert_eq!(paths.path(0, n - 1), None);
        assert_eq!(paths.next_hop(0, n - 1), None);
        assert_eq!(paths.predecessor(0, n - 1), None);
        // The one-shot fallback answers the pruned query exactly.
        assert_eq!(
            paths.one_shot_latency(&graph, 0, n - 1),
            Some(10 * (n as Cost - 1))
        );
        let settled = engine.last_solve().scope_settled;
        assert!(
            settled < 4 * n as u64 / 2,
            "bounded rows must not settle the whole line ({settled} settled)"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        // The headline exactness guarantee of the scoped solve: across
        // random timestep sequences, random scopes and every thread count,
        // each entry a scoped result reports (anything within a row's
        // exactness bound — in particular every required↔required pair) is
        // bit-identical to the full solve over the same sources.
        #[test]
        fn scoped_solves_are_bit_identical_to_full_solves(
            seed in 0u64..400,
            n in 4usize..70,
            extra in 0usize..50,
            churn in 1usize..8,
            steps in 1usize..4,
            threads in 1usize..5,
            required_mask in 1u64..u64::MAX,
            scope_mask in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = random_edges(&mut rng, n, extra);
            let required: Vec<u32> = (0..n as u32).filter(|i| required_mask & (1 << (i % 61)) != 0).collect();
            let extra_scope: Vec<u32> = (0..n as u32).filter(|i| scope_mask & (1 << (i % 53)) != 0).collect();
            let landmarks: Vec<u32> = vec![0, (n / 2) as u32];
            prop_assume!(!required.is_empty());
            let scope = SolveScope::from_sets(n, &required, &extra_scope, &landmarks);
            let mut engine = PathEngine::with_threads(threads);
            let mut reference = PathEngine::with_threads(1);
            for _ in 0..steps {
                let graph = NetworkGraph::from_edges(n, edges.clone());
                let scoped = engine.solve_scope(&graph, &scope).clone();
                let full = reference.solve_sources(&graph, scope.sources()).clone();
                prop_assert_eq!(scoped.solved_sources(), full.solved_sources());
                for &a in scope.sources() {
                    let a = a as usize;
                    for b in 0..n {
                        if scoped.is_exact(a, b) {
                            // Bit-identical: latency AND predecessor.
                            prop_assert_eq!(
                                scoped.latency_micros(a, b),
                                full.latency_micros(a, b),
                                "latency {}->{}", a, b
                            );
                            prop_assert_eq!(
                                scoped.predecessor(a, b),
                                full.predecessor(a, b),
                                "predecessor {}->{}", a, b
                            );
                            prop_assert_eq!(scoped.path(a, b), full.path(a, b));
                        } else {
                            // Inexact entries must never leak a value...
                            prop_assert_eq!(scoped.latency_micros(a, b), None);
                            prop_assert_eq!(scoped.predecessor(a, b), None);
                            // ...and only non-required targets may be inexact.
                            prop_assert!(
                                !scope.is_required(a) || !scope.is_required(b),
                                "required pair {}->{} left inexact", a, b
                            );
                        }
                    }
                }
                // Every required↔required entry is exact, hence (checked
                // above) bit-identical.
                for &a in &required {
                    for &b in &required {
                        prop_assert!(scoped.is_exact(a as usize, b as usize));
                    }
                }
                edges = mutate_edges(&mut rng, n, &edges, churn);
            }
        }

        // Scoped solves are deterministic: any two thread counts produce the
        // same bytes (rows, bounds, landmarks — full struct equality).
        #[test]
        fn scoped_solves_are_deterministic_across_thread_counts(
            seed in 0u64..200,
            n in 4usize..60,
            extra in 0usize..40,
            required_mask in 1u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, extra));
            let required: Vec<u32> = (0..n as u32).filter(|i| required_mask & (1 << (i % 59)) != 0).collect();
            prop_assume!(!required.is_empty());
            let scope = SolveScope::from_sets(n, &required, &[], &[0]);
            let mut one = PathEngine::with_threads(1);
            let mut many = PathEngine::with_threads(4);
            prop_assert_eq!(one.solve_scope(&graph, &scope), many.solve_scope(&graph, &scope));
        }

        #[test]
        fn restricted_solves_match_full_rows(seed in 0u64..200, n in 3usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, n));
            let sources: Vec<u32> = (0..n as u32).filter(|s| s % 3 == 0).collect();
            let mut engine = PathEngine::with_threads(3);
            let restricted = engine.solve_sources(&graph, &sources).clone();
            prop_assert_eq!(restricted.solved_sources(), &sources[..]);
            assert_matches_reference(&graph, &restricted);
        }
    }
}

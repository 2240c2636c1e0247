//! Shortest network paths within the constellation.
//!
//! Celestial computes the shortest paths between nodes and their end-to-end
//! latencies with efficient implementations of Dijkstra's algorithm and the
//! Floyd–Warshall algorithm (§3.1). The graph is stored in compressed sparse
//! row (CSR) form — three flat arrays with `u32` node identifiers — so that
//! an adjacency scan is one linear walk over contiguous memory and the whole
//! structure is roughly 4× smaller than a nested-`Vec` adjacency list.
//!
//! Per-source Dijkstra is the only solve an epoch runs, because
//! constellation graphs are sparse (the +GRID topology gives every satellite
//! degree four). Floyd–Warshall stays as the independent reference the
//! property tests check Dijkstra against. The stateful, scoped and parallel
//! driver on top of this module is [`crate::engine::PathEngine`] — see
//! `docs/PATHS.md`.

use celestial_types::{Error, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Edge-weight type used by the path computation: one-way latency in
/// microseconds.
pub type Cost = u64;

/// Marker for an unreachable node pair.
pub const UNREACHABLE: Cost = Cost::MAX;

/// Sentinel node id meaning "no node": no predecessor, no next hop, or an
/// unsolved source row. Using a `u32` sentinel instead of `Option<usize>`
/// quarters the memory of the predecessor matrix and keeps it `memcpy`-able.
pub const NO_NODE: u32 = u32::MAX;

/// A weighted undirected edge in canonical form: `a < b`, cost in
/// microseconds.
pub type Edge = (u32, u32, Cost);

/// The scratch heap reused across Dijkstra runs (cleared, capacity kept).
pub(crate) type DijkstraHeap = BinaryHeap<Reverse<(Cost, u32)>>;

/// A weighted undirected graph over the nodes of the emulated topology,
/// stored in compressed sparse row (CSR) form.
///
/// Node indices are assigned by the caller (the constellation assigns
/// satellites first, then ground stations). The graph keeps a canonical
/// sorted edge list alongside the CSR arrays.
///
/// Besides the latency weight that drives the shortest-path computation,
/// every edge carries the link's bandwidth (bits per second; `0` when the
/// edge was added without one). The bandwidth never influences path
/// selection — it is the payload the coordinator reads back when it walks a
/// path's predecessor chain to find the bottleneck, so no side table keyed
/// by node pair is needed.
///
/// Self-loops are rejected and parallel edges are collapsed to the cheaper
/// one (ties keep the wider bandwidth), so `edge_count` and the CSR degrees
/// always reflect the distinct node pairs actually connected.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkGraph {
    node_count: u32,
    /// Canonical edge list: `a < b`, sorted by `(a, b)`, no duplicates.
    edges: Vec<Edge>,
    /// Bandwidth (bits per second) of each canonical edge, parallel to
    /// `edges`; `0` when the edge carries no bandwidth information.
    edge_bw: Vec<u64>,
    /// CSR row offsets, length `node_count + 1`.
    offsets: Vec<u32>,
    /// CSR column indices (neighbour of each half-edge), length `2 * edges`.
    targets: Vec<u32>,
    /// CSR edge weights, parallel to `targets`.
    weights: Vec<Cost>,
    /// CSR edge bandwidths (bits per second), parallel to `targets`.
    bandwidths: Vec<u64>,
}

impl Clone for NetworkGraph {
    fn clone(&self) -> Self {
        NetworkGraph {
            node_count: self.node_count,
            edges: self.edges.clone(),
            edge_bw: self.edge_bw.clone(),
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: self.weights.clone(),
            bandwidths: self.bandwidths.clone(),
        }
    }

    /// Field-wise `clone_from` so a long-lived destination (the coordinator
    /// database's cached state, a pipeline bundle) reuses its allocations
    /// every timestep instead of re-allocating the CSR arrays.
    fn clone_from(&mut self, source: &Self) {
        self.node_count = source.node_count;
        self.edges.clone_from(&source.edges);
        self.edge_bw.clone_from(&source.edge_bw);
        self.offsets.clone_from(&source.offsets);
        self.targets.clone_from(&source.targets);
        self.weights.clone_from(&source.weights);
        self.bandwidths.clone_from(&source.bandwidths);
    }
}

impl NetworkGraph {
    /// Creates a graph with `node_count` nodes and no edges.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` does not fit the `u32` id space (the topmost
    /// id is reserved as the [`NO_NODE`] sentinel).
    pub fn new(node_count: usize) -> Self {
        assert!((node_count as u64) < u64::from(u32::MAX), "too many nodes for u32 ids");
        NetworkGraph {
            node_count: node_count as u32,
            edges: Vec::new(),
            edge_bw: Vec::new(),
            offsets: vec![0; node_count + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            bandwidths: Vec::new(),
        }
    }

    /// Builds a graph from an edge iterator in one pass — the efficient bulk
    /// constructor (`O(m log m)` for the canonical sort, `O(n + m)` for the
    /// CSR build). Parallel edges are collapsed to the cheapest.
    ///
    /// # Panics
    ///
    /// Panics if an edge is a self-loop or references a node out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use celestial_constellation::path::NetworkGraph;
    ///
    /// // A 3-node line: 0 —10— 1 —10— 2, plus a direct 50 µs shortcut.
    /// let g = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10), (0, 2, 50)]);
    /// assert_eq!(g.node_count(), 3);
    /// assert_eq!(g.edge_count(), 3);
    /// let paths = g.all_pairs_dijkstra();
    /// // The two-hop route wins over the direct edge.
    /// assert_eq!(paths.latency_micros(0, 2), Some(20));
    /// assert_eq!(paths.path(0, 2), Some(vec![0, 1, 2]));
    /// ```
    pub fn from_edges(node_count: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        Self::from_links(node_count, edges.into_iter().map(|(a, b, cost)| (a, b, cost, 0)))
    }

    /// Like [`NetworkGraph::from_edges`], but every edge also carries its
    /// link bandwidth in bits per second — the form the constellation uses so
    /// that the coordinator's bottleneck walk reads bandwidths straight from
    /// the CSR arrays. Parallel edges collapse to the cheapest latency; ties
    /// keep the widest bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if an edge is a self-loop or references a node out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use celestial_constellation::path::NetworkGraph;
    ///
    /// // A 10 µs / 10 Gb/s ISL next to a 20 µs / 100 Mb/s uplink.
    /// let g = NetworkGraph::from_links(3, [
    ///     (0, 1, 10, 10_000_000_000),
    ///     (1, 2, 20, 100_000_000),
    /// ]);
    /// assert_eq!(g.edge_bandwidth_bps(1, 0), Some(10_000_000_000));
    /// assert_eq!(g.edge_bandwidth_bps(1, 2), Some(100_000_000));
    /// assert_eq!(g.edge_bandwidth_bps(0, 2), None, "not an edge");
    /// ```
    pub fn from_links(
        node_count: usize,
        links: impl IntoIterator<Item = (u32, u32, Cost, u64)>,
    ) -> Self {
        let mut graph = NetworkGraph::new(node_count);
        let mut combined: Vec<(u32, u32, Cost, u64)> = links.into_iter().collect();
        graph.rebuild_from_links(node_count, &mut combined);
        graph
    }

    /// Rebuilds this graph in place from a full link list, reusing every
    /// internal buffer — the steady-state path of the constellation
    /// calculation, which rebuilds the topology once per epoch without
    /// allocating.
    ///
    /// `links` is caller-owned scratch: it is canonicalized, sorted and
    /// deduplicated in place (cheapest parallel edge wins, ties keep the
    /// widest bandwidth) and left in that canonical form, so the caller can
    /// clear and refill it next epoch.
    ///
    /// # Panics
    ///
    /// Panics if an edge is a self-loop or references a node out of range,
    /// or if `node_count` does not fit the `u32` id space.
    pub fn rebuild_from_links(
        &mut self,
        node_count: usize,
        links: &mut Vec<(u32, u32, Cost, u64)>,
    ) {
        assert!((node_count as u64) < u64::from(u32::MAX), "too many nodes for u32 ids");
        self.node_count = node_count as u32;
        for entry in links.iter_mut() {
            let (a, b, cost) = Self::canonical(self.node_count, entry.0, entry.1, entry.2);
            *entry = (a, b, cost, entry.3);
        }
        // Sort by (a, b, cost, widest-first) so that deduplication keeps the
        // cheapest parallel edge and, among equally cheap ones, the widest.
        links.sort_unstable_by_key(|&(a, b, cost, bw)| (a, b, cost, std::cmp::Reverse(bw)));
        links.dedup_by_key(|&mut (a, b, ..)| (a, b));
        self.edges.clear();
        self.edges.extend(links.iter().map(|&(a, b, cost, _)| (a, b, cost)));
        self.edge_bw.clear();
        self.edge_bw.extend(links.iter().map(|&(.., bw)| bw));
        self.rebuild_csr();
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Number of undirected edges in the graph (distinct node pairs).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The canonical sorted edge list (`a < b`, ascending, deduplicated).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an undirected edge between `a` and `b` with the given cost.
    ///
    /// If the pair is already connected, the cheaper of the two parallel
    /// edges is kept. This rebuilds the CSR arrays (`O(n + m)`); use
    /// [`NetworkGraph::from_edges`] when constructing a graph from a full
    /// edge list.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range, or on the self-loop `a == b`.
    pub fn add_edge(&mut self, a: usize, b: usize, cost: Cost) {
        self.add_link(a, b, cost, 0);
    }

    /// Like [`NetworkGraph::add_edge`], but the edge also carries its link
    /// bandwidth in bits per second (readable back through
    /// [`NetworkGraph::edge_bandwidth_bps`]).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range, or on the self-loop `a == b`.
    pub fn add_link(&mut self, a: usize, b: usize, cost: Cost, bandwidth_bps: u64) {
        // Validate before narrowing to u32 so an index >= 2^32 cannot wrap
        // into range.
        assert!(
            a < self.node_count() && b < self.node_count(),
            "node index out of range"
        );
        let edge = Self::canonical(self.node_count, a as u32, b as u32, cost);
        match self.edges.binary_search_by_key(&(edge.0, edge.1), |&(x, y, _)| (x, y)) {
            Ok(existing) => {
                let cheaper = cost < self.edges[existing].2;
                let wider_tie = cost == self.edges[existing].2
                    && bandwidth_bps > self.edge_bw[existing];
                if !cheaper && !wider_tie {
                    return; // The existing parallel edge wins.
                }
                self.edges[existing].2 = cost;
                self.edge_bw[existing] = bandwidth_bps;
            }
            Err(insert_at) => {
                self.edges.insert(insert_at, edge);
                self.edge_bw.insert(insert_at, bandwidth_bps);
            }
        }
        self.rebuild_csr();
    }

    /// Canonicalizes and validates one edge.
    fn canonical(node_count: u32, a: u32, b: u32, cost: Cost) -> Edge {
        assert!(
            a < node_count && b < node_count,
            "node index out of range"
        );
        assert_ne!(a, b, "self-loop edges are not allowed");
        if a < b {
            (a, b, cost)
        } else {
            (b, a, cost)
        }
    }

    /// Rebuilds the CSR arrays from the canonical edge list with a counting
    /// sort: degree histogram → prefix sums → scatter.
    fn rebuild_csr(&mut self) {
        let n = self.node_count as usize;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(a, b, _) in &self.edges {
            self.offsets[a as usize + 1] += 1;
            self.offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.targets.clear();
        self.targets.resize(2 * self.edges.len(), 0);
        self.weights.clear();
        self.weights.resize(2 * self.edges.len(), 0);
        self.bandwidths.clear();
        self.bandwidths.resize(2 * self.edges.len(), 0);
        // Scatter using `offsets` itself as the per-row cursor (no scratch
        // allocation); afterwards `offsets[i]` holds the end of row `i`,
        // which is exactly the start of row `i + 1` — one shift restores the
        // offset array.
        for (&(a, b, w), &bw) in self.edges.iter().zip(&self.edge_bw) {
            let slot_a = self.offsets[a as usize] as usize;
            self.targets[slot_a] = b;
            self.weights[slot_a] = w;
            self.bandwidths[slot_a] = bw;
            self.offsets[a as usize] += 1;
            let slot_b = self.offsets[b as usize] as usize;
            self.targets[slot_b] = a;
            self.weights[slot_b] = w;
            self.bandwidths[slot_b] = bw;
            self.offsets[b as usize] += 1;
        }
        for i in (1..=n).rev() {
            self.offsets[i] = self.offsets[i - 1];
        }
        self.offsets[0] = 0;
    }

    /// The bandwidth (bits per second) of the direct edge between `a` and
    /// `b`, or `None` if the pair is not connected by an edge. `Some(0)`
    /// means the edge exists but was added without bandwidth information
    /// (e.g. through [`NetworkGraph::add_edge`]).
    ///
    /// One contiguous CSR row scan of the lower-degree endpoint — `O(degree)`
    /// with the +GRID degree of four or five, which is why the coordinator's
    /// bottleneck walk needs no side table keyed by node pair.
    pub fn edge_bandwidth_bps(&self, a: usize, b: usize) -> Option<u64> {
        // Scan the sparser of the two rows.
        let (from, to) = {
            let deg_a = self.offsets[a + 1] - self.offsets[a];
            let deg_b = self.offsets[b + 1] - self.offsets[b];
            if deg_a <= deg_b {
                (a, b as u32)
            } else {
                (b, a as u32)
            }
        };
        let start = self.offsets[from] as usize;
        let end = self.offsets[from + 1] as usize;
        self.targets[start..end]
            .iter()
            .position(|&t| t == to)
            .map(|i| self.bandwidths[start + i])
    }

    /// The neighbours of node `n` with their edge costs, as one contiguous
    /// CSR row scan.
    pub fn neighbors(&self, n: usize) -> impl Iterator<Item = (u32, Cost)> + '_ {
        let start = self.offsets[n] as usize;
        let end = self.offsets[n + 1] as usize;
        self.targets[start..end]
            .iter()
            .copied()
            .zip(self.weights[start..end].iter().copied())
    }

    /// Runs Dijkstra's algorithm from `source`, returning the distance to
    /// every node and the predecessor of every node on its shortest path
    /// ([`NO_NODE`] for the source itself and for unreachable nodes).
    pub fn dijkstra(&self, source: usize) -> (Vec<Cost>, Vec<u32>) {
        let n = self.node_count();
        let mut dist = vec![UNREACHABLE; n];
        let mut prev = vec![NO_NODE; n];
        let mut heap = DijkstraHeap::new();
        self.dijkstra_into(source as u32, &mut dist, &mut prev, &mut heap);
        (dist, prev)
    }

    /// Runs Dijkstra from `source` into caller-provided row buffers, reusing
    /// the caller's heap. This is the allocation-free kernel the
    /// [`crate::engine::PathEngine`] fans out over worker threads.
    pub(crate) fn dijkstra_into(
        &self,
        source: u32,
        dist: &mut [Cost],
        prev: &mut [u32],
        heap: &mut DijkstraHeap,
    ) {
        dist.fill(UNREACHABLE);
        prev.fill(NO_NODE);
        heap.clear();
        dist[source as usize] = 0;
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            let start = self.offsets[u as usize] as usize;
            let end = self.offsets[u as usize + 1] as usize;
            for (&v, &w) in self.targets[start..end].iter().zip(&self.weights[start..end]) {
                let candidate = d.saturating_add(w);
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    prev[v as usize] = u;
                    heap.push(Reverse((candidate, v)));
                }
            }
        }
    }

    /// Runs a *bounded* Dijkstra from `source`: the standard kernel, but the
    /// search stops once every node flagged in `required` has been settled
    /// and the equal-distance frontier has drained. Returns the exactness
    /// bound and the number of settled nodes.
    ///
    /// The contract, which [`ShortestPaths`] accessors enforce: every node
    /// whose distance entry is `<=` the returned bound was settled, and its
    /// distance *and* predecessor entries are bit-identical to what the
    /// unbounded [`NetworkGraph::dijkstra_into`] would have produced (the two
    /// kernels perform the same pops and relaxations in the same order up to
    /// the cut-off — Dijkstra pops in nondecreasing distance order, and a
    /// settled entry can never be improved afterwards). Entries above the
    /// bound are tentative garbage and must never be read. A returned bound
    /// of [`UNREACHABLE`] means the search ran to completion (the heap
    /// drained), so the whole row is exact — including genuinely unreachable
    /// targets.
    pub(crate) fn dijkstra_bounded_into(
        &self,
        source: u32,
        required: &[bool],
        required_count: u32,
        dist: &mut [Cost],
        prev: &mut [u32],
        heap: &mut DijkstraHeap,
    ) -> (Cost, u32) {
        dist.fill(UNREACHABLE);
        prev.fill(NO_NODE);
        heap.clear();
        dist[source as usize] = 0;
        heap.push(Reverse((0, source)));
        let mut remaining = required_count;
        let mut bound: Cost = 0;
        let mut settled: u32 = 0;
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue; // Stale heap entry.
            }
            if remaining == 0 && d > bound {
                // Every required target is settled and the equal-distance
                // frontier has drained: all entries <= bound are final, all
                // unsettled entries are strictly above it. Stop before
                // settling `u` so the invariant holds exactly.
                return (bound, settled);
            }
            settled += 1;
            if required[u as usize] {
                remaining -= 1;
                // Pops come off the heap in nondecreasing distance order, so
                // the bound only ever grows.
                bound = d;
            }
            let start = self.offsets[u as usize] as usize;
            let end = self.offsets[u as usize + 1] as usize;
            for (&v, &w) in self.targets[start..end].iter().zip(&self.weights[start..end]) {
                let candidate = d.saturating_add(w);
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    prev[v as usize] = u;
                    heap.push(Reverse((candidate, v)));
                }
            }
        }
        // The heap drained: Dijkstra ran to completion and the row is fully
        // exact (required targets that were never reached are genuinely
        // unreachable).
        (UNREACHABLE, settled)
    }

    /// Computes all-pairs shortest paths with Dijkstra run from every source
    /// (sequentially; the parallel driver is
    /// [`crate::engine::PathEngine`]).
    pub fn all_pairs_dijkstra(&self) -> ShortestPaths {
        let n = self.node_count();
        let mut paths = ShortestPaths::for_all_sources(self.node_count);
        let mut heap = DijkstraHeap::new();
        for source in 0..n {
            let (dist_row, prev_row) = paths.row_mut(source);
            self.dijkstra_into(source as u32, dist_row, prev_row, &mut heap);
        }
        paths
    }

    /// Computes all-pairs shortest paths with the Floyd–Warshall algorithm.
    /// No epoch runs it: it is the independent reference the property tests
    /// check Dijkstra against, and the paper's cubic comparison point.
    pub fn floyd_warshall(&self) -> ShortestPaths {
        let n = self.node_count();
        let mut paths = ShortestPaths::for_all_sources(self.node_count);
        for i in 0..n {
            paths.dist[i * n + i] = 0;
        }
        for &(a, b, w) in &self.edges {
            let (a, b) = (a as usize, b as usize);
            if w < paths.dist[a * n + b] {
                paths.dist[a * n + b] = w;
                paths.dist[b * n + a] = w;
                paths.prev[a * n + b] = a as u32;
                paths.prev[b * n + a] = b as u32;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = paths.dist[i * n + k];
                if dik == UNREACHABLE {
                    continue;
                }
                for j in 0..n {
                    let dkj = paths.dist[k * n + j];
                    if dkj == UNREACHABLE {
                        continue;
                    }
                    let through_k = dik + dkj;
                    if through_k < paths.dist[i * n + j] {
                        paths.dist[i * n + j] = through_k;
                        paths.prev[i * n + j] = paths.prev[k * n + j];
                    }
                }
            }
        }
        paths
    }
}

/// The `path-algorithm` configuration vocabulary.
///
/// Every epoch runs the scoped Dijkstra solve, so [`PathAlgorithm::Dijkstra`]
/// is the only selectable value. The other names are kept so that a
/// configuration naming them fails with a migration message
/// ([`PathAlgorithm::ensure_supported`]) instead of an unknown-value error
/// or, worse, a silent fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PathAlgorithm {
    /// Per-source Dijkstra, scoped to the rows the programme needs: the
    /// default and the only supported value.
    #[default]
    Dijkstra,
    /// Removed: a cubic all-pairs sweep.
    FloydWarshall,
    /// Removed: row reuse across timesteps, slower than a full solve.
    Incremental,
    /// Removed: a size-based choice between the other three.
    Auto,
}

impl PathAlgorithm {
    /// Every name, in documentation order — the single source of truth for
    /// configuration parsing and error messages.
    pub const ALL: [PathAlgorithm; 4] = [
        PathAlgorithm::Dijkstra,
        PathAlgorithm::FloydWarshall,
        PathAlgorithm::Incremental,
        PathAlgorithm::Auto,
    ];

    /// The configuration-file spelling of the algorithm (the value of the
    /// `path-algorithm` TOML key; see `docs/PATHS.md`).
    pub fn name(&self) -> &'static str {
        match self {
            PathAlgorithm::Dijkstra => "dijkstra",
            PathAlgorithm::FloydWarshall => "floyd-warshall",
            PathAlgorithm::Incremental => "incremental",
            PathAlgorithm::Auto => "auto",
        }
    }

    /// Checks that the algorithm can still be selected: only
    /// [`PathAlgorithm::Dijkstra`] can.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] with the migration message for every
    /// removed algorithm.
    pub fn ensure_supported(self) -> Result<()> {
        match self {
            PathAlgorithm::Dijkstra => Ok(()),
            removed => Err(Error::config(format!(
                "path-algorithm {:?} was removed; every epoch runs the scoped Dijkstra solve \
                 (see docs/PATHS.md)",
                removed.name()
            ))),
        }
    }
}

/// All-pairs (or source-restricted) shortest-path result.
///
/// Distances and predecessors are stored as flat row-major matrices with one
/// row per *solved source*; a solve may cover every node or only a subset
/// (the coordinator solves only ground stations and active satellites).
/// `rows` maps a node id to its row index, [`NO_NODE`] marking unsolved
/// sources.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShortestPaths {
    pub(crate) node_count: u32,
    /// Node id → row index, `NO_NODE` if the node was not solved as a source.
    pub(crate) rows: Vec<u32>,
    /// Row index → source node id.
    pub(crate) sources: Vec<u32>,
    /// Row-major distances, `sources.len() × node_count`.
    pub(crate) dist: Vec<Cost>,
    /// Row-major predecessor matrix, `sources.len() × node_count`;
    /// `prev[row][t]` is the node before `t` on the shortest path from the
    /// row's source, `NO_NODE` for the source itself and unreachable nodes.
    pub(crate) prev: Vec<u32>,
    /// Per-row exactness bound, `sources.len()` entries: a row's entry for
    /// target `t` is exact (bit-identical to an unbounded solve) if and only
    /// if `dist[row][t] <= exact_bounds[row]`. [`UNREACHABLE`] marks a fully
    /// exact row — every unbounded solve produces that, so the bound only
    /// bites for rows produced by a scoped (bounded) solve. Every accessor
    /// checks the bound; tentative entries above it never escape.
    pub(crate) exact_bounds: Vec<Cost>,
    /// Node ids of the landmark rows of a scoped solve: rows solved fully
    /// (bound [`UNREACHABLE`]) so that one-shot out-of-scope queries can use
    /// them as an ALT heuristic. Empty for unscoped solves.
    pub(crate) landmarks: Vec<u32>,
}

impl Clone for ShortestPaths {
    fn clone(&self) -> Self {
        ShortestPaths {
            node_count: self.node_count,
            rows: self.rows.clone(),
            sources: self.sources.clone(),
            dist: self.dist.clone(),
            prev: self.prev.clone(),
            exact_bounds: self.exact_bounds.clone(),
            landmarks: self.landmarks.clone(),
        }
    }

    /// Field-wise `clone_from` so that a long-lived destination (e.g. the
    /// coordinator database's cached copy) reuses its allocations every
    /// timestep instead of re-allocating the matrices.
    fn clone_from(&mut self, source: &Self) {
        self.node_count = source.node_count;
        self.rows.clone_from(&source.rows);
        self.sources.clone_from(&source.sources);
        self.dist.clone_from(&source.dist);
        self.prev.clone_from(&source.prev);
        self.exact_bounds.clone_from(&source.exact_bounds);
        self.landmarks.clone_from(&source.landmarks);
    }
}

impl ShortestPaths {
    /// A result with one (unsolved) row per node, in node order.
    pub(crate) fn for_all_sources(node_count: u32) -> Self {
        let n = node_count as usize;
        ShortestPaths {
            node_count,
            rows: (0..node_count).collect(),
            sources: (0..node_count).collect(),
            dist: vec![UNREACHABLE; n * n],
            prev: vec![NO_NODE; n * n],
            exact_bounds: vec![UNREACHABLE; n],
            landmarks: Vec::new(),
        }
    }

    /// Re-shapes this buffer in place for a solve of `sources` over an
    /// `n`-node graph, reusing the existing allocations where possible.
    pub(crate) fn reset(&mut self, node_count: u32, sources: &[u32]) {
        let n = node_count as usize;
        self.node_count = node_count;
        self.rows.clear();
        self.rows.resize(n, NO_NODE);
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        for (row, &source) in sources.iter().enumerate() {
            self.rows[source as usize] = row as u32;
        }
        self.dist.clear();
        self.dist.resize(sources.len() * n, UNREACHABLE);
        self.prev.clear();
        self.prev.resize(sources.len() * n, NO_NODE);
        // Every row starts fully exact; a scoped solve lowers the bounds of
        // the rows it terminates early.
        self.exact_bounds.clear();
        self.exact_bounds.resize(sources.len(), UNREACHABLE);
        self.landmarks.clear();
    }

    /// The mutable distance and predecessor row of one solved source row.
    pub(crate) fn row_mut(&mut self, row: usize) -> (&mut [Cost], &mut [u32]) {
        let n = self.node_count as usize;
        (
            &mut self.dist[row * n..(row + 1) * n],
            &mut self.prev[row * n..(row + 1) * n],
        )
    }

    /// The row index of node `a`, if it was solved as a source.
    fn row_of(&self, a: usize) -> Option<usize> {
        match self.rows.get(a) {
            Some(&row) if row != NO_NODE => Some(row as usize),
            _ => None,
        }
    }

    /// Whether node `a` was solved as a source (i.e. its row exists).
    pub fn is_solved(&self, a: usize) -> bool {
        self.row_of(a).is_some()
    }

    /// Whether the entry for `a → b` is *exact*: `a` was solved as a source
    /// and the entry lies within the row's exactness bound, so it is
    /// bit-identical to what an unbounded solve would report (including
    /// "exactly known unreachable" for fully solved rows). Scoped solves
    /// leave out-of-scope entries inexact; readers must fall back to a
    /// one-shot query ([`ShortestPaths::one_shot_latency`]) for those.
    pub fn is_exact(&self, a: usize, b: usize) -> bool {
        match self.row_of(a) {
            Some(row) => self.dist[row * self.node_count as usize + b] <= self.exact_bounds[row],
            None => false,
        }
    }

    /// The node ids whose rows a scoped solve computed fully as ALT
    /// landmarks; empty for unscoped solves.
    pub fn landmark_nodes(&self) -> &[u32] {
        &self.landmarks
    }

    /// The solved source nodes, in row order.
    pub fn solved_sources(&self) -> &[u32] {
        &self.sources
    }

    /// The latency (microseconds) of the shortest path from `a` to `b`, or
    /// `None` if `b` is unreachable from `a` or `a` was not solved as a
    /// source (see [`ShortestPaths::is_solved`]).
    pub fn latency_micros(&self, a: usize, b: usize) -> Option<Cost> {
        let row = self.row_of(a)?;
        let d = self.dist[row * self.node_count as usize + b];
        if d == UNREACHABLE || d > self.exact_bounds[row] {
            None
        } else {
            Some(d)
        }
    }

    /// The node before `b` on the shortest path from `a`, or `None` for
    /// `a == b`, unreachable `b`, or unsolved `a`. Walking predecessors back
    /// to the source is how the coordinator finds each path's bottleneck
    /// bandwidth without a second graph traversal.
    pub fn predecessor(&self, a: usize, b: usize) -> Option<usize> {
        let row = self.row_of(a)?;
        let n = self.node_count as usize;
        // A tentative (inexact) entry's predecessor is garbage relative to a
        // full solve; never expose it.
        if self.dist[row * n + b] > self.exact_bounds[row] {
            return None;
        }
        let p = self.prev[row * n + b];
        if p == NO_NODE {
            None
        } else {
            Some(p as usize)
        }
    }

    /// The next hop on the shortest path from `a` towards `b`, computed by
    /// walking the predecessor chain back from `b` (`O(path length)`).
    pub fn next_hop(&self, a: usize, b: usize) -> Option<usize> {
        if a == b {
            return None;
        }
        let row = self.row_of(a)?;
        let n = self.node_count as usize;
        if self.dist[row * n + b] > self.exact_bounds[row] {
            return None;
        }
        let mut hop = b;
        // A shortest path visits each node at most once, so bound the loop.
        for _ in 0..n {
            let p = self.prev[row * n + hop];
            if p == NO_NODE {
                return None;
            }
            if p as usize == a {
                return Some(hop);
            }
            hop = p as usize;
        }
        None
    }

    /// The full node sequence of the shortest path from `a` to `b`,
    /// including both endpoints, or `None` if unreachable (or `a` unsolved).
    ///
    /// # Examples
    ///
    /// ```
    /// use celestial_constellation::path::NetworkGraph;
    ///
    /// let g = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10), (0, 2, 50)]);
    /// let paths = g.all_pairs_dijkstra();
    /// assert_eq!(paths.path(0, 2), Some(vec![0, 1, 2]));
    /// assert_eq!(paths.path(2, 0), Some(vec![2, 1, 0]));
    /// assert_eq!(paths.path(1, 1), Some(vec![1]));
    /// ```
    pub fn path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let row = self.row_of(a)?;
        if a == b {
            return Some(vec![a]);
        }
        let n = self.node_count as usize;
        let d = self.dist[row * n + b];
        if d == UNREACHABLE || d > self.exact_bounds[row] {
            return None;
        }
        let mut path = vec![b];
        let mut here = b;
        // A shortest path visits each node at most once, so bound the loop.
        for _ in 0..n {
            let p = self.prev[row * n + here];
            if p == NO_NODE {
                return None;
            }
            path.push(p as usize);
            if p as usize == a {
                path.reverse();
                return Some(path);
            }
            here = p as usize;
        }
        None
    }

    /// Number of nodes covered by this result.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Number of solved source rows.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Exact latency of the shortest `a → b` path computed by a one-shot
    /// goal-directed search on `graph` — the fallback for queries a scoped
    /// solve left inexact. Uses ALT (A* with the landmark rows of this solve
    /// as the heuristic: `h(v) = max_l |d(l, b) − d(l, v)|`, admissible and
    /// consistent by the triangle inequality on an undirected graph); with no
    /// landmark rows it degrades to plain Dijkstra with an early exit at the
    /// target. Allocates per query and runs sequentially — use only for
    /// sporadic out-of-scope queries, never on the epoch path.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have this result's node count, or `a`/`b`
    /// are out of range.
    pub fn one_shot_latency(&self, graph: &NetworkGraph, a: usize, b: usize) -> Option<Cost> {
        self.one_shot(graph, a, b).map(|(cost, _)| cost)
    }

    /// The full node sequence of a one-shot exact `a → b` search — the path
    /// companion of [`ShortestPaths::one_shot_latency`]. The latency is
    /// always the true shortest; among equally short paths the goal-directed
    /// search may pick a different (still shortest) one than a full solve.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have this result's node count, or `a`/`b`
    /// are out of range.
    pub fn one_shot_path(&self, graph: &NetworkGraph, a: usize, b: usize) -> Option<Vec<usize>> {
        if a == b {
            return Some(vec![a]);
        }
        let (_, prev) = self.one_shot(graph, a, b)?;
        let mut path = vec![b];
        let mut here = b;
        let n = self.node_count as usize;
        for _ in 0..n {
            let p = prev[here];
            if p == NO_NODE {
                return None;
            }
            path.push(p as usize);
            if p as usize == a {
                path.reverse();
                return Some(path);
            }
            here = p as usize;
        }
        None
    }

    /// The shared ALT kernel: returns the exact distance and the predecessor
    /// array of the search (meaningful only along the `a → b` chain).
    fn one_shot(&self, graph: &NetworkGraph, a: usize, b: usize) -> Option<(Cost, Vec<u32>)> {
        let n = self.node_count as usize;
        assert_eq!(graph.node_count(), n, "graph/result node count mismatch");
        assert!(a < n && b < n, "node index out of range");
        if a == b {
            return Some((0, vec![NO_NODE; n]));
        }
        // Collect the landmark rows once: (row distances, distance to the
        // target). Rows where the target is unreachable still contribute —
        // `|∞ − d|` is not meaningful, so such landmarks are skipped per
        // node below.
        let landmark_rows: Vec<(&[Cost], Cost)> = self
            .landmarks
            .iter()
            .filter_map(|&l| self.row_of(l as usize))
            .map(|row| {
                let dist = &self.dist[row * n..(row + 1) * n];
                (dist, dist[b])
            })
            .collect();
        let h = |v: usize| -> Cost {
            let mut best = 0;
            for &(dist, to_target) in &landmark_rows {
                let to_v = dist[v];
                if to_target == UNREACHABLE || to_v == UNREACHABLE {
                    continue;
                }
                best = best.max(to_target.abs_diff(to_v));
            }
            best
        };
        let mut dist = vec![UNREACHABLE; n];
        let mut prev = vec![NO_NODE; n];
        // Heap keyed by (f = g + h, g, node) so the stale check needs no
        // heuristic re-evaluation.
        let mut heap: BinaryHeap<Reverse<(Cost, Cost, u32)>> = BinaryHeap::new();
        dist[a] = 0;
        heap.push(Reverse((h(a), 0, a as u32)));
        while let Some(Reverse((_, g, u))) = heap.pop() {
            let u = u as usize;
            if g > dist[u] {
                continue;
            }
            if u == b {
                return Some((g, prev));
            }
            for (v, w) in graph.neighbors(u) {
                let candidate = g.saturating_add(w);
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    prev[v as usize] = u as u32;
                    heap.push(Reverse((candidate.saturating_add(h(v as usize)), candidate, v)));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line_graph(n: usize) -> NetworkGraph {
        let mut g = NetworkGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 10);
        }
        g
    }

    #[test]
    fn dijkstra_on_a_line() {
        let g = line_graph(5);
        let (dist, prev) = g.dijkstra(0);
        assert_eq!(dist, vec![0, 10, 20, 30, 40]);
        assert_eq!(prev[4], 3);
        assert_eq!(prev[0], NO_NODE);
    }

    #[test]
    fn from_edges_matches_incremental_construction() {
        let incremental = line_graph(4);
        let bulk = NetworkGraph::from_edges(4, [(2, 3, 10), (0, 1, 10), (1, 2, 10)]);
        assert_eq!(incremental, bulk);
        assert_eq!(bulk.edge_count(), 3);
        let neighbors: Vec<_> = bulk.neighbors(1).collect();
        assert_eq!(neighbors, vec![(0, 10), (2, 10)]);
    }

    #[test]
    fn unreachable_nodes_are_reported() {
        let mut g = NetworkGraph::new(4);
        g.add_edge(0, 1, 5);
        // Nodes 2 and 3 are isolated from 0 and 1.
        g.add_edge(2, 3, 5);
        let paths = g.all_pairs_dijkstra();
        assert_eq!(paths.latency_micros(0, 1), Some(5));
        assert_eq!(paths.latency_micros(0, 2), None);
        assert_eq!(paths.path(0, 3), None);
        assert_eq!(paths.next_hop(0, 3), None);
    }

    #[test]
    fn shortest_path_prefers_lower_total_cost() {
        // 0 -10- 1 -10- 2 and a direct expensive edge 0 -50- 2.
        let mut g = NetworkGraph::new(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(0, 2, 50);
        let paths = g.all_pairs_dijkstra();
        assert_eq!(paths.latency_micros(0, 2), Some(20));
        assert_eq!(paths.path(0, 2), Some(vec![0, 1, 2]));
        assert_eq!(paths.next_hop(0, 2), Some(1));
        assert_eq!(paths.predecessor(0, 2), Some(1));
        let fw = g.floyd_warshall();
        assert_eq!(fw.latency_micros(0, 2), Some(20));
        assert_eq!(fw.path(0, 2), Some(vec![0, 1, 2]));
    }

    #[test]
    fn path_to_self_is_trivial() {
        let g = line_graph(3);
        let paths = g.all_pairs_dijkstra();
        assert_eq!(paths.path(1, 1), Some(vec![1]));
        assert_eq!(paths.latency_micros(1, 1), Some(0));
        assert_eq!(paths.next_hop(1, 1), None);
    }

    #[test]
    fn parallel_edges_keep_the_cheaper_cost() {
        let mut g = NetworkGraph::new(2);
        g.add_edge(0, 1, 50);
        g.add_edge(1, 0, 10); // Cheaper duplicate, reversed orientation.
        g.add_edge(0, 1, 70); // More expensive duplicate: ignored.
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges(), &[(0, 1, 10)]);
        let bulk = NetworkGraph::from_edges(2, [(0, 1, 50), (1, 0, 10), (0, 1, 70)]);
        assert_eq!(bulk.edge_count(), 1);
        assert_eq!(g, bulk);
    }

    #[test]
    fn bandwidths_ride_along_without_influencing_paths() {
        let g = NetworkGraph::from_links(
            3,
            [
                (0, 1, 10, 10_000_000_000),
                (1, 2, 10, 100_000_000),
                (0, 2, 50, 5_000),
            ],
        );
        // Both orientations read the same bandwidth.
        assert_eq!(g.edge_bandwidth_bps(0, 1), Some(10_000_000_000));
        assert_eq!(g.edge_bandwidth_bps(1, 0), Some(10_000_000_000));
        assert_eq!(g.edge_bandwidth_bps(2, 1), Some(100_000_000));
        assert_eq!(g.edge_bandwidth_bps(0, 2), Some(5_000));
        // The shortest path is chosen by latency alone: 0-1-2 beats the
        // direct edge despite its tiny bandwidth.
        let paths = g.all_pairs_dijkstra();
        assert_eq!(paths.path(0, 2), Some(vec![0, 1, 2]));
        // A latency-only graph over the same edges has identical paths.
        let latency_only = NetworkGraph::from_edges(3, g.edges().iter().copied().collect::<Vec<_>>());
        assert_eq!(latency_only.all_pairs_dijkstra(), paths);
        assert_eq!(latency_only.edge_bandwidth_bps(0, 1), Some(0), "no bandwidth recorded");
    }

    #[test]
    fn parallel_links_keep_cheapest_then_widest() {
        // Equal-latency duplicates keep the wider bandwidth; cheaper latency
        // wins outright regardless of bandwidth.
        let bulk = NetworkGraph::from_links(
            2,
            [(0, 1, 10, 100), (0, 1, 10, 900), (0, 1, 50, 9_999)],
        );
        assert_eq!(bulk.edge_count(), 1);
        assert_eq!(bulk.edges(), &[(0, 1, 10)]);
        assert_eq!(bulk.edge_bandwidth_bps(0, 1), Some(900));

        let mut incremental = NetworkGraph::new(2);
        incremental.add_link(0, 1, 10, 100);
        incremental.add_link(1, 0, 10, 900);
        incremental.add_link(0, 1, 50, 9_999);
        assert_eq!(incremental, bulk);
        // A cheaper edge replaces bandwidth too.
        incremental.add_link(0, 1, 5, 7);
        assert_eq!(incremental.edge_bandwidth_bps(0, 1), Some(7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_are_rejected() {
        let mut g = NetworkGraph::new(3);
        g.add_edge(1, 1, 5);
    }

    #[test]
    fn path_endpoints_and_continuity() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30;
        let mut g = NetworkGraph::new(n);
        // A ring plus random chords, always connected.
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, rng.gen_range(1..100));
        }
        for _ in 0..40 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge(a, b, rng.gen_range(1..100));
            }
        }
        let paths = g.all_pairs_dijkstra();
        for a in 0..n {
            for b in 0..n {
                let p = paths.path(a, b).expect("connected graph");
                assert_eq!(*p.first().unwrap(), a);
                assert_eq!(*p.last().unwrap(), b);
                // Consecutive nodes must be adjacent in the graph.
                for w in p.windows(2) {
                    assert!(g.neighbors(w[0]).any(|(v, _)| v as usize == w[1]));
                }
                if a != b {
                    assert_eq!(paths.next_hop(a, b), Some(p[1]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adding_edge_out_of_range_panics() {
        let mut g = NetworkGraph::new(2);
        g.add_edge(0, 5, 1);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "out of range")]
    fn adding_edge_with_index_past_u32_panics_instead_of_wrapping() {
        let mut g = NetworkGraph::new(2);
        // 2^32 would truncate to node 0 if narrowed before validation.
        g.add_edge(u32::MAX as usize + 1, 1, 1);
    }

    #[test]
    fn algorithm_names_match_the_config_spellings() {
        assert_eq!(PathAlgorithm::Dijkstra.name(), "dijkstra");
        assert_eq!(PathAlgorithm::FloydWarshall.name(), "floyd-warshall");
        assert_eq!(PathAlgorithm::Incremental.name(), "incremental");
        assert_eq!(PathAlgorithm::Auto.name(), "auto");
    }

    /// A random connected graph: a spanning chain plus `extra` random edges.
    fn random_connected(seed: u64, n: usize, extra: usize) -> NetworkGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = NetworkGraph::new(n);
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            g.add_edge(parent, i, rng.gen_range(1..1000));
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge(a, b, rng.gen_range(1..1000));
            }
        }
        g
    }

    #[test]
    fn bounded_dijkstra_with_every_node_required_matches_the_full_kernel() {
        let g = random_connected(3, 40, 60);
        let n = g.node_count();
        let mut heap = DijkstraHeap::new();
        let required = vec![true; n];
        for source in 0..n as u32 {
            let (full_dist, full_prev) = g.dijkstra(source as usize);
            let mut dist = vec![0; n];
            let mut prev = vec![0; n];
            let (bound, settled) =
                g.dijkstra_bounded_into(source, &required, n as u32, &mut dist, &mut prev, &mut heap);
            assert_eq!(bound, UNREACHABLE, "all-required search runs to completion");
            assert_eq!(settled as usize, n);
            assert_eq!(dist, full_dist);
            assert_eq!(prev, full_prev);
        }
    }

    #[test]
    fn bounded_dijkstra_is_fully_exact_when_required_nodes_are_unreachable() {
        // Two components; requiring a node in the far component forces the
        // search to drain the heap, which must report the row fully exact.
        let mut g = NetworkGraph::new(5);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, 5);
        let mut required = vec![false; 5];
        required[3] = true;
        let mut dist = vec![0; 5];
        let mut prev = vec![0; 5];
        let mut heap = DijkstraHeap::new();
        let (bound, _) = g.dijkstra_bounded_into(0, &required, 1, &mut dist, &mut prev, &mut heap);
        assert_eq!(bound, UNREACHABLE);
        let (full_dist, full_prev) = g.dijkstra(0);
        assert_eq!(dist, full_dist);
        assert_eq!(prev, full_prev);
    }

    #[test]
    fn one_shot_queries_match_the_full_solve_with_and_without_landmarks() {
        let g = random_connected(11, 40, 60);
        let n = g.node_count();
        let mut paths = g.all_pairs_dijkstra();
        for landmarks in [vec![], vec![0u32, (n / 2) as u32, (n - 1) as u32]] {
            paths.landmarks = landmarks;
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        paths.one_shot_latency(&g, a, b),
                        paths.latency_micros(a, b),
                        "one-shot {a}→{b} with {} landmarks",
                        paths.landmarks.len()
                    );
                    let p = paths.one_shot_path(&g, a, b).expect("connected");
                    assert_eq!(*p.first().unwrap(), a);
                    assert_eq!(*p.last().unwrap(), b);
                    // The one-shot path's cost equals the shortest cost even
                    // if the tie-broken route differs from the full solve's.
                    let cost: Cost = p
                        .windows(2)
                        .map(|w| {
                            g.neighbors(w[0])
                                .find(|&(v, _)| v as usize == w[1])
                                .expect("path edges exist")
                                .1
                        })
                        .sum();
                    assert_eq!(Some(cost), paths.latency_micros(a, b).or(Some(0)));
                }
            }
        }
    }

    #[test]
    fn one_shot_reports_unreachable_pairs() {
        let mut g = NetworkGraph::new(4);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, 5);
        let mut paths = g.all_pairs_dijkstra();
        paths.landmarks = vec![0];
        assert_eq!(paths.one_shot_latency(&g, 0, 2), None);
        assert_eq!(paths.one_shot_path(&g, 1, 3), None);
        assert_eq!(paths.one_shot_latency(&g, 0, 1), Some(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn bounded_dijkstra_rows_are_bit_identical_below_the_bound(
            seed in 0u64..500,
            n in 2usize..30,
            extra in 0usize..40,
            required_mask in 0u64..u64::MAX,
        ) {
            let g = random_connected(seed, n, extra);
            let required: Vec<bool> = (0..n).map(|i| required_mask & (1 << (i % 64)) != 0).collect();
            let required_count = required.iter().filter(|&&r| r).count() as u32;
            let mut heap = DijkstraHeap::new();
            let mut dist = vec![0; n];
            let mut prev = vec![0; n];
            for source in 0..n as u32 {
                let (bound, settled) = g.dijkstra_bounded_into(
                    source, &required, required_count, &mut dist, &mut prev, &mut heap,
                );
                let (full_dist, full_prev) = g.dijkstra(source as usize);
                let mut below = 0usize;
                for v in 0..n {
                    // Every required node must be exact.
                    if required[v] {
                        prop_assert!(full_dist[v] == UNREACHABLE || full_dist[v] <= bound);
                    }
                    // Every entry at or below the bound is bit-identical to
                    // the full kernel (distance and predecessor).
                    if dist[v] <= bound {
                        below += 1;
                        prop_assert_eq!(dist[v], full_dist[v]);
                        prop_assert_eq!(prev[v], full_prev[v]);
                    } else {
                        // Tentative entries never under-report the truth.
                        prop_assert!(dist[v] >= full_dist[v]);
                    }
                }
                if bound != UNREACHABLE {
                    prop_assert_eq!(below, settled as usize);
                }
            }
        }

        #[test]
        fn dijkstra_equals_floyd_warshall(seed in 0u64..1000, n in 2usize..25, extra in 0usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = NetworkGraph::new(n);
            // Random connected-ish graph: a spanning chain plus random edges.
            for i in 1..n {
                let parent = rng.gen_range(0..i);
                g.add_edge(parent, i, rng.gen_range(1..1000));
            }
            for _ in 0..extra {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    g.add_edge(a, b, rng.gen_range(1..1000));
                }
            }
            let d = g.all_pairs_dijkstra();
            let fw = g.floyd_warshall();
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(d.latency_micros(a, b), fw.latency_micros(a, b));
                }
            }
        }

        #[test]
        fn triangle_inequality_holds(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 12;
            let mut g = NetworkGraph::new(n);
            for i in 1..n {
                let parent = rng.gen_range(0..i);
                g.add_edge(parent, i, rng.gen_range(1..100));
            }
            let paths = g.all_pairs_dijkstra();
            for a in 0..n {
                for b in 0..n {
                    for c in 0..n {
                        let ab = paths.latency_micros(a, b).unwrap();
                        let bc = paths.latency_micros(b, c).unwrap();
                        let ac = paths.latency_micros(a, c).unwrap();
                        prop_assert!(ac <= ab + bc);
                    }
                }
            }
        }
    }
}

//! The delta-based network-programming engine.
//!
//! Celestial's coordinator pushes only *changed* `tc` rules to the machine
//! managers: programmed delays are quantized to 0.1 ms, so a pair whose path
//! latency drifted by less than the quantum (and whose bottleneck bandwidth
//! is unchanged) costs nothing per update (Fig. 2). [`ProgrammeStore`] is
//! the engine behind that contract — it retains the previous epoch's
//! programme in a dense node-indexed buffer and emits a
//! [`ProgrammeDelta`] (`{added, changed, removed}`) per constellation
//! update.
//!
//! Coverage spans every pair of *programmable* nodes: ground stations and
//! active satellites, including active-satellite↔active-satellite pairs, so
//! satellite-hosted workloads can exchange traffic. Suspended satellites
//! carry traffic *on* paths but host no running microVM, so pairs ending at
//! them are never programmed.
//!
//! The bottleneck walk reads per-edge bandwidths straight from the
//! constellation graph's CSR arrays and returns `Option<Bandwidth>`: a
//! broken predecessor chain or a missing edge marks the pair *unreachable*
//! instead of programming it with [`Bandwidth::INFINITY`] — no code path can
//! produce an uncapped emulated link. See `docs/NETPROG.md` for the full
//! contract.

use celestial_constellation::{ConstellationState, NetworkGraph, ShortestPaths};
use celestial_netem::{PairProgram, ProgrammeDelta, ShardPlan};
use celestial_types::ids::NodeId;
use celestial_types::{Bandwidth, Latency};

/// Sentinel for an unoccupied slot (no programmed rule for the pair).
const EMPTY_LATENCY: u64 = u64::MAX;

/// Sentinel for a node outside the current slot window.
const WINDOW_NONE: u32 = u32::MAX;

/// One retained rule: quantized latency and bottleneck bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    latency_micros: u64,
    bandwidth_bps: u64,
}

const EMPTY_SLOT: Slot = Slot {
    latency_micros: EMPTY_LATENCY,
    bandwidth_bps: 0,
};

/// Walks the predecessor chain of the shortest path from `source` to
/// `target`, folding the bottleneck bandwidth of the traversed edges (read
/// straight from the graph's CSR arrays).
///
/// Returns `None` — and the caller must treat the pair as *unreachable* —
/// when the chain is broken (`source`'s row unsolved, or the walk does not
/// reach `source`), a traversed edge is missing from the graph, or an edge
/// carries no usable bandwidth: `0` (an edge added without bandwidth
/// information, or an unusable zero-rate link) and `u64::MAX`
/// ([`Bandwidth::INFINITY`] — constellation construction rejects such
/// links, but a malformed graph must still degrade to *unreachable*, never
/// to an uncapped rule). This is the structural fix for the
/// uncapped-bandwidth bug: there is no sentinel value an incomplete walk
/// could leak into the programme.
pub fn bottleneck_bandwidth(
    paths: &ShortestPaths,
    graph: &NetworkGraph,
    source: usize,
    target: usize,
) -> Option<Bandwidth> {
    let mut bottleneck: Option<u64> = None;
    let mut here = target;
    // A shortest path visits each node at most once, so bound the loop.
    for _ in 0..graph.node_count() {
        if here == source {
            return bottleneck.map(Bandwidth::from_bps);
        }
        let parent = paths.predecessor(source, here)?;
        let bandwidth = graph.edge_bandwidth_bps(parent, here)?;
        if bandwidth == 0 || bandwidth == u64::MAX {
            return None;
        }
        bottleneck = Some(bottleneck.map_or(bandwidth, |b| b.min(bandwidth)));
        here = parent;
    }
    // The walk exceeded the node count: a corrupt chain, not a path.
    None
}

/// The dense, epoch-retained programme of per-pair `tc` rules.
///
/// Rules are kept in a triangular *window-indexed* buffer plus a sorted list
/// of occupied pairs. The window is the set of programmable nodes of the
/// current epoch (ground stations plus active satellites); only pairs of
/// window nodes can ever be programmed, so the buffer needs
/// `w·(w−1)/2` slots for a window of `w` nodes instead of
/// `node_count·(node_count−1)/2` over the whole constellation — at
/// mega-constellation scale (16 384 nodes, a few hundred programmable ones)
/// that is the difference between ~50 k slots and ~134 M. When the window
/// shifts between epochs the surviving pairs' slots migrate to the new
/// layout in `O(pairs)`; a pair whose endpoint left the window loses its
/// slot, which is safe because the merge walk never reads a removed pair's
/// retained value — it only emits the pair's identity.
///
/// One constellation update performs a single merge walk of
/// the previous and the fresh occupied-pair lists — `O(pairs)` with no
/// per-update map allocation — and produces the [`ProgrammeDelta`] whose
/// `changed` entries are judged *after* 0.1 ms latency quantization and
/// bandwidth comparison.
#[derive(Debug, Clone, Default)]
pub struct ProgrammeStore {
    node_count: usize,
    /// Triangular slot buffer over *window* indices, `EMPTY_SLOT` where no
    /// rule exists.
    slots: Vec<Slot>,
    /// Node index → window index, `WINDOW_NONE` for out-of-window nodes.
    window: Vec<u32>,
    /// Window index → node index, strictly ascending (so `a < b` in node
    /// space implies `wa < wb` in window space and canonical pair order is
    /// preserved).
    window_nodes: Vec<u32>,
    /// Whether the window has been initialised (distinguishes the empty
    /// window of a fresh store from a deliberately empty one).
    window_ready: bool,
    /// Scratch for window migration: the next epoch's node → window map.
    spare_window: Vec<u32>,
    /// Scratch for window migration: the next epoch's window node list.
    spare_window_nodes: Vec<u32>,
    /// Scratch for window migration: the next epoch's slot buffer.
    spare_slots: Vec<Slot>,
    /// Per-source scratch rows of the metric phase, reused across epochs.
    metric_rows: Vec<Vec<(u32, u64, u64)>>,
    /// Worker threads for the metric phase of [`ProgrammeStore::update_epoch`]
    /// (`0`/`1` = inline).
    threads: usize,
    /// Sorted packed `(a << 32) | b` indices of currently occupied pairs.
    pairs: Vec<u64>,
    /// Scratch: the fresh epoch's occupied pairs (sorted by construction).
    fresh_pairs: Vec<u64>,
    /// Scratch: fresh values, parallel to `fresh_pairs`.
    fresh_slots: Vec<Slot>,
    delta: ProgrammeDelta,
    epoch: u64,
    /// When set, the merge walk additionally partitions the delta into one
    /// [`ProgrammeDelta`] per host (see `docs/SHARDING.md`).
    shard_plan: Option<ShardPlan>,
    /// Per-host change sets of the most recent epoch, indexed by host.
    host_deltas: Vec<ProgrammeDelta>,
    /// Number of pairs currently owned by each shard (cross-host pairs
    /// count in both endpoint shards).
    shard_pairs: Vec<usize>,
}

impl ProgrammeStore {
    /// Creates an empty store; the buffers size themselves on the first
    /// epoch.
    pub fn new() -> Self {
        ProgrammeStore::default()
    }

    /// Enables (or disables) host-sharded partitioning: subsequent epochs
    /// additionally split the change set into one per-host delta, in the
    /// same O(pairs) merge walk. A cross-host pair is mirrored into both
    /// endpoint shards, a same-host pair lands in exactly one.
    ///
    /// # Panics
    ///
    /// Panics after the first epoch: the plan is part of the programme's
    /// identity — re-sharding a retained programme would orphan the rules
    /// already shipped to hosts.
    pub fn set_shard_plan(&mut self, plan: Option<ShardPlan>) {
        assert!(
            self.epoch == 0,
            "the shard plan must be fixed before the first epoch"
        );
        self.shard_plan = plan;
        self.host_deltas.clear();
        self.shard_pairs.clear();
        if let Some(plan) = plan {
            self.host_deltas
                .resize_with(plan.shard_count(), ProgrammeDelta::default);
            self.shard_pairs.resize(plan.shard_count(), 0);
        }
    }

    /// The configured shard plan, if partitioning is enabled.
    pub fn shard_plan(&self) -> Option<ShardPlan> {
        self.shard_plan
    }

    /// The change set produced by the most recent epoch.
    pub fn delta(&self) -> &ProgrammeDelta {
        &self.delta
    }

    /// The per-host change sets of the most recent epoch, indexed by host.
    /// Empty unless a shard plan is set. The union of these deltas is
    /// exactly [`ProgrammeStore::delta`] (cross-host entries appearing in
    /// both endpoint shards) — property-tested in
    /// `tests/shard_partition.rs`.
    pub fn host_deltas(&self) -> &[ProgrammeDelta] {
        &self.host_deltas
    }

    /// Number of pairs currently owned by each shard, indexed by host.
    /// Cross-host pairs are mirrored, so the sum exceeds
    /// [`ProgrammeStore::pair_count`] by the number of cross-host pairs.
    pub fn shard_pair_counts(&self) -> &[usize] {
        &self.shard_pairs
    }

    /// Number of pairs currently programmed.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Sets the worker-thread budget for the metric phase of
    /// [`ProgrammeStore::update_epoch`] (`0` and `1` both mean inline). The
    /// emitted delta is bit-identical for every thread count: rows are
    /// computed in parallel but recorded in canonical order.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterates the current programme in canonical pair order as
    /// `(a, b, latency, bandwidth)` node-index tuples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Latency, Bandwidth)> + '_ {
        self.pairs.iter().map(|&packed| {
            let (a, b) = unpack(packed);
            let slot = self.slots[self.tri(a, b)];
            (
                a,
                b,
                Latency::from_micros(slot.latency_micros),
                Bandwidth::from_bps(slot.bandwidth_bps),
            )
        })
    }

    /// Runs one programme epoch from a freshly solved constellation state:
    /// enumerates every canonical pair of `sources` (ground stations plus
    /// active satellites, ascending node indices), reads the pair's latency
    /// from the path matrix, walks the predecessor chain for the bottleneck
    /// bandwidth, and merges the result against the retained programme into
    /// the returned [`ProgrammeDelta`].
    ///
    /// Pairs whose latency row is missing, whose predecessor chain breaks or
    /// whose path crosses an edge without bandwidth information are treated
    /// as unreachable (removed if previously programmed) — never as
    /// uncapped.
    ///
    /// The slot window of this epoch is exactly `sources`; metric rows are
    /// computed in parallel when a thread budget is set
    /// ([`ProgrammeStore::set_threads`]) and recorded sequentially in
    /// canonical order, so the delta is bit-identical across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is not strictly ascending.
    pub fn update_epoch(
        &mut self,
        state: &ConstellationState,
        paths: &ShortestPaths,
        sources: &[u32],
    ) -> &ProgrammeDelta {
        assert!(
            sources.windows(2).all(|w| w[0] < w[1]),
            "programme sources must be strictly ascending"
        );
        self.begin_epoch_over(state.node_count(), Some(sources));
        let graph = state.graph();

        // Metric phase: one row of `(target, quantized latency µs, bps)`
        // tuples per source, fanned out over the thread budget. Rows are
        // independent, so only the sequential record order below matters for
        // determinism.
        let rows = sources.len();
        if self.metric_rows.len() < rows {
            self.metric_rows.resize_with(rows, Vec::new);
        }
        for row in &mut self.metric_rows[..rows] {
            row.clear();
        }
        let fill = |index: usize, out: &mut Vec<(u32, u64, u64)>| {
            let a = sources[index] as usize;
            for &b in &sources[index + 1..] {
                let b = b as usize;
                let Some(latency_micros) = paths.latency_micros(a, b) else {
                    continue;
                };
                let Some(bandwidth) = bottleneck_bandwidth(paths, graph, a, b) else {
                    continue;
                };
                let quantized = Latency::from_micros(latency_micros).quantized_tenth_ms();
                out.push((b as u32, quantized.as_micros(), bandwidth.as_bps()));
            }
        };
        let workers = self.threads.clamp(1, rows.max(1));
        if workers <= 1 {
            for (index, out) in self.metric_rows[..rows].iter_mut().enumerate() {
                fill(index, out);
            }
        } else {
            let per_worker = rows.div_ceil(workers);
            std::thread::scope(|scope| {
                for (chunk_index, chunk) in
                    self.metric_rows[..rows].chunks_mut(per_worker).enumerate()
                {
                    scope.spawn(move || {
                        for (offset, out) in chunk.iter_mut().enumerate() {
                            fill(chunk_index * per_worker + offset, out);
                        }
                    });
                }
            });
        }
        for index in 0..rows {
            let row = std::mem::take(&mut self.metric_rows[index]);
            let a = sources[index] as usize;
            for &(b, latency_micros, bandwidth_bps) in &row {
                self.record(
                    a,
                    b as usize,
                    Latency::from_micros(latency_micros),
                    Bandwidth::from_bps(bandwidth_bps),
                );
            }
            // Hand the allocation back for the next epoch.
            self.metric_rows[index] = row;
        }
        self.commit(|index| state.node_id(index).expect("pair index in range"))
    }

    /// Starts a fresh epoch over `node_count` nodes with the identity slot
    /// window (every node programmable). Test and embedding convenience —
    /// [`ProgrammeStore::update_epoch`] windows on its source list instead.
    #[cfg_attr(not(test), allow(dead_code))]
    fn begin_epoch(&mut self, node_count: usize) {
        self.begin_epoch_over(node_count, None);
    }

    /// Starts a fresh epoch over `node_count` nodes, re-deriving the slot
    /// window (`None` = identity) and migrating retained slots when it
    /// shifted.
    ///
    /// A store serves a single topology: node indices are the identity of
    /// the retained pairs, so changing the node count mid-life would silently
    /// orphan every previously emitted rule (no `removed` entries could be
    /// resolved against the new index space). That is a programming error,
    /// not a constellation event — the constellation's node count is fixed
    /// at build time — so it panics instead of guessing. The *window* may
    /// shift freely between epochs: satellites drift in and out of the
    /// bounding box every update.
    ///
    /// # Panics
    ///
    /// Panics if the node count differs from a previous epoch's, or if the
    /// window is not strictly ascending or references a node out of range.
    fn begin_epoch_over(&mut self, node_count: usize, window: Option<&[u32]>) {
        if self.node_count != node_count {
            assert!(
                self.epoch == 0,
                "ProgrammeStore serves a single topology ({} nodes), got {node_count}",
                self.node_count
            );
            self.node_count = node_count;
            self.slots.clear();
            self.pairs.clear();
            self.window.clear();
            self.window_nodes.clear();
            self.window_ready = false;
        }
        let unchanged = self.window_ready
            && match window {
                // The identity window is recognisable by length alone: a
                // strictly ascending list of `node_count` in-range nodes is
                // exactly `0..node_count`.
                None => self.window_nodes.len() == node_count,
                Some(nodes) => nodes == self.window_nodes.as_slice(),
            };
        if !unchanged {
            self.spare_window_nodes.clear();
            match window {
                None => self.spare_window_nodes.extend(0..node_count as u32),
                Some(nodes) => {
                    assert!(
                        nodes.windows(2).all(|w| w[0] < w[1]),
                        "slot window must be strictly ascending"
                    );
                    assert!(
                        nodes.last().is_none_or(|&last| (last as usize) < node_count),
                        "slot window references a node out of range"
                    );
                    self.spare_window_nodes.extend_from_slice(nodes);
                }
            }
            self.spare_window.clear();
            self.spare_window.resize(node_count, WINDOW_NONE);
            for (index, &node) in self.spare_window_nodes.iter().enumerate() {
                self.spare_window[node as usize] = index as u32;
            }
            let width = self.spare_window_nodes.len();
            self.spare_slots.clear();
            self.spare_slots
                .resize(width * width.saturating_sub(1) / 2, EMPTY_SLOT);
            // Migrate the retained slots of surviving pairs into the new
            // layout. A pair whose endpoint left the window drops its slot:
            // it cannot be re-recorded this epoch (fresh pairs are window
            // pairs), so the merge walk will emit it as removed — and the
            // removal branch never reads the retained value.
            for &packed in &self.pairs {
                let (a, b) = unpack(packed);
                let (wa, wb) = (self.spare_window[a], self.spare_window[b]);
                if wa == WINDOW_NONE || wb == WINDOW_NONE {
                    continue;
                }
                self.spare_slots[tri_at(width, wa as usize, wb as usize)] =
                    self.slots[self.tri(a, b)];
            }
            std::mem::swap(&mut self.slots, &mut self.spare_slots);
            std::mem::swap(&mut self.window, &mut self.spare_window);
            std::mem::swap(&mut self.window_nodes, &mut self.spare_window_nodes);
            self.window_ready = true;
        }
        self.fresh_pairs.clear();
        self.fresh_slots.clear();
    }

    /// Records one reachable pair of the fresh epoch. Pairs must arrive in
    /// strictly ascending canonical order, which the double loop over the
    /// ascending source list guarantees.
    fn record(&mut self, a: usize, b: usize, latency: Latency, bandwidth: Bandwidth) {
        debug_assert!(a < b, "canonical pair order");
        debug_assert!(
            self.window[a] != WINDOW_NONE && self.window[b] != WINDOW_NONE,
            "recorded pairs must lie inside the slot window"
        );
        let packed = pack(a, b);
        debug_assert!(
            self.fresh_pairs.last().is_none_or(|&last| last < packed),
            "pairs must be recorded in ascending order"
        );
        self.fresh_pairs.push(packed);
        self.fresh_slots.push(Slot {
            latency_micros: latency.as_micros(),
            bandwidth_bps: bandwidth.as_bps(),
        });
    }

    /// Merges the fresh epoch against the retained programme: one walk over
    /// the two sorted pair lists, updating the dense buffer in place and
    /// emitting the delta.
    fn commit(&mut self, resolve: impl Fn(usize) -> NodeId) -> &ProgrammeDelta {
        self.epoch += 1;
        self.delta.clear();
        self.delta.epoch = self.epoch;
        for host_delta in &mut self.host_deltas {
            host_delta.clear();
            host_delta.epoch = self.epoch;
        }

        let (mut i, mut j) = (0usize, 0usize);
        while i < self.pairs.len() || j < self.fresh_pairs.len() {
            let old = self.pairs.get(i).copied();
            let fresh = self.fresh_pairs.get(j).copied();
            // Exhausted sides compare as "infinitely large" so the tails of
            // either list drain through the other branch.
            let take_old = old.is_some() && fresh.is_none_or(|f| old.unwrap() <= f);
            let take_fresh = fresh.is_some() && old.is_none_or(|o| fresh.unwrap() <= o);
            match (take_old, take_fresh) {
                (true, true) => {
                    // Same pair in both epochs: changed only if the
                    // quantized latency or the bandwidth differs.
                    let (a, b) = unpack(old.expect("take_old"));
                    let slot_index = self.tri(a, b);
                    let value = self.fresh_slots[j];
                    if self.slots[slot_index] != value {
                        self.slots[slot_index] = value;
                        let program = pair_program(a, b, value, &resolve);
                        self.delta.changed.push(program);
                        self.route_changed(program);
                    }
                    i += 1;
                    j += 1;
                }
                (true, false) => {
                    // Previously programmed, now unreachable. If either
                    // endpoint left the slot window this epoch the retained
                    // slot was already dropped by the window migration; only
                    // surviving pairs still own a slot to clear. Either way
                    // the removal itself is emitted.
                    let (a, b) = unpack(old.expect("take_old"));
                    if self.window[a] != WINDOW_NONE && self.window[b] != WINDOW_NONE {
                        let slot_index = self.tri(a, b);
                        self.slots[slot_index] = EMPTY_SLOT;
                    }
                    let pair = (resolve(a), resolve(b));
                    self.delta.removed.push(pair);
                    self.route_removed(pair);
                    i += 1;
                }
                (false, true) => {
                    // Newly reachable.
                    let (a, b) = unpack(fresh.expect("take_fresh"));
                    let slot_index = self.tri(a, b);
                    let value = self.fresh_slots[j];
                    self.slots[slot_index] = value;
                    let program = pair_program(a, b, value, &resolve);
                    self.delta.added.push(program);
                    self.route_added(program);
                    j += 1;
                }
                (false, false) => unreachable!("loop condition guarantees one side"),
            }
        }

        std::mem::swap(&mut self.pairs, &mut self.fresh_pairs);
        &self.delta
    }

    /// Triangular index of the canonical pair `(a, b)`, `a < b`, both inside
    /// the slot window. `window_nodes` is strictly ascending, so `a < b`
    /// implies `window[a] < window[b]` and the window-space pair stays
    /// canonical.
    fn tri(&self, a: usize, b: usize) -> usize {
        let (wa, wb) = (self.window[a] as usize, self.window[b] as usize);
        debug_assert!(
            self.window[a] != WINDOW_NONE && self.window[b] != WINDOW_NONE,
            "triangular lookup outside the slot window"
        );
        tri_at(self.window_nodes.len(), wa, wb)
    }

    /// Routes a newly reachable pair into its endpoint shards (no-op without
    /// a plan).
    fn route_added(&mut self, program: PairProgram) {
        let Some(plan) = self.shard_plan else { return };
        let (ha, hb) = plan.shards_of_pair(program.a, program.b);
        self.host_deltas[ha.index()].added.push(program);
        self.shard_pairs[ha.index()] += 1;
        if let Some(hb) = hb {
            self.host_deltas[hb.index()].added.push(program);
            self.shard_pairs[hb.index()] += 1;
        }
    }

    /// Routes a re-shaped pair into its endpoint shards (no-op without a
    /// plan).
    fn route_changed(&mut self, program: PairProgram) {
        let Some(plan) = self.shard_plan else { return };
        let (ha, hb) = plan.shards_of_pair(program.a, program.b);
        self.host_deltas[ha.index()].changed.push(program);
        if let Some(hb) = hb {
            self.host_deltas[hb.index()].changed.push(program);
        }
    }

    /// Routes a torn-down pair into its endpoint shards (no-op without a
    /// plan).
    fn route_removed(&mut self, pair: (NodeId, NodeId)) {
        let Some(plan) = self.shard_plan else { return };
        let (ha, hb) = plan.shards_of_pair(pair.0, pair.1);
        self.host_deltas[ha.index()].removed.push(pair);
        self.shard_pairs[ha.index()] = self.shard_pairs[ha.index()].saturating_sub(1);
        if let Some(hb) = hb {
            self.host_deltas[hb.index()].removed.push(pair);
            self.shard_pairs[hb.index()] = self.shard_pairs[hb.index()].saturating_sub(1);
        }
    }
}

/// Triangular index of the window-space pair `(wa, wb)`, `wa < wb`, for a
/// window of `width` nodes.
fn tri_at(width: usize, wa: usize, wb: usize) -> usize {
    wa * (2 * width - wa - 1) / 2 + (wb - wa - 1)
}

fn pack(a: usize, b: usize) -> u64 {
    ((a as u64) << 32) | b as u64
}

fn unpack(packed: u64) -> (usize, usize) {
    ((packed >> 32) as usize, (packed & u32::MAX as u64) as usize)
}

fn pair_program(a: usize, b: usize, slot: Slot, resolve: &impl Fn(usize) -> NodeId) -> PairProgram {
    PairProgram {
        a: resolve(a),
        b: resolve(b),
        latency: Latency::from_micros(slot.latency_micros),
        bandwidth: Bandwidth::from_bps(slot.bandwidth_bps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::PathEngine;

    fn resolve(index: usize) -> NodeId {
        NodeId::ground_station(index as u32)
    }

    fn record_ms(store: &mut ProgrammeStore, a: usize, b: usize, ms: f64, mbps: u64) {
        store.record(a, b, Latency::from_millis_f64(ms), Bandwidth::from_mbps(mbps));
    }

    #[test]
    fn first_epoch_reports_every_pair_as_added() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch(4);
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 3, 6.0, 10);
        record_ms(&mut store, 2, 3, 1.0, 50);
        let delta = store.commit(resolve);
        assert_eq!(delta.epoch, 1);
        assert_eq!(delta.added.len(), 3);
        assert!(delta.changed.is_empty() && delta.removed.is_empty());
        assert_eq!(store.pair_count(), 3);
        let current: Vec<_> = store.iter().collect();
        assert_eq!(current[0], (0, 1, Latency::from_millis_f64(4.0), Bandwidth::from_mbps(100)));
        assert_eq!(current[2], (2, 3, Latency::from_millis_f64(1.0), Bandwidth::from_mbps(50)));
    }

    #[test]
    fn steady_epoch_emits_only_the_difference() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch(5);
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 3, 6.0, 10);
        record_ms(&mut store, 2, 3, 1.0, 50);
        store.commit(resolve);

        // Epoch 2: (0,1) unchanged, (0,3) re-shaped, (2,3) gone, (3,4) new.
        store.begin_epoch(5);
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 3, 6.1, 10);
        record_ms(&mut store, 3, 4, 2.0, 25);
        let delta = store.commit(resolve);
        assert_eq!(delta.epoch, 2);
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].a, NodeId::ground_station(3));
        assert_eq!(delta.changed.len(), 1);
        assert_eq!(delta.changed[0].latency, Latency::from_millis_f64(6.1));
        assert_eq!(delta.removed, vec![(NodeId::ground_station(2), NodeId::ground_station(3))]);
        assert_eq!(delta.op_count(), 3);
        assert_eq!(store.pair_count(), 3);

        // Epoch 3: identical to epoch 2 — the delta is empty.
        store.begin_epoch(5);
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 3, 6.1, 10);
        record_ms(&mut store, 3, 4, 2.0, 25);
        let delta = store.commit(resolve);
        assert!(delta.is_empty(), "unchanged epoch must cost nothing");
    }

    #[test]
    fn bandwidth_changes_alone_mark_a_pair_changed() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch(3);
        record_ms(&mut store, 0, 1, 4.0, 100);
        store.commit(resolve);
        store.begin_epoch(3);
        record_ms(&mut store, 0, 1, 4.0, 80);
        let delta = store.commit(resolve);
        assert_eq!(delta.changed.len(), 1);
        assert_eq!(delta.changed[0].bandwidth, Bandwidth::from_mbps(80));
    }

    #[test]
    fn bottleneck_walk_folds_the_narrowest_edge() {
        // 0 —(10 µs, 10 Gb/s)— 1 —(10 µs, 100 Mb/s)— 2 —(10 µs, 1 Gb/s)— 3
        let graph = NetworkGraph::from_links(
            4,
            [
                (0, 1, 10, 10_000_000_000),
                (1, 2, 10, 100_000_000),
                (2, 3, 10, 1_000_000_000),
            ],
        );
        let paths = graph.all_pairs_dijkstra();
        assert_eq!(
            bottleneck_bandwidth(&paths, &graph, 0, 3),
            Some(Bandwidth::from_mbps(100))
        );
        assert_eq!(
            bottleneck_bandwidth(&paths, &graph, 0, 1),
            Some(Bandwidth::from_gbps(10))
        );
    }

    #[test]
    fn unusable_edge_bandwidths_make_the_pair_unreachable() {
        // Edge with no bandwidth information (0) and a malformed unbounded
        // edge (u64::MAX): both degrade to unreachable, never to a zero-rate
        // or uncapped rule.
        let graph = NetworkGraph::from_links(
            4,
            [(0, 1, 10, 0), (1, 2, 10, u64::MAX), (2, 3, 10, 1_000)],
        );
        let paths = graph.all_pairs_dijkstra();
        assert_eq!(bottleneck_bandwidth(&paths, &graph, 0, 1), None, "0 bps edge");
        assert_eq!(bottleneck_bandwidth(&paths, &graph, 1, 2), None, "unbounded edge");
        assert_eq!(bottleneck_bandwidth(&paths, &graph, 0, 3), None, "path crosses both");
        assert_eq!(
            bottleneck_bandwidth(&paths, &graph, 2, 3),
            Some(Bandwidth::from_bps(1_000)),
            "the healthy edge still resolves"
        );
    }

    #[test]
    fn sharded_commit_partitions_the_delta_per_host() {
        // resolve() maps index i to ground station i, whose round-robin pin
        // is i — so host(i) = i % 3 under a 3-host plan.
        let mut store = ProgrammeStore::new();
        store.set_shard_plan(Some(ShardPlan::new(3)));
        assert_eq!(store.shard_plan(), Some(ShardPlan::new(3)));
        store.begin_epoch(6);
        record_ms(&mut store, 0, 1, 5.0, 100); // hosts 0↔1: cross
        record_ms(&mut store, 0, 3, 4.0, 100); // hosts 0↔0: same host
        record_ms(&mut store, 2, 4, 6.0, 100); // hosts 2↔1: cross
        store.commit(resolve);

        let hosts = store.host_deltas();
        assert_eq!(hosts.len(), 3);
        let added: Vec<Vec<(NodeId, NodeId)>> = hosts
            .iter()
            .map(|d| d.added.iter().map(|p| (p.a, p.b)).collect())
            .collect();
        let gst = NodeId::ground_station;
        assert_eq!(added[0], vec![(gst(0), gst(1)), (gst(0), gst(3))]);
        assert_eq!(added[1], vec![(gst(0), gst(1)), (gst(2), gst(4))]);
        assert_eq!(added[2], vec![(gst(2), gst(4))]);
        assert_eq!(store.shard_pair_counts(), &[2, 2, 1]);
        assert!(hosts.iter().all(|d| d.epoch == 1));

        // Epoch 2: (0,1) re-shaped, (2,4) gone, (0,3) unchanged.
        store.begin_epoch(6);
        record_ms(&mut store, 0, 1, 9.0, 100);
        record_ms(&mut store, 0, 3, 4.0, 100);
        store.commit(resolve);
        let hosts = store.host_deltas();
        assert_eq!(hosts[0].changed.len(), 1, "cross change mirrored to host 0");
        assert_eq!(hosts[1].changed.len(), 1, "cross change mirrored to host 1");
        assert!(hosts[2].changed.is_empty());
        assert_eq!(hosts[1].removed, vec![(gst(2), gst(4))]);
        assert_eq!(hosts[2].removed, vec![(gst(2), gst(4))]);
        assert!(hosts[0].removed.is_empty());
        assert_eq!(store.shard_pair_counts(), &[2, 1, 0]);
        // The unchanged same-host pair costs nothing anywhere.
        assert!(hosts.iter().all(|d| d.added.is_empty()));
    }

    #[test]
    fn without_a_plan_no_host_deltas_are_produced() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch(3);
        record_ms(&mut store, 0, 1, 4.0, 100);
        store.commit(resolve);
        assert!(store.host_deltas().is_empty());
        assert!(store.shard_pair_counts().is_empty());
        assert_eq!(store.shard_plan(), None);
    }

    #[test]
    #[should_panic(expected = "before the first epoch")]
    fn re_sharding_a_live_programme_panics() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch(3);
        record_ms(&mut store, 0, 1, 4.0, 100);
        store.commit(resolve);
        store.set_shard_plan(Some(ShardPlan::new(2)));
    }

    #[test]
    #[should_panic(expected = "single topology")]
    fn changing_the_node_count_mid_life_panics() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch(4);
        record_ms(&mut store, 0, 1, 4.0, 100);
        store.commit(resolve);
        store.begin_epoch(5);
    }

    #[test]
    fn shifting_the_window_migrates_surviving_slots() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch_over(100, Some(&[0, 1, 3]));
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 3, 6.0, 10);
        record_ms(&mut store, 1, 3, 2.0, 50);
        store.commit(resolve);
        assert_eq!(store.slots.len(), 3, "window-sized buffer, not node-sized");

        // Node 3 leaves the window, node 4 enters. The surviving pair (0,1)
        // must keep its retained slot across the migration: re-recording it
        // unchanged emits nothing.
        store.begin_epoch_over(100, Some(&[0, 1, 4]));
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 4, 3.0, 25);
        let delta = store.commit(resolve).clone();
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].b, NodeId::ground_station(4));
        assert!(delta.changed.is_empty(), "migrated slot still compares equal");
        assert_eq!(
            delta.removed,
            vec![
                (NodeId::ground_station(0), NodeId::ground_station(3)),
                (NodeId::ground_station(1), NodeId::ground_station(3)),
            ],
            "pairs with a departed endpoint are removed"
        );
        assert_eq!(store.pair_count(), 2);

        // Node 3 re-enters: the pair comes back as a plain addition.
        store.begin_epoch_over(100, Some(&[0, 1, 3, 4]));
        record_ms(&mut store, 0, 1, 4.0, 100);
        record_ms(&mut store, 0, 3, 7.0, 10);
        record_ms(&mut store, 0, 4, 3.0, 25);
        let delta = store.commit(resolve);
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].latency, Latency::from_millis_f64(7.0));
        assert!(delta.changed.is_empty() && delta.removed.is_empty());
    }

    #[test]
    fn windowed_epochs_match_identity_window_epochs() {
        // The same recorded metric sequence must produce bit-identical
        // deltas whether the slot buffer spans all nodes or only the
        // per-epoch window — the windowing is a memory layout, not a
        // semantic change.
        let epochs: &[(&[u32], &[(usize, usize, f64, u64)])] = &[
            (&[0, 2, 5, 7], &[(0, 2, 4.0, 100), (0, 7, 6.0, 10), (5, 7, 2.0, 50)]),
            (&[0, 2, 6, 7], &[(0, 2, 4.0, 100), (0, 7, 6.1, 10), (6, 7, 1.0, 25)]),
            (&[0, 2, 6, 7], &[(0, 2, 4.0, 100), (0, 7, 6.1, 10), (6, 7, 1.0, 25)]),
            (&[0, 5, 6, 7], &[(0, 5, 9.0, 5), (6, 7, 1.0, 30)]),
        ];
        let mut windowed = ProgrammeStore::new();
        let mut identity = ProgrammeStore::new();
        for &(window, records) in epochs {
            windowed.begin_epoch_over(8, Some(window));
            identity.begin_epoch_over(8, None);
            for &(a, b, ms, mbps) in records {
                record_ms(&mut windowed, a, b, ms, mbps);
                record_ms(&mut identity, a, b, ms, mbps);
            }
            assert_eq!(windowed.commit(resolve), identity.commit(resolve));
            assert_eq!(
                windowed.iter().collect::<Vec<_>>(),
                identity.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn update_epoch_is_deterministic_across_thread_counts() {
        use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
        use celestial_sgp4::WalkerShell;
        use celestial_types::geo::Geodetic;

        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 6, 8)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        let mut serial = ProgrammeStore::new();
        let mut threaded = ProgrammeStore::new();
        threaded.set_threads(4);
        let mut engine = PathEngine::with_threads(1);
        for step in 0..4 {
            let state = constellation.state_at(step as f64 * 15.0).unwrap();
            let mut sources: Vec<u32> = Vec::new();
            for sat in state.active_satellites() {
                sources.push(state.node_index(NodeId::Satellite(sat)).unwrap() as u32);
            }
            for gst in 0..state.ground_station_count() as u32 {
                sources.push(state.node_index(NodeId::ground_station(gst)).unwrap() as u32);
            }
            let paths = engine.solve_sources(state.graph(), &sources).clone();
            assert_eq!(
                serial.update_epoch(&state, &paths, &sources),
                threaded.update_epoch(&state, &paths, &sources),
                "delta diverged at step {step}"
            );
            assert_eq!(
                serial.iter().collect::<Vec<_>>(),
                threaded.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn an_unsorted_window_panics() {
        let mut store = ProgrammeStore::new();
        store.begin_epoch_over(4, Some(&[2, 1]));
    }

    #[test]
    fn broken_chains_are_unreachable_not_uncapped() {
        let graph = NetworkGraph::from_links(3, [(0, 1, 10, 1_000), (1, 2, 10, 1_000)]);
        // Solve only source 0: source 2's row is unsolved, so its
        // predecessor chain is broken from the first step.
        let mut engine = PathEngine::with_threads(1);
        let paths = engine.solve_sources(&graph, &[0]).clone();
        assert_eq!(bottleneck_bandwidth(&paths, &graph, 2, 0), None);
        // The solved row works normally.
        assert_eq!(
            bottleneck_bandwidth(&paths, &graph, 0, 2),
            Some(Bandwidth::from_bps(1_000))
        );
    }
}

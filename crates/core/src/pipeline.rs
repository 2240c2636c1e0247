//! The pipelined epoch engine: background precompute of the next
//! constellation epoch.
//!
//! Celestial's core scalability trick (§3.1) is that the state for timestep
//! *t + Δ* is computed **while** timestep *t* is live, so the emulation never
//! stalls on orbital math. This module reproduces that overlap and — in the
//! spirit of RAFDA's separation of concerns — decouples the epoch
//! *computation* policy from the event-loop *application* logic:
//!
//! * [`EpochCompute`] is the pure computation: batch satellite propagation
//!   into retained buffers ([`celestial_constellation::StateBuffers`]), the
//!   parallel [`PathEngine`] solve and the [`ProgrammeStore`] delta. It is a
//!   deterministic function of the sequence of epoch times it is fed.
//! * [`EpochBundle`] is the handover unit: an [`Arc`]-shared immutable
//!   [`SharedEpoch`] core (epoch time, constellation state, path matrix,
//!   machine diff, solve stats — computed **once**) plus one [`TenantEpoch`]
//!   (programme delta, per-host partition, programme counters) that every
//!   tenant reads. Bundles are recycled between the producer and the
//!   consumer, so the steady state moves epochs without allocating.
//! * [`EpochPipeline`] owns the policy: in [`PipelineMode::Synchronous`]
//!   every epoch is computed inline at the boundary (the seed behaviour); in
//!   [`PipelineMode::Pipelined`] a background worker thread precomputes the
//!   *next* epoch while the testbed plays the current epoch's events and the
//!   boundary handover is (ideally) a channel receive of a finished bundle.
//!
//! # Determinism
//!
//! [`EpochCompute::compute`] depends only on the constellation and the
//! sequence of epoch times — never on wall-clock time or thread scheduling —
//! so a pipelined run is **bit-identical** to a synchronous run: the same
//! `ProgrammeDelta` sequence, the same path matrices, the same positions.
//! The lockstep tests in this module and in `tests/pipeline_lockstep.rs` pin
//! that guarantee. If a caller deviates from the predicted cadence the
//! pipeline composes the mispredicted epoch with a fresh one (see
//! [`compose_deltas`]/[`compose_diffs`]), so even off-cadence callers observe
//! a correct cumulative change stream.
//!
//! # Multi-tenancy
//!
//! One pipeline can drive N independent tenants
//! ([`EpochCompute::set_tenant_count`]). Every tenant flies the same
//! constellation, so the network programme — a function of the path matrix
//! alone — is the same for all of them: propagation, snapshot diff, path
//! solve *and* the programme walk run once per epoch, and every tenant reads
//! the one [`TenantEpoch`] of the bundle. What differs per tenant (machines,
//! network planes, faults) lives in the testbed, which applies the shared
//! delta to each tenant's own plane. The tenants=1 case is the degenerate
//! solo testbed and runs the same code. See `docs/TENANTS.md` for the
//! shared/tenant split.
//!
//! `docs/PIPELINE.md` is the user-facing guide: epoch lifecycle, handover
//! contract and the `pipeline` configuration key.

use crate::netprog::ProgrammeStore;
use celestial_constellation::snapshot::MachineActivity;
use celestial_constellation::{
    Constellation, ConstellationDiff, ConstellationSnapshot, ConstellationState, PathEngine,
    ScopeParams, ShortestPaths, SolveScope, SolveStats, StateBuffers,
};
use celestial_netem::{PairProgram, ProgrammeDelta, ShardPlan};
use celestial_types::ids::{NodeId, TenantId};
use celestial_types::time::{SimDuration, SimInstant};
use celestial_types::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// How epoch computation is scheduled relative to the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PipelineMode {
    /// Compute each epoch inline at its boundary (the seed behaviour): the
    /// event loop stalls for the full constellation calculation.
    #[default]
    Synchronous,
    /// Precompute the next epoch on a background worker thread while the
    /// current epoch's events play; the boundary handover is a channel
    /// receive of an already finished bundle.
    Pipelined,
}

impl PipelineMode {
    /// Every mode, in documentation order — the single source of truth for
    /// configuration parsing and error messages.
    pub const ALL: [PipelineMode; 2] = [PipelineMode::Synchronous, PipelineMode::Pipelined];

    /// The configuration-file spelling of the mode (the value accepted by
    /// the `pipeline` TOML key; see `docs/PIPELINE.md`).
    pub fn name(&self) -> &'static str {
        match self {
            PipelineMode::Synchronous => "synchronous",
            PipelineMode::Pipelined => "pipelined",
        }
    }
}

/// Runtime statistics of the epoch pipeline, surfaced through the `/info`
/// route (`pipeline*` fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// The configured mode.
    pub mode: PipelineMode,
    /// Epoch bundles handed over so far.
    pub handovers: u64,
    /// Handovers served from a background precompute (always 0 in
    /// synchronous mode; in pipelined mode everything after the cold first
    /// epoch should count here).
    pub precomputed: u64,
    /// Precomputed epochs whose time did not match the requested boundary
    /// (the caller deviated from the update cadence); the pipeline composed
    /// the mispredicted epoch with a fresh one.
    pub mispredicted: u64,
    /// Wall-clock nanoseconds the most recent handover blocked the event
    /// loop (synchronous mode: the full inline compute time).
    pub last_wait_ns: u64,
    /// Total wall-clock nanoseconds spent blocked at epoch boundaries.
    pub total_wait_ns: u64,
    /// How long the most recent precomputed bundle sat finished before the
    /// boundary arrived (the precompute lead; 0 when the loop had to wait).
    pub last_lead_ns: u64,
    /// Total precompute lead across all handovers.
    pub total_lead_ns: u64,
}

/// Summary of the scale-aware solve scope of one epoch, surfaced through
/// the `/info` route (`scope*` fields). See `docs/MEGASCALE.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeReport {
    /// Satellites inside the (unexpanded) bounding box this epoch — the
    /// microVMs that are actually live.
    pub active_satellites: usize,
    /// The `area_fraction`-predicted active satellite count (the resource
    /// estimator's expectation), for comparison against the observed value.
    pub predicted_satellites: usize,
    /// Satellites inside the margin-expanded solve scope.
    pub scope_satellites: usize,
    /// Rows the scoped solve ran (scope satellites + ground stations +
    /// k-nearest neighbourhoods + landmarks).
    pub sources: usize,
    /// Nodes every solved row is guaranteed exact for (active satellites +
    /// ground stations — the programme sources).
    pub required: usize,
    /// Landmark rows solved fully for the one-shot fallback's ALT heuristic.
    pub landmarks: usize,
    /// Total nodes settled across all bounded row solves (the work the
    /// scope actually did; a full solve would settle `sources × nodes`).
    pub settled: u64,
}

/// The immutable tenant-shared half of one epoch: everything that is a
/// function of the constellation alone, computed **once** per epoch no
/// matter how many tenants the pipeline serves, and shared behind an [`Arc`]
/// so per-tenant snapshot views are reference-counted, not copied.
#[derive(Debug, Clone)]
pub struct SharedEpoch {
    /// The epoch time in simulated seconds.
    pub t_seconds: f64,
    /// The computed constellation state.
    pub state: ConstellationState,
    /// The solved path matrix (ground stations + active satellites rows).
    pub paths: ShortestPaths,
    /// The machine change set relative to the previous epoch: machines to
    /// boot, suspend or resume. Links are shaped from the programme delta.
    pub diff: ConstellationDiff,
    /// How the path solve was executed.
    pub solve: SolveStats,
    /// The solve scope of this epoch (all zeros for unscoped solves).
    pub scope: ScopeReport,
    /// Wall-clock nanoseconds the computation took (propagation, solve and
    /// programme walk).
    pub compute_ns: u64,
    /// When the computation finished (drives the precompute-lead statistic).
    finished_at: Instant,
}

/// The programme half of one epoch: the network-programme change set the
/// [`ProgrammeStore`] derived from the shared path matrix. One per epoch,
/// read by every tenant. Buffers are recycled epoch-to-epoch via
/// `clone_from`.
#[derive(Debug, Clone, Default)]
pub struct TenantEpoch {
    /// The network-programme change set relative to the previous epoch.
    pub delta: ProgrammeDelta,
    /// The per-host partition of `delta`, indexed by host — empty unless
    /// the computation runs with a [`ShardPlan`] (see `docs/SHARDING.md`).
    pub host_deltas: Vec<ProgrammeDelta>,
    /// Number of pairs owned by each shard after this epoch (empty without
    /// a shard plan).
    pub shard_pairs: Vec<usize>,
    /// The programme epoch this change set leads to (1 for the first).
    pub programme_epoch: u64,
    /// Number of pairs in the full programme after this epoch.
    pub programme_pairs: usize,
}

/// One epoch's complete handover unit: the [`Arc`]-shared immutable core
/// plus the [`TenantEpoch`] every tenant reads, produced by [`EpochCompute`]
/// and recycled between producer and consumer so the steady state allocates
/// nothing.
///
/// Bundles handed out by the pipeline always hold the *only* strong
/// reference to their core — recycling reuses it via [`Arc::get_mut`] and
/// mints a fresh core only when a consumer kept a clone of the `Arc` alive.
#[derive(Debug)]
pub struct EpochBundle {
    /// The tenant-shared immutable core of the epoch.
    pub shared: Arc<SharedEpoch>,
    /// The programme change set, shared by every tenant.
    pub programme: TenantEpoch,
    /// Number of tenants reading `programme` (at least 1).
    tenant_count: usize,
}

impl EpochBundle {
    /// The epoch time in simulated seconds.
    pub fn t_seconds(&self) -> f64 {
        self.shared.t_seconds
    }

    /// Number of tenants this bundle fans out to (at least 1).
    pub fn tenant_count(&self) -> usize {
        self.tenant_count
    }

    /// The change set of one tenant: the shared [`EpochBundle::programme`].
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn tenant(&self, tenant: TenantId) -> &TenantEpoch {
        assert!(
            tenant.index() < self.tenant_count,
            "{tenant} out of range for a {}-tenant bundle",
            self.tenant_count
        );
        &self.programme
    }
}

/// The deterministic epoch computation: constellation state, path solve and
/// programme delta, with all epoch-to-epoch caches (previous snapshot,
/// path engine, retained programme) owned here so the whole
/// computation can move onto a background worker thread.
#[derive(Debug)]
pub struct EpochCompute {
    constellation: Constellation,
    buffers: StateBuffers,
    previous: Option<ConstellationSnapshot>,
    engine: PathEngine,
    /// The retained programme. Tenants share the constellation and hence
    /// the path matrix, so one walk serves every tenant.
    store: ProgrammeStore,
    tenant_count: usize,
    sources: Vec<u32>,
    /// The reusable scale-aware solve scope (see `docs/MEGASCALE.md`): the
    /// solve runs over the margin-expanded bounding box plus per-ground-
    /// station neighbourhoods instead of every row the full solve would.
    scope: SolveScope,
    scope_params: ScopeParams,
}

impl EpochCompute {
    /// Creates the computation for a constellation with as many propagation
    /// worker threads as the machine offers.
    pub fn new(constellation: Constellation) -> Self {
        let buffers = StateBuffers::new();
        Self::with_buffers(constellation, buffers)
    }

    /// Creates the computation with an explicit propagation worker-thread
    /// count (1 reproduces the seed's serial per-satellite loop).
    pub fn with_threads(constellation: Constellation, threads: usize) -> Self {
        Self::with_buffers(constellation, StateBuffers::with_threads(threads))
    }

    fn with_buffers(constellation: Constellation, buffers: StateBuffers) -> Self {
        let engine = PathEngine::new(constellation.path_algorithm());
        // The programme walk's metric phase fans out over the same worker
        // budget as propagation; the recorded delta is bit-identical for
        // every thread count.
        let mut store = ProgrammeStore::new();
        store.set_threads(buffers.threads());
        EpochCompute {
            constellation,
            buffers,
            previous: None,
            engine,
            store,
            tenant_count: 1,
            sources: Vec::new(),
            scope: SolveScope::new(),
            scope_params: ScopeParams::default(),
        }
    }

    /// Overrides the scale-aware solve-scope parameters (bounding-box margin,
    /// per-ground-station neighbourhood size, ALT landmark count). Takes
    /// effect from the next epoch; the scoped solve is bit-identical to a
    /// full solve on every row the programme reads for *any* parameter
    /// choice, so this tunes cost, never results.
    pub fn set_scope_params(&mut self, params: ScopeParams) {
        self.scope_params = params;
    }

    /// Enables host-sharded programme partitioning: every epoch additionally
    /// emits one [`ProgrammeDelta`] per host. Must be called before the
    /// first epoch (see
    /// [`crate::netprog::ProgrammeStore::set_shard_plan`]).
    pub fn set_shard_plan(&mut self, plan: Option<ShardPlan>) {
        self.store.set_shard_plan(plan);
    }

    /// Fans every epoch out to `count` tenants: propagation, path solve and
    /// programme walk still run once, and every tenant reads the bundle's
    /// one [`TenantEpoch`].
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, or after the first epoch — the tenant set
    /// is part of the programme's identity, like the shard plan.
    pub fn set_tenant_count(&mut self, count: usize) {
        assert!(count >= 1, "an epoch computation serves at least one tenant");
        assert!(
            self.store.epoch() == 0,
            "the tenant count must be fixed before the first epoch"
        );
        self.tenant_count = count;
    }

    /// Number of tenants this computation fans out to (at least 1).
    pub fn tenant_count(&self) -> usize {
        self.tenant_count
    }

    /// Runs one epoch at `t_seconds`: batch propagation into the retained
    /// buffers, snapshot diff, source-restricted path solve and programme
    /// delta. Returns the machine diff; the remaining results stay inside
    /// (`state`, `paths`, and the `delta` that shapes the links, …) for
    /// bundling.
    ///
    /// # Errors
    ///
    /// Returns an error if the orbital propagation fails; the epoch-to-epoch
    /// caches are only advanced on success, so a failed epoch can be retried.
    pub fn compute(&mut self, t_seconds: f64) -> Result<ConstellationDiff> {
        // Propagation is the only fallible step; everything below is
        // infallible, so an error here leaves the previous epoch's caches
        // untouched.
        self.constellation.state_at_into(t_seconds, &mut self.buffers)?;
        let state = self.buffers.state().expect("state was just computed");

        let snapshot = ConstellationSnapshot::from_state(state);
        let diff = match &self.previous {
            Some(previous) => previous.diff(&snapshot),
            None => ConstellationSnapshot::default().diff(&snapshot),
        };
        self.previous = Some(snapshot);

        // Solve shortest paths for the rows the coordinator actually needs:
        // every active satellite and every ground station. Suspended
        // satellites carry traffic *on* paths but never originate a
        // programmed pair, so their rows are skipped. Node indices put
        // satellites before ground stations and `active_satellites` ascends,
        // so `sources` is strictly ascending — the order the programme store
        // requires.
        self.sources.clear();
        for sat in state.active_satellites() {
            self.sources
                .push(state.node_index(NodeId::Satellite(sat))? as u32);
        }
        for gst in 0..state.ground_station_count() as u32 {
            self.sources
                .push(state.node_index(NodeId::ground_station(gst))? as u32);
        }
        // The scale-aware scoped solve: derive the solve scope from the
        // bounding box (margin-expanded, plus per-ground-station
        // neighbourhoods and ALT landmarks) and run bounded rows that are
        // bit-identical to full rows on every programme source — the
        // property-tested exactness contract (`docs/MEGASCALE.md`).
        let bounding_box = self.constellation.bounding_box();
        self.scope.derive(state, &bounding_box, &self.scope_params);
        self.engine.solve_scope(state.graph(), &self.scope);
        let paths = self.engine.paths().expect("paths were just solved");
        self.store.update_epoch(state, paths, &self.sources);
        Ok(diff)
    }

    /// The state of the most recent successful epoch.
    pub fn state(&self) -> Option<&ConstellationState> {
        self.buffers.state()
    }

    /// The path matrix of the most recent successful epoch.
    pub fn paths(&self) -> Option<&ShortestPaths> {
        self.engine.paths()
    }

    /// The programme delta of the most recent epoch.
    pub fn delta(&self) -> &ProgrammeDelta {
        self.store.delta()
    }

    /// Statistics of the most recent path solve.
    pub fn last_solve(&self) -> SolveStats {
        self.engine.last_solve()
    }

    /// The solve scope of the most recent epoch, as surfaced through `/info`
    /// (all zeros before the first epoch).
    pub fn scope_report(&self) -> ScopeReport {
        let stats = self.engine.last_solve();
        let total = self.buffers.state().map_or(0, |s| s.satellite_count());
        let predicted =
            (self.constellation.bounding_box().area_fraction() * total as f64).round() as usize;
        ScopeReport {
            active_satellites: self.scope.active_satellites(),
            predicted_satellites: predicted,
            scope_satellites: self.scope.scope_satellites(),
            sources: stats.scope_sources,
            required: stats.scope_required,
            landmarks: stats.scope_landmarks,
            settled: stats.scope_settled,
        }
    }

    /// Computes one epoch and packages the results into a (possibly
    /// recycled) bundle. The returned bundle always holds the only strong
    /// reference to its shared core: recycling reuses the core in place via
    /// [`Arc::get_mut`] and falls back to a fresh core only when a consumer
    /// kept a clone of the `Arc` alive.
    fn compute_bundle(
        &mut self,
        t_seconds: f64,
        recycled: Option<Box<EpochBundle>>,
    ) -> Result<Box<EpochBundle>> {
        let started = Instant::now();
        let diff = self.compute(t_seconds)?;
        let compute_ns = started.elapsed().as_nanos() as u64;
        let state = self.state().expect("state was just computed");
        let paths = self.paths().expect("paths were just solved");
        let solve = self.last_solve();
        let scope = self.scope_report();
        let mut bundle = match recycled {
            Some(mut bundle) => {
                match Arc::get_mut(&mut bundle.shared) {
                    Some(shared) => {
                        shared.t_seconds = t_seconds;
                        shared.state.clone_from(state);
                        shared.paths.clone_from(paths);
                        shared.diff = diff;
                        shared.solve = solve;
                        shared.scope = scope;
                        shared.compute_ns = compute_ns;
                        shared.finished_at = Instant::now();
                    }
                    // A consumer still holds a view of the recycled core
                    // (e.g. a retained snapshot): mint a fresh one so the
                    // uniqueness invariant is re-established.
                    None => {
                        bundle.shared = Arc::new(SharedEpoch {
                            t_seconds,
                            state: state.clone(),
                            paths: paths.clone(),
                            diff,
                            solve,
                            scope,
                            compute_ns,
                            finished_at: Instant::now(),
                        });
                    }
                }
                bundle
            }
            None => Box::new(EpochBundle {
                shared: Arc::new(SharedEpoch {
                    t_seconds,
                    state: state.clone(),
                    paths: paths.clone(),
                    diff,
                    solve,
                    scope,
                    compute_ns,
                    finished_at: Instant::now(),
                }),
                programme: TenantEpoch::default(),
                tenant_count: 0,
            }),
        };
        bundle.tenant_count = self.tenant_count;
        let out = &mut bundle.programme;
        out.delta.clone_from(self.store.delta());
        clone_deltas_into(&mut out.host_deltas, self.store.host_deltas());
        out.shard_pairs.clear();
        out.shard_pairs.extend_from_slice(self.store.shard_pair_counts());
        out.programme_epoch = self.store.epoch();
        out.programme_pairs = self.store.pair_count();
        Ok(bundle)
    }
}

/// A request to the background worker: compute the epoch at `t`, reusing
/// `recycled` as the output bundle if provided.
struct WorkerRequest {
    t_seconds: f64,
    recycled: Option<Box<EpochBundle>>,
}

/// The epoch scheduling policy: synchronous inline computation or background
/// precompute with boundary handover.
///
/// # Examples
///
/// ```
/// use celestial::pipeline::{EpochCompute, EpochPipeline, PipelineMode};
/// use celestial_constellation::{Constellation, Shell};
/// use celestial_types::time::SimDuration;
///
/// let constellation = Constellation::builder()
///     .shell(Shell::from_walker(celestial_sgp4::WalkerShell::new(550.0, 53.0, 2, 4)))
///     .build()
///     .unwrap();
/// let compute = EpochCompute::new(constellation);
/// let mut pipeline = EpochPipeline::new(compute, PipelineMode::Pipelined, SimDuration::from_secs(2));
/// // Epoch 0 is computed on demand; epoch 2 s is precomputed in the
/// // background while the caller plays epoch 0's events.
/// let bundle = pipeline.advance(0.0).unwrap();
/// assert_eq!(bundle.t_seconds(), 0.0);
/// pipeline.recycle(bundle);
/// let bundle = pipeline.advance(2.0).unwrap();
/// assert_eq!(bundle.programme.programme_epoch, 2);
/// assert_eq!(pipeline.stats().precomputed, 1);
/// # pipeline.recycle(bundle);
/// ```
#[derive(Debug)]
pub struct EpochPipeline {
    interval: SimDuration,
    stats: PipelineStats,
    /// A consumed bundle awaiting reuse by the next computation.
    spare: Option<Box<EpochBundle>>,
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Synchronous {
        compute: Box<EpochCompute>,
    },
    Pipelined {
        requests: mpsc::Sender<WorkerRequest>,
        results: mpsc::Receiver<Result<Box<EpochBundle>>>,
        /// The epoch time the worker is (or will be) computing, if any.
        pending_t: Option<f64>,
        worker: Option<std::thread::JoinHandle<()>>,
    },
}

impl std::fmt::Debug for WorkerRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerRequest")
            .field("t_seconds", &self.t_seconds)
            .field("recycled", &self.recycled.is_some())
            .finish()
    }
}

impl EpochPipeline {
    /// Creates a pipeline over the given computation. In
    /// [`PipelineMode::Pipelined`] the computation moves onto a background
    /// worker thread; `interval` is the cadence used to predict the next
    /// epoch boundary after each handover.
    pub fn new(compute: EpochCompute, mode: PipelineMode, interval: SimDuration) -> Self {
        let inner = match mode {
            PipelineMode::Synchronous => Inner::Synchronous {
                compute: Box::new(compute),
            },
            PipelineMode::Pipelined => {
                let (request_tx, request_rx) = mpsc::channel::<WorkerRequest>();
                let (result_tx, result_rx) = mpsc::channel::<Result<Box<EpochBundle>>>();
                let worker = std::thread::Builder::new()
                    .name("epoch-pipeline".to_owned())
                    .spawn(move || worker_loop(compute, request_rx, result_tx))
                    .expect("spawn epoch-pipeline worker");
                Inner::Pipelined {
                    requests: request_tx,
                    results: result_rx,
                    pending_t: None,
                    worker: Some(worker),
                }
            }
        };
        EpochPipeline {
            interval,
            stats: PipelineStats {
                mode,
                ..PipelineStats::default()
            },
            spare: None,
            inner,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> PipelineMode {
        self.stats.mode
    }

    /// Runtime statistics (handover wait, precompute lead, mispredictions).
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Hands the epoch at `t_seconds` over to the caller.
    ///
    /// Synchronous mode computes it inline. Pipelined mode serves the
    /// precomputed bundle when the prediction matched (blocking only for
    /// whatever computation is still outstanding) and immediately schedules
    /// the precompute of `t_seconds + interval`; a mispredicted epoch is
    /// composed with a freshly computed one so the cumulative change stream
    /// stays correct.
    ///
    /// Callers should hand consumed bundles back via
    /// [`EpochPipeline::recycle`] so the steady state allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates orbital-propagation failures and reports a dead worker
    /// thread as [`Error::Application`].
    pub fn advance(&mut self, t_seconds: f64) -> Result<Box<EpochBundle>> {
        let wait_start = Instant::now();
        let mut spare = self.spare.take();
        let interval = self.interval;
        let mut precomputed = false;
        let bundle = match &mut self.inner {
            Inner::Synchronous { compute } => compute.compute_bundle(t_seconds, spare.take())?,
            Inner::Pipelined {
                requests,
                results,
                pending_t,
                ..
            } => {
                let bundle = match pending_t.take() {
                    // The prediction matched: the boundary handover is a
                    // channel receive of (ideally) an already finished
                    // bundle.
                    Some(predicted) if predicted == t_seconds => {
                        let bundle = recv_bundle(results)?;
                        self.stats.precomputed += 1;
                        precomputed = true;
                        bundle
                    }
                    // The caller deviated from the cadence. The worker's
                    // epoch caches have already advanced through the
                    // mispredicted epoch, so its change sets must not be
                    // lost: compose them with a fresh epoch at the
                    // requested time.
                    Some(_) => {
                        let stale = recv_bundle(results)?;
                        send_request(requests, t_seconds, spare.take())?;
                        let fresh = recv_bundle(results)?;
                        self.stats.mispredicted += 1;
                        compose_bundles(stale, fresh)
                    }
                    // Cold start: nothing precomputed yet.
                    None => {
                        send_request(requests, t_seconds, spare.take())?;
                        recv_bundle(results)?
                    }
                };
                // Schedule the precompute of the predicted next boundary,
                // shipping the caller's recycled bundle (if any is still
                // unused) to the worker for reuse. The prediction runs
                // through `SimInstant` micros so it is bit-identical to the
                // testbed's own event arithmetic.
                let next = (SimInstant::from_secs_f64(t_seconds) + interval).as_secs_f64();
                send_request(requests, next, spare.take())?;
                *pending_t = Some(next);
                bundle
            }
        };
        self.record_handover(wait_start, &bundle, precomputed);
        Ok(bundle)
    }

    /// Returns a consumed bundle's buffers for reuse by a later computation.
    pub fn recycle(&mut self, bundle: Box<EpochBundle>) {
        self.spare = Some(bundle);
    }

    fn record_handover(&mut self, wait_start: Instant, bundle: &EpochBundle, precomputed: bool) {
        let wait_ns = wait_start.elapsed().as_nanos() as u64;
        // Lead: how long the bundle sat finished before this boundary. Only
        // meaningful for precomputed handovers; inline computes finish the
        // moment the wait ends.
        let lead_ns = if precomputed {
            (bundle.shared.finished_at.elapsed().as_nanos() as u64).saturating_sub(wait_ns)
        } else {
            0
        };
        self.stats.handovers += 1;
        self.stats.last_wait_ns = wait_ns;
        self.stats.total_wait_ns += wait_ns;
        self.stats.last_lead_ns = lead_ns;
        self.stats.total_lead_ns += lead_ns;
    }
}

impl Drop for EpochPipeline {
    fn drop(&mut self) {
        if let Inner::Pipelined {
            requests, worker, ..
        } = &mut self.inner
        {
            // Replace the sender with a dangling one so the worker's receive
            // loop ends, then reap the thread.
            let (dangling, _) = mpsc::channel();
            drop(std::mem::replace(requests, dangling));
            if let Some(handle) = worker.take() {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(
    mut compute: EpochCompute,
    requests: mpsc::Receiver<WorkerRequest>,
    results: mpsc::Sender<Result<Box<EpochBundle>>>,
) {
    while let Ok(request) = requests.recv() {
        let outcome = compute.compute_bundle(request.t_seconds, request.recycled);
        if results.send(outcome).is_err() {
            break;
        }
    }
}

fn send_request(
    requests: &mpsc::Sender<WorkerRequest>,
    t_seconds: f64,
    recycled: Option<Box<EpochBundle>>,
) -> Result<()> {
    requests
        .send(WorkerRequest { t_seconds, recycled })
        .map_err(|_| Error::Application("epoch-pipeline worker terminated".to_owned()))
}

fn recv_bundle(
    results: &mpsc::Receiver<Result<Box<EpochBundle>>>,
) -> Result<Box<EpochBundle>> {
    results
        .recv()
        .map_err(|_| Error::Application("epoch-pipeline worker terminated".to_owned()))?
}

/// Composes two consecutive epoch bundles into one, as if the first epoch
/// had never been observed separately: the final state is the second
/// bundle's, the change sets — machine diff and the programme delta that
/// shapes the links — are the composition of both.
fn compose_bundles(first: Box<EpochBundle>, second: Box<EpochBundle>) -> Box<EpochBundle> {
    let mut bundle = second;
    {
        // Both bundles come straight from `compute_bundle`, whose contract
        // guarantees a uniquely owned core.
        let shared = Arc::get_mut(&mut bundle.shared)
            .expect("bundle cores are uniquely owned until handover");
        shared.diff = compose_diffs(&first.shared.diff, &shared.diff);
        shared.compute_ns += first.shared.compute_ns;
    }
    // Both bundles come from the same computation, so their host vectors
    // always have the same length.
    let (out, prior) = (&mut bundle.programme, &first.programme);
    out.delta = compose_deltas(&prior.delta, &out.delta);
    out.host_deltas = prior
        .host_deltas
        .iter()
        .zip(&out.host_deltas)
        .map(|(a, b)| compose_deltas(a, b))
        .collect();
    bundle
}

/// Clone-from semantics for a retained vector of per-host deltas: refresh in
/// place without re-allocating the change-set vectors in steady state.
fn clone_deltas_into(dst: &mut Vec<ProgrammeDelta>, src: &[ProgrammeDelta]) {
    dst.resize_with(src.len(), ProgrammeDelta::default);
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
}

/// Composes two consecutive machine change sets: applying the result to a
/// snapshot is equivalent to applying `first` then `second`, with
/// transitions that cancel out (activated → suspended) dropped entirely.
/// Links are not in these change sets; their composition is
/// [`compose_deltas`] over the programme deltas.
pub fn compose_diffs(first: &ConstellationDiff, second: &ConstellationDiff) -> ConstellationDiff {
    let mut out = ConstellationDiff {
        time_seconds: second.time_seconds,
        ..ConstellationDiff::default()
    };

    // Per node: its activity before the window (`None` if it was added in
    // the window) and its final activity. The first change seen for a node
    // reveals its pre-window activity (`activated` ⇒ it was suspended,
    // `suspended` ⇒ it was active).
    use MachineActivity::{Active, Suspended};
    let mut machines: BTreeMap<NodeId, (Option<MachineActivity>, MachineActivity)> =
        BTreeMap::new();
    for diff in [first, second] {
        let added = diff.machines_added.iter().map(|&(node, activity)| (node, None, activity));
        let activated = diff.activated.iter().map(|&node| (node, Some(Suspended), Active));
        let suspended = diff.suspended.iter().map(|&node| (node, Some(Active), Suspended));
        for (node, prior, fin) in added.chain(activated).chain(suspended) {
            machines.entry(node).or_insert((prior, fin)).1 = fin;
        }
    }
    for (node, (prior, fin)) in machines {
        match (prior, fin) {
            (None, _) => out.machines_added.push((node, fin)),
            (Some(Suspended), Active) => out.activated.push(node),
            (Some(Active), Suspended) => out.suspended.push(node),
            // Round trips cancel.
            (Some(_), _) => {}
        }
    }
    out
}

/// Composes two consecutive programme deltas: applying the result to a rule
/// table is equivalent to applying `first` then `second`. Pairs that are
/// added and removed within the window vanish; pairs that existed before and
/// end re-programmed come out as `changed`.
pub fn compose_deltas(first: &ProgrammeDelta, second: &ProgrammeDelta) -> ProgrammeDelta {
    #[derive(Clone, Copy)]
    struct PairTrack {
        was_programmed: bool,
        fin: Option<PairProgram>, // None = removed
    }
    let mut pairs: BTreeMap<(NodeId, NodeId), PairTrack> = BTreeMap::new();
    for delta in [first, second] {
        for pair in &delta.added {
            pairs
                .entry((pair.a, pair.b))
                .and_modify(|t| t.fin = Some(*pair))
                .or_insert(PairTrack { was_programmed: false, fin: Some(*pair) });
        }
        for pair in &delta.changed {
            pairs
                .entry((pair.a, pair.b))
                .and_modify(|t| t.fin = Some(*pair))
                .or_insert(PairTrack { was_programmed: true, fin: Some(*pair) });
        }
        for &(a, b) in &delta.removed {
            pairs
                .entry((a, b))
                .and_modify(|t| t.fin = None)
                .or_insert(PairTrack { was_programmed: true, fin: None });
        }
    }
    let mut out = ProgrammeDelta {
        epoch: second.epoch,
        ..ProgrammeDelta::default()
    };
    for ((a, b), track) in pairs {
        match (track.was_programmed, track.fin) {
            (false, Some(program)) => out.added.push(program),
            (false, None) => {}
            (true, None) => out.removed.push((a, b)),
            (true, Some(program)) => out.changed.push(program),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::{BoundingBox, GroundStation, Shell};
    use celestial_sgp4::WalkerShell;
    use celestial_types::geo::Geodetic;
    use celestial_types::{Bandwidth, Latency};

    fn constellation() -> Constellation {
        Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap()
    }

    type Programme = BTreeMap<(NodeId, NodeId), (Latency, Bandwidth)>;

    /// Replays one change set onto a full-programme mirror.
    fn apply(map: &mut Programme, delta: &ProgrammeDelta) {
        for p in delta.added.iter().chain(&delta.changed) {
            map.insert((p.a, p.b), (p.latency, p.bandwidth));
        }
        for pair in &delta.removed {
            map.remove(pair);
        }
    }

    fn program(a: u32, b: u32, ms: f64, mbps: u64) -> PairProgram {
        PairProgram {
            a: NodeId::ground_station(a),
            b: NodeId::ground_station(b),
            latency: Latency::from_millis_f64(ms),
            bandwidth: Bandwidth::from_mbps(mbps),
        }
    }

    #[test]
    fn pipelined_bundles_are_bit_identical_to_synchronous_ones() {
        let interval = SimDuration::from_secs(2);
        let mut sync =
            EpochPipeline::new(EpochCompute::new(constellation()), PipelineMode::Synchronous, interval);
        let mut pipe =
            EpochPipeline::new(EpochCompute::new(constellation()), PipelineMode::Pipelined, interval);
        let mut t = SimInstant::EPOCH;
        for epoch in 0..12 {
            let a = sync.advance(t.as_secs_f64()).expect("sync epoch");
            let b = pipe.advance(t.as_secs_f64()).expect("pipelined epoch");
            assert_eq!(a.t_seconds(), b.t_seconds(), "epoch {epoch}");
            assert_eq!(a.shared.state, b.shared.state, "state diverged at epoch {epoch}");
            assert_eq!(a.shared.paths, b.shared.paths, "paths diverged at epoch {epoch}");
            assert_eq!(a.shared.diff, b.shared.diff, "diff diverged at epoch {epoch}");
            assert_eq!(a.programme.delta, b.programme.delta, "delta diverged at epoch {epoch}");
            assert_eq!(a.shared.solve, b.shared.solve, "solve stats diverged at epoch {epoch}");
            assert_eq!(a.programme.programme_epoch, b.programme.programme_epoch);
            assert_eq!(a.programme.programme_pairs, b.programme.programme_pairs);
            sync.recycle(a);
            pipe.recycle(b);
            t = t + interval;
        }
        // Every epoch after the cold start was served from the precompute.
        assert_eq!(pipe.stats().precomputed, 11);
        assert_eq!(pipe.stats().mispredicted, 0);
        assert_eq!(pipe.stats().handovers, 12);
        assert_eq!(sync.stats().precomputed, 0);
    }

    #[test]
    fn mispredicted_epochs_compose_into_a_correct_change_stream() {
        // The pipelined caller deviates from the 2 s cadence at the third
        // boundary; the synchronous reference is fed the exact same epoch
        // sequence the worker actually computed (0, 2, then the prefetched 4
        // composed with 1.25).
        let interval = SimDuration::from_secs(2);
        let mut pipe =
            EpochPipeline::new(EpochCompute::new(constellation()), PipelineMode::Pipelined, interval);
        let mut sync =
            EpochPipeline::new(EpochCompute::new(constellation()), PipelineMode::Synchronous, interval);

        let mut replayed = Programme::new();
        let mut reference = Programme::new();

        for t in [0.0, 2.0, 1.25] {
            let bundle = pipe.advance(t).expect("pipelined epoch");
            apply(&mut replayed, &bundle.programme.delta);
            pipe.recycle(bundle);
        }
        for t in [0.0, 2.0, 4.0, 1.25] {
            let bundle = sync.advance(t).expect("sync epoch");
            apply(&mut reference, &bundle.programme.delta);
            sync.recycle(bundle);
        }
        assert_eq!(pipe.stats().mispredicted, 1);
        assert_eq!(replayed, reference, "composed change stream diverged");
    }

    #[test]
    fn mispredicted_epochs_compose_every_tenants_change_stream() {
        // Same off-cadence sequence, but with a 3-tenant fan-out: every
        // tenant's composed change stream must match the solo reference.
        let interval = SimDuration::from_secs(2);
        let mut fleet = EpochCompute::new(constellation());
        fleet.set_tenant_count(3);
        let mut pipe = EpochPipeline::new(fleet, PipelineMode::Pipelined, interval);
        let mut sync =
            EpochPipeline::new(EpochCompute::new(constellation()), PipelineMode::Synchronous, interval);

        let mut replayed = vec![Programme::new(); 3];
        let mut reference = Programme::new();

        for t in [0.0, 2.0, 1.25] {
            let bundle = pipe.advance(t).expect("pipelined epoch");
            assert_eq!(bundle.tenant_count(), 3);
            for (index, map) in replayed.iter_mut().enumerate() {
                apply(map, &bundle.tenant(TenantId(index as u32)).delta);
            }
            pipe.recycle(bundle);
        }
        for t in [0.0, 2.0, 4.0, 1.25] {
            let bundle = sync.advance(t).expect("sync epoch");
            apply(&mut reference, &bundle.programme.delta);
            sync.recycle(bundle);
        }
        assert_eq!(pipe.stats().mispredicted, 1);
        for (tenant, map) in replayed.iter().enumerate() {
            assert_eq!(map, &reference, "tenant {tenant} composed stream diverged");
        }
    }

    #[test]
    fn fanned_out_tenants_match_the_solo_programme() {
        // Identical per-tenant configuration ⇒ every tenant's change set is
        // the solo tenant's, epoch after epoch, off one shared solve.
        let mut solo = EpochCompute::new(constellation());
        let mut fleet = EpochCompute::new(constellation());
        fleet.set_tenant_count(4);
        assert_eq!(fleet.tenant_count(), 4);
        for step in 0..4 {
            let t = step as f64 * 2.0;
            let a = solo.compute_bundle(t, None).expect("solo epoch");
            let b = fleet.compute_bundle(t, None).expect("fleet epoch");
            assert_eq!(b.tenant_count(), 4);
            assert_eq!(a.shared.state, b.shared.state, "shared state diverged at t={t}");
            assert_eq!(a.shared.paths, b.shared.paths, "shared paths diverged at t={t}");
            for index in 0..4 {
                let tenant = b.tenant(TenantId(index));
                assert_eq!(
                    tenant.delta,
                    a.programme.delta,
                    "tenant {index} delta diverged at t={t}"
                );
                assert_eq!(tenant.programme_epoch, a.programme.programme_epoch);
                assert_eq!(tenant.programme_pairs, a.programme.programme_pairs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bundle_tenant_past_the_fleet_panics() {
        let mut fleet = EpochCompute::new(constellation());
        fleet.set_tenant_count(4);
        let bundle = fleet.compute_bundle(0.0, None).expect("fleet epoch");
        bundle.tenant(TenantId(4));
    }

    #[test]
    #[should_panic(expected = "before the first epoch")]
    fn changing_the_tenant_count_mid_life_panics() {
        let mut compute = EpochCompute::new(constellation());
        compute.compute(0.0).expect("epoch");
        compute.set_tenant_count(2);
    }

    #[test]
    fn compose_deltas_covers_every_transition() {
        let d1 = ProgrammeDelta {
            epoch: 3,
            added: vec![program(0, 1, 4.0, 100), program(0, 2, 6.0, 100)],
            changed: vec![program(0, 3, 5.0, 100)],
            removed: vec![(NodeId::ground_station(0), NodeId::ground_station(4))],
        };
        let d2 = ProgrammeDelta {
            epoch: 4,
            // Re-added after removal in d1 → net re-shape.
            added: vec![program(0, 4, 7.0, 100)],
            changed: vec![program(0, 1, 9.0, 100)],
            // (0, 2) was added in d1 → net invisible.
            removed: vec![(NodeId::ground_station(0), NodeId::ground_station(2))],
        };
        let composed = compose_deltas(&d1, &d2);
        assert_eq!(composed.epoch, 4);
        // (0,1): added then re-shaped → added with the final values.
        assert_eq!(composed.added, vec![program(0, 1, 9.0, 100)]);
        // (0,3): changed in d1, untouched in d2 → changed; (0,4): removed
        // then re-added → changed.
        assert_eq!(
            composed.changed,
            vec![program(0, 3, 5.0, 100), program(0, 4, 7.0, 100)]
        );
        assert!(composed.removed.is_empty());
    }

    #[test]
    fn compose_diffs_cancels_round_trips() {
        let sat_a = NodeId::satellite(0, 1);
        let sat_b = NodeId::satellite(0, 2);
        let sat_c = NodeId::satellite(1, 0);
        let d1 = ConstellationDiff {
            time_seconds: 2.0,
            machines_added: vec![(sat_c, MachineActivity::Active)],
            activated: vec![sat_a],
            suspended: vec![sat_b],
            ..ConstellationDiff::default()
        };
        let d2 = ConstellationDiff {
            time_seconds: 4.0,
            // sat_a round-trips back to suspended; sat_b comes back; the
            // freshly added sat_c leaves the box.
            activated: vec![sat_b],
            suspended: vec![sat_a, sat_c],
            ..ConstellationDiff::default()
        };
        let composed = compose_diffs(&d1, &d2);
        assert_eq!(composed.time_seconds, 4.0);
        // Both machine transitions cancel.
        assert!(composed.activated.is_empty(), "{:?}", composed.activated);
        assert!(composed.suspended.is_empty(), "{:?}", composed.suspended);
        // A machine added in the window is added with its final activity.
        assert_eq!(composed.machines_added, vec![(sat_c, MachineActivity::Suspended)]);
    }

    #[test]
    fn compose_diffs_keeps_net_transitions() {
        let sat = NodeId::satellite(0, 7);
        let d1 = ConstellationDiff {
            time_seconds: 2.0,
            suspended: vec![sat],
            ..ConstellationDiff::default()
        };
        let d2 = ConstellationDiff {
            time_seconds: 4.0,
            ..ConstellationDiff::default()
        };
        let composed = compose_diffs(&d1, &d2);
        assert_eq!(composed.suspended, vec![sat]);
        let composed = compose_diffs(&d2, &d1);
        assert_eq!(composed.suspended, vec![sat]);
        assert_eq!(composed.time_seconds, 2.0);
    }

    #[test]
    fn compose_is_equivalent_to_sequential_snapshot_application() {
        // Property check against the snapshot algebra: applying the composed
        // diff equals applying the two diffs in order.
        let c = constellation();
        let s0 = ConstellationSnapshot::from_state(&c.state_at(0.0).unwrap());
        let s1 = ConstellationSnapshot::from_state(&c.state_at(120.0).unwrap());
        let s2 = ConstellationSnapshot::from_state(&c.state_at(240.0).unwrap());
        let d01 = s0.diff(&s1);
        let d12 = s1.diff(&s2);
        let composed = compose_diffs(&d01, &d12);
        assert_eq!(s0.apply(&composed), s2);
        // The same from before the first epoch, when every machine is added.
        let empty = ConstellationSnapshot::default();
        let composed = compose_diffs(&empty.diff(&s1), &d12);
        assert_eq!(empty.apply(&composed), s2);
    }

    #[test]
    fn epoch_compute_is_deterministic_across_thread_counts() {
        // Bit-identical results regardless of the propagation fan-out: the
        // pipelined worker may see a different thread budget than a
        // synchronous caller, and it must not matter.
        let mut one = EpochCompute::with_threads(constellation(), 1);
        let mut many = EpochCompute::with_threads(constellation(), 5);
        for step in 0..4 {
            let t = step as f64 * 2.0;
            let d1 = one.compute(t).expect("epoch");
            let d2 = many.compute(t).expect("epoch");
            assert_eq!(d1, d2, "diff diverged at t={t}");
            assert_eq!(one.state(), many.state(), "state diverged at t={t}");
            assert_eq!(one.paths(), many.paths(), "paths diverged at t={t}");
            assert_eq!(one.delta(), many.delta(), "delta diverged at t={t}");
        }
    }

    #[test]
    fn recycled_bundles_rotate_through_the_pipelined_worker() {
        // Regression: the caller's recycled bundle must actually reach the
        // worker's prefetch, so the steady state rotates a fixed set of
        // bundle allocations instead of deep-cloning a fresh one per epoch.
        let interval = SimDuration::from_secs(2);
        let mut pipe =
            EpochPipeline::new(EpochCompute::new(constellation()), PipelineMode::Pipelined, interval);
        let mut seen: Vec<usize> = Vec::new();
        let mut cores: Vec<usize> = Vec::new();
        let mut t = SimInstant::EPOCH;
        for _ in 0..8 {
            let bundle = pipe.advance(t.as_secs_f64()).expect("epoch");
            assert_eq!(
                Arc::strong_count(&bundle.shared),
                1,
                "handed-over cores are uniquely owned"
            );
            seen.push(&*bundle as *const EpochBundle as usize);
            cores.push(Arc::as_ptr(&bundle.shared) as usize);
            pipe.recycle(bundle);
            t = t + interval;
        }
        // The first two epochs may mint fresh bundles (nothing recycled was
        // available yet when their computes were scheduled); from then on
        // the same allocations must rotate — the boxes and the shared cores
        // inside them alike.
        let steady: std::collections::BTreeSet<usize> = seen[2..].iter().copied().collect();
        assert!(
            steady.iter().all(|address| seen[..2].contains(address)),
            "steady-state epochs minted fresh bundles: {seen:?}"
        );
        let steady_cores: std::collections::BTreeSet<usize> = cores[2..].iter().copied().collect();
        assert!(
            steady_cores.iter().all(|address| cores[..2].contains(address)),
            "steady-state epochs minted fresh shared cores: {cores:?}"
        );
    }

    #[test]
    fn dropping_a_pipelined_pipeline_reaps_the_worker() {
        let mut pipe = EpochPipeline::new(
            EpochCompute::new(constellation()),
            PipelineMode::Pipelined,
            SimDuration::from_secs(2),
        );
        let bundle = pipe.advance(0.0).expect("epoch 0");
        pipe.recycle(bundle);
        // Dropping with a prefetch still in flight must not hang.
        drop(pipe);
    }
}

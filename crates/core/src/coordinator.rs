//! The Celestial coordinator.
//!
//! The coordinator is the central component of Celestial's architecture
//! (Fig. 2): it runs the Constellation Calculation at a fixed update
//! interval, keeps the information database current, diffs consecutive
//! states, and derives the per-pair network programming that the machine
//! managers on each host apply — as a [`ProgrammeDelta`] of only the rules
//! that actually changed (see `docs/NETPROG.md`).
//!
//! The epoch computation itself lives in [`crate::pipeline`]: the
//! coordinator owns an [`EpochPipeline`] and only *applies* the bundles it
//! hands over. In [`PipelineMode::Pipelined`] the next epoch is precomputed
//! on a background worker while the testbed plays the current epoch's
//! events — the paper's core overlap trick (see `docs/PIPELINE.md`).
//!
//! One coordinator can fan a single pipeline out to N tenants
//! ([`Coordinator::with_scoped_fanout`]). Tenants share the constellation,
//! so the orbital state, path matrix *and* network programme are computed
//! and installed once per update: the coordinator keeps one change set, one
//! per-host partition and one programme mirror, and the per-tenant accessors
//! check the tenant index and hand out that shared data. A single tenant is
//! the degenerate case and runs the same code (see `docs/TENANTS.md`).

use crate::database::{InfoDatabase, PipelineReport, ProgrammeStats};
use crate::pipeline::{EpochCompute, EpochPipeline, PipelineMode, PipelineStats, TenantEpoch};
use crate::snapshot::SnapshotStore;
use std::sync::Arc;
use celestial_constellation::{Constellation, ConstellationDiff, LinkKind, ScopeParams, SolveStats};
use celestial_netem::{ProgrammeDelta, ShardApplyReport, ShardPlan};
pub use celestial_netem::PairProgram;
use celestial_types::ids::{NodeId, TenantId};
use celestial_types::time::SimDuration;
use celestial_types::{Bandwidth, Latency, Result};
use std::collections::BTreeMap;

/// The central coordinator.
#[derive(Debug)]
pub struct Coordinator {
    /// The coordinator's own (immutable) copy of the constellation for
    /// accessors; the pipeline's computation owns another.
    constellation: Constellation,
    update_interval: SimDuration,
    database: InfoDatabase,
    pipeline: EpochPipeline,
    /// The change sets of the most recent update (full and per host),
    /// shared by every tenant.
    latest: TenantEpoch,
    /// The full programme, maintained by replaying each epoch's delta —
    /// `O(delta)` per update, so the pipelined mode never has to ship the
    /// full pair table across the worker boundary.
    programme: BTreeMap<(NodeId, NodeId), (Latency, Bandwidth)>,
    /// The host-sharding plan, when the programme is partitioned per host.
    shard_plan: Option<ShardPlan>,
    last_solve: SolveStats,
    updates: u64,
    /// When enabled, every update publishes an immutable snapshot of the
    /// database here for the lock-free serving plane (see `docs/SERVE.md`).
    snapshots: Option<Arc<SnapshotStore>>,
}

impl Coordinator {
    /// Creates a single-tenant coordinator for the given constellation with
    /// the given update interval, computing epochs synchronously at each
    /// boundary, without host sharding and with the default solve scope.
    pub fn new(constellation: Constellation, update_interval: SimDuration) -> Self {
        Self::with_scoped_fanout(
            constellation,
            update_interval,
            PipelineMode::Synchronous,
            None,
            vec!["tenant-0".to_owned()],
            ScopeParams::default(),
        )
    }

    /// Creates a coordinator with every option explicit:
    ///
    /// * `mode` — [`PipelineMode::Pipelined`] precomputes the next epoch on
    ///   a background worker between updates; results are bit-identical to
    ///   [`PipelineMode::Synchronous`] as long as updates follow the
    ///   `update_interval` cadence (and remain correct—composed—off cadence).
    /// * `shard_plan` — with a plan, every update additionally partitions the
    ///   programme delta into one per-host change set
    ///   ([`Coordinator::host_deltas`]), the slices each host's machine
    ///   manager applies locally (see `docs/SHARDING.md`).
    /// * `tenant_names` — one tenant per entry: the orbital propagation,
    ///   snapshot diff, path solve and programme walk run once per update,
    ///   and every tenant reads the same programme change stream
    ///   ([`Coordinator::programme_delta_for`]). Tenant names route
    ///   per-tenant info-API queries (see `docs/TENANTS.md`).
    /// * `scope_params` — the `[paths]` configuration table. The parameters
    ///   tune how much of the constellation each epoch's path solve covers —
    ///   never the results: every row the programme or a query reads is exact
    ///   for any setting (see `docs/MEGASCALE.md`).
    ///
    /// # Panics
    ///
    /// Panics if `tenant_names` is empty.
    pub fn with_scoped_fanout(
        constellation: Constellation,
        update_interval: SimDuration,
        mode: PipelineMode,
        shard_plan: Option<ShardPlan>,
        tenant_names: Vec<String>,
        scope_params: ScopeParams,
    ) -> Self {
        assert!(!tenant_names.is_empty(), "a coordinator serves at least one tenant");
        let mut database = InfoDatabase::new(
            constellation.shells().to_vec(),
            constellation.ground_stations().to_vec(),
        );
        // Seed the tenant names into the database before the first update
        // (and before the first snapshot), so tenant routing never 404s a
        // configured tenant.
        for (index, name) in tenant_names.iter().enumerate() {
            database.update_tenant_report(index, name, 0, 0);
        }
        let mut compute = EpochCompute::new(constellation.clone());
        compute.set_shard_plan(shard_plan);
        compute.set_tenant_count(tenant_names.len());
        compute.set_scope_params(scope_params);
        let pipeline = EpochPipeline::new(compute, mode, update_interval);
        Coordinator {
            constellation,
            update_interval,
            database,
            pipeline,
            latest: TenantEpoch::default(),
            programme: BTreeMap::new(),
            shard_plan,
            last_solve: SolveStats::default(),
            updates: 0,
            snapshots: None,
        }
    }

    /// Enables epoch-versioned snapshot publication and returns the store.
    /// From now on every [`Coordinator::update`] publishes the refreshed
    /// database as an immutable [`crate::snapshot::EpochSnapshot`] at the
    /// epoch boundary, so serving threads read lock-free (`docs/SERVE.md`).
    pub fn enable_snapshots(&mut self) -> Arc<SnapshotStore> {
        let store = self
            .snapshots
            .get_or_insert_with(|| Arc::new(SnapshotStore::new(self.database.clone())));
        Arc::clone(store)
    }

    /// The snapshot store, if [`Coordinator::enable_snapshots`] was called.
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.snapshots.as_ref()
    }

    /// The configured update interval.
    pub fn update_interval(&self) -> SimDuration {
        self.update_interval
    }

    /// The constellation driven by this coordinator.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// The information database (backing the info API and DNS).
    pub fn database(&self) -> &InfoDatabase {
        &self.database
    }

    /// Number of completed updates.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// The epoch-pipeline mode this coordinator runs with.
    pub fn pipeline_mode(&self) -> PipelineMode {
        self.pipeline.mode()
    }

    /// The host-sharding plan, if the programme is partitioned per host.
    pub fn shard_plan(&self) -> Option<ShardPlan> {
        self.shard_plan
    }

    /// The per-host partition of the most recent change set, indexed by
    /// host. Empty without a shard plan. Cross-host pairs appear in both
    /// endpoint slices; the union of all slices is exactly
    /// [`Coordinator::programme_delta`].
    pub fn host_deltas(&self) -> &[ProgrammeDelta] {
        &self.latest.host_deltas
    }

    /// Number of tenants this coordinator fans out to (at least 1).
    pub fn tenant_count(&self) -> usize {
        self.database.tenant_reports().len()
    }

    /// The configured tenant names, indexed by [`TenantId`].
    pub fn tenant_names(&self) -> impl Iterator<Item = &str> {
        self.database
            .tenant_reports()
            .iter()
            .map(|t| t.name.as_str())
    }

    /// One tenant's change set of the most recent update (the shared
    /// [`Coordinator::programme_delta`]).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn programme_delta_for(&self, tenant: TenantId) -> &ProgrammeDelta {
        self.check_tenant(tenant);
        &self.latest.delta
    }

    /// One tenant's per-host change-set partition of the most recent update
    /// (the shared [`Coordinator::host_deltas`]; empty without a shard plan).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn host_deltas_for(&self, tenant: TenantId) -> &[ProgrammeDelta] {
        self.check_tenant(tenant);
        &self.latest.host_deltas
    }

    fn check_tenant(&self, tenant: TenantId) {
        let count = self.tenant_count();
        assert!(
            tenant.index() < count,
            "{tenant} out of range for a {count}-tenant coordinator"
        );
    }

    /// Records what applying the sharded programme actually cost (per-shard
    /// apply times and the parallel wall time), surfacing it through the
    /// `/info` route. Called by the testbed after each parallel apply.
    pub fn record_shard_apply(&mut self, report: &ShardApplyReport) {
        self.database.set_shard_apply(&report.shard_ns, report.wall_ns);
    }

    /// Records the chaos engine's activity so the `/info` route can report
    /// it (`chaos_events`, `chaos_active_faults`, `links_suppressed`; see
    /// `docs/CHAOS.md`).
    pub fn record_chaos(&mut self, events: u64, active_faults: u64, links_suppressed: u64) {
        self.database.set_chaos(events, active_faults, links_suppressed);
    }

    /// Runtime statistics of the epoch pipeline (handover wait, precompute
    /// lead, mispredictions).
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// Runs one constellation update at `t_seconds` of simulated time and
    /// returns the change set relative to the previous update.
    ///
    /// The heavy lifting — propagation, path solve, programme delta — is the
    /// pipeline's: in pipelined mode this call usually just receives an
    /// already finished bundle and applies it (database refresh, programme
    /// replay, stats). The per-update `tc` change set is available from
    /// [`Coordinator::programme_delta`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns an error if the orbital propagation fails or the pipeline
    /// worker died.
    pub fn update(&mut self, t_seconds: f64) -> Result<ConstellationDiff> {
        let mut bundle = self.pipeline.advance(t_seconds)?;

        // Install the shared state and path matrix into the database's
        // retained buffers — once, no matter how many tenants: no allocation
        // in steady state.
        self.database.update_from(&bundle.shared.state);
        self.database.set_paths_from(&bundle.shared.paths);

        // Retain the shared change sets by swapping buffers with the bundle
        // (the recycled bundle refills the previous ones in place), replay
        // the delta onto the full-programme mirror and refresh every
        // tenant's `/info` slice.
        std::mem::swap(&mut self.latest, &mut bundle.programme);
        let latest = &self.latest;
        for pair in latest.delta.added.iter().chain(&latest.delta.changed) {
            self.programme
                .insert((pair.a, pair.b), (pair.latency, pair.bandwidth));
        }
        for pair in &latest.delta.removed {
            self.programme.remove(pair);
        }
        debug_assert_eq!(
            self.programme.len(),
            latest.programme_pairs,
            "programme mirror diverged from the store"
        );
        let delta_ops = latest.delta.op_count();
        self.database
            .set_tenant_programmes(latest.programme_pairs, delta_ops);
        if self.shard_plan.is_some() {
            self.database.set_shard_pairs(&latest.shard_pairs);
        }
        self.last_solve = bundle.shared.solve;
        self.updates += 1;
        self.database.set_programme_stats(ProgrammeStats {
            epoch: self.latest.programme_epoch,
            pairs: self.latest.programme_pairs,
            delta_ops,
        });
        self.database.set_pipeline_report(PipelineReport {
            stats: self.pipeline.stats(),
        });
        self.database.set_scope_report(bundle.shared.scope);

        if let Some(store) = &self.snapshots {
            store.publish(self.updates, &self.database);
        }

        let shared = Arc::get_mut(&mut bundle.shared)
            .expect("bundle cores are uniquely owned until handover");
        let diff = std::mem::take(&mut shared.diff);
        self.pipeline.recycle(bundle);
        Ok(diff)
    }

    /// Statistics about the most recent scoped shortest-path solve.
    pub fn last_path_solve(&self) -> SolveStats {
        self.last_solve
    }

    /// The change set produced by the most recent update, shared by every
    /// tenant: exactly the `tc` rules the machine managers must add, re-shape or
    /// tear down. Empty before the first update (and on steady-state updates
    /// that moved no pair across the 0.1 ms quantization threshold).
    pub fn programme_delta(&self) -> &ProgrammeDelta {
        &self.latest.delta
    }

    /// Number of pairs currently programmed (the full-programme size a
    /// non-incremental coordinator would rewrite every update).
    pub fn programme_pair_count(&self) -> usize {
        self.programme.len()
    }

    /// The full per-pair network programme of the current state: the
    /// quantized end-to-end latency and bottleneck bandwidth between every
    /// pair of *programmable* nodes — ground stations and active satellites,
    /// including active-satellite↔active-satellite pairs (satellites outside
    /// the bounding box carry traffic on paths but host no workloads, so
    /// pairs ending at them need no programming).
    ///
    /// This enumerates the coordinator's delta-replayed mirror in canonical
    /// pair order; the per-update change set is
    /// [`Coordinator::programme_delta`]. Reachable pairs always carry the
    /// finite bottleneck bandwidth of a fully resolved path — a broken
    /// predecessor chain makes the pair unreachable rather than uncapped.
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened yet.
    pub fn network_programme(&self) -> Result<Vec<PairProgram>> {
        self.network_programme_for(TenantId(0))
    }

    /// One tenant's full per-pair network programme (the shared
    /// [`Coordinator::network_programme`]).
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened yet.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn network_programme_for(&self, tenant: TenantId) -> Result<Vec<PairProgram>> {
        self.check_tenant(tenant);
        if self.updates == 0 {
            return Err(celestial_types::Error::InfoApi("no update yet".to_owned()));
        }
        Ok(self
            .programme
            .iter()
            .map(|(&(a, b), &(latency, bandwidth))| PairProgram {
                a,
                b,
                latency,
                bandwidth,
            })
            .collect())
    }

    /// The number of ground-station links currently available, useful for
    /// logging and the figure harness.
    pub fn ground_link_count(&self) -> usize {
        self.database
            .state()
            .map(|s| {
                s.links
                    .iter()
                    .filter(|l| l.kind == LinkKind::GroundStationLink)
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::{BoundingBox, GroundStation, Shell};
    use celestial_sgp4::WalkerShell;
    use celestial_types::geo::Geodetic;
    use celestial_types::Bandwidth;

    fn constellation() -> Constellation {
        Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap()
    }

    fn coordinator() -> Coordinator {
        Coordinator::new(constellation(), SimDuration::from_secs(2))
    }

    #[test]
    fn first_update_reports_every_machine_and_link_as_new() {
        let mut c = coordinator();
        assert_eq!(c.update_count(), 0);
        let diff = c.update(0.0).unwrap();
        assert_eq!(diff.machines_added.len(), 194);
        // Links are shaped from the programme delta: the first one adds
        // every programmed pair and removes nothing.
        let delta = c.programme_delta();
        assert!(c.programme_pair_count() > 0);
        assert_eq!(delta.added.len(), c.programme_pair_count());
        assert!(delta.changed.is_empty());
        assert!(delta.removed.is_empty());
        assert_eq!(c.update_count(), 1);
        assert!(c.database().state().is_some());
    }

    #[test]
    fn subsequent_updates_produce_incremental_diffs() {
        let mut c = coordinator();
        c.update(0.0).unwrap();
        let diff = c.update(2.0).unwrap();
        // After two seconds no machine is added wholesale, but programmed
        // path latencies change.
        assert!(diff.machines_added.is_empty());
        let delta = c.programme_delta();
        assert!(!delta.changed.is_empty() || !delta.added.is_empty());
    }

    #[test]
    fn network_programme_covers_all_active_pair_classes() {
        // The full first Starlink shell guarantees that both ground stations
        // have a satellite in view at the epoch.
        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::starlink_shell1()))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        let mut c = Coordinator::new(constellation, SimDuration::from_secs(2));
        assert!(c.network_programme().is_err());
        assert!(c.programme_delta().is_empty(), "no delta before the first update");
        c.update(0.0).unwrap();
        let programme = c.network_programme().unwrap();
        assert!(!programme.is_empty());
        assert_eq!(programme.len(), c.programme_pair_count());
        // The gst-gst pair appears exactly once.
        let gst_pairs: Vec<_> = programme
            .iter()
            .filter(|p| p.a.is_ground_station() && p.b.is_ground_station())
            .collect();
        assert_eq!(gst_pairs.len(), 1);
        let pair = gst_pairs[0];
        // Accra–Abuja over 550 km satellites: a few milliseconds one way.
        assert!(pair.latency.as_millis_f64() > 2.0 && pair.latency.as_millis_f64() < 40.0);
        assert_eq!(pair.bandwidth, Bandwidth::from_gbps(10));
        // Active-sat↔active-sat pairs are covered (satellite-hosted
        // workloads can exchange traffic), and nothing is ever uncapped.
        assert!(
            programme.iter().any(|p| p.a.is_satellite() && p.b.is_satellite()),
            "sat↔sat pairs missing from the programme"
        );
        assert!(
            programme.iter().all(|p| !p.bandwidth.is_infinite() && !p.bandwidth.is_zero()),
            "every programmed pair carries a finite, non-zero bottleneck"
        );
        // Latencies are pre-quantized to the tc granularity.
        assert!(programme.iter().all(|p| p.latency == p.latency.quantized_tenth_ms()));
        // The first delta is pure additions, matching the full programme.
        let delta = c.programme_delta();
        assert_eq!(delta.epoch, 1);
        assert_eq!(delta.added.len(), programme.len());
        assert!(delta.changed.is_empty() && delta.removed.is_empty());
        // Stats are surfaced through the database for the `/info` route.
        let stats = c.database().programme_stats().unwrap();
        assert_eq!(stats.pairs, programme.len());
        assert_eq!(stats.delta_ops, programme.len());
    }

    #[test]
    fn steady_state_delta_touches_fewer_pairs_than_the_full_programme() {
        let constellation = Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::starlink_shell1()))
            .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
            .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
            .bounding_box(BoundingBox::west_africa())
            .build()
            .unwrap();
        let mut c = Coordinator::new(constellation, SimDuration::from_secs(1));
        c.update(0.0).unwrap();
        let full = c.programme_pair_count();
        assert!(full > 10);
        // One second of orbital motion shifts few quantized pair latencies.
        c.update(1.0).unwrap();
        let delta = c.programme_delta();
        assert_eq!(delta.epoch, 2);
        assert!(
            delta.op_count() < full / 2,
            "steady-state delta ({} ops) should be far below the full rebuild ({full} pairs)",
            delta.op_count()
        );
    }

    #[test]
    fn path_solve_is_restricted_to_ground_stations_and_active_satellites() {
        let mut c = coordinator();
        c.update(0.0).unwrap();
        let stats = c.last_path_solve();
        let state = c.database().state().unwrap();
        let programme = state.active_satellites().len() + state.ground_station_count();
        // The scoped solve guarantees exactness for every programme row
        // (active satellites + ground stations); the rows it runs are that
        // set plus the margin/neighbourhood scope — still far below a full
        // all-sources solve.
        assert_eq!(stats.scope_required, programme);
        assert!(stats.solved_sources >= programme);
        assert!(stats.solved_sources < state.node_count());
        let report = c.database().scope_report().expect("scope recorded");
        assert_eq!(report.required, programme);
        assert_eq!(report.active_satellites, state.active_satellites().len());
        assert!(report.scope_satellites >= report.active_satellites);
        assert!(report.predicted_satellites > 0);
        let paths = c.database().paths().expect("paths installed");
        assert_eq!(paths.source_count(), stats.solved_sources);
        assert!(paths.is_solved(state.node_count() - 1), "ground station solved");
    }

    #[test]
    fn ground_link_count_is_positive_after_update() {
        let mut c = coordinator();
        assert_eq!(c.ground_link_count(), 0);
        c.update(0.0).unwrap();
        assert!(c.ground_link_count() > 0);
        assert_eq!(c.update_interval(), SimDuration::from_secs(2));
        assert_eq!(c.constellation().satellite_count(), 192);
    }

    fn fanout(tenants: usize, shard_plan: Option<ShardPlan>) -> Coordinator {
        Coordinator::with_scoped_fanout(
            constellation(),
            SimDuration::from_secs(2),
            PipelineMode::Synchronous,
            shard_plan,
            (0..tenants).map(|i| format!("tenant-{i}")).collect(),
            ScopeParams::default(),
        )
    }

    #[test]
    fn fanned_out_coordinator_serves_every_tenant_the_solo_stream() {
        for shard_plan in [None, Some(ShardPlan::new(3))] {
            let mut solo = fanout(1, shard_plan);
            let mut fleet = fanout(3, shard_plan);
            assert_eq!(fleet.tenant_count(), 3);
            assert_eq!(
                fleet.tenant_names().collect::<Vec<_>>(),
                ["tenant-0", "tenant-1", "tenant-2"]
            );
            // Names resolve before the first update.
            assert_eq!(fleet.database().tenant_index("tenant-2"), Some(2));
            assert_eq!(fleet.database().tenant_index("tenant-9"), None);

            for step in 0..3 {
                let t = step as f64 * 2.0;
                let a = solo.update(t).unwrap();
                let b = fleet.update(t).unwrap();
                assert_eq!(a, b, "shared diff diverged at t={t}");
                assert_eq!(solo.host_deltas().len(), shard_plan.map_or(0, |_| 3));
                for tenant in 0..3 {
                    let tenant = TenantId(tenant);
                    assert_eq!(
                        fleet.programme_delta_for(tenant),
                        solo.programme_delta(),
                        "{tenant} delta diverged at t={t}"
                    );
                    assert_eq!(
                        fleet.host_deltas_for(tenant),
                        solo.host_deltas(),
                        "{tenant} host deltas diverged at t={t}"
                    );
                    assert_eq!(
                        fleet.network_programme_for(tenant).unwrap(),
                        solo.network_programme().unwrap()
                    );
                }
            }
            // The `/info` slices carry each tenant's programme size.
            let reports = fleet.database().tenant_reports();
            assert_eq!(reports.len(), 3);
            assert!(reports.iter().all(|r| r.pairs == solo.programme_pair_count()));
        }
    }

    #[test]
    #[should_panic(expected = "tenant 3 out of range")]
    fn programme_delta_for_a_missing_tenant_panics() {
        fanout(3, None).programme_delta_for(TenantId(3));
    }

    #[test]
    #[should_panic(expected = "tenant 3 out of range")]
    fn host_deltas_for_a_missing_tenant_panics() {
        fanout(3, Some(ShardPlan::new(2))).host_deltas_for(TenantId(3));
    }

    #[test]
    #[should_panic(expected = "tenant 3 out of range")]
    fn network_programme_for_a_missing_tenant_panics() {
        let mut c = fanout(3, None);
        c.update(0.0).unwrap();
        let _ = c.network_programme_for(TenantId(3));
    }
}

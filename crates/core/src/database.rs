//! The coordinator's information database.
//!
//! Celestial's coordinator keeps a central database with satellite positions,
//! constellation information and network paths, updated by the Constellation
//! Calculation on every tick; the per-host HTTP servers answer application
//! queries from it (§3.2). [`InfoDatabase`] is that database.

use crate::pipeline::{PipelineStats, ScopeReport};
use celestial_constellation::{ConstellationState, GroundStation, Shell, ShortestPaths};
use celestial_types::geo::Geodetic;
use celestial_types::ids::{GroundStationId, NodeId, SatelliteId};
use celestial_types::{Error, Latency, Result};

/// Summary of the most recent network-programming epoch, recorded by the
/// coordinator and surfaced through the `/info` route (real Celestial logs
/// these figures per update).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgrammeStats {
    /// The programme epoch (1 for the first update).
    pub epoch: u64,
    /// Number of pairs currently programmed (full-programme size).
    pub pairs: usize,
    /// Pair-programming operations the epoch's delta performed (added +
    /// changed + removed) — the figure the delta engine keeps small.
    pub delta_ops: usize,
}

/// Summary of the epoch pipeline's behaviour, recorded by the coordinator
/// after every update and surfaced through the `/info` route (`pipeline*`
/// fields): mode, boundary handover wait and precompute lead time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineReport {
    /// The pipeline's runtime statistics at the most recent update.
    pub stats: PipelineStats,
}

/// Summary of the host-sharded programming plane, surfaced through the
/// `/info` route (`shard*` fields): how many pairs each shard owns and what
/// the most recent parallel apply cost per host. See `docs/SHARDING.md`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardReport {
    /// Number of pairs owned by each shard, indexed by host (cross-host
    /// pairs are mirrored and count in both endpoint shards).
    pub pairs: Vec<usize>,
    /// Per-shard apply time of the most recent epoch in nanoseconds,
    /// indexed by host. Empty until the first apply is recorded.
    pub apply_ns: Vec<u64>,
    /// Wall-clock nanoseconds of the most recent parallel apply batch.
    pub wall_ns: u64,
}

/// Summary of the chaos engine's activity, surfaced through the `/info`
/// route (`chaos_events`, `chaos_active_faults`, `links_suppressed`). See
/// `docs/CHAOS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Total chaos events lowered from the schedule (fault events plus
    /// link-flap windows); constant over a run.
    pub events: u64,
    /// Injected fault windows in effect at the latest update.
    pub active_faults: u64,
    /// Links the flap mask removed from the latest epoch's state.
    pub links_suppressed: u64,
}

/// One tenant's slice of the `/info` report: its name and the size of its
/// network programme. Indexed by tenant; a solo run has exactly one entry.
/// See `docs/TENANTS.md`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantReport {
    /// The tenant's configured name (e.g. `tenant-0`).
    pub name: String,
    /// Number of pairs in the tenant's full programme.
    pub pairs: usize,
    /// Pair-programming operations the tenant's latest delta performed.
    pub delta_ops: usize,
}

/// The central database behind the info API.
#[derive(Debug, Clone)]
pub struct InfoDatabase {
    shells: Vec<Shell>,
    ground_stations: Vec<GroundStation>,
    state: Option<ConstellationState>,
    paths: Option<ShortestPaths>,
    /// Whether `paths` matches the current `state`. The buffer itself is
    /// kept across updates so that [`InfoDatabase::set_paths_from`] can
    /// refill it without re-allocating.
    paths_valid: bool,
    programme_stats: Option<ProgrammeStats>,
    pipeline_report: Option<PipelineReport>,
    scope_report: Option<ScopeReport>,
    shard_report: Option<ShardReport>,
    chaos_report: Option<ChaosReport>,
    /// One report per tenant; seeded with the tenant names at construction
    /// so tenant routing resolves before the first update.
    tenant_reports: Vec<TenantReport>,
}

impl InfoDatabase {
    /// Creates the database for a constellation's static configuration.
    pub fn new(shells: Vec<Shell>, ground_stations: Vec<GroundStation>) -> Self {
        InfoDatabase {
            shells,
            ground_stations,
            state: None,
            paths: None,
            paths_valid: false,
            programme_stats: None,
            pipeline_report: None,
            scope_report: None,
            shard_report: None,
            chaos_report: None,
            tenant_reports: Vec::new(),
        }
    }

    /// Replaces the dynamic state after a constellation update. Any cached
    /// shortest-path result is invalidated until [`InfoDatabase::set_paths`]
    /// or [`InfoDatabase::set_paths_from`] installs the one matching this
    /// state.
    pub fn update(&mut self, state: ConstellationState) {
        self.state = Some(state);
        self.paths_valid = false;
    }

    /// Like [`InfoDatabase::update`], but copies into the retained state of
    /// the previous timestep — after the first update this allocates nothing
    /// in steady state (the path the epoch pipeline's handover uses).
    pub fn update_from(&mut self, state: &ConstellationState) {
        match &mut self.state {
            Some(existing) => existing.clone_from(state),
            None => self.state = Some(state.clone()),
        }
        self.paths_valid = false;
    }

    /// Installs the precomputed shortest-path result for the current state
    /// (produced by the coordinator's `PathEngine`); `/path` queries whose
    /// source row was solved are answered from it without touching the
    /// graph.
    pub fn set_paths(&mut self, paths: ShortestPaths) {
        self.paths = Some(paths);
        self.paths_valid = true;
    }

    /// Like [`InfoDatabase::set_paths`], but copies into the retained buffer
    /// of the previous timestep — after the first update this allocates
    /// nothing in steady state.
    pub fn set_paths_from(&mut self, paths: &ShortestPaths) {
        match &mut self.paths {
            Some(existing) => existing.clone_from(paths),
            None => self.paths = Some(paths.clone()),
        }
        self.paths_valid = true;
    }

    /// The precomputed shortest-path result, if one matching the current
    /// state is installed.
    pub fn paths(&self) -> Option<&ShortestPaths> {
        if self.paths_valid {
            self.paths.as_ref()
        } else {
            None
        }
    }

    /// Records the network-programming summary of the latest update.
    pub fn set_programme_stats(&mut self, stats: ProgrammeStats) {
        self.programme_stats = Some(stats);
    }

    /// The network-programming summary of the latest update, if any.
    pub fn programme_stats(&self) -> Option<ProgrammeStats> {
        self.programme_stats
    }

    /// Records the epoch pipeline's behaviour at the latest update.
    pub fn set_pipeline_report(&mut self, report: PipelineReport) {
        self.pipeline_report = Some(report);
    }

    /// The epoch pipeline's behaviour at the latest update, if any.
    pub fn pipeline_report(&self) -> Option<PipelineReport> {
        self.pipeline_report
    }

    /// Records the scale-aware solve scope of the latest update.
    pub fn set_scope_report(&mut self, report: ScopeReport) {
        self.scope_report = Some(report);
    }

    /// The solve scope of the latest update, if any (all zeros when the
    /// epoch ran an unscoped solve).
    pub fn scope_report(&self) -> Option<ScopeReport> {
        self.scope_report
    }

    /// Records the per-shard pair counts of the latest update (host-sharded
    /// plane only). Apply timings already recorded are kept.
    pub fn set_shard_pairs(&mut self, pairs: &[usize]) {
        let report = self.shard_report.get_or_insert_with(ShardReport::default);
        report.pairs.clear();
        report.pairs.extend_from_slice(pairs);
    }

    /// Records what the latest parallel shard apply cost.
    pub fn set_shard_apply(&mut self, apply_ns: &[u64], wall_ns: u64) {
        let report = self.shard_report.get_or_insert_with(ShardReport::default);
        report.apply_ns.clear();
        report.apply_ns.extend_from_slice(apply_ns);
        report.wall_ns = wall_ns;
    }

    /// The host-sharded plane's summary, if the testbed runs sharded.
    pub fn shard_report(&self) -> Option<&ShardReport> {
        self.shard_report.as_ref()
    }

    /// Records the chaos engine's activity at the latest update.
    pub fn set_chaos(&mut self, events: u64, active_faults: u64, links_suppressed: u64) {
        let report = self.chaos_report.get_or_insert_with(ChaosReport::default);
        report.events = events;
        report.active_faults = active_faults;
        report.links_suppressed = links_suppressed;
    }

    /// The chaos engine's summary, if a run has chaos configured.
    pub fn chaos_report(&self) -> Option<&ChaosReport> {
        self.chaos_report.as_ref()
    }

    /// Records one tenant's `/info` slice, growing the report vector as
    /// needed (the coordinator seeds every tenant's name this way).
    pub fn update_tenant_report(&mut self, index: usize, name: &str, pairs: usize, delta_ops: usize) {
        if self.tenant_reports.len() <= index {
            self.tenant_reports.resize_with(index + 1, TenantReport::default);
        }
        let report = &mut self.tenant_reports[index];
        report.name = name.to_owned();
        report.pairs = pairs;
        report.delta_ops = delta_ops;
    }

    /// Records the shared programme's size and latest delta operations in
    /// every tenant's `/info` slice (tenants share one programme).
    pub fn set_tenant_programmes(&mut self, pairs: usize, delta_ops: usize) {
        for report in &mut self.tenant_reports {
            report.pairs = pairs;
            report.delta_ops = delta_ops;
        }
    }

    /// The per-tenant `/info` slices, indexed by tenant. Empty only for a
    /// database that never belonged to a coordinator (the coordinator seeds
    /// the tenant names at construction).
    pub fn tenant_reports(&self) -> &[TenantReport] {
        &self.tenant_reports
    }

    /// Resolves a tenant name to its index, for routing per-tenant queries.
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenant_reports.iter().position(|t| t.name == name)
    }

    /// The latest constellation state, if an update has happened.
    pub fn state(&self) -> Option<&ConstellationState> {
        self.state.as_ref()
    }

    /// The simulated time of the latest update, in seconds.
    pub fn updated_at_seconds(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.time_seconds)
    }

    /// The static shell configuration.
    pub fn shells(&self) -> &[Shell] {
        &self.shells
    }

    /// The static ground-station configuration.
    pub fn ground_stations(&self) -> &[GroundStation] {
        &self.ground_stations
    }

    /// The ground station with the given name.
    pub fn ground_station_by_name(&self, name: &str) -> Option<(GroundStationId, &GroundStation)> {
        self.ground_stations
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
            .map(|(i, g)| (GroundStationId(i as u32), g))
    }

    fn require_state(&self) -> Result<&ConstellationState> {
        self.state
            .as_ref()
            .ok_or_else(|| Error::InfoApi("no constellation update has happened yet".to_owned()))
    }

    /// The current geodetic position of a node.
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened or the node is unknown.
    pub fn position(&self, node: NodeId) -> Result<Geodetic> {
        let state = self.require_state()?;
        Ok(state.position(node)?.to_geodetic())
    }

    /// Whether a satellite is currently active (inside the bounding box).
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened or the satellite is unknown.
    pub fn is_active(&self, sat: SatelliteId) -> Result<bool> {
        self.require_state()?.is_active(sat)
    }

    /// The satellites currently visible from a ground station.
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened.
    pub fn visible_satellites(&self, gst: GroundStationId) -> Result<Vec<SatelliteId>> {
        Ok(self.require_state()?.visible_satellites(gst))
    }

    /// The precomputed row for `a`, if the engine result covers this state
    /// and solved `a` as a source.
    fn solved_row(&self, state: &ConstellationState, a: usize) -> Option<&ShortestPaths> {
        self.paths()
            .filter(|p| p.node_count() == state.node_count() && p.is_solved(a))
    }

    /// The one-way shortest-path latency between two nodes, if they are
    /// currently connected.
    ///
    /// Answered from the coordinator's precomputed path matrix when `a` was
    /// solved as a source and the entry is exact (ground stations and active
    /// satellites always are — the scoped solve's exactness contract). An
    /// entry a scoped solve left inexact is answered by the matrix's
    /// landmark-accelerated one-shot query; an unsolved row falls back to a
    /// one-shot Dijkstra run on the graph. Every route returns the same
    /// latency — only the work differs.
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened or either node is unknown.
    pub fn path_latency(&self, a: NodeId, b: NodeId) -> Result<Option<Latency>> {
        let state = self.require_state()?;
        let source = state.node_index(a)?;
        let target = state.node_index(b)?;
        if let Some(paths) = self.solved_row(state, source) {
            if paths.is_exact(source, target) {
                return Ok(paths.latency_micros(source, target).map(Latency::from_micros));
            }
            return Ok(paths
                .one_shot_latency(state.graph(), source, target)
                .map(Latency::from_micros));
        }
        state.latency_between(a, b)
    }

    /// The node sequence of the current shortest path between two nodes.
    ///
    /// Served from the precomputed path matrix when possible, like
    /// [`InfoDatabase::path_latency`].
    ///
    /// # Errors
    ///
    /// Returns an error if no update has happened or either node is unknown.
    pub fn path(&self, a: NodeId, b: NodeId) -> Result<Option<Vec<NodeId>>> {
        let state = self.require_state()?;
        let source = state.node_index(a)?;
        let target = state.node_index(b)?;
        if let Some(paths) = self.solved_row(state, source) {
            let indices = if paths.is_exact(source, target) {
                paths.path(source, target)
            } else {
                // A scoped solve left this entry inexact: the matrix's
                // landmark-accelerated one-shot query answers it without a
                // full row solve.
                paths.one_shot_path(state.graph(), source, target)
            };
            return match indices {
                Some(indices) => indices
                    .into_iter()
                    .map(|idx| state.node_id(idx))
                    .collect::<Result<Vec<_>>>()
                    .map(Some),
                None => Ok(None),
            };
        }
        state.path_between(a, b)
    }

    /// Total number of satellites across all shells.
    pub fn satellite_count(&self) -> u32 {
        self.shells.iter().map(Shell::satellite_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_constellation::Constellation;
    use celestial_sgp4::WalkerShell;
    use celestial_types::MachineResources;

    fn database_with_state() -> InfoDatabase {
        let shell = Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16));
        let gst = GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0))
            .with_resources(MachineResources::paper_client());
        let constellation = Constellation::builder()
            .shell(shell.clone())
            .ground_station(gst.clone())
            .build()
            .unwrap();
        let mut db = InfoDatabase::new(vec![shell], vec![gst]);
        db.update(constellation.state_at(0.0).unwrap());
        db
    }

    #[test]
    fn queries_fail_before_the_first_update() {
        let db = InfoDatabase::new(Vec::new(), Vec::new());
        assert!(db.position(NodeId::ground_station(0)).is_err());
        assert!(db.path_latency(NodeId::ground_station(0), NodeId::ground_station(1)).is_err());
        assert!(db.state().is_none());
        assert!(db.updated_at_seconds().is_none());
    }

    #[test]
    fn positions_and_visibility_after_update() {
        let db = database_with_state();
        assert_eq!(db.updated_at_seconds(), Some(0.0));
        assert_eq!(db.satellite_count(), 192);
        let accra = db.position(NodeId::ground_station(0)).unwrap();
        assert!((accra.latitude_deg() - 5.6037).abs() < 1e-6);
        let visible = db.visible_satellites(GroundStationId(0)).unwrap();
        // The dense test shell guarantees at least one satellite in view.
        assert!(!visible.is_empty());
        let sat = visible[0];
        assert!(db.is_active(sat).unwrap());
        let sat_pos = db.position(NodeId::Satellite(sat)).unwrap();
        assert!((sat_pos.altitude_km() - 550.0).abs() < 5.0);
    }

    #[test]
    fn paths_between_ground_station_and_satellite() {
        let db = database_with_state();
        let visible = db.visible_satellites(GroundStationId(0)).unwrap();
        let sat = NodeId::Satellite(visible[0]);
        let gst = NodeId::ground_station(0);
        let latency = db.path_latency(gst, sat).unwrap().expect("connected");
        assert!(latency.as_millis_f64() > 1.0 && latency.as_millis_f64() < 10.0);
        let path = db.path(gst, sat).unwrap().expect("connected");
        assert_eq!(path.first(), Some(&gst));
        assert_eq!(path.last(), Some(&sat));
    }

    #[test]
    fn precomputed_paths_answer_queries_and_unsolved_rows_fall_back() {
        let mut db = database_with_state();
        let state = db.state().unwrap().clone();
        // Solve only the ground station's row, as the coordinator does for
        // its restricted source set.
        let gst_index = state.satellite_count() as u32;
        let mut engine =
            celestial_constellation::PathEngine::new(celestial_constellation::PathAlgorithm::Dijkstra);
        let paths = engine.solve_sources(state.graph(), &[gst_index]).clone();
        db.set_paths(paths);
        assert!(db.paths().is_some());

        let visible = db.visible_satellites(GroundStationId(0)).unwrap();
        let sat = NodeId::Satellite(visible[0]);
        let gst = NodeId::ground_station(0);
        // Ground-station source: served from the matrix. Satellite source:
        // unsolved row, answered by the one-shot Dijkstra fallback. The
        // graph is undirected, so the two must agree.
        let from_matrix = db.path_latency(gst, sat).unwrap().expect("connected");
        let from_fallback = db.path_latency(sat, gst).unwrap().expect("connected");
        assert_eq!(from_matrix, from_fallback);
        let path = db.path(gst, sat).unwrap().expect("connected");
        assert_eq!(path.first(), Some(&gst));
        assert_eq!(path.last(), Some(&sat));
        // A fresh state update invalidates the cached matrix.
        db.update(state);
        assert!(db.paths().is_none());
    }

    #[test]
    fn lookup_by_name() {
        let db = database_with_state();
        let (id, gst) = db.ground_station_by_name("accra").unwrap();
        assert_eq!(id, GroundStationId(0));
        assert_eq!(gst.name, "accra");
        assert!(db.ground_station_by_name("lagos").is_none());
        assert_eq!(db.shells().len(), 1);
        assert_eq!(db.ground_stations().len(), 1);
    }

    #[test]
    fn tenant_reports_resolve_names_to_indices() {
        let mut db = database_with_state();
        assert!(db.tenant_reports().is_empty());
        assert_eq!(db.tenant_index("tenant-0"), None);

        db.update_tenant_report(1, "beta", 7, 2);
        db.update_tenant_report(0, "alpha", 5, 1);
        assert_eq!(db.tenant_reports().len(), 2);
        assert_eq!(db.tenant_index("alpha"), Some(0));
        assert_eq!(db.tenant_index("beta"), Some(1));
        assert_eq!(db.tenant_index("gamma"), None);
        assert_eq!(db.tenant_reports()[1].pairs, 7);
        assert_eq!(db.tenant_reports()[1].delta_ops, 2);

        // Steady-state refresh keeps the entry count and updates in place.
        db.update_tenant_report(1, "beta", 9, 0);
        assert_eq!(db.tenant_reports().len(), 2);
        assert_eq!(db.tenant_reports()[1].pairs, 9);
    }
}

//! The Celestial configuration file.
//!
//! All parameters of a testbed run are passed in a single file (§3.1): the
//! orbital parameters of every shell, network bandwidths, machine resources,
//! ground stations, the bounding box, the update interval and the host fleet.
//! This module defines the strongly typed configuration and its construction
//! from the TOML subset parsed by [`crate::toml`], plus a builder API for
//! constructing configurations programmatically.

use crate::pipeline::PipelineMode;
use crate::toml::{self, TableExt, TomlTable};
use celestial_constellation::{BoundingBox, GroundStation, PathAlgorithm, ScopeParams, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::constants::DEFAULT_MIN_ELEVATION_DEG;
use celestial_types::geo::Geodetic;
use celestial_types::{Bandwidth, Error, MachineResources, Result};
use serde::{Deserialize, Serialize};

/// Configuration of one Celestial host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Number of physical CPU cores of the host.
    pub cores: u32,
    /// Memory of the host in MiB.
    pub memory_mib: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        // The GCP N2-highcpu-32 instances used in the paper's evaluation.
        HostConfig {
            cores: 32,
            memory_mib: 32 * 1024,
        }
    }
}

/// The complete configuration of a testbed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Seed for all randomised behaviour; fixing it makes runs repeatable.
    pub seed: u64,
    /// Interval at which the coordinator recomputes the constellation, in
    /// seconds (the paper uses 2 s in §4 and 5 s in §5).
    pub update_interval_s: f64,
    /// Total experiment duration in seconds.
    pub duration_s: f64,
    /// Interval at which host utilisation is sampled, in seconds.
    pub utilization_sample_interval_s: f64,
    /// The constellation shells.
    pub shells: Vec<Shell>,
    /// The ground stations.
    pub ground_stations: Vec<GroundStation>,
    /// The bounding box limiting which satellites are emulated.
    pub bounding_box: BoundingBox,
    /// The shortest-path algorithm used for all-pairs computations.
    pub path_algorithm: PathAlgorithm,
    /// How the coordinator schedules epoch computation: inline at each
    /// boundary, or precomputed on a background worker (see
    /// `docs/PIPELINE.md`).
    pub pipeline: PipelineMode,
    /// When set, the network programme is sharded per host: the coordinator
    /// partitions every update into one per-host change set and the
    /// emulation applies all shards in parallel, exactly one shard per host
    /// (so the value must equal the host count; see `docs/SHARDING.md`).
    /// `None` keeps the classic single global rule table.
    pub shards: Option<u32>,
    /// Default one-way latency between hosts in microseconds (the measured
    /// WireGuard overlay latency the compensation subtracts). `None` keeps
    /// the paper's 0.2 ms figure.
    pub host_latency_us: Option<u64>,
    /// The hosts the testbed runs on.
    pub hosts: Vec<HostConfig>,
    /// Whether suspended microVMs return their memory (virtio ballooning).
    pub ballooning: bool,
    /// Correlated chaos injection (`[chaos]` in TOML). `None` disables the
    /// chaos engine entirely (see `docs/CHAOS.md`).
    pub chaos: Option<ChaosConfig>,
    /// The HTTP serving plane (`[serve]` in TOML). `None` disables the
    /// server and snapshot publication entirely (see `docs/SERVE.md`).
    pub serve: Option<ServeConfig>,
    /// Multi-tenant fan-out (`[tenants]` or `[[tenant]]` in TOML): several
    /// independent testbeds share one epoch pipeline. `None` runs a single
    /// tenant, bit-identical to a pre-tenancy testbed (see
    /// `docs/TENANTS.md`).
    pub tenants: Option<TenantsConfig>,
    /// Scale-aware path-solve tuning (`[paths]` in TOML). `None` uses the
    /// defaults; the scoped solve is exact on every programmed row for any
    /// parameter choice, so this tunes cost, never results (see
    /// `docs/MEGASCALE.md`).
    pub paths: Option<PathsConfig>,
    /// Generated tenant fleet (`[scenario]` plus `[[scenario.block]]` in
    /// TOML): composable workload blocks expanded into N generated tenants
    /// riding the multi-tenant fan-out, with populations aggregated at flow
    /// level. Mutually exclusive with `[tenants]` (see `docs/SCENARIOS.md`).
    pub scenario: Option<ScenarioConfig>,
}

/// The `[paths]` section: parameters of the scale-aware solve scope (see
/// `docs/MEGASCALE.md`). All three knobs trade solve work against the
/// one-shot fallback rate of out-of-scope `/path` queries — the programmed
/// rules are bit-identical for every setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathsConfig {
    /// Degrees the bounding box is expanded by to form the solve scope
    /// (`scope-margin-deg`). Satellites inside the margin get solved rows so
    /// they answer `/path` queries without a fallback shortly before they
    /// activate.
    pub scope_margin_deg: f64,
    /// Number of nearest satellites solved per ground station (`k-nearest`),
    /// covering uplink neighbourhoods outside the margin.
    pub k_nearest: u32,
    /// Number of fully solved landmark rows kept for the ALT-accelerated
    /// one-shot fallback (`landmarks`).
    pub landmarks: u32,
}

impl Default for PathsConfig {
    fn default() -> Self {
        PathsConfig {
            scope_margin_deg: 10.0,
            k_nearest: 16,
            landmarks: 8,
        }
    }
}

impl PathsConfig {
    /// Validates the solve-scope parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a negative or non-finite margin.
    pub fn validate(&self) -> Result<()> {
        if !(self.scope_margin_deg >= 0.0 && self.scope_margin_deg.is_finite()) {
            return Err(Error::config(format!(
                "paths scope-margin-deg must be non-negative and finite, got {} \
                 (see docs/MEGASCALE.md)",
                self.scope_margin_deg
            )));
        }
        Ok(())
    }

    /// The engine-facing parameter set this configuration selects.
    pub fn scope_params(&self) -> ScopeParams {
        ScopeParams {
            margin_deg: self.scope_margin_deg,
            k_nearest: self.k_nearest as usize,
            landmarks: self.landmarks as usize,
        }
    }
}

/// The `[tenants]` section: how many independent tenants share the epoch
/// pipeline, and what they are called (see `docs/TENANTS.md`).
///
/// A tenant is a full testbed — machines, network emulation, faults,
/// journal — that borrows the shared orbital state and path matrix instead
/// of recomputing them. Tenants can alternatively be declared one by one as
/// top-level `[[tenant]]` blocks carrying a `name` key; the two forms are
/// mutually exclusive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantsConfig {
    /// Number of tenants sharing the pipeline (`count`).
    pub count: u32,
    /// Explicit tenant names (`names`). Empty derives `tenant-0` through
    /// `tenant-{count-1}`; non-empty lists must have exactly `count`
    /// entries, unique and non-empty.
    pub names: Vec<String>,
}

impl Default for TenantsConfig {
    fn default() -> Self {
        TenantsConfig {
            count: 1,
            names: Vec::new(),
        }
    }
}

impl TenantsConfig {
    /// The effective tenant names, indexed by tenant id: the explicit
    /// `names` list, or `tenant-0..tenant-{count-1}` when it is empty.
    pub fn tenant_names(&self) -> Vec<String> {
        if self.names.is_empty() {
            (0..self.count).map(|i| format!("tenant-{i}")).collect()
        } else {
            self.names.clone()
        }
    }

    /// Validates the tenant fan-out parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a zero or oversized count, a name list
    /// whose length disagrees with `count`, or duplicate/empty names.
    pub fn validate(&self) -> Result<()> {
        if self.count < 1 {
            return Err(Error::config(
                "tenants count must be at least 1 (see docs/TENANTS.md)",
            ));
        }
        if self.count > 4096 {
            return Err(Error::config(format!(
                "tenants count must be at most 4096, got {} (see docs/TENANTS.md)",
                self.count
            )));
        }
        if !self.names.is_empty() && self.names.len() != self.count as usize {
            return Err(Error::config(format!(
                "tenants lists {} names but count = {}; name every tenant or none \
                 (see docs/TENANTS.md)",
                self.names.len(),
                self.count
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for name in &self.names {
            if name.is_empty() {
                return Err(Error::config("tenant names must not be empty"));
            }
            if !seen.insert(name.as_str()) {
                return Err(Error::config(format!("duplicate tenant name '{name}'")));
            }
        }
        Ok(())
    }
}

/// The kinds of reusable workload blocks a `[[scenario.block]]` may select
/// (see `docs/SCENARIOS.md` for the behaviour of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioBlockKind {
    /// Constant-bit-rate flows from a source to a sink ground station.
    Cbr,
    /// Handover-chasing mobile clients streaming through the currently best
    /// uplink satellite of their ground station.
    Mobile,
    /// A bursty IoT fleet (DART-style): baseline readings with
    /// seed-deterministic burst windows multiplying the emission rate.
    Iot,
    /// A CDN-style edge cache: requests served from the best uplink
    /// satellite at the configured hit ratio, misses falling back to the
    /// origin ground station.
    Cdn,
    /// Region-blackout failover consumers: stream from the primary sink
    /// while it runs, fail over to the backup when it is down.
    Failover,
}

impl ScenarioBlockKind {
    /// All block kinds, in documentation order.
    pub const ALL: [ScenarioBlockKind; 5] = [
        ScenarioBlockKind::Cbr,
        ScenarioBlockKind::Mobile,
        ScenarioBlockKind::Iot,
        ScenarioBlockKind::Cdn,
        ScenarioBlockKind::Failover,
    ];

    /// The TOML name of the kind (`kind = "..."`).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioBlockKind::Cbr => "cbr",
            ScenarioBlockKind::Mobile => "mobile",
            ScenarioBlockKind::Iot => "iot",
            ScenarioBlockKind::Cdn => "cdn",
            ScenarioBlockKind::Failover => "failover",
        }
    }
}

/// One `[[scenario.block]]`: a reusable workload building block replicated
/// into every generated tenant (see `docs/SCENARIOS.md`).
///
/// Station roles are names from the `[[ground-station]]` list; the empty
/// string resolves positionally (source → first station, sink and fallback →
/// last station), so a minimal block needs no explicit wiring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioBlock {
    /// Which workload the block runs (`kind`).
    pub kind: ScenarioBlockKind,
    /// Block name (`name`), seeding the block's derived RNG stream
    /// `scenario.<tenant>.<block>`; empty derives `<kind>-<index>`.
    pub name: String,
    /// Number of simulated users aggregated at flow level (`population`).
    pub population: u64,
    /// Ground station the users attach to (`source`).
    pub source: String,
    /// Primary destination ground station (`sink`).
    pub sink: String,
    /// CDN origin / failover backup ground station (`fallback`).
    pub fallback: String,
    /// Per-user bit rate in bits per second (`bitrate-bps`).
    pub bitrate_bps: u64,
    /// Per-user emission interval in milliseconds (`interval-ms`).
    pub interval_ms: f64,
    /// Fraction of CDN requests served at the edge (`hit-ratio`, in [0, 1]).
    pub hit_ratio: f64,
    /// Probability an IoT window bursts (`burst-prob`, in [0, 1]).
    pub burst_prob: f64,
    /// Emission-rate multiplier inside an IoT burst (`burst-factor`).
    pub burst_factor: u32,
}

impl Default for ScenarioBlock {
    fn default() -> Self {
        ScenarioBlock {
            kind: ScenarioBlockKind::Cbr,
            name: String::new(),
            population: 100,
            source: String::new(),
            sink: String::new(),
            fallback: String::new(),
            bitrate_bps: 2_600_000,
            interval_ms: 1_000.0,
            hit_ratio: 0.9,
            burst_prob: 0.1,
            burst_factor: 10,
        }
    }
}

impl ScenarioBlock {
    /// The per-user emission interval, rounded to whole microseconds (the
    /// sim's tick), which is what keeps flow accounting exactly integral.
    pub fn interval(&self) -> celestial_types::time::SimDuration {
        celestial_types::time::SimDuration::from_micros((self.interval_ms * 1_000.0).round() as u64)
    }

    /// The block's effective name: `name`, or `<kind>-<index>` when empty.
    pub fn effective_name(&self, index: usize) -> String {
        if self.name.is_empty() {
            format!("{}-{index}", self.kind.name())
        } else {
            self.name.clone()
        }
    }
}

/// The `[scenario]` section: a generator expanding composable workload
/// blocks into a fleet of generated tenants (see `docs/SCENARIOS.md`).
///
/// Every generated tenant runs every block; per-block populations are
/// aggregated at flow level on the deterministic engine, so thousands of
/// tenants with millions of aggregate users stay affordable and
/// bit-reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of generated tenants sharing the epoch pipeline (`tenants`).
    pub tenants: u32,
    /// The workload blocks every tenant is composed of
    /// (`[[scenario.block]]`).
    pub blocks: Vec<ScenarioBlock>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            tenants: 1,
            blocks: Vec::new(),
        }
    }
}

impl ScenarioConfig {
    /// The generated tenant names, indexed by tenant id:
    /// `scenario-0000..scenario-{tenants-1}`.
    pub fn tenant_names(&self) -> Vec<String> {
        (0..self.tenants).map(|i| format!("scenario-{i:04}")).collect()
    }

    /// Simulated users per generated tenant (the sum of block populations).
    pub fn users_per_tenant(&self) -> u64 {
        self.blocks.iter().map(|b| b.population).sum()
    }

    /// Aggregate simulated users across the whole generated fleet.
    pub fn aggregate_users(&self) -> u64 {
        u64::from(self.tenants) * self.users_per_tenant()
    }

    /// Validates the scenario parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a zero or oversized tenant count, an
    /// empty block list, out-of-range block parameters, or duplicate block
    /// names.
    pub fn validate(&self) -> Result<()> {
        if self.tenants < 1 {
            return Err(Error::config(
                "scenario tenants must be at least 1 (see docs/SCENARIOS.md)",
            ));
        }
        if self.tenants > 4096 {
            return Err(Error::config(format!(
                "scenario tenants must be at most 4096, got {} (see docs/SCENARIOS.md)",
                self.tenants
            )));
        }
        if self.blocks.is_empty() {
            return Err(Error::config(
                "a scenario needs at least one [[scenario.block]] (see docs/SCENARIOS.md)",
            ));
        }
        let mut names = std::collections::BTreeSet::new();
        for (index, block) in self.blocks.iter().enumerate() {
            let name = block.effective_name(index);
            if !names.insert(name.clone()) {
                return Err(Error::config(format!(
                    "duplicate scenario block name '{name}' (block names seed RNG \
                     streams and must be unique; see docs/SCENARIOS.md)"
                )));
            }
            if block.population < 1 {
                return Err(Error::config(format!(
                    "scenario block '{name}' population must be at least 1"
                )));
            }
            if block.bitrate_bps < 1 {
                return Err(Error::config(format!(
                    "scenario block '{name}' bitrate-bps must be at least 1"
                )));
            }
            if !(block.interval_ms > 0.0 && block.interval_ms.is_finite()) {
                return Err(Error::config(format!(
                    "scenario block '{name}' interval-ms must be positive and finite, got {}",
                    block.interval_ms
                )));
            }
            for (key, value) in [("hit-ratio", block.hit_ratio), ("burst-prob", block.burst_prob)] {
                if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                    return Err(Error::config(format!(
                        "scenario block '{name}' {key} must be in [0, 1], got {value}"
                    )));
                }
            }
            if block.burst_factor < 1 {
                return Err(Error::config(format!(
                    "scenario block '{name}' burst-factor must be at least 1"
                )));
            }
        }
        Ok(())
    }
}

/// The `[serve]` section: the HTTP serving plane answering info-API queries
/// lock-free against epoch-versioned snapshots, with a middleware pipeline
/// for auth, rate limiting and metrics (see `docs/SERVE.md`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// TCP port to bind (`port`); `0` picks an ephemeral port.
    pub port: u16,
    /// Number of worker threads answering requests (`workers`).
    pub workers: u32,
    /// Token-bucket capacity per client (`rate-limit-burst`); a client can
    /// issue at most this many requests within one epoch.
    pub rate_limit_burst: u32,
    /// Tokens refilled per epoch boundary (`rate-limit-per-epoch`); `0`
    /// disables rate limiting entirely.
    pub rate_limit_per_epoch: u32,
    /// Accepted bearer tokens (`auth-tokens`); an empty list leaves the
    /// server open (no auth middleware rejection).
    pub auth_tokens: Vec<String>,
    /// Whether connections are kept alive between requests (`keep-alive`).
    pub keep_alive: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 4,
            rate_limit_burst: 64,
            rate_limit_per_epoch: 32,
            auth_tokens: Vec::new(),
            keep_alive: true,
        }
    }
}

impl ServeConfig {
    /// Validates the serving-plane parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a zero worker count or a zero burst
    /// with rate limiting enabled.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::config("serve workers must be at least 1 (see docs/SERVE.md)"));
        }
        if self.rate_limit_per_epoch > 0 && self.rate_limit_burst == 0 {
            return Err(Error::config(
                "serve rate-limit-burst must be at least 1 when rate limiting is \
                 enabled (see docs/SERVE.md)",
            ));
        }
        if self.auth_tokens.iter().any(|t| t.is_empty()) {
            return Err(Error::config("serve auth-tokens must not contain empty tokens"));
        }
        Ok(())
    }
}

/// The `[chaos]` section: how many correlated fault windows of each kind the
/// chaos engine schedules, and their shape. All schedules derive from the
/// run's `seed` through per-generator `SimRng::derive("chaos.<generator>")`
/// streams, so they are bit-reproducible and stream-independent (see
/// `docs/CHAOS.md`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Number of whole-orbital-plane outage windows (`plane-outages`).
    pub plane_outages: u32,
    /// Mean plane-outage duration in seconds (`plane-outage-mean-s`).
    pub plane_outage_mean_s: f64,
    /// Number of solar-storm windows degrading a latitude band
    /// (`solar-storms`).
    pub solar_storms: u32,
    /// Mean solar-storm duration in seconds (`solar-storm-mean-s`).
    pub solar_storm_mean_s: f64,
    /// Half-width of the degraded latitude band in degrees
    /// (`solar-storm-band-half-width-deg`).
    pub solar_storm_band_half_width_deg: f64,
    /// CPU share degraded machines keep, in percent `(0, 100]`
    /// (`solar-storm-cpu-share-percent`).
    pub solar_storm_cpu_share_percent: u8,
    /// Number of ground-station region blackouts (`region-blackouts`).
    pub region_blackouts: u32,
    /// Mean region-blackout duration in seconds (`region-blackout-mean-s`).
    pub region_blackout_mean_s: f64,
    /// Blackout radius in kilometres (`region-blackout-radius-km`).
    pub region_blackout_radius_km: f64,
    /// Number of link-flap storms (`link-flap-storms`).
    pub link_flap_storms: u32,
    /// Mean link-flap storm duration in seconds (`link-flap-mean-s`).
    pub link_flap_mean_s: f64,
    /// Flap period within a storm in seconds (`link-flap-period-s`).
    pub link_flap_period_s: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            plane_outages: 1,
            plane_outage_mean_s: 10.0,
            solar_storms: 1,
            solar_storm_mean_s: 10.0,
            solar_storm_band_half_width_deg: 15.0,
            solar_storm_cpu_share_percent: 25,
            region_blackouts: 1,
            region_blackout_mean_s: 10.0,
            region_blackout_radius_km: 500.0,
            link_flap_storms: 1,
            link_flap_mean_s: 10.0,
            link_flap_period_s: 4.0,
        }
    }
}

impl ChaosConfig {
    /// Validates the chaos parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for non-positive durations or an
    /// out-of-range CPU share.
    pub fn validate(&self) -> Result<()> {
        for (key, value) in [
            ("plane-outage-mean-s", self.plane_outage_mean_s),
            ("solar-storm-mean-s", self.solar_storm_mean_s),
            ("region-blackout-mean-s", self.region_blackout_mean_s),
            ("region-blackout-radius-km", self.region_blackout_radius_km),
            ("link-flap-mean-s", self.link_flap_mean_s),
            ("link-flap-period-s", self.link_flap_period_s),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(Error::config(format!(
                    "chaos {key} must be positive and finite, got {value} (see docs/CHAOS.md)"
                )));
            }
        }
        if self.solar_storm_band_half_width_deg < 0.0 {
            return Err(Error::config(
                "chaos solar-storm-band-half-width-deg must be non-negative (see docs/CHAOS.md)",
            ));
        }
        if self.solar_storm_cpu_share_percent == 0 || self.solar_storm_cpu_share_percent > 100 {
            return Err(Error::config(format!(
                "chaos solar-storm-cpu-share-percent must be in (0, 100], got {} \
                 (see docs/CHAOS.md)",
                self.solar_storm_cpu_share_percent
            )));
        }
        Ok(())
    }
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 0,
            update_interval_s: 2.0,
            duration_s: 600.0,
            utilization_sample_interval_s: 1.0,
            shells: Vec::new(),
            ground_stations: Vec::new(),
            bounding_box: BoundingBox::whole_earth(),
            path_algorithm: PathAlgorithm::Dijkstra,
            pipeline: PipelineMode::Synchronous,
            shards: None,
            host_latency_us: None,
            hosts: vec![HostConfig::default(); 3],
            ballooning: false,
            chaos: None,
            serve: None,
            tenants: None,
            paths: None,
            scenario: None,
        }
    }
}

impl TestbedConfig {
    /// Parses a configuration from Celestial's TOML format.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on syntax errors, missing required keys or
    /// semantically invalid values.
    pub fn from_toml(input: &str) -> Result<Self> {
        let table = toml::parse(input)?;
        let mut config = TestbedConfig {
            seed: table.get_i64("seed")?.unwrap_or(0) as u64,
            update_interval_s: table.get_f64("update-interval-s")?.unwrap_or(2.0),
            duration_s: table.get_f64("duration-s")?.unwrap_or(600.0),
            utilization_sample_interval_s: table
                .get_f64("utilization-sample-interval-s")?
                .unwrap_or(1.0),
            ballooning: table.get_bool("ballooning")?.unwrap_or(false),
            ..TestbedConfig::default()
        };

        if let Some(value) = table.get("path-algorithm") {
            let text = value.as_str();
            config.path_algorithm = text
                .and_then(|t| PathAlgorithm::ALL.iter().find(|a| a.name() == t).copied())
                .ok_or_else(|| {
                    Error::config(format!(
                        "unknown path-algorithm {text:?}; expected \"dijkstra\" (see docs/PATHS.md)"
                    ))
                })?;
        }

        if let Some(value) = table.get("pipeline") {
            let text = value.as_str();
            config.pipeline = text
                .and_then(|t| PipelineMode::ALL.iter().find(|m| m.name() == t).copied())
                .ok_or_else(|| {
                    let expected: Vec<String> = PipelineMode::ALL
                        .iter()
                        .map(|m| format!("\"{}\"", m.name()))
                        .collect();
                    Error::config(format!(
                        "unknown pipeline {text:?}; expected one of {} (see docs/PIPELINE.md)",
                        expected.join(", ")
                    ))
                })?;
        }

        if let Some(shards) = table.get_i64("shards")? {
            if shards < 1 {
                return Err(Error::config("shards must be at least 1 (see docs/SHARDING.md)"));
            }
            config.shards = Some(shards as u32);
            // `shards = N` alone provisions N default hosts; explicit
            // `[[host]]` tables must agree with it (validated below).
            config.hosts = vec![HostConfig::default(); shards as usize];
        }
        if let Some(us) = table.get_i64("host-latency-us")? {
            if us < 0 {
                return Err(Error::config("host-latency-us must be non-negative"));
            }
            config.host_latency_us = Some(us as u64);
        }

        if let Some(bbox) = table.get("bounding-box").and_then(|v| v.as_table()) {
            config.bounding_box = BoundingBox::new(
                bbox.require_f64("lat-min")?,
                bbox.require_f64("lat-max")?,
                bbox.require_f64("lon-min")?,
                bbox.require_f64("lon-max")?,
            );
        }

        if let Some(shells) = table.get("shell").and_then(|v| v.as_table_array()) {
            for shell in shells {
                config.shells.push(parse_shell(shell)?);
            }
        }
        if let Some(stations) = table.get("ground-station").and_then(|v| v.as_table_array()) {
            for gst in stations {
                config.ground_stations.push(parse_ground_station(gst)?);
            }
        }
        if let Some(chaos) = table.get("chaos").and_then(|v| v.as_table()) {
            let defaults = ChaosConfig::default();
            let count = |key: &str, default: u32| -> Result<u32> {
                match chaos.get_i64(key)? {
                    Some(n) if n < 0 => {
                        Err(Error::config(format!("chaos {key} must be non-negative")))
                    }
                    Some(n) => Ok(n as u32),
                    None => Ok(default),
                }
            };
            config.chaos = Some(ChaosConfig {
                plane_outages: count("plane-outages", defaults.plane_outages)?,
                plane_outage_mean_s: chaos
                    .get_f64("plane-outage-mean-s")?
                    .unwrap_or(defaults.plane_outage_mean_s),
                solar_storms: count("solar-storms", defaults.solar_storms)?,
                solar_storm_mean_s: chaos
                    .get_f64("solar-storm-mean-s")?
                    .unwrap_or(defaults.solar_storm_mean_s),
                solar_storm_band_half_width_deg: chaos
                    .get_f64("solar-storm-band-half-width-deg")?
                    .unwrap_or(defaults.solar_storm_band_half_width_deg),
                solar_storm_cpu_share_percent: chaos
                    .get_i64("solar-storm-cpu-share-percent")?
                    .map_or(defaults.solar_storm_cpu_share_percent, |p| {
                        p.clamp(0, 255) as u8
                    }),
                region_blackouts: count("region-blackouts", defaults.region_blackouts)?,
                region_blackout_mean_s: chaos
                    .get_f64("region-blackout-mean-s")?
                    .unwrap_or(defaults.region_blackout_mean_s),
                region_blackout_radius_km: chaos
                    .get_f64("region-blackout-radius-km")?
                    .unwrap_or(defaults.region_blackout_radius_km),
                link_flap_storms: count("link-flap-storms", defaults.link_flap_storms)?,
                link_flap_mean_s: chaos
                    .get_f64("link-flap-mean-s")?
                    .unwrap_or(defaults.link_flap_mean_s),
                link_flap_period_s: chaos
                    .get_f64("link-flap-period-s")?
                    .unwrap_or(defaults.link_flap_period_s),
            });
        }
        if let Some(serve) = table.get("serve").and_then(|v| v.as_table()) {
            let defaults = ServeConfig::default();
            let count = |key: &str, default: u32| -> Result<u32> {
                match serve.get_i64(key)? {
                    Some(n) if n < 0 => {
                        Err(Error::config(format!("serve {key} must be non-negative")))
                    }
                    Some(n) => Ok(n as u32),
                    None => Ok(default),
                }
            };
            let port = match serve.get_i64("port")? {
                Some(p) if !(0..=u16::MAX as i64).contains(&p) => {
                    return Err(Error::config(format!("serve port must be a valid TCP port, got {p}")));
                }
                Some(p) => p as u16,
                None => defaults.port,
            };
            let auth_tokens = match serve.get("auth-tokens") {
                Some(value) => value
                    .as_array()
                    .ok_or_else(|| Error::config("serve auth-tokens must be an array of strings"))?
                    .iter()
                    .map(|v| {
                        v.as_str().map(str::to_owned).ok_or_else(|| {
                            Error::config("serve auth-tokens must be an array of strings")
                        })
                    })
                    .collect::<Result<Vec<String>>>()?,
                None => defaults.auth_tokens,
            };
            config.serve = Some(ServeConfig {
                port,
                workers: count("workers", defaults.workers)?,
                rate_limit_burst: count("rate-limit-burst", defaults.rate_limit_burst)?,
                rate_limit_per_epoch: count(
                    "rate-limit-per-epoch",
                    defaults.rate_limit_per_epoch,
                )?,
                auth_tokens,
                keep_alive: serve.get_bool("keep-alive")?.unwrap_or(defaults.keep_alive),
            });
        }
        if let Some(paths) = table.get("paths").and_then(|v| v.as_table()) {
            let defaults = PathsConfig::default();
            let count = |key: &str, default: u32| -> Result<u32> {
                match paths.get_i64(key)? {
                    Some(n) if n < 0 => {
                        Err(Error::config(format!("paths {key} must be non-negative")))
                    }
                    Some(n) => Ok(n as u32),
                    None => Ok(default),
                }
            };
            config.paths = Some(PathsConfig {
                scope_margin_deg: paths
                    .get_f64("scope-margin-deg")?
                    .unwrap_or(defaults.scope_margin_deg),
                k_nearest: count("k-nearest", defaults.k_nearest)?,
                landmarks: count("landmarks", defaults.landmarks)?,
            });
        }
        let tenant_blocks = table.get("tenant").and_then(|v| v.as_table_array());
        if let Some(tenants) = table.get("tenants").and_then(|v| v.as_table()) {
            if tenant_blocks.is_some() {
                return Err(Error::config(
                    "use either a [tenants] table or [[tenant]] blocks, not both \
                     (see docs/TENANTS.md)",
                ));
            }
            let defaults = TenantsConfig::default();
            let count = match tenants.get_i64("count")? {
                Some(n) if n < 1 => {
                    return Err(Error::config(
                        "tenants count must be at least 1 (see docs/TENANTS.md)",
                    ));
                }
                Some(n) => n as u32,
                None => defaults.count,
            };
            let names = match tenants.get("names") {
                Some(value) => value
                    .as_array()
                    .ok_or_else(|| Error::config("tenants names must be an array of strings"))?
                    .iter()
                    .map(|v| {
                        v.as_str().map(str::to_owned).ok_or_else(|| {
                            Error::config("tenants names must be an array of strings")
                        })
                    })
                    .collect::<Result<Vec<String>>>()?,
                None => defaults.names,
            };
            config.tenants = Some(TenantsConfig { count, names });
        } else if let Some(blocks) = tenant_blocks {
            let names = blocks
                .iter()
                .map(|t| {
                    t.get_str("name")?
                        .map(str::to_owned)
                        .ok_or_else(|| Error::config("tenant is missing 'name' (see docs/TENANTS.md)"))
                })
                .collect::<Result<Vec<String>>>()?;
            config.tenants = Some(TenantsConfig {
                count: names.len() as u32,
                names,
            });
        }
        if let Some(scenario) = table.get("scenario").and_then(|v| v.as_table()) {
            let defaults = ScenarioConfig::default();
            let tenants = match scenario.get_i64("tenants")? {
                Some(n) if n < 1 => {
                    return Err(Error::config(
                        "scenario tenants must be at least 1 (see docs/SCENARIOS.md)",
                    ));
                }
                Some(n) => n as u32,
                None => defaults.tenants,
            };
            let mut blocks = Vec::new();
            if let Some(list) = scenario.get("block").and_then(|v| v.as_table_array()) {
                for block in list {
                    blocks.push(parse_scenario_block(block)?);
                }
            }
            config.scenario = Some(ScenarioConfig { tenants, blocks });
        }
        if let Some(hosts) = table.get("host").and_then(|v| v.as_table_array()) {
            config.hosts = hosts
                .iter()
                .map(|h| {
                    Ok(HostConfig {
                        cores: h.get_i64("cores")?.unwrap_or(32) as u32,
                        memory_mib: h.get_i64("memory-mib")?.unwrap_or(32 * 1024) as u64,
                    })
                })
                .collect::<Result<_>>()?;
        }

        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration cannot produce a
    /// runnable testbed.
    pub fn validate(&self) -> Result<()> {
        if self.shells.is_empty() {
            return Err(Error::config("at least one shell is required"));
        }
        if self.update_interval_s <= 0.0 {
            return Err(Error::config("update-interval-s must be positive"));
        }
        if self.duration_s <= 0.0 {
            return Err(Error::config("duration-s must be positive"));
        }
        if self.hosts.is_empty() {
            return Err(Error::config("at least one host is required"));
        }
        self.path_algorithm.ensure_supported()?;
        if let Some(shards) = self.shards {
            if shards < 1 {
                return Err(Error::config("shards must be at least 1 (see docs/SHARDING.md)"));
            }
            if shards as usize != self.hosts.len() {
                return Err(Error::config(format!(
                    "shards = {shards} but {} hosts are configured; the sharded plane \
                     runs exactly one shard per host (see docs/SHARDING.md)",
                    self.hosts.len()
                )));
            }
        }
        let mut names = std::collections::BTreeSet::new();
        for gst in &self.ground_stations {
            if !names.insert(gst.name.clone()) {
                return Err(Error::config(format!(
                    "duplicate ground station name '{}'",
                    gst.name
                )));
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }
        if let Some(serve) = &self.serve {
            serve.validate()?;
        }
        if let Some(tenants) = &self.tenants {
            tenants.validate()?;
        }
        if let Some(paths) = &self.paths {
            paths.validate()?;
        }
        if let Some(scenario) = &self.scenario {
            scenario.validate()?;
            if self.tenants.is_some() {
                return Err(Error::config(
                    "use either a [scenario] generator or a [tenants] fan-out, not both \
                     (the scenario generates its own tenant fleet; see docs/SCENARIOS.md)",
                ));
            }
            if self.ground_stations.is_empty() {
                return Err(Error::config(
                    "a scenario needs at least one ground station to attach its blocks to \
                     (see docs/SCENARIOS.md)",
                ));
            }
            for (index, block) in scenario.blocks.iter().enumerate() {
                for role in [&block.source, &block.sink, &block.fallback] {
                    if !role.is_empty() && !self.ground_stations.iter().any(|g| &g.name == role) {
                        return Err(Error::config(format!(
                            "scenario block '{}' references unknown ground station '{role}' \
                             (see docs/SCENARIOS.md)",
                            block.effective_name(index)
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Starts building a configuration programmatically.
    pub fn builder() -> TestbedConfigBuilder {
        TestbedConfigBuilder::default()
    }
}

fn parse_shell(table: &TomlTable) -> Result<Shell> {
    let altitude = table.require_f64("altitude-km")?;
    let inclination = table.require_f64("inclination-deg")?;
    let planes = table
        .get_i64("planes")?
        .ok_or_else(|| Error::config("shell is missing 'planes'"))? as u32;
    let per_plane = table
        .get_i64("satellites-per-plane")?
        .ok_or_else(|| Error::config("shell is missing 'satellites-per-plane'"))?
        as u32;
    let mut walker = WalkerShell::new(altitude, inclination, planes, per_plane);
    if let Some(arc) = table.get_f64("arc-of-ascending-nodes-deg")? {
        walker = walker.with_arc_of_ascending_nodes(arc);
    }
    if let Some(phase) = table.get_i64("phase-offset")? {
        walker = walker.with_phase_offset(phase as u32);
    }
    let mut shell = Shell::from_walker(walker);
    if let Some(bw) = table.get_i64("isl-bandwidth-kbps")? {
        shell = shell.with_isl_bandwidth(Bandwidth::from_kbps(bw as u64));
    }
    if let Some(bw) = table.get_i64("ground-link-bandwidth-kbps")? {
        shell = shell.with_ground_link_bandwidth(Bandwidth::from_kbps(bw as u64));
    }
    shell = shell.with_min_elevation_deg(
        table
            .get_f64("min-elevation-deg")?
            .unwrap_or(DEFAULT_MIN_ELEVATION_DEG),
    );
    let vcpus = table.get_i64("vcpus")?.unwrap_or(2) as u32;
    let memory = table.get_i64("memory-mib")?.unwrap_or(512) as u64;
    shell = shell.with_resources(MachineResources::new(vcpus, memory));
    Ok(shell)
}

fn parse_scenario_block(table: &TomlTable) -> Result<ScenarioBlock> {
    let defaults = ScenarioBlock::default();
    let kind = match table.get_str("kind")? {
        Some(text) => ScenarioBlockKind::ALL
            .iter()
            .find(|k| k.name() == text)
            .copied()
            .ok_or_else(|| {
                let expected: Vec<String> = ScenarioBlockKind::ALL
                    .iter()
                    .map(|k| format!("\"{}\"", k.name()))
                    .collect();
                Error::config(format!(
                    "unknown scenario block kind \"{text}\"; expected one of {} \
                     (see docs/SCENARIOS.md)",
                    expected.join(", ")
                ))
            })?,
        None => defaults.kind,
    };
    let nonneg = |key: &str, default: u64| -> Result<u64> {
        match table.get_i64(key)? {
            Some(n) if n < 0 => Err(Error::config(format!(
                "scenario block {key} must be non-negative"
            ))),
            Some(n) => Ok(n as u64),
            None => Ok(default),
        }
    };
    let station = |key: &str, default: &str| -> Result<String> {
        Ok(table.get_str(key)?.unwrap_or(default).to_owned())
    };
    Ok(ScenarioBlock {
        kind,
        name: station("name", &defaults.name)?,
        population: nonneg("population", defaults.population)?,
        source: station("source", &defaults.source)?,
        sink: station("sink", &defaults.sink)?,
        fallback: station("fallback", &defaults.fallback)?,
        bitrate_bps: nonneg("bitrate-bps", defaults.bitrate_bps)?,
        interval_ms: table.get_f64("interval-ms")?.unwrap_or(defaults.interval_ms),
        hit_ratio: table.get_f64("hit-ratio")?.unwrap_or(defaults.hit_ratio),
        burst_prob: table.get_f64("burst-prob")?.unwrap_or(defaults.burst_prob),
        burst_factor: nonneg("burst-factor", u64::from(defaults.burst_factor))? as u32,
    })
}

fn parse_ground_station(table: &TomlTable) -> Result<GroundStation> {
    let name = table
        .get_str("name")?
        .ok_or_else(|| Error::config("ground station is missing 'name'"))?;
    let lat = table.require_f64("lat")?;
    let lon = table.require_f64("lon")?;
    let mut gst = GroundStation::new(name, Geodetic::new(lat, lon, 0.0));
    if let (Some(vcpus), Some(memory)) = (table.get_i64("vcpus")?, table.get_i64("memory-mib")?) {
        gst = gst.with_resources(MachineResources::new(vcpus as u32, memory as u64));
    }
    if let Some(bw) = table.get_i64("bandwidth-kbps")? {
        gst = gst.with_bandwidth(Bandwidth::from_kbps(bw as u64));
    }
    if let Some(elev) = table.get_f64("min-elevation-deg")? {
        gst = gst.with_min_elevation_deg(elev);
    }
    Ok(gst)
}

/// Builder for [`TestbedConfig`].
#[derive(Debug, Clone, Default)]
pub struct TestbedConfigBuilder {
    config: TestbedConfig,
}

impl TestbedConfigBuilder {
    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the constellation update interval in seconds.
    pub fn update_interval_s(mut self, interval: f64) -> Self {
        self.config.update_interval_s = interval;
        self
    }

    /// Sets the experiment duration in seconds.
    pub fn duration_s(mut self, duration: f64) -> Self {
        self.config.duration_s = duration;
        self
    }

    /// Adds a shell.
    pub fn shell(mut self, shell: Shell) -> Self {
        self.config.shells.push(shell);
        self
    }

    /// Adds several shells.
    pub fn shells(mut self, shells: impl IntoIterator<Item = Shell>) -> Self {
        self.config.shells.extend(shells);
        self
    }

    /// Adds a ground station.
    pub fn ground_station(mut self, gst: GroundStation) -> Self {
        self.config.ground_stations.push(gst);
        self
    }

    /// Adds several ground stations.
    pub fn ground_stations(mut self, stations: impl IntoIterator<Item = GroundStation>) -> Self {
        self.config.ground_stations.extend(stations);
        self
    }

    /// Sets the bounding box.
    pub fn bounding_box(mut self, bbox: BoundingBox) -> Self {
        self.config.bounding_box = bbox;
        self
    }

    /// Sets the shortest-path algorithm.
    pub fn path_algorithm(mut self, algorithm: PathAlgorithm) -> Self {
        self.config.path_algorithm = algorithm;
        self
    }

    /// Sets the epoch-pipeline mode.
    pub fn pipeline(mut self, mode: PipelineMode) -> Self {
        self.config.pipeline = mode;
        self
    }

    /// Enables the host-sharded programming plane with one shard per host,
    /// provisioning `shards` default hosts unless an explicit host fleet of
    /// the same size is set (see `docs/SHARDING.md`).
    pub fn shards(mut self, shards: u32) -> Self {
        self.config.shards = Some(shards);
        if self.config.hosts.len() != shards as usize {
            self.config.hosts = vec![HostConfig::default(); shards as usize];
        }
        self
    }

    /// Sets the default one-way inter-host latency in microseconds.
    pub fn host_latency_us(mut self, us: u64) -> Self {
        self.config.host_latency_us = Some(us);
        self
    }

    /// Sets the host fleet.
    pub fn hosts(mut self, hosts: Vec<HostConfig>) -> Self {
        self.config.hosts = hosts;
        self
    }

    /// Enables or disables virtio ballooning for suspended machines.
    pub fn ballooning(mut self, enabled: bool) -> Self {
        self.config.ballooning = enabled;
        self
    }

    /// Enables the chaos engine with the given generator mix (see
    /// `docs/CHAOS.md`).
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = Some(chaos);
        self
    }

    /// Enables the HTTP serving plane with the given parameters (see
    /// `docs/SERVE.md`).
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.config.serve = Some(serve);
        self
    }

    /// Tunes the scale-aware solve scope (see `docs/MEGASCALE.md`).
    pub fn paths(mut self, paths: PathsConfig) -> Self {
        self.config.paths = Some(paths);
        self
    }

    /// Fans the testbed out to several tenants sharing one epoch pipeline
    /// (see `docs/TENANTS.md`).
    pub fn tenants(mut self, tenants: TenantsConfig) -> Self {
        self.config.tenants = Some(tenants);
        self
    }

    /// Fans the testbed out to `count` anonymous tenants (named
    /// `tenant-0..tenant-{count-1}`; see `docs/TENANTS.md`).
    pub fn tenant_count(mut self, count: u32) -> Self {
        self.config.tenants = Some(TenantsConfig {
            count,
            names: Vec::new(),
        });
        self
    }

    /// Generates a tenant fleet from composable workload blocks (see
    /// `docs/SCENARIOS.md`).
    pub fn scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.config.scenario = Some(scenario);
        self
    }

    /// Finishes building and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the configuration is invalid.
    pub fn build(self) -> Result<TestbedConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
seed = 42
update-interval-s = 2.0
duration-s = 600.0
path-algorithm = "dijkstra"

[bounding-box]
lat-min = -5.0
lat-max = 25.0
lon-min = -15.0
lon-max = 25.0

[[host]]
cores = 32
memory-mib = 32768

[[host]]
cores = 32
memory-mib = 32768

[[shell]]
altitude-km = 550.0
inclination-deg = 53.0
planes = 72
satellites-per-plane = 22
phase-offset = 17
isl-bandwidth-kbps = 10000000
vcpus = 2
memory-mib = 512

[[ground-station]]
name = "accra"
lat = 5.6037
lon = -0.187
vcpus = 4
memory-mib = 4096

[[ground-station]]
name = "johannesburg-dc"
lat = -26.2041
lon = 28.0473
vcpus = 8
memory-mib = 8192
min-elevation-deg = 30.0
"#;

    #[test]
    fn parses_the_example_configuration() {
        let config = TestbedConfig::from_toml(EXAMPLE).expect("valid config");
        assert_eq!(config.seed, 42);
        assert_eq!(config.update_interval_s, 2.0);
        assert_eq!(config.hosts.len(), 2);
        assert_eq!(config.shells.len(), 1);
        assert_eq!(config.shells[0].satellite_count(), 1584);
        assert_eq!(config.shells[0].isl_bandwidth, Bandwidth::from_gbps(10));
        assert_eq!(config.shells[0].resources.memory_mib, 512);
        assert_eq!(config.ground_stations.len(), 2);
        assert_eq!(config.ground_stations[0].name, "accra");
        assert_eq!(config.ground_stations[1].min_elevation_deg, Some(30.0));
        assert!(!config.bounding_box.contains(
            &Geodetic::new(-26.2, 28.0, 0.0)
        ));
    }

    #[test]
    fn missing_shell_fields_are_reported() {
        let bad = "[[shell]]\naltitude-km = 550.0";
        let err = TestbedConfig::from_toml(bad).unwrap_err();
        assert!(err.to_string().contains("inclination-deg"));
    }

    #[test]
    fn empty_configuration_is_invalid() {
        assert!(TestbedConfig::from_toml("").is_err());
    }

    #[test]
    fn removed_path_algorithms_are_rejected_with_a_migration_message() {
        for algorithm in PathAlgorithm::ALL {
            let text = algorithm.name();
            let toml = format!(
                "path-algorithm = \"{text}\"\n[[shell]]\naltitude-km = 550.0\n\
                 inclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2"
            );
            let shell = Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2));
            let parsed = TestbedConfig::from_toml(&toml).map(|_| ());
            let built = TestbedConfig::builder()
                .shell(shell.clone())
                .path_algorithm(algorithm)
                .build()
                .map(|_| ());
            let constellation = celestial_constellation::Constellation::builder()
                .shell(shell)
                .path_algorithm(algorithm)
                .build()
                .map(|_| ());
            let expected = format!(
                "path-algorithm \"{text}\" was removed; every epoch runs the scoped Dijkstra \
                 solve (see docs/PATHS.md)"
            );
            for result in [parsed, built, constellation] {
                match result {
                    Ok(()) => assert_eq!(algorithm, PathAlgorithm::Dijkstra),
                    Err(err) => assert!(err.to_string().contains(&expected), "{err}"),
                }
            }
        }
    }

    #[test]
    fn wrong_typed_values_are_rejected_naming_the_key() {
        let shell = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                     planes = 1\nsatellites-per-plane = 2";
        for (line, key) in [
            ("update-interval-s = \"1.0\"", "update-interval-s"),
            ("seed = \"7\"", "seed"),
            ("ballooning = 1", "ballooning"),
            ("shards = \"2\"", "shards"),
        ] {
            let err = TestbedConfig::from_toml(&format!("{line}\n{shell}")).unwrap_err();
            assert!(err.to_string().contains(&format!("'{key}'")), "{line}: {err}");
        }
        // Integers still widen to floats.
        let config = TestbedConfig::from_toml(&format!("update-interval-s = 1\n{shell}"))
            .expect("valid config");
        assert_eq!(config.update_interval_s, 1.0);
    }

    #[test]
    fn pipeline_modes_parse_and_default_to_synchronous() {
        for (text, expected) in [
            ("synchronous", PipelineMode::Synchronous),
            ("pipelined", PipelineMode::Pipelined),
        ] {
            let toml = format!(
                "pipeline = \"{text}\"\n[[shell]]\naltitude-km = 550.0\n\
                 inclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2"
            );
            let config = TestbedConfig::from_toml(&toml).expect("valid config");
            assert_eq!(config.pipeline, expected);
        }
        let bare = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 1\nsatellites-per-plane = 2";
        let config = TestbedConfig::from_toml(bare).expect("valid config");
        assert_eq!(config.pipeline, PipelineMode::Synchronous);
        let bad = "pipeline = \"speculative\"\n[[shell]]\naltitude-km = 550.0\n\
                   inclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2";
        let err = TestbedConfig::from_toml(bad).unwrap_err();
        assert!(err.to_string().contains("pipeline"), "{err}");
    }

    #[test]
    fn shards_key_provisions_one_host_per_shard() {
        let toml = "shards = 4\nhost-latency-us = 350\n[[shell]]\naltitude-km = 550.0\n\
                    inclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2";
        let config = TestbedConfig::from_toml(toml).expect("valid config");
        assert_eq!(config.shards, Some(4));
        assert_eq!(config.hosts.len(), 4);
        assert_eq!(config.host_latency_us, Some(350));
        // Absent key: global plane, default host fleet, paper's 0.2 ms.
        let bare = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 1\nsatellites-per-plane = 2";
        let config = TestbedConfig::from_toml(bare).expect("valid config");
        assert_eq!(config.shards, None);
        assert_eq!(config.host_latency_us, None);
    }

    #[test]
    fn shards_must_match_an_explicit_host_fleet() {
        let toml = "shards = 4\n[[host]]\ncores = 8\nmemory-mib = 8192\n[[shell]]\n\
                    altitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\n\
                    satellites-per-plane = 2";
        let err = TestbedConfig::from_toml(toml).unwrap_err();
        assert!(err.to_string().contains("one shard per host"), "{err}");
        let zero = "shards = 0\n[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 1\nsatellites-per-plane = 2";
        assert!(TestbedConfig::from_toml(zero).is_err());
        // Builder: shards resizes a default fleet, and an agreeing explicit
        // fleet is kept.
        let config = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .hosts(vec![HostConfig { cores: 8, memory_mib: 4096 }; 2])
            .shards(2)
            .build()
            .expect("valid config");
        assert_eq!(config.hosts.len(), 2);
        assert_eq!(config.hosts[0].cores, 8, "explicit fleet kept");
        let config = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .shards(5)
            .build()
            .expect("valid config");
        assert_eq!(config.hosts.len(), 5);
    }

    #[test]
    fn unknown_path_algorithm_is_rejected() {
        let bad = "path-algorithm = \"bellman-ford\"\n[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 1\nsatellites-per-plane = 2";
        assert!(TestbedConfig::from_toml(bad).is_err());
    }

    #[test]
    fn duplicate_ground_station_names_are_rejected() {
        let config = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .ground_station(GroundStation::new("a", Geodetic::new(0.0, 0.0, 0.0)))
            .ground_station(GroundStation::new("a", Geodetic::new(1.0, 1.0, 0.0)))
            .build();
        assert!(config.is_err());
    }

    #[test]
    fn builder_produces_valid_configurations() {
        let config = TestbedConfig::builder()
            .seed(7)
            .update_interval_s(5.0)
            .duration_s(900.0)
            .shell(Shell::from_walker(WalkerShell::iridium()))
            .ground_station(GroundStation::new("ptwc", Geodetic::new(21.36, -157.98, 0.0)))
            .bounding_box(BoundingBox::pacific())
            .path_algorithm(PathAlgorithm::Dijkstra)
            .hosts(vec![HostConfig::default(); 4])
            .ballooning(true)
            .build()
            .expect("valid config");
        assert_eq!(config.seed, 7);
        assert_eq!(config.shells[0].satellite_count(), 66);
        assert!(config.ballooning);
    }

    #[test]
    fn invalid_intervals_are_rejected() {
        let result = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .update_interval_s(0.0)
            .build();
        assert!(result.is_err());
        let result = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .duration_s(-1.0)
            .build();
        assert!(result.is_err());
        let result = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .hosts(Vec::new())
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn chaos_section_parses_with_defaults_and_overrides() {
        let toml = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 2\nsatellites-per-plane = 4\n\n\
                    [chaos]\nplane-outages = 3\nsolar-storm-cpu-share-percent = 10\n\
                    link-flap-period-s = 2.5\n";
        let config = TestbedConfig::from_toml(toml).expect("parses");
        let chaos = config.chaos.expect("[chaos] section enables the engine");
        assert_eq!(chaos.plane_outages, 3);
        assert_eq!(chaos.solar_storm_cpu_share_percent, 10);
        assert_eq!(chaos.link_flap_period_s, 2.5);
        // Unspecified keys keep the documented defaults.
        let defaults = ChaosConfig::default();
        assert_eq!(chaos.solar_storms, defaults.solar_storms);
        assert_eq!(chaos.region_blackout_radius_km, defaults.region_blackout_radius_km);
        // No [chaos] section → chaos disabled.
        let plain = TestbedConfig::from_toml(
            "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 2\nsatellites-per-plane = 4\n",
        )
        .expect("parses");
        assert!(plain.chaos.is_none());
    }

    #[test]
    fn serve_section_parses_with_defaults_and_overrides() {
        let toml = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 2\nsatellites-per-plane = 4\n\n\
                    [serve]\nworkers = 2\nrate-limit-per-epoch = 8\n\
                    auth-tokens = [\"alpha\", \"beta\"]\n";
        let config = TestbedConfig::from_toml(toml).expect("parses");
        let serve = config.serve.expect("[serve] section enables the plane");
        assert_eq!(serve.workers, 2);
        assert_eq!(serve.rate_limit_per_epoch, 8);
        assert_eq!(serve.auth_tokens, vec!["alpha".to_owned(), "beta".to_owned()]);
        // Unspecified keys keep the documented defaults.
        let defaults = ServeConfig::default();
        assert_eq!(serve.port, defaults.port);
        assert_eq!(serve.rate_limit_burst, defaults.rate_limit_burst);
        assert_eq!(serve.keep_alive, defaults.keep_alive);
        // No [serve] section → serving plane disabled.
        let plain = TestbedConfig::from_toml(
            "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 2\nsatellites-per-plane = 4\n",
        )
        .expect("parses");
        assert!(plain.serve.is_none());
    }

    #[test]
    fn serve_section_rejects_invalid_values() {
        let base = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 2\nsatellites-per-plane = 4\n\n[serve]\n";
        for bad in [
            "workers = 0\n",
            "workers = -1\n",
            "port = 70000\n",
            "rate-limit-burst = 0\n",
            "auth-tokens = [\"\"]\n",
            "auth-tokens = [1, 2]\n",
        ] {
            let toml = format!("{base}{bad}");
            assert!(
                TestbedConfig::from_toml(&toml).is_err(),
                "accepted invalid serve config {bad:?}"
            );
        }
    }

    #[test]
    fn paths_section_parses_with_defaults_and_overrides() {
        let toml = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 2\nsatellites-per-plane = 4\n\n\
                    [paths]\nscope-margin-deg = 5.0\nk-nearest = 4\n";
        let config = TestbedConfig::from_toml(toml).expect("parses");
        let paths = config.paths.expect("[paths] section tunes the scope");
        assert_eq!(paths.scope_margin_deg, 5.0);
        assert_eq!(paths.k_nearest, 4);
        // Unspecified keys keep the documented defaults.
        assert_eq!(paths.landmarks, PathsConfig::default().landmarks);
        // The engine-facing parameters mirror the section.
        let params = paths.scope_params();
        assert_eq!(params.margin_deg, 5.0);
        assert_eq!(params.k_nearest, 4);
        assert_eq!(params.landmarks, 8);
        // No [paths] section → the engine defaults apply.
        let plain = TestbedConfig::from_toml(
            "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\nplanes = 2\nsatellites-per-plane = 4\n",
        )
        .expect("parses");
        assert!(plain.paths.is_none());
        assert_eq!(PathsConfig::default().scope_params(), ScopeParams::default());
    }

    #[test]
    fn paths_section_rejects_invalid_values() {
        let base = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 2\nsatellites-per-plane = 4\n\n[paths]\n";
        for bad in ["scope-margin-deg = -1.0\n", "k-nearest = -1\n", "landmarks = -3\n"] {
            let toml = format!("{base}{bad}");
            assert!(
                TestbedConfig::from_toml(&toml).is_err(),
                "accepted invalid paths config {bad:?}"
            );
        }
    }

    #[test]
    fn tenants_section_parses_both_schemas() {
        let shell = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                     planes = 2\nsatellites-per-plane = 4\n";
        // A [tenants] table with a count derives anonymous names.
        let counted = format!("{shell}\n[tenants]\ncount = 3\n");
        let config = TestbedConfig::from_toml(&counted).expect("parses");
        let tenants = config.tenants.expect("[tenants] enables the fan-out");
        assert_eq!(tenants.count, 3);
        assert_eq!(
            tenants.tenant_names(),
            vec!["tenant-0".to_owned(), "tenant-1".to_owned(), "tenant-2".to_owned()]
        );
        // Explicit names in the table form.
        let named = format!("{shell}\n[tenants]\ncount = 2\nnames = [\"red\", \"blue\"]\n");
        let config = TestbedConfig::from_toml(&named).expect("parses");
        assert_eq!(
            config.tenants.unwrap().tenant_names(),
            vec!["red".to_owned(), "blue".to_owned()]
        );
        // One [[tenant]] block per tenant.
        let blocks = format!("{shell}\n[[tenant]]\nname = \"red\"\n\n[[tenant]]\nname = \"blue\"\n");
        let config = TestbedConfig::from_toml(&blocks).expect("parses");
        let tenants = config.tenants.unwrap();
        assert_eq!(tenants.count, 2);
        assert_eq!(tenants.tenant_names(), vec!["red".to_owned(), "blue".to_owned()]);
        // No tenant configuration → solo testbed.
        let plain = TestbedConfig::from_toml(shell).expect("parses");
        assert!(plain.tenants.is_none());
    }

    #[test]
    fn invalid_tenant_configurations_are_rejected() {
        let shell = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                     planes = 2\nsatellites-per-plane = 4\n";
        for bad in [
            "[tenants]\ncount = 0\n",
            "[tenants]\ncount = 5000\n",
            "[tenants]\ncount = 2\nnames = [\"only\"]\n",
            "[tenants]\ncount = 2\nnames = [\"twin\", \"twin\"]\n",
            "[tenants]\ncount = 1\nnames = [\"\"]\n",
            "[tenants]\nnames = [1, 2]\n",
            "[[tenant]]\nname = \"a\"\n\n[tenants]\ncount = 2\n",
            "[[tenant]]\nlabel = \"unnamed\"\n",
        ] {
            let toml = format!("{shell}\n{bad}");
            assert!(
                TestbedConfig::from_toml(&toml).is_err(),
                "accepted invalid tenant config {bad:?}"
            );
        }
    }

    #[test]
    fn scenario_section_parses_with_defaults_and_overrides() {
        let shell = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                     planes = 2\nsatellites-per-plane = 4\n\
                     [[ground-station]]\nname = \"accra\"\nlat = 5.6\nlon = -0.19\n\
                     [[ground-station]]\nname = \"abuja\"\nlat = 9.08\nlon = 7.4\n";
        let toml = format!(
            "{shell}\n[scenario]\ntenants = 8\n\n\
             [[scenario.block]]\nkind = \"cbr\"\npopulation = 250\n\n\
             [[scenario.block]]\nkind = \"iot\"\nname = \"buoys\"\nburst-prob = 0.25\n\
             source = \"abuja\"\nsink = \"accra\"\n"
        );
        let config = TestbedConfig::from_toml(&toml).expect("parses");
        let scenario = config.scenario.clone().expect("[scenario] enables the generator");
        assert_eq!(scenario.tenants, 8);
        assert_eq!(scenario.blocks.len(), 2);
        assert_eq!(scenario.blocks[0].kind, ScenarioBlockKind::Cbr);
        assert_eq!(scenario.blocks[0].population, 250);
        assert_eq!(scenario.blocks[0].effective_name(0), "cbr-0");
        // Unspecified keys keep the documented defaults.
        let defaults = ScenarioBlock::default();
        assert_eq!(scenario.blocks[0].bitrate_bps, defaults.bitrate_bps);
        assert_eq!(scenario.blocks[0].interval_ms, defaults.interval_ms);
        assert_eq!(scenario.blocks[1].kind, ScenarioBlockKind::Iot);
        assert_eq!(scenario.blocks[1].effective_name(1), "buoys");
        assert_eq!(scenario.blocks[1].burst_prob, 0.25);
        assert_eq!(scenario.blocks[1].source, "abuja");
        assert_eq!(scenario.users_per_tenant(), 350);
        assert_eq!(scenario.aggregate_users(), 8 * 350);
        assert_eq!(scenario.tenant_names()[7], "scenario-0007");
        // A scenario config round-trips through serde.
        let json = serde_json::to_string(&config).expect("serializes");
        let back: TestbedConfig = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(config, back);
        // No [scenario] section → no generated fleet.
        let plain = TestbedConfig::from_toml(shell).expect("parses");
        assert!(plain.scenario.is_none());
    }

    #[test]
    fn invalid_scenario_configurations_are_rejected() {
        let shell = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                     planes = 2\nsatellites-per-plane = 4\n\
                     [[ground-station]]\nname = \"accra\"\nlat = 5.6\nlon = -0.19\n";
        for bad in [
            // No blocks at all.
            "[scenario]\ntenants = 4\n",
            // Tenant count out of range.
            "[scenario]\ntenants = 0\n\n[[scenario.block]]\nkind = \"cbr\"\n",
            "[scenario]\ntenants = 5000\n\n[[scenario.block]]\nkind = \"cbr\"\n",
            // Unknown kind, bad parameters, duplicate names.
            "[[scenario.block]]\nkind = \"warp\"\n",
            "[[scenario.block]]\npopulation = 0\n",
            "[[scenario.block]]\ninterval-ms = 0.0\n",
            "[[scenario.block]]\nhit-ratio = 1.5\n",
            "[[scenario.block]]\nburst-prob = -0.1\n",
            "[[scenario.block]]\nburst-factor = 0\n",
            "[[scenario.block]]\nname = \"twin\"\n\n[[scenario.block]]\nname = \"twin\"\n",
            // Unknown ground-station reference.
            "[[scenario.block]]\nsource = \"nowhere\"\n",
            // Mutually exclusive with the [tenants] fan-out.
            "[tenants]\ncount = 2\n\n[[scenario.block]]\nkind = \"cbr\"\n",
        ] {
            let toml = format!("{shell}\n{bad}");
            assert!(
                TestbedConfig::from_toml(&toml).is_err(),
                "accepted invalid scenario config {bad:?}"
            );
        }
        // A scenario without ground stations cannot attach its blocks.
        let no_stations = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                           planes = 2\nsatellites-per-plane = 4\n\n\
                           [[scenario.block]]\nkind = \"cbr\"\n";
        assert!(TestbedConfig::from_toml(no_stations).is_err());
    }

    #[test]
    fn invalid_chaos_parameters_are_rejected() {
        let base = "[[shell]]\naltitude-km = 550.0\ninclination-deg = 53.0\n\
                    planes = 2\nsatellites-per-plane = 4\n\n[chaos]\n";
        for bad in [
            "plane-outage-mean-s = 0.0\n",
            "link-flap-period-s = -2.0\n",
            "solar-storm-cpu-share-percent = 0\n",
            "solar-storm-cpu-share-percent = 150\n",
            "plane-outages = -1\n",
        ] {
            let toml = format!("{base}{bad}");
            assert!(TestbedConfig::from_toml(&toml).is_err(), "accepted {bad:?}");
        }
        let invalid = ChaosConfig { solar_storm_cpu_share_percent: 0, ..ChaosConfig::default() };
        let result = TestbedConfig::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 1, 2)))
            .chaos(invalid)
            .build();
        assert!(result.is_err());
    }
}

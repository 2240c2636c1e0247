//! The Celestial configuration file.
//!
//! All parameters of a testbed run are passed in a single file (§3.1): the
//! orbital parameters of every shell, network bandwidths, machine resources,
//! ground stations, the bounding box, the update interval and the host fleet.
//! This module defines the strongly typed configuration, its construction
//! from the TOML subset parsed by [`crate::toml`] and a builder API for
//! constructing configurations programmatically.
//!
//! Each TOML section is read through one key table: a list of `key →
//! setter` entries over the section's struct, whose defaults come from the
//! struct's own constructor. An unknown key or section, a value of the wrong
//! type or an integer outside its field's range is an error naming the
//! section, the key and its line. [`TestbedConfig::validate`] is the one
//! semantic validator for both the TOML reader and the builder.

use crate::pipeline::PipelineMode;
use crate::toml::{self, TomlTable, TomlValue};
use celestial_constellation::{BoundingBox, GroundStation, PathAlgorithm, ScopeParams, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::{Bandwidth, Error, Result};
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
        check_fleet_size(self.count, "docs/TENANTS.md")
            .map_err(|problem| Error::config(format!("tenants count {problem}")))?;
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
        check_fleet_size(self.tenants, "docs/SCENARIOS.md")
            .map_err(|problem| Error::config(format!("scenario tenants {problem}")))?;
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
                check_ratio(value).map_err(|problem| {
                    Error::config(format!("scenario block '{name}' {key} {problem}"))
                })?;
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
    /// Every key is looked up in its section's key table: an unknown key or
    /// section, a value of the wrong type or an integer outside its field's
    /// range is an error naming the section, the key and its line.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on syntax errors, unknown or missing keys or
    /// semantically invalid values.
    pub fn from_toml(input: &str) -> Result<Self> {
        let table = toml::parse(input)?;
        let mut config = TOP_LEVEL.read(&table)?;
        // `shards = N` alone provisions N default hosts; explicit `[[host]]`
        // tables must agree with it (validated below).
        if table.get("host").is_none() {
            config.provision_shard_hosts();
        }
        config.validate()?;
        Ok(config)
    }

    /// Every key the TOML reader accepts, as `(section, key)` pairs in key
    /// table order. The section is `top-level` or its header as written
    /// (`[chaos]`, `[[shell]]`, `[[scenario.block]]`); a key opening a
    /// nested section (`shell`, `block`) is listed under its parent too.
    pub fn toml_keys() -> Vec<(&'static str, &'static str)> {
        [
            TOP_LEVEL.names(), BOUNDING_BOX.names(), SHELL.names(), GROUND_STATION.names(),
            HOST.names(), CHAOS.names(), SERVE.names(), PATHS.names(), TENANTS.names(),
            TENANT.names(), SCENARIO.names(), SCENARIO_BLOCK.names(),
        ]
        .concat()
    }

    /// Provisions one default host per shard unless the fleet already has
    /// that size. A shard count [`validate`](Self::validate) rejects
    /// provisions nothing, so no oversized fleet is ever allocated.
    fn provision_shard_hosts(&mut self) {
        if let Some(shards) = self.shards {
            let valid = check_fleet_size(shards, "docs/SHARDING.md").is_ok();
            if valid && self.hosts.len() != shards as usize {
                self.hosts = vec![HostConfig::default(); shards as usize];
            }
        }
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
            check_fleet_size(shards, "docs/SHARDING.md")
                .map_err(|problem| Error::config(format!("shards {problem}")))?;
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

/// Shard, tenant and scenario tenant counts are capped: at most this many.
const FLEET_CAP: u32 = 4096;

/// The fleet-size check (shards, tenants, scenario tenants), shared by the
/// `validate` methods and the TOML reader, which adds the key's line. The
/// error points to `guide`.
fn check_fleet_size(count: u32, guide: &str) -> std::result::Result<(), String> {
    if (1..=FLEET_CAP).contains(&count) {
        return Ok(());
    }
    Err(format!("must be in 1..={FLEET_CAP}, got {count} (see {guide})"))
}

/// The ratio check (`hit-ratio`, `burst-prob`), shared by
/// [`ScenarioConfig::validate`] and the TOML reader.
fn check_ratio(value: f64) -> std::result::Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        return Ok(());
    }
    Err(format!("must be in [0, 1], got {value}"))
}

/// Sets one field of a section from a key's value.
type Setter<T> = fn(&mut T, &Field<'_>) -> Result<()>;

/// One configuration section: its header as written in TOML, the
/// constructor its defaults come from, the keys it requires and one setter
/// per key it accepts.
struct Section<T: 'static> {
    name: &'static str,
    init: fn() -> T,
    required: &'static [&'static str],
    keys: &'static [(&'static str, Setter<T>)],
}

impl<T> Section<T> {
    /// Reads one table of this section, walking the keys of the input in
    /// line order so the first error reported is the first in the file.
    fn read(&self, table: &TomlTable) -> Result<T> {
        let mut section = (self.init)();
        let mut entries: Vec<_> = table.entries.iter().collect();
        entries.sort_by_key(|(_, (line, _))| *line);
        for (key, (line, value)) in entries {
            let field = Field { section: self.name, key, line: *line, value };
            let (_, set) = self.keys.iter().find(|(name, _)| name == key).ok_or_else(|| {
                let known: Vec<&str> = self.keys.iter().map(|(name, _)| *name).collect();
                field.error(format!("is unknown; expected one of {}", known.join(", ")))
            })?;
            set(&mut section, &field)?;
        }
        match self.required.iter().find(|key| table.get(key).is_none()) {
            Some(key) => Err(toml::line_error(
                table.line,
                format!("{} is missing required key '{key}'", self.name),
            )),
            None => Ok(section),
        }
    }

    fn names(&self) -> Vec<(&'static str, &'static str)> {
        self.keys.iter().map(|(key, _)| (self.name, *key)).collect()
    }
}

/// A key's value and where it was written, so that every error about it
/// names the section, the key and the line.
struct Field<'a> {
    section: &'static str,
    key: &'a str,
    line: usize,
    value: &'a TomlValue,
}

impl Field<'_> {
    fn error(&self, problem: impl std::fmt::Display) -> Error {
        toml::line_error(self.line, format!("{} key '{}' {problem}", self.section, self.key))
    }

    fn get<T: FromToml>(&self) -> Result<T> {
        T::from_field(self)
    }

    /// Converts the value and runs a check that `validate` shares, so the
    /// check's error names the key and line too.
    fn checked<T: FromToml + Copy>(
        &self,
        check: impl Fn(T) -> std::result::Result<(), String>,
    ) -> Result<T> {
        let value = self.get()?;
        check(value).map_err(|problem| self.error(problem))?;
        Ok(value)
    }

    /// Converts the value to the type of `slot` and stores it there.
    fn store<T: FromToml>(&self, slot: &mut T) -> Result<()> {
        *slot = self.get()?;
        Ok(())
    }

    /// Reads the value as one `[table]` of `section`.
    fn section<T>(&self, section: &Section<T>) -> Result<T> {
        match self.value {
            TomlValue::Table(table) => section.read(table),
            _ => Err(self.error("must be a table")),
        }
    }

    /// Reads the value as `[[tables]]` of `section`.
    fn sections<T>(&self, section: &Section<T>) -> Result<Vec<T>> {
        match self.value {
            TomlValue::TableArray(tables) => tables.iter().map(|t| section.read(t)).collect(),
            _ => Err(self.error("must be an array of tables")),
        }
    }
}

/// A field type a TOML value converts into: the one place that decides
/// which TOML values a field accepts.
trait FromToml: Sized {
    fn from_field(field: &Field<'_>) -> Result<Self>;
}

impl FromToml for f64 {
    fn from_field(field: &Field<'_>) -> Result<Self> {
        match *field.value {
            TomlValue::Float(f) => Ok(f),
            // Integers widen to floats.
            TomlValue::Integer(i) => Ok(i as f64),
            _ => Err(field.error("must be a number")),
        }
    }
}

impl FromToml for bool {
    fn from_field(field: &Field<'_>) -> Result<Self> {
        match *field.value {
            TomlValue::Boolean(b) => Ok(b),
            _ => Err(field.error("must be a boolean")),
        }
    }
}

impl FromToml for String {
    fn from_field(field: &Field<'_>) -> Result<Self> {
        match field.value {
            TomlValue::String(s) => Ok(s.clone()),
            _ => Err(field.error("must be a string")),
        }
    }
}

impl FromToml for Vec<String> {
    fn from_field(field: &Field<'_>) -> Result<Self> {
        let string = |item: &TomlValue| match item {
            TomlValue::String(s) => Some(s.clone()),
            _ => None,
        };
        let strings = match field.value {
            TomlValue::Array(items) => items.iter().map(string).collect(),
            _ => None,
        };
        strings.ok_or_else(|| field.error("must be an array of strings"))
    }
}

/// Integers convert into the field's own width; a negative or oversized
/// value is an error quoting it, never a wrapped number.
macro_rules! unsigned_from_toml {
    ($($ty:ty),*) => {$(
        impl FromToml for $ty {
            fn from_field(field: &Field<'_>) -> Result<Self> {
                let TomlValue::Integer(value) = *field.value else {
                    return Err(field.error("must be an integer"));
                };
                <$ty>::try_from(value).map_err(|_| {
                    field.error(format!("must be an integer in 0..={}, got {value}", <$ty>::MAX))
                })
            }
        }
    )*};
}
unsigned_from_toml!(u8, u16, u32, u64);

impl<T: FromToml> FromToml for Option<T> {
    fn from_field(field: &Field<'_>) -> Result<Self> {
        field.get().map(Some)
    }
}

impl FromToml for Bandwidth {
    /// Bandwidths are written in kbit/s.
    fn from_field(field: &Field<'_>) -> Result<Self> {
        let kbps: u64 = field.get()?;
        if kbps.checked_mul(1_000).is_none() {
            let most = u64::MAX / 1_000;
            return Err(field.error(format!("must be at most {most} kbps, got {kbps}")));
        }
        Ok(Bandwidth::from_kbps(kbps))
    }
}

/// Enums are written as the name of one of their `ALL` values.
macro_rules! named_from_toml {
    ($($ty:ident: $doc:literal),*) => {$(
        impl FromToml for $ty {
            fn from_field(field: &Field<'_>) -> Result<Self> {
                let text: String = field.get()?;
                let found = $ty::ALL.iter().copied().find(|value| value.name() == text);
                found.ok_or_else(|| field.error(format!("has unknown value {text:?} (see {})", $doc)))
            }
        }
    )*};
}
named_from_toml!(
    PathAlgorithm: "docs/PATHS.md",
    PipelineMode: "docs/PIPELINE.md",
    ScenarioBlockKind: "docs/SCENARIOS.md"
);

/// A key table entry storing the key's value into one (possibly nested)
/// field, converted to that field's type.
macro_rules! field {
    ($key:literal, $($field:ident).+) => {
        ($key, |section, value| value.store(&mut section.$($field).+))
    };
}

/// A key table entry like [`field!`] whose value must also pass `$check`,
/// a range check shared with `validate`.
macro_rules! checked {
    ($key:literal, $($field:ident).+, $check:expr) => {
        ($key, |section, value| {
            section.$($field).+ = value.checked($check)?;
            Ok(())
        })
    };
}

static TOP_LEVEL: Section<TestbedConfig> = Section {
    name: "top-level",
    init: TestbedConfig::default,
    required: &[],
    keys: &[
        field!("seed", seed),
        field!("update-interval-s", update_interval_s),
        field!("duration-s", duration_s),
        field!("utilization-sample-interval-s", utilization_sample_interval_s),
        field!("path-algorithm", path_algorithm),
        field!("pipeline", pipeline),
        ("shards", |c, v| {
            c.shards = Some(v.checked(|shards| check_fleet_size(shards, "docs/SHARDING.md"))?);
            Ok(())
        }),
        field!("host-latency-us", host_latency_us),
        field!("ballooning", ballooning),
        ("bounding-box", |c, v| {
            let b = v.section(&BOUNDING_BOX)?;
            let latitude = -90.0..=90.0;
            let valid = latitude.contains(&b.lat_min) && latitude.contains(&b.lat_max);
            if !(valid && b.lat_min <= b.lat_max && b.lon_min.is_finite() && b.lon_max.is_finite()) {
                return Err(v.error("needs -90 <= lat-min <= lat-max <= 90 and finite longitudes"));
            }
            c.bounding_box = BoundingBox::new(b.lat_min, b.lat_max, b.lon_min, b.lon_max);
            Ok(())
        }),
        ("shell", |c, v| v.sections(&SHELL).map(|shells| c.shells = shells)),
        ("ground-station", |c, v| v.sections(&GROUND_STATION).map(|g| c.ground_stations = g)),
        ("host", |c, v| v.sections(&HOST).map(|hosts| c.hosts = hosts)),
        ("chaos", |c, v| v.section(&CHAOS).map(|chaos| c.chaos = Some(chaos))),
        ("serve", |c, v| v.section(&SERVE).map(|serve| c.serve = Some(serve))),
        ("paths", |c, v| v.section(&PATHS).map(|paths| c.paths = Some(paths))),
        ("tenants", |c, v| set_tenants(c, v, v.section(&TENANTS)?)),
        ("tenant", |c, v| {
            let names = v.sections(&TENANT)?;
            let count = u32::try_from(names.len()).unwrap_or(u32::MAX);
            check_fleet_size(count, "docs/TENANTS.md").map_err(|problem| v.error(problem))?;
            set_tenants(c, v, TenantsConfig { count, names })
        }),
        ("scenario", |c, v| v.section(&SCENARIO).map(|s| c.scenario = Some(s))),
    ],
};

/// `[tenants]` and `[[tenant]]` are two spellings of one setting.
fn set_tenants(config: &mut TestbedConfig, value: &Field<'_>, tenants: TenantsConfig) -> Result<()> {
    if config.tenants.is_some() {
        return Err(value.error(
            "conflicts: use either a [tenants] table or [[tenant]] blocks (see docs/TENANTS.md)",
        ));
    }
    config.tenants = Some(tenants);
    Ok(())
}

static BOUNDING_BOX: Section<BoundingBox> = Section {
    name: "[bounding-box]",
    init: BoundingBox::whole_earth,
    required: &["lat-min", "lat-max", "lon-min", "lon-max"],
    keys: &[
        field!("lat-min", lat_min),
        field!("lat-max", lat_max),
        field!("lon-min", lon_min),
        field!("lon-max", lon_max),
    ],
};

static SHELL: Section<Shell> = Section {
    name: "[[shell]]",
    // The four required keys overwrite the zeros.
    init: || Shell::from_walker(WalkerShell::new(0.0, 0.0, 0, 0)),
    required: &["altitude-km", "inclination-deg", "planes", "satellites-per-plane"],
    keys: &[
        field!("altitude-km", walker.altitude_km),
        field!("inclination-deg", walker.inclination_deg),
        field!("planes", walker.planes),
        field!("satellites-per-plane", walker.satellites_per_plane),
        field!("arc-of-ascending-nodes-deg", walker.arc_of_ascending_nodes_deg),
        field!("phase-offset", walker.phase_offset),
        field!("isl-bandwidth-kbps", isl_bandwidth),
        field!("ground-link-bandwidth-kbps", ground_link_bandwidth),
        field!("min-elevation-deg", min_elevation_deg),
        field!("vcpus", resources.vcpus),
        field!("memory-mib", resources.memory_mib),
    ],
};

static GROUND_STATION: Section<GroundStation> = Section {
    name: "[[ground-station]]",
    // The three required keys overwrite the placeholders.
    init: || GroundStation::new("", Geodetic::new(0.0, 0.0, 0.0)),
    required: &["name", "lat", "lon"],
    keys: &[
        field!("name", name),
        ("lat", |g, v| {
            g.position = Geodetic::new(v.get()?, g.position.longitude_deg(), 0.0);
            Ok(())
        }),
        ("lon", |g, v| {
            g.position = Geodetic::new(g.position.latitude_deg(), v.get()?, 0.0);
            Ok(())
        }),
        field!("vcpus", resources.vcpus),
        field!("memory-mib", resources.memory_mib),
        field!("bandwidth-kbps", bandwidth),
        field!("min-elevation-deg", min_elevation_deg),
    ],
};

static HOST: Section<HostConfig> = Section {
    name: "[[host]]",
    init: HostConfig::default,
    required: &[],
    keys: &[field!("cores", cores), field!("memory-mib", memory_mib)],
};

static CHAOS: Section<ChaosConfig> = Section {
    name: "[chaos]",
    init: ChaosConfig::default,
    required: &[],
    keys: &[
        field!("plane-outages", plane_outages),
        field!("plane-outage-mean-s", plane_outage_mean_s),
        field!("solar-storms", solar_storms),
        field!("solar-storm-mean-s", solar_storm_mean_s),
        field!("solar-storm-band-half-width-deg", solar_storm_band_half_width_deg),
        field!("solar-storm-cpu-share-percent", solar_storm_cpu_share_percent),
        field!("region-blackouts", region_blackouts),
        field!("region-blackout-mean-s", region_blackout_mean_s),
        field!("region-blackout-radius-km", region_blackout_radius_km),
        field!("link-flap-storms", link_flap_storms),
        field!("link-flap-mean-s", link_flap_mean_s),
        field!("link-flap-period-s", link_flap_period_s),
    ],
};

static SERVE: Section<ServeConfig> = Section {
    name: "[serve]",
    init: ServeConfig::default,
    required: &[],
    keys: &[
        field!("port", port),
        field!("workers", workers),
        field!("rate-limit-burst", rate_limit_burst),
        field!("rate-limit-per-epoch", rate_limit_per_epoch),
        field!("auth-tokens", auth_tokens),
        field!("keep-alive", keep_alive),
    ],
};

static PATHS: Section<PathsConfig> = Section {
    name: "[paths]",
    init: PathsConfig::default,
    required: &[],
    keys: &[
        field!("scope-margin-deg", scope_margin_deg),
        field!("k-nearest", k_nearest),
        field!("landmarks", landmarks),
    ],
};

static TENANTS: Section<TenantsConfig> = Section {
    name: "[tenants]",
    init: TenantsConfig::default,
    required: &[],
    keys: &[
        checked!("count", count, |count| check_fleet_size(count, "docs/TENANTS.md")),
        field!("names", names),
    ],
};

/// One `[[tenant]]` block: a tenant's name.
static TENANT: Section<String> = Section {
    name: "[[tenant]]",
    init: String::new,
    required: &["name"],
    keys: &[("name", |name, value| value.store(name))],
};

static SCENARIO: Section<ScenarioConfig> = Section {
    name: "[scenario]",
    init: ScenarioConfig::default,
    required: &[],
    keys: &[
        checked!("tenants", tenants, |count| check_fleet_size(count, "docs/SCENARIOS.md")),
        ("block", |s, v| v.sections(&SCENARIO_BLOCK).map(|blocks| s.blocks = blocks)),
    ],
};

static SCENARIO_BLOCK: Section<ScenarioBlock> = Section {
    name: "[[scenario.block]]",
    init: ScenarioBlock::default,
    required: &[],
    keys: &[
        field!("kind", kind),
        field!("name", name),
        field!("population", population),
        field!("source", source),
        field!("sink", sink),
        field!("fallback", fallback),
        field!("bitrate-bps", bitrate_bps),
        field!("interval-ms", interval_ms),
        checked!("hit-ratio", hit_ratio, check_ratio),
        checked!("burst-prob", burst_prob, check_ratio),
        field!("burst-factor", burst_factor),
    ],
};

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
        self.config.provision_shard_hosts();
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
        assert!(
            err.to_string().contains("line 1: [[shell]] is missing required key 'inclination-deg'"),
            "{err}"
        );
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

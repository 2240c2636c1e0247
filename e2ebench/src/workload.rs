//! The benchmark's workloads: each builds a testbed configuration and its
//! guest applications exactly as a user of the testbed would, and digests
//! what the run simulated.

use crate::stats::Digest;
use celestial::config::{HostConfig, TestbedConfig};
use celestial::testbed::GuestApplication;
use celestial::Testbed;
use celestial_apps::dart::DartExperiment;
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_apps::{DartConfig, DartDeployment, ScenarioTenant};
use celestial_constellation::BoundingBox;
use celestial_types::Result;

/// The scenario file the `fleet` workload parses, relative to the checkout.
pub const SCENARIO_PATH: &str = "examples/scenario.toml";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4 video conference, bridge on the best satellite: the constellation
    /// layers (3,168 satellites, scoped solve) with a single tenant.
    Meetup,
    /// `examples/scenario.toml` as shipped: 1,024 generated tenants, the
    /// per-tenant programme fan-out.
    Fleet,
    /// §5 tsunami warning with satellite inference: 301 ground stations,
    /// large programme deltas and application compute.
    Dart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "meetup" => Some(Workload::Meetup),
            "fleet" => Some(Workload::Fleet),
            "dart" => Some(Workload::Dart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Meetup => "meetup",
            Workload::Fleet => "fleet",
            Workload::Dart => "dart",
        }
    }

    /// The seed the workload's own configuration ships with.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Meetup | Workload::Dart => 2022,
            Workload::Fleet => 2026,
        }
    }

    /// The digest of a repetition at the default seed: the programme
    /// counters of every epoch, what the applications observed and the
    /// testbed's own counters. A change that only alters speed must leave
    /// it unchanged.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::Meetup => 0xfc32_2ff4_df78_e82a,
            Workload::Fleet => 0x9fa7_4149_7af7_39ba,
            Workload::Dart => 0xa5e2_f6e4_63f6_b5d6,
        }
    }

    /// Builds the configuration for one repetition. For `fleet` this parses
    /// the scenario text, which is part of what set-up time covers, and keeps
    /// the scenario's own duration. The other durations are sized so that
    /// one repetition takes about two wall seconds.
    pub fn config(self, seed: u64, scenario_text: &str) -> Result<TestbedConfig> {
        match self {
            Workload::Meetup => TestbedConfig::builder()
                .seed(seed)
                .update_interval_s(2.0)
                .duration_s(60.0)
                .shells(MeetupConfig::shells())
                .ground_stations(MeetupConfig::ground_stations())
                .bounding_box(BoundingBox::west_africa())
                .hosts(vec![HostConfig::default(); 3])
                .build(),
            Workload::Fleet => {
                let mut config = TestbedConfig::from_toml(scenario_text)?;
                config.seed = seed;
                config.duration_s = 10.0;
                Ok(config)
            }
            Workload::Dart => TestbedConfig::builder()
                .seed(seed)
                .update_interval_s(5.0)
                .duration_s(30.0)
                .shell(DartConfig::iridium_shell())
                .ground_stations(DartConfig::new(DartDeployment::Satellite).ground_stations())
                .bounding_box(BoundingBox::whole_earth())
                .hosts(vec![HostConfig::default(); 4])
                .build(),
        }
    }

    /// The guest applications, one per tenant.
    pub fn apps(self, config: &TestbedConfig) -> Result<Apps> {
        Ok(match self {
            Workload::Meetup => Apps::Meetup(MeetupExperiment::new(MeetupConfig::new(
                BridgeDeployment::Satellite,
            ))),
            Workload::Fleet => Apps::Fleet(ScenarioTenant::generate(config)?),
            // The ground stations keep the paper's placement; the application
            // reads them from the testbed and uses its own scenario seed only
            // for the LSTM weights, so the seed varies the values, not the
            // amount of work.
            Workload::Dart => Apps::Dart(DartExperiment::new(DartConfig {
                scenario_seed: config.seed,
                ..DartConfig::new(DartDeployment::Satellite)
            })),
        })
    }
}

pub enum Apps {
    Meetup(MeetupExperiment),
    Fleet(Vec<ScenarioTenant>),
    Dart(DartExperiment),
}

impl Apps {
    /// One application per tenant, in tenant order.
    pub fn tenants(&mut self) -> Vec<&mut dyn GuestApplication> {
        match self {
            Apps::Meetup(app) => vec![app as &mut dyn GuestApplication],
            Apps::Fleet(apps) => apps
                .iter_mut()
                .map(|app| app as &mut dyn GuestApplication)
                .collect(),
            Apps::Dart(app) => vec![app as &mut dyn GuestApplication],
        }
    }

    /// Adds everything the applications observed to `digest`.
    pub fn digest(&self, digest: &mut Digest) {
        match self {
            Apps::Meetup(app) => {
                app.all_latencies_ms().iter().for_each(|ms| digest.f64(*ms));
                for (t, bridge) in app.bridge_history() {
                    digest.f64(*t);
                    digest.str(&bridge.to_string());
                }
            }
            Apps::Fleet(apps) => {
                for app in apps {
                    digest.str(app.name());
                    app.journal().iter().for_each(|line| digest.str(line));
                    app.latencies_ms().iter().for_each(|ms| digest.f64(*ms));
                    digest.u64(app.total_events());
                    digest.u64(app.total_bytes());
                    digest.u64(app.deliveries());
                    digest.u64(app.users());
                }
            }
            Apps::Dart(app) => {
                app.all_latencies_ms().iter().for_each(|ms| digest.f64(*ms));
                digest.u64(app.inference_count());
                for sink in app.sink_results() {
                    digest.str(&sink.name);
                    digest.f64(sink.mean_latency_ms);
                    digest.u64(sink.alerts as u64);
                }
            }
        }
    }
}

/// Adds the testbed's own counters after a run to `digest`: every tenant's
/// message counters and fault outcomes, and the coordinator's update and
/// programme-pair counts.
pub fn digest_testbed(testbed: &Testbed, digest: &mut Digest) {
    for tenant in testbed.tenants() {
        let (delivered, dropped) = tenant.message_counters();
        digest.u64(delivered);
        digest.u64(dropped);
        digest.u64(tenant.failed_recoveries());
        digest.u64(tenant.ignored_faults());
    }
    digest.u64(testbed.coordinator().update_count());
    digest.u64(testbed.coordinator().programme_pair_count() as u64);
}

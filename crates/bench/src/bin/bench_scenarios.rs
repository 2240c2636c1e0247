//! Scenario-engine benchmark: emits `BENCH_scenarios.json`.
//!
//! Measures the tenants-vs-wall-clock curve of generated scenario fleets
//! (see `docs/SCENARIOS.md`): the block set of `examples/scenario.toml`
//! expanded into 64 → 1,024 generated tenants (1,024,000 aggregate
//! simulated users at the top end), every population aggregated at flow
//! level, riding one shared epoch pipeline. Also gates, exiting 1 after
//! writing the report on violation:
//!
//! * **generation budget** — expanding the full 1,024-tenant fleet from
//!   TOML must be effectively free (well under one epoch interval) and
//!   aggregate at least a million users,
//! * **flow accounting** — every fleet size runs and accounts flow events,
//!   and
//! * **bit-reproducibility** — two runs of the same generated fleet must
//!   produce identical journals for every tenant.
//!
//! ```console
//! $ cargo run --release -p celestial-bench --bin bench_scenarios            # full curve
//! $ cargo run --release -p celestial-bench --bin bench_scenarios -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (smaller fleets, fewer epochs), `--out FILE` (default
//! `BENCH_scenarios.json`, or `BENCH_scenarios_smoke.json` under `--quick`).

use celestial::config::TestbedConfig;
use celestial::testbed::GuestApplication;
use celestial::Testbed;
use celestial_apps::ScenarioTenant;
use celestial_bench::{min_field, BenchReport, Op, Options};
use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// The shipped thousand-tenant scenario, the single source of truth for the
/// block set swept here.
const EXAMPLE: &str = include_str!("../../../../examples/scenario.toml");

/// The epochs per run, the fleet sizes of the curve and the fleet size of
/// the reproducibility check.
struct Params {
    epochs: u32,
    tenant_counts: &'static [u32],
    repro_tenants: u32,
}

const FULL: Params = Params { epochs: 10, tenant_counts: &[64, 256, 1_024], repro_tenants: 16 };
const QUICK: Params = Params { epochs: 5, tenant_counts: &[16, 64], repro_tenants: 8 };

/// The example scenario resized to `tenants` generated tenants and
/// `epochs` one-second epochs.
fn config_for(tenants: u32, epochs: u32) -> TestbedConfig {
    let mut config = TestbedConfig::from_toml(EXAMPLE).expect("examples/scenario.toml parses");
    config.duration_s = f64::from(epochs);
    config
        .scenario
        .as_mut()
        .expect("the example defines [scenario]")
        .tenants = tenants;
    config.validate().expect("resized scenario config stays valid");
    config
}

struct FleetRun {
    wall_ms: f64,
    users: u64,
    events: u64,
    bytes: u64,
    deliveries: u64,
    /// Every tenant's journal, for reproducibility comparison.
    journals: Vec<Vec<String>>,
}

/// Builds the testbed, generates the fleet, and runs it end to end — the
/// wall clock covers all three, which is what a user of the TOML file pays.
fn run_fleet(config: &TestbedConfig) -> FleetRun {
    let started = Instant::now();
    let mut testbed = Testbed::new(config).expect("testbed");
    let mut apps = ScenarioTenant::generate(config).expect("fleet generates");
    let mut refs: Vec<&mut dyn GuestApplication> = apps
        .iter_mut()
        .map(|app| app as &mut dyn GuestApplication)
        .collect();
    testbed.run_fleet(&mut refs).expect("fleet run");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    FleetRun {
        wall_ms,
        users: apps.iter().map(ScenarioTenant::users).sum(),
        events: apps.iter().map(ScenarioTenant::total_events).sum(),
        bytes: apps.iter().map(ScenarioTenant::total_bytes).sum(),
        deliveries: apps.iter().map(ScenarioTenant::deliveries).sum(),
        journals: apps.iter().map(|app| app.journal().to_vec()).collect(),
    }
}

fn main() -> ExitCode {
    let options = Options::from_args(None);
    let params = options.pick(FULL, QUICK);
    println!(
        "# bench_scenarios: {} epochs, fleets of {:?} tenants",
        params.epochs, params.tenant_counts
    );

    // Gate 1: generating the full shipped 1,024-tenant fleet from TOML is
    // effectively free — parse + expansion must fit well inside one epoch
    // interval even in the quick smoke.
    let full = config_for(1_024, params.epochs);
    let started = Instant::now();
    let fleet = ScenarioTenant::generate(&full).expect("full fleet generates");
    let generation_ms = started.elapsed().as_secs_f64() * 1e3;
    let full_users: u64 = fleet.iter().map(ScenarioTenant::users).sum();
    drop(fleet);
    println!(
        "# generated 1024 tenants / {full_users} aggregate users in {generation_ms:.3} ms"
    );

    // The tenants-vs-wall curve.
    let mut results: Vec<Value> = Vec::new();
    for &tenants in params.tenant_counts {
        let config = config_for(tenants, params.epochs);
        let run = run_fleet(&config);
        let ms_per_epoch = run.wall_ms / f64::from(params.epochs);
        println!(
            "{tenants:>5} tenants ({:>9} users): {:10.1} ms wall, {ms_per_epoch:8.2} ms/epoch, \
             {} flow events, {} probes delivered",
            run.users, run.wall_ms, run.events, run.deliveries
        );
        results.push(json!({
            "tenants": tenants,
            "users": run.users,
            "wall_ms": run.wall_ms,
            "ms_per_epoch": ms_per_epoch,
            "ms_per_epoch_per_tenant": ms_per_epoch / f64::from(tenants),
            "flow_events": run.events,
            "flow_bytes": run.bytes,
            "probes_delivered": run.deliveries,
        }));
    }

    // Gate 2: two runs of the same generated fleet observe the same world,
    // journal line for journal line, for every tenant.
    let repro_config = config_for(params.repro_tenants, params.epochs);
    let first = run_fleet(&repro_config);
    let second = run_fleet(&repro_config);
    let reproducible = first.journals == second.journals
        && first.events == second.events
        && first.deliveries == second.deliveries;
    println!(
        "# reproducibility: {} tenants x {} epochs {} across two runs",
        params.repro_tenants,
        params.epochs,
        if reproducible { "bit-identical" } else { "DIVERGED" }
    );

    let mut report = BenchReport::new("scenarios", &options);
    report.gate("users_1024", full_users as f64, Op::Ge, 1_000_000.0);
    report.gate("generation_ms_1024", generation_ms, Op::Lt, 1_000.0);
    report.gate("fleet_sizes", results.len() as f64, Op::Ge, 1.0);
    report.gate("min_wall_ms", min_field(&results, "wall_ms"), Op::Gt, 0.0);
    report.gate("min_flow_events", min_field(&results, "flow_events"), Op::Gt, 0.0);
    report.check("bit_reproducible", reproducible);
    report.finish(json!({
        "epochs": params.epochs,
        "tenant_counts": params.tenant_counts.to_vec(),
        "generation_ms_1024": generation_ms,
        "users_1024": full_users,
        "results": results,
        "repro_tenants": params.repro_tenants,
        "bit_reproducible": reproducible,
    }))
}

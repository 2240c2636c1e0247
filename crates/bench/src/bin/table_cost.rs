//! The §4.2 cost comparison: running a Celestial emulation on a handful of
//! cloud hosts vs. renting one cloud VM per satellite server.

use celestial::estimator::{CostModel, ResourceEstimator};
use celestial_bench::{meetup_testbed_config, Options, FIGURE_SEED};

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    let config = meetup_testbed_config(&options);
    let estimate = ResourceEstimator::estimate(&config);
    let satellites: u32 = config.shells.iter().map(|s| s.satellite_count()).sum();
    let model = CostModel::default();

    println!("# Cost comparison (§4.2)");
    println!("estimated_required_vcpus,{:.0}", estimate.required_vcpus);
    println!("expected_active_satellites,{:.0}", estimate.expected_active_satellites);
    println!("recommended_hosts,{}", estimate.recommended_hosts);
    println!(
        "fleet_sufficient_with_overprovisioning,{}",
        ResourceEstimator::fleet_sufficient(&config, &estimate, 1.5)
    );

    // The paper: three hosts plus a coordinator; a 10-minute experiment with
    // 5 minutes of setup, repeated three times → 45 minutes of fleet time.
    let emulation_minutes = if options.quick { 15.0 } else { 45.0 };
    let emulation = model.emulation_cost_usd(config.hosts.len() as u32, emulation_minutes);
    // The naive alternative: one VM per satellite of the full phase-I
    // constellation for 15 minutes.
    let naive_satellites = 4_409u32;
    let naive = model.per_satellite_cost_usd(naive_satellites, 15.0);
    println!("emulation_hosts,{}", config.hosts.len());
    println!("emulation_minutes,{emulation_minutes}");
    println!("emulation_cost_usd,{emulation:.2}");
    println!("per_satellite_vms,{naive_satellites}");
    println!("per_satellite_cost_usd_15min,{naive:.2}");
    println!(
        "saving_factor,{:.0}x",
        naive / model.emulation_cost_usd(config.hosts.len() as u32, 15.0)
    );
    println!("configured_constellation_satellites,{satellites}");
    println!("# expectation: ~$3.30 for the emulation vs ~$540 for one VM per satellite (two orders of magnitude)");
}

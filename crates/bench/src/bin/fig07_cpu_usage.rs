//! Figure 7: CPU usage on the most loaded Celestial host over one experiment.
//!
//! Runs the §4 satellite-bridge experiment and prints the CPU utilisation and
//! Firecracker process count of the host carrying the most machines, sampled
//! once per second of simulated time.

use celestial::testbed::Testbed;
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_bench::{csv, meetup_testbed_config, Options, FIGURE_SEED};

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    let config = meetup_testbed_config(&options);
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = MeetupExperiment::new(MeetupConfig::new(BridgeDeployment::Satellite));
    testbed.run(&mut app).expect("experiment run");

    // The host under the highest load (most Firecracker processes).
    let busiest = (0..testbed.managers().len())
        .max_by_key(|i| testbed.managers()[*i].host().machine_count())
        .expect("at least one host");
    let cpu = &testbed.host_cpu_series()[busiest];
    let processes = &testbed.host_process_series()[busiest];

    println!("# Figure 7: CPU usage on host {busiest} (32 cores) over the experiment");
    let cpu_stats = celestial_sim::metrics::summarize(&cpu.values());
    let early_peak = cpu
        .points()
        .iter()
        .filter(|(t, _)| *t <= 10.0)
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    let steady: Vec<f64> = cpu
        .points()
        .iter()
        .filter(|(t, _)| *t > 30.0)
        .map(|(_, v)| *v)
        .collect();
    let steady_mean = celestial_sim::metrics::summarize(&steady).mean;
    println!("samples,{}", cpu_stats.count);
    println!("boot_phase_peak_cpu_percent,{early_peak:.2}");
    println!("steady_state_mean_cpu_percent,{steady_mean:.2}");
    println!("max_firecracker_processes,{:.0}", processes.values().iter().fold(0.0f64, |a, b| a.max(*b)));
    println!("# expectation: a boot spike at the start, then total CPU usage on the order of 10% despite over-provisioning");

    options.write_artifact("fig07_cpu.csv", &csv(cpu.points(), "t_s", "cpu_percent"));
    options.write_artifact(
        "fig07_processes.csv",
        &csv(processes.points(), "t_s", "firecracker_processes"),
    );
}

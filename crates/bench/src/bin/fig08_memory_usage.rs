//! Figure 8: memory usage on the most loaded Celestial host over one
//! experiment.
//!
//! Runs the §4 satellite-bridge experiment and prints the memory utilisation
//! and Firecracker process count of the busiest host. Memory grows stepwise
//! as microVMs boot and is not released while they are merely suspended
//! (no ballooning), which is the behaviour the paper discusses.

use celestial::testbed::Testbed;
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_bench::{csv, meetup_testbed_config, Options, FIGURE_SEED};

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    let config = meetup_testbed_config(&options);
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = MeetupExperiment::new(MeetupConfig::new(BridgeDeployment::Satellite));
    testbed.run(&mut app).expect("experiment run");

    let busiest = (0..testbed.managers().len())
        .max_by_key(|i| testbed.managers()[*i].host().machine_count())
        .expect("at least one host");
    let memory = &testbed.host_memory_series()[busiest];
    let processes = &testbed.host_process_series()[busiest];

    println!("# Figure 8: memory usage on host {busiest} (32 GiB) over the experiment");
    let first = memory.values().first().copied().unwrap_or(0.0);
    let last = memory.values().last().copied().unwrap_or(0.0);
    let peak = memory.values().iter().fold(0.0f64, |a, b| a.max(*b));
    println!("samples,{}", memory.len());
    println!("initial_memory_percent,{first:.2}");
    println!("final_memory_percent,{last:.2}");
    println!("peak_memory_percent,{peak:.2}");
    println!(
        "final_firecracker_processes,{:.0}",
        processes.values().last().copied().unwrap_or(0.0)
    );
    println!("# expectation: memory grows with the number of booted microVMs, is not released on suspension, and stays below ~20%");

    options.write_artifact("fig08_memory.csv", &csv(memory.points(), "t_s", "memory_percent"));
    options.write_artifact(
        "fig08_processes.csv",
        &csv(processes.points(), "t_s", "firecracker_processes"),
    );
}

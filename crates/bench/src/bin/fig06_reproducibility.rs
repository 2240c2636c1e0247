//! Figure 6: measured end-to-end latency from Yaoundé to Abuja over the
//! cloud bridge across three repetitions of the experiment.

use celestial::testbed::Testbed;
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_bench::{csv, meetup_testbed_config, Options, FIGURE_SEED};

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    println!("# Figure 6: reproducibility across three repetitions, Yaounde -> Abuja via cloud bridge");
    println!("run,samples,median_ms,mean_ms,p95_ms");

    let mut medians = Vec::new();
    for run in 1..=3u64 {
        let mut run_options = options.clone();
        // Each repetition uses its own seed, as each real run would see its
        // own measurement noise, while the constellation evolution (driven by
        // simulated time) is identical.
        run_options.seed = options.seed + run;
        let config = meetup_testbed_config(&run_options);
        let mut testbed = Testbed::new(&config).expect("testbed");
        let mut app = MeetupExperiment::new(MeetupConfig::new(BridgeDeployment::Cloud));
        testbed.run(&mut app).expect("experiment run");

        // Yaoundé (index 2) to Abuja (index 1).
        let series = app
            .measured_series(2, 1)
            .expect("measured series")
            .rolling_median(1.0);
        let stats = celestial_sim::metrics::summarize(&series.values());
        println!(
            "{run},{},{:.2},{:.2},{:.2}",
            stats.count, stats.median, stats.mean, stats.p95
        );
        medians.push(stats.median);
        options.write_artifact(
            &format!("fig06_run{run}.csv"),
            &csv(series.points(), "t_s", "latency_ms"),
        );
    }
    let spread = medians.iter().cloned().fold(f64::MIN, f64::max)
        - medians.iter().cloned().fold(f64::MAX, f64::min);
    println!("median_spread_ms,{spread:.3}");
    println!("# expectation: all three runs follow the same trend (small spread of the medians)");
}

//! Figure 5: measured vs. expected end-to-end latency from Abuja to Accra
//! over the Johannesburg cloud bridge (1 s rolling median).

use celestial::testbed::Testbed;
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_bench::{csv, meetup_testbed_config, Options, FIGURE_SEED};

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    let config = meetup_testbed_config(&options);
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = MeetupExperiment::new(MeetupConfig::new(BridgeDeployment::Cloud));
    testbed.run(&mut app).expect("experiment run");

    // Abuja (client index 1) to Accra (client index 0).
    let measured = app
        .measured_series(1, 0)
        .expect("measured series")
        .rolling_median(1.0);
    let expected = app.expected_series(1, 0).expect("expected series");

    println!("# Figure 5: measured vs expected latency, Abuja -> Accra via cloud bridge");
    println!("series,points,median_ms,mean_ms");
    for (name, series) in [("measured", &measured), ("expected", expected)] {
        let stats = celestial_sim::metrics::summarize(&series.values());
        println!("{name},{},{:.2},{:.2}", series.len(), stats.median, stats.mean);
    }
    let measured_median = celestial_sim::metrics::summarize(&measured.values()).median;
    let expected_median = celestial_sim::metrics::summarize(&expected.values()).median;
    println!(
        "median_difference_ms,{:.3}",
        (measured_median - expected_median).abs()
    );
    println!("# expectation: both curves follow the same trend; the difference stays within the processing jitter");

    options.write_artifact(
        "fig05_measured.csv",
        &csv(measured.points(), "t_s", "latency_ms"),
    );
    options.write_artifact(
        "fig05_expected.csv",
        &csv(expected.points(), "t_s", "latency_ms"),
    );
}

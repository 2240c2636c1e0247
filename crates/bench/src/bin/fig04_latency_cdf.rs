//! Figure 4: cumulative end-to-end latency distributions per client pair,
//! satellite bridge vs. cloud bridge.
//!
//! Runs the §4 meetup experiment twice — once with the video bridge on the
//! Johannesburg datacenter, once with the tracking service selecting the
//! optimal satellite — and prints the latency CDF for each of the three
//! client pairs, together with the fraction of samples below the paper's
//! 16 ms (satellite) and 46 ms (cloud) reference lines.

use celestial::testbed::Testbed;
use celestial_apps::meetup::{BridgeDeployment, MeetupConfig, MeetupExperiment};
use celestial_bench::{csv, meetup_testbed_config, Options, FIGURE_SEED};

fn run(deployment: BridgeDeployment, options: &Options) -> MeetupExperiment {
    let config = meetup_testbed_config(options);
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = MeetupExperiment::new(MeetupConfig::new(deployment));
    testbed.run(&mut app).expect("experiment run");
    app
}

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    println!("# Figure 4: end-to-end latency CDFs per client pair");
    let pairs = [(0usize, 1usize, "accra-abuja"), (0, 2, "accra-yaounde"), (1, 2, "abuja-yaounde")];

    for (label, deployment) in [
        ("satellite", BridgeDeployment::Satellite),
        ("cloud", BridgeDeployment::Cloud),
    ] {
        let app = run(deployment, &options);
        for (a, b, pair_name) in pairs {
            // Both directions of the pair, as in the paper's per-pair plots.
            let mut samples = Vec::new();
            for (from, to) in [(a, b), (b, a)] {
                if let Some(recorder) = app.pair_latencies(from, to) {
                    samples.extend_from_slice(recorder.samples_ms());
                }
            }
            let stats = celestial_sim::metrics::summarize(&samples);
            let cdf = celestial_sim::metrics::Cdf::from_samples(&samples);
            let below_16 = cdf.probability_at(16.0);
            let below_46 = cdf.probability_at(46.0);
            println!(
                "{label},{pair_name},samples={},median_ms={:.2},p95_ms={:.2},below_16ms={:.3},below_46ms={:.3}",
                stats.count, stats.median, stats.p95, below_16, below_46
            );
            options.write_artifact(
                &format!("fig04_{label}_{pair_name}.csv"),
                &csv(cdf.points(), "latency_ms", "cumulative_probability"),
            );
        }
    }
    println!("# expectation: satellite bridge stays below ~16 ms and cloud around ~46 ms for >=80% of samples");
}

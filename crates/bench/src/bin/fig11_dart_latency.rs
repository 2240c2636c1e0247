//! Figure 11: mean observed end-to-end latency of the DART alert system for
//! the central-processing and satellite-server deployments.
//!
//! Runs the §5 case study twice and prints, per data sink, its position and
//! mean alert latency, together with the aggregate comparison the paper
//! reports (central: 22–183 ms; satellite: 13–90 ms; the east–west asymmetry
//! caused by the Iridium seam disappears with on-satellite processing).

use celestial::testbed::Testbed;
use celestial_apps::dart::DartExperiment;
use celestial_apps::DartDeployment;
use celestial_bench::{dart_app_config, dart_testbed_config, Options, FIGURE_SEED};

fn run(deployment: DartDeployment, options: &Options) -> DartExperiment {
    let app_config = dart_app_config(options, deployment);
    let config = dart_testbed_config(options, &app_config);
    let mut testbed = Testbed::new(&config).expect("testbed");
    let mut app = DartExperiment::new(app_config);
    testbed.run(&mut app).expect("experiment run");
    app
}

fn main() {
    let options = Options::from_args(Some(FIGURE_SEED));
    println!("# Figure 11: mean end-to-end latency per data sink, central vs satellite deployment");

    for (label, deployment) in [
        ("central", DartDeployment::Central),
        ("satellite", DartDeployment::Satellite),
    ] {
        let app = run(deployment, &options);
        let results = app.sink_results();
        let all = app.all_latencies_ms();
        let stats = celestial_sim::metrics::summarize(&all);
        let sink_means: Vec<f64> = results.iter().map(|r| r.mean_latency_ms).collect();
        let per_sink = celestial_sim::metrics::summarize(&sink_means);
        println!(
            "{label},sinks_with_alerts={},alerts={},mean_ms={:.1},sink_mean_min_ms={:.1},sink_mean_max_ms={:.1},inferences={}",
            results.len(),
            stats.count,
            stats.mean,
            per_sink.min,
            per_sink.max,
            app.inference_count()
        );
        let mut csv = String::from("sink,lat_deg,lon_deg,mean_latency_ms,alerts\n");
        for r in &results {
            csv.push_str(&format!(
                "{},{:.4},{:.4},{:.2},{}\n",
                r.name,
                r.position.latitude_deg(),
                r.position.longitude_deg(),
                r.mean_latency_ms,
                r.alerts
            ));
        }
        options.write_artifact(&format!("fig11_{label}.csv"), &csv);
    }
    println!("# expectation: the satellite deployment shifts the whole latency band downwards (paper: 22-183 ms -> 13-90 ms)");
}

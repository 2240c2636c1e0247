//! End-to-end benchmark of the Celestial testbed.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!       --workload meetup --seed 2022 --seconds 10 --trace 0
//! ```
//!
//! Each repetition builds a testbed from its configuration and runs it
//! through `Testbed::run_fleet`, as a user of the testbed would. A first,
//! untimed repetition checks the outputs (digest and latency accuracy);
//! later repetitions are timed for `--seconds` and must reproduce its digest
//! exactly. With `--trace 1`, rounds of an untimed-callback repetition, a
//! repetition whose application callbacks are timed, and a replay of the
//! epochs through each layer's public call (see `trace.rs`) run instead. The
//! last line of standard output is one JSON object; README.md in this
//! directory explains the workloads and metrics.

mod probe;
mod stats;
mod trace;
mod workload;

use crate::probe::{Accuracy, CallbackSpan, CallbackTimer, Probe};
use crate::stats::{
    median, process_cpu_seconds, process_peak_rss_mib, tail, Digest, TAIL_PERCENTILE,
};
use crate::trace::Recorder;
use crate::workload::{digest_testbed, Workload, SCENARIO_PATH};
use celestial::testbed::GuestApplication;
use celestial::Testbed;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = value("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".to_owned()),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Untimed: checks latency accuracy at every epoch.
    Checked,
    Timed,
    /// Times every application callback.
    Traced(Instant),
}

/// What one repetition measured and produced.
struct Rep {
    sim_s: f64,
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    intervals_ms: Vec<f64>,
    digest: u64,
    programme_pairs: u64,
    delta_ops: u64,
    accuracy: Option<Accuracy>,
    callbacks: Vec<CallbackSpan>,
    pipeline_wait_ms: f64,
    updates: u64,
}

fn run_rep(
    workload: Workload,
    seed: u64,
    scenario: &str,
    mode: Mode,
) -> celestial_types::Result<Rep> {
    let began = Instant::now();
    let config = workload.config(seed, scenario)?;
    let mut apps = workload.apps(&config)?;
    let mut testbed = Testbed::new(&config)?;

    let mut tenants = apps.tenants();
    let mut timers: Vec<CallbackTimer> = match mode {
        Mode::Traced(origin) => tenants
            .drain(..)
            .map(|app| CallbackTimer::new(app, config.update_interval_s, origin))
            .collect(),
        _ => Vec::new(),
    };
    let mut apps_dyn: Vec<&mut dyn GuestApplication> = if timers.is_empty() {
        tenants
    } else {
        timers
            .iter_mut()
            .map(|t| t as &mut dyn GuestApplication)
            .collect()
    };
    let (first, others) = apps_dyn
        .split_first_mut()
        .expect("every workload has a tenant");
    let mut probe = Probe::new(&mut **first, mode == Mode::Checked);
    let mut fleet: Vec<&mut dyn GuestApplication> = vec![&mut probe];
    fleet.extend(
        others
            .iter_mut()
            .map(|app| &mut **app as &mut dyn GuestApplication),
    );
    testbed.run_fleet(&mut fleet)?;
    let (ended, cpu_ended) = (Instant::now(), process_cpu_seconds());
    drop(fleet);

    let (started, cpu_started) = probe.started.expect("the testbed calls on_start");
    let mut digest = Digest::default();
    digest.u64(probe.programme.value());
    let mut rep = Rep {
        sim_s: config.duration_s,
        setup_s: (started - began).as_secs_f64(),
        run_s: (ended - started).as_secs_f64(),
        cpu_s: cpu_ended - cpu_started,
        intervals_ms: std::mem::take(&mut probe.intervals_ms),
        digest: 0,
        programme_pairs: probe.programme_pairs,
        delta_ops: probe.delta_ops,
        accuracy: probe.accuracy,
        callbacks: Vec::new(),
        pipeline_wait_ms: testbed.coordinator().pipeline_stats().total_wait_ns as f64 / 1e6,
        updates: testbed.coordinator().update_count(),
    };
    drop(probe);
    drop(apps_dyn);
    rep.callbacks = timers.into_iter().flat_map(|t| t.spans).collect();
    apps.digest(&mut digest);
    digest_testbed(&testbed, &mut digest);
    rep.digest = digest.value();
    Ok(rep)
}

/// Attempted and failed operations, with the reason for each failure.
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        println!("FAILED: {why}");
    }

    /// Runs a timed or traced repetition and checks it reproduces `expected`.
    fn rep(&mut self, args: &Args, scenario: &str, mode: Mode, expected: u64) -> Option<Rep> {
        self.attempted += 1;
        match run_rep(args.workload, args.seed, scenario, mode) {
            Ok(rep) if rep.digest == expected => Some(rep),
            Ok(rep) => {
                self.fail(format!(
                    "digest {:#018x} differs from {expected:#018x}",
                    rep.digest
                ));
                None
            }
            Err(error) => {
                self.fail(format!("repetition failed: {error}"));
                None
            }
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: --workload meetup|fleet|dart --seed N --seconds N --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let scenario = if args.workload == Workload::Fleet {
        match std::fs::read_to_string(SCENARIO_PATH) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("error: cannot read {SCENARIO_PATH}: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        String::new()
    };
    let workload = args.workload;
    println!(
        "# workload {} seed {}, {} s, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut ledger = Ledger {
        attempted: 1,
        failed: 0,
    };
    let checked = match run_rep(workload, args.seed, &scenario, Mode::Checked) {
        Ok(rep) => rep,
        Err(error) => {
            eprintln!("error: the checked repetition failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    // The peak of a process that has run this workload once, before the
    // timed repetitions, whose count varies with speed.
    let peak_rss_mib = process_peak_rss_mib();
    println!(
        "# digest {:#018x} of {} simulated s",
        checked.digest, checked.sim_s
    );
    if args.seed == workload.default_seed() && checked.digest != workload.pinned_digest() {
        ledger.fail(format!(
            "digest {:#018x} differs from the pinned {:#018x}",
            checked.digest,
            workload.pinned_digest()
        ));
    }
    let accuracy = checked
        .accuracy
        .expect("the checked repetition checks accuracy");
    println!(
        "# accuracy: {} ground-station pair checks over {} epochs: {} within 0.1 ms, \
         {} compensation-clamped, {} mismatched (worst {:.3} ms)",
        accuracy.pairs_checked,
        checked.updates,
        accuracy.within_quantum,
        accuracy.clamped,
        accuracy.mismatched,
        accuracy.worst_error_ms
    );
    if accuracy.mismatched > 0 {
        ledger.fail(format!(
            "{} pairs outside the 0.1 ms quantum",
            accuracy.mismatched
        ));
    }
    println!(
        "# programme: {} pairs and {} delta operations over all tenants and epochs",
        checked.programme_pairs, checked.delta_ops
    );

    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        traced(&args, &scenario, checked.digest, budget, &mut ledger)
    } else {
        timed(&args, &scenario, checked.digest, budget, &mut ledger).map(|mut metrics| {
            metrics.push(metric("peak_rss_mib", peak_rss_mib, "MiB"));
            metrics
        })
    };
    let Some(mut metrics) = metrics else {
        eprintln!("error: no repetition succeeded");
        return ExitCode::FAILURE;
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            ledger.fail(format!("{} is {}", m.name, m.value));
            m.value = 0.0;
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The end-to-end metrics: repetitions for `budget`, at least three.
fn timed(
    args: &Args,
    scenario: &str,
    digest: u64,
    budget: Duration,
    ledger: &mut Ledger,
) -> Option<Vec<Metric>> {
    let began = Instant::now();
    let mut reps = Vec::new();
    let mut tries = 0;
    while began.elapsed() < budget || tries < 3 {
        tries += 1;
        reps.extend(ledger.rep(args, scenario, Mode::Timed, digest));
    }
    if reps.is_empty() {
        return None;
    }
    let speeds: Vec<f64> = reps.iter().map(|r| r.sim_s / r.run_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let intervals: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.intervals_ms.iter().copied())
        .collect();
    let interval_tail = tail(&intervals, TAIL_PERCENTILE);
    let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let sim_s: f64 = reps.iter().map(|r| r.sim_s).sum();
    println!(
        "# {} timed repetitions; sim_per_wall per repetition: {:?}",
        reps.len(),
        speeds
            .iter()
            .map(|s| (s * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!(
        "# interval_wall_tail_ms is the p{:.2} of {} update intervals",
        interval_tail.percentile, interval_tail.samples
    );
    Some(vec![
        metric("sim_per_wall", median(&speeds), "sim_s/wall_s"),
        metric("interval_wall_p50_ms", median(&intervals), "ms"),
        metric("interval_wall_tail_ms", interval_tail.value, "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("cpu_ms_per_sim_s", cpu_s * 1e3 / sim_s, "ms"),
    ])
}

/// The per-layer metrics. Rounds of an untraced repetition, a traced
/// repetition and a replay of the epochs through the layer calls run for
/// `budget` (at least three rounds); every time is the median over rounds.
fn traced(
    args: &Args,
    scenario: &str,
    digest: u64,
    budget: Duration,
    ledger: &mut Ledger,
) -> Option<Vec<Metric>> {
    let config = args.workload.config(args.seed, scenario).ok()?;
    let origin = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut replays: Vec<(Recorder, trace::Counts)> = Vec::new();
    let mut rounds = 0;
    while origin.elapsed() < budget || rounds < 3 {
        rounds += 1;
        untraced.extend(ledger.rep(args, scenario, Mode::Timed, digest));
        let Some(rep) = ledger.rep(args, scenario, Mode::Traced(origin), digest) else {
            continue;
        };
        ledger.attempted += 1;
        let mut recorder = Recorder::new(origin);
        match trace::replay(&config, &mut recorder) {
            Ok(counts) if counts.epochs + 1 == rep.updates => {
                ledger.attempted += counts.requests;
                ledger.failed += counts.rejected;
                recorder.extend_callbacks(&rep.callbacks);
                replays.push((recorder, counts));
            }
            Ok(counts) => ledger.fail(format!(
                "the replay ran {} epochs, the testbed {}",
                counts.epochs + 1,
                rep.updates
            )),
            Err(error) => ledger.fail(format!("replay failed: {error}")),
        }
        traced.push(rep);
    }
    let (last, counts) = replays.last()?;
    if untraced.is_empty() {
        return None;
    }
    let spans_path = std::path::PathBuf::from(format!(
        ".bench_trace/{}-seed{}.spans.csv",
        args.workload.name(),
        args.seed
    ));
    if let Err(error) = last.write_csv(&spans_path) {
        eprintln!("warning: cannot write {}: {error}", spans_path.display());
    }

    let over_rounds = |of: &dyn Fn(&Recorder) -> u64| {
        median(
            &replays
                .iter()
                .map(|(r, _)| of(r) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let layer_ms = |layer: &str| over_rounds(&|r| r.run_ns(layer));
    let untraced_ms = median(&untraced.iter().map(|r| r.run_s * 1e3).collect::<Vec<_>>());
    let traced_ms = median(&traced.iter().map(|r| r.run_s * 1e3).collect::<Vec<_>>());
    let coordinator_ms = layer_ms("core.coordinator");
    let coordinator_self_ms = over_rounds(&|r| r.run_self_ns("core.coordinator"));
    let apply_ms = layer_ms("netem.apply");
    // Every callback runs inside the run window, epoch 0's included.
    let apps_ms = median(
        &traced
            .iter()
            .map(|r| {
                r.callbacks
                    .iter()
                    .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
                    .sum()
            })
            .collect::<Vec<f64>>(),
    );
    let residual_ms = untraced_ms - (coordinator_ms + apply_ms + apps_ms);
    let callback_us: Vec<f64> = traced
        .last()?
        .callbacks
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
        .collect();

    println!(
        "# reconciliation over the run window ({} epochs after set-up), medians of {} rounds:",
        counts.epochs,
        replays.len()
    );
    println!("#   untraced run wall          {untraced_ms:10.1} ms");
    println!(
        "#   traced run wall            {traced_ms:10.1} ms; tracing overhead {:+.1} ms ({:+.1}%)",
        traced_ms - untraced_ms,
        100.0 * (traced_ms / untraced_ms - 1.0)
    );
    let compute = [
        ("constellation.state", "constellation.state_ms"),
        ("constellation.diff", "constellation.diff_ms"),
        ("constellation.scope", "constellation.scope_ms"),
        ("constellation.solve", "constellation.solve_ms"),
        ("core.netprog", "core.netprog_ms"),
    ];
    let rows = compute
        .iter()
        .map(|(layer, _)| (format!("  {layer}"), layer_ms(layer)))
        .chain([
            ("core.coordinator self".to_owned(), coordinator_self_ms),
            ("core.coordinator total".to_owned(), coordinator_ms),
            ("netem.apply".to_owned(), apply_ms),
            ("apps".to_owned(), apps_ms),
            ("core.testbed residual".to_owned(), residual_ms),
        ]);
    for (label, t) in rows {
        println!(
            "#   {label:<26} {t:10.1} ms {:6.1}%",
            100.0 * t / untraced_ms
        );
    }
    println!(
        "#   not in the timed runs: core.snapshot {:.2} ms, serve {} requests",
        layer_ms("core.snapshot"),
        counts.requests
    );
    println!(
        "# spans: {} written to {}",
        last.spans.len(),
        spans_path.display()
    );

    let mut metrics: Vec<Metric> = compute
        .iter()
        .map(|(layer, name)| metric(name, layer_ms(layer), "ms"))
        .collect();
    let wait_ms: Vec<f64> = untraced.iter().map(|r| r.pipeline_wait_ms).collect();
    let count = |name, value: u64| metric(name, value as f64, "count");
    metrics.extend([
        count("constellation.nodes", counts.nodes),
        count("constellation.links", counts.links),
        count("constellation.machine_changes", counts.machine_changes),
        count("scope.sources", counts.scope_sources),
        count("scope.required", counts.scope_required),
        count("scope.landmarks", counts.scope_landmarks),
        count("constellation.settled", counts.settled),
        metric(
            "constellation.solve_useful_ratio",
            counts.useful_settled as f64 / counts.settled.max(1) as f64,
            "ratio",
        ),
        count("core.programme_pairs", counts.programme_pairs),
        count("core.delta_ops", counts.delta_ops),
        metric(
            "core.delta_ops_per_pair",
            counts.delta_ops as f64 / counts.programme_pairs.max(1) as f64,
            "ratio",
        ),
        metric("core.coordinator_ms", coordinator_ms, "ms"),
        metric("core.coordinator_self_ms", coordinator_self_ms, "ms"),
        metric("core.pipeline_wait_ms", median(&wait_ms), "ms"),
        metric("core.snapshot_publish_ms", layer_ms("core.snapshot"), "ms"),
        count("core.snapshots", counts.snapshots),
        metric("netem.apply_ms", apply_ms, "ms"),
        count("netem.apply_ops", counts.apply_ops),
        metric("apps.callback_ms", apps_ms, "ms"),
        count("apps.callbacks", callback_us.len() as u64),
        metric("apps.callback_p50_us", median(&callback_us), "us"),
        metric("serve.handle_p50_us", median(&counts.handle_us), "us"),
        metric("serve.transport_p50_us", counts.transport_p50_us(), "us"),
        count("serve.requests", counts.requests),
        count("serve.rejected", counts.rejected),
        metric("core.testbed_run_ms", untraced_ms, "ms"),
        metric("core.testbed_residual_ms", residual_ms, "ms"),
        metric("trace.overhead_ms", traced_ms - untraced_ms, "ms"),
    ]);
    Some(metrics)
}

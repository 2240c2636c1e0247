//! The shared harness of the figure and bench binaries.
//!
//! Every binary in this crate either regenerates one table or figure of the
//! paper's evaluation (`fig*`, `table_cost`; the top-level `README.md` maps
//! figures to binaries) or measures one subsystem and writes
//! `BENCH_<name>.json` (`bench_*`). They all read their flags through
//! [`Options`]:
//!
//! * `--quick` shrinks the experiment (shorter duration, fewer nodes) so the
//!   whole suite doubles as an end-to-end smoke test;
//! * `--out PATH` names the output: the directory for a figure's CSV/SVG
//!   artifacts, or the JSON file of a bench report;
//! * `--seed N` overrides the seed, in the binaries that read one.
//!
//! Any other flag, or `--out`/`--seed` without a value, exits with status 2
//! before anything runs. A bench binary records its figures and its
//! pass/fail gates in one [`BenchReport`], which writes the JSON first and
//! then exits 1 if any gate failed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use celestial::config::{HostConfig, TestbedConfig};
use celestial_apps::meetup::MeetupConfig;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed of the figure binaries unless `--seed` overrides it.
pub const FIGURE_SEED: u64 = 2022;

/// Command-line options shared by every binary in this crate.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run a reduced version of the experiment.
    pub quick: bool,
    /// The output path: an artifact directory for figures, the report file
    /// for benches.
    pub out: Option<PathBuf>,
    /// The random seed (0 in binaries that read none).
    pub seed: u64,
}

impl Options {
    /// Parses options from the process arguments; a bad flag exits with
    /// status 2 and a message naming it. `seed` is the default seed of a
    /// binary that reads one; without it `--seed` is an unknown flag.
    pub fn from_args(seed: Option<u64>) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, seed).unwrap_or_else(|message| fail(&message))
    }

    /// Parses options from a slice of argument strings.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when it is unknown, when `--out`
    /// or `--seed` lacks its value, or when the seed is not an unsigned
    /// integer.
    pub fn parse(args: &[String], seed: Option<u64>) -> Result<Self, String> {
        let mut options = Options {
            quick: false,
            out: None,
            seed: seed.unwrap_or(0),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--out" => {
                    let path = iter.next().ok_or("--out expects a path")?;
                    options.out = Some(PathBuf::from(path));
                }
                "--seed" if seed.is_some() => {
                    let seed = iter.next().ok_or("--seed expects an unsigned integer")?;
                    options.seed = seed
                        .parse()
                        .map_err(|_| format!("--seed expects an unsigned integer, got '{seed}'"))?;
                }
                other => {
                    let seed_flag = if seed.is_some() { ", --seed N" } else { "" };
                    return Err(format!(
                        "unknown flag '{other}'; expected --quick, --out PATH{seed_flag}"
                    ));
                }
            }
        }
        Ok(options)
    }

    /// The full-run value, or the `--quick` one.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Writes an artifact file into the output directory, if one was given;
    /// a failed write exits with a message naming the path.
    pub fn write_artifact(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out {
            let path = dir.join(name);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
                Ok(()) => println!("# wrote {}", path.display()),
                Err(err) => fail(&format!("cannot write {}: {err}", path.display())),
            }
        }
    }
}

/// Prints `message` and exits with status 2, so a binary given a bad flag,
/// or unable to write its artifacts, never passes for a good run.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// How a gate compares its measured value with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `value < bound`.
    Lt,
    /// `value <= bound`.
    Le,
    /// `value == bound`.
    Eq,
    /// `value >= bound`.
    Ge,
    /// `value > bound`.
    Gt,
}

impl Op {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Lt => value < bound,
            Op::Le => value <= bound,
            Op::Eq => value == bound,
            Op::Ge => value >= bound,
            Op::Gt => value > bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ge => ">=",
            Op::Gt => ">",
        }
    }
}

/// One pass/fail check of a bench run: `value op bound`.
#[derive(Debug)]
struct Gate {
    name: String,
    value: f64,
    op: Op,
    bound: f64,
}

impl Gate {
    fn pass(&self) -> bool {
        self.op.holds(self.value, self.bound)
    }
}

/// The report of one `bench_*` run: the bench's own fields, the host's core
/// count and the gates the run must pass.
#[derive(Debug)]
pub struct BenchReport {
    bench: &'static str,
    out: PathBuf,
    gates: Vec<Gate>,
}

impl BenchReport {
    /// A report of bench `bench`, written to `--out` or by default to
    /// `BENCH_<bench>.json`, or `BENCH_<bench>_smoke.json` under `--quick`
    /// so a smoke run never overwrites the committed full-run figures.
    pub fn new(bench: &'static str, options: &Options) -> Self {
        let default = options.pick(
            format!("BENCH_{bench}.json"),
            format!("BENCH_{bench}_smoke.json"),
        );
        BenchReport {
            bench,
            out: options
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(default)),
            gates: Vec::new(),
        }
    }

    /// Adds the gate `name`: the run passes only if `value op bound`.
    pub fn gate(&mut self, name: impl Into<String>, value: f64, op: Op, bound: f64) {
        self.gates.push(Gate {
            name: name.into(),
            value,
            op,
            bound,
        });
    }

    /// Adds the gate `name` on a condition: value 1 if it holds, else 0,
    /// against the bound 1.
    pub fn check(&mut self, name: impl Into<String>, holds: bool) {
        self.gate(name, f64::from(u8::from(holds)), Op::Eq, 1.0);
    }

    /// Writes `fields` (a JSON object) preceded by `bench` and followed by
    /// `host_cores` and `gates`, then prints every gate. Returns failure
    /// (exit status 1) if any gate failed and status 2 if the report cannot
    /// be written.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is not a JSON object.
    pub fn finish(self, fields: Value) -> ExitCode {
        let Value::Map(mut entries) = fields else {
            panic!("the fields of a bench report form a JSON object")
        };
        let gates: Vec<Value> = self
            .gates
            .iter()
            .map(|gate| {
                json!({
                    "name": gate.name,
                    "value": gate.value,
                    "op": gate.op.symbol(),
                    "bound": gate.bound,
                    "pass": gate.pass(),
                })
            })
            .collect();
        let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
        entries.insert(0, (json!("bench"), json!(self.bench)));
        entries.push((json!("host_cores"), json!(host_cores)));
        entries.push((json!("gates"), Value::Array(gates)));
        let body = serde_json::to_string(&Value::Map(entries)).expect("serializable report");
        if let Err(err) = std::fs::write(&self.out, body) {
            eprintln!("error: cannot write {}: {err}", self.out.display());
            return ExitCode::from(2);
        }
        println!("# wrote {}", self.out.display());

        for gate in &self.gates {
            let verdict = if gate.pass() { "pass" } else { "FAIL" };
            println!(
                "gate {}: {} {} {} {verdict}",
                gate.name,
                gate.value,
                gate.op.symbol(),
                gate.bound
            );
        }
        let failed = self.gates.iter().filter(|gate| !gate.pass()).count();
        if failed == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: {failed} of {} gates of bench_{} failed",
                self.gates.len(),
                self.bench
            );
            ExitCode::FAILURE
        }
    }
}

/// The smallest value of the numeric field `key` across `entries`
/// (infinity when there are none), for gates that must hold on every entry.
///
/// # Panics
///
/// Panics if an entry lacks the field or it is not a number.
pub fn min_field(entries: &[Value], key: &str) -> f64 {
    entries
        .iter()
        .map(|entry| {
            entry[key]
                .as_f64()
                .unwrap_or_else(|| panic!("'{key}' is not a number"))
        })
        .fold(f64::INFINITY, f64::min)
}

/// The +GRID Walker shell most benches measure: `planes` × `per_plane`
/// satellites at 550 km and 53°, with ground stations in Accra and Abuja
/// and the given bounding box.
pub fn grid_constellation(planes: u32, per_plane: u32, bounding_box: BoundingBox) -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(
            550.0, 53.0, planes, per_plane,
        )))
        .ground_station(GroundStation::new(
            "accra",
            Geodetic::new(5.6037, -0.187, 0.0),
        ))
        .ground_station(GroundStation::new(
            "abuja",
            Geodetic::new(9.0765, 7.3986, 0.0),
        ))
        .bounding_box(bounding_box)
        .build()
        .expect("valid constellation")
}

/// The testbed configuration of the §4 meetup evaluation: the two lowest
/// Starlink shells, the three West African clients plus the Johannesburg
/// datacenter, the West Africa bounding box and three 32-core hosts.
pub fn meetup_testbed_config(options: &Options) -> TestbedConfig {
    let shells: Vec<Shell> = if options.quick {
        MeetupConfig::shells().into_iter().take(1).collect()
    } else {
        MeetupConfig::shells()
    };
    TestbedConfig::builder()
        .seed(options.seed)
        .update_interval_s(2.0)
        .duration_s(options.pick(600.0, 60.0))
        .shells(shells)
        .ground_stations(MeetupConfig::ground_stations())
        .bounding_box(BoundingBox::west_africa())
        .hosts(vec![HostConfig::default(); 3])
        .build()
        .expect("valid meetup configuration")
}

/// The testbed configuration of the §5 DART case study: the Iridium shell,
/// the buoy/sink/warning-center ground stations and four 32-core hosts.
pub fn dart_testbed_config(
    options: &Options,
    app_config: &celestial_apps::DartConfig,
) -> TestbedConfig {
    TestbedConfig::builder()
        .seed(options.seed)
        .update_interval_s(5.0)
        .duration_s(options.pick(900.0, 60.0))
        .shell(celestial_apps::DartConfig::iridium_shell())
        .ground_stations(app_config.ground_stations())
        .bounding_box(BoundingBox::whole_earth())
        .hosts(vec![HostConfig::default(); 4])
        .build()
        .expect("valid DART configuration")
}

/// The DART application configuration matching `--quick`.
pub fn dart_app_config(
    options: &Options,
    deployment: celestial_apps::DartDeployment,
) -> celestial_apps::DartConfig {
    if options.quick {
        celestial_apps::DartConfig::reduced(deployment, 20, 40)
    } else {
        celestial_apps::DartConfig::new(deployment)
    }
}

/// Formats a series of `(x, y)` points as CSV with the given column names.
pub fn csv(points: &[(f64, f64)], x_name: &str, y_name: &str) -> String {
    let mut out = format!("{x_name},{y_name}\n");
    for (x, y) in points {
        out.push_str(&format!("{x:.6},{y:.6}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn options_parse_flags() {
        let options = Options::parse(
            &args(&["--quick", "--seed", "7", "--out", "/tmp/figs"]),
            Some(FIGURE_SEED),
        )
        .expect("valid flags");
        assert!(options.quick);
        assert_eq!(options.seed, 7);
        assert_eq!(
            options.out.as_deref(),
            Some(std::path::Path::new("/tmp/figs"))
        );
        assert_eq!(Options::parse(&[], Some(11)).expect("no flags").seed, 11);
    }

    #[test]
    fn bad_flags_are_errors_naming_the_flag() {
        for (bad, seed, flag) in [
            (&["--seed", "abc"][..], Some(FIGURE_SEED), "--seed"),
            (&["--seed", "-1"][..], Some(FIGURE_SEED), "--seed"),
            (&["--quick", "--seed"][..], Some(FIGURE_SEED), "--seed"),
            (&["--out"][..], Some(FIGURE_SEED), "--out"),
            (&["--quik"][..], Some(FIGURE_SEED), "--quik"),
            (&["--quick", "--planes", "8"][..], None, "--planes"),
            // A bench that reads no seed rejects `--seed` as unknown.
            (&["--seed", "7"][..], None, "--seed"),
        ] {
            let err = Options::parse(&args(bad), seed).expect_err("bad flags accepted");
            assert!(err.contains(flag), "{bad:?}: {err}");
        }
    }

    #[test]
    fn quick_configs_are_smaller() {
        let quick = Options::parse(&args(&["--quick"]), Some(FIGURE_SEED)).expect("valid flags");
        let full = Options::parse(&[], Some(FIGURE_SEED)).expect("valid flags");
        let quick_config = meetup_testbed_config(&quick);
        let full_config = meetup_testbed_config(&full);
        assert!(quick_config.duration_s < full_config.duration_s);
        assert!(quick_config.shells.len() <= full_config.shells.len());
        let dart_quick = dart_app_config(&quick, celestial_apps::DartDeployment::Central);
        assert!(dart_quick.buoy_count < 100);
    }

    #[test]
    fn quick_bench_runs_default_to_smoke_files() {
        let full = Options::parse(&[], None).expect("valid flags");
        let quick = Options::parse(&args(&["--quick"]), None).expect("valid flags");
        assert_eq!(
            BenchReport::new("epoch", &full).out,
            PathBuf::from("BENCH_epoch.json")
        );
        assert_eq!(
            BenchReport::new("epoch", &quick).out,
            PathBuf::from("BENCH_epoch_smoke.json")
        );
    }

    #[test]
    fn a_failing_gate_is_written_and_fails_the_run() {
        let path = std::env::temp_dir().join(format!("bench-report-{}.json", std::process::id()));
        let options = Options {
            quick: true,
            out: Some(path.clone()),
            seed: 0,
        };
        let mut report = BenchReport::new("unit", &options);
        report.gate("speedup", 1.2, Op::Ge, 1.5);
        report.check("converged", true);
        assert_eq!(report.finish(json!({ "speedup": 1.2 })), ExitCode::FAILURE);

        let text = std::fs::read_to_string(&path).expect("the report is written");
        std::fs::remove_file(&path).expect("report removed");
        let report: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(report["bench"].as_str(), Some("unit"));
        assert_eq!(report["speedup"].as_f64(), Some(1.2));
        assert!(report["host_cores"]
            .as_u64()
            .is_some_and(|cores| cores >= 1));
        let gates = report["gates"].as_array().expect("gates array");
        assert_eq!(gates.len(), 2);
        assert_eq!(gates[0]["name"].as_str(), Some("speedup"));
        assert_eq!(gates[0]["bound"].as_f64(), Some(1.5));
        assert_eq!(gates[0]["pass"].as_bool(), Some(false));
        assert_eq!(gates[1]["pass"].as_bool(), Some(true));
    }

    #[test]
    fn a_passing_report_succeeds() {
        let path = std::env::temp_dir().join(format!("bench-pass-{}.json", std::process::id()));
        let options = Options {
            quick: true,
            out: Some(path.clone()),
            seed: 0,
        };
        let mut report = BenchReport::new("unit", &options);
        report.gate("stall_ms", 0.5, Op::Lt, 1.0);
        assert_eq!(report.finish(json!({})), ExitCode::SUCCESS);
        std::fs::remove_file(&path).expect("report written");
    }

    #[test]
    fn gate_operators_compare_value_with_bound() {
        for (op, below, equal, above) in [
            (Op::Lt, true, false, false),
            (Op::Le, true, true, false),
            (Op::Eq, false, true, false),
            (Op::Ge, false, true, true),
            (Op::Gt, false, false, true),
        ] {
            assert_eq!(
                [op.holds(1.0, 2.0), op.holds(2.0, 2.0), op.holds(3.0, 2.0)],
                [below, equal, above],
                "{op:?}"
            );
        }
    }

    #[test]
    fn csv_formatting() {
        let text = csv(&[(1.0, 2.0), (3.0, 4.5)], "t", "latency");
        assert!(text.starts_with("t,latency\n"));
        assert_eq!(text.lines().count(), 3);
    }
}

//! Shared helpers for the figure-regeneration binaries.
//!
//! Every binary in this crate regenerates one table or figure of the paper's
//! evaluation (the top-level `README.md` maps figures to binaries). They all
//! accept a `--quick` flag that shrinks the experiment (shorter duration,
//! fewer nodes) so the whole suite can double as an end-to-end smoke test,
//! a `--seed <n>` override, and an `--out <dir>` flag to write CSV/SVG
//! artifacts next to the printed output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use celestial::config::{HostConfig, TestbedConfig};
use celestial_apps::meetup::MeetupConfig;
use celestial_constellation::{BoundingBox, Shell};
use std::path::PathBuf;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Run a reduced version of the experiment.
    pub quick: bool,
    /// Directory to write CSV/SVG artifacts to (optional).
    pub out_dir: Option<PathBuf>,
    /// Override the random seed.
    pub seed: u64,
}

impl FigureOptions {
    /// Parses options from the process arguments; a bad flag exits with a
    /// message naming it.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_slice(&args).unwrap_or_else(|message| fail(&message))
    }

    /// Parses options from a slice of argument strings.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when `--seed` or `--out` lacks its
    /// value or the seed is not an unsigned integer.
    pub fn from_slice(args: &[String]) -> Result<Self, String> {
        let mut options = FigureOptions {
            quick: false,
            out_dir: None,
            seed: 2022,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--out" => {
                    let dir = iter.next().ok_or("--out expects a directory")?;
                    options.out_dir = Some(PathBuf::from(dir));
                }
                "--seed" => {
                    let seed = iter.next().ok_or("--seed expects an unsigned integer")?;
                    options.seed = seed.parse().map_err(|_| {
                        format!("--seed expects an unsigned integer, got '{seed}'")
                    })?;
                }
                _ => {}
            }
        }
        Ok(options)
    }

    /// Writes an artifact file into the output directory, if one was given;
    /// a failed write exits with a message naming the path.
    pub fn write_artifact(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out_dir {
            let path = dir.join(name);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
                Ok(()) => println!("# wrote {}", path.display()),
                Err(err) => fail(&format!("cannot write {}: {err}", path.display())),
            }
        }
    }
}

/// Prints `message` and exits with status 2, so a figure binary given a bad
/// flag, or unable to write its artifacts, never passes for a good run.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The testbed configuration of the §4 meetup evaluation: the two lowest
/// Starlink shells, the three West African clients plus the Johannesburg
/// datacenter, the West Africa bounding box and three 32-core hosts.
pub fn meetup_testbed_config(options: &FigureOptions) -> TestbedConfig {
    let shells: Vec<Shell> = if options.quick {
        MeetupConfig::shells().into_iter().take(1).collect()
    } else {
        MeetupConfig::shells()
    };
    TestbedConfig::builder()
        .seed(options.seed)
        .update_interval_s(2.0)
        .duration_s(if options.quick { 60.0 } else { 600.0 })
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
    options: &FigureOptions,
    app_config: &celestial_apps::DartConfig,
) -> TestbedConfig {
    TestbedConfig::builder()
        .seed(options.seed)
        .update_interval_s(5.0)
        .duration_s(if options.quick { 60.0 } else { 900.0 })
        .shell(celestial_apps::DartConfig::iridium_shell())
        .ground_stations(app_config.ground_stations())
        .bounding_box(BoundingBox::whole_earth())
        .hosts(vec![HostConfig::default(); 4])
        .build()
        .expect("valid DART configuration")
}

/// The DART application configuration matching `--quick`.
pub fn dart_app_config(
    options: &FigureOptions,
    deployment: celestial_apps::DartDeployment,
) -> celestial_apps::DartConfig {
    if options.quick {
        celestial_apps::DartConfig::reduced(deployment, 20, 40)
    } else {
        celestial_apps::DartConfig::new(deployment)
    }
}

/// The default output file of the `bench_<name>` binary given its
/// arguments: `BENCH_<name>.json` for a full run and
/// `BENCH_<name>_smoke.json` under `--quick`, so a smoke run never
/// overwrites the committed full-run figures. `--out FILE` overrides it.
pub fn bench_out(name: &str, args: &[String]) -> String {
    if args.iter().any(|a| a == "--quick") {
        format!("BENCH_{name}_smoke.json")
    } else {
        format!("BENCH_{name}.json")
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
        let options =
            FigureOptions::from_slice(&args(&["--quick", "--seed", "7", "--out", "/tmp/figs"]))
                .expect("valid flags");
        assert!(options.quick);
        assert_eq!(options.seed, 7);
        assert_eq!(options.out_dir.as_deref(), Some(std::path::Path::new("/tmp/figs")));
    }

    #[test]
    fn bad_flags_are_errors_naming_the_flag() {
        for (bad, flag) in [
            (&["--seed", "abc"][..], "--seed"),
            (&["--seed", "-1"][..], "--seed"),
            (&["--quick", "--seed"][..], "--seed"),
            (&["--out"][..], "--out"),
        ] {
            let err = FigureOptions::from_slice(&args(bad)).expect_err("bad flags accepted");
            assert!(err.contains(flag), "{bad:?}: {err}");
        }
    }

    #[test]
    fn quick_configs_are_smaller() {
        let quick = FigureOptions::from_slice(&args(&["--quick"])).expect("valid flags");
        let full = FigureOptions::from_slice(&[]).expect("valid flags");
        let quick_config = meetup_testbed_config(&quick);
        let full_config = meetup_testbed_config(&full);
        assert!(quick_config.duration_s < full_config.duration_s);
        assert!(quick_config.shells.len() <= full_config.shells.len());
        let dart_quick = dart_app_config(&quick, celestial_apps::DartDeployment::Central);
        assert!(dart_quick.buoy_count < 100);
    }

    #[test]
    fn quick_bench_runs_default_to_smoke_files() {
        assert_eq!(bench_out("epoch", &[]), "BENCH_epoch.json");
        assert_eq!(bench_out("epoch", &["--quick".to_owned()]), "BENCH_epoch_smoke.json");
    }

    #[test]
    fn csv_formatting() {
        let text = csv(&[(1.0, 2.0), (3.0, 4.5)], "t", "latency");
        assert!(text.starts_with("t,latency\n"));
        assert_eq!(text.lines().count(), 3);
    }
}

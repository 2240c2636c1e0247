//! A figure or bench binary given a bad flag, or unable to write its
//! output, exits non-zero with a message naming the flag or the path; a
//! bench run writes a report whose gates all pass.

use std::path::Path;
use std::process::Command;

fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn fig01(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_fig01_constellation"), args)
}

fn netprog(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_bench_netprog"), args)
}

#[test]
fn bad_flags_exit_naming_the_flag() {
    for (args, flag) in [
        (&["--seed", "abc"][..], "--seed"),
        (&["--quick", "--out"][..], "--out"),
        (&["--quik"][..], "--quik"),
    ] {
        let (code, stderr) = fig01(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn a_failed_artifact_write_exits_naming_the_path() {
    // A regular file cannot hold the output directory.
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig01-out-file");
    std::fs::write(&file, "").expect("temporary file");
    let (code, stderr) = fig01(&["--quick", "--out", file.to_str().expect("UTF-8 path")]);
    std::fs::remove_file(&file).expect("temporary file removed");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("fig01_constellation.svg"), "{stderr}");
}

#[test]
fn bad_bench_flags_exit_before_writing_anything() {
    // Run where the default report files would land, so a run that wrongly
    // went ahead is caught by the files it leaves.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("netprog-bad-flags");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for (args, flag) in [
        (&["--quik"][..], "--quik"),
        (&["--quick", "--out"][..], "--out"),
        (&["--quick", "--planes", "8"][..], "--planes"),
        (&["--quick", "--seed", "7"][..], "--seed"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench_netprog"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("the bench runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error:") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch directory")
            .collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

#[test]
fn a_quick_bench_run_writes_passing_gates() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_netprog_test.json");
    let (code, stderr) = netprog(&["--quick", "--out", out.to_str().expect("UTF-8 path")]);
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(&out).expect("the report is written");
    std::fs::remove_file(&out).expect("report removed");
    let report: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(report["bench"].as_str(), Some("netprog"));
    let gates = report["gates"].as_array().expect("gates array");
    assert!(!gates.is_empty(), "no gates in {text}");
    for gate in gates {
        assert_eq!(gate["pass"].as_bool(), Some(true), "{gate:?}");
    }
}

//! A figure binary given a bad flag, or unable to write its artifacts,
//! exits non-zero with a message naming the flag or the path.

use std::process::Command;

fn fig01(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fig01_constellation"))
        .args(args)
        .output()
        .expect("the figure binary runs");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn bad_flags_exit_naming_the_flag() {
    for (args, flag) in [(&["--seed", "abc"][..], "--seed"), (&["--quick", "--out"][..], "--out")] {
        let (code, stderr) = fig01(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn a_failed_artifact_write_exits_naming_the_path() {
    // A regular file cannot hold the output directory.
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig01-out-file");
    std::fs::write(&file, "").expect("temporary file");
    let (code, stderr) = fig01(&["--quick", "--out", file.to_str().expect("UTF-8 path")]);
    std::fs::remove_file(&file).expect("temporary file removed");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("fig01_constellation.svg"), "{stderr}");
}

//! Each experiment binary accepts only the flags it reads: a flag it
//! would ignore exits 2 before any work, naming the flags it takes, and
//! writes no file.

use std::path::Path;
use std::process::Command;

/// Runs `exe` with `args` and returns its exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(exe).args(args).output().unwrap();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn jobstream_rejects_trace_and_topology_flags() {
    let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-js.trace");
    let trace = trace.to_str().unwrap();
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_jobstream"),
        &["--trace-out", trace, "--racks", "4"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("unknown flag `--trace-out`"), "{stderr}");
    assert!(stderr.contains("[--metrics-out PATH]"), "{stderr}");
    assert!(!Path::new(trace).exists());
}

#[test]
fn fig_shuffle_rejects_metrics_out() {
    let metrics = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-fs.m");
    let metrics = metrics.to_str().unwrap();
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_fig-shuffle"),
        &["--metrics-out", metrics],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("unknown flag `--metrics-out`"),
        "{stderr}"
    );
    assert!(stderr.contains("[--trace-out PATH]"), "{stderr}");
    assert!(!Path::new(metrics).exists());
}

#[test]
fn help_lists_only_the_binary_flags() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_verify"), &["--help"]);
    assert_eq!(code, Some(2));
    assert_eq!(
        stderr.trim_end(),
        "usage: [--runs N] [--seed N] [--report-json PATH]"
    );
}

//! Each experiment binary accepts only the flags it reads and the
//! selector words it knows: a flag it would ignore, an unknown word or a
//! second one exits 2 before any work, naming what it takes, and writes
//! no file.

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
    // A binary with selectors lists them first.
    for (exe, selectors) in [
        (env!("CARGO_BIN_EXE_fig3"), "[a|b|c]"),
        (env!("CARGO_BIN_EXE_fig5"), "[a|b|c]"),
        (env!("CARGO_BIN_EXE_ablations"), "[emu|sched]"),
        (env!("CARGO_BIN_EXE_jobstream"), "[fifo|fair|capacity]"),
    ] {
        let (code, stderr) = run(exe, &["--help"]);
        assert_eq!(code, Some(2));
        assert!(
            stderr.starts_with(&format!("usage: {selectors} [--paper]")),
            "{stderr}"
        );
    }
}

#[test]
fn unknown_or_second_selectors_exit_2_naming_the_selectors() {
    let cases: [(&str, &[&str], &str); 8] = [
        (
            env!("CARGO_BIN_EXE_fig3"),
            &["d", "--runs", "1", "--nodes", "16"],
            "[a|b|c]",
        ),
        (env!("CARGO_BIN_EXE_fig3"), &["a", "b"], "[a|b|c]"),
        (env!("CARGO_BIN_EXE_fig4"), &["a", "a"], "[a|b|c]"),
        (env!("CARGO_BIN_EXE_fig5"), &["q"], "[a|b|c]"),
        (env!("CARGO_BIN_EXE_ablations"), &["x"], "[emu|sched]"),
        (
            env!("CARGO_BIN_EXE_jobstream"),
            &["bogus"],
            "[fifo|fair|capacity]",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["bogus", "--nodes", "100"],
            "[--paper]",
        ),
        (env!("CARGO_BIN_EXE_fig-shuffle"), &["bogus"], "[--paper]"),
    ];
    for (exe, args, takes) in cases {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("unexpected argument `"),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("(this binary takes {takes}")),
            "{args:?}: {stderr}"
        );
    }
    let (code, stderr) = run(env!("CARGO_BIN_EXE_verify"), &["extra", "--runs", "1"]);
    assert_eq!(code, Some(2));
    assert_eq!(
        stderr.trim_end(),
        "unexpected argument `extra` (this binary takes [--runs N] [--seed N] [--report-json PATH])"
    );
}

//! The pinned baselines: each command below regenerates its committed
//! `results/ci-baseline-*` file byte for byte, and a second run
//! reproduces the first. Four commands also write a second file that
//! has no committed copy — the table1 probe's event trace, the
//! fig-shuffle reduce-phase trace and the SLO-cell metrics document of
//! both job streams — and the second run must reproduce it byte for
//! byte too.
//! The five cheapest paper tables under `results/` are pinned the same
//! way from the binary's stdout, in one run each.
//!
//! The reports and metrics documents hold only simulated-time integers
//! and sorted keys, so any difference is a real change of behaviour. When
//! a change is intended, regenerate the file with the command the failure
//! prints and commit it.

use std::path::Path;
use std::process::Command;

/// One pinned command: an experiment binary, its arguments, and the flag
/// that names the file it writes.
struct Pin {
    /// Cargo's path to the built binary.
    exe: &'static str,
    /// The binary's name, for the regeneration command.
    bin: &'static str,
    args: &'static [&'static str],
    out_flag: &'static str,
    /// The committed file under `results/`.
    baseline: &'static str,
    /// The flag of a second file the same command writes, checked for
    /// run-to-run stability only.
    extra_flag: Option<&'static str>,
}

const TABLE1: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_table1"),
    bin: "table1",
    args: &["--nodes", "2000", "--seed", "2012"],
    out_flag: "--report-json",
    baseline: "ci-baseline-report.json",
    extra_flag: Some("--trace-out"),
};

/// The degeneracy contract (DESIGN.md §17): the trivial topology, one
/// rack with a non-blocking core, reproduces the flat-network report.
const TABLE1_ONE_RACK: Pin = Pin {
    args: &[
        "--nodes",
        "2000",
        "--seed",
        "2012",
        "--racks",
        "1",
        "--oversubscription",
        "1",
    ],
    extra_flag: None,
    ..TABLE1
};

const JOBSTREAM: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_jobstream"),
    bin: "jobstream",
    args: &["fair"],
    out_flag: "--report-json",
    baseline: "ci-baseline-jobstream.json",
    extra_flag: Some("--metrics-out"),
};

/// A stream of jobs that are small slices of a large cluster: each job
/// gets at most 16 of the 1,024 nodes, and its block count recurs across
/// the 400 jobs, as in the benchmark's 2,048-node stream.
const JOBSTREAM_1024: Pin = Pin {
    args: &["fair", "--nodes", "1024", "--runs", "400"],
    baseline: "ci-baseline-jobstream-1024.json",
    ..JOBSTREAM
};

const FIG_SHUFFLE: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_fig-shuffle"),
    bin: "fig-shuffle",
    args: &[],
    out_flag: "--report-json",
    baseline: "ci-baseline-shuffle.json",
    extra_flag: Some("--trace-out"),
};

const FIG3_METRICS: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_fig3"),
    bin: "fig3",
    args: &["--seed", "2012"],
    out_flag: "--metrics-out",
    baseline: "ci-baseline-metrics.jsonl",
    extra_flag: None,
};

impl Pin {
    /// The command line that writes `out`, and the extra file to
    /// `extra` when given, as a user would type it.
    fn command_line(&self, out: &str, extra: Option<&str>) -> String {
        let mut words = vec![
            "cargo run --release -p adapt-experiments --bin",
            self.bin,
            "--",
        ];
        words.extend(self.args);
        words.extend([self.out_flag, out]);
        if let (Some(flag), Some(extra)) = (self.extra_flag, extra) {
            words.extend([flag, extra]);
        }
        words.join(" ")
    }

    /// Runs the command, writing to `file` (and `file.extra`) in the
    /// test's scratch directory, and returns the bytes of each.
    fn run(&self, file: &str) -> (Vec<u8>, Vec<u8>) {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
        let (out, extra) = (dir.join(file), dir.join(format!("{file}.extra")));
        let mut command = Command::new(self.exe);
        command.args(self.args).arg(self.out_flag).arg(&out);
        if let Some(flag) = self.extra_flag {
            command.arg(flag).arg(&extra);
        }
        let output = command.output().unwrap();
        assert!(
            output.status.success(),
            "`{}` failed: {}\n{}",
            self.command_line(
                &out.display().to_string(),
                Some(&extra.display().to_string())
            ),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let extra = match self.extra_flag {
            Some(_) => std::fs::read(&extra).unwrap(),
            None => Vec::new(),
        };
        (std::fs::read(&out).unwrap(), extra)
    }

    /// Checks two runs against the committed baseline and each other,
    /// and returns the first run's extra file.
    fn check(&self, file: &str) -> Vec<u8> {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let baseline = std::fs::read(results.join(self.baseline)).unwrap();
        let first = self.run(&format!("{file}-1"));
        if let Some(offset) = first_difference(&baseline, &first.0) {
            panic!(
                "results/{} differs from a fresh run at byte {offset}; if the change is \
                 intended, regenerate it with `{}` and commit it",
                self.baseline,
                self.command_line(&format!("results/{}", self.baseline), None),
            );
        }
        let second = self.run(&format!("{file}-2"));
        for (what, a, b) in [
            ("", &first.0, &second.0),
            (" (extra file)", &first.1, &second.1),
        ] {
            if let Some(offset) = first_difference(a, b) {
                panic!(
                    "two runs of `{}` differ{what} at byte {offset}",
                    self.command_line(file, Some(&format!("{file}.extra")))
                );
            }
        }
        first.1
    }
}

/// Runs the experiment binary `exe` with `args` once and compares its
/// stdout, a paper table, with the committed `results/` file `baseline`.
fn check_table(exe: &str, args: &[&str], baseline: &str) {
    let bin = Path::new(exe).file_name().unwrap().to_string_lossy();
    let command = format!(
        "cargo run --release -p adapt-experiments --bin {bin} -- {}",
        args.join(" ")
    );
    let output = Command::new(exe).args(args).output().unwrap();
    assert!(
        output.status.success(),
        "`{command}` failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let expected = std::fs::read(results.join(baseline)).unwrap();
    if let Some(offset) = first_difference(&expected, &output.stdout) {
        panic!(
            "results/{baseline} differs from the stdout of `{command}` at byte {offset}; if \
             the change is intended, regenerate it with `{command} > results/{baseline}` and \
             commit it"
        );
    }
}

/// Offset of the first byte where `a` and `b` differ, counting a length
/// mismatch as a difference at the end of the shorter one.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

#[test]
fn table1_report_matches_baseline() {
    let trace = TABLE1.check("report.json");
    assert!(!trace.is_empty(), "the probe trace is empty");
}

#[test]
fn one_rack_report_matches_flat_baseline() {
    TABLE1_ONE_RACK.check("report-flat-topo.json");
}

#[test]
fn jobstream_report_matches_baseline() {
    let metrics = JOBSTREAM.check("jobstream.json");
    assert!(
        !metrics.is_empty(),
        "the SLO-cell metrics document is empty"
    );
}

#[test]
fn jobstream_1024_report_matches_baseline() {
    let metrics = JOBSTREAM_1024.check("jobstream-1024.json");
    assert!(
        !metrics.is_empty(),
        "the SLO-cell metrics document is empty"
    );
}

#[test]
fn shuffle_report_matches_baseline() {
    let trace = String::from_utf8(FIG_SHUFFLE.check("shuffle.json")).unwrap();
    // The reduce-phase event kinds the map probe never emits.
    for kind in ["reduce_started", "shuffle_fetch", "link_contention"] {
        let tag = format!("\"kind\":\"{kind}\"");
        assert!(
            trace.contains(&tag),
            "the shuffle trace has no {kind} events"
        );
    }
}

#[test]
fn fig3_metrics_match_baseline() {
    FIG3_METRICS.check("metrics.jsonl");
}

#[test]
fn table1_table_matches_results() {
    check_table(env!("CARGO_BIN_EXE_table1"), &[], "table1.txt");
}

#[test]
fn fig3_paper_table_matches_results() {
    check_table(env!("CARGO_BIN_EXE_fig3"), &["--paper"], "fig3_paper.txt");
}

#[test]
fn fig4_paper_table_matches_results() {
    check_table(env!("CARGO_BIN_EXE_fig4"), &["--paper"], "fig4_paper.txt");
}

#[test]
fn ablations_table_matches_results() {
    check_table(
        env!("CARGO_BIN_EXE_ablations"),
        &["--runs", "3"],
        "ablations_sched.txt",
    );
}

#[test]
fn fig5c_table_matches_results() {
    let args = ["c", "--nodes", "256", "--runs", "3"];
    check_table(env!("CARGO_BIN_EXE_fig5"), &args, "fig5c.txt");
}

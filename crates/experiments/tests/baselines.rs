//! The pinned baselines: each command below regenerates its committed
//! `results/ci-baseline-*` file byte for byte, and a second run
//! reproduces the first.
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
}

const TABLE1: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_table1"),
    bin: "table1",
    args: &["--nodes", "2000", "--seed", "2012"],
    out_flag: "--report-json",
    baseline: "ci-baseline-report.json",
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
    ..TABLE1
};

const JOBSTREAM: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_jobstream"),
    bin: "jobstream",
    args: &["fair"],
    out_flag: "--report-json",
    baseline: "ci-baseline-jobstream.json",
};

const FIG_SHUFFLE: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_fig-shuffle"),
    bin: "fig-shuffle",
    args: &[],
    out_flag: "--report-json",
    baseline: "ci-baseline-shuffle.json",
};

const FIG3_METRICS: Pin = Pin {
    exe: env!("CARGO_BIN_EXE_fig3"),
    bin: "fig3",
    args: &["--seed", "2012"],
    out_flag: "--metrics-out",
    baseline: "ci-baseline-metrics.jsonl",
};

impl Pin {
    /// The command line that writes `out`, as a user would type it.
    fn command_line(&self, out: &str) -> String {
        let mut words = vec![
            "cargo run --release -p adapt-experiments --bin",
            self.bin,
            "--",
        ];
        words.extend(self.args);
        words.extend([self.out_flag, out]);
        words.join(" ")
    }

    /// Runs the command, writing to `file` in the test's scratch
    /// directory, and returns the bytes written.
    fn run(&self, file: &str) -> Vec<u8> {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
        let output = Command::new(self.exe)
            .args(self.args)
            .arg(self.out_flag)
            .arg(&out)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "`{}` failed: {}\n{}",
            self.command_line(&out.display().to_string()),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(&out).unwrap()
    }

    /// Checks two runs against the committed baseline and each other.
    fn check(&self, file: &str) {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let baseline = std::fs::read(results.join(self.baseline)).unwrap();
        let first = self.run(&format!("{file}-1"));
        if let Some(offset) = first_difference(&baseline, &first) {
            panic!(
                "results/{} differs from a fresh run at byte {offset}; if the change is \
                 intended, regenerate it with `{}` and commit it",
                self.baseline,
                self.command_line(&format!("results/{}", self.baseline)),
            );
        }
        let second = self.run(&format!("{file}-2"));
        if let Some(offset) = first_difference(&first, &second) {
            panic!(
                "two runs of `{}` differ at byte {offset}",
                self.command_line(file)
            );
        }
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
    TABLE1.check("report.json");
}

#[test]
fn one_rack_report_matches_flat_baseline() {
    TABLE1_ONE_RACK.check("report-flat-topo.json");
}

#[test]
fn jobstream_report_matches_baseline() {
    JOBSTREAM.check("jobstream.json");
}

#[test]
fn shuffle_report_matches_baseline() {
    FIG_SHUFFLE.check("shuffle.json");
}

#[test]
fn fig3_metrics_match_baseline() {
    FIG3_METRICS.check("metrics.jsonl");
}

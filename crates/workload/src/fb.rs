//! Parser for the SWIM FB-2010 workload-trace TSV format.
//!
//! The SWIM repository ships Facebook's 2010 production Hadoop workload
//! as hourly samples (`FB-2010_samples_24_times_1hr_0.tsv` is the shape
//! the SNIPPETS exemplar drives its multi-job benchmark with). Each line
//! is one submitted job, tab-separated:
//!
//! ```text
//! job_id \t submit_secs \t gap_secs \t map_input_bytes \t shuffle_bytes \t reduce_output_bytes
//! ```
//!
//! where `gap_secs` is the inter-arrival gap to the *previous* job.
//! [`parse_tsv`] reads the format losslessly, [`to_tsv`] writes it back
//! canonically (the committed fixture round-trips byte-for-byte),
//! [`trace_to_jobs`] turns rows into scheduler-ready [`JobSpec`]s, and
//! [`calibrate`] moment-fits an [`ArrivalModel`]/[`SizeModel`] pair so
//! synthetic streams can be generated "in the shape of" a trace.

use crate::model::{ArrivalModel, SizeModel};
use crate::spec::JobSpec;
use crate::{WorkloadConfig, WorkloadError};

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct FbTraceRow {
    /// Job name as it appears in the trace (e.g. `job3`).
    pub job: String,
    /// Submission time, seconds from the trace epoch.
    pub submit_secs: f64,
    /// Inter-arrival gap to the previous job, seconds.
    pub gap_secs: f64,
    /// Total map input, bytes.
    pub map_input_bytes: u64,
    /// Shuffle volume, bytes.
    pub shuffle_bytes: u64,
    /// Reduce output, bytes.
    pub reduce_output_bytes: u64,
}

fn parse_f64(field: &str, name: &str, line: usize) -> Result<f64, WorkloadError> {
    let v: f64 = field.parse().map_err(|_| WorkloadError::Parse {
        line,
        message: format!("field `{name}` is not a number: `{field}`"),
    })?;
    if !v.is_finite() || v < 0.0 {
        return Err(WorkloadError::Parse {
            line,
            message: format!("field `{name}` must be finite and >= 0, got `{field}`"),
        });
    }
    Ok(v)
}

fn parse_u64(field: &str, name: &str, line: usize) -> Result<u64, WorkloadError> {
    field.parse().map_err(|_| WorkloadError::Parse {
        line,
        message: format!("field `{name}` is not an unsigned integer: `{field}`"),
    })
}

/// Parses a SWIM-format TSV trace. Blank lines are rejected (the format
/// has none); a trailing newline is tolerated.
///
/// # Errors
///
/// [`WorkloadError::Parse`] with the 1-based line number on any
/// malformed line.
pub fn parse_tsv(text: &str) -> Result<Vec<FbTraceRow>, WorkloadError> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(WorkloadError::Parse {
                line: lineno,
                message: format!("expected 6 tab-separated fields, got {}", fields.len()),
            });
        }
        rows.push(FbTraceRow {
            job: fields[0].to_string(),
            submit_secs: parse_f64(fields[1], "submit_secs", lineno)?,
            gap_secs: parse_f64(fields[2], "gap_secs", lineno)?,
            map_input_bytes: parse_u64(fields[3], "map_input_bytes", lineno)?,
            shuffle_bytes: parse_u64(fields[4], "shuffle_bytes", lineno)?,
            reduce_output_bytes: parse_u64(fields[5], "reduce_output_bytes", lineno)?,
        });
    }
    Ok(rows)
}

/// Serializes rows back to the SWIM TSV format, one line per row with a
/// trailing newline. Numbers use Rust's shortest-round-trip formatting,
/// so `parse_tsv(to_tsv(rows)) == rows` always, and a fixture written in
/// canonical form round-trips byte-for-byte.
pub fn to_tsv(rows: &[FbTraceRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&r.job);
        out.push('\t');
        out.push_str(&r.submit_secs.to_string());
        out.push('\t');
        out.push_str(&r.gap_secs.to_string());
        out.push('\t');
        out.push_str(&r.map_input_bytes.to_string());
        out.push('\t');
        out.push_str(&r.shuffle_bytes.to_string());
        out.push('\t');
        out.push_str(&r.reduce_output_bytes.to_string());
        out.push('\n');
    }
    out
}

/// Converts trace rows into scheduler-ready jobs:
///
/// * arrivals are re-based so the first job arrives at its gap from a
///   `t = 0` stream start (submission order is preserved; rows are
///   assumed sorted by `submit_secs`, as SWIM traces are);
/// * each job's task count is its map input in `block_bytes` blocks
///   (at least one task — SWIM samples contain zero-input jobs);
/// * priority is derived from the trace itself, deterministically:
///   small interactive-shaped jobs (≤ 8 blocks) get priority 1, large
///   batch jobs priority 0 — the two-class split capacity scheduling
///   expects.
pub fn trace_to_jobs(rows: &[FbTraceRow], block_bytes: u64) -> Vec<JobSpec> {
    let block = block_bytes.max(1);
    let base = rows.first().map_or(0.0, |r| r.submit_secs - r.gap_secs);
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            let tasks = (r.map_input_bytes.div_ceil(block)).max(1) as usize;
            JobSpec {
                id: i as u32,
                arrival: (r.submit_secs - base).max(0.0),
                tasks,
                priority: u8::from(tasks <= 8),
            }
        })
        .collect()
}

/// Moment-fits a synthetic workload configuration to a parsed trace:
/// Poisson arrivals at the trace's mean gap, and a bounded-Pareto size
/// law with the trace's block-count support and the Hill/MLE tail
/// estimate `n / Σ ln(xᵢ/x_min)` (clamped to a sane range so degenerate
/// samples cannot produce a nonsensical tail).
///
/// # Errors
///
/// [`WorkloadError::InvalidConfig`] when the trace is empty.
pub fn calibrate(rows: &[FbTraceRow], block_bytes: u64) -> Result<WorkloadConfig, WorkloadError> {
    if rows.is_empty() {
        return Err(WorkloadError::InvalidConfig {
            name: "rows",
            reason: "cannot calibrate to an empty trace".into(),
        });
    }
    let jobs = trace_to_jobs(rows, block_bytes);
    let n = jobs.len() as f64;
    let mean_gap = (rows.iter().map(|r| r.gap_secs).sum::<f64>() / n).max(1e-6);
    let min_tasks = jobs.iter().map(|j| j.tasks).min().unwrap_or(1);
    let max_tasks = jobs.iter().map(|j| j.tasks).max().unwrap_or(1);
    let log_sum: f64 = jobs
        .iter()
        .map(|j| (j.tasks as f64 / min_tasks as f64).ln())
        .sum();
    let alpha = if log_sum > 0.0 {
        (n / log_sum).clamp(0.3, 5.0)
    } else {
        1.25
    };
    Ok(WorkloadConfig {
        jobs: jobs.len(),
        arrival: ArrivalModel::Poisson { mean_gap },
        size: SizeModel::BoundedPareto {
            alpha,
            min_tasks,
            max_tasks: max_tasks.max(min_tasks),
        },
        priority_levels: 2,
    })
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    fn sample() -> &'static str {
        "job0\t12\t12\t67108864\t1048576\t524288\njob1\t30.5\t18.5\t0\t0\t0\n"
    }

    #[test]
    fn parses_the_swim_shape() {
        let rows = parse_tsv(sample()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].job, "job0");
        assert_eq!(rows[0].map_input_bytes, 67_108_864);
        assert_eq!(rows[1].submit_secs, 30.5);
    }

    #[test]
    fn round_trips_canonical_text() {
        let text = sample();
        let rows = parse_tsv(text).unwrap();
        assert_eq!(to_tsv(&rows), text);
        assert_eq!(parse_tsv(&to_tsv(&rows)).unwrap(), rows);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_tsv("job0\t1\t1\t10\t0\n").is_err()); // 5 fields
        assert!(parse_tsv("job0\tx\t1\t10\t0\t0\n").is_err()); // bad float
        assert!(parse_tsv("job0\t1\t1\t-2\t0\t0\n").is_err()); // bad u64
        let err = parse_tsv("job0\t1\t1\t1\t0\t0\nbad\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn jobs_derive_blocks_and_priorities() {
        let rows = parse_tsv(sample()).unwrap();
        let jobs = trace_to_jobs(&rows, 64 << 20);
        assert_eq!(jobs[0].tasks, 1); // exactly one 64 MB block
        assert_eq!(jobs[0].priority, 1); // small job -> interactive class
        assert_eq!(jobs[1].tasks, 1); // zero input still needs one task
        assert_eq!(jobs[0].arrival, 12.0);
        assert!(jobs[1].arrival > jobs[0].arrival);
    }

    #[test]
    fn calibration_matches_trace_moments() {
        let rows = parse_tsv(sample()).unwrap();
        let cfg = calibrate(&rows, 64 << 20).unwrap();
        assert_eq!(cfg.jobs, 2);
        assert_eq!(cfg.arrival.mean_gap(), (12.0 + 18.5) / 2.0);
        cfg.validate().unwrap();
        assert!(calibrate(&[], 64 << 20).is_err());
    }
}

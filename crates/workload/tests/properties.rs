//! Property gates on `adapt-workload` (the CI contract the multi-job
//! scenario surface rests on):
//!
//! 1. generation is a pure function of `(config, seed)`;
//! 2. empirical inter-arrival and size moments of a generated stream
//!    match the configured distributions within CI-safe bounds;
//! 3. the FB-2010 SWIM TSV parser round-trips the committed fixture
//!    byte-for-byte.

use adapt_workload::{
    calibrate, generate, parse_tsv, to_tsv, trace_to_jobs, ArrivalModel, SizeModel, WorkloadConfig,
};
use proptest::prelude::*;

const FIXTURE: &str = include_str!("../fixtures/fb2010-sample.tsv");

fn arrival_strategy() -> impl Strategy<Value = ArrivalModel> {
    // The vendored proptest shim has no `prop_oneof`; pick the variant
    // with a selector byte instead.
    (0u8..2, 1.0f64..120.0, 1.5f64..8.0, 1.0f64..12.0).prop_map(
        |(which, mean_gap, burst_factor, mean_burst_len)| {
            if which == 0 {
                ArrivalModel::Poisson { mean_gap }
            } else {
                ArrivalModel::Bursty {
                    mean_gap,
                    burst_factor,
                    mean_burst_len,
                }
            }
        },
    )
}

fn size_strategy() -> impl Strategy<Value = SizeModel> {
    (0u8..3, 0.8f64..3.0, 1usize..32, 0usize..300).prop_map(|(which, alpha, min_tasks, extra)| {
        match which {
            0 => SizeModel::Fixed { tasks: min_tasks },
            1 => SizeModel::Uniform {
                min_tasks,
                max_tasks: min_tasks + extra,
            },
            _ => SizeModel::BoundedPareto {
                alpha,
                min_tasks,
                max_tasks: min_tasks + extra,
            },
        }
    })
}

proptest! {
    /// Same `(config, seed)` in, same stream out — and nearby seeds
    /// differ (the generator actually consumes its seed).
    #[test]
    fn output_is_a_pure_function_of_the_seed(
        arrival in arrival_strategy(),
        size in size_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let cfg = WorkloadConfig { jobs: 40, arrival, size, priority_levels: 3 };
        let a = generate(&cfg, seed).unwrap();
        let b = generate(&cfg, seed).unwrap();
        prop_assert_eq!(&a, &b);
        let c = generate(&cfg, seed.wrapping_add(1)).unwrap();
        // Arrival times are continuous draws: a different seed must move
        // at least one of them.
        prop_assert!(a.iter().zip(&c).any(|(x, y)| x.arrival.to_bits() != y.arrival.to_bits()));
    }

    /// The empirical mean inter-arrival gap of a long stream stays
    /// within a CLT-style band of the configured mean (exponential gaps:
    /// std = mean, so 5 sigma over n draws is 5*mean/sqrt(n); bursty
    /// phases widen the variance, covered by the extra 2x slack).
    #[test]
    fn interarrival_moments_match_the_model(
        arrival in arrival_strategy(),
        seed in 0u64..10_000,
    ) {
        let n = 4_000usize;
        let cfg = WorkloadConfig {
            jobs: n,
            arrival,
            size: SizeModel::Fixed { tasks: 1 },
            priority_levels: 1,
        };
        let jobs = generate(&cfg, seed).unwrap();
        let mean_gap = jobs.last().unwrap().arrival / n as f64;
        let expected = arrival.mean_gap();
        let band = 10.0 * expected / (n as f64).sqrt();
        prop_assert!(
            (mean_gap - expected).abs() <= band,
            "empirical {} vs configured {} (band {})",
            mean_gap, expected, band
        );
    }

    /// The empirical mean task count stays within a CLT band of the
    /// analytic mean, allowing one task of downward truncation bias
    /// (sizes are floored to integers).
    #[test]
    fn size_moments_match_the_model(
        size in size_strategy(),
        seed in 0u64..10_000,
    ) {
        let n = 4_000usize;
        let cfg = WorkloadConfig {
            jobs: n,
            arrival: ArrivalModel::Poisson { mean_gap: 1.0 },
            size,
            priority_levels: 1,
        };
        let jobs = generate(&cfg, seed).unwrap();
        let mean = jobs.iter().map(|j| j.tasks as f64).sum::<f64>() / n as f64;
        let expected = size.mean_tasks();
        // Heavy tails have large variance; bound std by the support
        // width and take 8 sigma plus the truncation bias.
        let spread = match size {
            SizeModel::Fixed { .. } => 0.0,
            SizeModel::Uniform { min_tasks, max_tasks }
            | SizeModel::BoundedPareto { min_tasks, max_tasks, .. } => {
                (max_tasks - min_tasks) as f64
            }
        };
        let band = 1.0 + 8.0 * spread / (n as f64).sqrt();
        prop_assert!(
            (mean - expected).abs() <= band,
            "empirical {} vs analytic {} (band {})",
            mean, expected, band
        );
    }
}

#[test]
fn fixture_round_trips_byte_for_byte() {
    let rows = parse_tsv(FIXTURE).expect("committed fixture parses");
    assert_eq!(rows.len(), 32);
    assert_eq!(to_tsv(&rows), FIXTURE);
}

#[test]
fn fixture_is_internally_consistent() {
    let rows = parse_tsv(FIXTURE).expect("committed fixture parses");
    // submit times are the running sum of gaps, as in SWIM samples.
    let mut clock = 0.0;
    for r in &rows {
        clock += r.gap_secs;
        assert!((r.submit_secs - clock).abs() < 1e-9, "{}", r.job);
    }
    // The sample keeps the FB-2010 shape: small jobs dominate, with a
    // heavy tail of multi-thousand-block jobs.
    let jobs = trace_to_jobs(&rows, 64 << 20);
    let small = jobs.iter().filter(|j| j.tasks <= 8).count();
    let huge = jobs.iter().filter(|j| j.tasks >= 256).count();
    assert!(small * 2 >= jobs.len(), "small jobs must dominate");
    assert!(huge >= 2, "the tail must contain large jobs");
}

#[test]
fn fixture_calibration_produces_a_valid_config() {
    let rows = parse_tsv(FIXTURE).expect("committed fixture parses");
    let cfg = calibrate(&rows, 64 << 20).expect("calibration succeeds");
    cfg.validate().expect("calibrated config is valid");
    assert_eq!(cfg.jobs, rows.len());
    // Calibrated streams generate deterministically like any other.
    assert_eq!(generate(&cfg, 2012).unwrap(), generate(&cfg, 2012).unwrap());
}

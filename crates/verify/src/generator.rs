//! The seeded scenario fuzzer: a deterministic generator of random
//! clusters, placements, and failure regimes.
//!
//! [`generate`] is a pure function of the seed — the same seed always
//! yields the same [`Scenario`] — so a CI corpus is reproducible and any
//! failure can be replayed from its seed alone. The generator
//! deliberately oversamples the regimes where the engines are most
//! likely to disagree:
//!
//! * near-saturation interruption load (ρ = λμ up to 0.95) where the
//!   equation-(5) slowdown explodes and speculation churns;
//! * MTBI shorter than a single block's compute time γ, so every
//!   attempt races its host's next interruption;
//! * scheduled outages at t = 0 and whole-cluster blackout windows,
//!   which exercise the stranded-task and recovery bookkeeping.
//!
//! [`generate`] keeps clusters small (at most 12 nodes and 40 tasks), so
//! every set the engine keeps fits in one 64-id word. [`generate_wide`]
//! draws hundreds of tasks on dozens of nodes instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use adapt_availability::dist::uniform_open01;
use adapt_workload::JobSpec;

use crate::jobstream::JobStreamScenario;
use crate::scenario::{NodeKind, Scenario};

/// Interruption-to-recovery load factors ρ = λμ the generator draws
/// from, including the near-saturation regime.
const RHO_REGIMES: [f64; 5] = [0.2, 0.4, 0.8, 0.9, 0.95];

/// Mean-time-between-interruption choices, seconds. The 1-second entry
/// is shorter than every γ choice, forcing mid-compute interruptions.
const MTBI_REGIMES: [f64; 4] = [1.0, 10.0, 50.0, 200.0];

/// Failure-free per-block compute times, seconds.
const GAMMA_REGIMES: [f64; 3] = [2.0, 5.0, 12.0];

/// Link bandwidths, Mb/s (the paper sweeps 4–32).
const BANDWIDTH_REGIMES: [f64; 3] = [4.0, 8.0, 32.0];

/// Block sizes, bytes.
const BLOCK_REGIMES: [u64; 3] = [64 << 20, 16 << 20, 8 << 20];

/// Simulation horizons, seconds (bounded so a fuzz corpus has bounded
/// wall-clock even in unstable regimes).
const HORIZON_REGIMES: [f64; 3] = [1_000.0, 5_000.0, 20_000.0];

/// Core oversubscription ratios for multi-rack scenarios (datacenter
/// fabrics commonly run 2.5:1 to 5:1).
const OVERSUB_REGIMES: [f64; 4] = [1.0, 2.0, 2.5, 5.0];

fn pick(rng: &mut StdRng, n: u64) -> u64 {
    debug_assert!(n > 0);
    rng.next_u64() % n
}

fn chance(rng: &mut StdRng, num: u64, den: u64) -> bool {
    pick(rng, den) < num
}

fn choose_f64(rng: &mut StdRng, options: &[f64]) -> f64 {
    options[pick(rng, options.len() as u64) as usize]
}

/// Generates one node's outage windows inside `[cursor, horizon)`,
/// sorted and non-overlapping; `down_at_zero` forces the first window
/// to start at t = 0.
fn scheduled_windows(rng: &mut StdRng, horizon: f64, down_at_zero: bool) -> Vec<(f64, f64)> {
    let mut windows = Vec::new();
    let mut cursor = 0.0f64;
    if down_at_zero {
        let duration = uniform_open01(rng) * (horizon * 0.05);
        windows.push((0.0, duration));
        cursor = duration;
    }
    let extra = pick(rng, 4);
    for _ in 0..extra {
        let gap = uniform_open01(rng) * (horizon * 0.2);
        let start = cursor + gap;
        if start >= horizon {
            break;
        }
        // Occasionally a zero-length outage: down and up at the same
        // instant, a queue tie-break edge case worth hunting in.
        let duration = if chance(rng, 1, 8) {
            0.0
        } else {
            uniform_open01(rng) * (horizon * 0.05)
        };
        windows.push((start, duration));
        cursor = start + duration;
    }
    windows
}

/// Deterministically generates the scenario for `seed`.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_nodes = 1 + pick(&mut rng, 12) as usize;
    let n_tasks = 1 + pick(&mut rng, 40) as usize;
    let replication = (1 + pick(&mut rng, 3) as usize).min(n_nodes);
    let gamma = choose_f64(&mut rng, &GAMMA_REGIMES);
    let bandwidth_mbps = choose_f64(&mut rng, &BANDWIDTH_REGIMES);
    let block_bytes = BLOCK_REGIMES[pick(&mut rng, BLOCK_REGIMES.len() as u64) as usize];
    let horizon = choose_f64(&mut rng, &HORIZON_REGIMES);
    let speculation = chance(&mut rng, 3, 4);
    let max_copies = 1 + pick(&mut rng, 3) as usize;
    let max_source_streams = 1 + pick(&mut rng, 4) as usize;
    let availability_aware = chance(&mut rng, 1, 2);
    let detection_delay = if chance(&mut rng, 1, 4) { 5.0 } else { 0.0 };
    // The draw of a retired flag, kept so each seed's later draws stay put.
    chance(&mut rng, 1, 3);

    // With probability 1/8 every node shares one blackout window: the
    // whole cluster is down at once, so every task strands.
    let blackout = if chance(&mut rng, 1, 8) {
        let start = uniform_open01(&mut rng) * (horizon * 0.3);
        let duration = uniform_open01(&mut rng) * (horizon * 0.05);
        Some((start, duration))
    } else {
        None
    };

    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        if let Some(window) = blackout {
            nodes.push(NodeKind::Scheduled {
                outages: vec![window],
            });
            continue;
        }
        let kind = match pick(&mut rng, 3) {
            0 => NodeKind::Reliable,
            1 => {
                let mtbi = choose_f64(&mut rng, &MTBI_REGIMES);
                let rho = choose_f64(&mut rng, &RHO_REGIMES);
                NodeKind::Synthetic {
                    mtbi,
                    mean_recovery: rho * mtbi,
                }
            }
            _ => {
                let down_at_zero = chance(&mut rng, 1, 4);
                NodeKind::Scheduled {
                    outages: scheduled_windows(&mut rng, horizon, down_at_zero),
                }
            }
        };
        nodes.push(kind);
    }

    let mut placement = Vec::with_capacity(n_tasks);
    for _ in 0..n_tasks {
        let mut replicas: Vec<u32> = Vec::with_capacity(replication);
        while replicas.len() < replication {
            let candidate = pick(&mut rng, n_nodes as u64) as u32;
            if !replicas.contains(&candidate) {
                replicas.push(candidate);
            }
        }
        placement.push(replicas);
    }

    // Reduce/shuffle dimensions, drawn after every map-phase draw so a
    // given seed's map corpus (cluster, placement, schedules) is exactly
    // what it was before the reduce phase existed.
    let reducers = 1 + pick(&mut rng, 8) as usize;
    let reduce_gamma = choose_f64(&mut rng, &GAMMA_REGIMES);
    let shuffle_skew = if chance(&mut rng, 1, 3) {
        2 + pick(&mut rng, 7)
    } else {
        1
    };
    let racks = if chance(&mut rng, 1, 2) {
        2 + pick(&mut rng, 3) as u32
    } else {
        1
    };
    let oversubscription = if racks > 1 {
        choose_f64(&mut rng, &OVERSUB_REGIMES)
    } else {
        1.0
    };

    Scenario {
        seed,
        nodes,
        placement,
        bandwidth_mbps,
        block_bytes,
        gamma,
        speculation,
        max_copies,
        max_source_streams,
        availability_aware,
        detection_delay,
        horizon,
        reducers,
        reduce_gamma,
        shuffle_skew,
        racks,
        oversubscription,
        output_holders: 1,
    }
}

/// Deterministically generates a reduce-heavy scenario for `seed`: the
/// same cluster and placement as [`generate`], but with the shuffle as
/// the dominant phase — many reducers, heavy output skew, an
/// oversubscribed multi-rack fabric, and each map output on one to three
/// holders — so the reduce corpus concentrates on uplink contention,
/// cross-rack re-sourcing, blocking on several holders, and reducer-host
/// restarts rather than map mechanics.
pub fn generate_reduce_heavy(seed: u64) -> Scenario {
    let mut scenario = generate(seed);
    // An independent stream (fixed xor so it can never collide with the
    // map draw sequence) re-draws only the reduce dimensions.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5244_4845_4156_5921);
    scenario.reducers = 2 + pick(&mut rng, 14) as usize;
    scenario.reduce_gamma = choose_f64(&mut rng, &GAMMA_REGIMES);
    scenario.shuffle_skew = 2 + pick(&mut rng, 7);
    scenario.racks = 2 + pick(&mut rng, 3) as u32;
    scenario.oversubscription = choose_f64(&mut rng, &[2.0, 2.5, 5.0]);
    scenario.output_holders = 1 + pick(&mut rng, 3) as usize;
    scenario
}

/// Horizon of the wide reduce corpus, seconds. A reducer on a host whose
/// MTBI is shorter than one attempt restarts until the horizon, so the
/// horizon bounds the corpus's cost.
const WIDE_REDUCE_HORIZON: f64 = 300.0;

/// Deterministically generates a wide reduce scenario for `seed`: the
/// cluster of [`generate_wide`] (16–96 nodes, a few of them with a +∞
/// slowdown) under 32–160 reducers on 2–8 oversubscribed racks, with
/// each map output on one to three holders. Many reducers then share
/// each host, source and uplink, and they re-source, block on several
/// holders and restart at once. The map phase keeps only the first
/// 8–64 tasks and both phases stop at a 300-s horizon, so the
/// reference reduce engine's linear scans stay cheap. It draws from its
/// own RNG stream.
pub fn generate_wide_reduce(seed: u64) -> Scenario {
    let mut scenario = generate_wide(seed);
    // A fixed xor keeps this stream apart from the other corpora's.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5749_4445_5244_4345);
    scenario.horizon = WIDE_REDUCE_HORIZON;
    scenario.placement.truncate(8 + pick(&mut rng, 57) as usize);
    scenario.reducers = 32 + pick(&mut rng, 129) as usize;
    scenario.reduce_gamma = choose_f64(&mut rng, &GAMMA_REGIMES);
    scenario.shuffle_skew = 1 + pick(&mut rng, 8);
    scenario.racks = 2 + pick(&mut rng, 7) as u32;
    scenario.oversubscription = choose_f64(&mut rng, &[2.0, 2.5, 5.0]);
    scenario.output_holders = 1 + pick(&mut rng, 3) as usize;
    scenario
}

/// Generates one node's interruption behaviour, drawing from the same
/// adversarial regimes as [`generate`].
fn adversarial_node(rng: &mut StdRng, horizon: f64) -> NodeKind {
    match pick(rng, 3) {
        0 => NodeKind::Reliable,
        1 => {
            let mtbi = choose_f64(rng, &MTBI_REGIMES);
            let rho = choose_f64(rng, &RHO_REGIMES);
            NodeKind::Synthetic {
                mtbi,
                mean_recovery: rho * mtbi,
            }
        }
        _ => {
            let down_at_zero = chance(rng, 1, 4);
            NodeKind::Scheduled {
                outages: scheduled_windows(rng, horizon, down_at_zero),
            }
        }
    }
}

/// A scheduled host whose outage windows estimate ρ = λμ above 1, so the
/// engine prices it with an equation-(5) slowdown of +∞. (A synthetic
/// M/G/1 process at ρ ≥ 1 would never end its busy period.) Windows of
/// length `d` start `d + g` apart and the last lasts `2d + k·g`, so the
/// mean duration exceeds the mean spacing `d + g`.
fn unstable_node(rng: &mut StdRng, horizon: f64) -> NodeKind {
    let k = 2 + pick(rng, 3) as usize;
    let d = uniform_open01(rng) * (horizon * 0.02);
    let g = d * 0.1;
    let mut start = uniform_open01(rng) * (horizon * 0.2);
    let mut outages = Vec::with_capacity(k);
    for i in 0..k {
        let duration = if i + 1 == k {
            2.0 * d + k as f64 * g
        } else {
            d
        };
        outages.push((start, duration));
        start += duration + g;
    }
    NodeKind::Scheduled { outages }
}

/// Deterministically generates a wide scenario for `seed`: 65–700 tasks
/// on 16–96 nodes, so the engine's task and node sets span several
/// 64-id words, under the regimes that work speculation hardest —
/// speculation on, one or two outbound streams per source (sources
/// saturate and free up mid-run), one to three copies per task, and
/// about one host in eight scheduled so that its estimated ρ = λμ
/// exceeds 1, which the engine prices with a +∞ slowdown. It draws from
/// its own RNG stream, so [`generate`]'s corpus is unchanged.
pub fn generate_wide(seed: u64) -> Scenario {
    // A fixed xor keeps this stream apart from the other corpora's.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5749_4445_5749_4445);
    let n_nodes = 16 + pick(&mut rng, 81) as usize;
    let n_tasks = 65 + pick(&mut rng, 636) as usize;
    let replication = 1 + pick(&mut rng, 2) as usize;
    let gamma = choose_f64(&mut rng, &GAMMA_REGIMES);
    let bandwidth_mbps = choose_f64(&mut rng, &BANDWIDTH_REGIMES);
    let block_bytes = BLOCK_REGIMES[pick(&mut rng, BLOCK_REGIMES.len() as u64) as usize];
    let horizon = choose_f64(&mut rng, &HORIZON_REGIMES);
    let max_copies = 1 + pick(&mut rng, 3) as usize;
    let max_source_streams = 1 + pick(&mut rng, 2) as usize;
    let availability_aware = chance(&mut rng, 1, 2);
    let detection_delay = if chance(&mut rng, 1, 4) { 5.0 } else { 0.0 };
    // The draw of a retired flag, kept so each seed's later draws stay put.
    chance(&mut rng, 1, 3);
    let racks = if chance(&mut rng, 1, 2) {
        2 + pick(&mut rng, 3) as u32
    } else {
        1
    };
    let oversubscription = if racks > 1 {
        choose_f64(&mut rng, &OVERSUB_REGIMES)
    } else {
        1.0
    };
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(if chance(&mut rng, 1, 8) {
            unstable_node(&mut rng, horizon)
        } else {
            adversarial_node(&mut rng, horizon)
        });
    }
    let mut placement = Vec::with_capacity(n_tasks);
    for _ in 0..n_tasks {
        let mut replicas: Vec<u32> = Vec::with_capacity(replication);
        while replicas.len() < replication {
            let candidate = pick(&mut rng, n_nodes as u64) as u32;
            if !replicas.contains(&candidate) {
                replicas.push(candidate);
            }
        }
        placement.push(replicas);
    }
    Scenario {
        seed,
        nodes,
        placement,
        bandwidth_mbps,
        block_bytes,
        gamma,
        speculation: true,
        max_copies,
        max_source_streams,
        availability_aware,
        detection_delay,
        horizon,
        // Only the map oracle runs on this corpus.
        reducers: 1,
        reduce_gamma: gamma,
        shuffle_skew: 1,
        racks,
        oversubscription,
        output_holders: 1,
    }
}

/// Deterministically generates the multi-job scenario for `seed`: a
/// small mixed cluster and a short job stream with clustered arrivals
/// (several jobs often share an arrival instant — the admission-order
/// tie-break the trackers must agree on), skewed task counts, and
/// mixed priorities, checked under all three scheduling policies by
/// [`crate::jobstream::check_jobstream`].
pub fn generate_jobstream(seed: u64) -> JobStreamScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_nodes = 2 + pick(&mut rng, 8) as usize;
    let n_jobs = 2 + pick(&mut rng, 10) as usize;
    let gamma = choose_f64(&mut rng, &GAMMA_REGIMES);
    let bandwidth_mbps = choose_f64(&mut rng, &BANDWIDTH_REGIMES);
    let block_bytes = BLOCK_REGIMES[pick(&mut rng, BLOCK_REGIMES.len() as u64) as usize];
    // The smallest horizon keeps queued streams (every job's engine run
    // bounded) while still letting most jobs finish.
    let horizon = choose_f64(&mut rng, &HORIZON_REGIMES);
    let speculation = chance(&mut rng, 3, 4);
    let max_copies = 1 + pick(&mut rng, 3) as usize;
    let max_source_streams = 1 + pick(&mut rng, 4) as usize;
    let availability_aware = chance(&mut rng, 1, 2);
    let detection_delay = if chance(&mut rng, 1, 4) { 5.0 } else { 0.0 };
    // The draw of a retired flag, kept so each seed's later draws stay put.
    chance(&mut rng, 1, 3);
    let replication = (1 + pick(&mut rng, 2) as usize).min(n_nodes);
    // Often cap per-job allocations well below the cluster so several
    // jobs run concurrently.
    let max_nodes_per_job = if chance(&mut rng, 1, 2) {
        1 + pick(&mut rng, n_nodes as u64) as usize
    } else {
        n_nodes
    };
    let capacity_fraction = choose_f64(&mut rng, &[0.3, 0.5, 0.7]);

    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(adversarial_node(&mut rng, horizon));
    }

    let mut jobs = Vec::with_capacity(n_jobs);
    let mut clock = 0.0f64;
    for id in 0..n_jobs {
        // 1-in-3 jobs arrive at the same instant as their predecessor,
        // exercising the equal-time arrival tie-break.
        if id > 0 && !chance(&mut rng, 1, 3) {
            clock += uniform_open01(&mut rng) * gamma * 8.0;
        }
        // Skewed task counts: mostly small, occasionally cluster-sized.
        let tasks = if chance(&mut rng, 1, 4) {
            1 + pick(&mut rng, 4 * n_nodes as u64) as usize
        } else {
            1 + pick(&mut rng, 4) as usize
        };
        jobs.push(JobSpec {
            id: id as u32,
            arrival: clock,
            tasks,
            priority: pick(&mut rng, 3) as u8,
        });
    }

    JobStreamScenario {
        seed,
        nodes,
        jobs,
        replication,
        max_nodes_per_job,
        capacity_fraction,
        prod_priority_min: 1,
        bandwidth_mbps,
        block_bytes,
        gamma,
        speculation,
        max_copies,
        max_source_streams,
        availability_aware,
        detection_delay,
        horizon,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use adapt_dfs::NodeId;
    use adapt_sim::interrupt::InterruptionProcess;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..64 {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn jobstream_generation_is_deterministic_and_valid() {
        for seed in 0..64 {
            let a = generate_jobstream(seed);
            assert_eq!(a, generate_jobstream(seed));
            assert!(a.nodes.len() >= 2);
            assert!(a.jobs.len() >= 2);
            a.processes().expect("valid processes");
            a.sim_config().expect("valid config");
            let mut prev = 0.0f64;
            for (i, j) in a.jobs.iter().enumerate() {
                assert_eq!(j.id as usize, i);
                assert!(j.arrival >= prev);
                assert!(j.tasks >= 1);
                prev = j.arrival;
            }
            assert!(a.replication >= 1 && a.replication <= a.nodes.len());
            assert!(a.max_nodes_per_job >= 1);
        }
    }

    #[test]
    fn jobstream_corpus_covers_contention_and_ties() {
        let mut saw_tie = false;
        let mut saw_big_job = false;
        let mut saw_capped = false;
        for seed in 0..128 {
            let s = generate_jobstream(seed);
            for pair in s.jobs.windows(2) {
                if pair[0].arrival == pair[1].arrival {
                    saw_tie = true;
                }
            }
            if s.jobs.iter().any(|j| j.tasks > s.nodes.len()) {
                saw_big_job = true;
            }
            if s.max_nodes_per_job < s.nodes.len() {
                saw_capped = true;
            }
        }
        assert!(saw_tie, "corpus never generated equal-time arrivals");
        assert!(saw_big_job, "corpus never generated a cluster-sized job");
        assert!(saw_capped, "corpus never generated a per-job node cap");
    }

    #[test]
    fn generated_scenarios_are_valid() {
        for seed in 0..64 {
            let s = generate(seed);
            assert!(!s.nodes.is_empty());
            assert!(!s.placement.is_empty());
            s.processes().expect("valid processes");
            s.sim_config().expect("valid config");
            for replicas in &s.placement {
                assert!(!replicas.is_empty());
                for &r in replicas {
                    assert!((r as usize) < s.nodes.len());
                }
            }
        }
    }

    #[test]
    fn corpus_covers_the_reduce_regimes() {
        let mut saw_multi_reducer = false;
        let mut saw_skew = false;
        let mut saw_multi_rack = false;
        let mut saw_oversub = false;
        for seed in 0..128 {
            let s = generate(seed);
            assert!(s.reducers >= 1);
            assert!(s.shuffle_skew >= 1);
            assert!(s.racks >= 1);
            assert!(s.oversubscription >= 1.0);
            s.topology().expect("valid topology");
            saw_multi_reducer |= s.reducers > 1;
            saw_skew |= s.shuffle_skew > 1;
            saw_multi_rack |= s.racks > 1;
            saw_oversub |= s.oversubscription > 1.0;
        }
        assert!(saw_multi_reducer, "corpus never generated >1 reducer");
        assert!(saw_skew, "corpus never generated shuffle skew");
        assert!(saw_multi_rack, "corpus never generated a multi-rack fabric");
        assert!(saw_oversub, "corpus never generated oversubscription");
    }

    #[test]
    fn reduce_heavy_corpus_is_deterministic_and_shuffle_dominant() {
        for seed in 0..64 {
            let s = generate_reduce_heavy(seed);
            assert_eq!(s, generate_reduce_heavy(seed));
            assert!(s.reducers >= 2);
            assert!(s.shuffle_skew >= 2);
            assert!(s.racks >= 2);
            assert!(s.oversubscription >= 2.0);
            assert!((1..=3).contains(&s.output_holders));
            // The map side is untouched: same cluster and placement as
            // the plain corpus for the same seed.
            let base = generate(seed);
            assert_eq!(s.nodes, base.nodes);
            assert_eq!(s.placement, base.placement);
            assert_eq!(s.seed, base.seed);
            assert_eq!(base.output_holders, 1);
        }
    }

    #[test]
    fn wide_reduce_corpus_spans_reducers_racks_and_holders() {
        let mut holder_counts = [false; 3];
        for seed in 0..64 {
            let s = generate_wide_reduce(seed);
            assert_eq!(s, generate_wide_reduce(seed));
            let wide = generate_wide(seed);
            assert_eq!(s.nodes, wide.nodes);
            assert!((8..=64).contains(&s.placement.len()));
            assert!((32..=160).contains(&s.reducers));
            assert!((2..=8).contains(&s.racks));
            assert!(s.oversubscription >= 2.0);
            s.topology().expect("valid topology");
            holder_counts[s.output_holders - 1] = true;
            // Every holder list is distinct, ascending and in range, and
            // keeps the winner.
            let winners: Vec<Option<NodeId>> = s
                .placement
                .iter()
                .map(|replicas| Some(NodeId(replicas[0])))
                .collect();
            let (holders, bytes) = s.reduce_inputs(&winners);
            assert_eq!(holders.len(), bytes.len());
            for (hs, winner) in holders.iter().zip(&winners) {
                assert_eq!(hs.len(), s.output_holders.min(s.nodes.len()));
                assert!(hs.windows(2).all(|w| w[0] < w[1]));
                assert!(hs.iter().all(|h| (h.0 as usize) < s.nodes.len()));
                assert!(winner.is_some_and(|w| hs.contains(&w)));
            }
        }
        assert_eq!(holder_counts, [true; 3], "holder counts 1-3 not all drawn");
    }

    #[test]
    fn wide_corpus_spans_words_and_unstable_hosts() {
        let mut saw_unstable = false;
        let mut saw_saturating = false;
        let mut saw_single_copy = false;
        for seed in 0..64 {
            let s = generate_wide(seed);
            assert_eq!(s, generate_wide(seed));
            assert!((65..=700).contains(&s.placement.len()));
            assert!((16..=96).contains(&s.nodes.len()));
            assert!(s.speculation);
            assert!((1..=2).contains(&s.max_source_streams));
            assert!((1..=3).contains(&s.max_copies));
            s.sim_config().expect("valid config");
            s.topology().expect("valid topology");
            for replicas in &s.placement {
                assert!((1..=2).contains(&replicas.len()));
                assert!(replicas.iter().all(|&r| (r as usize) < s.nodes.len()));
            }
            let processes = s.processes().expect("valid processes");
            saw_unstable |= processes
                .iter()
                .filter_map(InterruptionProcess::mean_params)
                .any(|(lambda, mu)| lambda * mu >= 1.0);
            saw_saturating |= s.max_source_streams == 1;
            saw_single_copy |= s.max_copies == 1;
        }
        assert!(saw_unstable, "wide corpus never generated a rho >= 1 host");
        assert!(
            saw_saturating,
            "wide corpus never capped sources at 1 stream"
        );
        assert!(saw_single_copy, "wide corpus never capped copies at 1");
    }

    #[test]
    fn corpus_covers_the_adversarial_regimes() {
        let mut saw_blackout = false;
        let mut saw_down_at_zero = false;
        let mut saw_short_mtbi = false;
        let mut saw_near_saturation = false;
        for seed in 0..256 {
            let s = generate(seed);
            let mut scheduled_total = 0usize;
            let mut scheduled_at_zero = 0usize;
            for kind in &s.nodes {
                match kind {
                    NodeKind::Scheduled { outages } => {
                        scheduled_total += 1;
                        if outages.first().is_some_and(|&(start, _)| start == 0.0) {
                            scheduled_at_zero += 1;
                        }
                    }
                    NodeKind::Synthetic {
                        mtbi,
                        mean_recovery,
                    } => {
                        if *mtbi < s.gamma {
                            saw_short_mtbi = true;
                        }
                        if mean_recovery / mtbi >= 0.9 {
                            saw_near_saturation = true;
                        }
                    }
                    NodeKind::Reliable => {}
                }
            }
            if scheduled_total == s.nodes.len() && scheduled_total > 1 {
                saw_blackout = true;
            }
            if scheduled_at_zero > 0 {
                saw_down_at_zero = true;
            }
        }
        assert!(saw_blackout, "corpus never generated a blackout window");
        assert!(saw_down_at_zero, "corpus never generated a t=0 outage");
        assert!(saw_short_mtbi, "corpus never generated MTBI < gamma");
        assert!(
            saw_near_saturation,
            "corpus never generated a near-saturation node"
        );
    }
}

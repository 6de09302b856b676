//! A first-order shuffle/reduce-phase model — the paper's future work.
//!
//! ADAPT "deals with the input data distribution and directly optimizes
//! the performance of the map phase … we leave the reduce phase
//! optimization for future work" (Section IV-C). This module implements
//! the natural first step of that future work: given where each map
//! task's output landed (the winners of [`run_detailed`]), estimate the
//! shuffle and reduce cost under the same per-flow bandwidth model, and
//! expose the placement lever the paper anticipates — reducers placed on
//! the most reliable hosts.
//!
//! The model is deliberately first-order (no interruptions during the
//! shuffle): every map output of `output_size` bytes is partitioned
//! evenly across `r` reducers; reducer `j` must download `total/r` bytes,
//! and map-output host `i` must upload everything it produced. With
//! per-flow shaping the phase cannot finish before either the most-loaded
//! uplink or the most-loaded downlink drains, plus the reduce compute:
//!
//! ```text
//! elapsed ≥ max( max_i upload_i / bw,  max_j download_j / bw ) + reduce_gamma
//! ```
//!
//! Local map output (a reducer co-located with the map output's host)
//! skips the network, which is what reducer placement can optimize.
//!
//! On a rack topology ([`estimate_shuffle_topo`]) the same model holds,
//! except that a slice crossing a rack boundary drains through the
//! source rack's oversubscribed uplink: the binding-uplink time charges
//! cross-rack megabytes at the oversubscription ratio. The flat
//! topology ([`adapt_net::Topology::flat`]) moves no cross-rack bytes,
//! so [`estimate_shuffle`] — which delegates to it — is bit-identical
//! to the historical flat-network estimate.
//!
//! [`run_detailed`]: crate::engine::MapPhaseSim::run_detailed

use serde::{Deserialize, Serialize};

use adapt_dfs::{BlockSize, NodeId};
use adapt_net::Topology;

use crate::telemetry::ShuffleTelemetry;
use crate::SimError;

/// Bytes in one megabyte, as used by [`BlockSize::as_mb`].
const BYTES_PER_MB: f64 = 1_048_576.0;

/// Converts a non-negative megabyte volume to whole bytes.
fn mb_to_bytes(mb: f64) -> u64 {
    if mb.is_finite() && mb > 0.0 {
        (mb * BYTES_PER_MB).round() as u64
    } else {
        0
    }
}

/// Shuffle/reduce-phase parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShuffleConfig {
    /// Number of reduce tasks.
    pub reducers: usize,
    /// Intermediate output produced per map task.
    pub output_size: BlockSize,
    /// Per-node link bandwidth in Mb/s (same model as the map phase).
    pub bandwidth_mbps: f64,
    /// Failure-free compute time of one reduce task, seconds.
    pub reduce_gamma: f64,
}

impl ShuffleConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero reducer count or
    /// non-positive bandwidth/γ.
    pub fn new(
        reducers: usize,
        output_size: BlockSize,
        bandwidth_mbps: f64,
        reduce_gamma: f64,
    ) -> Result<Self, SimError> {
        if reducers == 0 {
            return Err(SimError::InvalidConfig {
                name: "reducers",
                reason: "at least one reducer required".into(),
            });
        }
        if !(bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "bandwidth_mbps",
                reason: format!("{bandwidth_mbps} must be finite and > 0"),
            });
        }
        if !(reduce_gamma.is_finite() && reduce_gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "reduce_gamma",
                reason: format!("{reduce_gamma} must be finite and > 0"),
            });
        }
        Ok(ShuffleConfig {
            reducers,
            output_size,
            bandwidth_mbps,
            reduce_gamma,
        })
    }
}

/// Estimated shuffle/reduce-phase outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShuffleReport {
    /// Lower-bound elapsed time of shuffle plus reduce (seconds).
    pub elapsed: f64,
    /// Megabytes that crossed the network.
    pub network_mb: f64,
    /// Of the network megabytes, how many crossed a rack boundary
    /// (always zero under the flat topology).
    #[serde(default)]
    pub cross_rack_mb: f64,
    /// Megabytes served locally (reducer co-located with the output).
    pub local_mb: f64,
    /// The binding uplink's total upload (MB).
    pub max_upload_mb: f64,
    /// The binding downlink's total download (MB).
    pub max_download_mb: f64,
    /// Reducer placement used, one node per reducer.
    pub reducer_nodes: Vec<NodeId>,
}

impl ShuffleReport {
    /// Fraction of shuffle bytes that stayed local, in `[0, 1]`.
    pub fn shuffle_locality(&self) -> f64 {
        let total = self.network_mb + self.local_mb;
        if total == 0.0 {
            0.0
        } else {
            self.local_mb / total
        }
    }
}

/// Shared estimate body; also yields the largest per-reducer cross-rack
/// download, which the instrumented wrapper records as the cross-rack
/// skew high-water mark.
fn estimate_impl(
    winners: &[Option<NodeId>],
    nodes: usize,
    reducer_nodes: &[NodeId],
    config: &ShuffleConfig,
    topology: &Topology,
) -> Result<(ShuffleReport, f64), SimError> {
    if reducer_nodes.len() != config.reducers {
        return Err(SimError::InvalidConfig {
            name: "reducer_nodes",
            reason: format!(
                "{} reducer nodes for {} reducers",
                reducer_nodes.len(),
                config.reducers
            ),
        });
    }
    if let Some(bad) = reducer_nodes.iter().find(|r| r.0 as usize >= nodes) {
        return Err(SimError::InvalidConfig {
            name: "reducer_nodes",
            reason: format!("{bad} outside cluster of {nodes} nodes"),
        });
    }

    let out_mb = config.output_size.as_mb();
    let slice_mb = out_mb / config.reducers as f64;

    // Volume bookkeeping: uploads keyed by map-output host, downloads by
    // reducer slot, with the cross-rack portion of each held separately
    // (always zero on a flat topology, preserving the historical sums
    // bit-for-bit — the accumulation order of the total buckets never
    // depends on the topology).
    let mut upload_mb = vec![0.0f64; nodes];
    let mut upload_cross_mb = vec![0.0f64; nodes];
    let mut download_mb = vec![0.0f64; config.reducers];
    let mut download_cross_mb = vec![0.0f64; config.reducers];
    let mut network_mb = 0.0;
    let mut cross_rack_mb = 0.0;
    let mut local_mb = 0.0;

    for winner in winners.iter().flatten() {
        for (slot, &reducer) in reducer_nodes.iter().enumerate() {
            if reducer == *winner {
                local_mb += slice_mb;
            } else {
                upload_mb[winner.0 as usize] += slice_mb;
                download_mb[slot] += slice_mb;
                network_mb += slice_mb;
                if !topology.same_rack(winner.0, reducer.0) {
                    upload_cross_mb[winner.0 as usize] += slice_mb;
                    download_cross_mb[slot] += slice_mb;
                    cross_rack_mb += slice_mb;
                }
            }
        }
    }

    // The binding uplink charges its cross-rack megabytes at the
    // oversubscription ratio: cost_i = upload_i + cross_i·(ratio − 1).
    // On a flat topology cross_i is 0.0, so cost_i is upload_i exactly
    // (x + 0.0·r == x for every finite non-negative x).
    let ratio_extra = topology.oversubscription() - 1.0;
    let max_upload_mb = upload_mb.iter().copied().fold(0.0, f64::max);
    let max_upload_cost_mb = upload_mb
        .iter()
        .zip(upload_cross_mb.iter())
        .map(|(&up, &cross)| up + cross * ratio_extra)
        .fold(0.0, f64::max);
    let max_download_mb = download_mb.iter().copied().fold(0.0, f64::max);
    let max_download_cross_mb = download_cross_mb.iter().copied().fold(0.0, f64::max);
    let binding_mb = max_upload_cost_mb.max(max_download_mb);
    let elapsed = binding_mb * 8.0 / config.bandwidth_mbps + config.reduce_gamma;

    Ok((
        ShuffleReport {
            elapsed,
            network_mb,
            cross_rack_mb,
            local_mb,
            max_upload_mb,
            max_download_mb,
            reducer_nodes: reducer_nodes.to_vec(),
        },
        max_download_cross_mb,
    ))
}

/// Estimates the shuffle/reduce phase for map outputs located at
/// `winners` (one entry per map task; `None` entries — tasks unfinished
/// at the map horizon — are skipped) on a cluster of `nodes` nodes, with
/// reducers placed on `reducer_nodes`, over a flat network.
///
/// Exactly [`estimate_shuffle_topo`] with [`Topology::flat`]; the two
/// produce bit-identical reports on a flat network.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if `reducer_nodes` length differs
/// from `config.reducers`, is empty, or references a node `>= nodes`.
pub fn estimate_shuffle(
    winners: &[Option<NodeId>],
    nodes: usize,
    reducer_nodes: &[NodeId],
    config: &ShuffleConfig,
) -> Result<ShuffleReport, SimError> {
    estimate_shuffle_topo(winners, nodes, reducer_nodes, config, &Topology::flat())
}

/// [`estimate_shuffle`] over a rack topology: a slice whose map-output
/// host and reducer sit in different racks drains through the source
/// rack's oversubscribed uplink, so the binding-uplink time charges its
/// cross-rack megabytes at the oversubscription ratio. The report's
/// `cross_rack_mb` carries the separated cross-rack volume.
///
/// # Errors
///
/// Exactly those of [`estimate_shuffle`].
pub fn estimate_shuffle_topo(
    winners: &[Option<NodeId>],
    nodes: usize,
    reducer_nodes: &[NodeId],
    config: &ShuffleConfig,
    topology: &Topology,
) -> Result<ShuffleReport, SimError> {
    estimate_impl(winners, nodes, reducer_nodes, config, topology).map(|(report, _)| report)
}

/// [`estimate_shuffle`] plus instrumentation: records the run's byte
/// volumes into `telemetry` (shuffle count, network/local bytes, the
/// per-reducer skew high-water mark, and the per-run network-bytes
/// histogram). The report is identical to the uninstrumented call.
///
/// # Errors
///
/// Exactly those of [`estimate_shuffle`]; failed runs record nothing.
pub fn estimate_shuffle_instrumented(
    winners: &[Option<NodeId>],
    nodes: usize,
    reducer_nodes: &[NodeId],
    config: &ShuffleConfig,
    telemetry: &ShuffleTelemetry,
) -> Result<ShuffleReport, SimError> {
    estimate_shuffle_topo_instrumented(
        winners,
        nodes,
        reducer_nodes,
        config,
        &Topology::flat(),
        telemetry,
    )
}

/// [`estimate_shuffle_topo`] plus instrumentation. On top of the flat
/// instruments, runs that moved cross-rack bytes record the separated
/// cross-rack volume, the per-reducer cross-rack skew high-water mark,
/// and the per-run cross-rack histogram; flat runs leave those
/// instruments untouched, so their telemetry JSON keeps the exact
/// pre-topology shape.
///
/// # Errors
///
/// Exactly those of [`estimate_shuffle`]; failed runs record nothing.
pub fn estimate_shuffle_topo_instrumented(
    winners: &[Option<NodeId>],
    nodes: usize,
    reducer_nodes: &[NodeId],
    config: &ShuffleConfig,
    topology: &Topology,
    telemetry: &ShuffleTelemetry,
) -> Result<ShuffleReport, SimError> {
    let (report, max_download_cross_mb) =
        estimate_impl(winners, nodes, reducer_nodes, config, topology)?;
    telemetry.runs.incr();
    let network = mb_to_bytes(report.network_mb);
    telemetry.network_bytes.add(network);
    telemetry.local_bytes.add(mb_to_bytes(report.local_mb));
    telemetry
        .reducer_bytes_hwm
        .record(mb_to_bytes(report.max_download_mb));
    telemetry.run_network_bytes.record(network);
    let cross = mb_to_bytes(report.cross_rack_mb);
    if cross > 0 {
        telemetry.cross_rack_bytes.add(cross);
        telemetry
            .reducer_cross_rack_hwm
            .record(mb_to_bytes(max_download_cross_mb));
        telemetry.run_cross_rack_bytes.record(cross);
    }
    Ok(report)
}

/// Picks reducer hosts by ascending equation-(5) slowdown — the
/// availability-aware reducer placement the paper's future work points
/// at. `slowdown[i]` is node `i`'s `E[T]/γ` (1.0 for reliable hosts);
/// ties break toward lower node ids for determinism.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if fewer nodes exist than
/// reducers.
pub fn reliable_reducer_placement(
    slowdown: &[f64],
    reducers: usize,
) -> Result<Vec<NodeId>, SimError> {
    if reducers > slowdown.len() {
        return Err(SimError::InvalidConfig {
            name: "reducers",
            reason: format!("{} reducers on {} nodes", reducers, slowdown.len()),
        });
    }
    let mut order: Vec<usize> = (0..slowdown.len()).collect();
    order.sort_by(|&a, &b| slowdown[a].total_cmp(&slowdown[b]).then(a.cmp(&b)));
    Ok(order[..reducers]
        .iter()
        .map(|&i| NodeId(i as u32))
        .collect())
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    fn cfg(reducers: usize, bw: f64) -> ShuffleConfig {
        ShuffleConfig::new(reducers, BlockSize::from_mb(8), bw, 10.0).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ShuffleConfig::new(0, BlockSize::from_mb(8), 8.0, 10.0).is_err());
        assert!(ShuffleConfig::new(2, BlockSize::from_mb(8), 0.0, 10.0).is_err());
        assert!(ShuffleConfig::new(2, BlockSize::from_mb(8), 8.0, 0.0).is_err());
    }

    #[test]
    fn single_node_job_is_fully_local() {
        // All outputs and the single reducer on node 0.
        let winners = vec![Some(NodeId(0)); 4];
        let report = estimate_shuffle(&winners, 1, &[NodeId(0)], &cfg(1, 8.0)).unwrap();
        assert_eq!(report.network_mb, 0.0);
        assert_eq!(report.local_mb, 32.0);
        assert_eq!(report.shuffle_locality(), 1.0);
        // No network: elapsed is pure reduce compute.
        assert!((report.elapsed - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cross_node_shuffle_pays_the_binding_link() {
        // 4 outputs on node 0, reducer on node 1: node 0 uploads all
        // 4 × 8 MB; at 8 Mb/s that is 32 s, plus 10 s reduce.
        let winners = vec![Some(NodeId(0)); 4];
        let report = estimate_shuffle(&winners, 2, &[NodeId(1)], &cfg(1, 8.0)).unwrap();
        assert_eq!(report.network_mb, 32.0);
        assert_eq!(report.max_upload_mb, 32.0);
        assert_eq!(report.max_download_mb, 32.0);
        assert!((report.elapsed - 42.0).abs() < 1e-9);
        assert_eq!(report.shuffle_locality(), 0.0);
    }

    #[test]
    fn outputs_split_evenly_across_reducers() {
        // One output on node 0; two reducers on nodes 0 and 1: half the
        // output stays local, half crosses.
        let winners = vec![Some(NodeId(0))];
        let report = estimate_shuffle(&winners, 2, &[NodeId(0), NodeId(1)], &cfg(2, 8.0)).unwrap();
        assert!((report.local_mb - 4.0).abs() < 1e-9);
        assert!((report.network_mb - 4.0).abs() < 1e-9);
        assert!((report.shuffle_locality() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unfinished_tasks_are_skipped() {
        let winners = vec![Some(NodeId(0)), None, Some(NodeId(1))];
        let report = estimate_shuffle(&winners, 2, &[NodeId(0)], &cfg(1, 8.0)).unwrap();
        // Only two outputs counted: one local (node 0), one remote.
        assert!((report.local_mb - 8.0).abs() < 1e-9);
        assert!((report.network_mb - 8.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_reducer_sets() {
        let winners = vec![Some(NodeId(0))];
        assert!(estimate_shuffle(&winners, 2, &[], &cfg(1, 8.0)).is_err());
        assert!(estimate_shuffle(&winners, 2, &[NodeId(5)], &cfg(1, 8.0)).is_err());
        assert!(
            estimate_shuffle(&winners, 2, &[NodeId(0), NodeId(1)], &cfg(1, 8.0)).is_err(),
            "length mismatch"
        );
    }

    #[test]
    fn reliable_placement_picks_lowest_slowdown_hosts() {
        let slowdown = [3.0, 1.0, 1.0, 2.0];
        let picks = reliable_reducer_placement(&slowdown, 2).unwrap();
        assert_eq!(picks, vec![NodeId(1), NodeId(2)]);
        assert!(reliable_reducer_placement(&slowdown, 5).is_err());
    }

    #[test]
    fn instrumented_estimate_matches_plain_and_records_bytes() {
        let winners = vec![Some(NodeId(0)), None, Some(NodeId(1))];
        let reducers = [NodeId(0)];
        let telemetry = ShuffleTelemetry::default();
        let plain = estimate_shuffle(&winners, 2, &reducers, &cfg(1, 8.0)).unwrap();
        let instrumented =
            estimate_shuffle_instrumented(&winners, 2, &reducers, &cfg(1, 8.0), &telemetry)
                .unwrap();
        assert_eq!(instrumented, plain);
        let snap = telemetry.snapshot();
        assert_eq!(snap.runs, 1);
        // 8 MB crossed the network, 8 MB stayed local.
        assert_eq!(snap.network_bytes, 8 * 1_048_576);
        assert_eq!(snap.local_bytes, 8 * 1_048_576);
        assert_eq!(snap.reducer_bytes_hwm, 8 * 1_048_576);
        assert_eq!(snap.run_network_bytes.count, 1);
        // A failed estimate records nothing.
        assert!(estimate_shuffle_instrumented(&winners, 2, &[], &cfg(1, 8.0), &telemetry).is_err());
        assert_eq!(telemetry.snapshot().runs, 1);
    }

    #[test]
    fn flat_topology_reproduces_the_flat_estimate_bitwise() {
        let winners = vec![Some(NodeId(0)), Some(NodeId(1)), None, Some(NodeId(0))];
        let reducers = [NodeId(0), NodeId(1)];
        let config = cfg(2, 8.0);
        let flat = estimate_shuffle(&winners, 3, &reducers, &config).unwrap();
        let topo =
            estimate_shuffle_topo(&winners, 3, &reducers, &config, &Topology::flat()).unwrap();
        assert_eq!(flat, topo);
        assert_eq!(flat.elapsed.to_bits(), topo.elapsed.to_bits());
        assert_eq!(flat.cross_rack_mb, 0.0);
        // Many racks but a non-blocking core also changes nothing about
        // elapsed: cross-rack volume is separated, the charge is ×1.
        let wide = estimate_shuffle_topo(
            &winners,
            3,
            &reducers,
            &config,
            &Topology::new(3, 1.0).unwrap(),
        )
        .unwrap();
        assert_eq!(wide.elapsed.to_bits(), flat.elapsed.to_bits());
        assert!(wide.cross_rack_mb > 0.0);
    }

    #[test]
    fn cross_rack_uplink_charges_oversubscription() {
        // 4 outputs on node 0 (rack 0), reducer on node 1 (rack 1) of a
        // 2-rack, 2:1 fabric: all 32 MB cross, so the binding uplink
        // costs 64 MB-equivalent → 64 s at 8 Mb/s, plus 10 s reduce.
        let winners = vec![Some(NodeId(0)); 4];
        let topo = Topology::new(2, 2.0).unwrap();
        let report = estimate_shuffle_topo(&winners, 2, &[NodeId(1)], &cfg(1, 8.0), &topo).unwrap();
        assert_eq!(report.network_mb, 32.0);
        assert_eq!(report.cross_rack_mb, 32.0);
        assert_eq!(report.max_upload_mb, 32.0);
        assert!((report.elapsed - 74.0).abs() < 1e-9);
        // The same transfer inside one rack pays the flat price: nodes 0
        // and 2 share rack 0.
        let same_rack =
            estimate_shuffle_topo(&winners, 3, &[NodeId(2)], &cfg(1, 8.0), &topo).unwrap();
        assert_eq!(same_rack.cross_rack_mb, 0.0);
        assert!((same_rack.elapsed - 42.0).abs() < 1e-9);
    }

    #[test]
    fn instrumented_topo_counts_cross_rack_bytes_separately() {
        // Outputs on nodes 0 and 1 (racks 0 and 1), reducers on nodes 0
        // and 1: each output sends half locally and half across racks.
        let winners = vec![Some(NodeId(0)), Some(NodeId(1))];
        let topo = Topology::new(2, 3.0).unwrap();
        let telemetry = ShuffleTelemetry::default();
        let report = estimate_shuffle_topo_instrumented(
            &winners,
            2,
            &[NodeId(0), NodeId(1)],
            &cfg(2, 8.0),
            &topo,
            &telemetry,
        )
        .unwrap();
        assert!((report.cross_rack_mb - 8.0).abs() < 1e-9);
        let snap = telemetry.snapshot();
        assert_eq!(snap.network_bytes, 8 * 1_048_576);
        assert_eq!(snap.cross_rack_bytes, 8 * 1_048_576);
        // Each reducer downloads exactly one 4 MB cross-rack slice.
        assert_eq!(snap.reducer_cross_rack_hwm, 4 * 1_048_576);
        assert_eq!(snap.run_cross_rack_bytes.count, 1);
        // A flat run on the same telemetry touches no cross instrument.
        estimate_shuffle_topo_instrumented(
            &winners,
            2,
            &[NodeId(0), NodeId(1)],
            &cfg(2, 8.0),
            &Topology::flat(),
            &telemetry,
        )
        .unwrap();
        let after = telemetry.snapshot();
        assert_eq!(after.runs, 2);
        assert_eq!(after.cross_rack_bytes, 8 * 1_048_576);
        assert_eq!(after.run_cross_rack_bytes.count, 1);
    }

    #[test]
    fn reliable_reducers_beat_volatile_reducers_on_locality() {
        // Outputs concentrated on reliable nodes 0 and 1 (as ADAPT
        // placement produces); reducers on those hosts keep data local.
        let winners: Vec<Option<NodeId>> = (0..10).map(|i| Some(NodeId(i % 2))).collect();
        let good = estimate_shuffle(
            &winners,
            4,
            &reliable_reducer_placement(&[1.0, 1.0, 5.0, 5.0], 2).unwrap(),
            &cfg(2, 8.0),
        )
        .unwrap();
        let bad = estimate_shuffle(&winners, 4, &[NodeId(2), NodeId(3)], &cfg(2, 8.0)).unwrap();
        assert!(good.shuffle_locality() > bad.shuffle_locality());
        assert!(good.elapsed < bad.elapsed);
    }
}

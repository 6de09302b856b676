//! The differential oracle: run both engines on one scenario and
//! explain the first difference, if any.
//!
//! Two oracles live here. [`check_scenario`] covers the map phase:
//! optimized [`adapt_sim::MapPhaseSim`] vs the naive
//! [`crate::reference::ReferenceSim`], full [`DetailedReport`] and trace
//! equality. [`check_reduce_scenario`] covers the reduce phase: the map
//! winners feed [`adapt_sim::ReducePhaseSim`] against
//! [`crate::reference_reduce::ReferenceReduce`] under each of the three
//! task-placement strategies (naive, ADAPT, rack-aware), again with
//! exact report *and* trace equality.

use adapt_dfs::NodeId;
use adapt_sim::engine::DetailedReport;
use adapt_sim::{
    AdaptStrategy, NaiveStrategy, PlacementStrategy, RackAwareStrategy, ReduceDetailed,
};
use adapt_telemetry::Value;

use crate::scenario::Scenario;
use crate::VerifyError;

/// A difference between the optimized and reference engines on one
/// scenario — the oracle's falsification evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Which part of the [`DetailedReport`] differed first.
    pub field: &'static str,
    /// Human-readable description of the difference.
    pub details: String,
}

impl Divergence {
    /// Serializes the divergence as a JSON object with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("details", self.details.as_str());
        v.insert("field", self.field);
        v
    }
}

/// Compares two detailed reports field group by field group, returning
/// the first difference. `None` means byte-equal behaviour.
pub fn compare_reports(
    optimized: &DetailedReport,
    reference: &DetailedReport,
) -> Option<Divergence> {
    if optimized.report != reference.report {
        return Some(Divergence {
            field: "report",
            details: format!(
                "optimized {:?} != reference {:?}",
                optimized.report, reference.report
            ),
        });
    }
    if optimized.node_stats != reference.node_stats {
        let first = optimized
            .node_stats
            .iter()
            .zip(reference.node_stats.iter())
            .position(|(a, b)| a != b);
        return Some(Divergence {
            field: "node_stats",
            details: match first {
                Some(i) => format!(
                    "node {i}: optimized {:?} != reference {:?}",
                    optimized.node_stats[i], reference.node_stats[i]
                ),
                None => format!(
                    "length {} != {}",
                    optimized.node_stats.len(),
                    reference.node_stats.len()
                ),
            },
        });
    }
    if optimized.winners != reference.winners {
        return Some(Divergence {
            field: "winners",
            details: format!(
                "optimized {:?} != reference {:?}",
                optimized.winners, reference.winners
            ),
        });
    }
    if optimized.telemetry != reference.telemetry {
        return Some(Divergence {
            field: "telemetry",
            details: format!(
                "optimized {:?} != reference {:?}",
                optimized.telemetry, reference.telemetry
            ),
        });
    }
    match (&optimized.trace, &reference.trace) {
        (Some(a), Some(b)) if a != b => {
            let (ae, be) = (&a.events, &b.events);
            let first = ae.iter().zip(be.iter()).position(|(x, y)| x != y);
            return Some(Divergence {
                field: "trace",
                details: match first {
                    Some(i) => format!("event {i}: optimized {:?} != reference {:?}", ae[i], be[i]),
                    None => format!("event count {} != {}", ae.len(), be.len()),
                },
            });
        }
        (Some(_), None) | (None, Some(_)) => {
            return Some(Divergence {
                field: "trace",
                details: "one engine produced a trace and the other did not".into(),
            });
        }
        _ => {}
    }
    None
}

/// Runs both engines on `scenario` (traced) and compares everything:
/// the aggregate report, per-node stats, winners, telemetry, and the
/// full event trace. Also cross-checks the engine's
/// zero-overhead-tracing contract (traced and untraced optimized runs
/// must report identical metrics).
///
/// # Errors
///
/// [`VerifyError`] if either engine rejects the scenario — a rejection
/// mismatch (one engine accepts what the other rejects) is itself
/// reported as a divergence, not an error.
pub fn check_scenario(scenario: &Scenario) -> Result<Option<Divergence>, VerifyError> {
    let optimized = scenario.run_optimized(true);
    let reference = scenario.run_reference(true);
    let (optimized, reference) = match (optimized, reference) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) => {
            return if a == b {
                Err(a)
            } else {
                Ok(Some(Divergence {
                    field: "error",
                    details: format!("optimized error {a} != reference error {b}"),
                }))
            };
        }
        (Ok(_), Err(e)) => {
            return Ok(Some(Divergence {
                field: "error",
                details: format!("reference rejected what the optimized engine ran: {e}"),
            }));
        }
        (Err(e), Ok(_)) => {
            return Ok(Some(Divergence {
                field: "error",
                details: format!("optimized rejected what the reference engine ran: {e}"),
            }));
        }
    };
    if let Some(d) = compare_reports(&optimized, &reference) {
        return Ok(Some(d));
    }
    // Tracing must not perturb behaviour: re-run the optimized engine
    // untraced and require identical metrics.
    let untraced = scenario.run_optimized(false)?;
    if untraced.report != optimized.report
        || untraced.node_stats != optimized.node_stats
        || untraced.winners != optimized.winners
        || untraced.telemetry != optimized.telemetry
    {
        return Ok(Some(Divergence {
            field: "trace_overhead",
            details: "optimized engine behaves differently with tracing enabled".into(),
        }));
    }
    Ok(None)
}

/// Compares the two reduce engines' outputs for one strategy, exact
/// equality on the report and the full trace.
fn compare_reduce(
    policy: &'static str,
    optimized: &ReduceDetailed,
    reference: &ReduceDetailed,
) -> Option<Divergence> {
    if optimized.report != reference.report {
        return Some(Divergence {
            field: "reduce_report",
            details: format!(
                "policy {policy}: optimized {:?} != reference {:?}",
                optimized.report, reference.report
            ),
        });
    }
    match (&optimized.trace, &reference.trace) {
        (Some(a), Some(b)) if a != b => {
            let (ae, be) = (&a.events, &b.events);
            let first = ae.iter().zip(be.iter()).position(|(x, y)| x != y);
            Some(Divergence {
                field: "reduce_trace",
                details: match first {
                    Some(i) => format!(
                        "policy {policy}: event {i}: optimized {:?} != reference {:?}",
                        ae[i], be[i]
                    ),
                    None => format!("policy {policy}: event count {} != {}", ae.len(), be.len()),
                },
            })
        }
        (Some(_), None) | (None, Some(_)) => Some(Divergence {
            field: "reduce_trace",
            details: format!("policy {policy}: one engine produced a trace, the other did not"),
        }),
        _ => None,
    }
}

/// Places the scenario's reducers with one strategy against the given
/// map-output holders.
fn place_reducers(
    scenario: &Scenario,
    strategy: &mut dyn PlacementStrategy,
    holders: &[Vec<NodeId>],
) -> Result<Vec<NodeId>, VerifyError> {
    let cluster = scenario.cluster_view()?;
    let mut nodes = Vec::with_capacity(scenario.reducers);
    for r in 0..scenario.reducers {
        nodes.push(strategy.place_reduce_task(&cluster, holders, r, scenario.reducers)?);
    }
    Ok(nodes)
}

/// Runs the reduce-phase differential oracle on `scenario`: the map
/// phase's winners become the shuffle sources, reducers are placed by
/// each of the three strategies in turn, and for every strategy the
/// optimized [`adapt_sim::ReducePhaseSim`] and the naive
/// [`crate::reference_reduce::ReferenceReduce`] must agree exactly on
/// the report and the full event trace. The optimized engine is also
/// re-run untraced (zero-overhead-tracing contract).
///
/// Scenarios whose map phase completed no task have no shuffle input
/// and vacuously pass.
///
/// # Errors
///
/// [`VerifyError`] if the map phase or a placement strategy rejects the
/// scenario.
pub fn check_reduce_scenario(scenario: &Scenario) -> Result<Option<Divergence>, VerifyError> {
    let map = scenario.run_optimized(false)?;
    let (holders, output_bytes) = scenario.reduce_inputs(&map.winners);
    if holders.is_empty() || scenario.reducers == 0 {
        return Ok(None);
    }
    let adapt = AdaptStrategy::new(scenario.reduce_gamma)?;
    let mut strategies: Vec<Box<dyn PlacementStrategy>> = vec![
        Box::new(NaiveStrategy::new()),
        Box::new(adapt),
        Box::new(RackAwareStrategy::new()),
    ];
    for strategy in &mut strategies {
        let policy = strategy.name();
        let reducer_nodes = place_reducers(scenario, strategy.as_mut(), &holders)?;
        let optimized =
            scenario.run_reduce_optimized(&holders, &output_bytes, &reducer_nodes, true);
        let reference =
            scenario.run_reduce_reference(&holders, &output_bytes, &reducer_nodes, true);
        let (optimized, reference) = match (optimized, reference) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(a), Err(b)) => {
                if a == b {
                    continue;
                }
                return Ok(Some(Divergence {
                    field: "reduce_error",
                    details: format!("policy {policy}: optimized error {a} != reference error {b}"),
                }));
            }
            (Ok(_), Err(e)) => {
                return Ok(Some(Divergence {
                    field: "reduce_error",
                    details: format!(
                        "policy {policy}: reference rejected what the optimized engine ran: {e}"
                    ),
                }));
            }
            (Err(e), Ok(_)) => {
                return Ok(Some(Divergence {
                    field: "reduce_error",
                    details: format!(
                        "policy {policy}: optimized rejected what the reference engine ran: {e}"
                    ),
                }));
            }
        };
        if let Some(d) = compare_reduce(policy, &optimized, &reference) {
            return Ok(Some(d));
        }
        let untraced =
            scenario.run_reduce_optimized(&holders, &output_bytes, &reducer_nodes, false)?;
        if untraced.report != optimized.report {
            return Ok(Some(Divergence {
                field: "reduce_trace_overhead",
                details: format!(
                    "policy {policy}: reduce engine behaves differently with tracing enabled"
                ),
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, generate_reduce_heavy};

    #[test]
    fn generated_scenario_passes_oracle() {
        let s = generate(1);
        assert_eq!(check_scenario(&s).unwrap(), None);
    }

    #[test]
    fn generated_scenarios_pass_the_reduce_oracle() {
        for seed in [1, 5, 9] {
            let s = generate(seed);
            assert_eq!(check_reduce_scenario(&s).unwrap(), None, "seed {seed}");
        }
        let heavy = generate_reduce_heavy(3);
        assert_eq!(check_reduce_scenario(&heavy).unwrap(), None);
    }

    #[test]
    fn compare_reduce_spots_a_doctored_report() {
        let s = generate_reduce_heavy(1);
        let map = s.run_optimized(false).unwrap();
        let (holders, bytes) = s.reduce_inputs(&map.winners);
        if holders.is_empty() {
            return;
        }
        let mut strategy = NaiveStrategy::new();
        let reducers = place_reducers(&s, &mut strategy, &holders).unwrap();
        let a = s
            .run_reduce_optimized(&holders, &bytes, &reducers, false)
            .unwrap();
        let mut b = a.clone();
        b.report.fetches += 1;
        let d = compare_reduce("naive", &a, &b).unwrap();
        assert_eq!(d.field, "reduce_report");
        assert!(d.details.contains("naive"));
    }

    #[test]
    fn compare_reports_spots_report_field() {
        let s = generate(2);
        let a = s.run_optimized(false).unwrap();
        let mut b = a.clone();
        b.report.attempts += 1;
        let d = compare_reports(&a, &b).unwrap();
        assert_eq!(d.field, "report");
        let json = d.to_value().to_json();
        assert!(json.contains("\"field\":\"report\""));
    }
}

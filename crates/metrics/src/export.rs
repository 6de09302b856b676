//! Deterministic `adapt-metrics/1` JSONL serialization and its parser.
//!
//! Line 1 is the header (`"format":"adapt-metrics/1"` plus run identity
//! and the declared SLO, if any). Every following line is one record:
//!
//! - `{"kind":"series", "name":…, "series_kind":…, "dropped":…}` —
//!   one declaration per series, before its samples;
//! - `{"kind":"sample", "series":…, "t":…, "v":…}` — one sample,
//!   integer-µs timestamp, emitted per series in time order (series in
//!   sorted name order);
//! - `{"kind":"span", "path":…, "calls":…, "events":…, "heap_ops":…,
//!   "placements":…, "sim_us":…}` — one profiler span, DFS order.
//!
//! Writer and parser both ride on `adapt_telemetry::json`, so the file
//! is a pure function of the run: the experiments crate's `baselines`
//! test byte-diffs it against a checked-in baseline.

use std::collections::BTreeMap;
use std::fmt;

use adapt_telemetry::{parse_value, Value};

use crate::profile::{SpanRecord, WorkCounts};
use crate::registry::{Sample, SampleValue, SeriesKind};
use crate::slo::SloTarget;
use crate::MetricsHub;

/// Format tag in the header line.
pub const FORMAT_TAG: &str = "adapt-metrics/1";

/// A malformed metrics file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsError {
    /// 1-based line of the offending record (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MetricsError {}

/// Run identity carried in the header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsMeta {
    /// Producing harness (`fig3`, `jobstream`, …).
    pub tool: String,
    /// Cluster size.
    pub nodes: u64,
    /// Master seed.
    pub seed: u64,
    /// Scrape cadence, simulated µs.
    pub interval_us: u64,
}

/// One parsed series: declaration plus samples in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Instrument family.
    pub kind: SeriesKind,
    /// Samples evicted by the ring before export.
    pub dropped: u64,
    /// Samples, oldest first.
    pub samples: Vec<Sample>,
}

/// A parsed `adapt-metrics/1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Header identity.
    pub meta: MetricsMeta,
    /// Declared SLO, if the producer recorded one.
    pub slo: Option<SloTarget>,
    /// Series by name (sorted).
    pub series: BTreeMap<String, SeriesData>,
    /// Profiler spans, DFS order.
    pub spans: Vec<SpanRecord>,
}

impl MetricsDoc {
    /// Raw `(t_us, value)` pairs of an observation/gauge series, with
    /// float samples rounded to integers (observations are integral by
    /// construction).
    pub fn samples_u64(&self, series: &str) -> Vec<(u64, u64)> {
        self.series
            .get(series)
            .map(|s| {
                s.samples
                    .iter()
                    .map(|sample| {
                        let v = match sample.value {
                            SampleValue::U64(n) => n,
                            SampleValue::F64(x) => x.max(0.0).round() as u64,
                        };
                        (sample.t_us, v)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Serializes a hub (see the module docs for the line grammar).
pub fn write_jsonl(hub: &MetricsHub, tool: &str, nodes: u64, seed: u64) -> String {
    let mut header = Value::object();
    header.insert("format", FORMAT_TAG);
    header.insert("tool", tool);
    header.insert("nodes", nodes);
    header.insert("seed", seed);
    header.insert("interval_us", hub.registry.interval_us());
    header.insert("scrapes", hub.registry.scrapes());
    if let Some(slo) = &hub.slo {
        header.insert("slo_series", slo.series.as_str());
        header.insert("slo_objective_us", slo.objective_us);
        header.insert("slo_target_milli", slo.target_milli as u64);
    }
    let mut out = String::new();
    out.push_str(&header.to_json());
    out.push('\n');
    for (name, series) in hub.registry.series() {
        let mut decl = Value::object();
        decl.insert("kind", "series");
        decl.insert("name", name.as_str());
        decl.insert("series_kind", series.kind().tag());
        decl.insert("dropped", series.dropped());
        out.push_str(&decl.to_json());
        out.push('\n');
        for sample in series.iter() {
            let mut line = Value::object();
            line.insert("kind", "sample");
            line.insert("series", name.as_str());
            line.insert("t", sample.t_us);
            line.insert("v", sample.value.to_value());
            out.push_str(&line.to_json());
            out.push('\n');
        }
    }
    for span in hub.profiler.to_spans() {
        let mut line = Value::object();
        line.insert("kind", "span");
        line.insert("path", span.path.as_str());
        line.insert("calls", span.calls);
        line.insert("events", span.counts.events);
        line.insert("heap_ops", span.counts.heap_ops);
        line.insert("placements", span.counts.placements);
        line.insert("sim_us", span.counts.sim_us);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

/// Parses a document produced by [`write_jsonl`].
///
/// # Errors
///
/// Returns [`MetricsError`] on malformed JSON, a missing/foreign format
/// tag, or records with missing or mistyped fields.
pub fn parse_jsonl(input: &str) -> Result<MetricsDoc, MetricsError> {
    let mut lines = input.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(MetricsError {
            line: 0,
            message: "empty metrics file".into(),
        });
    };
    let at = |line: usize| move |message: String| MetricsError { line, message };
    let header = parse_value(header).map_err(at(1))?;
    let format = get_str(&header, "format").map_err(at(1))?;
    if format != FORMAT_TAG {
        return Err(MetricsError {
            line: 1,
            message: format!("unsupported format `{format}` (want `{FORMAT_TAG}`)"),
        });
    }
    let meta = MetricsMeta {
        tool: get_str(&header, "tool").map_err(at(1))?.to_string(),
        nodes: get_u64(&header, "nodes").map_err(at(1))?,
        seed: get_u64(&header, "seed").map_err(at(1))?,
        interval_us: get_u64(&header, "interval_us").map_err(at(1))?,
    };
    let slo = match header.get("slo_series") {
        Some(Value::Str(series)) => Some(SloTarget {
            series: series.clone(),
            objective_us: get_u64(&header, "slo_objective_us").map_err(at(1))?,
            target_milli: get_u64(&header, "slo_target_milli")
                .map_err(at(1))?
                .min(1000) as u32,
        }),
        _ => None,
    };

    let mut series: BTreeMap<String, SeriesData> = BTreeMap::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let v = parse_value(line).map_err(at(lineno))?;
        let kind = get_str(&v, "kind").map_err(at(lineno))?;
        match kind {
            "series" => {
                let name = get_str(&v, "name").map_err(at(lineno))?;
                let tag = get_str(&v, "series_kind").map_err(at(lineno))?;
                let series_kind = SeriesKind::from_tag(tag).ok_or_else(|| MetricsError {
                    line: lineno,
                    message: format!("unknown series kind `{tag}`"),
                })?;
                series.insert(
                    name.to_string(),
                    SeriesData {
                        kind: series_kind,
                        dropped: get_u64(&v, "dropped").map_err(at(lineno))?,
                        samples: Vec::new(),
                    },
                );
            }
            "sample" => {
                let name = get_str(&v, "series").map_err(at(lineno))?;
                let t_us = get_u64(&v, "t").map_err(at(lineno))?;
                let value = match v.get("v") {
                    Some(Value::U64(n)) => SampleValue::U64(*n),
                    Some(Value::F64(x)) => SampleValue::F64(*x),
                    Some(Value::I64(n)) => SampleValue::F64(*n as f64),
                    other => {
                        return Err(MetricsError {
                            line: lineno,
                            message: format!("field `v` is not a number: {other:?}"),
                        })
                    }
                };
                let entry = series.get_mut(name).ok_or_else(|| MetricsError {
                    line: lineno,
                    message: format!("sample for undeclared series `{name}`"),
                })?;
                entry.samples.push(Sample { t_us, value });
            }
            "span" => {
                spans.push(SpanRecord {
                    path: get_str(&v, "path").map_err(at(lineno))?.to_string(),
                    calls: get_u64(&v, "calls").map_err(at(lineno))?,
                    counts: WorkCounts {
                        events: get_u64(&v, "events").map_err(at(lineno))?,
                        heap_ops: get_u64(&v, "heap_ops").map_err(at(lineno))?,
                        placements: get_u64(&v, "placements").map_err(at(lineno))?,
                        sim_us: get_u64(&v, "sim_us").map_err(at(lineno))?,
                    },
                });
            }
            other => {
                return Err(MetricsError {
                    line: lineno,
                    message: format!("unknown record kind `{other}`"),
                })
            }
        }
    }
    Ok(MetricsDoc {
        meta,
        slo,
        series,
        spans,
    })
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err(format!("field `{key}` is not a string: {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        Some(other) => Err(format!(
            "field `{key}` is not an unsigned integer: {other:?}"
        )),
        None => Err(format!("missing field `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloTarget;

    fn sample_hub() -> MetricsHub {
        let mut hub = MetricsHub::new(10).with_slo(SloTarget::new("lat", 150, 990));
        hub.registry.set_gauge("queue", 4u64);
        hub.registry.set_gauge("rate", 0.25f64);
        hub.registry.incr("attempts", 9);
        hub.registry.observe("lat", 3, 120);
        hub.registry.observe("lat", 7, 180);
        hub.profiler.enter("dispatch");
        hub.profiler.add_events(2);
        hub.profiler.exit();
        hub.finish(25);
        hub
    }

    #[test]
    fn round_trips_exactly_and_is_byte_stable() {
        let hub = sample_hub();
        let text = hub.to_jsonl("test", 8, u64::MAX - 1);
        assert_eq!(text, sample_hub().to_jsonl("test", 8, u64::MAX - 1));
        let doc = parse_jsonl(&text).unwrap();
        assert_eq!(doc.meta.seed, u64::MAX - 1);
        assert_eq!(doc.meta.interval_us, 10);
        assert_eq!(doc.slo, Some(SloTarget::new("lat", 150, 990)));
        assert_eq!(doc.series["queue"].kind, SeriesKind::Gauge);
        assert_eq!(doc.series["attempts"].kind, SeriesKind::Counter);
        assert_eq!(doc.series["lat"].kind, SeriesKind::Observation);
        assert_eq!(doc.samples_u64("lat"), vec![(3, 120), (7, 180)]);
        assert_eq!(doc.spans.len(), 2);
        assert_eq!(doc.spans[1].path, "run;dispatch");
        assert_eq!(doc.spans[1].counts.events, 2);
    }

    #[test]
    fn percentile_series_survive_export() {
        let text = sample_hub().to_jsonl("test", 8, 1);
        let doc = parse_jsonl(&text).unwrap();
        // Scrapes at 10, 20 (cadence) and 25 (finish).
        assert_eq!(doc.series["lat.p99"].samples.len(), 3);
        assert_eq!(doc.samples_u64("lat.p99")[0], (10, 180));
    }

    #[test]
    fn deep_nesting_is_a_typed_error_on_any_line() {
        let text = sample_hub().to_jsonl("test", 8, 1);
        let header = text.lines().next().unwrap();
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(100_000);
            let err = parse_jsonl(&deep).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.message.contains("nesting deeper than"), "{err}");
            let err = parse_jsonl(&format!("{header}\n{deep}\n")).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn rejects_foreign_and_malformed_input() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"format\":\"other/9\"}\n").is_err());
        let mut ok = sample_hub().to_jsonl("test", 8, 1);
        ok.push_str("{\"kind\":\"mystery\"}\n");
        let err = parse_jsonl(&ok).unwrap_err();
        assert!(err.message.contains("unknown record kind"), "{err}");
        assert!(err.line > 1);
        // Sample lines must follow their declaration.
        let orphan = format!(
            "{}\n{}\n",
            "{\"format\":\"adapt-metrics/1\",\"interval_us\":1,\"nodes\":1,\"seed\":1,\"tool\":\"t\"}",
            "{\"kind\":\"sample\",\"series\":\"ghost\",\"t\":1,\"v\":2}"
        );
        assert!(parse_jsonl(&orphan)
            .unwrap_err()
            .message
            .contains("undeclared"));
    }
}

//! Plain-text event-trace format, in the spirit of the Failure Trace
//! Archive's event traces.
//!
//! The format is line-oriented and human-diffable:
//!
//! ```text
//! # adapt-fta v1
//! #window 47304000
//! 0    1000.0   1050.0
//! 0    40000.0  40600.0
//! 1    2500.0   2600.0
//! ```
//!
//! * Lines starting with `#` are directives or comments. The only
//!   required directive is `#window <seconds>`, the observation window.
//! * Every other non-empty line is `host_id  start  end` (whitespace
//!   separated): one unavailability event, with `end > start`.
//! * Events for one host must appear in time order (the FTA convention);
//!   the parser validates this through [`HostTrace::new`].
//!
//! Real FTA SETI@home exports can be converted to this format with a
//! one-line awk script, making the paper's original dataset drop-in.

use std::collections::BTreeMap;

use crate::record::{HostId, HostTrace, Interruption, Trace};
use crate::TraceError;

/// Serializes a trace to the text format.
///
/// Host events are emitted grouped by host id in ascending order.
///
/// # Examples
///
/// ```
/// use adapt_traces::{HostId, HostTrace, Interruption, Trace};
/// use adapt_traces::fta;
///
/// # fn main() -> Result<(), adapt_traces::TraceError> {
/// let trace = Trace::new(vec![HostTrace::new(
///     HostId(0),
///     100.0,
///     vec![Interruption { start: 10.0, duration: 5.0 }],
/// )?]);
/// let text = fta::write(&trace);
/// let parsed = fta::parse(std::str::from_utf8(&text).unwrap())?;
/// assert_eq!(parsed, trace);
/// # Ok(())
/// # }
/// ```
pub fn write(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + trace.event_count() * 32);
    buf.extend_from_slice(b"# adapt-fta v1\n");
    let window = trace.hosts().first().map(|h| h.window()).unwrap_or(0.0);
    buf.extend_from_slice(format!("#window {window}\n").as_bytes());
    let mut hosts: Vec<&HostTrace> = trace.iter().collect();
    hosts.sort_by_key(|h| h.host());
    for host in hosts {
        for ev in host.interruptions() {
            buf.extend_from_slice(
                format!("{}\t{}\t{}\n", host.host().0, ev.start, ev.end()).as_bytes(),
            );
        }
        if host.interruptions().is_empty() {
            // Preserve event-free hosts with an explicit directive so the
            // round-trip is lossless.
            buf.extend_from_slice(format!("#host {}\n", host.host().0).as_bytes());
        }
    }
    buf
}

/// Parses the text format back into a [`Trace`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for malformed lines or a missing
/// `#window` directive, and [`TraceError::InvalidRecord`] if any host's
/// events violate the trace invariants (unsorted, overlapping, or outside
/// the window).
pub fn parse(text: &str) -> Result<Trace, TraceError> {
    let mut window: Option<f64> = None;
    let mut events: BTreeMap<u64, Vec<Interruption>> = BTreeMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(directive) = line.strip_prefix('#') {
            let mut parts = directive.split_whitespace();
            match parts.next() {
                Some("window") => {
                    let value = parts.next().ok_or_else(|| TraceError::Parse {
                        line: line_no,
                        reason: "#window directive missing value".into(),
                    })?;
                    window = Some(value.parse::<f64>().map_err(|e| TraceError::Parse {
                        line: line_no,
                        reason: format!("bad #window value `{value}`: {e}"),
                    })?);
                }
                Some("host") => {
                    let value = parts.next().ok_or_else(|| TraceError::Parse {
                        line: line_no,
                        reason: "#host directive missing id".into(),
                    })?;
                    let id = value.parse::<u64>().map_err(|e| TraceError::Parse {
                        line: line_no,
                        reason: format!("bad #host id `{value}`: {e}"),
                    })?;
                    events.entry(id).or_default();
                }
                _ => {} // comment
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(TraceError::Parse {
                line: line_no,
                reason: format!("expected `host start end`, found {} fields", fields.len()),
            });
        }
        let host = fields[0].parse::<u64>().map_err(|e| TraceError::Parse {
            line: line_no,
            reason: format!("bad host id `{}`: {e}", fields[0]),
        })?;
        let start = fields[1].parse::<f64>().map_err(|e| TraceError::Parse {
            line: line_no,
            reason: format!("bad start `{}`: {e}", fields[1]),
        })?;
        let end = fields[2].parse::<f64>().map_err(|e| TraceError::Parse {
            line: line_no,
            reason: format!("bad end `{}`: {e}", fields[2]),
        })?;
        if end < start {
            return Err(TraceError::Parse {
                line: line_no,
                reason: format!("end {end} precedes start {start}"),
            });
        }
        events.entry(host).or_default().push(Interruption {
            start,
            duration: end - start,
        });
    }

    let window = window.ok_or(TraceError::Parse {
        line: 0,
        reason: "missing #window directive".into(),
    })?;

    let hosts = events
        .into_iter()
        .map(|(id, evs)| HostTrace::new(HostId(id), window, evs))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Trace::new(hosts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticPopulation;
    use proptest::prelude::*;

    fn ev(start: f64, duration: f64) -> Interruption {
        Interruption { start, duration }
    }

    #[test]
    fn round_trip_preserves_trace() {
        let trace = Trace::new(vec![
            HostTrace::new(HostId(0), 1_000.0, vec![ev(10.0, 5.0), ev(100.0, 25.0)]).unwrap(),
            HostTrace::new(HostId(3), 1_000.0, vec![ev(500.0, 1.5)]).unwrap(),
            HostTrace::new(HostId(7), 1_000.0, vec![]).unwrap(),
        ]);
        let text = write(&trace);
        let parsed = parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parse_rejects_missing_window() {
        assert!(matches!(
            parse("0\t1.0\t2.0\n"),
            Err(TraceError::Parse { .. })
        ));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let base = "#window 100\n";
        assert!(parse(&format!("{base}0 1.0\n")).is_err()); // 2 fields
        assert!(parse(&format!("{base}x 1.0 2.0\n")).is_err()); // bad host
        assert!(parse(&format!("{base}0 a 2.0\n")).is_err()); // bad start
        assert!(parse(&format!("{base}0 1.0 b\n")).is_err()); // bad end
        assert!(parse(&format!("{base}0 5.0 2.0\n")).is_err()); // end < start
    }

    #[test]
    fn parse_rejects_overlapping_events_via_invariants() {
        let text = "#window 100\n0 10 30\n0 20 25\n";
        assert!(matches!(parse(text), Err(TraceError::InvalidRecord { .. })));
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let text = "# a comment\n#window 100\n\n0 10 20\n# trailing\n";
        let t = parse(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.hosts()[0].interruptions().len(), 1);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::default();
        let text = write(&trace);
        let parsed = parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed.len(), 0);
    }

    #[test]
    fn synthetic_population_round_trips() {
        let trace = SyntheticPopulation::seti_like()
            .unwrap()
            .hosts(50)
            .generate(13)
            .unwrap();
        let text = write(&trace);
        let parsed = parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed.len(), trace.len());
        assert_eq!(parsed.event_count(), trace.event_count());
    }

    proptest! {
        #[test]
        fn round_trip_is_lossless_for_valid_traces(
            raw in prop::collection::vec(
                (0u64..20, prop::collection::vec((0.01f64..10.0, 0.01f64..10.0), 0..10)),
                0..10,
            )
        ) {
            let window = 1e4;
            let mut hosts = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for (id, gaps) in raw {
                if !seen.insert(id) { continue; }
                let mut t = 0.0;
                let mut evs = Vec::new();
                for (gap, dur) in gaps {
                    t += gap;
                    if t + dur > window { break; }
                    evs.push(ev(t, dur));
                    t += dur;
                }
                hosts.push(HostTrace::new(HostId(id), window, evs).unwrap());
            }
            let trace = Trace::new(hosts);
            let text = write(&trace);
            let parsed = parse(std::str::from_utf8(&text).unwrap()).unwrap();
            // Order is normalized by host id on write; compare as maps.
            prop_assert_eq!(parsed.len(), trace.len());
            prop_assert_eq!(parsed.event_count(), trace.event_count());
        }
    }
}

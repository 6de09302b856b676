//! Hostile input for every file parser: arbitrary bytes, every prefix
//! of a valid document, and each numeric field replaced by an
//! out-of-domain value. Every case must return `Ok` or the parser's
//! typed error — never panic — and where a parser documents a domain,
//! the values outside it must be rejected.

use std::collections::BTreeSet;

use adapt::dfs::NodeId;
use adapt::trace::{write_jsonl, TraceEvent, TraceRecorder};
use adapt_metrics::slo::SloTarget;
use adapt_metrics::MetricsHub;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The values each numeric field is replaced by.
const HOSTILE: [&str; 5] = ["NaN", "inf", "-1", "1e308", "18446744073709551616"];

/// Runs `parse` — which reports whether it accepted its input — on
/// every hostile case built from `valid`, and returns the hostile values
/// that were rejected wherever they replaced a numeric field.
/// `alphabet` biases half of the arbitrary inputs toward the format's
/// own characters, so they get past the first check.
fn attack(valid: &str, alphabet: &[u8], parse: impl Fn(&str) -> bool) -> BTreeSet<&'static str> {
    assert!(parse(valid), "the valid document must parse:\n{valid}");

    let mut rng = StdRng::seed_from_u64(2012);
    for case in 0..256 {
        let len = (rng.next_u64() % 256) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                let r = rng.next_u64();
                if case % 2 == 0 {
                    r as u8
                } else {
                    alphabet[(r % alphabet.len() as u64) as usize]
                }
            })
            .collect();
        parse(&String::from_utf8_lossy(&bytes));
    }

    for end in (0..valid.len()).filter(|&i| valid.is_char_boundary(i)) {
        parse(&valid[..end]);
    }

    let mut always_rejected: BTreeSet<&str> = HOSTILE.into_iter().collect();
    for (start, end) in numeric_fields(valid) {
        for value in HOSTILE {
            let mutated = format!("{}{value}{}", &valid[..start], &valid[end..]);
            if parse(&mutated) {
                always_rejected.remove(value);
            }
        }
    }
    always_rejected
}

/// Byte ranges of the numbers in `doc` that stand as a field of their
/// own: a run of number characters after a line start, whitespace, or a
/// JSON `:`, `,` or `[` — so `v1` in a comment or `job0` stays.
fn numeric_fields(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let is_number = |b: u8| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-');
    let mut fields = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let after_separator =
            i == 0 || matches!(bytes[i - 1], b'\n' | b'\t' | b' ' | b':' | b',' | b'[');
        let starts = bytes[i].is_ascii_digit()
            || (bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        if after_separator && starts {
            let end = (i + 1..bytes.len())
                .find(|&j| !is_number(bytes[j]))
                .unwrap_or(bytes.len());
            fields.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    fields
}

/// Keeps the first line of each distinct `"kind"` tag (and every
/// untagged line, such as a header), so a short document still covers
/// every record type a long one holds.
fn one_line_per_kind<'a>(
    lines: impl Iterator<Item = &'a str>,
    seen: &mut BTreeSet<String>,
) -> String {
    let mut out = String::new();
    for line in lines {
        let kind = line
            .split("\"kind\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next());
        if kind.is_none_or(|kind| seen.insert(kind.to_string())) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn fta_parser_rejects_hostile_input() {
    let valid = "# adapt-fta v1\n#window 1000\n0\t10\t20.5\n0\t100\t150\n1\t5\t6\n#host 2\n";
    let rejected = attack(valid, b"# \t\n0123456789.-ehostwindow", |text| {
        adapt::traces::fta::parse(text).is_ok()
    });
    // Times and the window must be finite and non-negative, host ids
    // unsigned integers.
    for value in ["NaN", "inf", "-1"] {
        assert!(rejected.contains(value), "FTA accepted {value}");
    }
}

#[test]
fn swim_parser_and_calibration_reject_hostile_input() {
    let valid = "job0\t12\t12\t67108864\t1048576\t524288\n\
                 job1\t30.5\t18.5\t0\t0\t0\n\
                 job2\t31\t0.5\t134217728\t0\t1\n";
    let rejected = attack(valid, b"\t\n0123456789.-ejob", |text| {
        let Ok(rows) = adapt_workload::parse_tsv(text) else {
            return false;
        };
        for block_bytes in [0, 1, 64 << 20] {
            adapt_workload::trace_to_jobs(&rows, block_bytes);
            if let Ok(config) = adapt_workload::calibrate(&rows, block_bytes) {
                if let Err(e) = config.validate() {
                    panic!("calibrate fitted an invalid config ({e}) to:\n{text}");
                }
            }
        }
        true
    });
    // Times are finite, non-negative floats and sizes unsigned integers.
    for value in ["NaN", "inf", "-1"] {
        assert!(rejected.contains(value), "SWIM accepted {value}");
    }
}

#[test]
fn trace_parser_rejects_hostile_input() {
    // A multi-rack scenario with skewed map outputs whose runs emit 14
    // event kinds, interruptions and cross-rack fetches among them. The
    // placement, horizon-cut and job kinds come from a recorder of
    // their own.
    let scenario = adapt::verify::generate_reduce_heavy(4);
    let map = scenario.run_optimized(true).unwrap();
    let (holders, bytes) = scenario.reduce_inputs(&map.winners);
    let reducers: Vec<NodeId> = (0..scenario.reducers)
        .map(|r| NodeId((r % scenario.nodes.len()) as u32))
        .collect();
    let reduce = scenario
        .run_reduce_optimized(&holders, &bytes, &reducers, true)
        .unwrap();
    let map = map.trace.unwrap();
    let mut recorder = TraceRecorder::new();
    for event in [
        TraceEvent::BlockPlaced { block: 3, node: 1 },
        TraceEvent::BlockRebalanced {
            block: 3,
            from: 1,
            to: 2,
        },
        TraceEvent::AttemptCut {
            node: 2,
            task: 0,
            attempt: 1,
            local: false,
            start: 1.5,
            compute_start: 2.0,
            end: 9.0,
        },
        TraceEvent::JobSubmitted { job: 0, t: 0.5 },
        TraceEvent::JobStarted {
            job: 0,
            nodes: 2,
            tasks: 4,
            t: 1.0,
        },
        TraceEvent::JobCompleted {
            job: 0,
            completed: true,
            start: 1.0,
            t: 30.0,
        },
    ] {
        recorder.record(event);
    }
    let recorded = recorder.finish(map.meta.clone());

    let mut seen = BTreeSet::new();
    let mut valid = String::new();
    for (i, trace) in [&recorded, &map, &reduce.trace.unwrap()]
        .into_iter()
        .enumerate()
    {
        // One header, from the first trace.
        let lines = write_jsonl(trace);
        valid += &one_line_per_kind(lines.lines().skip(usize::from(i > 0)), &mut seen);
    }
    assert_eq!(seen.len(), 20, "every event kind is covered: {seen:?}");
    let rejected = attack(&valid, b"{}[]:,\"0123456789.-eakindseq", |text| {
        adapt::trace::parse_jsonl(text).is_ok()
    });
    // Neither is a JSON number.
    for value in ["NaN", "inf"] {
        assert!(
            rejected.contains(value),
            "the trace parser accepted {value}"
        );
    }
}

#[test]
fn metrics_parser_rejects_hostile_input() {
    let mut hub = MetricsHub::new(10).with_slo(SloTarget::new("lat", 150, 990));
    hub.registry.set_gauge("queue", 4u64);
    hub.registry.set_gauge("rate", 0.25f64);
    hub.registry.incr("attempts", 9);
    hub.registry.observe("lat", 3, 120);
    hub.profiler.enter("dispatch");
    hub.profiler.add_events(2);
    hub.profiler.exit();
    hub.finish(25);
    let valid = hub.to_jsonl("hostile", 8, 7);
    let rejected = attack(&valid, b"{}[]:,\"0123456789.-ekindseriesv", |text| {
        adapt_metrics::export::parse_jsonl(text).is_ok()
    });
    // Neither is a JSON number.
    for value in ["NaN", "inf"] {
        assert!(
            rejected.contains(value),
            "the metrics parser accepted {value}"
        );
    }
}

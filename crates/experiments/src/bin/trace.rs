//! Explores a recorded event trace (the JSONL written by `--trace-out`).
//!
//! Usage: `trace <summary|critical-path|gantt|chrome> <trace.jsonl>`
//!
//! * `summary` — event counts, derived overhead totals, and run metadata
//!   as pretty-printed JSON;
//! * `critical-path` — the dependency chain ending at the last task
//!   completion, one hop per line with the reason time was spent;
//! * `gantt` — a per-node ASCII timeline (`#` compute, `=` transfer,
//!   `x` down);
//! * `chrome` — the trace converted to Chrome `trace_event` JSON on
//!   stdout (open in `chrome://tracing` or Perfetto).
//!
//! Every view is a pure function of the trace file: re-running a command
//! on the same file prints identical bytes.

use adapt_trace::{
    critical_path, gantt, parse_jsonl, summarize, write_chrome, NodeLane, PathHop, SegmentKind,
    Trace,
};

fn usage() -> ! {
    eprintln!("usage: trace <summary|critical-path|gantt|chrome> <trace.jsonl>");
    std::process::exit(2);
}

fn render_critical_path(trace: &Trace) {
    let hops = critical_path(trace);
    if hops.is_empty() {
        println!("no completed task in trace: critical path is empty");
        return;
    }
    let total: f64 = hops.iter().map(|h| h.end - h.start).sum();
    println!(
        "critical path: {} hops, {:.3} s on the chain",
        hops.len(),
        total
    );
    for PathHop {
        kind,
        node,
        task,
        start,
        end,
        detail,
    } in &hops
    {
        let who = match (node, task) {
            (Some(n), Some(t)) => format!("node {n} task {t}"),
            (Some(n), None) => format!("node {n}"),
            (None, Some(t)) => format!("task {t}"),
            (None, None) => String::new(),
        };
        println!(
            "  [{start:>12.3} .. {end:>12.3}] {:>10} {:>9.3}s  {who}  {detail}",
            kind.as_str(),
            end - start,
        );
    }
}

fn render_gantt(trace: &Trace) {
    const WIDTH: usize = 72;
    let elapsed = trace.meta.elapsed;
    if elapsed <= 0.0 {
        println!("empty run: nothing to draw");
        return;
    }
    let lanes = gantt(trace);
    println!(
        "gantt: {} nodes with activity over {elapsed:.3} s ('#' compute, '=' transfer, 'x' down)",
        lanes.len()
    );
    for NodeLane { node, segments } in &lanes {
        let mut row = vec!['.'; WIDTH];
        // Later segments overwrite earlier ones; outages win last so a
        // kill inside an outage window reads as down time.
        for seg in segments {
            let from = ((seg.start / elapsed) * WIDTH as f64) as usize;
            let to = (((seg.end / elapsed) * WIDTH as f64).ceil() as usize).min(WIDTH);
            let glyph = match seg.kind {
                SegmentKind::Compute => '#',
                SegmentKind::Transfer => '=',
                SegmentKind::Down => 'x',
            };
            for cell in row.iter_mut().take(to).skip(from.min(WIDTH)) {
                *cell = glyph;
            }
        }
        // Folded from +0.0: an empty `f64` sum is -0.0, which prints as
        // `busy -0.0s` on a lane that holds only outages.
        let busy = segments
            .iter()
            .filter(|s| s.kind != SegmentKind::Down)
            .fold(0.0, |sum, s| sum + (s.end - s.start));
        let line: String = row.into_iter().collect();
        println!("  node {node:>5} |{line}| busy {busy:.1}s");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match args.as_slice() {
        [cmd, path] => (cmd.as_str(), path.as_str()),
        _ => usage(),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let trace = match parse_jsonl(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        }
    };
    match cmd {
        "summary" => println!("{}", summarize(&trace).to_json_pretty()),
        "critical-path" => render_critical_path(&trace),
        "gantt" => render_gantt(&trace),
        "chrome" => println!("{}", write_chrome(&trace)),
        _ => usage(),
    }
}

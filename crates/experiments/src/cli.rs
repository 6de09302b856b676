//! Minimal argument parsing shared by the experiment binaries.
//!
//! Flags: `--paper` (full paper scale), `--runs N`, `--nodes N`,
//! `--seed N`, `--csv`, `--report-json PATH` (write a deterministic
//! telemetry run report, see [`crate::run_report`]), `--trace-out PATH`
//! (write the probe run's deterministic event trace as JSONL, explorable
//! with the `trace` binary), `--metrics-out PATH` (write the probe run's
//! scraped time series and work spans as `adapt-metrics/1` JSONL,
//! explorable with the `metrics` binary), `--metrics-interval SECS`
//! (scrape cadence in simulated seconds), `--racks N` and
//! `--oversubscription X` (the network topology — `--racks 1
//! --oversubscription 1` is the flat network), plus at most one
//! selector word (the sub-figure `a`/`b`/`c` where applicable).
//!
//! Each binary passes the [`Flag`]s it reads and the selector words it
//! knows to [`Options::parse`]; any other flag or word is rejected, so a
//! flag a binary would ignore (and an output file it would never write)
//! or a mistyped selector is an error, not a silent no-op.

/// A command-line flag of the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--paper`: run at the paper's full scale.
    Paper,
    /// `--runs N`: the number of runs (or the binary's count knob).
    Runs,
    /// `--nodes N`: the cluster size.
    Nodes,
    /// `--seed N`: the base seed.
    Seed,
    /// `--csv`: emit CSV instead of a text table.
    Csv,
    /// `--report-json PATH`: write the run report.
    ReportJson,
    /// `--trace-out PATH`: write the probe run's event trace.
    TraceOut,
    /// `--metrics-out PATH`: write the probe run's metrics document.
    MetricsOut,
    /// `--metrics-interval SECS`: the metrics scrape cadence.
    MetricsInterval,
    /// `--racks N`: the rack count of the topology.
    Racks,
    /// `--oversubscription X`: the core oversubscription ratio.
    Oversubscription,
}

impl Flag {
    /// Every flag, in usage order.
    pub const ALL: [Flag; 11] = [
        Flag::Paper,
        Flag::Runs,
        Flag::Nodes,
        Flag::Seed,
        Flag::Csv,
        Flag::ReportJson,
        Flag::TraceOut,
        Flag::MetricsOut,
        Flag::MetricsInterval,
        Flag::Racks,
        Flag::Oversubscription,
    ];

    /// The flag as typed, with its value placeholder.
    fn usage(self) -> &'static str {
        match self {
            Flag::Paper => "--paper",
            Flag::Runs => "--runs N",
            Flag::Nodes => "--nodes N",
            Flag::Seed => "--seed N",
            Flag::Csv => "--csv",
            Flag::ReportJson => "--report-json PATH",
            Flag::TraceOut => "--trace-out PATH",
            Flag::MetricsOut => "--metrics-out PATH",
            Flag::MetricsInterval => "--metrics-interval SECS",
            Flag::Racks => "--racks N",
            Flag::Oversubscription => "--oversubscription X",
        }
    }

    /// The flag as typed, e.g. `--runs`.
    fn name(self) -> &'static str {
        self.usage().split(' ').next().unwrap_or_default()
    }
}

/// `selectors` and then `flags` as a usage line, the flags in
/// [`Flag::ALL`] order.
fn usage(flags: &[Flag], selectors: &[&str]) -> String {
    let mut listed = Vec::new();
    if !selectors.is_empty() {
        listed.push(selectors.join("|"));
    }
    let flags = Flag::ALL.iter().filter(|f| flags.contains(f));
    listed.extend(flags.map(|f| f.usage().to_string()));
    format!("[{}]", listed.join("] ["))
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Options {
    /// Run at the paper's full scale instead of the quick default.
    pub paper: bool,
    /// Override the number of runs per scenario.
    pub runs: Option<usize>,
    /// Override the cluster size.
    pub nodes: Option<usize>,
    /// Override the base seed.
    pub seed: Option<u64>,
    /// Emit CSV instead of a text table.
    pub csv: bool,
    /// Write a deterministic telemetry run report (JSON) to this path.
    pub report_json: Option<String>,
    /// Write the probe run's event trace (JSONL) to this path.
    pub trace_out: Option<String>,
    /// Write the probe run's metrics document (JSONL) to this path.
    pub metrics_out: Option<String>,
    /// Metrics scrape cadence in simulated seconds (default 10).
    pub metrics_interval: Option<f64>,
    /// Rack count of the network topology (`1` = single rack).
    pub racks: Option<u32>,
    /// Core oversubscription ratio (`1.0` = non-blocking core).
    pub oversubscription: Option<f64>,
    /// The selector word (e.g. the sub-figure), when one was given.
    pub selector: Option<String>,
}

impl Options {
    /// Parses options from an argument iterator (excluding `argv[0]`),
    /// accepting only `flags` — the flags the calling binary reads — and
    /// at most one of `selectors`, the words it knows.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for `--help`, for a flag outside
    /// `flags` or a word outside `selectors` or after the first (naming
    /// the accepted ones), or for a malformed value.
    pub fn parse(
        args: impl Iterator<Item = String>,
        flags: &[Flag],
        selectors: &[&str],
    ) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(format!("usage: {}", usage(flags, selectors)));
            }
            if !arg.starts_with("--") {
                if opts.selector.is_some() || !selectors.contains(&arg.as_str()) {
                    return Err(format!(
                        "unexpected argument `{arg}` (this binary takes {})",
                        usage(flags, selectors)
                    ));
                }
                opts.selector = Some(arg);
                continue;
            }
            let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
                return Err(format!(
                    "unknown flag `{arg}` (this binary takes {})",
                    usage(flags, selectors)
                ));
            };
            match flag {
                Flag::Paper => opts.paper = true,
                Flag::Csv => opts.csv = true,
                Flag::Runs => opts.runs = Some(parse_value(&arg, args.next())?),
                Flag::Nodes => opts.nodes = Some(parse_value(&arg, args.next())?),
                Flag::Seed => opts.seed = Some(parse_value(&arg, args.next())?),
                Flag::ReportJson => opts.report_json = Some(parse_value(&arg, args.next())?),
                Flag::TraceOut => opts.trace_out = Some(parse_value(&arg, args.next())?),
                Flag::MetricsOut => opts.metrics_out = Some(parse_value(&arg, args.next())?),
                Flag::MetricsInterval => {
                    let secs: f64 = parse_value(&arg, args.next())?;
                    if !(secs.is_finite() && secs > 0.0) {
                        return Err(format!("flag `{arg}`: must be finite and > 0"));
                    }
                    opts.metrics_interval = Some(secs);
                }
                Flag::Racks => {
                    let racks: u32 = parse_value(&arg, args.next())?;
                    if racks == 0 {
                        return Err(format!("flag `{arg}`: must be >= 1"));
                    }
                    opts.racks = Some(racks);
                }
                Flag::Oversubscription => {
                    let ratio: f64 = parse_value(&arg, args.next())?;
                    if !(ratio.is_finite() && ratio >= 1.0) {
                        return Err(format!("flag `{arg}`: must be finite and >= 1"));
                    }
                    opts.oversubscription = Some(ratio);
                }
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments as [`Options::parse`] does; on an
    /// error, or `--help`, prints the message and exits with status 2.
    pub fn from_env(flags: &[Flag], selectors: &[&str]) -> Options {
        Options::parse(std::env::args().skip(1), flags, selectors).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Whether the command runs the part named `selector`: it chose
    /// that one, or none, which runs every part.
    pub fn selects(&self, selector: &str) -> bool {
        self.selector.as_deref().is_none_or(|s| s == selector)
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("flag `{flag}` needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("flag `{flag}`: cannot parse `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()), &Flag::ALL, &["a", "b"])
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse(&["a", "--paper", "--runs", "3", "--seed", "7", "--csv"]).unwrap();
        assert!(o.paper);
        assert!(o.csv);
        assert_eq!(o.runs, Some(3));
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.selector.as_deref(), Some("a"));
        assert!(o.selects("a"));
        assert!(!o.selects("b"));
        assert!(parse(&[]).unwrap().selects("b"));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["c"]).is_err());
        assert!(parse(&["a", "b"]).is_err());
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "x"]).is_err());
        assert!(parse(&["--report-json"]).is_err());
    }

    #[test]
    fn parses_report_json_path() {
        let o = parse(&["--report-json", "/tmp/r.json"]).unwrap();
        assert_eq!(o.report_json.as_deref(), Some("/tmp/r.json"));
        assert!(parse(&[]).unwrap().report_json.is_none());
    }

    #[test]
    fn parses_trace_out_path() {
        let o = parse(&["--trace-out", "/tmp/t.jsonl"]).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(parse(&[]).unwrap().trace_out.is_none());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn parses_metrics_flags() {
        let o = parse(&["--metrics-out", "/tmp/m.jsonl", "--metrics-interval", "2.5"]).unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("/tmp/m.jsonl"));
        assert_eq!(o.metrics_interval, Some(2.5));
        assert!(parse(&[]).unwrap().metrics_out.is_none());
        assert!(parse(&["--metrics-out"]).is_err());
        assert!(parse(&["--metrics-interval", "0"]).is_err());
        assert!(parse(&["--metrics-interval", "nope"]).is_err());
    }

    #[test]
    fn parses_topology_flags() {
        let o = parse(&["--racks", "4", "--oversubscription", "2.5"]).unwrap();
        assert_eq!(o.racks, Some(4));
        assert_eq!(o.oversubscription, Some(2.5));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.racks, None);
        assert_eq!(defaults.oversubscription, None);
        assert!(parse(&["--racks", "0"]).is_err());
        assert!(parse(&["--oversubscription", "0.5"]).is_err());
        assert!(parse(&["--oversubscription", "inf"]).is_err());
    }

    #[test]
    fn empty_args_are_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, Options::default());
    }
}

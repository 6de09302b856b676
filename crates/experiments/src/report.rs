//! Plain-text rendering of experiment results in the paper's layouts.
//!
//! Figures 3 and 4 are line charts (x → one value per series); Figure 5
//! is stacked bars (x × series → four overhead components). The
//! renderers here produce fixed-width text tables with the same rows and
//! series, plus CSV for external plotting.

use std::collections::BTreeSet;

use crate::emulated::SweepPoint;

/// A single (x, series, value) measurement for pivot rendering.
pub type Entry = (f64, String, f64);

/// Pivots entries into a fixed-width table: one row per x value, one
/// column per series.
///
/// # Examples
///
/// ```
/// use adapt_experiments::report::pivot_table;
///
/// let entries = vec![
///     (4.0, "A".to_string(), 1.0),
///     (4.0, "B".to_string(), 2.0),
///     (8.0, "A".to_string(), 3.0),
///     (8.0, "B".to_string(), 4.0),
/// ];
/// let table = pivot_table(&entries, "bw");
/// assert!(table.contains("bw"));
/// assert!(table.contains("A"));
/// ```
pub fn pivot_table(entries: &[Entry], x_label: &str) -> String {
    let mut xs: Vec<f64> = Vec::new();
    for (x, _, _) in entries {
        if !xs.iter().any(|v| v.to_bits() == x.to_bits()) {
            xs.push(*x);
        }
    }
    xs.sort_by(f64::total_cmp);
    let mut series: Vec<&str> = Vec::new();
    for (_, s, _) in entries {
        if !series.contains(&s.as_str()) {
            series.push(s);
        }
    }

    let mut out = String::new();
    out.push_str(&format!("{x_label:>12}"));
    for s in &series {
        out.push_str(&format!(" {s:>16}"));
    }
    out.push('\n');
    for &x in &xs {
        out.push_str(&format!("{x:>12.3}"));
        for s in &series {
            let v = entries
                .iter()
                .find(|(ex, es, _)| ex.to_bits() == x.to_bits() && es == s)
                .map(|(_, _, v)| *v);
            match v {
                Some(v) => out.push_str(&format!(" {v:>16.3}")),
                None => out.push_str(&format!(" {:>16}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders entries as CSV (`x,series,value`).
pub fn to_csv(entries: &[Entry], x_label: &str, value_label: &str) -> String {
    let mut out = format!("{x_label},series,{value_label}\n");
    for (x, s, v) in entries {
        out.push_str(&format!("{x},{s},{v}\n"));
    }
    out
}

/// Extracts elapsed-time entries (Figure 3) from emulated sweep points.
pub fn elapsed_entries(points: &[SweepPoint]) -> Vec<Entry> {
    points
        .iter()
        .map(|p| (p.x, p.series(), p.agg.elapsed.mean()))
        .collect()
}

/// Extracts locality entries (Figure 4) from emulated sweep points.
pub fn locality_entries(points: &[SweepPoint]) -> Vec<Entry> {
    points
        .iter()
        .map(|p| (p.x, p.series(), p.agg.locality.mean()))
        .collect()
}

/// Renders the Figure 5 overhead decomposition: one row per (x, series),
/// columns rework/recovery/migration/misc/total (ratios to the base).
pub fn overhead_table(points: &[SweepPoint], x_label: &str) -> String {
    let mut xs: BTreeSet<u64> = BTreeSet::new();
    for p in points {
        xs.insert(p.x.to_bits());
    }
    let mut out = format!(
        "{:>10} {:>16} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        x_label, "series", "rework", "recovery", "migrate", "misc", "total"
    );
    for xb in xs {
        let x = f64::from_bits(xb);
        for p in points.iter().filter(|p| p.x.to_bits() == xb) {
            out.push_str(&format!(
                "{:>10.1} {:>16} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                x,
                p.series(),
                p.agg.rework_ratio.mean(),
                p.agg.recovery_ratio.mean(),
                p.agg.migration_ratio.mean(),
                p.agg.misc_ratio.mean(),
                p.agg.total_overhead_ratio.mean(),
            ));
        }
    }
    out
}

/// Figure 5 CSV: one row per (x, series) with all components.
pub fn overhead_csv(points: &[SweepPoint], x_label: &str) -> String {
    let mut out = format!("{x_label},series,rework,recovery,migration,misc,total\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            p.x,
            p.series(),
            p.agg.rework_ratio.mean(),
            p.agg.recovery_ratio.mean(),
            p.agg.migration_ratio.mean(),
            p.agg.misc_ratio.mean(),
            p.agg.total_overhead_ratio.mean(),
        ));
    }
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use adapt_sim::runner::aggregate;
    use adapt_sim::SimReport;

    fn report(elapsed: f64) -> SimReport {
        SimReport {
            elapsed,
            tasks: 10,
            local_tasks: 9,
            base_work: 120.0,
            rework: 12.0,
            recovery: 6.0,
            migration: 24.0,
            misc: 3.0,
            completed: true,
            ..SimReport::default()
        }
    }

    fn sweep_point(x: f64, policy: PolicyKind) -> SweepPoint {
        SweepPoint {
            x,
            policy,
            replication: 1,
            agg: aggregate([report(100.0 * x)]),
        }
    }

    #[test]
    fn pivot_orders_x_and_preserves_series_order() {
        let entries = vec![
            (8.0, "B".to_string(), 2.0),
            (4.0, "B".to_string(), 1.0),
            (4.0, "A".to_string(), 3.0),
        ];
        let t = pivot_table(&entries, "x");
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("B"));
        assert!(lines[0].contains("A"));
        assert!(lines[1].starts_with(&format!("{:>12.3}", 4.0)));
        assert!(lines[2].starts_with(&format!("{:>12.3}", 8.0)));
        // Missing (8, A) renders as a dash.
        assert!(lines[2].contains('-'));
    }

    #[test]
    fn csv_emits_one_row_per_entry() {
        let entries = vec![(1.0, "s".to_string(), 2.5)];
        let csv = to_csv(&entries, "x", "elapsed");
        assert_eq!(csv, "x,series,elapsed\n1,s,2.5\n");
    }

    #[test]
    fn entry_extractors_use_aggregate_means() {
        let p = sweep_point(2.0, PolicyKind::Adapt);
        let e = elapsed_entries(std::slice::from_ref(&p));
        assert_eq!(e[0].0, 2.0);
        assert_eq!(e[0].1, "ADAPT-1rep");
        assert!((e[0].2 - 200.0).abs() < 1e-9);
        let l = locality_entries(std::slice::from_ref(&p));
        assert!((l[0].2 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn overhead_table_contains_all_components() {
        let p = sweep_point(1.0, PolicyKind::Random);
        let t = overhead_table(std::slice::from_ref(&p), "bw");
        assert!(t.contains("rework"));
        assert!(t.contains("existing-1rep"));
        assert!(t.contains("0.100")); // rework ratio 12/120
        let csv = overhead_csv(std::slice::from_ref(&p), "bw");
        assert!(csv.starts_with("bw,series,"));
        assert!(csv.contains("existing-1rep"));
    }
}

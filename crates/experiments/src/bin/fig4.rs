//! Regenerates Figure 4: data locality in the emulated non-dedicated
//! cluster.
//!
//! Usage: `fig4 [a|b|c] [--paper] [--runs N] [--nodes N] [--seed N] [--csv]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The selector picks one sub-figure of
//! [`FIGURE3`](adapt_experiments::emulated::FIGURE3), which declares the
//! sweeps; none runs all three. `fig3` runs the same sweeps and
//! tabulates elapsed time instead. The last six flags write the outputs
//! of one probe run (`adapt_experiments::run_report`) at the same node
//! count and seed.

use adapt_experiments::emulated::Plot;
use adapt_experiments::report::locality_entries;

fn main() {
    Plot {
        tool: "fig4",
        title: "Figure 4: data locality",
        column: "locality",
        entries: locality_entries,
    }
    .main();
}

//! The two source rules that clippy cannot express.
//!
//! * Equations (3)/(5) divide by the M/G/1 busy-period denominator
//!   `1 - rho`, which diverges at `rho = 1`. Non-test code in the model
//!   crates may divide by `(1.0 - …)` only in a file that also names the
//!   stability guard: `UnstableQueue`, `is_stable` or `>= 1.0`.
//! * Every crate inherits the lint levels of the root `Cargo.toml`.

use std::fs;
use std::path::{Path, PathBuf};

// The known-bad and known-good fixtures, and test code, which is exempt.
const BAD: &str = "pub fn busy_period(mu: f64, rho: f64) -> f64 {\n    mu / (1.0 - rho)\n}\n";
const GOOD: &str = "pub fn busy_period(mu: f64, rho: f64) -> Result<f64, QueueError> {
    if rho >= 1.0 { return Err(QueueError::UnstableQueue { rho }); }
    Ok(mu / (1.0 - rho))
}";
const TEST_ONLY: &str = "#[cfg(test)]\nmod tests {\n    fn t() -> f64 { 4.0 / (1.0 - 0.4) }\n}\n";

/// `source` without comments and whitespace and, unless `keep_tests`,
/// without the items annotated `#[cfg(test)]` or `#[test]`.
fn squashed_code(source: &str, keep_tests: bool) -> String {
    let mut out = String::new();
    // Inside a skipped test item: its brace depth, and whether its body opened.
    let mut skipping: Option<(usize, bool)> = None;
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or_default();
        let trimmed = code.trim();
        if !keep_tests && skipping.is_none() && ["#[cfg(test)]", "#[test]"].contains(&trimmed) {
            skipping = Some((0, false));
        }
        let Some((depth, opened)) = skipping.as_mut() else {
            out.extend(code.chars().filter(|c| !c.is_whitespace()));
            continue;
        };
        let opens = code.matches('{').count();
        *depth = (*depth + opens).saturating_sub(code.matches('}').count());
        *opened |= opens > 0;
        if (*opened && *depth == 0) || (!*opened && trimmed.ends_with(';')) {
            skipping = None;
        }
    }
    out
}

fn has_denominator(source: &str) -> bool {
    squashed_code(source, false).contains("/(1.0-")
}

fn has_unguarded_denominator(source: &str) -> bool {
    let code = squashed_code(source, true);
    let guards = ["UnstableQueue", "is_stable", ">=1.0"];
    has_denominator(source) && !guards.iter().any(|g| code.contains(g))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).expect("source directory is readable");
    for path in entries.map(|e| e.expect("entry").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn unstable_denominators_sit_behind_a_stability_guard() {
    let fixtures = [BAD, GOOD, TEST_ONLY].map(has_unguarded_denominator);
    assert_eq!(fixtures, [true, false, false]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["availability", "core"] {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    let mut sites = 0;
    for path in files {
        let source = fs::read_to_string(&path).expect("source file is readable");
        sites += usize::from(has_denominator(&source));
        let unguarded = has_unguarded_denominator(&source);
        assert!(!unguarded, "unguarded: {}", path.display());
    }
    // task_model.rs (eq. (5)) and mg1.rs (eq. (3)): the scan must see both.
    assert!(sites >= 2, "only {sites} files divide by `(1.0 - …)`");
}

#[test]
fn every_crate_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    let crate_manifests = crates.map(|e| e.expect("entry").path().join("Cargo.toml"));
    let manifests: Vec<PathBuf> = crate_manifests.chain([root.join("Cargo.toml")]).collect();
    assert!(manifests.len() > 10, "workspace walk looks truncated");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        let inherits = text.contains("\n[lints]\nworkspace = true\n");
        assert!(inherits, "{} lacks [lints]", manifest.display());
    }
}

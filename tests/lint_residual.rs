//! The three source rules that clippy cannot express.
//!
//! * Equations (3)/(5) divide by the M/G/1 busy-period denominator
//!   `1 - rho`, which diverges at `rho = 1`. Non-test code in the model
//!   crates may divide by `(1.0 - …)` only in a file that also names the
//!   stability guard: `UnstableQueue`, `is_stable` or `>= 1.0`.
//! * Library code returns typed errors instead of panicking, so non-test
//!   code under `crates/*/src` calls no `assert!`, `assert_eq!` or
//!   `assert_ne!`. `debug_assert!` and doc examples are exempt. (Clippy's
//!   `disallowed_macros` cannot exempt test code without an `#[expect]`
//!   on every test module.)
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

// The same three for the library-`assert!` rule.
const ASSERT_BAD: &str = "pub fn push(&mut self, time: f64) {
    assert!(!time.is_nan(), \"event time must not be NaN\");
}";
const ASSERT_GOOD: &str = "/// ```
/// assert_eq!(queue.len(), 0);
/// ```
pub fn push(&mut self, time: f64) -> Result<(), SimError> {
    debug_assert_ne!(self.seq, u64::MAX);
    if time.is_nan() { return Err(SimError::Nan); }
    Ok(())
}";
const ASSERT_TEST_ONLY: &str = "#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); assert_eq!(1, 1); assert_ne!(1, 2); }
}
";

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

/// Whether non-test code of `source` calls `assert!`, `assert_eq!` or
/// `assert_ne!` (a `debug_` or other identifier prefix does not count).
fn has_library_assert(source: &str) -> bool {
    let code = squashed_code(source, false);
    let prefixed = |i: usize| code[..i].ends_with(|c: char| c == '_' || c.is_alphanumeric());
    ["assert!", "assert_eq!", "assert_ne!"]
        .iter()
        .any(|name| code.match_indices(name).any(|(i, _)| !prefixed(i)))
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
    let mut sites = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path).expect("source file is readable");
        let unguarded = has_unguarded_denominator(&source);
        assert!(!unguarded, "unguarded: {}", path.display());
        if has_denominator(&source) {
            sites.push(path);
        }
    }
    // Eq. (3)'s μ/(1 − λμ) lives in task_model.rs: the scan must see it.
    let eq3 = root.join("crates/availability/src/task_model.rs");
    assert!(
        sites.contains(&eq3),
        "no `(1.0 - …)` found in {}: {sites:?}",
        eq3.display()
    );
}

#[test]
fn library_code_does_not_assert() {
    let fixtures = [ASSERT_BAD, ASSERT_GOOD, ASSERT_TEST_ONLY].map(has_library_assert);
    assert_eq!(fixtures, [true, false, false]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    let mut files = Vec::new();
    for krate in crates.map(|e| e.expect("entry").path()) {
        rust_files(&krate.join("src"), &mut files);
    }
    assert!(files.len() > 100, "workspace walk looks truncated");
    for path in files {
        let source = fs::read_to_string(&path).expect("source file is readable");
        assert!(
            !has_library_assert(&source),
            "assert in library code: {}",
            path.display()
        );
    }
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

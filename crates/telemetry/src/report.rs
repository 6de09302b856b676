//! [`RunReport`]: the deterministic run-report document.
//!
//! A report is a two-level JSON object:
//!
//! ```json
//! {
//!   "meta": { "schema_version": 1, "tool": "table1", "seed": 2012, ... },
//!   "sections": { "sim_engine": {...}, "namenode": {...}, ... }
//! }
//! ```
//!
//! `meta` describes the run configuration (tool name, seed, node count —
//! all inputs, never environment), and each `sections` entry is one
//! instrumented component's snapshot. Because the content is derived only
//! from configuration and simulated execution, and the serializer is
//! deterministic, a fixed seed yields a byte-identical file — the
//! experiments crate's `baselines` test compares reports byte for byte
//! and fails on any drift.

use std::io;
use std::path::Path;

use crate::json::Value;

/// Version of the report layout; bump when renaming sections or keys so
/// the CI baseline is regenerated deliberately rather than silently.
pub const SCHEMA_VERSION: u64 = 1;

/// A deterministic, mergeable run report.
#[derive(Debug, Clone)]
pub struct RunReport {
    meta: Value,
    sections: Value,
}

impl RunReport {
    /// Creates an empty report for the named tool (e.g. `"table1"`).
    pub fn new(tool: &str) -> Self {
        let mut meta = Value::object();
        meta.insert("schema_version", SCHEMA_VERSION);
        meta.insert("tool", tool);
        RunReport {
            meta,
            sections: Value::object(),
        }
    }

    /// Records a configuration input in `meta` (seed, node count, ...).
    /// Never put wall-clock times, hostnames, or paths here: reports
    /// must be byte-identical across machines for a fixed seed.
    pub fn set_meta(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.meta.insert(key, value);
        self
    }

    /// Adds (or replaces) a named component section.
    pub fn set_section(&mut self, name: &str, section: Value) -> &mut Self {
        self.sections.insert(name, section);
        self
    }

    /// Borrow a section, if present.
    pub fn section(&self, name: &str) -> Option<&Value> {
        self.sections.get(name)
    }

    /// The full document as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut root = Value::object();
        root.insert("meta", self.meta.clone());
        root.insert("sections", self.sections.clone());
        root
    }

    /// Pretty, deterministic JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Writes the report to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_layout_is_deterministic() {
        let build = || {
            let mut r = RunReport::new("demo");
            r.set_meta("seed", 42u64);
            let mut s = Value::object();
            s.insert("events", 7u64);
            r.set_section("engine", s);
            r.to_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.starts_with("{\n  \"meta\""));
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"tool\": \"demo\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn sections_are_retrievable() {
        let mut r = RunReport::new("t");
        let mut s = Value::object();
        s.insert("x", 1u64);
        r.set_section("a", s);
        assert_eq!(
            r.section("a").and_then(|s| s.get("x")),
            Some(&Value::U64(1))
        );
        assert!(r.section("missing").is_none());
    }
}

//! Structured diagnostics: one [`ConfigReport`] per analyzed configuration.
//!
//! Every static check — buffer sufficiency, protocol hazards, dependency
//! cycles, header round-trips — deposits [`Diagnostic`]s into a shared
//! report instead of failing on the first violation, so a CLI user sees
//! the whole picture in one pass. Severity is two-level:
//!
//! * [`Severity::Error`] — the configuration is provably unsafe or
//!   inconsistent (a worm can wedge, a header cannot decode); builders
//!   must reject it.
//! * [`Severity::Warning`] — the configuration admits a hazard under some
//!   workloads (e.g. synchronous replication's grant-wait cycles) but is
//!   not unconditionally broken; runs proceed at the user's risk.

use crate::json::Json;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Hazardous under some workloads; runs are allowed.
    Warning,
    /// Provably unsafe or inconsistent; builders must reject the config.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding of the static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (kebab-case), e.g. `cb-packet-exceeds-cq`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description naming the offending values.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )
    }
}

/// One dependency cycle found in the channel-dependency graph: the channel
/// descriptions on the cycle and the labeled edges inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// Human-readable descriptions of the channels on the cycle, in order.
    pub channels: Vec<String>,
    /// `switch / in-port -> out-port (shape)` labels of the edges that
    /// close the cycle.
    pub edges: Vec<String>,
}

/// Coverage counters: how much the analysis actually looked at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Directed channels (CDG nodes) enumerated.
    pub channels: usize,
    /// Dependency edges enumerated.
    pub dependencies: usize,
    /// Strongly connected components examined.
    pub sccs: usize,
    /// Reachability bit-strings round-tripped through the switch decode.
    pub roundtrips: usize,
}

/// The full result of statically analyzing one configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigReport {
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
    /// Dependency cycles (each also surfaces as an Error diagnostic).
    pub cycles: Vec<CycleReport>,
    /// Coverage counters.
    pub stats: AnalysisStats,
}

impl ConfigReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        ConfigReport::default()
    }

    /// Records an error finding.
    pub fn error(&mut self, code: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
        });
    }

    /// Records a warning finding.
    pub fn warning(&mut self, code: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
        });
    }

    /// All error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// All warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The first error, if any (what `Result`-based callers surface).
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.errors().next()
    }

    /// `true` if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.first_error().is_some()
    }

    /// `true` if there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Collapses the report into a `Result`, keeping the first error's
    /// message.
    pub fn into_result(self) -> Result<ConfigReport, Diagnostic> {
        match self.first_error() {
            Some(d) => Err(d.clone()),
            None => Ok(self),
        }
    }

    /// Renders the report for terminals: a one-line verdict plus one line
    /// per finding and per cycle.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let verdict = if errors > 0 {
            "REJECTED"
        } else if warnings > 0 {
            "PASSED with warnings"
        } else {
            "PASSED"
        };
        out.push_str(&format!(
            "{verdict}: {errors} error(s), {warnings} warning(s) \
             [{} channels, {} dependencies, {} SCCs, {} header round-trips]\n",
            self.stats.channels, self.stats.dependencies, self.stats.sccs, self.stats.roundtrips
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        for (i, c) in self.cycles.iter().enumerate() {
            out.push_str(&format!("  cycle {}: {}\n", i, c.channels.join(" -> ")));
            for e in &c.edges {
                out.push_str(&format!("    via {e}\n"));
            }
        }
        out
    }

    /// Renders the report as a self-contained JSON object.
    pub fn render_json(&self) -> String {
        let strs = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::Obj(vec![
                ("code", Json::str(d.code)),
                ("severity", Json::str(d.severity.label())),
                ("message", Json::str(&d.message)),
            ])
        });
        let cycles = self.cycles.iter().map(|c| {
            Json::Obj(vec![
                ("channels", strs(&c.channels)),
                ("edges", strs(&c.edges)),
            ])
        });
        let stats = Json::Obj(vec![
            ("channels", Json::raw(self.stats.channels)),
            ("dependencies", Json::raw(self.stats.dependencies)),
            ("sccs", Json::raw(self.stats.sccs)),
            ("roundtrips", Json::raw(self.stats.roundtrips)),
        ]);
        Json::Obj(vec![
            ("clean", Json::raw(self.is_clean())),
            ("errors", Json::raw(self.errors().count())),
            ("warnings", Json::raw(self.warnings().count())),
            ("stats", stats),
            ("diagnostics", Json::Arr(diagnostics.collect())),
            ("cycles", Json::Arr(cycles.collect())),
        ])
        .document()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_order_and_label() {
        assert!(Severity::Error > Severity::Warning);
        assert_eq!(Severity::Error.label(), "error");
        assert_eq!(Severity::Warning.label(), "warning");
    }

    #[test]
    fn report_accumulates_and_classifies() {
        let mut r = ConfigReport::new();
        assert!(r.is_clean());
        r.warning("w-code", "a hazard");
        assert!(!r.is_clean());
        assert!(!r.has_errors());
        r.error("e-code", "a violation");
        assert!(r.has_errors());
        assert_eq!(r.first_error().unwrap().code, "e-code");
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        let err = r.clone().into_result().unwrap_err();
        assert_eq!(err.message, "a violation");
    }

    #[test]
    fn clean_report_into_result_is_ok() {
        let mut r = ConfigReport::new();
        r.warning("w", "only a warning");
        assert!(r.into_result().is_ok());
    }

    #[test]
    fn human_rendering_names_findings() {
        let mut r = ConfigReport::new();
        r.error("cb-packet-exceeds-cq", "packet too big");
        r.cycles.push(CycleReport {
            channels: vec!["s0.p1".into(), "s1.p0".into()],
            edges: vec!["s1 / in 0 -> out 1 (ascending)".into()],
        });
        let h = r.render_human();
        assert!(h.starts_with("REJECTED: 1 error(s)"), "{h}");
        assert!(h.contains("error[cb-packet-exceeds-cq]: packet too big"));
        assert!(h.contains("cycle 0: s0.p1 -> s1.p0"));
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut r = ConfigReport::new();
        r.error("code", "with \"quotes\"\nand newline");
        let j = r.render_json();
        assert!(j.contains("\\\"quotes\\\"\\nand newline"), "{j}");
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"errors\": 1"));
    }
}

//! The diagnostic model shared by every lint pass.

use cirfix_ast::NodeId;
use cirfix_telemetry::{Event, LintEvent};

/// How bad a finding is.
///
/// Only [`Severity::Error`] findings gate candidate mutants in the
/// repair loop's static filter; warnings are advisory and surface in
/// the `lint` CLI output and telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but potentially intentional.
    Warning,
    /// Almost certainly a defect (or unsynthesizable construct).
    Error,
}

impl Severity {
    /// Lower-case name, as written to the JSON stream.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint finding, anchored to an AST node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kebab-case code, e.g. `"multiple-drivers"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// The AST node the finding points at.
    pub node_id: NodeId,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: &'static str, node_id: NodeId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            node_id,
            message: message.into(),
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: &'static str, node_id: NodeId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            node_id,
            message: message.into(),
        }
    }

    /// Human-readable one-line rendering, e.g.
    /// `counter: error[multiple-drivers] @node 17: ...`.
    pub fn render(&self, module: &str) -> String {
        format!(
            "{}: {}[{}] @node {}: {}",
            module,
            self.severity.as_str(),
            self.code,
            self.node_id,
            self.message
        )
    }
}

/// Converts a finding into the telemetry event used by both the `lint`
/// CLI's `--json` mode and the repair loop's trace stream, so the two
/// emit byte-identical lines for the same finding.
pub fn diagnostic_event(module: &str, diag: &Diagnostic) -> Event {
    Event::Lint(LintEvent {
        module: module.to_string(),
        code: diag.code.to_string(),
        severity: diag.severity.as_str().to_string(),
        node_id: u64::from(diag.node_id),
        message: diag.message.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_telemetry::parse_json;

    #[test]
    fn render_and_event_agree_on_fields() {
        let d = Diagnostic::error("multiple-drivers", 17, "`q` is driven from 2 places");
        let line = d.render("counter");
        assert_eq!(
            line,
            "counter: error[multiple-drivers] @node 17: `q` is driven from 2 places"
        );
        let json = diagnostic_event("counter", &d).to_json();
        parse_json(&json).expect("valid JSON line");
        assert!(json.contains("\"code\":\"multiple-drivers\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"node_id\":17"));
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }
}

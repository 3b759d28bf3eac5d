//! Findings: what the analyzer reports and how severe each item is.

use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The architecture is invalid or degenerate; reject it.
    Error,
    /// Suspicious but trainable (e.g. a latent node that never reaches the
    /// block output); report, don't reject.
    Warning,
}

/// The class of defect a finding describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Structurally broken block DAG (non-forward edge, index out of
    /// range, fewer than two nodes).
    MalformedBlock,
    /// A latent node with no incoming edge at all.
    DanglingNode,
    /// The macro backbone wires a block to a source that doesn't exist yet.
    BadBackbone,
    /// Every incoming edge of a node is `zero`: the node is identically 0.
    AllZeroInput,
    /// A parametric edge no gradient can reach (behind `zero` on every
    /// path from input or to output).
    StarvedParam,
    /// A latent node whose output never reaches the block output through
    /// a non-`zero` path (wasted compute, not fatal).
    DeadNode,
    /// The statically priced cost of the architecture exceeds a configured
    /// resource budget (per-step FLOPs, peak arena bytes, or predicted
    /// latency); the finding names the offending step.
    OverBudget,
}

/// One analyzer finding: what, where, how severe, and a human-readable
/// message naming the offending node/edge.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Defect class.
    pub kind: FindingKind,
    /// Error (reject) or warning (report).
    pub severity: Severity,
    /// Where: `"block0.e2"`, `"block1 node 3"`, `"backbone[2]"`, …
    pub site: String,
    /// What went wrong, in terms of the named node/edge.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "[{sev}] {:?} at {}: {}",
            self.kind, self.site, self.message
        )
    }
}

/// The analyzer's verdict on one architecture.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Everything the passes flagged.
    pub findings: Vec<Finding>,
    /// Per block, per edge (in `BlockSpec::edges` order): can a gradient
    /// flow through this edge? `zero` edges are always dead. Exposed so
    /// the sweep binary can cross-check against the runtime tape audit.
    pub edge_liveness: Vec<Vec<bool>>,
}

impl VerifyReport {
    /// True when no `Error`-severity finding was recorded.
    pub fn is_ok(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    /// Record an error-severity finding.
    pub fn error(
        &mut self,
        kind: FindingKind,
        site: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.findings.push(Finding {
            kind,
            severity: Severity::Error,
            site: site.into(),
            message: message.into(),
        });
    }

    pub(crate) fn warning(
        &mut self,
        kind: FindingKind,
        site: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.findings.push(Finding {
            kind,
            severity: Severity::Warning,
            site: site.into(),
            message: message.into(),
        });
    }
}

/// A rejected architecture, carrying the full report.
#[derive(Clone, Debug)]
pub struct VerifyError {
    /// The report whose errors caused the rejection.
    pub report: VerifyReport,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errs: Vec<String> = self.report.errors().map(ToString::to_string).collect();
        write!(f, "architecture rejected: {}", errs.join("; "))
    }
}

impl std::error::Error for VerifyError {}

//! Determinism audit over the tensor kernel registry.
//!
//! Every parallel kernel in `cts-tensor` must route through a registered
//! [`KernelSpec`](cts_tensor::parallel::KernelSpec), and
//! `parallel::for_units` only writes disjoint output units; the runtime
//! entry points panic on unregistered specs. This pass machine-checks the registry invariants the
//! runtime check relies on, so `cts-verify` can vouch that a build only
//! ships deterministic kernels.
//!
//! Since the SIMD layer landed, each spec also declares its lane shape
//! ([`cts_tensor::parallel::SimdContract`]): the audit enforces that
//! scalar-only kernels declare width 1 and vectorized kernels declare the
//! canonical [`cts_tensor::simd::LANES`] width, and the exhaustive
//! [`LaneOrder`] match forces this audit to be revisited whenever a new
//! (potentially order-sensitive) lane strategy is introduced.

use crate::finding::{Finding, FindingKind, Severity};
use cts_tensor::parallel::{kernels, LaneOrder};
use std::collections::HashSet;

/// One registry entry, as seen by the audit.
#[derive(Clone, Debug)]
pub struct KernelEntry {
    /// Registry name (unique).
    pub name: &'static str,
    /// Declared SIMD lane width (1 = scalar only).
    pub lane_width: usize,
    /// Declared lane-order contract for the vector path.
    pub lane_order: LaneOrder,
}

/// The audit's verdict: the registry contents plus any violations.
#[derive(Clone, Debug)]
pub struct DeterminismReport {
    /// Every registered kernel.
    pub kernels: Vec<KernelEntry>,
    /// Invariant violations (empty on a healthy build).
    pub findings: Vec<Finding>,
}

impl DeterminismReport {
    /// True when the registry upholds every invariant.
    pub fn is_ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audit the kernel registry: non-empty, unique names, and every lane
/// width consistent with its lane-order contract.
pub fn audit_determinism() -> DeterminismReport {
    let mut findings = Vec::new();
    let mut entries = Vec::with_capacity(kernels::ALL.len());
    if kernels::ALL.is_empty() {
        findings.push(finding(
            "registry",
            "the kernel registry is empty: no parallel kernel can prove its schedule",
        ));
    }
    let mut seen = HashSet::new();
    for spec in kernels::ALL {
        if spec.name.is_empty() {
            findings.push(finding("registry", "a kernel spec has an empty name"));
        }
        if !seen.insert(spec.name) {
            findings.push(finding(
                spec.name,
                format!("duplicate kernel name `{}`: audit cannot distinguish the entries", spec.name),
            ));
        }
        // A lane-order declaration must be consistent with its width:
        // scalar-only kernels have no lanes, vectorized kernels must be
        // written for the canonical width so every dispatch level runs the
        // same lane layout.
        match spec.simd.order {
            LaneOrder::ScalarOnly => {
                if spec.simd.lane_width != 1 {
                    findings.push(finding(
                        spec.name,
                        format!(
                            "kernel `{}` declares ScalarOnly but lane width {} — scalar kernels must declare width 1",
                            spec.name, spec.simd.lane_width
                        ),
                    ));
                }
            }
            LaneOrder::ElementChains | LaneOrder::PinnedMaxTree => {
                if spec.simd.lane_width != cts_tensor::simd::LANES {
                    findings.push(finding(
                        spec.name,
                        format!(
                            "kernel `{}` declares a vector lane order at width {} but the SIMD layer is written for {} lanes",
                            spec.name,
                            spec.simd.lane_width,
                            cts_tensor::simd::LANES
                        ),
                    ));
                }
            }
        }
        entries.push(KernelEntry {
            name: spec.name,
            lane_width: spec.simd.lane_width,
            lane_order: spec.simd.order,
        });
    }
    DeterminismReport { kernels: entries, findings }
}

fn finding(site: impl Into<String>, message: impl Into<String>) -> Finding {
    Finding {
        kind: FindingKind::NonDeterministicKernel,
        severity: Severity::Error,
        site: site.into(),
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_audit_is_clean() {
        let report = audit_determinism();
        assert!(report.is_ok(), "{:?}", report.findings);
        assert!(!report.kernels.is_empty());
    }

    #[test]
    fn audit_lists_every_registered_kernel() {
        let report = audit_determinism();
        assert_eq!(report.kernels.len(), kernels::ALL.len());
        assert!(report.kernels.iter().any(|k| k.name == "matmul"));
    }

    #[test]
    fn vectorized_kernels_declare_canonical_lane_width() {
        let report = audit_determinism();
        let mm = report.kernels.iter().find(|k| k.name == "matmul").unwrap();
        assert_eq!(mm.lane_order, LaneOrder::ElementChains);
        assert_eq!(mm.lane_width, cts_tensor::simd::LANES);
        let sm = report.kernels.iter().find(|k| k.name == "softmax.forward").unwrap();
        assert_eq!(sm.lane_order, LaneOrder::PinnedMaxTree);
        // Sequential-sum kernels must stay scalar: vectorizing them would
        // reassociate their single addition chain.
        let lse = report.kernels.iter().find(|k| k.name == "softmax.logsumexp").unwrap();
        assert_eq!(lse.lane_order, LaneOrder::ScalarOnly);
        assert_eq!(lse.lane_width, 1);
    }
}

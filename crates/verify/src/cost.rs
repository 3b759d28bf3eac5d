//! Whole-architecture static resource analysis: FLOPs, bytes, peak arena
//! residency, and predicted latency for a candidate genotype — without
//! training a model or executing a kernel.
//!
//! The per-step prices come from the compiled plan: `autocts::preflight::
//! analyze_cost` compiles the `cts_runtime::ExecPlan` a genotype would
//! serve with and runs its steps on the symbolic `cts_nn::Price` backend,
//! so the program's step order is the plan compiler's and each kernel's
//! price is `Price`'s. [`CostReport::from_steps`] rolls those steps up;
//! the per-step `flops`/`bytes` are **exact** against the instrumented
//! kernel meter, and two peak-memory estimates come out of them:
//!
//! * `peak_bytes` — *plan-faithful*: workspace slots fill in emission order
//!   and are never freed mid-run (matching `ExecPlan`'s persistent slots),
//!   plus each step's transient scratch upper bound. This is the number to
//!   compare against observed arena residency: it must never under-count.
//! * `ideal_peak_bytes` — the liveness-interval lower target: slots are
//!   freed immediately after their last use. The gap between the two is
//!   the headroom a smarter slot allocator could reclaim.
//!
//! [`LatencyModel`] converts a cost into predicted nanoseconds with three
//! coefficients (dense flops, light flops, per-dispatch overhead). Its
//! one set of coefficients, `LatencyModel::default()`, is what the search
//! pre-flight, `verify_space` and the `bench_cost` gate all price with.
//!
//! [`check_budgets`] turns a [`CostReport`] plus [`CostBudgets`] into
//! [`FindingKind::OverBudget`] findings naming the offending step — the
//! search pre-flight rejects over-budget genotypes before training spends
//! a single step on them.
//!
//! This file is under the `lint_forbidden.sh` checked-arithmetic rule:
//! every integer size/count product or sum must go through
//! `saturating_*`/`checked_*` (floating-point latency math is exempt).

use crate::finding::{FindingKind, VerifyReport};
use cts_ops::{OpCost, StepCost};

/// The priced architecture: per-step costs, totals, and both peak models.
#[derive(Clone, Debug)]
pub struct CostReport {
    /// Every step in `ExecPlan` emission order.
    pub steps: Vec<StepCost>,
    /// Field-wise total over all steps (params: embedding, every operator
    /// instance, and the output head).
    pub total: OpCost,
    /// Arena-aligned bytes of one `[B, N, T, D]` workspace slot.
    pub slot_bytes: u64,
    /// Number of workspace slots the plan would allocate.
    pub num_slots: usize,
    /// Plan-faithful peak resident bytes (slots persist; never under-counts
    /// observed arena residency).
    pub peak_bytes: u64,
    /// The step at which the plan-faithful walk peaked.
    pub peak_site: String,
    /// Liveness-interval peak (slots freed after last use) — the lower
    /// target an ideal slot allocator could reach.
    pub ideal_peak_bytes: u64,
}

impl CostReport {
    /// Roll priced plan steps (in emission order) up into totals and both
    /// peak models. `num_slots` is the plan's workspace slot count and
    /// `slot_bytes` the arena-aligned size of one slot.
    pub fn from_steps(steps: Vec<StepCost>, num_slots: usize, slot_bytes: u64) -> Self {
        // Plan-faithful peak: slots persist once filled; each step's
        // transient scratch rides on top of the resident set at that moment.
        let mut filled = vec![false; num_slots];
        let mut resident = 0u64;
        let mut peak = 0u64;
        let mut peak_site = String::new();
        for s in &steps {
            let candidate = resident.saturating_add(s.cost.scratch_bytes);
            if candidate > peak {
                peak = candidate;
                peak_site = s.site.clone();
            }
            if s.new_slot && !filled[s.dst] {
                filled[s.dst] = true;
                resident = resident.saturating_add(slot_bytes);
            }
        }

        // Ideal liveness-interval peak: free every slot after its last read.
        let mut last_use = vec![usize::MAX; num_slots];
        for (i, s) in steps.iter().enumerate() {
            for &src in &s.srcs {
                last_use[src] = i;
            }
        }
        let mut live = vec![false; num_slots];
        let mut live_bytes = 0u64;
        let mut ideal = 0u64;
        for (i, s) in steps.iter().enumerate() {
            if s.new_slot && !live[s.dst] {
                live[s.dst] = true;
                live_bytes = live_bytes.saturating_add(slot_bytes);
            }
            let candidate = live_bytes.saturating_add(s.cost.scratch_bytes);
            if candidate > ideal {
                ideal = candidate;
            }
            for &src in &s.srcs {
                if live[src] && last_use[src] == i {
                    live[src] = false;
                    live_bytes = live_bytes.saturating_sub(slot_bytes);
                }
            }
        }

        let total = steps
            .iter()
            .fold(OpCost::default(), |acc, s| acc.saturating_add(&s.cost));
        Self {
            steps,
            total,
            slot_bytes,
            num_slots,
            peak_bytes: peak,
            peak_site,
            ideal_peak_bytes: ideal,
        }
    }

    /// Predicted wall-clock for one forward pass under `model`.
    pub fn predicted_ns(&self, model: &LatencyModel) -> f64 {
        model.predict_ns(&self.total)
    }

    /// The most FLOP-expensive step, when any exist.
    pub fn max_flops_step(&self) -> Option<&StepCost> {
        self.steps.iter().max_by_key(|s| s.cost.flops)
    }
}

/// Resource ceilings the pre-flight enforces; `None` disables a check.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostBudgets {
    /// Reject when any single step exceeds this many FLOPs.
    pub max_flops_per_step: Option<u64>,
    /// Reject when the plan-faithful peak residency exceeds this.
    pub max_peak_bytes: Option<u64>,
    /// Reject when predicted forward latency exceeds this.
    pub max_latency_ms: Option<f32>,
}

impl CostBudgets {
    /// True when every ceiling is disabled (pre-flight can skip pricing).
    pub fn is_unbounded(&self) -> bool {
        self.max_flops_per_step.is_none()
            && self.max_peak_bytes.is_none()
            && self.max_latency_ms.is_none()
    }
}

/// Three-coefficient latency model: `ns = dense·c_d ⊕ light·c_l ⊕ calls·c_k`.
///
/// Dense flops (matmul/conv class) stream through cache-friendly inner
/// loops; "light" flops (element-wise, reductions, softmax) are memory
/// bound and cost more per flop; every kernel dispatch pays a fixed
/// pool/arena overhead.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Nanoseconds per dense (matmul/conv) flop.
    pub dense_ns_per_flop: f64,
    /// Nanoseconds per non-dense flop.
    pub light_ns_per_flop: f64,
    /// Fixed nanoseconds per kernel dispatch.
    pub dispatch_ns: f64,
}

impl Default for LatencyModel {
    /// Conservative single-core defaults (≈6 GFLOP/s dense, ≈6 GFLOP/s
    /// element-wise, ≈2 µs per dispatch) for budget pre-flights run before
    /// any calibration data exists. The flop coefficients are the median
    /// of ten one-thread `bench_cost --gate` refits on a 2-core AVX2 host,
    /// taken after the four-row GEMM microkernel landed (the gate fails if
    /// they drift more than 3x from a fresh refit). Dispatch is the
    /// gate-exempt scheduling term and keeps its conservative value.
    fn default() -> Self {
        Self {
            dense_ns_per_flop: 0.17,
            light_ns_per_flop: 0.17,
            dispatch_ns: 2_000.0,
        }
    }
}

impl LatencyModel {
    /// Predicted nanoseconds for `cost`.
    pub fn predict_ns(&self, cost: &OpCost) -> f64 {
        let dense = cost.dense_flops as f64;
        let light = cost.flops.saturating_sub(cost.dense_flops) as f64;
        let calls = cost.kernel_calls as f64;
        // f64 ns model, not buffer-size arithmetic
        let flops_ns = dense * self.dense_ns_per_flop + light * self.light_ns_per_flop; // f64
        flops_ns + calls * self.dispatch_ns // f64
    }
}

/// Check a priced architecture against resource budgets, recording an
/// [`FindingKind::OverBudget`] error finding (naming the offending step)
/// for every exceeded ceiling.
pub fn check_budgets(
    report: &mut VerifyReport,
    cost: &CostReport,
    budgets: &CostBudgets,
    model: &LatencyModel,
) {
    if let Some(cap) = budgets.max_flops_per_step {
        for s in cost.steps.iter().filter(|s| s.cost.flops > cap) {
            let opname = s
                .kind
                .map_or_else(|| "fixed stage".to_string(), |k| k.to_string());
            report.error(
                FindingKind::OverBudget,
                s.site.clone(),
                format!(
                    "step {site} ({opname}) needs {flops} FLOPs, over the {cap} per-step budget",
                    site = s.site,
                    flops = s.cost.flops,
                ),
            );
        }
    }
    if let Some(cap) = budgets.max_peak_bytes {
        if cost.peak_bytes > cap {
            report.error(
                FindingKind::OverBudget,
                cost.peak_site.clone(),
                format!(
                    "peak resident estimate {peak} bytes (at {site}) exceeds the {cap}-byte arena budget",
                    peak = cost.peak_bytes,
                    site = cost.peak_site,
                ),
            );
        }
    }
    if let Some(cap_ms) = budgets.max_latency_ms {
        let ns = cost.predicted_ns(model);
        let cap_ns = f64::from(cap_ms) * 1.0e6;
        if ns > cap_ns {
            let worst = cost
                .max_flops_step()
                .map_or_else(|| "?".to_string(), |s| s.site.clone());
            report.error(
                FindingKind::OverBudget,
                "model",
                format!(
                    "predicted forward latency {ms:.3} ms exceeds the {cap_ms} ms budget (heaviest step: {worst})",
                    ms = ns / 1.0e6,
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_ops::OpKind;

    fn step(
        site: &str,
        srcs: Vec<usize>,
        dst: usize,
        new_slot: bool,
        flops: u64,
        scratch: u64,
    ) -> StepCost {
        StepCost {
            site: site.to_string(),
            kind: site.contains(".e").then_some(OpKind::Gdcc),
            cost: OpCost {
                flops,
                kernel_calls: 1,
                scratch_bytes: scratch,
                ..OpCost::default()
            },
            srcs,
            dst,
            new_slot,
        }
    }

    /// embed → e0 → e1 → residual(e1, embed) → head, 100-byte slots.
    fn report() -> CostReport {
        let steps = vec![
            step("embed", vec![], 0, true, 1, 10),
            step("block0.e0", vec![0], 1, true, 7, 50),
            step("block0.e1", vec![1], 2, true, 3, 30),
            step("block0 residual", vec![2, 0], 3, true, 2, 20),
            step("output head", vec![3], 3, false, 4, 5),
        ];
        CostReport::from_steps(steps, 4, 100)
    }

    #[test]
    fn rolls_steps_up_into_totals_and_both_peaks() {
        let r = report();
        assert_eq!(r.total.flops, 17);
        assert_eq!(r.total.kernel_calls, 5);
        assert_eq!(r.total.scratch_bytes, 115);
        // Slots persist: four filled slots plus the head's scratch.
        assert_eq!((r.peak_bytes, r.peak_site.as_str()), (405, "output head"));
        // Freed after last use: e1 holds slots 0, 1, 2 plus its scratch.
        assert_eq!(r.ideal_peak_bytes, 330);
        assert_eq!(
            r.max_flops_step().map(|s| s.site.as_str()),
            Some("block0.e0")
        );
    }

    #[test]
    fn per_step_flops_budget_names_the_offending_edge() {
        let cost = report();
        let heavy = cost.max_flops_step().unwrap();
        let budgets = CostBudgets {
            max_flops_per_step: Some(heavy.cost.flops.saturating_sub(1)),
            ..CostBudgets::default()
        };
        let mut report = VerifyReport::default();
        check_budgets(&mut report, &cost, &budgets, &LatencyModel::default());
        let f = report
            .errors()
            .find(|f| f.kind == FindingKind::OverBudget)
            .expect("over-budget finding");
        assert_eq!(f.site, heavy.site);
        assert!(f.message.contains("FLOPs"), "{}", f.message);
    }

    #[test]
    fn peak_and_latency_budgets_fire() {
        let cost = report();
        let budgets = CostBudgets {
            max_peak_bytes: Some(1),
            max_latency_ms: Some(0.0),
            ..CostBudgets::default()
        };
        let mut report = VerifyReport::default();
        check_budgets(&mut report, &cost, &budgets, &LatencyModel::default());
        let over: Vec<_> = report
            .errors()
            .filter(|f| f.kind == FindingKind::OverBudget)
            .collect();
        assert_eq!(over.len(), 2, "{over:?}");
        // Generous budgets pass clean.
        let mut ok = VerifyReport::default();
        check_budgets(
            &mut ok,
            &cost,
            &CostBudgets {
                max_flops_per_step: Some(u64::MAX),
                max_peak_bytes: Some(u64::MAX),
                max_latency_ms: Some(f32::MAX),
            },
            &LatencyModel::default(),
        );
        assert!(ok.is_ok(), "{:?}", ok.findings);
    }

    #[test]
    fn unbounded_budgets_detected() {
        assert!(CostBudgets::default().is_unbounded());
        assert!(!CostBudgets {
            max_peak_bytes: Some(1),
            ..CostBudgets::default()
        }
        .is_unbounded());
    }
}

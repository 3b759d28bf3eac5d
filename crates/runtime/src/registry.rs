//! Registry of compiled plans keyed by model id — the serving layer's
//! lookup table, guarded by a canary gate so a miscompiled plan can never
//! replace a serving one.

use crate::error::ServeError;
use crate::ExecPlan;
use cts_obs::serve as counters;
use cts_tensor::Tensor;
use std::collections::HashMap;
use std::rc::Rc;

/// Maps model ids to compiled [`ExecPlan`]s.
///
/// Plans are shared (`Rc`) so a registry entry, a [`crate::MicroBatcher`]
/// and a latency probe can all hold the same compiled program without
/// duplicating its workspace.
#[derive(Default)]
pub struct PlanRegistry {
    plans: HashMap<String, Rc<ExecPlan>>,
}

impl PlanRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a plan under `id`; returns the plan it
    /// displaced, if any.
    pub fn insert(&mut self, id: impl Into<String>, plan: Rc<ExecPlan>) -> Option<Rc<ExecPlan>> {
        self.plans.insert(id.into(), plan)
    }

    /// Canary-gated registration: run `plan` on a probe window and admit
    /// it under `id` only if the forecast matches the caller's tape
    /// `reference` within `tol`. On failure nothing changes — the
    /// previously registered plan (if any) keeps serving, which is the
    /// rollback — and the rejection is counted and returned as a typed
    /// error.
    ///
    /// # Errors
    /// [`ServeError::CanaryRejected`] when the probe run fails, comes
    /// back with a different shape, or diverges from `reference`.
    pub fn admit(
        &mut self,
        id: impl Into<String>,
        plan: Rc<ExecPlan>,
        probe: &Tensor,
        reference: &Tensor,
        tol: f32,
    ) -> Result<Option<Rc<ExecPlan>>, ServeError> {
        let id = id.into();
        let reject = |cause: String| {
            counters::record_canary_fail();
            ServeError::CanaryRejected {
                id: id.clone(),
                cause,
            }
        };
        let y = plan
            .try_run(probe)
            .map_err(|e| reject(format!("probe run failed: {e}")))?;
        if y.shape() != reference.shape() {
            return Err(reject(format!(
                "probe forecast shape {:?} != reference {:?}",
                y.shape(),
                reference.shape()
            )));
        }
        if !y.approx_eq(reference, tol) {
            return Err(reject(format!(
                "probe forecast diverged from tape reference beyond tol {tol}"
            )));
        }
        counters::record_canary_pass();
        Ok(self.plans.insert(id, plan))
    }

    /// Look up a plan by model id.
    pub fn get(&self, id: &str) -> Option<Rc<ExecPlan>> {
        self.plans.get(id).cloned()
    }

    /// Remove a plan, returning it if it was registered.
    pub fn remove(&mut self, id: &str) -> Option<Rc<ExecPlan>> {
        self.plans.remove(id)
    }

    /// Registered model ids, sorted for deterministic reports.
    pub fn ids(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.plans.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plan is registered.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPlan, PlanSpec};
    use cts_graph::SensorGraph;
    use cts_nn::{fault, Linear};
    use cts_ops::{build_operator, GraphContext, OpKind, StOperator};
    use cts_tensor::init;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn plan(rng: &mut impl Rng) -> Rc<ExecPlan> {
        let (n, t, f, d) = (3, 4, 2, 4);
        let op: Rc<dyn StOperator> = Rc::from(build_operator(rng, OpKind::Gdcc, "op", d, 2, false));
        Rc::new(
            ExecPlan::compile(PlanSpec {
                embed: Rc::new(Linear::new(rng, "embed", f, d, true)),
                output: Rc::new(Linear::new(rng, "output", t * d, 5, true)),
                ctx: Rc::new(GraphContext::from_graph(&SensorGraph::identity(n), 2)),
                blocks: vec![BlockPlan {
                    m: 2,
                    edges: vec![(0, 1, op)],
                }],
                backbone: vec![0],
                out_scale: 1.0,
                out_shift: 0.0,
                input_len: t,
                d_model: d,
                nodes: n,
                features: f,
            })
            .unwrap(),
        )
    }

    #[test]
    fn canary_admits_parity_and_rolls_back_divergence() {
        let mut rng = SmallRng::seed_from_u64(0);
        let good = plan(&mut rng);
        let imposter = plan(&mut rng); // different weights => diverges
        let probe = init::uniform(&mut rng, [1, 3, 4, 2], -1.0, 1.0);
        let reference = good.try_run(&probe).unwrap();
        let mut registry = PlanRegistry::new();
        registry
            .admit("m", Rc::clone(&good), &probe, &reference, 1e-6)
            .unwrap();
        assert!(registry.get("m").is_some());
        // A diverging plan is rejected and the good plan keeps serving.
        let err = match registry.admit("m", Rc::clone(&imposter), &probe, &reference, 1e-6) {
            Err(e) => e,
            Ok(_) => panic!("diverging plan admitted"),
        };
        assert!(matches!(err, ServeError::CanaryRejected { .. }), "{err}");
        assert!(
            Rc::ptr_eq(&registry.get("m").unwrap(), &good),
            "rollback lost the serving plan"
        );
    }

    #[test]
    fn canary_rejects_a_plan_whose_probe_run_fails() {
        let mut rng = SmallRng::seed_from_u64(1);
        let good = plan(&mut rng);
        let probe = init::uniform(&mut rng, [1, 3, 4, 2], -1.0, 1.0);
        let reference = good.try_run(&probe).unwrap();
        let mut registry = PlanRegistry::new();
        fault::arm(fault::FaultPlan {
            fail_plan_run_at: Some(0),
            ..fault::FaultPlan::default()
        });
        let err = match registry.admit("m", Rc::clone(&good), &probe, &reference, 1e-6) {
            Err(e) => e,
            Ok(_) => panic!("failing canary admitted"),
        };
        fault::disarm();
        assert!(err.to_string().contains("probe run failed"), "{err}");
        assert!(registry.is_empty(), "failing canary still registered");
    }
}

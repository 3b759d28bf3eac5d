//! Discretisation: from trained architecture parameters to a [`Genotype`]
//! (§3.2.2, Eq. 7 and the incoming-edge rule; §3.3 argmax-γ backbone).

use crate::micro::pair_index;
use crate::{BlockGenotype, Genotype, MicroCell, SupernetModel};
use cts_ops::OpKind;
use cts_tensor::{ops, Tensor};
use std::fmt;

/// Why discretisation refused an architecture snapshot.
///
/// A NaN or infinite architecture weight would make every Eq. 7 score for
/// its pair NaN; the old code silently sorted NaNs as "equal" and derived
/// an arbitrary genotype. A poisoned snapshot is now a typed error so the
/// caller can surface the diverged search instead of evaluating garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeriveError {
    /// The α (operator-mixture) snapshot contains a non-finite value.
    NonFiniteAlpha,
    /// The β (edge-mixture) snapshot feeding node `node` contains a
    /// non-finite value.
    NonFiniteBeta {
        /// DAG node whose β vector is poisoned (`1 ≤ node < m`).
        node: usize,
    },
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::NonFiniteAlpha => {
                write!(f, "α snapshot contains non-finite architecture weights")
            }
            DeriveError::NonFiniteBeta { node } => {
                write!(f, "β snapshot for node {node} contains non-finite weights")
            }
        }
    }
}

impl std::error::Error for DeriveError {}

/// Derive the discrete architecture from a (partially) trained supernet.
///
/// # Errors
/// [`DeriveError`] when any cell's α/β snapshot contains non-finite values
/// (a diverged search) — deriving from it would pick arbitrary operators.
pub fn derive_genotype(supernet: &SupernetModel) -> Result<Genotype, DeriveError> {
    let cfg = supernet.config();
    let blocks: Vec<BlockGenotype> = supernet
        .cells()
        .iter()
        .map(|cell| derive_block(cell, cfg.edges_per_node))
        .collect::<Result<_, _>>()?;
    let (blocks, backbone) = match supernet.topology() {
        Some(t) => {
            let mut backbone = t.derive();
            // paper convention: block 1 always reads the embedding
            backbone[0] = 0;
            (blocks, backbone)
        }
        None => {
            // w/o macro search: stack the single searched block B times in
            // a chain (block j reads block j-1).
            let block = blocks[0].clone();
            let blocks = vec![block; cfg.b];
            let backbone = (0..cfg.b).collect();
            (blocks, backbone)
        }
    };
    let genotype = Genotype { blocks, backbone };
    // invariant: internal consistency check — derivation must emit valid genotypes.
    genotype
        .validate()
        .expect("derivation produced invalid genotype");
    Ok(genotype)
}

/// Derive one ST-block from a cell's `α`/`β` snapshot.
///
/// Per node `h_j` (Eq. 7 weights `w_o^{(i,j)} = softmax(β)ᵢ · softmax(α)ₒ`):
/// 1. always keep the edge from the immediate predecessor `h_{j-1}` with
///    its best non-zero operator;
/// 2. keep the `edges_per_node − 1` best remaining `(h_i, o)` pairs with
///    distinct `i ≤ j−2`.
///
/// Each pair's α-softmax row is computed exactly once (the old code
/// re-softmaxed per `(i, o)` probe — `O(m²·|O|²)` redundant softmaxes).
///
/// # Errors
/// [`DeriveError`] when the snapshot contains non-finite weights.
pub fn derive_block(cell: &MicroCell, edges_per_node: usize) -> Result<BlockGenotype, DeriveError> {
    let (alpha, betas) = cell.arch_snapshot();
    if !alpha.data().iter().all(|v| v.is_finite()) {
        return Err(DeriveError::NonFiniteAlpha);
    }
    for (idx, beta) in betas.iter().enumerate() {
        if !beta.data().iter().all(|v| v.is_finite()) {
            return Err(DeriveError::NonFiniteBeta { node: idx + 1 });
        }
    }
    let op_set = cell.op_set();
    let m = cell.m();
    let mut edges = Vec::new();
    for j in 1..m {
        let beta_probs = ops::softmax_last(&betas[j - 1].clone().reshaped(vec![1, j]));
        // One α-softmax row per incoming pair (i, j), hoisted out of the
        // per-operator probes below.
        let alpha_rows: Vec<Vec<f32>> = (0..j)
            .map(|i| alpha_row_softmax(&alpha, pair_index(i, j)))
            .collect();
        // Eq. 7 weight for every (i, o)
        let weight = |i: usize, o: usize| -> f32 { beta_probs.at(&[0, i]) * alpha_rows[i][o] };
        // 1. mandatory immediate-predecessor edge
        let best_op = argmax_op(op_set, |o| weight(j - 1, o));
        edges.push((j - 1, j, best_op));
        // 2. extra edges from distinct earlier predecessors
        let mut candidates: Vec<(f32, usize, OpKind)> = (0..j.saturating_sub(1))
            .map(|i| {
                let op = argmax_op(op_set, |o| weight(i, o));
                // invariant: supernet edges draw their ops from this same op set.
                let o_idx = op_set.iter().position(|k| *k == op).expect("op in set");
                (weight(i, o_idx), i, op)
            })
            .collect();
        // Finiteness is established above, so total_cmp is a plain
        // descending order (and deterministic, unlike the old NaN≍Equal).
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (_, i, op) in candidates.into_iter().take(edges_per_node - 1) {
            edges.push((i, j, op));
        }
    }
    Ok(BlockGenotype { m, edges })
}

fn alpha_row_softmax(alpha: &Tensor, pair: usize) -> Vec<f32> {
    let o = alpha.shape()[1];
    let row = ops::slice(alpha, 0, pair, pair + 1);
    ops::softmax_last(&row).data()[..o].to_vec()
}

/// Argmax over non-zero operators (the zero op prunes edges and is never
/// instantiated in a derived block, following DARTS).
fn argmax_op(op_set: &[OpKind], weight: impl Fn(usize) -> f32) -> OpKind {
    let mut best: Option<(f32, OpKind)> = None;
    for (o_idx, kind) in op_set.iter().enumerate() {
        if *kind == OpKind::Zero {
            continue;
        }
        let w = weight(o_idx);
        if best.map(|(bw, _)| w > bw).unwrap_or(true) {
            best = Some((w, *kind));
        }
    }
    // invariant: the compact op set contains non-zero operators.
    best.expect("op set has non-zero operators").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchConfig;
    use rand::{rngs::SmallRng, SeedableRng};

    fn cell(m: usize) -> MicroCell {
        let cfg = SearchConfig {
            m,
            d_model: 4,
            ..Default::default()
        };
        MicroCell::new(&mut SmallRng::seed_from_u64(0), "c", &cfg, false)
    }

    #[test]
    fn block_has_expected_edge_count() {
        let c = cell(5);
        let b = derive_block(&c, 2).unwrap();
        assert_eq!(b.m, 5);
        // node 1: 1 edge; node 2: 2; nodes 3,4: 2 each (cap)
        assert_eq!(b.edges.len(), 1 + 2 + 2 + 2);
        b.validate().unwrap();
        // every node keeps the immediate-predecessor edge
        for j in 1..5 {
            assert!(b.incoming(j).iter().any(|(i, _)| *i == j - 1));
        }
    }

    #[test]
    fn edge3_keeps_more_edges() {
        let c = cell(5);
        let b = derive_block(&c, 3).unwrap();
        // node 1: 1; node 2: 2; node 3: 3; node 4: 3
        assert_eq!(b.edges.len(), 1 + 2 + 3 + 3);
    }

    #[test]
    fn derived_ops_never_zero() {
        let c = cell(4);
        for _ in 0..3 {
            let b = derive_block(&c, 2).unwrap();
            assert!(b.edges.iter().all(|(_, _, op)| *op != OpKind::Zero));
        }
    }

    #[test]
    fn biased_alpha_is_respected() {
        let c = cell(3);
        // bias pair (0,1) hard toward gdcc
        let gdcc = c.op_set().iter().position(|k| *k == OpKind::Gdcc).unwrap();
        {
            let arch = c.arch_parameters();
            let mut a = arch[0].value_mut();
            a.fill(0.0);
            *a.at_mut(&[pair_index(0, 1), gdcc]) = 10.0;
        }
        let b = derive_block(&c, 2).unwrap();
        let (_, op) = b.incoming(1)[0];
        assert_eq!(op, OpKind::Gdcc);
    }

    /// A diverged search leaves NaN/∞ in the architecture weights; the old
    /// sort treated NaN comparisons as Equal and silently derived an
    /// arbitrary genotype. Now it's a typed refusal.
    #[test]
    fn non_finite_snapshot_is_rejected() {
        let c = cell(4);
        {
            let arch = c.arch_parameters();
            let mut a = arch[0].value_mut();
            *a.at_mut(&[0, 0]) = f32::NAN;
        }
        assert_eq!(derive_block(&c, 2), Err(DeriveError::NonFiniteAlpha));

        let c = cell(4);
        {
            let arch = c.arch_parameters();
            // arch = [alpha, beta_1, beta_2, ...]; poison the second beta.
            let mut b = arch[2].value_mut();
            *b.at_mut(&[0]) = f32::INFINITY;
        }
        assert_eq!(
            derive_block(&c, 2),
            Err(DeriveError::NonFiniteBeta { node: 2 })
        );

        // A clean snapshot still derives.
        assert!(derive_block(&cell(4), 2).is_ok());
    }
}

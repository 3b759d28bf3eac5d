//! The macro search space: learnable information flows `γ` among ST-blocks
//! (§3.3, Figure 7).

use cts_autograd::{Parameter, Tape, Var};
use cts_tensor::{init, Tensor};
use rand::Rng;

/// Relaxed backbone topology over `B` blocks.
///
/// Block `j` (1-based) draws its input from a softmax(γ⁽ʲ⁾)-weighted sum of
/// the embedding output (index 0) and the outputs of blocks `1..j-1`
/// (Eq. 18). Deriving keeps the argmax predecessor per block.
pub struct MacroTopology {
    gammas: Vec<Parameter>,
}

impl MacroTopology {
    /// Topology parameters for a backbone of `b` blocks.
    pub fn new(rng: &mut impl Rng, name: &str, b: usize) -> Self {
        let gammas = (1..=b)
            .map(|j| Parameter::new(format!("{name}.gamma{j}"), init::normal(rng, [j], 1e-3)))
            .collect();
        Self { gammas }
    }

    /// Number of blocks.
    pub fn b(&self) -> usize {
        self.gammas.len()
    }

    /// Mixed input of block `j` (1-based): Eq. 18 over `sources`
    /// (`sources[0]` is the embedding output, `sources[i]` block `i`'s
    /// output; `sources.len() == j`).
    pub fn mix_input(&self, tape: &Tape, sources: &[Var], j: usize) -> Var {
        assert!(j >= 1 && j <= self.gammas.len());
        assert_eq!(sources.len(), j, "block {j} expects {j} sources");
        if j == 1 {
            return sources[0].clone();
        }
        let weights = tape
            .param(&self.gammas[j - 1])
            .reshape(&[1, j])
            .softmax_last();
        Var::mixed_edge(sources, &weights, 0..j, None)
    }

    /// The γ parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        self.gammas.clone()
    }

    /// Snapshot of γ values for derivation.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.gammas.iter().map(|g| g.value().clone()).collect()
    }

    /// Derive the discrete backbone: `backbone[j-1]` is the argmax-γ
    /// predecessor of block `j` (0 = embedding).
    pub fn derive(&self) -> Vec<usize> {
        self.gammas
            .iter()
            .map(|g| {
                let v = g.value();
                let mut best = 0;
                for i in 1..v.len() {
                    if v.data()[i] > v.data()[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn first_block_reads_embedding_directly() {
        let mut rng = SmallRng::seed_from_u64(0);
        let topo = MacroTopology::new(&mut rng, "t", 3);
        let tape = Tape::new();
        let z = tape.constant(Tensor::from_vec([2], vec![1.0, 2.0]));
        let y = topo.mix_input(&tape, std::slice::from_ref(&z), 1);
        assert!(y.value().approx_eq(&z.value(), 0.0));
    }

    #[test]
    fn mixing_is_convex_combination() {
        let mut rng = SmallRng::seed_from_u64(1);
        let topo = MacroTopology::new(&mut rng, "t", 2);
        let tape = Tape::new();
        let a = tape.constant(Tensor::from_vec([1], vec![0.0]));
        let b = tape.constant(Tensor::from_vec([1], vec![10.0]));
        let y = topo.mix_input(&tape, &[a, b], 2).value().item();
        assert!((0.0..=10.0).contains(&y));
    }

    #[test]
    fn gamma_gets_gradients() {
        let mut rng = SmallRng::seed_from_u64(2);
        let topo = MacroTopology::new(&mut rng, "t", 2);
        let tape = Tape::new();
        let a = tape.constant(Tensor::from_vec([1], vec![1.0]));
        let b = tape.constant(Tensor::from_vec([1], vec![2.0]));
        let loss = topo.mix_input(&tape, &[a, b], 2).square().sum_all();
        tape.backward(&loss);
        assert!(topo.parameters()[1].grad().norm() > 0.0);
        // block 1's gamma is unused (trivial input), so no grad
        assert_eq!(topo.parameters()[0].grad().norm(), 0.0);
    }

    #[test]
    fn derive_picks_argmax() {
        let mut rng = SmallRng::seed_from_u64(3);
        let topo = MacroTopology::new(&mut rng, "t", 3);
        topo.gammas[2].set_value(Tensor::from_vec([3], vec![0.1, 5.0, -2.0]));
        let backbone = topo.derive();
        assert_eq!(backbone.len(), 3);
        assert_eq!(backbone[0], 0); // single choice
        assert_eq!(backbone[2], 1); // argmax of the set values
    }
}

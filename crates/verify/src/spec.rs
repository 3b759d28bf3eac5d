//! The architecture description the analyzer consumes.
//!
//! `cts-verify` sits *below* `autocts` in the dependency graph (so the
//! search crate can call it as a pre-flight), which means it cannot see the
//! `Genotype` type directly. [`ArchSpec`] is the neutral description both
//! sides agree on; `autocts` converts a `Genotype` + `SearchConfig` +
//! dataset spec into one.

use cts_ops::OpKind;

/// Concrete model dimensions the cost pass prices with.
#[derive(Clone, Debug)]
pub struct ModelDims {
    /// Input feature count per node and timestep.
    pub features: usize,
    /// Input window length `T`.
    pub input_len: usize,
    /// Forecast horizon `Q` (output steps).
    pub horizon: usize,
    /// Channel width `D` of the ST-backbone.
    pub d_model: usize,
    /// Node count `N` of the sensor graph.
    pub num_nodes: usize,
    /// Diffusion / Chebyshev order `K` of the GCN-family operators (sizes
    /// their weight stacks; the cost pass prices `K` propagation rounds).
    pub gcn_k: usize,
    /// Whether the graph context learns an adaptive adjacency (DGCN then
    /// carries adaptive-direction weights and re-derives the support each
    /// forward).
    pub adaptive: bool,
    /// Embedding width of the adaptive adjacency factors (ignored unless
    /// `adaptive`).
    pub adaptive_emb: usize,
}

/// One ST-block's DAG: `m` latent nodes and operator-labelled edges
/// `(from, to, op)` with `from < to`; node 0 is the block input and node
/// `m - 1` the block output. Matches `autocts::BlockGenotype`.
#[derive(Clone, Debug)]
pub struct BlockSpec {
    /// Number of latent nodes (≥ 2).
    pub m: usize,
    /// Directed operator edges.
    pub edges: Vec<(usize, usize, OpKind)>,
}

/// A full candidate architecture: model dims, per-block DAGs, and the
/// macro backbone (`backbone[i]` picks block `i`'s input source — `0` is
/// the embedding, `j > 0` the output of block `j - 1`; `backbone[i] <= i`).
#[derive(Clone, Debug)]
pub struct ArchSpec {
    /// Concrete model dimensions.
    pub dims: ModelDims,
    /// The micro DAG of each ST-block.
    pub blocks: Vec<BlockSpec>,
    /// The macro topology over blocks.
    pub backbone: Vec<usize>,
}

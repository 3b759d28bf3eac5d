//! Operator kinds and their family taxonomy (§3.2.3, Figure 6, Table 2).

use std::fmt;

/// The family an operator belongs to — the unit of the paper's first
/// selection principle ("cover different perspectives").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpFamily {
    /// Temporal convolutions (efficient, local receptive field).
    TemporalCnn,
    /// Temporal recurrence (inefficient, weak long-term modelling —
    /// excluded from the compact set).
    TemporalRnn,
    /// Temporal attention (strong long-term modelling).
    TemporalAttention,
    /// Spectral/diffusion graph convolution (needs an adjacency matrix).
    SpatialGcn,
    /// Spatial attention (adjacency-free, time-varying correlations).
    SpatialAttention,
    /// Non-parametric plumbing (zero / identity).
    NonParametric,
}

/// Every operator the search spaces can draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Output all zeros (prunes an edge).
    Zero,
    /// Pass-through (residual edge).
    Identity,
    /// Plain 1D temporal convolution (Eq. 8).
    Conv1d,
    /// Gated dilated causal convolution (Eq. 9).
    Gdcc,
    /// LSTM over time (Eq. 10).
    Lstm,
    /// GRU over time (Eq. 11).
    Gru,
    /// Full temporal self-attention (Eq. 12).
    TransformerT,
    /// ProbSparse temporal self-attention (Eq. 13) — INF-T.
    InformerT,
    /// Chebyshev graph convolution (Eq. 14).
    ChebGcn,
    /// Diffusion graph convolution (Eq. 15) — DGCN.
    Dgcn,
    /// Full spatial self-attention (Eq. 16).
    TransformerS,
    /// ProbSparse spatial self-attention (Eq. 17) — INF-S.
    InformerS,
}

impl OpKind {
    /// The family this operator belongs to.
    pub fn family(&self) -> OpFamily {
        match self {
            OpKind::Zero | OpKind::Identity => OpFamily::NonParametric,
            OpKind::Conv1d | OpKind::Gdcc => OpFamily::TemporalCnn,
            OpKind::Lstm | OpKind::Gru => OpFamily::TemporalRnn,
            OpKind::TransformerT | OpKind::InformerT => OpFamily::TemporalAttention,
            OpKind::ChebGcn | OpKind::Dgcn => OpFamily::SpatialGcn,
            OpKind::TransformerS | OpKind::InformerS => OpFamily::SpatialAttention,
        }
    }

    /// True for operators with trainable weights.
    pub fn is_parametric(&self) -> bool {
        self.family() != OpFamily::NonParametric
    }

    /// True for S-operators (spatial correlation modelling).
    pub fn is_spatial(&self) -> bool {
        matches!(
            self.family(),
            OpFamily::SpatialGcn | OpFamily::SpatialAttention
        )
    }

    /// True for T-operators (temporal dependency modelling).
    pub fn is_temporal(&self) -> bool {
        matches!(
            self.family(),
            OpFamily::TemporalCnn | OpFamily::TemporalRnn | OpFamily::TemporalAttention
        )
    }

    /// Short label used in genotype printouts (Figure 8 style).
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Zero => "zero",
            OpKind::Identity => "identity",
            OpKind::Conv1d => "conv1d",
            OpKind::Gdcc => "gdcc",
            OpKind::Lstm => "lstm",
            OpKind::Gru => "gru",
            OpKind::TransformerT => "trans-t",
            OpKind::InformerT => "inf-t",
            OpKind::ChebGcn => "cheb-gcn",
            OpKind::Dgcn => "dgcn",
            OpKind::TransformerS => "trans-s",
            OpKind::InformerS => "inf-s",
        }
    }

    /// Parse a label back into a kind (genotype deserialisation).
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "zero" => OpKind::Zero,
            "identity" => OpKind::Identity,
            "conv1d" => OpKind::Conv1d,
            "gdcc" => OpKind::Gdcc,
            "lstm" => OpKind::Lstm,
            "gru" => OpKind::Gru,
            "trans-t" => OpKind::TransformerT,
            "inf-t" => OpKind::InformerT,
            "cheb-gcn" => OpKind::ChebGcn,
            "dgcn" => OpKind::Dgcn,
            "trans-s" => OpKind::TransformerS,
            "inf-s" => OpKind::InformerS,
            _ => return None,
        })
    }

    /// Relative computational cost of one application, in units of a 1×1
    /// convolution (used by the efficiency-aware search extension — the
    /// paper's future-work item of §6). A hand-written table, not derived
    /// from any measurement or from [`StOperator::cost`](crate::StOperator::cost).
    pub fn relative_cost(&self) -> f32 {
        match self {
            OpKind::Zero => 0.0,
            OpKind::Identity => 0.05,
            OpKind::Conv1d => 1.0,
            OpKind::Gdcc => 2.2,
            OpKind::Lstm => 8.0,
            OpKind::Gru => 7.0,
            OpKind::TransformerT => 4.5,
            OpKind::InformerT => 3.0,
            OpKind::ChebGcn => 3.0,
            OpKind::Dgcn => 4.0,
            OpKind::TransformerS => 4.5,
            OpKind::InformerS => 3.0,
        }
    }

    /// All operator kinds.
    pub fn all() -> [OpKind; 12] {
        [
            OpKind::Zero,
            OpKind::Identity,
            OpKind::Conv1d,
            OpKind::Gdcc,
            OpKind::Lstm,
            OpKind::Gru,
            OpKind::TransformerT,
            OpKind::InformerT,
            OpKind::ChebGcn,
            OpKind::Dgcn,
            OpKind::TransformerS,
            OpKind::InformerS,
        ]
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for kind in OpKind::all() {
            assert_eq!(OpKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(OpKind::from_label("nonsense"), None);
    }

    #[test]
    fn spatial_temporal_partition() {
        let mut s = 0;
        let mut t = 0;
        let mut other = 0;
        for kind in OpKind::all() {
            if kind.is_spatial() {
                s += 1;
            } else if kind.is_temporal() {
                t += 1;
            } else {
                other += 1;
            }
            assert!(!(kind.is_spatial() && kind.is_temporal()));
        }
        assert_eq!((s, t, other), (4, 6, 2));
    }

    #[test]
    fn non_parametric_ops() {
        assert!(!OpKind::Zero.is_parametric());
        assert!(!OpKind::Identity.is_parametric());
        assert!(OpKind::Gdcc.is_parametric());
    }
}

//! Discrete architecture descriptions (the output of derivation and the
//! input to architecture evaluation). Serialisable to a compact text format
//! so genotypes can be logged, diffed, and transferred across datasets
//! (Table 35).

use cts_ops::OpKind;
use std::fmt;

/// One derived ST-block: a DAG over `m` latent nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockGenotype {
    /// Number of latent nodes `M` (node 0 is the block input).
    pub m: usize,
    /// Kept edges `(from, to, operator)` with `from < to`; node `to`
    /// aggregates its incoming edges by summation.
    pub edges: Vec<(usize, usize, OpKind)>,
}

impl BlockGenotype {
    /// Incoming edges of node `j`.
    pub fn incoming(&self, j: usize) -> Vec<(usize, OpKind)> {
        self.edges
            .iter()
            .filter(|(_, to, _)| *to == j)
            .map(|(from, _, op)| (*from, *op))
            .collect()
    }

    /// Histogram of operator usage (Figure 8's "5 GDCC, 2 INF-T, …").
    pub fn op_histogram(&self) -> Vec<(OpKind, usize)> {
        let mut counts: Vec<(OpKind, usize)> = Vec::new();
        for (_, _, op) in &self.edges {
            match counts.iter_mut().find(|(k, _)| k == op) {
                Some((_, c)) => *c += 1,
                None => counts.push((*op, 1)),
            }
        }
        counts
    }

    /// Structural validity: edges are forward, nodes in range, and every
    /// non-input node is reachable.
    pub fn validate(&self) -> Result<(), String> {
        if self.m < 2 {
            return Err(format!(
                "block needs at least input + output nodes, got m={}",
                self.m
            ));
        }
        for &(from, to, _) in &self.edges {
            if from >= to {
                return Err(format!("edge {from}->{to} is not forward"));
            }
            if to >= self.m {
                return Err(format!("edge {from}->{to} out of range (m={})", self.m));
            }
        }
        for j in 1..self.m {
            if self.incoming(j).is_empty() {
                return Err(format!("node {j} has no incoming edges"));
            }
        }
        Ok(())
    }
}

/// A complete derived architecture: `B` heterogeneous ST-blocks plus the
/// backbone topology.
#[derive(Clone, Debug, PartialEq)]
pub struct Genotype {
    /// Per-block micro architectures.
    pub blocks: Vec<BlockGenotype>,
    /// `backbone[j]` is the input source of block `j`: `0` is the
    /// embedding layer, `i >= 1` is block `i`'s output. Always
    /// `backbone[j] <= j` (block numbering is 1-based in the paper,
    /// matching Figure 7).
    pub backbone: Vec<usize>,
}

impl Genotype {
    /// Number of ST-blocks.
    pub fn b(&self) -> usize {
        self.blocks.len()
    }

    /// Aggregate operator histogram over all blocks.
    pub fn op_histogram(&self) -> Vec<(OpKind, usize)> {
        let mut counts: Vec<(OpKind, usize)> = Vec::new();
        for b in &self.blocks {
            for (op, c) in b.op_histogram() {
                match counts.iter_mut().find(|(k, _)| *k == op) {
                    Some((_, acc)) => *acc += c,
                    None => counts.push((op, c)),
                }
            }
        }
        counts
    }

    /// Structural validity of blocks and backbone.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("a genotype needs at least one block".into());
        }
        if self.backbone.len() != self.blocks.len() {
            return Err("backbone length != block count".into());
        }
        for (j, &src) in self.backbone.iter().enumerate() {
            if src > j {
                return Err(format!("block {} fed by later block {}", j + 1, src));
            }
        }
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {}: {e}", i + 1))?;
        }
        Ok(())
    }

    /// Serialise to a single-line text format:
    /// `block: 0-1:gdcc 1-2:dgcn … | block: … @ backbone: 0,1,1,3`.
    pub fn to_text(&self) -> String {
        let blocks: Vec<String> = self
            .blocks
            .iter()
            .map(|b| {
                let edges: Vec<String> = b
                    .edges
                    .iter()
                    .map(|(f, t, o)| format!("{f}-{t}:{}", o.label()))
                    .collect();
                format!("m={} {}", b.m, edges.join(" "))
            })
            .collect();
        let backbone: Vec<String> = self.backbone.iter().map(|s| s.to_string()).collect();
        format!("{} @ {}", blocks.join(" | "), backbone.join(","))
    }

    /// Parse the [`Genotype::to_text`] format.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let (blocks_part, backbone_part) = text
            .rsplit_once(" @ ")
            .ok_or_else(|| "missing ' @ ' separator".to_string())?;
        let mut blocks = Vec::new();
        for chunk in blocks_part.split(" | ") {
            let mut tokens = chunk.split_whitespace();
            let m_tok = tokens.next().ok_or("empty block")?;
            let m: usize = m_tok
                .strip_prefix("m=")
                .ok_or("block must start with m=")?
                .parse()
                .map_err(|e| format!("bad m: {e}"))?;
            let mut edges = Vec::new();
            for tok in tokens {
                let (pair, op) = tok.rsplit_once(':').ok_or("edge missing ':'")?;
                let (f, t) = pair.split_once('-').ok_or("edge missing '-'")?;
                let op = OpKind::from_label(op).ok_or_else(|| format!("unknown op {op}"))?;
                edges.push((
                    f.parse().map_err(|e| format!("bad from: {e}"))?,
                    t.parse().map_err(|e| format!("bad to: {e}"))?,
                    op,
                ));
            }
            blocks.push(BlockGenotype { m, edges });
        }
        let backbone = backbone_part
            .split(',')
            .map(|s| s.trim().parse().map_err(|e| format!("bad backbone: {e}")))
            .collect::<Result<Vec<usize>, String>>()?;
        let g = Genotype { blocks, backbone };
        g.validate()?;
        Ok(g)
    }
}

impl fmt::Display for Genotype {
    /// Multi-line, human-readable rendering (the Figure 8 case study).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.blocks.iter().enumerate() {
            let src = self.backbone[i];
            let src_name = if src == 0 {
                "embedding".to_string()
            } else {
                format!("block {src}")
            };
            writeln!(f, "ST-block {} (input from {}):", i + 1, src_name)?;
            for j in 1..b.m {
                let inc: Vec<String> = b
                    .incoming(j)
                    .iter()
                    .map(|(from, op)| format!("{op}(h{from})"))
                    .collect();
                writeln!(f, "  h{j} = {}", inc.join(" + "))?;
            }
        }
        writeln!(f, "output layer <- sum of all block outputs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Genotype {
        let block = |ops: [OpKind; 4]| BlockGenotype {
            m: 3,
            edges: vec![
                (0, 1, ops[0]),
                (0, 2, ops[1]),
                (1, 2, ops[2]),
                (0, 1, ops[3]),
            ],
        };
        Genotype {
            blocks: vec![
                block([
                    OpKind::Gdcc,
                    OpKind::Dgcn,
                    OpKind::InformerT,
                    OpKind::Identity,
                ]),
                block([OpKind::InformerS, OpKind::Gdcc, OpKind::Dgcn, OpKind::Gdcc]),
            ],
            backbone: vec![0, 1],
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let text = g.to_text();
        let back = Genotype::from_text(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn histogram_counts_all_blocks() {
        let g = sample();
        let hist = g.op_histogram();
        let count = |k: OpKind| {
            hist.iter()
                .find(|(o, _)| *o == k)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(count(OpKind::Gdcc), 3);
        assert_eq!(count(OpKind::Dgcn), 2);
        assert_eq!(count(OpKind::Identity), 1);
    }

    #[test]
    fn validation_catches_backward_edges() {
        let bad = BlockGenotype {
            m: 3,
            edges: vec![
                (2, 1, OpKind::Gdcc),
                (0, 1, OpKind::Identity),
                (0, 2, OpKind::Identity),
            ],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_catches_unreachable_nodes() {
        let bad = BlockGenotype {
            m: 4,
            edges: vec![(0, 1, OpKind::Gdcc), (1, 3, OpKind::Dgcn)],
        };
        assert!(bad.validate().unwrap_err().contains("node 2"));
    }

    #[test]
    fn validation_catches_degenerate_m() {
        // Regression: a block with m < 2 used to pass validation (both
        // range loops are empty), then blow up during model construction.
        for m in [0, 1] {
            let bad = BlockGenotype { m, edges: vec![] };
            assert!(bad.validate().unwrap_err().contains("input + output"));
        }
        // ...and through from_text, which validates on parse.
        assert!(Genotype::from_text("m=1 @ 0").is_err());
    }

    #[test]
    fn validation_catches_empty_genotype() {
        // A genotype without blocks has no backbone output to forecast
        // from, and the derived model's plan refuses to compile it.
        let empty = Genotype {
            blocks: vec![],
            backbone: vec![],
        };
        assert!(empty.validate().unwrap_err().contains("at least one block"));
    }

    #[test]
    fn validation_catches_bad_backbone() {
        let mut g = sample();
        g.backbone = vec![0, 9];
        assert!(g.validate().is_err());
    }

    #[test]
    fn display_mentions_blocks_and_ops() {
        let s = format!("{}", sample());
        assert!(s.contains("ST-block 1"));
        assert!(s.contains("gdcc"));
        assert!(s.contains("output layer"));
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Genotype::from_text("nonsense").is_err());
        assert!(Genotype::from_text("m=3 0-1:gdcc @ x").is_err());
        assert!(Genotype::from_text("m=3 0-1:bogus @ 0").is_err());
    }
}

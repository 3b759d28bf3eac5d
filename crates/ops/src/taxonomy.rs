//! Static taxonomy data backing Table 1 (operator catalogue) and Table 38
//! (categorisation of human-designed ST-blocks).

use crate::{OpFamily, OpKind};

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct OperatorRow {
    /// The operator.
    pub kind: OpKind,
    /// Its family.
    pub family: OpFamily,
    /// Representative literature (paper reference numbers).
    pub literature: &'static str,
    /// Equation number in the paper.
    pub equation: &'static str,
    /// Whether the compact set keeps it (§3.2.3).
    pub in_compact_set: bool,
}

/// The full operator catalogue of Table 1 with the selection outcome.
pub fn operator_table() -> Vec<OperatorRow> {
    use OpKind::*;
    let row = |kind: OpKind, literature, equation, in_compact_set| OperatorRow {
        kind,
        family: kind.family(),
        literature,
        equation,
        in_compact_set,
    };
    vec![
        row(Conv1d, "[14]", "Eq. 8", false),
        row(Gdcc, "[9, 17, 51]", "Eq. 9", true),
        row(Lstm, "[24, 39]", "Eq. 10", false),
        row(Gru, "[1, 4, 29]", "Eq. 11", false),
        row(TransformerT, "[35, 47]", "Eq. 12", false),
        row(InformerT, "[54]", "Eq. 13", true),
        row(ChebGcn, "[9, 11, 14, 17, 51]", "Eq. 14", false),
        row(Dgcn, "[29, 34, 46]", "Eq. 15", true),
        row(TransformerS, "[35, 47]", "Eq. 16", false),
        row(InformerS, "(new)", "Eq. 17", true),
    ]
}

/// One cell of Table 38: which human-designed models combine a T-family
/// (column) with an S-family (row).
#[derive(Clone, Debug)]
pub struct TaxonomyCell {
    /// Spatial family of the ST-block.
    pub s_family: &'static str,
    /// Temporal family of the ST-block.
    pub t_family: &'static str,
    /// Citations occupying the cell ("None" when empty).
    pub models: &'static str,
}

/// Table 38: categorisation of human-designed ST-blocks.
pub fn st_block_taxonomy() -> Vec<TaxonomyCell> {
    vec![
        TaxonomyCell {
            s_family: "GCN",
            t_family: "CNN",
            models: "[9, 11, 14, 17, 45, 46, 51]",
        },
        TaxonomyCell {
            s_family: "GCN",
            t_family: "RNN",
            models: "[1, 4, 16, 29]",
        },
        TaxonomyCell {
            s_family: "GCN",
            t_family: "Attention",
            models: "[14]",
        },
        TaxonomyCell {
            s_family: "Attention",
            t_family: "CNN",
            models: "[14]",
        },
        TaxonomyCell {
            s_family: "Attention",
            t_family: "RNN",
            models: "None",
        },
        TaxonomyCell {
            s_family: "Attention",
            t_family: "Attention",
            models: "[47, 53]",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_ten_operators() {
        let rows = operator_table();
        assert_eq!(rows.len(), 10);
        // exactly the four compact parametric choices are kept
        let kept: Vec<OpKind> = rows
            .iter()
            .filter(|r| r.in_compact_set)
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            kept,
            vec![
                OpKind::Gdcc,
                OpKind::InformerT,
                OpKind::Dgcn,
                OpKind::InformerS
            ]
        );
    }

    #[test]
    fn families_are_consistent() {
        for row in operator_table() {
            assert_eq!(row.family, row.kind.family());
        }
    }

    #[test]
    fn taxonomy_covers_the_2x3_grid() {
        let cells = st_block_taxonomy();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells.iter().filter(|c| c.models == "None").count(), 1);
    }
}

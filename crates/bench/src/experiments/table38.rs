//! Table 38: categorisation of human-designed ST-blocks — rendered from
//! the static taxonomy in `cts-ops`, alongside the Table 1 operator
//! catalogue with the compact-set selection.

use crate::{print_table, ExpContext};
use cts_ops::{operator_table, st_block_taxonomy};

/// Render the taxonomy tables.
pub fn run(_ctx: &ExpContext) -> String {
    let mut out = String::new();

    let rows: Vec<Vec<String>> = st_block_taxonomy()
        .into_iter()
        .map(|c| {
            vec![
                c.s_family.to_string(),
                c.t_family.to_string(),
                c.models.to_string(),
            ]
        })
        .collect();
    out.push_str(&print_table(
        "Table 38: Categorization of Human Designed ST-blocks",
        &["S-family", "T-family", "Models"],
        &rows,
    ));

    let rows: Vec<Vec<String>> = operator_table()
        .into_iter()
        .map(|r| {
            vec![
                format!("{:?}", r.family),
                r.kind.label().to_string(),
                r.literature.to_string(),
                r.equation.to_string(),
                if r.in_compact_set {
                    "kept".into()
                } else {
                    "pruned".into()
                },
            ]
        })
        .collect();
    out.push_str(&print_table(
        "Table 1: S/T operator catalogue and compact-set selection",
        &[
            "Family",
            "Operator",
            "Literature",
            "Equation",
            "Compact set",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_renders() {
        let s = run(&ExpContext::smoke());
        assert!(s.contains("Table 38"));
        assert!(s.contains("dgcn"));
        assert!(s.contains("kept"));
    }
}

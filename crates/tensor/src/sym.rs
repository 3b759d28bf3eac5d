//! Symbolic shapes for static (pre-execution) shape inference.
//!
//! `cts-verify` walks candidate architectures *without running them*; the
//! dimensions it propagates are therefore a mix of known constants (the
//! window length, the channel width) and symbols that stay free until a
//! concrete batch arrives (the batch size, sometimes the node count). A
//! [`SymDim`] is exactly that: either a proven constant or a named
//! unknown. Two symbolic dims are compatible only when the analyzer can
//! *prove* they are — same symbol, same constant, or a broadcastable `1` —
//! so every accepted architecture is shape-safe for every binding of the
//! symbols.

use std::fmt;

/// One dimension of a symbolic shape: a known constant or a named symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymDim {
    /// A dimension whose extent is known statically.
    Const(usize),
    /// A dimension that stays free until runtime (e.g. the batch size
    /// `"B"`). Two symbols are equal only when their names match.
    Sym(&'static str),
}

impl SymDim {
    /// The concrete extent, resolving symbols through `bindings`.
    /// `None` when a symbol has no binding.
    pub fn eval(&self, bindings: &[(&str, usize)]) -> Option<usize> {
        match self {
            SymDim::Const(c) => Some(*c),
            SymDim::Sym(name) => bindings.iter().find(|(n, _)| n == name).map(|(_, v)| *v),
        }
    }

    /// True when this dim is provably the constant `c`.
    pub fn is_const(&self, c: usize) -> bool {
        matches!(self, SymDim::Const(k) if *k == c)
    }
}

impl fmt::Display for SymDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymDim::Const(c) => write!(f, "{c}"),
            SymDim::Sym(s) => f.write_str(s),
        }
    }
}

/// A symbolic tensor shape.
pub type SymShape = Vec<SymDim>;

/// Render a symbolic shape as `[B, 5, 12, 16]`.
pub fn format_shape(shape: &[SymDim]) -> String {
    let dims: Vec<String> = shape.iter().map(ToString::to_string).collect();
    format!("[{}]", dims.join(", "))
}

/// Resolve every dim of `shape` through `bindings`; `None` when any
/// symbol is unbound.
pub fn eval_shape(shape: &[SymDim], bindings: &[(&str, usize)]) -> Option<Vec<usize>> {
    shape.iter().map(|d| d.eval(bindings)).collect()
}

/// Provable broadcast of two dims, mirroring the runtime rule of
/// [`crate::broadcast_shapes`]: equal dims pass through, a constant `1`
/// stretches to the other side. A symbol against a different symbol or a
/// constant `≠ 1` is *not provably* compatible and returns `None` — the
/// analyzer never assumes shapes that only might match.
pub fn broadcast_dim(a: SymDim, b: SymDim) -> Option<SymDim> {
    if a == b {
        return Some(a);
    }
    if a.is_const(1) {
        return Some(b);
    }
    if b.is_const(1) {
        return Some(a);
    }
    None
}

/// Symbolic counterpart of [`crate::broadcast_shapes`]: align the shapes
/// at their trailing dims and broadcast pairwise. `Err` carries a
/// human-readable description of the incompatibility.
pub fn broadcast_sym(a: &[SymDim], b: &[SymDim]) -> Result<SymShape, String> {
    let rank = a.len().max(b.len());
    let mut out = Vec::with_capacity(rank);
    for i in 0..rank {
        let da = if i < rank - a.len() {
            SymDim::Const(1)
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            SymDim::Const(1)
        } else {
            b[i - (rank - b.len())]
        };
        match broadcast_dim(da, db) {
            Some(d) => out.push(d),
            None => {
                return Err(format!(
                    "cannot broadcast {} with {} (axis {i}: {da} vs {db})",
                    format_shape(a),
                    format_shape(b)
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast_shapes;

    const B: SymDim = SymDim::Sym("B");

    #[test]
    fn equal_symbols_broadcast() {
        let a = vec![B, SymDim::Const(3)];
        let b = vec![B, SymDim::Const(3)];
        assert_eq!(broadcast_sym(&a, &b).unwrap(), a);
    }

    #[test]
    fn const_one_stretches() {
        let a = vec![B, SymDim::Const(1), SymDim::Const(4)];
        let b = vec![SymDim::Const(5), SymDim::Const(4)];
        assert_eq!(
            broadcast_sym(&a, &b).unwrap(),
            vec![B, SymDim::Const(5), SymDim::Const(4)]
        );
    }

    #[test]
    fn distinct_symbols_rejected() {
        let a = vec![SymDim::Sym("B")];
        let b = vec![SymDim::Sym("N")];
        assert!(broadcast_sym(&a, &b).is_err());
    }

    #[test]
    fn symbol_vs_constant_rejected() {
        // A symbol *might* equal 7 at runtime, but the analyzer must not
        // assume it; only a provable match passes.
        assert!(broadcast_sym(&[B], &[SymDim::Const(7)]).is_err());
        assert!(broadcast_sym(&[B], &[SymDim::Const(1)]).is_ok());
    }

    #[test]
    fn agrees_with_runtime_broadcast_on_constants() {
        let cases: [(&[usize], &[usize]); 4] = [
            (&[2, 3, 4], &[3, 4]),
            (&[2, 1, 4], &[2, 5, 4]),
            (&[1], &[7, 2]),
            (&[6, 5], &[6, 1]),
        ];
        for (a, b) in cases {
            let sa: SymShape = a.iter().map(|&d| SymDim::Const(d)).collect();
            let sb: SymShape = b.iter().map(|&d| SymDim::Const(d)).collect();
            let sym = eval_shape(&broadcast_sym(&sa, &sb).unwrap(), &[]).unwrap();
            let concrete = broadcast_shapes(a, b).unwrap();
            assert_eq!(sym, concrete.as_slice(), "{a:?} vs {b:?}");
        }
        // and a runtime-incompatible pair is symbolically incompatible too
        let sa = vec![SymDim::Const(2), SymDim::Const(3)];
        let sb = vec![SymDim::Const(4), SymDim::Const(3)];
        assert!(broadcast_sym(&sa, &sb).is_err());
        assert!(broadcast_shapes(&[2, 3], &[4, 3]).is_none());
    }

    #[test]
    fn eval_resolves_bindings() {
        let s = vec![B, SymDim::Const(5)];
        assert_eq!(eval_shape(&s, &[("B", 8)]), Some(vec![8, 5]));
        assert_eq!(eval_shape(&s, &[]), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            format_shape(&[B, SymDim::Const(5), SymDim::Const(12)]),
            "[B, 5, 12]"
        );
    }
}

//! Normalised/scaled Laplacians and Chebyshev polynomial bases (Eq. 14).

use cts_tensor::{ops, Tensor};

/// Symmetric normalised Laplacian `L = I − D^{-1/2} A D^{-1/2}` (the
/// adjacency is symmetrised first; zero-degree nodes contribute nothing).
pub fn normalized_laplacian(adjacency: &Tensor) -> Tensor {
    let n = adjacency.shape()[0];
    // symmetrise: a_sym = (A + Aᵀ) / 2
    let a_sym = ops::scale(&ops::add(adjacency, &ops::transpose_last2(adjacency)), 0.5);
    let mut deg_inv_sqrt = vec![0.0f32; n];
    for (i, slot) in deg_inv_sqrt.iter_mut().enumerate() {
        let d: f32 = (0..n).map(|j| a_sym.at(&[i, j])).sum();
        if d > 0.0 {
            *slot = 1.0 / d.sqrt();
        }
    }
    let mut l = Tensor::zeros([n, n]);
    for i in 0..n {
        for j in 0..n {
            let norm = -a_sym.at(&[i, j]) * deg_inv_sqrt[i] * deg_inv_sqrt[j];
            *l.at_mut(&[i, j]) = if i == j { 1.0 + norm } else { norm };
        }
    }
    l
}

/// Scaled Laplacian `L̃ = 2L/λ_max − I` with the standard `λ_max ≈ 2`
/// approximation used by STGCN and kin, i.e. `L̃ = L − I`.
pub fn scaled_laplacian(adjacency: &Tensor) -> Tensor {
    let l = normalized_laplacian(adjacency);
    let n = l.shape()[0];
    let mut out = l;
    for i in 0..n {
        *out.at_mut(&[i, i]) -= 1.0;
    }
    out
}

/// Chebyshev polynomial basis `T_0..T_{K-1}` of the scaled Laplacian:
/// `T_0 = I`, `T_1 = L̃`, `T_k = 2 L̃ T_{k-1} − T_{k-2}`.
pub fn chebyshev_basis(adjacency: &Tensor, k: usize) -> Vec<Tensor> {
    assert!(k >= 1);
    let n = adjacency.shape()[0];
    let lt = scaled_laplacian(adjacency);
    let mut basis = vec![Tensor::eye(n)];
    if k >= 2 {
        basis.push(lt.clone());
    }
    for i in 2..k {
        let prev = &basis[i - 1];
        let prev2 = &basis[i - 2];
        let next = ops::sub(&ops::scale(&ops::matmul(&lt, prev), 2.0), prev2);
        basis.push(next);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Tensor {
        let mut a = Tensor::zeros([3, 3]);
        *a.at_mut(&[0, 1]) = 1.0;
        *a.at_mut(&[1, 0]) = 1.0;
        *a.at_mut(&[1, 2]) = 1.0;
        *a.at_mut(&[2, 1]) = 1.0;
        a
    }

    #[test]
    fn laplacian_rows_kill_constants() {
        // L · 1 = 0 for the *unnormalised* Laplacian; for the symmetric
        // normalised one, L·D^{1/2}·1 = 0. Check that instead.
        let l = normalized_laplacian(&line3());
        let degs = [1.0f32, 2.0, 1.0];
        for i in 0..3 {
            let v: f32 = (0..3).map(|j| l.at(&[i, j]) * degs[j].sqrt()).sum();
            assert!(v.abs() < 1e-5, "row {i}: {v}");
        }
    }

    #[test]
    fn laplacian_diagonal_is_one_for_connected_nodes() {
        let l = normalized_laplacian(&line3());
        for i in 0..3 {
            assert!((l.at(&[i, i]) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_graph_gives_zero_laplacian_diag() {
        let l = normalized_laplacian(&Tensor::zeros([3, 3]));
        // isolated nodes have degree 0 -> diagonal stays 1 (I), off-diag 0
        assert_eq!(l.at(&[0, 1]), 0.0);
        assert_eq!(l.at(&[0, 0]), 1.0);
    }

    #[test]
    fn chebyshev_recurrence_holds() {
        let a = line3();
        let basis = chebyshev_basis(&a, 4);
        assert_eq!(basis.len(), 4);
        let lt = scaled_laplacian(&a);
        let t2_expected = ops::sub(&ops::scale(&ops::matmul(&lt, &basis[1]), 2.0), &basis[0]);
        assert!(basis[2].approx_eq(&t2_expected, 1e-5));
        assert!(basis[0].approx_eq(&Tensor::eye(3), 0.0));
    }

    #[test]
    fn scaled_laplacian_eigen_range() {
        // eigenvalues of L are in [0,2] for normalised Laplacians, so the
        // scaled version has spectral radius <= 1. Power iteration proxy:
        // repeated multiplication must not blow up.
        let lt = scaled_laplacian(&line3());
        let mut v = Tensor::from_vec([3, 1], vec![1.0, -0.5, 0.25]);
        for _ in 0..20 {
            v = ops::matmul(&lt, &v);
        }
        assert!(v.norm() <= 2.0, "norm {}", v.norm());
    }
}

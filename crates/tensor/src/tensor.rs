//! The dense, contiguous, row-major `f32` tensor.

use crate::arena;
use crate::shape::{numel, ravel, strides_for, Shape};
use std::fmt;

/// A dense row-major `f32` tensor of arbitrary rank.
///
/// Cloning copies the buffer; all workspace code passes `&Tensor` on hot
/// paths and relies on explicit `clone` when ownership is needed.
///
/// Buffers come from (and return to, on drop) the thread-local
/// [`crate::arena`], so the create/destroy churn of a training step
/// recycles a steady-state set of allocations instead of hitting the
/// system allocator per op.
#[derive(PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            data: arena::take_copied(&self.data),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        arena::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Build a tensor from a shape and a data buffer.
    ///
    /// # Panics
    /// Panics when `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} needs {} elements, got {}",
            shape,
            numel(&shape),
            data.len()
        );
        Self { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Self {
            shape,
            data: arena::take_zeroed(n),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Self {
            shape,
            data: arena::take_filled(n, value),
        }
    }

    /// Rank-0-like scalar stored as shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: [1].into(),
            data: arena::take_filled(1, value),
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        // `Tensor: Drop`, so the field is taken rather than moved out; the
        // drop then recycles an empty vec, which the arena ignores.
        std::mem::take(&mut self.data)
    }

    /// Element access by coordinates.
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[ravel(coords, &self.shape)]
    }

    /// Mutable element access by coordinates.
    pub fn at_mut(&mut self, coords: &[usize]) -> &mut f32 {
        &mut self.data[ravel(coords, &self.shape)]
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor of shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Reinterpret the buffer with a new shape of identical element count.
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    /// Row-major strides.
    pub fn strides(&self) -> Shape {
        strides_for(&self.shape)
    }

    /// Apply `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: arena::take_from_iter(self.data.len(), self.data.iter().map(|&x| f(x))),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Elementwise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// In-place `self += alpha * other` (shapes must match exactly).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        crate::simd::axpy(&mut self.data, alpha, &other.data);
    }

    /// In-place scale by `alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        crate::simd::scale_in_place(&mut self.data, alpha);
    }

    /// Fill the buffer with a constant.
    pub fn fill(&mut self, value: f32) {
        for a in self.data.iter_mut() {
            *a = value;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            let head: Vec<f32> = self.data[..8].to_vec();
            write!(f, " [{:?}.. ({} elems)]", head, self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones([4]);
        assert_eq!(o.sum(), 4.0);
        let e = Tensor::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_and_mutation() {
        let mut t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        assert_eq!(t.at(&[1, 2]), 5.0);
        *t.at_mut(&[0, 1]) = 9.0;
        assert_eq!(t.at(&[0, 1]), 9.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn nan_detection() {
        let mut t = Tensor::zeros([2]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}

//! Shape-manipulating operations: permute, concat, slice, index-select.

use crate::arena;
use crate::shape::{numel, Shape};
use crate::Tensor;

/// Permute dimensions: `perm[i]` is the source axis that becomes output axis `i`.
///
/// The trailing axes `perm` leaves in place are contiguous in both layouts,
/// so they merge into one run copied whole per outer output coordinate
/// (`[0,2,1,3]` over `[B,N,T,D]` moves runs of `D` floats). A permutation
/// that moves the last axis copies runs of one element.
pub fn permute(a: &Tensor, perm: &[usize]) -> Tensor {
    assert_eq!(perm.len(), a.rank(), "permute rank mismatch");
    let in_shape = a.shape();
    let out_shape: Shape = perm.iter().map(|&p| in_shape[p]).collect();
    let mut out = arena::take_zeroed(a.len());
    let rank = perm.len();
    let kept = perm.iter().rev().zip((0..rank).rev()).take_while(|(&p, ax)| p == *ax).count();
    let moved = rank - kept;
    let run: usize = in_shape[moved..].iter().product();
    if run == 0 {
        return Tensor::from_vec(out_shape, out);
    }
    let in_strides = a.strides();
    // stride of moved output axis i in the *input* buffer
    let mapped_strides: Shape = perm[..moved].iter().map(|&p| in_strides[p]).collect();
    // Odometer over the moved output coordinates carrying the source
    // offset along — no per-run coordinate vector (this runs on every tape
    // step).
    let mut coords = Shape::zeros(moved);
    let mut src = 0usize;
    let data = a.data();
    for dst in out.chunks_exact_mut(run) {
        dst.copy_from_slice(&data[src..src + run]);
        for ax in (0..moved).rev() {
            coords[ax] += 1;
            src += mapped_strides[ax];
            if coords[ax] < out_shape[ax] {
                break;
            }
            src -= out_shape[ax] * mapped_strides[ax];
            coords[ax] = 0;
        }
    }
    Tensor::from_vec(out_shape, out)
}

/// Inverse permutation: `inverse(perm)[perm[i]] = i`.
pub fn inverse_perm(perm: &[usize]) -> Shape {
    let mut inv = Shape::zeros(perm.len());
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// ∂permute/∂a = permute the gradient by the inverse permutation.
pub fn permute_grad(grad: &Tensor, perm: &[usize]) -> Tensor {
    permute(grad, &inverse_perm(perm))
}

/// Concatenate tensors along `axis`; all other dims must match.
pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
    assert!(!parts.is_empty());
    let first = parts[0].shape();
    let mut out_shape = Shape::from_slice(first);
    out_shape[axis] = parts.iter().map(|p| p.shape()[axis]).sum();
    for p in parts {
        for (d, (&a, &b)) in p.shape().iter().zip(first.iter()).enumerate() {
            assert!(d == axis || a == b, "concat dim {} mismatch", d);
        }
    }
    let outer: usize = first[..axis].iter().product();
    let inner: usize = first[axis + 1..].iter().product();
    let total_axis = out_shape[axis];
    let mut out = arena::take_zeroed(numel(&out_shape));
    let mut offset = 0;
    for p in parts {
        let len = p.shape()[axis];
        for o in 0..outer {
            let src = o * len * inner;
            let dst = (o * total_axis + offset) * inner;
            out[dst..dst + len * inner].copy_from_slice(&p.data()[src..src + len * inner]);
        }
        offset += len;
    }
    Tensor::from_vec(out_shape, out)
}

/// Slice `[start, end)` along `axis`.
pub fn slice(a: &Tensor, axis: usize, start: usize, end: usize) -> Tensor {
    assert!(start <= end && end <= a.shape()[axis], "slice bounds");
    let outer: usize = a.shape()[..axis].iter().product();
    let len = a.shape()[axis];
    let inner: usize = a.shape()[axis + 1..].iter().product();
    let out_len = end - start;
    let mut out_shape = Shape::from_slice(a.shape());
    out_shape[axis] = out_len;
    let mut out = arena::take_zeroed(outer * out_len * inner);
    for o in 0..outer {
        let src = (o * len + start) * inner;
        let dst = o * out_len * inner;
        out[dst..dst + out_len * inner].copy_from_slice(&a.data()[src..src + out_len * inner]);
    }
    Tensor::from_vec(out_shape, out)
}

/// ∂slice/∂a: scatter upstream grad into a zero tensor of the input shape.
pub fn slice_grad(grad: &Tensor, a_shape: &[usize], axis: usize, start: usize) -> Tensor {
    let outer: usize = a_shape[..axis].iter().product();
    let len = a_shape[axis];
    let inner: usize = a_shape[axis + 1..].iter().product();
    let out_len = grad.shape()[axis];
    let mut out = Tensor::zeros(a_shape.to_vec());
    for o in 0..outer {
        let dst = (o * len + start) * inner;
        let src = o * out_len * inner;
        out.data_mut()[dst..dst + out_len * inner]
            .copy_from_slice(&grad.data()[src..src + out_len * inner]);
    }
    out
}

/// Gather the given `indices` along `axis` (`torch.index_select`).
pub fn index_select(a: &Tensor, axis: usize, indices: &[usize]) -> Tensor {
    let outer: usize = a.shape()[..axis].iter().product();
    let len = a.shape()[axis];
    let inner: usize = a.shape()[axis + 1..].iter().product();
    let mut out_shape = Shape::from_slice(a.shape());
    out_shape[axis] = indices.len();
    let mut out = arena::take_zeroed(outer * indices.len() * inner);
    for o in 0..outer {
        for (j, &idx) in indices.iter().enumerate() {
            assert!(idx < len, "index_select out of bounds");
            let src = (o * len + idx) * inner;
            let dst = (o * indices.len() + j) * inner;
            out[dst..dst + inner].copy_from_slice(&a.data()[src..src + inner]);
        }
    }
    Tensor::from_vec(out_shape, out)
}

/// ∂index_select/∂a: scatter-add (duplicated indices accumulate).
pub fn index_select_grad(
    grad: &Tensor,
    a_shape: &[usize],
    axis: usize,
    indices: &[usize],
) -> Tensor {
    let outer: usize = a_shape[..axis].iter().product();
    let len = a_shape[axis];
    let inner: usize = a_shape[axis + 1..].iter().product();
    let mut out = Tensor::zeros(a_shape.to_vec());
    for o in 0..outer {
        for (j, &idx) in indices.iter().enumerate() {
            let dst = (o * len + idx) * inner;
            let src = (o * indices.len() + j) * inner;
            for i in 0..inner {
                out.data_mut()[dst + i] += grad.data()[src + i];
            }
        }
    }
    out
}

/// Stack rank-R tensors into a rank-(R+1) tensor along a new axis 0.
pub fn stack(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty());
    let shape = parts[0].shape();
    for p in parts {
        assert_eq!(p.shape(), shape, "stack shape mismatch");
    }
    let out_shape: Shape = std::iter::once(parts.len()).chain(shape.iter().copied()).collect();
    let each = parts[0].len();
    let mut data = arena::take_zeroed(parts.len() * each);
    for (p, dst) in parts.iter().zip(data.chunks_mut(each.max(1))) {
        dst.copy_from_slice(p.data());
    }
    Tensor::from_vec(out_shape, data)
}

/// Pad `axis` with `before` zeros in front and `after` zeros behind.
pub fn pad_axis(a: &Tensor, axis: usize, before: usize, after: usize) -> Tensor {
    if before == 0 && after == 0 {
        return a.clone();
    }
    let outer: usize = a.shape()[..axis].iter().product();
    let len = a.shape()[axis];
    let inner: usize = a.shape()[axis + 1..].iter().product();
    let new_len = before + len + after;
    let mut out_shape = Shape::from_slice(a.shape());
    out_shape[axis] = new_len;
    let mut out = arena::take_zeroed(outer * new_len * inner);
    for o in 0..outer {
        let src = o * len * inner;
        let dst = (o * new_len + before) * inner;
        out[dst..dst + len * inner].copy_from_slice(&a.data()[src..src + len * inner]);
    }
    Tensor::from_vec(out_shape, out)
}

/// ∂pad_axis/∂a: slice the padding back off.
pub fn pad_axis_grad(grad: &Tensor, axis: usize, before: usize, orig_len: usize) -> Tensor {
    slice(grad, axis, before, before + orig_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn permute_2d_is_transpose() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let p = permute(&a, &[1, 0]);
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_roundtrip_3d() {
        let a = t(&[2, 3, 4], &(0..24).map(|x| x as f32).collect::<Vec<_>>());
        let perm = [2, 0, 1];
        let p = permute(&a, &perm);
        assert_eq!(p.shape(), &[4, 2, 3]);
        let back = permute_grad(&p, &perm);
        assert_eq!(back.data(), a.data());
        assert_eq!(p.at(&[3, 1, 2]), a.at(&[1, 2, 3]));
    }

    #[test]
    fn concat_axis1() {
        let a = t(&[2, 1], &[1.0, 2.0]);
        let b = t(&[2, 2], &[3.0, 4.0, 5.0, 6.0]);
        let c = concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_and_grad_roundtrip() {
        let a = t(&[2, 4], &(0..8).map(|x| x as f32).collect::<Vec<_>>());
        let s = slice(&a, 1, 1, 3);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 5.0, 6.0]);
        let g = slice_grad(&s, a.shape(), 1, 1);
        assert_eq!(g.data(), &[0.0, 1.0, 2.0, 0.0, 0.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    fn index_select_with_duplicates() {
        let a = t(&[3, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = index_select(&a, 0, &[2, 0, 2]);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let g = index_select_grad(&Tensor::ones([3, 2]), a.shape(), 0, &[2, 0, 2]);
        assert_eq!(g.data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn stack_adds_axis() {
        let a = t(&[2], &[1.0, 2.0]);
        let b = t(&[2], &[3.0, 4.0]);
        let s = stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pad_then_grad() {
        let a = t(&[1, 2], &[1.0, 2.0]);
        let p = pad_axis(&a, 1, 2, 1);
        assert_eq!(p.shape(), &[1, 5]);
        assert_eq!(p.data(), &[0.0, 0.0, 1.0, 2.0, 0.0]);
        let g = pad_axis_grad(&p, 1, 2, 2);
        assert_eq!(g.data(), a.data());
    }
}

//! Shape arithmetic: strides, broadcasting, and index helpers.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Ranks up to this are stored inline; higher ranks spill to the heap.
pub const INLINE_RANK: usize = 6;

/// A tensor shape: the extent of every dimension, outermost first.
///
/// Stored inline for ranks up to `INLINE_RANK` (6) so that the per-tensor
/// shape/stride/coordinate bookkeeping of a training step never touches
/// the heap — the same churn-elimination story as the data-buffer
/// [`crate::arena`], but for metadata. Derefs to `&[usize]`, so all
/// read-side code treats it exactly like the `Vec<usize>` it replaced.
#[derive(Clone, Default)]
pub struct Shape {
    len: usize,
    inline: [usize; INLINE_RANK],
    // Used only when `len > INLINE_RANK`; an empty Vec never allocates.
    spill: Vec<usize>,
}

impl Shape {
    /// Shape with the dims of `dims`.
    pub fn from_slice(dims: &[usize]) -> Self {
        let mut s = Shape {
            len: dims.len(),
            ..Shape::default()
        };
        if dims.len() <= INLINE_RANK {
            s.inline[..dims.len()].copy_from_slice(dims);
        } else {
            s.spill = dims.to_vec();
        }
        s
    }

    /// The dims as a plain slice.
    pub fn as_slice(&self) -> &[usize] {
        self
    }

    /// Append a trailing dimension (spills to the heap past the inline rank).
    pub fn push(&mut self, dim: usize) {
        if self.len < INLINE_RANK {
            self.inline[self.len] = dim;
        } else {
            if self.len == INLINE_RANK {
                self.spill.reserve(INLINE_RANK + 2);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(dim);
        }
        self.len += 1;
    }

    /// All-zero shape of the given rank (for building strides/coords).
    pub fn zeros(rank: usize) -> Self {
        let mut s = Shape {
            len: rank,
            ..Shape::default()
        };
        if rank > INLINE_RANK {
            s.spill = vec![0; rank];
        }
        s
    }
}

impl Deref for Shape {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        if self.len <= INLINE_RANK {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl DerefMut for Shape {
    fn deref_mut(&mut self) -> &mut [usize] {
        if self.len <= INLINE_RANK {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::from_slice(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        if dims.len() > INLINE_RANK {
            Shape {
                len: dims.len(),
                inline: [0; INLINE_RANK],
                spill: dims,
            }
        } else {
            Shape::from_slice(&dims)
        }
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from_slice(&dims)
    }
}

impl FromIterator<usize> for Shape {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Shape::default();
        for d in iter {
            if s.len < INLINE_RANK {
                s.inline[s.len] = d;
            } else {
                if s.len == INLINE_RANK {
                    s.spill.reserve(INLINE_RANK + 2);
                    s.spill.extend_from_slice(&s.inline);
                }
                s.spill.push(d);
            }
            s.len += 1;
        }
        s
    }
}

impl<'a> IntoIterator for &'a Shape {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Shape {}

impl PartialEq<[usize]> for Shape {
    fn eq(&self, other: &[usize]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[usize]> for Shape {
    fn eq(&self, other: &&[usize]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<usize>> for Shape {
    fn eq(&self, other: &Vec<usize>) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<[usize; N]> for Shape {
    fn eq(&self, other: &[usize; N]) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like the slice/Vec it replaced, so shape-mismatch panic
        // messages are unchanged.
        fmt::Debug::fmt(&**self, f)
    }
}

/// Row-major strides for `shape` (in elements, not bytes).
pub fn strides_for(shape: &[usize]) -> Shape {
    let mut strides = Shape::zeros(shape.len());
    let mut acc = 1usize;
    for (stride, &dim) in strides.iter_mut().zip(shape.iter()).rev() {
        *stride = acc;
        acc *= dim;
    }
    strides
}

/// Number of elements a shape holds.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// NumPy-style broadcast of two shapes (align from the right; each dimension
/// must be equal or one of them must be 1).
///
/// Returns `None` when the shapes are incompatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Shape> {
    let rank = a.len().max(b.len());
    let mut out = Shape::zeros(rank);
    for i in 0..rank {
        let da = dim_from_right(a, i);
        let db = dim_from_right(b, i);
        let d = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
        out[rank - 1 - i] = d;
    }
    Some(out)
}

/// Dimension `i` counting from the right, treating missing dims as 1.
pub fn dim_from_right(shape: &[usize], i: usize) -> usize {
    if i < shape.len() {
        shape[shape.len() - 1 - i]
    } else {
        1
    }
}

/// Convert a flat index into multi-dimensional coordinates for `shape`.
pub fn unravel(mut flat: usize, shape: &[usize]) -> Shape {
    let mut coords = Shape::zeros(shape.len());
    for i in (0..shape.len()).rev() {
        coords[i] = flat % shape[i];
        flat /= shape[i];
    }
    coords
}

/// Convert coordinates into a flat row-major index for `shape`.
pub fn ravel(coords: &[usize], shape: &[usize]) -> usize {
    debug_assert_eq!(coords.len(), shape.len());
    let mut flat = 0;
    for (c, d) in coords.iter().zip(shape.iter()) {
        debug_assert!(c < d);
        flat = flat * d + c;
    }
    flat
}

/// Flat index into a tensor of `shape` for coordinates in a *broadcast* space:
/// dimensions where `shape` is 1 are pinned to 0.
pub fn ravel_broadcast(coords: &[usize], shape: &[usize]) -> usize {
    let offset = coords.len() - shape.len();
    let mut flat = 0;
    for (i, &d) in shape.iter().enumerate() {
        let c = if d == 1 { 0 } else { coords[offset + i] };
        flat = flat * d + c;
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(
            broadcast_shapes(&[4, 1, 3], &[2, 1]).unwrap(),
            vec![4, 2, 3]
        );
        assert_eq!(broadcast_shapes(&[2, 3], &[4, 3]), None);
    }

    #[test]
    fn ravel_roundtrip() {
        let shape = [2, 3, 4];
        for flat in 0..numel(&shape) {
            let coords = unravel(flat, &shape);
            assert_eq!(ravel(&coords, &shape), flat);
        }
    }

    #[test]
    fn ravel_broadcast_pins_ones() {
        // shape [1,3] viewed in broadcast space [2,3]
        assert_eq!(ravel_broadcast(&[1, 2], &[1, 3]), 2);
        // scalar-ish shape [] -> always 0
        assert_eq!(ravel_broadcast(&[1, 2], &[]), 0);
    }
}

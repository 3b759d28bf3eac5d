//! Reshape `[B, N, T, D]` activations into the `[B', L, D]` sequences the
//! attention and recurrent layers consume, and back.

use cts_nn::Backend;

/// `[B,N,T,D] → [B·N, T, D]`: one sequence over time per series.
pub(crate) fn temporal_view<B: Backend>(be: &B, x: &B::V) -> (B::V, [usize; 4]) {
    let s = be.shape(x);
    let dims = [s[0], s[1], s[2], s[3]];
    (
        be.reshape(x.clone(), &[dims[0] * dims[1], dims[2], dims[3]]),
        dims,
    )
}

/// Inverse of [`temporal_view`].
pub(crate) fn from_temporal<B: Backend>(be: &B, y: B::V, d: [usize; 4]) -> B::V {
    be.reshape(y, &d)
}

/// `[B,N,T,D] → [B,T,N,D] → [B·T, N, D]`: one sequence over series per
/// timestamp.
pub(crate) fn spatial_view<B: Backend>(be: &B, x: &B::V) -> (B::V, [usize; 4]) {
    let s = be.shape(x);
    let dims = [s[0], s[1], s[2], s[3]];
    let bt = be.permute(x, &[0, 2, 1, 3]);
    (be.reshape(bt, &[dims[0] * dims[2], dims[1], dims[3]]), dims)
}

/// Inverse of [`spatial_view`].
pub(crate) fn from_spatial<B: Backend>(be: &B, y: B::V, d: [usize; 4]) -> B::V {
    let bt = be.reshape(y, &[d[0], d[2], d[1], d[3]]);
    be.permute(&bt, &[0, 2, 1, 3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_autograd::Tape;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn views_roundtrip() {
        let tape = Tape::new();
        let x = tape.constant(init::uniform(
            &mut SmallRng::seed_from_u64(0),
            [2, 3, 4, 5],
            -1.0,
            1.0,
        ));
        let (tv, td) = temporal_view(&tape, &x);
        assert_eq!(tv.shape(), vec![6, 4, 5]);
        assert!(from_temporal(&tape, tv, td)
            .value()
            .approx_eq(&x.value(), 0.0));
        let (sv, sd) = spatial_view(&tape, &x);
        assert_eq!(sv.shape(), vec![8, 3, 5]);
        assert!(from_spatial(&tape, sv, sd)
            .value()
            .approx_eq(&x.value(), 1e-6));
    }
}

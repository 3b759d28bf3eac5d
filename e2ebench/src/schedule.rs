//! Seeded request and window schedules.
//!
//! Everything a workload feeds the program is a pure function of the
//! benchmark seed: which hot window each logical client asks for, and
//! the content of every unique window. The program only ever sees the
//! generated inputs.

use cts_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Independent schedule streams derived from one benchmark seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Unique windows served during warm-up rounds.
    Warmup,
    /// Unique windows served during the timed phase.
    Timed,
    /// The hot set of the cache-hit workload.
    HotSet,
    /// Which hot window each logical client requests.
    HotPicks,
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Warmup => 0x7761_726d,
            Stream::Timed => 0x7469_6d65,
            Stream::HotSet => 0x686f_7473,
            Stream::HotPicks => 0x7069_636b,
        }
    }
}

fn mix(seed: u64, stream: Stream, k: u64) -> u64 {
    // SplitMix64 finalizer over the combined inputs.
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.tag().rotate_left(32))
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k`-th window of `stream`: a base window picked from `pool` with
/// every reading perturbed by seeded noise, so distinct `k` give distinct
/// content (and distinct cache keys) with realistic magnitudes.
pub fn window(pool: &[Tensor], seed: u64, stream: Stream, k: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(mix(seed, stream, k));
    let base = &pool[rng.gen_range(0..pool.len())];
    let mut x = base.clone();
    for v in x.data_mut() {
        *v += rng.gen_range(-0.05f32..0.05);
    }
    x
}

/// Which of `hot` windows each successive logical client asks for.
pub struct Picks {
    rng: SmallRng,
    hot: usize,
}

impl Picks {
    /// Picks over `hot` windows for `seed`.
    pub fn new(seed: u64, hot: usize) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(mix(seed, Stream::HotPicks, 0)),
            hot,
        }
    }

    /// The next client's hot-window index.
    pub fn next_index(&mut self) -> usize {
        self.rng.gen_range(0..self.hot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<Tensor> {
        (0..4)
            .map(|i| Tensor::full([1, 3, 4, 2], i as f32))
            .collect()
    }

    fn bits(x: &Tensor) -> Vec<u32> {
        x.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn seed_determines_the_window_schedule() {
        let p = pool();
        for k in 0..16 {
            let a = window(&p, 5, Stream::Timed, k);
            let b = window(&p, 5, Stream::Timed, k);
            assert_eq!(bits(&a), bits(&b), "same seed, same k must repeat");
            assert_eq!(a.shape(), p[0].shape());
        }
        let differs = |s1: u64, st1: Stream, s2: u64, st2: Stream| {
            (0..16).any(|k| bits(&window(&p, s1, st1, k)) != bits(&window(&p, s2, st2, k)))
        };
        assert!(
            differs(5, Stream::Timed, 6, Stream::Timed),
            "seed must matter"
        );
        assert!(
            differs(5, Stream::Timed, 5, Stream::Warmup),
            "streams must differ"
        );
        let distinct: std::collections::HashSet<Vec<u32>> = (0..64)
            .map(|k| bits(&window(&p, 5, Stream::HotSet, k)))
            .collect();
        assert_eq!(distinct.len(), 64, "windows of one stream must be unique");
    }

    #[test]
    fn seed_determines_the_request_schedule() {
        let run = |seed| {
            let mut picks = Picks::new(seed, 64);
            (0..512).map(|_| picks.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        assert!(run(3).iter().all(|&i| i < 64));
    }
}

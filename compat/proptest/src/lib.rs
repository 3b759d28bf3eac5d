//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, implementing the subset the workspace tests use:
//!
//! - the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! - `prop_assert!` / `prop_assert_eq!`,
//! - [`Strategy`] with `prop_map`, range strategies, tuple strategies,
//!   and [`collection::vec`].
//!
//! Cases are generated from a deterministic per-test RNG, so failures
//! reproduce exactly. There is no shrinking: the failing case's inputs are
//! reported via the panic message of the inner assertion instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runner configuration (`proptest::test_runner::Config` stand-in).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to execute per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The RNG handed to strategies while generating a case.
pub struct TestRng(SmallRng);

impl TestRng {
    /// Deterministic RNG for case `case` of the test named `test_name`.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name keeps streams distinct per test while
        // staying fully deterministic run-to-run.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(SmallRng::seed_from_u64(h ^ ((case as u64) << 32)))
    }

    /// Borrow the underlying generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.0
    }
}

/// A generator of random values (`proptest::strategy::Strategy` stand-in).
///
/// No shrinking machinery: a strategy just produces one value per case.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! numeric_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.rng().gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}

numeric_range_strategies!(usize, u64, u32, i64, i32);

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn new_value(&self, rng: &mut TestRng) -> f32 {
        use rand::Rng;
        rng.rng().gen_range(self.clone())
    }
}

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.rng().gen_range(self.clone())
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Boolean strategies (`proptest::bool` stand-in).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy type behind [`ANY`].
    #[derive(Clone, Copy)]
    pub struct Any;

    /// Uniformly random `bool`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = core::primitive::bool;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            use rand::Rng;
            rng.rng().gen_range(0u32..2) == 1
        }
    }
}

/// Collection strategies (`proptest::collection` stand-in).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s of a fixed length, from [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    /// `Vec` of exactly `len` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Property-test assertion; panics (and thus fails the case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-test equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declare property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that runs `body` over `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = { $cfg }; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = { $crate::ProptestConfig::default() }; $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = { $cfg:expr }; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::new_value(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
}

/// Common imports (`proptest::prelude` stand-in).
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{Map, ProptestConfig, Strategy, TestRng};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn squares() -> impl Strategy<Value = u64> {
        (0u64..100).prop_map(|x| x * x)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        fn ranges_stay_in_bounds(x in -5.0f32..5.0, n in 1usize..10) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        fn mapped_and_tuple_strategies(sq in squares(), pair in (0usize..4, 0u64..7)) {
            let root = (sq as f64).sqrt().round() as u64;
            prop_assert_eq!(root * root, sq);
            prop_assert!(pair.0 < 4 && pair.1 < 7);
        }

        fn vec_strategy_has_fixed_len(v in collection::vec(-1.0f32..1.0, 8)) {
            prop_assert_eq!(v.len(), 8);
        }
    }

    #[test]
    fn deterministic_per_test_and_case() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        let s = 0u64..1_000_000;
        assert_eq!(s.new_value(&mut a), s.new_value(&mut b));
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(s.new_value(&mut a), s.new_value(&mut c));
    }
}

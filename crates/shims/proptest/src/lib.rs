//! Offline drop-in shim for the subset of the `proptest` API this workspace
//! uses: the [`proptest!`] macro, range / `any` / `Just` / tuple /
//! collection strategies, `prop_map` / `boxed` combinators, [`prop_oneof!`],
//! and the `prop_assert*` family.
//!
//! The build environment has no network access to crates.io, so this crate
//! vendors a minimal property-testing engine instead. Differences from real
//! proptest, none of which matter to the in-repo property suites:
//!
//! * no shrinking — a failing case reports its inputs but is not minimized;
//! * sampling is seeded deterministically from the test function's name, so
//!   every run covers the same cases (use more cases for more coverage);
//! * strategies are sampled independently per case (no recursive strategies,
//!   filters, or value trees).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Per-test configuration (subset of `proptest::test_runner::Config`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a test case did not count as a success.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case's inputs were rejected by `prop_assume!`; draw a fresh case.
    Reject,
    /// A `prop_assert*` failed with this message.
    Fail(String),
}

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A source of random values of one type (subset of `proptest::Strategy`).
///
/// Unlike real proptest there are no value trees: a strategy simply draws a
/// value per case.
pub trait Strategy {
    /// The type of values drawn.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps drawn values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy (subset of `proptest::strategy::BoxedStrategy`).
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice among boxed strategies (backs [`prop_oneof!`]).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! of zero strategies");
        let i = rng.gen_range(0..self.0.len());
        self.0[i].sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                if e < <$t>::MAX {
                    rng.gen_range(s..e + 1)
                } else if s > <$t>::MIN {
                    rng.gen_range(s - 1..e) + 1
                } else {
                    // Full domain: all bit patterns are valid values.
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S0 0, S1 1)
    (S0 0, S1 1, S2 2)
    (S0 0, S1 1, S2 2, S3 3)
}

/// Marker for types with a canonical full-domain strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws a uniform value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u16
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The full-domain strategy for `T` (shim for `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `prop::` namespace used by `use proptest::prelude::*` consumers.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng;
        use std::ops::Range;

        /// A `Vec` of `size`-range length with elements drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, size }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let n = rng.gen_range(self.size.clone());
                (0..n).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }
}

/// Everything a `use proptest::prelude::*` consumer expects.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[doc(hidden)]
pub fn __seed_for(name: &str) -> u64 {
    // FNV-1a over the test name: deterministic across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[doc(hidden)]
pub fn __run_cases(
    name: &str,
    config: &ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::seed_from_u64(__seed_for(name));
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(20).max(1_000);
    while passed < config.cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "proptest '{name}': too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed after {passed} passing cases: {msg}")
            }
        }
    }
}

/// Declares property tests (subset of `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])+
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::__run_cases(stringify!($name), &config, |__rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
    )*};
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
}

/// Rejects the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_sample_in_bounds(x in 10u64..20, y in 0u8..=3) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y <= 3);
        }

        #[test]
        fn vec_and_tuple_strategies(v in prop::collection::vec((0usize..4, any::<u64>()), 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|(i, _)| *i < 4));
        }

        #[test]
        fn oneof_map_and_just(op in prop_oneof![Just(0u32), (1u32..5).prop_map(|v| v * 10)]) {
            prop_assert!(op == 0 || (10..50).contains(&op));
        }

        #[test]
        fn assume_rejects_without_failing(a in 0u32..100) {
            prop_assume!(a % 2 == 0);
            prop_assert_eq!(a % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn inner(x in 0u32..10) {
                prop_assert!(x < 5, "x = {} too big", x);
            }
        }
        inner();
    }
}

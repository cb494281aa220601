//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment for this repository has no access to a crates.io
//! registry, so the real `proptest` cannot be vendored. This shim implements
//! the subset of the API the workspace's property suites use — `proptest!`,
//! `prop_assert*`, `prop_assume!`, `prop_oneof!`, range/tuple/collection
//! strategies, `prop_map`, and `ProptestConfig` — over a deterministic
//! splitmix64 generator, so `cargo test` exercises every property with a
//! reproducible input stream.
//!
//! Differences from real proptest, by design:
//! - no shrinking: a failing case reports its case number and panics;
//! - `cases` defaults to 256, matching real proptest;
//! - the RNG seed is derived from the test's module path + name, so runs
//!   are reproducible across invocations and machines;
//! - `prop_assume!` rejections consume a case from the budget (real
//!   proptest regenerates the input and errors past a rejection cap), so
//!   a high-rejection-rate assumption silently shrinks effective coverage
//!   — keep assumptions rarely-rejecting.
//!
//! Swap the workspace `proptest` dependency back to the real crate when a
//! registry is reachable; the test sources need no changes.

pub mod test_runner {
    /// Deterministic splitmix64 generator.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from an arbitrary label (we use the test's full path) so
        /// every test gets an independent, stable stream.
        pub fn deterministic(label: &str) -> Self {
            // FNV-1a over the label.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            // 53 random mantissa bits.
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Mirror of `proptest::test_runner::Config` for the fields the
    /// workspace touches.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for source compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values. Unlike real proptest there is no
    /// value tree and no shrinking: a strategy is just a deterministic
    /// function of the RNG stream.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map {
                source: self,
                map: f,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let inner = self;
            BoxedStrategy(Box::new(move |rng| inner.generate(rng)))
        }
    }

    /// Strategies are used by shared reference inside `proptest!` bodies.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.map)(self.source.generate(rng))
        }
    }

    /// Type-erased strategy, as produced by [`Strategy::boxed`].
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    if span == 0 {
                        // hi - lo + 1 == 2^64: the range covers the type's
                        // whole domain, so any 64-bit draw is in range.
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategies!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

    macro_rules! float_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let v = (self.start as f64
                        + rng.next_f64() * (self.end as f64 - self.start as f64))
                        as $t;
                    // Rounding (f64→f32 narrowing, or the multiply itself)
                    // can land exactly on the exclusive upper bound; remap
                    // that measure-zero sliver to keep the range half-open.
                    if v < self.end {
                        v
                    } else {
                        self.start
                    }
                }
            }
        )*};
    }
    float_range_strategies!(f32, f64);

    macro_rules! tuple_strategies {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
        (A, B, C, D, E, F, G, H, I)
        (A, B, C, D, E, F, G, H, I, J)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive element-count bounds for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub min: usize,
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.size.min == self.size.max {
                self.size.min
            } else {
                self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary: Sized {
        fn arbitrary_with(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_with(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary_with(rng)
        }
    }

    /// `any::<T>()` — an arbitrary value of `T`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Declares deterministic property tests. Each `fn name(pat in strategy, ...)
/// { body }` item becomes a `#[test]` that runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $(
                            let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                        )+
                        $body
                    }));
                    if let Err(payload) = outcome {
                        eprintln!(
                            "proptest-shim: property `{}` failed at case {}/{} (deterministic seed; rerun reproduces it)",
                            stringify!($name), case + 1, config.cases
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

/// `prop_assume!(cond)` — silently skip the current case if `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -2.0f64..2.0, n in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn vec_sizes_and_assume(v in prop::collection::vec(0.0f64..1.0, 2..6), flag in any::<bool>()) {
            prop_assume!(v.len() >= 2);
            prop_assert!(v.len() < 6);
            let _ = flag;
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0usize..5).prop_map(|n| n * 2),
            (10usize..10_000).prop_map(|n| n * 2 + 1),
        ]) {
            prop_assert!(v < 10 && v % 2 == 0 || v >= 21 && v % 2 == 1);
        }
    }

    proptest! {
        #[test]
        fn full_width_inclusive_ranges_generate(
            x in 0u64..=u64::MAX,
            y in i64::MIN..=i64::MAX,
        ) {
            // Regression: span (hi - lo + 1) wraps to 0 for full-domain
            // ranges; generation must not panic on modulo-by-zero.
            let _ = (x, y);
        }

        #[test]
        fn float_ranges_stay_half_open(v in 0.0f32..1.0f32, w in -3.0f64..3.0) {
            prop_assert!((0.0..1.0).contains(&v));
            prop_assert!((-3.0..3.0).contains(&w));
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::deterministic("seed");
        let mut b = crate::test_runner::TestRng::deterministic("seed");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

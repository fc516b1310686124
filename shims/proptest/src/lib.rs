//! Offline shim for the `proptest` API subset this workspace uses.
//!
//! Provides the `proptest!` macro, a [`strategy::Strategy`] trait with
//! `prop_map`, numeric range and tuple strategies, `prop::collection::vec`,
//! `prop::bool::weighted`, `prop::sample::select`, [`strategy::Just`], and the
//! `prop_assert*` macros.
//!
//! Cases are generated deterministically from a seed derived from the test's
//! module path and name, so failures reproduce exactly on re-run. There is no
//! shrinking and no failure persistence — a failing case panics immediately
//! with the values visible in the assertion message.

/// Deterministic case generation.
pub mod test_runner {
    /// Per-test configuration (subset: case count).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    /// SplitMix64 generator seeded from the test identity.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from an arbitrary label (module path + test name).
        pub fn deterministic(label: &str) -> Self {
            // FNV-1a over the label, so distinct tests get distinct streams.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform `u64` below `bound` (> 0).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

    macro_rules! impl_float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let unit = rng.unit_f64();
                    self.start + (self.end - self.start) * unit as $t
                }
            }
        )*};
    }

    impl_float_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

/// Namespaced strategy constructors (`prop::collection::vec`, …).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::{Range, RangeInclusive};

        /// Length specification for [`vec()`].
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi_inclusive: n }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
            }
        }

        /// Strategy for `Vec`s whose elements come from `element`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `Vec` of `element`-generated values with length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
                let len = self.size.lo + rng.below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy yielding `true` with probability `p`.
        #[derive(Debug, Clone, Copy)]
        pub struct Weighted(pub f64);

        /// `true` with probability `p`.
        pub fn weighted(p: f64) -> Weighted {
            assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
            Weighted(p)
        }

        impl Strategy for Weighted {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.unit_f64() < self.0
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy drawing uniformly from a fixed set.
        pub struct Select<T: Clone>(Vec<T>);

        /// Uniform draw from `options` (must be non-empty).
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select over an empty set");
            Select(options)
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                let i = rng.below(self.0.len() as u64) as usize;
                self.0[i].clone()
            }
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define deterministic property tests (see crate docs for the differences
/// from upstream proptest).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (
        $(#[test] fn $name:ident($($args:tt)*) $body:block)*
    ) => {
        $crate::proptest!(@expand ($crate::test_runner::ProptestConfig::default())
            $(#[test] fn $name($($args)*) $body)*);
    };
    (@expand ($cfg:expr)
        $(#[test] fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

/// Assert within a property test (panics immediately; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality within a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality within a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_generate_in_bounds(
            a in 3usize..9,
            b in -2.0f64..2.0,
            c in 1u8..=255,
        ) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-2.0..2.0).contains(&b));
            prop_assert!(c >= 1);
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec(0.0f64..1.0, 4..10),
            dims in (2usize..5, 2usize..5).prop_map(|(x, y)| (x * 2, y)),
        ) {
            prop_assert!(v.len() >= 4 && v.len() < 10);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            prop_assert!(dims.0 % 2 == 0);
        }

        #[test]
        fn select_and_weighted_draw(
            q in prop::sample::select(vec![9u32, 15, 19, 27]),
            flag in prop::bool::weighted(0.5),
        ) {
            prop_assert!([9, 15, 19, 27].contains(&q));
            let _ = flag;
        }
    }

    #[test]
    fn generation_is_deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut a = TestRng::deterministic("label");
        let mut b = TestRng::deterministic("label");
        let s = 0.0f64..1.0;
        let va: Vec<f64> = (0..16).map(|_| s.generate(&mut a)).collect();
        let vb: Vec<f64> = (0..16).map(|_| s.generate(&mut b)).collect();
        assert_eq!(va, vb);
    }
}

//! Offline stand-in for the `proptest` API subset this workspace's
//! property tests use.
//!
//! The build environment has no network access, so the real crate cannot be
//! fetched; this crate re-implements exactly what the test suites call:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`],
//! * [`Strategy`] with `prop_map`, implemented for integer and float
//!   ranges, tuples, and regex-like string patterns (`"[a-z]{1,15}"`,
//!   `"\\PC{0,200}"`),
//! * [`collection::vec`] and [`array::uniform2`]/[`array::uniform3`].
//!
//! Differences from real proptest: no shrinking (failures report the
//! assertion, and the run is fully deterministic per test name, so failures
//! reproduce exactly), and the default case count is 128 instead of 256.

use std::ops::Range;

pub mod test_runner {
    //! The minimal runner machinery the [`crate::proptest!`] macro expands
    //! against.

    /// Why a generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; generate a fresh case.
        Reject,
        /// A `prop_assert!` failed; abort the test.
        Fail(String),
    }

    /// Runner configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of accepted cases each property must pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` accepted cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 128 }
        }
    }

    /// Deterministic per-test generator (xoshiro256++ seeded from an FNV-1a
    /// hash of the test's module path and name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// A generator whose stream is a pure function of `test_name`, so
        /// every run of a test sees the same cases.
        pub fn for_test(test_name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut s = [0u64; 4];
            for w in &mut s {
                // SplitMix64 expansion of the hash.
                h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = h;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *w = z ^ (z >> 31);
            }
            TestRng { s }
        }

        /// The next 64 random bits (xoshiro256++).
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform draw in `[0, span)`.
        pub fn below(&mut self, span: u64) -> u64 {
            ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A generator of test-case values.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy applying `f` to every generated value.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// [`Strategy::prop_map`]'s adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// One alternative within a string-pattern character class.
#[derive(Debug, Clone, Copy)]
enum CharClass {
    /// `[lo-hi]` inclusive range.
    Span(char, char),
    /// A single literal character.
    One(char),
}

/// One `class{lo,hi}` element of a string pattern.
#[derive(Debug, Clone)]
struct PatternPiece {
    choices: Vec<CharClass>,
    reps: (usize, usize),
}

/// Parses the regex subset the workspace's tests use: concatenations of
/// `\PC` (any printable, non-control character) or `[...]` classes, each
/// with an optional `{lo,hi}` / `{n}` repetition (default exactly one).
fn parse_pattern(pattern: &str) -> Vec<PatternPiece> {
    // A palette of printable characters for `\PC`: mostly ASCII, with some
    // multi-byte characters to exercise UTF-8 handling.
    const PRINTABLE_EXTRAS: [char; 8] = ['é', 'ß', 'λ', '中', '→', '𝔘', '🙂', '\u{00A0}'];
    let mut pieces = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let choices = match c {
            '\\' => match chars.next() {
                Some('P') => {
                    assert_eq!(chars.next(), Some('C'), "unsupported escape in {pattern:?}");
                    let mut v = vec![CharClass::Span(' ', '~')];
                    v.extend(PRINTABLE_EXTRAS.map(CharClass::One));
                    v
                }
                other => vec![CharClass::One(other.unwrap_or('\\'))],
            },
            '[' => {
                let mut v = Vec::new();
                loop {
                    let lo = chars.next().expect("unterminated class");
                    if lo == ']' {
                        break;
                    }
                    if chars.peek() == Some(&'-') {
                        chars.next();
                        let hi = chars.next().expect("unterminated range");
                        v.push(CharClass::Span(lo, hi));
                    } else {
                        v.push(CharClass::One(lo));
                    }
                }
                v
            }
            lit => vec![CharClass::One(lit)],
        };
        let reps = if chars.peek() == Some(&'{') {
            chars.next();
            let mut spec = String::new();
            for r in chars.by_ref() {
                if r == '}' {
                    break;
                }
                spec.push(r);
            }
            match spec.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("bad repetition"),
                    hi.trim().parse().expect("bad repetition"),
                ),
                None => {
                    let n = spec.trim().parse().expect("bad repetition");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        pieces.push(PatternPiece { choices, reps });
    }
    pieces
}

impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let (lo, hi) = piece.reps;
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                let class = piece.choices[rng.below(piece.choices.len() as u64) as usize];
                out.push(match class {
                    CharClass::One(c) => c,
                    CharClass::Span(a, b) => char::from_u32(
                        a as u32 + rng.below(u64::from(b as u32 - a as u32 + 1)) as u32,
                    )
                    .unwrap_or(a),
                });
            }
        }
        out
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec`s of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            assert!(span > 0, "empty vec size range");
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod array {
    //! Fixed-size array strategies.

    use super::{Strategy, TestRng};

    /// See [`uniform2`]/[`uniform3`].
    #[derive(Debug, Clone)]
    pub struct UniformArray<S, const N: usize> {
        element: S,
    }

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];

        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            std::array::from_fn(|_| self.element.generate(rng))
        }
    }

    /// A strategy for `[T; 2]` from one element strategy.
    pub fn uniform2<S: Strategy>(element: S) -> UniformArray<S, 2> {
        UniformArray { element }
    }

    /// A strategy for `[T; 3]` from one element strategy.
    pub fn uniform3<S: Strategy>(element: S) -> UniformArray<S, 3> {
        UniformArray { element }
    }
}

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.
    pub use crate::test_runner::ProptestConfig;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < cfg.cases {
                attempts += 1;
                assert!(
                    attempts <= cfg.cases.saturating_mul(20).saturating_add(100),
                    "proptest: too many rejected cases ({accepted} accepted of {} wanted)",
                    cfg.cases
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest `{}` failed after {accepted} cases: {msg}", stringify!($name));
                    }
                }
            }
        }
    )*};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Rejects the current case (generates a replacement) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_strategy_respects_size(v in crate::collection::vec(0u32..5, 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn string_patterns_match_their_class(s in "[a-e]{1,3}") {
            prop_assert!((1..=3).contains(&s.chars().count()));
            prop_assert!(s.chars().all(|c| ('a'..='e').contains(&c)));
        }

        #[test]
        fn printable_pattern_emits_no_controls(s in "\\PC{0,50}") {
            prop_assert!(s.chars().count() <= 50);
            prop_assert!(s.chars().all(|c| !c.is_control()));
        }

        #[test]
        fn tuples_and_arrays_compose(
            (a, b) in (0u32..10, 0u32..10),
            arr in crate::array::uniform3(0u32..4),
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(arr.iter().all(|&x| x < 4));
        }

        #[test]
        fn prop_map_applies(n in (1usize..5).prop_map(|x| x * 100)) {
            prop_assert!(n % 100 == 0 && (100..500).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    // No `#[test]` attribute inside: a test attribute on a fn nested in
    // another fn is unnameable by the harness and rustc warns.
    proptest! {
        fn always_fails(x in 0u32..10) {
            prop_assert!(x > 100, "x was {x}");
        }
    }

    #[test]
    fn failing_property_panics_with_message() {
        let result = std::panic::catch_unwind(always_fails);
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

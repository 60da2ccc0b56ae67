//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a deterministic property-testing harness exposing the exact
//! subset of proptest's API its test suites use: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`], the [`strategy::Strategy`] trait
//! with `prop_map`, numeric-range and string-pattern strategies, tuples,
//! [`collection::vec`], [`bool::ANY`], and [`char::range`].
//!
//! Differences from upstream are intentional and documented:
//!
//! - **No shrinking.** A failing case reports its inputs via the assertion
//!   message instead of minimizing them.
//! - **Deterministic seeding.** Each property derives its RNG seed from the
//!   property's name, so failures reproduce exactly across runs and
//!   machines. Set `PROPTEST_CASES` to change the case count (default 96).
//! - **String patterns** support the subset used here: `.`, `[a-z0-9 .:]`
//!   character classes (with ranges), and `{m,n}` repetition.

#![forbid(unsafe_code)]

/// Strategies: deterministic generators of arbitrary-ish values.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A generator of values of type `Self::Value`.
    ///
    /// Mirrors `proptest::strategy::Strategy` minus shrinking: `generate`
    /// replaces the value-tree machinery.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map {
                source: self,
                map: f,
            }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut StdRng) -> U {
            (self.map)(self.source.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! numeric_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    numeric_range_strategy!(u8, u16, u32, u64, usize, i32, i64, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
    }

    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut StdRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }
}

/// The runner driving each property over its random cases.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::fmt;

    /// A failed property case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        reason: String,
    }

    impl TestCaseError {
        /// Fails the current case with a reason.
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError {
                reason: reason.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.reason)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Per-block case-count configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Cases to run per property.
        pub cases: u64,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig {
                cases: cases as u64,
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig {
                cases: case_count(),
            }
        }
    }

    /// FNV-1a over the property name: a stable per-property seed.
    fn name_seed(name: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Number of cases per property (`PROPTEST_CASES`, default 96).
    pub fn case_count() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(96)
    }

    /// Runs one property over its deterministic case stream, panicking on
    /// the first failing case.
    pub fn run_cases<F>(name: &str, property: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        run_cases_with(name, ProptestConfig::default(), property)
    }

    /// [`run_cases`] with an explicit [`ProptestConfig`].
    pub fn run_cases_with<F>(name: &str, config: ProptestConfig, mut property: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        let mut rng = StdRng::seed_from_u64(name_seed(name));
        let cases = config.cases;
        for case in 0..cases {
            if let Err(e) = property(&mut rng) {
                panic!("property '{name}' failed at case {case}/{cases}: {e}");
            }
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact `usize` or a
    /// `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Uniform `true`/`false`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.gen::<u64>() & 1 == 1
        }
    }

    /// A strategy for any `bool`.
    pub const ANY: Any = Any;
}

/// Character strategies (`proptest::char::range`).
pub mod char {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The strategy returned by [`range`].
    #[derive(Debug, Clone, Copy)]
    pub struct CharRange {
        lo: u32,
        hi: u32,
    }

    impl Strategy for CharRange {
        type Value = char;

        fn generate(&self, rng: &mut StdRng) -> char {
            // Retry across the (tiny) surrogate gap.
            loop {
                if let Some(c) = char::from_u32(rng.gen_range(self.lo..=self.hi)) {
                    return c;
                }
            }
        }
    }

    /// Uniform `char` in `[lo, hi]` (inclusive).
    pub fn range(lo: char, hi: char) -> CharRange {
        assert!(lo <= hi, "empty char range");
        CharRange {
            lo: lo as u32,
            hi: hi as u32,
        }
    }
}

/// String-pattern strategies: the `"regex"` shorthand.
pub mod string {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// One pattern atom: a set of candidate chars plus a repetition range.
    struct Atom {
        choices: Vec<char>,
        min: usize,
        max: usize,
    }

    /// Characters `.` can produce: printable ASCII plus a few multi-byte
    /// code points so UTF-8 boundary handling gets exercised.
    fn dot_choices() -> Vec<char> {
        let mut v: Vec<char> = (0x20u8..0x7F).map(|b| b as char).collect();
        v.extend(['é', 'Ω', '✓', '雲', '𝛼']);
        v
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Vec<char> {
        let mut set = Vec::new();
        let mut pending: Option<char> = None;
        for c in chars.by_ref() {
            match c {
                ']' => {
                    if let Some(p) = pending {
                        set.push(p);
                    }
                    return set;
                }
                '-' => {
                    // Range if we have a left end and a right end follows;
                    // handled by peeking at the next loop step via marker.
                    if let Some(p) = pending {
                        pending = None;
                        set.push('\u{0}');
                        set.push(p); // sentinel pair resolved below
                    } else {
                        pending = Some('-');
                    }
                }
                c => {
                    // Resolve a pending range sentinel: [.., '\0', lo] + c.
                    if set.len() >= 2 && set[set.len() - 2] == '\u{0}' {
                        let lo = set.pop().expect("sentinel lo");
                        set.pop(); // sentinel
                        for u in (lo as u32)..=(c as u32) {
                            if let Some(ch) = char::from_u32(u) {
                                set.push(ch);
                            }
                        }
                    } else {
                        if let Some(p) = pending.take() {
                            set.push(p);
                        }
                        pending = Some(c);
                    }
                }
            }
        }
        if let Some(p) = pending {
            set.push(p);
        }
        set
    }

    fn parse_repetition(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> (usize, usize) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut spec = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                break;
            }
            spec.push(c);
        }
        match spec.split_once(',') {
            Some((m, n)) => (
                m.trim().parse().expect("repetition min"),
                n.trim().parse().expect("repetition max"),
            ),
            None => {
                let n = spec.trim().parse().expect("repetition count");
                (n, n)
            }
        }
    }

    fn parse(pattern: &str) -> Vec<Atom> {
        let mut atoms = Vec::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let choices = match c {
                '.' => dot_choices(),
                '[' => parse_class(&mut chars),
                other => vec![other],
            };
            let (min, max) = parse_repetition(&mut chars);
            atoms.push(Atom { choices, min, max });
        }
        atoms
    }

    /// Generates one string matching the (subset) pattern.
    ///
    /// # Panics
    ///
    /// Panics on pattern syntax outside the supported subset.
    pub fn generate_from_pattern(pattern: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for atom in parse(pattern) {
            assert!(
                !atom.choices.is_empty(),
                "empty character class in {pattern:?}"
            );
            let reps = rng.gen_range(atom.min..=atom.max);
            for _ in 0..reps {
                let idx = rng.gen_range(0usize..atom.choices.len());
                out.push(atom.choices[idx]);
            }
        }
        out
    }
}

/// The subset of proptest's prelude this workspace imports.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares deterministic property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     // (in a test module this would carry `#[test]`)
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # fn main() { addition_commutes(); }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run_cases_with(stringify!($name), $config, |__proptest_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strategy), __proptest_rng);)+
                    $body
                    #[allow(unreachable_code, reason = "a property body may end in `return` or a panic")]
                    Ok(())
                });
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run_cases(stringify!($name), |__proptest_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strategy), __proptest_rng);)+
                    $body
                    #[allow(unreachable_code, reason = "a property body may end in `return` or a panic")]
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts within a property, failing the case (not the process) on
/// violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {:?} == {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn string_patterns_match_their_own_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = crate::string::generate_from_pattern("[a-c]{2,4}", &mut rng);
            assert!((2..=4).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");

            let t = crate::string::generate_from_pattern("[A-Za-z0-9 :]{0,40}", &mut rng);
            assert!(t.chars().count() <= 40);
            assert!(t
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == ' ' || c == ':'));

            let u = crate::string::generate_from_pattern("sys-[0-9]{1,3}", &mut rng);
            assert!(u.starts_with("sys-"), "{u:?}");
        }
    }

    #[test]
    fn dot_pattern_emits_multibyte_occasionally() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut saw_multibyte = false;
        for _ in 0..200 {
            let s = crate::string::generate_from_pattern(".{0,20}", &mut rng);
            saw_multibyte |= s.bytes().any(|b| b >= 0x80);
        }
        assert!(saw_multibyte, "dot class never produced multi-byte UTF-8");
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(a in 0u64..100, b in 0u64..100) {
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (0u8..10, 0u8..10).prop_map(|(x, y)| (x as u16) + (y as u16)),
            flag in crate::bool::ANY,
            c in crate::char::range('a', 'f'),
            v in crate::collection::vec(0i32..5, 1..8),
        ) {
            prop_assert!(pair <= 18);
            prop_assert!(usize::from(flag) <= 1);
            prop_assert!(('a'..='f').contains(&c));
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_info() {
        crate::test_runner::run_cases("always_fails", |_rng| Err(TestCaseError::fail("nope")));
    }
}

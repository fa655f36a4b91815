//! The `g3` approximation error and its cheap bounds.
//!
//! `g3(X → A)` is the minimum fraction of rows that must be removed from `r`
//! for `X → A` to hold (Kivinen & Mannila's measure, adopted by the paper in
//! Section 1). Section 2 derives the partition form:
//!
//! ```text
//! g3(X → A) = 1 − Σ_{c ∈ π_X} max{ |c'| : c' ∈ π_{X∪{A}}, c' ⊆ c } / |r|
//! ```
//!
//! [`g3_removed_rows`] implements the O(‖π̂‖) representative-table algorithm
//! from the extended report \[4\]; [`G3Bounds`] implements the quick bound
//! from the same report ("a method to quickly bound the g3 error",
//! paper Section 5) that lets approximate TANE decide most validity tests
//! without running the exact algorithm:
//!
//! * **upper bound** — `g3(X → A) ≤ e(X)`: removing the `e(X)·|r|` rows that
//!   make `X` a superkey certainly makes `X → A` hold.
//! * **lower bound** — `g3(X → A) ≥ e(X) − e(X∪{A})`: if `X → A` holds after
//!   removing a set `S` of rows, then on the remaining rows `π_X` and
//!   `π_{X∪{A}}` coincide, so `e(X) ≤ e(X∪{A}) + |S|/|r|` (each removed row
//!   lowers `e` by at most `1/|r|`).
//!
//! The exact kernel marks `π̂_X` in the product's epoch-stamped probe table
//! and then reads only the first row of each `π̂_{X∪{A}}` class. That is
//! enough under its precondition that `π̂_{X∪{A}}` refines `π̂_X`: a class
//! of `π̂_{X∪{A}}` (size ≥ 2) lies inside one class of `π_X` of size ≥ 2,
//! so its first row names that `π̂_X` class. The kernel touches
//! `‖π̂_X‖ + |π̂_{X∪{A}}|` rows, and clears nothing between calls.

use crate::product::ProbeTable;
use crate::stripped::StrippedPartition;

/// Reusable scratch for [`g3_removed_rows`].
#[derive(Debug)]
pub struct G3Scratch {
    probe: ProbeTable,
    /// `largest[i]` = the largest `π̂_{X∪{A}}` class seen so far inside
    /// `π̂_X` class `i`; 0 between calls.
    largest: Vec<u32>,
}

impl G3Scratch {
    /// Allocates scratch for up to `n_rows` rows.
    pub fn new(n_rows: usize) -> G3Scratch {
        G3Scratch {
            probe: ProbeTable::new(n_rows),
            largest: Vec::new(),
        }
    }
}

/// Number of rows that must be removed for `X → A` to hold, computed from
/// `π̂_X` and `π̂_{X∪{A}}` with caller-provided scratch.
///
/// `pi_xa` must refine `pi_x`: every class of `pi_xa` lies inside one
/// class of `pi_x`. TANE always calls it that way, with `pi_xa` the
/// partition of a superset of `pi_x`'s attributes. Debug builds assert
/// the part of the precondition the kernel relies on.
///
/// # Panics
///
/// Panics if the partitions disagree on `|r|`.
pub fn g3_removed_rows_with_scratch(
    pi_x: &StrippedPartition,
    pi_xa: &StrippedPartition,
    scratch: &mut G3Scratch,
) -> usize {
    assert_eq!(
        pi_x.n_rows(),
        pi_xa.n_rows(),
        "partitions of different relations"
    );
    let G3Scratch { probe, largest } = scratch;
    let base = probe.mark(pi_x);
    if largest.len() < pi_x.num_classes() {
        largest.resize(pi_x.num_classes(), 0);
    }

    // For each class c of π̂_X, find the largest contained subclass.
    for class in pi_xa.classes() {
        let i = probe.class_of(class[0], base);
        debug_assert!(i.is_some(), "π̂_{{X∪A}} must refine π̂_X");
        if let Some(i) = i {
            largest[i] = largest[i].max(class.len() as u32);
        }
    }

    // Keep that subclass (stripped-away subclasses have size 1) and reset
    // the entry for the next call.
    let mut removed = 0usize;
    for (class, largest) in pi_x.classes().zip(largest.iter_mut()) {
        removed += class.len() - (*largest).max(1) as usize;
        *largest = 0;
    }
    removed
}

/// [`g3_removed_rows_with_scratch`] with fresh scratch.
pub fn g3_removed_rows(pi_x: &StrippedPartition, pi_xa: &StrippedPartition) -> usize {
    let mut scratch = G3Scratch::new(pi_x.n_rows());
    g3_removed_rows_with_scratch(pi_x, pi_xa, &mut scratch)
}

/// `g3(X → A)` as a fraction of `|r|` (0 for an empty relation).
pub fn g3_error(pi_x: &StrippedPartition, pi_xa: &StrippedPartition) -> f64 {
    let n = pi_x.n_rows();
    if n == 0 {
        0.0
    } else {
        g3_removed_rows(pi_x, pi_xa) as f64 / n as f64
    }
}

/// The sandwich bounds on `g3(X → A)` computable in O(1) from the partition
/// summaries, used to skip exact `g3` computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct G3Bounds {
    /// Lower bound in removed rows: `max(0, e(X)·|r| − e(X∪{A})·|r|)`.
    pub lower_rows: usize,
    /// Upper bound in removed rows: `e(X)·|r|`.
    pub upper_rows: usize,
    /// `|r|`.
    pub n_rows: usize,
}

impl G3Bounds {
    /// Computes the bounds from `π̂_X` and `π̂_{X∪{A}}`.
    pub fn new(pi_x: &StrippedPartition, pi_xa: &StrippedPartition) -> G3Bounds {
        assert_eq!(
            pi_x.n_rows(),
            pi_xa.n_rows(),
            "partitions of different relations"
        );
        let e_x = pi_x.error_rows();
        let e_xa = pi_xa.error_rows();
        G3Bounds {
            lower_rows: e_x.saturating_sub(e_xa),
            upper_rows: e_x,
            n_rows: pi_x.n_rows(),
        }
    }

    /// Lower bound as a fraction.
    pub fn lower(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.lower_rows as f64 / self.n_rows as f64
        }
    }

    /// Upper bound as a fraction.
    pub fn upper(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.upper_rows as f64 / self.n_rows as f64
        }
    }

    /// Tries to decide `g3 ≤ epsilon` from the bounds alone:
    /// `Some(true)` / `Some(false)` when decidable, `None` when the exact
    /// error must be computed.
    pub fn decide(&self, epsilon: f64) -> Option<bool> {
        if self.upper() <= epsilon {
            Some(true)
        } else if self.lower() > epsilon {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::product;
    use tane_relation::{Relation, Schema, Value};
    use tane_util::{AttrSet, SplitMix64};

    fn figure1() -> Relation {
        let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
        let mut b = Relation::builder(schema);
        for row in [
            ["1", "a", "$", "Flower"],
            ["1", "A", "L", "Tulip"],
            ["2", "A", "$", "Daffodil"],
            ["2", "A", "$", "Flower"],
            ["2", "b", "L", "Lily"],
            ["3", "b", "$", "Orchid"],
            ["3", "c", "L", "Flower"],
            ["3", "c", "#", "Rose"],
        ] {
            b.push_row(row.map(Value::from)).unwrap();
        }
        b.build()
    }

    fn pi(r: &Relation, attrs: &[usize]) -> StrippedPartition {
        StrippedPartition::from_attr_set(r, AttrSet::from_indices(attrs.iter().copied()))
    }

    /// Brute-force g3: try removing every subset? Too slow — instead use the
    /// definitional form directly on full partitions.
    fn g3_reference(r: &Relation, x: &[usize], a: usize) -> usize {
        use crate::full::Partition;
        let px = Partition::from_attr_set(r, AttrSet::from_indices(x.iter().copied()));
        let pxa = Partition::from_attr_set(r, AttrSet::from_indices(x.iter().copied()).with(a));
        let mut keep = 0usize;
        for c in px.classes() {
            let best = pxa
                .classes()
                .iter()
                .filter(|c2| c2.iter().all(|t| c.contains(t)))
                .map(|c2| c2.len())
                .max()
                .unwrap_or(0);
            keep += best;
        }
        r.num_rows() - keep
    }

    #[test]
    fn valid_dependency_has_zero_error() {
        // {B,C} → A holds in Figure 1.
        let r = figure1();
        let pi_bc = pi(&r, &[1, 2]);
        let pi_abc = pi(&r, &[0, 1, 2]);
        assert_eq!(g3_removed_rows(&pi_bc, &pi_abc), 0);
        assert_eq!(g3_error(&pi_bc, &pi_abc), 0.0);
    }

    #[test]
    fn invalid_dependency_error_on_figure1() {
        // {A} → B: π_A = {{1,2},{3,4,5},{6,7,8}}, π_AB = {{1},{2},{3,4},{5},{6},{7,8}}.
        // Class {1,2}: largest subclass 1 → remove 1. {3,4,5}: largest {3,4} → remove 1.
        // {6,7,8}: largest {7,8} → remove 1. Total 3 rows, g3 = 3/8.
        let r = figure1();
        let pi_a = pi(&r, &[0]);
        let pi_ab = pi(&r, &[0, 1]);
        assert_eq!(g3_removed_rows(&pi_a, &pi_ab), 3);
        assert!((g3_error(&pi_a, &pi_ab) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn matches_reference_on_all_figure1_pairs() {
        let r = figure1();
        let mut scratch = G3Scratch::new(r.num_rows());
        for bits in 0u64..16 {
            let x = AttrSet::from_bits(bits);
            for a in 0..4usize {
                if x.contains(a) {
                    continue;
                }
                let px = StrippedPartition::from_attr_set(&r, x);
                let pxa = StrippedPartition::from_attr_set(&r, x.with(a));
                let got = g3_removed_rows_with_scratch(&px, &pxa, &mut scratch);
                let xs: Vec<usize> = x.iter().collect();
                let want = g3_reference(&r, &xs, a);
                assert_eq!(got, want, "X={x:?}, A={a}");
            }
        }
    }

    #[test]
    fn empty_lhs_counts_most_common_value() {
        // ∅ → A: keep the largest class of π_A = {3,4,5} (3 rows) → remove 5.
        let r = figure1();
        let unit = StrippedPartition::unit(8);
        let pi_a = pi(&r, &[0]);
        assert_eq!(g3_removed_rows(&unit, &pi_a), 5);
    }

    #[test]
    fn superkey_lhs_zero_error() {
        let r = figure1();
        let key = pi(&r, &[0, 1, 2, 3]);
        let key_d = pi(&r, &[0, 1, 2, 3]); // adding nothing new
        assert_eq!(g3_removed_rows(&key, &key_d), 0);
    }

    #[test]
    fn bounds_sandwich_exact_value_everywhere() {
        let r = figure1();
        for bits in 0u64..16 {
            let x = AttrSet::from_bits(bits);
            for a in 0..4usize {
                if x.contains(a) {
                    continue;
                }
                let px = StrippedPartition::from_attr_set(&r, x);
                let pxa = StrippedPartition::from_attr_set(&r, x.with(a));
                let exact = g3_removed_rows(&px, &pxa);
                let bounds = G3Bounds::new(&px, &pxa);
                assert!(bounds.lower_rows <= exact, "lower X={x:?} A={a}");
                assert!(exact <= bounds.upper_rows, "upper X={x:?} A={a}");
            }
        }
    }

    #[test]
    fn decide_respects_bounds() {
        let b = G3Bounds {
            lower_rows: 2,
            upper_rows: 5,
            n_rows: 10,
        };
        assert_eq!(b.decide(0.6), Some(true)); // upper 0.5 ≤ 0.6
        assert_eq!(b.decide(0.5), Some(true));
        assert_eq!(b.decide(0.1), Some(false)); // lower 0.2 > 0.1
        assert_eq!(b.decide(0.3), None); // in between
        let empty = G3Bounds {
            lower_rows: 0,
            upper_rows: 0,
            n_rows: 0,
        };
        assert_eq!(empty.decide(0.0), Some(true));
    }

    #[test]
    fn g3_with_product_partitions() {
        // Same answers whether π_{XA} comes from a product or directly.
        let r = figure1();
        let pi_a = pi(&r, &[0]);
        let pi_d = pi(&r, &[3]);
        let prod = product(&pi_a, &pi_d);
        let direct = pi(&r, &[0, 3]);
        assert_eq!(
            g3_removed_rows(&pi_a, &prod),
            g3_removed_rows(&pi_a, &direct)
        );
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let r = figure1();
        let mut scratch = G3Scratch::new(r.num_rows());
        let pi_a = pi(&r, &[0]);
        let pi_ab = pi(&r, &[0, 1]);
        let first = g3_removed_rows_with_scratch(&pi_a, &pi_ab, &mut scratch);
        for _ in 0..5 {
            assert_eq!(
                g3_removed_rows_with_scratch(&pi_a, &pi_ab, &mut scratch),
                first
            );
        }
    }

    #[test]
    fn empty_relation_is_zero() {
        let p = StrippedPartition::empty(0);
        assert_eq!(g3_error(&p, &p), 0.0);
        assert_eq!(g3_removed_rows(&p, &p), 0);
    }

    /// A seeded five-column relation of `n` rows mixing low, medium and
    /// high cardinality with one column where ~90% of rows share a value.
    fn random_relation(rng: &mut SplitMix64, n: usize) -> Relation {
        let n32 = n.max(1) as u32;
        let columns = [2, 5, (n32 / 8).max(1), n32, 3]
            .into_iter()
            .enumerate()
            .map(|(c, distinct)| {
                (0..n)
                    .map(|_| {
                        if c == 4 && rng.bool_with_p(0.9) {
                            0
                        } else {
                            rng.u32_below(distinct)
                        }
                    })
                    .collect()
            })
            .collect();
        Relation::from_codes(Schema::new(["A", "B", "C", "D", "E"]).unwrap(), columns).unwrap()
    }

    /// Every refining pair `(π̂_X, π̂_{X∪{A}})` of a relation, built by
    /// chained products as TANE builds them.
    fn refining_pairs(r: &Relation) -> Vec<(StrippedPartition, StrippedPartition, usize)> {
        let mut pairs = Vec::new();
        for bits in 0u64..(1 << r.num_attrs()) {
            let x = AttrSet::from_bits(bits);
            for a in (0..r.num_attrs()).filter(|&a| !x.contains(a)) {
                let want = g3_reference(r, &x.iter().collect::<Vec<_>>(), a);
                pairs.push((
                    StrippedPartition::from_attr_set(r, x),
                    StrippedPartition::from_attr_set(r, x.with(a)),
                    want,
                ));
            }
        }
        pairs
    }

    #[test]
    fn matches_reference_on_random_refining_pairs() {
        let mut rng = SplitMix64::new(0x93_0001);
        let mut scratch = G3Scratch::new(0);
        for n in [0usize, 1, 2, 5, 40, 150] {
            let r = random_relation(&mut rng, n);
            for (px, pxa, want) in refining_pairs(&r) {
                assert_eq!(g3_removed_rows_with_scratch(&px, &pxa, &mut scratch), want);
            }
        }
    }

    #[test]
    fn epoch_wrap_refills_the_probe_table() {
        let mut rng = SplitMix64::new(0x93_0002);
        let r = random_relation(&mut rng, 150);
        let mut scratch = G3Scratch::new(r.num_rows());
        for (j, (px, pxa, want)) in refining_pairs(&r).into_iter().enumerate() {
            // Even calls mark π̂_X so its last mark is u32::MAX − 1 (when
            // that is ahead of the current base); odd calls would run past
            // u32::MAX and refill a table that still holds the stale marks
            // of earlier calls.
            let k = px.num_classes() as u32;
            let target = u32::MAX - if j % 2 == 0 { k } else { k / 2 };
            scratch.probe.advance_to(target);
            assert_eq!(g3_removed_rows_with_scratch(&px, &pxa, &mut scratch), want);
        }
    }

    #[test]
    fn one_scratch_serves_relations_of_different_sizes() {
        let mut rng = SplitMix64::new(0x93_0003);
        let mut scratch = G3Scratch::new(4);
        for n in [60usize, 150, 9, 150, 0, 30] {
            let r = random_relation(&mut rng, n);
            for (px, pxa, want) in refining_pairs(&r) {
                assert_eq!(
                    g3_removed_rows_with_scratch(&px, &pxa, &mut scratch),
                    want,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must refine")]
    fn non_refining_pair_trips_the_debug_assertion() {
        let key = StrippedPartition::from_column(&[0, 1, 2, 3]);
        let _ = g3_removed_rows(&key, &StrippedPartition::unit(4));
    }
}

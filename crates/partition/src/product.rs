//! The partition product `π' · π''` (Lemma 3).
//!
//! The product of two partitions is the least refined partition refining
//! both — and by Lemma 3, `π_X · π_Y = π_{X∪Y}`. TANE uses this to compute
//! each level-ℓ partition from two of its level-(ℓ−1) subsets instead of
//! re-grouping the whole relation.
//!
//! The algorithm is the probe-table construction from the extended report
//! \[4\], written as a count-then-scatter pass straight into the output
//! CSR. The smaller side `π̂_a` is marked in a `ProbeTable`; then each
//! class of `π̂_b` is walked twice. The first walk counts its rows per
//! mark. The second hands each mark seen at least twice an output range,
//! in first-seen order, and scatters the rows into it. Output classes
//! therefore appear in `π̂_b` class order, then first-seen mark order, and
//! rows keep their `π̂_b` order. Running time is O(‖π̂_a‖ + ‖π̂_b‖),
//! independent of `|r|` except through the partitions themselves.
//!
//! The probe table is epoch-stamped, so no call clears it, and the
//! scratch buffers are reused across calls. The only allocations per call
//! are the exactly-sized `elements` and `begins` of the result.

use crate::stripped::StrippedPartition;

/// The epoch-stamped row → class table both kernels probe.
///
/// [`mark`](Self::mark) stamps row `r` of class `i` as `base + i` and
/// moves `base` past the new marks, so any value below the `base` a call
/// got back is stale. No call clears the table; it is refilled with
/// zeros only when `base` would wrap.
#[derive(Debug)]
pub(crate) struct ProbeTable {
    marks: Vec<u32>,
    /// The first mark the next [`mark`](Self::mark) call hands out.
    base: u32,
}

impl ProbeTable {
    pub(crate) fn new(n_rows: usize) -> ProbeTable {
        ProbeTable {
            marks: vec![0; n_rows],
            base: 1,
        }
    }

    /// Stamps every row of `p`'s class `i` with `base + i` and returns
    /// `base`.
    pub(crate) fn mark(&mut self, p: &StrippedPartition) -> u32 {
        if self.marks.len() < p.n_rows() {
            self.marks.resize(p.n_rows(), 0);
        }
        let n_classes = p.num_classes() as u32;
        if self.base > u32::MAX - n_classes {
            self.marks = vec![0; self.marks.len()];
            self.base = 1;
        }
        let base = self.base;
        for (i, class) in p.classes().enumerate() {
            let mark = base + i as u32;
            for &row in class {
                self.marks[row as usize] = mark;
            }
        }
        self.base = base + n_classes;
        base
    }

    /// The class of `row` under the marking that returned `base`, or
    /// `None` when the row was in no class of it.
    #[inline]
    pub(crate) fn class_of(&self, row: u32, base: u32) -> Option<usize> {
        let mark = self.marks[row as usize];
        (mark >= base).then(|| (mark - base) as usize)
    }

    /// Moves the next `base` forward to `base`, e.g. to just below
    /// `u32::MAX` so tests reach the wrap refill without 2³² calls. Never
    /// backwards: that would make stale marks current again.
    #[cfg(test)]
    pub(crate) fn advance_to(&mut self, base: u32) {
        self.base = self.base.max(base);
    }
}

/// Reusable scratch space for [`product_with_scratch`].
///
/// One instance per thread; `new` allocates O(|r|) once and every product
/// call reuses it. TANE allocates a single scratch for the whole run.
#[derive(Debug)]
pub struct ProductScratch {
    probe: ProbeTable,
    /// `count[i]` = rows of the current `π̂_b` class in `π̂_a` class `i`
    /// while that class is walked; 0 between classes.
    count: Vec<u32>,
    /// `next[i]` = the next free slot of class `i`'s output range.
    next: Vec<u32>,
    /// Staging for the result's `elements` and `begins`.
    elements: Vec<u32>,
    begins: Vec<u32>,
}

impl ProductScratch {
    /// Allocates scratch for relations of up to `n_rows` rows.
    pub fn new(n_rows: usize) -> ProductScratch {
        ProductScratch {
            probe: ProbeTable::new(n_rows),
            count: Vec::new(),
            next: Vec::new(),
            elements: Vec::new(),
            begins: Vec::new(),
        }
    }
}

/// Computes `π' · π''`, allocating fresh scratch. Prefer
/// [`product_with_scratch`] in loops.
pub fn product(lhs: &StrippedPartition, rhs: &StrippedPartition) -> StrippedPartition {
    let mut scratch = ProductScratch::new(lhs.n_rows().max(rhs.n_rows()));
    product_with_scratch(lhs, rhs, &mut scratch)
}

/// Computes `π' · π''` using caller-provided scratch tables.
///
/// # Panics
///
/// Panics if the two partitions disagree on `|r|` (they must come from the
/// same relation).
pub fn product_with_scratch(
    lhs: &StrippedPartition,
    rhs: &StrippedPartition,
    scratch: &mut ProductScratch,
) -> StrippedPartition {
    assert_eq!(
        lhs.n_rows(),
        rhs.n_rows(),
        "partitions of different relations"
    );
    // Probing the smaller side first touches less memory. The product is
    // commutative, but the side choice fixes the output order.
    let (a, b) = if lhs.num_elements() <= rhs.num_elements() {
        (lhs, rhs)
    } else {
        (rhs, lhs)
    };
    let ProductScratch {
        probe,
        count,
        next,
        elements,
        begins,
    } = scratch;
    let base = probe.mark(a);
    if count.len() < a.num_classes() {
        count.resize(a.num_classes(), 0);
        next.resize(a.num_classes(), 0);
    }
    if elements.len() < b.num_elements() {
        elements.resize(b.num_elements(), 0);
    }
    begins.clear();
    begins.push(0);

    let mut end = 0u32;
    for class in b.classes() {
        for &row in class {
            if let Some(i) = probe.class_of(row, base) {
                count[i] += 1;
            }
        }
        for &row in class {
            let Some(i) = probe.class_of(row, base) else {
                continue;
            };
            match count[i] {
                // Range already handed out: scatter into it.
                0 => {
                    elements[next[i] as usize] = row;
                    next[i] += 1;
                }
                // A singleton after intersection: stripped.
                1 => count[i] = 0,
                // First row of a mark seen n ≥ 2 times: take the next n
                // output slots.
                n => {
                    elements[end as usize] = row;
                    next[i] = end + 1;
                    end += n;
                    begins.push(end);
                    count[i] = 0;
                }
            }
        }
    }

    StrippedPartition::from_parts(
        a.n_rows(),
        elements[..end as usize].to_vec(),
        begins.to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn singleton(r: &Relation, a: usize) -> StrippedPartition {
        StrippedPartition::from_column(r.column_codes(a))
    }

    #[test]
    fn lemma3_on_figure1() {
        let r = figure1();
        let pi_b = singleton(&r, 1);
        let pi_c = singleton(&r, 2);
        let prod = product(&pi_b, &pi_c);
        let direct = StrippedPartition::from_attr_set(&r, AttrSet::from_indices([1, 2]));
        assert_eq!(prod.canonicalize(), direct.canonicalize());
        // π_{B,C} stripped = {{3,4}} (0-based {2,3})
        assert_eq!(prod.num_classes(), 1);
        assert_eq!(prod.rank(), 7);
    }

    #[test]
    fn product_is_commutative() {
        let r = figure1();
        for x in 0..4 {
            for y in 0..4 {
                let p = product(&singleton(&r, x), &singleton(&r, y));
                let q = product(&singleton(&r, y), &singleton(&r, x));
                assert_eq!(p.canonicalize(), q.canonicalize(), "attrs {x},{y}");
            }
        }
    }

    #[test]
    fn product_is_idempotent() {
        let r = figure1();
        for x in 0..4 {
            let pi = singleton(&r, x);
            let p = product(&pi, &pi);
            assert_eq!(p.canonicalize(), pi.canonicalize(), "attr {x}");
        }
    }

    #[test]
    fn product_with_unit_is_identity() {
        let r = figure1();
        let unit = StrippedPartition::unit(r.num_rows());
        for x in 0..4 {
            let pi = singleton(&r, x);
            let p = product(&pi, &unit);
            assert_eq!(p.canonicalize(), pi.canonicalize(), "attr {x}");
        }
    }

    #[test]
    fn product_with_superkey_is_empty() {
        let key = StrippedPartition::from_column(&[0, 1, 2, 3]);
        let other = StrippedPartition::from_column(&[0, 0, 1, 1]);
        let p = product(&key, &other);
        assert!(p.is_superkey());
        assert_eq!(p.rank(), 4);
    }

    #[test]
    fn three_way_products_associate() {
        let r = figure1();
        let a = singleton(&r, 0);
        let b = singleton(&r, 1);
        let c = singleton(&r, 2);
        let ab_c = product(&product(&a, &b), &c);
        let a_bc = product(&a, &product(&b, &c));
        assert_eq!(ab_c.canonicalize(), a_bc.canonicalize());
        let direct = StrippedPartition::from_attr_set(&r, AttrSet::from_indices([0, 1, 2]));
        assert_eq!(ab_c.canonicalize(), direct.canonicalize());
    }

    #[test]
    fn scratch_reuse_is_clean_across_calls() {
        let r = figure1();
        let mut scratch = ProductScratch::new(r.num_rows());
        let mut results = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                results.push(product_with_scratch(
                    &singleton(&r, x),
                    &singleton(&r, y),
                    &mut scratch,
                ));
            }
        }
        // Recompute with fresh scratch each time; must be identical.
        let mut i = 0;
        for x in 0..4 {
            for y in 0..4 {
                let fresh = product(&singleton(&r, x), &singleton(&r, y));
                assert_eq!(
                    results[i].canonicalize(),
                    fresh.canonicalize(),
                    "pair {x},{y}"
                );
                i += 1;
            }
        }
    }

    #[test]
    fn scratch_grows_on_demand() {
        let mut scratch = ProductScratch::new(0);
        let p = StrippedPartition::from_column(&[0, 0, 1, 1]);
        let q = StrippedPartition::from_column(&[0, 1, 0, 1]);
        let prod = product_with_scratch(&p, &q, &mut scratch);
        assert!(prod.is_superkey());
    }

    #[test]
    #[should_panic(expected = "different relations")]
    fn mismatched_row_counts_panic() {
        let p = StrippedPartition::from_column(&[0, 0]);
        let q = StrippedPartition::from_column(&[0, 0, 0]);
        let _ = product(&p, &q);
    }

    #[test]
    fn product_of_empty_partitions() {
        let p = StrippedPartition::empty(10);
        let q = StrippedPartition::unit(10);
        assert!(product(&p, &q).is_superkey());
        assert!(product(&p, &p).is_superkey());
    }

    /// The kernel before the count-then-scatter rewrite: one heap bucket
    /// per `π̂_a` class, each `π̂_b` class walked twice, doubling output
    /// growth. The differential reference for byte-identical output.
    fn reference_product(lhs: &StrippedPartition, rhs: &StrippedPartition) -> StrippedPartition {
        let (a, b) = if lhs.num_elements() <= rhs.num_elements() {
            (lhs, rhs)
        } else {
            (rhs, lhs)
        };
        let mut t = vec![u32::MAX; a.n_rows()];
        for (i, class) in a.classes().enumerate() {
            for &row in class {
                t[row as usize] = i as u32;
            }
        }
        let mut s: Vec<Vec<u32>> = vec![Vec::new(); a.num_classes()];
        let mut elements = Vec::new();
        let mut begins = vec![0u32];
        for class in b.classes() {
            for &row in class {
                if let Some(bucket) = s.get_mut(t[row as usize] as usize) {
                    bucket.push(row);
                }
            }
            for &row in class {
                if let Some(bucket) = s.get_mut(t[row as usize] as usize) {
                    if bucket.len() >= 2 {
                        elements.extend_from_slice(bucket);
                        begins.push(elements.len() as u32);
                    }
                    bucket.clear();
                }
            }
        }
        StrippedPartition::from_parts(a.n_rows(), elements, begins)
    }

    /// A column of `n` codes over `distinct` values; with `skew`, about
    /// 90% of rows share code 0 and the rest spread out.
    fn column(rng: &mut SplitMix64, n: usize, distinct: u32, skew: bool) -> Vec<u32> {
        (0..n)
            .map(|_| {
                if skew && rng.bool_with_p(0.9) {
                    0
                } else {
                    rng.u32_below(distinct)
                }
            })
            .collect()
    }

    /// Seeded partitions of one `n`-row relation: random, skewed,
    /// chained products (classes no longer in ascending first-row order),
    /// and the empty, unit and superkey extremes.
    fn partition_zoo(rng: &mut SplitMix64, n: usize) -> Vec<StrippedPartition> {
        let mut zoo = vec![
            StrippedPartition::empty(n),
            StrippedPartition::unit(n),
            StrippedPartition::from_column(&(0..n as u32).collect::<Vec<_>>()),
        ];
        for distinct in [2, 3, 7, (n as u32 / 4).max(1), n as u32] {
            zoo.push(StrippedPartition::from_column(&column(
                rng, n, distinct, false,
            )));
            zoo.push(StrippedPartition::from_column(&column(
                rng, n, distinct, true,
            )));
        }
        let singles = zoo.len();
        for _ in 0..6 {
            let x = &zoo[rng.usize_below(singles)];
            let y = &zoo[rng.usize_below(zoo.len())];
            let z = &zoo[rng.usize_below(singles)];
            let xy = reference_product(x, y);
            zoo.push(reference_product(z, &xy));
            zoo.push(xy);
        }
        zoo
    }

    #[test]
    fn differential_against_the_bucket_kernel() {
        let mut rng = SplitMix64::new(0x5eed_0001);
        let mut scratch = ProductScratch::new(0);
        for n in [0usize, 1, 2, 3, 17, 64, 257, 1000] {
            let zoo = partition_zoo(&mut rng, n);
            for x in &zoo {
                for y in &zoo {
                    let got = product_with_scratch(x, y, &mut scratch);
                    assert_eq!(got, reference_product(x, y), "n={n}");
                    assert_eq!(got.size_bytes(), reference_product(x, y).size_bytes());
                }
            }
        }
    }

    #[test]
    fn chained_products_keep_non_ascending_class_order() {
        // Guards the differential test against only ever seeing classes
        // in ascending first-row order, where a sorted output would pass.
        let mut rng = SplitMix64::new(0x5eed_0002);
        let zoo = partition_zoo(&mut rng, 257);
        let unordered = zoo.iter().any(|p| {
            let heads: Vec<u32> = p.classes().map(|c| c[0]).collect();
            heads.windows(2).any(|w| w[0] > w[1])
        });
        assert!(unordered, "no chained product reordered its classes");
    }

    #[test]
    fn epoch_wrap_refills_the_probe_table() {
        let mut rng = SplitMix64::new(0x5eed_0003);
        let zoo = partition_zoo(&mut rng, 257);
        let mut scratch = ProductScratch::new(257);
        let (x, y) = (&zoo[5], &zoo[7]);
        let want = reference_product(x, y);
        assert_eq!(product_with_scratch(x, y, &mut scratch), want);
        let probed = x.num_classes().min(y.num_classes()) as u32;
        assert!(probed >= 2);
        // Exactly fits: the marks end at u32::MAX − 1, no refill.
        scratch.probe.advance_to(u32::MAX - probed);
        assert_eq!(product_with_scratch(x, y, &mut scratch), want);
        assert_eq!(scratch.probe.base, u32::MAX);
        // The next marking would wrap: refilled, stale marks gone.
        assert_eq!(product_with_scratch(x, y, &mut scratch), want);
        assert_eq!(scratch.probe.base, 1 + probed);
        for (x, y) in zoo.iter().zip(zoo.iter().rev()) {
            scratch.probe.advance_to(u32::MAX - 1);
            assert_eq!(
                product_with_scratch(x, y, &mut scratch),
                reference_product(x, y)
            );
        }
    }

    #[test]
    fn one_scratch_serves_relations_of_different_sizes() {
        let mut rng = SplitMix64::new(0x5eed_0004);
        let mut scratch = ProductScratch::new(8);
        for n in [50usize, 1000, 7, 1000, 0, 300] {
            let zoo = partition_zoo(&mut rng, n);
            for (x, y) in zoo.iter().zip(zoo.iter().skip(1)) {
                assert_eq!(
                    product_with_scratch(x, y, &mut scratch),
                    reference_product(x, y),
                    "n={n}"
                );
            }
        }
    }
}

//! Stripped partitions: the compact representation TANE computes with.
//!
//! A *stripped* partition `π̂_X` is `π_X` with all singleton equivalence
//! classes removed (extended report \[4\], referenced from the paper's
//! "Optimizations" paragraph). A row that is alone in its class agrees with
//! no other row on `X`, so it can never witness a violation of any
//! dependency `X → A`; dropping those classes loses nothing and shrinks the
//! representation dramatically on key-like attribute sets.
//!
//! The quantities TANE needs are all O(1) on this representation:
//!
//! * `‖π̂_X‖` — number of rows kept ([`StrippedPartition::num_elements`]);
//! * `|π̂_X|` — number of stripped classes ([`StrippedPartition::num_classes`]);
//! * `|π_X| = |π̂_X| + (|r| − ‖π̂_X‖)` — the rank of the *unstripped*
//!   partition, used by the Lemma 2 validity test
//!   ([`StrippedPartition::rank`]);
//! * `e(X) = (‖π̂_X‖ − |π̂_X|)/|r|` — the fraction of rows that must be
//!   removed to make `X` a superkey ([`StrippedPartition::error`]), used by
//!   key pruning and the `g3` bounds.

use tane_relation::Relation;
use tane_util::AttrSet;

/// A stripped partition `π̂_X`: equivalence classes of size ≥ 2, stored as a
/// flat row-index array plus class offsets.
///
/// # Examples
///
/// The partitions of the paper's Example 1:
///
/// ```
/// use tane_partition::StrippedPartition;
///
/// // π_{A} = {{0,1},{2,3,4},{5,6,7}} (0-based row ids)
/// let codes = [0, 0, 1, 1, 1, 2, 2, 2];
/// let pi_a = StrippedPartition::from_column(&codes);
/// assert_eq!(pi_a.num_classes(), 3);
/// assert_eq!(pi_a.num_elements(), 8);
/// assert_eq!(pi_a.rank(), 3); // |π_A| = 3
///
/// // π_{B,C} = {{1},{2},{3,4},{5},{6},{7},{8}}: only {3,4} survives stripping
/// let codes = [0, 1, 2, 2, 3, 4, 5, 6];
/// let pi_bc = StrippedPartition::from_column(&codes);
/// assert_eq!(pi_bc.num_classes(), 1);
/// assert_eq!(pi_bc.num_elements(), 2);
/// assert_eq!(pi_bc.rank(), 7); // |π_{B,C}| = 7
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Total number of rows `|r|` in the underlying relation.
    n_rows: usize,
    /// Row indices, grouped by equivalence class. Within a class, ascending.
    elements: Vec<u32>,
    /// Class boundaries: class `i` is `elements[begins[i]..begins[i+1]]`.
    /// Always has `num_classes + 1` entries (a single `0` when empty).
    begins: Vec<u32>,
}

impl StrippedPartition {
    /// Builds `π̂_X` for a single attribute from its dictionary-code column.
    ///
    /// This is the "compute the partitions `π_{A}` directly from the
    /// database" step (paper, Section 3): a counting pass over the codes.
    /// Runs in O(|r| + cardinality).
    pub fn from_column(codes: &[u32]) -> StrippedPartition {
        let n_rows = codes.len();
        if n_rows == 0 {
            return StrippedPartition::empty(0);
        }
        let max_code = codes.iter().copied().max().unwrap_or(0) as usize;
        // Counting sort by code: count, prefix-sum, scatter.
        let mut counts = vec![0u32; max_code + 1];
        for &c in codes {
            counts[c as usize] += 1;
        }
        let (mut kept, mut n_classes) = (0usize, 0usize);
        for &cnt in &counts {
            if cnt >= 2 {
                kept += cnt as usize;
                n_classes += 1;
            }
        }
        let mut elements = vec![0u32; kept];
        let mut begins = Vec::with_capacity(n_classes + 1);
        // Offsets within `elements`, only for codes with count >= 2.
        let mut offsets = vec![u32::MAX; max_code + 1];
        let mut pos = 0u32;
        for (code, &cnt) in counts.iter().enumerate() {
            if cnt >= 2 {
                begins.push(pos);
                offsets[code] = pos;
                pos += cnt;
            }
        }
        begins.push(pos);
        let mut cursor = offsets;
        for (row, &c) in codes.iter().enumerate() {
            let o = &mut cursor[c as usize];
            if *o != u32::MAX {
                elements[*o as usize] = row as u32;
                *o += 1;
            }
        }
        StrippedPartition {
            n_rows,
            elements,
            begins,
        }
    }

    /// Builds `π̂_X` for an arbitrary attribute set by multiplying singleton
    /// partitions. Convenient for tests and one-off queries; TANE itself
    /// multiplies level-(ℓ−1) partitions instead (Lemma 3).
    pub fn from_attr_set(relation: &Relation, x: AttrSet) -> StrippedPartition {
        let mut attrs = x.iter();
        let first = match attrs.next() {
            Some(a) => a,
            None => return StrippedPartition::unit(relation.num_rows()),
        };
        let mut pi = StrippedPartition::from_column(relation.column_codes(first));
        let mut scratch = crate::product::ProductScratch::new(relation.num_rows());
        for a in attrs {
            let pi_a = StrippedPartition::from_column(relation.column_codes(a));
            pi = crate::product::product_with_scratch(&pi, &pi_a, &mut scratch);
        }
        pi
    }

    /// `π̂_∅`: a single class containing every row (all rows agree on the
    /// empty attribute set). Stripped away entirely when `n_rows < 2`.
    pub fn unit(n_rows: usize) -> StrippedPartition {
        if n_rows < 2 {
            return StrippedPartition::empty(n_rows);
        }
        StrippedPartition {
            n_rows,
            elements: (0..n_rows as u32).collect(),
            begins: vec![0, n_rows as u32],
        }
    }

    /// A partition with no stripped classes (e.g. `π̂_X` when `X` is a
    /// superkey: every class is a singleton).
    pub fn empty(n_rows: usize) -> StrippedPartition {
        StrippedPartition {
            n_rows,
            elements: Vec::new(),
            begins: vec![0],
        }
    }

    /// Constructs from raw parts. `begins` must be a monotone offset array
    /// into `elements` starting at 0 and ending at `elements.len()`, and
    /// every class must have size ≥ 2.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the invariants are violated.
    pub fn from_parts(n_rows: usize, elements: Vec<u32>, begins: Vec<u32>) -> StrippedPartition {
        debug_assert!(!begins.is_empty());
        debug_assert_eq!(*begins.first().unwrap(), 0);
        debug_assert_eq!(*begins.last().unwrap() as usize, elements.len());
        debug_assert!(
            begins.windows(2).all(|w| w[1] - w[0] >= 2),
            "stripped classes must have ≥2 rows"
        );
        debug_assert!(elements.iter().all(|&e| (e as usize) < n_rows));
        StrippedPartition {
            n_rows,
            elements,
            begins,
        }
    }

    /// `|r|`: rows in the underlying relation (not just the kept ones).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// `|π̂_X|`: number of stripped (size ≥ 2) classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.begins.len() - 1
    }

    /// `‖π̂_X‖`: total number of rows kept in stripped classes.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// `|π_X|`: the rank of the unstripped partition (Lemma 2's quantity):
    /// stripped classes plus one singleton class per dropped row.
    #[inline]
    pub fn rank(&self) -> usize {
        self.num_classes() + (self.n_rows - self.num_elements())
    }

    /// The number of rows that must be removed for `X` to become a superkey:
    /// `e(X)·|r| = ‖π̂_X‖ − |π̂_X|` (one representative survives per class).
    #[inline]
    pub fn error_rows(&self) -> usize {
        self.num_elements() - self.num_classes()
    }

    /// `e(X)`: [`error_rows`](Self::error_rows) as a fraction of `|r|`
    /// (0 for an empty relation).
    #[inline]
    pub fn error(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.error_rows() as f64 / self.n_rows as f64
        }
    }

    /// `true` iff `X` is a superkey: no two rows agree on `X`, i.e. every
    /// class is a singleton and nothing survives stripping.
    #[inline]
    pub fn is_superkey(&self) -> bool {
        self.elements.is_empty()
    }

    /// Iterates over the stripped classes as row-index slices.
    #[inline]
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.begins
            .windows(2)
            .map(move |w| &self.elements[w[0] as usize..w[1] as usize])
    }

    /// The `i`-th stripped class.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_classes()`.
    #[inline]
    pub fn class(&self, i: usize) -> &[u32] {
        &self.elements[self.begins[i] as usize..self.begins[i + 1] as usize]
    }

    /// Footprint in bytes: the struct plus `‖π̂_X‖ + |π̂_X| + 1` `u32`s
    /// (used by the disk store to decide what to evict, and reported by
    /// the harness).
    ///
    /// It counts vector lengths, not capacities, so it depends only on the
    /// partition's content: never on row order or on which code path built
    /// it. `from_column`, the product and the store's decoder build
    /// exactly-sized vectors, so for the partitions a search builds itself
    /// it is also the real heap footprint.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.elements.len() + self.begins.len()) * std::mem::size_of::<u32>()
    }

    /// Validity test of Lemma 2 packaged for readability: given `π̂_X` (self)
    /// and `π̂_{X∪{A}}`, the dependency `X → A` holds iff the ranks agree —
    /// equivalently iff the error row counts agree, which is the form TANE
    /// uses.
    #[inline]
    pub fn implies_with(&self, with_a: &StrippedPartition) -> bool {
        debug_assert_eq!(self.n_rows, with_a.n_rows);
        self.error_rows() == with_a.error_rows()
    }

    /// Canonicalizes class order (by first element) and element order within
    /// classes. Products produce deterministic output already; this is for
    /// comparing partitions structurally in tests.
    pub fn canonicalize(&self) -> StrippedPartition {
        let mut classes: Vec<Vec<u32>> = self.classes().map(|c| c.to_vec()).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort_unstable_by_key(|c| c[0]);
        let mut elements = Vec::with_capacity(self.elements.len());
        let mut begins = Vec::with_capacity(self.begins.len());
        begins.push(0u32);
        for c in classes {
            elements.extend_from_slice(&c);
            begins.push(elements.len() as u32);
        }
        StrippedPartition {
            n_rows: self.n_rows,
            elements,
            begins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tane_relation::{Relation, Schema, Value};

    pub(crate) fn figure1() -> Relation {
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

    fn classes_of(p: &StrippedPartition) -> Vec<Vec<u32>> {
        p.canonicalize().classes().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn example1_partition_a() {
        // π_{A} = {{1,2},{3,4,5},{6,7,8}} in the paper's 1-based ids.
        let r = figure1();
        let p = StrippedPartition::from_column(r.column_codes(0));
        assert_eq!(
            classes_of(&p),
            vec![vec![0, 1], vec![2, 3, 4], vec![5, 6, 7]]
        );
        assert_eq!(p.rank(), 3);
        assert_eq!(p.num_elements(), 8);
        assert_eq!(p.error_rows(), 5);
        assert!(!p.is_superkey());
    }

    #[test]
    fn example1_partition_bc() {
        // π_{B,C} = {{1},{2},{3,4},{5},{6},{7},{8}} → stripped to {{3,4}}.
        let r = figure1();
        let p = StrippedPartition::from_attr_set(&r, tane_util::AttrSet::from_indices([1, 2]));
        assert_eq!(classes_of(&p), vec![vec![2, 3]]);
        assert_eq!(p.rank(), 7);
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.num_elements(), 2);
    }

    #[test]
    fn lemma2_on_figure1() {
        // {B,C} → A holds; {A} → B does not (paper Example 2).
        let r = figure1();
        let bc = StrippedPartition::from_attr_set(&r, tane_util::AttrSet::from_indices([1, 2]));
        let abc = StrippedPartition::from_attr_set(&r, tane_util::AttrSet::from_indices([0, 1, 2]));
        assert!(bc.implies_with(&abc));
        assert_eq!(bc.rank(), abc.rank());

        let a = StrippedPartition::from_attr_set(&r, tane_util::AttrSet::singleton(0));
        let ab = StrippedPartition::from_attr_set(&r, tane_util::AttrSet::from_indices([0, 1]));
        assert!(!a.implies_with(&ab));
        assert!(a.rank() < ab.rank());
    }

    #[test]
    fn unit_partition() {
        let p = StrippedPartition::unit(5);
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.num_elements(), 5);
        assert_eq!(p.rank(), 1);
        assert_eq!(p.error_rows(), 4);

        // Degenerate sizes strip to nothing.
        assert!(StrippedPartition::unit(1).is_superkey());
        assert!(StrippedPartition::unit(0).is_superkey());
        assert_eq!(StrippedPartition::unit(1).rank(), 1);
        assert_eq!(StrippedPartition::unit(0).rank(), 0);
    }

    #[test]
    fn superkey_detection() {
        let p = StrippedPartition::from_column(&[0, 1, 2, 3]);
        assert!(p.is_superkey());
        assert_eq!(p.rank(), 4);
        assert_eq!(p.error_rows(), 0);
        assert_eq!(p.error(), 0.0);
        assert_eq!(p.num_classes(), 0);
    }

    #[test]
    fn all_equal_column() {
        let p = StrippedPartition::from_column(&[7, 7, 7, 7]);
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.rank(), 1);
        assert_eq!(p.error_rows(), 3);
        assert_eq!(p.error(), 0.75);
    }

    #[test]
    fn sparse_codes_are_fine() {
        // Codes need not be dense — from_codes relations can have gaps.
        let p = StrippedPartition::from_column(&[100, 5, 100, 1000, 5]);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(classes_of(&p), vec![vec![0, 2], vec![1, 4]]);
        assert_eq!(p.rank(), 3);
    }

    #[test]
    fn empty_and_single_row() {
        let p = StrippedPartition::from_column(&[]);
        assert_eq!(p.n_rows(), 0);
        assert_eq!(p.rank(), 0);
        assert!(p.is_superkey());
        assert_eq!(p.error(), 0.0);

        let p = StrippedPartition::from_column(&[42]);
        assert_eq!(p.n_rows(), 1);
        assert_eq!(p.rank(), 1);
        assert!(p.is_superkey());
    }

    #[test]
    fn empty_attr_set_gives_unit() {
        let r = figure1();
        let p = StrippedPartition::from_attr_set(&r, tane_util::AttrSet::empty());
        assert_eq!(p.rank(), 1);
        assert_eq!(p.num_elements(), 8);
    }

    #[test]
    fn class_accessors() {
        let p = StrippedPartition::from_column(&[0, 1, 0, 1, 2]);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.class(0), &[0, 2]);
        assert_eq!(p.class(1), &[1, 3]);
        let all: Vec<&[u32]> = p.classes().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn size_bytes_reflects_payload() {
        let small = StrippedPartition::from_column(&[0, 0]);
        let big = StrippedPartition::from_column(&vec![0u32; 10_000]);
        assert!(big.size_bytes() > small.size_bytes());
    }

    #[test]
    fn size_bytes_ignores_spare_capacity() {
        let mut elements = Vec::with_capacity(1024);
        elements.extend([3, 0, 1, 2]);
        let padded = StrippedPartition::from_parts(5, elements, vec![0, 2, 4]);
        let exact = StrippedPartition::from_parts(5, vec![3, 0, 1, 2], vec![0, 2, 4]);
        assert_eq!(padded.size_bytes(), exact.size_bytes());
        assert_eq!(
            exact.size_bytes(),
            std::mem::size_of::<StrippedPartition>() + 7 * 4
        );
    }

    #[test]
    fn canonicalize_is_idempotent_and_order_insensitive() {
        let p = StrippedPartition::from_parts(6, vec![4, 5, 0, 1, 2], vec![0, 2, 5]);
        let q = StrippedPartition::from_parts(6, vec![0, 1, 2, 4, 5], vec![0, 3, 5]);
        assert_eq!(p.canonicalize(), q.canonicalize());
        assert_eq!(p.canonicalize(), p.canonicalize().canonicalize());
    }

    #[test]
    fn full_attrs_of_figure1_is_key() {
        let r = figure1();
        let p = StrippedPartition::from_attr_set(&r, r.schema().all_attrs());
        assert!(p.is_superkey());
        assert_eq!(p.rank(), 8);
    }
}

//! Ranked (top-k) dependency search state: the size-k heap, the dominance
//! pool, and the bound-based pruning decisions (DESIGN §12).
//!
//! ## The ranked pool
//!
//! Ranked mode scores every non-trivial dependency `X → A` by its `g3`
//! error and keeps the `k` best **non-redundant** ones: `X → A` is a *pool
//! entrant* iff it strictly improves on every generalization,
//! `g3(X → A) < g3(V → A)` for all `V ⊊ X`. Because `g3` is monotone
//! non-increasing in the LHS, this is exactly the union over all thresholds
//! `ε` of the sound full approximate run's minimal covers: a dependency is
//! an entrant iff there is some `ε` (namely its own `g3`) at which
//! [`discover_approx_fds`](crate::discover_approx_fds) reports it. Exact
//! minimal FDs are the entrants with score 0.
//!
//! ## Ordering and determinism
//!
//! The heap orders entries by `rank_key`: `(g3_rows, |lhs|, rhs, lhs)` —
//! score first, then the canonical `(rhs, lhs)` order of
//! [`canonical_fds`](tane_util::canonical_fds) refined by LHS cardinality.
//! Putting `|lhs|` immediately after the score is load-bearing for pruning
//! soundness: a candidate at a deeper lattice level always *loses* a score
//! tie against a shallower one, so (DESIGN §12) a candidate pruned by the
//! heap bound can never dominate a later heap entrant, and the early exit
//! below is legal. Every mutation of this state happens on the serial
//! driver thread, in candidate order, so heap contents are byte-identical
//! at any worker count.

use tane_util::{AttrSet, Fd};

/// One ranked dependency: a dependency plus its exact `g3` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedFd {
    /// The dependency `X → A`.
    pub fd: Fd,
    /// Exact `g3(X → A) · |r|` (rows to remove for the dependency to hold).
    pub g3_rows: usize,
    /// `|r|`, for rendering the error as a fraction.
    pub n_rows: usize,
}

impl RankedFd {
    /// `g3(X → A)` as a fraction of `|r|` (0 for an empty relation).
    pub fn g3(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.g3_rows as f64 / self.n_rows as f64
        }
    }
}

/// A top-k heap snapshot, observed once per lattice level on which the heap
/// changed (entered, improved, or reordered by evictions). The snapshot is
/// the *current* best-k in rank order — entries are provisional until the
/// search ends (a deeper level can still evict them), which is what makes
/// the stream an anytime result.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKEvent {
    /// The lattice level that just finished when this snapshot was taken.
    pub level: usize,
    /// The current heap, ascending by `(g3, |lhs|, rhs, lhs)` — best first.
    pub heap: Vec<RankedFd>,
}

/// The total order of the ranked search: score, then canonical order
/// refined by LHS cardinality (see the module docs for why `|lhs|` must
/// come before the canonical `(rhs, lhs)` pair).
pub(crate) fn rank_key(fd: &Fd, g3_rows: usize) -> (usize, usize, usize, AttrSet) {
    (g3_rows, fd.lhs.len(), fd.rhs, fd.lhs)
}

/// Serial ranked-search state: the size-k heap plus the dominance pool.
pub(crate) struct RankState {
    k: usize,
    n_rows: usize,
    /// The current best k, ascending by [`rank_key`]. `k` is user-supplied
    /// and small; keeping a sorted vec makes every decision a total-order
    /// comparison (trivially deterministic) at O(k) per insertion.
    entries: Vec<RankedFd>,
    /// Per-rhs pool entrants `(lhs, g3_rows)` recorded so far — the
    /// dominance structure. An entrant `(V, t)` dominates a later candidate
    /// `(W, s)` iff `V ⊆ W` and `t ≤ s`; the levelwise order guarantees
    /// every dominating entrant is recorded before its victims are tested.
    entrants: Vec<Vec<(AttrSet, usize)>>,
    /// The heap changed since the last [`take_snapshot`](Self::take_snapshot).
    changed: bool,
    /// Heap insertions (the stream's "improvement" count).
    pub improvements: u64,
    /// Candidates skipped before their exact `g3` was paid for, because the
    /// cheap lower bound could not beat the current k-th best.
    pub bound_pruned: u64,
    /// Candidates discarded as dominated (a subset LHS is at least as good).
    pub dominated: u64,
}

impl RankState {
    pub(crate) fn new(k: usize, n_attrs: usize, n_rows: usize) -> RankState {
        RankState {
            k,
            n_rows,
            entries: Vec::with_capacity(k.min(1024)),
            entrants: vec![Vec::new(); n_attrs],
            changed: false,
            improvements: 0,
            bound_pruned: 0,
            dominated: 0,
        }
    }

    fn full(&self) -> bool {
        self.entries.len() >= self.k
    }

    /// The current pruning threshold: the k-th best key, once the heap is
    /// full. Candidates whose best case cannot beat it are skipped.
    fn threshold(&self) -> Option<(usize, usize, usize, AttrSet)> {
        if !self.full() {
            return None;
        }
        if self.k == 0 {
            // k = 0: nothing can ever enter; the infimum key prunes all.
            return Some((0, 0, 0, AttrSet::empty()));
        }
        let last = &self.entries[self.entries.len() - 1];
        Some(rank_key(&last.fd, last.g3_rows))
    }

    /// True iff the candidate cannot enter the heap even if its true score
    /// equals `g3_rows_lower` (sound: the true score is ≥ the lower bound,
    /// and `rank_key` is monotone in the score). Callers skip the exact
    /// `g3` computation on `true`.
    pub(crate) fn cannot_enter(&self, fd: &Fd, g3_rows_lower: usize) -> bool {
        match self.threshold() {
            Some(theta) => rank_key(fd, g3_rows_lower) >= theta,
            None => false,
        }
    }

    /// Counts a heap-bound skip (kept separate from [`cannot_enter`] so the
    /// final-score recheck in [`offer`](Self::offer) is not double-counted).
    pub(crate) fn note_bound_pruned(&mut self) {
        self.bound_pruned += 1;
    }

    /// True iff some recorded entrant `(V, t)` has `V ⊆ lhs` and
    /// `t ≤ g3_rows`: the candidate is redundant — a generalization is at
    /// least as good — and is not a pool entrant.
    pub(crate) fn is_dominated(&self, lhs: AttrSet, rhs: usize, g3_rows: usize) -> bool {
        self.entrants[rhs]
            .iter()
            .any(|&(v, t)| t <= g3_rows && v.is_subset_of(lhs))
    }

    /// Records a pool entrant (its exact score is known and no recorded
    /// generalization dominates it) and inserts it into the heap when it
    /// beats the current k-th best. Runs on the driver thread only.
    pub(crate) fn offer(&mut self, fd: Fd, g3_rows: usize) {
        self.entrants[fd.rhs].push((fd.lhs, g3_rows));
        if self.k == 0 {
            return;
        }
        let key = rank_key(&fd, g3_rows);
        if self.full() && key >= self.threshold().expect("full heap has a threshold") {
            return;
        }
        let at = self
            .entries
            .partition_point(|e| rank_key(&e.fd, e.g3_rows) < key);
        self.entries.insert(
            at,
            RankedFd {
                fd,
                g3_rows,
                n_rows: self.n_rows,
            },
        );
        if self.entries.len() > self.k {
            self.entries.pop();
        }
        self.changed = true;
        self.improvements += 1;
    }

    /// Early-exit test, evaluated after level `ell` (tests and recoveries
    /// included) completes: every candidate at level `ℓ > ell` has an LHS
    /// of at least `ell` attributes, so its key is at least
    /// `(0, ell, 0, ∅)`; once the heap is full and the k-th best key is
    /// strictly below that infimum, no remaining level can produce an
    /// entrant and the walk may stop (DESIGN §12).
    pub(crate) fn early_exit(&self, ell: usize) -> bool {
        if self.k == 0 {
            return true;
        }
        match self.threshold() {
            Some(theta) => theta < (0, ell, 0, AttrSet::empty()),
            None => false,
        }
    }

    /// The heap snapshot for a [`TopKEvent`], or `None` when nothing
    /// changed since the previous snapshot.
    pub(crate) fn take_snapshot(&mut self) -> Option<Vec<RankedFd>> {
        if !self.changed {
            return None;
        }
        self.changed = false;
        Some(self.entries.clone())
    }

    /// The final heap, ascending by rank.
    pub(crate) fn into_ranked(self) -> Vec<RankedFd> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(AttrSet::from_indices(lhs.iter().copied()), rhs)
    }

    #[test]
    fn heap_keeps_k_best_in_rank_order() {
        let mut s = RankState::new(2, 4, 100);
        s.offer(fd(&[0], 1), 30);
        s.offer(fd(&[2], 1), 10);
        s.offer(fd(&[3], 1), 20);
        let ranked = s.into_ranked();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].g3_rows, 10);
        assert_eq!(ranked[1].g3_rows, 20);
    }

    #[test]
    fn ties_break_on_lhs_len_then_canonical_order() {
        let mut s = RankState::new(2, 4, 100);
        s.offer(fd(&[0, 1], 3), 10);
        s.offer(fd(&[2], 3), 10); // shorter LHS wins the tie
        s.offer(fd(&[1], 2), 10); // same len: smaller rhs wins
        let ranked = s.into_ranked();
        assert_eq!(ranked[0].fd, fd(&[1], 2));
        assert_eq!(ranked[1].fd, fd(&[2], 3));
    }

    #[test]
    fn cannot_enter_respects_lower_bound_and_ties() {
        let mut s = RankState::new(1, 4, 100);
        assert!(!s.cannot_enter(&fd(&[0], 1), 50), "empty heap admits all");
        s.offer(fd(&[2], 1), 10);
        assert!(s.cannot_enter(&fd(&[0], 1), 11));
        assert!(!s.cannot_enter(&fd(&[0], 1), 9));
        // Equal score: the longer LHS loses the tie and is prunable.
        assert!(s.cannot_enter(&fd(&[0, 1], 1), 10));
        // Equal score and length: canonical order decides.
        assert!(!s.cannot_enter(&fd(&[0], 1), 10), "smaller lhs wins tie");
        assert!(s.cannot_enter(&fd(&[3], 1), 10), "larger lhs loses tie");
    }

    #[test]
    fn dominance_uses_subset_and_score() {
        let mut s = RankState::new(4, 4, 100);
        s.offer(fd(&[0], 2), 10);
        assert!(s.is_dominated(AttrSet::from_indices([0, 1]), 2, 10));
        assert!(s.is_dominated(AttrSet::from_indices([0, 1]), 2, 15));
        assert!(!s.is_dominated(AttrSet::from_indices([0, 1]), 2, 9));
        assert!(!s.is_dominated(AttrSet::from_indices([1, 3]), 2, 15));
        assert!(!s.is_dominated(AttrSet::from_indices([0, 1]), 3, 15));
    }

    #[test]
    fn early_exit_requires_full_zero_score_shallow_heap() {
        let mut s = RankState::new(1, 4, 100);
        assert!(!s.early_exit(3), "heap not full");
        s.offer(fd(&[0], 1), 0);
        assert!(!s.early_exit(1), "level-2 candidates (|lhs|=1) could tie");
        assert!(s.early_exit(2), "future |lhs| ≥ 2 > 1 loses every tie");
        let mut s = RankState::new(1, 4, 100);
        s.offer(fd(&[0], 1), 1);
        assert!(!s.early_exit(5), "nonzero k-th best never exits");
    }

    #[test]
    fn k_zero_admits_nothing_and_exits_immediately() {
        let mut s = RankState::new(0, 4, 100);
        assert!(s.cannot_enter(&fd(&[0], 1), 0));
        s.offer(fd(&[0], 1), 0);
        assert!(s.early_exit(1));
        assert!(s.into_ranked().is_empty());
    }

    #[test]
    fn snapshot_fires_only_on_change() {
        let mut s = RankState::new(1, 4, 100);
        assert_eq!(s.take_snapshot(), None);
        s.offer(fd(&[0], 1), 10);
        let snap = s.take_snapshot().expect("changed");
        assert_eq!(snap.len(), 1);
        assert_eq!(s.take_snapshot(), None, "unchanged since last snapshot");
        s.offer(fd(&[2], 1), 50); // worse than the k-th best: no change
        assert_eq!(s.take_snapshot(), None);
        s.offer(fd(&[3], 1), 5);
        assert!(s.take_snapshot().is_some());
    }

    #[test]
    fn ranked_fd_fraction() {
        let r = RankedFd {
            fd: fd(&[0], 1),
            g3_rows: 3,
            n_rows: 8,
        };
        assert!((r.g3() - 0.375).abs() < 1e-12);
        let empty = RankedFd {
            fd: fd(&[0], 1),
            g3_rows: 0,
            n_rows: 0,
        };
        assert_eq!(empty.g3(), 0.0);
    }
}

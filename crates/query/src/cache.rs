//! Top-k answering with cached views.
//!
//! The paper's related work surveys top-k processing "using cached
//! views" (its \[35\], Xie et al., EDBT 2013): a previously computed
//! `TOPk(w′)` can answer a new query `TOPk(w)` *without touching the
//! base data* when the cached entries provably contain the new answer.
//! We implement the safe-approximation variant used by reverse top-k
//! drivers: a cached view answers a *membership* question
//! (`q ∈ TOPk(w)`?) negatively whenever `k` cached points beat `q` under
//! the new weight — the same threshold reasoning as RTA's buffer, made
//! reusable and capacity-bounded (LRU).
//!
//! This accelerates workloads that probe many similar weights against
//! one query point (e.g. the workload builder's bisection search and
//! population partitioning).

use crate::rank::is_in_topk_view_masked_with_stats;
use crate::topk::ViewBestFirst;
use wqrtq_geom::{score, DeltaView};
use wqrtq_rtree::{ProbeScratch, RTree};

/// An LRU cache of top-k views used to short-circuit membership probes.
#[derive(Debug)]
pub struct TopkViewCache {
    k: usize,
    capacity: usize,
    /// Views in LRU order (front = least recent): the cached weight and
    /// the coordinates of its top-k points.
    views: Vec<CachedView>,
    hits: usize,
    misses: usize,
}

#[derive(Debug)]
struct CachedView {
    weight: Vec<f64>,
    /// Flat `k × dim` coordinates of the view's top-k points.
    coords: Vec<f64>,
    dim: usize,
}

impl CachedView {
    /// Number of cached points.
    fn len(&self) -> usize {
        self.coords.len().checked_div(self.dim).unwrap_or(0)
    }
}

impl TopkViewCache {
    /// Creates a cache of at most `capacity` views for `TOPk` probes.
    ///
    /// # Panics
    /// Panics if `capacity` or `k` is zero.
    pub fn new(k: usize, capacity: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(capacity > 0, "capacity must be positive");
        Self {
            k,
            capacity,
            views: Vec::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Membership probe `q ∈ TOPk(w)` with view acceleration: if any
    /// cached view already shows `k` points beating `q` under `w`, the
    /// answer is `false` without touching the index; otherwise the index
    /// decides and (on a miss) the exact view for `w` is cached. `tree`
    /// must be the index of `data`'s base rows.
    pub fn is_in_topk(&mut self, tree: &RTree, data: &DeltaView, w: &[f64], q: &[f64]) -> bool {
        let sq = score(w, q);
        // Most-recently-used first: recent views are likeliest to match.
        for vi in (0..self.views.len()).rev() {
            let view = &self.views[vi];
            if view.len() < self.k {
                continue;
            }
            let dim = view.dim;
            let beating = (0..view.len())
                .filter(|&i| score(w, &view.coords[i * dim..(i + 1) * dim]) < sq)
                .count();
            if beating >= self.k {
                self.hits += 1;
                // Refresh recency.
                let v = self.views.remove(vi);
                self.views.push(v);
                return false;
            }
        }
        self.misses += 1;
        let mut scratch = ProbeScratch::new();
        let (answer, _) =
            is_in_topk_view_masked_with_stats(tree, data, None, w, q, self.k, &mut scratch);
        self.insert_view(tree, data, w);
        answer
    }

    /// Computes and caches the exact top-k view for `w`.
    fn insert_view(&mut self, tree: &RTree, data: &DeltaView, w: &[f64]) {
        let dim = tree.dim();
        let mut coords = Vec::with_capacity(self.k * dim);
        let mut bf = ViewBestFirst::new(tree, data, w);
        for _ in 0..self.k {
            match bf.next_entry() {
                Some(r) => coords.extend_from_slice(r.coords),
                None => break,
            }
        }
        if self.views.len() == self.capacity {
            self.views.remove(0); // evict least recently used
        }
        self.views.push(CachedView {
            weight: w.to_vec(),
            coords,
            dim,
        });
    }

    /// Number of probes answered purely from cached views.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of probes that needed the index.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of currently cached views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no views are cached yet.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The cached weights, least recently used first (for inspection).
    pub fn cached_weights(&self) -> Vec<&[f64]> {
        self.views.iter().map(|v| v.weight.as_slice()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::indexed;
    use wqrtq_geom::Weight;

    fn scatter(n: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * 2);
        let mut state = seed | 1;
        for _ in 0..n * 2 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            v.push((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        v
    }

    #[test]
    fn cache_answers_match_direct_probes() {
        let pts = scatter(2_000, 5);
        let (tree, data) = indexed(2, &pts, &[], 1, false);
        let q = [0.4, 0.4];
        let mut cache = TopkViewCache::new(10, 8);
        for i in 1..60 {
            let w = Weight::from_first_2d(i as f64 / 60.0);
            let mut scratch = ProbeScratch::new();
            let (direct, _) =
                is_in_topk_view_masked_with_stats(&tree, &data, None, &w, &q, 10, &mut scratch);
            let cached = cache.is_in_topk(&tree, &data, &w, &q);
            assert_eq!(direct, cached, "weight {w:?}");
        }
    }

    #[test]
    fn similar_weights_hit_the_cache() {
        let pts = scatter(5_000, 9);
        let (tree, data) = indexed(2, &pts, &[], 1, false);
        let q = [0.9, 0.9]; // never in any top-10: every probe is negative
        let mut cache = TopkViewCache::new(10, 4);
        for i in 0..200 {
            let w = Weight::from_first_2d(0.4 + 0.2 * (i as f64 / 200.0));
            let r = cache.is_in_topk(&tree, &data, &w, &q);
            assert!(!r);
        }
        assert!(
            cache.hits() > 150,
            "expected most probes served from views: {} hits / {} misses",
            cache.hits(),
            cache.misses()
        );
    }

    #[test]
    fn capacity_is_bounded_lru() {
        let pts = scatter(500, 3);
        let (tree, data) = indexed(2, &pts, &[], 1, false);
        // A member query point: views can never reject it, so every
        // probe misses and inserts a fresh view.
        let q = [0.0, 0.0];
        let mut cache = TopkViewCache::new(5, 3);
        for x in [0.05, 0.5, 0.95, 0.3] {
            let w = Weight::from_first_2d(x);
            assert!(cache.is_in_topk(&tree, &data, &w, &q));
        }
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
        // The first-inserted view (x = 0.05) was evicted; LRU front is 0.5.
        let first = cache.cached_weights()[0];
        assert!((first[0] - 0.5).abs() < 1e-12, "LRU front = {first:?}");
    }

    #[test]
    fn positive_answers_never_served_from_views() {
        // A view can only *reject*; members must be confirmed by the
        // index, so correctness never depends on the cache contents.
        let pts = scatter(1_000, 7);
        let (tree, data) = indexed(2, &pts, &[], 1, false);
        let q = [0.01, 0.01]; // in everyone's top-k
        let mut cache = TopkViewCache::new(10, 4);
        for i in 1..30 {
            let w = Weight::from_first_2d(i as f64 / 30.0);
            assert!(cache.is_in_topk(&tree, &data, &w, &q));
        }
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TopkViewCache::new(5, 0);
    }
}

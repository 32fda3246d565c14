//! Memoised hit-ratio evaluation on a quantised `(p, K)` grid.
//!
//! The paper achieves O(1) hit-ratio queries inside the greedy loop by
//! pre-computing `h(p, K)` "under different values of p and K", with a
//! granularity of 1e-5 in `p` and 5 slots in `K`. We keep the same grid but
//! only materialise the cells that are queried (the planner only ever
//! visits a tiny corner of it), behind a read-write lock so rayon workers
//! can share one table.
//!
//! Cells get filled two ways. A batch caller that knows its queries ahead
//! of time prefills them: [`HitRatioTable::missing_cells`] turns the
//! queries into a sorted, deduplicated list of absent cells,
//! [`HitRatioTable::evaluate_cells`] computes them without touching the
//! table (one shared-logarithm series per popularity cell, so disjoint
//! slices can be evaluated on different threads), and
//! [`HitRatioTable::insert_cells`] stores them in one write-locked pass.
//! Any query that still lands on an absent cell fills it on the spot,
//! compute-once under the write lock. Either way each cell is evaluated
//! exactly once, so the model work is a pure function of the set of cells
//! queried.

use crate::model::LruModel;
use parking_lot::RwLock;
use std::collections::HashMap;

/// How the eviction horizon `K` is snapped to the grid.
#[derive(Debug, Clone, Copy)]
pub enum KQuant {
    /// Fixed-width bins of the given size — the paper's scheme ("the
    /// granularity of K was set to 5 time slots").
    Absolute(f64),
    /// Geometric bins: `K` rounds to the nearest power of `1 + step`.
    /// `h(p, K)` varies smoothly (sub-linearly) in `K`, so a 1% relative
    /// grid keeps the hit-ratio error far below the model's own ~7% while
    /// collapsing the enormous absolute range of K (10⁰..10⁷ across buffer
    /// sizes) into a few hundred cells — essential for the planner's inner
    /// loop at paper scale.
    Relative(f64),
}

/// A cell of the quantised `(p, K)` grid: the key a query is stored under
/// plus the grid point the model is evaluated at.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Popularity index: the cell covers `p ≈ pi · p_step`.
    pub pi: u64,
    /// K-grid index, as reported by [`HitRatioTable::k_cell`].
    ki: u64,
    /// The quantised horizon the cell is evaluated at.
    k_q: f64,
}

/// Lookup table over quantised `(p, K)`, filled on demand.
///
/// Queries round to the nearest grid point (the paper's scheme), so results
/// differ from the exact model by at most the grid-cell variation; tests
/// bound that error.
#[derive(Debug)]
pub struct HitRatioTable {
    model: LruModel,
    p_step: f64,
    k_quant: KQuant,
    cells: RwLock<HashMap<(u64, u64), f64>>,
    hits: std::sync::atomic::AtomicU64,
    fills: std::sync::atomic::AtomicU64,
}

impl HitRatioTable {
    /// The paper's granularity: p quantised to 1e-5, K to 5 request slots.
    pub const PAPER_P_STEP: f64 = 1e-5;
    pub const PAPER_K_STEP: f64 = 5.0;

    /// Build a table with the paper's granularity.
    pub fn new(model: LruModel) -> Self {
        Self::with_granularity(model, Self::PAPER_P_STEP, Self::PAPER_K_STEP)
    }

    /// Build with explicit absolute granularity.
    ///
    /// # Panics
    /// Panics unless both steps are positive and finite.
    pub fn with_granularity(model: LruModel, p_step: f64, k_step: f64) -> Self {
        assert!(k_step > 0.0 && k_step.is_finite(), "invalid k_step");
        Self::with_quantisation(model, p_step, KQuant::Absolute(k_step))
    }

    /// Build with an explicit K-quantisation mode.
    pub fn with_quantisation(model: LruModel, p_step: f64, k_quant: KQuant) -> Self {
        assert!(p_step > 0.0 && p_step.is_finite(), "invalid p_step");
        if let KQuant::Relative(s) = k_quant {
            assert!(s > 0.0 && s.is_finite(), "invalid relative k step");
        }
        Self {
            model,
            p_step,
            k_quant,
            cells: RwLock::new(HashMap::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            fills: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The planner's configuration: paper p-granularity, 1%-relative K.
    pub fn planner_default(model: LruModel) -> Self {
        Self::with_quantisation(model, Self::PAPER_P_STEP, KQuant::Relative(0.01))
    }

    /// The underlying exact model.
    pub fn model(&self) -> &LruModel {
        &self.model
    }

    fn quantise_k(&self, k: f64) -> (u64, f64) {
        match self.k_quant {
            KQuant::Absolute(step) => {
                let ki = (k / step).round() as u64;
                (ki, ki as f64 * step)
            }
            KQuant::Relative(step) => {
                if k < 1.0 {
                    // Sub-single-slot horizons all hit nothing; one cell.
                    return (0, 0.0);
                }
                let base = (1.0 + step).ln();
                let ki = (k.ln() / base).round();
                (ki as u64 + 1, (ki * base).exp())
            }
        }
    }

    /// The K-grid cell index [`Self::site_hit_ratio`] serves horizon `k`
    /// from — a stable fingerprint of the table column a query lands in.
    /// Two horizons with equal cells receive bit-identical hit ratios for
    /// every popularity `p`.
    pub fn k_cell(&self, k: f64) -> u64 {
        self.quantise_k(k.max(0.0)).0
    }

    /// The grid cell a `(p, K)` query is served from.
    fn cell(&self, p: f64, k: f64) -> Cell {
        let pi = (p.max(0.0) / self.p_step).round() as u64;
        let (ki, k_q) = self.quantise_k(k.max(0.0));
        Cell { pi, ki, k_q }
    }

    /// The cells `queries` (`(p, K)` pairs) land in that are not
    /// materialised yet, sorted by `(pi, ki)` and deduplicated — a pure
    /// function of the query set and the table's contents, whatever the
    /// order of `queries`.
    pub fn missing_cells(&self, queries: impl IntoIterator<Item = (f64, f64)>) -> Vec<Cell> {
        let mut cells: Vec<Cell> = {
            let filled = self.cells.read();
            queries
                .into_iter()
                .map(|(p, k)| self.cell(p, k))
                .filter(|c| !filled.contains_key(&(c.pi, c.ki)))
                .collect()
        };
        cells.sort_unstable_by_key(|c| (c.pi, c.ki));
        cells.dedup_by_key(|c| (c.pi, c.ki));
        cells
    }

    /// Model values of `cells` (sorted by `pi`, as
    /// [`Self::missing_cells`] returns them), bit-identical to what
    /// [`Self::site_hit_ratio`] would fill them with. Each run of equal
    /// `pi` is one [`LruModel::site_hit_ratios`] call, sharing the
    /// per-rank logarithms across the run's horizons. Neither reads nor
    /// writes the table, so callers may evaluate disjoint slices in
    /// parallel; split them on `pi` boundaries to keep the sharing.
    pub fn evaluate_cells(&self, cells: &[Cell]) -> Vec<f64> {
        let mut out = vec![0.0; cells.len()];
        let mut ks = Vec::new();
        let mut start = 0;
        for run in cells.chunk_by(|a, b| a.pi == b.pi) {
            ks.clear();
            ks.extend(run.iter().map(|c| c.k_q));
            let p_q = run[0].pi as f64 * self.p_step;
            self.model
                .site_hit_ratios(p_q, &ks, &mut out[start..start + run.len()]);
            start += run.len();
        }
        out
    }

    /// Store evaluated cells in one write-locked pass; returns how many
    /// were new. A cell some concurrent query filled meanwhile keeps its
    /// (bit-identical) value.
    ///
    /// # Panics
    /// Panics unless `cells` and `values` have equal lengths.
    pub fn insert_cells(&self, cells: &[Cell], values: &[f64]) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(cells.len(), values.len(), "one value per cell");
        let mut filled = self.cells.write();
        let before = filled.len();
        for (c, &h) in cells.iter().zip(values) {
            filled.entry((c.pi, c.ki)).or_insert(h);
        }
        let new = filled.len() - before;
        self.fills.fetch_add(new as u64, Relaxed);
        new
    }

    /// Quantised, memoised `h(p, K)`.
    ///
    /// A query on an absent cell fills it compute-once: the write lock is
    /// held across the model evaluation, so two workers racing on the same
    /// cell never both pay for it. Besides avoiding duplicated work, this
    /// makes `fills` (and the model's series-term counters underneath) a
    /// pure function of the query set — independent of thread count and
    /// scheduling — which the telemetry layer's determinism contract relies
    /// on. Batch callers avoid the lock entirely by prefilling (see the
    /// module docs).
    pub fn site_hit_ratio(&self, p: f64, k: f64) -> f64 {
        use std::sync::atomic::Ordering::Relaxed;
        let Cell { pi, ki, k_q } = self.cell(p, k);
        let key = (pi, ki);
        if let Some(&h) = self.cells.read().get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return h;
        }
        let mut cells = self.cells.write();
        if let Some(&h) = cells.get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return h;
        }
        let p_q = pi as f64 * self.p_step;
        let h = self.model.site_hit_ratio(p_q, k_q);
        self.fills.fetch_add(1, Relaxed);
        cells.insert(key, h);
        h
    }

    /// Quantised hit ratio with the λ adjustment.
    pub fn site_hit_ratio_with_lambda(&self, p: f64, k: f64, lambda: f64) -> f64 {
        self.site_hit_ratio(p, k) * (1.0 - lambda.clamp(0.0, 1.0))
    }

    /// (cache hits, model evaluations) so far — lets benchmarks verify the
    /// O(1) claim empirically.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.fills.load(Relaxed))
    }

    /// Number of distinct grid cells materialised.
    pub fn cells_filled(&self) -> usize {
        self.cells.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HitRatioTable {
        HitRatioTable::new(LruModel::new(200, 1.0))
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let t = table();
        let a = t.site_hit_ratio(0.0123, 512.0);
        let b = t.site_hit_ratio(0.0123, 512.0);
        assert_eq!(a, b);
        let (hits, fills) = t.stats();
        assert_eq!(fills, 1);
        assert_eq!(hits, 1);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn nearby_queries_share_a_cell() {
        let t = table();
        // Within half a p-step and half a k-step of each other.
        let a = t.site_hit_ratio(0.010_000, 500.0);
        let b = t.site_hit_ratio(0.010_004, 501.0);
        assert_eq!(a, b);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn quantisation_error_is_bounded() {
        let t = table();
        let exact = t.model().site_hit_ratio(0.01234, 503.0);
        let quantised = t.site_hit_ratio(0.01234, 503.0);
        assert!(
            (exact - quantised).abs() < 0.01,
            "quantisation error {} too large",
            (exact - quantised).abs()
        );
    }

    #[test]
    fn lambda_adjustment_matches_model() {
        let t = table();
        let h = t.site_hit_ratio(0.02, 100.0);
        assert!((t.site_hit_ratio_with_lambda(0.02, 100.0, 0.25) - 0.75 * h).abs() < 1e-12);
    }

    #[test]
    fn negative_inputs_clamped_to_zero_cell() {
        let t = table();
        assert_eq!(t.site_hit_ratio(-0.5, -3.0), 0.0);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        use std::sync::Arc;
        let t = Arc::new(table());
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for j in 0..50 {
                    let p = 1e-4 * ((i * 50 + j) % 20 + 1) as f64;
                    out.push((p, t.site_hit_ratio(p, 250.0)));
                }
                out
            }));
        }
        let results: Vec<Vec<(f64, f64)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same p must give the same h across threads.
        let mut seen: HashMap<u64, f64> = HashMap::new();
        for (p, h) in results.into_iter().flatten() {
            let key = (p / HitRatioTable::PAPER_P_STEP).round() as u64;
            if let Some(&prev) = seen.get(&key) {
                assert_eq!(prev, h);
            } else {
                seen.insert(key, h);
            }
        }
    }

    #[test]
    fn prefilled_cells_equal_lazily_filled_ones() {
        let queries: Vec<(f64, f64)> = [0.2, 0.01, 0.2, 0.0, 0.5]
            .iter()
            .flat_map(|&p| [5_000.0, 3.0, 5_010.0, 0.4, 3.0].map(|k| (p, k)))
            .collect();
        let lazy = HitRatioTable::planner_default(LruModel::new(300, 0.9));
        let lazy_values: Vec<f64> = queries
            .iter()
            .map(|&(p, k)| lazy.site_hit_ratio(p, k))
            .collect();

        let batch = HitRatioTable::planner_default(LruModel::new(300, 0.9));
        let cells = batch.missing_cells(queries.iter().copied());
        // Sorted, deduplicated: 4 popularity cells × 3 K cells (5000 and
        // 5010 share one, 0.4 is the sub-slot cell).
        assert_eq!(cells.len(), 12);
        assert!(cells
            .windows(2)
            .all(|w| (w[0].pi, w[0].ki) < (w[1].pi, w[1].ki)));
        let values = batch.evaluate_cells(&cells);
        assert_eq!(batch.insert_cells(&cells, &values), 12);
        assert_eq!(
            batch.insert_cells(&cells, &values),
            0,
            "cells already present"
        );
        assert!(batch.missing_cells(queries.iter().copied()).is_empty());
        assert_eq!(batch.stats().1, lazy.stats().1, "same number of fills");
        for (&(p, k), &h) in queries.iter().zip(&lazy_values) {
            assert_eq!(
                batch.site_hit_ratio(p, k).to_bits(),
                h.to_bits(),
                "p {p} k {k}"
            );
        }
        assert_eq!(batch.stats().1, lazy.stats().1, "lookups filled nothing");
    }

    #[test]
    #[should_panic]
    fn zero_step_panics() {
        HitRatioTable::with_granularity(LruModel::new(10, 1.0), 0.0, 5.0);
    }

    #[test]
    fn relative_k_quantisation_error_is_bounded() {
        let t = HitRatioTable::planner_default(LruModel::new(500, 1.0));
        for k in [3.0, 57.0, 1234.0, 98_765.0, 5_000_000.0] {
            let exact = t.model().site_hit_ratio(0.02, k);
            let quantised = t.site_hit_ratio(0.02, k);
            assert!(
                (exact - quantised).abs() < 0.005,
                "K={k}: exact {exact} vs quantised {quantised}"
            );
        }
    }

    #[test]
    fn relative_k_collapses_nearby_horizons() {
        let t = HitRatioTable::planner_default(LruModel::new(100, 1.0));
        let a = t.site_hit_ratio(0.01, 10_000.0);
        let b = t.site_hit_ratio(0.01, 10_030.0); // within 1% of 10k
        assert_eq!(a, b);
        assert_eq!(t.cells_filled(), 1);
    }

    #[test]
    fn relative_k_tiny_horizons_share_zero_cell() {
        let t = HitRatioTable::planner_default(LruModel::new(100, 1.0));
        assert_eq!(t.site_hit_ratio(0.5, 0.2), 0.0);
        assert_eq!(t.site_hit_ratio(0.5, 0.9), 0.0);
        assert_eq!(t.cells_filled(), 1);
    }
}

//! `LruModel::site_hit_ratios` is the per-K `site_hit_ratio` with shared
//! logarithms: every output bit and every telemetry tally must match the
//! one-K-at-a-time calls.
//!
//! The registry is process-global, so the tests of this binary hold
//! [`serialise`]'s guard while they measure counter deltas.

use cdn_lru_model::LruModel;
use cdn_telemetry as telemetry;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static REGISTRY: Mutex<()> = Mutex::new(());

fn serialise() -> MutexGuard<'static, ()> {
    telemetry::set_enabled(true);
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(evaluations, series_terms, tail_cutoffs)` so far.
fn tallies() -> [u64; 3] {
    let reg = telemetry::registry();
    [
        reg.counter("lru_model.evaluations").get(),
        reg.counter("lru_model.series_terms").get(),
        reg.counter("lru_model.tail_cutoffs").get(),
    ]
}

fn delta(before: [u64; 3], after: [u64; 3]) -> [u64; 3] {
    [0, 1, 2].map(|x| after[x] - before[x])
}

/// Batch and per-K results for one popularity, plus both counter deltas.
fn compare(model: &LruModel, p: f64, ks: &[f64]) -> Result<[u64; 3], TestCaseError> {
    let before = tallies();
    let mut batch = vec![f64::NAN; ks.len()];
    model.site_hit_ratios(p, ks, &mut batch);
    let batch_delta = delta(before, tallies());

    let before = tallies();
    let single: Vec<f64> = ks.iter().map(|&k| model.site_hit_ratio(p, k)).collect();
    let single_delta = delta(before, tallies());

    for (x, (&b, &s)) in batch.iter().zip(&single).enumerate() {
        prop_assert_eq!(
            b.to_bits(),
            s.to_bits(),
            "p {} k {}: batch {} vs single {}",
            p,
            ks[x],
            b,
            s
        );
    }
    prop_assert_eq!(batch_delta, single_delta, "p {} ks {:?}", p, ks);
    Ok(batch_delta)
}

/// Popularities across the whole envelope: zero and negative (no work),
/// tiny (tail cut-offs), ordinary, and above one (`p·pmf ≥ 1` clamps).
fn arb_p() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (-1.0f64..0.0),
        (-17.0f64..-11.0).prop_map(|e| 10f64.powf(e)),
        (-4.0f64..0.0).prop_map(|e| 10f64.powf(e)),
        (1.0f64..40.0),
    ]
}

/// Horizons: non-positive (no work), fractional, ordinary, huge.
fn arb_k() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (-5.0f64..0.0),
        (0.0f64..2.0),
        (0.0f64..6.0).prop_map(|e| 10f64.powf(e)),
        (6.0f64..14.0).prop_map(|e| 10f64.powf(e)),
    ]
}

/// Unsorted horizons with duplicates: a random list plus copies of some of
/// its entries appended at the end.
fn arb_ks() -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(arb_k(), 0..12),
        proptest::collection::vec(0usize..64, 0..4),
    )
        .prop_map(|(mut ks, dups)| {
            if !ks.is_empty() {
                for d in dups {
                    ks.push(ks[d % ks.len()]);
                }
            }
            ks
        })
}

proptest! {
    #[test]
    fn batch_matches_per_k_bit_for_bit(
        l in 1usize..600,
        theta in 0.4f64..1.4,
        p in arb_p(),
        ks in arb_ks(),
    ) {
        let _guard = serialise();
        compare(&LruModel::new(l, theta), p, &ks)?;
    }
}

/// The edge cases the property test draws at random, pinned: each one
/// must actually exercise the path it names.
#[test]
fn edge_cases_match_and_exercise_their_paths() {
    let _guard = serialise();
    let model = LruModel::new(400, 0.8);
    let run = |p: f64, ks: &[f64]| compare(&model, p, ks).expect("batch == per-K");

    // p = 0 and negative p: all zeros, no evaluation recorded.
    assert_eq!(run(0.0, &[1.0, 50.0, 1e6]), [0, 0, 0]);
    assert_eq!(run(-0.3, &[1.0, 50.0]), [0, 0, 0]);
    // k ≤ 0 entries are skipped, the rest still count.
    assert_eq!(run(0.2, &[0.0, -4.0, 30.0])[0], 1);
    // Clamp: p·pmf ≥ 1 at the head ranks.
    let [evals, terms, _] = run(25.0, &[1.0, 3.0, 1e4]);
    assert_eq!((evals, terms), (3, 3 * 400));
    // Tail cut-offs: a tiny popularity cuts short horizons early and long
    // ones late (or not at all), in one batch.
    let [evals, terms, cutoffs] = run(1e-15, &[0.5, 2.0, 3.0, 1e3]);
    assert_eq!(evals, 4);
    assert!(cutoffs >= 3, "expected cut-offs, got {cutoffs}");
    assert!(terms < 4 * 400, "cut-offs must shorten the series");
    // Unsorted, duplicated horizons: each duplicate is a full evaluation,
    // exactly as repeated per-K calls would be.
    let [evals, ..] = run(0.05, &[700.0, 3.0, 700.0, 1e9, 3.0, 0.5]);
    assert_eq!(evals, 6);
    // Empty list: nothing at all.
    assert_eq!(run(0.4, &[]), [0, 0, 0]);
}

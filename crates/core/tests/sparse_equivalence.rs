//! Dense-vs-sparse engine equivalence under randomized delta streams.
//!
//! The hybrid dispatcher's contract is that the sparse adjacency-list
//! engine is **bit-identical** to the dense matrix engine: same
//! [`DetectOutcome`] (verdict, `iterations`, `steps`) on every input,
//! and deterministic stats. These tests drive the *same* LCG-generated
//! edge-delta streams — including deletions, probe-only stretches and
//! streams that oscillate across the hybrid density threshold — through
//! forced-dense, forced-sparse and hybrid engines, checking every probe
//! against [`pdda::detect_cold`].

use deltaos_core::engine::{DetectEngine, EngineStats};
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::sparse::SparseConfig;
use deltaos_core::{pdda, ProcId, Rag, ResId};

struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        (self.next() >> 16) % bound
    }
}

/// One random mutation against the RAG: request/grant adds and removes
/// in a mix that exercises grant-consumes-request and no-op removals.
fn random_op(rng: &mut Lcg, rag: &mut Rag, m: u64, n: u64) {
    let p = ProcId(rng.below(n) as u16);
    let q = ResId(rng.below(m) as u16);
    match rng.below(5) {
        0 | 1 => {
            let _ = rag.add_request(p, q);
        }
        2 => {
            let _ = rag.add_grant(q, p);
        }
        3 => {
            let _ = rag.remove_request(p, q);
        }
        _ => {
            let _ = rag.remove_grant(q, p);
        }
    }
}

/// Counter fields that must agree between a forced-dense and a
/// forced-sparse engine fed the identical stream (everything except the
/// path split itself and the dense-only word-skip accounting).
fn path_independent(s: EngineStats) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        s.probes,
        s.cache_hits,
        s.delta_syncs,
        s.deltas_applied,
        s.full_rebuilds,
        s.reductions,
        s.live_edges,
        s.density_permille,
    )
}

#[test]
fn identical_streams_through_dense_and_sparse_are_bit_identical() {
    for seq in 0..4u64 {
        let mut dense = DetectEngine::new(256, 256);
        dense.set_sparse(SparseConfig::disabled());
        let mut sparse = DetectEngine::new(256, 256);
        sparse.set_sparse(SparseConfig::always());
        let mut rag = Rag::new(256, 256);
        let mut rng = Lcg::new(0x5BA12F ^ (seq << 8));
        for op in 0..400 {
            random_op(&mut rng, &mut rag, 256, 256);
            if rng.below(6) == 0 {
                let d = dense.probe(&rag);
                let s = sparse.probe(&rag);
                let cold = pdda::detect_cold(&rag);
                assert_eq!(d, s, "seq={seq} op={op}: dense vs sparse");
                assert_eq!(s, cold, "seq={seq} op={op}: sparse vs cold");
            }
        }
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
        let (ds, ss) = (dense.stats(), sparse.stats());
        assert_eq!(
            path_independent(ds),
            path_independent(ss),
            "seq={seq}: path-independent stats diverged"
        );
        assert_eq!(ds.sparse_reductions, 0, "forced-dense must never go sparse");
        assert_eq!(ds.dense_reductions, ds.reductions);
        assert_eq!(ss.dense_reductions, 0, "forced-sparse must never go dense");
        assert_eq!(ss.sparse_reductions, ss.reductions);
    }
}

#[test]
fn probe_only_batches_hit_both_caches_identically() {
    let mut dense = DetectEngine::new(64, 64);
    dense.set_sparse(SparseConfig::disabled());
    let mut sparse = DetectEngine::new(64, 64);
    sparse.set_sparse(SparseConfig::always());
    let mut rag = Rag::new(64, 64);
    rag.add_grant(ResId(0), ProcId(0)).unwrap();
    rag.add_request(ProcId(1), ResId(0)).unwrap();
    for _ in 0..5 {
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
    }
    assert_eq!(dense.stats().cache_hits, 4);
    assert_eq!(sparse.stats().cache_hits, 4);
    assert_eq!(dense.stats().reductions, 1);
    assert_eq!(sparse.stats().reductions, 1);
}

#[test]
fn streams_oscillating_across_the_threshold_match_cold() {
    // Hybrid config on a 64×64 engine: ≤100 live edges goes sparse
    // (100 * 1000 / 4096 ≈ 24.4‰), above goes dense. The stream pumps
    // the edge count up past the threshold and back down repeatedly, so
    // the dispatcher flips paths mid-session — every crossing must be
    // seamless (same outcomes, same cache behaviour).
    let cfg = SparseConfig {
        min_area: 1,
        max_density_permille: 24,
    };
    let mut hybrid = DetectEngine::new(64, 64);
    hybrid.set_sparse(cfg);
    let mut rag = Rag::new(64, 64);
    let mut rng = Lcg::new(0x05C111A7F);
    for cycle in 0..3 {
        // Pump up: adds dominate, edge count climbs past ~150.
        for op in 0..260 {
            let p = ProcId(rng.below(64) as u16);
            let q = ResId(rng.below(64) as u16);
            if rng.below(8) == 0 {
                let _ = rag.remove_grant(q, p);
            } else if rng.below(2) == 0 {
                let _ = rag.add_request(p, q);
            } else {
                let _ = rag.add_grant(q, p);
            }
            if rng.below(5) == 0 {
                let got = hybrid.probe(&rag);
                let cold = pdda::detect_cold(&rag);
                assert_eq!(got, cold, "cycle={cycle} up op={op}");
            }
        }
        // Drain down: removals dominate, edge count falls back.
        for op in 0..260 {
            let p = ProcId(rng.below(64) as u16);
            let q = ResId(rng.below(64) as u16);
            if rng.below(8) == 0 {
                let _ = rag.add_request(p, q);
            } else if rng.below(2) == 0 {
                let _ = rag.remove_request(p, q);
            } else {
                let _ = rag.remove_grant(q, p);
            }
            if rng.below(5) == 0 {
                let got = hybrid.probe(&rag);
                let cold = pdda::detect_cold(&rag);
                assert_eq!(got, cold, "cycle={cycle} down op={op}");
            }
        }
    }
    let s = hybrid.stats();
    assert!(
        s.dense_reductions > 0 && s.sparse_reductions > 0,
        "stream must cross the threshold both ways \
         (dense={}, sparse={})",
        s.dense_reductions,
        s.sparse_reductions
    );
    assert_eq!(s.dense_reductions + s.sparse_reductions, s.reductions);
}

#[test]
fn hybrid_stats_are_deterministic() {
    // The dispatch decision depends only on shape and live-edge count,
    // so the same script must yield identical outcomes AND identical
    // EngineStats — including the dense/sparse path split — on every
    // run, and every outcome must match the cold path.
    let script = || -> (Vec<DetectOutcome>, EngineStats) {
        let mut engine = DetectEngine::new(128, 128);
        engine.set_sparse(SparseConfig {
            min_area: 1,
            max_density_permille: 12,
        });
        let mut rng = Lcg::new(0x7EAD5);
        let mut rag = Rag::new(128, 128);
        let mut outcomes = Vec::new();
        for _ in 0..500 {
            random_op(&mut rng, &mut rag, 128, 128);
            if rng.below(4) == 0 {
                let got = engine.probe(&rag);
                assert_eq!(got, pdda::detect_cold(&rag));
                outcomes.push(got);
            }
        }
        (outcomes, engine.stats())
    };
    let (base_outcomes, base_stats) = script();
    assert!(!base_outcomes.is_empty());
    assert!(base_stats.reductions > 0);
    let (outcomes, stats) = script();
    assert_eq!(outcomes, base_outcomes, "outcomes diverged");
    assert_eq!(stats, base_stats, "EngineStats diverged");
}

#[test]
fn snapshot_shaped_restore_keeps_the_hybrid_split() {
    // Engine restore overwrites counters wholesale; the path-split
    // counters must survive that round trip like every other counter.
    let mut rag = Rag::new(64, 64);
    rag.add_grant(ResId(0), ProcId(0)).unwrap();
    rag.add_request(ProcId(1), ResId(0)).unwrap();
    let mut live = DetectEngine::new(64, 64);
    live.set_sparse(SparseConfig::always());
    let out = live.probe(&rag);
    let mut restored = DetectEngine::new(64, 64);
    restored.set_sparse(SparseConfig::always());
    restored.restore(&rag, live.stats(), Some(out));
    assert_eq!(restored.probe(&rag), out);
    assert_eq!(restored.stats().cache_hits, live.stats().cache_hits + 1);
    assert_eq!(restored.stats().sparse_reductions, 1);
    assert_eq!(restored.stats().dense_reductions, 0);
    assert_eq!(restored.stats().live_edges, 2);
}

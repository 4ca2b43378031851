//! Randomized equivalence: the incremental [`DetectEngine`] must agree
//! with the cold path ([`pdda::detect_cold`] — fresh `from_rag` plus a
//! full `terminal_reduction`) on **verdict, iterations and steps** after
//! arbitrary edit sequences, including journal overflow, clones and
//! interleaved cache hits.
//!
//! Runs in tier-1 with no external crates: randomness comes from a
//! hand-rolled 64-bit LCG (MMIX constants), seeded deterministically, so
//! failures replay exactly.

use deltaos_core::engine::DetectEngine;
use deltaos_core::{pdda, ProcId, Rag, ResId};

/// Knuth's MMIX LCG — good enough to scatter edit sequences, and fully
/// deterministic.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixpoint-ish start; mix the seed a little.
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform-ish value in `0..bound` (`bound > 0`); the tiny modulo
    /// bias is irrelevant for test-case generation.
    fn below(&mut self, bound: u64) -> u64 {
        (self.next() >> 16) % bound
    }
}

/// Applies one random RAG edit anywhere in the graph.
fn random_edit(rag: &mut Rag, rng: &mut Lcg) {
    let p = ProcId(rng.below(rag.processes() as u64) as u16);
    let q = ResId(rng.below(rag.resources() as u64) as u16);
    edit_cell(rag, rng, p, q);
}

/// Applies one random edit to cell `(q, p)`. Invalid operations
/// (duplicate request, busy resource, …) are simply ignored — exactly
/// how an adversarial caller exercises the epoch/journal bookkeeping,
/// since failed mutations must not advance the epoch.
fn edit_cell(rag: &mut Rag, rng: &mut Lcg, p: ProcId, q: ResId) {
    match rng.below(4) {
        0 => {
            let _ = rag.add_request(p, q);
        }
        1 => {
            let _ = rag.add_grant(q, p);
        }
        2 => {
            let _ = rag.remove_request(p, q);
        }
        _ => {
            let _ = rag.remove_grant(q, p);
        }
    }
}

fn assert_agrees(engine: &mut DetectEngine, rag: &Rag, seq: u64, op: usize) {
    let fast = engine.probe(rag);
    let cold = pdda::detect_cold(rag);
    assert_eq!(
        fast, cold,
        "engine diverged from cold path at sequence {seq}, op {op}:\n{rag}"
    );
}

#[test]
fn engine_matches_cold_path_over_1000_random_edit_sequences() {
    let mut sequences = 0u64;
    for seq in 0..1024u64 {
        let mut rng = Lcg::new(seq);
        let m = 1 + rng.below(8) as usize;
        let n = 1 + rng.below(8) as usize;
        let mut rag = Rag::new(m, n);
        let mut engine = DetectEngine::new(m, n);
        let ops = 8 + rng.below(24) as usize;
        for op in 0..ops {
            random_edit(&mut rag, &mut rng);
            // Sometimes batch a few edits between probes so the delta
            // replay handles multi-edit gaps, and sometimes probe twice
            // so cache hits are exercised mid-sequence.
            match rng.below(4) {
                0 => {}
                1 => {
                    assert_agrees(&mut engine, &rag, seq, op);
                    assert_agrees(&mut engine, &rag, seq, op);
                }
                _ => assert_agrees(&mut engine, &rag, seq, op),
            }
        }
        // Always settle the sequence with a final comparison.
        assert_agrees(&mut engine, &rag, seq, ops);
        sequences += 1;
    }
    assert!(sequences >= 1000);
}

#[test]
fn engine_survives_journal_overflow_and_clones() {
    // Longer sequences on one graph: overflow the bounded journal (so
    // syncs fall back to full rebuilds) and periodically swap in a clone
    // (fresh identity, same state).
    for seq in 0..32u64 {
        let mut rng = Lcg::new(0xC0FFEE ^ seq);
        let mut rag = Rag::new(6, 6);
        let mut engine = DetectEngine::new(6, 6);
        for op in 0..600 {
            random_edit(&mut rag, &mut rng);
            if rng.below(8) == 0 {
                assert_agrees(&mut engine, &rag, seq, op);
            }
            if rng.below(64) == 0 {
                rag = rag.clone();
            }
        }
        assert_agrees(&mut engine, &rag, seq, 600);
    }
}

#[test]
fn wide_matrices_exercise_the_column_word_worklist() {
    // The 8×8 sequences above always fit one row-word, so the
    // column-sided worklist never skips anything there. Use ≥3 words of
    // columns with edits clustered in one word: the engine must agree
    // with the cold path while provably skipping the empty column words.
    for seq in 0..128u64 {
        let mut rng = Lcg::new(0xBEEF ^ seq);
        let m = 1 + rng.below(6) as usize;
        let n = 130 + rng.below(60) as usize; // 3 words of columns
        let mut rag = Rag::new(m, n);
        let mut engine = DetectEngine::new(m, n);
        // Cluster edits in one 64-column word (sometimes the tail word),
        // leaving the other words provably empty.
        let base = [0u64, 64, 128][rng.below(3) as usize];
        let span = (n as u64 - base).min(64);
        let ops = 8 + rng.below(24) as usize;
        for op in 0..ops {
            let p = ProcId((base + rng.below(span)) as u16);
            let q = ResId(rng.below(m as u64) as u16);
            edit_cell(&mut rag, &mut rng, p, q);
            if rng.below(3) != 0 {
                assert_agrees(&mut engine, &rag, seq, op);
            }
        }
        assert_agrees(&mut engine, &rag, seq, ops);
        let stats = engine.stats();
        assert!(
            stats.col_words_skipped >= 2 * (stats.reductions - stats.full_rebuilds),
            "clustered edits must leave ≥2 of 3 column words skippable: {stats:?}"
        );
    }

    // And a mixed sequence spreading edits over all words: correctness
    // must hold when the live word set grows and shrinks.
    for seq in 0..64u64 {
        let mut rng = Lcg::new(0xD00D ^ seq);
        let m = 1 + rng.below(5) as usize;
        let n = 100 + rng.below(100) as usize;
        let mut rag = Rag::new(m, n);
        let mut engine = DetectEngine::new(m, n);
        for op in 0..40 {
            random_edit(&mut rag, &mut rng);
            if rng.below(2) == 0 {
                assert_agrees(&mut engine, &rag, seq, op);
            }
        }
        assert_agrees(&mut engine, &rag, seq, 40);
    }
}

/// Tall and wide shapes on both sides of the aspect (`m ≥ 8n`) and area
/// (`m·n ≥ 256²`) bounds an earlier column-major variant used, plus
/// their transposes. Edits cluster in a 96×96 window three times in
/// four, so cycles — and multi-pass reductions — actually form.
const TALL_AND_WIDE: &[(usize, usize)] = &[
    (512, 64),
    (768, 128),
    (1024, 128),
    (2048, 64),
    (4096, 64),
    (64, 512),
    (128, 768),
    (128, 1024),
    (64, 2048),
    (64, 4096),
];

#[test]
fn tall_and_wide_shapes_match_the_cold_path() {
    for (shape, &(m, n)) in TALL_AND_WIDE.iter().enumerate() {
        for seed in 0..3u64 {
            let seq = (shape as u64) << 8 | seed;
            let mut rng = Lcg::new(0x7A11 ^ seq);
            let mut rag = Rag::new(m, n);
            let mut engine = DetectEngine::new(m, n);
            let (rows, cols) = (m.min(96) as u64, n.min(96) as u64);
            let row0 = rng.below(m as u64 - rows + 1);
            let col0 = rng.below(n as u64 - cols + 1);
            let mut max_iterations = 0;
            for op in 0..240 {
                let (q, p) = if rng.below(4) == 0 {
                    (rng.below(m as u64), rng.below(n as u64))
                } else {
                    (row0 + rng.below(rows), col0 + rng.below(cols))
                };
                edit_cell(&mut rag, &mut rng, ProcId(p as u16), ResId(q as u16));
                if rng.below(3) == 0 {
                    let fast = engine.probe(&rag);
                    assert_eq!(
                        fast,
                        pdda::detect_cold(&rag),
                        "{m}x{n} seed {seed}, op {op}"
                    );
                    max_iterations = max_iterations.max(fast.iterations);
                }
            }
            assert_agrees(&mut engine, &rag, seq, 240);
            assert!(
                max_iterations > 1,
                "{m}x{n} seed {seed}: the stream never forced a multi-pass reduction"
            );
        }
    }
}

#[test]
fn probes_at_the_same_epoch_reduce_once() {
    let mut rag = Rag::new(4, 4);
    rag.add_grant(ResId(0), ProcId(0)).unwrap();
    rag.add_request(ProcId(1), ResId(0)).unwrap();
    let mut engine = DetectEngine::new(4, 4);

    let first = engine.probe(&rag);
    let second = engine.probe(&rag);
    assert_eq!(first, second);
    let stats = engine.stats();
    assert_eq!(stats.probes, 2);
    assert_eq!(stats.reductions, 1, "same-epoch re-probe must not reduce");
    assert_eq!(stats.cache_hits, 1);

    // One more edge invalidates the cache; the next probe reduces again
    // after replaying exactly one delta.
    rag.add_request(ProcId(2), ResId(0)).unwrap();
    engine.probe(&rag);
    let stats = engine.stats();
    assert_eq!(stats.reductions, 2);
    assert_eq!(stats.deltas_applied, 1);
}

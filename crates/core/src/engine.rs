//! The incremental, allocation-free deadlock detection engine.
//!
//! Every detection entry point in the crate ultimately runs the terminal
//! reduction `ξ` of Algorithm 1, and historically each probe paid the
//! full cold-start price: build a fresh [`StateMatrix`] from the RAG,
//! allocate scratch, reduce, drop everything. Between two probes an RTOS
//! mutates only a handful of edges, so almost all of that work rebuilds
//! state that never changed.
//!
//! [`DetectEngine`] keeps a persistent **mirror** of the state matrix and
//! applies RAG *deltas* instead of rebuilding:
//!
//! * [`Rag`] stamps every successful mutation with a new epoch and
//!   journals the cell-level change ([`RagDelta`]). When the engine's
//!   mirror lags the graph, it replays just the missing deltas;
//!   [`StateMatrix::from_rag`] remains the cold path, used only when the
//!   journal no longer reaches back far enough (or the graph identity
//!   changed).
//! * Dirty-row / dirty-column sets record which parts of the mirror each
//!   sync touched; flushing them refreshes the `row_nonempty` bookkeeping
//!   that seeds the reduction's row worklist *and* the non-empty
//!   column-word list that lets the terminal-column mask skip all-empty
//!   words, so probe cost tracks the *edit* size, not the matrix size.
//! * The reduction itself runs over an active-row worklist with scratch
//!   buffers owned by the engine ([`ReduceScratch`]) and a working matrix
//!   reused probe to probe — zero allocations on the steady-state path.
//! * An epoch-keyed result cache returns the previous [`DetectOutcome`]
//!   in O(1) when nothing mutated between probes.
//!
//! The engine is *bit-for-bit equivalent* to the cold path: verdict,
//! `iterations` and `steps` all match [`crate::pdda::detect_cold`] (the
//! worklist skips only rows that are provably empty, which can never be
//! terminal and contribute nothing to the column BWO trees). The
//! instruction-metered software PDDA ([`crate::pdda::detect_metered`]) is
//! untouched: the paper's Table 5 models a C implementation that rebuilds
//! kernel tables on every invocation, and its costs must not shift.

use crate::matrix::{Cell, StateMatrix};
use crate::pdda::DetectOutcome;
use crate::rag::RagDelta;
use crate::reduction::{reduce_core, ReduceScratch};
use crate::sparse::{SparseConfig, SparseState};
use crate::{ProcId, Rag, ResId};

/// Operation counters exposed for tests, benches and DESIGN.md claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Detection probes requested.
    pub probes: u64,
    /// Probes answered from the epoch-keyed result cache (no reduction).
    pub cache_hits: u64,
    /// Syncs satisfied by replaying journal deltas.
    pub delta_syncs: u64,
    /// Individual deltas applied across all delta syncs.
    pub deltas_applied: u64,
    /// Syncs that fell back to a full [`StateMatrix::from_rag`]-style
    /// rebuild (cold path).
    pub full_rebuilds: u64,
    /// Terminal reductions actually executed.
    pub reductions: u64,
    /// Row-word × pass combinations the column-sided worklist removed
    /// from the terminal-column mask scan (words whose columns were all
    /// empty at probe time).
    pub col_words_skipped: u64,
    /// Reductions served by the dense word-parallel engine.
    /// `dense_reductions + sparse_reductions == reductions`.
    pub dense_reductions: u64,
    /// Reductions served by the sparse adjacency-list engine
    /// ([`crate::sparse::SparseState`]).
    pub sparse_reductions: u64,
    /// Live edges in the mirror at read time (a gauge, not a counter).
    pub live_edges: u64,
    /// `live_edges * 1000 / (m * n)` at read time — the density the
    /// hybrid dispatcher gates on (a gauge, not a counter).
    pub density_permille: u64,
}

/// What state the mirror currently reflects — either a specific
/// `(id, epoch)` of some [`Rag`], or a locally-edited state numbered by
/// the engine's own edit counter (the DDU's direct cell writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    Rag { id: u64, epoch: u64 },
    Local { edits: u64 },
}

/// Incremental deadlock detection engine: persistent matrix mirror,
/// delta sync, worklist reduction, result cache.
///
/// # Example
///
/// ```
/// use deltaos_core::engine::DetectEngine;
/// use deltaos_core::{ProcId, Rag, ResId};
///
/// # fn main() -> Result<(), deltaos_core::CoreError> {
/// let mut rag = Rag::new(2, 2);
/// let mut engine = DetectEngine::new(2, 2);
/// rag.add_grant(ResId(0), ProcId(0))?;
/// rag.add_grant(ResId(1), ProcId(1))?;
/// rag.add_request(ProcId(0), ResId(1))?;
/// assert!(!engine.probe(&rag).deadlock);
/// rag.add_request(ProcId(1), ResId(0))?;
/// // Only the one new edge is applied to the mirror before reducing.
/// assert!(engine.probe(&rag).deadlock);
/// assert_eq!(engine.stats().delta_syncs, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DetectEngine {
    /// Persistent image of the current graph state.
    mirror: StateMatrix,
    /// Working copy the reduction destroys each probe.
    work: StateMatrix,
    /// Reusable reduction scratch (col masks, BWO accumulators, worklist).
    scratch: ReduceScratch,
    /// `row_nonempty[s]` ⟺ mirror row `s` carries at least one edge.
    /// Maintained lazily through the dirty-row set.
    row_nonempty: Vec<bool>,
    /// Dense list of the non-empty mirror rows — the reduction's seed
    /// worklist, maintained incrementally by [`DetectEngine::flush_dirty`]
    /// so a probe never scans all `m` rows.
    live_rows: Vec<u32>,
    /// `live_pos[s]` = index of row `s` in `live_rows` (`u32::MAX` when
    /// the row is empty); makes membership updates O(1) via swap-remove.
    live_pos: Vec<u32>,
    /// Rows the last reduction left non-empty in `work` (the irreducible
    /// residue). Clearing exactly these restores `work` to all-zeros, so
    /// the next probe copies only the live rows instead of the whole
    /// mirror.
    work_residue: Vec<u32>,
    /// Rows touched since the last flush (set + dense list).
    dirty_rows: Vec<bool>,
    dirty_row_list: Vec<u32>,
    /// Columns touched since the last flush (set + dense list), the
    /// column-sided twin of the dirty-row set.
    dirty_cols: Vec<bool>,
    dirty_col_list: Vec<u32>,
    /// `col_nonempty[t]` ⟺ mirror column `t` carries at least one edge.
    /// Maintained lazily through the dirty-column set.
    col_nonempty: Vec<bool>,
    /// Per row-word count of non-empty columns packed into that word.
    word_col_count: Vec<u32>,
    /// Dense list of row-words with ≥1 non-empty column — the
    /// column-sided worklist fed to the reduction so the terminal-column
    /// mask never scans words that are provably all-empty.
    live_col_words: Vec<u32>,
    /// `live_col_word_pos[w]` = index of word `w` in `live_col_words`
    /// (`u32::MAX` when absent); O(1) membership via swap-remove.
    live_col_word_pos: Vec<u32>,
    /// Gates for the hybrid dense/sparse dispatch.
    sparse_cfg: SparseConfig,
    /// Adjacency-list mirror, kept cell-for-cell in sync with `mirror`
    /// by the same O(degree) delta writes. Allocated only when the shape
    /// is large enough that the sparse path could ever be selected.
    sparse: Option<Box<SparseState>>,
    /// Live edges in the mirror, maintained O(1) per cell write — the
    /// density input of the hybrid dispatch.
    live_edges: u64,
    /// Per-row and per-column edge counts, maintained O(1) per cell
    /// write. These make the row/column occupancy transitions in
    /// [`DetectEngine::flush_dirty`] O(1) lookups — the bitmap scans
    /// (`col_is_empty` walks one bit of all `m` rows) would otherwise
    /// put an O(m) cache-hostile stride on every probe that touched a
    /// column, dwarfing the sparse reduction itself at large shapes.
    row_edges: Vec<u32>,
    col_edges: Vec<u32>,
    /// What the mirror currently holds.
    version: Version,
    /// Monotonic counter for direct (DDU-style) cell edits.
    edits: u64,
    /// Last outcome, keyed by the version it was computed at.
    cache: Option<(Version, DetectOutcome)>,
    stats: EngineStats,
}

impl DetectEngine {
    /// Creates an engine sized for `resources` × `processes`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (same contract as
    /// [`StateMatrix::new`]).
    pub fn new(resources: usize, processes: usize) -> Self {
        let words = processes.div_ceil(64);
        let sparse_cfg = SparseConfig::default();
        let sparse = sparse_cfg
            .covers_shape(resources * processes)
            .then(|| Box::new(SparseState::new(resources, processes)));
        DetectEngine {
            mirror: StateMatrix::new(resources, processes),
            work: StateMatrix::new(resources, processes),
            scratch: ReduceScratch::new(),
            row_nonempty: vec![false; resources],
            live_rows: Vec::with_capacity(resources),
            live_pos: vec![u32::MAX; resources],
            work_residue: Vec::with_capacity(resources),
            dirty_rows: vec![false; resources],
            dirty_row_list: Vec::new(),
            dirty_cols: vec![false; processes],
            dirty_col_list: Vec::new(),
            col_nonempty: vec![false; processes],
            word_col_count: vec![0; words],
            live_col_words: Vec::with_capacity(words),
            live_col_word_pos: vec![u32::MAX; words],
            sparse_cfg,
            sparse,
            live_edges: 0,
            row_edges: vec![0; resources],
            col_edges: vec![0; processes],
            version: Version::Local { edits: 0 },
            edits: 0,
            cache: None,
            stats: EngineStats::default(),
        }
    }

    /// Number of resource rows.
    pub fn resources(&self) -> usize {
        self.mirror.resources()
    }

    /// Number of process columns.
    pub fn processes(&self) -> usize {
        self.mirror.processes()
    }

    /// The persistent mirror (read-only; the DDU exposes this as its cell
    /// array read-back).
    pub fn mirror(&self) -> &StateMatrix {
        &self.mirror
    }

    /// Operation counters since construction (or [`DetectEngine::reset_stats`]),
    /// with the live-edge and density gauges filled in at read time.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.live_edges = self.live_edges;
        s.density_permille = self.density_permille();
        s
    }

    /// Live edges currently in the mirror.
    pub fn live_edges(&self) -> u64 {
        self.live_edges
    }

    /// Current mirror density in thousandths of the matrix area — the
    /// quantity the hybrid dispatcher compares against
    /// [`SparseConfig::max_density_permille`].
    pub fn density_permille(&self) -> u64 {
        let area = (self.resources() * self.processes()) as u64;
        self.live_edges
            .saturating_mul(1000)
            .checked_div(area)
            .unwrap_or(0)
    }

    /// The active sparse-dispatch configuration.
    pub fn sparse_config(&self) -> SparseConfig {
        self.sparse_cfg
    }

    /// Replaces the sparse-dispatch configuration in place. If the new
    /// gates make the sparse mirror live for this shape it is built from
    /// the current dense mirror (no resync, no cache loss); if they rule
    /// it out the mirror is dropped.
    pub fn set_sparse(&mut self, cfg: SparseConfig) {
        self.sparse_cfg = cfg;
        if cfg.covers_shape(self.resources() * self.processes()) {
            if self.sparse.is_none() {
                let mut sp = Box::new(SparseState::new(self.resources(), self.processes()));
                sp.rebuild_from_matrix(&self.mirror);
                self.sparse = Some(sp);
            }
        } else {
            self.sparse = None;
        }
    }

    /// Zeroes the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Reallocates for a new shape, discarding the mirror. Cheap no-op
    /// when the shape already matches.
    pub fn ensure_dims(&mut self, resources: usize, processes: usize) {
        if self.resources() == resources && self.processes() == processes {
            return;
        }
        let sparse_cfg = self.sparse_cfg;
        *self = DetectEngine {
            stats: self.stats,
            edits: self.edits,
            ..DetectEngine::new(resources, processes)
        };
        if sparse_cfg != SparseConfig::default() {
            self.set_sparse(sparse_cfg);
        }
    }

    #[inline]
    fn mark_dirty(&mut self, q: ResId, p: ProcId) {
        if !self.dirty_rows[q.index()] {
            self.dirty_rows[q.index()] = true;
            self.dirty_row_list.push(q.index() as u32);
        }
        if !self.dirty_cols[p.index()] {
            self.dirty_cols[p.index()] = true;
            self.dirty_col_list.push(p.index() as u32);
        }
    }

    /// Refreshes `row_nonempty` and the `live_rows` worklist for the rows
    /// touched since the last flush, then forgets the dirty sets.
    fn flush_dirty(&mut self) {
        while let Some(s) = self.dirty_row_list.pop() {
            let s = s as usize;
            self.dirty_rows[s] = false;
            let nonempty = self.row_edges[s] > 0;
            debug_assert_eq!(nonempty, !self.mirror.row_is_empty(s));
            if nonempty == self.row_nonempty[s] {
                continue;
            }
            self.row_nonempty[s] = nonempty;
            if nonempty {
                self.live_pos[s] = self.live_rows.len() as u32;
                self.live_rows.push(s as u32);
            } else {
                let i = self.live_pos[s] as usize;
                self.live_pos[s] = u32::MAX;
                self.live_rows.swap_remove(i);
                if let Some(&moved) = self.live_rows.get(i) {
                    self.live_pos[moved as usize] = i as u32;
                }
            }
        }
        while let Some(t) = self.dirty_col_list.pop() {
            let t = t as usize;
            self.dirty_cols[t] = false;
            let nonempty = self.col_edges[t] > 0;
            debug_assert_eq!(nonempty, !self.mirror.col_is_empty(t));
            if nonempty == self.col_nonempty[t] {
                continue;
            }
            self.col_nonempty[t] = nonempty;
            let w = t / 64;
            if nonempty {
                self.word_col_count[w] += 1;
                if self.word_col_count[w] == 1 {
                    self.live_col_word_pos[w] = self.live_col_words.len() as u32;
                    self.live_col_words.push(w as u32);
                }
            } else {
                self.word_col_count[w] -= 1;
                if self.word_col_count[w] == 0 {
                    let i = self.live_col_word_pos[w] as usize;
                    self.live_col_word_pos[w] = u32::MAX;
                    self.live_col_words.swap_remove(i);
                    if let Some(&moved) = self.live_col_words.get(i) {
                        self.live_col_word_pos[moved as usize] = i as u32;
                    }
                }
            }
        }
    }

    fn bump_local(&mut self) {
        self.edits += 1;
        self.version = Version::Local { edits: self.edits };
    }

    /// Writes one cell into the mirror. The live-edge count and the
    /// sparse adjacency mirror ride the same choke point, so every write
    /// path (delta sync, DDU cell writes, rebuilds' per-edge inserts)
    /// keeps them current.
    #[inline]
    fn write_cell(&mut self, q: ResId, p: ProcId, delta: RagDelta) {
        let had = self.mirror.cell(q, p) != Cell::Empty;
        match delta {
            RagDelta::Request { .. } => self.mirror.set_request(p, q),
            RagDelta::Grant { .. } => self.mirror.set_grant(q, p),
            RagDelta::Clear { .. } => self.mirror.clear(q, p),
        }
        let has = !matches!(delta, RagDelta::Clear { .. });
        match (had, has) {
            (false, true) => {
                self.live_edges += 1;
                self.row_edges[q.0 as usize] += 1;
                self.col_edges[p.0 as usize] += 1;
            }
            (true, false) => {
                self.live_edges -= 1;
                self.row_edges[q.0 as usize] -= 1;
                self.col_edges[p.0 as usize] -= 1;
            }
            _ => {}
        }
        if let Some(sp) = self.sparse.as_mut() {
            sp.apply_delta(delta);
        }
        self.mark_dirty(q, p);
    }

    /// Direct cell write (the DDU's bus interface): request edge `p → q`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn set_request(&mut self, p: ProcId, q: ResId) {
        self.write_cell(q, p, RagDelta::Request { p, q });
        self.bump_local();
    }

    /// Direct cell write: grant edge `q → p`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn set_grant(&mut self, q: ResId, p: ProcId) {
        self.write_cell(q, p, RagDelta::Grant { p, q });
        self.bump_local();
    }

    /// Direct cell write: clear cell `(q, p)`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn clear(&mut self, q: ResId, p: ProcId) {
        self.write_cell(q, p, RagDelta::Clear { p, q });
        self.bump_local();
    }

    fn apply_delta(&mut self, delta: RagDelta) {
        let (p, q) = match delta {
            RagDelta::Request { p, q } | RagDelta::Grant { p, q } | RagDelta::Clear { p, q } => {
                (p, q)
            }
        };
        self.write_cell(q, p, delta);
    }

    /// Rebuilds the whole mirror from `rag` into the existing buffers —
    /// the cold path, with no allocation beyond what the engine owns.
    fn full_rebuild(&mut self, rag: &Rag) {
        self.mirror.fill_empty();
        for qi in 0..rag.resources() {
            let q = ResId(qi as u16);
            if let Some(p) = rag.owner(q) {
                self.mirror.set_grant(q, p);
            }
            for &p in rag.requesters(q) {
                self.mirror.set_request(p, q);
            }
        }
        if let Some(sp) = self.sparse.as_mut() {
            sp.rebuild_from_rag(rag);
        }
        // Everything moved: recompute row and column occupancy wholesale
        // and drop any finer-grained dirty tracking. One word pass over
        // the mirror refreshes the edge counts — O(area/64 + edges), not
        // the O(n·m) a per-column bitmap scan would cost.
        self.row_edges.fill(0);
        self.col_edges.fill(0);
        self.live_edges = 0;
        for s in 0..self.resources() {
            let (rw, gw) = (self.mirror.row_r(s), self.mirror.row_g(s));
            let mut row_count = 0u32;
            for (w, (&r, &g)) in rw.iter().zip(gw.iter()).enumerate() {
                // Request and grant bits are disjoint per cell (writes
                // replace), so one OR covers both planes.
                let mut bits = r | g;
                row_count += bits.count_ones();
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    self.col_edges[t] += 1;
                    bits &= bits - 1;
                }
            }
            self.row_edges[s] = row_count;
            self.live_edges += u64::from(row_count);
        }
        debug_assert_eq!(self.live_edges, self.mirror.edge_count() as u64);
        self.live_rows.clear();
        for s in 0..self.resources() {
            let nonempty = self.row_edges[s] > 0;
            self.row_nonempty[s] = nonempty;
            if nonempty {
                self.live_pos[s] = self.live_rows.len() as u32;
                self.live_rows.push(s as u32);
            } else {
                self.live_pos[s] = u32::MAX;
            }
        }
        self.live_col_words.clear();
        self.live_col_word_pos.fill(u32::MAX);
        self.word_col_count.fill(0);
        for t in 0..self.processes() {
            let nonempty = self.col_edges[t] > 0;
            self.col_nonempty[t] = nonempty;
            if nonempty {
                let w = t / 64;
                self.word_col_count[w] += 1;
                if self.word_col_count[w] == 1 {
                    self.live_col_word_pos[w] = self.live_col_words.len() as u32;
                    self.live_col_words.push(w as u32);
                }
            }
        }
        self.dirty_rows.fill(false);
        self.dirty_row_list.clear();
        self.dirty_cols.fill(false);
        self.dirty_col_list.clear();
        self.stats.full_rebuilds += 1;
    }

    /// Brings the mirror up to date with `rag`, by delta replay when the
    /// journal allows it, else by full rebuild.
    ///
    /// The RAG must fit the engine (`rag.resources() <= resources()` and
    /// likewise for processes): the DDU loads smaller graphs into a wider
    /// cell array. Use [`DetectEngine::ensure_dims`] first for an exact
    /// fit.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit the engine's dimensions.
    pub fn sync_rag(&mut self, rag: &Rag) {
        assert!(
            rag.resources() <= self.resources() && rag.processes() <= self.processes(),
            "RAG {}x{} does not fit engine {}x{}",
            rag.resources(),
            rag.processes(),
            self.resources(),
            self.processes()
        );
        let target = Version::Rag {
            id: rag.id(),
            epoch: rag.epoch(),
        };
        if self.version == target {
            return;
        }
        match self.version {
            Version::Rag { id, epoch } if id == rag.id() && rag.journal_covers(epoch) => {
                for delta in rag.deltas_since(epoch) {
                    self.apply_delta(delta);
                    self.stats.deltas_applied += 1;
                }
                self.stats.delta_syncs += 1;
            }
            _ => self.full_rebuild(rag),
        }
        self.version = target;
        debug_assert_eq!(
            self.mirror,
            {
                let mut full = StateMatrix::new(self.resources(), self.processes());
                for qi in 0..rag.resources() {
                    let q = ResId(qi as u16);
                    if let Some(p) = rag.owner(q) {
                        full.set_grant(q, p);
                    }
                    for &p in rag.requesters(q) {
                        full.set_request(p, q);
                    }
                }
                full
            },
            "delta-synced mirror diverged from the graph"
        );
    }

    /// Reduces the current mirror state, consulting the result cache.
    pub fn detect_current(&mut self) -> DetectOutcome {
        self.stats.probes += 1;
        if let Some((version, outcome)) = self.cache {
            if version == self.version {
                self.stats.cache_hits += 1;
                return outcome;
            }
        }
        self.flush_dirty();
        // Hybrid dispatch: above the area gate and below the density
        // gate the adjacency-list engine wins; everything else — always
        // including paper scale — stays on the proven dense engine. The
        // decision depends only on shape and live-edge count.
        let area = self.resources() * self.processes();
        let prefers_sparse = self.sparse_cfg.prefers_sparse(area, self.live_edges);
        if let Some(sp) = self.sparse.as_mut().filter(|_| prefers_sparse) {
            debug_assert_eq!(
                sp.live_edges(),
                self.live_edges,
                "sparse mirror edge count diverged from the engine's"
            );
            debug_assert_eq!(
                self.live_edges,
                self.mirror.edge_count() as u64,
                "engine live-edge count diverged from the mirror"
            );
            let report = sp.reduce();
            self.stats.sparse_reductions += 1;
            self.stats.reductions += 1;
            let outcome: DetectOutcome = report.into();
            self.cache = Some((self.version, outcome));
            return outcome;
        }
        // `work` is all-zero outside the residue rows the previous
        // reduction left behind; clear those, then image only the live
        // rows — O(residue + live) row copies, never a full-matrix one.
        for &s in &self.work_residue {
            self.work.clear_row(s as usize);
        }
        self.work_residue.clear();
        for &s in &self.live_rows {
            self.work.copy_row_from(&self.mirror, s as usize);
        }
        let report = reduce_core(
            &mut self.work,
            &mut self.scratch,
            Some(&self.live_rows),
            Some(&self.live_col_words),
        );
        self.work_residue.extend_from_slice(self.scratch.residue());
        let words = self.mirror.words_per_row();
        self.stats.col_words_skipped +=
            (words - self.live_col_words.len()) as u64 * u64::from(report.steps);
        self.stats.dense_reductions += 1;
        self.stats.reductions += 1;
        let outcome: DetectOutcome = report.into();
        self.cache = Some((self.version, outcome));
        outcome
    }

    /// Full probe: sync the mirror to `rag` and detect. This is the
    /// engine's main entry point — [`crate::pdda::detect`] routes here.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit the engine's dimensions.
    pub fn probe(&mut self, rag: &Rag) -> DetectOutcome {
        self.sync_rag(rag);
        self.detect_current()
    }

    /// The cached [`DetectOutcome`] **for `rag`'s current state**, if the
    /// result cache holds one: the last probe ran against this exact
    /// `(id, epoch)` and nothing mutated since. This is the snapshot
    /// export hook — persisting the outcome alongside the graph lets a
    /// restored engine answer its first unchanged probe from cache, so
    /// `cache_hits`/`reductions` counters replay bit-identically across
    /// a crash/restore boundary.
    pub fn cached_outcome_for(&self, rag: &Rag) -> Option<DetectOutcome> {
        let current = Version::Rag {
            id: rag.id(),
            epoch: rag.epoch(),
        };
        match self.cache {
            Some((version, outcome)) if version == current => Some(outcome),
            _ => None,
        }
    }

    /// Restore hook: rebuilds the mirror from `rag`, overwrites the
    /// operation counters with `stats` (the values captured at snapshot
    /// time), and — when `cached` is given — primes the result cache so
    /// the next probe against an unchanged `rag` is a cache hit, exactly
    /// as it would have been in the uninterrupted run.
    ///
    /// The rebuild performed here is *not* counted in the restored
    /// stats: counters land exactly on the snapshot's values, because
    /// the uninterrupted run never paid for a restore. Counters continue
    /// exactly only when the snapshot was taken with the mirror in step
    /// with the graph (no deltas pending), or before the engine ever
    /// synced — every engine's first sync is a full rebuild, so stats
    /// with `full_rebuilds == 0` restore unsynced and the next probe
    /// pays and counts that first rebuild, as the original would.
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit the engine's dimensions.
    pub fn restore(&mut self, rag: &Rag, stats: EngineStats, cached: Option<DetectOutcome>) {
        if stats.full_rebuilds > 0 {
            self.sync_rag(rag);
            self.cache = cached.map(|outcome| (self.version, outcome));
        }
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdda::detect_cold;

    fn p(i: u16) -> ProcId {
        ProcId(i)
    }
    fn q(i: u16) -> ResId {
        ResId(i)
    }

    fn cycle_rag() -> Rag {
        let mut rag = Rag::new(2, 2);
        rag.add_grant(q(0), p(0)).unwrap();
        rag.add_grant(q(1), p(1)).unwrap();
        rag.add_request(p(0), q(1)).unwrap();
        rag.add_request(p(1), q(0)).unwrap();
        rag
    }

    #[test]
    fn first_probe_is_a_full_rebuild() {
        let rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        assert!(engine.probe(&rag).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 1);
        assert_eq!(engine.stats().delta_syncs, 0);
    }

    #[test]
    fn second_probe_after_edit_uses_deltas() {
        let mut rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        engine.probe(&rag);
        rag.remove_request(p(1), q(0));
        let out = engine.probe(&rag);
        assert!(!out.deadlock);
        assert_eq!(engine.stats().full_rebuilds, 1);
        assert_eq!(engine.stats().delta_syncs, 1);
        assert_eq!(engine.stats().deltas_applied, 1);
        assert_eq!(out, detect_cold(&rag));
    }

    #[test]
    fn unchanged_probe_hits_the_cache() {
        let rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        let a = engine.probe(&rag);
        let b = engine.probe(&rag);
        assert_eq!(a, b);
        assert_eq!(engine.stats().probes, 2);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().reductions, 1, "second probe must not reduce");
    }

    #[test]
    fn journal_overflow_falls_back_to_rebuild() {
        let mut rag = Rag::new(1, 1);
        let mut engine = DetectEngine::new(1, 1);
        engine.probe(&rag);
        for _ in 0..300 {
            rag.add_request(p(0), q(0)).unwrap();
            assert!(rag.remove_request(p(0), q(0)));
        }
        engine.probe(&rag);
        assert_eq!(engine.stats().full_rebuilds, 2);
        assert_eq!(engine.stats().delta_syncs, 0);
    }

    #[test]
    fn different_rag_identity_forces_rebuild() {
        let rag1 = cycle_rag();
        let rag2 = Rag::new(2, 2);
        let mut engine = DetectEngine::new(2, 2);
        assert!(engine.probe(&rag1).deadlock);
        assert!(!engine.probe(&rag2).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 2);
    }

    #[test]
    fn clone_of_rag_is_probed_safely() {
        // A clone keeps the journal but gets a new id, so the engine must
        // not delta-sync across the identity change.
        let mut rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        engine.probe(&rag);
        let copy = rag.clone();
        rag.remove_request(p(1), q(0));
        assert!(engine.probe(&copy).deadlock);
        assert!(!engine.probe(&rag).deadlock);
    }

    #[test]
    fn direct_cell_writes_follow_the_ddu_interface() {
        let mut engine = DetectEngine::new(2, 2);
        engine.set_grant(q(0), p(0));
        engine.set_grant(q(1), p(1));
        engine.set_request(p(0), q(1));
        engine.set_request(p(1), q(0));
        assert!(engine.detect_current().deadlock);
        let hit = engine.detect_current();
        assert!(hit.deadlock);
        assert_eq!(engine.stats().cache_hits, 1);
        engine.clear(q(1), p(0));
        assert!(!engine.detect_current().deadlock);
        assert_eq!(engine.mirror().edge_count(), 3, "detection preserves cells");
    }

    #[test]
    fn smaller_rag_fits_wider_engine() {
        let mut chain = Rag::new(3, 3);
        chain.add_grant(q(0), p(0)).unwrap();
        chain.add_request(p(1), q(0)).unwrap();
        let mut exact = DetectEngine::new(3, 3);
        let mut wide = DetectEngine::new(8, 64);
        assert_eq!(exact.probe(&chain), wide.probe(&chain));
    }

    #[test]
    fn ensure_dims_reshapes_and_rebuilds() {
        let mut engine = DetectEngine::new(2, 2);
        engine.probe(&cycle_rag());
        engine.ensure_dims(5, 5);
        assert_eq!(engine.resources(), 5);
        let rag = Rag::new(5, 5);
        assert!(!engine.probe(&rag).deadlock);
        assert_eq!(engine.stats().full_rebuilds, 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_rag_rejected() {
        DetectEngine::new(2, 2).probe(&Rag::new(3, 3));
    }

    #[test]
    fn cached_outcome_export_tracks_the_rag_state() {
        let mut rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        assert_eq!(engine.cached_outcome_for(&rag), None, "no probe yet");
        let out = engine.probe(&rag);
        assert_eq!(engine.cached_outcome_for(&rag), Some(out));
        rag.remove_request(p(1), q(0));
        assert_eq!(
            engine.cached_outcome_for(&rag),
            None,
            "mutation invalidates the exported cache"
        );
    }

    #[test]
    fn restore_primes_stats_and_cache() {
        // Run an "uninterrupted" engine: probe, edit, probe, probe.
        let mut rag = cycle_rag();
        let mut live = DetectEngine::new(2, 2);
        live.probe(&rag);
        rag.remove_request(p(1), q(0));
        let out = live.probe(&rag);
        live.probe(&rag); // cache hit in the live engine

        // Snapshot after the second probe, restore into a fresh engine
        // backed by a freshly rebuilt RAG (new id, epoch 0), then repeat
        // the trailing probe: counters must land where the live engine's
        // did.
        let mut snap_stats = live.stats();
        snap_stats.cache_hits -= 1; // state as of the snapshot point
        snap_stats.probes -= 1;
        let mut restored_rag = Rag::new(2, 2);
        restored_rag.add_grant(q(0), p(0)).unwrap();
        restored_rag.add_grant(q(1), p(1)).unwrap();
        restored_rag.add_request(p(0), q(1)).unwrap();
        let mut restored = DetectEngine::new(2, 2);
        restored.restore(&restored_rag, snap_stats, Some(out));
        assert_eq!(restored.probe(&restored_rag), out, "first probe hits cache");
        assert_eq!(restored.stats().cache_hits, live.stats().cache_hits);
        assert_eq!(restored.stats().probes, live.stats().probes);
        assert_eq!(restored.stats().reductions, live.stats().reductions);
    }

    #[test]
    fn restore_without_cached_outcome_reduces_on_first_probe() {
        let rag = cycle_rag();
        let mut engine = DetectEngine::new(2, 2);
        engine.restore(&rag, EngineStats::default(), None);
        let out = engine.probe(&rag);
        assert!(out.deadlock);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().reductions, 1);
        assert_eq!(out, detect_cold(&rag));
    }

    #[test]
    fn hybrid_dispatch_records_path_and_matches_dense() {
        let mut rag = cycle_rag();
        let mut dense = DetectEngine::new(2, 2);
        dense.set_sparse(SparseConfig::disabled());
        let mut sparse = DetectEngine::new(2, 2);
        sparse.set_sparse(SparseConfig::always());
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
        assert_eq!(dense.stats().dense_reductions, 1);
        assert_eq!(dense.stats().sparse_reductions, 0);
        assert_eq!(sparse.stats().sparse_reductions, 1);
        assert_eq!(sparse.stats().dense_reductions, 0);
        rag.remove_request(p(1), q(0));
        assert_eq!(dense.probe(&rag), sparse.probe(&rag));
        assert_eq!(dense.stats().live_edges, 3);
        assert_eq!(sparse.stats().live_edges, 3);
        assert_eq!(dense.stats().density_permille, 750);
    }

    #[test]
    fn sparse_engine_tracks_direct_cell_writes() {
        let mut e = DetectEngine::new(4, 4);
        e.set_sparse(SparseConfig::always());
        e.set_grant(q(0), p(0));
        e.set_grant(q(1), p(1));
        e.set_request(p(0), q(1));
        e.set_request(p(1), q(0));
        assert!(e.detect_current().deadlock);
        e.clear(q(1), p(0));
        assert!(!e.detect_current().deadlock);
        assert_eq!(e.stats().sparse_reductions, 2);
        assert_eq!(e.stats().dense_reductions, 0);
        assert_eq!(e.live_edges(), 3);
    }

    #[test]
    fn default_config_keeps_paper_scale_dense() {
        let mut e = DetectEngine::new(5, 5);
        assert!(!e.sparse_config().covers_shape(25));
        e.probe(&Rag::new(5, 5));
        assert_eq!(e.stats().dense_reductions, 1);
        assert_eq!(e.stats().sparse_reductions, 0);
    }

    #[test]
    fn outcome_matches_cold_path_across_paper_table4_sequence() {
        let mut rag = Rag::new(5, 5);
        let mut engine = DetectEngine::new(5, 5);
        let check = |rag: &Rag, engine: &mut DetectEngine| {
            assert_eq!(engine.probe(rag), detect_cold(rag));
        };
        rag.add_grant(q(1), p(0)).unwrap();
        rag.add_grant(q(0), p(0)).unwrap();
        check(&rag, &mut engine);
        rag.add_grant(q(3), p(2)).unwrap();
        rag.add_request(p(2), q(1)).unwrap();
        check(&rag, &mut engine);
        rag.add_request(p(1), q(1)).unwrap();
        rag.add_request(p(1), q(3)).unwrap();
        check(&rag, &mut engine);
        rag.remove_grant(q(1), p(0)).unwrap();
        check(&rag, &mut engine);
        rag.remove_request(p(1), q(1));
        rag.add_grant(q(1), p(1)).unwrap();
        check(&rag, &mut engine);
        assert!(engine.probe(&rag).deadlock);
        assert_eq!(
            engine.stats().full_rebuilds,
            1,
            "only the first probe rebuilds"
        );
    }
}

//! Sparse graph-native terminal reduction for large, mostly-empty RAGs.
//!
//! The dense engine pays O(live_rows × ⌈n/64⌉) per reduction pass no
//! matter how few edges exist: every live row contributes a full word
//! scan even when it carries a single bit. At service scale (tens of
//! thousands of processes, well under 1% occupancy) nearly every word is
//! zero, so the matrix form does mostly-wasted work — and beyond the
//! `u16` id space it cannot even be allocated.
//!
//! [`SparseState`] keeps the same state as compact adjacency lists:
//! per-resource request and grant edge lists (`row_req[s]` /
//! `row_grant[s]`, process ids) plus per-process edge counts as the
//! reverse index. Every edge delta is applied in O(degree) of the touched
//! row, and a probe costs O(edges) per pass instead of O(live_rows ×
//! words).
//!
//! **Equivalence.** [`SparseState::reduce`] replays the *exact* pass
//! structure of [`crate::reduction::reduce_core`]:
//!
//! * a row is terminal iff it has requests XOR grants — list emptiness
//!   here, the fused BWO row scan there;
//! * a column is terminal iff it has requests XOR grants across live
//!   rows — the `cnt_req`/`cnt_grant` counters here are exactly the
//!   "any bit set" OR-accumulators of the dense column mask;
//! * removal happens against the same pre-removal snapshot the flags
//!   were computed from (terminal rows drop whole rows, non-terminal
//!   rows drop only their terminal-column cells);
//! * the final pass that finds no terminals is counted in `steps`, and
//!   completeness is "no edges remain" — identical to the dense check
//!   that every column accumulator is zero.
//!
//! Since the per-pass terminal sets are equal, `iterations`, `steps` and
//! the verdict are bit-identical to the dense engine on every input (the
//! LCG equivalence suite drives both paths through identical random
//! delta streams to enforce this).
//!
//! Unlike the matrix paths, `SparseState` is indexed by `usize`, so it
//! represents graphs beyond `u16` ids (e.g. 1M×1M, where a dense
//! bit-matrix pair would need ~500 GB) in memory proportional to the
//! edge count.

use crate::matrix::{Cell, StateMatrix};
use crate::pdda::DetectOutcome;
use crate::reduction::ReductionReport;
use crate::{Rag, RagDelta, ResId};

/// Gates for the hybrid dense/sparse dispatch in
/// [`crate::engine::DetectEngine`].
///
/// Both gates are functions of matrix shape and live-edge count alone —
/// never of timing — so which engine serves a probe is a deterministic
/// property of the input, and stats are bit-identical run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseConfig {
    /// Minimum matrix area (`m * n`) before the sparse path is
    /// considered at all. The default keeps everything below 1024×1024 —
    /// including every paper-scale case — on the proven dense engine.
    pub min_area: usize,
    /// Maximum live-edge density, in thousandths of the matrix area
    /// (`live_edges * 1000 <= max_density_permille * area`), at which the
    /// sparse path is preferred. Above it the dense word-parallel scan
    /// wins and the engine falls back.
    pub max_density_permille: u64,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            // 1024² and up; 4‰ of the area (≈4.2k edges at 1024²) is
            // where list walks stop beating word scans.
            min_area: 1 << 20,
            max_density_permille: 4,
        }
    }
}

impl SparseConfig {
    /// A config that never selects the sparse path (dense-only engine).
    pub fn disabled() -> Self {
        SparseConfig {
            min_area: usize::MAX,
            max_density_permille: 0,
        }
    }

    /// A config that always selects the sparse path (test/bench forcing).
    pub fn always() -> Self {
        SparseConfig {
            min_area: 0,
            max_density_permille: u64::MAX,
        }
    }

    /// `true` if a matrix of this area may ever use the sparse path
    /// (governs whether the engine maintains the adjacency mirror).
    pub fn covers_shape(&self, area: usize) -> bool {
        area >= self.min_area
    }

    /// `true` if a probe at this area and live-edge count should take
    /// the sparse path.
    pub fn prefers_sparse(&self, area: usize, live_edges: u64) -> bool {
        self.covers_shape(area)
            && live_edges.saturating_mul(1000)
                <= self.max_density_permille.saturating_mul(area as u64)
    }
}

/// Reusable probe workspace: working copies of the live rows' edge
/// lists, the per-process count reverse index, terminal flags and the
/// touched-column list that resets the counters in O(touched).
#[derive(Debug, Clone, Default)]
struct Workspace {
    row_req: Vec<Vec<u32>>,
    row_grant: Vec<Vec<u32>>,
    active: Vec<u32>,
    row_terminal: Vec<bool>,
    cnt_req: Vec<u32>,
    cnt_grant: Vec<u32>,
    col_terminal: Vec<bool>,
    touched_cols: Vec<u32>,
}

impl Workspace {
    fn ensure(&mut self, m: usize, n: usize) {
        if self.row_req.len() < m {
            self.row_req.resize_with(m, Vec::new);
            self.row_grant.resize_with(m, Vec::new);
            self.row_terminal.resize(m, false);
        }
        if self.cnt_req.len() < n {
            self.cnt_req.resize(n, 0);
            self.cnt_grant.resize(n, 0);
            self.col_terminal.resize(n, false);
        }
    }
}

/// Removes one value from an unordered edge list. Returns whether it was
/// present. O(degree) scan — the lists are tiny at the densities where
/// the sparse path is ever selected.
fn list_remove(list: &mut Vec<u32>, t: u32) -> bool {
    match list.iter().position(|&x| x == t) {
        Some(i) => {
            list.swap_remove(i);
            true
        }
        None => false,
    }
}

/// Adjacency-list encoding of the state matrix, with the same cell
/// semantics as [`StateMatrix`] (a cell is Empty, Request or Grant;
/// writing one kind clears the other) and a terminal reduction that is
/// bit-identical to the dense engine's.
#[derive(Debug, Clone)]
pub struct SparseState {
    m: usize,
    n: usize,
    /// `row_req[s]` = processes with a request edge on resource `s`.
    row_req: Vec<Vec<u32>>,
    /// `row_grant[s]` = processes resource `s` is granted to. A list,
    /// not an option: direct DDU-style cell writes can legally produce
    /// multi-grant rows, and the matrix twin represents them.
    row_grant: Vec<Vec<u32>>,
    /// Dense list of the non-empty rows (the reduction's seed worklist).
    live_rows: Vec<u32>,
    /// `live_pos[s]` = index of row `s` in `live_rows` (`u32::MAX` when
    /// the row is empty); O(1) membership via swap-remove.
    live_pos: Vec<u32>,
    /// Total live edges (requests + grants).
    edges: u64,
    ws: Workspace,
}

impl SparseState {
    /// Creates an empty `resources` × `processes` sparse state.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or does not fit `u32`.
    pub fn new(resources: usize, processes: usize) -> Self {
        assert!(
            resources > 0 && processes > 0,
            "dimensions must be non-zero"
        );
        assert!(
            resources <= u32::MAX as usize && processes <= u32::MAX as usize,
            "dimensions must fit u32 ids"
        );
        SparseState {
            m: resources,
            n: processes,
            row_req: vec![Vec::new(); resources],
            row_grant: vec![Vec::new(); resources],
            live_rows: Vec::new(),
            live_pos: vec![u32::MAX; resources],
            edges: 0,
            ws: Workspace::default(),
        }
    }

    /// Number of resource rows.
    pub fn resources(&self) -> usize {
        self.m
    }

    /// Number of process columns.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Total live edges (requests + grants).
    pub fn live_edges(&self) -> u64 {
        self.edges
    }

    /// `true` if no edge is present.
    pub fn is_empty(&self) -> bool {
        self.edges == 0
    }

    /// Reads cell `(q, p)`.
    pub fn cell(&self, q: usize, p: usize) -> Cell {
        assert!(q < self.m && p < self.n, "cell ({q},{p}) out of range");
        let t = p as u32;
        if self.row_req[q].contains(&t) {
            Cell::Request
        } else if self.row_grant[q].contains(&t) {
            Cell::Grant
        } else {
            Cell::Empty
        }
    }

    /// Sets cell `(q, p)` to a request edge `p → q` (clearing any grant
    /// in that cell, like [`StateMatrix::set_request`]).
    pub fn set_request(&mut self, p: usize, q: usize) {
        self.write(q, p, Cell::Request);
    }

    /// Sets cell `(q, p)` to a grant edge `q → p`.
    pub fn set_grant(&mut self, q: usize, p: usize) {
        self.write(q, p, Cell::Grant);
    }

    /// Clears cell `(q, p)`.
    pub fn clear(&mut self, q: usize, p: usize) {
        self.write(q, p, Cell::Empty);
    }

    /// Applies one journal delta — the hook that keeps the adjacency
    /// mirror current in O(degree) per edge change.
    pub fn apply_delta(&mut self, delta: RagDelta) {
        match delta {
            RagDelta::Request { p, q } => self.set_request(p.index(), q.index()),
            RagDelta::Grant { p, q } => self.set_grant(q.index(), p.index()),
            RagDelta::Clear { p, q } => self.clear(q.index(), p.index()),
        }
    }

    fn write(&mut self, s: usize, t: usize, kind: Cell) {
        assert!(
            s < self.m && t < self.n,
            "cell ({s},{t}) out of {}x{}",
            self.m,
            self.n
        );
        let tt = t as u32;
        // A cell lives in at most one of the two lists, so the scans
        // short-circuit.
        let had = list_remove(&mut self.row_req[s], tt) || list_remove(&mut self.row_grant[s], tt);
        match kind {
            Cell::Request => self.row_req[s].push(tt),
            Cell::Grant => self.row_grant[s].push(tt),
            Cell::Empty => {}
        }
        let has = !matches!(kind, Cell::Empty);
        match (had, has) {
            (false, true) => self.edges += 1,
            (true, false) => self.edges -= 1,
            _ => {}
        }
        let nonempty = !self.row_req[s].is_empty() || !self.row_grant[s].is_empty();
        let tracked = self.live_pos[s] != u32::MAX;
        if nonempty && !tracked {
            self.live_pos[s] = self.live_rows.len() as u32;
            self.live_rows.push(s as u32);
        } else if !nonempty && tracked {
            let i = self.live_pos[s] as usize;
            self.live_pos[s] = u32::MAX;
            self.live_rows.swap_remove(i);
            if let Some(&moved) = self.live_rows.get(i) {
                self.live_pos[moved as usize] = i as u32;
            }
        }
    }

    /// Removes every edge in O(live rows + edges), not O(m).
    pub fn clear_all(&mut self) {
        for &s in &self.live_rows {
            let su = s as usize;
            self.row_req[su].clear();
            self.row_grant[su].clear();
            self.live_pos[su] = u32::MAX;
        }
        self.live_rows.clear();
        self.edges = 0;
    }

    /// Rebuilds from a RAG (the cold path's sparse twin).
    ///
    /// # Panics
    ///
    /// Panics if the RAG does not fit these dimensions.
    pub fn rebuild_from_rag(&mut self, rag: &Rag) {
        assert!(
            rag.resources() <= self.m && rag.processes() <= self.n,
            "RAG {}x{} does not fit sparse state {}x{}",
            rag.resources(),
            rag.processes(),
            self.m,
            self.n
        );
        self.clear_all();
        for qi in 0..rag.resources() {
            let q = ResId(qi as u16);
            if let Some(p) = rag.owner(q) {
                self.set_grant(qi, p.index());
            }
            for &p in rag.requesters(q) {
                self.set_request(p.index(), qi);
            }
        }
    }

    /// Rebuilds from a dense matrix (used when the hybrid engine turns
    /// the sparse mirror on mid-life).
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not fit these dimensions.
    pub fn rebuild_from_matrix(&mut self, mat: &StateMatrix) {
        assert!(
            mat.resources() <= self.m && mat.processes() <= self.n,
            "matrix {}x{} does not fit sparse state {}x{}",
            mat.resources(),
            mat.processes(),
            self.m,
            self.n
        );
        self.clear_all();
        for s in 0..mat.resources() {
            for (w, (&rw, &gw)) in mat.row_r(s).iter().zip(mat.row_g(s)).enumerate() {
                let mut bits = rw;
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    self.set_request(t, s);
                    bits &= bits - 1;
                }
                let mut bits = gw;
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    self.set_grant(s, t);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Runs the terminal reduction on working copies of the live rows,
    /// leaving the state untouched. Returns the same report the dense
    /// [`crate::reduction::reduce_core`] would on the equivalent matrix —
    /// same `iterations`, same `steps`, same completeness.
    pub fn reduce(&mut self) -> ReductionReport {
        self.ws.ensure(self.m, self.n);
        let Workspace {
            row_req: work_req,
            row_grant: work_grant,
            active,
            row_terminal,
            cnt_req,
            cnt_grant,
            col_terminal,
            touched_cols,
        } = &mut self.ws;
        // Image the live rows and build the column reverse index. Both
        // are O(live rows + edges); columns touched here are the only
        // ones any pass can ever flag, and the only ones reset below.
        active.clear();
        active.extend_from_slice(&self.live_rows);
        debug_assert!(touched_cols.is_empty());
        for &s in active.iter() {
            let su = s as usize;
            work_req[su].clone_from(&self.row_req[su]);
            work_grant[su].clone_from(&self.row_grant[su]);
            for &t in &self.row_req[su] {
                let tu = t as usize;
                if cnt_req[tu] == 0 && cnt_grant[tu] == 0 {
                    touched_cols.push(t);
                }
                cnt_req[tu] += 1;
            }
            for &t in &self.row_grant[su] {
                let tu = t as usize;
                if cnt_req[tu] == 0 && cnt_grant[tu] == 0 {
                    touched_cols.push(t);
                }
                cnt_grant[tu] += 1;
            }
        }
        let mut edges = self.edges;
        let mut iterations = 0u32;
        let mut steps = 0u32;
        let complete;
        loop {
            steps += 1;
            let mut any_terminal = false;
            // Terminal rows: requests XOR grants (the dense fused row
            // scan's `ra ^ ga`).
            for &s in active.iter() {
                let su = s as usize;
                let flag = work_req[su].is_empty() != work_grant[su].is_empty();
                row_terminal[su] = flag;
                any_terminal |= flag;
            }
            // Terminal columns: requests XOR grants across live rows
            // (the dense column mask `(col_r ^ col_g) & valid`).
            for &t in touched_cols.iter() {
                let tu = t as usize;
                let flag = (cnt_req[tu] > 0) != (cnt_grant[tu] > 0);
                col_terminal[tu] = flag;
                any_terminal |= flag;
            }
            if !any_terminal {
                // The no-terminal pass is counted in `steps` (the DDU
                // spends a clock raising `T_iter = 0`), and completeness
                // is "no edge survived" — exactly the dense check that
                // every column accumulator is zero.
                complete = edges == 0;
                break;
            }
            iterations += 1;
            // Removal against the same pre-removal snapshot the flags
            // were computed from: terminal rows drop whole rows,
            // non-terminal rows drop only their terminal-column cells.
            for &s in active.iter() {
                let su = s as usize;
                if row_terminal[su] {
                    for &t in &work_req[su] {
                        cnt_req[t as usize] -= 1;
                    }
                    for &t in &work_grant[su] {
                        cnt_grant[t as usize] -= 1;
                    }
                    edges -= (work_req[su].len() + work_grant[su].len()) as u64;
                    work_req[su].clear();
                    work_grant[su].clear();
                } else {
                    let mut removed = 0u64;
                    work_req[su].retain(|&t| {
                        let tu = t as usize;
                        if col_terminal[tu] {
                            cnt_req[tu] -= 1;
                            removed += 1;
                            false
                        } else {
                            true
                        }
                    });
                    work_grant[su].retain(|&t| {
                        let tu = t as usize;
                        if col_terminal[tu] {
                            cnt_grant[tu] -= 1;
                            removed += 1;
                            false
                        } else {
                            true
                        }
                    });
                    edges -= removed;
                }
            }
            active.retain(|&s| {
                let su = s as usize;
                !work_req[su].is_empty() || !work_grant[su].is_empty()
            });
        }
        // Reset the column workspace through the touched list so the
        // next probe starts clean in O(touched), never O(n).
        for &t in touched_cols.iter() {
            let tu = t as usize;
            cnt_req[tu] = 0;
            cnt_grant[tu] = 0;
            col_terminal[tu] = false;
        }
        touched_cols.clear();
        ReductionReport {
            iterations,
            steps,
            complete,
        }
    }

    /// Probe: reduce and convert to a [`DetectOutcome`].
    pub fn detect(&mut self) -> DetectOutcome {
        self.reduce().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::terminal_reduction;
    use crate::{ProcId, Rag};

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

    /// Applies the same random write stream (sets *and* clears) to a
    /// dense matrix and a sparse state.
    fn random_pair(rng: &mut Lcg, m: usize, n: usize, writes: usize) -> (StateMatrix, SparseState) {
        let mut mat = StateMatrix::new(m, n);
        let mut sp = SparseState::new(m, n);
        for _ in 0..writes {
            let s = rng.below(m as u64) as usize;
            let t = rng.below(n as u64) as usize;
            match rng.below(4) {
                0 => {
                    mat.set_grant(ResId(s as u16), ProcId(t as u16));
                    sp.set_grant(s, t);
                }
                1 | 2 => {
                    mat.set_request(ProcId(t as u16), ResId(s as u16));
                    sp.set_request(t, s);
                }
                _ => {
                    mat.clear(ResId(s as u16), ProcId(t as u16));
                    sp.clear(s, t);
                }
            }
        }
        (mat, sp)
    }

    #[test]
    fn cell_semantics_match_state_matrix() {
        for seq in 0..6u64 {
            let mut rng = Lcg::new(0x5EA5 ^ seq);
            let (mat, sp) = random_pair(&mut rng, 96, 80, 700);
            assert_eq!(mat.edge_count() as u64, sp.live_edges(), "seq {seq}");
            for s in 0..96 {
                for t in 0..80 {
                    assert_eq!(
                        mat.cell(ResId(s as u16), ProcId(t as u16)),
                        sp.cell(s, t),
                        "seq {seq} cell ({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_matches_dense_reduction_bit_for_bit() {
        for seq in 0..10u64 {
            let mut rng = Lcg::new(0xD15C ^ seq);
            let writes = 400 + rng.below(600) as usize;
            let (mat, mut sp) = random_pair(&mut rng, 96, 80, writes);
            let mut work = mat.clone();
            let dense = terminal_reduction(&mut work);
            let sparse = sp.reduce();
            assert_eq!(dense, sparse, "seq {seq}: reports diverged");
            // The probe is non-destructive and repeatable.
            assert_eq!(sp.reduce(), sparse, "seq {seq}: second probe diverged");
            assert_eq!(mat.edge_count() as u64, sp.live_edges(), "seq {seq}");
        }
    }

    #[test]
    fn empty_state_reduces_complete_in_one_counted_pass() {
        let mut sp = SparseState::new(64, 64);
        let mut mat = StateMatrix::new(64, 64);
        let dense = terminal_reduction(&mut mat);
        assert_eq!(sp.reduce(), dense);
        assert_eq!(
            sp.reduce(),
            ReductionReport {
                iterations: 0,
                steps: 1,
                complete: true
            }
        );
    }

    #[test]
    fn deadlock_cycle_is_incomplete_and_chain_is_complete() {
        let mut sp = SparseState::new(4, 4);
        sp.set_grant(0, 0);
        sp.set_grant(1, 1);
        sp.set_request(0, 1);
        assert!(!sp.detect().deadlock, "chain must reduce completely");
        sp.set_request(1, 0);
        assert!(sp.detect().deadlock, "2-cycle must survive reduction");
        sp.clear(0, 1);
        assert!(!sp.detect().deadlock, "removing an edge breaks the cycle");
    }

    #[test]
    fn deletions_keep_live_row_tracking_consistent() {
        let mut sp = SparseState::new(8, 8);
        for s in 0..8 {
            sp.set_grant(s, s);
            sp.set_request((s + 1) % 8, s);
        }
        assert_eq!(sp.live_edges(), 16);
        for s in 0..8 {
            sp.clear(s, s);
            sp.clear(s, (s + 1) % 8);
        }
        assert_eq!(sp.live_edges(), 0);
        assert!(sp.is_empty());
        assert_eq!(
            sp.reduce(),
            ReductionReport {
                iterations: 0,
                steps: 1,
                complete: true
            }
        );
        // Overwrites (request over grant and back) keep the count exact.
        sp.set_grant(3, 3);
        sp.set_request(3, 3);
        sp.set_grant(3, 3);
        assert_eq!(sp.live_edges(), 1);
        assert_eq!(sp.cell(3, 3), Cell::Grant);
    }

    #[test]
    fn rebuild_from_rag_and_matrix_agree() {
        let mut rag = Rag::new(6, 6);
        rag.add_grant(ResId(0), ProcId(0)).unwrap();
        rag.add_grant(ResId(1), ProcId(1)).unwrap();
        rag.add_request(ProcId(0), ResId(1)).unwrap();
        rag.add_request(ProcId(2), ResId(0)).unwrap();
        let mat = StateMatrix::from_rag(&rag);
        let mut from_rag = SparseState::new(6, 6);
        from_rag.rebuild_from_rag(&rag);
        let mut from_mat = SparseState::new(6, 6);
        from_mat.rebuild_from_matrix(&mat);
        assert_eq!(from_rag.live_edges(), from_mat.live_edges());
        for s in 0..6 {
            for t in 0..6 {
                assert_eq!(from_rag.cell(s, t), from_mat.cell(s, t), "({s},{t})");
            }
        }
        assert_eq!(from_rag.reduce(), from_mat.reduce());
    }

    #[test]
    fn dimensions_beyond_u16_ids_work() {
        // A graph the dense matrix cannot represent at all: ids beyond
        // u16, dimensions whose bit matrix would be ~2.5 TB.
        let mut sp = SparseState::new(100_000, 100_000);
        sp.set_grant(90_000, 90_001);
        sp.set_grant(90_002, 90_003);
        sp.set_request(90_001, 90_002);
        assert!(!sp.detect().deadlock);
        sp.set_request(90_003, 90_000);
        assert!(sp.detect().deadlock, "high-id 2-cycle must be found");
        sp.clear(90_002, 90_001);
        assert!(!sp.detect().deadlock);
        assert_eq!(sp.live_edges(), 3);
    }

    #[test]
    fn config_gates_are_deterministic_shape_functions() {
        let cfg = SparseConfig::default();
        assert!(!cfg.covers_shape(50 * 50), "paper scale stays dense");
        assert!(!cfg.covers_shape(512 * 512));
        assert!(cfg.covers_shape(1024 * 1024));
        // At 1024²: 4000 edges is within 4‰, 5000 is not.
        assert!(cfg.prefers_sparse(1 << 20, 4000));
        assert!(!cfg.prefers_sparse(1 << 20, 5000));
        assert!(SparseConfig::always().prefers_sparse(1, u64::MAX));
        assert!(!SparseConfig::disabled().prefers_sparse(usize::MAX - 1, 0));
    }
}

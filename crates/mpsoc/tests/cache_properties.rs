//! Seeded randomized check of the L1 cache model against an independent
//! reference (same geometry, recency kept as an explicit MRU list
//! instead of counters).

use deltaos_mpsoc::cache::{CacheAccess, L1Cache};
use rand::{Rng, SeedableRng, StdRng};

/// Reference cache: per set, an MRU-ordered list of tags.
struct RefCache {
    ways: usize,
    line: u32,
    mru: Vec<Vec<u32>>, // front = most recent
}

impl RefCache {
    fn new(size: u32, ways: usize, line: u32) -> Self {
        let sets = (size / line) as usize / ways;
        RefCache {
            ways,
            line,
            mru: vec![Vec::new(); sets],
        }
    }

    fn access(&mut self, addr: u32) -> CacheAccess {
        let lineno = addr / self.line;
        let sets = self.mru.len();
        let tag = lineno / sets as u32;
        let list = &mut self.mru[lineno as usize % sets];
        let hit = list
            .iter()
            .position(|&t| t == tag)
            .map(|pos| list.remove(pos));
        list.insert(0, tag);
        list.truncate(self.ways);
        if hit.is_some() {
            CacheAccess::Hit
        } else {
            CacheAccess::Miss
        }
    }
}

#[test]
fn model_matches_mru_reference() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let geometries = [(1024u32, 2usize, 32u32), (4096, 4, 64), (32768, 8, 32)];
        let (size, ways, line) = geometries[rng.gen_range(0..3usize)];
        let mut model = L1Cache::new(size, ways, line);
        let mut reference = RefCache::new(size, ways, line);
        for _ in 0..rng.gen_range(1..400usize) {
            // Addresses clustered in a small window hit often; the rest
            // of the 256 KiB range forces evictions.
            let a = if rng.gen::<bool>() {
                rng.gen_range(0..2 * size)
            } else {
                rng.gen_range(0..0x40_000)
            };
            let (m, r) = (model.access(a, false), reference.access(a));
            assert_eq!(m, r, "seed {seed}: divergence at address {a:#x}");
        }
    }
}

#[test]
fn small_working_set_never_thrashes() {
    for reps in 1..50u64 {
        let mut c = L1Cache::new(1024, 2, 32);
        // Two lines mapping to the same set (set count = 16).
        for _ in 0..reps {
            c.access(0, false);
            c.access(16 * 32, false);
        }
        let misses = c.stats().counter("cache.misses");
        assert_eq!(misses, 2, "only compulsory misses allowed");
        assert_eq!(c.stats().counter("cache.hits") + misses, 2 * reps);
    }
}

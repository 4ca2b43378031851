//! Seeded randomized checks of the event queue's determinism
//! guarantees, which whole-system determinism rests on.

use deltaos_sim::{EventQueue, SimTime};
use rand::{Rng, SeedableRng, StdRng};

#[test]
fn pops_are_time_sorted_and_fifo_stable() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(1..200usize);
        let mut q = EventQueue::new();
        for i in 0..len {
            q.schedule(SimTime::from_cycles(rng.gen_range(0..50)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                assert!(t >= lt, "seed {seed}: time went backwards");
                assert!(t > lt || id > lid, "seed {seed}: FIFO violated at {t:?}");
            }
            assert_eq!(q.now(), t);
            last = Some((t, id));
        }
        assert!(q.is_empty());
    }
}

#[test]
fn schedule_in_never_pops_before_now() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(1..50usize);
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, usize::MAX);
        let mut popped = 0usize;
        for i in 0..len {
            let before = q.now();
            q.schedule_in(rng.gen_range(1..100), i);
            if i % 3 == 0 {
                if let Some((t, _)) = q.pop() {
                    popped += 1;
                    assert!(t >= before, "seed {seed}: popped {t:?} before {before:?}");
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, len + 1, "seed {seed}");
    }
}

//! Seeded randomized checks of the software allocator against a range
//! oracle, and of the whole kernel on random well-formed workloads
//! across the deadlock policies.

use std::collections::BTreeMap;

use deltaos_core::Priority;
use deltaos_mpsoc::pe::PeId;
use deltaos_mpsoc::platform::PlatformConfig;
use deltaos_rtos::kernel::{Kernel, KernelConfig};
use deltaos_rtos::mem::{AllocOutcome, FitPolicy, SwAllocator, HEADER_BYTES};
use deltaos_rtos::resman::ResPolicy;
use deltaos_rtos::task::{Action, Script};
use deltaos_sim::SimTime;
use rand::{Rng, SeedableRng, SliceRandom, StdRng};

#[test]
fn allocator_respects_ranges_and_coalesces() {
    const BASE: u32 = 0x1000;
    const SIZE: u32 = 128 * 1024;
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = if seed % 2 == 0 {
            FitPolicy::BestFit
        } else {
            FitPolicy::FirstFit
        };
        let mut h = SwAllocator::new(BASE, SIZE, policy);
        // Oracle: user address -> requested size.
        let mut live: BTreeMap<u32, u32> = BTreeMap::new();
        for _ in 0..rng.gen_range(0..120usize) {
            if rng.gen::<bool>() {
                let bytes = rng.gen_range(1..4_000u32);
                if let AllocOutcome::Ok { addr, .. } = h.malloc(bytes) {
                    // Inside the heap, leaving room for the header, and
                    // clear of both neighbours.
                    assert!(addr >= BASE + HEADER_BYTES && addr + bytes <= BASE + SIZE);
                    if let Some((&pa, &ps)) = live.range(..=addr).next_back() {
                        assert!(
                            pa + ps <= addr - HEADER_BYTES,
                            "seed {seed}: overlaps {pa:#x}"
                        );
                    }
                    if let Some((&na, _)) = live.range(addr..).next() {
                        assert!(
                            addr + bytes <= na - HEADER_BYTES,
                            "seed {seed}: overlaps {na:#x}"
                        );
                    }
                    live.insert(addr, bytes);
                }
            } else if !live.is_empty() {
                let key = *live.keys().nth(rng.gen_range(0..live.len())).unwrap();
                live.remove(&key);
                h.free(key);
            }
            assert_eq!(h.live_count(), live.len(), "seed {seed}");
        }
        for &key in live.keys() {
            h.free(key);
        }
        assert_eq!(
            h.free_bytes(),
            SIZE,
            "seed {seed}: heap must be whole again"
        );
        assert_eq!(h.hole_count(), 1, "seed {seed}: full coalescing");
    }
}

#[test]
fn fit_policies_agree_on_feasibility_when_ample() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut first = SwAllocator::new(0, 1 << 20, FitPolicy::FirstFit);
        let mut best = SwAllocator::new(0, 1 << 20, FitPolicy::BestFit);
        for _ in 0..rng.gen_range(0..40usize) {
            let s = rng.gen_range(1..2_000u32);
            assert!(
                matches!(first.malloc(s), AllocOutcome::Ok { .. }),
                "seed {seed}"
            );
            assert!(
                matches!(best.malloc(s), AllocOutcome::Ok { .. }),
                "seed {seed}"
            );
        }
    }
}

/// A random workload of 1..=`max_tasks` tasks. Each takes one to three
/// of five resources, nested and in shuffled order so acquisition
/// orders can cross between tasks, computes between acquisitions, and
/// releases in reverse order.
fn workload(seed: u64, max_tasks: usize) -> Vec<(Vec<usize>, Vec<u64>, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rng.gen_range(1..=max_tasks))
        .map(|_| {
            let mut resources: Vec<usize> = (0..5).filter(|_| rng.gen::<bool>()).collect();
            if resources.is_empty() {
                resources.push(rng.gen_range(0..5));
            }
            resources.shuffle(&mut rng);
            resources.truncate(3);
            let computes = (0..4).map(|_| rng.gen_range(100..3_000)).collect();
            (resources, computes, rng.gen_range(0..4_000))
        })
        .collect()
}

fn build(specs: &[(Vec<usize>, Vec<u64>, u64)], policy: ResPolicy, recover: bool) -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        platform: PlatformConfig::small(),
        res_policy: policy,
        recover_on_deadlock: recover,
        halt_on_deadlock: !recover,
        ..Default::default()
    });
    for (i, (resources, computes, start)) in specs.iter().enumerate() {
        let mut actions = Vec::new();
        for (j, &r) in resources.iter().enumerate() {
            actions.push(Action::Compute(computes[j % computes.len()]));
            actions.push(Action::Request(r));
        }
        actions.push(Action::Compute(computes[resources.len() % computes.len()]));
        for &r in resources.iter().rev() {
            actions.push(Action::Release(r));
        }
        actions.push(Action::End);
        k.spawn(
            format!("t{i}"),
            PeId((i % 4) as u8),
            Priority::new(i as u8 + 1),
            SimTime::from_cycles(*start),
            Box::new(Script::new(actions)),
        );
    }
    k
}

#[test]
fn deadlock_policies_complete_or_diagnose_every_workload() {
    let mut deadlocked = 0;
    for seed in 0..48 {
        let specs = workload(seed, 4);
        // The paper's core promise: under avoidance (software or
        // hardware), every workload completes — no deadlock, no livelock.
        for policy in [ResPolicy::AvoidSw, ResPolicy::AvoidHw] {
            let r = build(&specs, policy, false).run(Some(50_000_000));
            assert!(
                r.all_finished,
                "seed {seed}: {policy:?} left tasks stuck: {r:?}"
            );
            assert_eq!(r.deadlock_at, None, "seed {seed}");
        }
        // Detection either completes or flags the deadlock, never hangs
        // silently, and hardware and software detection agree on it.
        let hw = build(&specs, ResPolicy::DetectHw, false).run(Some(50_000_000));
        let sw = build(&specs, ResPolicy::DetectSw, false).run(Some(50_000_000));
        assert!(
            hw.all_finished || hw.deadlock_at.is_some(),
            "seed {seed}: {hw:?}"
        );
        assert_eq!(
            hw.deadlock_at.is_some(),
            sw.deadlock_at.is_some(),
            "seed {seed}"
        );
        deadlocked += usize::from(hw.deadlock_at.is_some());
        // Detect-and-recover completes every workload, like avoidance.
        let rec = build(&specs, ResPolicy::DetectHw, true).run(Some(100_000_000));
        assert!(
            rec.all_finished,
            "seed {seed}: recovery left tasks stuck: {rec:?}"
        );
    }
    assert!(
        deadlocked > 0,
        "no workload deadlocked: the checks above were vacuous"
    );
}

#[test]
fn kernel_runs_are_deterministic() {
    for seed in 0..48 {
        let specs = workload(seed, 3);
        let once = || {
            let r = build(&specs, ResPolicy::AvoidHw, false).run(Some(50_000_000));
            (r.app_time(), r.finished.clone(), r.deadlock_at)
        };
        assert_eq!(once(), once(), "seed {seed}");
    }
}

#[test]
fn compute_is_conserved_on_a_single_pe() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let computes: Vec<u64> = (0..rng.gen_range(1..=5))
            .map(|_| rng.gen_range(200..5_000))
            .collect();
        let mut k = Kernel::new(KernelConfig {
            platform: PlatformConfig::small(),
            res_policy: ResPolicy::NoDeadlockSupport,
            ..Default::default()
        });
        for (i, &c) in computes.iter().enumerate() {
            k.spawn(
                format!("t{i}"),
                PeId(0),
                Priority::new(i as u8 + 1),
                SimTime::ZERO,
                Box::new(Script::new(vec![Action::Compute(c), Action::End])),
            );
        }
        let r = k.run(None);
        assert!(r.all_finished, "seed {seed}");
        let total: u64 = computes.iter().sum();
        // Overhead: one dispatch (context switch) per task + slack.
        let bound = total + computes.len() as u64 * 500 + 500;
        let app = r.app_time().cycles();
        assert!(
            (total..=bound).contains(&app),
            "seed {seed}: app {app} outside {total}..={bound}"
        );
    }
}

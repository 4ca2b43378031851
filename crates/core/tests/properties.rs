//! Seeded randomized checks of the paper's central claims:
//!
//! * PDDA detects deadlock **iff** the RAG contains a cycle (the theorem
//!   of the paper's technical report, tested against the DFS oracle and
//!   Leibfried's matrix-power detector).
//! * The step count respects the O(min(m, n)) bound, and the reduction
//!   is idempotent at its fixpoint.
//! * The metered software PDDA and the word-parallel PDDA are
//!   decision-identical.
//! * The DAU and the software DAA make identical decisions on identical
//!   command streams (they share Algorithm 3, differing only in cost).
//! * Under the avoider the state never becomes cyclic, parked requests
//!   always carry a give-up ask and drain once the asks are honored,
//!   and releases never skip a grantable higher-priority waiter.
//!
//! Every case derives from a fixed seed, so a failure replays exactly.

use deltaos_core::avoid::{Avoider, FastProbe, ReleaseOutcome, RequestOutcome};
use deltaos_core::cost::Meter;
use deltaos_core::daa::SwDaa;
use deltaos_core::dau::{Command, Dau};
use deltaos_core::matrix::StateMatrix;
use deltaos_core::reduction::{step_bound, terminal_reduction};
use deltaos_core::{pdda, Priority, ProcId, Rag, ResId};
use rand::{Rng, SeedableRng, StdRng};

const CASES: u64 = 256;

/// A valid single-unit RAG with up to 8 resources / 8 processes: each
/// resource has an owner with probability ½ and each other process
/// requests it with probability ½.
fn random_rag(rng: &mut StdRng) -> Rag {
    let m = rng.gen_range(1..=8usize);
    let n = rng.gen_range(1..=8usize);
    let mut rag = Rag::new(m, n);
    for qi in 0..m {
        let q = ResId(qi as u16);
        let owner = rng.gen::<bool>().then(|| rng.gen_range(0..n));
        if let Some(p) = owner {
            rag.add_grant(q, ProcId(p as u16)).unwrap();
        }
        for pi in 0..n {
            if rng.gen::<bool>() && owner != Some(pi) {
                rag.add_request(ProcId(pi as u16), q).unwrap();
            }
        }
    }
    rag
}

#[test]
fn detection_matches_the_cycle_oracles_and_bounds() {
    for seed in 0..CASES {
        let rag = random_rag(&mut StdRng::seed_from_u64(seed));
        let outcome = pdda::detect(&rag);
        assert_eq!(outcome.deadlock, rag.has_cycle(), "seed {seed}:\n{rag}");
        let lb = deltaos_core::baselines::leibfried_detect(&rag);
        assert_eq!(lb, rag.has_cycle(), "seed {seed}: Leibfried vs DFS");
        let (m, n) = (rag.resources(), rag.processes());
        assert!(
            outcome.steps <= step_bound(m, n),
            "seed {seed}: {outcome:?}"
        );

        let mut meter = Meter::new();
        let sw = pdda::detect_metered(&rag, &mut meter);
        assert_eq!(sw, outcome, "seed {seed}: metered vs word-parallel");
        // A software pass always touches every cell at least once.
        assert!(meter.shared_loads >= (m * n) as u64, "seed {seed}");

        let mut matrix = StateMatrix::from_rag(&rag);
        let r = terminal_reduction(&mut matrix);
        assert_eq!(r.complete, !rag.has_cycle(), "seed {seed}");
        assert_eq!(r.complete, matrix.is_empty(), "seed {seed}");
        let fixpoint = matrix.clone();
        assert_eq!(terminal_reduction(&mut matrix).iterations, 0, "seed {seed}");
        assert_eq!(matrix, fixpoint, "seed {seed}: fixpoint moved");
    }
}

/// A random command against a 5×5 system.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Req(ProcId, ResId),
    Rel(ProcId, ResId),
}

fn random_cmds(seed: u64) -> Vec<Cmd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..60usize);
    (0..len)
        .map(|_| {
            let (p, q) = (ProcId(rng.gen_range(0..5)), ResId(rng.gen_range(0..5)));
            if rng.gen::<bool>() {
                Cmd::Req(p, q)
            } else {
                Cmd::Rel(p, q)
            }
        })
        .collect()
}

/// A 5×5 avoider with priorities `i + 1` (process 0 highest).
fn avoider() -> Avoider {
    let mut av = Avoider::new(5, 5);
    for i in 0..5 {
        av.set_priority(ProcId(i), Priority::new(i as u8 + 1));
    }
    av
}

#[test]
fn dau_and_swdaa_decide_identically() {
    for seed in 0..CASES {
        let mut hw = Dau::new(5, 5);
        let mut sw = SwDaa::new(5, 5);
        for i in 0..5 {
            hw.set_priority(ProcId(i), Priority::new(i as u8 + 1));
            sw.set_priority(ProcId(i), Priority::new(i as u8 + 1));
        }
        // Table 2's worst case plus one recheck slack per command.
        let bound = hw.worst_case_steps() + 2 * u64::from(step_bound(5, 5));
        for cmd in random_cmds(seed) {
            let (a, same) = match cmd {
                Cmd::Req(process, resource) => {
                    let a = hw.execute(Command::Request { process, resource });
                    let same = match (&a, sw.request(process, resource)) {
                        (Ok(ar), Ok(br)) => {
                            ar.status.successful == br.outcome.is_granted()
                                && ar.status.rdl == br.outcome.is_rdl()
                        }
                        (Err(ae), Err(be)) => *ae == be,
                        _ => false,
                    };
                    (a, same)
                }
                Cmd::Rel(process, resource) => {
                    let a = hw.execute(Command::Release { process, resource });
                    let same = match (&a, sw.release(process, resource)) {
                        (Ok(ar), Ok(br)) => {
                            ar.status.gdl == br.outcome.is_gdl()
                                && ar.status.granted_to.is_some()
                                    == matches!(br.outcome, ReleaseOutcome::GrantedTo { .. })
                        }
                        (Err(ae), Err(be)) => *ae == be,
                        _ => false,
                    };
                    (a, same)
                }
            };
            assert!(same, "seed {seed}: DAU and DAA diverged on {cmd:?}");
            if let Ok(rep) = a {
                assert!(
                    rep.cycles <= bound,
                    "seed {seed}: {cmd:?} cost {}",
                    rep.cycles
                );
            }
        }
        assert_eq!(
            hw.rag(),
            sw.rag(),
            "seed {seed}: states must track identically"
        );
    }
}

use Cmd::{Rel, Req};

/// Two streams that once broke the avoider's drain property, kept as
/// fixed regression cases.
const REGRESSIONS: &[&[Cmd]] = &[
    &[
        Req(ProcId(1), ResId(2)),
        Req(ProcId(4), ResId(4)),
        Req(ProcId(0), ResId(2)),
        Req(ProcId(0), ResId(3)),
        Req(ProcId(3), ResId(0)),
        Req(ProcId(2), ResId(1)),
        Req(ProcId(2), ResId(4)),
        Req(ProcId(0), ResId(0)),
        Req(ProcId(3), ResId(3)),
        Req(ProcId(1), ResId(3)),
        Rel(ProcId(0), ResId(0)),
        Rel(ProcId(0), ResId(0)),
        Req(ProcId(2), ResId(0)),
    ],
    &[
        Rel(ProcId(0), ResId(0)),
        Req(ProcId(2), ResId(1)),
        Rel(ProcId(0), ResId(0)),
        Rel(ProcId(0), ResId(0)),
        Rel(ProcId(0), ResId(0)),
        Req(ProcId(0), ResId(3)),
        Req(ProcId(3), ResId(1)),
        Rel(ProcId(1), ResId(0)),
        Req(ProcId(4), ResId(1)),
        Req(ProcId(3), ResId(0)),
        Rel(ProcId(0), ResId(0)),
        Req(ProcId(2), ResId(0)),
        Req(ProcId(3), ResId(3)),
        Rel(ProcId(0), ResId(3)),
        Rel(ProcId(2), ResId(1)),
        Req(ProcId(4), ResId(3)),
    ],
];

#[test]
fn avoider_stays_acyclic_and_grants_by_priority() {
    let regressions = REGRESSIONS.iter().map(|stream| stream.to_vec());
    for (case, cmds) in (0..CASES).map(random_cmds).chain(regressions).enumerate() {
        let mut av = avoider();
        for cmd in cmds {
            match cmd {
                Cmd::Req(p, q) => {
                    let _ = av.request(p, q, &mut FastProbe);
                }
                Cmd::Rel(p, q) => {
                    if let Ok(ReleaseOutcome::GrantedTo {
                        process,
                        bypassed_gdl,
                    }) = av.release(p, q, &mut FastProbe)
                    {
                        // Only a higher- (or equal-) priority waiter may
                        // be skipped, and only to dodge G-dl.
                        for b in bypassed_gdl {
                            let (pb, pp) = (av.priority(b), av.priority(process));
                            assert!(
                                pb.is_higher_than(pp) || pb == pp,
                                "case {case}: bypassed waiter {b} was not higher priority"
                            );
                        }
                    }
                }
            }
            // Definition 3: deadlock can never be reached.
            assert!(!pdda::detect(av.rag()).deadlock, "case {case}: {cmd:?}");
            if !av.parked_requests().is_empty() {
                assert!(
                    !av.outstanding_giveups().is_empty(),
                    "case {case}: parked request with no give-up ask outstanding"
                );
            }
        }
        // Honor asks until no parked request remains: each honored
        // release either serves a parked request or issues further asks.
        let mut rounds = 0;
        while !av.parked_requests().is_empty() {
            rounds += 1;
            assert!(rounds < 200, "case {case}: parked requests failed to drain");
            let asks = av.outstanding_giveups().to_vec();
            assert!(!asks.is_empty(), "case {case}: parked but nobody asked");
            let mut released_any = false;
            for ask in asks {
                for q in ask.resources {
                    if av.rag().owner(q) == Some(ask.target) {
                        let _ = av.release(ask.target, q, &mut FastProbe);
                        released_any = true;
                    }
                }
            }
            if !released_any {
                // Stale asks (target no longer owns): release everything
                // every asked target holds.
                let targets: Vec<_> = av.outstanding_giveups().iter().map(|a| a.target).collect();
                for t in targets {
                    for q in av.rag().held_by(t) {
                        let _ = av.release(t, q, &mut FastProbe);
                    }
                }
            }
        }
    }
}

#[test]
fn free_resources_are_always_granted() {
    for p in 0..5 {
        for q in 0..5 {
            let out = avoider().request(ProcId(p), ResId(q), &mut FastProbe);
            assert_eq!(out.unwrap(), RequestOutcome::Granted, "p{p} q{q}");
        }
    }
}

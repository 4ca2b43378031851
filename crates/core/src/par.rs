//! Host sizing and thread placement.
//!
//! The paper's DDU evaluates every matrix cell in the same clock; in
//! software the reduction is serial (`crate::reduction`), and the
//! service gets its parallelism one level up, from one pinned runtime
//! loop per CPU. This module holds the two host facts that layer needs:
//! how many CPUs the process may use ([`host_cpus`]) and a best-effort
//! way to pin a thread to one of them ([`pin_current_thread`]).

/// Number of CPUs the host reports, with a floor of 1 when the query
/// fails. The single source for every auto-sizing decision (runtime
/// loop counts, bench gates that arm only on wide hosts), so a
/// cgroup/affinity-limited host is respected consistently.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-effort round-robin CPU-affinity hint: pins the calling thread to
/// `cpu % host_cpus()`. Returns `true` if the kernel accepted the mask.
///
/// Linux-only (`sched_setaffinity` on the current thread); on other
/// platforms this is a no-op returning `false`. A hint, not a
/// guarantee — callers must behave identically whether or not the pin
/// took effect (it only shifts *where* threads run, never *what* they
/// compute, so the determinism contract is untouched).
pub fn pin_current_thread(cpu: usize) -> bool {
    affinity::pin(cpu % host_cpus())
}

#[cfg(target_os = "linux")]
mod affinity {
    /// One `cpu_set_t` worth of mask words (1024 bits, glibc's default).
    const MASK_WORDS: usize = 1024 / (8 * std::mem::size_of::<usize>());

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const usize) -> i32;
    }

    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0usize; MASK_WORDS];
        let bits = 8 * std::mem::size_of::<usize>();
        if cpu / bits >= MASK_WORDS {
            return false;
        }
        mask[cpu / bits] |= 1usize << (cpu % bits);
        // pid 0 = the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

/// Placeholder kept only so `Broker::new`'s five-parameter signature,
/// which the wire benchmark in `wirebench/` calls, still compiles. It
/// carries no settings: every reduction is serial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_has_at_least_one_cpu_and_pinning_is_a_hint() {
        assert!(host_cpus() >= 1);
        // Whether or not the affinity syscall succeeds, out-of-range CPUs
        // wrap via the modulo rather than erroring.
        let _ = pin_current_thread(usize::MAX);
    }
}

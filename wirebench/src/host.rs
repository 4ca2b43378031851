//! Host descriptor and the process gauges read at window edges, all
//! from `/proc` and `getrusage` (Linux).

use std::fs;
use std::path::Path;

/// Where the run happened: printed with every result, so a number is
/// never read apart from the machine that produced it.
pub struct Host {
    pub cpus: usize,
    pub model: String,
    pub kernel: String,
}

impl Host {
    pub fn describe() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or("unknown", |(_, m)| m.trim())
            .to_string();
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            model,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |k| k.trim().to_string()),
        }
    }
}

/// File-system type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // id parent major:minor root mount-point opts... - fstype source
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Cumulative `(steal, total)` jiffies over all CPUs from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let total = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU of the whole process, in microseconds.
fn process_cpu_us() -> u64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (`RUSAGE_SELF` = 0 fills exactly that struct), and
    // the call keeps no pointer past its return.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
    );
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    us(&ru.utime) + us(&ru.stime)
}

/// Bytes this process caused to be written to storage (`write_bytes`
/// in `/proc/self/io`): the WAL and checkpoints, since nothing else in
/// the benchmark writes files.
fn storage_write_bytes() -> u64 {
    fs::read_to_string("/proc/self/io")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The `/proc` schedstat file of the first thread named `name`.
pub fn thread_schedstat(name: &str) -> Option<String> {
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        if fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.trim() == name) {
            return Some(dir.join("schedstat").to_string_lossy().into_owned());
        }
    }
    None
}

/// Nanoseconds a thread has spent on a CPU (first schedstat field).
fn thread_cpu_ns(schedstat: &str) -> u64 {
    fs::read_to_string(schedstat)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Process-level gauges read at a window edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    pub cpu_us: u64,
    pub steal: u64,
    pub jiffies: u64,
    pub write_bytes: u64,
    pub loop_cpu_ns: u64,
    /// CPU of the calling thread, the client, which generates, mirrors
    /// and digests; subtracted from the process's to leave the server's.
    pub client_cpu_ns: u64,
}

impl Gauges {
    /// Reads every gauge on the client thread; `loop_stat` is the
    /// server loop's schedstat.
    pub fn read(loop_stat: &str) -> Gauges {
        let (steal, jiffies) = cpu_jiffies();
        Gauges {
            cpu_us: process_cpu_us(),
            steal,
            jiffies,
            write_bytes: storage_write_bytes(),
            loop_cpu_ns: thread_cpu_ns(loop_stat),
            client_cpu_ns: thread_cpu_ns("/proc/thread-self/schedstat"),
        }
    }

    /// CPU the server's threads used between `self` and `later`, in
    /// microseconds: the process's minus the client thread's.
    pub fn server_cpu_us(&self, later: &Gauges) -> f64 {
        let process_ns = later.cpu_us.saturating_sub(self.cpu_us) as f64 * 1e3;
        let client_ns = later.client_cpu_ns.saturating_sub(self.client_cpu_ns) as f64;
        (process_ns - client_ns) / 1e3
    }

    /// Steal time between `self` and `later`, in percent of all CPU time.
    pub fn steal_pct(&self, later: &Gauges) -> f64 {
        let total = later.jiffies.saturating_sub(self.jiffies);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// One `cpu_set_t` worth of mask words (1024 bits, glibc's default).
const MASK_WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to CPU `cpu % cpus`; threads it spawns
/// afterwards inherit the pin. Best effort: returns whether the kernel
/// accepted the mask.
pub fn pin_current_thread(cpu: usize, cpus: usize) -> bool {
    let cpu = cpu % cpus.max(1);
    let mut mask = [0u64; MASK_WORDS];
    if cpu / 64 >= MASK_WORDS {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)`
    // bytes, which the kernel only reads; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

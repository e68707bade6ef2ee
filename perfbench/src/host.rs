//! Host readings taken around a run: CPU steal and load average (so a
//! noisy run can be told from a slow program), this process's memory
//! high-water mark and thread count, all from `/proc`, and the CPU time of
//! this process and of the calling thread, from the C library's CPU-time
//! clocks. On a system without them every reading is 0.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the current totals.
    fn now() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        Self {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time the hypervisor stole between `self` and `later`.
    fn steal_share_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        let steal = later.steal.saturating_sub(self.steal);
        crate::stats::ratio(steal as f64, total as f64)
    }
}

/// One-minute load average.
fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A `kB` field of `/proc/self/status`, in kB.
fn status_kb(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Threads in this process right now.
pub fn threads() -> u64 {
    status_kb("Threads:")
}

/// User plus system CPU time of this process (all threads, those that have
/// exited included), seconds. The kernel does not charge time the
/// hypervisor stole from a vCPU to it.
pub fn process_cpu_s() -> f64 {
    cpu_clock::read_s(cpu_clock::PROCESS)
}

/// User plus system CPU time of the calling thread, seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock::read_s(cpu_clock::THREAD)
}

/// The C library's CPU-time clocks, which count in nanoseconds; `/proc`
/// reports CPU time only in 10 ms ticks, too coarse for a 40 ms set-up.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    /// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    /// Reads `clock` in seconds; 0 if the call fails.
    pub fn read_s(clock: i32) -> f64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable `timespec` for the whole call,
        // and `clock_gettime` writes nothing else.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        if rc == 0 {
            ts.sec as f64 + ts.nsec as f64 * 1e-9
        } else {
            0.0
        }
    }
}

/// Elsewhere every CPU-time reading is 0, which fails the run.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cpu_clock {
    pub const PROCESS: i32 = 0;
    pub const THREAD: i32 = 0;

    pub fn read_s(_clock: i32) -> f64 {
        0.0
    }
}

/// Host noise and thread counts over one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// Share of CPU time stolen by the hypervisor during the run.
    pub steal_share: f64,
    /// One-minute load average before the run.
    pub load_before: f64,
    /// One-minute load average after the run.
    pub load_after: f64,
}

/// Start of a [`Noise`] reading.
pub struct NoiseProbe {
    cpu: CpuTimes,
    load: f64,
}

impl NoiseProbe {
    /// Takes the "before" readings.
    pub fn start() -> Self {
        Self {
            cpu: CpuTimes::now(),
            load: loadavg_1m(),
        }
    }

    /// Takes the "after" readings.
    pub fn finish(&self) -> Noise {
        Noise {
            steal_share: self.cpu.steal_share_until(&CpuTimes::now()),
            load_before: self.load,
            load_after: loadavg_1m(),
        }
    }
}

//! Host measurement helpers: process CPU time, peak RSS, per-call timers
//! and order statistics.

use std::collections::BTreeMap;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads, including
/// ones that have already exited), in seconds, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Accumulated host time and call count of one timed layer entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    /// Summed elapsed nanoseconds, timer overhead included.
    pub ns: u128,
    /// Calls timed.
    pub calls: u64,
}

impl Timer {
    /// Times one call of `f`.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        r
    }

    /// Adds `calls` calls that together took `ns`.
    pub fn add(&mut self, ns: u128, calls: u64) {
        self.ns += ns;
        self.calls += calls;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    fn merge(&mut self, o: &Timer) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

/// Named timers and exact counters collected by the layer replays.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Timed entry points by metric stem (`cache.access`).
    pub timers: BTreeMap<&'static str, Timer>,
    /// Exact work counts by name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// The timer for `name`, created on first use.
    pub fn timer(&mut self, name: &'static str) -> &mut Timer {
        self.timers.entry(name).or_default()
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The counter `name` (0 when never counted).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, o: &Tally) {
        for (k, t) in &o.timers {
            self.timers.entry(k).or_default().merge(t);
        }
        for (k, c) in &o.counts {
            *self.counts.entry(k).or_default() += c;
        }
    }
}

/// Median cost of one empty `Instant` pair — the fixed overhead included
/// in every per-call timing.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_time_is_monotonic_and_rss_is_positive() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(process_cpu_s() >= a);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

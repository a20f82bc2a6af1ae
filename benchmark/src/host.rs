//! The host ledger's raw readings: process CPU time and context switches
//! (`getrusage`), peak resident set (`VmHWM`) and the CPU set the process
//! may run on. Linux only, like the `/proc` files it reads.

use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Process-wide CPU accounting at one instant. Covers every thread the
/// process has ever run, which matters here: the sim kernel gives each
/// simulated actor its own short-lived OS thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    pub user: Duration,
    pub sys: Duration,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // 64-bit Linux defines (checked by `rusage_reads_sane_values`), and
        // RUSAGE_SELF (0) is a valid `who`; getrusage writes only into it.
        let rc = unsafe { getrusage(0, &mut raw) };
        if rc != 0 {
            return Rusage::default();
        }
        let tv = |s: i64, us: i64| Duration::new(s.max(0) as u64, (us.max(0) as u32) * 1000);
        Rusage {
            user: tv(raw.utime_sec, raw.utime_usec),
            sys: tv(raw.stime_sec, raw.stime_usec),
            ctx_switches: (raw.nvcsw.max(0) + raw.nivcsw.max(0)) as u64,
        }
    }

    /// What accrued since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), zero if unreadable.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1` or
/// `3`), expanded. Empty if unreadable.
pub fn allowed_cpus() -> Vec<u32> {
    status_field("Cpus_allowed_list")
        .map(|list| parse_cpu_list(&list))
        .unwrap_or_default()
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<u32>(), hi.parse::<u32>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_reads_sane_values() {
        let before = Rusage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let spent = Rusage::now().since(&before);
        assert!(spent.user > Duration::ZERO, "a busy loop burns user time");
        assert!(spent.user < Duration::from_secs(60));
        assert!(spent.sys < Duration::from_secs(60));
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert!(!allowed_cpus().is_empty());
    }
}

//! Host-noise record and process memory, read from `/proc`, and the
//! pinning of the benchmark process to one CPU.
//!
//! These are diagnostics printed beside every run's metrics so a spread
//! between runs can be traced to the host (hypervisor steal, preemption).
//! They never decide whether a sample is kept. Every reader degrades to
//! `None` ("unavailable") on a missing file or an unexpected format.

use std::fs;

/// Kernel clock ticks per second in `/proc/stat` and `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// One reading of the host-noise counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostSample {
    /// Machine-wide steal time in seconds (aggregate `cpu` line).
    pub steal_s: Option<f64>,
    /// This process's user + system CPU seconds.
    pub cpu_s: Option<f64>,
    /// Involuntary context switches summed over this process's live
    /// threads.
    pub invol_ctx: Option<u64>,
}

impl HostSample {
    /// Read all counters now.
    pub fn now() -> Self {
        Self {
            steal_s: read("/proc/stat")
                .and_then(|s| parse_steal_ticks(&s))
                .map(|t| t as f64 / USER_HZ),
            cpu_s: read("/proc/self/stat")
                .and_then(|s| parse_cpu_ticks(&s))
                .map(|t| t as f64 / USER_HZ),
            invol_ctx: involuntary_switches(),
        }
    }

    /// Counter growth from `start` to `self`; unavailable when either
    /// side is.
    pub fn since(&self, start: &HostSample) -> HostSample {
        HostSample {
            steal_s: self.steal_s.zip(start.steal_s).map(|(a, b)| a - b),
            cpu_s: self.cpu_s.zip(start.cpu_s).map(|(a, b)| a - b),
            invol_ctx: self
                .invol_ctx
                .zip(start.invol_ctx)
                .map(|(a, b)| a.saturating_sub(b)),
        }
    }

    /// One JSON object, `null` for unavailable fields.
    pub fn to_json(self) -> String {
        fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
            v.map_or_else(|| "null".to_string(), |v| v.to_string())
        }
        format!(
            "{{\"steal_s\": {}, \"process_cpu_s\": {}, \"involuntary_ctx_switches\": {}}}",
            opt(self.steal_s),
            opt(self.cpu_s),
            opt(self.invol_ctx)
        )
    }
}

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

/// Steal ticks from the aggregate `cpu` line of `/proc/stat` (the eighth
/// counter: user nice system idle iowait irq softirq steal).
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some("cpu"))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// utime + stime ticks from `/proc/<pid>/stat`. The command name may hold
/// spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_cpu_ticks(pid_stat: &str) -> Option<u64> {
    let rest = &pid_stat[pid_stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After ')' come fields 3.. of proc(5): utime is 14, stime is 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:\t<number>[ kB]` field of a `/proc/<pid>/status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

fn involuntary_switches() -> Option<u64> {
    let mut total = 0u64;
    let mut any = false;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        let path = entry.path().join("status");
        let Some(status) = path.to_str().and_then(read) else {
            continue;
        };
        if let Some(n) = parse_status_field(&status, "nonvoluntary_ctxt_switches") {
            total += n;
            any = true;
        }
    }
    any.then_some(total)
}

/// `cpu_set_t` of glibc: 1024 CPU bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The highest-numbered CPU set in an affinity mask.
pub fn last_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// Pin the calling thread, and every thread it starts afterwards, to one
/// CPU: the highest-numbered one it may run on (CPU 0 usually also
/// serves device interrupts). Returns that CPU, or `None` when the
/// affinity cannot be read or set (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // layout glibc's `cpu_set_t` has; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = last_cpu(&mask)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, and `one` is only read.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_status_field(&read("/proc/self/status")?, "VmHWM")?;
    Some(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_highest_cpu_of_a_mask() {
        assert_eq!(last_cpu(&[0b11, 0]), Some(1));
        assert_eq!(last_cpu(&[1, 1 << 3]), Some(67));
        assert_eq!(last_cpu(&[0, 0]), None);
    }

    #[test]
    fn parses_steal_from_the_aggregate_cpu_line() {
        let s = "cpu  10 0 20 300 4 0 1 77 0 0\ncpu0 5 0 10 150 2 0 1 40 0 0\n";
        assert_eq!(parse_steal_ticks(s), Some(77));
    }

    #[test]
    fn parses_cpu_ticks_past_a_hostile_command_name() {
        let s = "42 (a) b (c) R 1 42 42 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 3 0 9 1 2";
        assert_eq!(parse_cpu_ticks(s), Some(281));
    }

    #[test]
    fn parses_status_fields() {
        let s = "Name:\tx\nVmHWM:\t   20480 kB\nnonvoluntary_ctxt_switches:\t12\n";
        assert_eq!(parse_status_field(s, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(s, "nonvoluntary_ctxt_switches"),
            Some(12)
        );
        assert_eq!(parse_status_field(s, "voluntary_ctxt_switches"), None);
    }

    #[test]
    fn malformed_input_is_unavailable_not_a_panic() {
        for s in [
            "",
            "cpu",
            "cpu  1 2 x",
            "intr 5\n",
            "\u{0}\u{ff}",
            "cpu  1 2 3 4 5 6 7",
        ] {
            assert_eq!(parse_steal_ticks(s), None, "{s:?}");
        }
        for s in [
            "",
            "42 (x",
            "42 (x) R 1 2",
            "42 (x) R 1 2 3 4 5 6 7 8 9 10 y 3",
            ")",
        ] {
            assert_eq!(parse_cpu_ticks(s), None, "{s:?}");
        }
        for s in ["", "VmHWM", "VmHWM:", "VmHWM:\tlots kB", ":::"] {
            assert_eq!(parse_status_field(s, "VmHWM"), None, "{s:?}");
        }
        let none = HostSample::default();
        assert_eq!(HostSample::now().since(&none), none);
        assert!(none.to_json().contains("\"steal_s\": null"));
    }
}

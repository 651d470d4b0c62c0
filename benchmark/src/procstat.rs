//! Process CPU time and peak memory from `/proc/self`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI the
/// toolchain targets, and reading it properly needs `sysconf`, which
/// the standard library does not expose.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After `comm`: state is field 3, so utime (14) and stime (15)
    // are the 12th and 13th whitespace-separated tokens of `rest`.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn peak_rss_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut tokens = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: f64 = tokens.next()?.parse().ok()?;
    (tokens.next()? == "kB").then_some(kib / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mib_from_status(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_with_hostile_comm() {
        // comm = "a) b (c" — spaces and parentheses inside the name.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(cpu_seconds_from_stat(stat), Some(3.0));
    }

    #[test]
    fn stat_plain() {
        let stat = "1 (mdm-benchmark) R 0 1 1 0 -1 0 0 0 0 0 7 5 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(cpu_seconds_from_stat(stat), Some(0.12));
        assert_eq!(cpu_seconds_from_stat("garbage"), None);
        assert_eq!(cpu_seconds_from_stat("1 (x) R 0 1"), None);
    }

    #[test]
    fn status_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(peak_rss_mib_from_status(status), Some(200.0));
        assert_eq!(peak_rss_mib_from_status("Name:\tx\n"), None);
        assert_eq!(peak_rss_mib_from_status("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}

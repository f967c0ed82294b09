//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux fixes this (`USER_HZ`) at 100 for user space.
const USER_HZ: f64 = 100.0;

/// Make glibc's malloc serve every thread from one arena. With an arena per
/// thread, which arena a large allocation lands in depends on thread
/// timing, and `VmHWM` swings between 10 and 15 MiB from run to run on
/// identical work; with one it repeats within 2%. Call before spawning
/// threads. Returns whether the setting took.
pub fn pin_malloc_arenas() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` takes two plain integers and only adjusts
        // allocator parameters; `M_ARENA_MAX` is a valid parameter of
        // glibc's malloc, which is the allocator on this target.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// User plus system CPU seconds consumed by this process so far, all
/// threads included (exited ones too).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map(|ticks| ticks as f64 / USER_HZ)
        .unwrap_or(f64::NAN)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(f64::NAN)
}

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (odd) name)) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 69 0 0 20 0 3 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(800));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_by_key() {
        let status =
            "Name:\tmlc-benchmark\nVmPeak:\t  99000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_process_reads_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}

//! Process-level resource readings from `/proc` (Linux only, like the wire
//! front-end under measurement). No `unsafe`, no libc.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux ABI this stack builds for; it is an ABI constant, not the
/// kernel's internal `HZ`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds the **whole process** has consumed so far.
///
/// Read from `/proc/self/stat`, whose `utime`/`stime` are the thread-group
/// totals: they keep the time of threads that have already exited, which
/// matters because the kernel under test fans work over scoped threads that
/// are gone by the time a phase ends (summing `/proc/self/task/*` would
/// miss them).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") / USER_HZ
}

/// `utime + stime` (fields 14 and 15) of one `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the **last** `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "42 (a b) c)) R 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300.0));
        assert_eq!(parse_stat_cpu_ticks("42 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kib() {
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    /// The reading must include a thread that has already been joined: that
    /// is the whole reason it comes from the thread-group line.
    #[test]
    fn cpu_reader_counts_a_joined_threads_work() {
        let before = process_cpu_seconds();
        std::thread::spawn(|| {
            let until = Instant::now() + Duration::from_millis(300);
            let mut x = 0u64;
            while Instant::now() < until {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        })
        .join()
        .expect("burner thread");
        let burned = process_cpu_seconds() - before;
        // 300 ms of spinning, read at 10 ms granularity; other tests share
        // the process, so only a lower bound is meaningful.
        assert!(burned >= 0.1, "joined thread's CPU time missing: {burned}");
    }
}

//! Resource usage of the current (serving) process.

/// `struct timeval` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then 14 longs
/// starting with `ru_maxrss`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of this process so far, all threads
/// (exited ones included).
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the target
    // (64-bit Linux layout, checked by the `cfg` on the module), and
    // `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let before = super::cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::cpu_seconds() > before, "{x}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(super::peak_rss_mb() > 0.0);
    }
}

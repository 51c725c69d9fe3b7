//! Process-level measurements taken from the OS: CPU time and context
//! switches (`getrusage`) and peak resident memory (`VmHWM`), and the one
//! allocator setting the latter needs.
//!
//! The FFI is declared by hand, like `nosv-shmem`'s `os.rs`: the workspace
//! has no external crates. Linux with glibc only — every number here comes
//! from a Linux interface, and a stub returning zeros would pass vacuously.

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
compile_error!(
    "the benchmark reads getrusage and /proc and sets glibc's mallopt: Linux with glibc only"
);

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then
/// fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

const M_MMAP_THRESHOLD: c_int = -3;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// Pins the allocator's mmap threshold at 64 KiB, so that `peak_rss_mb`
/// measures the program and not the allocator's mood. Left alone, glibc
/// raises the threshold by itself after the first large block is freed;
/// from then on the matrices of `coexec_kernels` (100 KiB blocks and up)
/// stay in the arena of whichever application thread freed them, and the
/// high-water mark read 170 to 291 MB from seed to seed for 65 MB of live
/// data. Pinned, it reads 65.7 MB every time. Nothing on a fine-grain
/// task's path allocates a block that large. Call before any thread
/// exists.
pub fn pin_mmap_threshold() {
    // SAFETY: mallopt only sets a parameter of the allocator; no other
    // thread is running yet.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 64 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// CPU time and context switches consumed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, ns.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

fn usage(who: c_int) -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a valid, writable `struct rusage` of the layout
    // Linux defines for 64-bit targets; getrusage only writes into it.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage failed");
    let tv_ns = |t: Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    Usage {
        cpu_ns: tv_ns(raw.ru_utime) + tv_ns(raw.ru_stime),
        ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw) as u64,
    }
}

/// Usage of the whole process, all threads (live and exited).
pub fn process_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Usage of the calling thread alone.
pub fn thread_usage() -> Usage {
    usage(RUSAGE_THREAD)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_advances_with_work() {
        let a = process_usage();
        let t = thread_usage();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let b = process_usage().since(&a);
        let tb = thread_usage().since(&t);
        assert!(b.cpu_ns >= 10_000_000, "process cpu {}", b.cpu_ns);
        assert!(tb.cpu_ns >= 10_000_000, "thread cpu {}", tb.cpu_ns);
        assert!(peak_rss_mb() > 0.5);
    }
}

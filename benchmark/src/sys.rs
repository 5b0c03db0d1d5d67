//! The benchmark's view of the machine: CPU pinning, peak memory, CPU time
//! and load — everything read from outside the measured crates.

/// Words of the affinity mask we pass to the kernel: 1024 CPUs, glibc's
/// `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs the calling thread may run on (empty when the kernel refuses).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// highest-numbered CPU it is allowed on (CPU 0 takes most of the host's
/// interrupts). Call before any thread exists. Returns the CPU when the
/// process now runs on exactly one.
///
/// With one CPU `available_parallelism()` is 1, so the `rayon` shim takes
/// its sequential path and `ThreadComm` ranks time-slice one core: wall
/// time is total work, the only reading that repeats on a shared host.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0 && allowed_cpus() == [cpu]).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    proc_status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// User + system CPU seconds of this process so far (all threads).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// One-minute load average of the host.
pub fn loadavg_1m() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

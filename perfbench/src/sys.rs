//! What the benchmark reads from the operating system: a child's peak
//! memory, a process's high-water mark and the host's CPU steal.

use std::io;
use std::process::Child;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    max_rss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child process ended.
#[derive(Debug, Clone, Copy)]
pub struct ChildExit {
    /// Whether it exited normally with code 0.
    pub success: bool,
    /// Its peak resident set (`ru_maxrss`), in KiB.
    pub max_rss_kib: u64,
}

/// Reap `child` and read its resource usage. The child must not have been
/// waited for through `std`.
pub fn wait_with_rusage(child: &Child) -> io::Result<ChildExit> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        max_rss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the types
        // wait4(2) fills in, and `pid` names our own unreaped child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    // WIFEXITED(status) && WEXITSTATUS(status) == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ChildExit {
        success,
        max_rss_kib: u64::try_from(usage.max_rss_kib).unwrap_or(0),
    })
}

/// The aggregate `cpu` line of `/proc/stat`: (busy + idle jiffies, steal
/// jiffies).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal (guest time is already
    // counted in user and nice).
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// The share of CPU time the hypervisor stole between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((total0, steal0)), Some((total1, steal1))) if total1 > total0 => {
            (steal1 - steal0) as f64 / (total1 - total0) as f64
        }
        _ => 0.0,
    }
}

/// A live process's resident high-water mark (`VmHWM`), in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// The number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

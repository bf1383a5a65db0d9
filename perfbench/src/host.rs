//! What the benchmark reads about the host and its processes.

use std::path::Path;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set, so a later
/// reading covers only what ran after set-up.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// CPU time (user + system, all threads, living and exited) of process
/// `pid`, in seconds. Steal time is not charged to the process, so this
/// stays steady on a shared host where wall time does not.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    // `utime` and `stime` are fields 14 and 15 of `/proc/<pid>/stat`,
    // counted after the parenthesised command name, which may hold spaces.
    // They are in `USER_HZ` ticks, which Linux fixes at 100 per second.
    const USER_HZ: f64 = 100.0;
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let after_comm = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {path}"))?;
    // `after_comm` starts at field 3 (state).
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("no field {i} in {path}"))
    };
    Ok((ticks(14)? + ticks(15)?) / USER_HZ)
}

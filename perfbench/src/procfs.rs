//! What the benchmark reads from the operating system: CPU time and
//! resident-set high-water mark of the current process, and the facts of
//! the host that go into the `environment` block of `result.json`.

use crate::json::Value;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 to user space on every architecture since 2.6; without a
/// libc crate there is no `sysconf(_SC_CLK_TCK)` to ask.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process (all
/// threads, including those already joined).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut it = rest.split_ascii_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(it.next()) + ticks(it.next())) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
/// Monotone over the life of the process, which is why every repetition
/// runs in a process of its own.
pub fn peak_rss_mb() -> f64 {
    kb_field("/proc/self/status", "VmHWM:") * 1024.0 / 1e6
}

/// The kB value of a `Key:   123 kB` line of a procfs file (0 if absent).
fn kb_field(file: &str, key: &str) -> f64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|l| l.split_ascii_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/self/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut f = line.split_ascii_whitespace();
        let (Some(_dev), Some(mp), Some(ty)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mp) && best.is_none_or(|(len, _)| mp.len() >= len) {
            best = Some((mp.len(), ty));
        }
    }
    best.map_or("unknown", |(_, ty)| ty).to_string()
}

/// Space available to this process on the filesystem that holds `path`, in
/// MB (10^6 bytes), as `df -Pk` reports it; `None` if it cannot be had.
/// (`statvfs` needs a libc crate.)
pub fn available_mb(path: &Path) -> Option<f64> {
    let out = Command::new("df").arg("-Pk").arg(path).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    // Filesystem 1024-blocks Used Available Capacity Mounted-on
    let kb: f64 = text
        .lines()
        .nth(1)?
        .split_ascii_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host facts recorded with every result file. Wall-clock numbers compare
/// only between runs whose `nproc` and `spill_fs` agree.
pub fn environment(spill_root: &Path) -> Value {
    let mem_total_mb = (kb_field("/proc/meminfo", "MemTotal:") / 1024.0).round();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let mut env = Value::obj();
    env.set("nproc", nproc())
        .set("mem_total_mb", mem_total_mb)
        .set("kernel", kernel)
        .set("rustc", first_line_of("rustc", &["--version"]))
        .set(
            "git_commit",
            first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        )
        .set("spill_root", spill_root.display().to_string())
        .set("spill_fs", fs_type(spill_root))
        .set("traced_build", cfg!(feature = "trace"));
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "60 ms of spinning is 6 ticks");
    }

    #[test]
    fn peak_rss_is_positive_and_fs_type_resolves() {
        assert!(peak_rss_mb() > 0.5);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
        assert!(available_mb(&std::env::temp_dir()).is_some_and(|mb| mb >= 0.0));
        assert!(available_mb(Path::new("/no/such/place")).is_none());
    }
}

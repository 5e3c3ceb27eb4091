//! The operating-system edge: CPU pinning, child resource usage, and
//! the environment block every report carries.
//!
//! The benchmark has no dependency besides the repository itself, so
//! the three libc calls it needs are declared by hand (Linux, LP64).

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
    }
}

/// CPUs the process may run on, or `None` where affinity is unavailable.
fn affinity() -> Option<Vec<usize>> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 means the calling thread.
        let rc = unsafe { ffi::sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        if rc == 0 {
            return Some(
                (0..MASK_WORDS * 64)
                    .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                    .collect(),
            );
        }
    }
    None
}

/// Restrict the calling thread — and every thread and child process it
/// starts afterwards — to `cpu`.
fn set_affinity(cpu: usize) -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed and is only read; pid 0 means the calling thread.
        return unsafe { ffi::sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) } == 0;
    }
    #[allow(unreachable_code)]
    {
        let _ = cpu;
        false
    }
}

/// Where the run executed: recorded before pinning, so `nproc` and
/// `available_parallelism` describe the machine, not the pinned set.
#[derive(Clone, Debug)]
pub struct Env {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub pinned: bool,
    pub cpus: Vec<usize>,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Env {
    /// Record the environment, then pin the process to one CPU. Client
    /// and server share that CPU on purpose: on this class of VM a
    /// cross-CPU wake-up costs more than the request it delivers (see
    /// README, "Pinning"). Call once, before spawning anything.
    pub fn capture_and_pin(root: &Path) -> Env {
        let allowed = affinity();
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        // The highest allowed CPU: CPU 0 takes most interrupts.
        let target = allowed.as_ref().and_then(|cpus| cpus.last().copied());
        let pinned = target.is_some_and(set_affinity);
        Env {
            nproc: allowed.as_ref().map_or(available_parallelism, Vec::len),
            available_parallelism,
            pinned,
            cpus: if pinned {
                target.into_iter().collect()
            } else {
                allowed.unwrap_or_default()
            },
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: first_line_of(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".into()),
            commit: first_line_of(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(["rev-parse", "HEAD"]),
            )
            .unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            (
                "available_parallelism",
                Json::Num(self.available_parallelism as f64),
            ),
            ("pinned", Json::Bool(self.pinned)),
            (
                "cpus",
                Json::Arr(self.cpus.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("kernel", Json::str(&self.kernel)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
        ])
    }
}

/// `VmHWM` (peak resident set) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one short-lived child did.
#[derive(Debug)]
pub struct Finished {
    pub success: bool,
    pub stdout: Vec<u8>,
    /// Spawn to exit, in milliseconds.
    pub wall_ms: f64,
    /// Peak resident set in MB, where the platform reports it.
    pub peak_rss_mb: Option<f64>,
}

/// Run `cmd` to completion, capturing stdout, wall time and peak RSS.
/// stderr is discarded: callers judge by exit status and output.
pub fn run_child(cmd: &mut Command) -> std::io::Result<Finished> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout)?;
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut status = 0i32;
        let mut usage = [0i64; 18];
        // SAFETY: both out-pointers are live and sized as the kernel
        // expects (`int`, and `struct rusage` = 18 longs on LP64
        // Linux); the pid is our own unreaped child. `child` is not
        // waited on again: dropping a `Child` neither waits nor kills.
        let rc = unsafe { ffi::wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Finished {
            // WIFEXITED && WEXITSTATUS == 0
            success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
            stdout,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            // ru_maxrss, in kilobytes on Linux.
            peak_rss_mb: Some(usage[4] as f64 / 1024.0),
        })
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        let status = child.wait()?;
        Ok(Finished {
            success: status.success(),
            stdout,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            peak_rss_mb: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_child_reports_status_output_and_usage() {
        let ok = run_child(Command::new("sh").args(["-c", "echo hi"])).unwrap();
        assert!(ok.success);
        assert_eq!(ok.stdout, b"hi\n");
        assert!(ok.wall_ms > 0.0);
        if let Some(rss) = ok.peak_rss_mb {
            assert!(rss > 0.0);
        }
        let failed = run_child(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!failed.success);
    }

    /// Pinning narrows the calling thread to one CPU of the set it was
    /// allowed before, and the report says which.
    #[test]
    fn capture_and_pin_reports_what_it_did() {
        let before = affinity();
        let env = Env::capture_and_pin(Path::new("."));
        match before {
            Some(allowed) => {
                assert!(env.pinned);
                assert_eq!(env.nproc, allowed.len());
                assert_eq!(env.cpus.len(), 1);
                assert!(allowed.contains(&env.cpus[0]));
                assert_eq!(affinity(), Some(env.cpus.clone()));
            }
            None => assert!(!env.pinned),
        }
        assert_eq!(
            env.to_json().get("pinned").and_then(Json::as_bool),
            Some(env.pinned)
        );
    }

    #[test]
    fn own_peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        }
    }
}

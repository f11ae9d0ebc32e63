//! Provenance: which host, compiler and commit produced a result.

use std::path::Path;
use std::process::Command;

/// Where a result came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `true` iff `git status --porcelain` lists anything.
    pub dirty: bool,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    // The ceiling keeps git from looking for a repository above this one:
    // a run reads nothing outside its checkout.
    let ceiling = dir.parent().and_then(Path::parent).unwrap_or(dir);
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    /// Probes the host; anything that cannot be read is `unknown`.
    pub fn probe() -> Host {
        let unknown = || "unknown".to_string();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown());
        let status = command_line(
            "git",
            &["--no-optional-locks", "status", "--porcelain"],
            repo,
        );
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["-V"], repo).unwrap_or_else(unknown),
            commit: command_line("git", &["rev-parse", "HEAD"], repo).unwrap_or_else(unknown),
            dirty: status.is_some_and(|s| !s.is_empty()),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the kernel
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_fills_every_field() {
        let h = Host::probe();
        assert!(h.nproc >= 1);
        assert!(!h.cpu_model.is_empty() && !h.kernel.is_empty() && !h.rustc.is_empty());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}

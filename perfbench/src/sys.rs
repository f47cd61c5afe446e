//! Process memory readings and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Peak resident set size (`VmHWM`) of process `pid`, or of this
/// process when `None`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A per-run directory under `.bench_tmp/` in the working directory,
/// removed with everything in it when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn create(workload: &str) -> std::io::Result<Scratch> {
        let root = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty directory inside the scratch root.
    pub fn fresh_dir(&self, what: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{what}-{n}"));
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        let mb = peak_rss_mb(None).expect("VmHWM readable");
        assert!(mb > 0.0);
    }
}

//! The environment stamp of a benchmark run.
//!
//! The end-to-end benchmark (`benchmark/`) writes an [`EnvInfo`] into every
//! results file, so each result set says which commit, host, toolchain and
//! build profile it was measured on.

/// Where and on what a benchmark ran.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvInfo {
    /// Commit id of the tree the benchmark ran on (`unknown` outside git).
    pub commit: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp: u64,
    /// Host fingerprint: `os/arch/hostname`.
    pub host: String,
    /// `rustc -V` of the toolchain (`unknown` when `rustc` is absent).
    pub rustc: String,
    /// Build profile of the benchmark binary (`debug` / `release`).
    pub profile: String,
}

impl EnvInfo {
    /// Capture the current environment: the commit from
    /// `git rev-parse HEAD`, the toolchain from `rustc -V`, the hostname
    /// from `HOSTNAME` or `/etc/hostname`, each falling back to
    /// `"unknown"`.
    pub fn capture() -> Self {
        let commit =
            run_capture("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
        let rustc = run_capture("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
        let timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let hostname = std::env::var("HOSTNAME")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .or_else(|| {
                std::fs::read_to_string("/etc/hostname")
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            commit,
            timestamp,
            host: format!(
                "{}/{}/{}",
                std::env::consts::OS,
                std::env::consts::ARCH,
                hostname
            ),
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }
}

fn run_capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_every_stamp() {
        let env = EnvInfo::capture();
        assert!(!env.commit.is_empty());
        assert!(!env.rustc.is_empty());
        assert!(env.timestamp > 0);
        assert_eq!(env.host.split('/').count(), 3, "{}", env.host);
        let expected = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(env.profile, expected);
    }
}

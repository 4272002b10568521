//! Starting, measuring and stopping the real `fleetd` binary.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to start listening or to exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Fleetd {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// From spawn to the address file appearing: fleet build plus any
    /// checkpoint resume.
    pub setup: Duration,
    log: PathBuf,
}

impl Fleetd {
    /// Spawns `exe` with `args` plus `--addr-file` under `scratch`, in an
    /// empty environment except `env`, and waits until it listens.
    ///
    /// # Errors
    ///
    /// A spawn failure, an early exit, or no address within [`PATIENCE`].
    pub fn start(
        exe: &Path,
        args: &[String],
        env: &[(&str, String)],
        scratch: &Path,
        tag: &str,
    ) -> Result<Fleetd, String> {
        let addr_file = scratch.join(format!("{tag}.addr"));
        let log = scratch.join(format!("{tag}.log"));
        drop(std::fs::remove_file(&addr_file));
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .arg("--addr-file")
            .arg(&addr_file)
            .env_clear()
            .envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        loop {
            // fleetd writes "<addr>\n" in one call; only a complete line
            // is a finished write.
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(line) = text.strip_suffix('\n') {
                    let setup = started.elapsed();
                    let addr = line
                        .parse()
                        .map_err(|_| format!("fleetd wrote a bad address {line:?}"))?;
                    return Ok(Fleetd {
                        child,
                        addr,
                        setup,
                        log,
                    });
                }
            }
            let failed = match child.try_wait() {
                Ok(Some(status)) => Some(format!("fleetd exited early ({status})")),
                Ok(None) if started.elapsed() > PATIENCE => Some("fleetd never listened".into()),
                Ok(None) => None,
                Err(e) => Some(format!("cannot poll fleetd: {e}")),
            };
            if let Some(problem) = failed {
                drop(child.kill());
                drop(child.wait());
                return Err(format!("{problem}: {}", tail(&log)));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` cannot be read or lacks the field.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read fleetd status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in fleetd status".to_string())
    }

    /// Waits for the daemon to exit after a `shutdown` request.
    ///
    /// # Errors
    ///
    /// When it fails or does not exit within [`PATIENCE`] (it is killed).
    pub fn wait_exit(mut self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("fleetd exited with {status}: {}", tail(&self.log)))
                }
                Ok(None) if started.elapsed() > PATIENCE => {
                    return Err("fleetd did not exit after shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot poll fleetd: {e}")),
            }
        }
    }
}

impl Drop for Fleetd {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            drop(self.child.kill());
        }
        drop(self.child.wait());
    }
}

/// The last lines of a daemon log, for error messages.
fn tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

//! Spawned `shard_server` processes and memory readings.
//!
//! A [`ShardServer`] kills and reaps its child when dropped, so every exit
//! path — a failed check, an error, a panic unwinding — leaves no process
//! or port behind; a child whose benchmark process is killed outright is
//! killed by the kernel.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option: the signal the child gets when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL`, as `prctl` takes it (an `unsigned long`).
const SIGKILL: u64 = 9;

/// One `shard_server` child process serving the in-memory engine.
pub struct ShardServer {
    child: Child,
    pub addr: SocketAddr,
}

impl ShardServer {
    /// Start the `shard_server` binary built next to this one on an
    /// ephemeral port and wait for its `LISTENING <addr>` line.
    pub fn spawn() -> Result<ShardServer, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe.with_file_name("shard_server");
        let mut command = Command::new(&bin);
        command
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs in the forked child before `exec` and only
        // makes the `prctl` system call, which is async-signal-safe and
        // touches no memory of the parent.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == -1 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        // From here on the guard owns the child: an error below still
        // kills and reaps it.
        let mut server = ShardServer {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read shard_server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected shard_server banner {line:?}"))?;
        Ok(server)
    }

    /// Peak resident set of the server process so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `n` servers; on any failure the ones already started are reaped.
pub fn spawn_servers(n: usize) -> Result<Vec<ShardServer>, String> {
    (0..n).map(|_| ShardServer::spawn()).collect()
}

/// Peak resident set of this process so far, in MB.
pub fn self_peak_rss_mb() -> f64 {
    vm_hwm_mb("/proc/self/status")
}

/// `VmHWM` of a `/proc/<pid>/status` file in MB (0 when unreadable).
fn vm_hwm_mb(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Process measurements read from `/proc`, and the `wsitool serve`
//! child process the wire workload drives.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wsinterop::core::wire::http::{self, HttpLimits};
use wsinterop::core::wire::SHUTDOWN_PATH;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_string(),
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// User + system CPU seconds this process has consumed so far, all
/// threads included (exited ones too).
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name, which may hold
    // spaces; utime and stime are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| bad("stat cpu field"))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// CPU seconds the live threads of process `pid` have run, summed
/// from each thread's `schedstat` (ns resolution, where `stat` counts
/// 10 ms ticks). Time of threads that already exited is not included,
/// so this suits a server whose threads live as long as it does.
pub fn thread_cpu_seconds(pid: u32) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let text = std::fs::read_to_string(task?.path().join("schedstat"))?;
        ns += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad("schedstat"))?;
    }
    Ok(ns as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) of a process, in MB (2^20 bytes).
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("{}/status", proc_dir(pid)))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| bad("VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

/// Reads one numeric field `"key":N` out of a flat JSON document such
/// as `/statusz` (keys there are unique).
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs this executable again with `argv` plus the `mode` flag, waits
/// for it to exit successfully, and returns the seconds from spawn to
/// its `ready` line together with every other line it printed.
pub(crate) fn run_self(argv: &[String], mode: &str) -> Result<(f64, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(argv)
        .arg(mode)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {mode}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (mut ready_s, mut lines) = (None, Vec::new());
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if line == "ready" && ready_s.is_none() {
            ready_s = Some(start.elapsed().as_secs_f64());
        } else {
            lines.push(line);
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    match ready_s {
        Some(ready_s) if status.success() => Ok((ready_s, lines)),
        _ => Err(format!("{mode} child failed ({status})")),
    }
}

/// A running `wsitool serve` child. Dropping it kills and reaps the
/// process if [`Server::shutdown`] did not stop it.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: Option<SocketAddr>,
    stopped: bool,
}

impl Server {
    /// Starts `wsitool serve --stride <stride>` on an ephemeral port.
    /// Returns at once; [`Server::wait_ready`] waits for the bind.
    pub fn spawn(wsitool: &Path, stride: usize) -> io::Result<Server> {
        let mut child = Command::new(wsitool)
            .args(["serve", "--stride", &stride.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().ok_or_else(|| bad("child stdout"))?);
        Ok(Server {
            child,
            stdout,
            addr: None,
            stopped: false,
        })
    }

    /// Blocks until the `ready: ADDR` line and returns the address.
    pub fn wait_ready(&mut self) -> io::Result<SocketAddr> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(bad("wsitool serve exited before its ready line"));
            }
            if let Some(addr) = line.trim().strip_prefix("ready: ") {
                let addr: SocketAddr = addr.parse().map_err(|_| bad("ready address"))?;
                self.addr = Some(addr);
                return Ok(addr);
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET path` on the admin plane, returning the body.
    pub fn admin(&self, method: &str, path: &str) -> io::Result<String> {
        let addr = self.addr.ok_or_else(|| bad("server not ready"))?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        http::write_request(&mut stream, method, path, "127.0.0.1", None, b"", true)
            .map_err(|e| bad(&format!("admin request: {e:?}")))?;
        let response = http::read_response(&stream, &HttpLimits::default())
            .map_err(|e| bad(&format!("admin response: {e:?}")))?;
        Ok(String::from_utf8_lossy(&response.body).into_owned())
    }

    /// Stops the server through its admin path and reaps it.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.admin("POST", SHUTDOWN_PATH)?;
        // Drain stdout to EOF so the child never blocks on a full pipe
        // while printing its farewell line.
        io::copy(&mut self.stdout, &mut io::sink())?;
        let status = self.child.wait()?;
        self.stopped = true;
        if !status.success() {
            return Err(bad(&format!("wsitool serve exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

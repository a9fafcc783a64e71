//! Cold `nanoleak-cli` processes, timed from spawn to reap, with the
//! peak resident memory the kernel accounts to each one.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("nanobench reads per-process peak memory through Linux wait4(2)");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns `(exit code, peak RSS in KiB)`; the exit
/// code is `None` when a signal ended the process. The caller must
/// not touch `child` through std afterwards: its pid is released.
fn reap(child: &Child) -> io::Result<(Option<i32>, u64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    loop {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `pid` names a child this process spawned and has not
        // reaped (std never waited on it), and both out-pointers refer
        // to live, exclusively borrowed locals of the right layout.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
            return Ok((code, u64::try_from(usage.maxrss_kb).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A finished cold process.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, `None` if a signal ended it.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set size \[KiB\].
    pub max_rss_kb: u64,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

fn command(cli: &Path) -> Command {
    let mut cmd = Command::new(cli);
    // The programs see only the generated flags: no ambient cache
    // directory, armed failpoints or log level leak in.
    cmd.env_remove("NANOLEAK_CACHE_DIR").env_remove("NANOLEAK_FAULTS").env_remove("NANOLEAK_LOG");
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn drain(mut r: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut s = String::new();
        let _ = r.read_to_string(&mut s);
        s
    })
}

/// Runs one cold `nanoleak-cli` invocation to completion.
///
/// # Errors
/// Spawn or wait failures (a non-zero exit is a [`Finished`] value).
pub fn run_cli(cli: &Path, args: &[String]) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = command(cli).args(args).spawn()?;
    let err = drain(child.stderr.take().expect("stderr is piped"));
    let mut stdout = String::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout);
    let (code, max_rss_kb) = reap(&child)?;
    let wall = start.elapsed();
    read?;
    let stderr = err.join().unwrap_or_default();
    Ok(Finished { code, stdout, stderr, wall, max_rss_kb })
}

/// A running `nanoleak-cli serve` on a loopback ephemeral port. It is
/// killed and reaped on [`Server::stop`] or, failing that, on drop.
pub struct Server {
    child: Option<Child>,
    stderr: Option<JoinHandle<String>>,
    pub addr: SocketAddr,
    pub cache_dir: PathBuf,
}

impl Server {
    /// Spawns the service with one worker thread over `cache_dir` and
    /// waits for its listening line.
    ///
    /// # Errors
    /// Spawn failures, or a process that exits before listening.
    pub fn spawn(cli: &Path, cache_dir: &Path) -> io::Result<Server> {
        let mut child = command(cli)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1", "--log-level", "error"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .spawn()?;
        let stderr = drain(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child: Some(child),
            stderr: Some(stderr),
            addr: ([0, 0, 0, 0], 0).into(),
            cache_dir: cache_dir.to_path_buf(),
        };
        let stdout = server.child.as_mut().and_then(|c| c.stdout.take()).expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("nanoleak-serve listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("server did not start: '{}'", line.trim())))?;
        server.addr = addr;
        Ok(server)
    }

    /// Kills and reaps the service; returns its peak RSS \[KiB\].
    ///
    /// # Errors
    /// Kill or wait failures.
    pub fn stop(mut self) -> io::Result<u64> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<u64> {
        let Some(mut child) = self.child.take() else { return Ok(0) };
        child.kill()?;
        let (_, max_rss_kb) = reap(&child)?;
        if let Some(h) = self.stderr.take() {
            let text = h.join().unwrap_or_default();
            if !text.trim().is_empty() {
                eprintln!("nanobench: server stderr: {}", text.trim());
            }
        }
        Ok(max_rss_kb)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

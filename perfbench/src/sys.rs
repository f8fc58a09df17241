//! Process plumbing: child resource usage, one-shot `mcpat` runs and the
//! `mcpat serve` daemon.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

const RUSAGE_CHILDREN: i32 = -1;

/// CPU time and peak RSS of every child this process has waited for.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    /// user + system CPU, seconds (cumulative).
    pub cpu_s: f64,
    /// Largest resident set of any waited-for child, KiB.
    pub maxrss_kib: i64,
}

pub fn children_usage() -> ChildUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and getrusage writes at most that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    ChildUsage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kib: ru.maxrss,
    }
}

/// One finished one-shot `mcpat` process.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    /// Spawn to exit, seconds.
    pub secs: f64,
    /// User + system CPU of the process, seconds.
    pub cpu_s: f64,
}

impl RunOut {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Runs one-shot `mcpat` processes on behalf of the harness.
///
/// Linux folds the peak RSS of the address space a process had before
/// `exec` into its `ru_maxrss`, and a spawned child starts out in its
/// parent's address space. A child spawned straight from the harness
/// would therefore report the harness's own peak RSS. The spawner is a
/// copy of this binary started before the harness builds its inputs, so
/// it stays small; one-shot children are spawned from it, and their
/// `ru_maxrss` is their own (floored at the spawner's few MiB).
pub(crate) struct Spawner {
    child: Child,
    /// Closed on drop, which ends the spawner's request loop.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// The spawner side: reads one request per line from stdin — `usage`,
/// or tab-separated arguments for `program` (`mcpat`, or this binary for
/// calibration ops) — and answers each on stdout.
/// A run is answered `<exit code or -1> <seconds> <cpu seconds> <stdout
/// bytes>\n`
/// followed by the child's stdout; `usage` is answered
/// `<children cpu seconds> <children max rss KiB>\n`.
pub fn spawner_main(program: &Path) -> io::Result<()> {
    let stdin = io::stdin();
    let mut out = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        if line == "usage" {
            let u = children_usage();
            writeln!(out, "{} {}", u.cpu_s, u.maxrss_kib)?;
        } else {
            let u0 = children_usage();
            let t0 = Instant::now();
            let run = Command::new(program)
                .args(line.split('\t'))
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()?;
            let secs = t0.elapsed().as_secs_f64();
            // One child at a time, so the delta is this child's CPU.
            let cpu_s = children_usage().cpu_s - u0.cpu_s;
            let code = run.status.code().unwrap_or(-1);
            writeln!(out, "{code} {secs} {cpu_s} {}", run.stdout.len())?;
            out.write_all(&run.stdout)?;
        }
        out.flush()?;
    }
    Ok(())
}

impl Spawner {
    /// Starts a spawner whose requests run `program`.
    pub(crate) fn start(program: &Path) -> io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--spawner")
            .arg(program)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            return Err(io::Error::other("spawner pipes missing"));
        };
        Ok(Spawner {
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    fn request(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("spawner closed"))?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    fn header(&mut self) -> io::Result<Vec<String>> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "spawner exited",
            ));
        }
        Ok(line.split_whitespace().map(str::to_owned).collect())
    }

    pub(crate) fn run(&mut self, args: &[&str]) -> io::Result<RunOut> {
        self.request(&args.join("\t"))?;
        let bad = || io::Error::other("malformed spawner answer");
        let h = self.header()?;
        let [code, secs, cpu_s, len] = h.as_slice() else {
            return Err(bad());
        };
        let code: i32 = code.parse().map_err(|_| bad())?;
        let secs: f64 = secs.parse().map_err(|_| bad())?;
        let cpu_s: f64 = cpu_s.parse().map_err(|_| bad())?;
        let mut stdout = vec![0; len.parse().map_err(|_| bad())?];
        self.stdout.read_exact(&mut stdout)?;
        Ok(RunOut {
            code: (code >= 0).then_some(code),
            stdout,
            secs,
            cpu_s,
        })
    }

    fn usage(&mut self) -> io::Result<ChildUsage> {
        self.request("usage")?;
        let bad = || io::Error::other("malformed spawner answer");
        let h = self.header()?;
        let [cpu, rss] = h.as_slice() else {
            return Err(bad());
        };
        Ok(ChildUsage {
            cpu_s: cpu.parse().map_err(|_| bad())?,
            maxrss_kib: rss.parse().map_err(|_| bad())?,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The release `mcpat` binary under test.
pub struct Mcpat {
    pub bin: PathBuf,
    spawner: Mutex<Spawner>,
}

impl Mcpat {
    /// Starts the spawner; call before building inputs (see [`Spawner`]).
    pub fn new(bin: PathBuf) -> io::Result<Mcpat> {
        let spawner = Mutex::new(Spawner::start(&bin)?);
        Ok(Mcpat { bin, spawner })
    }

    fn spawner(&self) -> std::sync::MutexGuard<'_, Spawner> {
        self.spawner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `mcpat args…` to completion, draining its stdout, and times
    /// spawn to exit.
    pub fn run(&self, args: &[&str]) -> io::Result<RunOut> {
        self.spawner().run(args)
    }

    /// CPU time and peak RSS of every one-shot process run so far.
    pub fn usage(&self) -> io::Result<ChildUsage> {
        self.spawner().usage()
    }

    /// Seconds of one `mcpat <config> --validate` process: the set-up
    /// time of the one-shot workloads.
    pub fn validate_secs(&self, config: &str) -> io::Result<f64> {
        let run = self.run(&[config, "--validate"])?;
        if !run.success() {
            return Err(io::Error::other(format!(
                "`mcpat {config} --validate` failed"
            )));
        }
        Ok(run.secs)
    }

    /// Spawns `mcpat serve --listen 127.0.0.1:0` and waits for its first
    /// `ping` answer; returns the daemon and that set-up time in seconds.
    pub fn spawn_daemon(&self) -> io::Result<(Daemon, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(&self.bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no stdout"))?;
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        daemon.addr = line
            .trim()
            .strip_prefix("serve: listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected daemon banner `{line}`")))?;
        let mut conn = Conn::open(daemon.addr)?;
        let pong = conn.roundtrip("{\"type\":\"ping\",\"id\":0}")?;
        let setup = t0.elapsed().as_secs_f64();
        if pong.trim() != "{\"id\":0,\"status\":\"ok\",\"type\":\"pong\"}" {
            return Err(io::Error::other(format!("unexpected ping answer `{pong}`")));
        }
        Ok((daemon, setup))
    }
}

/// Peak resident set (`VmHWM`, KiB) of a running process.
pub fn vm_hwm_kib(pid: u32) -> io::Result<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// User + system CPU seconds of a running process so far, from
/// `/proc/<pid>/stat`.
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |field: usize| fields.get(field - 3).and_then(|f| f.parse::<u64>().ok());
    let (Some(utime), Some(stime)) = (tick(14), tick(15)) else {
        return Err(io::Error::other("no CPU times in /proc stat"));
    };
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err(io::Error::other("sysconf(_SC_CLK_TCK) failed"));
    }
    Ok((utime + stime) as f64 / hz as f64)
}

/// A running `mcpat serve` process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// The daemon's peak resident set so far, KiB.
    pub fn peak_rss_kib(&self) -> io::Result<i64> {
        vm_hwm_kib(self.child.id())
    }

    /// The daemon's CPU seconds so far.
    pub fn cpu_s(&self) -> io::Result<f64> {
        proc_cpu_s(self.child.id())
    }

    /// Sends `shutdown`, drains the daemon's stdout and waits for a clean
    /// exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let ack = Conn::open(self.addr)?.roundtrip("{\"type\":\"shutdown\"}")?;
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if !ack.contains("\"draining\":true") || !status.success() {
            return Err(io::Error::other(format!(
                "daemon did not drain cleanly: ack `{}`, {status}",
                ack.trim()
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached when `shutdown` was not: never leave a daemon
        // behind, even on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line-protocol connection to the daemon.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Writes `request` (a line without its newline) as is.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)
    }

    /// Reads one response line into `line` (cleared first).
    pub fn recv(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(())
    }

    pub fn roundtrip(&mut self, request: &str) -> io::Result<String> {
        self.send(format!("{request}\n").as_bytes())?;
        let mut line = String::new();
        self.recv(&mut line)?;
        Ok(line)
    }
}

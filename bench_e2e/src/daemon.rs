//! The daemon under test, as a separate child process.
//!
//! The benchmark binary re-executes itself as `bench_e2e daemon …`,
//! which starts `dwm_serve` with the settings `dwmplace serve` uses,
//! so the load generator never shares the daemon's CPU or memory
//! accounting: both are read from the child's `/proc` entries.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dwm_serve::{ClientConn, ServeConfig};

/// Worker threads the daemon runs with.
const WORKERS: usize = 2;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks,
/// which the kernel ABI fixes at 100 per second.
const NS_PER_TICK: u64 = 10_000_000;

/// Child side: serves until SIGTERM or `POST /admin/drain`, then drains
/// and exits — the `dwmplace serve` loop, with the address fixed to an
/// ephemeral loopback port and printed on stdout for the parent, and
/// the drain flag polled every 5 ms instead of 50 so that a run's five
/// set-ups restart the daemon quickly.
///
/// # Errors
///
/// The bind failure.
pub fn serve() -> io::Result<()> {
    dwm_serve::signal::install();
    let handle = dwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        ..ServeConfig::default()
    })?;
    println!("{}", handle.local_addr());
    while !dwm_serve::signal::triggered() && !handle.drain_requested() {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    handle.join();
    Ok(())
}

/// The machine's CPU time stolen by the hypervisor and its CPU time in
/// total, in ticks, summed over every CPU (`/proc/stat`'s `cpu` line).
///
/// # Errors
///
/// `/proc` read or parse failures.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match ticks.get(7) {
        // user nice system idle iowait irq softirq steal [guest …]; guest
        // time is already counted in user.
        Some(&steal) => Ok((steal, ticks[..8].iter().sum())),
        None => Err(io::Error::new(io::ErrorKind::InvalidData, "bad /proc/stat")),
    }
}

/// Parent side: a running daemon child. Dropping it kills and reaps
/// the child, so no exit path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    /// Kept open: the child's stdout must not become a broken pipe.
    _stdout: BufReader<ChildStdout>,
    /// The daemon's listen address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `bench_e2e daemon` and waits until it
    /// answers `GET /health` with 200.
    ///
    /// # Errors
    ///
    /// Spawn, address, or health-check failures.
    pub fn spawn() -> io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        // Built before any early return so `Drop` reaps the child.
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = line.trim().parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("daemon printed {line:?} instead of its address"),
            )
        })?;
        let health = ClientConn::connect(daemon.addr)?.get("/health")?;
        if health.status != 200 {
            return Err(io::Error::other(format!(
                "daemon health check answered {}",
                health.status
            )));
        }
        Ok(daemon)
    }

    /// Daemon CPU time (user + system, every thread, live or exited)
    /// in nanoseconds, at tick resolution.
    ///
    /// # Errors
    ///
    /// `/proc` read or parse failures.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name: state is field
        // 3, utime 14 and stime 15 (1-based, per proc(5)).
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<u64> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat"))
        };
        Ok((tick(11)? + tick(12)?) * NS_PER_TICK)
    }

    /// The daemon's peak resident set (`VmHWM`) in bytes.
    ///
    /// # Errors
    ///
    /// `/proc` read or parse failures.
    pub fn peak_rss_bytes(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kib| kib * 1024)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
    }

    /// Asks the daemon to drain and waits for it to exit cleanly.
    ///
    /// # Errors
    ///
    /// The drain request failing, the daemon not exiting within 30 s
    /// (it is then killed), or a non-zero exit status.
    pub fn stop(mut self) -> io::Result<()> {
        ClientConn::connect(self.addr)?.post_json("/admin/drain", "{}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not drain within 30 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

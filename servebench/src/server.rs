//! The server under test, run as a child process so its CPU time and
//! memory are its own: `servebench serve --workload NAME` builds the
//! server from bnb-serve's public `Server`/`ServeConfig` API, and
//! [`ServerProc`] is the benchmark's handle on it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use bnb_obs::Counters;
use bnb_serve::{Server, ServerControl, StatusSnapshot};

use crate::workload::Workload;

const READY_PREFIX: &str = "listening on ";
const REPORT_PREFIX: &str = "report ";
/// How long a graceful drain may take before the server is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Entry point of the child: serve until the parent closes our stdin,
/// then print the session's frame ledger.
pub fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let workload = match args {
        [flag, name] if flag == "--workload" => Workload::by_name(name),
        _ => None,
    }
    .ok_or("serve needs --workload with a known workload")?;
    let config = workload.serve_config();
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("{READY_PREFIX}{addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let control = ServerControl::new();
    let counters = Counters::new();
    let report = std::thread::scope(|s| {
        let control = &control;
        s.spawn(move || {
            // The parent closes our stdin to ask for a graceful drain;
            // its exit closes it too, so the server never outlives it.
            let mut sink = [0u8; 64];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            control.trigger_shutdown();
        });
        Server::new(config, &counters).serve(listener, control)
    })
    .map_err(|e| format!("serving session failed: {e}"))?;
    println!(
        "{REPORT_PREFIX}submitted={} served={} retried={} errored={} dropped={} protocol_errors={} graceful={} accounted={}",
        report.frames_submitted,
        report.frames_served,
        report.retries_issued,
        report.frames_errored,
        report.responses_dropped,
        report.protocol_errors,
        report.graceful as u8,
        report.accounted() as u8,
    );
    Ok(ExitCode::SUCCESS)
}

/// The server's own account of a session, from its `ServeReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerLedger {
    pub submitted: u64,
    pub served: u64,
    pub retried: u64,
    pub errored: u64,
    pub dropped: u64,
    pub protocol_errors: u64,
    pub graceful: bool,
    /// `ServeReport::accounted()`.
    pub accounted: bool,
}

impl ServerLedger {
    fn parse(line: &str) -> Result<Self, String> {
        let mut ledger = ServerLedger::default();
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad report field {field}"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("bad report value {field}"))?;
            match key {
                "submitted" => ledger.submitted = value,
                "served" => ledger.served = value,
                "retried" => ledger.retried = value,
                "errored" => ledger.errored = value,
                "dropped" => ledger.dropped = value,
                "protocol_errors" => ledger.protocol_errors = value,
                "graceful" => ledger.graceful = value == 1,
                "accounted" => ledger.accounted = value == 1,
                _ => {}
            }
        }
        Ok(ledger)
    }
}

/// A running server child. Dropping it kills and reaps the child.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns this executable in serve mode and waits for its address.
    pub fn spawn(workload: &Workload) -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--workload", workload.name])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read server address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix(READY_PREFIX)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not announce an address (got {line:?})"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the server has used, all threads.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("malformed {path}"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("malformed {path}"))
        };
        let total = ticks(14 - 3)? + ticks(15 - 3)?;
        Ok(total * (1_000_000_000 / crate::sys::clock_ticks_per_second()))
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// One HTTP GET against the server's operator surface; the body.
    fn http_get(&self, path: &str) -> Result<String, String> {
        let fail = |e: std::io::Error| format!("GET {path}: {e}");
        let mut stream = TcpStream::connect(self.addr).map_err(fail)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(fail)?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        )
        .map_err(fail)?;
        let mut response = String::new();
        stream.read_to_string(&mut response).map_err(fail)?;
        response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| format!("GET {path}: no HTTP body"))
    }

    /// `GET /status`.
    pub fn status(&self) -> Result<StatusSnapshot, String> {
        let body = self.http_get("/status")?;
        serde_json::from_str(&body).map_err(|e| format!("/status does not parse: {e}"))
    }

    /// Asks for a graceful drain, waits for the child to exit, and
    /// returns the ledger it reported.
    pub fn shutdown(mut self) -> Result<ServerLedger, String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err(format!("server did not drain within {DRAIN_TIMEOUT:?}")),
                Err(e) => return Err(format!("cannot wait for server: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("cannot read server report: {e}"))?;
        let line = rest
            .lines()
            .find_map(|l| l.strip_prefix(REPORT_PREFIX))
            .ok_or("server printed no report")?;
        ServerLedger::parse(line)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_parses() {
        let ledger = ServerLedger::parse(
            "submitted=10 served=8 retried=1 errored=1 dropped=0 protocol_errors=0 graceful=1 accounted=1",
        )
        .unwrap();
        assert_eq!(
            (ledger.submitted, ledger.served, ledger.retried),
            (10, 8, 1)
        );
        assert!(ledger.graceful && ledger.accounted);
    }
}

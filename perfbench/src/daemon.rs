//! The `rbs-netd` child process and the client side of its connections.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A running `rbs-netd --listen` child. Dropping it kills the child;
/// [`Daemon::drain`] is the graceful path.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<Vec<String>>>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port with its default
    /// options and waits until it publishes the address.
    pub fn launch(netd: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(netd)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("rbs-netd: listening on ") {
                    let _ = tx.send(addr.to_owned());
                }
                lines.push(line);
            }
            lines
        });
        let mut daemon = Daemon {
            child,
            stdin,
            stderr: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let published = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| io::Error::other("rbs-netd did not publish its address"))?;
        daemon.addr = published
            .parse()
            .map_err(|e| io::Error::other(format!("bad address {published:?}: {e}")))?;
        Ok(daemon)
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
            line: String::new(),
            next_seq: 0,
            seq_errors: 0,
        })
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// User plus system CPU time of the whole process (exited threads
    /// included), in milliseconds. Linux reports it in clock ticks of
    /// 1/100 s (`USER_HZ`).
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesized command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((tick(11)? + tick(12)?) * 10.0)
    }

    /// Closes stdin (the drain signal), waits for a clean exit and
    /// returns the cumulative footer line.
    pub fn drain(mut self) -> io::Result<String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("rbs-netd did not drain within 60 s"));
            }
            thread::sleep(Duration::from_millis(5));
        };
        let lines = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(io::Error::other(format!("rbs-netd exited with {status}")));
        }
        lines
            .into_iter()
            .rev()
            .find(|l| l.starts_with("rbs-svc: served="))
            .ok_or_else(|| io::Error::other("rbs-netd printed no footer"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// How the daemon answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Report { cached: bool },
    Error { kind: ErrorKind, cached: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    Parse,
    Limits,
    Timeout,
    Panic,
    Oversized,
    Overload,
    Other,
}

impl ErrorKind {
    pub const ALL: [ErrorKind; 7] = [
        ErrorKind::Parse,
        ErrorKind::Limits,
        ErrorKind::Timeout,
        ErrorKind::Panic,
        ErrorKind::Oversized,
        ErrorKind::Overload,
        ErrorKind::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Limits => "limits",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Panic => "panic",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Overload => "overload",
            ErrorKind::Other => "other",
        }
    }

    fn of(name: &str) -> ErrorKind {
        ErrorKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .unwrap_or(ErrorKind::Other)
    }
}

/// One request/response pair as the client saw it. Lines are not kept:
/// the gate regenerates requests from the seed and compares digests.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    pub conn: usize,
    /// Send time since the phase started.
    pub sent: Duration,
    /// Client clock, from send to the full response line.
    pub latency: Duration,
    pub request_digest: u64,
    pub payload_digest: u64,
    pub verdict: Verdict,
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
    line: String,
    next_seq: u64,
    /// Responses whose `seq` was not the next one expected.
    pub seq_errors: u64,
}

impl Conn {
    fn send(&mut self, request: &str) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(request.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)
    }

    fn receive(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "rbs-netd closed the connection",
            ));
        }
        if seq_of(&self.line) != Some(self.next_seq) {
            self.seq_errors += 1;
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Sends what `source` yields with up to `window` requests in flight
    /// and returns the exchanges in send order. Responses on one
    /// connection come back in request order, so the oldest outstanding
    /// request is the one each response answers.
    pub fn drive(
        &mut self,
        conn: usize,
        window: usize,
        start: Instant,
        source: &mut dyn Source,
    ) -> io::Result<Vec<Exchange>> {
        let mut in_flight: VecDeque<(Instant, u64)> = VecDeque::with_capacity(window);
        let mut exchanges = Vec::new();
        loop {
            while in_flight.len() < window {
                let Some(request) = source.next_line() else {
                    break;
                };
                let sent = Instant::now();
                self.send(&request)?;
                in_flight.push_back((sent, digest(request.as_bytes())));
            }
            let Some((sent, request_digest)) = in_flight.pop_front() else {
                break;
            };
            self.receive()?;
            let latency = sent.elapsed();
            let (verdict, payload_digest, hash) = classify(self.line.trim_end());
            source.observe(hash);
            exchanges.push(Exchange {
                conn,
                sent: sent - start,
                latency,
                request_digest,
                payload_digest,
                verdict,
            });
        }
        Ok(exchanges)
    }
}

/// What a connection sends, and where the answers' hashes go.
pub trait Source {
    /// The next request line, or `None` to stop sending.
    fn next_line(&mut self) -> Option<String>;
    /// The hash of the report answering the oldest outstanding request
    /// (`None` for an error line).
    fn observe(&mut self, hash: Option<&str>);
}

fn seq_of(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"seq\":")?;
    rest[..rest.find(',')?].parse().ok()
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The parts of a response line that must not depend on where or when
/// it was served: the hash and report of a report line, the error
/// object of an error line. Sequence numbers, labels, cache flags,
/// timings and walk counters are excluded.
fn payload(line: &str) -> (&str, &str) {
    if let Some(at) = line.find(",\"report\":") {
        (field(line, "\"hash\":\"").unwrap_or(""), &line[at..])
    } else {
        ("", line.find(",\"error\":").map_or(line, |at| &line[at..]))
    }
}

/// Verdict, payload digest and (for reports) hash of one response line.
pub fn classify(line: &str) -> (Verdict, u64, Option<&str>) {
    let (hash, body) = payload(line);
    let payload_digest = digest(hash.as_bytes()) ^ digest(body.as_bytes()).rotate_left(1);
    let cached = line.contains(",\"cached\":true");
    if hash.is_empty() {
        let kind = field(body, "\"kind\":\"").map_or(ErrorKind::Other, ErrorKind::of);
        (Verdict::Error { kind, cached }, payload_digest, None)
    } else {
        (Verdict::Report { cached }, payload_digest, Some(hash))
    }
}

/// A fast 64-bit digest (word-at-a-time multiply-xorshift), used only to
/// compare byte strings without keeping them.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(K);
        h ^= h >> 29;
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 32)
}

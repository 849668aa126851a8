//! Line-delimited message transport for the distributed runner.
//!
//! The `twobit-dist` node fleet exchanges JSON documents over byte
//! streams — a child process's stdin/stdout pipes, or a TCP connection.
//! This module is the *framing* layer those documents ride on; it knows
//! nothing about their content.
//!
//! # Framing
//!
//! One message per line: a message is a UTF-8 string containing no `\n`,
//! terminated on the wire by a single `\n`. The compact JSON writer in
//! [`twobit_obs::json`] escapes control characters inside strings
//! (`\n` → `\\n`), so any document it renders is a valid frame by
//! construction. An empty line is a valid (empty) message; end-of-stream
//! is distinguished from it by [`Transport::recv`] returning `None`.
//!
//! Writes are flushed per message: a frame is either fully visible to the
//! peer or not sent at all, which is what lets the driver treat a crashed
//! node's last partial line as simply unsent. A trailing unterminated
//! line at EOF is delivered as a final message (the payload layer decides
//! whether a truncated document is an error).
//!
//! # Why not length-prefixed binary?
//!
//! The fleet's messages are small (a coherence command plus an envelope),
//! rates are test-scale, and every byte on the wire being readable with
//! `cat` makes fault-injection runs debuggable from the merged trace
//! alone. The same trade the tracing layer made (`JsonlTracer`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A bidirectional, ordered, reliable message stream.
///
/// Implementations carry whole messages (frames); ordering and
/// reliability come from the underlying byte stream (pipe or TCP).
/// Loss, delay, and reordering are *simulated* above this layer by the
/// driver's fault plan — never by the transport.
pub trait Transport: Send {
    /// Sends one message, flushing it to the peer.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (e.g. a broken pipe when the
    /// peer died). `msg` must not contain `\n`; in debug builds this is
    /// asserted.
    fn send(&mut self, msg: &str) -> io::Result<()>;

    /// Receives the next message, blocking until one arrives.
    ///
    /// Returns `None` at end-of-stream (peer closed the connection).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, or [`io::ErrorKind::InvalidData`]
    /// if the peer sent bytes that are not UTF-8.
    fn recv(&mut self) -> io::Result<Option<String>>;
}

/// [`Transport`] over any buffered reader / writer pair.
///
/// The concrete fleet instantiations are [`stdio`] (a node's own stdin
/// and stdout) and [`tcp_connect`]/[`tcp_accept`] (a cloned TCP stream
/// for each direction), but tests can pair any in-memory streams.
#[derive(Debug)]
pub struct LineTransport<R, W> {
    reader: R,
    writer: W,
}

impl<R: BufRead, W: Write> LineTransport<R, W> {
    /// Wraps an already-buffered reader and a writer.
    pub fn new(reader: R, writer: W) -> Self {
        LineTransport { reader, writer }
    }
}

impl<R, W> Transport for LineTransport<R, W>
where
    R: BufRead + Send,
    W: Write + Send,
{
    fn send(&mut self, msg: &str) -> io::Result<()> {
        debug_assert!(
            !msg.contains('\n'),
            "a frame must be a single line; escape newlines in the payload"
        );
        self.writer.write_all(msg.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Ok(None),
            _ => {
                if line.ends_with('\n') {
                    line.pop();
                }
                Ok(Some(line))
            }
        }
    }
}

/// The transport a node binary uses toward the driver that spawned it:
/// messages in on stdin, messages out on stdout. Anything the node wants
/// a human to see goes to stderr, which the driver leaves alone.
#[must_use]
pub fn stdio() -> LineTransport<BufReader<io::Stdin>, io::Stdout> {
    LineTransport::new(BufReader::new(io::stdin()), io::stdout())
}

/// Connects to a listening peer (the TCP flavor of the fleet).
///
/// `TCP_NODELAY` is set: frames are single small writes and the driver's
/// request/response discipline would otherwise stall on Nagle delays.
///
/// # Errors
///
/// Propagates connection errors.
pub fn tcp_connect(
    addr: impl ToSocketAddrs,
) -> io::Result<LineTransport<BufReader<TcpStream>, TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok(LineTransport::new(reader, stream))
}

/// Why an accept with a deadline did not produce a connection.
///
/// The driver spawns a node and then waits for it to dial back; a node
/// that crashes before connecting must surface as this typed error, not
/// as a driver hung in `accept(2)` forever.
#[derive(Debug)]
pub enum AcceptError {
    /// No peer connected within the deadline.
    Timeout {
        /// How long the call waited before giving up.
        waited: Duration,
    },
    /// The listener itself failed.
    Io(io::Error),
}

impl std::fmt::Display for AcceptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcceptError::Timeout { waited } => {
                write!(f, "no inbound connection within {} ms", waited.as_millis())
            }
            AcceptError::Io(e) => write!(f, "accept failed: {e}"),
        }
    }
}

impl std::error::Error for AcceptError {}

impl From<io::Error> for AcceptError {
    fn from(e: io::Error) -> Self {
        AcceptError::Io(e)
    }
}

/// Accepts one inbound connection on `listener`, waiting at most
/// `timeout`. The raw-stream flavor of [`tcp_accept`], for callers (the
/// multiplexed driver) that hand the stream to a
/// [`crate::poll::PollTransport`] instead of framing it here.
///
/// A helper thread makes one blocking `accept` while the caller waits on
/// its channel, so the call returns as soon as a peer connects. On
/// timeout the caller dials the listener itself to release the helper
/// and closes that connection. A peer that connects in the same instant
/// wins the helper's `accept` and is returned instead; the closed
/// release connection then stays queued on the listener. The listener
/// is left in blocking mode.
///
/// # Errors
///
/// [`AcceptError::Timeout`] if no peer connects in time, otherwise the
/// listener's I/O error.
pub fn tcp_accept_stream(
    listener: &TcpListener,
    timeout: Duration,
) -> Result<TcpStream, AcceptError> {
    let start = Instant::now();
    let clone = listener.try_clone()?;
    clone.set_nonblocking(false)?;
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(clone.accept().map(|(stream, _peer)| stream));
    });
    let (accepted, release) = match rx.recv_timeout(timeout) {
        Ok(accepted) => (accepted, None),
        Err(_) => {
            // If this dial fails, the helper stays blocked on its clone.
            let release = TcpStream::connect(listener.local_addr()?)?;
            let accepted = rx
                .recv()
                .map_err(|_| io::Error::other("accept helper exited without a result"))?;
            (accepted, Some(release))
        }
    };
    helper
        .join()
        .map_err(|_| io::Error::other("accept helper panicked"))?;
    let stream = accepted?;
    if let Some(release) = release {
        if stream.peer_addr()? == release.local_addr()? {
            return Err(AcceptError::Timeout {
                waited: start.elapsed(),
            });
        }
    }
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Accepts one inbound connection on `listener`, waiting at most
/// `timeout`.
///
/// # Errors
///
/// [`AcceptError::Timeout`] if no peer connects within the deadline —
/// a node that died before dialing back must not hang the driver —
/// otherwise the underlying accept/clone error.
pub fn tcp_accept(
    listener: &TcpListener,
    timeout: Duration,
) -> Result<LineTransport<BufReader<TcpStream>, TcpStream>, AcceptError> {
    let stream = tcp_accept_stream(listener, timeout)?;
    let reader = BufReader::new(stream.try_clone().map_err(AcceptError::Io)?);
    Ok(LineTransport::new(reader, stream))
}

/// An in-memory transport half for tests: what one side writes, the
/// other reads. Build a pair with [`loopback`].
pub type MemTransport = LineTransport<BufReader<ChanReader>, ChanWriter>;

/// Reader half of an in-memory byte channel (see [`loopback`]).
#[derive(Debug)]
pub struct ChanReader {
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

/// Writer half of an in-memory byte channel (see [`loopback`]).
#[derive(Debug)]
pub struct ChanWriter {
    tx: std::sync::mpsc::Sender<Vec<u8>>,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // all writers dropped: EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for ChanWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))?;
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A connected pair of in-memory transports: frames sent on one side
/// arrive at the other, in order, with pipe-like EOF when a side drops.
#[must_use]
pub fn loopback() -> (MemTransport, MemTransport) {
    let (tx_ab, rx_ab) = std::sync::mpsc::channel();
    let (tx_ba, rx_ba) = std::sync::mpsc::channel();
    let a = LineTransport::new(
        BufReader::new(ChanReader {
            rx: rx_ba,
            buf: Vec::new(),
            pos: 0,
        }),
        ChanWriter { tx: tx_ab },
    );
    let b = LineTransport::new(
        BufReader::new(ChanReader {
            rx: rx_ab,
            buf: Vec::new(),
            pos: 0,
        }),
        ChanWriter { tx: tx_ba },
    );
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn loopback_roundtrips_frames_in_order() {
        let (mut a, mut b) = loopback();
        a.send("{\"x\":1}").unwrap();
        a.send("").unwrap();
        a.send("second").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some("{\"x\":1}"));
        assert_eq!(b.recv().unwrap().as_deref(), Some(""));
        assert_eq!(b.recv().unwrap().as_deref(), Some("second"));
        b.send("reply").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some("reply"));
    }

    #[test]
    fn dropping_the_peer_yields_eof() {
        let (a, mut b) = loopback();
        drop(a);
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn tcp_pair_roundtrips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let mut server = tcp_accept(&listener, std::time::Duration::from_secs(10)).unwrap();
            let got = server.recv().unwrap().unwrap();
            server.send(&format!("echo:{got}")).unwrap();
        });
        let mut client = tcp_connect(addr).unwrap();
        client.send("hello").unwrap();
        assert_eq!(client.recv().unwrap().as_deref(), Some("echo:hello"));
        join.join().unwrap();
    }

    #[test]
    fn tcp_accept_times_out_when_no_peer_connects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let started = std::time::Instant::now();
        match tcp_accept(&listener, std::time::Duration::from_millis(50)) {
            Err(AcceptError::Timeout { waited }) => {
                assert!(waited >= std::time::Duration::from_millis(50));
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(5),
                    "the wait must be bounded by the deadline, not unbounded"
                );
            }
            Ok(_) => panic!("no peer exists, accept cannot succeed"),
            Err(other) => panic!("expected Timeout, got {other}"),
        }
        // The listener is restored to blocking mode and still usable.
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let mut client = tcp_connect(addr).unwrap();
            client.send("late").unwrap();
        });
        let mut server = tcp_accept(&listener, std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(server.recv().unwrap().as_deref(), Some("late"));
        join.join().unwrap();
    }

    #[test]
    fn json_documents_are_single_frames() {
        use twobit_obs::json::{obj, Json};
        let doc = obj([("text", Json::Str("line1\nline2\t\"q\"".into()))]);
        let rendered = doc.to_json();
        assert!(!rendered.contains('\n'), "compact JSON must be one line");
        let (mut a, mut b) = loopback();
        a.send(&rendered).unwrap();
        let back = twobit_obs::json::parse(&b.recv().unwrap().unwrap()).unwrap();
        assert_eq!(back, doc);
    }
}

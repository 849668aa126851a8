//! Multiplexed message I/O for the distributed driver.
//!
//! [`super::transport`] gives the fleet its framing: one JSON document
//! per `\n`-terminated line over a byte stream. A
//! [`super::transport::Transport`] is one blocking request/response
//! pipe, so a driver built on it keeps one exchange in flight and its
//! wall clock is the sum of every round trip. A [`PollTransport`] owns
//! **all** node connections at once, so a single driver thread can start
//! many exchanges, let the peers compute concurrently, and still
//! *consume* the replies in a deterministic order of its own choosing
//! (the property DESIGN.md §9 leans on).
//!
//! # Model
//!
//! * **Registration** hands a connection to the transport and returns a
//!   [`Token`]. A TCP stream stays in blocking mode and is read
//!   directly. A pipe-like stream (a child's stdout, for which `std`
//!   offers no read timeout) is read by a small pump thread that
//!   forwards each chunk into a channel of its own.
//! * **Sends** are one blocking `write_all` per frame.
//! * **Waits are per connection.** [`PollTransport::recv_deadline`]
//!   blocks on the awaited connection only: a `read` bounded by the
//!   socket's read timeout, or a `recv_timeout` on the pump channel. It
//!   wakes when that connection produces bytes, reaches EOF, or runs out
//!   of time, and on nothing else.
//!
//! Waiting on one connection loses nothing. The driver consumes replies
//! in its own `seq` order, and each connection is FIFO: a reply for
//! another connection waits in that connection's kernel socket buffer or
//! pump channel, neither lost nor reordered, until the driver asks for
//! it. Bytes are split into frames per connection, so a fragment is never
//! spliced into another connection's frame.
//!
//! Blocking writes cannot deadlock a driver that keeps at most one batch
//! outstanding per node, as `twobit-dist`'s does. A node reads one
//! request, writes one reply and reads again. Over pipes the pump thread
//! drains the node's stdout whether or not the driver is waiting, so the
//! node never stalls on a reply and always returns to read the next
//! request. Over TCP one batch is a few small frames each way, far below
//! the socket buffers, so neither side's write can fill them before the
//! driver starts reading.
//!
//! A peer that never answers surfaces as the typed [`PollError::Timeout`]
//! rather than a hung driver, and a peer that sends more than
//! [`MAX_FRAME_LEN`] bytes without a `\n` as [`PollError::FrameTooLong`]
//! rather than an input buffer grown without bound.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// The longest frame a peer may send, in bytes, excluding its `\n`.
///
/// A checkpoint (`CheckpointOk`, and the `Restore` that echoes it) is
/// the largest frame the fleet sends; it grows by about 50 bytes per
/// completed client transaction, so 16 MiB holds some 300,000 of them.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Identifies one registered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(usize);

/// What [`PollTransport::recv_deadline`] can fail with.
#[derive(Debug)]
pub enum PollError {
    /// The peer produced no frame within the deadline.
    Timeout {
        /// How long the call waited before giving up.
        waited: Duration,
    },
    /// The peer sent more than [`MAX_FRAME_LEN`] bytes without ending
    /// the frame. The connection is unusable afterwards.
    FrameTooLong {
        /// How many bytes of the frame had arrived.
        len: usize,
    },
    /// The underlying stream failed.
    Io(io::Error),
    /// The token does not name a live registration.
    Unregistered,
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollError::Timeout { waited } => {
                write!(f, "no frame within {} ms", waited.as_millis())
            }
            PollError::FrameTooLong { len } => {
                write!(f, "frame of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            PollError::Io(e) => write!(f, "i/o error: {e}"),
            PollError::Unregistered => f.write_str("connection is not registered"),
        }
    }
}

impl std::error::Error for PollError {}

impl From<io::Error> for PollError {
    fn from(e: io::Error) -> Self {
        PollError::Io(e)
    }
}

/// Where a connection's inbound bytes come from.
enum Feed {
    /// A blocking TCP stream, read directly under a read timeout.
    Tcp(TcpStream),
    /// A blocking byte stream read by a dedicated pump thread; waits
    /// block on the thread's channel, never on the stream.
    Pumped(Receiver<io::Result<Vec<u8>>>),
}

struct Conn {
    feed: Feed,
    /// The write half: a clone of the TCP stream, or the child's stdin.
    sink: Box<dyn Write + Send>,
    /// Inbound bytes after the last complete frame; never holds a `\n`.
    inbuf: Vec<u8>,
    /// Complete frames awaiting consumption.
    frames: VecDeque<String>,
    eof: bool,
}

impl Conn {
    fn new(feed: Feed, sink: Box<dyn Write + Send>) -> Self {
        Conn {
            feed,
            sink,
            inbuf: Vec::new(),
            frames: VecDeque::new(),
            eof: false,
        }
    }

    /// Waits up to `timeout` for the next inbound bytes and splits off
    /// the frames they complete. Returns with nothing new on a timeout.
    fn fill(&mut self, timeout: Duration) -> Result<(), PollError> {
        let scanned = self.inbuf.len();
        match &mut self.feed {
            Feed::Tcp(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                let mut chunk = [0u8; 8192];
                match stream.read(&mut chunk) {
                    Ok(0) => self.eof = true,
                    Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock
                                | io::ErrorKind::TimedOut
                                | io::ErrorKind::Interrupted
                        ) =>
                    {
                        return Ok(())
                    }
                    // A peer killed mid-exchange (crash injection)
                    // resets rather than closes; treat it as EOF.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionReset => self.eof = true,
                    Err(e) => return Err(e.into()),
                }
            }
            Feed::Pumped(rx) => match rx.recv_timeout(timeout) {
                Ok(Ok(chunk)) => self.inbuf.extend_from_slice(&chunk),
                Ok(Err(e)) => return Err(e.into()),
                Err(RecvTimeoutError::Timeout) => return Ok(()),
                Err(RecvTimeoutError::Disconnected) => self.eof = true,
            },
        }
        self.harvest(scanned)
    }

    /// Splits off every frame completed by the bytes from `scanned` on
    /// (the bytes before it hold no `\n`), draining `inbuf` once.
    fn harvest(&mut self, scanned: usize) -> Result<(), PollError> {
        let mut start = 0;
        let mut from = scanned;
        while let Some(off) = self.inbuf[from..].iter().position(|&b| b == b'\n') {
            let end = from + off;
            self.push_frame(start, end)?;
            start = end + 1;
            from = start;
        }
        self.inbuf.drain(..start);
        if self.eof && !self.inbuf.is_empty() {
            // A trailing unterminated line at EOF is delivered as a
            // final frame, matching `LineTransport::recv`.
            self.push_frame(0, self.inbuf.len())?;
            self.inbuf.clear();
        }
        if self.inbuf.len() > MAX_FRAME_LEN {
            return Err(PollError::FrameTooLong {
                len: self.inbuf.len(),
            });
        }
        Ok(())
    }

    fn push_frame(&mut self, start: usize, end: usize) -> Result<(), PollError> {
        let line = &self.inbuf[start..end];
        if line.len() > MAX_FRAME_LEN {
            return Err(PollError::FrameTooLong { len: line.len() });
        }
        let frame = std::str::from_utf8(line)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
        self.frames.push_back(frame.to_owned());
        Ok(())
    }
}

/// One driver thread's window onto every node connection at once.
///
/// See the module docs for the model. [`PollTransport::recv_deadline`]
/// bounds its wait and fails with the typed [`PollError::Timeout`].
#[derive(Default)]
pub struct PollTransport {
    conns: Vec<Option<Conn>>,
}

impl PollTransport {
    /// An empty transport with no registrations.
    #[must_use]
    pub fn new() -> Self {
        PollTransport::default()
    }

    fn slot(&mut self, conn: Conn) -> Token {
        for (i, s) in self.conns.iter_mut().enumerate() {
            if s.is_none() {
                *s = Some(conn);
                return Token(i);
            }
        }
        self.conns.push(Some(conn));
        Token(self.conns.len() - 1)
    }

    fn conn_mut(&mut self, t: Token) -> Result<&mut Conn, PollError> {
        self.conns
            .get_mut(t.0)
            .and_then(Option::as_mut)
            .ok_or(PollError::Unregistered)
    }

    /// Registers a TCP connection, in blocking mode with `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking`/`set_nodelay`/`try_clone` failures.
    pub fn register_tcp(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(self.slot(Conn::new(Feed::Tcp(stream), Box::new(write_half))))
    }

    /// Registers a pipe-like connection: `reader` is handed to a pump
    /// thread, `writer` is written directly.
    pub fn register_pipe<R, W>(&mut self, reader: R, writer: W) -> Token
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || pump(reader, &tx));
        self.slot(Conn::new(Feed::Pumped(rx), Box::new(writer)))
    }

    /// Drops a registration (e.g. after killing the peer). Buffered
    /// frames are discarded; a pump thread, if any, exits on its next
    /// read returning EOF.
    pub fn deregister(&mut self, t: Token) {
        if let Some(slot) = self.conns.get_mut(t.0) {
            *slot = None;
        }
    }

    /// Writes one frame to the peer, blocking until the sink takes it.
    ///
    /// # Errors
    ///
    /// [`PollError::Unregistered`] for a dead token, otherwise the
    /// sink's I/O error. `msg` must not contain `\n` (asserted in debug
    /// builds, same contract as `LineTransport::send`).
    pub fn send(&mut self, t: Token, msg: &str) -> Result<(), PollError> {
        debug_assert!(
            !msg.contains('\n'),
            "a frame must be a single line; escape newlines in the payload"
        );
        let conn = self.conn_mut(t)?;
        conn.sink.write_all(&[msg.as_bytes(), b"\n"].concat())?;
        conn.sink.flush()?;
        Ok(())
    }

    /// Receives the next frame on `t`, blocking on that connection alone
    /// (other connections keep their bytes, in order, until asked).
    /// Returns `Ok(None)` at end-of-stream.
    ///
    /// # Errors
    ///
    /// [`PollError::Timeout`] if no frame (and no EOF) arrives within
    /// `timeout`; [`PollError::FrameTooLong`] for an over-long frame;
    /// I/O errors otherwise.
    pub fn recv_deadline(
        &mut self,
        t: Token,
        timeout: Duration,
    ) -> Result<Option<String>, PollError> {
        let start = Instant::now();
        let conn = self.conn_mut(t)?;
        loop {
            if let Some(frame) = conn.frames.pop_front() {
                return Ok(Some(frame));
            }
            if conn.eof {
                return Ok(None);
            }
            let waited = start.elapsed();
            match timeout.checked_sub(waited).filter(|r| !r.is_zero()) {
                Some(remaining) => conn.fill(remaining)?,
                None => return Err(PollError::Timeout { waited }),
            }
        }
    }
}

/// Body of a pipe pump thread: blocking reads forwarded as chunks until
/// EOF or error; dropping the sender signals EOF to the waiting driver.
fn pump<R: Read>(mut reader: R, tx: &Sender<io::Result<Vec<u8>>>) {
    let mut chunk = [0u8; 8192];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if tx.send(Ok(chunk[..n].to_vec())).is_err() {
                    return; // deregistered
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An in-memory blocking reader fed by a channel (pipe stand-in).
    struct TestReader(Receiver<Vec<u8>>);
    impl Read for TestReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.recv() {
                Ok(chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    assert!(n == chunk.len(), "test chunks fit the buffer");
                    Ok(n)
                }
                Err(_) => Ok(0),
            }
        }
    }

    struct TestWriter(Sender<Vec<u8>>);
    impl Write for TestWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0
                .send(bytes.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))?;
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const DEADLINE: Duration = Duration::from_secs(5);

    #[test]
    fn frames_multiplex_across_pipe_connections() {
        let mut poll = PollTransport::new();
        let (in_a, rx_a) = std::sync::mpsc::channel();
        let (in_b, rx_b) = std::sync::mpsc::channel();
        let (out_a, _keep_a) = std::sync::mpsc::channel();
        let (out_b, _keep_b) = std::sync::mpsc::channel();
        let a = poll.register_pipe(TestReader(rx_a), TestWriter(out_a));
        let b = poll.register_pipe(TestReader(rx_b), TestWriter(out_b));

        // B's frames arrive first; a wait on A must not lose them, and
        // per-connection order must hold.
        in_b.send(b"b1\nb2\n".to_vec()).unwrap();
        in_a.send(b"a1\n".to_vec()).unwrap();
        let got = poll.recv_deadline(a, DEADLINE).unwrap().unwrap();
        assert_eq!(got, "a1");
        assert_eq!(
            poll.recv_deadline(b, DEADLINE).unwrap().as_deref(),
            Some("b1")
        );
        assert_eq!(
            poll.recv_deadline(b, DEADLINE).unwrap().as_deref(),
            Some("b2")
        );
        assert!(matches!(
            poll.recv_deadline(b, Duration::from_millis(20)),
            Err(PollError::Timeout { .. })
        ));
    }

    #[test]
    fn split_frames_reassemble() {
        let mut poll = PollTransport::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        tx.send(b"{\"half\":".to_vec()).unwrap();
        tx.send(b"1}\n{\"next\":2}\n".to_vec()).unwrap();
        assert_eq!(
            poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
            Some("{\"half\":1}")
        );
        assert_eq!(
            poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
            Some("{\"next\":2}")
        );
    }

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        let mut poll = PollTransport::new();
        let (_tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        let started = Instant::now();
        match poll.recv_deadline(t, Duration::from_millis(30)) {
            Err(PollError::Timeout { waited }) => {
                assert!(waited >= Duration::from_millis(30));
                assert!(started.elapsed() < Duration::from_secs(5), "bounded wait");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn peer_eof_yields_none_and_trailing_line_is_delivered() {
        let mut poll = PollTransport::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        tx.send(b"last-without-newline".to_vec()).unwrap();
        drop(tx);
        assert_eq!(
            poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
            Some("last-without-newline")
        );
        assert_eq!(poll.recv_deadline(t, DEADLINE).unwrap(), None);
    }

    #[test]
    fn deregistered_token_is_a_typed_error() {
        let mut poll = PollTransport::new();
        let (_tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        poll.deregister(t);
        assert!(matches!(
            poll.recv_deadline(t, Duration::from_millis(10)),
            Err(PollError::Unregistered)
        ));
        assert!(matches!(poll.send(t, "x"), Err(PollError::Unregistered)));
    }

    #[test]
    fn tcp_connections_poll_without_blocking_each_other() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Two echo peers that each wait for one inbound frame.
        let mut joins = Vec::new();
        for tag in ["one", "two"] {
            let join = std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut t = crate::transport::LineTransport::new(
                    std::io::BufReader::new(stream.try_clone().unwrap()),
                    stream,
                );
                use crate::transport::Transport;
                let got = t.recv().unwrap().unwrap();
                t.send(&format!("{tag}:{got}")).unwrap();
            });
            joins.push(join);
        }
        let mut poll = PollTransport::new();
        let (s1, _) = listener.accept().unwrap();
        let (s2, _) = listener.accept().unwrap();
        let t1 = poll.register_tcp(s1).unwrap();
        let t2 = poll.register_tcp(s2).unwrap();
        // Both exchanges in flight at once; consume in reverse order.
        poll.send(t1, "ping").unwrap();
        poll.send(t2, "ping").unwrap();
        let r2 = poll.recv_deadline(t2, DEADLINE).unwrap().unwrap();
        let r1 = poll.recv_deadline(t1, DEADLINE).unwrap().unwrap();
        // Peers are accepted in connect order but either may be s1.
        let mut got = [r1, r2];
        got.sort();
        let tails: Vec<&str> = got.iter().map(|s| s.as_str()).collect();
        assert_eq!(tails, ["one:ping", "two:ping"]);
        for j in joins {
            j.join().unwrap();
        }
    }
}

//! Frame-reassembly and connection edge cases for the multiplexed poll
//! transport — the boundaries the in-module unit tests do not reach: a
//! partial frame cut off by TCP EOF, partial frames interleaved across
//! two connections, a single frame wider than one 8 KiB intake read, the
//! frame-length cap, a TCP read timeout, and a TCP peer reset.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use twobit_interconnect::poll::{PollError, PollTransport, Token, MAX_FRAME_LEN};

/// A blocking reader fed by a channel — stands in for a child's stdout.
/// Chunks larger than the caller's buffer are carried over, so tests
/// may push arbitrarily large writes.
struct ChanReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
}

impl ChanReader {
    fn new(rx: Receiver<Vec<u8>>) -> Self {
        ChanReader {
            rx,
            pending: Vec::new(),
        }
    }
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(chunk) => self.pending = chunk,
                Err(_) => return Ok(0), // sender dropped: EOF
            }
        }
        let n = self.pending.len().min(out.len());
        out[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// Outbound half of the pipe stand-in; these tests never read it back.
struct ChanWriter(Sender<Vec<u8>>);

impl Write for ChanWriter {
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

const DEADLINE: Duration = Duration::from_secs(10);

/// A peer that dies mid-frame over TCP: one complete frame, then a
/// partial line cut off by the write-side shutdown. The complete frame
/// arrives intact, the unterminated tail is delivered as a final frame
/// (matching `LineTransport::recv`), and the stream then reports EOF.
#[test]
fn tcp_partial_frame_at_eof_is_delivered_before_eof() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"complete\npartial-tail").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Hold the read half open so the driver sees EOF, not a reset.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });

    let mut poll = PollTransport::new();
    let (stream, _) = listener.accept().unwrap();
    let t = poll.register_tcp(stream).unwrap();
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("complete")
    );
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("partial-tail")
    );
    assert_eq!(poll.recv_deadline(t, DEADLINE).unwrap(), None);
    poll.deregister(t);
    peer.join().unwrap();
}

/// Two connections each trickling a frame in fragments, arrivals
/// interleaved. Per-connection input buffers must keep the fragments
/// apart: each frame reassembles from its own connection's bytes only,
/// and a fragment for B arriving mid-wait on A is neither lost nor
/// spliced into A's frame.
#[test]
fn interleaved_partial_frames_stay_per_connection() {
    let mut poll = PollTransport::new();
    let (in_a, rx_a) = std::sync::mpsc::channel();
    let (in_b, rx_b) = std::sync::mpsc::channel();
    let (out_a, _keep_a) = std::sync::mpsc::channel();
    let (out_b, _keep_b) = std::sync::mpsc::channel();
    let a = poll.register_pipe(ChanReader::new(rx_a), ChanWriter(out_a));
    let b = poll.register_pipe(ChanReader::new(rx_b), ChanWriter(out_b));

    // A and B alternate fragments; neither frame is complete until the
    // fourth send, and B's completes first.
    in_a.send(b"alpha-".to_vec()).unwrap();
    in_b.send(b"beta-".to_vec()).unwrap();
    in_b.send(b"two\nb-next-".to_vec()).unwrap();
    in_a.send(b"one\n".to_vec()).unwrap();

    assert_eq!(
        poll.recv_deadline(a, DEADLINE).unwrap().as_deref(),
        Some("alpha-one")
    );
    // B's completed frame was buffered while the driver waited on A.
    assert_eq!(
        poll.recv_deadline(b, DEADLINE).unwrap().as_deref(),
        Some("beta-two")
    );
    // B's trailing fragment is still pending, not a frame.
    assert!(matches!(
        poll.recv_deadline(b, Duration::from_millis(30)),
        Err(PollError::Timeout { .. })
    ));
    in_b.send(b"frame\n".to_vec()).unwrap();
    assert_eq!(
        poll.recv_deadline(b, DEADLINE).unwrap().as_deref(),
        Some("b-next-frame")
    );
}

/// One frame far wider than the transport's 8 KiB intake buffer, sent
/// over TCP so the transport must stitch it together across many reads
/// (the sender is pushing through a real socket). A small frame behind
/// it proves the split leaves no residue.
#[test]
fn tcp_frame_larger_than_one_read_buffer_reassembles() {
    let payload = "0123456789abcdef".repeat(6 * 1024); // 96 KiB, ≥ 12 intake-buffer fills
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = payload.clone();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(sent.as_bytes()).unwrap();
        stream.write_all(b"\nsmall\n").unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });

    let mut poll = PollTransport::new();
    let (stream, _) = listener.accept().unwrap();
    let t = poll.register_tcp(stream).unwrap();
    let big = poll.recv_deadline(t, DEADLINE).unwrap().unwrap();
    assert_eq!(big.len(), payload.len());
    assert_eq!(big, payload);
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("small")
    );
    poll.deregister(t);
    peer.join().unwrap();
}

/// The same over-wide frame through the pumped-pipe path: the pump
/// thread's own 8 KiB chunking must not split or reorder bytes within
/// a connection.
#[test]
fn pipe_frame_larger_than_one_read_buffer_reassembles() {
    let payload = "fedcba9876543210".repeat(2 * 1024); // 32 KiB
    let mut poll = PollTransport::new();
    let (tx, rx) = std::sync::mpsc::channel();
    let (out, _keep) = std::sync::mpsc::channel();
    let t = poll.register_pipe(ChanReader::new(rx), ChanWriter(out));
    tx.send(format!("{payload}\n").into_bytes()).unwrap();
    let big = poll.recv_deadline(t, DEADLINE).unwrap().unwrap();
    assert_eq!(big, payload);
}

/// A pipe peer that streams `len` bytes of one frame, then `tail`.
fn register_streaming_peer(
    poll: &mut PollTransport,
    len: usize,
    tail: impl Read + Send + 'static,
) -> Token {
    let reader = io::repeat(b'x').take(len as u64).chain(tail);
    poll.register_pipe(reader, ChanWriter(std::sync::mpsc::channel().0))
}

/// The longest legal frame is delivered whole, and the stream then ends
/// cleanly.
#[test]
fn frame_at_the_length_cap_is_delivered() {
    let mut poll = PollTransport::new();
    let t = register_streaming_peer(&mut poll, MAX_FRAME_LEN, &b"\n"[..]);
    let frame = poll.recv_deadline(t, DEADLINE).unwrap().unwrap();
    assert_eq!(frame.len(), MAX_FRAME_LEN);
    assert!(frame.bytes().all(|b| b == b'x'));
    assert_eq!(poll.recv_deadline(t, DEADLINE).unwrap(), None);
}

/// One byte over the cap is a typed error, both when the peer ends the
/// frame and when it goes quiet mid-frame without closing: the input
/// buffer stops at the cap instead of waiting for the rest.
#[test]
fn frame_over_the_length_cap_is_a_typed_error() {
    let (_open, silent) = std::sync::mpsc::channel();
    let tails: [Box<dyn Read + Send>; 2] =
        [Box::new(&b"\n"[..]), Box::new(ChanReader::new(silent))];
    for tail in tails {
        let mut poll = PollTransport::new();
        let t = register_streaming_peer(&mut poll, MAX_FRAME_LEN + 1, tail);
        match poll.recv_deadline(t, DEADLINE) {
            Err(PollError::FrameTooLong { len }) => {
                assert!(len > MAX_FRAME_LEN);
                assert!(len <= MAX_FRAME_LEN + 8192, "caught within one read");
            }
            other => panic!("expected FrameTooLong, got {other:?}"),
        }
    }
}

/// Over TCP the wait is the socket's read timeout: a peer that sends only
/// a fragment yields the typed `Timeout` after the deadline, and the
/// connection stays usable — the fragment is kept and completes later.
#[test]
fn tcp_recv_deadline_times_out_with_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (go, wait) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"frag").unwrap();
        wait.recv().unwrap();
        stream.write_all(b"ment\n").unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });

    let mut poll = PollTransport::new();
    let (stream, _) = listener.accept().unwrap();
    let t = poll.register_tcp(stream).unwrap();
    let started = Instant::now();
    match poll.recv_deadline(t, Duration::from_millis(50)) {
        Err(PollError::Timeout { waited }) => {
            assert!(waited >= Duration::from_millis(50));
            assert!(started.elapsed() < Duration::from_secs(5), "bounded wait");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    go.send(()).unwrap();
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("fragment")
    );
    poll.deregister(t);
    peer.join().unwrap();
}

/// A TCP peer killed mid-exchange closes with the request unread, so its
/// kernel resets the connection instead of closing it. The driver must
/// read that as end-of-stream, as it does a clean close.
#[test]
fn tcp_peer_reset_mid_exchange_reads_as_eof() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        // Wait until the request has arrived, then die without reading it.
        let mut probe = [0u8; 1];
        assert_eq!(stream.peek(&mut probe).unwrap(), 1);
    });

    let mut poll = PollTransport::new();
    let (stream, _) = listener.accept().unwrap();
    let t = poll.register_tcp(stream).unwrap();
    poll.send(t, "request").unwrap();
    peer.join().unwrap();
    assert_eq!(poll.recv_deadline(t, DEADLINE).unwrap(), None);
}

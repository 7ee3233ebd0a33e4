//! Connection framing shared by the daemon and by front ends that proxy
//! the protocol (the `gana-shard` router).
//!
//! A [`Transport`] turns one accepted [`TcpStream`] into a stream of parsed
//! [`Request`]s and a sink of [`Response`]s. Two implementations carry the
//! same surface: [`TextTransport`] (newline-delimited, see
//! [`crate::protocol`]) and [`BinaryTransport`] (length-prefixed CRC-checked
//! frames, see [`crate::frame`]). [`accept_transport`] auto-detects the mode
//! from the first byte of the connection — the frame magic `0xBF` can never
//! start a text verb — so one listening port serves both kinds of client.
//!
//! All reads poll a caller-owned stop flag every [`POLL`], so an idle or
//! half-dead connection never keeps a draining server alive.
//!
//! Every stream the serving stack opens or accepts sets `TCP_NODELAY`
//! (here and in [`crate::client`]): a request or reply group is several
//! frames written back to back, and with Nagle's algorithm on, each frame
//! after the first waits for the peer's delayed ACK (~40 ms) before it
//! leaves.

use crate::frame;
use crate::protocol::{Request, Response};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often blocked reads re-check the stop flag.
pub const POLL: Duration = Duration::from_millis(50);

/// Turns Nagle's algorithm off on a serve-protocol stream.
///
/// Writers keep one encoded frame (or text line) per `write_all`, and
/// nothing buffers between frames, so each frame leaves as soon as it is
/// written instead of waiting behind unacknowledged data for the peer's
/// delayed ACK.
pub(crate) fn set_nodelay(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Wakes an accept loop blocked on the listener bound at `addr`, after its
/// stop flag was raised: one throwaway connection makes the blocking
/// `accept` return so the loop re-checks the flag. An unspecified bind
/// address (`0.0.0.0`, `::`) is dialed on loopback. Errors are ignored:
/// a listener that is already gone needs no wake-up.
pub fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// What a transport's request read produced.
pub enum ReadRequest {
    /// A well-formed request.
    Request(Request),
    /// The peer sent something unparseable: report `message`; when `fatal`
    /// (binary framing lost sync) the connection closes after the report.
    Bad {
        /// Human-readable description of what failed to parse.
        message: String,
        /// True when the byte stream has lost sync and must close.
        fatal: bool,
    },
    /// Clean close at a message boundary.
    Closed,
    /// The stop flag was raised while waiting.
    Stopping,
    /// Socket-level failure.
    Error(io::Error),
}

/// One protocol mode: how requests come off the socket and how responses go
/// back. Dispatch logic is the caller's; only the framing differs.
pub trait Transport {
    /// Blocks for the next request, polling `stop` every [`POLL`].
    fn read_request(&mut self, stop: &AtomicBool) -> ReadRequest;
    /// Writes one response in this transport's framing.
    fn write_response(&mut self, response: &Response) -> io::Result<()>;
}

/// Accepts a connection and returns the transport matching its first byte:
/// binary framing when it is the frame magic, text otherwise. Returns
/// `None` when the peer closes before sending anything or the stop flag is
/// raised while waiting. Installs the [`POLL`] read timeout and sets
/// `TCP_NODELAY` as side effects.
pub fn accept_transport(
    stream: TcpStream,
    stop: &AtomicBool,
) -> io::Result<Option<Box<dyn Transport + Send>>> {
    set_nodelay(&stream)?;
    stream.set_read_timeout(Some(POLL))?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Protocol auto-detect: peek (without consuming) the first byte. The
    // binary frame magic cannot start a text verb, so one byte decides.
    let first = loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(None), // closed before the first request
            Ok(buf) => break buf[0],
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(err) => return Err(err),
        }
    };
    if first == frame::FRAME_MAGIC {
        Ok(Some(Box::new(BinaryTransport { reader, writer })))
    } else {
        Ok(Some(Box::new(TextTransport {
            reader,
            writer,
            line: String::new(),
        })))
    }
}

/// Legacy newline-delimited text framing.
pub struct TextTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Transport for TextTransport {
    fn read_request(&mut self, stop: &AtomicBool) -> ReadRequest {
        self.line.clear();
        loop {
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return ReadRequest::Closed,
                Ok(_) => {
                    // A timeout can split a line; keep reading to newline.
                    if self.line.ends_with('\n') {
                        return match Request::parse(&self.line) {
                            Ok(request) => ReadRequest::Request(request),
                            Err(err) => ReadRequest::Bad {
                                message: err.0,
                                fatal: false,
                            },
                        };
                    }
                }
                Err(err)
                    if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return ReadRequest::Stopping;
                    }
                }
                Err(err) => return ReadRequest::Error(err),
            }
        }
    }

    fn write_response(&mut self, response: &Response) -> io::Result<()> {
        let mut line = response.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }
}

/// Length-prefixed, CRC-checked binary framing (see [`crate::frame`]).
pub struct BinaryTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

enum FillOutcome {
    Done,
    Closed,
    Stopping,
    Error(io::Error),
}

impl BinaryTransport {
    /// Fills `buf` completely, waking every [`POLL`] to check the stop
    /// flag. `Closed` is only clean when nothing was read yet.
    fn read_exact_polling(&mut self, mut buf: &mut [u8], stop: &AtomicBool) -> FillOutcome {
        let whole = buf.len();
        while !buf.is_empty() {
            match self.reader.read(buf) {
                Ok(0) => {
                    return if buf.len() == whole {
                        FillOutcome::Closed
                    } else {
                        FillOutcome::Error(io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => buf = &mut buf[n..],
                Err(err)
                    if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return FillOutcome::Stopping;
                    }
                }
                Err(err) => return FillOutcome::Error(err),
            }
        }
        FillOutcome::Done
    }
}

impl Transport for BinaryTransport {
    fn read_request(&mut self, stop: &AtomicBool) -> ReadRequest {
        let mut header = [0u8; frame::HEADER_BYTES];
        match self.read_exact_polling(&mut header, stop) {
            FillOutcome::Done => {}
            FillOutcome::Closed => return ReadRequest::Closed,
            FillOutcome::Stopping => return ReadRequest::Stopping,
            FillOutcome::Error(err) => return ReadRequest::Error(err),
        }
        let len = match frame::check_header(&header) {
            Ok(len) => len,
            Err(err) => {
                return ReadRequest::Bad {
                    message: err.to_string(),
                    fatal: true,
                }
            }
        };
        let mut body = vec![0u8; len];
        let mut crc = [0u8; 4];
        for buf in [body.as_mut_slice(), crc.as_mut_slice()] {
            match self.read_exact_polling(buf, stop) {
                FillOutcome::Done => {}
                FillOutcome::Closed | FillOutcome::Stopping => return ReadRequest::Stopping,
                FillOutcome::Error(err) => return ReadRequest::Error(err),
            }
        }
        if let Err(err) = frame::check_crc(&body, &crc) {
            return ReadRequest::Bad {
                message: err.to_string(),
                fatal: true,
            };
        }
        match frame::decode_request(&body) {
            Ok(request) => ReadRequest::Request(request),
            // The frame itself was intact, so the stream is still in sync:
            // only this request fails.
            Err(err) => ReadRequest::Bad {
                message: err.to_string(),
                fatal: false,
            },
        }
    }

    fn write_response(&mut self, response: &Response) -> io::Result<()> {
        self.writer.write_all(&frame::encode_response(response))
    }
}

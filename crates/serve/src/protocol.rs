//! The length-prefixed binary wire protocol spoken by `bnb serve`.
//!
//! Every message is a 4-byte big-endian body length followed by the body;
//! the body opens with a fixed 12-byte header (version byte, opcode byte,
//! big-endian tenant id and request id) and closes with an opcode-specific
//! payload. See DESIGN.md §14 for the full specification and a worked hex
//! example.
//!
//! Decoding is total: any byte sequence produces either a [`Message`] or a
//! typed [`WireError`] — never a panic and never an unbounded allocation
//! (the length prefix is validated against [`MAX_BODY`] *before* the body
//! is read).

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Protocol version carried in every message.
pub const VERSION: u8 = 1;

/// Fixed body header: version, opcode, tenant (u16), request id (u64).
pub const HEADER_LEN: usize = 12;

/// Largest record count a SUBMIT/ROUTED payload may carry.
pub const MAX_RECORDS: usize = 1 << 20;

/// Largest accepted body length: header + auth tag + count word +
/// `MAX_RECORDS` 4-byte records. Anything longer is rejected before
/// allocation.
pub const MAX_BODY: usize = HEADER_LEN + 8 + 4 + 4 * MAX_RECORDS;

/// Client → server: route one permutation frame.
pub const OP_SUBMIT: u8 = 0x01;
/// Server → client: the routed frame for an accepted SUBMIT.
pub const OP_ROUTED: u8 = 0x02;
/// Server → client: the frame was refused, re-offer later.
pub const OP_RETRY: u8 = 0x03;
/// Server → client: the frame (or the connection) failed.
pub const OP_ERROR: u8 = 0x04;
/// Client → server: begin a graceful drain (trusted-client admin op).
pub const OP_SHUTDOWN: u8 = 0x05;
/// Client → server: request a status report (empty payload).
pub const OP_STATUS: u8 = 0x06;
/// Server → client: the status report; the payload is a UTF-8 JSON
/// document with the same shape as the `/status` HTTP endpoint.
pub const OP_STATUS_REPORT: u8 = 0x07;
/// Client → server: route one permutation frame, authenticated — the
/// payload opens with an 8-byte SipHash-2-4 tag over the canonical
/// `(tenant, request_id, dests)` encoding under the tenant's shared key.
pub const OP_SUBMIT_TAGGED: u8 = 0x08;

/// Why a frame was pushed back with [`Message::Retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryReason {
    /// The server's global in-flight cap is reached.
    QueueFull,
    /// The tenant is at its in-flight quota.
    TenantQuota,
    /// The server is draining for shutdown.
    Draining,
    /// The connection's in-flight pipelining window is exhausted.
    WindowFull,
}

impl RetryReason {
    /// The wire byte for this reason.
    pub fn as_u8(self) -> u8 {
        match self {
            RetryReason::QueueFull => 1,
            RetryReason::TenantQuota => 2,
            RetryReason::Draining => 3,
            RetryReason::WindowFull => 4,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(RetryReason::QueueFull),
            2 => Ok(RetryReason::TenantQuota),
            3 => Ok(RetryReason::Draining),
            4 => Ok(RetryReason::WindowFull),
            got => Err(WireError::BadRetryReason { got }),
        }
    }
}

/// What kind of failure an [`Message::Error`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The frame failed validation or routing.
    Route,
    /// The connection violated the wire protocol.
    Protocol,
    /// The SUBMIT's authentication tag was missing or wrong for a server
    /// running with tenant keys.
    Auth,
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Route => 1,
            ErrorCode::Protocol => 2,
            ErrorCode::Auth => 3,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(ErrorCode::Route),
            2 => Ok(ErrorCode::Protocol),
            3 => Ok(ErrorCode::Auth),
            got => Err(WireError::BadErrorCode { got }),
        }
    }
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Route a permutation frame: `dests[i]` is input `i`'s destination.
    Submit {
        /// Submitting tenant.
        tenant: u16,
        /// Client-chosen id echoed back on the response.
        request_id: u64,
        /// Destination output per input line.
        dests: Vec<u32>,
    },
    /// Route a permutation frame with a keyed authentication tag (see
    /// [`OP_SUBMIT_TAGGED`]). Servers running in open mode treat it
    /// exactly like [`Message::Submit`]; keyed servers verify the tag.
    SubmitTagged {
        /// Submitting tenant.
        tenant: u16,
        /// Client-chosen id echoed back on the response.
        request_id: u64,
        /// SipHash-2-4 tag over the canonical `(tenant, request_id,
        /// dests)` encoding under the tenant's shared key.
        tag: u64,
        /// Destination output per input line.
        dests: Vec<u32>,
    },
    /// The routed frame: `sources[j]` is the input that arrived at
    /// output `j`.
    Routed {
        /// Tenant the frame belongs to.
        tenant: u16,
        /// The SUBMIT's request id.
        request_id: u64,
        /// Source input per output line.
        sources: Vec<u32>,
    },
    /// The frame was refused; the client may re-offer it later.
    Retry {
        /// Tenant the frame belongs to.
        tenant: u16,
        /// The SUBMIT's request id.
        request_id: u64,
        /// Why the frame was pushed back.
        reason: RetryReason,
    },
    /// The frame (or the connection) failed.
    Error {
        /// Tenant the failure belongs to (0 for connection-level).
        tenant: u16,
        /// The SUBMIT's request id (0 for connection-level).
        request_id: u64,
        /// Failure class.
        code: ErrorCode,
        /// Human-readable cause chain.
        message: String,
    },
    /// Ask the server to drain gracefully and exit.
    Shutdown {
        /// Requesting tenant.
        tenant: u16,
        /// Client-chosen id (not answered).
        request_id: u64,
    },
    /// Ask the server for a status report.
    Status {
        /// Requesting tenant.
        tenant: u16,
        /// Client-chosen id echoed back on the report.
        request_id: u64,
    },
    /// The status report for a [`Message::Status`] request.
    StatusReport {
        /// Tenant that asked.
        tenant: u16,
        /// The STATUS's request id.
        request_id: u64,
        /// UTF-8 JSON document (same shape as the `/status` endpoint).
        json: String,
    },
}

impl Message {
    /// The message's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            Message::Submit { .. } => OP_SUBMIT,
            Message::SubmitTagged { .. } => OP_SUBMIT_TAGGED,
            Message::Routed { .. } => OP_ROUTED,
            Message::Retry { .. } => OP_RETRY,
            Message::Error { .. } => OP_ERROR,
            Message::Shutdown { .. } => OP_SHUTDOWN,
            Message::Status { .. } => OP_STATUS,
            Message::StatusReport { .. } => OP_STATUS_REPORT,
        }
    }

    /// The tenant id in the header.
    pub fn tenant(&self) -> u16 {
        match self {
            Message::Submit { tenant, .. }
            | Message::SubmitTagged { tenant, .. }
            | Message::Routed { tenant, .. }
            | Message::Retry { tenant, .. }
            | Message::Error { tenant, .. }
            | Message::Shutdown { tenant, .. }
            | Message::Status { tenant, .. }
            | Message::StatusReport { tenant, .. } => *tenant,
        }
    }

    /// The request id in the header.
    pub fn request_id(&self) -> u64 {
        match self {
            Message::Submit { request_id, .. }
            | Message::SubmitTagged { request_id, .. }
            | Message::Routed { request_id, .. }
            | Message::Retry { request_id, .. }
            | Message::Error { request_id, .. }
            | Message::Shutdown { request_id, .. }
            | Message::Status { request_id, .. }
            | Message::StatusReport { request_id, .. } => *request_id,
        }
    }

    /// Appends the full wire encoding (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, self.opcode(), self.tenant(), self.request_id());
        match self {
            Message::Submit { dests: lines, .. } | Message::Routed { sources: lines, .. } => {
                put_words(out, lines.iter().copied());
            }
            Message::SubmitTagged { tag, dests, .. } => {
                out.extend_from_slice(&tag.to_be_bytes());
                put_words(out, dests.iter().copied());
            }
            Message::Retry { reason, .. } => out.push(reason.as_u8()),
            Message::Error { code, message, .. } => {
                out.push(code.as_u8());
                let msg = message.as_bytes();
                let take = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(take as u16).to_be_bytes());
                out.extend_from_slice(&msg[..take]);
            }
            Message::Shutdown { .. } | Message::Status { .. } => {}
            Message::StatusReport { json, .. } => out.extend_from_slice(json.as_bytes()),
        }
        end_frame(out, start);
    }

    /// The full wire encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Appends a length prefix (patched by [`end_frame`]) and the fixed body
/// header; returns where the frame starts.
fn begin_frame(out: &mut Vec<u8>, opcode: u8, tenant: u16, request_id: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(VERSION);
    out.push(opcode);
    out.extend_from_slice(&tenant.to_be_bytes());
    out.extend_from_slice(&request_id.to_be_bytes());
    start
}

/// Appends a record count and the records as big-endian 32-bit words:
/// one pre-sized tail filled in place, a loop that vectorizes where a
/// push per record does not.
fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = u32>) {
    out.extend_from_slice(&(words.len() as u32).to_be_bytes());
    let at = out.len();
    out.resize(at + 4 * words.len(), 0);
    for (bytes, word) in out[at..].chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
}

/// Patches the length prefix of the frame starting at `start`.
fn end_frame(out: &mut [u8], start: usize) {
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_be_bytes());
}

/// Appends the [`Message::Routed`] bytes for `sources` (a routed frame's
/// payload column: the input that arrived at each output) without
/// building the message.
pub fn encode_routed(out: &mut Vec<u8>, tenant: u16, request_id: u64, sources: &[u64]) {
    out.reserve(4 + HEADER_LEN + 4 + 4 * sources.len());
    let start = begin_frame(out, OP_ROUTED, tenant, request_id);
    put_words(out, sources.iter().map(|&source| source as u32));
    end_frame(out, start);
}

/// A SUBMIT or SUBMIT_TAGGED body read in place, its destination words
/// still where they arrived: no [`Message`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitView<'a> {
    /// Submitting tenant.
    pub tenant: u16,
    /// Client-chosen id echoed back on the response.
    pub request_id: u64,
    /// The SUBMIT_TAGGED auth tag; `None` for a plain SUBMIT.
    pub tag: Option<u64>,
    /// The destination words, four big-endian bytes per input line.
    pub dest_bytes: &'a [u8],
}

impl SubmitView<'_> {
    /// Records the frame carries.
    pub fn records(&self) -> usize {
        self.dest_bytes.len() / 4
    }

    /// Each input line's destination, in input order.
    pub fn dests(&self) -> impl Iterator<Item = u32> + '_ {
        words(self.dest_bytes)
    }

    /// Writes each input line's destination into `out`, in input order:
    /// the bulk form of [`dests`](Self::dests), one loop that vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly [`records`](Self::records)
    /// words.
    pub fn dests_into(&self, out: &mut [u32]) {
        assert_eq!(out.len(), self.records(), "one word per record");
        for (dest, word) in out.iter_mut().zip(self.dests()) {
            *dest = word;
        }
    }
}

/// Reads `body` (everything after the length prefix) as a SUBMIT or
/// SUBMIT_TAGGED in place. `Ok(None)` for any other opcode, which
/// [`decode_body`] decodes; a malformed body fails with the same
/// [`WireError`] [`decode_body`] reports for it.
pub fn decode_submit(body: &[u8]) -> Result<Option<SubmitView<'_>>, WireError> {
    let (opcode, tenant, request_id, payload) = split_header(body)?;
    // A SUBMIT_TAGGED payload opens with its tag word.
    let skip = match opcode {
        OP_SUBMIT => 0,
        OP_SUBMIT_TAGGED => 8,
        _ => return Ok(None),
    };
    let dest_bytes = record_words(payload, skip, body.len())?;
    Ok(Some(SubmitView {
        tenant,
        request_id,
        tag: (skip == 8).then(|| u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"))),
        dest_bytes,
    }))
}

/// The bound, length and version checks every body passes first; returns
/// the opcode, tenant, request id and opcode-specific payload.
fn split_header(body: &[u8]) -> Result<(u8, u16, u64, &[u8]), WireError> {
    if body.len() > MAX_BODY {
        return Err(WireError::Oversized {
            len: body.len() as u64,
            max: MAX_BODY as u64,
        });
    }
    if body.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: body.len(),
        });
    }
    let version = body[0];
    if version != VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let tenant = u16::from_be_bytes([body[2], body[3]]);
    let request_id = u64::from_be_bytes(body[4..HEADER_LEN].try_into().expect("8 bytes"));
    Ok((body[1], tenant, request_id, &body[HEADER_LEN..]))
}

/// The record words of a SUBMIT, SUBMIT_TAGGED or ROUTED payload whose
/// count word sits `skip` bytes in: the count is checked against
/// [`MAX_RECORDS`] and against the bytes that follow it.
fn record_words(payload: &[u8], skip: usize, body_len: usize) -> Result<&[u8], WireError> {
    let head = skip + 4;
    if payload.len() < head {
        return Err(WireError::Truncated {
            needed: HEADER_LEN + head,
            got: body_len,
        });
    }
    let count = u32::from_be_bytes(payload[skip..head].try_into().expect("4 bytes")) as u64;
    if count > MAX_RECORDS as u64 {
        return Err(WireError::Oversized {
            len: count,
            max: MAX_RECORDS as u64,
        });
    }
    let expected = 4 * count;
    let got = (payload.len() - head) as u64;
    if expected != got {
        return Err(WireError::LengthMismatch { expected, got });
    }
    Ok(&payload[head..])
}

/// Big-endian 32-bit words.
fn words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
}

/// A typed wire-format violation. Produced instead of panicking for any
/// malformed, truncated, or oversized input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The version byte is not [`VERSION`].
    BadVersion {
        /// The byte received.
        got: u8,
    },
    /// The opcode byte names no known message.
    UnknownOpcode {
        /// The byte received.
        got: u8,
    },
    /// The body ended before the structure it declared.
    Truncated {
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix (or a declared record count) exceeds the
    /// protocol bound.
    Oversized {
        /// Declared length.
        len: u64,
        /// The bound it broke.
        max: u64,
    },
    /// The payload length disagrees with its declared element count.
    LengthMismatch {
        /// Bytes the declared count implies.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A RETRY carried an unknown reason byte.
    BadRetryReason {
        /// The byte received.
        got: u8,
    },
    /// An ERROR carried an unknown code byte.
    BadErrorCode {
        /// The byte received.
        got: u8,
    },
    /// An ERROR message body is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (expected {VERSION})")
            }
            WireError::UnknownOpcode { got } => write!(f, "unknown opcode 0x{got:02x}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: declared {len} bytes, max {max}")
            }
            WireError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "payload length mismatch: count implies {expected} bytes, got {got}"
                )
            }
            WireError::BadRetryReason { got } => write!(f, "unknown retry reason {got}"),
            WireError::BadErrorCode { got } => write!(f, "unknown error code {got}"),
            WireError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decodes one message body (everything after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<Message, WireError> {
    if let Some(view) = decode_submit(body)? {
        let (tenant, request_id, dests) = (view.tenant, view.request_id, view.dests().collect());
        return Ok(match view.tag {
            None => Message::Submit {
                tenant,
                request_id,
                dests,
            },
            Some(tag) => Message::SubmitTagged {
                tenant,
                request_id,
                tag,
                dests,
            },
        });
    }
    let (opcode, tenant, request_id, payload) = split_header(body)?;
    match opcode {
        OP_ROUTED => {
            let bytes = record_words(payload, 0, body.len())?;
            // Pre-sized and filled in place, like the SUBMIT path.
            let mut sources = vec![0u32; bytes.len() / 4];
            for (source, word) in sources.iter_mut().zip(words(bytes)) {
                *source = word;
            }
            Ok(Message::Routed {
                tenant,
                request_id,
                sources,
            })
        }
        OP_RETRY => {
            if payload.len() != 1 {
                return Err(WireError::LengthMismatch {
                    expected: 1,
                    got: payload.len() as u64,
                });
            }
            Ok(Message::Retry {
                tenant,
                request_id,
                reason: RetryReason::from_u8(payload[0])?,
            })
        }
        OP_ERROR => {
            if payload.len() < 3 {
                return Err(WireError::Truncated {
                    needed: HEADER_LEN + 3,
                    got: body.len(),
                });
            }
            let code = ErrorCode::from_u8(payload[0])?;
            let msg_len = u16::from_be_bytes([payload[1], payload[2]]) as u64;
            let got = (payload.len() - 3) as u64;
            if msg_len != got {
                return Err(WireError::LengthMismatch {
                    expected: msg_len,
                    got,
                });
            }
            let message = std::str::from_utf8(&payload[3..])
                .map_err(|_| WireError::BadUtf8)?
                .to_string();
            Ok(Message::Error {
                tenant,
                request_id,
                code,
                message,
            })
        }
        OP_SHUTDOWN | OP_STATUS => {
            if !payload.is_empty() {
                return Err(WireError::LengthMismatch {
                    expected: 0,
                    got: payload.len() as u64,
                });
            }
            Ok(if opcode == OP_SHUTDOWN {
                Message::Shutdown { tenant, request_id }
            } else {
                Message::Status { tenant, request_id }
            })
        }
        OP_STATUS_REPORT => {
            let json = std::str::from_utf8(payload)
                .map_err(|_| WireError::BadUtf8)?
                .to_string();
            Ok(Message::StatusReport {
                tenant,
                request_id,
                json,
            })
        }
        got => Err(WireError::UnknownOpcode { got }),
    }
}

/// A framed-read failure: transport, wire format, or idle timeout.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying stream failed (including mid-frame stalls past the
    /// deadline).
    Io(io::Error),
    /// The frame violated the wire format.
    Wire(WireError),
    /// The stream idled past its read timeout *between* frames — benign;
    /// poll a shutdown flag and call again.
    IdleTimeout,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Wire(e) => write!(f, "wire error: {e}"),
            RecvError::IdleTimeout => write!(f, "idle between frames"),
        }
    }
}

impl std::error::Error for RecvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecvError::Io(e) => Some(e),
            RecvError::Wire(e) => Some(e),
            RecvError::IdleTimeout => None,
        }
    }
}

impl From<WireError> for RecvError {
    fn from(e: WireError) -> Self {
        RecvError::Wire(e)
    }
}

/// How long a partially received frame may stall before the read fails.
/// Bounds graceful-drain time against clients that die mid-frame.
const MID_FRAME_DEADLINE: Duration = Duration::from_secs(5);

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf` from `r`. Returns `Ok(false)` on clean EOF *before the
/// first byte*; timeouts before the first byte surface as
/// [`RecvError::IdleTimeout`], timeouts after it retry until
/// [`MID_FRAME_DEADLINE`].
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, RecvError> {
    let mut filled = 0;
    let mut stalled_since: Option<Instant> = None;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(RecvError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                )));
            }
            Ok(n) => {
                filled += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if filled == 0 {
                    return Err(RecvError::IdleTimeout);
                }
                let since = *stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= MID_FRAME_DEADLINE {
                    return Err(RecvError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "stream stalled mid-frame",
                    )));
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one framed message. `Ok(None)` on clean EOF at a frame boundary;
/// [`RecvError::IdleTimeout`] when the stream's read timeout fires between
/// frames (retry after checking shutdown flags). The length prefix is
/// validated against [`MAX_BODY`] before any body allocation.
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, RecvError> {
    let mut len_buf = [0u8; 4];
    if !fill(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_BODY {
        return Err(WireError::Oversized {
            len: len as u64,
            max: MAX_BODY as u64,
        }
        .into());
    }
    let mut body = vec![0u8; len];
    if !fill(r, &mut body)? {
        return Err(RecvError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed between length and body",
        )));
    }
    Ok(Some(decode_body(&body)?))
}

/// Writes one framed message.
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    w.write_all(&msg.to_bytes())
}

/// Incremental frame decoder for nonblocking sockets.
///
/// A reactor reads straight into the assembler ([`Self::read_from`]) and
/// pulls complete bodies ([`Self::next_body`]) or messages
/// ([`Self::next_frame`]) out; partial frames stay buffered across reads.
/// Decoding is as total as [`decode_body`]: a [`WireError`] (oversized
/// prefix, malformed body) is a connection-fatal protocol violation,
/// never a panic. The length prefix is validated against [`MAX_BODY`] as
/// soon as it is visible, so buffered memory per connection stays
/// bounded.
///
/// The per-frame decode clock starts when the frame's 4-byte length
/// prefix is fully buffered and stops when the body parses, so idle time
/// between frames is not charged.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Storage: bytes `start..end` are buffered and unconsumed. The bytes
    /// past `end` are initialised spare room, so a read lands in place
    /// without zeroing anything first.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    frame_started: Option<Instant>,
}

/// Spare room [`FrameAssembler::read_from`] offers each `read`.
const READ_ROOM: usize = 16 * 1024;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Buffers bytes read elsewhere.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `r` straight into the buffer, with at least 16 KiB
    /// of room; returns what `read` returned (`Ok(0)` is end of stream).
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.make_room(READ_ROOM);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Ensures `room` spare bytes past the buffered ones, sliding those
    /// to the front before growing the storage.
    fn make_room(&mut self, room: usize) {
        if self.buf.len() - self.end >= room {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() - self.end < room {
            self.buf.resize(self.end + room, 0);
        }
    }

    /// Unconsumed buffered bytes.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The unconsumed bytes, without consuming them (protocol sniffing).
    pub fn peek(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// When the in-progress frame's length prefix arrived, if a frame is
    /// mid-assembly — reactors use it to time out clients that die
    /// mid-frame without pinning a drain forever.
    pub fn frame_wait_started(&self) -> Option<Instant> {
        self.frame_started
    }

    /// Pops the next complete body (everything after its length prefix)
    /// without decoding it, with the instant its decode clock started.
    /// The body borrows the buffer until the assembler is used again.
    /// `Ok(None)` means "need more bytes"; an error is connection-fatal.
    pub fn next_body(&mut self) -> Result<Option<(&[u8], Instant)>, WireError> {
        if self.start == self.end {
            // Everything consumed: reads land at the front again.
            self.start = 0;
            self.end = 0;
        }
        let avail = self.end - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let p = &self.buf[self.start..self.end];
        let len = u32::from_be_bytes([p[0], p[1], p[2], p[3]]) as usize;
        if len > MAX_BODY {
            return Err(WireError::Oversized {
                len: len as u64,
                max: MAX_BODY as u64,
            });
        }
        if avail < 4 + len {
            // Prefix visible, body incomplete: the decode clock is
            // running while we wait for the rest.
            if self.frame_started.is_none() {
                self.frame_started = Some(Instant::now());
            }
            return Ok(None);
        }
        let started = self.frame_started.take().unwrap_or_else(Instant::now);
        let body = self.start + 4..self.start + 4 + len;
        self.start = body.end;
        Ok(Some((&self.buf[body], started)))
    }

    /// Pops and decodes the next complete message, with its decode
    /// nanoseconds. `Ok(None)` means "need more bytes"; an error is
    /// connection-fatal.
    pub fn next_frame(&mut self) -> Result<Option<(Message, u64)>, WireError> {
        let Some((body, started)) = self.next_body()? else {
            return Ok(None);
        };
        let msg = decode_body(body)?;
        Ok(Some((msg, elapsed_ns(started))))
    }
}

/// Nanoseconds since `since`, saturating.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = msg.to_bytes();
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers the body");
        assert_eq!(decode_body(&bytes[4..]), Ok(msg.clone()));
        // And through the framed reader.
        let mut cursor = io::Cursor::new(&bytes);
        assert_eq!(read_message(&mut cursor).unwrap(), Some(msg));
    }

    #[test]
    fn every_opcode_round_trips() {
        roundtrip(Message::Submit {
            tenant: 7,
            request_id: 0xDEAD_BEEF,
            dests: vec![3, 1, 0, 2],
        });
        roundtrip(Message::Routed {
            tenant: 7,
            request_id: 0xDEAD_BEEF,
            sources: vec![2, 1, 3, 0],
        });
        roundtrip(Message::Retry {
            tenant: 1,
            request_id: 2,
            reason: RetryReason::TenantQuota,
        });
        roundtrip(Message::Error {
            tenant: 0,
            request_id: 0,
            code: ErrorCode::Protocol,
            message: "bad frame".into(),
        });
        roundtrip(Message::Shutdown {
            tenant: 9,
            request_id: 100,
        });
        roundtrip(Message::Status {
            tenant: 3,
            request_id: 44,
        });
        roundtrip(Message::StatusReport {
            tenant: 3,
            request_id: 44,
            json: "{\"uptime_ms\":12}".into(),
        });
    }

    #[test]
    fn tagged_submit_round_trips_and_validates() {
        roundtrip(Message::SubmitTagged {
            tenant: 7,
            request_id: 41,
            tag: 0x0123_4567_89AB_CDEF,
            dests: vec![1, 0, 3, 2],
        });
        roundtrip(Message::SubmitTagged {
            tenant: 0,
            request_id: 0,
            tag: 0,
            dests: vec![],
        });
        // Count/payload mismatch is typed, exactly like plain SUBMIT.
        let mut body = vec![VERSION, OP_SUBMIT_TAGGED, 0, 0];
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&7u64.to_be_bytes()); // tag
        body.extend_from_slice(&2u32.to_be_bytes()); // claims 2 records
        body.extend_from_slice(&0u32.to_be_bytes()); // carries 1
        assert_eq!(
            decode_body(&body),
            Err(WireError::LengthMismatch {
                expected: 8,
                got: 4
            })
        );
    }

    #[test]
    fn frame_assembler_handles_byte_at_a_time_and_coalesced_frames() {
        let msgs = vec![
            Message::Submit {
                tenant: 1,
                request_id: 10,
                dests: vec![2, 0, 1, 3],
            },
            Message::Retry {
                tenant: 1,
                request_id: 11,
                reason: RetryReason::WindowFull,
            },
            Message::SubmitTagged {
                tenant: 2,
                request_id: 12,
                tag: 99,
                dests: vec![0, 1],
            },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode(&mut wire);
        }
        // Byte-at-a-time: every frame pops exactly when its last byte
        // lands, never earlier, never twice.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &wire {
            asm.feed(&[b]);
            while let Some((m, _ns)) = asm.next_frame().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(asm.buffered(), 0);
        // Coalesced: all three frames in one feed pop in order.
        let mut asm = FrameAssembler::new();
        asm.feed(&wire);
        let mut got = Vec::new();
        while let Some((m, _ns)) = asm.next_frame().unwrap() {
            got.push(m);
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn frame_assembler_rejects_oversized_prefix_without_buffering_body() {
        let mut asm = FrameAssembler::new();
        asm.feed(b"GET / HTTP/1.1\r\n");
        match asm.next_frame() {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, u32::from_be_bytes(*b"GET ") as u64);
                assert_eq!(max, MAX_BODY as u64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn frame_assembler_tracks_mid_frame_waits() {
        let mut asm = FrameAssembler::new();
        let bytes = Message::Status {
            tenant: 0,
            request_id: 1,
        }
        .to_bytes();
        asm.feed(&bytes[..4]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(
            asm.frame_wait_started().is_some(),
            "decode clock runs once the prefix is visible"
        );
        asm.feed(&bytes[4..]);
        let (msg, decode_ns) = asm.next_frame().unwrap().unwrap();
        assert_eq!(msg.request_id(), 1);
        assert!(decode_ns > 0);
        assert!(asm.frame_wait_started().is_none(), "clock cleared");
    }

    #[test]
    fn status_payload_must_be_empty_and_report_utf8() {
        let mut bytes = Message::Status {
            tenant: 0,
            request_id: 0,
        }
        .to_bytes();
        // A STATUS with a stray payload byte is a typed violation.
        bytes.push(0xFF);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_body(&bytes[4..]),
            Err(WireError::LengthMismatch {
                expected: 0,
                got: 1
            })
        );
        // A STATUS_REPORT with invalid UTF-8 is rejected, not lossily read.
        let mut body = vec![VERSION, OP_STATUS_REPORT, 0, 0];
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_body(&body), Err(WireError::BadUtf8));
        // An empty report round-trips to an empty document.
        roundtrip(Message::StatusReport {
            tenant: 0,
            request_id: 0,
            json: String::new(),
        });
    }

    /// The bulk SUBMIT decode against the word iterator, and the ROUTED
    /// encode against `Message::Routed`, at every width to 4096:
    /// vector-width multiples or not.
    #[test]
    fn bulk_codec_matches_the_message_codec_at_every_width() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let bytes: Vec<u8> = (0..4 * 4096).map(|_| rng.random()).collect();
        let sources: Vec<u64> = (0..4096).map(|_| rng.random()).collect();
        for width in 1..=4096usize {
            let view = SubmitView {
                tenant: 1,
                request_id: 2,
                tag: None,
                dest_bytes: &bytes[..4 * width],
            };
            let mut decoded = vec![0u32; width];
            view.dests_into(&mut decoded);
            assert!(decoded.iter().copied().eq(view.dests()), "width {width}");

            let sources = &sources[..width];
            let mut encoded = Vec::new();
            encode_routed(&mut encoded, 1, 2, sources);
            let routed = Message::Routed {
                tenant: 1,
                request_id: 2,
                sources: sources.iter().map(|&s| s as u32).collect(),
            };
            assert_eq!(encoded, routed.to_bytes(), "width {width}");
        }
    }

    #[test]
    fn empty_frames_round_trip() {
        roundtrip(Message::Submit {
            tenant: 0,
            request_id: 0,
            dests: vec![],
        });
        roundtrip(Message::Error {
            tenant: 0,
            request_id: 0,
            code: ErrorCode::Route,
            message: String::new(),
        });
    }

    #[test]
    fn worked_hex_example_matches_design_doc() {
        // The DESIGN.md §14 example: tenant 5, request 7, identity-swap
        // frame of 4 records routing i -> 3 - i.
        let msg = Message::Submit {
            tenant: 5,
            request_id: 7,
            dests: vec![3, 2, 1, 0],
        };
        let expect = [
            0x00, 0x00, 0x00, 0x20, // length: 32-byte body
            0x01, 0x01, // version 1, opcode SUBMIT
            0x00, 0x05, // tenant 5
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // request id 7
            0x00, 0x00, 0x00, 0x04, // 4 records
            0x00, 0x00, 0x00, 0x03, // dest[0] = 3
            0x00, 0x00, 0x00, 0x02, // dest[1] = 2
            0x00, 0x00, 0x00, 0x01, // dest[2] = 1
            0x00, 0x00, 0x00, 0x00, // dest[3] = 0
        ];
        assert_eq!(msg.to_bytes(), expect);
    }

    #[test]
    fn bad_version_and_opcode_are_typed() {
        let mut bytes = Message::Shutdown {
            tenant: 0,
            request_id: 0,
        }
        .to_bytes();
        bytes[4] = 9;
        assert_eq!(
            decode_body(&bytes[4..]),
            Err(WireError::BadVersion { got: 9 })
        );
        bytes[4] = VERSION;
        bytes[5] = 0x7F;
        assert_eq!(
            decode_body(&bytes[4..]),
            Err(WireError::UnknownOpcode { got: 0x7F })
        );
    }

    #[test]
    fn truncation_is_typed_never_a_panic() {
        let bytes = Message::Submit {
            tenant: 1,
            request_id: 2,
            dests: vec![1, 0],
        }
        .to_bytes();
        for cut in 0..bytes.len() - 4 {
            let body = &bytes[4..4 + cut];
            let err = decode_body(body).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::LengthMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // An HTTP "GET " read as a length prefix is ~1.2 GB — the reader
        // must refuse it without allocating.
        let bytes = *b"GET / HTTP/1.1\r\n";
        let mut cursor = io::Cursor::new(&bytes[..]);
        match read_message(&mut cursor) {
            Err(RecvError::Wire(WireError::Oversized { len, max })) => {
                assert_eq!(len, u32::from_be_bytes(*b"GET ") as u64);
                assert_eq!(max, MAX_BODY as u64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn oversized_record_count_is_rejected() {
        let mut body = vec![VERSION, OP_SUBMIT, 0, 0];
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&(MAX_RECORDS as u32 + 1).to_be_bytes());
        assert_eq!(
            decode_body(&body),
            Err(WireError::Oversized {
                len: MAX_RECORDS as u64 + 1,
                max: MAX_RECORDS as u64,
            })
        );
    }

    #[test]
    fn count_payload_mismatch_is_typed() {
        let mut body = vec![VERSION, OP_SUBMIT, 0, 0];
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&4u32.to_be_bytes()); // claims 4 records
        body.extend_from_slice(&0u32.to_be_bytes()); // carries 1
        assert_eq!(
            decode_body(&body),
            Err(WireError::LengthMismatch {
                expected: 16,
                got: 4
            })
        );
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let mut empty = io::Cursor::new(Vec::new());
        assert!(matches!(read_message(&mut empty), Ok(None)));
        let bytes = Message::Shutdown {
            tenant: 0,
            request_id: 0,
        }
        .to_bytes();
        // Cut inside the length prefix and inside the body.
        for cut in [2usize, 4, 9] {
            let mut cursor = io::Cursor::new(bytes[..cut].to_vec());
            assert!(
                matches!(read_message(&mut cursor), Err(RecvError::Io(_))),
                "cut at {cut} must be an unexpected-EOF transport error"
            );
        }
    }

    #[test]
    fn long_error_messages_truncate_to_u16() {
        let msg = Message::Error {
            tenant: 0,
            request_id: 0,
            code: ErrorCode::Route,
            message: "x".repeat(70_000),
        };
        let bytes = msg.to_bytes();
        match decode_body(&bytes[4..]).unwrap() {
            Message::Error { message, .. } => assert_eq!(message.len(), u16::MAX as usize),
            other => panic!("expected Error, got {other:?}"),
        }
    }
}

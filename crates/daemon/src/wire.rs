//! The `ssfad` wire protocol: typed messages over the `SSFC` frame codec.
//!
//! Every message on the ingest bus — in both directions — is one `SSFC`
//! frame ([`ssfa_logs::frame`]), the exact codec the on-disk corpus uses,
//! with the header fields repurposed as the message envelope:
//!
//! | frame field  | envelope meaning                                  |
//! |--------------|---------------------------------------------------|
//! | `system_id`  | message kind ([`MessageKind`] discriminant)       |
//! | `line_count` | sequence number (`DATA`) / cursor hint (others)   |
//! | payload      | message body (see below)                          |
//!
//! Reusing the corpus codec means the receiver gets magic, version, and
//! whole-message checksum validation (the four-lane
//! [`ssfa_logs::frame::Checksum`]) for free, from the **single**
//! frame definition the rest of the workspace already proves correct —
//! garbage preambles and torn messages are rejected by
//! [`FrameHeader::parse`]/[`FrameHeader::verify_payload`], never
//! interpreted. A `DATA` body is itself a complete inner corpus frame
//! (header + payload, byte-identical to its segment-file form), so a
//! replaying agent streams disk bytes verbatim and the server re-verifies
//! the inner checksum before classifying.
//!
//! Handshake-style bodies (`HELLO`, `WELCOME`, `ACK`, `STATUS`) are
//! newline-terminated `key=value` text — greppable on the wire, no new
//! binary format, and parsed with the same strictness discipline as
//! everything else (unknown keys are errors, not silently dropped).
//!
//! The full exchange is specified in DESIGN §12.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};

use ssfa_logs::frame::{encode_frame, FrameError, FrameHeader, HEADER_LEN};
use ssfa_logs::Strictness;

/// Hard upper bound on a message body. A corrupt or hostile header
/// cannot make the receiver allocate unboundedly: the largest legitimate
/// body is one shard frame, and shards are orders of magnitude smaller
/// than this.
pub const MAX_BODY_LEN: u64 = 64 * 1024 * 1024;

/// The message kinds of the ingest protocol, carried in the envelope's
/// `system_id` field. Discriminants are part of the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u32)]
pub enum MessageKind {
    /// Client → server: identity handshake opening every connection.
    Hello = 1,
    /// Server → client: handshake accepted; body carries the
    /// authoritative session cursor to resume from.
    Welcome = 2,
    /// Client → server: one shard frame; `seq` is the frame's position in
    /// the tenant's stream, the body is the inner corpus frame verbatim.
    Data = 3,
    /// Server → client: cursor acknowledgement (only ever sent in reply
    /// to `HEARTBEAT` or `BYE` — the server never pushes unsolicited
    /// traffic, so a non-reading client cannot deadlock the connection).
    Ack = 4,
    /// Client → server: liveness probe; solicits an `ACK`.
    Heartbeat = 5,
    /// Client → server: end of stream; solicits a final `ACK`.
    Bye = 6,
    /// Client → server: request a tenant's live run summary (the
    /// `JsonSummarySink` document) or, with an empty body, server info.
    Status = 7,
    /// Client → server: request a tenant's live `RunHealth` audit.
    Health = 8,
    /// Server → client: successful `STATUS`/`HEALTH` reply; body is the
    /// requested document.
    Ok = 9,
    /// Server → client: request-level failure; body is the reason. Sent
    /// only in reply position, like `ACK`.
    Error = 10,
}

impl MessageKind {
    fn from_wire(raw: u32) -> Option<MessageKind> {
        Some(match raw {
            1 => MessageKind::Hello,
            2 => MessageKind::Welcome,
            3 => MessageKind::Data,
            4 => MessageKind::Ack,
            5 => MessageKind::Heartbeat,
            6 => MessageKind::Bye,
            7 => MessageKind::Status,
            8 => MessageKind::Health,
            9 => MessageKind::Ok,
            10 => MessageKind::Error,
            _ => return None,
        })
    }
}

/// One protocol message, decoded from (or about to become) one envelope
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// What the message is.
    pub kind: MessageKind,
    /// Stream sequence number for `DATA`; cursor value for `WELCOME` and
    /// `ACK`; zero elsewhere.
    pub seq: u64,
    /// Kind-specific body.
    pub body: Vec<u8>,
}

impl Message {
    /// A body-less message.
    pub fn bare(kind: MessageKind) -> Message {
        Message {
            kind,
            seq: 0,
            body: Vec::new(),
        }
    }

    /// Serializes this message into its envelope frame.
    pub fn to_frame(&self) -> Vec<u8> {
        envelope(self.kind, self.seq, &self.body)
    }
}

/// The envelope frame of a message of `kind` with sequence number `seq`
/// around a borrowed `body`: [`Message::to_frame`] without first owning
/// the body.
pub(crate) fn envelope(kind: MessageKind, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    encode_frame(&mut out, kind as u32, seq, body);
    out
}

/// Everything that can go wrong reading or interpreting a message.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes clean EOF mid-message —
    /// a torn frame is a transport fault, not a protocol state).
    Io(std::io::Error),
    /// The envelope failed frame validation (bad magic — e.g. a garbage
    /// preamble — bad version, or checksum mismatch).
    Frame(FrameError),
    /// The envelope is intact but names a kind this build does not speak.
    UnknownKind(u32),
    /// The envelope claims a body larger than [`MAX_BODY_LEN`].
    Oversize(u64),
    /// A `key=value` body is malformed or missing a required key.
    BadBody(String),
    /// The peer answered with a different kind than the protocol allows
    /// in this position.
    UnexpectedKind {
        /// Kind the protocol required here.
        expected: MessageKind,
        /// Kind actually received.
        got: MessageKind,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Frame(e) => write!(f, "wire frame: {e}"),
            WireError::UnknownKind(raw) => write!(f, "unknown message kind {raw}"),
            WireError::Oversize(len) => {
                write!(f, "message body of {len} bytes exceeds {MAX_BODY_LEN}")
            }
            WireError::BadBody(why) => write!(f, "malformed message body: {why}"),
            WireError::UnexpectedKind { expected, got } => {
                write!(f, "expected {expected:?}, got {got:?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> WireError {
        WireError::Frame(e)
    }
}

/// Writes one message as one envelope frame.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    w.write_all(&msg.to_frame())?;
    Ok(())
}

/// Reads exactly one message: a fixed-width envelope header, then the
/// body it promises, then full checksum verification. Anything else —
/// garbage bytes, a torn frame, an absurd length — is a typed error, and
/// the caller's correct response is to drop the connection (the stream
/// offers no resynchronization point by design; the cursor protocol makes
/// reconnecting cheap and lossless).
///
/// # Errors
///
/// [`WireError::Io`] on transport failure or EOF, [`WireError::Frame`] on
/// envelope corruption, [`WireError::Oversize`] /
/// [`WireError::UnknownKind`] on hostile or incompatible envelopes.
pub fn read_message(r: &mut impl Read) -> Result<Message, WireError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    r.read_exact(&mut header_bytes)?;
    let header = FrameHeader::parse(&header_bytes)?;
    if header.payload_len > MAX_BODY_LEN {
        return Err(WireError::Oversize(header.payload_len));
    }
    let mut body = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut body)?;
    verify_envelope(&header, &body)?;
    let kind =
        MessageKind::from_wire(header.system_id).ok_or(WireError::UnknownKind(header.system_id))?;
    Ok(Message {
        kind,
        seq: header.line_count,
        body,
    })
}

/// Re-checks the envelope digest over header + body (the header was
/// parsed from a separate read, so [`FrameHeader::verify_payload`] does
/// the work).
fn verify_envelope(header: &FrameHeader, body: &[u8]) -> Result<(), WireError> {
    header.verify_payload(body)?;
    Ok(())
}

/// Reads one message and requires it to be of `expected` kind. An `ERROR`
/// reply is surfaced as [`WireError::BadBody`] carrying the server's
/// reason.
///
/// # Errors
///
/// As [`read_message`], plus [`WireError::UnexpectedKind`].
pub fn expect_message(r: &mut impl Read, expected: MessageKind) -> Result<Message, WireError> {
    let msg = read_message(r)?;
    if msg.kind == MessageKind::Error && expected != MessageKind::Error {
        return Err(WireError::BadBody(format!(
            "server error: {}",
            String::from_utf8_lossy(&msg.body)
        )));
    }
    if msg.kind != expected {
        return Err(WireError::UnexpectedKind {
            expected,
            got: msg.kind,
        });
    }
    Ok(msg)
}

/// The `HELLO` body: who is connecting and where their stream left off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Tenant this stream belongs to (one fold per tenant).
    pub tenant: String,
    /// Session within the tenant (one cursor per session).
    pub session: String,
    /// The client's local idea of its cursor — advisory only; the
    /// server's `WELCOME` cursor is authoritative.
    pub cursor: u64,
    /// Error policy for this tenant's classification.
    pub strictness: Strictness,
}

impl Hello {
    /// Renders the `key=value` body.
    pub fn encode(&self) -> Vec<u8> {
        let strict = match self.strictness {
            Strictness::Strict => "strict",
            Strictness::Lenient => "lenient",
        };
        format!(
            "tenant={}\nsession={}\ncursor={}\nstrictness={strict}\n",
            self.tenant, self.session, self.cursor
        )
        .into_bytes()
    }

    /// Parses a `HELLO` body.
    ///
    /// # Errors
    ///
    /// [`WireError::BadBody`] on missing/unknown keys or unparseable
    /// values.
    pub fn parse(body: &[u8]) -> Result<Hello, WireError> {
        let fields = parse_kv(body, &["tenant", "session", "cursor", "strictness"])?;
        let strictness = match fields["strictness"].as_str() {
            "strict" => Strictness::Strict,
            "lenient" => Strictness::Lenient,
            other => {
                return Err(WireError::BadBody(format!(
                    "strictness must be strict or lenient, got `{other}`"
                )))
            }
        };
        Ok(Hello {
            tenant: fields["tenant"].clone(),
            session: fields["session"].clone(),
            cursor: parse_u64(&fields, "cursor")?,
            strictness,
        })
    }
}

/// The `ACK`/`WELCOME` body: the authoritative cursor, plus the tenant's
/// quarantine reason when one exists (a quarantined tenant's data is
/// dropped server-side; the sender must learn this rather than
/// retransmit forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// Next sequence number the server will admit: everything below it is
    /// absorbed-or-quarantined and must not be resent.
    pub cursor: u64,
    /// `Some(reason)` when the tenant is quarantined.
    pub quarantined: Option<String>,
}

impl Cursor {
    /// Renders the `key=value` body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("cursor={}\n", self.cursor);
        if let Some(reason) = &self.quarantined {
            out.push_str("quarantined=");
            out.push_str(&reason.replace('\n', " "));
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Parses an `ACK`/`WELCOME` body.
    ///
    /// # Errors
    ///
    /// [`WireError::BadBody`] on malformed bodies.
    pub fn parse(body: &[u8]) -> Result<Cursor, WireError> {
        let fields = parse_kv_optional(body, &["cursor"], &["quarantined"])?;
        Ok(Cursor {
            cursor: parse_u64(&fields, "cursor")?,
            quarantined: fields.get("quarantined").cloned(),
        })
    }
}

fn parse_u64(fields: &BTreeMap<String, String>, key: &str) -> Result<u64, WireError> {
    fields[key]
        .parse()
        .map_err(|_| WireError::BadBody(format!("{key} is not a u64: `{}`", fields[key])))
}

/// Parses a newline-terminated `key=value` body where every `required`
/// key must appear exactly once and nothing else may.
fn parse_kv(body: &[u8], required: &[&str]) -> Result<BTreeMap<String, String>, WireError> {
    parse_kv_optional(body, required, &[])
}

fn parse_kv_optional(
    body: &[u8],
    required: &[&str],
    optional: &[&str],
) -> Result<BTreeMap<String, String>, WireError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| WireError::BadBody("body is not UTF-8".to_owned()))?;
    let mut fields = BTreeMap::new();
    for line in text.lines() {
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| WireError::BadBody(format!("line without `=`: `{line}`")))?;
        if !required.contains(&key) && !optional.contains(&key) {
            return Err(WireError::BadBody(format!("unknown key `{key}`")));
        }
        if fields.insert(key.to_owned(), value.to_owned()).is_some() {
            return Err(WireError::BadBody(format!("duplicate key `{key}`")));
        }
    }
    for key in required {
        if !fields.contains_key(*key) {
            return Err(WireError::BadBody(format!("missing key `{key}`")));
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_round_trips_through_a_byte_stream() {
        let msg = Message {
            kind: MessageKind::Data,
            seq: 41,
            body: b"inner frame bytes".to_vec(),
        };
        let frame = msg.to_frame();
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(read_message(&mut cursor).unwrap(), msg);
    }

    #[test]
    fn garbage_preamble_is_a_frame_error_not_a_panic() {
        let mut stream = vec![0xFFu8; 40];
        stream.extend(Message::bare(MessageKind::Heartbeat).to_frame());
        let mut cursor = std::io::Cursor::new(stream);
        assert!(matches!(
            read_message(&mut cursor),
            Err(WireError::Frame(FrameError::BadMagic { .. }))
        ));
    }

    #[test]
    fn torn_message_is_an_io_error() {
        let frame = Message {
            kind: MessageKind::Data,
            seq: 0,
            body: vec![7u8; 64],
        }
        .to_frame();
        let mut cursor = std::io::Cursor::new(&frame[..frame.len() - 10]);
        assert!(matches!(read_message(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn flipped_body_byte_fails_the_envelope_checksum() {
        let mut frame = Message {
            kind: MessageKind::Data,
            seq: 3,
            body: b"payload".to_vec(),
        }
        .to_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_message(&mut cursor),
            Err(WireError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn unknown_kind_is_typed() {
        let mut frame = Vec::new();
        ssfa_logs::frame::encode_frame(&mut frame, 99, 0, b"");
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_message(&mut cursor),
            Err(WireError::UnknownKind(99))
        ));
    }

    #[test]
    fn oversize_body_is_rejected_before_allocation() {
        // Hand-build a header promising an absurd body; keep the checksum
        // consistent so only the size check can reject it.
        let header = FrameHeader::parse(
            &Message {
                kind: MessageKind::Data,
                seq: 0,
                body: Vec::new(),
            }
            .to_frame(),
        )
        .unwrap();
        let mut bytes = Vec::new();
        ssfa_logs::frame::encode_frame(&mut bytes, header.system_id, 0, &[]);
        bytes[20..28].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_message(&mut cursor),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn hello_round_trips_and_rejects_junk() {
        let hello = Hello {
            tenant: "acme".to_owned(),
            session: "replay-1".to_owned(),
            cursor: 17,
            strictness: Strictness::Lenient,
        };
        assert_eq!(Hello::parse(&hello.encode()).unwrap(), hello);
        assert!(Hello::parse(b"tenant=a\n").is_err());
        assert!(Hello::parse(b"tenant=a\nsession=s\ncursor=x\nstrictness=strict\n").is_err());
        assert!(Hello::parse(b"tenant=a\nsession=s\ncursor=0\nstrictness=maybe\n").is_err());
        assert!(
            Hello::parse(b"tenant=a\nsession=s\ncursor=0\nstrictness=strict\nextra=1\n").is_err()
        );
    }

    #[test]
    fn cursor_body_round_trips_with_and_without_quarantine() {
        let clean = Cursor {
            cursor: 5,
            quarantined: None,
        };
        assert_eq!(Cursor::parse(&clean.encode()).unwrap(), clean);
        let poisoned = Cursor {
            cursor: 2,
            quarantined: Some("frame 2: checksum mismatch".to_owned()),
        };
        assert_eq!(Cursor::parse(&poisoned.encode()).unwrap(), poisoned);
    }

    #[test]
    fn expect_message_surfaces_server_errors() {
        let err = Message {
            kind: MessageKind::Error,
            seq: 0,
            body: b"no such tenant".to_vec(),
        };
        let mut cursor = std::io::Cursor::new(err.to_frame());
        let got = expect_message(&mut cursor, MessageKind::Ok).unwrap_err();
        assert!(got.to_string().contains("no such tenant"), "{got}");
    }
}

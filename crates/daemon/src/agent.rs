//! The replay agent: streams a corpus's shard frames to a running
//! `ssfad`, surviving — and under test, deliberately *causing* — every
//! wire fault the daemon is built to absorb.
//!
//! The agent's loop is the client half of the cursor contract
//! ([`crate::bus`]): connect, `HELLO`, adopt the server's `WELCOME`
//! cursor, stream `DATA` frames from there, `BYE`, and check the final
//! `ACK`. If the ack cursor is short of the stream (frames were shed or
//! the connection tore), sleep out the seeded backoff schedule
//! ([`crate::clock::Backoff`]) and go again — the cursor guarantees the
//! retry transmits exactly the un-absorbed suffix. The loop terminates
//! when the ack covers the whole stream, the tenant turns out to be
//! quarantined (an answer, not an error), or the attempt budget runs out.
//!
//! Fault injection ([`WireFaultInjector`]) runs *inside* the sender,
//! because that is where a real fault would live: the plan is drawn per
//! `(seed, attempt)`, so one replay is perfectly reproducible while a
//! frame cut on attempt `n` goes through clean on attempt `n + 1`.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread;
use std::time::Duration;

use ssfa_logs::faults::{WireAction, WireFaultInjector, WireFaultLedger, WireFaultSpec};
use ssfa_logs::{CorpusReader, Strictness};

use crate::clock::{Backoff, BackoffConfig};
use crate::wire::{
    envelope, expect_message, write_message, Cursor, Hello, Message, MessageKind, WireError,
};

/// How long the agent waits for a `WELCOME`/`ACK` before declaring the
/// server unresponsive and retrying.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Tenant to stream as.
    pub tenant: String,
    /// Session id (cursor scope). Reusing a session across agent runs
    /// resumes; a fresh session re-streams from zero.
    pub session: String,
    /// Error policy requested for the tenant.
    pub strictness: Strictness,
    /// Reconnect schedule.
    pub backoff: BackoffConfig,
    /// Total connection attempts before giving up.
    pub max_attempts: u32,
    /// Wire faults to inject while sending.
    pub faults: WireFaultSpec,
    /// Seed for the fault planner (derived per attempt).
    pub fault_seed: u64,
    /// How long a planned stall sleeps — set it beyond the server's idle
    /// window to actually exercise the hangup path.
    pub stall_ms: u64,
}

impl AgentConfig {
    /// A clean (fault-free) agent for `tenant`.
    pub fn clean(tenant: &str, session: &str) -> AgentConfig {
        AgentConfig {
            tenant: tenant.to_owned(),
            session: session.to_owned(),
            strictness: Strictness::Strict,
            backoff: BackoffConfig::default(),
            max_attempts: 10,
            faults: WireFaultSpec::none(),
            fault_seed: 0,
            stall_ms: 0,
        }
    }
}

/// What a finished replay did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentReport {
    /// Connections actually opened (1 = no reconnects were needed).
    pub connections: u32,
    /// Exact record of the wire faults this agent injected.
    pub ledger: WireFaultLedger,
    /// Final acknowledged cursor.
    pub final_cursor: u64,
    /// Set when the server reported the tenant quarantined — a terminal
    /// outcome, not a transport failure.
    pub quarantined: Option<String>,
}

/// Replay failure: the attempt budget ran out before the stream was
/// fully acknowledged.
#[derive(Debug)]
pub struct AgentError {
    /// Attempts consumed.
    pub attempts: u32,
    /// Last transport/protocol error observed.
    pub last: String,
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay gave up after {} attempt(s): {}",
            self.attempts, self.last
        )
    }
}

impl std::error::Error for AgentError {}

/// One attempt's outcome, driving the retry loop.
enum Attempt {
    /// Whole stream acknowledged.
    Done(u64),
    /// Tenant quarantined server-side.
    Quarantined(u64, String),
    /// Transport died or frames were shed; reconnect and resume.
    Retry(String),
}

/// A corpus replayer bound to one frame stream.
#[derive(Debug)]
pub struct ReplayAgent {
    config: AgentConfig,
    /// Encoded inner frames, in stream order.
    frames: Vec<Vec<u8>>,
}

impl ReplayAgent {
    /// An agent over pre-encoded frames (tests build these directly).
    pub fn new(config: AgentConfig, frames: Vec<Vec<u8>>) -> ReplayAgent {
        config.faults.validate();
        ReplayAgent { config, frames }
    }

    /// An agent replaying an on-disk corpus: every shard frame is read
    /// verbatim (and integrity-checked) via
    /// [`CorpusReader::read_shard_frame`], so the bytes on the wire are
    /// the bytes on disk.
    ///
    /// # Errors
    ///
    /// Corpus open/read errors, stringified.
    pub fn from_corpus(config: AgentConfig, dir: &Path) -> Result<ReplayAgent, String> {
        let reader = CorpusReader::open(dir).map_err(|e| e.to_string())?;
        let mut frames = Vec::with_capacity(reader.shard_count());
        for shard in 0..reader.shard_count() {
            frames.push(reader.read_shard_frame(shard).map_err(|e| e.to_string())?);
        }
        Ok(ReplayAgent { config, frames })
    }

    /// Frames in the stream.
    pub fn stream_len(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Runs the replay to completion against `addr`.
    ///
    /// # Errors
    ///
    /// [`AgentError`] when [`AgentConfig::max_attempts`] connections were
    /// not enough to get the stream acknowledged.
    pub fn run(&self, addr: SocketAddr) -> Result<AgentReport, AgentError> {
        let injector = WireFaultInjector::new(self.config.faults, self.config.fault_seed);
        let backoff = Backoff::new(self.config.backoff);
        let mut ledger = WireFaultLedger::default();
        let mut last = String::from("never connected");
        for attempt in 1..=self.config.max_attempts {
            if attempt > 1 {
                thread::sleep(backoff.delay(attempt - 1));
            }
            match self.attempt(addr, attempt, &injector, &mut ledger) {
                Attempt::Done(cursor) => {
                    return Ok(AgentReport {
                        connections: attempt,
                        ledger,
                        final_cursor: cursor,
                        quarantined: None,
                    })
                }
                Attempt::Quarantined(cursor, reason) => {
                    return Ok(AgentReport {
                        connections: attempt,
                        ledger,
                        final_cursor: cursor,
                        quarantined: Some(reason),
                    })
                }
                Attempt::Retry(why) => last = why,
            }
        }
        Err(AgentError {
            attempts: self.config.max_attempts,
            last,
        })
    }

    /// One connection's worth of work.
    fn attempt(
        &self,
        addr: SocketAddr,
        attempt: u32,
        injector: &WireFaultInjector,
        ledger: &mut WireFaultLedger,
    ) -> Attempt {
        let total = self.stream_len();
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => return Attempt::Retry(format!("connect: {e}")),
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));

        // HELLO → WELCOME: adopt the authoritative cursor.
        let hello = Message {
            kind: MessageKind::Hello,
            seq: 0,
            body: Hello {
                tenant: self.config.tenant.clone(),
                session: self.config.session.clone(),
                cursor: 0,
                strictness: self.config.strictness,
            }
            .encode(),
        };
        if let Err(e) = write_message(&mut stream, &hello) {
            return Attempt::Retry(format!("send HELLO: {e}"));
        }
        let welcome = match expect_message(&mut stream, MessageKind::Welcome) {
            Ok(msg) => msg,
            Err(e) => return Attempt::Retry(format!("await WELCOME: {e}")),
        };
        let welcome = match Cursor::parse(&welcome.body) {
            Ok(c) => c,
            Err(e) => return Attempt::Retry(format!("parse WELCOME: {e}")),
        };
        if let Some(reason) = welcome.quarantined {
            return Attempt::Quarantined(welcome.cursor, reason);
        }

        // Stream DATA from the server's cursor, through the fault plan.
        let mut rng = injector.attempt_rng(attempt);
        let mut seq = welcome.cursor;
        while seq < total {
            let envelope = self.data_envelope(seq);
            let last_frame = seq + 1 >= total;
            let plan = injector.plan_frame(&mut rng, envelope.len(), last_frame, ledger);
            if let Some(garbage) = plan.pre_garbage {
                // Desynchronizes the stream; the server will tear the
                // connection down when it reads this. Keep sending — the
                // write error (or the short final ACK) routes us back
                // here for a clean retry.
                if stream.write_all_ignoring_sigpipe(&garbage).is_err() {
                    return Attempt::Retry("send garbage burst".to_owned());
                }
            }
            let sent = match plan.action {
                WireAction::Send => stream.write_all_ignoring_sigpipe(&envelope),
                WireAction::SendTwice => stream
                    .write_all_ignoring_sigpipe(&envelope)
                    .and_then(|()| stream.write_all_ignoring_sigpipe(&envelope)),
                WireAction::SwapWithNext => {
                    let next = self.data_envelope(seq + 1);
                    seq += 1;
                    stream
                        .write_all_ignoring_sigpipe(&next)
                        .and_then(|()| stream.write_all_ignoring_sigpipe(&envelope))
                }
                WireAction::CutAt(at) => {
                    let at = at.min(envelope.len().saturating_sub(1)).max(1);
                    let _ = stream.write_all_ignoring_sigpipe(&envelope[..at]);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return Attempt::Retry(format!("cut frame {seq} at byte {at}"));
                }
                WireAction::StallThenSend => {
                    thread::sleep(Duration::from_millis(self.config.stall_ms));
                    stream.write_all_ignoring_sigpipe(&envelope)
                }
            };
            if let Err(e) = sent {
                return Attempt::Retry(format!("send frame {seq}: {e}"));
            }
            seq += 1;
        }

        // BYE → final ACK: the cursor decides whether we are done.
        if let Err(e) = write_message(&mut stream, &Message::bare(MessageKind::Bye)) {
            return Attempt::Retry(format!("send BYE: {e}"));
        }
        let ack = match expect_message(&mut stream, MessageKind::Ack) {
            Ok(msg) => msg,
            Err(e) => return Attempt::Retry(format!("await ACK: {e}")),
        };
        let ack = match Cursor::parse(&ack.body) {
            Ok(c) => c,
            Err(e) => return Attempt::Retry(format!("parse ACK: {e}")),
        };
        if let Some(reason) = ack.quarantined {
            return Attempt::Quarantined(ack.cursor, reason);
        }
        if ack.cursor >= total {
            Attempt::Done(ack.cursor)
        } else {
            Attempt::Retry(format!(
                "acknowledged {}/{} frames (shed or torn); resuming",
                ack.cursor, total
            ))
        }
    }

    /// The `DATA` envelope for stream position `seq`.
    fn data_envelope(&self, seq: u64) -> Vec<u8> {
        envelope(MessageKind::Data, seq, &self.frames[seq as usize])
    }
}

/// Small extension so fault-injected writes surface as `Err`, never as a
/// process-killing SIGPIPE-style abort (Rust ignores SIGPIPE by default;
/// this is belt-and-suspenders naming for the retry paths).
trait WriteAllQuiet {
    fn write_all_ignoring_sigpipe(&mut self, bytes: &[u8]) -> Result<(), WireError>;
}

impl WriteAllQuiet for TcpStream {
    fn write_all_ignoring_sigpipe(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        use std::io::Write;
        self.write_all(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_data_envelope_is_the_data_message_frame() {
        let mut inner = Vec::new();
        ssfa_logs::frame::encode_frame(&mut inner, 4, 2, b"x\ny\n");
        let mut expected = Vec::new();
        ssfa_logs::frame::encode_frame(&mut expected, MessageKind::Data as u32, 1, &inner);
        let agent = ReplayAgent::new(AgentConfig::clean("t", "s"), vec![Vec::new(), inner]);
        assert_eq!(agent.data_envelope(1), expected);
    }
}

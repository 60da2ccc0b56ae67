//! The TCP shell: accept loop, per-connection protocol driver, idle
//! policing, and graceful drain. All absorption semantics live in
//! [`crate::bus`]; this module only moves messages.
//!
//! # Liveness policing
//!
//! The paper's interconnect findings include *partial* failures — links
//! that neither work nor die. The server's analog is the stalled writer:
//! a connected agent that stops sending mid-stream. Each connection
//! thread reads through one buffer and, when that buffer is empty, waits
//! for traffic in [`ServerConfig::heartbeat_ms`] ticks (a kernel socket
//! timeout on a 1-byte `peek`, so a clean idle never desynchronizes
//! framing); [`ServerConfig::idle_ticks_limit`] silent
//! ticks in a row and the connection is hung up. The session and its
//! cursor survive — only the socket dies — so a recovered agent
//! reconnects and resumes exactly where it left off.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::bus::{BusConfig, IngestBus, TenantReport};
use crate::clock::Stopwatch;
use crate::wal::{WriteAheadLog, DEFAULT_SEGMENT_BYTES};
use crate::wire::{read_message, write_message, Cursor, Hello, Message, MessageKind};

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Width of one liveness tick in milliseconds: how long a connection
    /// waits for traffic before counting an idle tick. Heartbeating
    /// clients should beat faster than `heartbeat_ms * idle_ticks_limit`.
    pub heartbeat_ms: u64,
    /// Consecutive silent ticks before a connection is hung up as
    /// stalled.
    pub idle_ticks_limit: u32,
    /// Ingest-bus tuning.
    pub bus: BusConfig,
    /// Directory for the write-ahead log (`ssfad serve --wal <dir>`).
    /// `None` runs volatile (the pre-WAL behavior); `Some` makes every
    /// admission durable and replays the log — through the same cursor
    /// and exactly-once admission path — before accepting connections.
    pub wal: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            heartbeat_ms: 1_000,
            idle_ticks_limit: 3,
            bus: BusConfig::default(),
            wal: None,
        }
    }
}

/// What a drained server hands back: one report per tenant, plus the
/// wall-clock uptime (operator information only — nothing deterministic
/// reads it).
#[derive(Debug)]
pub struct DrainReport {
    /// Per-tenant final state, in tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// How long the server ran.
    pub uptime_ms: u128,
}

/// The daemon server. [`Server::spawn`] binds and returns a handle; the
/// accept loop and every connection run on background threads until
/// [`ServerHandle::finish`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving.
    ///
    /// # Errors
    ///
    /// The bind/listen I/O error.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        // Recover the WAL before binding: by the time a reconnecting
        // agent can reach the daemon, every previously acked frame is
        // already re-admitted, so its WELCOME cursor is authoritative.
        let bus = match &config.wal {
            Some(dir) => {
                let (wal, records) = WriteAheadLog::open(dir, DEFAULT_SEGMENT_BYTES)?;
                let bus = Arc::new(IngestBus::with_wal(config.bus, Arc::new(wal)));
                bus.replay_wal(records);
                bus
            }
            None => Arc::new(IngestBus::new(config.bus)),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let uptime = Stopwatch::start();
        let connections: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_bus = Arc::clone(&bus);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_connections = Arc::clone(&connections);
        let accept_config = config.clone();
        // The accept loop and its connection threads are the daemon's
        // worker pool, tracked and joined by ServerHandle::finish.
        #[expect(
            clippy::disallowed_methods,
            reason = "accept loop, joined by ServerHandle::finish"
        )]
        let accept = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let bus = Arc::clone(&accept_bus);
                let shutdown = Arc::clone(&accept_shutdown);
                let config = accept_config.clone();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "connection worker, joined at drain"
                )]
                let handle = thread::spawn(move || {
                    serve_connection(stream, &bus, &shutdown, &config, uptime)
                });
                accept_connections
                    .lock()
                    .expect("connection registry poisoned")
                    .push(handle);
            }
        });

        Ok(ServerHandle {
            addr,
            bus,
            shutdown,
            accept: Some(accept),
            connections,
            uptime,
        })
    }
}

/// Handle to a running server: the bound address, live bus access, and
/// the drain switch.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    bus: Arc<IngestBus>,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    uptime: Stopwatch,
}

impl ServerHandle {
    /// Where the server is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ingest bus, for in-process inspection (the CLI's status path
    /// goes over TCP instead; see [`crate::wire`]).
    pub fn bus(&self) -> &Arc<IngestBus> {
        &self.bus
    }

    /// Graceful drain: stop accepting, let connection threads wind down,
    /// absorb everything already admitted, and report per-tenant state.
    pub fn finish(mut self) -> DrainReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: incoming() only observes the flag on its
        // next connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        let handles: Vec<_> = std::mem::take(
            &mut *self
                .connections
                .lock()
                .expect("connection registry poisoned"),
        );
        for handle in handles {
            handle.join().expect("connection thread panicked");
        }
        DrainReport {
            tenants: self.bus.drain(),
            uptime_ms: self.uptime.elapsed_ms(),
        }
    }
}

/// Waits up to one tick for the next message without consuming bytes.
/// Returns `Ok(true)` when traffic is pending — already buffered, or
/// readable on the socket — `Ok(false)` on a clean idle tick, `Err` when
/// the peer is gone. The socket is peeked only when the buffer is empty:
/// a message already read into it must not count as an idle tick.
fn wait_for_traffic(reader: &BufReader<TcpStream>) -> std::io::Result<bool> {
    if !reader.buffer().is_empty() {
        return Ok(true);
    }
    let mut probe = [0u8; 1];
    match reader.get_ref().peek(&mut probe) {
        Ok(0) => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed",
        )),
        Ok(_) => Ok(true),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// Drives one connection through the protocol until the peer leaves, a
/// protocol fault tears it down, the idle policy fires, or the server
/// drains.
fn serve_connection(
    stream: TcpStream,
    bus: &Arc<IngestBus>,
    shutdown: &Arc<AtomicBool>,
    config: &ServerConfig,
    uptime: Stopwatch,
) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    if stream
        .set_read_timeout(Some(Duration::from_millis(config.heartbeat_ms.max(1))))
        .is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);

    // (tenant, session) once HELLO succeeds.
    let mut identity: Option<(String, String)> = None;
    let mut idle_ticks = 0u32;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match wait_for_traffic(&reader) {
            Ok(false) => {
                idle_ticks += 1;
                if idle_ticks >= config.idle_ticks_limit {
                    // Stalled writer: hang up. The session cursor
                    // survives; a recovered agent resumes via HELLO.
                    return;
                }
                continue;
            }
            Ok(true) => idle_ticks = 0,
            Err(_) => return,
        }
        // Traffic is pending; a timeout *inside* a message now means a
        // writer that stalled mid-frame — a torn message, which tears
        // down the connection (framing has no resync point by design).
        let msg = match read_message(&mut reader) {
            Ok(msg) => msg,
            Err(_) => return,
        };
        match dispatch(msg, bus, &mut identity, &mut writer, config, uptime) {
            Flow::Continue => {}
            Flow::Hangup => return,
        }
    }
}

enum Flow {
    Continue,
    Hangup,
}

/// Handles one decoded message. Replies are only ever written here, in
/// direct response to a client message — the server never pushes, so a
/// client that stops reading can stall only itself.
fn dispatch(
    msg: Message,
    bus: &Arc<IngestBus>,
    identity: &mut Option<(String, String)>,
    writer: &mut TcpStream,
    config: &ServerConfig,
    uptime: Stopwatch,
) -> Flow {
    match msg.kind {
        MessageKind::Hello => {
            let hello = match Hello::parse(&msg.body) {
                Ok(h) => h,
                Err(e) => return refuse(writer, &format!("bad HELLO: {e}")),
            };
            match bus.hello(&hello.tenant, &hello.session, hello.strictness) {
                Ok((cursor, quarantined)) => {
                    *identity = Some((hello.tenant, hello.session));
                    let welcome = Message {
                        kind: MessageKind::Welcome,
                        seq: cursor,
                        body: Cursor {
                            cursor,
                            quarantined,
                        }
                        .encode(),
                    };
                    reply(writer, &welcome)
                }
                Err(reason) => refuse(writer, &reason),
            }
        }
        MessageKind::Data => {
            let Some((tenant, session)) = identity.as_ref() else {
                return refuse(writer, "DATA before HELLO");
            };
            // Admission outcomes are deliberately not acknowledged per
            // frame: acks are pulled via HEARTBEAT/BYE, so a slow
            // consumer can never be deadlocked by its own unread acks.
            bus.admit(tenant, session, msg.seq, msg.body);
            Flow::Continue
        }
        MessageKind::Heartbeat | MessageKind::Bye => {
            let Some((tenant, session)) = identity.as_ref() else {
                return refuse(writer, "HEARTBEAT/BYE before HELLO");
            };
            let (cursor, quarantined) = bus.cursor(tenant, session);
            let ack = Message {
                kind: MessageKind::Ack,
                seq: cursor,
                body: Cursor {
                    cursor,
                    quarantined,
                }
                .encode(),
            };
            let flow = reply(writer, &ack);
            if msg.kind == MessageKind::Bye {
                return Flow::Hangup;
            }
            flow
        }
        MessageKind::Status => {
            let tenant = String::from_utf8_lossy(&msg.body);
            let tenant = tenant
                .trim()
                .strip_prefix("tenant=")
                .unwrap_or(tenant.trim());
            if tenant.is_empty() {
                let info = format!(
                    "tenants={}\nuptime_ms={}\nheartbeat_ms={}\n",
                    bus.tenant_ids().len(),
                    uptime.elapsed_ms(),
                    config.heartbeat_ms,
                );
                return reply(writer, &ok(info.into_bytes()));
            }
            match bus.status(tenant) {
                Ok(summary) => reply(writer, &ok(summary)),
                Err(reason) => refuse(writer, &reason),
            }
        }
        MessageKind::Health => {
            let tenant = String::from_utf8_lossy(&msg.body);
            let tenant = tenant
                .trim()
                .strip_prefix("tenant=")
                .unwrap_or(tenant.trim());
            match bus.health_text(tenant) {
                Ok(text) => reply(writer, &ok(text.into_bytes())),
                Err(reason) => refuse(writer, &reason),
            }
        }
        // Reply kinds arriving from a client are a protocol violation.
        MessageKind::Welcome | MessageKind::Ack | MessageKind::Ok | MessageKind::Error => {
            refuse(writer, "reply kind sent as request")
        }
    }
}

fn ok(body: Vec<u8>) -> Message {
    Message {
        kind: MessageKind::Ok,
        seq: 0,
        body,
    }
}

fn reply(writer: &mut TcpStream, msg: &Message) -> Flow {
    match write_message(writer, msg) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Hangup,
    }
}

fn refuse(writer: &mut TcpStream, reason: &str) -> Flow {
    let err = Message {
        kind: MessageKind::Error,
        seq: 0,
        body: reason.as_bytes().to_vec(),
    };
    let _ = write_message(writer, &err);
    Flow::Hangup
}

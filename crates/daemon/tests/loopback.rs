//! Loopback integration: one server, live agents, real sockets — the
//! fast protocol-level checks (the multi-tenant faulted soak with
//! offline-oracle comparison lives at the workspace root,
//! `tests/daemon_soak.rs`).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ssfa_daemon::bus::BusConfig;
use ssfa_daemon::{
    expect_message, read_message, write_message, AgentConfig, Cursor, Hello, Message, MessageKind,
    ReplayAgent, Server, ServerConfig, Stopwatch,
};
use ssfa_logs::frame::encode_frame;
use ssfa_logs::render::NoiseParams;
use ssfa_logs::shard::{render_system_log, ShardPlan};
use ssfa_logs::{CascadeStyle, Strictness};
use ssfa_model::{Fleet, FleetConfig};
use ssfa_sim::Simulator;

fn test_server() -> ssfa_daemon::ServerHandle {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        heartbeat_ms: 25,
        idle_ticks_limit: 3,
        bus: BusConfig::default(),
        wal: None,
    })
    .expect("bind loopback")
}

/// Real shard frames from a tiny seeded fleet.
fn fleet_frames(seed: u64) -> Vec<Vec<u8>> {
    let fleet = Fleet::build(&FleetConfig::paper().scaled(0.001), seed);
    let out = Simulator::default().run(&fleet, seed);
    let plan = ShardPlan::new(&fleet, &out);
    (0..plan.shard_count())
        .map(|shard| {
            let book = render_system_log(
                &fleet,
                &out,
                &plan,
                shard,
                CascadeStyle::RaidOnly,
                NoiseParams::none(),
                seed,
            );
            let text = book.to_text();
            let mut frame = Vec::new();
            encode_frame(
                &mut frame,
                fleet.systems()[shard].id.0,
                book.len() as u64,
                text.as_bytes(),
            );
            frame
        })
        .collect()
}

#[test]
fn clean_replay_completes_in_one_connection() {
    let server = test_server();
    let frames = fleet_frames(3);
    let total = frames.len() as u64;
    let agent = ReplayAgent::new(AgentConfig::clean("acme", "s1"), frames);
    let report = agent.run(server.addr()).expect("clean replay");
    assert_eq!(report.connections, 1, "no faults, no reconnects");
    assert_eq!(report.final_cursor, total);
    assert_eq!(report.ledger.faults_injected(), 0);
    assert!(report.quarantined.is_none());

    let drained = server.finish();
    assert_eq!(drained.tenants.len(), 1);
    let tenant = &drained.tenants[0];
    assert_eq!(tenant.tenant, "acme");
    assert_eq!(tenant.health.shards_total as u64, total);
    assert_eq!(tenant.health.shards_processed as u64, total);
    assert!(tenant.health.is_clean(), "{}", tenant.health);
    assert!(tenant
        .summary
        .starts_with(b"{\n  \"schema\": \"ssfa-run-summary/v1\","));
}

#[test]
fn status_and_health_are_served_live_over_tcp() {
    let server = test_server();
    let frames = fleet_frames(5);
    ReplayAgent::new(AgentConfig::clean("acme", "s1"), frames)
        .run(server.addr())
        .expect("replay");

    // Query from a fresh connection, no HELLO required.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Status,
            seq: 0,
            body: b"tenant=acme\n".to_vec(),
        },
    )
    .unwrap();
    let reply = expect_message(&mut stream, MessageKind::Ok).unwrap();
    let summary = String::from_utf8(reply.body).unwrap();
    assert!(summary.contains("\"schema\": \"ssfa-run-summary/v1\""));

    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Health,
            seq: 0,
            body: b"tenant=acme\n".to_vec(),
        },
    )
    .unwrap();
    let reply = expect_message(&mut stream, MessageKind::Ok).unwrap();
    let health = String::from_utf8(reply.body).unwrap();
    assert!(health.contains("run health"), "{health}");
    // The shedding counters are pinned `key=value` lines, present even
    // when zero, so scrapers never have to parse the prose report.
    assert!(health.contains("\nframes_shed=0\n"), "{health}");
    assert!(health.contains("\nlines_shed=0\n"), "{health}");

    // Empty-tenant STATUS returns server info (the wall-clock's only
    // appearance in the protocol).
    write_message(&mut stream, &Message::bare(MessageKind::Status)).unwrap();
    let reply = expect_message(&mut stream, MessageKind::Ok).unwrap();
    let info = String::from_utf8(reply.body).unwrap();
    assert!(info.contains("tenants=1"), "{info}");
    assert!(info.contains("uptime_ms="), "{info}");

    // Unknown tenant is a typed refusal.
    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Status,
            seq: 0,
            body: b"tenant=ghost\n".to_vec(),
        },
    )
    .unwrap();
    let err = expect_message(&mut stream, MessageKind::Ok).unwrap_err();
    assert!(err.to_string().contains("unknown tenant"), "{err}");

    server.finish();
}

#[test]
fn stalled_connection_is_hung_up_but_session_survives() {
    let server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = Hello {
        tenant: "t".to_owned(),
        session: "s".to_owned(),
        cursor: 0,
        strictness: Strictness::Strict,
    };
    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Hello,
            seq: 0,
            body: hello.encode(),
        },
    )
    .unwrap();
    expect_message(&mut stream, MessageKind::Welcome).unwrap();

    // Stall past the idle window (25ms * 3 ticks); the server must hang
    // up on us: the next read observes EOF rather than blocking forever.
    std::thread::sleep(Duration::from_millis(300));
    let gone = read_message(&mut stream).is_err();
    assert!(gone, "server should have hung up on a stalled writer");

    // The session survived the hangup: a reconnect resumes at cursor 0
    // with no quarantine.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Hello,
            seq: 0,
            body: hello.encode(),
        },
    )
    .unwrap();
    let welcome = expect_message(&mut stream, MessageKind::Welcome).unwrap();
    let cursor = Cursor::parse(&welcome.body).unwrap();
    assert_eq!(cursor.cursor, 0);
    assert!(cursor.quarantined.is_none());
    server.finish();
}

/// Connects and completes a `HELLO` for tenant `t`, session `s`.
fn hello_connection(server: &ssfa_daemon::ServerHandle) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = Hello {
        tenant: "t".to_owned(),
        session: "s".to_owned(),
        cursor: 0,
        strictness: Strictness::Strict,
    };
    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Hello,
            seq: 0,
            body: hello.encode(),
        },
    )
    .unwrap();
    expect_message(&mut stream, MessageKind::Welcome).unwrap();
    stream
}

#[test]
fn messages_arriving_in_one_write_are_all_answered() {
    let server = test_server();
    let mut stream = hello_connection(&server);
    // HEARTBEAT and BYE in one segment: the server reads both into its
    // buffer at once. The BYE waiting there is traffic, not an idle tick,
    // so it is answered rather than timed out.
    let mut both = Vec::new();
    write_message(&mut both, &Message::bare(MessageKind::Heartbeat)).unwrap();
    write_message(&mut both, &Message::bare(MessageKind::Bye)).unwrap();
    stream.write_all(&both).unwrap();
    for _ in 0..2 {
        let ack = expect_message(&mut stream, MessageKind::Ack).unwrap();
        assert_eq!(Cursor::parse(&ack.body).unwrap().cursor, 0);
    }
    assert!(read_message(&mut stream).is_err(), "BYE hangs up");
    server.finish();
}

#[test]
fn a_silent_connection_is_hung_up_after_the_idle_ticks() {
    let server = test_server();
    let mut stream = hello_connection(&server);
    write_message(&mut stream, &Message::bare(MessageKind::Heartbeat)).unwrap();
    expect_message(&mut stream, MessageKind::Ack).unwrap();
    // Nothing is buffered now; three silent 25 ms ticks hang up.
    let silence = Stopwatch::start();
    assert!(read_message(&mut stream).is_err(), "server must hang up");
    let waited = silence.elapsed_ms();
    assert!(
        waited >= 50,
        "hung up after {waited} ms, before the idle ticks"
    );
    server.finish();
}

#[test]
fn data_before_hello_is_refused() {
    let server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut body = Vec::new();
    encode_frame(&mut body, 0, 0, b"");
    write_message(
        &mut stream,
        &Message {
            kind: MessageKind::Data,
            seq: 0,
            body,
        },
    )
    .unwrap();
    let reply = read_message(&mut stream).unwrap();
    assert_eq!(reply.kind, MessageKind::Error);
    assert!(String::from_utf8_lossy(&reply.body).contains("before HELLO"));
    server.finish();
}

//! The `ssfad` daemon binary: serve the ingest bus, query it.
//!
//! ```text
//! ssfad serve [--addr 127.0.0.1:7070] [--heartbeat-ms 1000] ...
//! ssfad status <addr> [--tenant <t>]
//! ssfad health <addr> --tenant <t>
//! ```
//!
//! `serve` runs the daemon in the foreground until **stdin closes**, then
//! drains gracefully and prints every tenant's final summary — a shutdown
//! contract that works identically under a terminal (Ctrl-D), a pipe
//! (`echo | ssfad serve`), and a supervisor closing the handle. `status`
//! and `health` are thin protocol clients over one TCP connection.

use std::io::Read;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use ssfa::daemon::bus::BusConfig;
use ssfa::daemon::{expect_message, write_message, Message, MessageKind, Server, ServerConfig};

const USAGE: &str = "\
usage: ssfad <serve|status|health> [options]
       ssfad --version

  ssfad serve [--addr <ip:port>] [--heartbeat-ms <n>] [--idle-ticks <n>]
              [--queue-capacity <n>] [--reorder-window <n>] [--wal <dir>]
      Run the analysis daemon in the foreground. Agents connect with
      `ssfa agent replay`. Closing stdin drains the bus gracefully and
      prints every tenant's final summary. With --wal, every admitted
      frame is write-ahead-logged to <dir> before it is acknowledged,
      and a restarted daemon replays the log so sessions resume exactly
      where their cursors left off.

  ssfad status <addr> [--tenant <t>]
      Print a tenant's live run summary (JSON), or server info when no
      tenant is given.

  ssfad health <addr> --tenant <t>
      Print a tenant's live RunHealth audit.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// CLI failures: usage errors print the help text and exit 2; runtime
/// errors print one line and exit 1.
enum CliError {
    Usage(String),
    Run(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn run(args: &[&str]) -> Result<(), CliError> {
    match args {
        ["--version"] => {
            println!("ssfad {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        ["serve", opts @ ..] => serve(opts),
        ["status", opts @ ..] => query(opts, MessageKind::Status, false),
        ["health", opts @ ..] => query(opts, MessageKind::Health, true),
        [other, ..] => Err(usage(format!("unknown command `{other}`"))),
        [] => Err(usage("no command given")),
    }
}

/// A minimal `--flag value` walker over one subcommand's arguments.
struct Opts<'a> {
    args: std::slice::Iter<'a, &'a str>,
}

impl<'a> Opts<'a> {
    fn new(args: &'a [&'a str]) -> Opts<'a> {
        Opts { args: args.iter() }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().copied()
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| usage(format!("invalid value for {flag}: `{raw}`")))
    }
}

fn serve(args: &[&str]) -> Result<(), CliError> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7070".to_owned(),
        ..ServerConfig::default()
    };
    let mut bus = BusConfig::default();
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            "--addr" => config.addr = opts.value(flag)?.to_owned(),
            "--heartbeat-ms" => config.heartbeat_ms = opts.parse(flag)?,
            "--idle-ticks" => config.idle_ticks_limit = opts.parse(flag)?,
            "--queue-capacity" => bus.queue_capacity = opts.parse(flag)?,
            "--reorder-window" => bus.reorder_window = opts.parse(flag)?,
            "--wal" => config.wal = Some(std::path::PathBuf::from(opts.value(flag)?)),
            other => return Err(usage(format!("unknown serve option `{other}`"))),
        }
    }
    if config.heartbeat_ms == 0 {
        return Err(usage("--heartbeat-ms must be at least 1"));
    }
    if config.idle_ticks_limit == 0 {
        return Err(usage("--idle-ticks must be at least 1"));
    }
    if bus.queue_capacity == 0 {
        return Err(usage("--queue-capacity must be at least 1"));
    }
    config.bus = bus;

    let server = Server::spawn(config).map_err(|e| CliError::Run(format!("bind: {e}")))?;
    for cut in server.bus().wal().map_or(&[][..], |wal| wal.set_aside()) {
        println!("WARNING: {cut}");
    }
    println!("ssfad listening on {}", server.addr());
    println!("close stdin to drain and exit");

    // Block until stdin closes, then drain.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);

    let report = server.finish();
    println!(
        "drained after {} ms: {} tenant(s)",
        report.uptime_ms,
        report.tenants.len()
    );
    for tenant in &report.tenants {
        println!("--- tenant {} ---", tenant.tenant);
        match &tenant.quarantined {
            Some(reason) => println!("QUARANTINED: {reason}"),
            None => print!("{}", String::from_utf8_lossy(&tenant.summary)),
        }
        println!("{}", tenant.health);
    }
    Ok(())
}

fn query(args: &[&str], kind: MessageKind, tenant_required: bool) -> Result<(), CliError> {
    let mut addr: Option<&str> = None;
    let mut tenant = "";
    let mut opts = Opts::new(args);
    while let Some(flag) = opts.next() {
        match flag {
            "--tenant" => tenant = opts.value(flag)?,
            other if !other.starts_with('-') && addr.is_none() => addr = Some(other),
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    let addr = addr.ok_or_else(|| usage("need a server address"))?;
    if tenant_required && tenant.is_empty() {
        return Err(usage("health needs --tenant <t>"));
    }

    let mut stream =
        TcpStream::connect(addr).map_err(|e| CliError::Run(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| CliError::Run(e.to_string()))?;
    let body = if tenant.is_empty() {
        Vec::new()
    } else {
        format!("tenant={tenant}\n").into_bytes()
    };
    write_message(&mut stream, &Message { kind, seq: 0, body })
        .map_err(|e| CliError::Run(e.to_string()))?;
    let reply =
        expect_message(&mut stream, MessageKind::Ok).map_err(|e| CliError::Run(e.to_string()))?;
    print!("{}", String::from_utf8_lossy(&reply.body));
    Ok(())
}

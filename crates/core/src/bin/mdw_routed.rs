//! `mdw-routed` — the resident fault-tolerant fabric-control service.
//!
//! Owns one simulated fabric and serves the line protocol of
//! [`mdworm::routed::proto`] over stdin/stdout (default), a local TCP
//! socket (`--listen`), or a script file (`--script`, deterministic:
//! no reader threads, time moves only on `step`).
//!
//! ```text
//! mdw-routed [--config FILE] [--script FILE] [--listen ADDR]
//!            [--p99-budget CYCLES]
//! ```
//!
//! * `--config FILE` — `key = value` config text (see `configs/*.mdw`);
//!   the `response` block defaults on when absent. The storm-control
//!   tuning (damping, backoff, ladder, watchdog, slice and queue sizes)
//!   is the constants of [`mdworm::routed`], not config keys.
//! * `--script FILE` — run the requests in FILE, echo each with its
//!   reply, print the final metrics line, and exit.
//! * `--listen ADDR` — accept line-protocol clients on `ADDR`
//!   (e.g. `127.0.0.1:9097`), one thread per connection, all funneled
//!   through the bounded queue: events get backpressure, queries shed.
//! * `--p99-budget CYCLES` — exit non-zero if the final p99
//!   detect→install latency exceeds the budget (CI smoke gate).
//!
//! One `step N` request advances the fabric at most
//! [`MAX_STEP`](mdworm::routed::MAX_STEP) = 1 000 000 cycles; a larger
//! `N` gets an `err` reply.
//!
//! Exit status: 0 on clean shutdown within budget (and on `--help`,
//! which prints the usage to stdout), 1 on budget breach, 2 on
//! usage/config errors.

use mdworm::cfgtext::parse_config;
use mdworm::config::SystemConfig;
use mdworm::routed::queue::{submit, Envelope, ShedCounter};
use mdworm::routed::{Request, RoutedService, QUEUE_CAP};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, SyncSender};

struct Args {
    config: Option<String>,
    script: Option<String>,
    listen: Option<String>,
    p99_budget: Option<u64>,
}

const USAGE: &str = "usage: mdw-routed [--config FILE] [--script FILE] \
                     [--listen ADDR] [--p99-budget CYCLES]\n\
                     requests: one per line (link, join, leave, route, reach, health, \
                     metrics, step, quit); `step N` takes N <= 1000000 cycles";

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        config: None,
        script: None,
        listen: None,
        p99_budget: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut want = |what: &str| argv.next().ok_or(format!("{what} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--config" => args.config = Some(want("--config")?),
            "--script" => args.script = Some(want("--script")?),
            "--listen" => args.listen = Some(want("--listen")?),
            "--p99-budget" => {
                let v = want("--p99-budget")?;
                args.p99_budget = Some(
                    v.parse()
                        .map_err(|_| format!("bad --p99-budget `{v}`\n{USAGE}"))?,
                );
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.script.is_some() && args.listen.is_some() {
        return Err(format!("--script and --listen are exclusive\n{USAGE}"));
    }
    Ok(Some(args))
}

fn load_config(path: Option<&str>) -> Result<SystemConfig, String> {
    match path {
        None => Ok(SystemConfig::default()),
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            parse_config(&text).map_err(|e| format!("{p}: {e}"))
        }
    }
}

/// Deterministic script mode: requests apply in file order on the one
/// service thread; nothing is shed and time moves only on `step`.
fn run_script(service: &mut RoutedService, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let reply = match Request::parse(line) {
            Ok(req) => {
                let reply = service.handle(&req);
                if req == Request::Quit {
                    println!("> {line}\n{reply}");
                    return Ok(());
                }
                reply
            }
            Err(e) => format!("err line {}: {e}", lineno + 1),
        };
        println!("> {line}\n{reply}");
    }
    Ok(())
}

/// One reader: parse lines from `input`, funnel them through the bounded
/// queue, write each reply to `output`. Returns when the client sends
/// `quit`, hits EOF, or the service loop goes away.
fn pump_lines<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    tx: &SyncSender<Envelope>,
    shed: &ShedCounter,
) {
    for line in input.lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let req = match Request::parse(trimmed) {
            Ok(req) => req,
            Err(e) => {
                if writeln!(output, "err {e}").is_err() {
                    break;
                }
                continue;
            }
        };
        let quit = req == Request::Quit;
        let (reply_tx, reply_rx) = mpsc::channel();
        let env = Envelope {
            req,
            reply: reply_tx,
        };
        match submit(tx, env, shed) {
            Ok(_) => {
                // Shed queries already carry their `err shed` reply.
                if let Ok(reply) = reply_rx.recv() {
                    if writeln!(output, "{reply}").is_err() {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
        if quit {
            break;
        }
    }
}

fn serve_tcp(addr: &str, tx: SyncSender<Envelope>, shed: ShedCounter) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    eprintln!("mdw-routed: listening on {addr}");
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let tx = tx.clone();
        let shed = shed.clone();
        std::thread::spawn(move || {
            let reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            pump_lines::<BufReader<TcpStream>, TcpStream>(reader, stream, &tx, &shed);
        });
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cfg = match load_config(args.config.as_deref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mdw-routed: {e}");
            std::process::exit(2);
        }
    };
    let mut service = match RoutedService::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            let origin = args
                .config
                .as_deref()
                .map_or(String::new(), |p| format!("{p}: "));
            eprintln!("mdw-routed: {origin}{e}");
            std::process::exit(2);
        }
    };
    let shed = service.shed_counter();

    if let Some(script) = &args.script {
        if let Err(e) = run_script(&mut service, script) {
            eprintln!("mdw-routed: {e}");
            std::process::exit(2);
        }
    } else {
        let (tx, rx) = mpsc::sync_channel::<Envelope>(QUEUE_CAP);
        if let Some(addr) = args.listen.clone() {
            let shed = shed.clone();
            std::thread::spawn(move || {
                if let Err(e) = serve_tcp(&addr, tx, shed) {
                    eprintln!("mdw-routed: {e}");
                    std::process::exit(2);
                }
            });
        } else {
            let shed = shed.clone();
            std::thread::spawn(move || {
                let stdin = std::io::stdin();
                pump_lines(stdin.lock(), std::io::stdout(), &tx, &shed);
            });
        }
        // The service loop runs here until `quit` or every client is gone.
        service.run(&rx, true);
    }

    let metrics = service.metrics();
    eprintln!("mdw-routed: {}", metrics.render());
    if let Some(budget) = args.p99_budget {
        if metrics.detect_install_p99 > budget {
            eprintln!(
                "mdw-routed: p99 detect→install {} cycles exceeds budget {budget}",
                metrics.detect_install_p99
            );
            std::process::exit(1);
        }
    }
}

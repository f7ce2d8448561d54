//! The `popk serve` daemon and its scripting client.
//!
//! Daemon:
//! `cargo run --release -p popk-bench --bin serve -- [--addr A] [--workers N]
//! [--queue N] [--cache DIR] [--cache-cap BYTES]`
//! binds (default `127.0.0.1:4650`), prints `listening on ADDR`, and
//! serves until a client sends `{"op":"shutdown"}`. `--cache-cap`
//! bounds the artifact cache, evicting LRU entries.
//!
//! Client:
//! `serve client <addr> ping`
//! `serve client <addr> submit <workload> [config] [limit] [--seed S] [--events]`
//! `serve client <addr> compare <workload> <cfgA> <cfgB> [limit]`
//! `serve client <addr> stats`
//! `serve client <addr> shutdown [--drain]`
//!
//! The client retries transient failures (refused connects while the
//! daemon is still binding, `backpressure` rejections from a full
//! queue) with capped exponential backoff before giving up. Every
//! response line is printed as received; the process exits nonzero if
//! any response is an `error`.

use popk_bench::{Client, ClientError, RetryPolicy, ServeConfig, Server};
use popk_core::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("client") {
        run_client(&args[1..])
    } else {
        run_daemon(&args)
    };
    std::process::exit(code);
}

fn run_daemon(args: &[String]) -> i32 {
    let mut cfg = ServeConfig::new("127.0.0.1:4650", "popk-serve-cache");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => cfg.workers = value("--workers").parse().unwrap_or(cfg.workers),
            "--queue" => {
                cfg.queue_capacity = value("--queue").parse().unwrap_or(cfg.queue_capacity);
            }
            "--cache" => cfg.cache_dir = value("--cache").into(),
            "--cache-cap" => {
                cfg.cache_max_bytes = value("--cache-cap").replace('_', "").parse().ok();
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return 2;
            }
        }
    }
    let cache = cfg.cache_dir.display().to_string();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return 1;
        }
    };
    println!("listening on {} (cache: {cache})", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    println!("shut down");
    0
}

fn run_client(args: &[String]) -> i32 {
    let (Some(addr), Some(op)) = (args.first(), args.get(1)) else {
        eprintln!("usage: serve client <addr> ping|submit|compare|stats|shutdown …");
        return 2;
    };
    let retry = RetryPolicy::default();
    let mut client = match Client::connect_retry(addr, &retry) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connect {addr}: {e}");
            return 1;
        }
    };
    let rest = &args[2..];
    let outcome = match op.as_str() {
        "ping" | "stats" => {
            let mut req = Json::object();
            req.set("op", op.as_str().into());
            one_shot(&mut client, &req)
        }
        "shutdown" => {
            let mut req = Json::object();
            req.set("op", "shutdown".into());
            if rest.iter().any(|a| a == "--drain") {
                req.set("drain", Json::from(true));
            }
            one_shot(&mut client, &req)
        }
        "submit" => client_submit(&mut client, rest, &retry),
        "compare" => client_compare(&mut client, rest),
        other => {
            eprintln!("unknown client op `{other}`");
            return 2;
        }
    };
    match outcome {
        Ok(errored) => i32::from(errored),
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Send one request, print one response. Returns whether it errored.
fn one_shot(client: &mut Client, req: &Json) -> Result<bool, ClientError> {
    let resp = client.request(req)?;
    println!("{resp}");
    Ok(resp.get("type").and_then(Json::as_str) == Some("error"))
}

fn job_spec(args: &[String]) -> (Json, bool) {
    let mut spec = Json::object();
    let mut events = false;
    let mut positional = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--events" {
            events = true;
        } else if a == "--seed" {
            if let Some(s) = it.next().and_then(|v| v.parse::<u64>().ok()) {
                spec.set("seed", Json::from(s));
            }
        } else {
            match positional {
                0 => spec.set("workload", a.as_str().into()),
                1 => spec.set("config", a.as_str().into()),
                _ => spec.set(
                    "limit",
                    Json::from(a.replace('_', "").parse::<u64>().unwrap_or(0)),
                ),
            };
            positional += 1;
        }
    }
    (spec, events)
}

fn client_submit(
    client: &mut Client,
    args: &[String],
    retry: &RetryPolicy,
) -> Result<bool, ClientError> {
    let (mut req, events) = job_spec(args);
    req.set("op", "submit".into());
    if events {
        req.set("events", Json::from(true));
    }
    // Stream accepted/progress lines until the terminal response,
    // retrying backpressure rejections with backoff.
    let (last, before) = client.submit_retry(&req, retry)?;
    for line in &before {
        println!("{line}");
    }
    println!("{last}");
    Ok(last.get("type").and_then(Json::as_str) == Some("error"))
}

fn client_compare(client: &mut Client, args: &[String]) -> Result<bool, ClientError> {
    let (Some(workload), Some(cfg_a), Some(cfg_b)) = (args.first(), args.get(1), args.get(2))
    else {
        eprintln!("usage: serve client <addr> compare <workload> <cfgA> <cfgB> [limit]");
        return Ok(true);
    };
    let side = |cfg: &str| {
        let mut s = Json::object();
        s.set("workload", workload.as_str().into());
        s.set("config", cfg.into());
        if let Some(limit) = args
            .get(3)
            .and_then(|v| v.replace('_', "").parse::<u64>().ok())
        {
            s.set("limit", Json::from(limit));
        }
        s
    };
    let mut req = Json::object();
    req.set("op", "compare".into());
    req.set("a", side(cfg_a));
    req.set("b", side(cfg_b));
    one_shot(client, &req)
}

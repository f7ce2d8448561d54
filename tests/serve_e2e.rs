//! End-to-end tests of the `popk serve` daemon: cache-hit byte
//! identity, cache robustness against corrupted entries, single-flight
//! deduplication of concurrent submitters, structured failure paths
//! (panic, deadlock, backpressure) that leave the daemon serving,
//! request latency off the TCP transport floor, and the stop paths.
//!
//! Each test boots a real server on an ephemeral port with a private
//! cache directory and talks to it over TCP through the line-JSON
//! [`Client`] — the same path the `serve client` subcommand uses.

use popk_bench::{set_poisoned_workload, Client, ServeConfig, Server};
use popk_core::Json;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A server on an ephemeral port with a fresh temp cache dir, plus the
/// dir (removed on drop).
struct TestServer {
    server: Option<Server>,
    cache_dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> TestServer {
        let cache_dir =
            std::env::temp_dir().join(format!("popk-serve-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut cfg = ServeConfig::new("127.0.0.1:0", &cache_dir);
        cfg.workers = 2;
        configure(&mut cfg);
        let server = Server::start(cfg).expect("server binds an ephemeral port");
        TestServer {
            server: Some(server),
            cache_dir,
        }
    }

    fn connect(&self) -> Client {
        let addr = self.server.as_ref().expect("server running").local_addr();
        Client::connect(&addr.to_string()).expect("client connects")
    }

    /// The on-disk entry path for a response's digest.
    fn entry_path(&self, digest: &str) -> PathBuf {
        self.cache_dir
            .join(&digest[..2])
            .join(format!("{digest}.json"))
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn submit_req(workload: &str, config: &str, limit: u64, tag: &str) -> Json {
    let mut req = Json::object();
    req.set("op", "submit".into());
    req.set("workload", workload.into());
    req.set("config", config.into());
    req.set("limit", Json::from(limit));
    req.set("tag", tag.into());
    req
}

/// Submit and consume the stream to the terminal response, returning
/// (terminal line, lines before it).
fn submit(client: &mut Client, req: &Json) -> (Json, Vec<Json>) {
    client.send(req).expect("send");
    client.recv_until(&["result"]).expect("response stream")
}

fn response_type(j: &Json) -> &str {
    j.get("type").and_then(Json::as_str).unwrap_or("")
}

fn artifact_text(result: &Json) -> String {
    assert_eq!(response_type(result), "result", "not a result: {result}");
    result
        .get("artifact")
        .expect("artifact present")
        .to_string()
}

fn is_cached(result: &Json) -> bool {
    result
        .get("cached")
        .and_then(Json::as_bool)
        .expect("cached flag")
}

fn digest_of(result: &Json) -> String {
    result
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest present")
        .to_string()
}

/// The four committed 200k artifacts whose bodies must survive any
/// serve activity untouched.
fn committed_artifacts() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    ["ablations", "fig11", "fig12", "table1"]
        .iter()
        .map(|name| {
            let path = root.join(format!("BENCH_{name}.json"));
            let body = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("committed artifact {}: {e}", path.display()));
            (path, body)
        })
        .collect()
}

#[test]
fn e2e_submit_stream_and_cache_hit_byte_identity() {
    let before = committed_artifacts();
    let ts = TestServer::start("e2e", |_| {});
    let mut client = ts.connect();

    // The server answers pings with its protocol version.
    let mut ping = Json::object();
    ping.set("op", "ping".into());
    let pong = client.request(&ping).expect("pong");
    assert_eq!(response_type(&pong), "pong");
    assert_eq!(pong.get("protocol").and_then(Json::as_u64), Some(2));

    // Fresh 20k-instruction job with the event stream on.
    let mut req = submit_req("gzip", "slice2", 20_000, "job1");
    req.set("events", Json::from(true));
    let (fresh, before_lines) = submit(&mut client, &req);
    assert_eq!(response_type(&fresh), "result", "{fresh}");
    assert!(!is_cached(&fresh), "first run must simulate");
    assert_eq!(fresh.get("tag").and_then(Json::as_str), Some("job1"));
    let accepted = before_lines
        .iter()
        .filter(|l| response_type(l) == "accepted")
        .count();
    let progress = before_lines
        .iter()
        .filter(|l| response_type(l) == "progress")
        .count();
    assert_eq!(accepted, 1, "exactly one accepted line: {before_lines:?}");
    assert!(
        progress >= 2,
        "20k instructions at a 5k interval stream progress: {before_lines:?}"
    );
    let fresh_artifact = artifact_text(&fresh);
    let digest = digest_of(&fresh);

    // The artifact landed on disk, seals verified, matching the wire copy.
    let disk = std::fs::read_to_string(ts.entry_path(&digest)).expect("cached entry on disk");
    let parsed_disk = Json::parse(&disk).expect("disk entry parses");
    assert_eq!(parsed_disk.to_string(), fresh_artifact);

    // Identical resubmission: flagged as a cache hit, byte-identical
    // artifact, and the disk entry untouched.
    let (hit, _) = submit(&mut client, &req);
    assert!(is_cached(&hit), "second run must be served from cache");
    assert_eq!(artifact_text(&hit), fresh_artifact);
    let disk_after = std::fs::read_to_string(ts.entry_path(&digest)).expect("entry still there");
    assert_eq!(disk_after, disk, "cache hit must not rewrite the entry");

    // A fresh connection sees the same cached bytes.
    let mut client2 = ts.connect();
    let (hit2, _) = submit(&mut client2, &req);
    assert!(is_cached(&hit2));
    assert_eq!(artifact_text(&hit2), fresh_artifact);

    // compare over two cached entries works end to end.
    let ideal = submit_req("gzip", "ideal", 20_000, "job2");
    let (ideal_res, _) = submit(&mut client, &ideal);
    assert_eq!(response_type(&ideal_res), "result", "{ideal_res}");
    let mut cmp = Json::object();
    cmp.set("op", "compare".into());
    cmp.set("a", {
        let mut s = Json::object();
        s.set("workload", "gzip".into());
        s.set("config", "slice2".into());
        s.set("limit", Json::from(20_000u64));
        s
    });
    cmp.set("b", {
        let mut s = Json::object();
        s.set("workload", "gzip".into());
        s.set("config", "ideal".into());
        s.set("limit", Json::from(20_000u64));
        s
    });
    let diff = client.request(&cmp).expect("compare");
    assert_eq!(response_type(&diff), "compare", "{diff}");
    let ratio = diff.get("ipc_ratio").and_then(Json::as_f64).expect("ratio");
    assert!(
        ratio > 0.1 && ratio < 1.5,
        "slice2/ideal IPC ratio: {ratio}"
    );
    assert!(
        !diff
            .get("differing_counters")
            .and_then(Json::as_array)
            .expect("diff list")
            .is_empty(),
        "different configs differ in counters"
    );

    drop(ts); // full shutdown before re-reading the committed artifacts

    for (path, body) in before {
        let now = std::fs::read_to_string(&path).expect("artifact readable");
        assert_eq!(now, body, "{} changed", path.display());
    }
}

#[test]
fn cache_robustness_corrupted_entries_resimulate() {
    let ts = TestServer::start("robust", |_| {});
    let mut client = ts.connect();
    let req = submit_req("li", "slice2-1", 10_000, "rob");

    let (fresh, _) = submit(&mut client, &req);
    assert!(!is_cached(&fresh), "{fresh}");
    let artifact = artifact_text(&fresh);
    let digest = digest_of(&fresh);
    let path = ts.entry_path(&digest);
    let good = std::fs::read_to_string(&path).expect("entry written");

    // Truncation (invalid JSON) → detected, re-simulated, identical.
    std::fs::write(&path, &good[..good.len() / 2]).expect("truncate");
    let (r, _) = submit(&mut client, &req);
    assert!(!is_cached(&r), "truncated entry must re-simulate");
    assert_eq!(artifact_text(&r), artifact);

    // Silent bit-rot that stays valid JSON → checksum catches it.
    let rotten = good.replacen("\"cycles\"", "\"cycels\"", 1);
    assert_ne!(rotten, good);
    std::fs::write(&path, &rotten).expect("corrupt");
    let (r, _) = submit(&mut client, &req);
    assert!(!is_cached(&r), "corrupted entry must re-simulate");
    assert_eq!(artifact_text(&r), artifact);

    // Stale schema version, correctly sealed → version check catches it.
    let mut stale = Json::parse(&good).expect("parse good entry");
    stale.remove("integrity");
    stale.set("schema_version", Json::from(999_u64));
    std::fs::write(&path, popk_bench::cache::seal_body(stale)).expect("stale write");
    let (r, _) = submit(&mut client, &req);
    assert!(!is_cached(&r), "stale-schema entry must re-simulate");
    assert_eq!(artifact_text(&r), artifact);

    // After all that re-simulation the entry is healthy again.
    let (r, _) = submit(&mut client, &req);
    assert!(is_cached(&r), "repaired entry serves from cache");
    assert_eq!(artifact_text(&r), artifact);
    assert_eq!(std::fs::read_to_string(&path).expect("entry"), good);
}

#[test]
fn concurrent_same_key_submitters_share_one_simulation() {
    let ts = TestServer::start("concurrent", |_| {});
    // A budget big enough that the second submit lands while the first
    // is still simulating (~100k instructions ≈ tens of ms).
    let req = submit_req("gcc", "slice2", 100_000, "cc");

    let addr = ts.server.as_ref().unwrap().local_addr().to_string();
    let results: Vec<(Json, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (req, addr) = (req.clone(), addr.clone());
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    submit(&mut c, &req).0
                })
            })
            .collect();
        let mut out: Vec<Json> = handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect();
        let b = out.pop().expect("two results");
        let a = out.pop().expect("two results");
        vec![(a, b)]
    });
    let (a, b) = &results[0];
    assert_eq!(response_type(a), "result", "{a}");
    assert_eq!(response_type(b), "result", "{b}");
    assert_eq!(artifact_text(a), artifact_text(b), "identical responses");

    // Exactly one simulation ran for the two submissions.
    let mut client = ts.connect();
    let mut stats_req = Json::object();
    stats_req.set("op", "stats".into());
    let stats = client.request(&stats_req).expect("stats");
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(2));
    assert_eq!(
        stats.get("simulations").and_then(Json::as_u64),
        Some(1),
        "single-flight: {stats}"
    );
}

#[test]
fn failure_paths_keep_the_daemon_serving() {
    let ts = TestServer::start("failures", |cfg| {
        cfg.workers = 1;
    });
    let mut client = ts.connect();

    // A panicking job (the poison test seam) returns a structured
    // per-job error...
    set_poisoned_workload(Some("vortex"));
    let (err, _) = submit(
        &mut client,
        &submit_req("vortex", "ideal", 10_000, "poison"),
    );
    set_poisoned_workload(None);
    assert_eq!(response_type(&err), "error", "{err}");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("panic"));
    assert!(
        err.get("message")
            .and_then(Json::as_str)
            .expect("message")
            .contains("poisoned workload"),
        "{err}"
    );

    // ...and a deadlocked one (zero memory ports starves the watchdog)
    // likewise, with the SimError taxonomy's kind.
    let mut dead = submit_req("gzip", "ideal", 10_000, "dead");
    dead.set("overrides", {
        let mut o = Json::object();
        o.set("mem_ports", Json::from(0u64));
        o.set("watchdog", Json::from(2_000u64));
        o
    });
    let (err, _) = submit(&mut client, &dead);
    assert_eq!(response_type(&err), "error", "{err}");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadlock"));

    // Bad requests get typed errors without wedging the connection.
    let (err, _) = submit(&mut client, &submit_req("nope", "ideal", 10_000, "bad"));
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("unknown_workload")
    );
    let (err, _) = submit(&mut client, &submit_req("gzip", "nope", 10_000, "bad2"));
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("unknown_config")
    );

    // The daemon is still healthy after all of the above.
    let (ok, _) = submit(&mut client, &submit_req("gzip", "ideal", 10_000, "healthy"));
    assert_eq!(response_type(&ok), "result", "{ok}");
}

#[test]
fn out_of_range_overrides_are_typed_errors() {
    let ts = TestServer::start("overrides", |_| {});
    let mut client = ts.connect();
    let with_override = |key: &str, value: u64| {
        let mut req = submit_req("gzip", "ideal", 2_000, key);
        let mut o = Json::object();
        o.set(key, Json::from(value));
        req.set("overrides", o);
        req
    };

    // A width past u32 is refused, not wrapped to width 1.
    let (err, _) = submit(&mut client, &with_override("width", (1 << 32) + 1));
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("bad_request"),
        "{err}"
    );
    // An RUU too large to allocate is a typed config error, not an abort.
    let (err, _) = submit(&mut client, &with_override("ruu_size", 1 << 40));
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("invalid_config"),
        "{err}"
    );

    let mut ping = Json::object();
    ping.set("op", "ping".into());
    assert_eq!(response_type(&client.request(&ping).expect("pong")), "pong");
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let ts = TestServer::start("backpressure", |cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 1;
    });
    let mut client = ts.connect();

    // Distinct keys (seeds) so nothing attaches or cache-hits: with one
    // worker and a one-slot queue, rapid-fire submits must overflow.
    for i in 0..6u64 {
        let mut req = submit_req("parser", "slice4", 150_000, &format!("bp{i}"));
        req.set("seed", Json::from(i));
        client.send(&req).expect("send");
    }
    // Collect terminal responses for all six tags.
    let mut outcomes = std::collections::HashMap::new();
    while outcomes.len() < 6 {
        let (terminal, _) = client.recv_until(&["result"]).expect("stream");
        let tag = terminal
            .get("tag")
            .and_then(Json::as_str)
            .expect("tagged")
            .to_string();
        outcomes.insert(tag, terminal);
    }
    let rejected = outcomes
        .values()
        .filter(|r| {
            response_type(r) == "error"
                && r.get("kind").and_then(Json::as_str) == Some("backpressure")
        })
        .count();
    let completed = outcomes
        .values()
        .filter(|r| response_type(r) == "result")
        .count();
    // The submits land faster than the single worker can drain, so at
    // least the overflow beyond (1 queued + 1 running) must be rejected
    // immediately — and everything accepted must still finish.
    assert!(rejected >= 4, "full queue must reject: {outcomes:?}");
    assert!(completed >= 1, "accepted jobs still finish: {outcomes:?}");
    assert_eq!(rejected + completed, 6);
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Cache hits and fresh connections cost well under a millisecond on
/// loopback. The 10 ms bound sits far below the two transport floors a
/// regression would bring back: the client's delayed ACK (about 40 ms),
/// which a daemon with Nagle's algorithm on waits for before sending
/// `result` after `accepted`, and the interval of an accept loop that
/// polls.
#[test]
fn hits_and_connects_are_off_the_transport_floor() {
    let ts = TestServer::start("latency", |_| {});
    let mut client = ts.connect();
    let req = submit_req("gzip", "slice2", 20_000, "hot");
    let (fresh, _) = submit(&mut client, &req);
    assert!(!is_cached(&fresh), "{fresh}");

    let hits = (0..21)
        .map(|_| {
            let t = Instant::now();
            let (hit, _) = submit(&mut client, &req);
            let took = t.elapsed();
            assert!(is_cached(&hit), "{hit}");
            took
        })
        .collect();
    let mut ping = Json::object();
    ping.set("op", "ping".into());
    let connects = (0..11)
        .map(|_| {
            let t = Instant::now();
            let pong = ts.connect().request(&ping).expect("pong");
            let took = t.elapsed();
            assert_eq!(response_type(&pong), "pong", "{pong}");
            took
        })
        .collect();

    let (hit_ms, connect_ms) = (median_ms(hits), median_ms(connects));
    assert!(hit_ms < 10.0, "cache hit median {hit_ms:.2} ms");
    assert!(
        connect_ms < 10.0,
        "connect + ping median {connect_ms:.2} ms"
    );
}

/// Join `server` on a helper thread, failing the test if it is still
/// running after `limit`: a stop that never woke the blocked accept loop
/// would otherwise hang `join` for ever.
fn join_within(server: Server, limit: Duration) {
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    assert!(
        joined.recv_timeout(limit).is_ok(),
        "server still running {limit:?} after it was stopped"
    );
}

#[test]
fn shutdown_op_stops_the_server() {
    let mut ts = TestServer::start("stop-op", |_| {});
    let server = ts.server.take().expect("server running");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects");
    let mut req = Json::object();
    req.set("op", "shutdown".into());
    let ack = client.request(&req).expect("shutdown ack");
    assert_eq!(response_type(&ack), "shutdown", "{ack}");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(false));

    // Generous: only a missed wake comes near it.
    join_within(server, Duration::from_secs(10));
    assert!(
        Client::connect(&addr).is_err(),
        "a stopped server refuses connections"
    );
}

/// `Server::shutdown` wakes an accept loop that never accepted anything,
/// and the workers stop together: their receive timeouts do not queue
/// up behind one another, so 8 workers stop as fast as 1.
#[test]
fn server_shutdown_stops_a_never_connected_server_whatever_its_worker_count() {
    let mut ts = TestServer::start("stop-idle", |cfg| cfg.workers = 8);
    let server = ts.server.take().expect("server running");
    let addr = server.local_addr().to_string();

    server.shutdown();
    join_within(server, Duration::from_millis(500));
    assert!(
        Client::connect(&addr).is_err(),
        "a stopped server refuses connections"
    );
}

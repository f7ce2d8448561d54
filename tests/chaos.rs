//! Chaos harness for the crash-safe serving and sweep layers.
//!
//! A deterministic, seed-driven fault schedule is thrown at a real
//! `popk serve` daemon — worker panics, induced deadlock, connection
//! drops mid-stream, cache truncation and bit-rot, abandoned (canceled)
//! jobs — and after every storm the daemon must still answer, and
//! recovered artifacts must be **byte-identical** to a clean run's.
//! Separate tests cover the service journal (interrupted jobs finish
//! after a restart), graceful drain shutdown, cache-less degradation,
//! and the headline end-to-end: a sweep killed with SIGKILL mid-run and
//! resumed with `--resume` reproduces the clean artifact byte for byte.

use popk_bench::{
    journal, parse_config, set_poisoned_workload, table1_report_journaled, Client, JobKey,
    ServeConfig, Server, SweepJournal,
};
use popk_core::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// ---- shared plumbing (mirrors tests/serve_e2e.rs) --------------------------

struct TestServer {
    server: Option<Server>,
    cache_dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> TestServer {
        let cache_dir =
            std::env::temp_dir().join(format!("popk-chaos-{}-{tag}", std::process::id()));
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

fn digest_of(result: &Json) -> String {
    result
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest present")
        .to_string()
}

fn stats_of(client: &mut Client) -> Json {
    let mut req = Json::object();
    req.set("op", "stats".into());
    client.request(&req).expect("stats")
}

/// Submit until a `result` arrives, tolerating the transient `canceled`
/// error a just-abandoned inflight job answers with. Any other error is
/// a test failure.
fn submit_until_result(ts: &TestServer, req: &Json) -> Json {
    for _ in 0..100 {
        let mut client = ts.connect();
        let (last, _) = submit(&mut client, req);
        if response_type(&last) == "result" {
            return last;
        }
        assert_eq!(
            last.get("kind").and_then(Json::as_str),
            Some("canceled"),
            "unexpected failure: {last}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("no result after 100 attempts");
}

// ---- the seeded schedule ----------------------------------------------------

/// SplitMix64: a tiny deterministic PRNG — the whole fault schedule is
/// a pure function of `CHAOS_SEED`.
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

const CHAOS_SEED: u64 = 0x00b5_11ce_ca5c_ade5;
const LIMIT: u64 = 20_000;

#[test]
fn chaos_schedule_leaves_daemon_serving_and_artifacts_byte_identical() {
    let ts = TestServer::start("storm", |cfg| {
        cfg.workers = 2;
        cfg.queue_capacity = 8;
    });

    // Clean reference artifact, before any fault is injected.
    let reference_req = submit_req("gzip", "slice2", LIMIT, "ref");
    let reference = {
        let mut client = ts.connect();
        let (res, _) = submit(&mut client, &reference_req);
        assert_eq!(response_type(&res), "result", "{res}");
        (digest_of(&res), artifact_text(&res))
    };

    let faults: [&str; 6] = [
        "worker_panic",
        "deadlock",
        "drop_connection",
        "truncate_cache",
        "bit_rot_cache",
        "abandon_job",
    ];
    let mut rng = Chaos(CHAOS_SEED);
    for round in 0..2 {
        for &f in rng.permutation(faults.len()).iter().map(|&i| &faults[i]) {
            match f {
                "worker_panic" => {
                    set_poisoned_workload(Some("vortex"));
                    let mut client = ts.connect();
                    let (err, _) =
                        submit(&mut client, &submit_req("vortex", "ideal", LIMIT, "poison"));
                    set_poisoned_workload(None);
                    assert_eq!(
                        err.get("kind").and_then(Json::as_str),
                        Some("panic"),
                        "{err}"
                    );
                }
                "deadlock" => {
                    let mut req = submit_req("gzip", "ideal", LIMIT, "dead");
                    req.set("seed", Json::from(1_000 + round as u64));
                    req.set("overrides", {
                        let mut o = Json::object();
                        o.set("mem_ports", Json::from(0u64));
                        o.set("watchdog", Json::from(2_000u64));
                        o
                    });
                    let mut client = ts.connect();
                    let (err, _) = submit(&mut client, &req);
                    assert_eq!(
                        err.get("kind").and_then(Json::as_str),
                        Some("deadlock"),
                        "{err}"
                    );
                }
                "drop_connection" | "abandon_job" => {
                    // Submit under a unique key with the event stream
                    // on, then vanish mid-stream: the daemon cancels
                    // the unobservable job and must keep serving.
                    let seed = rng.next() % 1_000_000;
                    let mut req = submit_req("li", "slice2", LIMIT, "drop");
                    req.set("seed", Json::from(seed));
                    req.set("events", Json::from(true));
                    {
                        let mut doomed = ts.connect();
                        doomed.send(&req).expect("send");
                        let _ = doomed.recv(); // at most the `accepted` line
                    } // connection dropped here
                    req.remove("events");
                    let res = submit_until_result(&ts, &req);
                    assert_eq!(response_type(&res), "result");
                }
                "truncate_cache" => {
                    let path = ts.entry_path(&reference.0);
                    let body = std::fs::read_to_string(&path).expect("entry on disk");
                    std::fs::write(&path, &body[..body.len() / 3]).unwrap();
                    let mut client = ts.connect();
                    let (res, _) = submit(&mut client, &reference_req);
                    assert_eq!(
                        artifact_text(&res),
                        reference.1,
                        "resimulated artifact after truncation must match the clean run"
                    );
                }
                "bit_rot_cache" => {
                    // Damage the entry while keeping it valid JSON: the
                    // integrity seal no longer verifies, so the lookup
                    // must treat the entry as a miss and re-simulate.
                    let path = ts.entry_path(&reference.0);
                    let body = std::fs::read_to_string(&path).expect("entry on disk");
                    let rotted = body.replacen("\"integrity\"", "\"integrity_\"", 1);
                    assert_ne!(rotted, body, "tamper must change the entry");
                    std::fs::write(&path, rotted).unwrap();
                    let mut client = ts.connect();
                    let (res, _) = submit(&mut client, &reference_req);
                    assert_eq!(
                        artifact_text(&res),
                        reference.1,
                        "resimulated artifact after bit-rot must match the clean run"
                    );
                }
                other => unreachable!("unknown fault {other}"),
            }
        }
    }

    // After the storm: the daemon answers, and the reference key serves
    // the byte-identical artifact.
    let mut client = ts.connect();
    let mut ping = Json::object();
    ping.set("op", "ping".into());
    assert_eq!(response_type(&client.request(&ping).expect("pong")), "pong");
    let (res, _) = submit(&mut client, &reference_req);
    assert_eq!(artifact_text(&res), reference.1);
}

// ---- service journal recovery ----------------------------------------------

#[test]
fn serve_journal_replays_interrupted_jobs_on_restart() {
    let cache_dir = std::env::temp_dir().join(format!("popk-chaos-{}-recover", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).unwrap();

    // Forge the journal a crashed daemon would have left behind: one
    // job accepted and finished (must NOT re-run), one accepted and
    // interrupted (must be re-enqueued and finished into the cache).
    let spec = |seed: u64| {
        let mut s = Json::object();
        s.set("workload", "gzip".into());
        s.set("config", "slice2".into());
        s.set("limit", Json::from(LIMIT));
        s.set("seed", Json::from(seed));
        s
    };
    let digest = |seed: u64| {
        let cfg = parse_config("slice2").expect("config");
        JobKey::new("gzip", "slice2", &cfg, seed, LIMIT).digest()
    };
    let line = |op: &str, seed: u64| {
        let mut j = Json::object();
        j.set("op", op.into());
        j.set("digest", digest(seed).as_str().into());
        if op == "job" {
            j.set("spec", spec(seed));
        }
        journal::seal_line(j)
    };
    let journal_text = format!(
        "{}\n{}\n{}\n",
        line("job", 1),
        line("done", 1),
        line("job", 2)
    );
    std::fs::write(cache_dir.join("serve.journal"), journal_text).unwrap();

    let server = Server::start(ServeConfig::new("127.0.0.1:0", &cache_dir)).expect("starts");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    // Exactly one job recovered; wait for it to finish into the cache.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = stats_of(&mut client);
        assert_eq!(s.get("recovered").and_then(Json::as_u64), Some(1), "{s}");
        if s.get("simulations").and_then(Json::as_u64) == Some(1)
            && s.get("queue_depth").and_then(Json::as_u64) == Some(0)
        {
            break;
        }
        assert!(Instant::now() < deadline, "recovered job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The interrupted job's artifact is now served as a cache hit...
    let mut req = submit_req("gzip", "slice2", LIMIT, "after");
    req.set("seed", Json::from(2u64));
    let (res, _) = submit(&mut client, &req);
    assert_eq!(response_type(&res), "result", "{res}");
    assert_eq!(
        res.get("cached").and_then(Json::as_bool),
        Some(true),
        "{res}"
    );
    // ...and equals a fresh simulation of the same key elsewhere.
    let ts = TestServer::start("recover-clean", |_| {});
    let mut clean = ts.connect();
    let (clean_res, _) = submit(&mut clean, &req);
    assert_eq!(artifact_text(&res), artifact_text(&clean_res));

    // The finished job was not re-run (simulations stayed at 1).
    let s = stats_of(&mut client);
    assert_eq!(s.get("simulations").and_then(Json::as_u64), Some(1), "{s}");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---- drain shutdown ---------------------------------------------------------

#[test]
fn drain_shutdown_finishes_inflight_work_then_stops() {
    let ts = TestServer::start("drain", |cfg| {
        cfg.workers = 1;
    });

    // Park one real job on the single worker, and make sure the server
    // has accepted it before asking for the drain.
    let mut submitter = ts.connect();
    let req = submit_req("gcc", "slice2", 2_000_000, "slow");
    submitter.send(&req).expect("send");
    let accepted = submitter.recv().expect("accepted line");
    assert_eq!(response_type(&accepted), "accepted", "{accepted}");

    // Ask for a graceful drain from a second connection.
    let mut admin = ts.connect();
    let mut drain = Json::object();
    drain.set("op", "shutdown".into());
    drain.set("drain", Json::from(true));
    let ack = admin.request(&drain).expect("drain ack");
    assert_eq!(response_type(&ack), "shutdown");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));

    // While draining: new work is refused with a typed error...
    let (rejected, _) = submit(&mut admin, &submit_req("li", "ideal", LIMIT, "late"));
    assert_eq!(response_type(&rejected), "error", "{rejected}");
    assert_eq!(
        rejected.get("kind").and_then(Json::as_str),
        Some("shutdown"),
        "{rejected}"
    );

    // ...but the inflight job still completes and answers.
    let (res, _) = submitter
        .recv_until(&["result"])
        .expect("inflight job answers before shutdown");
    assert_eq!(response_type(&res), "result", "{res}");

    // And the daemon then actually stops: new connections are refused
    // once the drain monitor observes the idle queue. (A connect may
    // succeed once to wake the accept loop out of its blocking call.)
    let addr = ts.server.as_ref().expect("server").local_addr().to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if Client::connect(&addr).is_err() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon kept accepting connections after the drain finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---- cache-less degradation -------------------------------------------------

#[test]
fn unwritable_cache_degrades_to_cache_less_serving() {
    // Occupy the cache path with a FILE so the directory can't exist.
    let cache_path =
        std::env::temp_dir().join(format!("popk-chaos-{}-degraded", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_path);
    let _ = std::fs::remove_file(&cache_path);
    std::fs::write(&cache_path, "not a directory").unwrap();

    let server = Server::start(ServeConfig::new("127.0.0.1:0", &cache_path)).expect("starts");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connects");

    let s = stats_of(&mut client);
    assert_eq!(
        s.get("cache_degraded").and_then(Json::as_bool),
        Some(true),
        "{s}"
    );

    // Jobs still run; nothing is ever served from cache.
    let req = submit_req("gzip", "ideal", LIMIT, "degraded");
    for _ in 0..2 {
        let (res, _) = submit(&mut client, &req);
        assert_eq!(response_type(&res), "result", "{res}");
        assert_eq!(res.get("cached").and_then(Json::as_bool), Some(false));
    }
    let s = stats_of(&mut client);
    assert_eq!(s.get("cache_hits").and_then(Json::as_u64), Some(0), "{s}");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(&cache_path);
}

// ---- kill -9 mid-sweep, then --resume ---------------------------------------

const SWEEP_LIMIT: u64 = 200_000;

/// Child-process helper (self-exec trick: sweep binaries are in the
/// bench crate, so the kill-9 e2e re-runs THIS test binary with
/// `POPK_SWEEP_DIR` set to act as the sweep process). Next to its
/// artifact it writes `jobs.txt`: how many rows this process simulated
/// (the process-wide sweep meter), so the parent can tell replayed rows
/// from re-run ones. A no-op under a normal `cargo test`.
#[test]
fn helper_run_table1_sweep() {
    let Ok(dir) = std::env::var("POPK_SWEEP_DIR") else {
        return;
    };
    let resume = std::env::var("POPK_SWEEP_RESUME").is_ok();
    let dir = PathBuf::from(dir);
    let journal = SweepJournal::open(
        &dir.join("wal"),
        "table1",
        SWEEP_LIMIT,
        "oracle=false",
        resume,
    );
    let rep = table1_report_journaled(SWEEP_LIMIT, 2, false, Some(&journal));
    assert_eq!(rep.failures, 0);
    rep.artifact.write_in(&dir).expect("artifact written");
    std::fs::write(dir.join("report.txt"), &rep.text).expect("report written");
    let (jobs, _) = popk_bench::runners::meter_snapshot();
    std::fs::write(dir.join("jobs.txt"), jobs.to_string()).expect("job count written");
}

fn spawn_sweep(dir: &std::path::Path, resume: bool) -> std::process::Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["helper_run_table1_sweep", "--exact", "--nocapture"])
        .env("POPK_SWEEP_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if resume {
        cmd.env("POPK_SWEEP_RESUME", "1");
    }
    cmd.spawn().expect("spawns sweep child")
}

fn sweep_outputs(dir: &std::path::Path) -> (String, String) {
    (
        std::fs::read_to_string(dir.join("BENCH_table1.json")).expect("artifact"),
        std::fs::read_to_string(dir.join("report.txt")).expect("report"),
    )
}

/// The number of rows the last sweep process in `dir` simulated.
fn sweep_jobs(dir: &std::path::Path) -> u64 {
    let text = std::fs::read_to_string(dir.join("jobs.txt")).expect("job count");
    text.parse().expect("job count is an integer")
}

#[test]
fn kill9_mid_sweep_then_resume_reproduces_the_clean_artifact() {
    let base = std::env::temp_dir().join(format!("popk-chaos-{}-kill9", std::process::id()));
    let clean_dir = base.join("clean");
    let crash_dir = base.join("crash");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&clean_dir).unwrap();
    std::fs::create_dir_all(&crash_dir).unwrap();

    // Clean run: the ground truth.
    let status = spawn_sweep(&clean_dir, false).wait().expect("clean run");
    assert!(status.success(), "clean sweep failed");
    let clean = sweep_outputs(&clean_dir);
    let rows = sweep_jobs(&clean_dir);
    assert_eq!(rows, 11, "the clean run simulates every Table 1 row");

    // Crash run: SIGKILL the sweep once its journal holds a sealed row.
    // The journal holds only the `open` header and `done` lines, so a
    // verified second line means at least one row finished.
    let mut child = spawn_sweep(&crash_dir, false);
    let journal_path = crash_dir.join("wal").join("table1.journal");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let row_done = std::fs::read_to_string(&journal_path)
            .is_ok_and(|t| t.lines().nth(1).and_then(journal::verify_line).is_some());
        if row_done {
            break; // header + at least one done row: mid-sweep
        }
        if child.try_wait().expect("try_wait").is_some() {
            break; // finished before we could kill it — still a valid resume test
        }
        assert!(Instant::now() < deadline, "sweep never started journaling");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL: no destructors, no flushes
    let _ = child.wait();

    // The artifact must not exist from the killed run (if the child won
    // the race and finished cleanly, this degenerates to replay-only).
    let killed_mid_run = !crash_dir.join("BENCH_table1.json").exists();

    // Resume: completed rows replay from the journal; every other row,
    // the interrupted one included, re-runs from instruction 0.
    let status = spawn_sweep(&crash_dir, true).wait().expect("resume run");
    assert!(status.success(), "resumed sweep failed");
    let resumed = sweep_outputs(&crash_dir);
    let rerun = sweep_jobs(&crash_dir);
    assert!(
        rerun < rows,
        "the resumed sweep re-simulated {rerun} of {rows} rows: nothing was replayed"
    );

    assert_eq!(
        resumed.0, clean.0,
        "resumed artifact differs from the clean run (killed mid-run: {killed_mid_run})"
    );
    assert_eq!(
        resumed.1, clean.1,
        "resumed report text differs from the clean run"
    );
    let _ = std::fs::remove_dir_all(&base);
}

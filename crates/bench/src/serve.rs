//! `popk serve` — the persistent simulation service.
//!
//! A zero-dependency, long-running daemon speaking line-delimited JSON
//! over TCP. Clients submit (workload × config × budget × seed) jobs;
//! the server answers from the content-addressed [`ArtifactCache`] when
//! it can and otherwise fans the work across a bounded job queue feeding
//! a fixed worker pool. Running jobs stream progress events bridged from
//! the simulator's [`TraceSink`] layer, honour the deadlock watchdog,
//! and are cooperatively canceled when every subscriber disconnects.
//!
//! ## Wire protocol (v[`PROTOCOL_VERSION`])
//!
//! One JSON object per line in each direction; requests carry an `op`
//! and an optional `tag` that is echoed on every response concerning
//! them. Ops: `ping`, `submit`, `compare`, `stats`, `shutdown`.
//! Responses carry a `type`: `pong`, `accepted`, `progress`, `result`,
//! `compare`, `stats`, `shutdown`, or `error` (with a stable `kind` —
//! the [`SimError::kind`] taxonomy plus the transport-level kinds
//! `bad_request`, `unknown_workload`, `unknown_config`, `backpressure`,
//! `not_cached`, and `panic`). The full schema is documented in
//! `EXPERIMENTS.md`.
//!
//! ## Soundness
//!
//! The simulator is a pure function of (program, config, budget), so a
//! cache entry is byte-for-byte the artifact a fresh run would produce;
//! the e2e suite (`tests/serve_e2e.rs`) pins this. Identity comes from
//! [`JobKey`] ([`MachineConfig::fingerprint`] + workload + seed +
//! budget); concurrent submitters of one key share a single simulation.
//!
//! ## Crashes
//!
//! The daemon keeps no state that a crash would lose: the cache holds
//! every finished artifact, and a job that was running simply answers
//! nobody. A client that lost its connection resubmits, which either
//! hits the cache or simulates the same bytes again. A `serve.journal`
//! left in the cache directory by an older daemon is ignored.

use crate::cache::{ArtifactCache, JobKey};
use crate::{pool, runners};
use popk_core::{Json, MachineConfig, SimError, SimStats, Simulator, TraceEvent, TraceSink};
use popk_workloads::by_name;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire-protocol version, reported by `ping` and `stats`. Bump on any
/// incompatible request/response shape change. Version 2 dropped the
/// `recovered` field from the `stats` reply.
pub const PROTOCOL_VERSION: u64 = 2;

/// How often the loops that still poll check the shutdown flag: the
/// connection read, the worker receive and the drain monitor. The accept
/// loop blocks in `accept` (woken by [`Shared::stop`]) and waits `POLL`
/// only after an accept error, so a full file table does not spin it.
const POLL: Duration = Duration::from_millis(50);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity; a submit finding it full is rejected
    /// with a `backpressure` error rather than buffered without bound.
    pub queue_capacity: usize,
    /// Root directory of the artifact cache.
    pub cache_dir: PathBuf,
    /// Committed instructions between `progress` events on jobs
    /// subscribed with `"events": true`.
    pub progress_interval: u64,
    /// Largest accepted per-job instruction budget.
    pub max_limit: u64,
    /// Artifact-cache size cap in bytes; `None` is unbounded. When a
    /// store pushes the cache past the cap, the least-recently-used
    /// entries (oldest mtime first) are evicted back under it.
    pub cache_max_bytes: Option<u64>,
}

impl ServeConfig {
    /// Defaults: all cores, a 64-job queue, progress every 5000
    /// instructions, budgets up to 10 M, unbounded cache.
    pub fn new(addr: &str, cache_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.to_string(),
            workers: pool::default_threads(),
            queue_capacity: 64,
            cache_dir: cache_dir.into(),
            progress_interval: 5_000,
            max_limit: 10_000_000,
            cache_max_bytes: None,
        }
    }
}

// ---- connections -----------------------------------------------------------

/// The write half of one client connection, shared between the accept
/// thread (request handling) and workers (job responses). Whole lines
/// are written under the mutex, so concurrent responders never
/// interleave bytes; a failed write marks the connection dead, which
/// job progress uses to cancel abandoned work.
struct Conn {
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl Conn {
    fn send(&self, j: &Json) {
        let mut line = j.to_string();
        line.push('\n');
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if w.write_all(line.as_bytes()).is_err() {
            self.alive.store(false, Ordering::Relaxed);
        }
    }

    fn alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }
}

/// One submitter of a job: where to respond, how to label it, and
/// whether it wants the progress stream.
struct Subscriber {
    conn: Arc<Conn>,
    tag: Option<String>,
    events: bool,
}

// ---- jobs ------------------------------------------------------------------

/// One queued or running simulation and everyone waiting on it.
struct Job {
    key: JobKey,
    digest: String,
    cfg: MachineConfig,
    subs: Mutex<Vec<Subscriber>>,
    /// Raised when every subscriber's connection has died; the simulator
    /// polls it through [`Simulator::set_cancel`].
    cancel: Arc<AtomicBool>,
}

impl Job {
    /// Stream a progress line to event subscribers; if no subscriber's
    /// connection is still alive, raise the cancel flag instead — the
    /// result would be unobservable.
    fn progress(&self, committed: u64, cycle: u64) {
        let subs = self
            .subs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !subs.iter().any(|s| s.conn.alive()) {
            self.cancel.store(true, Ordering::Relaxed);
            return;
        }
        for sub in subs.iter().filter(|s| s.events && s.conn.alive()) {
            let mut j = Json::object();
            j.set("type", "progress".into());
            set_tag(&mut j, &sub.tag);
            j.set("digest", self.digest.as_str().into());
            j.set("committed", Json::from(committed));
            j.set("cycle", Json::from(cycle));
            sub.conn.send(&j);
        }
    }
}

/// Bridges the simulator's event stream to job progress: counts
/// commits and reports every `interval`.
struct ProgressSink<'a> {
    job: &'a Job,
    interval: u64,
    committed: u64,
    next_report: u64,
}

impl TraceSink for ProgressSink<'_> {
    fn event(&mut self, cycle: u64, ev: &TraceEvent) {
        if let TraceEvent::Committed { .. } = ev {
            self.committed += 1;
            if self.committed >= self.next_report {
                self.next_report = self.committed + self.interval;
                self.job.progress(self.committed, cycle);
            }
        }
    }
}

// ---- shared server state ---------------------------------------------------

struct Shared {
    cache: ArtifactCache,
    queue: SyncSender<Arc<Job>>,
    /// Jobs queued or running, by digest. Invariant: a submit handler
    /// consults the cache *under this lock*, and a worker stores to the
    /// cache *before* removing its job here — so a key is always either
    /// inflight (attach) or, once absent, fully readable from the cache.
    inflight: Mutex<HashMap<String, Arc<Job>>>,
    /// Raised only through [`Shared::stop`], which also wakes the accept
    /// loop.
    shutdown: AtomicBool,
    /// Where [`Shared::stop`] connects to wake the blocked accept loop:
    /// the listener's address, with an unspecified IP replaced by the
    /// loopback address of its family.
    wake_addr: SocketAddr,
    /// Draining: new submits are rejected, queued work keeps running; a
    /// monitor thread calls [`Shared::stop`] once nothing is inflight.
    draining: AtomicBool,
    /// The cache directory failed its startup writability probe: the
    /// daemon serves cache-less (every job re-simulates) with a warning
    /// instead of refusing to start.
    cache_degraded: bool,
    queue_capacity: usize,
    progress_interval: u64,
    max_limit: u64,
    // Service counters, reported by the `stats` op.
    submitted: AtomicU64,
    cache_hits: AtomicU64,
    attached: AtomicU64,
    simulations: AtomicU64,
    job_errors: AtomicU64,
    queue_depth: AtomicU64,
}

impl Shared {
    /// Stop the server: raise the shutdown flag, then make one loopback
    /// connect so the accept loop returns from its blocking `accept` and
    /// sees the flag. Every stop path (`Server::shutdown`, the `shutdown`
    /// op, the drain monitor) goes through here; only the first call
    /// connects.
    fn stop(&self) {
        if !self.shutdown.swap(true, Ordering::Relaxed) {
            let _ = TcpStream::connect(self.wake_addr);
        }
    }
}

// ---- the server ------------------------------------------------------------

/// A running `popk serve` daemon: accept loop plus worker pool.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is live (the
    /// returned server is immediately connectable on
    /// [`local_addr`](Server::local_addr)).
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let cache_degraded = !cache_dir_writable(&cfg.cache_dir);
        if cache_degraded {
            eprintln!(
                "warning: cache directory {} is unwritable; serving cache-less \
                 (every job re-simulates, results are not persisted)",
                cfg.cache_dir.display()
            );
        }
        let shared = Arc::new(Shared {
            cache: ArtifactCache::with_capacity(cfg.cache_dir, cfg.cache_max_bytes),
            queue: tx,
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            wake_addr: loopback(addr),
            draining: AtomicBool::new(false),
            cache_degraded,
            queue_capacity: cfg.queue_capacity.max(1),
            progress_interval: cfg.progress_interval.max(1),
            max_limit: cfg.max_limit,
            submitted: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            attached: AtomicU64::new(0),
            simulations: AtomicU64::new(0),
            job_errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
        });
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        for _ in 0..cfg.workers.max(1) {
            let shared = shared.clone();
            let rx = rx.clone();
            threads.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || accept_loop(&shared, &listener)));
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves the ephemeral port of `":0"` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask every server thread to stop. Returns immediately; pair with
    /// [`join`](Server::join) to wait for them.
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// Wait for the accept loop and workers to exit. After
    /// [`shutdown`](Server::shutdown) the accept loop exits at once and
    /// the workers once the queue is empty, so this returns within one
    /// poll interval of the last job finishing, whatever the number of
    /// workers.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// `addr` with an unspecified IP (`0.0.0.0`, `[::]`) replaced by the
/// loopback address of its family, so a wake connect reaches a listener
/// bound to every interface.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Can we actually persist artifacts under `dir`? Probed once at
/// startup by creating and removing a marker file, so an unwritable
/// cache degrades the daemon loudly at boot instead of silently on the
/// first store.
fn cache_dir_writable(dir: &Path) -> bool {
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let probe = dir.join(format!(".probe.{}", std::process::id()));
    let ok = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&probe)
        .is_ok();
    let _ = std::fs::remove_file(&probe);
    ok
}

/// The drain monitor: once draining starts, wait for the queue and
/// inflight map to empty, then stop the server.
fn drain_monitor(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        let idle = shared.queue_depth.load(Ordering::Relaxed) == 0
            && shared
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_empty();
        if idle {
            shared.stop();
            return;
        }
        std::thread::sleep(POLL);
    }
}

/// Serve each connection on its own thread as soon as it is accepted.
/// Checks the flag after every return from `accept`, so the wake connect
/// of [`Shared::stop`] ends the loop without being served.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let shared = shared.clone();
                std::thread::spawn(move || handle_conn(&shared, stream));
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

// ---- per-connection request handling ---------------------------------------

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    // Every response line leaves as soon as it is written: with Nagle on,
    // a `result` written right after `accepted` would wait for the
    // client's delayed ACK.
    let _ = stream.set_nodelay(true);
    // Short read timeouts let the thread notice server shutdown while
    // idle; a timed-out `read_line` keeps its partial bytes in `line`,
    // so slow writers still get whole lines handled.
    let _ = stream.set_read_timeout(Some(POLL));
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        alive: AtomicBool::new(true),
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while conn.alive() && !shared.shutdown.load(Ordering::Relaxed) {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !line.trim().is_empty() {
                    handle_line(shared, &conn, line.trim());
                }
                line.clear();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
    conn.alive.store(false, Ordering::Relaxed);
}

fn set_tag(j: &mut Json, tag: &Option<String>) {
    if let Some(t) = tag {
        j.set("tag", t.as_str().into());
    }
}

fn send_error(conn: &Conn, tag: &Option<String>, kind: &str, message: &str) {
    let mut j = Json::object();
    j.set("type", "error".into());
    set_tag(j.set("kind", kind.into()), tag);
    j.set("message", message.into());
    conn.send(&j);
}

fn handle_line(shared: &Arc<Shared>, conn: &Arc<Conn>, line: &str) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            send_error(
                conn,
                &None,
                "bad_request",
                &format!("unparseable request: {e}"),
            );
            return;
        }
    };
    let tag = req.get("tag").and_then(Json::as_str).map(str::to_string);
    match req.get("op").and_then(Json::as_str) {
        Some("ping") => {
            let mut j = Json::object();
            j.set("type", "pong".into());
            j.set("protocol", Json::from(PROTOCOL_VERSION));
            set_tag(&mut j, &tag);
            conn.send(&j);
        }
        Some("submit") => handle_submit(shared, conn, &req, tag),
        Some("compare") => handle_compare(shared, conn, &req, tag),
        Some("stats") => conn.send(&stats_json(shared, &tag)),
        Some("shutdown") => {
            let drain = req.get("drain").and_then(Json::as_bool).unwrap_or(false);
            let mut j = Json::object();
            j.set("type", "shutdown".into());
            set_tag(&mut j, &tag);
            j.set("draining", Json::from(drain));
            conn.send(&j);
            if drain {
                // Graceful: stop accepting work, let queued jobs finish,
                // then stop. Idempotent — only the first drain request
                // spawns the monitor.
                if !shared.draining.swap(true, Ordering::Relaxed) {
                    let shared = shared.clone();
                    std::thread::spawn(move || drain_monitor(&shared));
                }
            } else {
                shared.stop();
            }
        }
        Some(other) => send_error(conn, &tag, "bad_request", &format!("unknown op `{other}`")),
        None => send_error(conn, &tag, "bad_request", "missing `op`"),
    }
}

/// Decode a job spec — `workload`, optional `config` (a `parse_config`
/// name), optional `overrides`, `limit`, `seed` — into a [`JobKey`] and
/// the fully-resolved configuration. `Err` is (error kind, message).
fn parse_job_spec(
    shared: &Shared,
    spec: &Json,
) -> Result<(JobKey, MachineConfig), (String, String)> {
    let bad = |m: &str| Err(("bad_request".to_string(), m.to_string()));
    let Some(workload) = spec.get("workload").and_then(Json::as_str) else {
        return bad("missing `workload`");
    };
    if by_name(workload).is_none() {
        return Err((
            "unknown_workload".to_string(),
            format!("unknown workload `{workload}`"),
        ));
    }
    let config_name = spec
        .get("config")
        .and_then(Json::as_str)
        .unwrap_or("slice2");
    let Some(mut cfg) = runners::parse_config(config_name) else {
        return Err((
            "unknown_config".to_string(),
            format!("unknown config `{config_name}` (try: ideal simple2 slice2 slice2-3 ext2 …)"),
        ));
    };
    if let Some(ov) = spec.get("overrides") {
        if let Err(m) = apply_overrides(&mut cfg, ov) {
            return bad(&m);
        }
    }
    let limit = spec
        .get("limit")
        .and_then(Json::as_u64)
        .unwrap_or(runners::DEFAULT_LIMIT);
    if limit == 0 || limit > shared.max_limit {
        return bad(&format!(
            "`limit` must be in 1..={} (got {limit})",
            shared.max_limit
        ));
    }
    let seed = spec.get("seed").and_then(Json::as_u64).unwrap_or(0);
    Ok((JobKey::new(workload, config_name, &cfg, seed, limit), cfg))
}

/// Apply the whitelisted machine-config overrides of a job spec. The
/// resulting config participates in the fingerprint, so overridden jobs
/// cache under their own keys.
fn apply_overrides(cfg: &mut MachineConfig, ov: &Json) -> Result<(), String> {
    let Json::Object(pairs) = ov else {
        return Err("`overrides` must be an object".to_string());
    };
    for (k, v) in pairs {
        let num = || {
            v.as_u64()
                .ok_or_else(|| format!("override `{k}` must be a non-negative integer"))
        };
        // Out-of-range values are rejected, never wrapped: a wrapped
        // value would key, and answer, a different job.
        let range =
            |_: std::num::TryFromIntError| format!("override `{k}` is out of range (got {v})");
        match k.as_str() {
            "width" => cfg.width = u32::try_from(num()?).map_err(range)?,
            "ruu_size" => cfg.ruu_size = usize::try_from(num()?).map_err(range)?,
            "lsq_size" => cfg.lsq_size = usize::try_from(num()?).map_err(range)?,
            "mem_ports" => cfg.mem_ports = u32::try_from(num()?).map_err(range)?,
            "int_alus" => cfg.int_alus = u32::try_from(num()?).map_err(range)?,
            "watchdog" => cfg.watchdog = num()?,
            "oracle" => {
                cfg.oracle = v
                    .as_bool()
                    .ok_or_else(|| "override `oracle` must be a boolean".to_string())?;
            }
            other => return Err(format!("unknown override `{other}`")),
        }
    }
    Ok(())
}

fn key_json(key: &JobKey) -> Json {
    let mut j = Json::object();
    j.set("workload", key.workload.as_str().into());
    j.set("config", key.config_name.as_str().into());
    j.set("config_hash", format!("{:016x}", key.config_hash).into());
    j.set("seed", Json::from(key.seed));
    j.set("limit", Json::from(key.limit));
    j
}

fn send_accepted(conn: &Conn, tag: &Option<String>, key: &JobKey, digest: &str) {
    let mut j = Json::object();
    j.set("type", "accepted".into());
    set_tag(&mut j, tag);
    j.set("digest", digest.into());
    j.set("key", key_json(key));
    conn.send(&j);
}

fn send_result(conn: &Conn, tag: &Option<String>, cached: bool, digest: &str, body: &str) {
    let Ok(artifact) = Json::parse(body) else {
        // Unreachable for bodies we just built or verified; fail loud
        // rather than serve garbage if it ever regresses.
        send_error(conn, tag, "internal", "artifact body failed to parse");
        return;
    };
    let mut j = Json::object();
    j.set("type", "result".into());
    set_tag(&mut j, tag);
    j.set("cached", Json::from(cached));
    j.set("digest", digest.into());
    j.set("artifact", artifact);
    conn.send(&j);
}

fn handle_submit(shared: &Arc<Shared>, conn: &Arc<Conn>, req: &Json, tag: Option<String>) {
    if shared.draining.load(Ordering::Relaxed) {
        send_error(
            conn,
            &tag,
            "shutdown",
            "server is draining; not accepting work",
        );
        return;
    }
    let (key, cfg) = match parse_job_spec(shared, req) {
        Ok(v) => v,
        Err((kind, message)) => {
            send_error(conn, &tag, &kind, &message);
            return;
        }
    };
    let events = req.get("events").and_then(Json::as_bool).unwrap_or(false);
    let digest = key.digest();
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    let sub = Subscriber {
        conn: conn.clone(),
        tag: tag.clone(),
        events,
    };

    // The attach / cache-read / enqueue decision happens entirely under
    // the inflight lock (see the invariant on [`Shared::inflight`]), so
    // two submitters of one key can never both start a simulation, and
    // a key absent from the map is guaranteed complete on disk.
    let mut inflight = shared
        .inflight
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(job) = inflight.get(&digest) {
        job.subs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(sub);
        shared.attached.fetch_add(1, Ordering::Relaxed);
        send_accepted(conn, &tag, &key, &digest);
        return;
    }
    if let Some(body) = shared.cache.lookup(&key) {
        drop(inflight);
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        send_accepted(conn, &tag, &key, &digest);
        send_result(conn, &tag, true, &digest, &body);
        return;
    }
    let job = Arc::new(Job {
        key: key.clone(),
        digest: digest.clone(),
        cfg,
        subs: Mutex::new(vec![sub]),
        cancel: Arc::new(AtomicBool::new(false)),
    });
    match shared.queue.try_send(job.clone()) {
        Ok(()) => {
            shared.queue_depth.fetch_add(1, Ordering::Relaxed);
            inflight.insert(digest.clone(), job);
            // Send `accepted` before releasing the lock: a worker
            // cannot deliver this job's result until it can remove the
            // digest from the map, so responses stay ordered.
            send_accepted(conn, &tag, &key, &digest);
        }
        Err(TrySendError::Full(_)) => {
            drop(inflight);
            send_error(
                conn,
                &tag,
                "backpressure",
                &format!(
                    "job queue is full ({} pending); retry later",
                    shared.queue_capacity
                ),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            drop(inflight);
            send_error(conn, &tag, "shutdown", "server is shutting down");
        }
    }
}

fn handle_compare(shared: &Arc<Shared>, conn: &Arc<Conn>, req: &Json, tag: Option<String>) {
    let mut sides = Vec::new();
    for side in ["a", "b"] {
        let Some(spec) = req.get(side) else {
            send_error(conn, &tag, "bad_request", &format!("missing side `{side}`"));
            return;
        };
        let key = match parse_job_spec(shared, spec) {
            Ok((key, _)) => key,
            Err((kind, message)) => {
                send_error(conn, &tag, &kind, &format!("side `{side}`: {message}"));
                return;
            }
        };
        let Some(body) = shared.cache.lookup(&key) else {
            send_error(
                conn,
                &tag,
                "not_cached",
                &format!(
                    "side `{side}` ({}) is not cached; submit it first",
                    key.digest()
                ),
            );
            return;
        };
        let Ok(parsed) = Json::parse(&body) else {
            send_error(conn, &tag, "internal", "cached body failed to parse");
            return;
        };
        sides.push((key, parsed));
    }
    let (key_b, body_b) = sides.pop().expect("two sides pushed");
    let (key_a, body_a) = sides.pop().expect("two sides pushed");
    let ipc = |b: &Json| b.get("ipc").and_then(Json::as_f64).unwrap_or(0.0);
    let (ipc_a, ipc_b) = (ipc(&body_a), ipc(&body_b));

    // Counter-by-counter diff of the stats blocks.
    let mut differing = Vec::new();
    if let (Some(Json::Object(sa)), Some(Json::Object(sb))) =
        (body_a.get("stats"), body_b.get("stats"))
    {
        for (name, va) in sa {
            let vb = sb.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            if vb != Some(va) {
                let mut d = Json::object();
                d.set("counter", name.as_str().into());
                d.set("a", va.clone());
                d.set("b", vb.cloned().unwrap_or(Json::Null));
                differing.push(d);
            }
        }
    }

    let mut j = Json::object();
    j.set("type", "compare".into());
    set_tag(&mut j, &tag);
    j.set("a", key_json(&key_a));
    j.set("b", key_json(&key_b));
    j.set("ipc_a", Json::from(ipc_a));
    j.set("ipc_b", Json::from(ipc_b));
    j.set(
        "ipc_ratio",
        Json::from(if ipc_b > 0.0 { ipc_a / ipc_b } else { 0.0 }),
    );
    j.set("differing_counters", Json::Array(differing));
    conn.send(&j);
}

fn stats_json(shared: &Shared, tag: &Option<String>) -> Json {
    let (meter_jobs, meter_instructions) = runners::meter_snapshot();
    let mut j = Json::object();
    j.set("type", "stats".into());
    set_tag(&mut j, tag);
    j.set("protocol", Json::from(PROTOCOL_VERSION));
    j.set(
        "submitted",
        Json::from(shared.submitted.load(Ordering::Relaxed)),
    );
    j.set(
        "cache_hits",
        Json::from(shared.cache_hits.load(Ordering::Relaxed)),
    );
    j.set(
        "attached",
        Json::from(shared.attached.load(Ordering::Relaxed)),
    );
    j.set(
        "simulations",
        Json::from(shared.simulations.load(Ordering::Relaxed)),
    );
    j.set(
        "job_errors",
        Json::from(shared.job_errors.load(Ordering::Relaxed)),
    );
    j.set(
        "queue_depth",
        Json::from(shared.queue_depth.load(Ordering::Relaxed)),
    );
    j.set(
        "draining",
        Json::from(shared.draining.load(Ordering::Relaxed)),
    );
    j.set("cache_degraded", Json::from(shared.cache_degraded));
    j.set("meter_jobs", Json::from(meter_jobs));
    j.set("meter_instructions", Json::from(meter_instructions));
    j
}

// ---- workers ---------------------------------------------------------------

/// Run queued jobs until shutdown. The flag is checked under the
/// receiver lock before blocking: once it is up, a worker takes only
/// what is already queued, so after a plain `shutdown` queued jobs still
/// run, and the workers do not wait out each other's receive in turn.
fn worker_loop(shared: &Arc<Shared>, rx: &Mutex<Receiver<Arc<Job>>>) {
    loop {
        let job = {
            let rx = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if shared.shutdown.load(Ordering::Relaxed) {
                match rx.try_recv() {
                    Ok(job) => job,
                    Err(_) => break,
                }
            } else {
                match rx.recv_timeout(POLL) {
                    Ok(job) => job,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        run_job(shared, &job);
    }
}

/// Execute one job end to end: simulate (panic-isolated), persist the
/// artifact, retire the inflight entry, and answer every subscriber.
fn run_job(shared: &Shared, job: &Job) {
    let outcome = catch_unwind(AssertUnwindSafe(|| simulate_job(shared, job)));
    let result: Result<String, Json> = match outcome {
        Ok(Ok(stats)) => {
            let body = ArtifactCache::job_body(&job.key, &stats);
            // A failed store (disk full, unwritable root) is not fatal:
            // the fresh body is still served, the key just misses next
            // time and re-simulates.
            let _ = shared.cache.store(&job.key, &body);
            shared.simulations.fetch_add(1, Ordering::Relaxed);
            runners::meter_record(stats.committed);
            Ok(body)
        }
        Ok(Err(e)) => {
            shared.job_errors.fetch_add(1, Ordering::Relaxed);
            Err(e.to_wire_json())
        }
        Err(payload) => {
            shared.job_errors.fetch_add(1, Ordering::Relaxed);
            let mut j = Json::object();
            j.set("kind", "panic".into());
            j.set(
                "message",
                format!("job panicked: {}", pool::panic_message(payload.as_ref())).into(),
            );
            Err(j)
        }
    };
    // Every outcome — result, typed error, panic — retires the job.
    // Cache write (above) strictly precedes inflight removal, upholding
    // the lookup invariant; removal strictly precedes responses, so a
    // client that sees a result can immediately cache-hit or compare.
    shared
        .inflight
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&job.digest);
    let subs: Vec<Subscriber> = std::mem::take(
        &mut *job
            .subs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for sub in subs {
        match &result {
            Ok(body) => send_result(&sub.conn, &sub.tag, false, &job.digest, body),
            Err(e) => {
                let mut j = e.clone();
                j.set("type", "error".into());
                set_tag(&mut j, &sub.tag);
                j.set("digest", job.digest.as_str().into());
                sub.conn.send(&j);
            }
        }
    }
}

/// The simulation itself, on the worker thread: always under a
/// [`ProgressSink`] (whether or not anyone subscribed to events), so a
/// job's timing behaviour — and therefore its artifact — is independent
/// of who is watching.
fn simulate_job(shared: &Shared, job: &Job) -> Result<SimStats, SimError> {
    runners::poison_check(&job.key.workload);
    job.cfg.validate()?;
    let w = by_name(&job.key.workload).expect("workload validated at submit");
    let program = w.program();
    let mut sim = Simulator::with_sink(
        &job.cfg,
        ProgressSink {
            job,
            interval: shared.progress_interval,
            committed: 0,
            next_report: shared.progress_interval,
        },
    );
    sim.set_cancel(job.cancel.clone());
    sim.try_run(&program, job.key.limit)
}

// ---- client ----------------------------------------------------------------

/// Client-side retry parameters: capped exponential backoff with
/// deterministic jitter, applied to transient failures only — refused
/// connections and `backpressure` rejections. Protocol errors
/// (`bad_request`, `unknown_workload`, …) are never retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries); at least 1.
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed: backoffs are deterministic per (seed, attempt), so
    /// tests and reproductions see identical schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 5 attempts, 50 ms base, 2 s cap.
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): `base · 2^(retry-1)`
    /// capped at `cap_ms`, plus up to 50% deterministic jitter (a SplitMix64
    /// step of `seed ^ retry`), still capped.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << retry.saturating_sub(1).min(32))
            .min(self.cap_ms);
        let mut z = (self.seed ^ u64::from(retry)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jitter = if exp == 0 { 0 } else { z % (exp / 2 + 1) };
        exp.saturating_add(jitter).min(self.cap_ms)
    }
}

/// A client operation that could not complete.
#[derive(Debug)]
pub enum ClientError {
    /// A non-retriable transport failure.
    Io(io::Error),
    /// The retry budget ran out on a transient condition; `last` is the
    /// final connect error or `backpressure` message seen.
    GaveUp {
        /// Attempts made before giving up.
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "{e}"),
            ClientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A minimal line-JSON client for the serve protocol, used by the
/// `serve client` subcommand and the e2e tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server, with Nagle's algorithm off so each
    /// request line leaves as soon as it is sent.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connect with retries: a refused/unreachable connect backs off per
    /// `policy` and tries again, for daemons still binding (or restarting
    /// after a crash). Gives up with [`ClientError::GaveUp`].
    pub fn connect_retry(addr: &str, policy: &RetryPolicy) -> Result<Client, ClientError> {
        let attempts = policy.attempts.max(1);
        let mut last = String::new();
        for attempt in 1..=attempts {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last = e.to_string(),
            }
            if attempt < attempts {
                std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
            }
        }
        Err(ClientError::GaveUp { attempts, last })
    }

    /// Submit with retries: send `req` and consume the stream to the
    /// final line; a `backpressure` rejection backs off per `policy` and
    /// resubmits. Every other response — results *and* non-transient
    /// protocol errors — returns as-is with the lines seen before it.
    /// Gives up with [`ClientError::GaveUp`] when the queue never drains.
    pub fn submit_retry(
        &mut self,
        req: &Json,
        policy: &RetryPolicy,
    ) -> Result<(Json, Vec<Json>), ClientError> {
        let attempts = policy.attempts.max(1);
        let mut last = String::new();
        for attempt in 1..=attempts {
            self.send(req)?;
            let (done, seen) = self.recv_until(&["result"])?;
            let transient = done.get("type").and_then(Json::as_str) == Some("error")
                && done.get("kind").and_then(Json::as_str) == Some("backpressure");
            if !transient {
                return Ok((done, seen));
            }
            last = done
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("backpressure")
                .to_string();
            if attempt < attempts {
                std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
            }
        }
        Err(ClientError::GaveUp { attempts, last })
    }

    /// Send one request line.
    pub fn send(&mut self, req: &Json) -> io::Result<()> {
        let mut line = req.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Read the next response line (blocks; `UnexpectedEof` when the
    /// server closes the connection).
    pub fn recv(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Send `req` and read one response.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        self.send(req)?;
        self.recv()
    }

    /// Read responses until one of `types` (or `error`) arrives,
    /// returning it plus every line seen before it — the pattern for
    /// consuming a `submit`'s `accepted`/`progress` stream.
    pub fn recv_until(&mut self, types: &[&str]) -> io::Result<(Json, Vec<Json>)> {
        let mut seen = Vec::new();
        loop {
            let j = self.recv()?;
            let t = j.get("type").and_then(Json::as_str).unwrap_or("");
            if types.contains(&t) || t == "error" {
                return Ok((j, seen));
            }
            seen.push(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let client = Client::connect(&addr).expect("connect");
        assert!(matches!(client.writer.nodelay(), Ok(true)));
        assert!(matches!(client.reader.get_ref().nodelay(), Ok(true)));
    }

    #[test]
    fn wake_address_of_an_unspecified_bind_is_loopback() {
        let wake = |a: &str| loopback(a.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:4650"), "127.0.0.1:4650");
        assert_eq!(wake("[::]:4650"), "[::1]:4650");
        assert_eq!(wake("10.1.2.3:4650"), "10.1.2.3:4650");
    }
}

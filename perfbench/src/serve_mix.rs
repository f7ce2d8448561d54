//! The `serve_mix` workload: an in-process `popk serve` driven closed
//! loop by one client connection per plan column.
//!
//! `run.py` generates the plan from the seed; this module only executes
//! it. Each connection sends its next `submit` after the previous
//! `result` arrives. A pair step puts one new key on both connections
//! at once: both wait at a barrier, the lead submits and reads its
//! `accepted`, then the follower submits the same key and attaches to
//! the lead's job. The server sees only the submits; the class each
//! step was planned as stays here and is checked against the server's
//! `stats` counters.

use crate::passes::{Pass, SETUP_REPEATS};
use crate::spans;
use crate::util::{digest, floats, millis, secs, Checks};
use popk_bench::{ArtifactCache, Client, JobKey, ServeConfig, Server};
use popk_core::{Json, SimStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Barrier;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Key {
    pub workload: String,
    pub config: String,
    pub limit: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A key's first submit: a fresh simulation.
    Fresh,
    /// A repeat of a completed key: a cache hit.
    Hit,
    /// The first submit of a pair: a fresh simulation.
    Lead,
    /// The second submit of a pair: attaches to the lead's job.
    Attach,
}

impl Class {
    fn parse(s: &str) -> Option<Class> {
        Some(match s {
            "fresh" => Class::Fresh,
            "hit" => Class::Hit,
            "lead" => Class::Lead,
            "attach" => Class::Attach,
            _ => return None,
        })
    }

    /// The latency class a step reports under.
    pub fn path(self) -> &'static str {
        match self {
            Class::Fresh | Class::Lead => "fresh",
            Class::Hit => "hit",
            Class::Attach => "attach",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub key: usize,
    pub class: Class,
}

#[derive(Clone, Debug)]
pub struct Plan {
    pub keys: Vec<Key>,
    /// One step list per client connection.
    pub conns: Vec<Vec<Step>>,
}

impl Plan {
    pub fn load(path: &Path) -> Result<Plan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("plan: {e}"))?;
        let bad = |what: &str| format!("plan: bad {what}");
        let keys = j
            .get("keys")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("keys"))?
            .iter()
            .map(|k| {
                Some(Key {
                    workload: k.get("workload")?.as_str()?.to_string(),
                    config: k.get("config")?.as_str()?.to_string(),
                    limit: k.get("limit")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<Key>>>()
            .ok_or_else(|| bad("key"))?;
        let conns = j
            .get("conns")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("conns"))?
            .iter()
            .map(|c| {
                c.as_array()?
                    .iter()
                    .map(|s| {
                        let key = usize::try_from(s.get("key")?.as_u64()?).ok()?;
                        (key < keys.len()).then_some(Step {
                            key,
                            class: Class::parse(s.get("class")?.as_str()?)?,
                        })
                    })
                    .collect::<Option<Vec<Step>>>()
            })
            .collect::<Option<Vec<Vec<Step>>>>()
            .ok_or_else(|| bad("step"))?;
        if conns.len() != 2 {
            return Err("plan: the pair protocol needs exactly two connections".into());
        }
        // Both connections must meet at every pair barrier: the k-th
        // pair step of each names the same key, once as lead and once
        // as follower.
        let pairs = |c: &[Step]| -> Vec<(usize, Class)> {
            c.iter()
                .filter(|s| matches!(s.class, Class::Lead | Class::Attach))
                .map(|s| (s.key, s.class))
                .collect()
        };
        let (a, b) = (pairs(&conns[0]), pairs(&conns[1]));
        let matched = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 != y.1);
        if !matched {
            return Err("plan: pair steps do not match across connections".into());
        }
        Ok(Plan { keys, conns })
    }

    pub fn steps(&self) -> impl Iterator<Item = &Step> {
        self.conns.iter().flatten()
    }
}

/// One executed step.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub step: Step,
    pub ms: f64,
    /// The `result`'s artifact, rendered, or why there was none.
    pub body: Result<String, String>,
    pub cached: Option<bool>,
}

impl Outcome {
    /// A follower that reached the server after the lead's job had
    /// finished gets a cache hit. That is correct single-flight
    /// behaviour, not a failure; it is counted and timed as a hit.
    pub fn late_follower(&self) -> bool {
        self.step.class == Class::Attach && self.cached == Some(true)
    }

    /// The latency class the outcome reports under.
    pub fn path(&self) -> &'static str {
        if self.late_follower() {
            "hit"
        } else {
            self.step.class.path()
        }
    }
}

fn submit_req(key: &Key, tag: &str) -> Json {
    let mut req = Json::object();
    req.set("op", "submit".into());
    req.set("workload", key.workload.as_str().into());
    req.set("config", key.config.as_str().into());
    req.set("limit", Json::from(key.limit));
    req.set("tag", tag.into());
    req
}

fn response_type(j: &Json) -> &str {
    j.get("type").and_then(Json::as_str).unwrap_or("")
}

/// Read a submit's stream to its terminal line.
fn finish_submit(client: &mut Client, first: Option<Json>) -> Result<Json, String> {
    let first = match first {
        Some(j) => j,
        None => client.recv().map_err(|e| e.to_string())?,
    };
    if matches!(response_type(&first), "result" | "error") {
        return Ok(first);
    }
    client
        .recv_until(&["result"])
        .map(|(done, _)| done)
        .map_err(|e| e.to_string())
}

/// Run one connection's steps. A broken connection keeps walking its
/// steps (failing each) so the pair barriers never strand its partner.
fn run_conn(
    addr: &str,
    conn: usize,
    plan: &Plan,
    barrier: &Barrier,
    to_partner: &Sender<usize>,
    from_partner: &Receiver<usize>,
    traced: bool,
) -> Vec<Outcome> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string());
    let mut out = Vec::new();
    for (i, &step) in plan.conns[conn].iter().enumerate() {
        let tag = format!("{conn}-{i}");
        let req = submit_req(&plan.keys[step.key], &tag);
        if matches!(step.class, Class::Lead | Class::Attach) {
            barrier.wait();
        }
        if step.class == Class::Attach {
            // The partner's lead was accepted: its job is in flight.
            let _ = from_partner.recv();
        }
        let span = traced.then(|| spans::open("serve.submit", &tag, None));
        let t = Instant::now();
        let reply = match client.as_mut() {
            Err(e) => {
                if step.class == Class::Lead {
                    let _ = to_partner.send(i);
                }
                Err(e.clone())
            }
            Ok(c) => {
                let sent = c.send(&req).map_err(|e| e.to_string());
                if step.class == Class::Lead {
                    let first = sent.and_then(|()| c.recv().map_err(|e| e.to_string()));
                    let _ = to_partner.send(i);
                    first.and_then(|f| finish_submit(c, Some(f)))
                } else {
                    sent.and_then(|()| finish_submit(c, None))
                }
            }
        };
        let ms = millis(t.elapsed());
        if let Some(g) = span {
            g.close();
        }
        let (body, cached) = match reply {
            Ok(done) if response_type(&done) == "result" => (
                done.get("artifact")
                    .map(Json::to_string)
                    .ok_or_else(|| "result without artifact".to_string()),
                done.get("cached").and_then(Json::as_bool),
            ),
            Ok(done) => (Err(format!("error reply: {done}")), None),
            Err(e) => (Err(e), None),
        };
        out.push(Outcome {
            step,
            ms,
            body,
            cached,
        });
    }
    out
}

/// Execute `plan` against the server at `addr`, connections in
/// parallel. Returns every step's outcome and the plan's wall time.
pub fn execute(addr: &str, plan: &Plan, traced: bool) -> (Vec<Outcome>, f64) {
    let barrier = &Barrier::new(2);
    let (tx0, rx1) = channel();
    let (tx1, rx0) = channel();
    let t = Instant::now();
    let outcomes = std::thread::scope(|s| {
        let a = s.spawn(move || run_conn(addr, 0, plan, barrier, &tx0, &rx0, traced));
        let b = s.spawn(move || run_conn(addr, 1, plan, barrier, &tx1, &rx1, traced));
        let mut v = a.join().expect("connection 0 thread panicked");
        v.extend(b.join().expect("connection 1 thread panicked"));
        v
    });
    (outcomes, secs(t.elapsed()))
}

/// Check each outcome against its planned class, hit bodies against
/// fresh ones, and the class totals against the server's counters.
/// Returns the body digest per key.
pub fn check(
    plan: &Plan,
    outcomes: &[Outcome],
    stats: &Json,
    checks: &mut Checks,
) -> BTreeMap<usize, String> {
    let mut bodies: BTreeMap<usize, String> = BTreeMap::new();
    for o in outcomes {
        checks.attempted += 1;
        let key = &plan.keys[o.step.key];
        let what = || {
            format!(
                "{} {}/{}@{}",
                o.step.class.path(),
                key.workload,
                key.config,
                key.limit
            )
        };
        let body = match &o.body {
            Ok(b) => b,
            Err(e) => {
                checks.fail(format!("{}: {e}", what()));
                continue;
            }
        };
        let want_cached = o.step.class == Class::Hit || o.late_follower();
        if o.cached != Some(want_cached) {
            checks.fail(format!(
                "{}: cached={:?}, planned {want_cached}",
                what(),
                o.cached
            ));
            continue;
        }
        let d = digest(body);
        match bodies.get(&o.step.key) {
            Some(prev) if *prev != d => checks.fail(format!(
                "{}: body differs from the key's first body",
                what()
            )),
            Some(_) => {}
            None => {
                bodies.insert(o.step.key, d);
            }
        }
    }
    let planned = |c: &[Class]| plan.steps().filter(|s| c.contains(&s.class)).count() as u64;
    let late = late_followers(outcomes);
    for (counter, want) in [
        (
            "submitted",
            planned(&[Class::Fresh, Class::Hit, Class::Lead, Class::Attach]),
        ),
        ("simulations", planned(&[Class::Fresh, Class::Lead])),
        ("cache_hits", planned(&[Class::Hit]) + late),
        ("attached", planned(&[Class::Attach]) - late),
        ("job_errors", 0),
    ] {
        let got = stats.get(counter).and_then(Json::as_u64);
        if got != Some(want) {
            checks.fail(format!("stats.{counter} = {got:?}, plan implies {want}"));
        }
    }
    bodies
}

/// Start a server on an ephemeral port with a cache in `dir`, which
/// the caller has emptied.
pub fn start_server(dir: PathBuf, workers: usize) -> Server {
    let mut cfg = ServeConfig::new("127.0.0.1:0", dir);
    cfg.workers = workers;
    Server::start(cfg).expect("serve binds an ephemeral loopback port")
}

pub fn stats(addr: &str) -> Json {
    let mut req = Json::object();
    req.set("op", "stats".into());
    Client::connect(addr)
        .and_then(|mut c| c.request(&req))
        .unwrap_or(Json::Null)
}

pub fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Latencies of the outcomes that report under `path`.
pub fn latencies(outcomes: &[Outcome], path: &str) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.path() == path)
        .map(|o| o.ms)
        .collect()
}

pub fn late_followers(outcomes: &[Outcome]) -> u64 {
    outcomes.iter().filter(|o| o.late_follower()).count() as u64
}

/// One pass of the serve mix: start the server (set-up, timed
/// `SETUP_REPEATS` times, each on an empty cache directory of its own),
/// run the plan on the last one, check it, stop the server.
pub fn pass(workers: usize, dir: &Path, plan: &Plan) -> Pass {
    let mut setup_s = Vec::new();
    let mut servers = Vec::new();
    for i in 0..SETUP_REPEATS {
        let cache = dir.join(format!("cache-{i}"));
        let _ = std::fs::remove_dir_all(&cache);
        let t = Instant::now();
        servers.push(start_server(cache, workers));
        setup_s.push(secs(t.elapsed()));
    }
    let server = servers.pop().expect("SETUP_REPEATS is positive");
    for s in &servers {
        s.shutdown();
    }
    servers.into_iter().for_each(Server::join);
    let addr = server.local_addr().to_string();

    let (outcomes, wall) = execute(&addr, plan, false);
    let stats = stats(&addr);
    stop(server);

    let mut checks = Checks::default();
    let bodies = check(plan, &outcomes, &stats, &mut checks);
    let mut extra = Json::object();
    for path in ["hit", "fresh", "attach"] {
        extra.set(path, floats(&latencies(&outcomes, path)));
    }
    let mut b = Json::object();
    for (k, d) in &bodies {
        b.set(&k.to_string(), d.as_str().into());
    }
    extra.set("bodies", b);
    extra.set("late_followers", Json::from(late_followers(&outcomes)));
    Pass {
        setup_s,
        wall_s: wall,
        ops: outcomes.len() as u64,
        waits_ms: outcomes.iter().map(|o| o.ms).collect(),
        instructions: stats
            .get("meter_instructions")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        digests: Vec::new(),
        checks,
        extra,
    }
}

/// Digest of the artifact a `result` line for `key` must embed, given
/// the key's statistics: the body the server builds, parsed and
/// re-rendered compactly as `send_result` does.
pub fn result_digest(key: &JobKey, stats: &SimStats) -> String {
    let body = ArtifactCache::job_body(key, stats);
    let parsed = Json::parse(&body).expect("job bodies are valid JSON");
    digest(&parsed.to_string())
}

/// The artifact digest each key's result must carry, from a direct
/// `try_simulate` of the key. Keyed like [`pass`]'s `bodies`.
pub fn expected_bodies(plan: &Plan, threads: usize) -> Result<BTreeMap<usize, String>, String> {
    let idx: Vec<usize> = (0..plan.keys.len()).collect();
    let bodies = popk_bench::pool::map_jobs(threads, &idx, |&i| {
        let k = &plan.keys[i];
        let cfg =
            popk_bench::parse_config(&k.config).ok_or(format!("unknown config {}", k.config))?;
        let program = popk_workloads::by_name(&k.workload)
            .ok_or(format!("unknown workload {}", k.workload))?
            .program();
        let stats = popk_core::try_simulate(&program, &cfg, k.limit).map_err(|e| e.to_string())?;
        let key = JobKey::new(&k.workload, &k.config, &cfg, 0, k.limit);
        Ok::<String, String>(result_digest(&key, &stats))
    });
    idx.into_iter()
        .zip(bodies)
        .map(|(i, b)| b.map(|d| (i, d)))
        .collect()
}

//! In-memory span recorder for the traced run.
//!
//! Every timed call into a layer's public functions is wrapped in a
//! span: layer name, start, end, the span that caused it, and the row
//! or request it belongs to. Spans stay in memory while the run works
//! and are written once, at the end. A layer's self time is its spans'
//! durations minus the part of each interval its child spans cover.

use popk_core::Json;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    layer: &'static str,
    id: String,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span recorder lock poisoned by a panicking row")
}

/// Handle of an open span; [`SpanGuard::close`] records its end.
#[derive(Clone, Copy, Debug)]
pub struct SpanGuard(usize);

impl SpanGuard {
    /// End the span, returning its duration in nanoseconds.
    pub fn close(self) -> u64 {
        let end = now_ns();
        let mut all = spans();
        let span = &mut all[self.0];
        span.end = end;
        end - span.start
    }
}

/// Open a span of `layer` for row or request `id`, caused by `parent`.
pub fn open(layer: &'static str, id: &str, parent: Option<SpanGuard>) -> SpanGuard {
    let start = now_ns();
    let mut all = spans();
    all.push(Span {
        layer,
        id: id.to_string(),
        parent: parent.map(|g| g.0),
        start,
        end: start,
    });
    SpanGuard(all.len() - 1)
}

/// Time `f` as one span, returning its result and duration in ns.
pub fn timed<T>(
    layer: &'static str,
    id: &str,
    parent: Option<SpanGuard>,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let g = open(layer, id, parent);
    let out = f();
    let ns = g.close();
    (out, ns)
}

/// Start and end (ns since the recorder's epoch) of a closed span.
pub fn bounds(g: SpanGuard) -> (u64, u64) {
    let all = spans();
    (all[g.0].start, all[g.0].end)
}

/// Self time per layer, in ns: each span's duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_times() -> BTreeMap<&'static str, u64> {
    let all = spans();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); all.len()];
    for s in all.iter() {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in all.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.layer).or_insert(0) += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Write every span as one JSON line to `path`, then a summary line
/// with the per-layer self times.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    let mut text = String::new();
    for (i, s) in spans().iter().enumerate() {
        let mut j = Json::object();
        j.set("span", Json::from(i));
        j.set("layer", s.layer.into());
        j.set("id", s.id.as_str().into());
        j.set("parent", s.parent.map_or(Json::Null, Json::from));
        j.set("start_ns", Json::from(s.start));
        j.set("end_ns", Json::from(s.end));
        text.push_str(&j.to_string());
        text.push('\n');
    }
    let mut summary = Json::object();
    for (layer, ns) in self_times() {
        summary.set(layer, Json::from(ns));
    }
    let mut j = Json::object();
    j.set("self_ns", summary);
    text.push_str(&j.to_string());
    text.push('\n');
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

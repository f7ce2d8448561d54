//! Small helpers shared by the passes and the traced run.

use popk_core::hash::fnv1a_64;
use popk_core::Json;
use std::time::Duration;

/// Hex FNV-1a digest of a rendered output, the form the reference
/// digests in `refs.json` are written in.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a_64(text.as_bytes()))
}

/// An artifact body exactly as the report binaries write it under
/// `--json` (pretty, trailing newline), before the `host` block is
/// attached.
pub fn artifact_text(artifact: &Json) -> String {
    let mut text = artifact.to_pretty(2);
    text.push('\n');
    text
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU seconds this process has used, all threads, including threads
/// that already exited (`utime + stime` of `/proc/self/stat`, in clock
/// ticks of 10 ms). Only the traced run uses it, to compare two sweeps
/// of several seconds each; passes are charged their CPU by the caller
/// from the child's resource usage.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` (0..=1) of a sample (0 for an empty one).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The list of per-operation failures a pass or traced run found, with
/// the number of operations it checked.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count `n` operations, `failed` of which failed with `message`.
    pub fn record(&mut self, n: u64, failed: bool, message: impl FnOnce() -> String) {
        self.attempted += n;
        if failed {
            self.failures.push(message());
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub fn write(&self, out: &mut Json) {
        out.set("attempted", Json::from(self.attempted));
        out.set("failed", Json::from(self.failures.len()));
        out.set("errors", self.failures.iter().map(String::as_str).collect());
    }
}

/// A JSON array of floats.
pub fn floats(values: &[f64]) -> Json {
    values.iter().copied().collect()
}

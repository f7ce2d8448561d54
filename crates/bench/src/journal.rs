//! The write-ahead sweep journal: crash-safe `--resume` for the report
//! binaries.
//!
//! A sweep (Table 1, Fig. 11/12, the ablations) is a list of *rows* —
//! one (workload × config) simulation or one ablation section. Each
//! row is a pure function of (program, config, budget), so the journal
//! only has to remember which rows finished and what they produced. It
//! does so as append-only lines in `<dir>/<figure>.journal`:
//!
//! - `open` — the header: journal schema version, figure, budget, and
//!   a free-form `params` string folding in anything else that changes
//!   results (e.g. the oracle toggle). A journal whose header does not
//!   match the current invocation is discarded, never resumed.
//! - `done` — the row completed; the line embeds the row's payload
//!   (e.g. the exact [`SimStats`](popk_core::SimStats) counters), so a
//!   resumed sweep replays it without re-simulating.
//!
//! A row with no `done` line — interrupted mid-run, or never reached —
//! re-runs from instruction 0 on `--resume`. Every line is
//! *individually* sealed with the same FNV integrity checksum idiom as
//! the artifact cache, serialized compactly on one line — so a torn
//! tail (crash mid-append) is detected and replay simply stops at the
//! first unverifiable line, exactly the prefix that was durably
//! recorded.
//!
//! The journal is *advisory*: if the directory is unwritable the sweep
//! still runs, un-journaled, with a warning (`degraded` mode) — crash
//! safety must never be the reason a run fails.

use popk_core::hash::fnv1a_64;
use popk_core::Json;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version stamp of the journal line shapes. Bump on any incompatible
/// change: older journals are discarded (fresh start), never misread.
pub const JOURNAL_VERSION: u64 = 1;

/// Serialize `j` compactly with its FNV integrity checksum appended —
/// the line-oriented sibling of [`crate::cache::seal_body`]: the
/// checksum covers the compact serialization without the `integrity`
/// field, so each journal line verifies independently.
pub fn seal_line(mut j: Json) -> String {
    j.remove("integrity");
    let unsealed = j.to_string();
    j.set(
        "integrity",
        format!("{:016x}", fnv1a_64(unsealed.as_bytes())).into(),
    );
    j.to_string()
}

/// Parse and verify one sealed journal line. `None` on any defect —
/// invalid JSON, missing or mismatched checksum — which replay treats
/// as the end of the durable prefix.
pub fn verify_line(line: &str) -> Option<Json> {
    let mut parsed = Json::parse(line.trim()).ok()?;
    let stated = parsed.remove("integrity")?.as_str()?.to_string();
    let actual = format!("{:016x}", fnv1a_64(parsed.to_string().as_bytes()));
    (stated == actual).then_some(parsed)
}

/// One sweep's journal: the replayed state of a previous interrupted
/// run plus the append handle recording this run's progress.
///
/// Shared by reference across pool workers (appends serialize under an
/// internal lock); the replayed `done` map is immutable after
/// [`open`](SweepJournal::open).
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<Option<File>>,
    done: HashMap<String, Json>,
}

impl SweepJournal {
    /// Open (or create) the journal for `figure` under `dir`.
    ///
    /// With `resume` set, an existing journal whose header matches
    /// (`figure`, `limit`, `params`) is replayed: completed rows become
    /// [`completed`](SweepJournal::completed) payloads. The journal is
    /// then rewritten compacted (header + the replayed `done` lines),
    /// which also truncates any torn tail. Without `resume` — or on any
    /// header mismatch — previous state is discarded.
    pub fn open(dir: &Path, figure: &str, limit: u64, params: &str, resume: bool) -> SweepJournal {
        let path = dir.join(format!("{figure}.journal"));
        let mut done = HashMap::new();

        if resume {
            if let Ok(text) = std::fs::read_to_string(&path) {
                let mut lines = text.lines();
                let header_ok = lines.next().and_then(verify_line).is_some_and(|h| {
                    h.get("op").and_then(Json::as_str) == Some("open")
                        && h.get("journal_version").and_then(Json::as_u64) == Some(JOURNAL_VERSION)
                        && h.get("figure").and_then(Json::as_str) == Some(figure)
                        && h.get("limit").and_then(Json::as_u64) == Some(limit)
                        && h.get("params").and_then(Json::as_str) == Some(params)
                });
                if header_ok {
                    for line in lines {
                        // The first unverifiable line ends the durable
                        // prefix (torn tail from a crash mid-append).
                        let Some(entry) = verify_line(line) else {
                            break;
                        };
                        // Only `done` lines carry replay state; other ops
                        // (such as the `start`/`retry` lines of journals
                        // written by older builds) are skipped.
                        if entry.get("op").and_then(Json::as_str) != Some("done") {
                            continue;
                        }
                        if let Some(payload) = entry.get("payload") {
                            let row = entry.get("row").and_then(Json::as_str).unwrap_or_default();
                            done.insert(row.to_string(), payload.clone());
                        }
                    }
                }
            }
        }

        // Rewrite compacted: header plus the surviving done rows. An
        // unwritable directory degrades to an un-journaled sweep.
        let file = std::fs::create_dir_all(dir)
            .and_then(|()| File::create(&path))
            .map_err(|e| {
                eprintln!(
                    "warning: sweep journal unavailable ({}): {e}; running without crash safety",
                    path.display()
                );
            })
            .ok();
        let journal = SweepJournal {
            path,
            file: Mutex::new(file),
            done,
        };
        let mut header = Json::object();
        header.set("op", "open".into());
        header.set("journal_version", Json::from(JOURNAL_VERSION));
        header.set("figure", figure.into());
        header.set("limit", Json::from(limit));
        header.set("params", params.into());
        journal.append(header);
        for (row, payload) in &journal.done {
            journal.append(done_line(row, payload.clone()));
        }
        journal
    }

    /// Append one sealed line; on failure, degrade (warn once, journal
    /// off) rather than fail the sweep.
    fn append(&self, j: Json) {
        let mut guard = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(file) = guard.as_mut() else { return };
        let mut line = seal_line(j);
        line.push('\n');
        if file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .is_err()
        {
            eprintln!(
                "warning: sweep journal write failed ({}); continuing without crash safety",
                self.path.display()
            );
            *guard = None;
        }
    }

    /// Whether journaling is off (directory unwritable or a failed
    /// append). A degraded sweep still runs; it just cannot resume.
    pub fn degraded(&self) -> bool {
        self.file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_none()
    }

    /// The replayed payload of a completed row, if this journal was
    /// resumed and the row finished in a previous run.
    pub fn completed(&self, row: &str) -> Option<&Json> {
        self.done.get(row)
    }

    /// Record that `row` completed with `payload`.
    pub fn record_done(&self, row: &str, payload: Json) {
        self.append(done_line(row, payload));
    }

    /// The sweep completed and its artifact is written: remove the
    /// journal. Failure to clean up is harmless (a later non-resume open
    /// truncates anyway).
    pub fn finish(&self) {
        {
            let mut guard = self
                .file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *guard = None;
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

fn done_line(row: &str, payload: Json) -> Json {
    let mut j = Json::object();
    j.set("op", "done".into());
    j.set("row", row.into());
    j.set("payload", payload);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("popk-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(n: u64) -> Json {
        let mut j = Json::object();
        j.set("n", Json::from(n));
        j
    }

    #[test]
    fn line_seal_roundtrip_and_tamper_detection() {
        let line = seal_line(payload(7));
        assert!(!line.contains('\n'));
        let back = verify_line(&line).expect("verifies");
        assert_eq!(back.get("n").and_then(Json::as_u64), Some(7));
        // Any byte flip that stays valid JSON fails the checksum.
        let tampered = line.replacen("7", "8", 1);
        assert_eq!(verify_line(&tampered), None);
        // Truncation fails to parse.
        assert_eq!(verify_line(&line[..line.len() - 3]), None);
    }

    #[test]
    fn resume_replays_done_rows_only() {
        let dir = temp_dir("resume");
        {
            let j = SweepJournal::open(&dir, "t", 1000, "", false);
            assert!(!j.degraded());
            j.record_done("a", payload(1));
        }
        // A journal from an older build may also hold `start`/`retry`
        // lines; replay skips them.
        let path = dir.join("t.journal");
        let mut text = std::fs::read_to_string(&path).unwrap();
        for op in ["start", "retry"] {
            let mut line = Json::object();
            line.set("op", op.into());
            line.set("row", "b".into());
            text.push_str(&seal_line(line));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();

        let j = SweepJournal::open(&dir, "t", 1000, "", true);
        assert_eq!(
            j.completed("a")
                .and_then(|p| p.get("n"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(j.completed("b").is_none());
        // The compacted rewrite keeps only the header and the done row.
        let ops: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| {
                let line = verify_line(l).expect("sealed line");
                line.get("op").and_then(Json::as_str).unwrap().to_string()
            })
            .collect();
        assert_eq!(ops, ["open", "done"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_replay_at_durable_prefix() {
        let dir = temp_dir("torn");
        {
            let j = SweepJournal::open(&dir, "t", 1000, "", false);
            j.record_done("a", payload(1));
            j.record_done("b", payload(2));
        }
        // Simulate a crash mid-append: chop the last line in half.
        let path = dir.join("t.journal");
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.trim_end().rfind('\n').unwrap() + 10;
        std::fs::write(&path, &text[..keep]).unwrap();

        let j = SweepJournal::open(&dir, "t", 1000, "", true);
        assert!(j.completed("a").is_some(), "durable prefix survives");
        assert!(j.completed("b").is_none(), "torn line is not trusted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_mismatch_discards_previous_journal() {
        let dir = temp_dir("header");
        {
            let j = SweepJournal::open(&dir, "t", 1000, "oracle=false", false);
            j.record_done("a", payload(1));
        }
        // Different budget → fresh journal even under --resume.
        let j = SweepJournal::open(&dir, "t", 2000, "oracle=false", true);
        assert!(j.completed("a").is_none());
        // Different params string → likewise.
        {
            let j = SweepJournal::open(&dir, "t", 1000, "oracle=false", false);
            j.record_done("a", payload(1));
        }
        let j = SweepJournal::open(&dir, "t", 1000, "oracle=true", true);
        assert!(j.completed("a").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_resume_open_discards_everything() {
        let dir = temp_dir("fresh");
        {
            let j = SweepJournal::open(&dir, "t", 1000, "", false);
            j.record_done("a", payload(1));
        }
        let j = SweepJournal::open(&dir, "t", 1000, "", false);
        assert!(j.completed("a").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_removes_journal() {
        let dir = temp_dir("finish");
        let j = SweepJournal::open(&dir, "t", 1000, "", false);
        j.record_done("a", payload(1));
        j.finish();
        assert!(!dir.join("t.journal").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_instead_of_failing() {
        // A file where the journal directory should be makes every
        // filesystem operation fail; the journal must degrade.
        let dir = temp_dir("degraded");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        std::fs::write(&dir, "not a directory").unwrap();
        let j = SweepJournal::open(&dir, "t", 1000, "", false);
        assert!(j.degraded());
        j.record_done("a", payload(1)); // a no-op, not a failure
        assert!(j.degraded());
        let _ = std::fs::remove_file(&dir);
    }
}

//! A hand-rolled scoped job pool for the sweep executors.
//!
//! The report binaries fan their (workload × config) simulation jobs
//! across OS threads. The workspace builds offline with no external
//! crates, so this is a minimal work-stealing-free pool on
//! [`std::thread::scope`]: one atomic cursor hands out job indices,
//! each worker writes its result into a per-job slot, and results come
//! back in **submission order** regardless of which worker ran what —
//! so sweeps are deterministic at any thread count. `threads == 1`
//! bypasses the pool entirely and runs the jobs serially in order on
//! the calling thread, reproducing single-threaded behaviour exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use by default: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A job that panicked on all [`JOB_ATTEMPTS`] attempts (see
/// [`try_map_jobs`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFailure {
    /// The final panic payload, as text.
    pub message: String,
}

/// Attempts [`try_map_jobs`] makes per job: the initial run plus one
/// retry (transient environmental failures get a second chance;
/// deterministic panics fail both attempts identically).
pub const JOB_ATTEMPTS: u32 = 2;

/// Apply `f` to every item, using up to `threads` worker threads, and
/// return the results in item (submission) order.
///
/// `threads` is clamped to `1..=items.len()`; the jobs must be
/// independent (each runs exactly once, on exactly one worker).
///
/// A panicking job propagates and aborts the whole map; use
/// [`try_map_jobs`] for panic isolation.
pub fn map_jobs<I: Sync, T: Send>(
    threads: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker completed job")
        })
        .collect()
}

/// Panic-isolated variant of [`map_jobs`]: each job runs under
/// [`catch_unwind`] with one retry, so a poisoned job yields a
/// [`JobFailure`] in its slot instead of killing the sweep. Results
/// still come back in submission order.
pub fn try_map_jobs<I: Sync, T: Send>(
    threads: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<Result<T, JobFailure>> {
    map_jobs(threads, items, |item| {
        let mut message = String::new();
        for _ in 0..JOB_ATTEMPTS {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(v) => return Ok(v),
                Err(payload) => message = panic_message(payload.as_ref()),
            }
        }
        Err(JobFailure { message })
    })
}

/// Extract a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 16] {
            let out = map_jobs(threads, &items, |&i| i * i);
            assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_once() {
        let ran = AtomicUsize::new(0);
        let items: Vec<u32> = (0..37).collect();
        let out = map_jobs(4, &items, |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 37);
        assert_eq!(out.len(), 37);
    }

    #[test]
    fn empty_and_oversubscribed() {
        let none: Vec<u8> = Vec::new();
        assert!(map_jobs(8, &none, |&b| b).is_empty());
        // More threads than jobs: clamped, still correct.
        assert_eq!(map_jobs(64, &[5u8, 6], |&b| b + 1), vec![6, 7]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn try_map_isolates_panics_and_retries_once() {
        let attempts = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        let items: Vec<usize> = (0..3).collect();
        for threads in [1, 4] {
            for a in &attempts {
                a.store(0, Ordering::Relaxed);
            }
            let out = try_map_jobs(threads, &items, |&i| {
                attempts[i].fetch_add(1, Ordering::Relaxed);
                if i == 1 {
                    panic!("poisoned job {i}");
                }
                i * 10
            });
            assert_eq!(out[0], Ok(0));
            assert_eq!(out[2], Ok(20));
            let failure = out[1].as_ref().expect_err("job 1 panics");
            assert_eq!(failure.message, "poisoned job 1");
            // The healthy jobs ran once; the poisoned one got a retry.
            assert_eq!(attempts[0].load(Ordering::Relaxed), 1, "threads {threads}");
            assert_eq!(
                attempts[1].load(Ordering::Relaxed),
                JOB_ATTEMPTS as usize,
                "threads {threads}"
            );
            assert_eq!(attempts[2].load(Ordering::Relaxed), 1, "threads {threads}");
        }
    }
}

//! Dependency-free parallel campaign runner.
//!
//! The per-run simulation engine is single-threaded **by design** (see
//! `hsc-sim`): determinism inside one run is what lets the test-suite
//! assert exact probe and memory-access counts. Nothing, however,
//! requires a *campaign* — the config × workload × seed sweeps behind
//! every figure — to be serial: each run is an independent job with its
//! own `System`, and only the job's plain-data result crosses threads.
//!
//! A [`Campaign`] collects named jobs, executes them on a shared
//! work-queue across [`Parallelism::jobs`] scoped threads, and returns
//! results **in submission order regardless of completion order** — so
//! every printed table and every `RunReport`'s run list is byte-identical
//! to a serial run. A panicking job is captured per-job and surfaces as a
//! named [`JobError`] while its sibling jobs run to completion.
//!
//! Thread count resolution: an explicit `--jobs N` flag, else
//! [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! use hsc_bench::par::{Campaign, Parallelism};
//!
//! let mut c = Campaign::new("squares");
//! for i in 0..8u64 {
//!     c.push(format!("job{i}"), move || i * i);
//! }
//! let results = c.run(Parallelism::of(4));
//! let squares: Vec<u64> = results.into_iter().map(Result::unwrap).collect();
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// How many worker threads a campaign may use (always at least 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// Exactly one worker: the serial baseline every parallel run must
    /// reproduce byte-for-byte.
    #[must_use]
    pub fn serial() -> Self {
        Parallelism { jobs: 1 }
    }

    /// An explicit worker count; zero is clamped to one.
    #[must_use]
    pub fn of(jobs: usize) -> Self {
        Parallelism { jobs: jobs.max(1) }
    }

    /// Resolves the worker count: an explicit `--jobs` flag value (zero
    /// clamped to one, like [`Parallelism::of`]), else
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn resolve(flag: Option<usize>) -> Self {
        Parallelism::of(flag.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }))
    }

    /// The worker-thread count.
    #[must_use]
    pub fn jobs(self) -> usize {
        self.jobs
    }
}

/// A worker panic, captured per-job so one bad run cannot tear down the
/// whole campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The submitted job's name (e.g. `"tq/baseline"`).
    pub job: String,
    /// The rendered panic payload.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job `{}` panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobError {}

/// What one job produced: its value, or the named panic that killed it.
pub type JobResult<T> = Result<T, JobError>;

type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// An ordered collection of named jobs, executed by [`Campaign::run`].
pub struct Campaign<'a, T> {
    label: String,
    jobs: Vec<(String, Job<'a, T>)>,
}

impl<T> fmt::Debug for Campaign<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("label", &self.label)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl<'a, T: Send> Campaign<'a, T> {
    /// Creates an empty campaign; `label` names it in the stderr timing
    /// line (stdout stays reserved for deterministic table output).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Campaign { label: label.into(), jobs: Vec::new() }
    }

    /// Appends a job. Results come back in exactly this submission order.
    pub fn push(&mut self, name: impl Into<String>, job: impl FnOnce() -> T + Send + 'a) {
        self.jobs.push((name.into(), Box::new(job)));
    }

    /// Number of submitted jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job has been submitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Executes every job on up to `par.jobs()` scoped threads pulling
    /// from a shared queue, returning one [`JobResult`] per job **in
    /// submission order**. A job that panics yields [`JobError`]; sibling
    /// jobs are unaffected.
    ///
    /// A one-line timing summary goes to **stderr** so that stdout is
    /// byte-identical across worker counts.
    #[must_use]
    pub fn run(self, par: Parallelism) -> Vec<JobResult<T>> {
        let n = self.jobs.len();
        let workers = par.jobs().min(n.max(1));
        let started = Instant::now();
        let queue: Mutex<VecDeque<(usize, String, Job<'a, T>)>> = Mutex::new(
            self.jobs.into_iter().enumerate().map(|(i, (name, job))| (i, name, job)).collect(),
        );
        let done: Mutex<Vec<(usize, JobResult<T>)>> = Mutex::new(Vec::with_capacity(n));
        if workers <= 1 {
            drain(&queue, &done);
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| drain(&queue, &done));
                }
            });
        }
        let mut results = done.into_inner().expect("campaign result mutex poisoned");
        results.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(results.len(), n, "every submitted job must report a result");
        eprintln!(
            "[par] {}: {} job(s) on {} thread(s) in {} ms",
            self.label,
            n,
            workers,
            started.elapsed().as_millis()
        );
        results.into_iter().map(|(_, r)| r).collect()
    }
}

/// Worker loop: pop the next job, run it under `catch_unwind`, record the
/// outcome under the job's submission index.
fn drain<'a, T>(
    queue: &Mutex<VecDeque<(usize, String, Job<'a, T>)>>,
    done: &Mutex<Vec<(usize, JobResult<T>)>>,
) {
    loop {
        let Some((idx, name, job)) =
            queue.lock().expect("campaign queue mutex poisoned").pop_front()
        else {
            return;
        };
        let result = panic::catch_unwind(AssertUnwindSafe(job))
            .map_err(|payload| JobError { job: name, message: panic_message(payload.as_ref()) });
        done.lock().expect("campaign result mutex poisoned").push((idx, result));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Unwraps every job result — for campaigns where a single bad run must
/// fail the whole command.
///
/// # Errors
///
/// An [`io::Error::other`] listing every [`JobError`] if at least one job
/// panicked (each panic has already reported itself on stderr).
pub fn expect_all<T>(label: &str, results: Vec<JobResult<T>>) -> io::Result<Vec<T>> {
    let mut values = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(v) => values.push(v),
            Err(e) => errors.push(e.to_string()),
        }
    }
    if errors.is_empty() {
        return Ok(values);
    }
    let (n, list) = (errors.len(), errors.join("\n  "));
    Err(io::Error::other(format!("campaign `{label}`: {n} job(s) failed:\n  {list}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let mut c = Campaign::new("order");
        // Reverse-sized workloads so completion order differs from
        // submission order under real parallelism.
        for i in 0..16u64 {
            c.push(format!("j{i}"), move || {
                let spins = (16 - i) * 10_000;
                let mut acc = 0u64;
                for k in 0..spins {
                    acc = acc.wrapping_add(k ^ i);
                }
                (i, acc & 1)
            });
        }
        let got: Vec<u64> = c.run(Parallelism::of(4)).into_iter().map(|r| r.unwrap().0).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let build = || {
            let mut c = Campaign::new("agree");
            for i in 0..9u64 {
                c.push(format!("j{i}"), move || i * 31 + 7);
            }
            c
        };
        let serial: Vec<_> =
            build().run(Parallelism::serial()).into_iter().map(Result::unwrap).collect();
        let parallel: Vec<_> =
            build().run(Parallelism::of(3)).into_iter().map(Result::unwrap).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panicking_job_is_named_and_siblings_complete() {
        let mut c = Campaign::new("panics");
        c.push("ok-before", || 1u64);
        c.push("boom", || panic!("injected failure {}", 42));
        c.push("ok-after", || 3u64);
        let results = c.run(Parallelism::of(2));
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.job, "boom");
        assert!(err.message.contains("injected failure 42"));
        assert!(err.to_string().contains("`boom`"));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let mut c = Campaign::new("small");
        c.push("only", || 9u8);
        let results = c.run(Parallelism::of(64));
        assert_eq!(results, vec![Ok(9)]);
    }

    #[test]
    fn empty_campaign_returns_no_results() {
        let c: Campaign<'_, ()> = Campaign::new("empty");
        assert!(c.is_empty());
        assert!(c.run(Parallelism::of(4)).is_empty());
    }

    #[test]
    fn parallelism_resolution_precedence() {
        assert_eq!(Parallelism::resolve(Some(3)).jobs(), 3);
        assert_eq!(Parallelism::resolve(Some(0)).jobs(), 1, "zero clamps to serial");
        assert_eq!(Parallelism::of(0).jobs(), 1, "zero clamps to serial");
        // No flag: available_parallelism, but always >= 1.
        assert!(Parallelism::resolve(None).jobs() >= 1);
    }

    #[test]
    fn expect_all_unwraps_successes() {
        assert_eq!(expect_all("ok", vec![Ok(1), Ok(2)]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn expect_all_names_the_failed_job() {
        let late = JobError { job: "late".into(), message: "kaput".into() };
        let err = expect_all("bad", vec![Ok(1), Err(late)]).unwrap_err();
        assert!(err.to_string().contains("`late` panicked: kaput"), "{err}");
    }
}

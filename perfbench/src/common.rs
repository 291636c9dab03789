//! Pieces shared by every workload: job seeds, digests, the closed-loop
//! client loop, and the statistics the report prints.

use crate::trace::Tracer;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections (and worker slots) every workload uses: the
/// machine's core count, capped at 2.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Seed of the warm-up jobs: fixed, so set-up does the same work in every
/// run whatever `--seed` is.
pub const WARMUP_SEED: u64 = 0x5eed_0f3a;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The campaign seed of job `index` of a run seeded with `seed`: a pure
/// function of both, kept below 2^62 so the harness's `seed + 1` input
/// stream convention cannot overflow.
pub fn job_seed(seed: u64, index: usize) -> u64 {
    mix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix(index as u64 + 1)) >> 2
}

/// FNV-1a over everything written to it, so a digest can stream a value's
/// `Debug` rendering without building the string.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn debug(&mut self, value: &dyn std::fmt::Debug) {
        write!(self, "{value:?};").expect("digest writes cannot fail");
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// What one job produced.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Time the user waited for the job (excludes the benchmark's own
    /// digesting and bookkeeping).
    pub latency: Duration,
    /// Digest of the job's result (campaign records or catalog bytes).
    pub digest: u64,
    /// Programs carried through the pipeline, mutants included.
    pub programs: u64,
    /// Outlier records found.
    pub outliers: u64,
    /// Failed operations inside the job (compile failures, shard errors,
    /// a job that did not end `done`).
    pub failures: u64,
}

/// One job of a workload. Implementations must be pure in `index`: the
/// same index yields the same digest on every call, traced or not.
pub trait Workload: Sync {
    fn run_job(&self, index: usize, tracer: Option<&Tracer>) -> JobOutput;

    /// Run a few fixed-seed jobs so caches fill and lazy set-up finishes
    /// before timing; part of the measured set-up.
    fn warm_up(&self);

    /// Recompute job `index` on the reference path (tree engine,
    /// unsharded, or in-process) and return its digest. Never timed.
    fn reference_digest(&self, index: usize) -> u64;

    /// How many completed jobs the reference check samples.
    fn reference_jobs(&self) -> usize;

    /// Stop background services and remove temporary state.
    fn teardown(&self) {}
}

/// Completed jobs of one closed-loop run, in index order, and its wall
/// time.
pub struct LoopRun {
    pub jobs: Vec<(usize, JobOutput)>,
    pub wall: Duration,
}

/// How long a closed loop keeps submitting.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Submit until this much time has passed since the loop started.
    Time(Duration),
    /// Run exactly jobs `0..n`.
    Jobs(usize),
}

/// A closed loop of `clients` callers: each takes the next job index,
/// runs it, and only then takes another. Job indices are handed out in
/// order, so a time-bounded run completes a prefix `0..n` of the jobs.
pub fn closed_loop(
    workload: &dyn Workload,
    clients: usize,
    budget: Budget,
    tracer: Option<&Tracer>,
) -> LoopRun {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let within = match budget {
                    Budget::Time(limit) => started.elapsed() < limit,
                    Budget::Jobs(_) => true,
                };
                if !within {
                    break;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                if let Budget::Jobs(n) = budget {
                    if index >= n {
                        break;
                    }
                }
                let out = match tracer {
                    Some(t) => t.job("job", index as u64, || workload.run_job(index, Some(t))),
                    None => workload.run_job(index, None),
                };
                done.lock().expect("job list poisoned").push((index, out));
            });
        }
    });
    let wall = started.elapsed();
    let mut jobs = done.into_inner().expect("job list poisoned");
    jobs.sort_by_key(|(i, _)| *i);
    LoopRun { jobs, wall }
}

/// Linear-interpolated quantile of sorted data (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh, empty directory under `root`, unique to this process.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create benchmark work directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..100).map(|i| job_seed(1, i)).collect();
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        assert_eq!(job_seed(1, 5), a[5]);
        assert_ne!(job_seed(2, 5), a[5]);
        assert!(a.iter().all(|s| *s < 1 << 62));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

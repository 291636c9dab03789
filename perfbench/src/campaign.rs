//! The two campaign workloads: each job is one `run_campaign` call.
//!
//! * `campaign_small`: `EvolveConfig::quick().base` (small generator, 10 µs
//!   time floor) with one input per program and 64 programs per job —
//!   per-program fixed costs (generation, compilation, race filter)
//!   dominate.
//! * `campaign_paper`: `CampaignConfig::paper()` (32 threads, 3 inputs,
//!   `-O3`, 40M-op budget, race filter on), one program per job — VM-bound
//!   and heavy-tailed. Not part of `BENCHMARK.json`: its per-program cost
//!   spans 2 ms to seconds, so a 15-second window holds too few programs
//!   for its rates to agree between seeds (see `perfbench/METRICS.md`).

use crate::common::{job_seed, JobOutput, Workload, WARMUP_SEED};
use crate::pipeline::{campaign_digest, outlier_records, traced_campaign};
use crate::trace::Tracer;
use ompfuzz_backends::{standard_backends, OmpBackend, SimBackend};
use ompfuzz_corpus::EvolveConfig;
use ompfuzz_exec::ExecEngine;
use ompfuzz_harness::{run_campaign, CampaignConfig};
use std::time::Instant;

pub struct CampaignWorkload {
    base: CampaignConfig,
    backends: Vec<SimBackend>,
    seed: u64,
    reference_jobs: usize,
    warm_up_jobs: usize,
}

impl CampaignWorkload {
    /// `campaign_paper`: one paper-configuration program per job.
    pub fn paper(seed: u64, tiny: bool) -> CampaignWorkload {
        let mut base = CampaignConfig::paper();
        base.programs = 1;
        base.workers = 1;
        if tiny {
            base.run.max_ops = 2_000_000;
        }
        CampaignWorkload::new(base, seed, if tiny { 1 } else { 3 }, 1)
    }

    /// `campaign_small`: many small programs, one input each, per job.
    pub fn small(seed: u64, tiny: bool) -> CampaignWorkload {
        let mut base = EvolveConfig::quick().base;
        base.programs = if tiny { 8 } else { 64 };
        base.inputs_per_program = 1;
        base.workers = 1;
        CampaignWorkload::new(base, seed, if tiny { 2 } else { 12 }, 32)
    }

    fn new(
        base: CampaignConfig,
        seed: u64,
        reference_jobs: usize,
        warm_up_jobs: usize,
    ) -> CampaignWorkload {
        CampaignWorkload {
            base,
            backends: standard_backends(),
            seed,
            reference_jobs,
            warm_up_jobs,
        }
    }

    fn config(&self, seed: u64) -> CampaignConfig {
        let mut cfg = self.base.clone();
        cfg.seed = seed;
        cfg
    }

    fn dyns(&self) -> Vec<&dyn OmpBackend> {
        self.backends.iter().map(|b| b as &dyn OmpBackend).collect()
    }
}

impl Workload for CampaignWorkload {
    fn run_job(&self, index: usize, tracer: Option<&Tracer>) -> JobOutput {
        let cfg = self.config(job_seed(self.seed, index));
        let dyns = self.dyns();
        let started = Instant::now();
        let result = match tracer {
            None => run_campaign(&cfg, &dyns),
            Some(t) => traced_campaign(&cfg, &dyns, t),
        };
        let latency = started.elapsed();
        JobOutput {
            latency,
            digest: campaign_digest(&result),
            programs: cfg.programs as u64,
            outliers: outlier_records(&result),
            failures: u64::from(result.compile_failures > 0),
        }
    }

    fn warm_up(&self) {
        for i in 0..self.warm_up_jobs {
            run_campaign(&self.config(job_seed(WARMUP_SEED, i)), &self.dyns());
        }
    }

    fn reference_digest(&self, index: usize) -> u64 {
        let mut cfg = self.config(job_seed(self.seed, index));
        cfg.run.engine = ExecEngine::Tree;
        campaign_digest(&run_campaign(&cfg, &self.dyns()))
    }

    fn reference_jobs(&self) -> usize {
        self.reference_jobs
    }
}

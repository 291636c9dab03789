//! `evolve_sharded`: each job is one `run_sharded_evolution_with` over
//! `EvolveConfig::quick()` at 160 programs per round, three rounds and two
//! shards, checkpointing into a fresh directory. Reduction, mutation,
//! bias and checkpoint I/O run every round.
//!
//! Every job resumes from the same starting catalog, built in set-up by the
//! default `EvolveConfig::quick()` evolution (`ompfuzz evolve --quick`), so
//! every job seeds mutants from round 0 on and jobs cost alike. Started
//! from an empty catalog, jobs whose round 0 finds no trigger never
//! reduce anything and finish several times faster than the rest, and the
//! median job latency then swings with the share of such seeds.
//!
//! The traced run re-drives the coordinator's round loop from the corpus,
//! harness and reduce crates' public functions, with a span around every
//! layer call; its catalog bytes must equal the untraced run's.

use crate::common::{fresh_dir, job_seed, Digest, JobOutput, Workload, WARMUP_SEED};
use crate::pipeline::{assemble, gen_inputs, gen_program, run_case};
use crate::trace::Tracer;
use ompfuzz_backends::{standard_backends, OmpBackend, SimBackend};
use ompfuzz_corpus::shard::ShardSummary;
use ompfuzz_corpus::{
    campaign_fingerprint, fold_into_catalog, mutant_seed, mutate_kernel, plan_shards, round_seed,
    run_evolution, run_sharded_evolution_with, BatchConfig, BatchReduction, Checkpoint,
    EvolveConfig, GeneratorBias, Loaded, ReducedOutlier, RoundManifest, ShardOutcome,
    ShardedEvolveConfig, TriggerCatalog,
};
use ompfuzz_exec::{ExecEngine, ProfileCollector};
use ompfuzz_harness::{CampaignConfig, CampaignResult, TestCase};
use ompfuzz_obs::{CounterSnapshot, Obs};
use ompfuzz_reduce::{Reducer, ReductionTarget};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Shards per round.
const SHARDS: usize = 2;
/// Programs per round: small enough that a run completes the 100+ jobs a
/// p90 with ten samples beyond it needs.
const PROGRAMS: usize = 160;

pub struct EvolveWorkload {
    config: EvolveConfig,
    backends: Vec<SimBackend>,
    seed: u64,
    /// The catalog every job resumes from (filled by the warm-up).
    initial: OnceLock<TriggerCatalog>,
    dir: PathBuf,
    /// Distinguishes the checkpoint directories of concurrent jobs.
    next_dir: AtomicUsize,
}

/// Digest of an evolution: the saved catalog bytes.
fn catalog_digest(catalog: &TriggerCatalog) -> u64 {
    let mut d = Digest::default();
    d.bytes(catalog.save_to_string().as_bytes());
    d.finish()
}

impl EvolveWorkload {
    pub fn new(seed: u64, tiny: bool, work_dir: &Path) -> EvolveWorkload {
        let mut config = EvolveConfig::quick();
        config.base.programs = if tiny { 24 } else { PROGRAMS };
        config.base.workers = 1;
        config.rounds = if tiny { 2 } else { 3 };
        EvolveWorkload {
            config,
            backends: standard_backends(),
            seed,
            initial: OnceLock::new(),
            dir: fresh_dir(work_dir, "evolve"),
            next_dir: AtomicUsize::new(0),
        }
    }

    fn config(&self, seed: u64) -> EvolveConfig {
        let mut config = self.config.clone();
        config.base.seed = seed;
        config
    }

    fn dyns(&self) -> Vec<&dyn OmpBackend> {
        self.backends.iter().map(|b| b as &dyn OmpBackend).collect()
    }

    fn initial(&self) -> &TriggerCatalog {
        self.initial
            .get()
            .expect("the warm-up builds the starting catalog before any job runs")
    }

    fn checkpoint_dir(&self) -> PathBuf {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("ckpt-{n}"))
    }

    fn run_seeded(&self, seed: u64, tracer: Option<&Tracer>) -> JobOutput {
        let config = ShardedEvolveConfig {
            evolve: self.config(seed),
            shards: SHARDS,
        };
        let dir = self.checkpoint_dir();
        let dyns = self.dyns();
        let started = Instant::now();
        let result = match tracer {
            None => run_sharded_evolution_with(
                &config,
                &dyns,
                self.initial().clone(),
                Some(&dir),
                &Obs::off(),
                &ProfileCollector::off(),
            )
            .map(|e| {
                let programs = e.evolution.rounds.iter().map(|r| r.programs).sum::<usize>();
                let outliers = e.evolution.total_outliers();
                (e.evolution.catalog, programs, outliers)
            })
            .map_err(|e| e.to_string()),
            Some(t) => traced_evolution(&config, &dyns, self.initial(), &dir, t),
        };
        let latency = started.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok((catalog, programs, outliers)) => JobOutput {
                latency,
                digest: catalog_digest(&catalog),
                programs: programs as u64,
                outliers: outliers as u64,
                failures: 0,
            },
            Err(e) => {
                eprintln!("evolution failed: {e}");
                JobOutput {
                    latency,
                    failures: 1,
                    ..JobOutput::default()
                }
            }
        }
    }
}

impl Workload for EvolveWorkload {
    fn run_job(&self, index: usize, tracer: Option<&Tracer>) -> JobOutput {
        self.run_seeded(job_seed(self.seed, index), tracer)
    }

    fn warm_up(&self) {
        let mut quick = EvolveConfig::quick();
        quick.base.workers = 1;
        let catalog = run_evolution(&quick, &self.dyns(), TriggerCatalog::new()).catalog;
        assert!(!catalog.is_empty(), "the quick evolution catalogs triggers");
        let _ = self.initial.set(catalog);
        self.run_seeded(job_seed(WARMUP_SEED, 0), None);
    }

    /// The same evolution unsharded, in memory, on the tree engine.
    fn reference_digest(&self, index: usize) -> u64 {
        let mut config = self.config(job_seed(self.seed, index));
        config.base.run.engine = ExecEngine::Tree;
        catalog_digest(&run_evolution(&config, &self.dyns(), self.initial().clone()).catalog)
    }

    fn reference_jobs(&self) -> usize {
        2
    }

    fn teardown(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Write `text` through a checkpoint call, counting its bytes.
fn timed_write<T>(t: &Tracer, bytes: usize, f: impl FnOnce() -> T) -> T {
    t.count("corpus.checkpoint_bytes", bytes as f64);
    t.span("corpus.checkpoint_write", f)
}

/// The coordinator's round loop (`run_sharded_evolution_io` with a fresh
/// checkpoint directory) re-driven with a span around every layer call.
/// Returns the final catalog, programs run and outlier records.
fn traced_evolution(
    config: &ShardedEvolveConfig,
    backends: &[&dyn OmpBackend],
    initial: &TriggerCatalog,
    dir: &Path,
    t: &Tracer,
) -> Result<(TriggerCatalog, usize, usize), String> {
    let evolve = &config.evolve;
    let shards = config.shards.max(1);
    let fingerprint = campaign_fingerprint(evolve, shards, initial);
    let ckpt = Checkpoint::open(dir).map_err(|e| e.to_string())?;
    let mut catalog = initial.clone();
    let (mut programs, mut outliers) = (0, 0);
    for round in 0..evolve.rounds {
        // The round's campaign: seed stepped, generator steered toward the
        // catalog's features.
        let mut campaign = evolve.base.clone();
        campaign.seed = round_seed(evolve.base.seed, round);
        if evolve.bias_strength > 0.0 {
            if let Some(generator) = t.span("corpus.bias", || {
                GeneratorBias::from_catalog(&catalog, evolve.bias_strength)
                    .map(|bias| bias.steer(&evolve.base.generator))
            }) {
                campaign.generator = generator;
            }
        }
        let loaded = t.span("corpus.checkpoint_read", || ckpt.load_manifest(round));
        if !matches!(loaded, Ok(Loaded::Absent)) {
            return Err(format!(
                "round {round}: fresh checkpoint dir has a manifest"
            ));
        }
        let mut manifest = RoundManifest {
            round,
            seed: campaign.seed,
            fingerprint,
            shards,
            completed: BTreeSet::new(),
        };

        // Catalog kernels eligible to seed this round's mutant tail slots.
        let kernels: Vec<&ompfuzz_ast::Program> = t.span("corpus.mutate", || {
            catalog
                .kernels()
                .filter(|k| {
                    ompfuzz_gen::validate::grammar_errors(&k.program).is_empty()
                        && ompfuzz_gen::validate::limit_errors(&k.program, &campaign.generator)
                            .is_empty()
                })
                .map(|k| &k.program)
                .collect()
        });
        let mutants = if kernels.is_empty() {
            0
        } else {
            (((campaign.programs as f64) * evolve.mutation_fraction.clamp(0.0, 1.0)).floor()
                as usize)
                .min(campaign.programs)
        };
        let fresh = campaign.programs - mutants;

        let mut outcomes = Vec::with_capacity(shards);
        for (shard, range) in plan_shards(campaign.programs, shards)
            .into_iter()
            .enumerate()
        {
            let start = Instant::now();
            let slice: Vec<TestCase> = range
                .clone()
                .map(|i| {
                    let program = if i < fresh {
                        gen_program(&campaign, i, t)
                    } else {
                        let kernel = kernels[(i - fresh) % kernels.len()];
                        let mut program = t.span("corpus.mutate", || {
                            mutate_kernel(
                                kernel,
                                &campaign.generator,
                                mutant_seed(campaign.seed, i),
                                evolve.edits_per_mutant,
                            )
                        });
                        t.count("corpus.mutants", 1.0);
                        program.name = format!("test_{i}");
                        program.seed = campaign.seed;
                        program
                    };
                    gen_inputs(&campaign, program, i, t)
                })
                .collect();
            let cases = slice
                .iter()
                .zip(range.clone())
                .map(|(tc, i)| run_case(i, tc, &campaign, backends, t))
                .collect();
            let result = assemble(backends, cases, start);
            let batch = traced_reduce(&slice, range.start, &result, backends, &campaign, t);
            let mut shard_catalog = TriggerCatalog::new();
            t.span("corpus.merge", || {
                fold_into_catalog(&mut shard_catalog, &batch, campaign.seed, round)
            });
            let outcome = ShardOutcome {
                summary: ShardSummary {
                    round,
                    shard,
                    shards,
                    start: range.start,
                    end: range.end,
                    mutants: range.end - fresh.clamp(range.start, range.end),
                    racy: result.racy_programs.len(),
                    outlier_records: result.outlier_records().count(),
                    reduced: batch.reduced.len(),
                },
                catalog: shard_catalog,
                metrics: CounterSnapshot::default(),
            };
            programs += range.len();
            outliers += outcome.summary.outlier_records;
            let shard_bytes = ompfuzz_corpus::write_shard_file(&outcome, fingerprint).len();
            timed_write(t, shard_bytes, || ckpt.store_shard(&outcome, fingerprint))
                .map_err(|e| e.to_string())?;
            // Re-read the manifest before recording completion, as the
            // coordinator does for concurrent out-of-process shards.
            t.span("corpus.checkpoint_read", || ckpt.load_manifest(round))
                .map_err(|e| e.to_string())?;
            manifest.completed.insert(shard);
            timed_write(t, manifest.to_text().len(), || {
                ckpt.store_manifest(&manifest)
            })
            .map_err(|e| e.to_string())?;
            outcomes.push(outcome);
        }
        drop(kernels);

        let new_skeletons = t.span("corpus.merge", || {
            outcomes
                .into_iter()
                .map(|o| catalog.merge(o.catalog))
                .sum::<usize>()
        });
        t.count("corpus.new_skeletons", new_skeletons as f64);
        let catalog_bytes = catalog.save_to_string().len();
        timed_write(t, catalog_bytes, || {
            ckpt.store_round_catalog(round, &catalog)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok((catalog, programs, outliers))
}

/// `reduce_all_slice` re-driven one target at a time: every outlier record
/// of the shard campaign is reduced by its own `Reducer::reduce` call.
fn traced_reduce(
    slice: &[TestCase],
    offset: usize,
    result: &CampaignResult,
    backends: &[&dyn OmpBackend],
    campaign: &CampaignConfig,
    t: &Tracer,
) -> BatchReduction {
    let config = BatchConfig::for_campaign(campaign);
    let mut oracle_checks = 0;
    let reduced = result
        .records
        .iter()
        .filter(|r| r.outlier().is_some())
        .filter_map(|r| {
            let target = ReductionTarget::from_record_slice(slice, offset, r)?;
            let outcome = t.span("reduce", || {
                Reducer::new(backends, config.reduce.clone()).reduce(&target)
            });
            let accepted: usize = outcome.passes.iter().map(|p| p.accepted).sum();
            t.count("reduce.oracle_checks", outcome.oracle_checks as f64);
            t.count("reduce.accepted_edits", accepted as f64);
            t.count("reduce.shrink_pct_sum", outcome.shrink_percent());
            oracle_checks += outcome.oracle_checks;
            Some(ReducedOutlier {
                program_index: r.program_index,
                input_index: r.input_index,
                program_name: r.program_name.clone(),
                outcome,
            })
        })
        .collect();
    BatchReduction {
        reduced,
        oracle_checks,
    }
}

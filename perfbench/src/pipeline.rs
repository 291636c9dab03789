//! The per-program campaign unit, re-driven from the crates' public
//! functions with a span around each layer call.
//!
//! `ompfuzz_harness::run_campaign` fuses generation, compilation, the
//! §IV-E race filter, the differential runs and outlier analysis into one
//! worker closure. The traced run rebuilds that unit here, step for step,
//! so each layer can be timed from outside the crates; the campaign digest
//! of the re-drive must equal the untraced `run_campaign` digest, which
//! shows both did the same work.

use crate::common::Digest;
use crate::trace::Tracer;
use ompfuzz_ast::Program;
use ompfuzz_backends::{to_observation, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_exec::ExecScratch;
use ompfuzz_gen::ProgramGenerator;
use ompfuzz_harness::{detect_kernel_races, CampaignConfig, CampaignResult, RunRecord, TestCase};
use ompfuzz_inputs::InputGenerator;
use ompfuzz_outlier::{analyze, RunObservation, Tally};
use std::sync::Arc;
use std::time::Instant;

/// Digest of everything a campaign produced except its wall time.
pub fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.debug(&result.labels);
    for r in &result.records {
        d.debug(&(r.program_index, &r.program_name, r.input_index));
        d.debug(&r.observations);
        d.debug(&r.analysis);
    }
    d.debug(&result.racy_programs);
    d.debug(&(result.compile_failures, result.total_runs));
    d.debug(&result.tally);
    d.finish()
}

pub fn outlier_records(result: &CampaignResult) -> u64 {
    result.outlier_records().count() as u64
}

/// Program `index` of `cfg`'s corpus (the `gen` layer), exactly as
/// `ompfuzz_harness::generate_case` builds it.
pub fn gen_program(cfg: &CampaignConfig, index: usize, t: &Tracer) -> Program {
    let program = t.span("gen", || {
        let mut pg = ProgramGenerator::new(cfg.generator.clone(), cfg.seed);
        let mut program = pg.generate_indexed(index);
        program.seed = cfg.seed;
        program
    });
    t.count("gen.programs", 1.0);
    program
}

/// Inputs of slot `index` (the `inputs` layer), from the index's split
/// input stream.
pub fn gen_inputs(cfg: &CampaignConfig, program: Program, index: usize, t: &Tracer) -> TestCase {
    let inputs = t.span("inputs", || {
        let mut ig = InputGenerator::with_mix(cfg.seed + 1, cfg.generator.input_mix);
        ig.reseed_indexed(cfg.seed + 1, index);
        ig.generate_samples(&program, cfg.inputs_per_program)
    });
    t.count("inputs.samples", inputs.len() as f64);
    TestCase::new(program, inputs)
}

/// Outcome of one program's unit.
pub enum CaseOutcome {
    Racy(Arc<str>, Vec<ompfuzz_exec::RaceReport>),
    Ran {
        compile_failures: usize,
        records: Vec<RunRecord>,
    },
}

std::thread_local! {
    /// One scratch per client thread, reused across programs as the
    /// harness's worker threads do.
    static SCRATCH: std::cell::RefCell<ExecScratch> = std::cell::RefCell::new(ExecScratch::new());
}

/// Compile, race-filter, run on every backend and analyze one test case.
pub fn run_case(
    index: usize,
    tc: &TestCase,
    cfg: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    t: &Tracer,
) -> CaseOutcome {
    SCRATCH.with(|s| run_case_with(index, tc, cfg, backends, t, &mut s.borrow_mut()))
}

fn run_case_with(
    index: usize,
    tc: &TestCase,
    cfg: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    t: &Tracer,
    scratch: &mut ExecScratch,
) -> CaseOutcome {
    let prepared = t.span("exec.compile", || tc.prepared().ok());
    if let Some(p) = prepared {
        t.count("exec.kernels", 1.0);
        t.count("exec.instrs", p.plain().instr_count() as f64);
    }
    if cfg.filter_races {
        if let (Some(input), Some(p)) = (tc.inputs.first(), prepared) {
            let verdict = t.span("exec.race_filter", || {
                detect_kernel_races(p.plain(), input, cfg.run.max_ops, cfg.run.engine, scratch)
            });
            match verdict {
                None => t.count("exec.race_filter_no_verdict", 1.0),
                Some(reports) if !reports.is_empty() => {
                    t.count("exec.race_filter_hits", 1.0);
                    return CaseOutcome::Racy(Arc::from(tc.program.name.as_str()), reports);
                }
                Some(_) => {}
            }
        }
    }

    let compile_opts = CompileOptions {
        opt_level: cfg.opt_level,
    };
    let mut binaries = Vec::with_capacity(backends.len());
    let mut compile_failures = 0;
    for b in backends {
        match t.span("backends.compile", || {
            b.compile_lowered(&tc.program, prepared, &compile_opts)
        }) {
            Ok(bin) => binaries.push(bin),
            Err(_) => compile_failures += 1,
        }
    }
    t.count("backends.compiles", backends.len() as f64);
    t.count("backends.compile_failures", compile_failures as f64);
    if binaries.len() != backends.len() {
        return CaseOutcome::Ran {
            compile_failures,
            records: Vec::new(),
        };
    }

    let run_opts = RunOptions {
        detect_races: false,
        ..cfg.run
    };
    let mut per_input: Vec<Vec<RunObservation>> = (0..tc.inputs.len())
        .map(|_| Vec::with_capacity(binaries.len()))
        .collect();
    for bin in &binaries {
        let results = t.span("backends.run", || {
            bin.run_batch(&tc.inputs, &run_opts, scratch)
        });
        for (row, result) in per_input.iter_mut().zip(&results) {
            t.count("backends.runs", 1.0);
            t.count("backends.vm_ops", result.vm_ops() as f64);
            t.count(
                "backends.budget_aborts",
                f64::from(u8::from(result.is_budget_abort())),
            );
            row.push(to_observation(result));
        }
    }
    let program_name: Arc<str> = Arc::from(tc.program.name.as_str());
    let records = per_input
        .into_iter()
        .enumerate()
        .map(|(input_index, observations)| {
            let analysis = t.span("outlier", || analyze(&observations, &cfg.outlier));
            t.count("outlier.records", 1.0);
            if analysis.correctness.is_some() || analysis.performance.is_some() {
                t.count("outlier.outliers", 1.0);
            }
            if analysis.filtered {
                t.count("outlier.filtered", 1.0);
            }
            RunRecord {
                program_index: index,
                program_name: Arc::clone(&program_name),
                input_index,
                observations,
                analysis,
            }
        })
        .collect();
    CaseOutcome::Ran {
        compile_failures,
        records,
    }
}

/// Fold per-program outcomes (in corpus order) into a campaign result, as
/// the harness does.
pub fn assemble(
    backends: &[&dyn OmpBackend],
    outcomes: Vec<CaseOutcome>,
    start: Instant,
) -> CampaignResult {
    let labels: Vec<String> = backends
        .iter()
        .map(|b| b.info().vendor.label().to_string())
        .collect();
    let mut racy_programs = Vec::new();
    let mut records = Vec::new();
    let mut compile_failures = 0;
    for o in outcomes {
        match o {
            CaseOutcome::Racy(name, reports) => racy_programs.push((name, reports)),
            CaseOutcome::Ran {
                compile_failures: cf,
                records: r,
            } => {
                compile_failures += cf;
                records.extend(r);
            }
        }
    }
    let mut tally = Tally::new(labels.clone());
    for r in &records {
        tally.add(&r.analysis);
    }
    let total_runs = records.len() * backends.len();
    CampaignResult {
        labels,
        records,
        tally,
        racy_programs,
        compile_failures,
        wall_time: start.elapsed(),
        total_runs,
    }
}

/// `run_campaign(cfg, backends)` re-driven one program at a time with a
/// span around every layer call (single worker: the client thread).
pub fn traced_campaign(
    cfg: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    t: &Tracer,
) -> CampaignResult {
    let start = Instant::now();
    let outcomes = (0..cfg.programs)
        .map(|index| {
            let program = gen_program(cfg, index, t);
            let tc = gen_inputs(cfg, program, index, t);
            run_case(index, &tc, cfg, backends, t)
        })
        .collect();
    assemble(backends, outcomes, start)
}

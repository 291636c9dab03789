//! `perfbench`: the ompfuzz end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--ompfuzz PATH] [--tiny] [--corrupt-reference]
//! ```
//!
//! Each workload is a closed loop of `min(nproc, 2)` clients submitting
//! jobs (one `run_campaign`, one sharded evolution, or one daemon job)
//! until `--seconds` have passed. Set-up is repeated and its median
//! reported. After the timed loop, a seeded sample of jobs is recomputed
//! on a reference path and their digests compared. With `--trace 1` the
//! same jobs are re-driven with a span around every layer call, the
//! per-layer metrics are reported, and every traced digest must equal the
//! untraced one. The last stdout line is one JSON object; the exit code
//! is non-zero when any check failed.

mod campaign;
mod common;
mod evolve;
mod pipeline;
mod report;
mod serve;
mod trace;

use common::{closed_loop, median, peak_rss_mb, Budget, Workload};
use report::Report;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 5;

/// Scratch directory for checkpoints, the daemon's state and spans,
/// relative to the checkout root (Unix socket paths must stay short).
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt_reference: bool,
    ompfuzz: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_reference: false,
        ompfuzz: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects u64")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--ompfuzz" => args.ompfuzz = Some(PathBuf::from(value()?)),
            "--tiny" => args.tiny = true,
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn build(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "campaign_paper" => Box::new(campaign::CampaignWorkload::paper(args.seed, args.tiny)),
        "campaign_small" => Box::new(campaign::CampaignWorkload::small(args.seed, args.tiny)),
        "evolve_sharded" => Box::new(evolve::EvolveWorkload::new(
            args.seed,
            args.tiny,
            Path::new(WORK_DIR),
        )),
        "serve_jobs" => Box::new(serve::ServeWorkload::start(
            args.seed,
            args.tiny,
            Path::new(WORK_DIR),
            args.ompfuzz
                .clone()
                .ok_or("serve_jobs needs --ompfuzz <path to the built ompfuzz binary>")?,
        )?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Set up the workload `SETUP_REPS` times (building it, warming it up),
/// keeping the last instance. Returns it with the median set-up time.
fn set_up(args: &Args) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.teardown();
        }
        let started = Instant::now();
        let workload = build(args)?;
        workload.warm_up();
        times.push(started.elapsed().as_secs_f64());
        kept = Some(workload);
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let clients = common::clients();
    let (workload, setup_s) = set_up(args)?;
    let untraced = closed_loop(
        &*workload,
        clients,
        Budget::Time(Duration::from_secs_f64(args.seconds)),
        None,
    );
    let rss = peak_rss_mb();
    let mut report = Report::new(&args.workload, clients);
    report.end_to_end(setup_s, &untraced, rss);
    report.reference_checks(&*workload, &untraced, args.seed, args.corrupt_reference);
    let traced = args.trace.then(|| {
        let tracer = Tracer::new();
        let run = closed_loop(
            &*workload,
            clients,
            Budget::Jobs(untraced.jobs.len()),
            Some(&tracer),
        );
        (tracer, run)
    });
    workload.teardown();
    if let Some((tracer, run)) = traced {
        report.trace_checks(&untraced, &run);
        report.per_layer(&tracer, &untraced, &run, clients);
        let spans_out = Path::new(WORK_DIR)
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_sample(&spans_out)
            .map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;
        eprintln!("spans written to {}", spans_out.display());
    }
    Ok(report)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let ok = report.correct();
            report.print(args.trace);
            if ok {
                std::process::ExitCode::SUCCESS
            } else {
                std::process::ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

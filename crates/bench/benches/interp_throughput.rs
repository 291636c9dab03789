//! Substrate benchmark: interpreter throughput (the cost floor under every
//! simulated run; 1,800-run campaigns are only practical because this stays
//! in the tens of millions of operations per second).
//!
//! Benchmarks the tree-walk reference against the flat bytecode VM on a
//! single input (a batch of width 1) — with and without race detection —
//! and the same VM on a multi-input workload (the same program run on 8
//! inputs per pass, the shape the campaign's differential loop produces),
//! and writes the comparison to `BENCH_interp.json` at the repository
//! root (the `bytecode` entry is the single-input row). The run **fails**
//! if the bytecode engine is not faster than the tree baseline on the
//! plain `cs2_interpretation` workload, or if an 8-lane batch is not
//! faster than single-input runs on the multi-input workload — each
//! path's reason to exist is its floor.
//!
//! `OMPFUZZ_BENCH_QUICK=1` shortens the measurement phase for the CI smoke
//! step; the JSON records which mode produced it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ompfuzz_exec::{lower, CompiledKernel, ExecOptions, ExecScratch, Kernel};
use ompfuzz_harness::caselib;
use ompfuzz_inputs::{InputValue, TestInput};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ops/second of `routine` over one wall-clock window.
fn window_rate(ops_per_run: u64, window: Duration, routine: &mut dyn FnMut()) -> f64 {
    let mut iters: u64 = 0;
    let start = Instant::now();
    loop {
        routine();
        iters += 1;
        if iters >= 3 && start.elapsed() >= window {
            break;
        }
    }
    (ops_per_run * iters) as f64 / start.elapsed().as_secs_f64()
}

struct EngineRates {
    plain: f64,
    race: f64,
}

/// Best-of-K interleaved windows per configuration: rounds alternate
/// between every (engine × race-detection) routine so scheduler noise
/// and frequency drift hit every configuration alike, and the max strips
/// the windows a neighbour stole. Each routine carries its own ops-per-run
/// (the batched routines retire one full batch per call).
fn measure_rates(
    windows: usize,
    window: Duration,
    routines: &mut [(u64, &mut dyn FnMut())],
) -> Vec<f64> {
    let mut best = vec![0f64; routines.len()];
    for (_, r) in routines.iter_mut() {
        r(); // warm-up
    }
    for _ in 0..windows {
        for (slot, (ops, routine)) in best.iter_mut().zip(routines.iter_mut()) {
            *slot = slot.max(window_rate(*ops, window, *routine));
        }
    }
    best
}

fn write_json(
    path: &std::path::Path,
    mode: &str,
    ops: u64,
    lanes: u64,
    tree: &EngineRates,
    byte: &EngineRates,
    batch: &EngineRates,
) {
    let json = format!(
        "{{\n  \"bench\": \"interp_throughput\",\n  \"workload\": \"cs2_interpretation\",\n  \
         \"mode\": \"{mode}\",\n  \"ops_per_run\": {ops},\n  \"engines\": {{\n    \
         \"tree\": {{ \"ops_per_sec\": {:.0}, \"ops_per_sec_with_races\": {:.0} }},\n    \
         \"bytecode\": {{ \"ops_per_sec\": {:.0}, \"ops_per_sec_with_races\": {:.0} }},\n    \
         \"batch\": {{ \"lanes\": {lanes}, \"ops_per_sec\": {:.0}, \
         \"ops_per_sec_with_races\": {:.0} }}\n  }},\n  \
         \"speedup\": {{ \"plain\": {:.2}, \"with_races\": {:.2}, \
         \"batch_vs_bytecode\": {:.2}, \"batch_vs_bytecode_with_races\": {:.2} }}\n}}\n",
        tree.plain,
        tree.race,
        byte.plain,
        byte.race,
        batch.plain,
        batch.race,
        byte.plain / tree.plain,
        byte.race / tree.race,
        batch.plain / byte.plain,
        batch.race / byte.race,
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn bench_interp(c: &mut Criterion) {
    let program = caselib::case_study_2(50, 400, 8);
    let input = caselib::case_study_input(&program);
    let kernel = lower(&program).unwrap();
    let compiled = CompiledKernel::compile(kernel.clone());
    let opts = ExecOptions::default();
    let ropts = ExecOptions::with_race_detection();
    let out = ompfuzz_exec::interp::run(&kernel, &input, &opts).unwrap();
    let ops = out.stats.ops.total();
    println!(
        "\ninterpreter workload: {} ops, {} loop iterations, {} region entries, {} instrs flat",
        ops,
        out.stats.loop_iterations,
        out.stats.total_region_entries(),
        compiled.instr_count(),
    );

    // The multi-input workload: the same program on 8 perturbed inputs,
    // the shape one test case produces under the campaign's differential
    // loop. cs2's control flow is input-independent, so all 8 lanes stay
    // active for the whole batched pass and each retires `ops` operations.
    let inputs: Vec<TestInput> = (0..8)
        .map(|lane| {
            let mut lane_input = input.clone();
            lane_input.comp_init = 0.03125 * lane as f64;
            for v in &mut lane_input.values {
                match v {
                    InputValue::Fp(x) => *x += 0.0625 * lane as f64,
                    InputValue::ArrayFill(x) => *x += 0.03125 * lane as f64,
                    InputValue::Int(_) => {}
                }
            }
            lane_input
        })
        .collect();
    let lanes = inputs.len() as u64;
    let scratch = RefCell::new(ExecScratch::new());

    // Engine comparison, written to BENCH_interp.json and gated: the VM
    // must beat the tree walk on the plain workload, and 8-lane batches
    // must beat single-input runs on the multi-input workload.
    let quick = std::env::var_os("OMPFUZZ_BENCH_QUICK").is_some();
    let (mode, windows, window) = if quick {
        ("quick", 4, Duration::from_millis(120))
    } else {
        ("full", 8, Duration::from_millis(250))
    };
    let tree_run = |o: &ExecOptions| {
        let _ = black_box(ompfuzz_exec::interp::run(
            black_box(&kernel),
            black_box(&input),
            o,
        ));
    };
    let vm_run = |o: &ExecOptions| {
        let _ = black_box(ompfuzz_exec::vm::run(
            black_box(&compiled),
            black_box(&input),
            o,
            &mut scratch.borrow_mut(),
        ));
    };
    let batch_run = |o: &ExecOptions| {
        let _ = black_box(ompfuzz_exec::vm::run_batch(
            black_box(&compiled),
            black_box(&inputs),
            o,
            &mut scratch.borrow_mut(),
        ));
    };
    let rates = measure_rates(
        windows,
        window,
        &mut [
            (ops, &mut || tree_run(&opts)),
            (ops, &mut || tree_run(&ropts)),
            (ops, &mut || vm_run(&opts)),
            (ops, &mut || vm_run(&ropts)),
            (ops * lanes, &mut || batch_run(&opts)),
            (ops * lanes, &mut || batch_run(&ropts)),
        ],
    );
    let tree = EngineRates {
        plain: rates[0],
        race: rates[1],
    };
    let byte = EngineRates {
        plain: rates[2],
        race: rates[3],
    };
    let batch = EngineRates {
        plain: rates[4],
        race: rates[5],
    };
    println!(
        "cs2_interpretation: tree {:.1} Mops/s, bytecode {:.1} Mops/s ({:.2}x), \
         batch x{lanes} {:.1} Mops/s ({:.2}x over bytecode); with races: tree {:.1} Mops/s, \
         bytecode {:.1} Mops/s ({:.2}x), batch x{lanes} {:.1} Mops/s ({:.2}x over bytecode)",
        tree.plain / 1e6,
        byte.plain / 1e6,
        byte.plain / tree.plain,
        batch.plain / 1e6,
        batch.plain / byte.plain,
        tree.race / 1e6,
        byte.race / 1e6,
        byte.race / tree.race,
        batch.race / 1e6,
        batch.race / byte.race,
    );
    let json_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interp.json");
    write_json(&json_path, mode, ops, lanes, &tree, &byte, &batch);
    assert!(
        byte.plain > tree.plain,
        "bytecode engine ({:.1} Mops/s) is not faster than the tree baseline ({:.1} Mops/s) \
         on cs2_interpretation",
        byte.plain / 1e6,
        tree.plain / 1e6,
    );
    assert!(
        batch.plain > byte.plain,
        "batched engine ({:.1} Mops/s) is not faster than single-input bytecode \
         ({:.1} Mops/s) on the {lanes}-input cs2 workload",
        batch.plain / 1e6,
        byte.plain / 1e6,
    );

    let mut group = c.benchmark_group("interp_throughput");
    if quick {
        group.measurement_time(Duration::from_millis(100));
    }
    group.throughput(Throughput::Elements(ops));
    group.bench_function("cs2_interpretation", |b| {
        b.iter(|| {
            black_box(ompfuzz_exec::vm::run(
                black_box(&compiled),
                black_box(&input),
                &opts,
                &mut scratch.borrow_mut(),
            ))
        })
    });
    group.bench_function("cs2_tree_walk", |b| {
        b.iter(|| {
            black_box(ompfuzz_exec::interp::run(
                black_box(&kernel),
                black_box(&input),
                &opts,
            ))
        })
    });
    group.bench_function("cs2_with_race_detection", |b| {
        b.iter(|| {
            black_box(ompfuzz_exec::vm::run(
                black_box(&compiled),
                black_box(&input),
                &ropts,
                &mut scratch.borrow_mut(),
            ))
        })
    });
    group.throughput(Throughput::Elements(ops * lanes));
    group.bench_function("cs2_batched_x8", |b| {
        b.iter(|| {
            black_box(ompfuzz_exec::vm::run_batch(
                black_box(&compiled),
                black_box(&inputs),
                &opts,
                &mut scratch.borrow_mut(),
            ))
        })
    });
    group.bench_function("cs2_batched_x8_with_race_detection", |b| {
        b.iter(|| {
            black_box(ompfuzz_exec::vm::run_batch(
                black_box(&compiled),
                black_box(&inputs),
                &ropts,
                &mut scratch.borrow_mut(),
            ))
        })
    });
    group.throughput(Throughput::Elements(ops));
    group.bench_function("cs2_tree_walk_with_race_detection", |b| {
        b.iter(|| {
            black_box(ompfuzz_exec::interp::run(
                black_box(&kernel),
                black_box(&input),
                &ropts,
            ))
        })
    });
    group.bench_function("lowering", |b| {
        b.iter(|| black_box(lower(black_box(&program))))
    });
    group.bench_function("bytecode_compile", |b| {
        b.iter(|| black_box(CompiledKernel::compile(black_box::<Kernel>(kernel.clone()))))
    });
    group.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);

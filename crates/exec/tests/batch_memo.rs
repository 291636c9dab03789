//! The [`ExecScratch`] batch memo: replayed outcomes are bit-identical to
//! the runs that produced them, and the cache never matches across a
//! change of kernel, input bits, or execution options — the exact
//! guarantees the simulated vendor binaries rely on when they share one
//! compiled kernel across differential runs.

use ompfuzz_exec::{lower, BoolSemantics, CompiledKernel, ExecOptions, ExecScratch};
use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
use ompfuzz_inputs::{InputGenerator, InputValue, TestInput};
use std::sync::Arc;

fn compiled(seed: u64, width: usize) -> (Arc<CompiledKernel>, Vec<TestInput>) {
    let mut pg = ProgramGenerator::new(GeneratorConfig::small(), seed);
    let program = pg.generate("batch-memo");
    let inputs = (0..width)
        .map(|lane| {
            InputGenerator::new(seed.wrapping_add(lane as u64 * 7919)).generate_for(&program)
        })
        .collect();
    let kernel = lower(&program).expect("lowerable");
    (Arc::new(CompiledKernel::compile(kernel)), inputs)
}

fn run_all(
    code: &Arc<CompiledKernel>,
    inputs: &[TestInput],
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Vec<Result<ompfuzz_exec::ExecOutcome, ompfuzz_exec::ExecError>> {
    inputs
        .iter()
        .map(|input| code.run(input, opts, scratch))
        .collect()
}

#[test]
fn memo_hit_replays_bit_identical_outcomes() {
    let (code, inputs) = compiled(11, 4);
    let opts = ExecOptions::with_race_detection();
    let mut scratch = ExecScratch::new();
    assert!(
        scratch.memoized_batch(&code, &inputs, &opts).is_none(),
        "fresh scratch must not report a memo hit"
    );
    let outcomes = run_all(&code, &inputs, &opts, &mut scratch);
    scratch.memoize_batch(&code, &inputs, &opts, &outcomes);
    let replayed = scratch
        .memoized_batch(&code, &inputs, &opts)
        .expect("identical triple must hit");
    assert_eq!(replayed.len(), outcomes.len());
    for (run, replay) in outcomes.iter().zip(&replayed) {
        match (run, replay) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.comp.to_bits(), b.comp.to_bits());
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.races, b.races);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("replay changed outcome kind: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn memo_misses_on_any_key_change() {
    let (code, inputs) = compiled(12, 3);
    let (other_code, _) = compiled(13, 3);
    let opts = ExecOptions::default();
    let mut scratch = ExecScratch::new();
    let outcomes = run_all(&code, &inputs, &opts, &mut scratch);
    scratch.memoize_batch(&code, &inputs, &opts, &outcomes);

    // Different kernel (even one producing the same shapes): miss.
    assert!(scratch
        .memoized_batch(&other_code, &inputs, &opts)
        .is_none());

    // Different semantics — the GCC-like NaN-absorbing branch mode: miss.
    let gcc_opts = ExecOptions {
        bool_semantics: BoolSemantics::NanAbsorbing,
        ..opts
    };
    assert!(scratch.memoized_batch(&code, &inputs, &gcc_opts).is_none());

    // Race detection toggled: miss.
    let race_opts = ExecOptions {
        detect_races: true,
        ..opts
    };
    assert!(scratch.memoized_batch(&code, &inputs, &race_opts).is_none());

    // A single perturbed input bit: miss.
    let mut nudged = inputs.clone();
    nudged[0].comp_init = f64::from_bits(nudged[0].comp_init.to_bits() ^ 1);
    assert!(scratch.memoized_batch(&code, &nudged, &opts).is_none());

    // A shorter batch of the same inputs: miss.
    assert!(scratch.memoized_batch(&code, &inputs[..2], &opts).is_none());

    // The original triple still hits after all those probes.
    assert!(scratch.memoized_batch(&code, &inputs, &opts).is_some());
}

#[test]
fn memo_treats_equal_nan_payloads_as_equal() {
    let (code, mut inputs) = compiled(14, 2);
    if let Some(InputValue::Fp(x)) = inputs[0].values.iter_mut().next() {
        *x = f64::NAN;
    }
    inputs[1].comp_init = f64::NAN;
    let opts = ExecOptions::default();
    let mut scratch = ExecScratch::new();
    let outcomes = run_all(&code, &inputs, &opts, &mut scratch);
    scratch.memoize_batch(&code, &inputs, &opts, &outcomes);
    // NaN != NaN under IEEE comparison, but the memo compares input
    // *bits*, so a bit-identical NaN-carrying batch still hits.
    assert!(scratch.memoized_batch(&code, &inputs, &opts).is_some());
}

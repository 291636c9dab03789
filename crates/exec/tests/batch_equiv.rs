//! Differential property suite: lane-batched execution is *bit-identical*
//! to running every input alone through the tree interpreter, the
//! reference semantics.
//!
//! [`vm::run_batch`] fetches each instruction once and applies it across
//! all lanes, demoting lanes that diverge at a branch or a slot-bound loop
//! to a width-1 re-run. That is only sound if nothing observable changes,
//! so these properties pin, over random `(program, input-batch, options)`
//! triples with batch widths 1..16:
//!
//! * every lane's `ExecOutcome` equals the tree run on that input —
//!   `comp` compared by `to_bits` (NaN-aware), the full `ExecStats`
//!   (including per-lane NaN/Inf production counts), and the race reports
//!   with race detection enabled;
//! * identical failure behaviour — a tiny op budget exhausts mid-batch on
//!   exactly the lanes where the tree runs exhaust it;
//! * identity under the modelled GCC NaN-absorbing branch semantics and
//!   the constant-folded `-O1`+ form, where divergence (and thus lane
//!   demotion) is most frequent.

use ompfuzz_exec::{
    interp, lower, vm, BoolSemantics, CompiledKernel, ExecError, ExecLimits, ExecOptions,
    ExecOutcome, ExecScratch,
};
use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
use ompfuzz_inputs::{InputGenerator, TestInput};
use proptest::prelude::*;

/// Generate the `seed`-th random program and a batch of `width` inputs.
///
/// Input seeds are spread out so lanes disagree at branches often,
/// exercising the consensus/demotion path rather than only the uniform
/// fast path.
fn generate(seed: u64, input_seed: u64, width: usize) -> (ompfuzz_ast::Program, Vec<TestInput>) {
    // Alternate configs so both size envelopes are exercised.
    let cfg = if seed.is_multiple_of(2) {
        GeneratorConfig::small()
    } else {
        GeneratorConfig::paper()
    };
    let mut pg = ProgramGenerator::new(cfg, seed);
    let program = pg.generate("batch-equiv");
    let inputs = (0..width)
        .map(|lane| {
            InputGenerator::new(input_seed.wrapping_add(lane as u64 * 7919)).generate_for(&program)
        })
        .collect();
    (program, inputs)
}

fn assert_lane_identical(
    tree: &Result<ExecOutcome, ExecError>,
    batched: &Result<ExecOutcome, ExecError>,
) -> Result<(), String> {
    match (tree, batched) {
        (Ok(s), Ok(b)) => {
            if s.comp.to_bits() != b.comp.to_bits() {
                return Err(format!(
                    "comp diverged: tree {} vs batched {}",
                    s.comp, b.comp
                ));
            }
            if s.stats != b.stats {
                return Err(format!(
                    "stats diverged:\n tree: {:?}\n batched: {:?}",
                    s.stats, b.stats
                ));
            }
            if s.races != b.races {
                return Err(format!(
                    "races diverged:\n tree: {:?}\n batched: {:?}",
                    s.races, b.races
                ));
            }
            Ok(())
        }
        (Err(se), Err(be)) => {
            if se != be {
                return Err(format!("errors diverged: tree {se:?} vs batched {be:?}"));
            }
            Ok(())
        }
        (s, b) => Err(format!(
            "status diverged: tree {:?} vs batched {:?}",
            s.as_ref().map(|o| o.comp),
            b.as_ref().map(|o| o.comp)
        )),
    }
}

/// Run the batch through [`vm::run_batch`] and every input through the
/// tree interpreter, and require each lane to match bit-for-bit.
fn check_batch(
    program: &ompfuzz_ast::Program,
    inputs: &[TestInput],
    opts: &ExecOptions,
    folded: bool,
) -> Result<(), String> {
    let kernel = lower(program).map_err(|e| e.to_string())?;
    let ck = if folded {
        CompiledKernel::compile_folded(kernel)
    } else {
        CompiledKernel::compile(kernel)
    };
    let batched = vm::run_batch(&ck, inputs, opts, &mut ExecScratch::new());
    if batched.len() != inputs.len() {
        return Err(format!(
            "lane count diverged: {} inputs, {} outcomes",
            inputs.len(),
            batched.len()
        ));
    }
    for (lane, (input, b)) in inputs.iter().zip(&batched).enumerate() {
        // The tree interprets the same (possibly folded) kernel the
        // bytecode was flattened from.
        let tree = interp::run(&ck.kernel, input, opts);
        assert_lane_identical(&tree, b).map_err(|msg| format!("lane {lane}: {msg}"))?;
    }
    Ok(())
}

proptest! {
    /// Random programs and input batches produce bit-identical per-lane
    /// outcomes — status, result bits, statistics, and race reports — with
    /// race detection on, for both the plain and the constant-folded
    /// compilation.
    #[test]
    fn random_batches_match_scalar_lanes(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        width in 1usize..16,
    ) {
        let (program, inputs) = generate(seed, input_seed, width);
        let opts = ExecOptions {
            detect_races: true,
            limits: ExecLimits { max_ops: 2_000_000 },
            ..ExecOptions::default()
        };
        if let Err(msg) = check_batch(&program, &inputs, &opts, false) {
            prop_assert!(false, "{} (plain, seed {seed}/{input_seed}, width {width})", msg);
        }
        if let Err(msg) = check_batch(&program, &inputs, &opts, true) {
            prop_assert!(false, "{} (folded, seed {seed}/{input_seed}, width {width})", msg);
        }
    }

    /// Tiny op budgets exhaust mid-batch: each lane fails or completes
    /// exactly as its tree run does, even when exhaustion strikes while
    /// other lanes in the batch would still have budget to spend.
    #[test]
    fn mid_batch_budget_exhaustion_is_lane_exact(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        width in 2usize..16,
        budget in 1u64..20_000,
    ) {
        let (program, inputs) = generate(seed, input_seed, width);
        let opts = ExecOptions {
            limits: ExecLimits { max_ops: budget },
            ..ExecOptions::default()
        };
        if let Err(msg) = check_batch(&program, &inputs, &opts, false) {
            prop_assert!(
                false,
                "{} (budget {budget}, seed {seed}/{input_seed}, width {width})",
                msg
            );
        }
    }

    /// The modelled GCC NaN-absorbing branch semantics — where NaN flips
    /// comparisons and lanes that produced NaN diverge from lanes that
    /// did not — match the tree interpreter lane-for-lane on the folded form.
    #[test]
    fn nan_absorbing_batches_match_scalar_lanes(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        width in 2usize..16,
    ) {
        let (program, inputs) = generate(seed, input_seed, width);
        let opts = ExecOptions {
            bool_semantics: BoolSemantics::NanAbsorbing,
            limits: ExecLimits { max_ops: 2_000_000 },
            ..ExecOptions::default()
        };
        if let Err(msg) = check_batch(&program, &inputs, &opts, true) {
            prop_assert!(
                false,
                "{} (nan-absorbing, seed {seed}/{input_seed}, width {width})",
                msg
            );
        }
    }
}

/// Non-random pin: full-width batches on a spread of branchy generated
/// programs, where widely-spaced input seeds make lanes disagree at
/// `BoolTest` consensus checks and take the demote-and-rerun path, stay
/// lane-exact with race detection on.
#[test]
fn wide_batches_survive_divergent_branches() {
    for (seed, input_seed) in [(1u64, 0u64), (2, 41), (7, 123), (12, 9000), (33, 77)] {
        let (program, inputs) = generate(seed, input_seed, 16);
        let opts = ExecOptions {
            detect_races: true,
            limits: ExecLimits { max_ops: 2_000_000 },
            ..ExecOptions::default()
        };
        check_batch(&program, &inputs, &opts, false)
            .unwrap_or_else(|msg| panic!("{msg} (seed {seed}/{input_seed})"));
        check_batch(&program, &inputs, &opts, true)
            .unwrap_or_else(|msg| panic!("{msg} (folded, seed {seed}/{input_seed})"));
    }
}

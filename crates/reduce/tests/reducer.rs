//! Reducer behaviour on the crafted case-study kernels and on
//! campaign-derived outliers: oracle preservation, worker-count
//! determinism (results and check/memo counts), verdict-memo key
//! precision, idempotence, and the ddmin non-empty guarantee.

use ompfuzz_ast::rewrite;
use ompfuzz_backends::{oracle, standard_backends, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_exec::ExecScratch;
use ompfuzz_harness::{caselib, generate_corpus, run_campaign_on, CampaignConfig};
use ompfuzz_inputs::InputValue;
use ompfuzz_obs::Obs;
use ompfuzz_outlier::{analyze, OutlierConfig, OutlierKind};
use ompfuzz_reduce::{memo_key, ReduceConfig, Reducer, ReductionOutcome, ReductionTarget, Verdict};
use std::time::Instant;

fn dyns(backends: &[ompfuzz_backends::SimBackend]) -> Vec<&dyn OmpBackend> {
    backends.iter().map(|b| b as &dyn OmpBackend).collect()
}

/// Case study 3 hangs the Intel-like implementation (backend index 0 in
/// `standard_backends` order).
fn hang_target() -> ReductionTarget {
    let program = caselib::case_study_3(6000, 32);
    let input = caselib::case_study_input(&program);
    ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0))
}

fn reduce_with_workers(target: &ReductionTarget, workers: usize) -> ReductionOutcome {
    let backends = standard_backends();
    let dyns = dyns(&backends);
    let config = ReduceConfig {
        workers,
        ..ReduceConfig::default()
    };
    Reducer::new(&dyns, config).reduce(target)
}

#[test]
fn oracle_is_preserved_by_reduction() {
    let target = hang_target();
    let out = reduce_with_workers(&target, 4);
    assert!(out.reduced_stmts < out.original_stmts, "{out:?}");
    // The entry check and the memo-bypassing exit check both ran.
    assert!(out.oracle_checks >= 2, "{out:?}");

    // Independent re-check: run the reduced program through the
    // differential pipeline from scratch and re-derive the verdict.
    let backends = standard_backends();
    let observations = oracle::observe(
        &out.reduced,
        &out.input,
        &dyns(&backends),
        None,
        &CompileOptions::default(),
        &RunOptions {
            max_ops: 40_000_000,
            ..RunOptions::default()
        },
        &mut ExecScratch::new(),
        &Obs::off(),
    )
    .expect("reduced program compiles everywhere");
    let verdict = analyze(&observations, &OutlierConfig::default()).primary_outlier();
    assert_eq!(verdict, Some((OutlierKind::Hang, 0)));
}

/// The first outlier of each of three small seeded campaigns, with the
/// oracle settings those campaigns share. The configuration is the
/// evolution smoke campaign's (small generator, time-filter floor dropped
/// so microsecond-scale programs reach outlier analysis); the seeds were
/// picked by scanning for campaigns that produce an outlier.
fn campaign_targets() -> (CampaignConfig, Vec<ReductionTarget>) {
    let backends = standard_backends();
    let mut cfg = CampaignConfig {
        programs: 60,
        ..CampaignConfig::small()
    };
    cfg.outlier.min_time_us = 10.0;
    let targets = [6, 20, 24]
        .into_iter()
        .map(|seed| {
            cfg.seed = seed;
            let corpus = generate_corpus(&cfg);
            let result = run_campaign_on(&cfg, &dyns(&backends), &corpus, Instant::now());
            let record = result.records.iter().find(|r| r.outlier().is_some());
            ReductionTarget::from_record(&corpus, record.expect("seeded campaign has an outlier"))
                .expect("outlier record resolves")
        })
        .collect();
    (cfg, targets)
}

fn assert_same_reduction(a: &ReductionOutcome, b: &ReductionOutcome) {
    assert_eq!(a.reduced, b.reduced);
    assert_eq!(a.input, b.input);
    assert_eq!(a.oracle_checks, b.oracle_checks);
    assert_eq!(a.memo_hits, b.memo_hits);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.passes, b.passes);
}

#[test]
fn reduction_is_deterministic_across_worker_counts() {
    let target = hang_target();
    let a = reduce_with_workers(&target, 1);
    for workers in [4, 8] {
        assert_same_reduction(&a, &reduce_with_workers(&target, workers));
    }

    let (cfg, targets) = campaign_targets();
    let backends = standard_backends();
    let dyns = dyns(&backends);
    for target in &targets {
        let reduce = |workers| {
            let config = ReduceConfig {
                workers,
                ..ReduceConfig::for_campaign(&cfg)
            };
            Reducer::new(&dyns, config).reduce(target)
        };
        let serial = reduce(1);
        // A reproducing target always pays the entry and the exit check.
        assert!(serial.oracle_checks >= 2, "{serial:?}");
        for workers in [4, 8] {
            assert_same_reduction(&serial, &reduce(workers));
        }
    }
}

#[test]
fn memo_keys_keep_signed_zeros_and_nan_payloads_apart() {
    use ompfuzz_ast::{
        AssignOp, Assignment, BinOp, Block, BlockItem, Expr, FpType, LValue, Param, Program, Stmt,
    };
    let program = caselib::case_study_3(6000, 32);
    let input = caselib::case_study_input(&program);
    assert_eq!(
        memo_key(&program, &input),
        memo_key(&program.clone(), &input.clone())
    );

    let quiet_nan = f64::NAN;
    let payload_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let pairs = [(0.0, -0.0), (quiet_nan, payload_nan)];

    // Each pair differs in a program constant: `comp += var_1 * x;`.
    let with_const = |x: f64| {
        let stmt = Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::AddAssign,
            value: Expr::binary(Expr::var("var_1"), BinOp::Mul, Expr::fp_const(x)),
        });
        Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block(vec![BlockItem::Stmt(stmt)]),
        )
    };
    for (a, b) in pairs {
        let (pa, pb) = (with_const(a), with_const(b));
        if a == b {
            // `PartialEq` conflates them; the memo key must not.
            assert_eq!(pa, pb);
        }
        assert_ne!(memo_key(&pa, &input), memo_key(&pb, &input));
    }

    // ... in a floating-point input value (scalar or array fill), and in
    // the initial `comp`.
    for (a, b) in pairs {
        for wrap in [InputValue::Fp, InputValue::ArrayFill] {
            let with_value = |x: f64| {
                let mut i = input.clone();
                i.values.push(wrap(x));
                i
            };
            let (ia, ib) = (with_value(a), with_value(b));
            assert_ne!(memo_key(&program, &ia), memo_key(&program, &ib));
        }
        let with_comp = |x: f64| {
            let mut i = input.clone();
            i.comp_init = x;
            i
        };
        assert_ne!(
            memo_key(&program, &with_comp(a)),
            memo_key(&program, &with_comp(b))
        );
    }
}

#[test]
fn reduction_is_idempotent() {
    let target = hang_target();
    let once = reduce_with_workers(&target, 4);
    let again = reduce_with_workers(
        &ReductionTarget::new(once.reduced.clone(), once.input.clone(), once.verdict),
        4,
    );
    assert_eq!(again.reduced, once.reduced);
    assert_eq!(again.input, once.input);
    assert_eq!(again.reduced_stmts, once.reduced_stmts);
    assert_eq!(
        again.passes.iter().map(|p| p.accepted).sum::<usize>(),
        0,
        "re-reducing a fixpoint accepted edits: {:?}",
        again.passes
    );
    // A fixpoint is recognized in a single round.
    assert_eq!(again.rounds, 1);
}

#[test]
fn ddmin_never_returns_an_empty_program_body() {
    // The hang verdict survives deleting *everything except* the
    // region/loop/critical spine, so ddmin is pushed as far as it can go —
    // the body must still never become empty.
    let out = reduce_with_workers(&hang_target(), 4);
    assert!(!out.reduced.body.is_empty());
    assert!(out.reduced_stmts >= 1);

    // And an already-minimal kernel passes through unchanged.
    let minimal = reduce_with_workers(
        &ReductionTarget::new(out.reduced.clone(), out.input.clone(), out.verdict),
        4,
    );
    assert_eq!(minimal.reduced, out.reduced);
    assert!(!minimal.reduced.body.is_empty());
}

#[test]
fn reduced_kernel_is_the_contention_trigger() {
    let out = reduce_with_workers(&hang_target(), 4);
    // The minimal hang kernel is case study 3's spine: a parallel region
    // whose (serial) loop hammers a critical section. The comp update and
    // the prelude are not needed for the queuing-lock pressure, so the
    // reducer strips them too.
    let mut expected = caselib::case_study_3(6000, 32);
    // Delete the prelude declaration (site 1), the array-accumulate
    // statement (site 2) and the comp update inside the critical (site 4).
    expected = rewrite::delete_stmts(&expected, &[1, 2, 4].into_iter().collect());
    assert_eq!(
        rewrite::skeleton(&out.reduced),
        rewrite::skeleton(&expected)
    );
    assert_eq!(rewrite::skeleton(&out.reduced), "par{for{crit{}}}");
}

#[test]
fn witness_that_already_races_still_reduces() {
    use ompfuzz_ast::{AssignOp, Assignment, BlockItem, Expr, FpType, LValue, Param, Stmt, VarRef};
    // The campaign's race filter only samples each program's *first* input,
    // so an outlier can reach the reducer while racing on its pinned input.
    // The race gate must not reject the unmodified witness (silent no-op);
    // it only guards against *introducing* races.
    let mut program = caselib::case_study_3(6000, 32);
    program.params.push(Param::fp(FpType::F64, "var_9"));
    if let BlockItem::Stmt(Stmt::OmpParallel(par)) = &mut program.body.0[0] {
        // Unprotected shared-scalar write: every thread races on var_9.
        par.body_loop.body.0.insert(
            0,
            BlockItem::Stmt(Stmt::Assign(Assignment {
                target: LValue::Var(VarRef::Scalar("var_9".into())),
                op: AssignOp::AddAssign,
                value: Expr::fp_const(1.0),
            })),
        );
    }
    let input = caselib::case_study_input(&program);

    // Confirm the premise: the witness itself races on this input.
    let kernel = ompfuzz_exec::lower(&program).unwrap();
    let outcome = ompfuzz_exec::run(
        &kernel,
        &input,
        &ompfuzz_exec::ExecOptions::with_race_detection(),
    )
    .unwrap();
    assert!(!outcome.races.is_empty(), "premise: witness must race");

    let target = ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0));
    let out = reduce_with_workers(&target, 4);
    assert!(
        out.reduced_stmts < out.original_stmts,
        "racy witness must still reduce, got {} -> {} stmts",
        out.original_stmts,
        out.reduced_stmts
    );
}

#[test]
fn stale_verdict_returns_the_program_unmodified() {
    let program = caselib::case_study_3(6000, 32);
    let input = caselib::case_study_input(&program);
    // Claim a GCC crash that this program does not exhibit.
    let target = ReductionTarget::new(program.clone(), input, Verdict::new(OutlierKind::Crash, 2));
    let out = reduce_with_workers(&target, 4);
    assert_eq!(out.reduced, program);
    assert_eq!(out.oracle_checks, 1);
    assert_eq!(out.memo_hits, 0);
    assert_eq!(out.rounds, 0);
}

#[test]
fn clause_stripping_respects_the_trigger() {
    let out = reduce_with_workers(&hang_target(), 4);
    let region_clauses = {
        let mut found = None;
        for item in out.reduced.body.iter() {
            if let ompfuzz_ast::BlockItem::Stmt(ompfuzz_ast::Stmt::OmpParallel(par)) = item {
                found = Some(par.clauses.clone());
            }
        }
        found.expect("reduced kernel keeps its parallel region")
    };
    // num_threads(32) is load-bearing — one thread cannot generate the
    // queuing-lock pressure — while the firstprivate clause is not.
    assert_eq!(region_clauses.num_threads, Some(32));
    assert!(region_clauses.firstprivate.is_empty());
    assert!(region_clauses.private.is_empty());
}

#[test]
fn candidate_check_counter_matches_oracle_checks() {
    use ompfuzz_obs::Counter;
    let backends = standard_backends();
    let dyns = dyns(&backends);
    // Wide waves evaluate speculatively past the accepted candidate; those
    // runs must not reach the counter either.
    for workers in [1, 8] {
        let obs = Obs::metrics_only();
        let config = ReduceConfig {
            workers,
            ..ReduceConfig::default()
        };
        let out = Reducer::new(&dyns, config)
            .observed(obs.clone())
            .reduce(&hang_target());
        assert_eq!(
            obs.counters().get(Counter::ReducerCandidateChecks),
            out.oracle_checks as u64
        );
    }
}

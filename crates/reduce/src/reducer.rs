//! The fixpoint reduction loop and its parallel oracle.
//!
//! Every pass enumerates candidate edits against the *current* program and
//! accepts the lowest-index candidate whose oracle check still reproduces
//! the target verdict. Candidates are judged in index order, in waves of
//! `workers` (one at a time single-worker), and the search stops after the
//! first wave that holds a reproducing candidate: its lowest-index success
//! is exactly the candidate a full-batch evaluation would accept.
//!
//! Each reduction also keeps a verdict memo keyed on a candidate's exact
//! `(program, input)` s-expression bytes (bit-exact floats), so a candidate
//! judged earlier in the same reduction — typically in the final confirming
//! fixpoint round — is never re-run. The memo dies with the reduction.
//!
//! `oracle_checks` counts the oracle runs the *serial* order performs: the
//! entry check, the exit check, and memo misses up to and including each
//! accepted candidate. Speculative evaluations a wider wave runs past the
//! accepted index are neither counted nor memoized, so the reduced program
//! and every reported count are identical for every worker count.

use crate::target::{ReductionTarget, Verdict};
use ompfuzz_ast::rewrite::{self, ClauseEdit, ExprSide};
use ompfuzz_ast::Program;
use ompfuzz_backends::{oracle, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_exec::{ExecScratch, PreparedKernel};
use ompfuzz_harness::{pool, CampaignConfig};
use ompfuzz_inputs::TestInput;
use ompfuzz_obs::{Counter, Obs};
use ompfuzz_outlier::{analyze, OutlierConfig};
use std::collections::{BTreeSet, HashMap};

/// Reduction tuning. The oracle options must match the campaign that
/// produced the target verdict, otherwise the verdict may not reproduce on
/// the *unmodified* program ([`ReduceConfig::for_campaign`] copies them).
#[derive(Debug, Clone)]
pub struct ReduceConfig {
    /// Worker threads for candidate checks (0 = available parallelism).
    pub workers: usize,
    /// Cap on full fixpoint rounds (each round runs every pass once).
    pub max_rounds: usize,
    /// Compile options for oracle checks.
    pub compile: CompileOptions,
    /// Run options for oracle checks.
    pub run: RunOptions,
    /// Outlier thresholds for oracle checks.
    pub outlier: OutlierConfig,
    /// Reject candidates that introduce data races (mirrors the campaign's
    /// §IV-E pre-analysis filter). Without this, an edit such as dropping a
    /// `private` clause could keep the verdict while turning the "minimal"
    /// kernel into a racy program the campaign itself would have excluded.
    pub filter_races: bool,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig {
            workers: 0,
            max_rounds: 8,
            compile: CompileOptions::default(),
            run: RunOptions {
                max_ops: 40_000_000,
                ..RunOptions::default()
            },
            outlier: OutlierConfig::default(),
            filter_races: true,
        }
    }
}

impl ReduceConfig {
    /// Oracle settings copied from the campaign whose outlier is being
    /// reduced, so "still reproduces" means exactly what the campaign's
    /// analysis meant.
    pub fn for_campaign(cfg: &CampaignConfig) -> ReduceConfig {
        ReduceConfig {
            workers: cfg.workers,
            compile: CompileOptions {
                opt_level: cfg.opt_level,
            },
            run: cfg.run,
            outlier: cfg.outlier,
            filter_races: cfg.filter_races,
            ..ReduceConfig::default()
        }
    }
}

/// Per-pass accounting, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (`ddmin`, `loop-trips`, `clauses`, `exprs`, `params`).
    pub pass: &'static str,
    /// Accepted edits across all rounds.
    pub accepted: usize,
    /// Oracle checks spent across all rounds.
    pub checks: usize,
    /// Candidates answered from the verdict memo instead of the oracle.
    pub memo_hits: usize,
}

/// What a reduction produced.
#[derive(Debug, Clone)]
pub struct ReductionOutcome {
    /// The minimized program (same name/seed as the original, so modelled
    /// `(program, input)`-keyed triggers stay live).
    pub reduced: Program,
    /// The input, with values of pruned parameters removed.
    pub input: TestInput,
    /// The preserved verdict.
    pub verdict: Verdict,
    /// Statement count before reduction.
    pub original_stmts: usize,
    /// Statement count after reduction.
    pub reduced_stmts: usize,
    /// Total oracle checks performed (entry and exit checks plus every
    /// memo miss up to each accepted candidate).
    pub oracle_checks: usize,
    /// Candidates answered from the per-reduction verdict memo.
    pub memo_hits: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Per-pass accounting.
    pub passes: Vec<PassStat>,
}

impl ReductionOutcome {
    /// Statements eliminated, as a percentage of the original.
    pub fn shrink_percent(&self) -> f64 {
        if self.original_stmts == 0 {
            return 0.0;
        }
        100.0 * (self.original_stmts - self.reduced_stmts) as f64 / self.original_stmts as f64
    }
}

/// A candidate edit: the rebuilt program plus (for parameter pruning) the
/// synchronized input.
type Candidate = (Program, TestInput);

/// The oracle-driven delta debugger.
pub struct Reducer<'b> {
    backends: &'b [&'b dyn OmpBackend],
    config: ReduceConfig,
    obs: Obs,
}

impl<'b> Reducer<'b> {
    /// Reducer over the same backends (same order!) as the campaign that
    /// observed the target verdict.
    pub fn new(backends: &'b [&'b dyn OmpBackend], config: ReduceConfig) -> Reducer<'b> {
        Reducer {
            backends,
            config,
            obs: Obs::off(),
        }
    }

    /// Attach a telemetry handle: every oracle check is counted live
    /// (candidate checks, compiles, differential runs, VM ops, budget
    /// aborts) as the reduction progresses. Telemetry never influences
    /// which candidates are accepted.
    pub fn observed(mut self, obs: Obs) -> Reducer<'b> {
        self.obs = obs;
        self
    }

    /// Run the fixpoint reduction loop on one target.
    ///
    /// If the target does not reproduce as-is (stale verdict, mismatched
    /// oracle settings), the outcome is the unmodified program with one
    /// oracle check spent.
    pub fn reduce(&self, target: &ReductionTarget) -> ReductionOutcome {
        let mut passes: Vec<PassStat> = ["ddmin", "loop-trips", "clauses", "exprs", "params"]
            .into_iter()
            .map(|pass| PassStat {
                pass,
                accepted: 0,
                checks: 0,
                memo_hits: 0,
            })
            .collect();
        let original_stmts = target.program.body.stmt_count();
        let mut current = target.program.clone();
        let mut input = target.input.clone();
        let mut rounds = 0;
        let mut sanity_checks = 1;

        // The race gate rejects candidates that *introduce* races. If the
        // original witness itself races on the pinned input (the campaign's
        // filter only samples each program's first input, so such outliers
        // exist), gating would reject the unmodified program and silently
        // no-op — allow races for the whole reduction instead.
        let allow_races = self.config.filter_races
            && ompfuzz_exec::lower(&target.program).is_ok_and(|kernel| {
                candidate_races(
                    &PreparedKernel::new(kernel),
                    &target.input,
                    &self.config.run,
                    &mut ExecScratch::new(),
                )
            });
        let mut ctx = OracleCtx {
            verdict: target.verdict,
            allow_races,
            memo: HashMap::new(),
        };

        if self.check(&current, &input, &ctx) {
            ctx.memo.insert(memo_key(&current, &input), true);
            for _ in 0..self.config.max_rounds {
                rounds += 1;
                let before = (current.clone(), input.clone());
                self.ddmin_pass(&mut current, &input, &mut ctx, &mut passes[0]);
                self.loop_trip_pass(&mut current, &input, &mut ctx, &mut passes[1]);
                self.clause_pass(&mut current, &input, &mut ctx, &mut passes[2]);
                self.expr_pass(&mut current, &input, &mut ctx, &mut passes[3]);
                self.param_pass(&mut current, &mut input, &mut ctx, &mut passes[4]);
                if before.0 == current && before.1 == input {
                    break;
                }
            }
            // Safety net: the accepted program always reproduces (every
            // acceptance was oracle-gated), but re-check the final state so
            // a reducer bug can never ship a non-reproducing "minimal"
            // case — fall back to the untouched original instead. This
            // check always runs the oracle for real: it must not trust the
            // memo it is meant to audit.
            sanity_checks += 1;
            if !self.check(&current, &input, &ctx) {
                debug_assert!(false, "reduction fixpoint no longer reproduces its verdict");
                current = target.program.clone();
                input = target.input.clone();
            }
        }

        let oracle_checks = sanity_checks + passes.iter().map(|p| p.checks).sum::<usize>();
        let memo_hits = passes.iter().map(|p| p.memo_hits).sum();
        ReductionOutcome {
            reduced_stmts: current.body.stmt_count(),
            reduced: current,
            input,
            verdict: target.verdict,
            original_stmts,
            oracle_checks,
            memo_hits,
            rounds,
            passes,
        }
    }

    // -- oracle ------------------------------------------------------------

    /// One counted oracle check outside the candidate search (the entry and
    /// exit checks), bypassing the memo.
    fn check(&self, program: &Program, input: &TestInput, ctx: &OracleCtx) -> bool {
        self.obs.count(Counter::ReducerCandidateChecks, 1);
        self.reproduces(program, input, ctx)
    }

    /// Does `program` on `input` still produce the target verdict?
    /// Candidates that fail to lower/compile simply don't reproduce, and
    /// (when `filter_races` is on and the original witness was race-free)
    /// neither do candidates the campaign's dynamic race detector would
    /// have excluded from analysis.
    fn reproduces(&self, program: &Program, input: &TestInput, ctx: &OracleCtx) -> bool {
        let Ok(kernel) = ompfuzz_exec::lower(program) else {
            return false;
        };
        // One compilation per candidate: the race gate and every backend
        // run the same prepared bytecode — and one scratch per candidate:
        // the race-gate run and every backend run reuse its buffers.
        let prepared = PreparedKernel::new(kernel);
        let mut scratch = ExecScratch::new();
        if self.config.filter_races
            && !ctx.allow_races
            && candidate_races(&prepared, input, &self.config.run, &mut scratch)
        {
            return false;
        }
        let Ok(observations) = oracle::observe(
            program,
            input,
            self.backends,
            Some(&prepared),
            &self.config.compile,
            &self.config.run,
            &mut scratch,
            &self.obs,
        ) else {
            return false;
        };
        analyze(&observations, &self.config.outlier).primary_outlier()
            == Some((ctx.verdict.kind, ctx.verdict.backend))
    }

    /// Return the index of the *first* (lowest-index) reproducing
    /// candidate. Candidates are judged in index order, in waves of
    /// `workers` whose memo misses run on the worker pool, stopping after
    /// the first wave with a success. Verdicts are then tallied in serial
    /// order — a memo hit or a counted, memoized oracle check per candidate
    /// up to the accepted one — so the result and every count are
    /// independent of worker count and scheduling.
    fn first_reproducing(
        &self,
        candidates: &[Candidate],
        ctx: &mut OracleCtx,
        stat: &mut PassStat,
    ) -> Option<usize> {
        let wave = pool::resolve_workers(self.config.workers);
        for (w, chunk) in candidates.chunks(wave).enumerate() {
            let keys: Vec<String> = chunk.iter().map(|(p, i)| memo_key(p, i)).collect();
            let misses: Vec<usize> = (0..chunk.len())
                .filter(|&k| !ctx.memo.contains_key(&keys[k]))
                .collect();
            let verdicts = pool::map_parallel(wave, &misses, |&k| {
                self.reproduces(&chunk[k].0, &chunk[k].1, ctx)
            });
            for (k, key) in keys.into_iter().enumerate() {
                let reproduced = match ctx.memo.get(&key) {
                    Some(&reproduced) => {
                        stat.memo_hits += 1;
                        reproduced
                    }
                    None => {
                        let miss = misses.binary_search(&k).expect("wave misses were judged");
                        stat.checks += 1;
                        self.obs.count(Counter::ReducerCandidateChecks, 1);
                        ctx.memo.insert(key, verdicts[miss]);
                        verdicts[miss]
                    }
                };
                if reproduced {
                    return Some(w * wave + k);
                }
            }
        }
        None
    }

    // -- passes ------------------------------------------------------------

    /// Statement-block ddmin: delete contiguous windows of statement sites,
    /// halving the window when no deletion reproduces. The kernel body is
    /// never allowed to become empty.
    fn ddmin_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &mut OracleCtx,
        stat: &mut PassStat,
    ) {
        let mut chunk = rewrite::stmt_sites(current).div_ceil(2).max(1);
        loop {
            let sites = rewrite::stmt_sites(current);
            if sites == 0 {
                break;
            }
            let chunk_now = chunk.min(sites);
            let mut candidates = Vec::new();
            let mut start = 0;
            while start < sites {
                let end = (start + chunk_now).min(sites);
                let remove: BTreeSet<usize> = (start..end).collect();
                let cand = rewrite::delete_stmts(current, &remove);
                // ddmin invariant: never offer an empty kernel body.
                if !cand.body.is_empty() {
                    candidates.push((cand, input.clone()));
                }
                start = end;
            }
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    *current = candidates.swap_remove(i).0;
                    stat.accepted += 1;
                    // Keep the window size: more same-granularity deletions
                    // often follow a success.
                }
                None => {
                    if chunk <= 1 {
                        break;
                    }
                    chunk /= 2;
                }
            }
        }
    }

    /// Shrink constant trip counts toward 1, smallest trial first.
    fn loop_trip_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &mut OracleCtx,
        stat: &mut PassStat,
    ) {
        loop {
            let trips = rewrite::loop_sites(current);
            let mut candidates = Vec::new();
            for (site, &trip) in trips.iter().enumerate() {
                for trial in shrink_ladder(trip) {
                    if let Some(cand) = rewrite::with_loop_trip(current, site, trial) {
                        candidates.push((cand, input.clone()));
                    }
                }
            }
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    *current = candidates.swap_remove(i).0;
                    stat.accepted += 1;
                }
                None => break,
            }
        }
    }

    /// Strip OpenMP clauses one at a time.
    fn clause_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &mut OracleCtx,
        stat: &mut PassStat,
    ) {
        loop {
            let edits: Vec<ClauseEdit> = rewrite::clause_edits(current);
            let mut candidates: Vec<Candidate> = edits
                .iter()
                .filter_map(|e| rewrite::apply_clause_edit(current, e))
                .map(|p| (p, input.clone()))
                .collect();
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    *current = candidates.swap_remove(i).0;
                    stat.accepted += 1;
                }
                None => break,
            }
        }
    }

    /// Expression hoisting/simplification: replace operator nodes by one of
    /// their operands. Sites are visited from the highest index down — a
    /// splice at site `k` leaves sites `< k` addressed identically, so one
    /// descending sweep needs only O(sites + accepted) oracle checks
    /// instead of re-enumerating after every acceptance.
    fn expr_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &mut OracleCtx,
        stat: &mut PassStat,
    ) {
        let mut site = rewrite::expr_sites(current);
        while site > 0 {
            site -= 1;
            // Retry the same site while simplifications land: the spliced-in
            // operand is itself reducible.
            loop {
                let mut candidates: Vec<Candidate> = [ExprSide::Lhs, ExprSide::Rhs]
                    .iter()
                    .filter_map(|&side| rewrite::simplify_expr(current, site, side))
                    .map(|p| (p, input.clone()))
                    .collect();
                match self.first_reproducing(&candidates, ctx, stat) {
                    Some(i) => {
                        *current = candidates.swap_remove(i).0;
                        stat.accepted += 1;
                        if rewrite::expr_sites(current) <= site {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
    }

    /// Remove parameters no longer referenced, dropping the matching input
    /// values. Still oracle-checked: pruning changes the input line, which
    /// `(program, input)`-keyed bug models are salted with.
    fn param_pass(
        &self,
        current: &mut Program,
        input: &mut TestInput,
        ctx: &mut OracleCtx,
        stat: &mut PassStat,
    ) {
        loop {
            let mut candidates = Vec::new();
            for index in rewrite::unused_params(current) {
                let Some(program) = rewrite::remove_param(current, index) else {
                    continue;
                };
                if index >= input.values.len() {
                    continue; // input out of sync with params; don't guess
                }
                let mut pruned = input.clone();
                pruned.values.remove(index);
                candidates.push((program, pruned));
            }
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    let (program, pruned) = candidates.swap_remove(i);
                    *current = program;
                    *input = pruned;
                    stat.accepted += 1;
                }
                None => break,
            }
        }
    }
}

/// Per-reduction oracle state: parameters fixed when `reduce` starts, plus
/// the verdict memo, dropped when it ends.
struct OracleCtx {
    /// The verdict every accepted candidate must preserve.
    verdict: Verdict,
    /// The original witness already races on the pinned input, so the race
    /// gate is waived (reduction can't *introduce* what's already there).
    allow_races: bool,
    /// Verdicts judged so far, keyed by [`memo_key`]. The oracle is a pure
    /// function of `(program, input)` within one reduction — modelled bugs
    /// are salted by program name, seed and input line, all in the key.
    memo: HashMap<String, bool>,
}

/// A candidate's verdict-memo key: the catalog's s-expression text of
/// program and input. Floats are written as their bits, so `0.0`/`-0.0` or
/// NaNs with different payloads never share an entry, unlike `PartialEq`.
pub fn memo_key(program: &Program, input: &TestInput) -> String {
    let mut key = ompfuzz_ast::sexpr::write_program(program);
    key.push('\n');
    key.push_str(&ompfuzz_inputs::write_input(input));
    key
}

/// Does the compiled candidate race on `input`? Delegates to the campaign
/// driver's §IV-E detector ([`ompfuzz_harness::detect_kernel_races`]) so
/// reducer and campaign can never drift — same shared compilation, same
/// engine. A run that fails (op budget) is treated as race-free, exactly as
/// the campaign treats it — such programs stay in play and fail uniformly
/// at the oracle instead.
fn candidate_races(
    prepared: &PreparedKernel,
    input: &TestInput,
    run: &RunOptions,
    scratch: &mut ExecScratch,
) -> bool {
    ompfuzz_harness::detect_kernel_races(prepared.plain(), input, run.max_ops, run.engine, scratch)
        .is_some_and(|races| !races.is_empty())
}

/// Trial trip counts for a loop currently at `trip`, ascending and strictly
/// smaller: the most aggressive shrink is offered first.
fn shrink_ladder(trip: u32) -> Vec<u32> {
    let mut trials: Vec<u32> = [1, 2, trip / 16, trip / 4, trip / 2]
        .into_iter()
        .filter(|&t| t >= 1 && t < trip)
        .collect();
    trials.sort_unstable();
    trials.dedup();
    trials
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_ladder_is_ascending_and_strict() {
        assert!(shrink_ladder(1).is_empty());
        assert_eq!(shrink_ladder(2), vec![1]);
        assert_eq!(shrink_ladder(3), vec![1, 2]);
        let l = shrink_ladder(6000);
        assert_eq!(l, vec![1, 2, 375, 1500, 3000]);
        for t in [4u32, 17, 100, 801, 1_000_000] {
            let l = shrink_ladder(t);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert!(l.iter().all(|&x| x < t && x >= 1));
        }
    }
}

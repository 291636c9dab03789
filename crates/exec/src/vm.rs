//! The bytecode VM: linear dispatch over the flat bytecode form, applied
//! across a batch of inputs.
//!
//! [`run`] executes a [`CompiledKernel`] on one input and [`run_batch`] on
//! several; both produce, per input, an [`ExecOutcome`] bit-identical to
//! the tree interpreter's for the same `(kernel, input, options)` — same
//! `comp` bits, same [`crate::stats::ExecStats`], same race reports, and
//! budget exhaustion on exactly the same runs.
//!
//! There is one engine, `BatchVm`: every instruction is fetched and
//! decoded once and applied across all lanes of the batch, with per-lane
//! state held in structure-of-arrays rows ([`BatchScratch`]). A
//! single-input run is a batch of width 1; the row helpers specialize on
//! the compile-time width, so at `W == 1` a row is one value and lane
//! masks, consensus and row strides fold away. The hot loop is a single
//! indexed call per instruction through one handler table: no recursion,
//! no per-node budget checks (straight-line blocks charge once, via their
//! precomputed [`crate::bytecode::BlockCost`]), and no dynamic sharing
//! analysis (race-check flags were resolved at compile time).
//!
//! **Divergence.** Active lanes share one control flow. At a data-dependent
//! branch or loop bound the first active lane's value is the consensus and
//! disagreeing lanes are *demoted*; a demoted lane, or a lane whose input
//! fails to bind, re-runs at width 1, where there is a single lane that
//! can never demote, so nothing recurses.
//!
//! In debug builds every lane that completes is re-executed on the tree
//! interpreter and its comp bits and statistics asserted equal — the
//! accounting-drift tripwire backing the `bytecode_equiv` and
//! `batch_equiv` differential suites.

use crate::bytecode::{BlockCost, CompiledKernel, Instr, Operand};
use crate::interp::{apply_bool, BoolSemantics, ExecError, ExecOptions, ExecOutcome};
use crate::kernel::{ArrayId, IntSlotId, LBound, LIndex, ParamBinding, SlotId};
use crate::profile::ExecProfile;
use crate::race::Loc;
use crate::scratch::{BatchScratch, ExecScratch, LoopFrame};
use crate::stats::{ExecStats, RegionTrace, ThreadWork};
use ompfuzz_ast::{AssignOp, BinOp, BoolOp, FpType, MathFunc};
use ompfuzz_inputs::{InputValue, TestInput};

/// Execute `ck` on one input: a batch of width 1, reusing `scratch`'s
/// buffers (the reset restores exactly the state a fresh allocation would
/// have, so outcomes never depend on what the scratch ran before).
pub fn run(
    ck: &CompiledKernel,
    input: &TestInput,
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Result<ExecOutcome, ExecError> {
    let ExecScratch { batch, profile, .. } = scratch;
    batch.reset_for(&ck.kernel, ck.blocks.len(), 1);
    let mut vm = BatchVm::<1>::new(ck, opts, batch, profile.as_deref_mut());
    vm.bind_lane(0, input)?;
    vm.dispatch()?;
    let stats = std::mem::take(&mut vm.stats);
    let outcome = vm.lane_outcome(0, stats);
    #[cfg(debug_assertions)]
    parity_check(ck, input, opts, &outcome);
    Ok(outcome)
}

/// Execute `ck` over a whole batch of inputs in one pass: every
/// instruction is fetched and decoded once and applied across all lanes
/// (the [`BatchScratch`] holds per-lane state in structure-of-arrays rows,
/// so one instruction's applies sweep contiguous memory).
///
/// **Divergence model.** Active lanes share one control flow, so budget
/// charges, loop frames, region/thread bookkeeping and every uniform
/// [`ExecStats`] field are computed once for the batch. The only
/// data-dependent control decisions are `BoolTest` outcomes and
/// `LoopStart` bounds read from an int slot: at each such point the first
/// active lane's value is the consensus, and active lanes that disagree
/// are *demoted*. A demoted lane's batch state is abandoned — execution is
/// deterministic, so re-running the input at width 1 afterwards
/// reproduces that lane's exact outcome. Demoted lanes keep computing
/// mask-free garbage in their columns, which is harmless by construction
/// (f64 arithmetic never traps, moduli clamp to ≥ 1, indices clamp to the
/// array) and cheaper than masking every row operation.
///
/// **Budget.** Charges are uniform across active lanes, so one shared
/// budget counter follows exactly the trajectory each single-input run
/// would see: exhaustion hits every active lane on the same fetch with the
/// same [`ExecError::BudgetExceeded`], and demoted lanes recover their own
/// (possibly different) verdict from the width-1 re-run.
///
/// Outcomes come back in input order, bit-identical to one [`run`] per
/// input — same comp bits, statistics, race reports and errors. The
/// `batch_equiv` differential suite and the debug-build per-lane tree
/// parity assert pin that.
pub fn run_batch(
    ck: &CompiledKernel,
    inputs: &[TestInput],
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Vec<Result<ExecOutcome, ExecError>> {
    // Monomorphize the hot widths: the campaign's paper config batches 3
    // inputs per test, the throughput bench 8, and the default
    // `batch_width` cap is 16. Everything else takes the runtime-width
    // instantiation, which is identical code minus the constant folding.
    match inputs.len() {
        0 => Vec::new(),
        1 => vec![run(ck, &inputs[0], opts, scratch)],
        3 => run_batch_w::<3>(ck, inputs, opts, scratch),
        8 => run_batch_w::<8>(ck, inputs, opts, scratch),
        16 => run_batch_w::<16>(ck, inputs, opts, scratch),
        _ => run_batch_w::<0>(ck, inputs, opts, scratch),
    }
}

/// [`run_batch`] at one compile-time width (`W == 0` = any width ≥ 2).
fn run_batch_w<const W: usize>(
    ck: &CompiledKernel,
    inputs: &[TestInput],
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Vec<Result<ExecOutcome, ExecError>> {
    let w = inputs.len();
    let mut results: Vec<Option<Result<ExecOutcome, ExecError>>> = Vec::with_capacity(w);
    results.resize_with(w, || None);
    {
        let ExecScratch { batch, profile, .. } = &mut *scratch;
        batch.reset_for(&ck.kernel, ck.blocks.len(), w);
        let mut vm = BatchVm::<W>::new(ck, opts, batch, profile.as_deref_mut());
        for (lane, input) in inputs.iter().enumerate() {
            if vm.bind_lane(lane, input).is_err() {
                // The width-1 re-run below reproduces this lane's exact
                // mismatch error; only the lane's own columns were touched.
                vm.bs.active[lane] = false;
                vm.active_count -= 1;
            }
        }
        if vm.active_count > 0 {
            match vm.dispatch() {
                Ok(()) => {
                    for (lane, slot) in results.iter_mut().enumerate() {
                        if vm.bs.active[lane] {
                            let stats = vm.stats.clone();
                            let outcome = vm.lane_outcome(lane, stats);
                            #[cfg(debug_assertions)]
                            parity_check(ck, &inputs[lane], opts, &outcome);
                            *slot = Some(Ok(outcome));
                        }
                    }
                }
                // Uniform charging: the error hit every active lane on the
                // same fetch (see the budget note above).
                Err(e) => {
                    for (lane, slot) in results.iter_mut().enumerate() {
                        if vm.bs.active[lane] {
                            *slot = Some(Err(e.clone()));
                        }
                    }
                }
            }
        }
    }

    results
        .into_iter()
        .zip(inputs)
        // Demoted lane: the deterministic width-1 re-run is this lane's
        // exact outcome (including its error, if any).
        .map(|(r, input)| r.unwrap_or_else(|| run(ck, input, opts, scratch)))
        .collect()
}

/// Debug-build tripwire: a lane the engine completed must match the tree
/// interpreter — the reference semantics — bit for bit: the batched block
/// charges must reproduce its per-node statistics exactly. Race detection
/// never changes charges, so the reference run skips it (the
/// `bytecode_equiv` and `batch_equiv` suites compare race reports).
#[cfg(debug_assertions)]
fn parity_check(ck: &CompiledKernel, input: &TestInput, opts: &ExecOptions, outcome: &ExecOutcome) {
    let reference_opts = ExecOptions {
        detect_races: false,
        ..*opts
    };
    match crate::interp::run(&ck.kernel, input, &reference_opts) {
        Ok(tree) => {
            debug_assert_eq!(
                tree.comp.to_bits(),
                outcome.comp.to_bits(),
                "bytecode result diverged from the tree interpreter"
            );
            debug_assert_eq!(
                tree.stats, outcome.stats,
                "bytecode statistics drifted from the tree interpreter's per-node counts"
            );
        }
        Err(e) => debug_assert!(
            false,
            "tree interpreter failed ({e}) on a run the bytecode engine completed"
        ),
    }
}

/// Handler verdict: keep dispatching (with `ip` possibly redirected) or
/// stop the run.
enum Flow {
    Next,
    Halt,
}

/// Per-thread context while inside a parallel region.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadCtx {
    tid: u32,
    team: u32,
    cycles: u64,
    ops: u64,
    critical_acquisitions: u64,
    critical_cycles: u64,
    /// `omp critical` nesting depth (tree's `in_critical` with prev-restore
    /// semantics, as a counter).
    crit_depth: u32,
}

/// The outermost parallel region currently executing its team. Per-lane
/// data (saved rows, reduction partials, comp-before) lives in the
/// [`BatchScratch`] — only one physical region runs at a time, nested
/// regions execute inline — so the frame carries just the uniform state.
struct RegionFrame {
    tid: u32,
    team: u32,
    recording: bool,
}

struct BatchVm<'c, 'b, 'p, const W: usize> {
    ck: &'c CompiledKernel,
    bs: &'b mut BatchScratch,
    /// Borrowed from the caller's scratch: the batch loop notes one opcode
    /// per fetch and lane-scaled block totals at the end.
    profile: Option<&'p mut ExecProfile>,
    /// Lane count — the row stride of every [`BatchScratch`] buffer.
    w: usize,
    bool_semantics: BoolSemantics,
    detect_races: bool,
    cur_loop: LoopFrame,
    ctx: Option<ThreadCtx>,
    region: Option<RegionFrame>,
    nested: u32,
    /// Uniform statistics shared by every completed lane; the per-lane
    /// `nan_produced`/`inf_produced` live in the scratch and are patched
    /// into each lane's outcome at assembly.
    stats: ExecStats,
    ops_left: u64,
    max_ops: u64,
    recording: bool,
    /// Lanes still following the consensus control flow.
    active_count: usize,
}

impl<'c, 'b, 'p, const W: usize> BatchVm<'c, 'b, 'p, W> {
    fn new(
        ck: &'c CompiledKernel,
        opts: &ExecOptions,
        bs: &'b mut BatchScratch,
        profile: Option<&'p mut ExecProfile>,
    ) -> BatchVm<'c, 'b, 'p, W> {
        let w = bs.width;
        debug_assert!(W == 0 || W == w, "const width {W} vs batch width {w}");
        bs.stack.reserve(ck.max_stack * w);
        BatchVm {
            ck,
            bs,
            profile,
            w,
            bool_semantics: opts.bool_semantics,
            detect_races: opts.detect_races,
            cur_loop: LoopFrame {
                counter: 0,
                i: 0,
                end: 0,
            },
            ctx: None,
            region: None,
            nested: 0,
            stats: ExecStats::default(),
            ops_left: opts.limits.max_ops,
            max_ops: opts.limits.max_ops,
            recording: false,
            active_count: w,
        }
    }

    /// Lane count — the row stride of every [`BatchScratch`] buffer. A
    /// `W > 0` instantiation bakes the width into the row loops (bounds
    /// checks fold away and the loops unroll); `W == 0` is the any-width
    /// fallback reading the runtime stride.
    #[inline(always)]
    fn width(&self) -> usize {
        if W > 0 {
            W
        } else {
            self.w
        }
    }

    /// Lane `lane`'s outcome after a completed dispatch: the uniform
    /// `stats` (the caller clones or moves them) with this lane's own
    /// NaN/Inf counts, comp and race reports.
    fn lane_outcome(&mut self, lane: usize, mut stats: ExecStats) -> ExecOutcome {
        stats.nan_produced = self.bs.nan[lane];
        stats.inf_produced = self.bs.inf[lane];
        ExecOutcome {
            comp: self.bs.comp[lane],
            stats,
            races: self.bs.races[lane].take_reports(),
        }
    }

    /// Bind one input into lane `lane`'s columns, writing only this lane's
    /// stride. The binding semantics are the tree interpreter's.
    fn bind_lane(&mut self, lane: usize, input: &TestInput) -> Result<(), ExecError> {
        let ck = self.ck;
        let k = &ck.kernel;
        if input.values.len() != k.param_order.len() {
            return Err(ExecError::InputMismatch(format!(
                "kernel has {} parameters, input provides {}",
                k.param_order.len(),
                input.values.len()
            )));
        }
        let w = self.width();
        self.bs.comp[lane] = input.comp_init;
        for (binding, value) in k.param_order.iter().zip(&input.values) {
            match (binding, value) {
                (ParamBinding::Scalar(s), InputValue::Fp(v)) => {
                    self.bs.scalars[*s as usize * w + lane] = ck.slot_ty[*s as usize].round(*v);
                }
                (ParamBinding::Int(i), InputValue::Int(v)) => {
                    self.bs.ints[*i as usize * w + lane] = *v;
                }
                (ParamBinding::Array(a), InputValue::ArrayFill(v) | InputValue::Fp(v)) => {
                    let fill = ck.array_ty[*a as usize].round(*v);
                    let buf = &mut self.bs.arrays[*a as usize];
                    let mut i = lane;
                    while i < buf.len() {
                        buf[i] = fill;
                        i += w;
                    }
                }
                (b, v) => {
                    return Err(ExecError::InputMismatch(format!(
                        "binding {b:?} incompatible with input value {v:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    // ----- accounting (uniform across active lanes) -------------------------

    #[inline]
    fn charge_block(&mut self, idx: usize, b: &BlockCost) -> Result<(), ExecError> {
        if self.ops_left < b.ops {
            return Err(ExecError::BudgetExceeded {
                max_ops: self.max_ops,
            });
        }
        self.ops_left -= b.ops;
        self.bs.block_hits[idx] += 1;
        match &mut self.ctx {
            Some(c) => {
                c.cycles += b.cycles;
                c.ops += b.ops;
                if c.crit_depth > 0 {
                    c.critical_cycles += b.cycles;
                }
                c.critical_acquisitions += b.crit_acqs;
            }
            None => self.stats.serial_cycles += b.cycles,
        }
        Ok(())
    }

    fn charge_block_times(&mut self, idx: usize, b: &BlockCost, n: u64) -> Result<(), ExecError> {
        let total_ops = b.ops.saturating_mul(n);
        if self.ops_left < total_ops {
            return Err(ExecError::BudgetExceeded {
                max_ops: self.max_ops,
            });
        }
        self.ops_left -= total_ops;
        self.bs.block_hits[idx] += n;
        let cycles = b.cycles.saturating_mul(n);
        match &mut self.ctx {
            Some(c) => {
                c.cycles += cycles;
                c.ops += total_ops;
                if c.crit_depth > 0 {
                    c.critical_cycles += cycles;
                }
                c.critical_acquisitions += b.crit_acqs.saturating_mul(n);
            }
            None => self.stats.serial_cycles += cycles,
        }
        Ok(())
    }

    fn charge_one(&mut self, cycles: u64) -> Result<(), ExecError> {
        if self.ops_left == 0 {
            return Err(ExecError::BudgetExceeded {
                max_ops: self.max_ops,
            });
        }
        self.ops_left -= 1;
        match &mut self.ctx {
            Some(c) => {
                c.cycles += cycles;
                c.ops += 1;
                if c.crit_depth > 0 {
                    c.critical_cycles += cycles;
                }
            }
            None => self.stats.serial_cycles += cycles,
        }
        Ok(())
    }

    /// Reconstruct the global statistics from the per-block hit counts:
    /// every counter is an order-independent sum, so `count × hits` at the
    /// end equals merging on every entry.
    fn flush_block_stats(&mut self) {
        for (hits, b) in self.bs.block_hits.iter().zip(&self.ck.blocks) {
            let n = *hits;
            if n == 0 {
                continue;
            }
            let o = &mut self.stats.ops;
            o.add_sub += b.counts.add_sub * n;
            o.mul += b.counts.mul * n;
            o.div += b.counts.div * n;
            o.math += b.counts.math * n;
            o.math_cycles += b.counts.math_cycles * n;
            o.loads += b.counts.loads * n;
            o.stores += b.counts.stores * n;
            o.compares += b.counts.compares * n;
            self.stats.loop_iterations += b.loop_iters * n;
            self.stats.branches += b.branches * n;
        }
    }

    // ----- race recording ---------------------------------------------------

    #[inline]
    fn tid_prot(&self) -> (u32, bool) {
        match &self.ctx {
            Some(c) => (c.tid, c.crit_depth > 0),
            None => (0, false),
        }
    }

    /// Record the same location into every lane's detector. Demoted lanes'
    /// detectors are discarded unharvested, so recording mask-free is safe
    /// (and keeps the row loops branchless).
    #[inline]
    fn record_uniform(&mut self, loc: Loc, write: bool) {
        let w = self.width();
        let (tid, protected) = self.tid_prot();
        for d in self.bs.races.iter_mut().take(w) {
            d.record(loc, tid, write, protected);
        }
    }

    // ----- row operations ---------------------------------------------------
    //
    // A row holds one value per lane. Wide instantiations stage operand
    // rows in `tmp` (row 0 = lhs, row 1 = rhs). At `W == 1` a row is one
    // value, so the helpers pass it in registers instead: they return it,
    // and take it as their `v` argument. Wider instantiations return 0.0
    // and ignore `v`.

    /// Materialize one operand into `tmp` row `t` (0 = lhs, 1 = rhs) for
    /// every lane, or return its value at `W == 1`. Callers load rhs
    /// before lhs so two `Stack` operands pop in evaluation order.
    #[inline(always)]
    fn load(&mut self, o: &Operand, t: usize) -> f64 {
        if W == 1 {
            return self.load_one(o);
        }
        let w = self.width();
        match o {
            Operand::Stack => {
                let BatchScratch { stack, tmp, .. } = &mut *self.bs;
                let n = stack.len() - w;
                tmp[t * w..t * w + w].copy_from_slice(&stack[n..]);
                stack.truncate(n);
            }
            Operand::Const(v) => self.bs.tmp[t * w..t * w + w].fill(*v),
            Operand::Scalar { slot, race } => {
                if *race && self.recording {
                    self.record_uniform(Loc::Scalar(*slot), false);
                }
                let base = *slot as usize * w;
                let BatchScratch { scalars, tmp, .. } = &mut *self.bs;
                tmp[t * w..t * w + w].copy_from_slice(&scalars[base..base + w]);
            }
            Operand::Elem { array, index, race } => {
                let a = *array as usize;
                let rec = *race && self.recording;
                if let Some(i) = self.resolve_index_row(*index, *array) {
                    // Lanes agree on the element (loop counters are splat
                    // uniform): the strided layout makes the gather one
                    // contiguous row copy.
                    if rec {
                        self.record_uniform(Loc::Elem(*array, i as u32), false);
                    }
                    let BatchScratch { arrays, tmp, .. } = &mut *self.bs;
                    tmp[t * w..t * w + w].copy_from_slice(&arrays[a][i * w..i * w + w]);
                    return 0.0;
                }
                let (tid, protected) = self.tid_prot();
                for lane in 0..w {
                    let i = self.resolve_index_lane(*index, *array, lane);
                    if rec {
                        self.bs.races[lane].record(
                            Loc::Elem(*array, i as u32),
                            tid,
                            false,
                            protected,
                        );
                    }
                    self.bs.tmp[t * w + lane] = self.bs.arrays[a][i * w + lane];
                }
            }
        }
        0.0
    }

    /// [`Self::load`] at `W == 1`: the operand's value, nothing staged.
    #[inline(always)]
    fn load_one(&mut self, o: &Operand) -> f64 {
        match o {
            Operand::Stack => self.bs.stack.pop().expect("operand on stack"),
            Operand::Const(v) => *v,
            Operand::Scalar { slot, race } => {
                if *race && self.recording {
                    self.record_uniform(Loc::Scalar(*slot), false);
                }
                self.bs.scalars[*slot as usize]
            }
            Operand::Elem { array, index, race } => {
                let i = self.resolve_index_lane(*index, *array, 0);
                if *race && self.recording {
                    self.record_uniform(Loc::Elem(*array, i as u32), false);
                }
                self.bs.arrays[*array as usize][i]
            }
        }
    }

    /// NaN/Inf accounting of one lane-0 result at `W == 1` (the row
    /// helpers count branchlessly per lane instead).
    #[inline(always)]
    fn note_fp(&mut self, result: f64, inputs_ok: bool) {
        if inputs_ok {
            if result.is_nan() {
                self.bs.nan[0] += 1;
            } else if result.is_infinite() {
                self.bs.inf[0] += 1;
            }
        }
    }

    /// `lhs bin rhs` as a row (see [`Self::load`]).
    #[inline(always)]
    fn binary(&mut self, bin: BinOp, lhs: &Operand, rhs: &Operand) -> f64 {
        let r = self.load(rhs, 1);
        let l = self.load(lhs, 0);
        if W == 1 {
            let v = bin.apply(l, r);
            self.note_fp(v, l.is_finite() && r.is_finite());
            return v;
        }
        self.bin_row(bin);
        0.0
    }

    /// Push `tmp` row 0 (or `v`, at `W == 1`) as a new stack row.
    #[inline(always)]
    fn push_row(&mut self, v: f64) {
        if W == 1 {
            self.bs.stack.push(v);
            return;
        }
        let w = self.width();
        let BatchScratch { stack, tmp, .. } = &mut *self.bs;
        stack.extend_from_slice(&tmp[..w]);
    }

    /// `tmp0 = tmp0 bin tmp1` per lane, with per-lane NaN/Inf accounting.
    ///
    /// The operator match is hoisted out of the lane loop and the counter
    /// updates are branchless, so each arm vectorizes cleanly — this is
    /// the hottest row in the batch engine.
    #[inline(always)]
    fn bin_row(&mut self, bin: BinOp) {
        #[inline(always)]
        fn arm(
            lhs: &mut [f64],
            rhs: &[f64],
            nan: &mut [u64],
            inf: &mut [u64],
            f: impl Fn(f64, f64) -> f64,
        ) {
            for (((l, &r), nan), inf) in lhs
                .iter_mut()
                .zip(rhs)
                .zip(nan.iter_mut())
                .zip(inf.iter_mut())
            {
                let a = *l;
                let v = f(a, r);
                let finite_in = (a.is_finite() & r.is_finite()) as u64;
                *nan += finite_in & v.is_nan() as u64;
                *inf += finite_in & v.is_infinite() as u64;
                *l = v;
            }
        }
        let w = self.width();
        let BatchScratch { tmp, nan, inf, .. } = &mut *self.bs;
        let (lhs, rhs) = tmp.split_at_mut(w);
        // `BinOp::apply` canonicalizes NaNs; monomorphizing per operator
        // folds its internal match away inside each vector loop.
        match bin {
            BinOp::Add => arm(lhs, rhs, nan, inf, |l, r| BinOp::Add.apply(l, r)),
            BinOp::Sub => arm(lhs, rhs, nan, inf, |l, r| BinOp::Sub.apply(l, r)),
            BinOp::Mul => arm(lhs, rhs, nan, inf, |l, r| BinOp::Mul.apply(l, r)),
            BinOp::Div => arm(lhs, rhs, nan, inf, |l, r| BinOp::Div.apply(l, r)),
        }
    }

    /// `tmp0 = func(tmp0)` per lane, with per-lane NaN/Inf accounting
    /// (`func(a)` returned at `W == 1`).
    #[inline(always)]
    fn call_row(&mut self, func: MathFunc, a: f64) -> f64 {
        if W == 1 {
            let v = func.apply(a);
            self.note_fp(v, a.is_finite());
            return v;
        }
        let w = self.width();
        let BatchScratch { tmp, nan, inf, .. } = &mut *self.bs;
        for lane in 0..w {
            let a = tmp[lane];
            let v = func.apply(a);
            if a.is_finite() {
                if v.is_nan() {
                    nan[lane] += 1;
                } else if v.is_infinite() {
                    inf[lane] += 1;
                }
            }
            tmp[lane] = v;
        }
        0.0
    }

    /// `comp <op>= tmp0` per lane (race recording + NaN/Inf accounting).
    #[inline(always)]
    fn store_comp_row(&mut self, op: AssignOp, race: bool, v: f64) {
        if race && self.recording {
            if op.reads_target() {
                self.record_uniform(Loc::Comp, false);
            }
            self.record_uniform(Loc::Comp, true);
        }
        if W == 1 {
            let cur = self.bs.comp[0];
            let new = op.apply(cur, v);
            self.note_fp(new, cur.is_finite() && v.is_finite());
            self.bs.comp[0] = new;
            return;
        }
        #[inline(always)]
        fn arm(
            comp: &mut [f64],
            tmp: &[f64],
            nan: &mut [u64],
            inf: &mut [u64],
            f: impl Fn(f64, f64) -> f64,
        ) {
            for (((c, &v), nan), inf) in comp
                .iter_mut()
                .zip(tmp)
                .zip(nan.iter_mut())
                .zip(inf.iter_mut())
            {
                let cur = *c;
                let new = f(cur, v);
                let finite_in = (cur.is_finite() & v.is_finite()) as u64;
                *nan += finite_in & new.is_nan() as u64;
                *inf += finite_in & new.is_infinite() as u64;
                *c = new;
            }
        }
        let w = self.width();
        let BatchScratch {
            comp,
            tmp,
            nan,
            inf,
            ..
        } = &mut *self.bs;
        let (comp, tmp) = (&mut comp[..w], &tmp[..w]);
        match op {
            AssignOp::Assign => arm(comp, tmp, nan, inf, |c, v| AssignOp::Assign.apply(c, v)),
            AssignOp::AddAssign => arm(comp, tmp, nan, inf, |c, v| AssignOp::AddAssign.apply(c, v)),
            AssignOp::SubAssign => arm(comp, tmp, nan, inf, |c, v| AssignOp::SubAssign.apply(c, v)),
            AssignOp::MulAssign => arm(comp, tmp, nan, inf, |c, v| AssignOp::MulAssign.apply(c, v)),
            AssignOp::DivAssign => arm(comp, tmp, nan, inf, |c, v| AssignOp::DivAssign.apply(c, v)),
        }
    }

    /// `scalar <op>= tmp0` per lane, rounded to the slot type.
    #[inline(always)]
    fn store_scalar_row(&mut self, slot: SlotId, op: AssignOp, race: bool, v: f64) {
        if race && self.recording {
            if op.reads_target() {
                self.record_uniform(Loc::Scalar(slot), false);
            }
            self.record_uniform(Loc::Scalar(slot), true);
        }
        if W == 1 {
            let i = slot as usize;
            self.bs.scalars[i] = self.ck.slot_ty[i].round(op.apply(self.bs.scalars[i], v));
            return;
        }
        #[inline(always)]
        fn arm(row: &mut [f64], tmp: &[f64], f: impl Fn(f64, f64) -> f64) {
            for (s, &v) in row.iter_mut().zip(tmp) {
                *s = f(*s, v);
            }
        }
        let w = self.width();
        let ty = self.ck.slot_ty[slot as usize];
        let base = slot as usize * w;
        let BatchScratch { scalars, tmp, .. } = &mut *self.bs;
        let (row, tmp) = (&mut scalars[base..base + w], &tmp[..w]);
        // Hoist the operator and precision matches out of the lane loop.
        match (op, ty) {
            (AssignOp::Assign, FpType::F64) => arm(row, tmp, |_, v| v),
            (AssignOp::Assign, FpType::F32) => arm(row, tmp, |_, v| v as f32 as f64),
            (AssignOp::AddAssign, FpType::F64) => {
                arm(row, tmp, |c, v| AssignOp::AddAssign.apply(c, v))
            }
            _ => arm(row, tmp, |c, v| ty.round(op.apply(c, v))),
        }
    }

    /// `array[index] <op>= tmp0` per lane (per-lane indices and races).
    #[inline(always)]
    fn store_elem_rows(&mut self, array: ArrayId, index: LIndex, op: AssignOp, race: bool, v: f64) {
        let w = self.width();
        let a = array as usize;
        let ty = self.ck.array_ty[a];
        let rec = race && self.recording;
        let reads = op.reads_target();
        if W == 1 {
            let i = self.resolve_index_lane(index, array, 0);
            if rec {
                if reads {
                    self.record_uniform(Loc::Elem(array, i as u32), false);
                }
                self.record_uniform(Loc::Elem(array, i as u32), true);
            }
            let slot = &mut self.bs.arrays[a][i];
            *slot = ty.round(op.apply(*slot, v));
            return;
        }
        if let Some(i) = self.resolve_index_row(index, array) {
            if rec {
                if reads {
                    self.record_uniform(Loc::Elem(array, i as u32), false);
                }
                self.record_uniform(Loc::Elem(array, i as u32), true);
            }
            let BatchScratch { arrays, tmp, .. } = &mut *self.bs;
            let row = &mut arrays[a][i * w..i * w + w];
            for (slot, v) in row.iter_mut().zip(&tmp[..w]) {
                *slot = ty.round(op.apply(*slot, *v));
            }
            return;
        }
        let (tid, protected) = self.tid_prot();
        for lane in 0..w {
            let i = self.resolve_index_lane(index, array, lane);
            if rec {
                if reads {
                    self.bs.races[lane].record(Loc::Elem(array, i as u32), tid, false, protected);
                }
                self.bs.races[lane].record(Loc::Elem(array, i as u32), tid, true, protected);
            }
            let v = self.bs.tmp[lane];
            let old = self.bs.arrays[a][i * w + lane];
            self.bs.arrays[a][i * w + lane] = ty.round(op.apply(old, v));
        }
    }

    /// Resolve an element index every lane agrees on, or `None` when the
    /// lanes disagree — only possible for a `LoopMod` index whose slot is
    /// an int *parameter* (loop counters are splat uniform), so the check
    /// is one short row comparison on the hot path.
    #[inline]
    fn resolve_index_row(&self, idx: LIndex, array: ArrayId) -> Option<usize> {
        if let LIndex::LoopMod(slot, _) = idx {
            let base = slot as usize * self.width();
            let row = &self.bs.ints[base..base + self.width()];
            if row[1..].iter().any(|&v| v != row[0]) {
                return None;
            }
        }
        Some(self.resolve_index_lane(idx, array, 0))
    }

    /// Per-lane index resolution; the element count comes from the kernel
    /// (the batch buffer holds `len × width` values).
    #[inline]
    fn resolve_index_lane(&self, idx: LIndex, array: ArrayId, lane: usize) -> usize {
        // At `W == 1` the buffer's own length is the element count, which
        // the caller's element access then reuses.
        let len = if W == 1 {
            self.bs.arrays[array as usize].len()
        } else {
            self.ck.kernel.arrays[array as usize].len as usize
        };
        match idx {
            LIndex::Const(k) => (k as usize).min(len - 1),
            LIndex::LoopMod(slot, m) => {
                let i = self.bs.ints[slot as usize * self.width() + lane];
                let m = m.max(1) as i64;
                // Counters usually sit below the modulus: `i in [0, m)` is
                // the identity, sparing the 64-bit division (a negative `i`
                // wraps past `m` as u64 and takes the exact path).
                let v = if (i as u64) < m as u64 {
                    i as usize
                } else {
                    i.rem_euclid(m) as usize
                };
                v.min(len - 1)
            }
            LIndex::ThreadId => {
                let tid = self.ctx.as_ref().map_or(0, |c| c.tid);
                (tid as usize).min(len - 1)
            }
        }
    }

    /// Splat a (uniform) loop-counter value across every lane's column.
    #[inline]
    fn splat_counter(&mut self, counter: IntSlotId, v: i64) {
        if W == 1 {
            self.bs.ints[counter as usize] = v;
            return;
        }
        let w = self.width();
        let base = counter as usize * w;
        self.bs.ints[base..base + w].fill(v);
    }

    // ----- divergence points ------------------------------------------------

    /// Evaluate the branch on every active lane against `tmp` row 1 (or
    /// `r`, at `W == 1`); the first active lane's outcome is the consensus
    /// and disagreeing active lanes demote (they re-run at width 1). A
    /// single lane always agrees with itself.
    #[inline(always)]
    fn consensus_bool(&mut self, lhs: SlotId, op: BoolOp, r: f64) -> bool {
        if W == 1 {
            return apply_bool(self.bool_semantics, op, self.bs.scalars[lhs as usize], r);
        }
        let w = self.width();
        let base = lhs as usize * w;
        let mut consensus = None;
        for lane in 0..w {
            if !self.bs.active[lane] {
                continue;
            }
            let l = self.bs.scalars[base + lane];
            let r = self.bs.tmp[w + lane];
            let taken = apply_bool(self.bool_semantics, op, l, r);
            match consensus {
                None => consensus = Some(taken),
                Some(c) if c != taken => {
                    self.bs.active[lane] = false;
                    self.active_count -= 1;
                }
                _ => {}
            }
        }
        // The first active lane always stays active, so a consensus exists
        // whenever dispatch runs (active_count > 0 at entry).
        consensus.expect("dispatching with no active lanes")
    }

    /// Consensus on a loop bound read from an int slot. The consensus is
    /// over the *raw* slot value, not the clamped trip count, because the
    /// slot can be read again later (`LIndex::LoopMod`, nested bounds).
    fn consensus_int(&mut self, slot: IntSlotId) -> i64 {
        if W == 1 {
            return self.bs.ints[slot as usize];
        }
        let w = self.width();
        let base = slot as usize * w;
        let mut consensus = None;
        for lane in 0..w {
            if !self.bs.active[lane] {
                continue;
            }
            let v = self.bs.ints[base + lane];
            match consensus {
                None => consensus = Some(v),
                Some(c) if c != v => {
                    self.bs.active[lane] = false;
                    self.active_count -= 1;
                }
                _ => {}
            }
        }
        consensus.expect("dispatching with no active lanes")
    }

    // ----- regions (uniform control, row data) ------------------------------

    fn enter_region(&mut self, region: u32) -> Result<(), ExecError> {
        let ck = self.ck;
        let meta = &ck.regions[region as usize];
        let team = meta.num_threads.max(1);
        let rid = meta.region_id as usize;
        while self.stats.regions.len() <= rid {
            let id = self.stats.regions.len() as u32;
            self.stats.regions.push(RegionTrace::new(id, team));
        }
        let tr = &mut self.stats.regions[rid];
        tr.num_threads = team;
        if tr.per_thread.len() != team as usize {
            tr.per_thread = vec![ThreadWork::default(); team as usize];
        }
        tr.omp_for = meta.omp_for;
        tr.has_reduction = meta.reduction.is_some();
        tr.entries += 1;

        let recording = self.detect_races && !self.bs.region_analyzed[rid];
        if recording {
            let w = self.width();
            for d in self.bs.races.iter_mut().take(w) {
                d.begin_region(meta.region_id);
            }
            self.recording = true;
        }

        let w = self.width();
        {
            let BatchScratch {
                scalars,
                saved_slots,
                saved_vals,
                comp,
                comp_before,
                partials,
                ..
            } = &mut *self.bs;
            saved_slots.clear();
            saved_vals.clear();
            for &s in meta.private.iter().chain(&meta.firstprivate) {
                saved_slots.push(s);
                let base = s as usize * w;
                saved_vals.extend_from_slice(&scalars[base..base + w]);
            }
            comp_before[..w].copy_from_slice(&comp[..w]);
            partials.clear();
        }
        self.region = Some(RegionFrame {
            tid: 0,
            team,
            recording,
        });
        self.begin_thread(region, 0, team)
    }

    /// Fresh private rows, reduction identity, thread context, fork cost.
    fn begin_thread(&mut self, region: u32, tid: u32, team: u32) -> Result<(), ExecError> {
        let ck = self.ck;
        let meta = &ck.regions[region as usize];
        let w = self.width();
        {
            let BatchScratch {
                scalars,
                saved_slots,
                saved_vals,
                comp,
                ..
            } = &mut *self.bs;
            for &s in &meta.private {
                let base = s as usize * w;
                scalars[base..base + w].fill(0.0);
            }
            // The firstprivate tail doubles as the per-thread initializer.
            for (row, &s) in saved_slots.iter().enumerate().skip(meta.private.len()) {
                let base = s as usize * w;
                scalars[base..base + w].copy_from_slice(&saved_vals[row * w..row * w + w]);
            }
            if let Some(red) = meta.reduction {
                comp[..w].fill(red.identity());
            }
        }
        self.ctx = Some(ThreadCtx {
            tid,
            team,
            ..ThreadCtx::default()
        });
        self.charge_one(2)
    }

    /// Merge the finished thread; `true` means another thread should run
    /// (the caller jumps back to the region prelude).
    fn finish_thread(&mut self, region: u32) -> Result<bool, ExecError> {
        let ck = self.ck;
        let meta = &ck.regions[region as usize];
        let mut frame = self.region.take().expect("active region");
        let ctx = self.ctx.take().expect("thread context");
        let rid = meta.region_id as usize;
        let tw = &mut self.stats.regions[rid].per_thread[frame.tid as usize];
        tw.cycles += ctx.cycles;
        tw.ops += ctx.ops;
        tw.critical_acquisitions += ctx.critical_acquisitions;
        tw.critical_cycles += ctx.critical_cycles;
        let w = self.width();
        if meta.reduction.is_some() {
            let BatchScratch { comp, partials, .. } = &mut *self.bs;
            partials.extend_from_slice(&comp[..w]);
        }

        frame.tid += 1;
        if frame.tid < frame.team {
            let (tid, team) = (frame.tid, frame.team);
            self.region = Some(frame);
            self.begin_thread(region, tid, team)?;
            return Ok(true);
        }

        // Join: restore privatized rows, fold the reduction per lane in
        // thread order (the order the tree interpreter folds partials).
        {
            let BatchScratch {
                scalars,
                saved_slots,
                saved_vals,
                comp,
                comp_before,
                partials,
                ..
            } = &mut *self.bs;
            for (row, &s) in saved_slots.iter().enumerate() {
                let base = s as usize * w;
                scalars[base..base + w].copy_from_slice(&saved_vals[row * w..row * w + w]);
            }
            if let Some(op) = meta.reduction {
                for lane in 0..w {
                    let mut acc = comp_before[lane];
                    for t in 0..frame.team as usize {
                        acc = op.combine(acc, partials[t * w + lane]);
                    }
                    comp[lane] = acc;
                }
            }
        }
        if frame.recording {
            self.bs.region_analyzed[rid] = true;
            self.recording = false;
            let k = &ck.kernel;
            for d in self.bs.races.iter_mut().take(w) {
                d.end_region(&|loc| k.loc_name(loc));
            }
        }
        Ok(false)
    }

    // ----- the batched dispatch loop ----------------------------------------

    fn dispatch(&mut self) -> Result<(), ExecError> {
        if self.profile.is_some() {
            self.dispatch_loop::<true>()
        } else {
            self.dispatch_loop::<false>()
        }
    }

    /// Direct-threaded dispatch: the compiled stream carries every
    /// instruction's opcode index ([`CompiledKernel`]'s `opcodes` table),
    /// so the loop body is a fetch plus an indexed call through
    /// [`Self::BHANDLERS`] — no enum re-discrimination, and each handler
    /// is a leaf function the optimizer specializes in isolation. One
    /// fetch serves every lane; row applies happen inside the handlers.
    /// Dispatch counts note one opcode per fetch; block totals are scaled
    /// by the completed lane count at the end ([`ExecProfile`] stays
    /// truthful about per-lane work).
    fn dispatch_loop<const PROFILE: bool>(&mut self) -> Result<(), ExecError> {
        let ck = self.ck;
        let instrs = ck.instrs.as_slice();
        let opcodes = ck.opcodes.as_slice();
        let mut ip = 0usize;
        loop {
            let ins = &instrs[ip];
            let op = opcodes[ip] as usize;
            ip += 1;
            if PROFILE {
                if let Some(profile) = self.profile.as_deref_mut() {
                    profile.note_opcode(op);
                }
            }
            match Self::BHANDLERS[op](self, ins, &mut ip)? {
                Flow::Next => {}
                Flow::Halt => break,
            }
        }
        self.flush_block_stats();
        if PROFILE {
            let lanes = self.active_count as u64;
            let BatchVm { profile, bs, .. } = self;
            if let Some(profile) = profile.as_deref_mut() {
                profile.note_blocks(&bs.block_hits, &ck.blocks, lanes);
            }
        }
        Ok(())
    }
}

/// One opcode handler. `ip` already points past the instruction; jumping
/// handlers overwrite it with an absolute target.
type BHandler<const W: usize> = for<'v, 'c, 'b, 'p, 'i, 'x> fn(
    &'v mut BatchVm<'c, 'b, 'p, W>,
    &'i Instr,
    &'x mut usize,
) -> Result<Flow, ExecError>;

impl<'c, 'b, 'p, const W: usize> BatchVm<'c, 'b, 'p, W> {
    /// The batched handler table, indexed by
    /// [`crate::profile::opcode_index`] and monomorphized per width.
    const BHANDLERS: [BHandler<W>; crate::profile::OPCODE_COUNT] = [
        bh_charge::<W>,
        bh_binary::<W>,
        bh_call::<W>,
        bh_store_comp::<W>,
        bh_store_scalar::<W>,
        bh_store_comp_bin::<W>,
        bh_store_scalar_bin::<W>,
        bh_store_elem::<W>,
        bh_bool_test::<W>,
        bh_loop_start::<W>,
        bh_loop_next::<W>,
        bh_critical_enter::<W>,
        bh_critical_exit::<W>,
        bh_region_enter::<W>,
        bh_region_exit::<W>,
        bh_halt::<W>,
    ];
}

fn bh_charge<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::Charge(b) = ins else {
        unreachable!()
    };
    let ck = vm.ck;
    let idx = *b as usize;
    vm.charge_block(idx, &ck.blocks[idx])?;
    Ok(Flow::Next)
}

fn bh_binary<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::Binary { op, lhs, rhs } = ins else {
        unreachable!()
    };
    let v = vm.binary(*op, lhs, rhs);
    vm.push_row(v);
    Ok(Flow::Next)
}

fn bh_call<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::Call { func, arg } = ins else {
        unreachable!()
    };
    let a = vm.load(arg, 0);
    let v = vm.call_row(*func, a);
    vm.push_row(v);
    Ok(Flow::Next)
}

fn bh_store_comp<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::StoreComp { op, race, value } = ins else {
        unreachable!()
    };
    let v = vm.load(value, 0);
    vm.store_comp_row(*op, *race, v);
    Ok(Flow::Next)
}

fn bh_store_scalar<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::StoreScalar {
        slot,
        op,
        race,
        value,
    } = ins
    else {
        unreachable!()
    };
    let v = vm.load(value, 0);
    vm.store_scalar_row(*slot, *op, *race, v);
    Ok(Flow::Next)
}

fn bh_store_comp_bin<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::StoreCompBin {
        op,
        race,
        bin,
        lhs,
        rhs,
    } = ins
    else {
        unreachable!()
    };
    let v = vm.binary(*bin, lhs, rhs);
    vm.store_comp_row(*op, *race, v);
    Ok(Flow::Next)
}

fn bh_store_scalar_bin<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::StoreScalarBin {
        slot,
        op,
        race,
        bin,
        lhs,
        rhs,
    } = ins
    else {
        unreachable!()
    };
    let v = vm.binary(*bin, lhs, rhs);
    vm.store_scalar_row(*slot, *op, *race, v);
    Ok(Flow::Next)
}

fn bh_store_elem<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::StoreElem {
        array,
        index,
        op,
        race,
        value,
    } = ins
    else {
        unreachable!()
    };
    let v = vm.load(value, 0);
    vm.store_elem_rows(*array, *index, *op, *race, v);
    Ok(Flow::Next)
}

fn bh_bool_test<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::BoolTest {
        lhs,
        op,
        race,
        rhs,
        if_false,
    } = ins
    else {
        unreachable!()
    };
    let r = vm.load(rhs, 1);
    if *race && vm.recording {
        vm.record_uniform(Loc::Scalar(*lhs), false);
    }
    if vm.consensus_bool(*lhs, *op, r) {
        vm.stats.branches_taken += 1;
    } else {
        *ip = *if_false as usize;
    }
    Ok(Flow::Next)
}

fn bh_loop_start<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::LoopStart {
        counter,
        bound,
        omp_for,
        exit,
        body_block,
        bulk,
    } = ins
    else {
        unreachable!()
    };
    let ck = vm.ck;
    let raw = match bound {
        LBound::Const(n) => *n as i64,
        LBound::IntSlot(s) => vm.consensus_int(*s),
    };
    let n = raw.max(0) as u64;
    let (start, end) = match (&vm.ctx, omp_for) {
        (Some(c), true) => {
            // OpenMP static schedule: contiguous ceil(n/T).
            let team = c.team.max(1) as u64;
            let chunk = n.div_ceil(team);
            let start = (c.tid as u64) * chunk;
            (start.min(n), (start + chunk).min(n))
        }
        _ => (0, n),
    };
    if start >= end {
        *ip = *exit as usize;
    } else {
        vm.splat_counter(*counter, start as i64);
        let cur = vm.cur_loop;
        vm.bs.loops.push(cur);
        vm.cur_loop = LoopFrame {
            counter: *counter,
            i: start,
            end,
        };
        let idx = *body_block as usize;
        if *bulk {
            vm.charge_block_times(idx, &ck.blocks[idx], end - start)?;
        } else {
            vm.charge_block(idx, &ck.blocks[idx])?;
        }
    }
    Ok(Flow::Next)
}

fn bh_loop_next<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::LoopNext {
        body,
        body_block,
        bulk,
    } = ins
    else {
        unreachable!()
    };
    vm.cur_loop.i += 1;
    if vm.cur_loop.i < vm.cur_loop.end {
        let (counter, i) = (vm.cur_loop.counter, vm.cur_loop.i);
        vm.splat_counter(counter, i as i64);
        if !*bulk {
            let ck = vm.ck;
            let idx = *body_block as usize;
            vm.charge_block(idx, &ck.blocks[idx])?;
        }
        *ip = *body as usize;
    } else {
        vm.cur_loop = vm.bs.loops.pop().expect("active loop");
    }
    Ok(Flow::Next)
}

fn bh_critical_enter<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    _ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    if let Some(c) = &mut vm.ctx {
        c.crit_depth += 1;
    }
    Ok(Flow::Next)
}

fn bh_critical_exit<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    _ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    if let Some(c) = &mut vm.ctx {
        c.crit_depth -= 1;
    }
    Ok(Flow::Next)
}

fn bh_region_enter<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::RegionEnter { region } = ins else {
        unreachable!()
    };
    if vm.ctx.is_some() {
        // Nested region: execute inline on the current thread.
        vm.nested += 1;
    } else {
        vm.enter_region(*region)?;
    }
    Ok(Flow::Next)
}

fn bh_region_exit<const W: usize>(
    vm: &mut BatchVm<'_, '_, '_, W>,
    ins: &Instr,
    ip: &mut usize,
) -> Result<Flow, ExecError> {
    let Instr::RegionExit { region, prelude } = ins else {
        unreachable!()
    };
    if vm.nested > 0 {
        vm.nested -= 1;
    } else if vm.finish_thread(*region)? {
        *ip = *prelude as usize;
    }
    Ok(Flow::Next)
}

fn bh_halt<const W: usize>(
    _vm: &mut BatchVm<'_, '_, '_, W>,
    _ins: &Instr,
    _ip: &mut usize,
) -> Result<Flow, ExecError> {
    Ok(Flow::Halt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ExecLimits, ExecOptions};
    use crate::lower::lower;
    use ompfuzz_ast::{
        AssignOp, Assignment, Block, BlockItem, Expr, ForLoop, FpType, LValue, LoopBound,
        OmpClauses, OmpCritical, OmpParallel, Param, Program, ReductionOp, Stmt, VarRef,
    };

    fn both_engines(p: &Program, input: &TestInput, opts: &ExecOptions) {
        let kernel = lower(p).expect("lowers");
        let ck = CompiledKernel::compile(kernel.clone());
        let tree = crate::interp::run(&kernel, input, opts);
        let byte = run(&ck, input, opts, &mut ExecScratch::new());
        match (tree, byte) {
            (Ok(t), Ok(b)) => {
                assert_eq!(t.comp.to_bits(), b.comp.to_bits());
                assert_eq!(t.stats, b.stats);
                assert_eq!(t.races, b.races);
            }
            (Err(te), Err(be)) => assert_eq!(te, be),
            (t, b) => panic!("engines disagree: tree {t:?} vs bytecode {b:?}"),
        }
    }

    fn fp_input(values: Vec<f64>) -> TestInput {
        TestInput {
            comp_init: 1.5,
            values: values.into_iter().map(InputValue::Fp).collect(),
        }
    }

    #[test]
    fn parallel_reduction_with_critical_matches_tree() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    firstprivate: vec!["var_1".into()],
                    reduction: Some(ReductionOp::Add),
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F32,
                    name: "t".into(),
                    value: Expr::binary(
                        Expr::var("var_1"),
                        ompfuzz_ast::BinOp::Mul,
                        Expr::fp_const(3.0),
                    ),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(10),
                    body: Block(vec![BlockItem::Critical(OmpCritical {
                        body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::var("t"),
                        })]),
                    })]),
                },
            })]),
        );
        both_engines(&p, &fp_input(vec![2.5]), &ExecOptions::default());
        both_engines(
            &p,
            &fp_input(vec![2.5]),
            &ExecOptions::with_race_detection(),
        );
    }

    #[test]
    fn budget_exhaustion_is_engine_independent() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Const(100_000),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                })]),
            })]),
        );
        let input = fp_input(vec![1.0]);
        let kernel = lower(&p).unwrap();
        let ck = CompiledKernel::compile(kernel.clone());
        // Probe the exact total with the tree engine, then pin the
        // boundary: budget == total succeeds on both, total - 1 fails on
        // both.
        let big = ExecOptions::default();
        let total = big.limits.max_ops - {
            let mut bs = BatchScratch::default();
            bs.reset_for(&ck.kernel, ck.blocks.len(), 1);
            let mut vm = BatchVm::<1>::new(&ck, &big, &mut bs, None);
            vm.bind_lane(0, &input).unwrap();
            vm.dispatch().unwrap();
            vm.ops_left
        };
        for (budget, ok) in [(total, true), (total - 1, false), (total / 2, false)] {
            let opts = ExecOptions {
                limits: ExecLimits { max_ops: budget },
                ..ExecOptions::default()
            };
            let t = crate::interp::run(&kernel, &input, &opts);
            let b = run(&ck, &input, &opts, &mut ExecScratch::new());
            assert_eq!(t.is_ok(), ok, "tree at budget {budget}");
            assert_eq!(b.is_ok(), ok, "bytecode at budget {budget}");
            if !ok {
                assert!(matches!(
                    b.unwrap_err(),
                    ExecError::BudgetExceeded { max_ops } if max_ops == budget
                ));
            }
        }
    }

    #[test]
    fn legacy_racy_comp_reports_match_tree() {
        // Unprotected comp updates across a team: both engines report the
        // same races.
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F64,
                    name: "t".into(),
                    value: Expr::fp_const(0.0),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(16),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Comp,
                        op: AssignOp::AddAssign,
                        value: Expr::fp_const(1.0),
                    })]),
                },
            })]),
        );
        let input = fp_input(vec![0.0]);
        let kernel = lower(&p).unwrap();
        let ck = CompiledKernel::compile(kernel.clone());
        let opts = ExecOptions::with_race_detection();
        let b = run(&ck, &input, &opts, &mut ExecScratch::new()).unwrap();
        assert!(!b.races.is_empty());
        both_engines(&p, &input, &opts);
    }

    #[test]
    fn profiled_runs_are_bit_identical_and_fill_the_profile() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Const(50),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                })]),
            })]),
        );
        let input = fp_input(vec![1.25]);
        let opts = ExecOptions::default();
        let ck = CompiledKernel::compile(lower(&p).unwrap());

        let plain = run(&ck, &input, &opts, &mut ExecScratch::new()).unwrap();
        let mut scratch = ExecScratch::new();
        scratch.profile = Some(Box::default());
        let profiled = run(&ck, &input, &opts, &mut scratch).unwrap();
        assert_eq!(plain.comp.to_bits(), profiled.comp.to_bits());
        assert_eq!(plain.stats, profiled.stats);

        let profile = scratch.profile.as_ref().unwrap();
        assert_eq!(profile.runs(), 1);
        assert!(profile.total_dispatches() > 50);
        let counts: std::collections::HashMap<_, _> = profile.opcode_counts().collect();
        assert_eq!(counts["halt"], 1);
        assert_eq!(counts["loop_next"], 50);
        assert!(profile.blocks().iter().any(|b| b.hits > 0 && b.ops > 0));

        // A second run accumulates into the same profile.
        run(&ck, &input, &opts, &mut scratch).unwrap();
        assert_eq!(scratch.profile.as_ref().unwrap().runs(), 2);
    }

    #[test]
    fn input_mismatch_matches_tree() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::var("var_1"),
            })]),
        );
        let empty = TestInput {
            comp_init: 0.0,
            values: vec![],
        };
        both_engines(&p, &empty, &ExecOptions::default());
    }

    #[test]
    fn region_in_serial_loop_matches_tree() {
        // Case-study-2 shape: the region (and its trace bookkeeping,
        // including entries and per-thread accumulation) re-runs per outer
        // iteration.
        let region = Stmt::OmpParallel(OmpParallel {
            clauses: OmpClauses {
                private: vec!["var_1".into()],
                reduction: Some(ReductionOp::Add),
                num_threads: Some(3),
                ..OmpClauses::default()
            },
            prelude: vec![Stmt::Assign(Assignment {
                target: LValue::Var(VarRef::Scalar("var_1".into())),
                op: AssignOp::Assign,
                value: Expr::fp_const(0.0),
            })],
            body_loop: ForLoop {
                omp_for: true,
                var: "i".into(),
                bound: LoopBound::Const(7),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::fp_const(1.0),
                })]),
            },
        });
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "k".into(),
                bound: LoopBound::Const(5),
                body: Block::of_stmts(vec![region]),
            })]),
        );
        both_engines(&p, &fp_input(vec![0.0]), &ExecOptions::default());
        both_engines(
            &p,
            &fp_input(vec![0.0]),
            &ExecOptions::with_race_detection(),
        );
    }

    /// `run_batch` over `inputs` must equal the tree interpreter — the
    /// reference semantics — input by input, exactly.
    fn assert_batch_matches_tree(ck: &CompiledKernel, inputs: &[TestInput], opts: &ExecOptions) {
        let mut scratch = ExecScratch::new();
        let batched = run_batch(ck, inputs, opts, &mut scratch);
        assert_eq!(batched.len(), inputs.len());
        for (input, b) in inputs.iter().zip(&batched) {
            let t = crate::interp::run(&ck.kernel, input, opts);
            match (&t, b) {
                (Ok(t), Ok(b)) => {
                    assert_eq!(t.comp.to_bits(), b.comp.to_bits());
                    assert_eq!(t.stats, b.stats);
                    assert_eq!(t.races, b.races);
                }
                (Err(te), Err(be)) => assert_eq!(te, be),
                (t, b) => panic!("batch disagrees with the tree: {t:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn divergent_branches_demote_lanes_not_the_batch() {
        use ompfuzz_ast::{BoolExpr, BoolOp, IfBlock};
        // A branch on var_1 splits the batch: lanes below 1.0 take the if
        // body (which runs a loop, compounding the divergence), the rest
        // skip it. Demoted lanes must still come back bit-identical via
        // the width-1 re-run.
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![
                Stmt::If(IfBlock {
                    cond: BoolExpr {
                        lhs: VarRef::Scalar("var_1".into()),
                        op: BoolOp::Lt,
                        rhs: Expr::fp_const(1.0),
                    },
                    body: Block::of_stmts(vec![Stmt::For(ForLoop {
                        omp_for: false,
                        var: "i".into(),
                        bound: LoopBound::Const(9),
                        body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::var("var_1"),
                        })]),
                    })]),
                }),
                Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::MulAssign,
                    value: Expr::var("var_1"),
                }),
            ]),
        );
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let inputs: Vec<TestInput> = [0.25, 2.0, 0.75, 3.5, -1.0, 1.0]
            .iter()
            .map(|&v| fp_input(vec![v]))
            .collect();
        assert_batch_matches_tree(&ck, &inputs, &ExecOptions::default());
        assert_batch_matches_tree(&ck, &inputs, &ExecOptions::with_race_detection());
    }

    #[test]
    fn batched_profile_counts_fetches_once_and_lanes_fully() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Const(50),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                })]),
            })]),
        );
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let inputs: Vec<TestInput> = (0..4).map(|i| fp_input(vec![i as f64])).collect();
        let opts = ExecOptions::default();

        let mut scratch = ExecScratch::new();
        scratch.profile = Some(Box::default());
        let batched = run_batch(&ck, &inputs, &opts, &mut scratch);
        assert!(batched.iter().all(|r| r.is_ok()));

        let profile = scratch.profile.as_ref().unwrap();
        let counts: std::collections::HashMap<_, _> = profile.opcode_counts().collect();
        // Uniform control flow: one fetch per instruction for the whole
        // batch — NOT once per lane. That asymmetry is the speedup.
        assert_eq!(counts["loop_next"], 50);
        assert_eq!(counts["halt"], 1);
        // Per-lane work is still accounted in full: 4 runs, 4× block hits.
        assert_eq!(profile.runs(), 4);
        let single_hits: u64 = {
            let mut s = ExecScratch::new();
            s.profile = Some(Box::default());
            run(&ck, &inputs[0], &opts, &mut s).unwrap();
            s.profile
                .as_ref()
                .unwrap()
                .blocks()
                .iter()
                .map(|b| b.hits)
                .sum()
        };
        let batch_hits: u64 = profile.blocks().iter().map(|b| b.hits).sum();
        assert_eq!(batch_hits, 4 * single_hits);
    }

    #[test]
    fn batch_budget_exhaustion_hits_every_lane_like_scalar() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "i".into(),
                bound: LoopBound::Const(100_000),
                body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                    target: LValue::Comp,
                    op: AssignOp::AddAssign,
                    value: Expr::var("var_1"),
                })]),
            })]),
        );
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let inputs: Vec<TestInput> = (0..5).map(|i| fp_input(vec![i as f64])).collect();
        let opts = ExecOptions {
            limits: ExecLimits { max_ops: 1_000 },
            ..ExecOptions::default()
        };
        assert_batch_matches_tree(&ck, &inputs, &opts);
    }

    #[test]
    fn batch_regions_and_races_match_scalar() {
        // Region + reduction + critical: the uniform-control region
        // machinery (privatization rows, per-lane reduction folds, one
        // race detector per lane) against the tree interpreter.
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    firstprivate: vec!["var_1".into()],
                    reduction: Some(ReductionOp::Add),
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F32,
                    name: "t".into(),
                    value: Expr::binary(
                        Expr::var("var_1"),
                        ompfuzz_ast::BinOp::Mul,
                        Expr::fp_const(3.0),
                    ),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(10),
                    body: Block(vec![BlockItem::Critical(OmpCritical {
                        body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::var("t"),
                        })]),
                    })]),
                },
            })]),
        );
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let inputs: Vec<TestInput> = [2.5, -0.5, 1e300, f64::NAN]
            .iter()
            .map(|&v| fp_input(vec![v]))
            .collect();
        assert_batch_matches_tree(&ck, &inputs, &ExecOptions::default());
        assert_batch_matches_tree(&ck, &inputs, &ExecOptions::with_race_detection());
    }

    #[test]
    fn batch_width_one_and_empty_are_degenerate() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::AddAssign,
                value: Expr::var("var_1"),
            })]),
        );
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let mut scratch = ExecScratch::new();
        assert!(run_batch(&ck, &[], &ExecOptions::default(), &mut scratch).is_empty());
        let one = [fp_input(vec![4.25])];
        assert_batch_matches_tree(&ck, &one, &ExecOptions::default());
    }

    #[test]
    fn batch_lane_with_mismatched_input_fails_alone() {
        let p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::var("var_1"),
            })]),
        );
        let ck = CompiledKernel::compile(lower(&p).unwrap());
        let inputs = vec![
            fp_input(vec![1.0]),
            TestInput {
                comp_init: 0.0,
                values: vec![],
            },
            fp_input(vec![2.0]),
        ];
        assert_batch_matches_tree(&ck, &inputs, &ExecOptions::default());
    }
}

//! Metrics of one run and the result line the benchmark prints.

use crate::common::{job_seed, quantile, JobOutput, LoopRun, Workload};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Seed stream that picks which jobs the reference check recomputes.
const REFERENCE_STREAM: u64 = 0x2ef5_a3c1;

pub struct Report {
    workload: String,
    clients: usize,
    metrics: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    /// Operations attempted: timed jobs plus every check performed.
    attempted: u64,
    /// Failed jobs plus failed checks.
    failed: u64,
    /// Failed checks alone: any one makes the run incorrect.
    failed_checks: u64,
    notes: Vec<String>,
}

fn job_latencies_ms(run: &LoopRun) -> Vec<f64> {
    let mut v: Vec<f64> = run
        .jobs
        .iter()
        .map(|(_, j)| j.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn sum(run: &LoopRun, field: impl Fn(&JobOutput) -> u64) -> u64 {
    run.jobs.iter().map(|(_, j)| field(j)).sum()
}

impl Report {
    pub fn new(workload: &str, clients: usize) -> Report {
        Report {
            workload: workload.to_string(),
            clients,
            metrics: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            failed_checks: 0,
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }

    fn check(&mut self, what: String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// The end-to-end metrics of the untraced run.
    pub fn end_to_end(&mut self, setup_s: f64, run: &LoopRun, peak_rss_mb: f64) {
        let wall = run.wall.as_secs_f64();
        let jobs = run.jobs.len();
        let lat = job_latencies_ms(run);
        let failures = sum(run, |j| j.failures);
        self.attempted += jobs as u64;
        self.failed += failures;
        let mut m = |name: &str, value: f64, unit: &'static str| {
            self.metrics.push((name.to_string(), value, unit));
        };
        m("setup_s", setup_s, "s");
        m(
            "programs_per_s",
            sum(run, |j| j.programs) as f64 / wall,
            "1/s",
        );
        m(
            "outliers_per_s",
            sum(run, |j| j.outliers) as f64 / wall,
            "1/s",
        );
        m("jobs_per_s", jobs as f64 / wall, "1/s");
        m("job_latency_p50_ms", quantile(&lat, 0.5), "ms");
        m("job_latency_p90_ms", quantile(&lat, 0.9), "ms");
        m("peak_rss_mb", peak_rss_mb, "MB");
        let beyond_p90 = lat.len() - (lat.len() as f64 * 0.9).ceil() as usize;
        self.notes.push(format!(
            "jobs {jobs} (samples beyond p90: {beyond_p90}), wall {wall:.3} s, \
             {} clients, job failures {failures}",
            self.clients
        ));
        if beyond_p90 < 10 {
            self.notes.push(format!(
                "warning: only {beyond_p90} samples beyond p90; run longer for a stable p90"
            ));
        }
    }

    /// Recompute a seeded sample of jobs on the reference path and compare
    /// digests. `corrupt` flips every reference digest, so a run that
    /// still passes would show the check is vacuous.
    pub fn reference_checks(
        &mut self,
        workload: &dyn Workload,
        run: &LoopRun,
        seed: u64,
        corrupt: bool,
    ) {
        let n = run.jobs.len();
        let want = workload.reference_jobs().min(n);
        let mut picked: Vec<usize> = Vec::with_capacity(want);
        if want == n {
            picked.extend(0..n);
        }
        let mut draw = 0;
        while picked.len() < want {
            let pos = (job_seed(seed ^ REFERENCE_STREAM, draw) % n as u64) as usize;
            draw += 1;
            if !picked.contains(&pos) {
                picked.push(pos);
            }
        }
        picked.sort_unstable();
        for pos in picked {
            let (index, out) = &run.jobs[pos];
            let mut reference = workload.reference_digest(*index);
            if corrupt {
                reference ^= 1;
            }
            self.check(
                format!(
                    "job {index}: digest {:016x} != reference {reference:016x}",
                    out.digest
                ),
                out.digest == reference,
            );
        }
        self.notes
            .push(format!("reference checks: {want} of {n} jobs recomputed"));
    }

    /// Every traced job must reproduce its untraced digest.
    pub fn trace_checks(&mut self, untraced: &LoopRun, traced: &LoopRun) {
        self.check(
            format!(
                "traced run completed {} jobs, untraced {}",
                traced.jobs.len(),
                untraced.jobs.len()
            ),
            traced.jobs.len() == untraced.jobs.len(),
        );
        for ((i, a), (j, b)) in untraced.jobs.iter().zip(&traced.jobs) {
            self.check(
                format!("job {i}: traced digest differs from untraced"),
                i == j && a.digest == b.digest,
            );
        }
    }

    /// The per-layer metrics of the traced re-drive.
    pub fn per_layer(
        &mut self,
        tracer: &Tracer,
        untraced: &LoopRun,
        traced: &LoopRun,
        clients: usize,
    ) {
        let by_name = tracer.totals();
        let counts = tracer.counts();
        let busy = |name: &str| by_name.get(name).map_or(0.0, |t| t.busy_s);
        let calls = |name: &str| by_name.get(name).map_or(0, |t| t.calls);
        let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        // Mean duration of a span, in milliseconds.
        let mean_ms = |name: &str| ratio(busy(name) * 1e3, calls(name) as f64);

        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let mut m = |name: &str, value: f64, unit: &'static str| {
            out.push((name.to_string(), value, unit));
        };
        m("gen.generate_s", busy("gen"), "s");
        m("gen.programs", count("gen.programs"), "count");
        m("inputs.generate_s", busy("inputs"), "s");
        m("inputs.samples", count("inputs.samples"), "count");
        m("exec.compile_s", busy("exec.compile"), "s");
        m(
            "exec.instrs_per_kernel",
            ratio(count("exec.instrs"), count("exec.kernels")),
            "instrs",
        );
        m("exec.race_filter_s", busy("exec.race_filter"), "s");
        m(
            "exec.race_filter_hits",
            count("exec.race_filter_hits"),
            "count",
        );
        m(
            "exec.race_filter_no_verdict",
            count("exec.race_filter_no_verdict"),
            "count",
        );
        m("backends.compile_s", busy("backends.compile"), "s");
        m("backends.compiles", count("backends.compiles"), "count");
        m(
            "backends.compile_failures",
            count("backends.compile_failures"),
            "count",
        );
        m("backends.run_s", busy("backends.run"), "s");
        m("backends.runs", count("backends.runs"), "count");
        m("backends.vm_ops", count("backends.vm_ops"), "count");
        m(
            "backends.vm_ops_per_s",
            ratio(count("backends.vm_ops"), busy("backends.run")),
            "1/s",
        );
        m(
            "backends.budget_aborts",
            count("backends.budget_aborts"),
            "count",
        );
        m("outlier.analyze_s", busy("outlier"), "s");
        m("outlier.records", count("outlier.records"), "count");
        m("outlier.outliers", count("outlier.outliers"), "count");
        m("outlier.filtered", count("outlier.filtered"), "count");

        // Layer busy time: the spans directly below the job roots contain
        // every deeper span.
        let layer_busy = tracer.job_busy_s();
        let capacity = untraced.wall.as_secs_f64() * clients as f64;
        m("harness.efficiency", ratio(layer_busy, capacity), "ratio");
        m("harness.idle_s", (capacity - layer_busy).max(0.0), "s");

        m("reduce.reduce_s", busy("reduce"), "s");
        m("reduce.targets", calls("reduce") as f64, "count");
        m(
            "reduce.oracle_checks",
            count("reduce.oracle_checks"),
            "count",
        );
        m(
            "reduce.accepted_edits",
            count("reduce.accepted_edits"),
            "count",
        );
        m(
            "reduce.accept_ratio",
            ratio(
                count("reduce.accepted_edits"),
                count("reduce.oracle_checks"),
            ),
            "ratio",
        );
        m(
            "reduce.shrink_pct",
            ratio(count("reduce.shrink_pct_sum"), calls("reduce") as f64),
            "%",
        );
        m("corpus.mutate_s", busy("corpus.mutate"), "s");
        m("corpus.mutants", count("corpus.mutants"), "count");
        m("corpus.bias_s", busy("corpus.bias"), "s");
        m("corpus.merge_s", busy("corpus.merge"), "s");
        m(
            "corpus.new_skeletons",
            count("corpus.new_skeletons"),
            "count",
        );
        m(
            "corpus.checkpoint_write_s",
            busy("corpus.checkpoint_write"),
            "s",
        );
        m(
            "corpus.checkpoint_read_s",
            busy("corpus.checkpoint_read"),
            "s",
        );
        m(
            "corpus.checkpoint_bytes",
            count("corpus.checkpoint_bytes"),
            "bytes",
        );

        m("serve.submit_ms", mean_ms("serve.submit"), "ms");
        m("serve.queue_wait_ms", mean_ms("stream.queue_wait"), "ms");
        m(
            "serve.shard_ms",
            ratio(count("serve.shard_us"), count("serve.shards") * 1e3),
            "ms",
        );
        m("serve.merge_ms", mean_ms("stream.merge"), "ms");
        m("serve.spawns", count("serve.spawns"), "count");
        m("serve.retries", count("serve.retries"), "count");

        for (layer, prefix) in [
            ("gen", "gen"),
            ("inputs", "inputs"),
            ("exec", "exec."),
            ("backends", "backends."),
            ("outlier", "outlier"),
            ("reduce", "reduce"),
            ("corpus", "corpus."),
            ("serve", "serve."),
            ("job", "job"),
        ] {
            let self_s = by_name
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .fold(0.0, |acc, (_, t)| acc + t.self_s);
            m(&format!("self.{layer}_s"), self_s, "s");
        }
        let untraced_s = untraced.wall.as_secs_f64();
        let traced_s = traced.wall.as_secs_f64();
        m("trace.untraced_wall_s", untraced_s, "s");
        m("trace.traced_wall_s", traced_s, "s");
        m(
            "trace.overhead_pct",
            100.0 * ratio(traced_s - untraced_s, untraced_s),
            "%",
        );
        m("trace.spans", tracer.span_count() as f64, "count");
        self.layers = out;
        let per_span: BTreeMap<&str, u64> = by_name.iter().map(|(k, v)| (*k, v.calls)).collect();
        self.notes.push(format!("span calls: {per_span:?}"));
    }

    /// Print the human-readable table, then the result line.
    pub fn print(&self, traced: bool) {
        println!("workload {}", self.workload);
        for note in &self.notes {
            println!("  {note}");
        }
        let failed_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        for (name, value, unit) in self.metrics.iter().chain(&self.layers) {
            println!("  {name:<30} {value:>16.6} {unit}");
        }
        println!("  {:<30} {failed_frac:>16.6} fraction", "failed_frac");
        let shown = if traced { &self.layers } else { &self.metrics };
        let fields: Vec<String> = shown
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

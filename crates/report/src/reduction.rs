//! Rendering of reduction results: the summary table behind
//! `ompfuzz reduce`.

use crate::table::TextTable;
use ompfuzz_reduce::ReductionOutcome;

/// The reduction summary: original vs. reduced size, shrink percentage,
/// oracle spend (checks run and verdicts answered from the memo), and the
/// per-pass breakdown.
pub fn render_reduction_summary(outcome: &ReductionOutcome, labels: &[String]) -> String {
    let backend = labels
        .get(outcome.verdict.backend)
        .map(String::as_str)
        .unwrap_or("?");

    let mut summary = TextTable::new(vec!["metric", "value"]).with_title("REDUCTION SUMMARY");
    summary.push_row(vec![
        "verdict preserved".to_string(),
        format!("{} on {backend}", outcome.verdict.kind.label()),
    ]);
    summary.push_row(vec![
        "statements".to_string(),
        format!("{} -> {}", outcome.original_stmts, outcome.reduced_stmts),
    ]);
    summary.push_row(vec![
        "shrink".to_string(),
        format!("{:.1}%", outcome.shrink_percent()),
    ]);
    summary.push_row(vec![
        "oracle checks".to_string(),
        outcome.oracle_checks.to_string(),
    ]);
    summary.push_row(vec!["memo hits".to_string(), outcome.memo_hits.to_string()]);
    summary.push_row(vec![
        "fixpoint rounds".to_string(),
        outcome.rounds.to_string(),
    ]);

    let mut passes = TextTable::new(vec!["pass", "accepted", "checks", "memo hits"])
        .with_title("PASS BREAKDOWN");
    for p in &outcome.passes {
        passes.push_row(vec![
            p.pass.to_string(),
            p.accepted.to_string(),
            p.checks.to_string(),
            p.memo_hits.to_string(),
        ]);
    }

    format!("{}\n{}", summary.render(), passes.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::{standard_backends, OmpBackend};
    use ompfuzz_harness::caselib;
    use ompfuzz_outlier::OutlierKind;
    use ompfuzz_reduce::{ReduceConfig, Reducer, ReductionTarget, Verdict};

    #[test]
    fn summary_contains_the_headline_numbers() {
        let program = caselib::case_study_3(6000, 32);
        let input = caselib::case_study_input(&program);
        let target = ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0));
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let outcome = Reducer::new(&dyns, ReduceConfig::default()).reduce(&target);

        let labels = vec!["Intel".to_string(), "Clang".to_string(), "GCC".to_string()];
        let text = render_reduction_summary(&outcome, &labels);
        assert!(text.contains("REDUCTION SUMMARY"), "{text}");
        assert!(text.contains("Hang on Intel"), "{text}");
        assert!(
            text.contains(&format!(
                "{} -> {}",
                outcome.original_stmts, outcome.reduced_stmts
            )),
            "{text}"
        );
        assert!(text.contains("memo hits"), "{text}");
        assert!(text.contains("ddmin"), "{text}");
        assert!(text.contains("loop-trips"), "{text}");
    }
}

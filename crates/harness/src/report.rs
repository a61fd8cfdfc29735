//! Rendering for [`Verdict`]s and [`SweepReport`]s: aligned Markdown
//! tables for humans, and one small hand-rolled JSON serializer shared by
//! every experiment binary's `--json` mode so CI and bench tracking can
//! diff runs.

use std::time::Duration;

use crate::scenario::{RunStats, SweepReport, Verdict};

/// Renders an aligned Markdown table (used by every experiment binary so
/// outputs can be pasted into `EXPERIMENTS.md` verbatim).
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:w$} |", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Escapes a string for inclusion in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt_bool(v: Option<bool>) -> String {
    match v {
        Some(true) => "true".into(),
        Some(false) => "false".into(),
        None => "null".into(),
    }
}

fn json_opt_str(v: Option<&str>) -> String {
    match v {
        Some(s) => format!("\"{}\"", esc(s)),
        None => "null".into(),
    }
}

fn sched_json(s: &crate::sched::SchedStats) -> String {
    let per_worker: Vec<String> = s.per_worker_expansions.iter().map(u64::to_string).collect();
    format!(
        "{{\"workers\":{},\"steals\":{},\"steal_failures\":{},\
         \"parks\":{},\"flush_batches\":{},\"per_worker_expansions\":[{}]}}",
        s.workers,
        s.steals,
        s.steal_failures,
        s.parks,
        s.flush_batches,
        per_worker.join(","),
    )
}

fn stats_json(s: &RunStats) -> String {
    format!(
        "{{\"executions\":{},\"resolved_ops\":{},\"crashes\":{},\
         \"recovered_ok\":{},\"recovered_failed\":{},\
         \"recovered_unresolved\":{},\"steps\":{},\
         \"persists\":{},\"distinct_configs\":{},\"theorem_bound\":{},\
         \"truncated\":{},\"shared_bits\":{},\"private_bits\":{},\
         \"peak_resident_bytes\":{},\"spilled_bytes\":{},\"sched\":{}}}",
        s.executions,
        s.resolved_ops,
        s.crashes,
        s.recovered_ok,
        s.recovered_failed,
        s.recovered_unresolved,
        s.steps,
        s.persists,
        s.distinct_configs,
        s.theorem_bound,
        s.truncated,
        s.shared_bits,
        s.private_bits,
        s.peak_resident_bytes,
        s.spilled_bytes,
        sched_json(&s.sched),
    )
}

impl Verdict {
    /// Serializes the verdict as one JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_with("")
    }

    /// The verdict's JSON object with `extra` (`,"key":value` pairs)
    /// appended after its own fields.
    fn to_json_with(&self, extra: &str) -> String {
        format!(
            "{{\"object\":\"{}\",\"kind\":\"{:?}\",\"mode\":\"{}\",\
             \"detectable\":{},\"passed\":{},\"linearizable\":{},\
             \"bound_met\":{},\"violation\":{},\"witness\":{},\"stats\":{}{}}}",
            esc(&self.object),
            self.kind,
            self.mode.tag(),
            self.detectable,
            self.passed,
            json_opt_bool(self.linearizable),
            json_opt_bool(self.bound_met),
            json_opt_str(self.violation.as_deref()),
            json_opt_str(
                self.witness
                    .as_ref()
                    .map(crate::perturb::render_witness)
                    .as_deref()
            ),
            stats_json(&self.stats),
            extra,
        )
    }
}

/// Serializes a slice of verdicts as a JSON array (the `--json` output of
/// the per-row experiment binaries).
pub fn verdicts_to_json(verdicts: &[Verdict]) -> String {
    let rows: Vec<String> = verdicts.iter().map(Verdict::to_json).collect();
    format!("[{}]", rows.join(","))
}

/// Serializes the census table's `--json` document: the worker-thread count
/// the BFS rows ran under plus the verdict stream, each row carrying the
/// wall time of its census in milliseconds (`wall_ms`, beside `stats`).
/// `census_table` emits it and the `census_throughput` baseline embeds it,
/// so CI can diff the live schema against the committed
/// `BENCH_census.json`.
pub fn census_table_json(threads: usize, rows: &[(Verdict, Duration)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(v, wall)| v.to_json_with(&format!(",\"wall_ms\":{:.3}", wall.as_secs_f64() * 1e3)))
        .collect();
    format!(
        "{{\"threads\":{},\"verdicts\":[{}]}}",
        threads,
        rows.join(",")
    )
}

impl SweepReport {
    /// Serializes the report: per-object aggregate rows plus grand totals
    /// (per-cell verdicts are summarized, not dumped — a thousand-seed
    /// sweep stays diffable).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .by_object()
            .iter()
            .map(|r| {
                format!(
                    "{{\"object\":\"{}\",\"runs\":{},\"failures\":{},\"stats\":{}}}",
                    esc(&r.object),
                    r.runs,
                    r.failures,
                    stats_json(&r.stats)
                )
            })
            .collect();
        format!(
            "{{\"cells\":{},\"failures\":{},\"by_object\":[{}],\"totals\":{}}}",
            self.cells.len(),
            self.failures(),
            rows.join(","),
            stats_json(&self.totals()),
        )
    }

    /// Renders the per-object aggregate table as Markdown.
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .by_object()
            .iter()
            .map(|r| {
                vec![
                    r.object.clone(),
                    r.runs.to_string(),
                    r.stats.resolved_ops.to_string(),
                    r.stats.crashes.to_string(),
                    r.stats.persists.to_string(),
                    if r.failures == 0 {
                        "0 (clean)".into()
                    } else {
                        format!("{} FAILURES", r.failures)
                    },
                ]
            })
            .collect();
        markdown_table(
            &[
                "object",
                "runs",
                "resolved ops",
                "crashes",
                "persists",
                "failures",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Sweep};
    use crate::sim::SimConfig;
    use crate::workload::Workload;
    use detectable::ObjectKind;

    #[test]
    fn markdown_table_formats() {
        let t = markdown_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("| name "));
        assert!(t.contains("| long-name |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn verdict_json_is_well_formed() {
        let v = Scenario::object(ObjectKind::Cas).space();
        let json = v.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"mode\":\"space\""));
        assert!(json.contains("\"shared_bits\":34"));
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        assert_eq!(esc("a\"b\nc"), "a\\\"b\\nc");
    }

    #[test]
    fn sweep_json_aggregates() {
        let report = Sweep::new(
            Scenario::object(ObjectKind::Register)
                .processes(2)
                .workload(Workload::mixed(2)),
        )
        .seeds(0..3)
        .simulate(&SimConfig::default());
        let json = report.to_json();
        assert!(json.contains("\"cells\":3"));
        assert!(json.contains("\"failures\":0"));
        let md = report.to_markdown();
        assert!(md.contains("0 (clean)"));
    }
}

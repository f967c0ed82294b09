//! `gen-expected`: write `expected/sizes.json`, the integer per-level
//! counts of every Figure 11 size and every even Figure 12 size.
//!
//! The counts come from scalar replay (`trace_gen::simulate_steady_with`
//! with the fast path off), not from the run-length or analytic engines
//! the workloads exercise, and every row is cross-checked against the
//! committed `results/fig11.txt` and `results/fig12.txt` tables before the
//! file is written.

use crate::workloads::{fig11, fig12, Output, SizeKernel, FIG11_SIZES, FIG12_SIZES, PACKAGE_DIR};
use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::execute;
use mlc_core::rescache::report_from_json;
use mlc_experiments::sim::{TIMED, WARMUP};
use mlc_model::trace_gen::simulate_steady_with;
use mlc_model::{DataLayout, Program};
use mlc_telemetry::json::JsonValue;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn scalar(p: &Program, l: &DataLayout, h: &HierarchyConfig) -> MissRateReport {
    simulate_steady_with(p, l, h, WARMUP, TIMED, false)
}

/// Compute, cross-check and write the size references to `out`.
pub fn gen_expected(out: &Path, threads: usize) -> Result<(), String> {
    let fig11_items: Vec<(SizeKernel, usize)> = [SizeKernel::Expl, SizeKernel::Shal]
        .into_iter()
        .flat_map(|k| FIG11_SIZES.map(move |n| (k, n)))
        .collect();
    let fig12_items: Vec<usize> = FIG12_SIZES.step_by(2).collect();
    eprintln!(
        "gen-expected: {} Figure 11 and {} Figure 12 sizes by scalar replay on {threads} threads ...",
        fig11_items.len(),
        fig12_items.len()
    );
    let (fig11_out, _) = execute(fig11_items, threads, |&(k, n)| fig11(k, n, &scalar));
    let (fig12_out, _) = execute(fig12_items, threads, |&n| fig12(n, &scalar));

    let results = PathBuf::from(PACKAGE_DIR).join("../results");
    let read = |f: &str| {
        let p = results.join(f);
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let mut problems = check_fig11(&fig11_out, &read("fig11.txt")?);
    problems.extend(check_fig12(&fig12_out, &read("fig12.txt")?));
    if !problems.is_empty() {
        return Err(format!(
            "{} rows disagree with the committed figure tables:\n{}",
            problems.len(),
            problems.join("\n")
        ));
    }

    let rows = |outs: &[Output]| {
        outs.iter()
            .map(|o| format!("    {}", o.payload.to_string_compact()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let text = format!(
        "{{\n  \"format\": 1,\n  \"hierarchy\": \"ultrasparc_i\",\n  \"engine\": \"scalar replay\",\n  \
         \"fig11\": [\n{}\n  ],\n  \"fig12\": [\n{}\n  ]\n}}\n",
        rows(&fig11_out),
        rows(&fig12_out)
    );
    std::fs::write(out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("gen-expected: wrote {}", out.display());
    Ok(())
}

fn report(o: &Output, k: &str) -> Result<MissRateReport, String> {
    report_from_json(
        o.payload
            .get(k)
            .ok_or_else(|| format!("payload has no {k:?}"))?,
    )
}

fn count(o: &Output, path: &[&str]) -> i64 {
    path.iter()
        .try_fold(&o.payload, |v, k| v.get(k))
        .and_then(JsonValue::as_u64)
        .expect("payload built by workloads::fig12") as i64
}

/// Table rows by their first column, keyed by `section` (the text after
/// `Figure 11 — ` up to the colon, or "" before any heading).
fn table_rows(text: &str) -> HashMap<(String, usize), Vec<String>> {
    let mut section = String::new();
    let mut rows = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("Figure 11 — ") {
            section = rest.split(':').next().unwrap_or("").to_string();
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 5 {
            continue;
        }
        if let Ok(n) = cols[0].parse::<usize>() {
            rows.insert(
                (section.clone(), n),
                cols[1..].iter().map(|c| c.to_string()).collect(),
            );
        }
    }
    rows
}

fn check_fig11(outs: &[Output], text: &str) -> Vec<String> {
    let table = table_rows(text);
    let pct = |r: &MissRateReport, level| format!("{:.2}", 100.0 * r.miss_rate(level));
    outs.iter()
        .filter_map(|o| {
            let kernel = o.payload.get("kernel")?.as_str()?.to_string();
            let n = o.payload.get("n")?.as_u64()? as usize;
            let (r1, r2) = match (report(o, "l1"), report(o, "l1l2")) {
                (Ok(a), Ok(b)) => (a, b),
                _ => return Some(format!("fig11 {kernel} N={n}: unreadable payload")),
            };
            let got = vec![pct(&r1, 0), pct(&r2, 0), pct(&r1, 1), pct(&r2, 1)];
            match table.get(&(kernel.clone(), n)) {
                Some(want) if *want == got => None,
                Some(want) => Some(format!(
                    "fig11 {kernel} N={n}: table {want:?}, replay {got:?}"
                )),
                None => Some(format!("fig11 {kernel} N={n}: no table row")),
            }
        })
        .collect()
}

fn check_fig12(outs: &[Output], text: &str) -> Vec<String> {
    let table = table_rows(text);
    outs.iter()
        .filter_map(|o| {
            let n = count(o, &["n"]) as usize;
            let (before, after) = match (report(o, "before"), report(o, "after")) {
                (Ok(a), Ok(b)) => (a, b),
                _ => return Some(format!("fig12 N={n}: unreadable payload")),
            };
            // Normalized to the original reference count, as `fig12` does.
            let after = after.normalized_to(before.total_references);
            let delta =
                |k: &str| count(o, &["account_after", k]) - count(o, &["account_before", k]);
            let rate = |level| {
                format!(
                    "{:+.3}%",
                    100.0 * (after.miss_rate(level) - before.miss_rate(level))
                )
            };
            let got = vec![
                format!("{:+}", delta("l2_refs")),
                format!("{:+}", delta("memory_refs")),
                rate(0),
                rate(1),
            ];
            match table.get(&(String::new(), n)) {
                Some(want) if *want == got => None,
                Some(want) => Some(format!("fig12 N={n}: table {want:?}, replay {got:?}")),
                None => Some(format!("fig12 N={n}: no table row")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_tables_parse_by_section_and_size() {
        let text = "Figure 11 — EXPL: miss rates (%) over problem size\n\
                    N    L1 w/L1Opt  L1 w/L1&L2  L2 w/L1Opt  L2 w/L1&L2\n\
                    ---------------------------------------------------\n\
                    250       10.64       10.64        5.32        5.27\n\
                    largest L2 gap (L1Opt - L1&L2Opt): 1.70% at N=256\n\
                    Figure 11 — SHAL: miss rates (%) over problem size\n\
                    250        9.01        9.01        4.00        3.90\n";
        let rows = table_rows(text);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[&("EXPL".to_string(), 250)],
            ["10.64", "10.64", "5.32", "5.27"]
        );
        assert_eq!(rows[&("SHAL".to_string(), 250)][3], "3.90");
        let fig12 = table_rows("N    dL2refs  dMemRefs  dL1 rate  dL2 rate\n250       +3        -3   -0.011%   -0.946%\n");
        assert_eq!(
            fig12[&(String::new(), 250)],
            ["+3", "-3", "-0.011%", "-0.946%"]
        );
    }
}

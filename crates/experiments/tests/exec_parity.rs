//! Determinism of the work-stealing executor: whatever the thread count,
//! whatever the steal pattern, sweep output must be byte-identical.
//!
//! Two layers of evidence:
//! * the real sweep path — `run_cells` over the smoke grid rendered through
//!   `render_tables` — compared byte-for-byte at 1 vs many threads;
//! * a seeded fuzz-oracle pass — generated (program, layout, hierarchy)
//!   cases simulated through the executor at 1 vs many threads, comparing
//!   the serialized miss reports bit-for-bit.
//!
//! The release CI sweep-cache job repeats the first check on the full
//! conflict grid: an uncached `sweep --grid conflict --threads 1` must
//! `cmp` equal to the default-thread run.

use mlc_core::exec::execute;
use mlc_core::rescache::report_to_json;
use mlc_experiments::sweep::{grid_cells, render_tables, run_cells, GridKind};
use mlc_fuzz::{Case, CaseConfig};

/// A deliberately over-subscribed "max" for the parity runs: far more
/// workers than the grid has cells on most machines, so chunk claiming and
/// stealing genuinely interleave.
const MAX_THREADS: usize = 8;

#[test]
fn smoke_sweep_is_byte_identical_across_thread_counts() {
    let cells = grid_cells(GridKind::Smoke);
    let (serial, _) = run_cells(&cells, 1, None);
    let (parallel, _) = run_cells(&cells, MAX_THREADS, None);
    assert_eq!(
        render_tables(&serial, false),
        render_tables(&parallel, false),
        "table output must not depend on the thread count"
    );
    assert_eq!(
        render_tables(&serial, true),
        render_tables(&parallel, true),
        "CSV output must not depend on the thread count"
    );
}

#[test]
fn seeded_fuzz_cases_simulate_identically_across_thread_counts() {
    // Valid-by-construction generated cases: arbitrary programs, layouts,
    // and hierarchies — not just the curated kernels the sweep grid runs.
    let cfg = CaseConfig::default();
    let cases: Vec<Case> = (0..24).map(|seed| Case::generate(seed, &cfg)).collect();
    for c in &cases {
        c.validate().expect("generated cases are valid");
    }

    let simulate = |c: &Case| {
        let report = mlc_experiments::sim::simulate_cold(&c.program, &c.layout(), &c.hierarchy);
        report_to_json(&report).to_string_compact()
    };
    let (serial, _) = execute(cases.clone(), 1, simulate);
    let (parallel, _) = execute(cases.clone(), MAX_THREADS, simulate);
    assert_eq!(serial.len(), cases.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "seed {}: serialized miss report differs between 1 and {MAX_THREADS} threads",
            cases[i].seed
        );
    }
}

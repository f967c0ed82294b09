//! Table 1: test programs for experiments.
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin table1
//! ```

use mlc_experiments::{reject_unknown_args, Table, TelemetryCli};
use mlc_kernels::{all_kernels, Suite};

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &[], &[]);
    let tel = &mut tcli.telemetry;
    println!("Table 1: Test programs for experiments\n");
    for suite in [Suite::Kernels, Suite::Nas, Suite::Spec95] {
        println!("{}", suite.label());
        let span = tel.tracer.begin("table1.suite");
        tel.tracer.attr(span, "suite", suite.label());
        let mut t = Table::new(&[
            "Program",
            "Description",
            "Lines",
            "Arrays",
            "Nests",
            "Refs/sweep",
        ]);
        for k in all_kernels().into_iter().filter(|k| k.suite() == suite) {
            let model = k.model();
            let refs = model
                .const_references()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "triangular".to_string());
            t.row(vec![
                k.name(),
                k.description().to_string(),
                k.source_lines().to_string(),
                model.arrays.len().to_string(),
                model.nests.len().to_string(),
                refs,
            ]);
            tel.metrics.count("table1.programs", 1);
        }
        tel.tracer.end(span);
        println!("{}", t.render());
    }
    println!("Lines = source lines of the original Fortran program (per the paper's Table 1).");
    println!("Arrays/Nests/Refs describe this reproduction's loop-nest model of one sweep.");
}

//! The layout-competitor table: searched Morton words and cache-oblivious
//! tiling against the paper's best padding.
//!
//! Runs every cell of the layout grid (`mlc_experiments::layout_sweep`)
//! and prints the canonical competitor table, whose exact miss counts the
//! layout golden tables pin (`docs/LAYOUTS.md`).
//!
//! ```text
//! layout_search [--grid smoke|full] [--csv]
//! ```
//!
//! Any other argument, or an option given twice, exits 2 naming it.

use mlc_experiments::layout_sweep::{render_layout_tables, run_layout_cells, LayoutGridKind};
use mlc_experiments::reject_unknown_args;

fn usage_error(msg: &str) -> ! {
    eprintln!("layout_search: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_args(&args, &["--csv"], &["--grid"]);
    let grid = match args.iter().position(|a| a == "--grid") {
        None => LayoutGridKind::Full,
        Some(i) => {
            let g = args.get(i + 1).map_or("", String::as_str);
            LayoutGridKind::from_arg(g)
                .unwrap_or_else(|| usage_error(&format!("--grid needs smoke|full, got {g:?}")))
        }
    };
    let csv = args.iter().any(|a| a == "--csv");
    print!("{}", render_layout_tables(&run_layout_cells(grid), csv));
}

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

use mlc_experiments::layout_sweep::{render_layout_tables, run_layout_cells, LayoutGridKind};

fn usage_error(msg: &str) -> ! {
    eprintln!("layout_search: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut grid = LayoutGridKind::Full;
    let mut csv = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--grid" => {
                let g = args.next().unwrap_or_default();
                grid = LayoutGridKind::from_arg(&g)
                    .unwrap_or_else(|| usage_error(&format!("--grid needs smoke|full, got {g:?}")));
            }
            "--csv" => csv = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    print!("{}", render_layout_tables(&run_layout_cells(grid), csv));
}

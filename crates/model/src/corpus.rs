//! Line-oriented serialization of [`Case`]s: the regression-corpus file
//! format and the `mlc-serve` wire format.
//!
//! Shrunk fuzz reproducers are committed under `tests/corpus/*.case` and
//! replayed by the tier-1 suite forever, and the same text is what clients
//! POST to the `mlc-serve` HTTP endpoints (`docs/SERVING.md`). The format
//! is deliberately hand-editable — whitespace-separated fields, one
//! construct per line, `#` comments — and restricted to what the
//! generators produce: constant loop bounds, affine subscripts, LRU
//! replacement.
//!
//! ```text
//! # severe-count mismatch, found by seed 1234, shrunk from 4a/3n/14r/3L
//! seed 1234
//! oracle severe-count-differential
//! level 1024 32 1 6
//! level 8192 64 1 50
//! array A 8 16,18 0,0 32
//! nest n0
//! loop i 2 9 1
//! ref r 0 0,i,1;3
//! end
//! ```
//!
//! `array` fields are name, element size, comma-joined extents, comma-joined
//! intra-variable pads, and the inter-variable pad in bytes. A subscript is
//! `constant[,var,coeff]...`; subscripts are `;`-joined on the `ref` line.
//!
//! An optional `layout <array-index> morton <word>` line (after the array
//! declarations) switches that array to a generalized Morton layout with
//! the given comma-joined interleave word (`docs/LAYOUTS.md`); arrays
//! without a `layout` line stay row-of-columns linear.

use crate::case::Case;
use crate::expr::AffineExpr;
use crate::layout::LayoutFamily;
use crate::nest::{Loop, LoopNest};
use crate::{ArrayDecl, ArrayRef, DataLayout, Program};
use mlc_cache_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use std::path::Path;

/// Serialize a case (with the oracle that fired on it, when known).
///
/// Errors when the case uses a shape the format cannot express — today
/// that is only non-constant loop bounds.
pub fn write_case(case: &Case, oracle: Option<&str>) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(&format!(
        "# mlc-fuzz reproducer ({})\n",
        case.size_summary()
    ));
    out.push_str(&format!("seed {}\n", case.seed));
    out.push_str(&format!("program {}\n", case.program.name));
    if let Some(o) = oracle {
        out.push_str(&format!("oracle {o}\n"));
    }
    for (c, &pen) in case
        .hierarchy
        .levels
        .iter()
        .zip(&case.hierarchy.miss_penalty)
    {
        out.push_str(&format!(
            "level {} {} {} {}\n",
            c.size, c.line, c.associativity, pen
        ));
    }
    for (a, &pad) in case.program.arrays.iter().zip(&case.pads) {
        out.push_str(&format!(
            "array {} {} {} {} {}\n",
            a.name,
            a.elem_size,
            join(&a.dims),
            join(&a.dim_pad),
            pad
        ));
    }
    for (i, fam) in case.families.iter().enumerate() {
        if let LayoutFamily::Morton(word) = fam {
            out.push_str(&format!("layout {i} morton {}\n", join(word)));
        }
    }
    for nest in &case.program.nests {
        out.push_str(&format!("nest {}\n", nest.name));
        for l in &nest.loops {
            let (lo, hi) = const_bounds(l).ok_or_else(|| {
                format!(
                    "loop {} of nest {} has non-constant bounds",
                    l.var, nest.name
                )
            })?;
            out.push_str(&format!("loop {} {} {} {}\n", l.var, lo, hi, l.step));
        }
        for r in &nest.body {
            let subs: Vec<String> = r.subscripts.iter().map(expr_to_string).collect();
            out.push_str(&format!(
                "ref {} {} {}\n",
                if r.is_write() { "w" } else { "r" },
                r.array,
                subs.join(";")
            ));
        }
        out.push_str("end\n");
    }
    Ok(out)
}

/// Parse a case; returns it with the recorded oracle name, if any.
pub fn parse_case(text: &str) -> Result<(Case, Option<String>), String> {
    let mut seed = 0u64;
    let mut oracle = None;
    let mut levels: Vec<CacheConfig> = Vec::new();
    let mut penalties: Vec<f64> = Vec::new();
    let mut program = Program::new("corpus");
    let mut pads: Vec<u64> = Vec::new();
    let mut families: Vec<LayoutFamily> = Vec::new();
    let mut nest: Option<(String, Vec<Loop>, Vec<ArrayRef>)> = None;
    let mut names: Vec<String> = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", ln + 1);
        let mut f = line.split_whitespace();
        let keyword = f.next().unwrap();
        let rest: Vec<&str> = f.collect();
        match keyword {
            "seed" => {
                seed = field(&rest, 0, "seed").map_err(err)?;
            }
            "program" => {
                program.name = rest
                    .first()
                    .ok_or_else(|| err("program needs a name".into()))?
                    .to_string();
            }
            "oracle" => {
                oracle = Some(
                    rest.first()
                        .ok_or_else(|| err("oracle needs a name".into()))?
                        .to_string(),
                );
            }
            "level" => {
                let size: usize = field(&rest, 0, "size").map_err(&err)?;
                let l: usize = field(&rest, 1, "line").map_err(&err)?;
                let assoc: usize = field(&rest, 2, "associativity").map_err(&err)?;
                let pen: f64 = field(&rest, 3, "penalty").map_err(&err)?;
                if !(pen.is_finite() && pen >= 0.0) {
                    return Err(err(format!(
                        "miss penalty {pen} is not a finite non-negative number"
                    )));
                }
                levels.push(
                    CacheConfig::try_new(size, l, assoc, ReplacementPolicy::Lru).map_err(&err)?,
                );
                penalties.push(pen);
            }
            "array" => {
                let name = *rest
                    .first()
                    .ok_or_else(|| err("array needs a name".into()))?;
                let elem: usize = field(&rest, 1, "element size").map_err(&err)?;
                let dims = list(&rest, 2, "dims").map_err(&err)?;
                let dim_pad: Vec<usize> = list(&rest, 3, "dim pads").map_err(&err)?;
                let pad: u64 = field(&rest, 4, "inter-pad").map_err(&err)?;
                if elem == 0 || dims.is_empty() || dims.contains(&0) {
                    return Err(err(format!("array {name}: illegal shape")));
                }
                if names.iter().any(|n| n == name) {
                    return Err(err(format!("duplicate array name {name}")));
                }
                names.push(name.to_string());
                let mut decl = ArrayDecl::new(name, elem, dims);
                if dim_pad.len() != decl.rank() {
                    return Err(err(format!(
                        "array {name}: {} dim pads for rank {}",
                        dim_pad.len(),
                        decl.rank()
                    )));
                }
                for (d, p) in dim_pad.into_iter().enumerate() {
                    decl.set_dim_pad(d, p);
                }
                program.add_array(decl);
                pads.push(pad);
                check_layout_end(&program, &pads, &families, name).map_err(&err)?;
            }
            "layout" => {
                let array: usize = field(&rest, 0, "array index").map_err(&err)?;
                if array >= program.arrays.len() {
                    return Err(err(format!(
                        "layout names array {array} before its declaration"
                    )));
                }
                let family = *rest
                    .get(1)
                    .ok_or_else(|| err("layout needs a family".into()))?;
                match family {
                    "morton" => {
                        let word: Vec<u8> = list(&rest, 2, "interleave word").map_err(&err)?;
                        let decl = &program.arrays[array];
                        let family = LayoutFamily::Morton(word);
                        family.validate(decl).map_err(&err)?;
                        families.resize(program.arrays.len(), LayoutFamily::Linear);
                        families[array] = family;
                        check_layout_end(&program, &pads, &families, &program.arrays[array].name)
                            .map_err(&err)?;
                    }
                    other => return Err(err(format!("unknown layout family {other}"))),
                }
            }
            "nest" => {
                if nest.is_some() {
                    return Err(err("nest without closing `end`".into()));
                }
                let name = *rest
                    .first()
                    .ok_or_else(|| err("nest needs a name".into()))?;
                nest = Some((name.to_string(), Vec::new(), Vec::new()));
            }
            "loop" => {
                let (_, loops, _) = nest
                    .as_mut()
                    .ok_or_else(|| err("loop outside a nest".into()))?;
                let var = *rest.first().ok_or_else(|| err("loop needs a var".into()))?;
                let lo: i64 = field(&rest, 1, "lower bound").map_err(&err)?;
                let hi: i64 = field(&rest, 2, "upper bound").map_err(&err)?;
                let step: i64 = field(&rest, 3, "step").map_err(&err)?;
                let mut l = Loop::counted(var, lo, hi);
                l.step = step;
                loops.push(l);
            }
            "ref" => {
                let (_, _, body) = nest
                    .as_mut()
                    .ok_or_else(|| err("ref outside a nest".into()))?;
                let kind = *rest.first().ok_or_else(|| err("ref needs r|w".into()))?;
                let array: usize = field(&rest, 1, "array index").map_err(&err)?;
                let subs_txt = rest
                    .get(2)
                    .ok_or_else(|| err("ref needs subscripts".into()))?;
                let subs: Vec<AffineExpr> = subs_txt
                    .split(';')
                    .map(parse_expr)
                    .collect::<Result<_, _>>()
                    .map_err(&err)?;
                body.push(match kind {
                    "w" => ArrayRef::write(array, subs),
                    "r" => ArrayRef::read(array, subs),
                    other => return Err(err(format!("unknown access kind {other}"))),
                });
            }
            "end" => {
                let (name, loops, body) = nest
                    .take()
                    .ok_or_else(|| err("end without a nest".into()))?;
                program.add_nest(LoopNest::new(name, loops, body));
            }
            other => return Err(err(format!("unknown keyword {other}"))),
        }
    }
    if nest.is_some() {
        return Err("unterminated nest at end of file".to_string());
    }
    let hierarchy = HierarchyConfig::try_new(levels, penalties)?;
    if !families.is_empty() {
        families.resize(program.arrays.len(), LayoutFamily::Linear);
    }
    let case = Case {
        seed,
        program,
        pads,
        families,
        hierarchy,
    };
    case.validate()?;
    Ok((case, oracle))
}

/// An error naming `array` when the arrays declared so far would lay out
/// past the `i64` address range ([`DataLayout::checked_end`]).
fn check_layout_end(
    program: &Program,
    pads: &[u64],
    families: &[LayoutFamily],
    array: &str,
) -> Result<(), String> {
    match DataLayout::checked_end(&program.arrays, pads, families) {
        Some(_) => Ok(()),
        None => Err(format!(
            "array {array}: the layout would end past byte {}",
            i64::MAX
        )),
    }
}

/// Read and parse one corpus file.
pub fn read_case(path: &Path) -> Result<(Case, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_case(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn join<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn field<T: std::str::FromStr>(rest: &[&str], i: usize, what: &str) -> Result<T, String> {
    rest.get(i)
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}: {}", rest[i]))
}

fn list<T: std::str::FromStr>(rest: &[&str], i: usize, what: &str) -> Result<Vec<T>, String> {
    rest.get(i)
        .ok_or_else(|| format!("missing {what}"))?
        .split(',')
        .map(|x| x.parse().map_err(|_| format!("bad {what} entry: {x}")))
        .collect()
}

/// `constant[,var,coeff]...` — e.g. `-1,i,1` for `i - 1`, `3` for `3`.
fn expr_to_string(e: &AffineExpr) -> String {
    let mut s = e.constant_term().to_string();
    for (v, c) in e.terms() {
        s.push_str(&format!(",{v},{c}"));
    }
    s
}

fn parse_expr(text: &str) -> Result<AffineExpr, String> {
    let parts: Vec<&str> = text.split(',').collect();
    if parts.len() % 2 != 1 {
        return Err(format!("subscript {text} is not constant[,var,coeff]..."));
    }
    let c: i64 = parts[0]
        .parse()
        .map_err(|_| format!("bad subscript constant {}", parts[0]))?;
    let mut e = AffineExpr::constant(c);
    for pair in parts[1..].chunks(2) {
        let coeff: i64 = pair[1]
            .parse()
            .map_err(|_| format!("bad coefficient {}", pair[1]))?;
        e = e.add(&AffineExpr::scaled(pair[0], coeff));
    }
    Ok(e)
}

fn const_bounds(l: &Loop) -> Option<(i64, i64)> {
    if l.lowers.len() == 1
        && l.uppers.len() == 1
        && l.lowers[0].is_constant()
        && l.uppers[0].is_constant()
    {
        Some((l.lowers[0].constant_term(), l.uppers[0].constant_term()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CaseConfig;

    #[test]
    fn generated_cases_round_trip() {
        for seed in 0..60 {
            let case = Case::generate(seed, &CaseConfig::default());
            let text = write_case(&case, Some("fastpath-parity")).unwrap();
            let (back, oracle) =
                parse_case(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(back, case, "seed {seed}");
            assert_eq!(oracle.as_deref(), Some("fastpath-parity"));
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let case = Case::generate(4, &CaseConfig::default());
        let text = write_case(&case, None).unwrap();
        let noisy = format!("# header\n\n{text}\n# trailer\n");
        let (back, oracle) = parse_case(&noisy).unwrap();
        assert_eq!(back, case);
        assert_eq!(oracle, None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        // Each input fails with an error naming its line (when one line is
        // at fault) instead of panicking or wrapping when the case is laid
        // out or simulated.
        let level = "level 1024 32 1 6\n";
        let big = 1u64 << 62;
        for (text, needle) in [
            (String::new(), "at least one level"),
            (
                "level 1000 32 1 6\n".to_string(),
                "line 1: cache size 1000 must be a power of two",
            ),
            (
                "level 1024 32 3 6\n".to_string(),
                "line 1: associativity 3 must divide",
            ),
            (
                "level 1024 32 1 NaN\n".to_string(),
                "line 1: miss penalty NaN",
            ),
            (
                "level 1024 32 1 inf\n".to_string(),
                "line 1: miss penalty inf",
            ),
            (
                "level 1024 32 1 -6\n".to_string(),
                "line 1: miss penalty -6",
            ),
            (
                format!("{level}level 512 32 1 50\n"),
                "outer cache size 512 must be a multiple of inner size 1024",
            ),
            // An extent whose byte size overflows.
            (
                format!("{level}array a 8 {big} 0 0\n"),
                "line 2: array a: the layout would end past",
            ),
            // Extents whose element count fits but whose byte size does not.
            (
                format!("{level}array a 8 4000000000,4000000000 0,0 0\n"),
                "line 2: array a: the layout would end past",
            ),
            // An intra-pad that overflows the allocated extent.
            (
                format!("{level}array a 8 8 {} 0\n", usize::MAX),
                "line 2: array a: the layout would end past",
            ),
            // An inter-pad that overflows the cursor, and one that stays a
            // valid u64 but leaves the i64 address range.
            (
                format!("{level}array a 8 8 0 0\narray b 8 8 0 {}\n", u64::MAX),
                "line 3: array b: the layout would end past",
            ),
            (
                format!("{level}array a 8 8 0 {}\n", 1u64 << 63),
                "line 2: array a: the layout would end past",
            ),
            // A Morton envelope whose byte size overflows.
            (
                format!(
                    "{level}array a {} 2 0 0\nlayout 0 morton {}\n",
                    1u64 << 40,
                    vec!["0"; 40].join(",")
                ),
                "line 3: array a: the layout would end past",
            ),
        ] {
            let err = parse_case(&text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn parse_reports_unknown_keyword_with_line() {
        let err = parse_case("level 1024 32 1 6\nfrobnicate\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn morton_layout_lines_round_trip() {
        for seed in 0..30 {
            let mut case = Case::generate(seed, &CaseConfig::default());
            case.families = case
                .program
                .arrays
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    if i % 2 == 0 {
                        LayoutFamily::morton_round_robin(a)
                    } else {
                        LayoutFamily::Linear
                    }
                })
                .collect();
            case.validate().unwrap();
            let text = write_case(&case, Some("layout-parity")).unwrap();
            let (back, oracle) =
                parse_case(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(back, case, "seed {seed}");
            assert_eq!(oracle.as_deref(), Some("layout-parity"));
        }
    }

    #[test]
    fn layout_line_is_validated() {
        let header = "level 1024 32 1 6\narray A 8 8,8 0,0 0\n";
        // Word too small for the extents.
        let err = parse_case(&format!("{header}layout 0 morton 0,1\n")).unwrap_err();
        assert!(err.contains("array A"), "{err}");
        // Unknown family name.
        let err = parse_case(&format!("{header}layout 0 hilbert 0,1\n")).unwrap_err();
        assert!(err.contains("unknown layout family"), "{err}");
        // Array index out of range.
        let err = parse_case(&format!("{header}layout 3 morton 0,1\n")).unwrap_err();
        assert!(err.contains("before its declaration"), "{err}");
        // A valid word parses and materializes a Morton layout.
        let (case, _) = parse_case(&format!("{header}layout 0 morton 0,1,0,1,0,1\n")).unwrap();
        assert!(!case.layout().fully_affine());
    }

    #[test]
    fn negative_offsets_survive_round_trip() {
        let e = AffineExpr::var_plus("i", -2);
        let s = expr_to_string(&e);
        assert_eq!(parse_expr(&s).unwrap(), e);
    }
}

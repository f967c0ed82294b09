//! Greedy fixpoint shrinking of failing cases.
//!
//! Given a case on which a specific oracle fired, repeatedly try
//! structure-removing mutations — drop a nest, drop a reference, drop
//! unused arrays, peel outer cache levels, halve trip counts, normalize
//! steps, zero offsets and pads, shrink extents — keeping a mutation only
//! when the *same* oracle still fires on the mutated case. The result is a
//! local minimum: removing any one more piece makes the failure disappear,
//! which is exactly what a human wants to read in a regression corpus.
//!
//! Every candidate is gated on structural validity ([`Case::validate`]) and
//! on compiling under its layout, so the shrinker cannot wander from "the
//! oracle disagrees" into "the case is malformed" — a malformed case fails
//! for an uninteresting reason and would pin the wrong bug.

use crate::case::Case;
use crate::oracle::check_case;
use mlc_cache_sim::HierarchyConfig;
use mlc_model::expr::AffineExpr;
use mlc_model::nest::Loop;
use mlc_model::trace_gen::CompiledNest;
use mlc_model::LayoutFamily;

/// Total oracle evaluations the shrinker may spend. Each evaluation runs
/// the full battery on a (shrinking) case; the cap bounds worst-case shrink
/// time without affecting typical cases, which converge in well under 100.
const MAX_EVALS: usize = 2000;

/// Shrink `case` while `oracle` (a name from [`crate::ORACLES`]) keeps
/// firing. Returns the smallest case reached; if the input does not fail
/// the oracle at all, it is returned unchanged.
pub fn shrink(case: &Case, oracle: &str) -> Case {
    let mut current = case.clone();
    let mut evals = 0usize;
    loop {
        let mut progressed = false;
        for cand in candidates(&current) {
            if evals >= MAX_EVALS {
                return current;
            }
            if !is_well_formed(&cand) {
                continue;
            }
            evals += 1;
            if check_case(&cand).violates(oracle) {
                current = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Structural and compile validity: the predicate must only ever compare
/// "oracle still fires" between cases that are legitimate inputs.
fn is_well_formed(case: &Case) -> bool {
    if case.validate().is_err() {
        return false;
    }
    let layout = case.layout();
    case.program
        .nests
        .iter()
        .all(|n| CompiledNest::try_new(&case.program, n, &layout).is_ok())
}

/// Constant bounds of a loop, when it has the simple `counted` shape every
/// generated (and corpus) loop has.
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

/// Largest value `e` takes under the nest's constant loop bounds, or `None`
/// when a bound is non-constant (dim shrinking then stays conservative).
fn max_value(e: &AffineExpr, loops: &[Loop]) -> Option<i64> {
    let mut v = e.constant_term();
    for (var, coeff) in e.terms() {
        let l = loops.iter().find(|l| l.var == var)?;
        let (lo, hi) = const_bounds(l)?;
        v += coeff * if coeff >= 0 { hi } else { lo };
    }
    Some(v)
}

/// Smallest legal extent of dimension `d` of array `a`: one past the
/// largest subscript value any reference can produce.
fn min_extent(case: &Case, a: usize, d: usize) -> Option<i64> {
    let mut need = 1i64;
    for nest in &case.program.nests {
        for r in &nest.body {
            if r.array == a {
                need = need.max(max_value(&r.subscripts[d], &nest.loops)? + 1);
            }
        }
    }
    Some(need)
}

/// All single-step mutations of `case`, biggest reductions first.
fn candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    let p = &case.program;

    // Drop one nest.
    if p.nests.len() > 1 {
        for i in 0..p.nests.len() {
            let mut c = case.clone();
            c.program.nests.remove(i);
            out.push(c);
        }
    }

    // Drop one reference.
    for i in 0..p.nests.len() {
        if p.nests[i].body.len() > 1 {
            for j in 0..p.nests[i].body.len() {
                let mut c = case.clone();
                c.program.nests[i].body.remove(j);
                out.push(c);
            }
        }
    }

    // Drop arrays no reference uses (renumbering the survivors).
    {
        let used: Vec<bool> = (0..p.arrays.len())
            .map(|a| p.nests.iter().any(|n| n.body.iter().any(|r| r.array == a)))
            .collect();
        if used.iter().any(|&u| !u) && used.iter().any(|&u| u) {
            let mut remap = vec![usize::MAX; p.arrays.len()];
            let mut c = case.clone();
            c.program.arrays.clear();
            c.pads.clear();
            c.families.clear();
            for (a, &u) in used.iter().enumerate() {
                if u {
                    remap[a] = c.program.arrays.len();
                    c.program.arrays.push(p.arrays[a].clone());
                    c.pads.push(case.pads[a]);
                    if !case.families.is_empty() {
                        c.families.push(case.families[a].clone());
                    }
                }
            }
            for nest in &mut c.program.nests {
                for r in &mut nest.body {
                    r.array = remap[r.array];
                }
            }
            out.push(c);
        }
    }

    // Peel outer cache levels.
    for depth in 1..case.hierarchy.depth() {
        let mut c = case.clone();
        c.hierarchy = HierarchyConfig::new(
            case.hierarchy.levels[..depth].to_vec(),
            case.hierarchy.miss_penalty[..depth].to_vec(),
        );
        out.push(c);
    }

    // Shrink iteration spaces: halve a trip, then collapse it to one.
    for i in 0..p.nests.len() {
        for (li, l) in p.nests[i].loops.iter().enumerate() {
            if let Some((lo, hi)) = const_bounds(l) {
                for new_hi in [lo + (hi - lo) / 2, lo] {
                    if new_hi < hi {
                        let mut c = case.clone();
                        c.program.nests[i].loops[li].uppers = vec![AffineExpr::constant(new_hi)];
                        out.push(c);
                    }
                }
            }
        }
    }

    // Normalize steps to forward unit stride.
    for i in 0..p.nests.len() {
        for (li, l) in p.nests[i].loops.iter().enumerate() {
            if l.step != 1 {
                let mut c = case.clone();
                c.program.nests[i].loops[li].step = 1;
                out.push(c);
            }
        }
    }

    // Zero subscript constant offsets, one reference at a time.
    for i in 0..p.nests.len() {
        for (j, r) in p.nests[i].body.iter().enumerate() {
            if r.subscripts
                .iter()
                .any(|s| !s.is_constant() && s.constant_term() != 0)
            {
                let mut c = case.clone();
                for s in &mut c.program.nests[i].body[j].subscripts {
                    if !s.is_constant() && s.constant_term() != 0 {
                        *s = s.clone().plus(-s.constant_term());
                    }
                }
                out.push(c);
            }
        }
    }

    // Zero intra-variable (leading-dimension) pads.
    for (a, decl) in p.arrays.iter().enumerate() {
        if decl.dim_pad.iter().any(|&d| d > 0) {
            let mut c = case.clone();
            for d in 0..c.program.arrays[a].dim_pad.len() {
                c.program.arrays[a].dim_pad[d] = 0;
            }
            out.push(c);
        }
    }

    // Zero inter-variable pads: all at once, then one at a time.
    if case.pads.iter().any(|&x| x > 0) {
        let mut c = case.clone();
        c.pads.iter_mut().for_each(|x| *x = 0);
        out.push(c);
        for k in 0..case.pads.len() {
            if case.pads[k] > 0 {
                let mut c = case.clone();
                c.pads[k] = 0;
                out.push(c);
            }
        }
    }

    // Simplify layouts: one Morton family back to linear at a time, then
    // drop an all-linear family vector entirely.
    if !case.families.is_empty() {
        for (a, fam) in case.families.iter().enumerate() {
            if !fam.is_linear() {
                let mut c = case.clone();
                c.families[a] = LayoutFamily::Linear;
                out.push(c);
            }
        }
        if case.families.iter().all(|f| f.is_linear()) {
            let mut c = case.clone();
            c.families.clear();
            out.push(c);
        }
    }

    // Halve array extents toward the smallest legal value.
    for (a, decl) in p.arrays.iter().enumerate() {
        for d in 0..decl.dims.len() {
            if let Some(need) = min_extent(case, a, d) {
                let target = (decl.dims[d] / 2).max(need.max(1) as usize);
                if target < decl.dims[d] {
                    let mut c = case.clone();
                    c.program.arrays[a].dims[d] = target;
                    out.push(c);
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CaseConfig;

    #[test]
    fn candidates_are_all_strictly_simpler() {
        // Every shrink dimension a candidate can move along contributes to
        // the weight, so each single-step mutation must strictly reduce it —
        // this is what guarantees the greedy loop terminates at a fixpoint.
        let weight = |c: &Case| {
            let refs: usize = c.program.nests.iter().map(|n| n.body.len()).sum();
            let dims: usize = c
                .program
                .arrays
                .iter()
                .map(|a| a.dims.iter().sum::<usize>() + a.dim_pad.iter().sum::<usize>())
                .sum();
            let pads: u64 = c.pads.iter().sum();
            let trips: i64 = c
                .program
                .nests
                .iter()
                .flat_map(|n| n.loops.iter())
                .map(|l| {
                    let (lo, hi) = const_bounds(l).expect("constant bounds");
                    (hi - lo) + (l.step - 1).abs()
                })
                .sum();
            let offsets: i64 = c
                .program
                .nests
                .iter()
                .flat_map(|n| n.body.iter())
                .flat_map(|r| r.subscripts.iter())
                .filter(|s| !s.is_constant())
                .map(|s| s.constant_term().abs())
                .sum();
            let layouts: usize =
                c.families.len() + c.families.iter().filter(|f| !f.is_linear()).count();
            refs + dims
                + c.program.arrays.len()
                + c.hierarchy.depth()
                + pads as usize
                + trips as usize
                + offsets as usize
                + layouts
        };
        for seed in [2, 5, 9, 17] {
            let mut case = Case::generate(seed, &CaseConfig::default());
            if seed % 2 == 1 {
                case.families = case
                    .program
                    .arrays
                    .iter()
                    .map(LayoutFamily::morton_round_robin)
                    .collect();
            }
            let w0 = weight(&case);
            for cand in candidates(&case) {
                assert!(
                    weight(&cand) < w0,
                    "seed {seed}: a candidate did not simplify the case"
                );
            }
        }
    }

    #[test]
    fn shrink_of_passing_case_is_identity() {
        let case = Case::generate(2, &CaseConfig::default());
        let out = shrink(&case, "engine-parity");
        assert_eq!(out, case);
    }

    #[test]
    fn min_extent_respects_offsets() {
        let case = Case::generate(9, &CaseConfig::default());
        // Every generated reference stays strictly inside its extents, so
        // the minimum required extent can never exceed the declared one.
        for (a, decl) in case.program.arrays.iter().enumerate() {
            for d in 0..decl.dims.len() {
                let need = min_extent(&case, a, d).expect("constant bounds");
                assert!(
                    need as usize <= decl.dims[d] + decl.dim_pad[d],
                    "array {a} dim {d}: need {need} > extent {}",
                    decl.dims[d]
                );
            }
        }
    }
}

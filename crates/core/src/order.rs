//! Loop-order selection: the "memory order" cost model.
//!
//! Section 2.1 uses Figure 1 to argue that loop permutation "benefits all
//! levels of cache simultaneously": bringing reuse closer in time is good
//! at every level, so the compiler does not need multi-level awareness to
//! pick a loop order. This module implements the classical loop-cost model
//! the paper's group used for that choice (McKinley, Carr & Tseng, TOPLAS
//! '96, the paper's reference \[18\]): estimate, for each loop placed
//! innermost, how many cache lines one iteration of the *rest* of the nest
//! pulls; order loops by decreasing cost from the outside in ("memory
//! order") and take the best legal permutation.
//!
//! The cost is computed against a single cache's line size; the multi-level
//! question is answered experimentally by the test
//! `figure1_permutation_benefits_all_levels_simultaneously`: the chosen
//! order improves L1, L2 and an added L3 at once.

use mlc_model::transform::permute;
use mlc_model::{ArrayDecl, LoopNest, Program};

/// Per-loop cost of placing that loop innermost: estimated cache lines
/// touched by the nest per full execution, under the standard model —
/// a reference costs 1 line if invariant in the candidate loop,
/// `trip/elems_per_line` lines if unit-stride in it, `trip` lines
/// otherwise; each multiplied by the trip counts of the other loops.
///
/// Distinct references in one uniformly generated set are counted once
/// (group members share lines).
pub fn loop_costs(program: &Program, nest: &LoopNest, line: usize) -> Vec<f64> {
    let arrays = &program.arrays;
    // Trip counts; bounds referencing outer vars are approximated by their
    // interval midpoints via the constant parts (adequate for the
    // rectangular nests this heuristic is used on).
    let trips: Vec<f64> = nest
        .loops
        .iter()
        .map(|l| {
            l.trip_count(|_| Some(0))
                .map(|t| t.max(1) as f64)
                .unwrap_or(1.0)
        })
        .collect();
    let groups = mlc_model::reuse::uniformly_generated_sets(nest, arrays);
    let mut costs = vec![0.0f64; nest.depth()];
    for (cand, cost) in costs.iter_mut().enumerate() {
        let cand_var = &nest.loops[cand].var;
        let others: f64 = trips
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != cand)
            .map(|(_, &t)| t)
            .product();
        let mut total = 0.0;
        for g in &groups {
            // One representative per group: the first member.
            let rep = &nest.body[g.members[0].body_index];
            let a: &ArrayDecl = &arrays[rep.array];
            let strides = a.strides();
            let mut move_bytes = 0i64;
            for (d, s) in rep.subscripts.iter().enumerate() {
                move_bytes += s.coeff(cand_var) * strides[d] * a.elem_size as i64;
            }
            let trip = trips[cand];
            let lines = if move_bytes == 0 {
                1.0 // invariant: one line for the whole inner loop
            } else if move_bytes.unsigned_abs() < line as u64 {
                trip * move_bytes.unsigned_abs() as f64 / line as f64
            } else {
                trip // a new line every iteration
            };
            total += lines;
        }
        *cost = total * others;
    }
    costs
}

/// Choose the best legal loop order for a nest: sort loops by decreasing
/// [`loop_costs`] (cheapest loop innermost) and apply the nearest legal
/// permutation (trying candidates from best to worst by total inversion
/// distance, as the classical algorithm does for imperfectly permutable
/// nests). Returns the permuted nest and the permutation used.
pub fn permute_for_locality(
    program: &Program,
    nest: &LoopNest,
    line: usize,
) -> Result<(LoopNest, Vec<usize>), String> {
    let costs = loop_costs(program, nest, line);
    let mut order: Vec<usize> = (0..nest.depth()).collect();
    // Most expensive outermost; stable for ties (keep original order).
    order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).unwrap().then(a.cmp(&b)));
    if let Ok(n) = permute(nest, &order) {
        return Ok((n, order));
    }
    // Fall back: bubble the desired order toward legality by trying all
    // permutations in increasing distance from the target (depth is <= 5
    // in practice, so brute force is fine).
    let mut candidates = permutations(nest.depth());
    candidates.sort_by_key(|p| inversion_distance(p, &order));
    for p in candidates {
        if p == (0..nest.depth()).collect::<Vec<_>>() {
            continue; // the identity is the caller's fallback anyway
        }
        if let Ok(n) = permute(nest, &p) {
            return Ok((n, p));
        }
    }
    Ok((nest.clone(), (0..nest.depth()).collect()))
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for sub in permutations(n - 1) {
        for pos in 0..=sub.len() {
            let mut p = sub.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out
}

fn inversion_distance(a: &[usize], target: &[usize]) -> usize {
    // Kendall tau distance between the two orders.
    let pos: Vec<usize> = {
        let mut v = vec![0; target.len()];
        for (i, &t) in target.iter().enumerate() {
            v[t] = i;
        }
        v
    };
    let mapped: Vec<usize> = a.iter().map(|&x| pos[x]).collect();
    let mut d = 0;
    for i in 0..mapped.len() {
        for j in i + 1..mapped.len() {
            if mapped[i] > mapped[j] {
                d += 1;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::HierarchyConfig;
    use mlc_model::prelude::*;
    use mlc_model::trace_gen::simulate;
    use mlc_model::AffineExpr as E;

    /// The paper's Figure 1 program (original, bad order).
    fn figure1(n: usize, m: usize) -> Program {
        let mut p = Program::new("fig1");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, m]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n]));
        p.add_nest(LoopNest::new(
            "orig",
            vec![
                Loop::counted("j", 0, n as i64 - 1),
                Loop::counted("i", 0, m as i64 - 1),
            ],
            vec![
                ArrayRef::read(a, vec![E::var("j"), E::var("i")]),
                ArrayRef::write(b, vec![E::var("j")]),
            ],
        ));
        p
    }

    #[test]
    fn figure1_cost_model_moves_j_innermost() {
        let p = figure1(512, 64);
        let (permuted, perm) = permute_for_locality(&p, &p.nests[0], 32).unwrap();
        assert_eq!(perm, vec![1, 0], "i outer, j inner");
        assert_eq!(permuted.loop_vars(), vec!["i", "j"]);
    }

    #[test]
    fn figure1_permutation_benefits_all_levels_simultaneously() {
        // Section 2.1's claim, measured: the SAME permutation improves L1,
        // L2 and an added L3 at once. A must exceed the 2 MiB L3 ("for
        // large enough values of N, M, all levels of cache will benefit").
        let p = figure1(2048, 256);
        let (permuted, _) = permute_for_locality(&p, &p.nests[0], 32).unwrap();
        let mut q = p.clone();
        q.nests[0] = permuted;
        let h = HierarchyConfig::alpha_21164_like(); // three levels
                                                     // One line of padding between A and B removes the cross-variable
                                                     // conflict confound (A's column stride is a multiple of every cache
                                                     // size here), isolating the permutation effect the claim is about.
        let layout = DataLayout::with_pads(&p.arrays, &[0, 64]);
        let before = simulate(&p, &layout, &h);
        let after = simulate(&q, &layout, &h);
        for level in 0..3 {
            assert!(
                after.miss_rate(level) < before.miss_rate(level),
                "level {level}: {} !< {}",
                after.miss_rate(level),
                before.miss_rate(level)
            );
        }
    }

    #[test]
    fn cost_model_is_line_size_aware_but_order_stable() {
        // "We have not found any such cases in practice": the chosen order
        // is the same for 32- and 64-byte lines.
        let p = figure1(512, 64);
        let (_, p32) = permute_for_locality(&p, &p.nests[0], 32).unwrap();
        let (_, p64) = permute_for_locality(&p, &p.nests[0], 64).unwrap();
        assert_eq!(p32, p64);
    }

    #[test]
    fn already_good_order_is_kept() {
        let p = figure1(512, 64);
        let (good, _) = permute_for_locality(&p, &p.nests[0], 32).unwrap();
        let mut q = p.clone();
        q.nests[0] = good.clone();
        let (again, perm) = permute_for_locality(&q, &q.nests[0], 32).unwrap();
        assert_eq!(perm, vec![0, 1]);
        assert_eq!(again, good);
    }

    #[test]
    fn illegal_best_order_falls_back_to_legal() {
        // A nest whose best memory order is blocked by a dependence:
        // A(i,j) = A(i-1, j+1) forbids the (j, i) order.
        let mut p = Program::new("dep");
        let a = p.add_array(ArrayDecl::f64("A", vec![64, 64]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 1, 62), Loop::counted("j", 1, 62)],
            vec![
                ArrayRef::write(a, vec![E::var("i"), E::var("j")]),
                ArrayRef::read(a, vec![E::var_plus("i", -1), E::var_plus("j", 1)]),
            ],
        ));
        // Memory order would put i innermost (unit stride); check legality
        // is respected whatever comes out.
        let (nest, perm) = permute_for_locality(&p, &p.nests[0], 32).unwrap();
        assert!(mlc_model::dependence::permutation_legal(&p.nests[0], &perm).is_ok());
        let _ = nest;
    }

    #[test]
    fn matmul_memory_order_is_jki() {
        // Column-major C += A*B: the classic result that J-K-I is memory
        // order (I innermost: unit stride for A and C, invariant for B).
        let mut p = Program::new("mm");
        let n = 64usize;
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        let c = p.add_array(ArrayDecl::f64("C", vec![n, n]));
        let nn = n as i64 - 1;
        p.add_nest(LoopNest::new(
            "ijk",
            vec![
                Loop::counted("I", 0, nn),
                Loop::counted("J", 0, nn),
                Loop::counted("K", 0, nn),
            ],
            vec![
                ArrayRef::read(a, vec![E::var("I"), E::var("K")]),
                ArrayRef::read(b, vec![E::var("K"), E::var("J")]),
                ArrayRef::read(c, vec![E::var("I"), E::var("J")]),
                ArrayRef::write(c, vec![E::var("I"), E::var("J")]),
            ],
        ));
        let (nest, _) = permute_for_locality(&p, &p.nests[0], 32).unwrap();
        assert_eq!(nest.loop_vars(), vec!["J", "K", "I"]);
    }

    #[test]
    fn loop_costs_shape_for_figure1() {
        let p = figure1(512, 64);
        let costs = loop_costs(&p, &p.nests[0], 32);
        // Placing i innermost (index 1) is much more expensive than j:
        // A jumps a column per i iteration.
        assert!(costs[1] > 1.5 * costs[0], "costs {costs:?}");
    }
}

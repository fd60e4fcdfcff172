//! Plan builders for the grounding queries (§4.3).
//!
//! Each structural partition `Mi` gets one `groundAtoms` join (Query 1-i)
//! and one `groundFactors` join (Query 2-i); `applyConstraints` is
//! Query 3. The join-key geometry for all six patterns is derived in one
//! place ([`JoinSpec`]) so the single-node and MPP engines cannot drift.
//!
//! The plans built here fix only the *logical* join sets; the binary-join
//! chains they emit (`M_i ⋈ TΠ [⋈ TΠ]`) are what the cost-based planner
//! (`probkb_relational::optimizer`, gated by `PROBKB_OPTIMIZE` /
//! `GroundingConfig::optimize`) reorders and assigns build sides to from
//! table statistics — the driver canonicalizes grounding output, so any
//! physical order is admissible.

use probkb_kb::prelude::{RulePattern, Var};
use probkb_relational::prelude::*;

use crate::relmodel::{tomega, tpi};

/// Binding offset of a variable within a `TΠ` row matched by a body atom
/// with argument layout `(v1, v2)`: the fact's subject (`x`, column 2)
/// binds `v1` and its object (`y`, column 4) binds `v2`.
fn bind(layout: (Var, Var), target: Var) -> usize {
    if layout.0 == target {
        tpi::X
    } else if layout.1 == target {
        tpi::Y
    } else {
        panic!("variable {target} not bound by atom layout {layout:?}")
    }
}

/// Column of a variable's class in the MLN table.
fn mclass(arity: usize, v: Var) -> usize {
    use crate::relmodel::{m2, m3};
    match (arity, v) {
        (2, Var::X) => m2::C1,
        (2, Var::Y) => m2::C2,
        (3, Var::X) => m3::C1,
        (3, Var::Y) => m3::C2,
        (3, Var::Z) => m3::C3,
        (a, v) => panic!("no class column for {v} in arity-{a} pattern"),
    }
}

/// Width of `TΠ` rows.
const T_WIDTH: usize = 7;

/// The complete join geometry of one structural partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// The pattern this spec describes.
    pub pattern: RulePattern,
    /// 2 or 3 atoms.
    pub arity: usize,
    /// Width of the `Mi` table (5 or 7).
    pub m_width: usize,
    /// Join-1 keys on the `Mi` side (`R2` + class columns of atom 1).
    pub m_keys1: Vec<usize>,
    /// Join-1 keys on the `TΠ` side: always `(R, C1, C2)`.
    pub t2_keys: Vec<usize>,
    /// Join-2 keys on the intermediate (`Mi ⋈ T2`) side — `R3`, class
    /// columns of atom 2, and the `z` binding. Empty for arity 2.
    pub mid_keys2: Vec<usize>,
    /// Join-2 keys on the `TΠ` side (includes the column where `z` sits).
    pub t3_keys: Vec<usize>,
    /// Column of the `x` binding in the fully joined row.
    pub x_col: usize,
    /// Column of the `y` binding in the fully joined row.
    pub y_col: usize,
    /// Head-join keys on the body-result side (for `groundFactors`).
    pub head_keys_mid: Vec<usize>,
    /// Head-join keys on the `TΠ` side: `(R, C1, C2, x, y)`.
    pub head_keys_t: Vec<usize>,
    /// Column of `C1` (head subject class) in the joined row.
    pub c1_col: usize,
    /// Column of `C2` in the joined row.
    pub c2_col: usize,
    /// Column of the rule weight in the joined row.
    pub w_col: usize,
    /// Columns of `T2.I` / `T3.I` in the fully joined row (`i3` only for
    /// arity 3).
    pub i2_col: usize,
    /// Column of `T3.I`, if any.
    pub i3_col: Option<usize>,
}

/// Derive the join geometry for a pattern.
pub fn join_spec(pattern: RulePattern) -> JoinSpec {
    use crate::relmodel::{m2, m3};
    let (atom1, atom2) = pattern.body_layout();
    let arity = pattern.arity();
    match arity {
        2 => {
            let m_width = 5;
            let t2_off = m_width;
            let x_col = t2_off + bind(atom1, Var::X);
            let y_col = t2_off + bind(atom1, Var::Y);
            JoinSpec {
                pattern,
                arity,
                m_width,
                m_keys1: vec![m2::R2, mclass(2, atom1.0), mclass(2, atom1.1)],
                t2_keys: vec![tpi::R, tpi::C1, tpi::C2],
                mid_keys2: vec![],
                t3_keys: vec![],
                x_col,
                y_col,
                head_keys_mid: vec![m2::R1, m2::C1, m2::C2, x_col, y_col],
                head_keys_t: vec![tpi::R, tpi::C1, tpi::C2, tpi::X, tpi::Y],
                c1_col: m2::C1,
                c2_col: m2::C2,
                w_col: m2::W,
                i2_col: t2_off + tpi::I,
                i3_col: None,
            }
        }
        3 => {
            let atom2 = atom2.expect("arity-3 pattern has a second atom");
            let m_width = 7;
            let t2_off = m_width;
            let t3_off = m_width + T_WIDTH;
            let z_mid = t2_off + bind(atom1, Var::Z);
            let x_col = t2_off + bind(atom1, Var::X);
            let y_col = t3_off + bind(atom2, Var::Y);
            JoinSpec {
                pattern,
                arity,
                m_width,
                m_keys1: vec![m3::R2, mclass(3, atom1.0), mclass(3, atom1.1)],
                t2_keys: vec![tpi::R, tpi::C1, tpi::C2],
                mid_keys2: vec![m3::R3, mclass(3, atom2.0), mclass(3, atom2.1), z_mid],
                t3_keys: vec![tpi::R, tpi::C1, tpi::C2, bind(atom2, Var::Z)],
                x_col,
                y_col,
                head_keys_mid: vec![m3::R1, m3::C1, m3::C2, x_col, y_col],
                head_keys_t: vec![tpi::R, tpi::C1, tpi::C2, tpi::X, tpi::Y],
                c1_col: m3::C1,
                c2_col: m3::C2,
                w_col: m3::W,
                i2_col: t2_off + tpi::I,
                i3_col: Some(t3_off + tpi::I),
            }
        }
        _ => unreachable!("patterns are arity 2 or 3"),
    }
}

/// Query 1-i: apply every rule of partition `i` in one batch, producing
/// candidate facts `(R, x, C1, y, C2)` with duplicates removed.
pub fn ground_atoms_plan(pattern: RulePattern, m_table: &str, t_table: &str) -> Plan {
    atoms_plan_legs(pattern, m_table, t_table, t_table)
}

/// Query 1-i with independently named body legs — the one definition of
/// the `groundAtoms` join shape. `t2` feeds the first body atom and `t3`
/// the second (ignored by length-2 patterns), so either leg can scan a
/// frontier table instead of the full `TΠ`.
pub(crate) fn atoms_plan_legs(pattern: RulePattern, m_table: &str, t2: &str, t3: &str) -> Plan {
    let spec = join_spec(pattern);
    body_join(&spec, m_table, t2, t3)
        .project(vec![
            (Expr::col(0), "R"), // M.R1
            (Expr::col(spec.x_col), "x"),
            (Expr::col(spec.c1_col), "C1"),
            (Expr::col(spec.y_col), "y"),
            (Expr::col(spec.c2_col), "C2"),
        ])
        .distinct()
}

/// Semi-naive Query 1-i: only joins in which at least one body atom
/// binds to a `frontier` row can derive a new head. Length-2 partitions
/// need one plan (`Mi ⋈ Δ`); length-3 partitions need two
/// (`Mi ⋈ Δ ⋈ T` and `Mi ⋈ T ⋈ Δ` — the `Δ ⋈ Δ` pairs are covered by
/// both and removed by the caller's DISTINCT).
pub(crate) fn frontier_atoms_plans(
    pattern: RulePattern,
    m_table: &str,
    frontier: &str,
    full: &str,
) -> Vec<Plan> {
    if pattern.arity() == 2 {
        vec![atoms_plan_legs(pattern, m_table, frontier, frontier)]
    } else {
        vec![
            atoms_plan_legs(pattern, m_table, frontier, full),
            atoms_plan_legs(pattern, m_table, full, frontier),
        ]
    }
}

/// Query 2-i: build the ground factors `(I1, I2, I3, w)` for partition
/// `i` by re-joining the body result with the head facts. Duplicate-free
/// per Proposition 1, so no DISTINCT is applied.
pub fn ground_factors_plan(pattern: RulePattern, m_table: &str, t_table: &str) -> Plan {
    factors_plan_legs(pattern, m_table, t_table, t_table, t_table)
}

/// Query 2-i with independently named body and head legs — the one
/// definition of the `groundFactors` join shape.
pub(crate) fn factors_plan_legs(
    pattern: RulePattern,
    m_table: &str,
    t2: &str,
    t3: &str,
    head: &str,
) -> Plan {
    let spec = join_spec(pattern);
    let head_off = spec.m_width + (spec.arity - 1) * T_WIDTH;
    let plan = body_join(&spec, m_table, t2, t3).hash_join(
        Plan::scan(head),
        spec.head_keys_mid.clone(),
        spec.head_keys_t.clone(),
    );
    let i3 = match spec.i3_col {
        Some(c) => Expr::col(c),
        None => Expr::lit(Value::Null),
    };
    plan.project(vec![
        (Expr::col(head_off + tpi::I), "I1"),
        (Expr::col(spec.i2_col), "I2"),
        (i3, "I3"),
        (Expr::col(spec.w_col), "w"),
    ])
}

/// The body join shared by Queries 1-i and 2-i: `Mi ⋈ t2 [⋈ t3]`.
fn body_join(spec: &JoinSpec, m_table: &str, t2: &str, t3: &str) -> Plan {
    let plan = Plan::scan(m_table).hash_join(
        Plan::scan(t2),
        spec.m_keys1.clone(),
        spec.t2_keys.clone(),
    );
    if spec.arity == 3 {
        plan.hash_join(Plan::scan(t3), spec.mid_keys2.clone(), spec.t3_keys.clone())
    } else {
        plan
    }
}

/// `groundFactors(TΠ)` (Algorithm 1 line 10): every extracted fact with a
/// weight becomes a singleton factor `(I, NULL, NULL, w)`.
pub fn singleton_factors_plan(t_table: &str) -> Plan {
    Plan::scan(t_table)
        .filter(Expr::col(tpi::W).is_not_null())
        .project(vec![
            (Expr::col(tpi::I), "I1"),
            (Expr::lit(Value::Null), "I2"),
            (Expr::lit(Value::Null), "I3"),
            (Expr::col(tpi::W), "w"),
        ])
}

/// Query 3 (violator detection half): entities violating functional
/// constraints of type `alpha`, as `(entity, class)` pairs.
///
/// Type I groups facts by `(R, x, C1, C2)` and flags subjects with more
/// than `MIN(deg)` distinct objects; Type II is symmetric. Constraints
/// with a class restriction (Definition 11's optional `(C1, C2)`) only
/// see facts of those classes; NULL restriction columns match any class.
pub fn violators_plan(t_table: &str, omega_table: &str, alpha: i64) -> Plan {
    let (key_entity, key_class, other_class) = if alpha == 1 {
        (tpi::X, tpi::C1, tpi::C2)
    } else {
        (tpi::Y, tpi::C2, tpi::C1)
    };
    let deg_col = T_WIDTH + tomega::DEG;
    let omega_c1 = T_WIDTH + tomega::C1;
    let omega_c2 = T_WIDTH + tomega::C2;
    let class_guard = |omega_col: usize, t_col: usize| {
        Expr::col(omega_col)
            .is_null()
            .or(Expr::col(omega_col).eq(Expr::col(t_col)))
    };
    Plan::scan(t_table)
        .hash_join(
            Plan::scan(omega_table)
                .filter(Expr::col(tomega::ALPHA).eq(Expr::lit(alpha))),
            vec![tpi::R],
            vec![tomega::R],
        )
        .filter(
            class_guard(omega_c1, tpi::C1).and(class_guard(omega_c2, tpi::C2)),
        )
        .aggregate(
            vec![tpi::R, key_entity, key_class, other_class],
            vec![
                AggExpr::new(AggFunc::CountStar, "cnt"),
                AggExpr::new(AggFunc::Min(deg_col), "mindeg"),
            ],
        )
        // HAVING COUNT(*) > MIN(deg)
        .filter(Expr::col(4).gt(Expr::col(5)))
        .project(vec![(Expr::col(1), "entity"), (Expr::col(2), "class")])
        .distinct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use probkb_kb::prelude::RulePattern::*;

    #[test]
    fn spec_p1_matches_query_1_1() {
        let s = join_spec(P1);
        assert_eq!(s.m_keys1, vec![1, 2, 3]); // R2, C1, C2
        assert_eq!(s.t2_keys, vec![1, 3, 5]);
        assert_eq!(s.x_col, 7); // T.x
        assert_eq!(s.y_col, 9); // T.y
    }

    #[test]
    fn spec_p2_swaps_classes_and_bindings() {
        let s = join_spec(P2);
        assert_eq!(s.m_keys1, vec![1, 3, 2]); // C2 matches T.C1
        assert_eq!(s.x_col, 9); // x bound by T.y
        assert_eq!(s.y_col, 7);
    }

    #[test]
    fn spec_p3_matches_query_1_3() {
        // Paper: M3.R2=T2.R AND M3.C3=T2.C1 AND M3.C1=T2.C2, then
        // M3.R3=T3.R AND M3.C3=T3.C1 AND M3.C2=T3.C2 WHERE T2.x=T3.x.
        let s = join_spec(P3);
        assert_eq!(s.m_keys1, vec![1, 5, 3]);
        assert_eq!(s.mid_keys2, vec![2, 5, 4, 9]); // R3, C3, C2, T2.x (z)
        assert_eq!(s.t3_keys, vec![1, 3, 5, 2]);
        assert_eq!(s.x_col, 11); // T2.y
        assert_eq!(s.y_col, 18); // T3.y
        assert_eq!(s.head_keys_mid, vec![0, 3, 4, 11, 18]);
        assert_eq!(s.head_keys_t, vec![1, 3, 5, 2, 4]);
        assert_eq!(s.i2_col, 7);
        assert_eq!(s.i3_col, Some(14));
    }

    #[test]
    fn spec_p4_p5_p6_bindings() {
        let s4 = join_spec(P4);
        assert_eq!(s4.m_keys1, vec![1, 3, 5]); // q(x, z): C1 then C3
        assert_eq!(s4.x_col, 9); // T2.x
        assert_eq!(s4.mid_keys2, vec![2, 5, 4, 11]); // z = T2.y
        let s5 = join_spec(P5);
        assert_eq!(s5.t3_keys, vec![1, 3, 5, 4]); // z at T3.y
        assert_eq!(s5.y_col, 16); // T3.x
        let s6 = join_spec(P6);
        assert_eq!(s6.m_keys1, vec![1, 3, 5]);
        assert_eq!(s6.mid_keys2, vec![2, 4, 5, 11]);
        assert_eq!(s6.y_col, 16);
    }

    #[test]
    fn plans_build_for_all_patterns() {
        for p in RulePattern::ALL {
            let atoms = ground_atoms_plan(p, "M", "T");
            let factors = ground_factors_plan(p, "M", "T");
            // Shape sanity: atoms end in Distinct(Project(..)).
            assert!(atoms.describe().contains("HashDistinct"));
            assert!(factors.describe().contains("Project"));
        }
    }

    /// The whole plan tree, one `describe()` line per node.
    fn tree(plan: &Plan) -> String {
        let mut out = plan.describe();
        for child in plan.children() {
            out.push('\n');
            out.push_str(&tree(child));
        }
        out
    }

    #[test]
    fn single_table_plans_are_the_uniform_legged_case() {
        // Every EXPLAIN golden pins the `(p, M, T)` builders; they must
        // stay the all-legs-equal case of the legged ones.
        for p in RulePattern::ALL {
            assert_eq!(
                tree(&ground_atoms_plan(p, "M", "T")),
                tree(&atoms_plan_legs(p, "M", "T", "T"))
            );
            assert_eq!(
                tree(&ground_factors_plan(p, "M", "T")),
                tree(&factors_plan_legs(p, "M", "T", "T", "T"))
            );
        }
    }

    #[test]
    fn frontier_plans_put_the_frontier_on_each_body_leg() {
        use RulePattern::P3;
        for p in RulePattern::ALL {
            let plans = frontier_atoms_plans(p, "M", "FRONT", "FULL");
            assert_eq!(plans.len(), p.arity() - 1);
            for plan in &plans {
                let tree = tree(plan);
                assert!(tree.contains("FRONT"), "{tree}");
                // Length-2 partitions never touch the full table.
                assert_eq!(tree.contains("FULL"), p.arity() == 3, "{tree}");
            }
        }
        let plans = frontier_atoms_plans(P3, "M", "FRONT", "FULL");
        assert_eq!(
            tree(&plans[0]),
            tree(&atoms_plan_legs(P3, "M", "FRONT", "FULL"))
        );
        assert_eq!(
            tree(&plans[1]),
            tree(&atoms_plan_legs(P3, "M", "FULL", "FRONT"))
        );
        assert_ne!(tree(&plans[0]), tree(&plans[1]));
    }

    #[test]
    fn violators_plan_shapes() {
        let p1 = violators_plan("T", "O", 1);
        let p2 = violators_plan("T", "O", 2);
        assert!(p1.describe().contains("HashDistinct"));
        assert!(p2.describe().contains("HashDistinct"));
    }
}

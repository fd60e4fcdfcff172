//! Differential plan-equivalence tests: the cost-based planner may pick
//! any join order, build side, or motion strategy, but grounding output
//! must be **byte-identical** to the unoptimized oracle — across all six
//! structural rule partitions, serial and parallel execution, and the
//! single-node and MPP engines.

use probkb_support::check::prelude::*;

use probkb::mpp::prelude::NetworkModel;
use probkb::prelude::*;

/// Tiny xorshift generator so each proptest case derives a whole KB from
/// one seed (keeps the strategy simple and shrinkable).
struct Rng(u64);

impl Rng {
    fn pick(&mut self, bound: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % bound
    }
}

/// Build a random KB whose rules populate every one of the six
/// structural partitions (the same shapes as `tests/all_patterns.rs`,
/// but with randomized fact sets of skewed sizes so the optimizer has
/// real cardinality differences to react to).
fn random_six_pattern_kb(seed: u64, constrained: bool) -> ProbKb {
    let mut rng = Rng(seed | 1);
    let mut text = String::new();
    for p in 1..=6u32 {
        // Randomized, deliberately unbalanced table sizes per relation.
        let q_facts = 1 + rng.pick(8);
        let r_facts = 1 + rng.pick(3);
        let pool = 2 + rng.pick(3);
        let mut fact = |rel: &str, n: u64| {
            for _ in 0..n {
                let i = rng.pick(pool);
                let j = rng.pick(pool);
                let w = 50 + rng.pick(50);
                let (subj, obj) = match (rel.as_bytes()[0], p) {
                    // q1/q2 relate A and B directly; body order varies
                    // per pattern but entity classes stay consistent.
                    (b'q', 1) => (format!("a{p}_{i}:A{p}"), format!("b{p}_{j}:B{p}")),
                    (b'q', 2) => (format!("b{p}_{i}:B{p}"), format!("a{p}_{j}:A{p}")),
                    (b'q', 3) | (b'q', 5) => {
                        (format!("z{p}_{i}:Z{p}"), format!("a{p}_{j}:A{p}"))
                    }
                    (b'q', _) => (format!("a{p}_{i}:A{p}"), format!("z{p}_{j}:Z{p}")),
                    (_, 3) | (_, 4) => (format!("z{p}_{i}:Z{p}"), format!("b{p}_{j}:B{p}")),
                    _ => (format!("b{p}_{i}:B{p}"), format!("z{p}_{j}:Z{p}")),
                };
                text.push_str(&format!("fact 0.{w} {rel}({subj}, {obj})\n"));
            }
        };
        fact(&format!("q{p}"), q_facts);
        if p >= 3 {
            fact(&format!("r{p}"), r_facts);
        }
    }
    text.push_str("rule 1.0 p1(x:A1, y:B1) :- q1(x, y)\n");
    text.push_str("rule 1.0 p2(x:A2, y:B2) :- q2(y, x)\n");
    text.push_str("rule 1.0 p3(x:A3, y:B3) :- q3(z:Z3, x), r3(z, y)\n");
    text.push_str("rule 1.0 p4(x:A4, y:B4) :- q4(x, z:Z4), r4(z, y)\n");
    text.push_str("rule 1.0 p5(x:A5, y:B5) :- q5(z:Z5, x), r5(y, z)\n");
    text.push_str("rule 1.0 p6(x:A6, y:B6) :- q6(x, z:Z6), r6(y, z)\n");
    if constrained {
        // Exercise Query 3 in the differential run too.
        text.push_str("functional q1 1 1\n");
    }
    parse(&text).unwrap().build()
}

fn config(optimize: bool, threads: usize, constrained: bool) -> GroundingConfig {
    GroundingConfig {
        max_iterations: 4,
        preclean: false,
        apply_constraints: constrained,
        max_total_facts: Some(20_000),
        threads: Some(threads),
        optimize: Some(optimize),
    }
}

/// Byte-level fingerprint of a grounding outcome: the Debug rendering
/// includes schemas, every row, and row order; the per-iteration
/// `(new_facts, deleted_facts, facts_after)` triples hold every engine to
/// the oracle's *report*, not only its final tables.
fn fingerprint(out: &GroundingOutcome) -> (String, String, Vec<(usize, usize, usize)>) {
    (
        format!("{:?}", out.facts),
        format!("{:?}", out.factors),
        out.report
            .iterations
            .iter()
            .map(|i| (i.new_facts, i.deleted_facts, i.facts_after))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full differential matrix: unoptimized serial single-node is
    /// the oracle; the optimizer, the fork-join pool, the semi-naive
    /// mode, and both MPP modes must reproduce its facts and factors
    /// byte for byte, and its per-iteration counts.
    #[test]
    fn all_plans_ground_byte_identically(seed in any::<u64>(), constrained in any::<bool>()) {
        let kb = random_six_pattern_kb(seed, constrained);

        let mut oracle_engine = SingleNodeEngine::new();
        let oracle = ground(&kb, &mut oracle_engine, &config(false, 1, constrained))
            .expect("oracle");
        let expected = fingerprint(&oracle);

        // Optimizer on, serial.
        let mut e = SingleNodeEngine::new();
        let out = ground(&kb, &mut e, &config(true, 1, constrained)).expect("optimized");
        prop_assert_eq!(&fingerprint(&out), &expected, "optimize=1 vs oracle");

        // Optimizer on, 4 workers.
        let mut e = SingleNodeEngine::new();
        let out = ground(&kb, &mut e, &config(true, 4, constrained)).expect("parallel");
        prop_assert_eq!(&fingerprint(&out), &expected, "threads=4 vs oracle");

        // Semi-naive evaluation with the optimizer on.
        let mut e = SingleNodeEngine::semi_naive();
        let out = ground(&kb, &mut e, &config(true, 1, constrained)).expect("semi-naive");
        prop_assert_eq!(&fingerprint(&out), &expected, "semi-naive vs oracle");

        // MPP, both physical designs, optimizer on and off.
        for mode in [MppMode::Optimized, MppMode::NoViews] {
            for optimize in [true, false] {
                let mut e = MppEngine::new(3, NetworkModel::free(), mode);
                let out = ground(&kb, &mut e, &config(optimize, 1, constrained))
                    .expect("mpp");
                prop_assert_eq!(
                    &fingerprint(&out),
                    &expected,
                    "{:?} optimize={} vs oracle", mode, optimize
                );
            }
        }
    }

    /// Fact ids — not just fact sets — are stable across plans: the
    /// iteration each fact was first derived in must agree too.
    #[test]
    fn fact_iterations_agree_across_planners(seed in any::<u64>()) {
        let kb = random_six_pattern_kb(seed, false);
        let mut a = SingleNodeEngine::new();
        let out_a = ground(&kb, &mut a, &config(false, 1, false)).expect("oracle");
        let mut b = MppEngine::new(3, NetworkModel::free(), MppMode::Optimized);
        let out_b = ground(&kb, &mut b, &config(true, 4, false)).expect("mpp");
        prop_assert_eq!(out_a.fact_iteration, out_b.fact_iteration);
    }
}

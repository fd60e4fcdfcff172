//! Ablation: naive (Algorithm 1) vs semi-naive grounding.
//!
//! Algorithm 1 (`SingleNodeEngine::new()`) re-joins the full `TΠ` every
//! iteration; semi-naive evaluation (`SingleNodeEngine::semi_naive()`)
//! joins only against the last iteration's frontier. On
//! workloads with deep derivation chains the per-iteration cost of the
//! naive engine grows with the KB while the semi-naive engine's tracks
//! the (shrinking) frontier.
//!
//! ```sh
//! cargo run --release -p probkb-bench --bin ablation_semi_naive -- --chain 400
//! ```

use probkb_bench::{flag, row, secs};
use probkb_core::prelude::*;
use probkb_kb::prelude::parse;

fn chain_kb(n: usize) -> probkb_kb::prelude::ProbKb {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
    }
    // Bounded-depth reachability: rules chain, so iteration k derives
    // paths of length 2^k — a deep frontier workload.
    text.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
    text.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
    parse(&text).unwrap().build()
}

fn main() {
    let chain: usize = flag("chain", 400);
    let iterations: usize = flag("iterations", 10);
    let kb = chain_kb(chain);
    println!(
        "== Ablation: naive vs semi-naive grounding ({chain}-edge chain, {iterations} iterations) ==\n"
    );

    let config = GroundingConfig {
        max_iterations: iterations,
        preclean: false,
        apply_constraints: false,
        max_total_facts: None,
        threads: None,
        optimize: None,
    };

    let mut naive = SingleNodeEngine::new();
    let n = ground(&kb, &mut naive, &config).expect("naive");
    let mut sn = SingleNodeEngine::semi_naive();
    let s = ground(&kb, &mut sn, &config).expect("semi-naive");

    assert_eq!(n.facts.len(), s.facts.len(), "engines must agree");
    assert_eq!(n.factors.len(), s.factors.len());

    row(&[
        "iteration".into(),
        "new facts".into(),
        "naive s".into(),
        "semi-naive s".into(),
        "speedup".into(),
    ]);
    let mut naive_total = 0.0;
    let mut sn_total = 0.0;
    for (a, b) in n.report.iterations.iter().zip(s.report.iterations.iter()) {
        assert_eq!(a.new_facts, b.new_facts, "iteration {}", a.iteration);
        let (ta, tb) = (a.elapsed.as_secs_f64(), b.elapsed.as_secs_f64());
        naive_total += ta;
        sn_total += tb;
        row(&[
            a.iteration.to_string(),
            a.new_facts.to_string(),
            secs(a.elapsed),
            secs(b.elapsed),
            format!("{:.2}x", ta / tb.max(1e-9)),
        ]);
    }
    println!(
        "\ntotals: naive {naive_total:.3}s, semi-naive {sn_total:.3}s ({:.2}x); final KB {} facts, {} factors",
        naive_total / sn_total.max(1e-9),
        n.facts.len(),
        n.factors.len(),
    );
    println!(
        "\nExpected shape: identical new-fact counts every iteration; the\n\
         semi-naive engine pulls ahead in later iterations as the delta\n\
         shrinks relative to the accumulated KB."
    );
}

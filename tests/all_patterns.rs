//! A hand-computed worked example covering EVERY structural pattern
//! (M1..M6), verified on all four engines. Each pattern has its own
//! relations and entities, arranged so it derives exactly one predictable
//! fact — any join-geometry mistake in any partition shows up as a wrong
//! or missing name here.

use std::collections::BTreeSet;

use probkb::prelude::*;

const SIX_PATTERNS: &str = r#"
    # P1: p1(x,y) <- q1(x,y)
    fact 0.9 q1(a1:A1, b1:B1)
    rule 1.0 p1(x:A1, y:B1) :- q1(x, y)

    # P2: p2(x,y) <- q2(y,x)
    fact 0.9 q2(b2:B2, a2:A2)
    rule 1.0 p2(x:A2, y:B2) :- q2(y, x)

    # P3: p3(x,y) <- q3(z,x), r3(z,y)
    fact 0.9 q3(z3:Z3, a3:A3)
    fact 0.9 r3(z3:Z3, b3:B3)
    rule 1.0 p3(x:A3, y:B3) :- q3(z:Z3, x), r3(z, y)

    # P4: p4(x,y) <- q4(x,z), r4(z,y)
    fact 0.9 q4(a4:A4, z4:Z4)
    fact 0.9 r4(z4:Z4, b4:B4)
    rule 1.0 p4(x:A4, y:B4) :- q4(x, z:Z4), r4(z, y)

    # P5: p5(x,y) <- q5(z,x), r5(y,z)
    fact 0.9 q5(z5:Z5, a5:A5)
    fact 0.9 r5(b5:B5, z5:Z5)
    rule 1.0 p5(x:A5, y:B5) :- q5(z:Z5, x), r5(y, z)

    # P6: p6(x,y) <- q6(x,z), r6(y,z)
    fact 0.9 q6(a6:A6, z6:Z6)
    fact 0.9 r6(b6:B6, z6:Z6)
    rule 1.0 p6(x:A6, y:B6) :- q6(x, z:Z6), r6(y, z)
"#;

/// The facts each pattern must derive.
fn expected_inferences() -> BTreeSet<String> {
    [
        "p1(a1, b1)",
        "p2(a2, b2)",
        "p3(a3, b3)",
        "p4(a4, b4)",
        "p5(a5, b5)",
        "p6(a6, b6)",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

fn inferred_names(kb: &ProbKb, expansion: &Expansion) -> BTreeSet<String> {
    expansion
        .new_facts
        .iter()
        .map(|f| kb.fact_to_string(f))
        .collect()
}

#[test]
fn all_six_patterns_derive_exactly_their_fact() {
    let kb = parse(SIX_PATTERNS).unwrap().build();
    assert!(kb.validate().is_empty(), "{:?}", kb.validate());

    // All six structural partitions are populated.
    let partitioning = Partitioning::build(&kb.rules);
    assert_eq!(partitioning.k(), 6);
    assert!(partitioning.rejected().is_empty());

    for backend in [
        Backend::SingleNode,
        Backend::Tuffy,
        Backend::Mpp {
            segments: 3,
            mode: MppMode::Optimized,
        },
        Backend::Mpp {
            segments: 3,
            mode: MppMode::NoViews,
        },
    ] {
        let expansion = expand(
            &kb,
            &ExpandOptions {
                backend,
                config: GroundingConfig::default(),
            },
        )
        .unwrap();
        assert_eq!(
            inferred_names(&kb, &expansion),
            expected_inferences(),
            "{backend:?} derived the wrong facts"
        );
        // 10 base facts + 6 derived.
        assert_eq!(expansion.outcome.facts.len(), 16, "{backend:?}");
        // 10 singleton factors + 6 rule factors.
        assert_eq!(expansion.outcome.factors.len(), 16, "{backend:?}");
        assert!(expansion.outcome.report.converged, "{backend:?}");
    }
}

#[test]
fn six_patterns_use_six_queries_per_iteration() {
    let kb = parse(SIX_PATTERNS).unwrap().build();
    let mut engine = SingleNodeEngine::new();
    let config = GroundingConfig {
        apply_constraints: false,
        ..GroundingConfig::default()
    };
    let out = ground(&kb, &mut engine, &config).unwrap();
    for iter in &out.report.iterations {
        assert_eq!(iter.queries, 6, "the paper's k = 6 queries per iteration");
    }
}

#[test]
fn semi_naive_handles_all_patterns() {
    let kb = parse(SIX_PATTERNS).unwrap().build();
    let mut engine = SingleNodeEngine::semi_naive();
    let config = GroundingConfig {
        apply_constraints: false,
        ..GroundingConfig::default()
    };
    let out = ground(&kb, &mut engine, &config).unwrap();
    assert_eq!(out.facts.len(), 16);
    assert_eq!(out.factors.len(), 16);
    // Iteration 1 has no frontier: one query per partition, like naive.
    // From iteration 2 on, frontier-restricted length-3 joins run two
    // queries per partition: 1×2 (for P1, P2) + 2×4 (for P3..P6) = 10.
    assert_eq!(out.report.iterations[0].queries, 6);
    assert_eq!(out.report.iterations[1].queries, 10);
}

#[test]
fn each_pattern_factor_links_head_to_its_body() {
    let kb = parse(SIX_PATTERNS).unwrap().build();
    let mut engine = SingleNodeEngine::new();
    let out = ground(&kb, &mut engine, &GroundingConfig::default()).unwrap();
    let lineage = Lineage::from_phi(&out.factors);

    use probkb::core::relmodel::tpi;
    let mut names = std::collections::HashMap::new();
    for row in out.facts.rows() {
        let id = row[tpi::I].as_int().unwrap();
        let rel = kb
            .relations
            .resolve(row[tpi::R].as_int().unwrap() as u32)
            .unwrap();
        names.insert(id, rel.to_string());
    }

    let mut checked = 0;
    for (id, rel) in &names {
        if !rel.starts_with('p') {
            continue; // base facts
        }
        let derivations = lineage.derivations(*id);
        assert_eq!(derivations.len(), 1, "{rel} should have one derivation");
        let body_rels: BTreeSet<String> = derivations[0]
            .body
            .iter()
            .map(|b| names[b].clone())
            .collect();
        let suffix = &rel[1..]; // "pN" → "N"
        let expected: BTreeSet<String> = if suffix == "1" || suffix == "2" {
            BTreeSet::from([format!("q{suffix}")])
        } else {
            BTreeSet::from([format!("q{suffix}"), format!("r{suffix}")])
        };
        assert_eq!(body_rels, expected, "{rel}'s body relations");
        checked += 1;
    }
    assert_eq!(checked, 6);
}

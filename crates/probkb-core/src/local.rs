//! Query-time local grounding (DESIGN.md, "Local grounding").
//!
//! Batch grounding (Algorithm 1) materializes the *entire* closure and
//! every ground factor before a single marginal can be served. For an
//! interactive endpoint that is the wrong trade: the ProPPR line of work
//! (Wang et al.) shows that grounding only the query's proof
//! neighborhood under a PageRank-style relevance budget yields
//! millisecond answers with bounded approximation error.
//!
//! [`LocalGrounder`] implements that idea over the materialized `TΠ`
//! closure: starting from one target fact, it chains through the six
//! structural rule partitions (§4.2.2) in *both* directions — rules that
//! derive the fact and rules the fact feeds — using
//! [`BTreeIndex`]-backed point probes instead of full scans, expanding
//! best-first under a [`LocalBudget`] with degree-damped PPR-style
//! scores. The result ([`LocalGround`]) is the canonical `TΦ`-shaped
//! factor slice of the query's Markov-blanket neighborhood; when
//! `frontier_stops == 0` it is exactly the query's connected component
//! of the global factor graph, so a sampler run on it must agree with
//! the global sampler within sampler tolerance — the differential
//! oracle `tests/local_grounding.rs` exploits.
//!
//! Determinism contract: the admitted node set and factor set are
//! canonicalized (facts by id, factors by `(I1, I2, I3, w)` exactly like
//! the batch driver's `canonicalize_factors`), so any two expansions
//! that admit the same subgraph — different covering budgets, different
//! frontier pop orders — produce byte-identical output.
//!
//! [`LocalCache`] memoizes answers keyed by `(fact key, budget)` with an
//! epoch stamp; [`LocalCache::advance`] carries entries across an
//! `apply_delta` exactly when the delta's touched-blanket set misses the
//! entry's support and the id remap is the identity on it — the two
//! conditions under which a fresh recompute is guaranteed byte-identical.
//!
//! [`BTreeIndex`]: probkb_relational::btree_index::BTreeIndex

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use probkb_kb::prelude::{classify, Atom, HornRule, RulePattern, Var};
use probkb_relational::btree_index::BTreeIndex;
use probkb_relational::prelude::{Catalog, Error, Result, Table, Value};
use probkb_relational::spill::{SpillPolicy, StorageContext};
use probkb_support::hash::{FxHashMap, FxHashSet};

use crate::relmodel::{names, tphi, tphi_schema, tpi};

/// Damping applied per expansion hop (the PPR restart mass stays on the
/// query): a neighbor reached from `u` scores `score(u) * DAMP / deg(u)`.
const DAMP: f64 = 0.85;

/// Relevance budget for one local grounding: caps on admitted variables
/// and materialized factors. `u64::MAX` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalBudget {
    /// Maximum facts (graph variables) admitted to the subgraph. The
    /// query fact itself is always admitted, even at 0.
    pub nodes: u64,
    /// Maximum factors materialized (singletons included).
    pub factors: u64,
}

impl LocalBudget {
    /// No caps: expansion stops only when the component is exhausted.
    pub const UNLIMITED: LocalBudget = LocalBudget {
        nodes: u64::MAX,
        factors: u64::MAX,
    };

    /// The same cap on nodes and factors.
    pub fn uniform(n: u64) -> LocalBudget {
        LocalBudget {
            nodes: n,
            factors: n,
        }
    }

    /// Parse `PROBKB_LOCAL_BUDGET`: unset or empty means unlimited,
    /// `N` caps both nodes and factors, `N,M` caps them separately.
    pub fn from_env() -> LocalBudget {
        match std::env::var("PROBKB_LOCAL_BUDGET") {
            Ok(s) if !s.trim().is_empty() => LocalBudget::parse(&s).unwrap_or(Self::UNLIMITED),
            _ => Self::UNLIMITED,
        }
    }

    /// Parse the `PROBKB_LOCAL_BUDGET` syntax from a string.
    pub fn parse(s: &str) -> Option<LocalBudget> {
        let s = s.trim();
        match s.split_once(',') {
            Some((n, m)) => Some(LocalBudget {
                nodes: n.trim().parse().ok()?,
                factors: m.trim().parse().ok()?,
            }),
            None => s.parse().ok().map(LocalBudget::uniform),
        }
    }

    /// True when nothing is capped.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }

    /// Render for `EXPLAIN`-style annotations: `unlimited` or `N/M`.
    pub fn render(&self) -> String {
        if self.is_unlimited() {
            "unlimited".to_string()
        } else {
            let part = |v: u64| {
                if v == u64::MAX {
                    "inf".to_string()
                } else {
                    v.to_string()
                }
            };
            format!("{}/{}", part(self.nodes), part(self.factors))
        }
    }
}

impl Default for LocalBudget {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// One deduplicated MLN rule tuple, mirroring a row of the `M1..M6`
/// tables (Definition 6 stores *sets*, so structurally identical rules
/// collapse to one factor exactly as in the batch path).
#[derive(Debug, Clone, PartialEq)]
struct LocalRule {
    pattern: RulePattern,
    head_rel: i64,
    /// Body atoms in the pattern's canonical `(q, r)` order.
    body: Vec<Atom>,
    cx: i64,
    cy: i64,
    cz: i64,
    weight: f64,
}

impl LocalRule {
    /// Class id of a rule variable (`-1` never matches a real class).
    fn class_of(&self, v: Var) -> i64 {
        match v {
            Var::X => self.cx,
            Var::Y => self.cy,
            Var::Z => self.cz,
        }
    }

    /// The dedup/sort key: identical tuples ground identical factors.
    fn tuple_key(&self) -> (u8, i64, i64, i64, i64, i64, i64, u64) {
        (
            self.pattern.index() as u8,
            self.head_rel,
            self.body[0].rel.as_i64(),
            self.body.get(1).map(|a| a.rel.as_i64()).unwrap_or(-1),
            self.cx,
            self.cy,
            self.cz,
            self.weight.to_bits(),
        )
    }
}

/// Identity of one candidate factor during expansion: the deduplicated
/// rule tuple that grounds it plus the participating fact ids. Two
/// discoveries of the same derivation (e.g. from the head and from a
/// body atom) collapse; two *different* rule tuples grounding the same
/// `(I1, I2, I3)` stay distinct, matching `TΦ`'s bag semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FactorKey {
    /// Index into the deduplicated rule list; `usize::MAX` = singleton.
    rule: usize,
    i1: i64,
    i2: i64,
    i3: i64,
}

#[derive(Debug, Clone, Copy)]
struct CandidateFactor {
    key: FactorKey,
    weight: f64,
}

impl CandidateFactor {
    fn vars(&self) -> impl Iterator<Item = i64> {
        [self.key.i1, self.key.i2, self.key.i3]
            .into_iter()
            .filter(|&i| i >= 0)
    }
}

/// The materialized result of one budgeted expansion: the canonical
/// local subgraph around the query fact.
#[derive(Debug, Clone)]
pub struct LocalGround {
    /// The query's fact id.
    pub query: i64,
    /// Admitted fact ids, ascending — the subgraph's variables.
    pub fact_ids: Vec<i64>,
    /// The local `TΦ` slice in canonical `(I1, I2, I3, w)` order,
    /// byte-identical for any expansion admitting the same subgraph.
    pub factors: Table,
    /// Factor admissions refused by the budget (with multiplicity).
    /// `0` means the subgraph is the query's *entire* connected
    /// component of the global factor graph.
    pub frontier_stops: u64,
    /// The budget the expansion ran under.
    pub budget: LocalBudget,
}

impl LocalGround {
    /// True when the budget covered the query's full proof neighborhood
    /// — the precondition for local ≈ global marginal agreement.
    pub fn complete(&self) -> bool {
        self.frontier_stops == 0
    }
}

/// Max-heap entry: best score first, then smallest fact id.
#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    score: f64,
    id: i64,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// A backward/forward chaining local grounder over a materialized `TΠ`
/// snapshot, probing through catalog-managed [`BTreeIndex`]es.
///
/// [`BTreeIndex`]: probkb_relational::btree_index::BTreeIndex
pub struct LocalGrounder {
    catalog: Catalog,
    /// Immutable `TΠ` snapshot (shared with the catalog entry).
    facts: Arc<Table>,
    /// Exact-key probe: `(R, x, C1, y, C2)` — fact keys are unique.
    by_key: Arc<BTreeIndex>,
    /// Enumerate by `(R, x, C1)` — facts with a given subject.
    by_subject: Arc<BTreeIndex>,
    /// Enumerate by `(R, y, C2)` — facts with a given object.
    by_object: Arc<BTreeIndex>,
    /// Fact id → row position.
    id_to_pos: FxHashMap<i64, usize>,
    /// Deduplicated rule tuples in canonical (sorted) order.
    rules: Vec<LocalRule>,
    /// Rule indexes: by head relation, and by body relation with the
    /// matching leg (0 = canonical `q`, 1 = canonical `r`).
    rules_by_head: FxHashMap<i64, Vec<usize>>,
    rules_by_body: FxHashMap<i64, Vec<(usize, u8)>>,
}

impl std::fmt::Debug for LocalGrounder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalGrounder")
            .field("facts", &self.facts.len())
            .field("rules", &self.rules.len())
            .field("btree_pages", &self.by_key.page_count())
            .finish()
    }
}

impl LocalGrounder {
    /// Build a grounder over a `TΠ` snapshot (any table with the
    /// [`tpi`] layout — `GroundingOutcome::facts` or
    /// `DeltaSession::facts()`) and the KB's Horn rules. Builds the
    /// three B-tree probe indexes through a private [`Catalog`] (the
    /// process spill policy applies; without one, index pages go to a
    /// session-private temp context).
    pub fn new(facts: Table, rules: &[HornRule]) -> Result<Self> {
        let catalog = Catalog::new();
        if catalog.spill_policy().is_none() {
            // No process default: the B-tree still needs page storage.
            // The pool is sized so that building three indexes over a
            // Table-2-scale snapshot stays in memory — a small pool
            // thrashes the pager during build and dominates
            // time-to-first-marginal (see `benches/local.rs`).
            let ctx = StorageContext::in_temp(4096).map_err(|e| {
                Error::Storage(format!("local grounder storage context: {e}"))
            })?;
            catalog.set_spill_policy(Some(SpillPolicy {
                ctx,
                // Never force the snapshot itself out of core.
                threshold_rows: usize::MAX,
            }));
        }
        catalog.create(names::TPI, facts)?;
        let facts = catalog.get(names::TPI)?;

        // The three probe indexes are independent bulk loads over the
        // same immutable snapshot — build them concurrently (and overlap
        // the id → position map on this thread): the build is the bulk
        // of cold time-to-first-marginal (see `benches/local.rs`).
        let (by_key, by_subject, by_object, id_to_pos) = std::thread::scope(|scope| {
            let key = scope.spawn(|| catalog.build_btree_index(names::TPI, &tpi::KEY));
            let subject = scope
                .spawn(|| catalog.build_btree_index(names::TPI, &[tpi::R, tpi::X, tpi::C1]));
            let object = catalog.build_btree_index(names::TPI, &[tpi::R, tpi::Y, tpi::C2]);

            let mut id_to_pos = FxHashMap::default();
            let mut pos = 0usize;
            for block in facts.blocks() {
                for row in block.rows() {
                    let id = row[tpi::I].as_int().expect("TΠ fact id");
                    id_to_pos.insert(id, pos);
                    pos += 1;
                }
            }
            (
                key.join().expect("index build panicked"),
                subject.join().expect("index build panicked"),
                object,
                id_to_pos,
            )
        });
        let (by_key, by_subject, by_object) = (by_key?, by_subject?, by_object?);

        // Deduplicate rule tuples with Definition 6's set semantics and
        // order them canonically so expansion order never depends on
        // rule declaration order.
        let mut tuples: Vec<LocalRule> = Vec::new();
        for rule in rules {
            let Ok(classified) = classify(rule) else {
                continue; // unclassifiable rules are not groundable
            };
            tuples.push(LocalRule {
                pattern: classified.pattern,
                head_rel: rule.head.rel.as_i64(),
                body: classified.body,
                cx: rule.cx.as_i64(),
                cy: rule.cy.as_i64(),
                cz: rule.cz.map(|c| c.as_i64()).unwrap_or(-1),
                weight: rule.weight,
            });
        }
        tuples.sort_by_key(LocalRule::tuple_key);
        tuples.dedup_by_key(|r| r.tuple_key());

        let mut rules_by_head: FxHashMap<i64, Vec<usize>> = FxHashMap::default();
        let mut rules_by_body: FxHashMap<i64, Vec<(usize, u8)>> = FxHashMap::default();
        for (i, rule) in tuples.iter().enumerate() {
            rules_by_head.entry(rule.head_rel).or_default().push(i);
            for (leg, atom) in rule.body.iter().enumerate() {
                rules_by_body
                    .entry(atom.rel.as_i64())
                    .or_default()
                    .push((i, leg as u8));
            }
        }

        Ok(LocalGrounder {
            catalog,
            facts,
            by_key,
            by_subject,
            by_object,
            id_to_pos,
            rules: tuples,
            rules_by_head,
            rules_by_body,
        })
    }

    /// Facts in the snapshot.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// Deduplicated groundable rule tuples.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The private catalog (observability: index stats).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The `(R, x, C1, y, C2)` key of a fact id, if present.
    pub fn key_of(&self, id: i64) -> Option<[i64; 5]> {
        let &pos = self.id_to_pos.get(&id)?;
        let row = &self.facts.rows()[pos];
        Some([
            row[tpi::R].as_int()?,
            row[tpi::X].as_int()?,
            row[tpi::C1].as_int()?,
            row[tpi::Y].as_int()?,
            row[tpi::C2].as_int()?,
        ])
    }

    /// The fact id carrying a `(R, x, C1, y, C2)` key, if present.
    pub fn id_of(&self, key: &[i64; 5]) -> Option<i64> {
        let probe: Vec<Value> = key.iter().map(|&v| Value::Int(v)).collect();
        let positions = self.by_key.get(&probe).ok()?;
        let &pos = positions.first()?;
        self.facts.rows()[pos][tpi::I].as_int()
    }

    /// Expand the proof neighborhood of fact `query` best-first under
    /// `budget`. Returns `None` when the fact id is unknown.
    pub fn expand(&self, query: i64, budget: LocalBudget) -> Option<LocalGround> {
        if !self.id_to_pos.contains_key(&query) {
            return None;
        }

        // Best known score per admitted fact; the heap may hold stale
        // (lower-scored) duplicates which are skipped on pop.
        let mut score: FxHashMap<i64, f64> = FxHashMap::default();
        let mut expanded: FxHashSet<i64> = FxHashSet::default();
        let mut heap: BinaryHeap<FrontierEntry> = BinaryHeap::new();
        let mut collected: FxHashSet<FactorKey> = FxHashSet::default();
        let mut factors: Vec<CandidateFactor> = Vec::new();
        let mut frontier_stops: u64 = 0;

        score.insert(query, 1.0);
        heap.push(FrontierEntry {
            score: 1.0,
            id: query,
        });

        while let Some(entry) = heap.pop() {
            if expanded.contains(&entry.id) || entry.score < score[&entry.id] {
                continue;
            }
            expanded.insert(entry.id);
            let candidates = self.incident_factors(entry.id);

            // Degree damping: distinct neighbors reachable from here.
            let mut neighbors: Vec<i64> = candidates
                .iter()
                .flat_map(CandidateFactor::vars)
                .filter(|&v| v != entry.id)
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            let hop = entry.score * DAMP / neighbors.len().max(1) as f64;

            for cand in candidates {
                if collected.contains(&cand.key) {
                    continue;
                }
                let mut fresh: Vec<i64> =
                    cand.vars().filter(|v| !score.contains_key(v)).collect();
                fresh.sort_unstable();
                fresh.dedup();
                if factors.len() as u64 + 1 > budget.factors
                    || score.len() as u64 + fresh.len() as u64 > budget.nodes
                {
                    frontier_stops += 1;
                    continue;
                }
                collected.insert(cand.key);
                factors.push(cand);
                for v in fresh {
                    score.insert(v, hop);
                    heap.push(FrontierEntry { score: hop, id: v });
                }
                // A better path to an already-admitted, unexpanded
                // neighbor re-prioritizes it.
                for v in cand.vars() {
                    if v != entry.id && !expanded.contains(&v) {
                        let best = score.get_mut(&v).expect("admitted");
                        if hop > *best {
                            *best = hop;
                            heap.push(FrontierEntry { score: hop, id: v });
                        }
                    }
                }
            }
        }

        // Canonical materialization: variables by ascending fact id,
        // factors in the batch driver's (I1, I2, I3, w) order.
        let mut fact_ids: Vec<i64> = score.keys().copied().collect();
        fact_ids.sort_unstable();
        let mut table = Table::empty(tphi_schema());
        for f in &factors {
            let opt = |i: i64| if i >= 0 { Value::Int(i) } else { Value::Null };
            table.push_unchecked(vec![
                Value::Int(f.key.i1),
                opt(f.key.i2),
                opt(f.key.i3),
                Value::Float(f.weight),
            ]);
        }
        table.sort_by_cols(&[tphi::I1, tphi::I2, tphi::I3, tphi::W]);

        Some(LocalGround {
            query,
            fact_ids,
            factors: table,
            frontier_stops,
            budget,
        })
    }

    /// Every ground factor incident to fact `id`, in deterministic
    /// order: the singleton first, then per canonical rule tuple the
    /// head role, then each body leg, candidates ordered by fact id.
    fn incident_factors(&self, id: i64) -> Vec<CandidateFactor> {
        let pos = self.id_to_pos[&id];
        let row = &self.facts.rows()[pos];
        let rel = row[tpi::R].as_int().expect("R");
        let x = row[tpi::X].as_int().expect("x");
        let c1 = row[tpi::C1].as_int().expect("C1");
        let y = row[tpi::Y].as_int().expect("y");
        let c2 = row[tpi::C2].as_int().expect("C2");

        let mut out = Vec::new();
        if let Some(w) = row[tpi::W].as_float() {
            out.push(CandidateFactor {
                key: FactorKey {
                    rule: usize::MAX,
                    i1: id,
                    i2: -1,
                    i3: -1,
                },
                weight: w,
            });
        }

        // Head role: rules deriving this fact (backward chaining).
        if let Some(rule_ids) = self.rules_by_head.get(&rel) {
            for &ri in rule_ids {
                let rule = &self.rules[ri];
                if rule.cx != c1 || rule.cy != c2 {
                    continue;
                }
                let bindings = [(Var::X, x), (Var::Y, y)];
                self.complete_rule(rule, ri, &bindings, RolePos::Head(id), &mut out);
            }
        }

        // Body roles: rules this fact feeds (forward chaining). The
        // head fact must already be in the closure for a factor to
        // exist — exactly groundFactors' head re-join semantics.
        if let Some(rule_legs) = self.rules_by_body.get(&rel) {
            for &(ri, leg) in rule_legs {
                let rule = &self.rules[ri];
                let atom = rule.body[leg as usize];
                if rule.class_of(atom.a) != c1 || rule.class_of(atom.b) != c2 {
                    continue;
                }
                let bindings = [(atom.a, x), (atom.b, y)];
                self.complete_rule(rule, ri, &bindings, RolePos::Body(leg, id), &mut out);
            }
        }
        out
    }

    /// Enumerate all groundings of `rule` consistent with `bindings`
    /// (the variables the anchor fact fixes) and append one candidate
    /// factor per grounding. At most one variable is free (`z` from the
    /// head role, `x` or `y` from a body role), so enumeration is one
    /// partial-key index scan plus exact probes.
    fn complete_rule(
        &self,
        rule: &LocalRule,
        rule_idx: usize,
        bindings: &[(Var, i64)],
        role: RolePos,
        out: &mut Vec<CandidateFactor>,
    ) {
        // Atoms still to satisfy, in a fixed order: unmatched body
        // atoms first (canonical order), then the head unless anchored.
        let head_atom = Atom::new(
            probkb_kb::prelude::RelationId::from_i64(rule.head_rel),
            Var::X,
            Var::Y,
        );
        let mut todo: Vec<(Slot, Atom)> = Vec::new();
        match role {
            RolePos::Head(_) => {
                for (leg, atom) in rule.body.iter().enumerate() {
                    todo.push((Slot::Body(leg as u8), *atom));
                }
            }
            RolePos::Body(anchor_leg, _) => {
                for (leg, atom) in rule.body.iter().enumerate() {
                    if leg as u8 != anchor_leg {
                        todo.push((Slot::Body(leg as u8), *atom));
                    }
                }
                todo.push((Slot::Head, head_atom));
            }
        }

        let mut env: FxHashMap<Var, i64> = bindings.iter().copied().collect();
        let mut resolved: Vec<(Slot, i64)> = Vec::new();
        self.enumerate(rule, rule_idx, &todo, 0, &mut env, &mut resolved, role, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &self,
        rule: &LocalRule,
        rule_idx: usize,
        todo: &[(Slot, Atom)],
        depth: usize,
        env: &mut FxHashMap<Var, i64>,
        resolved: &mut Vec<(Slot, i64)>,
        role: RolePos,
        out: &mut Vec<CandidateFactor>,
    ) {
        if depth == todo.len() {
            // Fully ground: the anchor provides its own slot id, every
            // other slot was resolved on the way down.
            let id_of_slot = |slot: Slot| -> i64 {
                match (role, slot) {
                    (RolePos::Head(id), Slot::Head) => id,
                    (RolePos::Body(leg, id), Slot::Body(l)) if l == leg => id,
                    _ => {
                        resolved
                            .iter()
                            .find(|(s, _)| *s == slot)
                            .expect("slot resolved")
                            .1
                    }
                }
            };
            let i1 = id_of_slot(Slot::Head);
            let i2 = id_of_slot(Slot::Body(0));
            let i3 = if rule.body.len() > 1 {
                id_of_slot(Slot::Body(1))
            } else {
                -1
            };
            out.push(CandidateFactor {
                key: FactorKey {
                    rule: rule_idx,
                    i1,
                    i2,
                    i3,
                },
                weight: rule.weight,
            });
            return;
        }

        let (slot, atom) = todo[depth];
        let (ca, cb) = match slot {
            Slot::Head => (rule.cx, rule.cy),
            Slot::Body(_) => (rule.class_of(atom.a), rule.class_of(atom.b)),
        };
        let a_val = env.get(&atom.a).copied();
        let b_val = env.get(&atom.b).copied();
        let matches: Vec<(usize, i64, i64)> = match (a_val, b_val) {
            (Some(a), Some(b)) => {
                // Fully bound: one exact-key probe.
                let key = [
                    Value::Int(atom.rel.as_i64()),
                    Value::Int(a),
                    Value::Int(ca),
                    Value::Int(b),
                    Value::Int(cb),
                ];
                match self.by_key.get(&key) {
                    Ok(positions) => positions.into_iter().map(|p| (p, a, b)).collect(),
                    Err(_) => Vec::new(),
                }
            }
            (Some(a), None) => {
                // Subject bound: scan `(R, x, C1)`, filter the object
                // class, the object value binds the free variable.
                let key = [Value::Int(atom.rel.as_i64()), Value::Int(a), Value::Int(ca)];
                self.scan_filtered(&self.by_subject, &key, tpi::C2, cb, tpi::Y)
                    .into_iter()
                    .map(|(p, b)| (p, a, b))
                    .collect()
            }
            (None, Some(b)) => {
                let key = [Value::Int(atom.rel.as_i64()), Value::Int(b), Value::Int(cb)];
                self.scan_filtered(&self.by_object, &key, tpi::C1, ca, tpi::X)
                    .into_iter()
                    .map(|(p, a)| (p, a, b))
                    .collect()
            }
            (None, None) => {
                // Never happens: the anchor always binds 2 of the ≤3
                // variables, and atoms sharing z are ordered after it.
                Vec::new()
            }
        };

        for (pos, a, b) in matches {
            let fact_id = self.facts.rows()[pos][tpi::I].as_int().expect("I");
            let restore_a = env.insert(atom.a, a);
            let restore_b = env.insert(atom.b, b);
            resolved.push((slot, fact_id));
            self.enumerate(rule, rule_idx, todo, depth + 1, env, resolved, role, out);
            resolved.pop();
            restore(env, atom.b, restore_b);
            restore(env, atom.a, restore_a);
        }
    }

    /// Partial-key scan: positions matching `key` on `index`, filtered
    /// by `filter_col == filter_val`, returning `(pos, bound_col)`
    /// pairs sorted by the bound fact id for determinism.
    fn scan_filtered(
        &self,
        index: &BTreeIndex,
        key: &[Value],
        filter_col: usize,
        filter_val: i64,
        bound_col: usize,
    ) -> Vec<(usize, i64)> {
        let positions = match index.get(key) {
            Ok(p) => p,
            Err(_) => return Vec::new(),
        };
        let rows = self.facts.rows();
        let mut out: Vec<(usize, i64)> = positions
            .into_iter()
            .filter(|&p| rows[p][filter_col].as_int() == Some(filter_val))
            .map(|p| (p, rows[p][bound_col].as_int().expect("entity")))
            .collect();
        out.sort_by_key(|&(p, _)| rows[p][tpi::I].as_int());
        out
    }
}

/// Which role the anchor fact plays in the rule being completed.
#[derive(Debug, Clone, Copy)]
enum RolePos {
    Head(i64),
    Body(u8, i64),
}

/// A position in a rule's factor row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Head,
    Body(u8),
}

fn restore(env: &mut FxHashMap<Var, i64>, key: Var, prev: Option<i64>) {
    match prev {
        Some(v) => {
            env.insert(key, v);
        }
        None => {
            env.remove(&key);
        }
    }
}

/// Cache lookup outcome, carried into the `cache=` annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalCacheStatus {
    /// Computed fresh this request.
    Miss,
    /// Served from an entry computed at this epoch.
    Hit,
    /// Served from an entry carried across `apply_delta` because the
    /// delta's touched blanket missed its support.
    Carried,
}

impl LocalCacheStatus {
    /// Annotation token.
    pub fn as_str(&self) -> &'static str {
        match self {
            LocalCacheStatus::Miss => "miss",
            LocalCacheStatus::Hit => "hit",
            LocalCacheStatus::Carried => "carried",
        }
    }
}

/// One memoized local answer.
#[derive(Debug, Clone)]
pub struct LocalCacheEntry {
    /// Epoch the entry is valid for.
    pub epoch: u64,
    /// The marginal.
    pub p: f64,
    /// Subgraph size when computed.
    pub nodes: u64,
    /// Factors materialized when computed.
    pub factors: u64,
    /// Budget refusals when computed.
    pub frontier_stops: u64,
    /// True when exact enumeration produced `p`.
    pub exact: bool,
    /// The admitted fact ids — the support the invalidation rule tests
    /// against a delta's touched-blanket set.
    pub support: Vec<i64>,
    /// True when the entry survived at least one `advance`.
    pub carried: bool,
}

/// What one [`LocalCache::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheAdvance {
    /// Entries carried to the new epoch.
    pub kept: usize,
    /// Entries evicted (touched support, remapped ids, or fallback).
    pub evicted: usize,
}

/// Memoized local marginals keyed by `(fact key, budget)`, stamped with
/// the epoch they were computed at.
#[derive(Debug, Clone, Default)]
pub struct LocalCache {
    entries: FxHashMap<([i64; 5], LocalBudget), LocalCacheEntry>,
}

impl LocalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `(key, budget)` valid at `epoch`, if any.
    pub fn get(&self, key: &[i64; 5], budget: LocalBudget, epoch: u64) -> Option<&LocalCacheEntry> {
        self.entries
            .get(&(*key, budget))
            .filter(|e| e.epoch == epoch)
    }

    /// Memoize an answer.
    pub fn put(&mut self, key: [i64; 5], budget: LocalBudget, entry: LocalCacheEntry) {
        self.entries.insert((key, budget), entry);
    }

    /// Cross the cache over an applied delta. An entry survives exactly
    /// when a fresh recompute is guaranteed byte-identical: the delta's
    /// touched-blanket set (`touched`, post-delta fact ids) misses its
    /// support, and the id remap is the identity on the support (so the
    /// canonical subgraph and its variable numbering are unchanged). A
    /// full-fallback delta clears everything.
    pub fn advance(
        &mut self,
        new_epoch: u64,
        touched: &FxHashSet<i64>,
        remap: &[i64],
        full_fallback: bool,
    ) -> CacheAdvance {
        let mut stats = CacheAdvance::default();
        if full_fallback {
            stats.evicted = self.entries.len();
            self.entries.clear();
            return stats;
        }
        self.entries.retain(|_, entry| {
            let stable = entry.support.iter().all(|&s| {
                let mapped = remap.get(s as usize).copied().unwrap_or(s);
                mapped == s && !touched.contains(&s)
            });
            if stable {
                entry.epoch = new_epoch;
                entry.carried = true;
                stats.kept += 1;
            } else {
                stats.evicted += 1;
            }
            stable
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{expand, ExpandOptions};
    use probkb_kb::parser::parse;

    fn ground(text: &str) -> (Table, Vec<HornRule>) {
        let kb = parse(text).unwrap().build();
        let expansion = expand(&kb, &ExpandOptions::default()).unwrap();
        (expansion.outcome.facts, kb.rules)
    }

    const SIX: &str = r#"
        fact 0.9 q1(a:A, b:B)
        fact 0.8 q2(b:B, a:A)
        fact 0.7 q3(c:C, a:A)
        fact 0.6 q3(c:C, b:B)
        fact 0.5 q4(a:A, c:C)
        rule 1.0 p1(x:A, y:B) :- q1(x, y)
        rule 1.1 p2(x:A, y:B) :- q2(y, x)
        rule 1.2 p3(x:A, y:B) :- q3(z:C, x), q3(z, y)
        rule 1.3 p4(x:A, y:B) :- q4(x, z:C), q3(z, y)
        rule 1.4 p5(x:A, y:B) :- q3(z:C, x), q2(y, z)
        rule 1.5 p6(x:A, y:B) :- q4(x, z:C), q2(y, z)
    "#;

    #[test]
    fn unlimited_expansion_reproduces_component_factors() {
        let (facts, rules) = ground(SIX);
        let grounder = LocalGrounder::new(facts.clone(), &rules).unwrap();
        // Global TΦ for the same KB, filtered to each query's component,
        // must equal the local slice when the budget is unlimited.
        let kb = parse(SIX).unwrap().build();
        let expansion = expand(&kb, &ExpandOptions::default()).unwrap();
        let phi = &expansion.outcome.factors;

        // Union-find the global components over factor rows.
        let mut parent: FxHashMap<i64, i64> = FxHashMap::default();
        fn find(parent: &mut FxHashMap<i64, i64>, v: i64) -> i64 {
            let p = *parent.entry(v).or_insert(v);
            if p == v {
                v
            } else {
                let r = find(parent, p);
                parent.insert(v, r);
                r
            }
        }
        for row in phi.rows() {
            let ids: Vec<i64> = [tphi::I1, tphi::I2, tphi::I3]
                .iter()
                .filter_map(|&c| row[c].as_int())
                .collect();
            for w in ids.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                parent.insert(a, b);
            }
        }

        for row in facts.rows() {
            let id = row[tpi::I].as_int().unwrap();
            let local = grounder.expand(id, LocalBudget::UNLIMITED).unwrap();
            assert!(local.complete(), "fact {id} frontier_stops");
            let root = find(&mut parent, id);
            let mut expected: Vec<Vec<Value>> = phi
                .rows()
                .iter()
                .filter(|r| {
                    let head = r[tphi::I1].as_int().unwrap();
                    find(&mut parent, head) == root
                })
                .map(|r| r.to_vec())
                .collect();
            expected.sort_by(|a, b| {
                let key = |r: &Vec<Value>| {
                    (
                        r[tphi::I1].as_int(),
                        r[tphi::I2].as_int(),
                        r[tphi::I3].as_int(),
                        r[tphi::W].as_float().map(f64::to_bits),
                    )
                };
                key(a).partial_cmp(&key(b)).unwrap()
            });
            let got: Vec<Vec<Value>> = local.factors.rows().to_vec();
            assert_eq!(got, expected, "fact {id} local != component slice");
        }
    }

    #[test]
    fn budget_zero_admits_only_the_query() {
        let (facts, rules) = ground(SIX);
        let grounder = LocalGrounder::new(facts, &rules).unwrap();
        let local = grounder.expand(0, LocalBudget::uniform(0)).unwrap();
        assert_eq!(local.fact_ids, vec![0]);
        assert_eq!(local.factors.len(), 0);
        assert!(local.frontier_stops > 0);
    }

    #[test]
    fn unknown_fact_returns_none() {
        let (facts, rules) = ground(SIX);
        let grounder = LocalGrounder::new(facts, &rules).unwrap();
        assert!(grounder.expand(999_999, LocalBudget::UNLIMITED).is_none());
    }

    #[test]
    fn covering_budgets_are_byte_identical() {
        let (facts, rules) = ground(SIX);
        let grounder = LocalGrounder::new(facts, &rules).unwrap();
        let a = grounder.expand(0, LocalBudget::UNLIMITED).unwrap();
        let b = grounder.expand(0, LocalBudget::uniform(10_000)).unwrap();
        let c = grounder
            .expand(
                0,
                LocalBudget {
                    nodes: 5_000,
                    factors: 9_999,
                },
            )
            .unwrap();
        for other in [&b, &c] {
            assert_eq!(a.fact_ids, other.fact_ids);
            assert_eq!(a.factors.rows(), other.factors.rows());
            assert_eq!(other.frontier_stops, 0);
        }
    }

    #[test]
    fn duplicate_rules_collapse_like_mln_tables() {
        let text = r#"
            fact 0.9 q(a:A, b:B)
            rule 1.5 p(x:A, y:B) :- q(x, y)
            rule 1.5 p(x:A, y:B) :- q(x, y)
            rule 2.0 p(x:A, y:B) :- q(x, y)
        "#;
        let (facts, rules) = ground(text);
        let grounder = LocalGrounder::new(facts, &rules).unwrap();
        // One singleton + two distinct rule factors (1.5 deduped, 2.0
        // distinct) touch the base fact.
        let local = grounder.expand(0, LocalBudget::UNLIMITED).unwrap();
        assert_eq!(grounder.num_rules(), 2);
        assert_eq!(local.factors.len(), 3);
    }

    #[test]
    fn budget_env_parsing() {
        assert_eq!(LocalBudget::parse("64"), Some(LocalBudget::uniform(64)));
        assert_eq!(
            LocalBudget::parse(" 8 , 32 "),
            Some(LocalBudget {
                nodes: 8,
                factors: 32
            })
        );
        assert_eq!(LocalBudget::parse("x"), None);
        assert_eq!(LocalBudget::UNLIMITED.render(), "unlimited");
        assert_eq!(LocalBudget::uniform(4).render(), "4/4");
    }

    #[test]
    fn cache_advance_keeps_untouched_identity_mapped_entries() {
        let mut cache = LocalCache::new();
        let entry = |support: Vec<i64>| LocalCacheEntry {
            epoch: 0,
            p: 0.5,
            nodes: support.len() as u64,
            factors: 1,
            frontier_stops: 0,
            exact: true,
            support,
            carried: false,
        };
        cache.put([1, 2, 3, 4, 5], LocalBudget::UNLIMITED, entry(vec![0, 1]));
        cache.put([9, 2, 3, 4, 5], LocalBudget::UNLIMITED, entry(vec![2]));
        cache.put([8, 2, 3, 4, 5], LocalBudget::UNLIMITED, entry(vec![3]));

        let touched: FxHashSet<i64> = [1i64].into_iter().collect();
        // Identity remap for 0..3, but fact 3 is renumbered.
        let remap = vec![0i64, 1, 2, 7];
        let stats = cache.advance(1, &touched, &remap, false);
        assert_eq!(stats, CacheAdvance { kept: 1, evicted: 2 });
        assert!(cache.get(&[9, 2, 3, 4, 5], LocalBudget::UNLIMITED, 1).is_some());
        assert!(cache.get(&[1, 2, 3, 4, 5], LocalBudget::UNLIMITED, 1).is_none());
        let carried = cache.get(&[9, 2, 3, 4, 5], LocalBudget::UNLIMITED, 1).unwrap();
        assert!(carried.carried);

        // Full fallback clears everything.
        let stats = cache.advance(2, &FxHashSet::default(), &[], true);
        assert_eq!(stats.evicted, 1);
        assert!(cache.is_empty());
    }
}

//! `TimedEngine`: a [`GroundingEngine`] that delegates every call to a
//! [`SingleNodeEngine`] and records a span around it. The grounding
//! driver's self time is then its own span minus these — attribution
//! from outside, with no edit inside the program.

use std::collections::HashSet;

use probkb::prelude::{GroundingEngine, RelationalKb, SingleNodeEngine, ViolatorKey};
use probkb_relational::prelude::{Result, Row, Table};

use crate::spans::Tracer;

pub struct TimedEngine<'a> {
    inner: SingleNodeEngine,
    tracer: &'a Tracer,
    op_id: u64,
    /// Rows `ground_atoms` returned over the whole run: the candidates
    /// the driver had to deduplicate against `TΠ`.
    pub candidate_rows: u64,
}

impl<'a> TimedEngine<'a> {
    pub fn new(tracer: &'a Tracer, op_id: u64) -> Self {
        TimedEngine {
            inner: SingleNodeEngine::new(),
            tracer,
            op_id,
            candidate_rows: 0,
        }
    }

    /// The wrapped engine (its catalog holds the final `TΠ` and `Mi`).
    pub fn into_inner(self) -> SingleNodeEngine {
        self.inner
    }
}

impl GroundingEngine for TimedEngine<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn set_optimize(&mut self, optimize: bool) {
        self.inner.set_optimize(optimize);
    }

    fn load(&mut self, rel: &RelationalKb) -> Result<()> {
        let _span = self.tracer.span("engine.load", self.op_id);
        self.inner.load(rel)
    }

    fn ground_atoms(&mut self) -> Result<(Table, usize)> {
        let _span = self.tracer.span("engine.ground_atoms", self.op_id);
        let out = self.inner.ground_atoms()?;
        self.candidate_rows += out.0.len() as u64;
        Ok(out)
    }

    fn insert_facts(&mut self, rows: Vec<Row>) -> Result<usize> {
        let _span = self.tracer.span("engine.insert_facts", self.op_id);
        self.inner.insert_facts(rows)
    }

    fn find_violators(&mut self) -> Result<HashSet<ViolatorKey>> {
        let _span = self.tracer.span("engine.constraints", self.op_id);
        self.inner.find_violators()
    }

    fn delete_violators(&mut self, violators: &HashSet<ViolatorKey>) -> Result<usize> {
        let _span = self.tracer.span("engine.constraints", self.op_id);
        self.inner.delete_violators(violators)
    }

    fn redistribute(&mut self) -> Result<()> {
        self.inner.redistribute()
    }

    fn ground_factors(&mut self) -> Result<(Table, usize)> {
        let _span = self.tracer.span("engine.ground_factors", self.op_id);
        self.inner.ground_factors()
    }

    fn fact_count(&self) -> Result<usize> {
        self.inner.fact_count()
    }

    fn facts(&self) -> Result<Table> {
        // The final `TΠ` snapshot is part of producing the output.
        let _span = self.tracer.span("engine.ground_factors", self.op_id);
        self.inner.facts()
    }

    fn export_state(&self) -> Result<Vec<(String, Table)>> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &[(String, Table)]) -> Result<()> {
        self.inner.import_state(state)
    }
}

//! Time-varying topologies — iterative consensus when the communication
//! graph changes between rounds.
//!
//! The paper fixes one graph `G(V, E)` for the whole execution. Real
//! networks churn: links fade, radios hop, overlays reconfigure. This
//! module runs Algorithm 1 over a [`TopologySchedule`] — a function from
//! round number to graph — and makes precise which of the paper's
//! guarantees survive:
//!
//! * **Validity is per-round.** Theorem 2's argument only needs the round's
//!   own graph to give every fault-free node in-degree `≥ 2f` (with
//!   in-degree exactly `2f` the survivor set is empty and the node keeps
//!   its own value — still in-hull). So if every scheduled graph passes
//!   [`validity_floor`], states never leave the honest input hull, no
//!   matter how the schedule interleaves graphs.
//! * **Convergence needs recurring dwell.** The Lemma 5 contraction uses
//!   one fixed graph for the `l ≤ n − f − 1` rounds of a propagation
//!   phase. A schedule that *dwells* on a Theorem-1-satisfying graph for
//!   at least that long, infinitely often, therefore converges: each dwell
//!   window contracts the honest range by `(1 − αˡ/2)` and validity holds
//!   in between. Rapid switching between individually-satisfying graphs
//!   is *not* covered by the paper's argument — experiment X11 measures
//!   what actually happens (in practice round-robin switching converges
//!   comfortably; the bound is what is lost, not the behaviour).
//!
//! Violating graphs in the schedule are permitted: rounds spent on them
//! may simply fail to contract (the Theorem 1 adversary can freeze them),
//! and the run converges iff the satisfying dwells dominate.

use std::fmt;

use iabc_core::rules::UpdateRule;
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{Adversary, AdversaryView};
// Phase 2 of the dynamic engine is the SAME pure per-node function as the
// static engine's, applied to the compiled form of this round's graph —
// one copy, so the engine-equivalence goldens can never diverge between
// the two.
use crate::engine::step_node;
use crate::error::SimError;
use crate::plan::{fill_plan, plan_tables, PlannedEdge, RoundPlan};
use crate::run::{honest_range_of, Engine, Outcome, RunConfig, StepStatus};
use iabc_exec::{Chunking, Executor, ScratchPool};

/// A round-indexed communication topology. Rounds are 1-based, matching
/// the engine (`graph_at(1)` is the graph used by the first iteration).
///
/// **Contract:** every reference `graph_at` returns is one of the
/// references `distinct_graphs` returns — the same object, not merely an
/// equal graph. [`DynamicSimulation`] compiles each distinct graph once
/// and looks up a round's compiled form by reference identity; it panics
/// on a round whose graph is not in the list.
pub trait TopologySchedule: fmt::Debug {
    /// Number of nodes; constant across rounds.
    fn node_count(&self) -> usize;

    /// The graph the given round communicates over: one of
    /// [`TopologySchedule::distinct_graphs`].
    fn graph_at(&self, round: usize) -> &Digraph;

    /// The distinct graphs the schedule can ever produce — what the
    /// dynamic engine compiles, and what condition checks iterate (e.g.
    /// asserting each satisfies Theorem 1 or the validity floor).
    fn distinct_graphs(&self) -> Vec<&Digraph>;
}

/// The degenerate schedule: one fixed graph every round (the paper's
/// setting; used to pin the dynamic engine to the static one in tests).
#[derive(Debug, Clone)]
pub struct StaticSchedule {
    graph: Digraph,
}

impl StaticSchedule {
    /// Wraps a fixed graph.
    pub fn new(graph: Digraph) -> Self {
        StaticSchedule { graph }
    }
}

impl TopologySchedule for StaticSchedule {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn graph_at(&self, _round: usize) -> &Digraph {
        &self.graph
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        vec![&self.graph]
    }
}

/// Cycles through `graphs`, holding each for `dwell` consecutive rounds.
///
/// With `dwell ≥ n − f − 1` every full pass over a Theorem-1-satisfying
/// member contains a complete Lemma 5 propagation phase on that graph, so
/// the honest range provably contracts once per cycle (see module docs).
#[derive(Debug, Clone)]
pub struct RoundRobinSchedule {
    graphs: Vec<Digraph>,
    dwell: usize,
}

impl RoundRobinSchedule {
    /// Builds the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySchedule`] with no graphs, or
    /// [`SimError::ScheduleMismatch`] if the graphs disagree on node count.
    /// A `dwell` of zero is treated as one.
    pub fn new(graphs: Vec<Digraph>, dwell: usize) -> Result<Self, SimError> {
        let Some(first) = graphs.first() else {
            return Err(SimError::EmptySchedule);
        };
        let n = first.node_count();
        if let Some(bad) = graphs.iter().find(|g| g.node_count() != n) {
            return Err(SimError::ScheduleMismatch {
                expected: n,
                got: bad.node_count(),
            });
        }
        Ok(RoundRobinSchedule {
            graphs,
            dwell: dwell.max(1),
        })
    }

    /// How long each graph is held.
    pub fn dwell(&self) -> usize {
        self.dwell
    }
}

impl TopologySchedule for RoundRobinSchedule {
    fn node_count(&self) -> usize {
        self.graphs[0].node_count()
    }

    fn graph_at(&self, round: usize) -> &Digraph {
        let slot = round.saturating_sub(1) / self.dwell;
        &self.graphs[slot % self.graphs.len()]
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        self.graphs.iter().collect()
    }
}

/// Uses `before` up to and including round `switch_after`, then `after`
/// forever — models a one-shot repair or degradation event.
#[derive(Debug, Clone)]
pub struct SwitchOnceSchedule {
    before: Digraph,
    after: Digraph,
    switch_after: usize,
}

impl SwitchOnceSchedule {
    /// Builds the schedule; the switch happens after round `switch_after`
    /// (so `switch_after = 0` means `after` is used from the first round).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleMismatch`] if node counts differ.
    pub fn new(before: Digraph, after: Digraph, switch_after: usize) -> Result<Self, SimError> {
        if before.node_count() != after.node_count() {
            return Err(SimError::ScheduleMismatch {
                expected: before.node_count(),
                got: after.node_count(),
            });
        }
        Ok(SwitchOnceSchedule {
            before,
            after,
            switch_after,
        })
    }
}

impl TopologySchedule for SwitchOnceSchedule {
    fn node_count(&self) -> usize {
        self.before.node_count()
    }

    fn graph_at(&self, round: usize) -> &Digraph {
        if round <= self.switch_after {
            &self.before
        } else {
            &self.after
        }
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        vec![&self.before, &self.after]
    }
}

/// A pre-sampled sequence of per-round graphs (cycled past its end).
/// Produced by [`sample_edge_drops`]; also usable directly for arbitrary
/// recorded schedules.
#[derive(Debug, Clone)]
pub struct SequenceSchedule {
    graphs: Vec<Digraph>,
}

impl SequenceSchedule {
    /// Wraps an explicit per-round sequence (round `t` uses
    /// `graphs[(t − 1) % len]`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySchedule`] or [`SimError::ScheduleMismatch`]
    /// like [`RoundRobinSchedule::new`].
    pub fn new(graphs: Vec<Digraph>) -> Result<Self, SimError> {
        let Some(first) = graphs.first() else {
            return Err(SimError::EmptySchedule);
        };
        let n = first.node_count();
        if let Some(bad) = graphs.iter().find(|g| g.node_count() != n) {
            return Err(SimError::ScheduleMismatch {
                expected: n,
                got: bad.node_count(),
            });
        }
        Ok(SequenceSchedule { graphs })
    }

    /// Number of sampled rounds before the sequence repeats.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// `false` always (construction rejects empty sequences); provided for
    /// the conventional pairing with [`SequenceSchedule::len`].
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

impl TopologySchedule for SequenceSchedule {
    fn node_count(&self) -> usize {
        self.graphs[0].node_count()
    }

    fn graph_at(&self, round: usize) -> &Digraph {
        &self.graphs[round.saturating_sub(1) % self.graphs.len()]
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        self.graphs.iter().collect()
    }
}

/// Samples `rounds` per-round graphs from `base` by dropping each edge
/// independently with probability `drop_p`, **except** that no drop is
/// allowed to take a node's in-degree below `floor` (pass `floor = 2f` to
/// keep Algorithm 1 total and validity intact — see the module docs).
///
/// Deterministic in `seed`.
///
/// # Errors
///
/// Returns [`SimError::ScheduleMismatch`] if `base` itself has a node
/// below `floor` (the floor cannot be honoured), and
/// [`SimError::EmptySchedule`] when `rounds` is zero.
pub fn sample_edge_drops(
    base: &Digraph,
    drop_p: f64,
    floor: usize,
    seed: u64,
    rounds: usize,
) -> Result<SequenceSchedule, SimError> {
    if base.min_in_degree() < floor {
        return Err(SimError::ScheduleMismatch {
            expected: floor,
            got: base.min_in_degree(),
        });
    }
    if rounds == 0 {
        return Err(SimError::EmptySchedule);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = base.node_count();
    let mut graphs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut g = base.clone();
        for v in 0..n {
            let v = NodeId::new(v);
            let in_neighbors: Vec<NodeId> = base.in_neighbors(v).iter().collect();
            let mut remaining = in_neighbors.len();
            for u in in_neighbors {
                if remaining > floor && rng.random_bool(drop_p) {
                    g.remove_edge(u, v);
                    remaining -= 1;
                }
            }
        }
        graphs.push(g);
    }
    SequenceSchedule::new(graphs)
}

/// `true` iff every fault-free node has in-degree `≥ 2f` in `g` — the
/// floor under which one Algorithm 1 round preserves validity (Theorem 2's
/// argument; see module docs). Faulty nodes need no floor: their updates
/// are never computed.
pub fn validity_floor(g: &Digraph, f: usize, fault_set: &NodeSet) -> bool {
    g.nodes()
        .filter(|v| !fault_set.contains(*v))
        .all(|v| g.in_degree(v) >= 2 * f)
}

/// One schedule graph compiled for a run: its CSR and the faulty-edge plan
/// tables (query-order slot list and dense slot → edge inverse).
#[derive(Debug)]
struct CompiledGraph<'a> {
    /// The schedule graph this entry was compiled from; rounds find their
    /// entry by this reference's identity.
    graph: &'a Digraph,
    topology: CompiledTopology,
    planned_edges: Vec<PlannedEdge>,
    slot_edges: Vec<PlannedEdge>,
}

impl<'a> CompiledGraph<'a> {
    fn new(graph: &'a Digraph, fault_set: &NodeSet) -> Self {
        let topology = CompiledTopology::compile(graph, fault_set);
        let (planned_edges, slot_edges) = plan_tables(&topology);
        CompiledGraph {
            graph,
            topology,
            planned_edges,
            slot_edges,
        }
    }
}

/// A synchronous simulation over a time-varying topology. Mirrors
/// [`crate::Simulation`] exactly, but each round's sends and receives use
/// the schedule's graph for that round.
///
/// Each round of Algorithm 1 is an update fixed by that round's graph, so
/// the engine compiles each of [`TopologySchedule::distinct_graphs`] once,
/// at construction, into a [`CompiledTopology`] plus the faulty-edge slot
/// lists the two-phase protocol keys its plans on. A round picks its entry
/// by the identity of [`TopologySchedule::graph_at`]'s reference, so a
/// switching schedule pays no recompilation at all, and the per-round
/// loop is the same double-buffered, allocation-free gather as the static
/// engine — including its [`DynamicSimulation::with_jobs`] parallel node
/// loop with the bit-for-bit determinism contract. The extra memory is one
/// CSR per distinct schedule graph.
///
/// # Examples
///
/// ```
/// use iabc_core::rules::TrimmedMean;
/// use iabc_graph::{generators, NodeSet};
/// use iabc_sim::adversary::ExtremesAdversary;
/// use iabc_sim::dynamic::RoundRobinSchedule;
/// use iabc_sim::{RunConfig, Scenario};
///
/// // Alternate every round between K7 and the core network: both satisfy
/// // Theorem 1 for f = 2, and the run converges under attack.
/// let base = generators::complete(7);
/// let schedule = RoundRobinSchedule::new(
///     vec![generators::complete(7), generators::core_network(7, 2)],
///     1,
/// )?;
/// let rule = TrimmedMean::new(2);
/// let mut sim = Scenario::on(&base)
///     .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0])
///     .faults(NodeSet::from_indices(7, [5, 6]))
///     .rule(&rule)
///     .adversary(Box::new(ExtremesAdversary::new(1e6)))
///     .dynamic(&schedule)?;
/// let out = sim.run(&RunConfig::default())?;
/// assert!(out.converged && out.validity.is_valid());
/// # Ok::<(), iabc_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct DynamicSimulation<'a> {
    schedule: &'a dyn TopologySchedule,
    fault_set: NodeSet,
    rule: &'a dyn UpdateRule,
    adversary: Box<dyn Adversary>,
    states: Vec<f64>,
    next: Vec<f64>,
    round: usize,
    /// One entry per distinct schedule graph, in `distinct_graphs()` order.
    compiled: Vec<CompiledGraph<'a>>,
    plan: RoundPlan,
    exec: Executor,
    scratch_pool: ScratchPool<Vec<f64>>,
}

impl<'a> DynamicSimulation<'a> {
    /// Sets up a run; validation matches [`crate::Simulation::new`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::Simulation::new`].
    pub fn new(
        schedule: &'a dyn TopologySchedule,
        inputs: &[f64],
        fault_set: NodeSet,
        rule: &'a dyn UpdateRule,
        adversary: Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        let n = schedule.node_count();
        if inputs.len() != n {
            return Err(SimError::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: n,
            });
        }
        if fault_set.universe() != n {
            return Err(SimError::FaultSetMismatch {
                universe: fault_set.universe(),
                nodes: n,
            });
        }
        if fault_set.len() == n {
            return Err(SimError::NoFaultFreeNodes);
        }
        if let Some((node, &value)) = inputs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(SimError::NonFiniteInput { node, value });
        }
        let compiled = schedule
            .distinct_graphs()
            .into_iter()
            .map(|graph| CompiledGraph::new(graph, &fault_set))
            .collect();
        Ok(DynamicSimulation {
            schedule,
            fault_set,
            rule,
            adversary,
            states: inputs.to_vec(),
            next: inputs.to_vec(),
            round: 0,
            compiled,
            plan: RoundPlan::new(),
            exec: Executor::serial(),
            scratch_pool: ScratchPool::new(),
        })
    }

    /// Retains a pool of `jobs` workers (`0` = all available cores) —
    /// threads spawn once, here — serving every round's node loop and
    /// `Sync`-tier plan fill; bit-for-bit identical for any value,
    /// including across topology switches.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// In-place form of [`DynamicSimulation::with_jobs`].
    pub fn set_jobs(&mut self, jobs: usize) {
        self.exec = Executor::new(jobs);
    }

    /// Worker threads used by the node loop.
    pub fn jobs(&self) -> usize {
        self.exec.jobs()
    }

    /// Current iteration count.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current state vector (only fault-free entries are meaningful).
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// The faulty set.
    pub fn fault_set(&self) -> &NodeSet {
        &self.fault_set
    }

    /// Current fault-free range `U − µ`.
    pub fn honest_range(&self) -> f64 {
        honest_range_of(&self.states, &self.fault_set)
    }

    /// Executes one synchronous iteration on this round's graph.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if the update rule fails at some node
    /// (e.g. this round's graph starves a node below `2f` in-degree).
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        self.round += 1;
        let graph = self.schedule.graph_at(self.round);
        let entry = self
            .compiled
            .iter()
            .find(|c| std::ptr::eq(c.graph, graph))
            .expect("TopologySchedule::graph_at returned a graph outside distinct_graphs()");
        let view = AdversaryView {
            round: self.round,
            graph,
            states: &self.states,
            fault_set: &self.fault_set,
        };
        fill_plan(
            self.adversary.as_mut(),
            &view,
            &entry.planned_edges,
            &entry.slot_edges,
            true,
            &mut self.plan,
            &self.exec,
        );
        let (compiled, rule, states, plan, round) = (
            &entry.topology,
            self.rule,
            &self.states,
            &self.plan,
            self.round,
        );
        let pool = &self.scratch_pool;
        self.exec.run_chunked(
            &mut self.next,
            Chunking::Auto(iabc_exec::MIN_CHUNK),
            || pool.take(|| Vec::with_capacity(compiled.max_in_degree())),
            |i, out, scratch| step_node(compiled, rule, states, plan, round, i, out, scratch),
        )?;
        std::mem::swap(&mut self.states, &mut self.next);
        Ok(StepStatus::Progressed)
    }

    /// Runs via the shared [`Engine::run`] driver (convenience wrapper so
    /// callers need not import the trait).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`DynamicSimulation::step`].
    pub fn run(&mut self, config: &RunConfig) -> Result<Outcome, SimError> {
        Engine::run(self, config)
    }
}

impl Engine for DynamicSimulation<'_> {
    fn step(&mut self) -> Result<StepStatus, SimError> {
        DynamicSimulation::step(self)
    }

    fn round(&self) -> usize {
        self.round
    }

    fn states(&self) -> &[f64] {
        &self.states
    }

    fn fault_set(&self) -> &NodeSet {
        &self.fault_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        ConformingAdversary, ConstantAdversary, ExtremesAdversary, SplitBrainAdversary,
    };
    use crate::Simulation;
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    fn no_faults(n: usize) -> NodeSet {
        NodeSet::with_universe(n)
    }

    #[test]
    fn schedules_validate_node_counts() {
        assert!(matches!(
            RoundRobinSchedule::new(vec![], 1),
            Err(SimError::EmptySchedule)
        ));
        assert!(matches!(
            RoundRobinSchedule::new(vec![generators::complete(4), generators::complete(5)], 1),
            Err(SimError::ScheduleMismatch {
                expected: 4,
                got: 5
            })
        ));
        assert!(matches!(
            SwitchOnceSchedule::new(generators::complete(4), generators::complete(5), 3),
            Err(SimError::ScheduleMismatch { .. })
        ));
        assert!(matches!(
            SequenceSchedule::new(vec![]),
            Err(SimError::EmptySchedule)
        ));
    }

    #[test]
    fn round_robin_indexing_with_dwell() {
        let k4 = generators::complete(4);
        let c4 = generators::cycle(4);
        let s = RoundRobinSchedule::new(vec![k4.clone(), c4.clone()], 3).unwrap();
        assert_eq!(s.dwell(), 3);
        for round in 1..=3 {
            assert_eq!(
                s.graph_at(round).edge_count(),
                k4.edge_count(),
                "round {round}"
            );
        }
        for round in 4..=6 {
            assert_eq!(
                s.graph_at(round).edge_count(),
                c4.edge_count(),
                "round {round}"
            );
        }
        assert_eq!(s.graph_at(7).edge_count(), k4.edge_count());
        // Dwell zero is clamped to one.
        let s = RoundRobinSchedule::new(vec![k4.clone(), c4.clone()], 0).unwrap();
        assert_eq!(s.graph_at(1).edge_count(), k4.edge_count());
        assert_eq!(s.graph_at(2).edge_count(), c4.edge_count());
    }

    #[test]
    fn switch_once_boundary() {
        let s = SwitchOnceSchedule::new(generators::complete(4), generators::cycle(4), 5).unwrap();
        assert_eq!(
            s.graph_at(5).edge_count(),
            generators::complete(4).edge_count()
        );
        assert_eq!(s.graph_at(6).edge_count(), 4);
        assert_eq!(s.distinct_graphs().len(), 2);
    }

    #[test]
    fn static_schedule_matches_static_engine_bit_for_bit() {
        let g = generators::complete(7);
        let schedule = StaticSchedule::new(g.clone());
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);

        let mut fixed = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        let mut dynamic = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        for _ in 0..25 {
            fixed.step().unwrap();
            dynamic.step().unwrap();
            assert_eq!(fixed.states(), dynamic.states());
        }
    }

    #[test]
    fn alternating_satisfying_graphs_converges_under_attack() {
        let schedule = RoundRobinSchedule::new(
            vec![generators::complete(7), generators::core_network(7, 2)],
            1,
        )
        .unwrap();
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.validity.is_valid());
        // Consensus value inside the honest hull [0, 4].
        let v = out.trace.last().unwrap().states[0];
        assert!((0.0..=4.0).contains(&v));
    }

    #[test]
    fn violating_rounds_interleaved_with_satisfying_rounds_still_converge() {
        // chord(7,5) violates Theorem 1 at f = 2, K7 satisfies it; dwelling
        // on K7 for n − f − 1 = 4 rounds per cycle guarantees one full
        // contraction phase per cycle, so convergence survives the
        // violating interludes.
        let schedule =
            RoundRobinSchedule::new(vec![generators::chord(7, 5), generators::complete(7)], 4)
                .unwrap();
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e4)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged, "final range {}", out.final_range);
        assert!(out.validity.is_valid());
    }

    #[test]
    fn permanent_violating_graph_freezes_like_the_static_engine() {
        // E1 replayed through the dynamic engine: a static schedule on the
        // violating chord(7,5) with the proof adversary freezes forever.
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).expect("violated");
        let schedule = StaticSchedule::new(g);
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            w.fault_set.clone(),
            &rule,
            Box::new(adv),
        )
        .unwrap();
        for _ in 0..100 {
            sim.step().unwrap();
        }
        assert!(sim.honest_range() >= m_cap - m);
    }

    #[test]
    fn switch_once_unfreezes_after_repair() {
        // Start frozen on the violating chord(7,5); switch to K7 at round
        // 40 ("the operator added links"): the same adversary loses and the
        // run converges.
        let bad = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&bad, 2).expect("violated");
        let schedule = SwitchOnceSchedule::new(bad, generators::complete(7), 40).unwrap();
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            w.fault_set.clone(),
            &rule,
            Box::new(adv),
        )
        .unwrap();
        // Frozen during the violating prefix.
        for _ in 0..40 {
            sim.step().unwrap();
        }
        assert!(
            sim.honest_range() >= m_cap - m,
            "must be frozen before the switch"
        );
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged, "switching to K7 must unfreeze the run");
        assert!(out.validity.is_valid());
    }

    #[test]
    fn edge_drops_respect_the_floor() {
        let base = generators::complete(8); // in-degree 7
        let schedule = sample_edge_drops(&base, 0.4, 4, 42, 20).unwrap();
        assert_eq!(schedule.len(), 20);
        assert!(!schedule.is_empty());
        for g in schedule.distinct_graphs() {
            assert!(
                g.min_in_degree() >= 4,
                "floor violated: {}",
                g.min_in_degree()
            );
            assert!(g.edge_count() <= base.edge_count());
        }
        // Deterministic in the seed.
        let again = sample_edge_drops(&base, 0.4, 4, 42, 20).unwrap();
        for round in 1..=20 {
            assert_eq!(
                schedule.graph_at(round).edge_count(),
                again.graph_at(round).edge_count()
            );
        }
        // Some round must actually have dropped something at p = 0.4.
        assert!(
            (1..=20).any(|r| schedule.graph_at(r).edge_count() < base.edge_count()),
            "drop probability 0.4 over 20 rounds should drop at least one edge"
        );
    }

    #[test]
    fn edge_drop_run_converges_with_validity_floor() {
        let base = generators::complete(8);
        let f = 2;
        let schedule = sample_edge_drops(&base, 0.3, 2 * f, 7, 64).unwrap();
        let faults = NodeSet::from_indices(8, [6, 7]);
        for g in schedule.distinct_graphs() {
            assert!(validity_floor(g, f, &faults));
        }
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0];
        let rule = TrimmedMean::new(f);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e5)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(
            out.validity.is_valid(),
            "validity floor must protect Equation 1"
        );
        assert!(out.converged, "final range {}", out.final_range);
    }

    #[test]
    fn sample_edge_drops_rejects_impossible_floor() {
        let base = generators::cycle(5); // in-degree 1
        assert!(matches!(
            sample_edge_drops(&base, 0.5, 2, 1, 10),
            Err(SimError::ScheduleMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            sample_edge_drops(&generators::complete(5), 0.5, 2, 1, 0),
            Err(SimError::EmptySchedule)
        ));
    }

    #[test]
    fn validity_floor_ignores_faulty_nodes() {
        // Node 0 has in-degree 1 but is faulty; the floor only binds
        // fault-free nodes.
        let mut g = generators::complete(5);
        let zero = NodeId::new(0);
        for v in 1..5 {
            if NodeId::new(v) != zero {
                g.remove_edge(NodeId::new(v), zero);
            }
        }
        g.add_edge(NodeId::new(1), zero);
        let faults = NodeSet::from_indices(5, [0]);
        assert!(validity_floor(&g, 1, &faults));
        assert!(!validity_floor(&g, 1, &NodeSet::with_universe(5)));
    }

    #[test]
    fn constructor_validates_like_the_static_engine() {
        let schedule = StaticSchedule::new(generators::complete(3));
        let rule = TrimmedMean::new(0);
        assert!(matches!(
            DynamicSimulation::new(
                &schedule,
                &[1.0, 2.0],
                no_faults(3),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::InputLengthMismatch {
                inputs: 2,
                nodes: 3
            })
        ));
        assert!(matches!(
            DynamicSimulation::new(
                &schedule,
                &[1.0, f64::NAN, 3.0],
                no_faults(3),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::NonFiniteInput { node: 1, .. })
        ));
        assert!(matches!(
            DynamicSimulation::new(
                &schedule,
                &[1.0, 2.0, 3.0],
                NodeSet::full(3),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::NoFaultFreeNodes)
        ));
        assert!(matches!(
            DynamicSimulation::new(
                &schedule,
                &[1.0, 2.0, 3.0],
                NodeSet::with_universe(4),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::FaultSetMismatch {
                universe: 4,
                nodes: 3
            })
        ));
    }

    #[test]
    fn starving_round_surfaces_rule_error_with_round_number() {
        // K7 for two rounds, then a cycle (in-degree 1 < 2f): the failure
        // must name round 3.
        let schedule =
            RoundRobinSchedule::new(vec![generators::complete(7), generators::cycle(7)], 2)
                .unwrap();
        let rule = TrimmedMean::new(2);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            no_faults(7),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        sim.step().unwrap();
        sim.step().unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::Rule { round: 3, .. }));
    }
}

//! Differential guard for the compiled zero-allocation hot path: on random
//! digraphs, fault sets, inputs, and adversaries, the compiled engines must
//! be **bit-for-bit** identical to the retained naive reference stepper
//! (`iabc::sim::reference`) — same CSR gather order, same kernel
//! arithmetic, same missing-message substitution, only the plumbing
//! differs.

use iabc::core::rules::TrimmedMean;
use iabc::graph::{generators, Digraph, NodeId, NodeSet};
use iabc::sim::adversary::{
    Adversary, ConformingAdversary, ConstantAdversary, CrashAdversary, ExtremesAdversary,
    FlipFlopAdversary, NaNAdversary, PolarizingAdversary, PullAdversary, RandomAdversary,
    SelectiveOmissionAdversary,
};
use iabc::sim::dynamic::{DynamicSimulation, RoundRobinSchedule};
use iabc::sim::reference::{ReferenceStepper, ReferenceTrimmedMean};
use iabc::sim::Simulation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random digraph whose every node keeps in-degree ≥ `floor` (so the
/// trimming rule stays total): start from the complete graph and delete
/// random edges down to roughly the requested density.
fn random_graph_with_floor(n: usize, floor: usize, density: f64, rng: &mut StdRng) -> Digraph {
    let mut g = generators::complete(n);
    for v in 0..n {
        let v = NodeId::new(v);
        for u in 0..n {
            let u = NodeId::new(u);
            if u != v && g.in_degree(v) > floor && !rng.random_bool(density) {
                g.remove_edge(u, v);
            }
        }
    }
    g
}

fn adversary_from_id(id: u8, n: usize, seed: u64) -> Box<dyn Adversary> {
    match id % 10 {
        0 => Box::new(ConformingAdversary::new()),
        1 => Box::new(ConstantAdversary::new(1e9)),
        2 => Box::new(ExtremesAdversary::new(77.0)),
        3 => Box::new(PullAdversary::new(true)),
        4 => Box::new(NaNAdversary::new()),
        5 => Box::new(RandomAdversary::new(-1e5, 1e5, seed)),
        6 => Box::new(CrashAdversary::new(2)),
        7 => Box::new(FlipFlopAdversary::new(13.0)),
        8 => Box::new(PolarizingAdversary::new()),
        _ => Box::new(SelectiveOmissionAdversary::new(
            NodeSet::from_indices(n, [0]),
            -4e8,
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: compiled vs naive, stepped in lockstep,
    /// bit-identical states every round.
    #[test]
    fn compiled_engine_equals_reference_stepper_bitwise(
        n in 5usize..14,
        f in 0usize..3,
        density in 0u8..3,
        adv_id in 0u8..10,
        seed in 0u64..10_000,
    ) {
        let f = f.min((n - 1) / 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph_with_floor(
            n,
            2 * f + 1,
            [0.3, 0.6, 0.9][density as usize],
            &mut rng,
        );
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-100.0..100.0)).collect();
        let mut faults = NodeSet::with_universe(n);
        while faults.len() < f {
            faults.insert(NodeId::new(rng.random_range(0..n)));
        }
        let rule = TrimmedMean::new(f);
        let mut naive = ReferenceStepper::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            adversary_from_id(adv_id, n, seed),
        ).unwrap();
        let mut compiled = Simulation::new(
            &g,
            &inputs,
            faults,
            &rule,
            adversary_from_id(adv_id, n, seed),
        ).unwrap();
        for round in 0..30 {
            naive.step().unwrap();
            compiled.step().unwrap();
            for (i, (a, b)) in naive.states().iter().zip(compiled.states()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {} node {}: naive {:?} vs compiled {:?} (adv {})",
                    round + 1, i, a, b, adv_id
                );
            }
        }
    }

    /// The keyed-sort kernel against the retained comparator-sort rule:
    /// identical bits through whole executions, not just unit vectors.
    #[test]
    fn kernel_rule_equals_reference_rule_through_full_runs(
        n in 5usize..12,
        f in 0usize..3,
        adv_id in 0u8..10,
        seed in 0u64..10_000,
    ) {
        let f = f.min((n - 1) / 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let g = random_graph_with_floor(n, 2 * f + 1, 0.7, &mut rng);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-50.0..50.0)).collect();
        let mut faults = NodeSet::with_universe(n);
        while faults.len() < f {
            faults.insert(NodeId::new(rng.random_range(0..n)));
        }
        let fast_rule = TrimmedMean::new(f);
        let slow_rule = ReferenceTrimmedMean::new(f);
        let mut fast = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &fast_rule,
            adversary_from_id(adv_id, n, seed),
        ).unwrap();
        let mut slow = ReferenceStepper::new(
            &g,
            &inputs,
            faults,
            &slow_rule,
            adversary_from_id(adv_id, n, seed),
        ).unwrap();
        for _ in 0..25 {
            fast.step().unwrap();
            slow.step().unwrap();
            for (a, b) in fast.states().iter().zip(slow.states()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The dynamic engine's per-graph compiled entries: schedule two
    /// *distinct allocations* of the same graph so the identity lookup
    /// switches entry at every dwell boundary, and demand the trajectory
    /// still matches the naive stepper on the static graph bit for bit.
    /// The switching must be invisible.
    #[test]
    fn dynamic_rebuild_churn_is_bitwise_invisible(
        n in 6usize..12,
        f in 0usize..3,
        dwell in 1usize..4,
        adv_id in 0u8..10,
        seed in 0u64..10_000,
    ) {
        let f = f.min((n - 1) / 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let g = random_graph_with_floor(n, 2 * f + 1, 0.7, &mut rng);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
        let mut faults = NodeSet::with_universe(n);
        while faults.len() < f {
            faults.insert(NodeId::new(rng.random_range(0..n)));
        }
        // Two clones of the same topology: identical semantics, distinct
        // addresses -> the engine compiles both and alternates between them.
        let schedule = RoundRobinSchedule::new(vec![g.clone(), g.clone()], dwell).unwrap();
        let rule = TrimmedMean::new(f);
        let mut dynamic = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults.clone(),
            &rule,
            adversary_from_id(adv_id, n, seed),
        ).unwrap();
        let mut naive = ReferenceStepper::new(
            &g,
            &inputs,
            faults,
            &rule,
            adversary_from_id(adv_id, n, seed),
        ).unwrap();
        for round in 0..15 {
            dynamic.step().unwrap();
            naive.step().unwrap();
            for (i, (a, b)) in dynamic.states().iter().zip(naive.states()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {} node {} diverged under topology switching",
                    round + 1, i
                );
            }
        }
    }
}

//! Guard rail for the `Scenario`/`Engine` unification: on one seeded
//! workload per engine variant, the scenario-built engine must reproduce
//! the **pre-refactor** outcomes bit-for-bit — rounds, final states, and
//! the validity verdict were captured from the per-engine drivers before
//! the shared `Engine::run` driver replaced them.
//!
//! Each case additionally cross-checks the scenario-built engine against a
//! directly-constructed one, stepping both in lockstep (the builder must
//! add no behaviour of its own).

use iabc::core::fault_model::{FaultModel, ModelTrimmedMean};
use iabc::core::rules::TrimmedMean;
use iabc::graph::{generators, NodeId, NodeSet};
use iabc::sim::adversary::{ConstantAdversary, ExtremesAdversary, RandomAdversary};
use iabc::sim::async_engine::{DelayBoundedSim, MaxDelayScheduler, WithholdingSim};
use iabc::sim::dynamic::{
    DynamicSimulation, RoundRobinSchedule, SequenceSchedule, TopologySchedule,
};
use iabc::sim::model_engine::ModelSimulation;
use iabc::sim::vector::{CoordinateWise, VectorSimulation};
use iabc::sim::{Engine, RunConfig, Scenario, Simulation, Termination};

/// A pre-refactor golden: rounds, validity verdict, and the exact bit
/// patterns of the final state vector.
struct Golden {
    rounds: usize,
    converged: bool,
    valid: bool,
    state_bits: &'static [u64],
}

fn assert_matches_golden(
    tag: &str,
    rounds: usize,
    converged: bool,
    valid: bool,
    states: &[f64],
    g: &Golden,
) {
    assert_eq!(rounds, g.rounds, "{tag}: round count drifted");
    assert_eq!(converged, g.converged, "{tag}: convergence verdict drifted");
    assert_eq!(valid, g.valid, "{tag}: validity verdict drifted");
    assert_eq!(
        states.len(),
        g.state_bits.len(),
        "{tag}: state length drifted"
    );
    for (i, (&v, &bits)) in states.iter().zip(g.state_bits).enumerate() {
        assert_eq!(
            v.to_bits(),
            bits,
            "{tag}: state[{i}] = {v:?} != golden {:?}",
            f64::from_bits(bits)
        );
    }
}

const K7_INPUTS: [f64; 7] = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];

#[test]
fn synchronous_engine_reproduces_pre_refactor_outcome() {
    let golden = Golden {
        rounds: 14,
        converged: true,
        valid: true,
        state_bits: &[
            0x4007ffffc7e076ea,
            0x4007ffffe3f03b75,
            0x4008000000000000,
            0x4008000000000000,
            0x4008000000000000,
            0x0,
            0x0,
        ],
    };
    let g = generators::complete(7);
    let rule = TrimmedMean::new(2);
    let mut sim = Scenario::on(&g)
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .rule(&rule)
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .synchronous()
        .unwrap();
    let out = sim.run(&RunConfig::default()).unwrap();
    assert_matches_golden(
        "sync",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        sim.states(),
        &golden,
    );
    assert_eq!(out.termination, Termination::Converged);

    // Lockstep against the direct constructor.
    let mut direct = Simulation::new(
        &g,
        &K7_INPUTS,
        NodeSet::from_indices(7, [5, 6]),
        &rule,
        Box::new(ConstantAdversary::new(1e9)),
    )
    .unwrap();
    let mut built = Scenario::on(&g)
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .rule(&rule)
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .synchronous()
        .unwrap();
    for _ in 0..10 {
        direct.step().unwrap();
        built.step().unwrap();
        assert_eq!(direct.states(), built.states());
    }
}

#[test]
fn model_engine_reproduces_pre_refactor_outcome() {
    let golden = Golden {
        rounds: 37,
        converged: true,
        valid: true,
        state_bits: &[
            0x3ff38e38e38e38e2,
            0x3ff38e39c4dfa4b8,
            0x3ff38e38e38e38e2,
            0x3ff38e39c4dfa4b8,
            0x3ff38e38e38e38e2,
            0x0,
            0x0,
        ],
    };
    let g = generators::complete(7);
    let aware = ModelTrimmedMean::new(FaultModel::Total(2));
    let mut sim = Scenario::on(&g)
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .adversary(Box::new(ExtremesAdversary::new(1e6)))
        .model_aware(&aware)
        .unwrap();
    let out = sim.run(&RunConfig::default()).unwrap();
    assert_matches_golden(
        "model",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        sim.states(),
        &golden,
    );

    let mut direct = ModelSimulation::new(
        &g,
        &K7_INPUTS,
        NodeSet::from_indices(7, [5, 6]),
        &aware,
        Box::new(ExtremesAdversary::new(1e6)),
    )
    .unwrap();
    let mut built = Scenario::on(&g)
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .adversary(Box::new(ExtremesAdversary::new(1e6)))
        .model_aware(&aware)
        .unwrap();
    for _ in 0..10 {
        direct.step().unwrap();
        built.step().unwrap();
        assert_eq!(direct.states(), built.states());
    }
}

#[test]
fn dynamic_engine_reproduces_pre_refactor_outcome() {
    let golden = Golden {
        rounds: 37,
        converged: true,
        valid: true,
        state_bits: &[
            0x3ff38e38e38e38e2,
            0x3ff38e39c4dfa4b8,
            0x3ff38e38e38e38e2,
            0x3ff38e39c4dfa4b8,
            0x3ff38e38e38e38e2,
            0x0,
            0x0,
        ],
    };
    let schedule = RoundRobinSchedule::new(
        vec![generators::complete(7), generators::core_network(7, 2)],
        1,
    )
    .unwrap();
    let rule = TrimmedMean::new(2);
    let mut sim = Scenario::on(schedule.graph_at(1))
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(1e6)))
        .dynamic(&schedule)
        .unwrap();
    let out = sim.run(&RunConfig::default()).unwrap();
    assert_matches_golden(
        "dynamic",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        sim.states(),
        &golden,
    );

    let mut direct = DynamicSimulation::new(
        &schedule,
        &K7_INPUTS,
        NodeSet::from_indices(7, [5, 6]),
        &rule,
        Box::new(ExtremesAdversary::new(1e6)),
    )
    .unwrap();
    let mut built = Scenario::on(schedule.graph_at(1))
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(1e6)))
        .dynamic(&schedule)
        .unwrap();
    for _ in 0..10 {
        direct.step().unwrap();
        built.step().unwrap();
        assert_eq!(direct.states(), built.states());
    }
}

#[test]
fn dynamic_sequence_engine_reproduces_recorded_outcome() {
    // Three graphs that differ in in-degree and in faulty-edge set, cycled
    // as [A, B, C, B'] with B' an equal copy of B: A recurs every fourth
    // round by identity and B by content, never adjacently. Recorded
    // before the engine compiled each schedule graph once up front, when
    // it rebuilt its CSR at every switch.
    let golden = Golden {
        rounds: 24,
        converged: true,
        valid: true,
        state_bits: &[
            0x4007c1bf2867750c,
            0x4007c1bf2868dd18,
            0x4007c1bf2867750c,
            0x4007c1bf2867750c,
            0x4007c1bf2868dd18,
            0x4007c1bf2868dd18,
            0x4007c1bf28516863,
            0x0,
            0x0,
        ],
    };
    let n = 9;
    let a = generators::complete(n);
    let b = generators::chord(n, 5);
    let mut c = generators::complete(n);
    for (u, v) in [(7, 0), (7, 1), (7, 2), (8, 3), (8, 4), (0, 5), (1, 6)] {
        c.remove_edge(NodeId::new(u), NodeId::new(v));
    }
    let schedule = SequenceSchedule::new(vec![a, b.clone(), c, b]).unwrap();
    let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0];
    let rule = TrimmedMean::new(2);
    let mut sim = Scenario::on(schedule.graph_at(1))
        .inputs(&inputs)
        .fault_nodes([7, 8])
        .rule(&rule)
        .adversary(Box::new(RandomAdversary::new(-50.0, 50.0, 17)))
        .dynamic(&schedule)
        .unwrap();
    let out = sim.run(&RunConfig::bounded(1e-9, 500)).unwrap();
    assert_matches_golden(
        "dynamic sequence",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        sim.states(),
        &golden,
    );
}

#[test]
fn delay_bounded_engine_reproduces_pre_refactor_outcome() {
    // NOTE: the pre-refactor golden has valid = false — with stale async
    // deliveries, per-round monotonicity (Equation 1) can transiently break
    // even though the run stays inside the initial hull; the unified driver
    // must preserve that verdict, not paper over it.
    let golden = Golden {
        rounds: 38,
        converged: true,
        valid: false,
        state_bits: &[
            0x3ffedb05d2ec1072,
            0x3ffedb061589519d,
            0x3ffedb05863260c4,
            0x3ffedb05d8929aa3,
            0x3ffedb056869d7d8,
            0x4000000000000000,
        ],
    };
    let g = generators::complete(6);
    let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0];
    let rule = TrimmedMean::new(1);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .fault_nodes([5])
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(50.0)))
        .delay_bounded(Box::new(MaxDelayScheduler), 3)
        .unwrap();
    let out = sim.run(&RunConfig::bounded(1e-6, 5_000)).unwrap();
    assert_matches_golden(
        "delay-bounded",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        sim.states(),
        &golden,
    );

    let mut direct = DelayBoundedSim::new(
        &g,
        &inputs,
        NodeSet::from_indices(6, [5]),
        &rule,
        Box::new(ExtremesAdversary::new(50.0)),
        Box::new(MaxDelayScheduler),
        3,
    )
    .unwrap();
    let mut built = Scenario::on(&g)
        .inputs(&inputs)
        .fault_nodes([5])
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(50.0)))
        .delay_bounded(Box::new(MaxDelayScheduler), 3)
        .unwrap();
    for _ in 0..10 {
        direct.step().unwrap();
        built.step().unwrap();
        assert_eq!(direct.states(), built.states());
    }
}

#[test]
fn withholding_engine_reproduces_pre_refactor_outcome() {
    let golden = Golden {
        rounds: 10,
        converged: true,
        valid: true,
        state_bits: &[
            0x400fffffe4832027,
            0x400ffffff2419014,
            0x4010000000000000,
            0x4010000000000000,
            0x4010000000000000,
            0x4010000000000000,
            0x4010000000000000,
            0x4010000006df37f7,
            0x401000000dbe6fed,
            0x0,
            0x0,
        ],
    };
    let g = generators::complete(11);
    let mut inputs: Vec<f64> = (0..11).map(|i| i as f64).collect();
    inputs[9] = 0.0;
    inputs[10] = 0.0;
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .fault_nodes([9, 10])
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .withholding(2)
        .unwrap();
    let out = sim.run(&RunConfig::bounded(1e-6, 5_000)).unwrap();
    assert_matches_golden(
        "withholding",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        sim.states(),
        &golden,
    );

    let mut direct = WithholdingSim::new(
        &g,
        &inputs,
        NodeSet::from_indices(11, [9, 10]),
        2,
        Box::new(ConstantAdversary::new(1e9)),
    )
    .unwrap();
    let mut built = Scenario::on(&g)
        .inputs(&inputs)
        .fault_nodes([9, 10])
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .withholding(2)
        .unwrap();
    for _ in 0..5 {
        direct.step().unwrap();
        built.step().unwrap();
        assert_eq!(direct.states(), built.states());
    }
}

#[test]
fn vector_engine_reproduces_pre_refactor_outcome() {
    // Flattened row-major golden (node i's vector at [2i, 2i+1]).
    let golden = Golden {
        rounds: 37,
        converged: true,
        valid: true, // pre-refactor box_validity verdict
        state_bits: &[
            0x4008000000000000,
            0x402671c71c71c71c,
            0x4008000000000000,
            0x402671c7389bf495,
            0x4008000000000000,
            0x402671c71c71c71c,
            0x4008000000000000,
            0x402671c7389bf495,
            0x4008000000000000,
            0x402671c71c71c71c,
            0x0,
            0x0,
            0x0,
            0x0,
        ],
    };
    let g = generators::complete(7);
    let rows: Vec<Vec<f64>> = vec![
        vec![0.0, 10.0],
        vec![1.0, 11.0],
        vec![2.0, 12.0],
        vec![3.0, 13.0],
        vec![4.0, 14.0],
        vec![0.0, 0.0],
        vec![0.0, 0.0],
    ];
    let rule = TrimmedMean::new(2);
    let make_adv = || {
        Box::new(CoordinateWise::new(vec![
            Box::new(ConstantAdversary::new(1e9)),
            Box::new(ExtremesAdversary::new(1e7)),
        ]))
    };
    let mut sim = Scenario::on(&g)
        .inputs(&rows.concat())
        .fault_nodes([5, 6])
        .rule(&rule)
        .vector_adversary(make_adv())
        .vector(2)
        .unwrap();
    // The pre-refactor vector driver had its own loop; the shared driver
    // must land on the identical fixpoint. Drive it through the Engine
    // surface to also exercise the flattened state view.
    let out = Engine::run(&mut sim, &RunConfig::bounded(1e-6, 10_000)).unwrap();
    let flat: Vec<f64> = (0..7).flat_map(|i| sim.state_of(NodeId::new(i))).collect();
    assert_matches_golden(
        "vector",
        out.rounds,
        out.converged,
        out.validity.is_valid(),
        &flat,
        &golden,
    );
    // The Engine view must agree with the per-node accessors bit-for-bit.
    assert_eq!(Engine::states(&sim), flat.as_slice());

    let mut direct = VectorSimulation::new(
        &g,
        &rows,
        NodeSet::from_indices(7, [5, 6]),
        &rule,
        make_adv(),
    )
    .unwrap();
    let mut built = Scenario::on(&g)
        .inputs(&rows.concat())
        .fault_nodes([5, 6])
        .rule(&rule)
        .vector_adversary(make_adv())
        .vector(2)
        .unwrap();
    for _ in 0..10 {
        direct.step().unwrap();
        built.step().unwrap();
        for i in 0..7 {
            let node = NodeId::new(i);
            assert_eq!(direct.state_of(node), built.state_of(node));
        }
    }
}

/// FNV-1a over the state vector's f64 bit patterns — a compact fingerprint
/// for large-n goldens where embedding 500 bit patterns would be noise.
/// Delegates to the canonical workspace hasher so the golden below also
/// pins the `fingerprint` module's byte feed.
fn fnv1a_state_bits(states: &[f64]) -> u64 {
    iabc::graph::fingerprint::state_bits(states)
}

#[test]
fn large_n_synchronous_golden_is_stable() {
    // Production-scale pin: K500 with f = 16, constant attacker. The
    // compiled hot path (CSR gather, keyed-sort kernel, double buffers)
    // must land on the exact fixpoint the pre-refactor engine reached —
    // captured here as (rounds, verdicts, FNV-1a over all 500 final bit
    // patterns). Catches optimization-dependent float drift that small-n
    // goldens can miss.
    let n = 500usize;
    let f = 16usize;
    let g = generators::complete(n);
    let inputs: Vec<f64> = (0..n)
        .map(|i| if i >= n - f { 0.0 } else { (i % 101) as f64 })
        .collect();
    let rule = TrimmedMean::new(f);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .fault_nodes(n - f..n)
        .rule(&rule)
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .synchronous()
        .unwrap();
    let out = sim.run(&RunConfig::bounded(1e-6, 10_000)).unwrap();
    assert_eq!(out.rounds, 3, "round count drifted");
    assert!(out.converged);
    assert!(out.validity.is_valid());
    assert_eq!(
        fnv1a_state_bits(sim.states()),
        11264396032272787041,
        "final-state fingerprint drifted (states[0] = {:?} = {:#x})",
        sim.states()[0],
        sim.states()[0].to_bits()
    );

    // Self-verifying golden: the retained pre-refactor stepper + rule reach
    // the identical fingerprint in the same number of rounds.
    use iabc::sim::reference::{ReferenceStepper, ReferenceTrimmedMean};
    let slow_rule = ReferenceTrimmedMean::new(f);
    let mut naive = ReferenceStepper::new(
        &g,
        &inputs,
        NodeSet::from_indices(n, n - f..n),
        &slow_rule,
        Box::new(ConstantAdversary::new(1e9)),
    )
    .unwrap();
    for _ in 0..out.rounds {
        naive.step().unwrap();
    }
    assert_eq!(
        fnv1a_state_bits(naive.states()),
        11264396032272787041,
        "pre-refactor reference disagrees with the compiled fixpoint"
    );
}

#[test]
fn baselines_run_through_the_same_engine_surface() {
    // The W-MSR and Dolev baselines are plain rules to the Scenario
    // builder: the identical entrypoint drives them, returning the same
    // unified Outcome.
    use iabc::baselines::{DolevMidpoint, Wmsr};

    let g = generators::complete(7);
    let wmsr = Wmsr::new(2);
    let dolev = DolevMidpoint::new(2);
    for rule in [&wmsr as &dyn iabc::core::rules::UpdateRule, &dolev] {
        let mut engine: Box<dyn Engine> = Scenario::on(&g)
            .inputs(&K7_INPUTS)
            .fault_nodes([5, 6])
            .rule(rule)
            .adversary(Box::new(ConstantAdversary::new(1e9)))
            .boxed_synchronous()
            .unwrap();
        let out = engine.run(&RunConfig::default()).unwrap();
        assert_eq!(out.termination, Termination::Converged, "{}", rule.name());
        assert!(out.validity.is_valid(), "{}", rule.name());
    }
}

#[test]
fn frozen_withholding_run_halts_instead_of_burning_the_budget() {
    // K7 at f = 2 has in-degree 6 = 3f: every survivor set is empty, and
    // the unified driver reports the proof of non-convergence.
    let g = generators::complete(7);
    let mut sim = Scenario::on(&g)
        .inputs(&K7_INPUTS)
        .fault_nodes([5, 6])
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .withholding(2)
        .unwrap();
    let out = sim.run(&RunConfig::bounded(1e-6, 10_000)).unwrap();
    assert_eq!(out.termination, Termination::Halted);
    assert!(!out.converged);
    assert!(out.rounds < 10_000, "halt must beat the round cap");
    assert_eq!(sim.states()[0], 0.0, "states must be frozen");
}

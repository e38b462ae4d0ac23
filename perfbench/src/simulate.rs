//! `simulate`: exact-tier Algorithm 1 runs, one at a time, each to ε or a
//! round cap, on a `jobs = 2` node pool (`Scenario::parallel(2)`).
//!
//! Runs of the list take turns as the timed units: synchronous runs on a
//! sparse slow-mixing circulant, a dense complete graph and a seeded
//! Erdős–Rényi graph under extremes / random / flip-flop / pull attacks,
//! one `.dynamic(RoundRobinSchedule)` run and one
//! `.model_aware(ModelTrimmedMean)` run. The timed region of a run is the
//! `Scenario` terminal plus `Engine::run`.

use std::time::{Duration, Instant};

use iabc_core::fault_model::{FaultModel, ModelTrimmedMean};
use iabc_core::rules::{trim_kernel, TrimmedMean};
use iabc_exec::{Chunking, Executor};
use iabc_graph::{fingerprint, generators, Digraph, NodeId, NodeSet};
use iabc_sim::adversary::{
    Adversary, AdversaryView, ExtremesAdversary, FlipFlopAdversary, PullAdversary, RandomAdversary,
};
use iabc_sim::dynamic::RoundRobinSchedule;
use iabc_sim::plan::{faulty_edges_of, RoundPlan, RoundSlots};
use iabc_sim::reference::ReferenceStepper;
use iabc_sim::{Engine, RunConfig, Scenario, StepStatus};
use rand::RngCore;

use crate::util::{
    self, median, raw_unit_time, secs, timed, unit_time, Sheet, Timing, Tracer, JOBS, PROBE_BUDGET,
};

/// Rounds of the engine-vs-reference prefix check.
const PREFIX_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Adv {
    Extremes,
    Random,
    FlipFlop,
    Pull,
}

impl Adv {
    fn make(self, seed: u64) -> Box<dyn Adversary> {
        match self {
            Adv::Extremes => Box::new(ExtremesAdversary::new(1e6)),
            Adv::Random => Box::new(RandomAdversary::new(-1e6, 1e6, seed)),
            Adv::FlipFlop => Box::new(FlipFlopAdversary::new(1e6)),
            Adv::Pull => Box::new(PullAdversary::new(true)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Sync,
    Dynamic,
    Model,
}

#[derive(Debug, Clone, Copy)]
enum Family {
    /// Circulant on `n` nodes with offsets `1..=degree`.
    Circulant {
        n: usize,
        degree: usize,
    },
    Complete(usize),
    /// Seeded Erdős–Rényi with the given edge probability.
    ErdosRenyi {
        n: usize,
        p: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct RunSpec {
    label: &'static str,
    /// Index into `Config::graphs`; dynamic runs step `Prepared::schedule`,
    /// which alternates graph 0 with a same-degree shifted circulant.
    graph: usize,
    f: usize,
    adversary: Adv,
    kind: Kind,
    epsilon: f64,
    cap: usize,
}

pub struct Config {
    graphs: Vec<Family>,
    runs: Vec<RunSpec>,
    /// Timed work over the whole run, spread over the run's slices.
    budget: Duration,
    /// Report run times as measured (`util::raw_unit_time`): the full-size
    /// runs take up to a second and are gather- and memory-bound, so the
    /// cache-resident probe around them misreads how the host slows them.
    raw_times: bool,
}

const fn run(
    label: &'static str,
    graph: usize,
    f: usize,
    adversary: Adv,
    kind: Kind,
    epsilon: f64,
    cap: usize,
) -> RunSpec {
    RunSpec {
        label,
        graph,
        f,
        adversary,
        kind,
        epsilon,
        cap,
    }
}

impl Config {
    pub fn full(budget: Duration) -> Self {
        Config {
            graphs: vec![
                Family::Circulant {
                    n: 20_000,
                    degree: 16,
                },
                Family::Complete(1500),
                Family::ErdosRenyi { n: 5000, p: 0.006 },
            ],
            runs: vec![
                run(
                    "circulant-extremes",
                    0,
                    3,
                    Adv::Extremes,
                    Kind::Sync,
                    1e-6,
                    200,
                ),
                run("complete-random", 1, 49, Adv::Random, Kind::Sync, 0.0, 20),
                run("er-flip-flop", 2, 2, Adv::FlipFlop, Kind::Sync, 0.0, 100),
                run("circulant-pull", 0, 3, Adv::Pull, Kind::Sync, 1e-6, 200),
                run("dynamic-random", 0, 3, Adv::Random, Kind::Dynamic, 1e-6, 10),
                run("model-extremes", 2, 2, Adv::Extremes, Kind::Model, 0.0, 40),
            ],
            budget,
            raw_times: true,
        }
    }

    pub fn probe() -> Self {
        Config {
            graphs: vec![
                Family::Circulant {
                    n: 2000,
                    degree: 16,
                },
                Family::Complete(150),
                Family::ErdosRenyi { n: 500, p: 0.06 },
            ],
            runs: vec![
                run(
                    "circulant-extremes",
                    0,
                    3,
                    Adv::Extremes,
                    Kind::Sync,
                    1e-6,
                    100,
                ),
                run("complete-random", 1, 4, Adv::Random, Kind::Sync, 0.0, 20),
                run("er-flip-flop", 2, 2, Adv::FlipFlop, Kind::Sync, 0.0, 100),
                run("circulant-pull", 0, 3, Adv::Pull, Kind::Sync, 1e-6, 100),
                run("dynamic-random", 0, 3, Adv::Random, Kind::Dynamic, 1e-6, 10),
                run("model-extremes", 2, 2, Adv::Extremes, Kind::Model, 0.0, 40),
            ],
            budget: PROBE_BUDGET,
            raw_times: false,
        }
    }
}

pub struct Prepared {
    graphs: Vec<Digraph>,
    /// Graph 0 alternating with a circulant of shifted offsets, round by
    /// round.
    schedule: RoundRobinSchedule,
    /// Per run: fault set, inputs, adversary seed.
    setups: Vec<(NodeSet, Vec<f64>, u64)>,
    rules: Vec<TrimmedMean>,
    models: Vec<ModelTrimmedMean>,
}

pub fn prepare(cfg: &Config, seed: u64, tracer: &Tracer) -> Prepared {
    let mut rng = util::rng(seed, "simulate");
    let ((graphs, schedule), _) = tracer.span("graph.setup", 0, 0, |_| {
        let graphs: Vec<Digraph> = cfg
            .graphs
            .iter()
            .map(|fam| match *fam {
                Family::Circulant { n, degree } => generators::circulant(n, 1..=degree),
                Family::Complete(n) => generators::complete(n),
                Family::ErdosRenyi { n, p } => generators::erdos_renyi(n, p, &mut rng),
            })
            .collect();
        let shifted = match cfg.graphs[0] {
            Family::Circulant { n, degree } => {
                generators::circulant(n, (1..=degree / 2).chain(degree + 1..=degree + degree / 2))
            }
            _ => unreachable!("graph 0 is the circulant"),
        };
        let schedule = RoundRobinSchedule::new(vec![graphs[0].clone(), shifted], 1)
            .expect("same-size schedule");
        (graphs, schedule)
    });
    let setups = cfg
        .runs
        .iter()
        .map(|r| {
            let n = graphs[r.graph].node_count();
            (
                util::pick_faults(&mut rng, n, r.f),
                util::inputs(&mut rng, n),
                rng.next_u64(),
            )
        })
        .collect();
    Prepared {
        graphs,
        schedule,
        setups,
        rules: cfg.runs.iter().map(|r| TrimmedMean::new(r.f)).collect(),
        models: cfg
            .runs
            .iter()
            .map(|r| ModelTrimmedMean::new(FaultModel::Total(r.f)))
            .collect(),
    }
}

/// The scenario of run `k`, ready for its terminal.
fn scenario<'a>(cfg: &Config, p: &'a Prepared, k: usize, jobs: usize) -> Scenario<'a> {
    let r = &cfg.runs[k];
    let (faults, inputs, adv_seed) = &p.setups[k];
    let base = Scenario::on(&p.graphs[r.graph])
        .inputs(inputs)
        .faults(faults.clone())
        .adversary(r.adversary.make(*adv_seed))
        .parallel(jobs);
    if r.kind == Kind::Model {
        base
    } else {
        base.rule(&p.rules[k])
    }
}

/// Builds run `k`'s engine through its `Scenario` terminal.
fn engine<'a>(cfg: &Config, p: &'a Prepared, k: usize, jobs: usize) -> Box<dyn Engine + 'a> {
    let s = scenario(cfg, p, k, jobs);
    let built: Result<Box<dyn Engine + 'a>, _> = match cfg.runs[k].kind {
        Kind::Sync => s.synchronous().map(|e| Box::new(e) as Box<dyn Engine>),
        Kind::Dynamic => s
            .dynamic(&p.schedule)
            .map(|e| Box::new(e) as Box<dyn Engine>),
        Kind::Model => s
            .model_aware(&p.models[k])
            .map(|e| Box::new(e) as Box<dyn Engine>),
    };
    built.expect("benchmark scenarios are valid")
}

/// Edges a round of run `k` steps over.
fn edges(cfg: &Config, p: &Prepared, k: usize) -> usize {
    p.graphs[cfg.runs[k].graph].edge_count()
}

/// `(rounds, state fingerprint)` of a finished run.
type Golden = (usize, u64);

/// Pinned full-size goldens of the development and held-out seeds.
const PINNED: &[(u64, &[Golden])] = &[
    (
        7,
        &[
            (200, 0x9e6b_79a5_8135_0438),
            (8, 0xd6ad_971b_ec81_fcc0),
            (25, 0x19c6_fe7d_6964_779c),
            (200, 0x92a9_fe6a_03ce_9211),
            (10, 0xe8e0_7e0c_5d6f_f936),
            (33, 0xa54d_0e22_1075_673f),
        ],
    ),
    (
        1009,
        &[
            (200, 0x9429_bce3_3547_07bf),
            (9, 0x9413_bb99_9120_0cad),
            (100, 0x6986_002e_419d_2411),
            (200, 0xe00a_e64d_47c8_8fd5),
            (10, 0xf737_7a11_e93d_3f62),
            (26, 0x2f2b_f51c_4ddc_ab2a),
        ],
    ),
];

/// Samples gathered across the run's slices.
pub struct Runner<'a> {
    cfg: &'a Config,
    p: &'a Prepared,
    tracer: &'a Tracer,
    /// Runs started so far; the next run is `started % runs.len()`.
    started: usize,
    /// Timed seconds so far.
    timed: f64,
    /// Timings of each run of the list.
    run_t: Vec<Vec<Timing>>,
    /// Each run's first outcome; later repeats must equal it.
    first: Vec<Option<Golden>>,
    spawned_in_runs: usize,
    step_ns: [Vec<f64>; 3],
    plan_us: Vec<f64>,
    setup_ms: Vec<f64>,
}

impl<'a> Runner<'a> {
    pub fn new(cfg: &'a Config, p: &'a Prepared, tracer: &'a Tracer) -> Self {
        Runner {
            cfg,
            p,
            tracer,
            started: 0,
            timed: 0.0,
            run_t: vec![Vec::new(); cfg.runs.len()],
            first: vec![None; cfg.runs.len()],
            spawned_in_runs: 0,
            step_ns: Default::default(),
            plan_us: Vec::new(),
            setup_ms: Vec::new(),
        }
    }

    /// Slice `k` of `slices`: runs the list's runs in turn until the
    /// part's timed work reaches `(k + 1) / slices` of its budget, at least
    /// one run.
    pub fn slice(&mut self, k: u32, slices: u32, sheet: &mut Sheet) {
        let target = secs(self.cfg.budget) * f64::from(k + 1) / f64::from(slices);
        let mut done = false;
        while !done || self.timed < target {
            self.timed += self.run_next(sheet);
            done = true;
        }
    }

    /// Runs the next run of the list; returns its timed seconds.
    fn run_next(&mut self, sheet: &mut Sheet) -> f64 {
        let (cfg, p, tracer) = (self.cfg, self.p, self.tracer);
        let k = self.started % cfg.runs.len();
        self.started += 1;
        let r = &cfg.runs[k];
        let (golden, t) = timed(|| {
            if tracer.on() {
                let (mut eng, dt) = tracer.span("sim.setup", 0, 0, |_| engine(cfg, p, k, JOBS));
                self.setup_ms.push(dt * 1e3);
                traced_steps(
                    cfg,
                    p,
                    k,
                    eng.as_mut(),
                    tracer,
                    &mut self.step_ns,
                    &mut self.plan_us,
                )
            } else {
                let mut eng = engine(cfg, p, k, JOBS);
                let spawned = iabc_exec::total_threads_spawned();
                let out = eng
                    .run(&RunConfig::bounded(r.epsilon, r.cap))
                    .expect("benchmark runs cannot starve the trim");
                self.spawned_in_runs += iabc_exec::total_threads_spawned() - spawned;
                (out.rounds, fingerprint::state_bits(eng.states()))
            }
        });
        self.run_t[k].push(t);
        sheet.ops(1, 0);
        match self.first[k] {
            None => self.first[k] = Some(golden),
            Some(g0) => sheet.check(g0 == golden, 1, || {
                format!(
                    "simulate {} repeats disagree: {g0:?} vs {golden:?}",
                    r.label
                )
            }),
        }
        t.wall
    }

    pub fn finish(mut self, seed: u64, full: bool, sheet: &mut Sheet) {
        // Every run of the list has run at least once.
        while self.started < self.cfg.runs.len() {
            self.run_next(sheet);
        }
        let (cfg, p) = (self.cfg, self.p);
        let goldens: Vec<Golden> = self.first.iter().flatten().copied().collect();
        let spawned = self.spawned_in_runs;
        sheet.check(spawned == 0, 1, || {
            format!("{spawned} threads spawned while engines stepped")
        });
        verify(cfg, p, seed, full, &goldens, sheet);
        // One round of every run of the list: its edges over the sum of
        // each run's time per round. How many rounds a run takes depends on
        // the seed, so weighting runs by rounds executed would make the
        // rate move with the seed's mix of graphs, not with the engines.
        let time = if cfg.raw_times {
            raw_unit_time
        } else {
            unit_time
        };
        let (mut edges_sum, mut per_round, mut raw, mut norm) = (0.0, 0.0, 0.0, 0.0);
        for (k, &(rounds, _)) in goldens.iter().enumerate() {
            let rounds = rounds.max(1) as f64;
            edges_sum += edges(cfg, p, k) as f64;
            per_round += time(&self.run_t[k]) / rounds;
            raw += raw_unit_time(&self.run_t[k]) / rounds;
            norm += unit_time(&self.run_t[k]) / rounds;
        }
        sheet.both("exact_edge_rounds_per_s", edges_sum / raw, edges_sum / norm);
        sheet.e2e(
            "exact_edge_rounds_per_s",
            edges_sum / per_round,
            "edge-rounds/s",
            self.started,
        );
        if self.tracer.on() {
            for (name, samples) in ["sync", "dynamic", "model"].iter().zip(&self.step_ns) {
                sheet.layer(
                    &format!("sim.step_ns_per_edge.{name}"),
                    median(samples),
                    "ns",
                    samples.len(),
                );
            }
            sheet.layer(
                "sim.plan_us",
                median(&self.plan_us),
                "us",
                self.plan_us.len(),
            );
            sheet.layer(
                "sim.setup_ms",
                median(&self.setup_ms),
                "ms",
                self.setup_ms.len(),
            );
            let rounds: usize = goldens.iter().map(|g| g.0).sum();
            sheet.layer("sim.rounds", rounds as f64, "count", 1);
            trim_layers(cfg, p, sheet);
            exec_layers(p, sheet);
        }
    }
}

/// Steps an engine exactly as `Engine::run` does (converged / halted /
/// capped), timing every `step()` and planning each sync round on a
/// same-seed twin of the run's adversary.
fn traced_steps(
    cfg: &Config,
    p: &Prepared,
    k: usize,
    eng: &mut dyn Engine,
    tracer: &Tracer,
    step_ns: &mut [Vec<f64>; 3],
    plan_us: &mut Vec<f64>,
) -> Golden {
    let r = &cfg.runs[k];
    let (faults, _, adv_seed) = &p.setups[k];
    let graph = &p.graphs[r.graph];
    let edges = graph.edge_count() as f64;
    let slot_edges = faulty_edges_of(graph, faults);
    let mut twin = r.adversary.make(*adv_seed);
    let mut plan = RoundPlan::new();
    let parent = tracer.id();
    let start = Instant::now();
    let mut halted = false;
    while eng.honest_range() > r.epsilon && !halted && eng.round() < r.cap {
        if r.kind == Kind::Sync {
            let view = AdversaryView {
                round: eng.round() + 1,
                graph,
                states: eng.states(),
                fault_set: faults,
            };
            plan.begin(slot_edges.len());
            let (_, dt) = tracer.span("sim.plan_round", parent, 0, |_| {
                twin.plan_round(&view, RoundSlots::new(&slot_edges, false), &mut plan)
            });
            plan_us.push(dt * 1e6);
        }
        let (status, dt) = tracer.span("sim.step", parent, 0, |_| {
            eng.step().expect("benchmark runs cannot starve the trim")
        });
        halted = status == StepStatus::Halted;
        step_ns[r.kind as usize].push(dt * 1e9 / edges);
    }
    tracer.record(parent, 0, 0, r.label, start, Instant::now());
    (eng.round(), fingerprint::state_bits(eng.states()))
}

/// Output checks: every run's first rounds equal an independent
/// implementation (the reference stepper for sync runs, the serial
/// engine for the others), and the recorded seeds match pinned goldens.
fn verify(
    cfg: &Config,
    p: &Prepared,
    seed: u64,
    full: bool,
    goldens: &[Golden],
    sheet: &mut Sheet,
) {
    for (k, r) in cfg.runs.iter().enumerate() {
        let mut pooled = engine(cfg, p, k, JOBS);
        for _ in 0..PREFIX_ROUNDS {
            pooled
                .step()
                .expect("benchmark runs cannot starve the trim");
        }
        let want = if r.kind == Kind::Sync {
            let (faults, inputs, adv_seed) = &p.setups[k];
            let mut reference = ReferenceStepper::new(
                &p.graphs[r.graph],
                inputs,
                faults.clone(),
                &p.rules[k],
                r.adversary.make(*adv_seed),
            )
            .expect("benchmark scenarios are valid");
            for _ in 0..PREFIX_ROUNDS {
                reference
                    .step()
                    .expect("benchmark runs cannot starve the trim");
            }
            fingerprint::state_bits(reference.states())
        } else {
            let mut serial = engine(cfg, p, k, 1);
            for _ in 0..PREFIX_ROUNDS {
                serial
                    .step()
                    .expect("benchmark runs cannot starve the trim");
            }
            fingerprint::state_bits(serial.states())
        };
        let got = fingerprint::state_bits(pooled.states());
        sheet.check(got == want, 1, || {
            format!(
                "{}: first {PREFIX_ROUNDS} rounds {got:016x} != independent {want:016x}",
                r.label
            )
        });
    }
    if let Some((_, pinned)) = PINNED.iter().find(|(s, _)| full && *s == seed) {
        sheet.check(*pinned == goldens, cfg.runs.len() as u64, || {
            format!("simulate goldens {goldens:?} != pinned {pinned:?}")
        });
    }
    if full {
        let rendered: Vec<String> = goldens
            .iter()
            .map(|(r, b)| format!("({r}, 0x{b:016x})"))
            .collect();
        println!("simulate goldens seed {seed}: [{}]", rendered.join(", "));
    }
}

/// `trim_kernel` on in-neighbor rows gathered from run states: the d16
/// row of the circulant and the d1499-class row of the complete graph.
fn trim_layers(cfg: &Config, p: &Prepared, sheet: &mut Sheet) {
    for (name, graph) in [
        ("core.trim_kernel_ns.d16", 0),
        ("core.trim_kernel_ns.d1499", 1),
    ] {
        let k = cfg
            .runs
            .iter()
            .position(|r| r.graph == graph)
            .expect("a run per graph");
        let (faults, inputs, _) = &p.setups[k];
        let g = &p.graphs[graph];
        let node = (0..g.node_count())
            .find(|&i| !faults.contains(NodeId::new(i)))
            .expect("an honest node");
        let row: Vec<f64> = g
            .in_neighbors(NodeId::new(node))
            .iter()
            .map(|u| inputs[u.index()])
            .collect();
        let mut buf = row.clone();
        let f = cfg.runs[k].f;
        let reps = if row.len() > 100 { 2000 } else { 20_000 };
        let start = Instant::now();
        for _ in 0..reps {
            buf.copy_from_slice(&row);
            std::hint::black_box(trim_kernel(inputs[node], std::hint::black_box(&mut buf), f));
        }
        sheet.layer(name, secs(start.elapsed()) * 1e9 / reps as f64, "ns", reps);
    }
}

/// Pool dispatch cost and thread accounting.
fn exec_layers(p: &Prepared, sheet: &mut Sheet) {
    let exec = Executor::new(JOBS);
    let mut items = vec![0u8; p.graphs[0].node_count()];
    let mut us = Vec::new();
    for _ in 0..200 {
        let start = Instant::now();
        exec.run_chunked(
            &mut items,
            Chunking::Auto(iabc_exec::MIN_CHUNK),
            || (),
            |_, _, _| Ok::<(), ()>(()),
        )
        .expect("no-op items cannot fail");
        us.push(secs(start.elapsed()) * 1e6);
    }
    sheet.layer("exec.dispatch_us", median(&us), "us", us.len());
    sheet.layer(
        "exec.threads_spawned",
        iabc_exec::total_threads_spawned() as f64,
        "count",
        1,
    );
}

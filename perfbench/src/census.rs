//! `census`: the paper's decision problem plus an empirical convergence
//! check, as cell-parallel sweeps through `iabc_analysis` at `jobs = 2`.
//!
//! Three kinds of timed unit take turns: (1) the exhaustive Theorem 1
//! census of every digraph on `census_n` nodes at `f ∈ {0, 1}`, (2)
//! `check_parallel` on a fixed list of satisfying graphs, and (3) a
//! batched convergence census through `run_sim_cells(.., batch = true)`.

use std::time::{Duration, Instant};

use iabc_analysis::batched::{
    run_sim_cells, run_spec_group, AdversarySpec, SimCell, SimCellSpec, Topology,
};
use iabc_analysis::census::{census, CensusRow};
use iabc_analysis::sweep::{census_cells, run_cells, CellCoords, SweepCell};
use iabc_core::fastmath::{sort_columns_total_fast, FastRule, COLUMN_PAD};
use iabc_core::{theorem1, ConditionReport, Threshold};
use iabc_graph::{generators, Digraph, NodeId};
use iabc_sim::fastmath::BatchedSimulation;
use rand::Rng;

use crate::util::{
    self, median, percentile, raw_unit_time, secs, timed, unit_time, Sheet, Timing, Tracer, JOBS,
    PROBE_BUDGET,
};

/// Replicas per convergence-census spec.
const REPLICAS: usize = 32;
/// Round cap and epsilon of the convergence census.
const CONV_CAP: usize = 200;
const CONV_EPS: f64 = 1e-6;

/// Satisfying counts of the exhaustive census, `(n, f) → count`.
const PINNED_SATISFYING: [(usize, usize, u64); 4] =
    [(4, 0, 3614), (4, 1, 1), (5, 0, 991_930), (5, 1, 2240)];

/// `(label, generator, f)` of one checker-list graph.
type LargeGraph = (&'static str, fn() -> Digraph, usize);

pub struct Config {
    census_n: usize,
    /// Every entry satisfies Theorem 1.
    large: Vec<LargeGraph>,
    specs: Vec<SimCellSpec>,
    /// Timed work over the whole run, spread over the run's slices.
    budget: Duration,
    /// Report unit times as measured (`util::raw_unit_time`), not at the
    /// reference speed: at full size the sweeps take seconds (one cell
    /// outlasting the other), the checker lists most of a second and the
    /// batched censuses about 0.1 s, and the probes around such units
    /// misread how the host slowed them.
    raw_times: bool,
}

fn spec(topology: Topology, f: usize, adversary: AdversarySpec) -> SimCellSpec {
    SimCellSpec {
        topology,
        f,
        rule: FastRule::TrimmedMean(f),
        adversary,
        epsilon: CONV_EPS,
        max_rounds: CONV_CAP,
    }
}

const PULL_MAX: AdversarySpec = AdversarySpec::Pull { toward_max: true };
const PULL_MIN: AdversarySpec = AdversarySpec::Pull { toward_max: false };
const CONSTANT: AdversarySpec = AdversarySpec::Constant(5.0);

impl Config {
    /// The workload's own part: n = 5 census, the near-limit checker list,
    /// in-degree 16..=127 convergence specs.
    pub fn full(budget: Duration) -> Self {
        Config {
            census_n: 5,
            large: vec![
                ("complete-17", || generators::complete(17), 3),
                ("core-network-14", || generators::core_network(14, 4), 4),
            ],
            // Two wide groups of about equal cost lead, so the two workers
            // stay evenly loaded through each census.
            specs: vec![
                spec(
                    Topology::Circulant {
                        n: 140,
                        degree: 100,
                    },
                    12,
                    CONSTANT,
                ),
                spec(
                    Topology::Circulant {
                        n: 160,
                        degree: 127,
                    },
                    12,
                    CONSTANT,
                ),
                spec(Topology::Circulant { n: 64, degree: 40 }, 6, CONSTANT),
                spec(Topology::Complete(128), 20, PULL_MAX),
                spec(Topology::Complete(65), 10, PULL_MIN),
                spec(Topology::Complete(17), 3, PULL_MAX),
            ],
            budget,
            raw_times: true,
        }
    }

    /// The fixed small probe other workloads run.
    pub fn probe() -> Self {
        Config {
            census_n: 4,
            large: vec![("complete-13", || generators::complete(13), 3)],
            specs: vec![
                spec(Topology::Complete(33), 5, PULL_MAX),
                spec(Topology::Complete(65), 10, CONSTANT),
            ],
            budget: PROBE_BUDGET,
            raw_times: false,
        }
    }
}

pub struct Prepared {
    large: Vec<(&'static str, Digraph, usize)>,
    cells: Vec<SimCell>,
    /// Edge count per spec, aligned with `Config::specs`.
    spec_edges: Vec<usize>,
}

pub fn prepare(cfg: &Config, seed: u64) -> Prepared {
    let large = cfg.large.iter().map(|&(l, g, f)| (l, g(), f)).collect();
    let cells = cfg
        .specs
        .iter()
        .enumerate()
        .flat_map(|(s, spec)| {
            (0..REPLICAS).map(move |r| SimCell {
                coords: CellCoords::new("perfbench-conv")
                    .with("seed", seed)
                    .with("spec", s)
                    .with("replica", r),
                spec: spec.clone(),
            })
        })
        .collect();
    let spec_edges = cfg
        .specs
        .iter()
        .map(|s| s.topology.build().edge_count())
        .collect();
    Prepared {
        large,
        cells,
        spec_edges,
    }
}

/// Runs the census grid; traced runs wrap each cell to time it.
fn sweep(cfg: &Config, tracer: &Tracer) -> Vec<CensusRow> {
    let start = Instant::now();
    let rows: Vec<CensusRow> = if tracer.on() {
        let parent = tracer.id();
        let cells: Vec<SweepCell<'_, CensusRow>> = census_cells(cfg.census_n, &[0, 1])
            .into_iter()
            .map(|cell| {
                let coords = cell.coords.clone();
                let (n, f) = grid_of(&coords);
                SweepCell::new(coords, move |_seed| {
                    tracer.span("analysis.cell", parent, 0, |_| census(n, f)).0
                })
            })
            .collect();
        let out = run_cells(cells, JOBS);
        tracer.record(parent, 0, 0, "analysis.run_cells", start, Instant::now());
        out.into_iter().map(|o| o.value).collect()
    } else {
        run_cells(census_cells(cfg.census_n, &[0, 1]), JOBS)
            .into_iter()
            .map(|o| o.value)
            .collect()
    };
    rows
}

/// `(n, f)` back from census coordinates `census[n=..,f=..]`.
fn grid_of(coords: &CellCoords) -> (usize, usize) {
    let label = coords.label();
    let field = |key: &str| -> usize {
        let at = label.find(&format!("{key}=")).expect("census coordinate") + key.len() + 1;
        label[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|d| d.parse().ok())
            .expect("numeric census coordinate")
    };
    (field("n"), field("f"))
}

/// Lane·edge·rounds stepped by one batched census: every group steps until
/// all its lanes converged or the cap fired.
fn lane_edge_rounds(p: &Prepared, results: &[Option<usize>]) -> f64 {
    let mut total = 0.0;
    for (s, &edges) in p.spec_edges.iter().enumerate() {
        let lanes = &results[s * REPLICAS..(s + 1) * REPLICAS];
        let stepped = if lanes.iter().all(Option::is_some) {
            lanes.iter().flatten().copied().max().unwrap_or(0)
        } else {
            CONV_CAP
        };
        total += (REPLICAS * edges * stepped) as f64;
    }
    total
}

#[derive(Debug, Clone, Copy)]
enum Unit {
    Sweep,
    Check,
    Batched,
}

/// The order units take turns in: the batched census is short, so it
/// runs six times per turn of the two long units.
const ROTATION: [Unit; 8] = [
    Unit::Sweep,
    Unit::Batched,
    Unit::Batched,
    Unit::Batched,
    Unit::Check,
    Unit::Batched,
    Unit::Batched,
    Unit::Batched,
];

/// Samples gathered across the run's slices.
pub struct Runner<'a> {
    cfg: &'a Config,
    p: &'a Prepared,
    tracer: &'a Tracer,
    spans_before: usize,
    /// Next entry of [`ROTATION`].
    cursor: usize,
    /// Timed seconds so far.
    timed: f64,
    /// Digraphs one census sweep decides.
    graphs: u64,
    sweeps: Vec<Timing>,
    large: Vec<Timing>,
    per_graph_s: Vec<f64>,
    /// Lane·edge·rounds one batched census steps.
    lane_edge_rounds: f64,
    batches: Vec<Timing>,
    first_batch: Option<Vec<Option<usize>>>,
}

impl<'a> Runner<'a> {
    pub fn new(cfg: &'a Config, p: &'a Prepared, tracer: &'a Tracer) -> Self {
        Runner {
            cfg,
            p,
            tracer,
            spans_before: tracer.span_count(),
            cursor: 0,
            timed: 0.0,
            graphs: 0,
            sweeps: Vec::new(),
            large: Vec::new(),
            per_graph_s: Vec::new(),
            lane_edge_rounds: 0.0,
            batches: Vec::new(),
            first_batch: None,
        }
    }

    /// Slice `k` of `slices`: runs units in turn until the part's timed
    /// work reaches `(k + 1) / slices` of its budget, at least one unit.
    pub fn slice(&mut self, k: u32, slices: u32, sheet: &mut Sheet) {
        let target = secs(self.cfg.budget) * f64::from(k + 1) / f64::from(slices);
        let mut done = false;
        while !done || self.timed < target {
            self.timed += self.unit(sheet);
            done = true;
        }
    }

    /// Runs the next unit of the rotation; returns its timed seconds.
    fn unit(&mut self, sheet: &mut Sheet) -> f64 {
        let unit = ROTATION[self.cursor % ROTATION.len()];
        self.cursor += 1;
        match unit {
            Unit::Sweep => self.census_sweep(sheet),
            Unit::Check => self.check_list(sheet),
            Unit::Batched => self.batched(sheet),
        }
    }

    /// (1) The exhaustive census, checked against the pinned counts.
    fn census_sweep(&mut self, sheet: &mut Sheet) -> f64 {
        let (rows, t) = timed(|| sweep(self.cfg, self.tracer));
        self.sweeps.push(t);
        self.graphs = rows.iter().map(|r| r.graphs).sum();
        for row in &rows {
            let pinned = PINNED_SATISFYING
                .iter()
                .find(|&&(n, f, _)| n == row.n && f == row.f);
            let ok = row.graphs == 1u64 << (row.n * (row.n - 1))
                && row.corollary3_holds
                && pinned.is_none_or(|&(_, _, s)| row.satisfying == s);
            sheet.ops(row.graphs, 0);
            sheet.check(ok, row.graphs, || {
                format!("census n={} f={}: {row:?}", row.n, row.f)
            });
        }
        t.wall
    }

    /// (2) The near-limit checker list: every graph satisfies Theorem 1.
    fn check_list(&mut self, sheet: &mut Sheet) -> f64 {
        let (p, tracer) = (self.p, self.tracer);
        let (unsatisfied, t) = timed(|| {
            let mut unsatisfied = 0u64;
            for (_, g, f) in &p.large {
                let (report, dt) = tracer.span("core.check_parallel", 0, 0, |_| {
                    theorem1::check_parallel(g, *f, Threshold::synchronous(*f), JOBS)
                });
                unsatisfied += u64::from(!matches!(report, ConditionReport::Satisfied));
                self.per_graph_s.push(dt);
            }
            unsatisfied
        });
        self.large.push(t);
        sheet.ops(p.large.len() as u64, 0);
        sheet.check(unsatisfied == 0, unsatisfied, || {
            format!("{unsatisfied} large checks not satisfied")
        });
        t.wall
    }

    /// (3) The batched convergence census: tallies equal across repeats.
    fn batched(&mut self, sheet: &mut Sheet) -> f64 {
        let p = self.p;
        let (outcomes, t) = timed(|| run_sim_cells(&p.cells, JOBS, true));
        let results: Vec<Option<usize>> = outcomes.iter().map(|o| o.value.rounds).collect();
        self.lane_edge_rounds = lane_edge_rounds(p, &results);
        self.batches.push(t);
        sheet.ops(p.cells.len() as u64, 0);
        match &self.first_batch {
            None => self.first_batch = Some(results),
            Some(r0) => sheet.check(*r0 == results, p.cells.len() as u64, || {
                "batched census repeats disagree".into()
            }),
        }
        t.wall
    }

    pub fn finish(mut self, seed: u64, sheet: &mut Sheet) {
        // Every kind of unit has run at least once.
        while self.cursor < ROTATION.len() {
            self.unit(sheet);
        }
        let (cfg, p, tracer) = (self.cfg, self.p, self.tracer);
        verify_batched(
            p,
            self.first_batch.as_deref().expect("at least one batch"),
            sheet,
        );
        let time = if cfg.raw_times {
            raw_unit_time
        } else {
            unit_time
        };
        let (graphs, c) = (self.graphs as f64, &self.sweeps);
        sheet.e2e("census_graphs_per_s", graphs / time(c), "graphs/s", c.len());
        let r = (graphs / raw_unit_time(c), graphs / unit_time(c));
        sheet.both("census_graphs_per_s", r.0, r.1);
        let l = &self.large;
        sheet.e2e("check_large_s", time(l), "s", l.len());
        sheet.both("check_large_s", raw_unit_time(l), unit_time(l));
        let (ler, b) = (self.lane_edge_rounds, &self.batches);
        sheet.e2e(
            "batched_edge_rounds_per_s",
            ler / time(b),
            "lane-edge-rnd/s",
            b.len(),
        );
        let r = (ler / raw_unit_time(b), ler / unit_time(b));
        sheet.both("batched_edge_rounds_per_s", r.0, r.1);
        if tracer.on() {
            let g = &self.per_graph_s;
            sheet.layer("core.check_parallel_s", median(g), "s", g.len());
            layers(cfg, p, seed, tracer, self.spans_before, sheet);
        }
    }
}

/// Batched tallies: every lane of every spec converges inside the cap, and
/// lane 0 of each spec equals its width-1 dispatch run (batch width is
/// unobservable) — both hold for any seed.
fn verify_batched(p: &Prepared, results: &[Option<usize>], sheet: &mut Sheet) {
    for (s, _) in p.spec_edges.iter().enumerate() {
        let lanes = &results[s * REPLICAS..(s + 1) * REPLICAS];
        let converged = lanes.iter().filter(|r| r.is_some()).count();
        sheet.check(converged == REPLICAS, REPLICAS as u64, || {
            format!("batched spec {s}: {converged}/{REPLICAS} lanes converged")
        });
        let cell = &p.cells[s * REPLICAS];
        let solo = run_spec_group(&cell.spec, &[cell.coords.seed()]);
        sheet.check(solo[0].rounds == lanes[0], 1, || {
            format!(
                "batched spec {s}: lane 0 {:?} != dispatch {:?}",
                lanes[0], solo[0].rounds
            )
        });
        let (fallback, _) = batched_probe(&cell.spec, 1);
        sheet.check(fallback == 0, 1, || {
            format!("batched spec {s}: {fallback} scalar fallback rows")
        });
    }
}

/// Builds a full-width batch of `spec`, steps it `steps` times, and
/// returns its scalar-fallback row count and the mean step time.
fn batched_probe(spec: &SimCellSpec, steps: usize) -> (usize, f64) {
    let graph = spec.topology.build();
    let n = graph.node_count();
    let mut rng = util::rng(n as u64, "batched-probe");
    let inputs: Vec<f64> = (0..n * REPLICAS)
        .map(|_| rng.random_range(0.0..1.0))
        .collect();
    let adversary = spec.adversary;
    let mut batch = BatchedSimulation::new(
        &graph,
        &inputs,
        spec.fault_set(),
        spec.rule,
        REPLICAS,
        |_| adversary.make(),
    )
    .expect("census specs are eligible");
    let start = Instant::now();
    for _ in 0..steps {
        batch.step().expect("eligible specs cannot starve the trim");
    }
    (
        batch.scalar_fallback_rows(),
        secs(start.elapsed()) / steps as f64,
    )
}

fn layers(
    cfg: &Config,
    p: &Prepared,
    seed: u64,
    tracer: &Tracer,
    spans_before: usize,
    sheet: &mut Sheet,
) {
    // Sampled single checks on random digraphs of the census size.
    let n = cfg.census_n;
    let mut rng = util::rng(seed, "census-check-sample");
    let mut check_us = Vec::new();
    for k in 0..2000 {
        let mut g = Digraph::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.random_bool(0.5) {
                    g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            }
        }
        let f = k % 2;
        let start = Instant::now();
        std::hint::black_box(theorem1::check(std::hint::black_box(&g), f));
        check_us.push(secs(start.elapsed()) * 1e6);
    }
    sheet.layer("core.check_us.p50", median(&check_us), "us", check_us.len());
    sheet.layer(
        "core.check_us.p99",
        percentile(&check_us, 0.99),
        "us",
        check_us.len(),
    );
    let rows = run_cells(census_cells(n, &[0, 1]), JOBS);
    let checks: u64 = rows.iter().map(|o| o.value.graphs).sum();
    let satisfied: u64 = rows.iter().map(|o| o.value.satisfying).sum();
    sheet.layer("core.checks", checks as f64, "count", 1);
    sheet.layer("core.satisfied", satisfied as f64, "count", 1);

    for (name, slots, live) in [
        ("core.sort_columns_ns.d64", 64, 64),
        ("core.sort_columns_ns.d127", 128, 127),
    ] {
        let ns = sort_columns_ns(seed, slots, live);
        sheet.layer(name, ns, "ns", 200);
    }

    // Cell busy time against the run_cells wall time.
    let spans = span_stats(tracer, spans_before);
    sheet.layer(
        "analysis.cell_ms.p50",
        median(&spans.cell_ms),
        "ms",
        spans.cell_ms.len(),
    );
    sheet.layer(
        "analysis.cell_ms.max",
        percentile(&spans.cell_ms, 1.0),
        "ms",
        spans.cell_ms.len(),
    );
    let busy: f64 = spans.cell_ms.iter().sum::<f64>() / 1e3;
    sheet.layer(
        "analysis.idle_frac",
        1.0 - busy / (JOBS as f64 * spans.run_cells_s),
        "ratio",
        spans.cell_ms.len(),
    );
    let groups = cfg.specs.len();
    sheet.layer("analysis.groups", groups as f64, "count", 1);
    sheet.layer(
        "analysis.mean_width",
        p.cells.len() as f64 / groups as f64,
        "count",
        1,
    );

    // Representative batched step: the spec with the most edges.
    let rep = cfg
        .specs
        .iter()
        .zip(&p.spec_edges)
        .max_by_key(|(_, &e)| e)
        .expect("at least one spec");
    let (fallback, step_s) = batched_probe(rep.0, 20);
    sheet.layer(
        "sim.batched_step_ns_per_lane_edge",
        step_s * 1e9 / (REPLICAS * rep.1) as f64,
        "ns",
        20,
    );
    sheet.layer("sim.scalar_fallback_rows", fallback as f64, "count", 1);
}

struct CellSpans {
    cell_ms: Vec<f64>,
    run_cells_s: f64,
}

/// Cell durations and total `run_cells` wall time from the span list.
fn span_stats(tracer: &Tracer, from: usize) -> CellSpans {
    let mut out = CellSpans {
        cell_ms: Vec::new(),
        run_cells_s: 0.0,
    };
    tracer.visit(from, |s| {
        let dur = (s.end_ns - s.start_ns) as f64;
        match s.name.as_str() {
            "analysis.cell" => out.cell_ms.push(dur / 1e6),
            "analysis.run_cells" => out.run_cells_s += dur / 1e9,
            _ => {}
        }
    });
    out
}

/// Mean ns per columnar sort of `slots × 32` lanes (`live` real rows,
/// the rest padding).
fn sort_columns_ns(seed: u64, slots: usize, live: usize) -> f64 {
    let mut rng = util::rng(seed, "sort-columns");
    let lanes = 32;
    let source: Vec<f64> = (0..slots * lanes)
        .map(|k| {
            if k / lanes < live {
                rng.random_range(-1.0..1.0)
            } else {
                COLUMN_PAD
            }
        })
        .collect();
    let mut buf = source.clone();
    let reps = 200;
    let start = Instant::now();
    for _ in 0..reps {
        buf.copy_from_slice(&source);
        sort_columns_total_fast(std::hint::black_box(&mut buf), lanes);
    }
    secs(start.elapsed()) * 1e9 / reps as f64
}

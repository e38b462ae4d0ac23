//! `deploy`: one `MultiplexedDeployment` over `LocalTransport` at
//! `jobs = 2`: a degree-8 circulant, f = 2 constant liars, ticked for the
//! run's budget. Every node is ready every tick, so one tick is one
//! protocol round.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iabc_core::rules::trim_kernel;
use iabc_graph::CompiledTopology;
use iabc_runtime::{
    ConstantLiar, LocalTransport, Mailboxes, MultiplexConfig, MultiplexedDeployment, RuntimeError,
    Transport, WireMessage,
};
use rand::Rng;

use crate::util::{
    self, median, percentile, raw_unit_time, secs, timed, unit_time, Sheet, Timing, Tracer, JOBS,
    PROBE_BUDGET,
};

const DEGREE: usize = 8;
const F: usize = 2;
/// The liars' constant (inside the sanitize clamp, far outside the inputs).
const LIE: f64 = 1e6;
/// Round budget handed to the deployment; runs stop on time long before.
const ROUNDS: usize = 1_000_000;
/// Round whose state checksum is pinned for the recorded seeds.
const PIN_ROUND: usize = 10;
/// Honest nodes whose last update is recomputed independently.
const SAMPLE: usize = 2000;

/// Pinned `(seed, checksum at PIN_ROUND)` of the development and held-out
/// seeds, full size.
const PINNED: &[(u64, u64)] = &[(7, 0x5e37_cffd_8610_7938), (1009, 0xc4f4_3e4b_4a37_2565)];

pub struct Config {
    n: usize,
    budget: Duration,
    min_ticks: usize,
    /// Report tick times as measured (`util::raw_unit_time`): a tick at
    /// n = 10⁶ streams hundreds of MiB, so the cache-resident probe around
    /// it misreads how the host slows it.
    raw_times: bool,
}

impl Config {
    pub fn full(budget: Duration) -> Self {
        Config {
            n: 1_000_000,
            budget,
            min_ticks: PIN_ROUND + 2,
            raw_times: true,
        }
    }

    pub fn probe() -> Self {
        Config {
            n: 300_000,
            budget: PROBE_BUDGET,
            min_ticks: 20,
            raw_times: false,
        }
    }
}

/// A `Transport` that counts sends and times flushes around
/// `LocalTransport` (traced runs only).
#[derive(Debug, Default, Clone)]
struct Counting {
    sends: Arc<AtomicU64>,
    flush_us: Arc<Mutex<Vec<f64>>>,
}

impl Transport for Counting {
    fn send(
        &mut self,
        slot: u32,
        msg: WireMessage,
        mb: &mut Mailboxes,
    ) -> Result<(), RuntimeError> {
        self.sends.fetch_add(1, Ordering::Relaxed);
        LocalTransport.send(slot, msg, mb)
    }

    fn flush(&mut self, mb: &mut Mailboxes) -> Result<(), RuntimeError> {
        let start = Instant::now();
        let out = LocalTransport.flush(mb);
        self.flush_us
            .lock()
            .expect("flush list poisoned")
            .push(secs(start.elapsed()) * 1e6);
        out
    }
}

/// The deployment, with either the plain or the counting transport.
enum Deployment<'a> {
    Plain(MultiplexedDeployment<'a, LocalTransport>),
    Counted(MultiplexedDeployment<'a, Counting>),
}

impl Deployment<'_> {
    fn tick(&mut self) -> Result<(), RuntimeError> {
        match self {
            Deployment::Plain(d) => d.tick(),
            Deployment::Counted(d) => d.tick(),
        }
    }

    fn states(&self) -> Vec<f64> {
        match self {
            Deployment::Plain(d) => d.states(),
            Deployment::Counted(d) => d.states(),
        }
    }
}

/// The generated network: topology (with its fault flags) and inputs.
pub struct Network {
    topology: CompiledTopology,
    inputs: Vec<f64>,
}

pub fn network(cfg: &Config, seed: u64, tracer: &Tracer) -> Network {
    let mut rng = util::rng(seed, "deploy");
    let faults = util::pick_faults(&mut rng, cfg.n, F);
    let inputs: Vec<f64> = (0..cfg.n).map(|_| rng.random_range(0.0..1000.0)).collect();
    let (topology, _) = tracer.span("graph.setup", 0, 0, |_| {
        CompiledTopology::circulant(cfg.n, DEGREE, &faults)
    });
    Network { topology, inputs }
}

pub struct Prepared<'a> {
    net: &'a Network,
    deployment: Deployment<'a>,
    counting: Counting,
    new_ms: f64,
}

pub fn prepare<'a>(net: &'a Network, tracer: &Tracer) -> Prepared<'a> {
    let counting = Counting::default();
    let config = MultiplexConfig {
        jobs: JOBS,
        shared_pool: true,
        ..MultiplexConfig::default()
    };
    let liar = |_| Box::new(ConstantLiar { value: LIE }) as Box<dyn iabc_runtime::LocalByzantine>;
    let (deployment, dt) = tracer.span("runtime.new", 0, 0, |_| {
        if tracer.on() {
            MultiplexedDeployment::new(
                &net.topology,
                &net.inputs,
                F,
                ROUNDS,
                liar,
                counting.clone(),
                config,
            )
            .map(Deployment::Counted)
        } else {
            MultiplexedDeployment::new(
                &net.topology,
                &net.inputs,
                F,
                ROUNDS,
                liar,
                LocalTransport,
                config,
            )
            .map(Deployment::Plain)
        }
    });
    Prepared {
        net,
        deployment: deployment.expect("degree 8 >= 2f + 1 is deployable"),
        counting,
        new_ms: dt * 1e3,
    }
}

/// Order-sensitive bitwise digest of a state vector (the `iabc deploy`
/// checksum).
fn checksum(states: &[f64]) -> u64 {
    states
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits())
}

/// Tick timings gathered across the run's slices.
pub struct Runner<'a> {
    cfg: &'a Config,
    p: Prepared<'a>,
    tracer: &'a Tracer,
    ticks: Vec<Timing>,
    /// Timed seconds so far.
    timed: f64,
    failed_ticks: u64,
    pinned_sum: Option<u64>,
}

impl<'a> Runner<'a> {
    pub fn new(cfg: &'a Config, p: Prepared<'a>, tracer: &'a Tracer) -> Self {
        Runner {
            cfg,
            p,
            tracer,
            ticks: Vec::new(),
            timed: 0.0,
            failed_ticks: 0,
            pinned_sum: None,
        }
    }

    fn tick(&mut self) {
        let (deployment, tracer) = (&mut self.p.deployment, self.tracer);
        let ((result, _), t) = timed(|| tracer.span("runtime.tick", 0, 0, |_| deployment.tick()));
        self.ticks.push(t);
        self.timed += t.wall;
        self.failed_ticks += u64::from(result.is_err());
        if self.ticks.len() == PIN_ROUND {
            self.pinned_sum = Some(checksum(&self.p.deployment.states()));
        }
    }

    /// Slice `k` of `slices`: ticks until the part's timed work reaches
    /// `(k + 1) / slices` of its budget and its tick count the same share
    /// of its minimum, at least one tick.
    pub fn slice(&mut self, k: u32, slices: u32) {
        let share = f64::from(k + 1) / f64::from(slices);
        let target = secs(self.cfg.budget) * share;
        let min = (self.cfg.min_ticks as f64 * share).ceil() as usize;
        let mut done = false;
        while !done || self.ticks.len() < min || self.timed < target {
            self.tick();
            done = true;
        }
    }

    pub fn finish(mut self, seed: u64, full: bool, sheet: &mut Sheet) {
        // One more tick from a snapshot, for the independent recompute.
        let before = self.p.deployment.states();
        self.tick();
        let after = self.p.deployment.states();
        let ticks = self.ticks.len();
        let failed = self.failed_ticks;
        sheet.ops(ticks as u64, failed);
        sheet.check(failed == 0, 0, || format!("{failed} deploy ticks failed"));
        sheet.e2e(
            "deploy_rounds_per_s",
            1.0 / if self.cfg.raw_times {
                raw_unit_time(&self.ticks)
            } else {
                unit_time(&self.ticks)
            },
            "rounds/s",
            ticks,
        );
        sheet.both(
            "deploy_rounds_per_s",
            1.0 / raw_unit_time(&self.ticks),
            1.0 / unit_time(&self.ticks),
        );
        verify(self.p.net, &before, &after, seed, sheet);
        if let Some(sum) = self.pinned_sum {
            if full {
                println!("deploy checksum seed {seed} round {PIN_ROUND}: 0x{sum:016x}");
            }
            if let Some(&(_, want)) = PINNED.iter().find(|(s, _)| full && *s == seed) {
                sheet.check(sum == want, 1, || {
                    format!("deploy checksum {sum:016x} != pinned {want:016x}")
                });
            }
        }
        if self.tracer.on() {
            let ms: Vec<f64> = self.ticks.iter().map(|t| t.wall * 1e3).collect();
            sheet.layer("runtime.new_ms", self.p.new_ms, "ms", 1);
            sheet.layer("runtime.tick_ms.p50", median(&ms), "ms", ms.len());
            sheet.layer("runtime.tick_ms.p99", percentile(&ms, 0.99), "ms", ms.len());
            let sends = self.p.counting.sends.load(Ordering::Relaxed);
            sheet.layer(
                "runtime.sends_per_tick",
                sends as f64 / ticks as f64,
                "count",
                ticks,
            );
            let flush = self
                .p
                .counting
                .flush_us
                .lock()
                .expect("flush list poisoned")
                .clone();
            sheet.layer("runtime.flush_us", median(&flush), "us", flush.len());
        }
    }
}

/// Output checks on the last tick: a seeded sample of honest nodes is
/// recomputed from the previous states (in-neighbors ascending, liars'
/// constant, the shared trim kernel) and must match bit for bit; every
/// honest state stays inside the honest inputs' hull (validity).
fn verify(net: &Network, before: &[f64], after: &[f64], seed: u64, sheet: &mut Sheet) {
    let n = net.inputs.len();
    let honest = |i: usize| !net.topology.is_faulty(i);
    let mut rng = util::rng(seed, "deploy-sample");
    let mut wrong = 0u64;
    let mut row = Vec::with_capacity(DEGREE);
    let mut checked = 0;
    while checked < SAMPLE.min(n - F) {
        let i = rng.random_range(0..n);
        if !honest(i) {
            continue;
        }
        checked += 1;
        row.clear();
        row.extend(net.topology.in_neighbors_of(i).iter().map(|&u| {
            if honest(u as usize) {
                before[u as usize]
            } else {
                LIE
            }
        }));
        let want = trim_kernel(before[i], &mut row, F);
        wrong += u64::from(want.to_bits() != after[i].to_bits());
    }
    sheet.check(wrong == 0, wrong, || {
        format!("{wrong}/{SAMPLE} sampled deploy updates differ")
    });
    let (lo, hi) = (0..n)
        .filter(|&i| honest(i))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
            (lo.min(net.inputs[i]), hi.max(net.inputs[i]))
        });
    let outside = (0..n)
        .filter(|&i| honest(i) && !(lo..=hi).contains(&after[i]))
        .count() as u64;
    sheet.check(outside == 0, outside, || {
        format!("{outside} honest states left the input hull")
    });
}

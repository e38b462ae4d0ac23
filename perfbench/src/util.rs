//! Shared plumbing: sample statistics, the metric sheet a run fills, the
//! in-memory span recorder, and small seeded helpers.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use iabc_graph::NodeSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker budget of every pool the harness drives (the host has 2 cores).
pub const JOBS: usize = 2;

/// Timed work of a part when it runs as a probe of another workload.
pub const PROBE_BUDGET: std::time::Duration = std::time::Duration::from_millis(1500);

/// Nearest-rank percentile of `samples` (`q` in `0..=1`); `NaN` when
/// empty. Non-finite samples (failed requests) sort last.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The time a metric reports for a list of timed units: the median of the
/// unit times at the reference host speed.
pub fn unit_time(units: &[Timing]) -> f64 {
    let norm: Vec<f64> = units.iter().map(Timing::norm).collect();
    median(&norm)
}

/// The median of the unit times as measured, for units seconds long: the
/// probes around such a unit cannot see the host change inside it.
pub fn raw_unit_time(units: &[Timing]) -> f64 {
    let raw: Vec<f64> = units.iter().map(|t| t.wall).collect();
    median(&raw)
}

/// Seconds of a duration as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One RNG stream per consumer: the run seed salted by a fixed label, so
/// parts never share draws and adding a part moves no other part's inputs.
pub fn rng(seed: u64, salt: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ iabc_graph::fingerprint::bytes(salt.as_bytes()))
}

/// `count` distinct node indices of `0..n`, ascending.
pub fn pick_nodes(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.random_range(0..n);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked.sort_unstable();
    picked
}

/// A fault set of `count` seeded nodes.
pub fn pick_faults(rng: &mut StdRng, n: usize, count: usize) -> NodeSet {
    NodeSet::from_indices(n, pick_nodes(rng, n, count))
}

/// `n` seeded inputs in `[0, 1)`.
pub fn inputs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(0.0..1.0)).collect()
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement or count).
    pub samples: usize,
}

/// What one pass over the workload produced: metrics plus the operation
/// tallies and any failed output checks.
#[derive(Debug, Default)]
pub struct Sheet {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(metric, as measured, at the reference speed)` of the end-to-end
    /// metrics built from timed units (text output only).
    pub both: Vec<(String, f64, f64)>,
}

impl Sheet {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Counts `ops` attempted operations, `bad` of which failed a check.
    pub fn ops(&mut self, ops: u64, bad: u64) {
        self.attempted += ops;
        self.failed += bad;
    }

    /// Records a failed output check (the operations it covers must also
    /// be counted through [`Sheet::ops`]).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Checks `ok`; on failure records `what` and counts `ops` failed.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.failures.push(what());
        }
    }

    /// Records a unit-built metric both as measured and at the reference
    /// speed, for the text output.
    pub fn both(&mut self, name: &str, measured: f64, reference: f64) {
        self.both.push((name.to_string(), measured, reference));
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (`0` = none).
    pub parent: u64,
    /// Request id shared by every span of one serve request (`0` = none).
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are only taken when tracing is on; the
/// untraced pass never touches it.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserves a span id (so children can name their parent before the
    /// parent closes).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, id: u64, parent: u64, req: u64, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as a span named `name` under `parent`; returns the value
    /// and the span's duration in seconds. `f` receives the span's id.
    pub fn span<R>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let id = self.id();
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        self.record(id, parent, req, name, start, end);
        (value, secs(end - start))
    }

    /// Writes every span with its self time (duration minus the part of
    /// its interval that its children cover) as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tdur_ns\tself_ns\n");
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                dur,
                dur - covered
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Calls `f` on every span recorded after the first `from`.
    pub fn visit(&self, from: usize, mut f: impl FnMut(&Span)) {
        let spans = self.spans.lock().expect("span list poisoned");
        spans.iter().skip(from).for_each(&mut f);
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Seconds one host probe takes on the reference host (the 2-core host
/// the first baseline was measured on, when no neighbour loads its cores).
const PROBE_REF_S: f64 = 0.0022;
/// Rows of 32 lanes the probe's compare-exchange network sorts (32 KiB,
/// cache resident).
const PROBE_ROWS: usize = 128;
/// Network passes per probe.
const PROBE_PASSES: usize = 100;

/// Every host factor read so far (for the `host.speed` layer metric).
static FACTORS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// The last probe: when it ended and what it read. A unit that starts right
/// after another reuses the previous unit's closing probe.
static LAST_PROBE: Mutex<Option<(Instant, f64)>> = Mutex::new(None);

/// How recent a probe must be to open the next unit.
const PROBE_REUSE: Duration = Duration::from_millis(1);

/// One timed unit of work: its wall time and the host factor around it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall: f64,
    /// Reference probe time over the probe time measured around the unit
    /// (`< 1` = the host ran slower than the reference).
    pub factor: f64,
}

impl Timing {
    /// The wall time at the reference host speed.
    pub fn norm(&self) -> f64 {
        self.wall * self.factor
    }
}

/// Runs `f` as one timed unit, with a host probe just before and just
/// after it.
///
/// The 2-core host is shared: for seconds at a time a neighbour on the same
/// physical cores halves the vector throughput this process gets, and a
/// run sees a different share of such seconds each time. A scalar
/// dependency chain does not notice it (it is latency-bound); the probe, a
/// compare-exchange network over 32-lane columns like the program's own
/// columnar sorts, slows by the same factor as the measured work. The
/// probe is the harness's own code, so no change to the program can move
/// it, and each unit is put at the reference speed by the probes around it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let last = *LAST_PROBE.lock().expect("probe poisoned");
    let before = match last {
        Some((at, read)) if at.elapsed() < PROBE_REUSE => read,
        _ => probe(),
    };
    let start = Instant::now();
    let value = f();
    let wall = secs(start.elapsed());
    let after = probe();
    *LAST_PROBE.lock().expect("probe poisoned") = Some((Instant::now(), after));
    let factor = PROBE_REF_S / (0.5 * (before + after));
    FACTORS.lock().expect("factor list poisoned").push(factor);
    (value, Timing { wall, factor })
}

/// Median host factor since the last call, and the number of units it
/// covers; starts the next count.
pub fn take_host_speed() -> (f64, usize) {
    let factors = std::mem::take(&mut *FACTORS.lock().expect("factor list poisoned"));
    (median(&factors), factors.len())
}

/// Seconds the probe kernel takes, run on `JOBS` threads at once (the
/// measured work runs on that many): the mean of the threads' own kernel
/// times, so thread start-up is not part of it.
fn probe() -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..JOBS)
            .map(|k| {
                scope.spawn(move || {
                    let start = Instant::now();
                    std::hint::black_box(probe_kernel(k));
                    secs(start.elapsed())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("probe thread panicked"))
            .sum()
    });
    total / JOBS as f64
}

fn probe_kernel(seed: usize) -> f64 {
    const LANES: usize = 32;
    let mut buf: Vec<f64> = (0..PROBE_ROWS * LANES)
        .map(|i| ((i * 7919 + seed) % 1009) as f64)
        .collect();
    for pass in 0..PROBE_PASSES {
        for stride in [1, 2, 4, 8, 16, 32, 64] {
            for i in 0..PROBE_ROWS {
                let j = i ^ stride;
                if j <= i || j >= PROBE_ROWS {
                    continue;
                }
                let (lo, hi) = buf.split_at_mut(j * LANES);
                let (a, b) = (&mut lo[i * LANES..(i + 1) * LANES], &mut hi[..LANES]);
                for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                    let (p, q) = (*x, *y);
                    *x = p.min(q);
                    *y = p.max(q);
                }
            }
        }
        let len = buf.len();
        buf[pass % len] += 0.5;
    }
    std::hint::black_box(&buf)[0]
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
    }

    #[test]
    fn covered_time_merges_overlaps() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 0, 35), 25);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}

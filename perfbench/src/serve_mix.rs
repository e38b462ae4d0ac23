//! `serve-mix`: a closed loop of two client threads against one `Server`
//! (`jobs = 2`, default connection bound, fresh store) on 127.0.0.1.
//!
//! Each client sends its next `submit` only after the previous reply, in
//! cycles of ten: seven hits on complete n=128 specs, two hits on
//! complete n=512 specs and one fresh spec on a slow-mixing circulant.
//! Every other cycle's fresh spec is shared: both clients meet at a
//! barrier and submit it together, so one computes and the other
//! coalesces. A request is timed from its first byte on the wire to its
//! decoded reply; request frames are rendered during set-up.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iabc_graph::{fingerprint, generators, parse, CompiledTopology, NodeSet};
use iabc_serve::protocol::{read_frame, write_frame, Request, Response};
use iabc_serve::{
    json, EngineSpec, InputSpec, JobSpec, RunKey, ScenarioSpec, Server, ServerConfig, ServerStats,
    Store,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use crate::util::{self, median, percentile, secs, timed, Sheet, Tracer, JOBS, PROBE_BUDGET};

/// Requests per client cycle, by class.
const CYCLE_SMALL: usize = 7;
const CYCLE_LARGE: usize = 2;

pub struct Config {
    small_n: usize,
    small_specs: usize,
    large_n: usize,
    large_specs: usize,
    /// Fresh-spec circulant: nodes, in-degree, round cap.
    miss_n: usize,
    miss_degree: usize,
    miss_cap: usize,
    budget: Duration,
    /// Minimum client cycles over the run (p99 of hits needs at least
    /// 1000 hit samples; cycles come in pairs ending at a rendezvous).
    min_cycles: usize,
}

impl Config {
    pub fn full(budget: Duration) -> Self {
        Config {
            small_n: 128,
            small_specs: 6,
            large_n: 512,
            large_specs: 2,
            miss_n: 2000,
            miss_degree: 8,
            miss_cap: 60,
            budget,
            min_cycles: 112,
        }
    }

    /// Same mix, smaller: the large class is complete n=256 and misses run
    /// on a 1000-node circulant.
    pub fn probe() -> Self {
        Config {
            small_n: 128,
            small_specs: 4,
            large_n: 256,
            large_specs: 1,
            miss_n: 1000,
            miss_degree: 8,
            miss_cap: 40,
            budget: PROBE_BUDGET,
            min_cycles: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Small(usize),
    Large(usize),
    /// Fresh spec `k` of the miss pool.
    Fresh(usize),
}

/// One wire-ready job.
struct Job {
    spec: JobSpec,
    frame: Vec<u8>,
}

fn job(spec: ScenarioSpec) -> Job {
    let spec = JobSpec::Scenario(spec);
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Submit(spec.clone()).to_json()).expect("in-memory write");
    Job { spec, frame }
}

fn scenario(
    graph: &str,
    faulty: Vec<usize>,
    f: usize,
    adversary: &str,
    seed: u64,
    eps: f64,
    cap: usize,
) -> ScenarioSpec {
    ScenarioSpec {
        graph: graph.to_string(),
        faulty,
        f,
        rule: "trimmed-mean".into(),
        quantum: None,
        adversary: adversary.into(),
        seed,
        inputs: InputSpec::Seeded(seed),
        epsilon: eps,
        max_rounds: cap,
        engine: EngineSpec::Synchronous,
    }
}

struct Daemon {
    addr: String,
    dir: PathBuf,
    handle: Option<JoinHandle<Result<ServerStats, iabc_serve::ServeError>>>,
}

impl Daemon {
    fn start(dir: PathBuf) -> Daemon {
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: JOBS,
            store_dir: dir.clone(),
            accept_limit: None,
            max_connections: 0,
            max_store_bytes: None,
        })
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            dir,
            handle: Some(handle),
        }
    }

    /// Stops the accept loop and returns its counters.
    fn stop(&mut self) -> Option<ServerStats> {
        let handle = self.handle.take()?;
        iabc_serve::shutdown(&self.addr).ok()?;
        handle.join().ok()?.ok()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct Prepared {
    daemon: Daemon,
    small: Vec<Job>,
    large: Vec<Job>,
    /// Edge-list text of the fresh-spec circulant.
    miss_text: String,
    /// Warm-up payload per hit job (`small` then `large`).
    warm: Vec<Vec<u8>>,
    /// Harness copy of the warmed store (traced runs only).
    copy: Option<Store>,
    copy_dir: PathBuf,
    /// Draws the request schedule and the fresh specs as the run goes.
    rng: StdRng,
}

static DAEMONS: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(what: &str) -> PathBuf {
    let k = DAEMONS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".perfbench").join(format!("{what}-{}-{k}", std::process::id()))
}

pub fn prepare(cfg: &Config, seed: u64, traced: bool) -> Prepared {
    let mut rng = util::rng(seed, "serve-mix");
    let small_text = parse::to_edge_list(&generators::complete(cfg.small_n));
    let large_text = parse::to_edge_list(&generators::complete(cfg.large_n));
    let adversaries = ["extremes", "random", "pull-high", "flip-flop"];
    let mut hit_job = |text: &str, n: usize, k: usize| {
        let f = 5;
        job(scenario(
            text,
            util::pick_nodes(&mut rng, n, f),
            f,
            adversaries[k % adversaries.len()],
            rng.next_u64(),
            1e-6,
            200,
        ))
    };
    let small: Vec<Job> = (0..cfg.small_specs)
        .map(|k| hit_job(&small_text, cfg.small_n, k))
        .collect();
    let large: Vec<Job> = (0..cfg.large_specs)
        .map(|k| hit_job(&large_text, cfg.large_n, k))
        .collect();

    let daemon = Daemon::start(scratch_dir("store"));
    let warm: Vec<Vec<u8>> = small
        .iter()
        .chain(&large)
        .map(|j| match send(&daemon.addr, &j.frame) {
            Ok(Response::Result { payload, .. }) => payload,
            other => panic!("warm-up submit failed: {other:?}"),
        })
        .collect();
    let copy_dir = scratch_dir("store-copy");
    let copy = traced.then(|| {
        let _ = std::fs::remove_dir_all(&copy_dir);
        copy_tree(&daemon.dir, &copy_dir).expect("copy the warmed store");
        Store::open(&copy_dir).expect("open the store copy")
    });
    Prepared {
        daemon,
        small,
        large,
        miss_text: parse::to_edge_list(&generators::circulant(cfg.miss_n, 1..=cfg.miss_degree)),
        warm,
        copy,
        copy_dir,
        rng,
    }
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.copy_dir);
    }
}

/// One submit over a fresh connection: write the pre-rendered frame, read
/// frames until the terminal one, decode it.
fn send(addr: &str, frame: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    stream.write_all(frame).map_err(|e| e.to_string())?;
    loop {
        let json = read_frame(&mut stream)
            .map_err(|e| e.to_string())?
            .ok_or("connection closed mid-response")?;
        match Response::from_json(&json).map_err(|e| e.to_string())? {
            Response::Progress { .. } => continue,
            other => return Ok(other),
        }
    }
}

/// One completed request as the client saw it.
struct Record {
    id: u64,
    class: Class,
    latency_s: f64,
    /// Host factor of the request's pair of cycles (see `util::timed`).
    factor: f64,
    /// `None` on a refused or failed request.
    reply: Option<(bool, Vec<u8>)>,
}

/// Requests and timings gathered across the run's slices.
pub struct Runner<'a> {
    cfg: &'a Config,
    p: Prepared,
    tracer: &'a Tracer,
    /// Fresh specs drawn so far (three per pair of cycles).
    fresh: Vec<Job>,
    records: Vec<Record>,
    /// Summed wall time of the client loops.
    wall: f64,
    /// The same at the reference host speed.
    norm_wall: f64,
    pairs: usize,
    queue_max: usize,
}

impl<'a> Runner<'a> {
    pub fn new(cfg: &'a Config, p: Prepared, tracer: &'a Tracer) -> Self {
        Runner {
            cfg,
            p,
            tracer,
            fresh: Vec::new(),
            records: Vec::new(),
            wall: 0.0,
            norm_wall: 0.0,
            pairs: 0,
            queue_max: 0,
        }
    }

    fn job(&self, class: Class) -> &Job {
        match class {
            Class::Small(i) => &self.p.small[i],
            Class::Large(i) => &self.p.large[i],
            Class::Fresh(k) => &self.fresh[k],
        }
    }

    /// Slice `k` of `slices`: runs pairs of cycles until the part's timed
    /// work reaches `(k + 1) / slices` of its budget and its pair count the
    /// same share of its minimum, at least one pair.
    pub fn slice(&mut self, k: u32, slices: u32) {
        let share = f64::from(k + 1) / f64::from(slices);
        let target = secs(self.cfg.budget) * share;
        let min = (self.cfg.min_cycles as f64 / 2.0 * share).ceil() as usize;
        let mut done = false;
        while !done || self.pairs < min || self.wall < target {
            self.pair();
            done = true;
        }
    }

    /// Draws the next pair of cycles for both clients: per client two
    /// cycles of seven small hits, two large hits and one fresh spec; the
    /// first cycle's fresh spec is the client's own, the second's is
    /// shared and closes the pair.
    fn draw_pair(&mut self) -> [Vec<Class>; 2] {
        let (cfg, p) = (self.cfg, &mut self.p);
        let base = self.fresh.len();
        for _ in 0..3 {
            let f = 2;
            let spec = scenario(
                &p.miss_text,
                util::pick_nodes(&mut p.rng, cfg.miss_n, f),
                f,
                "random",
                p.rng.next_u64(),
                0.0,
                cfg.miss_cap,
            );
            self.fresh.push(job(spec));
        }
        [0, 1].map(|client| {
            let mut out = Vec::new();
            for (cycle, fresh_k) in [(0, base + client), (1, base + 2)] {
                let mut cyc = Vec::with_capacity(CYCLE_SMALL + CYCLE_LARGE + 1);
                for _ in 0..CYCLE_SMALL {
                    cyc.push(Class::Small(p.rng.random_range(0..p.small.len())));
                }
                for _ in 0..CYCLE_LARGE {
                    cyc.push(Class::Large(p.rng.random_range(0..p.large.len())));
                }
                cyc.shuffle(&mut p.rng);
                if cycle == 0 {
                    let at = p.rng.random_range(0..=cyc.len());
                    cyc.insert(at, Class::Fresh(fresh_k));
                }
                out.extend(cyc);
            }
            out
        })
    }

    /// Both clients run one pair of cycles in a closed loop; the shared
    /// fresh spec goes out from both at a barrier.
    fn pair(&mut self) {
        let schedules = self.draw_pair();
        let shared = self.fresh.len() - 1;
        let barrier = Barrier::new(2);
        let sampling = AtomicBool::new(self.tracer.on());
        let first_id = (self.pairs * 2 * (CYCLE_SMALL + CYCLE_LARGE + 1)) as u64;
        let this = &*self;
        let ((mut records, queue_max), t) = timed(|| {
            std::thread::scope(|scope| {
                let sampler = scope.spawn(|| {
                    let pool = iabc_exec::process_executor(JOBS);
                    let mut max = 0;
                    while sampling.load(Ordering::Relaxed) {
                        max = max.max(pool.compute_queue_len());
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    max
                });
                let clients: Vec<_> = schedules
                    .iter()
                    .enumerate()
                    .map(|(client, schedule)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            let shared = std::iter::once(Class::Fresh(shared));
                            for (i, class) in schedule.iter().copied().chain(shared).enumerate() {
                                if i == schedule.len() {
                                    barrier.wait();
                                }
                                let t = Instant::now();
                                let reply = send(&this.p.daemon.addr, &this.job(class).frame);
                                let end = Instant::now();
                                let latency_s = secs(end - t);
                                let id = (client as u64) << 40 | (first_id + i as u64);
                                let tracer = this.tracer;
                                tracer.record(tracer.id(), 0, id + 1, "serve.request", t, end);
                                let reply = match reply {
                                    Ok(Response::Result {
                                        cache_hit, payload, ..
                                    }) => Some((cache_hit, payload)),
                                    _ => None,
                                };
                                out.push(Record {
                                    id,
                                    class,
                                    latency_s,
                                    factor: 1.0,
                                    reply,
                                });
                            }
                            out
                        })
                    })
                    .collect();
                let records: Vec<Record> = clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("client thread panicked"))
                    .collect();
                sampling.store(false, Ordering::Relaxed);
                (records, sampler.join().expect("sampler thread panicked"))
            })
        });
        for r in &mut records {
            r.factor = t.factor;
        }
        self.wall += t.wall;
        self.norm_wall += t.norm();
        self.queue_max = self.queue_max.max(queue_max);
        self.records.extend(records);
        self.pairs += 1;
    }

    pub fn finish(mut self, sheet: &mut Sheet) {
        let stats = self.p.daemon.stop();
        // Latency classes at the reference host speed; a failed request
        // misses every latency limit.
        let mut hit_ms = Vec::new();
        let mut miss_ms = Vec::new();
        let mut raw_hit_ms = Vec::new();
        let mut raw_miss_ms = Vec::new();
        let mut failed = 0u64;
        for r in &self.records {
            let ms = if r.reply.is_some() {
                r.latency_s * 1e3
            } else {
                f64::INFINITY
            };
            failed += u64::from(r.reply.is_none());
            match r.class {
                Class::Fresh(_) => {
                    miss_ms.push(ms * r.factor);
                    raw_miss_ms.push(ms);
                }
                _ => {
                    hit_ms.push(ms * r.factor);
                    raw_hit_ms.push(ms);
                }
            }
        }
        let n = self.records.len();
        sheet.ops(n as u64, failed);
        if failed > 0 {
            sheet.fail(format!("{failed} serve requests failed"));
        }
        for (name, v, raw, q) in [
            ("hit_p50_ms", &hit_ms, &raw_hit_ms, 0.5),
            ("hit_p99_ms", &hit_ms, &raw_hit_ms, 0.99),
            ("miss_p50_ms", &miss_ms, &raw_miss_ms, 0.5),
            ("miss_p90_ms", &miss_ms, &raw_miss_ms, 0.9),
        ] {
            sheet.e2e(name, percentile(v, q), "ms", v.len());
            sheet.both(name, percentile(raw, q), percentile(v, q));
        }
        sheet.e2e("req_per_s", n as f64 / self.norm_wall, "req/s", n);
        sheet.both("req_per_s", n as f64 / self.wall, n as f64 / self.norm_wall);

        let fresh_payloads = verify(&self.p, &self.fresh, &self.records, stats, sheet);
        if self.tracer.on() {
            layers(&mut self, &fresh_payloads, stats, sheet);
        }
    }
}

/// Output checks: hits are byte-equal to their warm-up payloads, every
/// fresh key got exactly one `Miss` and its payload equals a fresh
/// `ScenarioSpec::execute()`; the daemon's counters agree.
fn verify(
    p: &Prepared,
    fresh: &[Job],
    records: &[Record],
    stats: Option<ServerStats>,
    sheet: &mut Sheet,
) -> BTreeMap<usize, (Vec<u8>, f64)> {
    let mut misses: BTreeMap<usize, (usize, Vec<u8>)> = BTreeMap::new();
    let mut bad_hits = 0u64;
    for r in records {
        let Some((cache_hit, payload)) = &r.reply else {
            continue;
        };
        match r.class {
            Class::Fresh(k) => {
                let entry = misses.entry(k).or_insert((0, payload.clone()));
                entry.0 += usize::from(!cache_hit);
                if entry.1 != *payload {
                    bad_hits += 1;
                }
            }
            Class::Small(i) => bad_hits += u64::from(!cache_hit || *payload != p.warm[i]),
            Class::Large(i) => {
                bad_hits += u64::from(!cache_hit || *payload != p.warm[p.small.len() + i]);
            }
        }
    }
    sheet.check(bad_hits == 0, bad_hits, || {
        format!("{bad_hits} replies differ from their first payload")
    });
    let wrong_miss = misses.values().filter(|(m, _)| *m != 1).count() as u64;
    sheet.check(wrong_miss == 0, wrong_miss, || {
        format!("{wrong_miss} fresh keys without exactly one miss")
    });

    // Recompute every fresh payload, split over the two cores.
    let keys: Vec<usize> = misses.keys().copied().collect();
    let recomputed: Vec<(usize, Vec<u8>, f64)> = std::thread::scope(|scope| {
        let halves: Vec<_> = keys
            .chunks(keys.len().div_ceil(JOBS).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k| {
                            let JobSpec::Scenario(spec) = &fresh[k].spec else {
                                unreachable!("fresh jobs are scenarios")
                            };
                            let t = Instant::now();
                            let payload = spec.execute().expect("fresh specs execute");
                            (k, payload, secs(t.elapsed()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("recompute thread panicked"))
            .collect()
    });
    let mut out = BTreeMap::new();
    let mut wrong = 0u64;
    for (k, payload, dt) in recomputed {
        wrong += u64::from(misses[&k].1 != payload);
        out.insert(k, (payload, dt));
    }
    sheet.check(wrong == 0, wrong, || {
        format!("{wrong} fresh payloads differ from a recompute")
    });

    let hit_jobs = p.small.len() + p.large.len();
    let ok = stats.is_some_and(|s| s.job_misses == hit_jobs + misses.len());
    sheet.check(ok, 1, || {
        format!(
            "daemon counters {stats:?} != {} misses",
            hit_jobs + misses.len()
        )
    });
    out
}

/// Per-layer replays of sampled requests, in-process, on the harness's
/// copy of the warmed store; spans of one request share its id.
fn layers(
    run: &mut Runner<'_>,
    fresh: &BTreeMap<usize, (Vec<u8>, f64)>,
    stats: Option<ServerStats>,
    sheet: &mut Sheet,
) {
    let store = run.p.copy.take().expect("traced runs copy the store");
    let (run, tracer) = (&*run, run.tracer);
    let mut t: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut wire_us = Vec::new();
    let (mut small_seen, mut large_seen) = (0, 0);
    for r in &run.records {
        let (tag, seen) = match r.class {
            Class::Small(_) => ("n128", &mut small_seen),
            Class::Large(_) => ("n512", &mut large_seen),
            Class::Fresh(_) => continue,
        };
        *seen += 1;
        if *seen > 60 || r.reply.is_none() {
            continue;
        }
        let job = run.job(r.class);
        let req = r.id + 1;
        let parent = tracer.id();
        let replay_start = Instant::now();
        let span = |name: &str, f: &mut dyn FnMut()| {
            let (_, dt) = tracer.span(name, parent, req, |_| f());
            dt * 1e6
        };
        let mut body = String::new();
        let enc = span("serve.client_encode", &mut || {
            body = Request::Submit(job.spec.clone()).to_json().render();
        });
        let mut spec = None;
        let dec = span("serve.decode", &mut || {
            let json = json::parse(&body).expect("replayed body parses");
            spec = Some(Request::from_json(&json).expect("replayed request decodes"));
        });
        let mut key = RunKey(0);
        let key_us = span("serve.key", &mut || {
            key = job.spec.key().expect("valid spec")
        });
        let mut payload = None;
        let get = span("serve.get", &mut || payload = store.get(key));
        let rec = span("serve.record_hit", &mut || {
            store.record_hit(key, JOBS as u32).expect("journal append")
        });
        let payload = payload.expect("hit keys are in the store copy");
        let encode = span("serve.encode", &mut || {
            let mut buf = Vec::new();
            let resp = Response::Result {
                cache_hit: true,
                key,
                hits: 1,
                misses: 0,
                payload: payload.clone(),
            };
            write_frame(&mut buf, &resp.to_json()).expect("in-memory write");
        });
        tracer.record(parent, 0, req, "serve.replay", replay_start, Instant::now());
        t.entry(if tag == "n128" { "enc128" } else { "enc512" })
            .or_default()
            .push(enc);
        t.entry(if tag == "n128" { "dec128" } else { "dec512" })
            .or_default()
            .push(dec);
        t.entry(if tag == "n128" { "key128" } else { "key512" })
            .or_default()
            .push(key_us);
        t.entry("get").or_default().push(get);
        t.entry("rec").or_default().push(rec);
        t.entry("encode").or_default().push(encode);
        wire_us.push(r.latency_s * 1e6 - (dec + key_us + get + rec + encode));
    }
    let mut put = |name: &str, k: &str| {
        let v = t.get(k).map(Vec::as_slice).unwrap_or(&[]);
        sheet.layer(name, median(v), "us", v.len());
    };
    put("serve.client_encode_us.n128", "enc128");
    put("serve.client_encode_us.n512", "enc512");
    put("serve.decode_us.n128", "dec128");
    put("serve.decode_us.n512", "dec512");
    put("serve.key_us.n128", "key128");
    put("serve.key_us.n512", "key512");
    put("serve.get_us", "get");
    put("serve.record_hit_us", "rec");
    put("serve.encode_us", "encode");
    sheet.layer("serve.wire_us.p50", median(&wire_us), "us", wire_us.len());

    let execute_ms: Vec<f64> = fresh.values().map(|(_, dt)| dt * 1e3).collect();
    sheet.layer(
        "serve.execute_ms",
        median(&execute_ms),
        "ms",
        execute_ms.len(),
    );
    let mut insert_us = Vec::new();
    for (k, (payload, _)) in fresh {
        let key = run.fresh[*k].spec.key().expect("valid spec");
        let (_, dt) = tracer.span("serve.insert", 0, 0, |_| {
            store
                .insert(key, payload, 0, JOBS as u32)
                .expect("store insert")
        });
        insert_us.push(dt * 1e6);
    }
    sheet.layer("serve.insert_us", median(&insert_us), "us", insert_us.len());

    let s = stats.unwrap_or_default();
    let total = (s.job_hits + s.job_misses + s.job_coalesced).max(1) as f64;
    sheet.layer("serve.hits", s.job_hits as f64, "count", 1);
    sheet.layer("serve.misses", s.job_misses as f64, "count", 1);
    sheet.layer("serve.coalesced", s.job_coalesced as f64, "count", 1);
    sheet.layer("serve.hit_ratio", s.job_hits as f64 / total, "ratio", 1);
    sheet.layer("exec.compute_queue_max", run.queue_max as f64, "count", 1);

    // Graph-text layers on the two hit sizes.
    for (tag, job) in [("n128", &run.p.small[0]), ("n512", &run.p.large[0])] {
        let JobSpec::Scenario(spec) = &job.spec else {
            unreachable!("hit jobs are scenarios")
        };
        let mut parse_us = Vec::new();
        let mut compile_us = Vec::new();
        let mut fp_us = Vec::new();
        for _ in 0..10 {
            let (g, dt) = tracer.span("graph.parse", 0, 0, |_| {
                parse::parse_edge_list(&spec.graph).expect("generated text parses")
            });
            parse_us.push(dt * 1e6);
            let faults = NodeSet::from_indices(g.node_count(), spec.faulty.iter().copied());
            let (topo, dt) = tracer.span("graph.compile", 0, 0, |_| {
                CompiledTopology::compile(&g, &faults)
            });
            compile_us.push(dt * 1e6);
            let (_, dt) = tracer.span("graph.fingerprint", 0, 0, |_| fingerprint::topology(&topo));
            fp_us.push(dt * 1e6);
        }
        sheet.layer(
            &format!("graph.parse_us.{tag}"),
            median(&parse_us),
            "us",
            parse_us.len(),
        );
        if tag == "n512" {
            sheet.layer(
                "graph.compile_us.n512",
                median(&compile_us),
                "us",
                compile_us.len(),
            );
            sheet.layer(
                "graph.fingerprint_us.n512",
                median(&fp_us),
                "us",
                fp_us.len(),
            );
        }
    }
}

//! The repository benchmark: four seeded workloads driven through the
//! crates' public APIs from one process.
//!
//! ```text
//! perfbench --workload <census|simulate|serve-mix|deploy> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every run executes all four parts: the named workload's own part at
//! full size for `--seconds` of timed work, and a fixed small probe of the
//! other three, so every end-to-end metric exists in every run. Set-up
//! (generate, compile, construct, start the daemon, warm the store) runs
//! five times and `setup_s` is the median, as measured. Every timed unit is
//! bracketed by the harness's host probe, and the short ones are reported
//! at the reference host speed (see `util::timed`). With `--trace 1` the
//! workload runs once untraced and once traced; the output carries the
//! per-layer metrics of the traced pass and `overhead.<metric>`, the traced
//! minus the untraced value of every end-to-end metric. The last stdout
//! line is the JSON result; the exit code is non-zero when an output check
//! fails.
//! See `perfbench/README.md`.

mod census;
mod deploy;
mod serve_mix;
mod simulate;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use util::{median, Metric, Sheet, Tracer};

/// Set-up repetitions per pass (`setup_s` is their median).
const SETUP_REPS: usize = 5;

/// Round-robin slices each part's timed work is cut into.
const SLICES: u32 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Census,
    Simulate,
    ServeMix,
    Deploy,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "census" => Workload::Census,
            "simulate" => Workload::Simulate,
            "serve-mix" => Workload::ServeMix,
            "deploy" => Workload::Deploy,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Every part at probe size (the harness self-test).
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!(
            "unknown workload {name:?} (census, simulate, serve-mix, deploy)"
        ))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        smoke,
    })
}

/// One pass over the workload: set-up five times, run every part once
/// on the last set-up, check the outputs.
fn pass(args: &Args, tracer: &Tracer) -> Sheet {
    let budget = Duration::from_secs(args.seconds);
    let own = |w: Workload| args.workload == w && !args.smoke;
    let ccfg = if own(Workload::Census) {
        census::Config::full(budget)
    } else {
        census::Config::probe()
    };
    let scfg = if own(Workload::Simulate) {
        simulate::Config::full(budget)
    } else {
        simulate::Config::probe()
    };
    let vcfg = if own(Workload::ServeMix) {
        serve_mix::Config::full(budget)
    } else {
        serve_mix::Config::probe()
    };
    let dcfg = if own(Workload::Deploy) {
        deploy::Config::full(budget)
    } else {
        deploy::Config::probe()
    };
    let seed = args.seed;
    let mut sheet = Sheet::default();
    let mut setup_s = Vec::new();
    let spans_before = tracer.span_count();
    util::take_host_speed();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let cp = census::prepare(&ccfg, seed);
        let sp = simulate::prepare(&scfg, seed, tracer);
        let vp = serve_mix::prepare(&vcfg, seed, tracer.on());
        let net = deploy::network(&dcfg, seed, tracer);
        let dp = deploy::prepare(&net, tracer);
        setup_s.push(util::secs(start.elapsed()));
        if rep + 1 < SETUP_REPS {
            continue;
        }
        // Every part's timed units are cut into slices run round-robin, so
        // each metric's samples spread over the whole run.
        let mut c = census::Runner::new(&ccfg, &cp, tracer);
        let mut s = simulate::Runner::new(&scfg, &sp, tracer);
        let mut v = serve_mix::Runner::new(&vcfg, vp, tracer);
        let mut d = deploy::Runner::new(&dcfg, dp, tracer);
        for k in 0..SLICES {
            c.slice(k, SLICES, &mut sheet);
            s.slice(k, SLICES, &mut sheet);
            v.slice(k, SLICES);
            d.slice(k, SLICES);
        }
        c.finish(seed, &mut sheet);
        s.finish(seed, own(Workload::Simulate), &mut sheet);
        v.finish(&mut sheet);
        d.finish(seed, own(Workload::Deploy), &mut sheet);
    }
    sheet.e2e("setup_s", median(&setup_s), "s", SETUP_REPS);
    sheet.e2e("peak_rss_mb", util::peak_rss_mb(), "MiB", 1);
    let (speed, units) = util::take_host_speed();
    sheet.layer("host.speed", speed, "ratio", units);
    println!("host speed {speed:.4} (median over {units} timed units)");
    for (name, measured, reference) in &sheet.both {
        println!("  {name:<36} as measured {measured:<22} at reference speed {reference}");
    }
    if tracer.on() {
        let mut graph_setup_ms = 0.0;
        tracer.visit(spans_before, |s| {
            if s.name == "graph.setup" {
                graph_setup_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        });
        sheet.layer(
            "graph.setup_ms",
            graph_setup_ms / SETUP_REPS as f64,
            "ms",
            SETUP_REPS,
        );
    }
    sheet
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<36} {:>18} {:<16} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let plain = pass(&args, &Tracer::new(false));
    let mut sheets = vec![];
    let metrics = if args.trace {
        let tracer = Tracer::new(true);
        let traced = pass(&args, &tracer);
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{}-{}.tsv", args.name, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let mut layers = traced.layers.clone();
        for m in &plain.end_to_end {
            let traced_value = traced.e2e_value(&m.name).unwrap_or(f64::NAN);
            layers.push(Metric {
                name: format!("overhead.{}", m.name),
                value: traced_value - m.value,
                unit: m.unit,
                samples: m.samples,
            });
        }
        print_metrics("end-to-end (untraced pass)", &plain.end_to_end);
        print_metrics("end-to-end (traced pass)", &traced.end_to_end);
        print_metrics("per-layer (traced pass)", &layers);
        println!(
            "spans: {} written to {}",
            tracer.span_count(),
            path.display()
        );
        sheets.push(plain);
        sheets.push(traced);
        layers
    } else {
        print_metrics("end-to-end", &plain.end_to_end);
        let metrics = plain.end_to_end.clone();
        sheets.push(plain);
        metrics
    };
    let attempted: u64 = sheets.iter().map(|s| s.attempted).sum();
    let failed: u64 = sheets.iter().map(|s| s.failed).sum();
    let mut failures: Vec<&String> = sheets.iter().flat_map(|s| &s.failures).collect();
    let not_finite: Vec<String> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    failures.extend(&not_finite);
    for f in &failures {
        println!("FAILED: {f}");
    }
    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! The `batch` workload: cold batch compiles of a seeded corpus.
//!
//! One op builds a fresh `CompileService` at `jobs = 2` with the
//! default configuration and compiles the whole corpus with
//! `compile_batch`, so the middle-end passes and the service's worker
//! scheduling do the work and the simulator does none.  The corpus is
//! the paper units (`service_units`) plus functions drawn from the
//! fuzz grammar of the repository's property tests, at a seeded spread
//! of depths.  Every op must return the same artifacts; a seeded sample
//! of the generated functions is run on the simulator against the
//! reference interpreter after the timed window.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use s1lisp::{Compiler, Value};
use s1lisp_bench::service_units;
use s1lisp_driver::{BatchResult, CompileService, ServiceConfig, SourceUnit};
use s1lisp_trace::json::Json;
use s1lisp_trace::rng::SplitMix64;

use crate::kernels::{self, Answer};
use crate::util::{self, Outcome, Tracer, SETUPS};

/// Worker threads per batch: the host's two cores.
const JOBS: usize = 2;
/// Generated functions per corpus.
const GENERATED: usize = 160;
/// Generated functions run against the interpreter after the window.
const SAMPLE: usize = 24;

/// A random arithmetic/control expression over fixnum variables a, b,
/// c — the property tests' fuzz grammar, including nonlocal exits.
fn random_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(2) {
            0 => rng.range_i64(-20, 20).to_string(),
            _ => (*rng.pick(&["a", "b", "c"])).to_string(),
        };
    }
    let choice = rng.below(9);
    let arity = match choice {
        0..=2 | 4 | 5 | 6 => 2,
        3 | 7 => 3,
        _ => 4,
    };
    let s: Vec<String> = (0..arity).map(|_| random_expr(rng, depth - 1)).collect();
    match choice {
        0 => format!("(+ {} {})", s[0], s[1]),
        1 => format!("(- {} {})", s[0], s[1]),
        2 => format!("(* {} {})", s[0], s[1]),
        3 => format!("(if (< {} 3) {} {})", s[0], s[1], s[2]),
        4 => format!("(let ((tmp {})) (+ tmp {}))", s[0], s[1]),
        5 => format!("(if (and (< {} {y}) (oddp {y})) 1 0)", s[0], y = s[1]),
        6 => format!("(car (cons {} {}))", s[0], s[1]),
        7 => format!(
            "(catch 'esc (if (< {} 0) (throw 'esc {}) {}))",
            s[0], s[1], s[2]
        ),
        _ => format!(
            "(prog (acc) (setq acc {}) (if (< acc {}) (return {})) (return (+ acc {})))",
            s[0], s[1], s[2], s[3]
        ),
    }
}

/// One generated function and the arguments its check calls it with.
struct Generated {
    name: String,
    source: String,
    args: [i64; 3],
}

struct Corpus {
    units: Vec<SourceUnit>,
    generated: Vec<Generated>,
    functions: usize,
}

/// The converted-tree fingerprints of every function in `source`.
fn tree_fingerprints(source: &str) -> Vec<u64> {
    Compiler::new()
        .convert_str(source)
        .map(|ps| ps.iter().map(|p| p.tree_fingerprint()).collect())
        .unwrap_or_default()
}

/// Forms (open parentheses) a generated body of each depth 2..=5 may
/// have: a band around the grammar's median size at that depth, so
/// that every seed's corpus carries about the same compile work.
const SIZE_BANDS: [(usize, usize); 4] = [(4, 6), (8, 12), (15, 21), (23, 31)];

/// Set-up: the paper units plus `GENERATED` seeded functions, one unit
/// each, at depths spread evenly over 2..=5.  A drawn body outside its
/// depth's size band is drawn again, and so is a function whose
/// converted tree equals one already in the corpus: the batch is cold,
/// so every function must be a cache miss.
fn corpus(seed: u64) -> Corpus {
    let mut rng = SplitMix64::new(seed ^ 0xba7c_0000_0000_0001);
    let mut units = service_units();
    let paper: Vec<u64> = units
        .iter()
        .flat_map(|u| tree_fingerprints(&u.source))
        .collect();
    let paper_functions = paper.len();
    let mut trees: HashSet<u64> = paper.into_iter().collect();
    let mut generated = Vec::with_capacity(GENERATED);
    for i in 0..GENERATED {
        let (lo, hi) = SIZE_BANDS[i % 4];
        let depth = 2 + (i % 4) as u32;
        let name = format!("gen{i}");
        let source = loop {
            let body = random_expr(&mut rng, depth);
            if !(lo..=hi).contains(&body.matches('(').count()) {
                continue;
            }
            let source = format!("(defun {name} (a b c) {body})");
            if tree_fingerprints(&source)
                .into_iter()
                .all(|t| trees.insert(t))
            {
                break source;
            }
        };
        units.push(SourceUnit::new(name.clone(), source.clone()));
        let mut arg = || rng.range_i64(-10, 10);
        generated.push(Generated {
            name,
            source,
            args: [arg(), arg(), arg()],
        });
    }
    Corpus {
        units,
        generated,
        functions: paper_functions + GENERATED,
    }
}

/// A digest of everything an op returns that must repeat exactly.
fn artifacts_digest(b: &BatchResult) -> String {
    let insns: Vec<String> = b.artifacts.iter().map(|a| a.insns.to_string()).collect();
    util::digest(b.artifacts.iter().zip(&insns).flat_map(|(a, n)| {
        [
            a.name.as_str(),
            a.optimized.as_str(),
            a.assembly.as_str(),
            n.as_str(),
        ]
    }))
}

/// Per-op driver telemetry, from `JobRecord` and `WorkerStats`.
#[derive(Default)]
struct Driver {
    job_ms_sum: f64,
    queue_ms_sum: f64,
    busy_ratio: f64,
    phases: Vec<(String, f64)>,
}

fn driver_stats(b: &BatchResult, wall: Duration) -> Driver {
    let us = |n: u64| n as f64 / 1e3;
    let busy: u64 = b.stats.workers.iter().map(|w| w.wall_us).sum();
    Driver {
        job_ms_sum: b.records.iter().map(|r| us(r.wall_us)).sum(),
        queue_ms_sum: b.records.iter().map(|r| us(r.queue_us)).sum(),
        busy_ratio: us(busy) / (util::ms(wall) * b.stats.workers_used.max(1) as f64),
        phases: b
            .stats
            .phase_totals
            .iter()
            .map(|(p, _, wall_us)| (p.clone(), us(*wall_us)))
            .collect(),
    }
}

struct Window {
    ops: u64,
    failed: u64,
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    digest: Option<String>,
    drivers: Vec<Driver>,
    spans: Vec<util::Span>,
    /// Per op: whether it was traced.
    traced: Vec<bool>,
}

/// Cold batches back to back until `seconds` have passed (or
/// `max_ops` ran).  `traced`, every other op is traced and every op's
/// driver telemetry is kept.
fn window(c: &Corpus, jobs: usize, seconds: f64, traced: bool, max_ops: u64) -> Window {
    let epoch = Instant::now();
    let mut t = Tracer::new(false, epoch);
    let mut w = Window {
        ops: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        latencies_ms: Vec::new(),
        digest: None,
        drivers: Vec::new(),
        spans: Vec::new(),
        traced: Vec::new(),
    };
    while epoch.elapsed().as_secs_f64() < seconds && w.ops < max_ops {
        t.set_on(traced && w.ops % 2 == 1);
        t.begin("bench.op", w.ops);
        let t0 = Instant::now();
        t.begin("driver.compile_batch", w.ops);
        let b = CompileService::new(ServiceConfig::with_jobs(jobs)).compile_batch(&c.units);
        t.end();
        let wall = t0.elapsed();
        t.begin("bench.check", w.ops);
        let digest = artifacts_digest(&b);
        let ok = b.failures.is_empty()
            && b.artifacts.len() == c.functions
            && w.digest.get_or_insert_with(|| digest.clone()) == &digest;
        t.end();
        t.end();
        w.latencies_ms.push(util::ms(wall));
        w.traced.push(t.on());
        if traced {
            w.drivers.push(driver_stats(&b, wall));
        }
        w.ops += 1;
        if !ok {
            w.failed += 1;
        }
    }
    w.elapsed = epoch.elapsed();
    w.spans = t.into_spans();
    w
}

/// Runs the seeded sample of generated functions on the simulator and
/// on the reference interpreter; returns `(checked, disagreements)`.
fn interp_sample(c: &Corpus, seed: u64) -> (usize, usize) {
    let mut rng = SplitMix64::new(seed ^ 0x5a3b_0000_0000_0002);
    let mut bad = 0;
    for _ in 0..SAMPLE {
        let g = &c.generated[rng.below(c.generated.len() as u64) as usize];
        let mut comp = Compiler::new();
        if comp.compile_str(&g.source).is_err() {
            bad += 1;
            continue;
        }
        let args = g.args.map(Value::Fixnum);
        let mut m = comp.machine();
        m.fuel_per_run = 1_000_000;
        let got = m.run(&g.name, &args);
        let want = comp.interpreter().call(&g.name, &args);
        let agree = match (&want, &got) {
            (Ok(w), Ok(v)) => w == v,
            // Both trapping is agreement: trap wording is per engine.
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !agree {
            bad += 1;
        }
    }
    (SAMPLE, bad)
}

/// The paper units' code as the batch emits it, compiled in-process:
/// S-1 code words of every unit, and the instructions five fixed
/// calls into it retire, each answer checked against a native port.
fn paper_code() -> (u64, u64, bool) {
    let units = service_units();
    let words = units
        .iter()
        .map(|u| {
            let mut c = Compiler::new();
            c.compile_str(&u.source)
                .map_or(0, |_| c.code_size_words() as u64)
        })
        .sum();
    let fx = Value::Fixnum;
    let fl = Value::Flonum;
    let calls = [
        ("exptl", vec![fx(3), fx(10), fx(1)], Answer::Fix(59049)),
        (
            "quadratic",
            vec![fl(1.0), fl(-3.0), fl(2.0)],
            Answer::Printed("(2.0 1.0)"),
        ),
        ("loopn", vec![fx(1000)], Answer::Sym("done")),
        (
            "sum-horner",
            vec![fx(200)],
            Answer::Flo(kernels::sum_horner(200)),
        ),
        (
            "tak",
            vec![fx(10), fx(6), fx(3)],
            Answer::Fix(kernels::tak(10, 6, 3)),
        ),
    ];
    let mut insns = 0;
    let mut ok = true;
    for (entry, args, answer) in calls {
        let defun = format!("(defun {entry} ");
        let Some(unit) = units.iter().find(|u| u.source.contains(&defun)) else {
            ok = false;
            continue;
        };
        let mut c = Compiler::new();
        if c.compile_str(&unit.source).is_err() {
            ok = false;
            continue;
        }
        let mut m = c.machine();
        ok &= m.run(entry, &args).is_ok_and(|v| answer.matches(&v));
        insns += m.last_run_insns;
    }
    (words, insns, ok)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let (setup_s, corpus) = util::median_setup(SETUPS, || corpus(seed));
    out.note(
        "corpus",
        Json::str(util::digest(corpus.units.iter().map(|u| u.source.as_str()))),
    );

    let w = if trace {
        traced(&mut out, &corpus, seconds)
    } else {
        let w = window(&corpus, JOBS, seconds, false, u64::MAX);
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "throughput_per_s",
            (w.ops as usize * corpus.functions) as f64 / w.elapsed.as_secs_f64(),
            "1/s",
        );
        out.metric(
            "latency_p50_ms",
            util::percentile(&w.latencies_ms, 50.0),
            "ms",
        );
        out.metric(
            "latency_p90_ms",
            util::percentile(&w.latencies_ms, 90.0),
            "ms",
        );
        w
    };
    let peak = util::peak_rss_mb("self");

    // Outside the timed window: the sampled functions against the
    // interpreter, and the paper units' code.  A disagreement means
    // every op returned wrong artifacts.
    let (checked, bad) = interp_sample(&corpus, seed);
    let (words, insns, paper_ok) = paper_code();
    out.note(
        "interp_sample",
        Json::Obj(vec![
            ("checked".to_string(), Json::uint(checked as u64)),
            ("disagreed".to_string(), Json::uint(bad as u64)),
        ]),
    );
    out.note("artifacts", Json::str(w.digest.clone().unwrap_or_default()));
    out.note(
        "same_tree_artifacts_named_right",
        Json::Bool(same_tree_probe()),
    );
    out.checks_ok &= paper_ok;
    out.attempted += w.ops;
    out.failed += if bad > 0 { w.ops } else { w.failed };
    if !trace {
        out.metric(
            "success_ratio",
            util::success_ratio(out.attempted, out.failed),
            "ratio",
        );
        out.metric("peak_rss_mb", peak, "MiB");
        out.metric("sim_insns", insns as f64, "count");
        out.metric("code_words", words as f64, "count");
    }
    out
}

/// `Preliminary` -> `preliminary`, `Guard: conversion` -> `guard_conversion`.
fn metric_stem(phase: &str) -> String {
    phase
        .to_ascii_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// The traced run: batches with every other one traced, for the
/// per-layer numbers and the tracing overhead, then serial (`jobs = 1`)
/// batches of the same corpus for the contention ratio.  Returns the
/// first window.
fn traced(out: &mut Outcome, c: &Corpus, seconds: f64) -> Window {
    let w = window(c, JOBS, seconds, true, u64::MAX);
    let serial = window(c, 1, seconds / 4.0, true, w.ops);
    out.attempted = serial.ops;
    out.failed = serial.failed;
    let avg =
        |ds: &[Driver], f: fn(&Driver) -> f64| util::mean(&ds.iter().map(f).collect::<Vec<_>>());
    let n = w.drivers.len().max(1) as f64;
    let mut phases: Vec<(String, f64)> = Vec::new();
    for d in &w.drivers {
        for (p, ms) in &d.phases {
            match phases.iter_mut().find(|(q, _)| q == p) {
                Some(slot) => slot.1 += ms,
                None => phases.push((p.clone(), *ms)),
            }
        }
    }
    for (p, total) in phases {
        out.metric(format!("core.pass.{}_ms", metric_stem(&p)), total / n, "ms");
    }
    out.metric("driver.batch_ms", util::mean(&w.latencies_ms), "ms");
    out.metric("driver.job_ms_sum", avg(&w.drivers, |d| d.job_ms_sum), "ms");
    out.metric(
        "driver.queue_ms_sum",
        avg(&w.drivers, |d| d.queue_ms_sum),
        "ms",
    );
    out.metric(
        "driver.worker_busy_ratio",
        avg(&w.drivers, |d| d.busy_ratio),
        "ratio",
    );
    out.metric(
        "driver.contention_ratio",
        avg(&w.drivers, |d| d.job_ms_sum) / avg(&serial.drivers, |d| d.job_ms_sum),
        "ratio",
    );
    out.metric(
        "bench.unattributed_ms",
        util::unattributed_ms(&w.spans),
        "ms",
    );
    out.metric(
        "bench.trace_overhead_ratio",
        util::trace_overhead_ratio(&w.latencies_ms, &w.traced),
        "ratio",
    );
    let mut w = w;
    out.spans = std::mem::take(&mut w.spans);
    w
}

/// Compiles two units whose functions differ only in name, serially,
/// and reports whether each artifact is named after its own function.
/// The artifact cache keys on the converted tree alone, so the second
/// function is a hit on the first's entry; at this revision the hit
/// comes back under the first function's name.  Recorded in every
/// batch result so the defect stays visible; it does not enter the
/// timed corpus, where no two trees are equal.
fn same_tree_probe() -> bool {
    let units = [
        SourceUnit::new("probe-a", "(defun probe-a (x) (+ x 1))"),
        SourceUnit::new("probe-b", "(defun probe-b (x) (+ x 1))"),
    ];
    let b = CompileService::new(ServiceConfig::with_jobs(1)).compile_batch(&units);
    b.artifacts.len() == 2
        && b.artifacts
            .iter()
            .zip(["probe-a", "probe-b"])
            .all(|(a, n)| a.name == n && a.assembly.contains(&format!(";;; {n} ")))
}

//! The `kernels` workload: source-to-answer on five paper kernels.
//!
//! One op is what the paper's user waits for: a fresh `Compiler`
//! compiles the kernel's source, `Compiler::machine` loads it, and
//! `Machine::run` computes the answer, which is checked against a
//! reference that does not come from the compiler (a native Rust port,
//! or the hand-written answer `done`).  Each round runs the five kernels
//! once, in a seeded order, so every kernel has an equal share of the
//! ops and the 20/40/60/80% boundaries between kernel groups sit away
//! from p50 and p90.

use std::time::{Duration, Instant};

use s1lisp::{BackendKind, Compiler, Machine, Value};
use s1lisp_bench::corpus;
use s1lisp_trace::json::Json;
use s1lisp_trace::rng::SplitMix64;

use crate::util::{self, Outcome, Tracer, SETUPS};

/// A kernel's reference answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Answer {
    Fix(i64),
    Flo(f64),
    Sym(&'static str),
    /// A value checked by its printed form (lists).
    Printed(&'static str),
}

impl Answer {
    pub fn matches(self, v: &Value) -> bool {
        match (self, v) {
            (Answer::Printed(p), v) => v.to_string() == p,
            (Answer::Fix(a), Value::Fixnum(b)) => a == *b,
            (Answer::Flo(a), Value::Flonum(b)) => a.to_bits() == b.to_bits(),
            (Answer::Sym(a), Value::Sym(s)) => s.as_str() == a,
            _ => false,
        }
    }
}

pub struct Kernel {
    pub id: &'static str,
    src: &'static str,
    entry: &'static str,
    args: Vec<Value>,
    /// Whether the reference interpreter can run it (its 150-deep call
    /// budget rejects the deeply recursive `loopn` and `gc-stress`).
    interp_ok: bool,
    /// Whether the bytecode engine runs it (it has no collector to
    /// meter, so `gc-stress` is left out).
    bytecode: bool,
}

/// The five kernels, sized within about 3x of each other;
/// `gc-stress` needs at least one collection and sets the scale.
pub fn kernels() -> Vec<Kernel> {
    let fx = Value::Fixnum;
    vec![
        Kernel {
            id: "tak",
            src: corpus::TAK,
            entry: "tak",
            args: vec![fx(20), fx(14), fx(7)],
            interp_ok: true,
            bytecode: true,
        },
        Kernel {
            id: "loopn",
            src: corpus::LOOPN,
            entry: "loopn",
            args: vec![fx(600_000)],
            interp_ok: false,
            bytecode: true,
        },
        Kernel {
            id: "sum-horner",
            src: corpus::HORNER_LOOP,
            entry: "sum-horner",
            args: vec![fx(120_000)],
            interp_ok: true,
            bytecode: true,
        },
        Kernel {
            id: "pdl-loop",
            src: corpus::PDL_KERNEL,
            entry: "pdl-loop",
            args: vec![fx(100_000), Value::Flonum(1.5), Value::Flonum(2.5)],
            interp_ok: true,
            bytecode: true,
        },
        Kernel {
            id: "gc-stress",
            src: corpus::GC_STRESS,
            entry: "gc-stress",
            args: vec![fx(1_200)],
            interp_ok: false,
            bytecode: false,
        },
    ]
}

pub fn tak(x: i64, y: i64, z: i64) -> i64 {
    if y >= x {
        z
    } else {
        tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    }
}

pub fn sum_horner(n: i64) -> f64 {
    let horner = |x: f64| ((1.0 * x + -2.0) * x + 3.0) * x + -4.0;
    let (mut acc, mut x) = (0.0f64, 0.0f64);
    for _ in 0..n {
        acc += horner(x);
        x += 0.001;
    }
    acc
}

fn pdl_loop(n: i64, a: f64, b: f64) -> Option<f64> {
    (n > 0).then(|| (a + b).max(a * b))
}

/// Native ports of the kernels (and the hand-written `done`).
fn reference(k: &Kernel) -> Answer {
    let fix = |i: usize| match k.args[i] {
        Value::Fixnum(n) => n,
        _ => unreachable!("fixnum argument"),
    };
    let flo = |i: usize| match k.args[i] {
        Value::Flonum(x) => x,
        _ => unreachable!("flonum argument"),
    };
    match k.id {
        "tak" => Answer::Fix(tak(fix(0), fix(1), fix(2))),
        "sum-horner" => Answer::Flo(sum_horner(fix(0))),
        "pdl-loop" => Answer::Flo(pdl_loop(fix(0), flo(1), flo(2)).expect("n > 0")),
        "loopn" | "gc-stress" => Answer::Sym("done"),
        other => unreachable!("no reference for {other}"),
    }
}

/// Set-up: the op list (a seeded order of the five kernels per round)
/// and every kernel's reference answer.
fn setup(seed: u64, rounds: usize) -> (Vec<Kernel>, Vec<Answer>, Vec<Vec<usize>>) {
    let ks = kernels();
    let answers = ks.iter().map(reference).collect();
    let mut rng = SplitMix64::new(seed);
    let plan = (0..rounds)
        .map(|_| {
            let mut order: Vec<usize> = (0..ks.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            order
        })
        .collect();
    (ks, answers, plan)
}

/// Deterministic per-op counts, which must repeat on every op.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
struct Counts {
    insns: u64,
    heap_words: u64,
    collections: u64,
    pdl_numbers: u64,
    code_words: u64,
    transformations: u64,
}

/// One source-to-answer op; returns whether the answer was right and
/// the compiler and machine, whose counts are read after the timer
/// stops.  Traced, the compile is split into its `convert_str` and
/// `compile_pending` calls (exactly what `compile_str` does) so
/// frontend and core show separately.
fn op(
    k: &Kernel,
    answer: Answer,
    t: &mut Tracer,
    op_id: u64,
) -> (bool, Option<(Compiler, Machine)>) {
    t.begin("bench.op", op_id);
    let mut c = Compiler::new();
    let compiled = if t.on() {
        t.begin("frontend.convert", op_id);
        let pending = c.convert_str(k.src);
        t.end();
        t.begin("core.compile_pending", op_id);
        let r = pending.and_then(|ps| {
            ps.into_iter()
                .map(|p| c.compile_pending(p))
                .collect::<Result<Vec<_>, _>>()
        });
        t.end();
        r
    } else {
        c.compile_str(k.src)
    };
    if compiled.is_err() {
        t.end();
        return (false, None);
    }
    t.begin("s1sim.machine_new", op_id);
    let mut m = c.machine();
    t.end();
    t.begin(format!("s1sim.run.{}", k.id), op_id);
    let v = m.run(k.entry, &k.args);
    t.end();
    t.begin("bench.check", op_id);
    let ok = v.as_ref().is_ok_and(|v| answer.matches(v));
    t.end();
    t.end();
    (ok, Some((c, m)))
}

fn counts(c: &Compiler, m: &Machine) -> Counts {
    Counts {
        insns: m.last_run_insns,
        heap_words: m.stats.heap.words,
        collections: m.stats.heap.collections,
        pdl_numbers: m.stats.pdl_numbers,
        code_words: c.code_size_words() as u64,
        transformations: c.rule_histogram().iter().map(|(_, n)| n).sum(),
    }
}

struct Window {
    ops: u64,
    failed: u64,
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    /// Per kernel: the counts of its first op, and whether every later
    /// op repeated them.
    counts: Vec<Option<Counts>>,
    repeated: bool,
    /// Traced ops per kernel.
    traced_per_kernel: Vec<u64>,
    /// Per op: whether it was traced.
    traced: Vec<bool>,
    spans: Vec<util::Span>,
}

/// Runs whole rounds until `seconds` have passed; `traced`, every
/// other round is traced.
fn window(
    ks: &[Kernel],
    answers: &[Answer],
    plan: &[Vec<usize>],
    seconds: f64,
    traced: bool,
) -> Window {
    let epoch = Instant::now();
    let mut t = Tracer::new(false, epoch);
    let mut w = Window {
        ops: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        latencies_ms: Vec::new(),
        counts: vec![None; ks.len()],
        repeated: true,
        traced_per_kernel: vec![0; ks.len()],
        traced: Vec::new(),
        spans: Vec::new(),
    };
    for (r, round) in plan.iter().cycle().enumerate() {
        if epoch.elapsed().as_secs_f64() >= seconds {
            break;
        }
        t.set_on(traced && r % 2 == 1);
        for &i in round {
            let t0 = Instant::now();
            let (ok, done) = op(&ks[i], answers[i], &mut t, w.ops);
            w.latencies_ms.push(util::ms(t0.elapsed()));
            let counts = done.map(|(c, m)| counts(&c, &m)).unwrap_or_default();
            w.ops += 1;
            w.traced.push(t.on());
            w.traced_per_kernel[i] += u64::from(t.on());
            if !ok {
                w.failed += 1;
            }
            match w.counts[i] {
                None => w.counts[i] = Some(counts),
                Some(first) => w.repeated &= first == counts,
            }
        }
    }
    w.elapsed = epoch.elapsed();
    w.spans = t.into_spans();
    w
}

/// Checks the native references against the reference interpreter
/// where it can run; returns `(kernel, agrees)` pairs.
fn interp_cross_check(ks: &[Kernel], answers: &[Answer]) -> Vec<(&'static str, bool)> {
    ks.iter()
        .zip(answers)
        .filter(|(k, _)| k.interp_ok)
        .map(|(k, a)| {
            let mut c = Compiler::new();
            let agrees = c.compile_str(k.src).is_ok()
                && c.interpreter()
                    .call(k.entry, &k.args)
                    .is_ok_and(|v| a.matches(&v));
            (k.id, agrees)
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let (setup_s, (ks, answers, plan)) = util::median_setup(SETUPS, || setup(seed, 1000));
    out.note(
        "kernel_set",
        Json::str(util::digest(ks.iter().flat_map(|k| [k.id, k.src]))),
    );
    out.note(
        "op_order",
        Json::str(util::digest(
            plan.iter().flatten().take(50).map(|&i| ks[i].id),
        )),
    );

    if trace {
        traced(&mut out, &ks, &answers, &plan, seconds);
    } else {
        let w = window(&ks, &answers, &plan, seconds, false);
        let peak = util::peak_rss_mb("self");
        let rounds_ok = w.counts.iter().all(Option::is_some);
        out.checks_ok &= w.repeated && rounds_ok;
        out.attempted = w.ops;
        out.failed = w.failed;
        let sum =
            |f: fn(&Counts) -> u64| -> f64 { w.counts.iter().flatten().map(f).sum::<u64>() as f64 };
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "throughput_per_s",
            w.ops as f64 / w.elapsed.as_secs_f64(),
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
        out.metric(
            "success_ratio",
            util::success_ratio(w.ops, w.failed),
            "ratio",
        );
        out.metric("peak_rss_mb", peak, "MiB");
        out.metric("sim_insns", sum(|c| c.insns), "count");
        out.metric("code_words", sum(|c| c.code_words), "count");
    }

    // Outside the timed window: the references against the interpreter.
    let cross = interp_cross_check(&ks, &answers);
    out.checks_ok &= cross.iter().all(|&(_, ok)| ok);
    out.note(
        "interp_cross_check",
        Json::Map(
            cross
                .into_iter()
                .map(|(k, ok)| (k.to_string(), Json::Bool(ok)))
                .collect(),
        ),
    );
    out
}

/// The traced run: every other round traced, for the per-layer
/// numbers and the tracing overhead, then the bytecode engine on the
/// four kernels it runs.
fn traced(out: &mut Outcome, ks: &[Kernel], answers: &[Answer], plan: &[Vec<usize>], seconds: f64) {
    let w = window(ks, answers, plan, seconds, true);
    out.attempted = w.ops;
    out.failed = w.failed;
    out.checks_ok &= w.repeated;
    let traced_ops = w.traced.iter().filter(|&&t| t).count().max(1) as f64;
    let per_op = |total_ms: f64| total_ms / traced_ops;
    let by_name = util::self_ms_by_name(&w.spans);
    let got = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    for (i, k) in ks.iter().enumerate() {
        let n = w.traced_per_kernel[i].max(1) as f64;
        let c = w.counts[i].unwrap_or_default();
        out.metric(
            format!("s1sim.run_ms.{}", k.id),
            got(&format!("s1sim.run.{}", k.id)) / n,
            "ms",
        );
        out.metric(format!("s1sim.insns.{}", k.id), c.insns as f64, "count");
        out.metric(
            format!("s1sim.heap_words.{}", k.id),
            c.heap_words as f64,
            "count",
        );
        out.metric(
            format!("codegen.code_words.{}", k.id),
            c.code_words as f64,
            "count",
        );
        out.metric(
            format!("opt.transformations.{}", k.id),
            c.transformations as f64,
            "count",
        );
    }
    let idx = |id: &str| ks.iter().position(|k| k.id == id).expect("kernel present");
    let gc = w.counts[idx("gc-stress")].unwrap_or_default();
    let pdl = w.counts[idx("pdl-loop")].unwrap_or_default();
    out.metric("s1sim.gc_collections", gc.collections as f64, "count");
    out.metric(
        "s1sim.pdl_numbers.pdl-loop",
        pdl.pdl_numbers as f64,
        "count",
    );
    out.metric(
        "s1sim.machine_new_ms",
        per_op(got("s1sim.machine_new")),
        "ms",
    );
    out.metric("frontend.convert_ms", per_op(got("frontend.convert")), "ms");
    out.metric(
        "core.compile_pending_ms",
        per_op(got("core.compile_pending")),
        "ms",
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

    for k in ks.iter().filter(|k| k.bytecode) {
        let (run_ms, insns) = bytecode_run(k);
        out.metric(format!("bytecode.run_ms.{}", k.id), run_ms, "ms");
        out.metric(format!("bytecode.insns.{}", k.id), insns as f64, "count");
    }
    out.spans = w.spans;
}

/// One run of a kernel on the bytecode engine: wall ms and
/// instructions retired.
fn bytecode_run(k: &Kernel) -> (f64, u64) {
    let mut c = Compiler::new();
    c.backend = BackendKind::Bytecode;
    if c.compile_str(k.src).is_err() {
        return (0.0, 0);
    }
    let mut e = c.evaluator();
    let t0 = Instant::now();
    let _ = e.run(k.entry, &k.args);
    (util::ms(t0.elapsed()), e.last_run_insns)
}

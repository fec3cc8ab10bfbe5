//! Wall-clock benchmarks for the experiment workloads.
//!
//! Instruction/allocation *counts* are deterministic and live in the
//! `report` binary; these benches time the same workloads so the ratios
//! can be checked against physical time (`cargo bench`).
//!
//! The harness is hand-rolled (no external crates available offline): a
//! short warm-up, then a fixed number of timed batches, reporting the
//! best per-iteration time — the usual minimum-of-batches estimator,
//! which is robust to scheduler noise if not criterion-grade.

use std::time::Instant;

use s1lisp::{CodegenOptions, Compiler, Value};
use s1lisp_bench::corpus;

fn fx(n: i64) -> Value {
    Value::Fixnum(n)
}

fn fl(x: f64) -> Value {
    Value::Flonum(x)
}

fn compile(src: &str) -> Compiler {
    let mut c = Compiler::new();
    c.compile_str(src).expect("bench source compiles");
    c
}

/// Times `f` and prints a one-line result: best per-iteration time over
/// `BATCHES` batches of `iters` calls each.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    const BATCHES: u32 = 7;
    // Warm-up.
    for _ in 0..iters {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = t0.elapsed().as_secs_f64() / f64::from(iters);
        if per < best {
            best = per;
        }
    }
    println!("{name:<40} {:>12.3} µs/iter", best * 1e6);
}

/// E4: tail-recursive loop, compiled vs interpreted.
fn bench_exptl() {
    let compiler = compile(corpus::EXPTL);
    let mut m = compiler.machine();
    let interp = compiler.interpreter();
    let args = [fx(3), fx(30), fx(1)];
    bench("e4_exptl/compiled", 200, || {
        m.run("exptl", &args).unwrap();
    });
    bench("e4_exptl/interpreted", 200, || {
        interp.call("exptl", &args).unwrap();
    });
}

/// E3: boolean short-circuiting.
fn bench_bool() {
    let compiler = compile(
        "(defun f (a b c) (if (and a (or b c)) 1 2))
         (defun drive (n a b c)
           (prog (acc) (setq acc 0)
             top (if (zerop n) (return acc))
             (setq acc (+ acc (f a b c)))
             (setq n (- n 1)) (go top)))",
    );
    let mut m = compiler.machine();
    bench("e3_bool_shortcircuit/compiled", 100, || {
        m.run("drive", &[fx(500), fx(1), Value::Nil, fx(1)])
            .unwrap();
    });
}

/// E7: pdl numbers on/off.
fn bench_pdl() {
    for (name, pdl) in [("on", true), ("off", false)] {
        let mut compiler = Compiler::new();
        compiler.options.codegen_options = CodegenOptions {
            pdl_numbers: pdl,
            ..CodegenOptions::default()
        };
        compiler.compile_str(corpus::PDL_KERNEL).unwrap();
        let mut m = compiler.machine();
        bench(&format!("e7_pdl_numbers/{name}"), 50, || {
            m.run("pdl-loop", &[fx(500), fl(1.5), fl(2.5)]).unwrap();
        });
    }
}

/// E10: special-variable caching on/off.
fn bench_specials() {
    for (name, cached) in [("cached", true), ("uncached", false)] {
        let mut compiler = Compiler::new();
        compiler.options.codegen_options = CodegenOptions {
            cache_specials: cached,
            ..CodegenOptions::default()
        };
        compiler.compile_str(corpus::SPECIALS_LOOP).unwrap();
        let mut m = compiler.machine();
        m.set_global("*step*", &fx(2)).unwrap();
        bench(&format!("e10_specials/{name}"), 50, || {
            m.run("accumulate", &[fx(500)]).unwrap();
        });
    }
}

/// E6/E9: the numeric kernel with and without representation analysis.
fn bench_numeric() {
    for (name, rep) in [("on", true), ("off", false)] {
        let mut compiler = Compiler::new();
        compiler.options.codegen_options = CodegenOptions {
            representation_analysis: rep,
            ..CodegenOptions::default()
        };
        compiler.compile_str(corpus::HORNER_LOOP).unwrap();
        let mut m = compiler.machine();
        bench(&format!("e6_representation/{name}"), 50, || {
            m.run("sum-horner", &[fx(500)]).unwrap();
        });
    }
}

/// E12: full vs naive compiler on tak.
fn bench_ablation() {
    let full = compile(corpus::TAK);
    let mut naive = Compiler::unoptimized();
    naive.compile_str(corpus::TAK).unwrap();
    let args = [fx(12), fx(8), fx(4)];
    let mut m1 = full.machine();
    let mut m2 = naive.machine();
    bench("e12_ablation_tak/full", 20, || {
        m1.run("tak", &args).unwrap();
    });
    bench("e12_ablation_tak/naive", 20, || {
        m2.run("tak", &args).unwrap();
    });
}

/// Compilation speed itself (the compiler is also a program).
fn bench_compile_time() {
    bench("compile_testfn", 50, || {
        let mut compiler = Compiler::new();
        compiler.compile_str(corpus::TESTFN).unwrap();
        compiler.code_size_words();
    });
}

fn main() {
    bench_exptl();
    bench_bool();
    bench_pdl();
    bench_specials();
    bench_numeric();
    bench_ablation();
    bench_compile_time();
}

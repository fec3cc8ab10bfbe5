//! The numeric side of the paper's thesis: "generate high-quality
//! numerical code" from Lisp (§1, §6).  Compiles a quadratic solver and a
//! typed polynomial kernel, then shows what representation analysis and
//! pdl numbers save.
//!
//! ```sh
//! cargo run --example numeric
//! ```

use s1lisp::{CodegenOptions, Compiler, Value};

const SRC: &str = "
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) two-a)
                     (/ (- (- b) sd) two-a)))))))

(defun horner (x c3 c2 c1 c0)
  (declare (flonum x c3 c2 c1 c0))
  (+$f (*$f (+$f (*$f (+$f (*$f c3 x) c2) x) c1) x) c0))

(defun sum-horner (n)
  (declare (fixnum n))
  (prog (acc x)
    (setq acc 0.0 x 0.0)
    top
    (if (zerop n) (return acc))
    (setq acc (+$f acc (horner x 1.0 -2.0 3.0 -4.0)))
    (setq x (+$f x 0.001))
    (setq n (- n 1))
    (go top)))
";

fn fl(x: f64) -> Value {
    Value::Flonum(x)
}

fn run_config(name: &str, options: CodegenOptions) -> (Value, u64, u64) {
    let mut c = Compiler::new();
    c.options.codegen_options = options;
    c.compile_str(SRC).expect("compiles");
    let mut m = c.machine();
    let v = m.run("sum-horner", &[Value::Fixnum(10_000)]).expect(name);
    (v, m.stats.insns, m.stats.heap.flonums)
}

fn main() {
    let mut c = Compiler::new();
    c.compile_str(SRC).expect("compiles");
    let mut m = c.machine();

    println!("--- quadratic roots ---");
    for (a, b, cc) in [(1.0, -3.0, 2.0), (1.0, 2.0, 5.0), (2.0, 4.0, 2.0)] {
        let v = m.run("quadratic", &[fl(a), fl(b), fl(cc)]).expect("solves");
        println!("{a}x² + {b}x + {cc} = 0   →  {v}");
    }

    println!("\n--- representation analysis & pdl numbers on a 10k-iteration kernel ---");
    let (v_full, insns_full, boxes_full) = run_config("full", CodegenOptions::default());
    let (v_norep, insns_norep, boxes_norep) = run_config(
        "no representation analysis",
        CodegenOptions {
            representation_analysis: false,
            ..CodegenOptions::default()
        },
    );
    assert_eq!(v_full, v_norep);
    println!("result: {v_full}");
    println!(
        "{:<36} {:>12} {:>14}",
        "configuration", "instructions", "flonum boxes"
    );
    println!(
        "{:<36} {:>12} {:>14}",
        "representation analysis ON", insns_full, boxes_full
    );
    println!(
        "{:<36} {:>12} {:>14}",
        "representation analysis OFF", insns_norep, boxes_norep
    );
    println!(
        "\nanalysis keeps intermediate floats raw: {:.1}× fewer instructions, {:.1}× fewer heap boxes",
        insns_norep as f64 / insns_full as f64,
        boxes_norep as f64 / boxes_full.max(1) as f64
    );
}

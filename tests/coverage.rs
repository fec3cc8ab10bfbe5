//! Differential coverage of the dialect's corners: every test runs the
//! same program compiled-on-simulator and interpreted, and requires
//! agreement.

use s1lisp::Value;
use s1lisp_suite::{build, check_agree, fl, fx};

fn sym(s: &str) -> Value {
    let mut i = s1lisp_reader::Interner::new();
    Value::Sym(i.intern(s))
}

#[test]
fn apply_spreads_argument_lists() {
    let (mut m, i) = build(
        "(defun add3 (a b c) (+ a b c))
         (defun spread (l) (apply #'add3 l))
         (defun spread-var (f l) (apply f l))",
    );
    let l = Value::list([fx(1), fx(2), fx(3)]);
    check_agree(&mut m, &i, "spread", std::slice::from_ref(&l));
    check_agree(
        &mut m,
        &i,
        "spread-var",
        &[Value::global_function("add3"), l],
    );
    // Wrong count through apply traps in both.
    let short = Value::list([fx(1)]);
    check_agree(&mut m, &i, "spread", &[short]);
}

#[test]
fn funcall_through_data_structures() {
    let (mut m, i) = build(
        "(defun twice (f x) (funcall f (funcall f x)))
         (defun add5 (x) (+ x 5))
         (defun pick (flag) (if flag #'add5 #'1+))
         (defun run (flag x) (twice (pick flag) x))",
    );
    check_agree(&mut m, &i, "run", &[sym("t"), fx(1)]);
    check_agree(&mut m, &i, "run", &[Value::Nil, fx(1)]);
}

#[test]
fn nested_closures_capture_transitively() {
    let (mut m, i) = build(
        "(defun make-add (a) (lambda (b) (lambda (c) (+ a b c))))
         (defun run (x y z) (funcall (funcall (make-add x) y) z))",
    );
    check_agree(&mut m, &i, "run", &[fx(1), fx(2), fx(3)]);
    check_agree(&mut m, &i, "run", &[fx(-7), fx(0), fx(100)]);
}

#[test]
fn closures_share_mutable_state_pairwise() {
    let (mut m, i) = build(
        "(defun make-pair ()
           (let ((n 0))
             (cons (lambda () (setq n (+ n 1)) n)
                   (lambda () n))))
         (defun run ()
           (let ((p (make-pair)))
             (funcall (car p))
             (funcall (car p))
             (funcall (cdr p))))",
    );
    check_agree(&mut m, &i, "run", &[]);
}

#[test]
fn catch_across_functions_unwinds_specials() {
    let (mut m, interp) = build(
        "(proclaim '(special *lvl*))
         (defun probe () *lvl*)
         (defun down (*lvl* n)
           (if (zerop n) (throw 'stop (probe)) (down (+ *lvl* 1) (- n 1))))
         (defun run (n)
           (let ((caught (catch 'stop (down 1 n))))
             (list caught (probe))))",
    );
    m.set_global("*lvl*", &fx(0)).unwrap();
    interp.set_global("*lvl*", fx(0));
    check_agree(&mut m, &interp, "run", &[fx(5)]);
    check_agree(&mut m, &interp, "run", &[fx(0)]);
}

#[test]
fn nested_catches_pick_the_right_tag() {
    let (mut m, i) = build(
        "(defun run (which)
           (catch 'outer
             (+ 100 (catch 'inner
                      (if (eq which 'inner) (throw 'inner 1) '())
                      (if (eq which 'outer) (throw 'outer 2) '())
                      10))))",
    );
    check_agree(&mut m, &i, "run", &[sym("inner")]);
    check_agree(&mut m, &i, "run", &[sym("outer")]);
    check_agree(&mut m, &i, "run", &[sym("neither")]);
}

#[test]
fn caseq_with_symbol_keys() {
    let (mut m, i) = build(
        "(defun color-code (c)
           (caseq c ((red crimson) 1) ((green) 2) ((blue) 3) (t 0)))",
    );
    for s in ["red", "crimson", "green", "blue", "mauve"] {
        check_agree(&mut m, &i, "color-code", &[sym(s)]);
    }
    check_agree(&mut m, &i, "color-code", &[fx(5)]);
}

#[test]
fn rest_parameters_with_many_arguments() {
    let (mut m, i) = build("(defun count-args (&rest r) (length r))");
    for n in [0usize, 1, 5, 12] {
        let args: Vec<Value> = (0..n as i64).map(fx).collect();
        check_agree(&mut m, &i, "count-args", &args);
    }
}

#[test]
fn optional_plus_rest_combination() {
    let (mut m, i) = build("(defun f (a &optional (b 10) &rest r) (list a b r))");
    check_agree(&mut m, &i, "f", &[fx(1)]);
    check_agree(&mut m, &i, "f", &[fx(1), fx(2)]);
    check_agree(&mut m, &i, "f", &[fx(1), fx(2), fx(3), fx(4)]);
    check_agree(&mut m, &i, "f", &[]);
}

#[test]
fn shadowed_progbody_tags_bind_innermost() {
    let (mut m, i) = build(
        "(defun run (n)
           (prog (acc)
             (setq acc 0)
             top
             (if (zerop n) (return acc))
             (prog (k)
               (setq k 2)
               top   ; shadows the outer tag
               (if (zerop k) (return '()))
               (setq acc (+ acc 1))
               (setq k (- k 1))
               (go top))
             (setq n (- n 1))
             (go top)))",
    );
    check_agree(&mut m, &i, "run", &[fx(5)]);
}

#[test]
fn strings_and_characters_flow_through() {
    let (mut m, i) = build(
        "(defun pick (flag a b) (if flag a b))
         (defun is-str (x) (stringp x))",
    );
    check_agree(
        &mut m,
        &i,
        "pick",
        &[sym("t"), Value::Str("hello".into()), fx(1)],
    );
    check_agree(&mut m, &i, "is-str", &[Value::Str("x".into())]);
    check_agree(&mut m, &i, "is-str", &[Value::Char('q')]);
    check_agree(
        &mut m,
        &i,
        "pick",
        &[Value::Nil, Value::Char('a'), Value::Char('b')],
    );
}

#[test]
fn list_library_compiled() {
    let (mut m, i) = build(
        "(defun run (l k)
           (list (length l)
                 (nth k l)
                 (member k l)
                 (reverse l)
                 (append l l)
                 (last l)
                 (nthcdr k l)))",
    );
    let l = Value::list([fx(10), fx(20), fx(1), fx(30)]);
    check_agree(&mut m, &i, "run", &[l.clone(), fx(1)]);
    check_agree(&mut m, &i, "run", &[Value::Nil, fx(0)]);
}

#[test]
fn assoc_tables_compiled() {
    let (mut m, i) = build(
        "(defun lookup (key table) (cdr (assq key table)))
         (defun table () (list (cons 'a 1) (cons 'b 2)))
         (defun run (k) (lookup k (table)))",
    );
    check_agree(&mut m, &i, "run", &[sym("a")]);
    check_agree(&mut m, &i, "run", &[sym("b")]);
    check_agree(&mut m, &i, "run", &[sym("zz")]);
}

#[test]
fn rplaca_certifies_and_mutates() {
    let (mut m, i) = build("(defun smash (cell x) (rplaca cell (+$f x 1.0)) (car cell))");
    let cell = Value::cons(fx(0), Value::Nil);
    check_agree(&mut m, &i, "smash", &[cell, fl(2.5)]);
}

#[test]
fn equal_on_structures() {
    let (mut m, i) = build("(defun same (a b) (equal a b))");
    let x = Value::list([fx(1), Value::list([fx(2), fx(3)]), Value::Str("s".into())]);
    let y = Value::list([fx(1), Value::list([fx(2), fx(3)]), Value::Str("s".into())]);
    let z = Value::list([fx(1), Value::list([fx(2), fx(4)]), Value::Str("s".into())]);
    check_agree(&mut m, &i, "same", &[x.clone(), y]);
    check_agree(&mut m, &i, "same", &[x, z]);
}

#[test]
fn generic_arithmetic_corners() {
    let (mut m, i) = build(
        "(defun run (a b)
           (list (max a b 3) (min a b) (abs (- a b)) (mod a b) (rem a b)
                 (floor a b) (ceiling a b) (truncate a b) (round a b)
                 (expt a 3) (1+ a) (1- b)))",
    );
    for (a, b) in [(7, 2), (-7, 2), (7, -2), (-7, -2), (0, 5)] {
        check_agree(&mut m, &i, "run", &[fx(a), fx(b)]);
    }
    // Division by zero traps in both.
    check_agree(&mut m, &i, "run", &[fx(1), fx(0)]);
}

#[test]
fn mixed_type_contagion() {
    let (mut m, i) = build("(defun run (a b) (list (+ a b) (* a b) (< a b) (= a b)))");
    check_agree(&mut m, &i, "run", &[fx(2), fl(2.5)]);
    check_agree(&mut m, &i, "run", &[fl(2.0), fx(2)]);
    check_agree(&mut m, &i, "run", &[fl(1.5), fl(1.5)]);
}

#[test]
fn deeply_nested_lets_and_ifs() {
    let (mut m, i) = build(
        "(defun run (x)
           (let ((a (+ x 1)))
             (let ((b (if (oddp a) (* a 2) (let ((c (* a 3))) (- c 1)))))
               (let ((d (if (> b 10) b (- b))))
                 (list a b d)))))",
    );
    for n in -3..4 {
        check_agree(&mut m, &i, "run", &[fx(n)]);
    }
}

#[test]
fn setq_of_parameters_and_loop_vars() {
    let (mut m, i) = build(
        "(defun gcd2 (a b)
           (prog ()
             top
             (if (zerop b) (return a))
             (let ((r (rem a b))) (setq a b) (setq b r))
             (go top)))",
    );
    for (a, b) in [(12, 18), (17, 5), (100, 75), (3, 0)] {
        check_agree(&mut m, &i, "gcd2", &[fx(a), fx(b)]);
    }
}

#[test]
fn not_in_value_and_test_positions() {
    let (mut m, i) =
        build("(defun run (p q) (list (not p) (null q) (if (not p) 1 2) (and (not p) (not q))))");
    check_agree(&mut m, &i, "run", &[Value::Nil, fx(1)]);
    check_agree(&mut m, &i, "run", &[fx(1), Value::Nil]);
}

#[test]
fn closures_over_loop_variables_capture_cells() {
    // The loop variable is heap-allocated because closures capture it;
    // all closures see the final value (single cell, as in the
    // interpreter's shared-environment semantics).
    let (mut m, i) = build(
        "(defun make-getters (n)
           (prog (acc)
             top
             (if (zerop n) (return acc))
             (setq acc (cons (lambda () n) acc))
             (setq n (- n 1))
             (go top)))
         (defun run (n) (funcall (car (make-getters n))))",
    );
    check_agree(&mut m, &i, "run", &[fx(3)]);
}

#[test]
fn higher_order_with_specials() {
    let (mut m, interp) = build(
        "(proclaim '(special *scale*))
         (defun scaled (x) (* x *scale*))
         (defun with-scale (*scale* f x) (funcall f x))
         (defun run (x) (with-scale 10 #'scaled x))",
    );
    m.set_global("*scale*", &fx(1)).unwrap();
    interp.set_global("*scale*", fx(1));
    check_agree(&mut m, &interp, "run", &[fx(7)]);
    check_agree(&mut m, &interp, "scaled", &[fx(7)]);
}

#[test]
fn float_specials_certify_on_binding() {
    let (mut m, interp) = build(
        "(proclaim '(special *acc*))
         (defun bump (x) (setq *acc* (+$f *acc* x)) *acc*)",
    );
    m.set_global("*acc*", &fl(0.0)).unwrap();
    interp.set_global("*acc*", fl(0.0));
    check_agree(&mut m, &interp, "bump", &[fl(1.5)]);
    check_agree(&mut m, &interp, "bump", &[fl(2.5)]);
}

#[test]
fn type_inference_lowers_declared_generic_arithmetic() {
    // The paper's stated future work, implemented: declarations let the
    // compiler deduce types for generic operators.
    let src = "(defun poly (x)
                 (declare (flonum x))
                 (+ (* x x) (* 2.0 x) (sqrt (max x 0.5)) 1.0))";
    let (mut m, i) = build(src);
    for x in [0.0, 1.5, -2.0, 9.0] {
        check_agree(&mut m, &i, "poly", &[fl(x)]);
    }
    // And it is actually lowered: no runtime arithmetic calls remain.
    let mut c = s1lisp::Compiler::new();
    c.compile_str(src).unwrap();
    let code = c.disassemble("poly").unwrap();
    let rt_arith = code
        .lines()
        .filter(|l| {
            l.contains("%CALLRT +")
                || l.contains("%CALLRT *")
                || l.contains("%CALLRT sqrt")
                || l.contains("%CALLRT max")
        })
        .count();
    assert_eq!(rt_arith, 0, "{code}");
    assert!(code.contains("FSQRT"), "{code}");
}

#[test]
fn dense_caseq_compiles_to_a_dispatch_table() {
    let src = "(defun digit-name (d)
                 (caseq d ((0) 'zero) ((1) 'one) ((2) 'two) ((3) 'three)
                          ((4) 'four) ((5 6 7) 'several) (t 'many)))";
    let (mut m, i) = build(src);
    for d in -2..10 {
        check_agree(&mut m, &i, "digit-name", &[fx(d)]);
    }
    check_agree(&mut m, &i, "digit-name", &[sym("not-a-number")]);
    let mut c = s1lisp::Compiler::new();
    c.compile_str(src).unwrap();
    let code = c.disassemble("digit-name").unwrap();
    assert!(code.contains("DISPATCH"), "jump table expected:\n{code}");
}

#[test]
fn sparse_caseq_stays_a_compare_chain() {
    let src = "(defun sparse (d) (caseq d ((1) 'a) ((1000) 'b) ((-5) 'c) (t 'z)))";
    let (mut m, i) = build(src);
    for d in [-5, 1, 1000, 7] {
        check_agree(&mut m, &i, "sparse", &[fx(d)]);
    }
}

#[test]
fn fixnum_inference_agrees_with_interpreter() {
    let src = "(defun euclid (a b)
                 (declare (fixnum a b))
                 (if (zerop b) a (euclid b (mod a b))))
               (defun arith (a b)
                 (declare (fixnum a b))
                 (list (+ a b 1) (- a b) (* a 3) (/ a b) (floor a b) (rem a b) (mod a b) (1+ a) (1- b) (- a)))";
    let (mut m, i) = build(src);
    for (a, b) in [(48, 18), (17, 5), (-48, 18), (7, -3), (0, 4)] {
        check_agree(&mut m, &i, "euclid", &[fx(a), fx(b)]);
        check_agree(&mut m, &i, "arith", &[fx(a), fx(b)]);
    }
    // Division by zero still traps in both.
    check_agree(&mut m, &i, "arith", &[fx(5), fx(0)]);
    // Overflow still traps in both.
    check_agree(&mut m, &i, "arith", &[fx(i64::MAX), fx(1)]);
}

#[test]
fn unrolled_loops_agree_with_the_interpreter() {
    let src = "(defun sum-down (n acc)
                 (declare (fixnum n acc))
                 (if (zerop n) acc (sum-down (- n 1) (+ acc n))))";
    // Compare unrolled-compiled vs default-compiled vs interpreter.
    let mut unrolled = s1lisp::Compiler::new();
    unrolled.options.opt_options.unroll = true;
    let (mut m_u, i_u) = s1lisp_suite::build_with(src, unrolled);
    let (mut m_d, _) = build(src);
    for n in [0i64, 1, 7, 100, 101] {
        let args = [fx(n), fx(0)];
        check_agree(&mut m_u, &i_u, "sum-down", &args);
        assert_eq!(
            m_u.run("sum-down", &args).unwrap(),
            m_d.run("sum-down", &args).unwrap()
        );
    }
    // The unrolled loop takes about half the tail transfers.
    m_u.stats.reset();
    m_d.stats.reset();
    m_u.run("sum-down", &[fx(1000), fx(0)]).unwrap();
    m_d.run("sum-down", &[fx(1000), fx(0)]).unwrap();
    assert!(
        m_u.stats.tail_calls * 2 <= m_d.stats.tail_calls + 2,
        "unrolled {} vs default {}",
        m_u.stats.tail_calls,
        m_d.stats.tail_calls
    );
}

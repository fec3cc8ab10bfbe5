//! Fidelity tests: the paper's own worked examples must come out of this
//! reproduction the way the paper shows them.

use s1lisp::Compiler;
use s1lisp_suite::{fl, fx, TESTFN};

/// §4.1: the quadratic example's conversion to the internal tree "would
/// back-translate into" the form printed in the paper — `let` as a call
/// to a manifest lambda, `cond` as nested `if`s, constants quoted.
#[test]
fn quadratic_back_translation_matches_section_4_1() {
    let mut c = Compiler::new();
    c.options.opt_options = s1lisp::OptOptions::none(); // conversion only
    c.compile_str(s1lisp_suite::QUADRATIC).unwrap();
    let f = c.function("quadratic").unwrap();
    let flat = f
        .converted
        .replace('\n', " ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    assert!(flat.starts_with("(lambda (a b c) ((lambda (d)"), "{flat}");
    assert!(flat.contains("(if (< d '0) '()"), "{flat}");
    assert!(flat.contains("(if (= d '0)"), "{flat}");
    assert!(flat.contains("(- (* b b) (* '4.0 a c))"), "{flat}");
}

/// Table 2: the internal tree uses exactly the paper's construct set.
#[test]
fn internal_constructs_match_table_2() {
    let mut c = Compiler::new();
    c.compile_str(
        "(defun all-constructs (x)
           (catch 'tag
             (prog (acc)
               top
               (setq acc (caseq x ((1) 'one) (t 'other)))
               (if (null acc) (go top))
               (return (progn (frotz (lambda () x)) acc)))))",
    )
    .unwrap();
    let f = c.function("all-constructs").unwrap();
    let mut seen: Vec<&'static str> = s1lisp_ast::subtree_nodes(&f.tree, f.tree.root)
        .into_iter()
        .map(|n| f.tree.kind(n).construct_name())
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let table2 = [
        "call", "caseq", "catcher", "go", "if", "lambda", "progbody", "progn", "quote", "return",
        "setq", "variable",
    ];
    for construct in &seen {
        assert!(table2.contains(construct), "{construct} is not in Table 2");
    }
    // And this one program exercises every construct.
    for construct in table2 {
        assert!(seen.contains(&construct), "missing {construct}");
    }
}

/// §7: the transcript of compiling `testfn` shows the same
/// transformations, in the same spirit, as the paper's debugging output.
#[test]
fn testfn_transcript_matches_section_7() {
    let mut c = Compiler::new();
    c.compile_str(TESTFN).unwrap();
    let f = c.function("testfn").unwrap();
    let t = &f.transcript;
    // "(+$f a b c) to be (+$f (+$f c b) a) courtesy of
    // META-EVALUATE-ASSOC-COMMUT-CALL"
    assert!(
        t.entries
            .iter()
            .any(|e| e.rule == "META-EVALUATE-ASSOC-COMMUT-CALL"
                && e.before == "(+$f a b c)"
                && e.after == "(+$f (+$f c b) a)"),
        "{t}"
    );
    assert!(
        t.entries
            .iter()
            .any(|e| e.rule == "META-EVALUATE-ASSOC-COMMUT-CALL"
                && e.before == "(*$f a b c)"
                && e.after == "(*$f (*$f c b) a)"),
        "{t}"
    );
    // "(*$f e 0.159154942) to be (*$f 0.159154942 e) courtesy of
    // CONSIDER-REVERSING-ARGUMENTS"
    assert!(
        t.entries
            .iter()
            .any(|e| e.rule == "CONSIDER-REVERSING-ARGUMENTS" && e.after == "(*$f '0.159154942 e)"),
        "{t}"
    );
    // The substitution for q and the final META-CALL-LAMBDA cleanup.
    assert!(
        t.entries.iter().any(|e| e.rule == "META-SUBSTITUTE"
            && e.after
                .contains("(progn (frotz d e (max$f d e)) (sinc$f (*$f '0.159154942 e)))")),
        "{t}"
    );
    assert!(t.count("META-CALL-LAMBDA") >= 1, "{t}");
    // The final optimized form is the paper's.
    let flat = f.optimized.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(flat.contains("(+$f (+$f c b) a)"), "{flat}");
    assert!(flat.contains("(*$f (*$f c b) a)"), "{flat}");
    assert!(flat.contains("(sinc$f (*$f '0.159154942 e))"), "{flat}");
}

/// Table 4's structural landmarks in the generated code for `testfn`.
#[test]
fn testfn_code_has_table_4_landmarks() {
    let mut c = Compiler::new();
    c.compile_str(TESTFN).unwrap();
    let code = c.disassemble("testfn").unwrap();
    // The dispatch on the number of arguments (Table 4's four-way jump).
    assert!(code.contains("DISPATCH"), "{code}");
    assert!(code.contains("TRAP"), "{code}");
    // Per-arity default initialization: the constant 3.0 appears in a
    // case body.
    assert!(code.contains("K0") || code.contains("3"), "{code}");
    // Pdl numbers: values installed in stack slots, then MOVP'd into
    // pointers (Table 4's "Install value for PDL-allocated number" /
    // "Pointer to PDL slot").
    assert!(code.contains("MOVP *:DTP-SingleFlonum"), "{code}");
    // The sine-of-cycles constant and instruction.
    assert!(code.contains("0.159154942"), "{code}");
    assert!(code.contains("FSIN"), "{code}");
    // The heap allocation for the returned value ("Generate new number
    // object") — a single-flonum cons, not a pdl number.
    assert!(code.contains("%SINGLE-FLONUM-CONS"), "{code}");
    assert!(code.contains("FMAX"), "{code}");
}

/// Table 4 behaviorally: two pdl numbers, one heap box for the return
/// value, per full-argument call.
#[test]
fn testfn_allocation_behavior() {
    let mut c = Compiler::new();
    c.compile_str(TESTFN).unwrap();
    let mut m = c.machine();
    // Warm up constants, then measure one call.
    m.run("testfn", &[fl(1.5), fl(2.5), fl(0.5)]).unwrap();
    let (pdl0, flo0) = (m.stats.pdl_numbers, m.stats.heap.flonums);
    m.run("testfn", &[fl(1.5), fl(2.5), fl(0.5)]).unwrap();
    let pdl = m.stats.pdl_numbers - pdl0;
    let flonums = m.stats.heap.flonums - flo0;
    // d, e, and the max$f argument live on the stack.
    assert_eq!(pdl, 3, "pdl numbers per call");
    // 3 injected arguments + 1 returned box; d/e/max never hit the heap.
    assert_eq!(flonums, 4, "heap flonums per call");
}

/// §2's headline: `exptl` "behaves iteratively (it cannot produce stack
/// overflow no matter how large n is)".
#[test]
fn exptl_cannot_overflow() {
    let mut c = Compiler::new();
    c.compile_str(s1lisp_suite::EXPTL).unwrap();
    let mut m = c.machine();
    // n = 2^62-ish: overflows the multiply long before the stack; use
    // x=1 so every square is 1 and only n shrinks.
    let v = m.run("exptl", &[fx(1), fx(1_i64 << 40), fx(1)]).unwrap();
    assert_eq!(v, fx(1));
    assert_eq!(m.stats.max_call_depth, 0);
    assert!(m.stats.tail_calls >= 40);
}

/// §5: the boolean short-circuit example generates jump code with no
/// run-time closures, equivalent to the paper's goto rendering.
#[test]
fn boolean_short_circuiting_is_jumps() {
    let mut c = Compiler::new();
    c.compile_str(
        "(defun f (a b c) (if (and a (or b c)) (e1) (e2)))
                   (defun e1 () 1)
                   (defun e2 () 2)",
    )
    .unwrap();
    let mut m = c.machine();
    let t = fx(1);
    let nil = s1lisp::Value::Nil;
    for (a, b, cc, want) in [
        (t.clone(), t.clone(), nil.clone(), 1),
        (t.clone(), nil.clone(), t.clone(), 1),
        (t.clone(), nil.clone(), nil.clone(), 2),
        (nil.clone(), t.clone(), t.clone(), 2),
    ] {
        let v = m.run("f", &[a, b, cc]).unwrap();
        assert_eq!(v, fx(want));
    }
    assert_eq!(m.stats.closures_made, 0, "E3: no closures constructed");
    // No function objects either: the joins are local jumps.
    let code = c.disassemble("f").unwrap();
    assert!(!code.contains("%CLOSURE-CONS"), "{code}");
}

/// The compiler comments in Table 4 call out the deep-binding search
/// cache; E10's mechanism must actually cut searches.
#[test]
fn special_caching_cuts_searches() {
    let src = s1lisp_suite::SPECIALS_LOOP;
    let mut on = Compiler::new();
    on.compile_str(src).unwrap();
    let mut off = Compiler::new();
    off.options.codegen_options.cache_specials = false;
    off.compile_str(src).unwrap();
    let mut m_on = on.machine();
    let mut m_off = off.machine();
    m_on.set_global("*step*", &fx(2)).unwrap();
    m_off.set_global("*step*", &fx(2)).unwrap();
    let a = m_on.run("accumulate", &[fx(500)]).unwrap();
    let b = m_off.run("accumulate", &[fx(500)]).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, fx(1000));
    assert!(
        m_on.stats.special_searches * 100 < m_off.stats.special_searches,
        "cached {} vs uncached {} searches",
        m_on.stats.special_searches,
        m_off.stats.special_searches
    );
    assert!(m_on.stats.special_cached > 0);
}

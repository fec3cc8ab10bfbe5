//! Prints the experiment reports (all of them, or those named on the
//! command line).
//!
//! ```sh
//! cargo run -p s1lisp-bench --bin report                   # everything
//! cargo run -p s1lisp-bench --bin report -- e4 e7          # selected
//! cargo run -p s1lisp-bench --bin report -- --json         # JSON array
//! cargo run -p s1lisp-bench --bin report -- --json e1 e12  # selected
//! cargo run -p s1lisp-bench --bin report -- --jobs 4 service
//! cargo run -p s1lisp-bench --bin report -- --passes       # schedule
//! cargo run -p s1lisp-bench --bin report -- --metrics      # unified metrics
//! cargo run -p s1lisp-bench --bin report -- --flame tak    # folded stacks
//! cargo run -p s1lisp-bench --bin report -- --chrome-trace # trace JSON
//! ```
//!
//! `--json` emits one machine-readable record per experiment (the shape
//! pinned by `tests/golden_json.rs`) instead of the human-readable text.
//! Special ids: `trap` selects the trap post-mortem demonstration
//! record; `service` batch-compiles the whole corpus through the
//! parallel compilation service (`--jobs N` workers, `--cache-dir D`
//! for a persistent artifact cache — run it twice with the same
//! directory and the second run reports `hit_rate=100%`);
//! `backend` reports the bytecode backend's per-function code footprint
//! and the oracle verdicts of a `both` batch (the S-1 side on the
//! simulator vs the `bytecode` side on the evaluator; `--backend
//! s1|bytecode|both` selects the service batch's code generator);
//! `serve` runs a scripted two-tenant session against an in-process
//! compile-server daemon and records every wire response;
//! `durability` runs a scripted crash drill — a durable burst, a torn
//! journal tail, a mid-log bit flip — and records the recovery verdict;
//! `service-fault` demonstrates the degraded path with an injected
//! optimizer panic; `guard` runs the guarded batch under a seeded
//! deterministic fault storm (phase validators, cache fault injection,
//! the oracle's reference and optimized sides); and `guard-miscompile` shows the oracle
//! catching a miscompile and shipping the unoptimized artifact.
//!
//! `--metrics` (or the `metrics` id under `--json`) runs the pinned
//! metrics workload — tak plus one service batch — and renders the
//! unified registry snapshot: simulator, heap/GC, pipeline, cache, and
//! service metrics in one table (or one schema-pinned record).
//!
//! `--flame <workload>` runs one perfbench kernel (tak, exptl, loopn,
//! horner, gc-stress) under the calling-context profiler and prints
//! folded stacks (`caller;callee cycles`) — pipe into `flamegraph.pl`
//! or load in speedscope.  `--chrome-trace` prints a Chrome trace-event
//! JSON array (a traced compile plus a 2-worker batch timeline) for
//! `chrome://tracing` / Perfetto.

use std::path::PathBuf;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let passes = args.iter().any(|a| a == "--passes");
    args.retain(|a| a != "--passes");
    let metrics = args.iter().any(|a| a == "--metrics");
    args.retain(|a| a != "--metrics");
    let chrome = args.iter().any(|a| a == "--chrome-trace");
    args.retain(|a| a != "--chrome-trace");
    if let Some(i) = args.iter().position(|a| a == "--flame") {
        args.remove(i);
        let Some(entry) = args.get(i).cloned() else {
            eprintln!("--flame wants a workload id (try tak)");
            std::process::exit(2);
        };
        match s1lisp_bench::flame_report(&entry) {
            Ok(folded) => print!("{folded}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if chrome {
        println!("{}", s1lisp_bench::chrome_trace());
        return;
    }
    if metrics {
        if json {
            println!(
                "{}",
                s1lisp_trace::json::Json::Arr(vec![s1lisp_bench::metrics_record()])
            );
        } else {
            print!("{}", s1lisp_bench::metrics_report());
        }
        return;
    }
    if passes {
        // The pass schedule is static — print it and stop.
        if json {
            println!(
                "{}",
                s1lisp_trace::json::Json::Arr(vec![s1lisp_bench::passes_record()])
            );
        } else {
            print!("{}", s1lisp_bench::passes_report());
        }
        return;
    }
    let mut jobs = 1usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut backend = s1lisp_driver::BackendSelect::S1;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs wants a number");
                    std::process::exit(2);
                }
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--cache-dir wants a path");
                    std::process::exit(2);
                }
            },
            "--backend" => match it
                .next()
                .and_then(|v| s1lisp_driver::BackendSelect::parse(&v))
            {
                Some(b) => backend = b,
                None => {
                    eprintln!("--backend wants s1, bytecode, or both");
                    std::process::exit(2);
                }
            },
            _ => rest.push(a),
        }
    }
    let selected: Vec<String> = if rest.is_empty() {
        s1lisp_bench::all_experiments()
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    } else {
        rest
    };
    if json {
        let records: Vec<s1lisp_trace::json::Json> = selected
            .iter()
            .filter_map(|id| {
                let rec = match id.as_str() {
                    "trap" => Some(s1lisp_bench::trap_record()),
                    "metrics" => Some(s1lisp_bench::metrics_record()),
                    "serve" => Some(s1lisp_bench::serve_record()),
                    "durability" => Some(s1lisp_bench::durability_record()),
                    "service" => Some(s1lisp_bench::service_record_for(
                        jobs,
                        cache_dir.clone(),
                        backend,
                    )),
                    "backend" => Some(s1lisp_bench::backend_record()),
                    "service-fault" | "guard" | "guard-miscompile" => {
                        // Injected panics are the record's subject;
                        // keep their backtraces off stderr.
                        let prev = std::panic::take_hook();
                        std::panic::set_hook(Box::new(|_| {}));
                        let rec = match id.as_str() {
                            "service-fault" => s1lisp_bench::service_fault_record(),
                            "guard" => s1lisp_bench::guard_record(),
                            _ => s1lisp_bench::guard_miscompile_record(),
                        };
                        std::panic::set_hook(prev);
                        Some(rec)
                    }
                    _ => s1lisp_bench::json_record(id),
                };
                if rec.is_none() {
                    eprintln!(
                        "unknown experiment {id} (want e1..e12, trap, serve, durability, \
                         service, backend, or guard)"
                    );
                }
                rec
            })
            .collect();
        println!("{}", s1lisp_trace::json::Json::Arr(records));
        return;
    }
    for id in selected {
        if id == "service" {
            println!("==================================================================");
            println!("SERVICE — parallel batch compile of the experiment corpus");
            println!("==================================================================");
            print!("{}", s1lisp_bench::service_report(jobs, cache_dir.clone()));
            continue;
        }
        match s1lisp_bench::run_experiment(&id) {
            Some(report) => {
                let title = s1lisp_bench::all_experiments()
                    .into_iter()
                    .find(|e| e.id == id)
                    .map(|e| e.title)
                    .unwrap_or("");
                println!("==================================================================");
                println!("{} — {}", id.to_uppercase(), title);
                println!("==================================================================");
                println!("{report}");
            }
            None => eprintln!("unknown experiment {id} (want e1..e12 or service)"),
        }
    }
}

//! End-to-end benchmark of the s1lisp compiler, its batch service and
//! its compile daemon.  See `README.md` beside this crate.
//!
//! ```text
//! e2ebench --workload kernels|batch|serve --seed N --seconds S --trace 0|1
//!          [--spec BENCHMARK.json] [--serve-bin PATH] [--out DIR]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the metrics the
//! spec lists (`end_to_end` untraced, `per_layer` traced).  The line before it
//! is the full record (workload, seed, host fingerprint, input digests,
//! cross-checks), which is also written to `--out` together with the
//! spans of a traced run.

mod batch;
mod kernels;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use s1lisp_trace::json::{self, Json};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
    spec: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out = PathBuf::from(".bench_out");
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value()? == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            "--spec" => spec = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !["kernels", "batch", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let serve_bin = serve_bin.unwrap_or_default();
    if workload == "serve" && !serve_bin.is_file() {
        return Err("the serve workload needs --serve-bin PATH to the built daemon".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
        out,
        spec,
    })
}

/// The metric names and units `BENCHMARK.json` lists for a run:
/// `end_to_end` untraced, `per_layer` traced.
fn spec_metrics(path: &PathBuf, trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = spec
        .get(if trace { "per_layer" } else { "end_to_end" })
        .and_then(Json::as_arr)
        .ok_or("the spec lists no metrics")?;
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| "a metric without name or unit".to_string())
        })
        .collect()
}

fn main() -> ExitCode {
    let (args, wanted) = match parse_args().and_then(|a| {
        let wanted = spec_metrics(&a.spec, a.trace)?;
        Ok((a, wanted))
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "kernels" => kernels::run(args.seed, args.seconds, args.trace),
        "batch" => batch::run(args.seed, args.seconds, args.trace),
        _ => match serve::run(
            &args.serve_bin,
            &args.out,
            args.seed,
            args.seconds,
            args.trace,
        ) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: serve workload: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if outcome.attempted == 0 {
        eprintln!("e2ebench: no operation completed");
        return ExitCode::FAILURE;
    }
    let correct = outcome.checks_ok && outcome.failed == 0;
    let entry = |value: f64, unit: &str| {
        Json::Obj(vec![
            ("value".to_string(), Json::Float(value)),
            ("unit".to_string(), Json::str(unit)),
        ])
    };
    // The record keeps everything measured; the result has exactly the
    // spec's metrics, in its order.  A layer this workload does not
    // reach reads 0 in a traced result; an end-to-end metric must be
    // measured.
    let measured = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), entry(m.value, m.unit)))
            .collect(),
    );
    let mut result_metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        match outcome.metrics.iter().find(|m| &m.name == name) {
            Some(m) => result_metrics.push((name.clone(), entry(m.value, m.unit))),
            None if args.trace => result_metrics.push((name.clone(), entry(0.0, unit))),
            None => {
                eprintln!("e2ebench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics = Json::Obj(result_metrics);
    let mut record = vec![
        ("workload".to_string(), Json::str(args.workload.clone())),
        ("seed".to_string(), Json::uint(args.seed)),
        ("seconds".to_string(), Json::Float(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), util::host_fingerprint()),
    ];
    record.extend(outcome.record);
    record.push(("metrics".to_string(), measured));
    let record = Json::Obj(vec![("record".to_string(), Json::Obj(record))]);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(args.out.join(format!("{stem}.json")), format!("{record}\n"))?;
        if args.trace {
            let spans = util::spans_json(&outcome.spans);
            std::fs::write(
                args.out.join(format!("{stem}.spans.json")),
                format!("{spans}\n"),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("e2ebench: writing {}: {e}", args.out.display());
    }

    println!("{record}");
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::uint(outcome.attempted)),
        ("failed".to_string(), Json::uint(outcome.failed)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

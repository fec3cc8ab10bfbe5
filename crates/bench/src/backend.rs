//! The `backend` report: the portable bytecode backend over the
//! experiment corpus, cross-checked against S-1 (`report --json
//! backend`).
//!
//! The record has two halves.  The *functions* table compiles every
//! corpus unit with the bytecode backend and reports each function's
//! code footprint (fixed-width instructions, so `code_bytes` is
//! `insns × 8`) and constant-pool size.  The *oracle* table is a
//! [`BackendSelect::Both`] batch: the S-1 artifacts ship, and every
//! oracle case runs on both engines — any disagreement appears as a
//! `miscompile` incident and bumps the top-level `miscompiles` count
//! the CI smoke greps for.  The shape is pinned by
//! `tests/golden/backend_schema.txt`.

use s1lisp::{BackendKind, Compiler};
use s1lisp_driver::{
    BackendSelect, BatchResult, CompileService, OracleVerdict, ServiceConfig, SourceUnit,
};
use s1lisp_trace::json::Json;

use crate::service::{oracle_cases, service_units};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Batch-compiles the corpus in cross-backend oracle mode
/// ([`BackendSelect::Both`]): S-1 artifacts, with every oracle case
/// also run on the bytecode evaluator.
pub fn backend_batch() -> BatchResult {
    let cfg = ServiceConfig {
        jobs: 2,
        backend: BackendSelect::Both,
        oracle: oracle_cases(),
        ..ServiceConfig::default()
    };
    CompileService::new(cfg).compile_batch(&service_units())
}

/// One `functions` row per bytecode proto a unit defines (closure
/// protos included — they are code the backend emitted).
fn unit_rows(unit: &SourceUnit, rows: &mut Vec<Json>) {
    let mut c = Compiler::new();
    c.backend = BackendKind::Bytecode;
    c.compile_str(&unit.source)
        .unwrap_or_else(|e| panic!("{} compiles under bytecode: {e}", unit.name));
    let module = c.bytecode();
    for name in module.names() {
        let ix = module.lookup(name).expect("listed name resolves");
        let proto = module.proto(ix);
        rows.push(obj(vec![
            ("unit", Json::str(&unit.name)),
            ("function", Json::str(name)),
            ("backend", Json::str(BackendKind::Bytecode.name())),
            ("insns", Json::uint(proto.code.len() as u64)),
            ("code_bytes", Json::uint(proto.code_bytes() as u64)),
            ("consts", Json::uint(proto.consts.len() as u64)),
        ]));
    }
}

/// The machine-readable `backend` record.
pub fn backend_record() -> Json {
    let mut functions = Vec::new();
    for unit in &service_units() {
        unit_rows(unit, &mut functions);
    }
    let batch = backend_batch();
    let oracle = batch.oracle.iter().map(OracleVerdict::to_json).collect();
    let miscompiles = batch
        .incidents
        .iter()
        .filter(|i| i.kind == s1lisp_driver::IncidentKind::Miscompile)
        .count() as u64;
    obj(vec![
        ("id", Json::str("backend")),
        (
            "title",
            Json::str("Bytecode backend footprint and cross-backend oracle"),
        ),
        ("backend", Json::str(BackendSelect::Both.as_str())),
        ("functions", Json::Arr(functions)),
        ("oracle", Json::Arr(oracle)),
        ("miscompiles", Json::uint(miscompiles)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_trace::json;

    #[test]
    fn cross_backend_oracle_agrees_over_the_corpus() {
        let batch = backend_batch();
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert!(!batch.oracle.is_empty());
        for v in &batch.oracle {
            assert!(
                v.matched,
                "{}: s1={:?} bytecode={:?}",
                v.entry,
                v.outcome("s1"),
                v.outcome("bytecode")
            );
        }
        assert!(batch
            .incidents
            .iter()
            .all(|i| i.kind != s1lisp_driver::IncidentKind::Miscompile));
        // The shipped artifacts are the S-1 side.
        assert!(batch.artifacts.iter().all(|a| a.backend == "s1"));
    }

    #[test]
    fn injected_bytecode_miscompile_is_caught_and_ships_s1() {
        use s1lisp_driver::{FaultPlan, FaultSite, IncidentKind, OracleCase, PipelineOptions};
        // Every oracle case's bytecode result is perturbed, so the
        // cross-backend oracle must disagree, record a miscompile, and
        // leave the S-1 artifact as the shipped one.
        let cfg = ServiceConfig {
            jobs: 2,
            backend: BackendSelect::Both,
            options: PipelineOptions {
                fault_plan: Some(FaultPlan::new(7).arm(FaultSite::Miscompile, 1000)),
                ..PipelineOptions::default()
            },
            oracle: vec![OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"])],
            ..ServiceConfig::default()
        };
        let batch = CompileService::new(cfg).compile_batch(&service_units());
        assert_eq!(batch.oracle.len(), 1);
        let v = &batch.oracle[0];
        assert!(v.injected);
        assert!(
            !v.matched,
            "s1={:?} bytecode={:?}",
            v.outcome("s1"),
            v.outcome("bytecode")
        );
        let incident = batch
            .incidents
            .iter()
            .find(|i| i.kind == IncidentKind::Miscompile)
            .expect("a miscompile incident");
        assert_eq!(incident.function, "quadratic");
        assert!(incident.recovered, "{incident:?}");
        assert_eq!(batch.artifact("quadratic").unwrap().backend, "s1");
    }

    #[test]
    fn record_counts_functions_and_parses() {
        let rec = backend_record();
        json::parse(&rec.to_string()).expect("well-formed JSON");
        let functions = rec.get("functions").unwrap().as_arr().unwrap();
        assert!(functions.len() >= 12, "{}", functions.len());
        // Closure protos ride along (e11's make-adder lambda).
        assert!(functions.iter().any(|f| f
            .get("function")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("λ")));
        for f in functions {
            let insns = f.get("insns").unwrap().as_int().unwrap();
            let bytes = f.get("code_bytes").unwrap().as_int().unwrap();
            assert_eq!(bytes, insns * 8, "fixed-width encoding");
        }
        assert_eq!(rec.get("miscompiles").unwrap().as_int(), Some(0));
    }
}

//! Tier-1 pins for guarded compilation (`guard` in
//! `ServiceConfig::options`): the phase validators, the seeded
//! fault-injection facility, and the oracle.
//!
//! The contracts pinned here:
//! * a guarded batch over the corpus is **byte-identical** to an
//!   unguarded one — the validators observe, they never perturb;
//! * a seeded storm arming *every* fault site completes with **zero
//!   lost functions**: each fault becomes a contained retry or a
//!   recovered `Incident`, and the same seed replays the same incident
//!   set;
//! * an injected miscompile is caught by the oracle, which ships the
//!   transformations-off reference artifact marked degraded;
//! * each (backend, guard) configuration gets the oracle sides it
//!   implies, agreeing when clean and each disagreeing when perturbed.

use std::path::PathBuf;
use std::time::Duration;

use s1lisp_bench::{oracle_cases, service_units};
use s1lisp_driver::{
    BackendSelect, BatchResult, CompileService, FaultPlan, FaultSite, IncidentKind, OracleCase,
    Outcome, PipelineOptions, ServiceConfig,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s1lisp-guardtest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn storm_config(seed: u64, dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        jobs: 4,
        options: PipelineOptions {
            guard: true,
            pass_budget: Some(Duration::from_millis(400)),
            fault_plan: Some(
                FaultPlan::new(seed)
                    .arm(FaultSite::PhasePanic, 10)
                    .arm(FaultSite::Overrun, 60)
                    .arm(FaultSite::CacheRead, 500)
                    .arm(FaultSite::CacheWrite, 500)
                    .arm(FaultSite::CacheCorrupt, 500)
                    .arm(FaultSite::SimTrap, 200)
                    .arm(FaultSite::Miscompile, 200),
            ),
            ..PipelineOptions::default()
        },
        // No disk eviction cap here: the replay assertion below needs
        // deterministic cache contents, and mtime-ordered sweeps under
        // parallel writes evict a scheduling-dependent subset — which
        // would turn fault-site hits (pure per key) into a race on
        // whether the key was still cached.  Eviction itself is pinned
        // by the cache unit tests.
        cache_dir: dir,
        oracle: vec![
            OracleCase::new("exptl", ["3", "10", "1"]),
            OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"]),
            OracleCase::new("tak", ["10", "6", "3"]),
        ],
        ..ServiceConfig::default()
    }
}

fn storm_batch(seed: u64, dir: Option<PathBuf>) -> BatchResult {
    // Warm the disk tier with a clean pass so read-side faults have
    // bytes to fail on and corrupt.
    if let Some(d) = &dir {
        CompileService::new(ServiceConfig {
            jobs: 2,
            cache_dir: Some(d.clone()),
            ..ServiceConfig::default()
        })
        .compile_batch(&service_units());
    }
    CompileService::new(storm_config(seed, dir)).compile_batch(&service_units())
}

#[test]
fn guard_validators_do_not_perturb_artifacts() {
    let plain = CompileService::new(ServiceConfig::with_jobs(2)).compile_batch(&service_units());
    let guarded = CompileService::new(ServiceConfig {
        jobs: 2,
        options: PipelineOptions {
            guard: true,
            ..PipelineOptions::default()
        },
        ..ServiceConfig::default()
    })
    .compile_batch(&service_units());
    assert!(guarded.failures.is_empty(), "{:?}", guarded.failures);
    assert!(guarded.incidents.is_empty(), "{:?}", guarded.incidents);
    assert_eq!(plain.render_artifacts(), guarded.render_artifacts());
    let report = guarded.guard.expect("guard report");
    assert!(report.contained);
    assert!(report.armed.is_empty());
}

#[test]
fn full_fault_storm_loses_no_functions_and_replays_from_its_seed() {
    let dir = tempdir("storm");
    let batch = quiet_panics(|| storm_batch(23, Some(dir.clone())));
    // Zero lost functions: one artifact per job, no failures, every
    // incident recovered.
    assert_eq!(batch.artifacts.len(), batch.stats.functions);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert!(
        batch.incidents.iter().all(|i| i.recovered),
        "{:?}",
        batch.incidents
    );
    assert!(batch.records.iter().all(|r| r.outcome != Outcome::Failed));
    let report = batch.guard.as_ref().expect("guard report");
    assert!(report.contained);
    assert_eq!(report.seed, 23);
    assert_eq!(
        report.armed.len(),
        7,
        "every site armed: {:?}",
        report.armed
    );
    // The storm actually stormed: injection left visible traces.
    let cache = &batch.stats.cache;
    assert!(
        cache.io_retries + cache.io_errors + cache.corrupt_reads > 0,
        "{cache:?}"
    );
    // Replay: the same seed reproduces the same incident set.
    let dir2 = tempdir("storm-replay");
    let replay = quiet_panics(|| storm_batch(23, Some(dir2.clone())));
    let summary = |b: &BatchResult| {
        let mut v: Vec<(String, &'static str)> = b
            .incidents
            .iter()
            .map(|i| (i.function.clone(), i.kind.as_str()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(summary(&batch), summary(&replay));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn injected_miscompile_ships_the_reference_artifact() {
    let cfg = ServiceConfig {
        jobs: 2,
        options: PipelineOptions {
            guard: true,
            fault_plan: Some(FaultPlan::new(1).arm(FaultSite::Miscompile, 1000)),
            ..PipelineOptions::default()
        },
        oracle: vec![OracleCase::new("exptl", ["3", "10", "1"])],
        ..ServiceConfig::default()
    };
    let batch = CompileService::new(cfg).compile_batch(&service_units());
    let incident = batch
        .incidents
        .iter()
        .find(|i| i.kind == IncidentKind::Miscompile)
        .expect("oracle flags the mismatch");
    assert_eq!(incident.function, "exptl");
    assert!(incident.recovered);
    // The shipped artifact is the transformations-off reference.
    let shipped = batch.artifact("exptl").expect("artifact still present");
    assert!(shipped.degraded);
    assert_eq!(shipped.transformations, 0);
    let report = batch.guard.expect("guard report");
    assert!(report.contained);
    let verdict = &batch.oracle[0];
    assert!(!verdict.matched);
    assert!(verdict.injected);
    // The record reflects the downgrade.
    let record = batch
        .records
        .iter()
        .find(|r| r.function == "exptl")
        .unwrap();
    assert_eq!(record.outcome, Outcome::Degraded);
}

#[test]
fn clean_oracle_agrees_on_every_case() {
    let cfg = ServiceConfig {
        jobs: 2,
        options: PipelineOptions {
            guard: true,
            ..PipelineOptions::default()
        },
        oracle: vec![
            OracleCase::new("exptl", ["3", "10", "1"]),
            OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"]),
            OracleCase::new("loopn", ["1000"]),
            OracleCase::new("sum-horner", ["200"]),
            OracleCase::new("tak", ["10", "6", "3"]),
        ],
        ..ServiceConfig::default()
    };
    let batch = CompileService::new(cfg).compile_batch(&service_units());
    assert!(batch.incidents.is_empty(), "{:?}", batch.incidents);
    assert!(batch.guard.is_some(), "guard report");
    assert_eq!(batch.oracle.len(), 5);
    for v in &batch.oracle {
        assert!(
            v.matched,
            "{}: {:?} vs {:?}",
            v.entry,
            v.outcome("optimized"),
            v.outcome("reference")
        );
        assert!(!v.injected);
    }
}

/// One oracle over every (backend, guard) configuration that has at
/// least two sides: the side labels it implies, agreement on a clean
/// run, and — with every non-reference side perturbed — one miscompile
/// per such side, with the reference's artifact shipped whenever the
/// shipping side (`optimized` under guard) disagreed.
#[test]
fn oracle_sides_follow_the_configuration() {
    let table: [(BackendSelect, bool, &[&str]); 4] = [
        (BackendSelect::S1, true, &["reference", "optimized"]),
        (BackendSelect::Both, false, &["s1", "bytecode"]),
        (
            BackendSelect::Both,
            true,
            &["reference", "optimized", "bytecode"],
        ),
        (BackendSelect::Bytecode, true, &["reference", "optimized"]),
    ];
    for (backend, guard, labels) in table {
        let config = |fault_plan: Option<FaultPlan>| ServiceConfig {
            jobs: 2,
            backend,
            options: PipelineOptions {
                guard,
                fault_plan,
                ..PipelineOptions::default()
            },
            oracle: oracle_cases(),
            ..ServiceConfig::default()
        };
        let what = format!("{} guard={guard}", backend.as_str());

        let clean = CompileService::new(config(None)).compile_batch(&service_units());
        assert!(clean.failures.is_empty(), "{what}: {:?}", clean.failures);
        assert!(clean.incidents.is_empty(), "{what}: {:?}", clean.incidents);
        assert_eq!(clean.oracle.len(), oracle_cases().len(), "{what}");
        for v in &clean.oracle {
            let got: Vec<&str> = v.sides.iter().map(|(label, _)| *label).collect();
            assert_eq!(got, labels, "{what}");
            assert!(v.matched, "{what} {}: {:?}", v.entry, v.sides);
            assert!(!v.injected, "{what}");
        }

        let plan = FaultPlan::new(1).arm(FaultSite::Miscompile, 1000);
        let faulted = CompileService::new(config(Some(plan))).compile_batch(&service_units());
        assert_eq!(faulted.oracle.len(), oracle_cases().len(), "{what}");
        for v in &faulted.oracle {
            assert!(
                !v.matched && v.injected,
                "{what} {}: {:?}",
                v.entry,
                v.sides
            );
            let miscompiles = faulted
                .incidents
                .iter()
                .filter(|i| i.kind == IncidentKind::Miscompile && i.function == v.entry)
                .count();
            assert_eq!(miscompiles, labels.len() - 1, "{what} {}", v.entry);
            let shipped = faulted.artifact(&v.entry).expect("artifact still present");
            assert_eq!(shipped.backend, backend.primary().name(), "{what}");
            if guard {
                // `optimized` ships and disagreed: the transformations-off
                // reference replaces it.
                assert!(shipped.degraded, "{what} {}", v.entry);
                assert_eq!(shipped.transformations, 0, "{what} {}", v.entry);
            } else {
                // The reference side itself ships, untouched.
                assert_eq!(Some(shipped), clean.artifact(&v.entry), "{what}");
            }
        }
    }
}

//! Compile-server contracts: byte-identity with `compile_batch`,
//! tenant isolation, backpressure, fairness, and incident-budget
//! demotion.

use s1lisp::Compiler;
use s1lisp_bench::service_units;
use s1lisp_driver::{
    CompileService, FaultPlan, FaultSite, PipelineOptions, ServiceConfig, SourceUnit,
};
use s1lisp_server::{
    Body, CompileServer, Op, QueueConfig, ServeClient, ServerConfig, ServerHandle,
};

fn start(config: ServerConfig) -> ServerHandle {
    CompileServer::new(config)
        .serve_tcp(0)
        .expect("bind an ephemeral port")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    ServeClient::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect")
}

fn artifact_bytes(resp: &s1lisp_server::Response) -> Vec<String> {
    let Body::Compile { artifacts, .. } = &resp.body else {
        panic!("compile body expected, got ok={} {:?}", resp.ok, resp.error);
    };
    artifacts.iter().map(|a| a.to_json().to_string()).collect()
}

/// Two tenants concurrently compile the whole experiment corpus through
/// the daemon (a fresh namespace per unit, mirroring `compile_batch`'s
/// no-leak-across-units contract) and every artifact is byte-identical
/// to a plain `compile_batch` of the same corpus — the acceptance
/// contract for the server being "the same compiler, resident".
#[test]
fn server_artifacts_are_byte_identical_to_compile_batch() {
    let reference: Vec<String> = CompileService::new(ServiceConfig::default())
        .compile_batch(&service_units())
        .artifacts
        .iter()
        .map(|a| a.to_json().to_string())
        .collect();
    assert!(!reference.is_empty());

    let handle = start(ServerConfig::default());
    let port = handle.port();
    let clients: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|who| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).unwrap();
                let mut served = Vec::new();
                for (i, unit) in service_units().iter().enumerate() {
                    // A fresh tenant per unit: units must not see each
                    // other's proclaims, exactly as in `compile_batch`.
                    assert!(client.hello(&format!("{who}-{i}"), None).unwrap().ok);
                    let resp = client.compile(&unit.name, &unit.source).unwrap();
                    assert!(resp.ok, "{who} unit {}: {:?}", unit.name, resp.error);
                    served.extend(artifact_bytes(&resp));
                }
                served
            })
        })
        .collect();
    for client in clients {
        let served = client.join().expect("client thread");
        assert_eq!(
            served, reference,
            "served artifacts diverge from compile_batch"
        );
    }
    handle.shutdown();
    handle.join();
}

/// Conflicting `proclaim`s give byte-different, each-internally-
/// consistent artifacts: the tenant that proclaimed `cell` special
/// gets deep-binding code (`%SPECBIND`), the tenant that didn't gets a
/// lexical `let`, and each matches what a dedicated compiler with that
/// namespace produces.  (A plain name: starred names are special by
/// convention for every tenant, so they can't tell namespaces apart.)
#[test]
fn conflicting_specials_isolate_tenant_namespaces() {
    const DEF: &str = "(defun probe (x) (let ((cell (+ x 1))) (use cell)))";
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    assert!(client.hello("special-k", None).unwrap().ok);
    assert!(
        client
            .compile("decl", "(proclaim (quote (special cell)))")
            .unwrap()
            .ok
    );
    let special = client.compile("probe", DEF).unwrap();
    let special_bytes = artifact_bytes(&special);

    assert!(client.hello("lexical", None).unwrap().ok);
    let lexical = client.compile("probe", DEF).unwrap();
    let lexical_bytes = artifact_bytes(&lexical);

    assert_ne!(
        special_bytes, lexical_bytes,
        "the proclaim must change compiled code"
    );

    // Each tenant's artifact is exactly what a single-tenant compile of
    // its namespace produces: the special tenant matches a unit that
    // proclaims then defines; the lexical tenant matches the bare unit.
    let service = CompileService::new(ServiceConfig::default());
    let special_ref = service.compile_batch(&[SourceUnit::new(
        "probe",
        format!("(proclaim (quote (special cell)))\n{DEF}"),
    )]);
    let lexical_ref = service.compile_batch(&[SourceUnit::new("probe", DEF)]);
    assert_eq!(
        special_bytes,
        special_ref
            .artifacts
            .iter()
            .map(|a| a.to_json().to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        lexical_bytes,
        lexical_ref
            .artifacts
            .iter()
            .map(|a| a.to_json().to_string())
            .collect::<Vec<_>>()
    );

    // And the single-shot tenant constructor agrees on the code.
    let mut c = Compiler::for_tenant(["cell"]);
    c.compile_str(DEF).expect("serial compile");
    let serial = c.artifact("probe").expect("artifact");
    assert_eq!(serial.assembly, special_ref.artifacts[0].assembly);

    handle.shutdown();
    handle.join();
}

/// `run` executes the code the tenant was served.  `g` was compiled
/// after `(defvar cell 5)`, so its `let` deep-binds `cell` and `f`
/// sees 10; a run that forgot the tenant's specials between units would
/// bind `cell` lexically and answer 5.
#[test]
fn run_answers_with_the_code_that_was_served() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.hello("cells", None).unwrap().ok);
    for (unit, source) in [
        ("decl", "(defvar cell 5)"),
        ("f", "(defun f () cell)"),
        ("g", "(defun g () (let ((cell 10)) (f)))"),
    ] {
        let resp = client.compile(unit, source).unwrap();
        assert!(resp.ok, "{unit}: {:?}", resp.error);
    }
    let served = client.explain("g").unwrap();
    let Body::Explain { dossier } = &served.body else {
        panic!("explain body expected: {served:?}");
    };
    assert!(dossier.contains("(%SPECBIND cell"), "{dossier}");
    let ran = client.run("g", &[]).unwrap();
    assert_eq!(ran.body, Body::Run { value: "10".into() });
    handle.shutdown();
    handle.join();
}

/// Tenants never warm-hit each other's cache entries: recompiling the
/// same source as the same tenant hits, compiling it as another tenant
/// does not — while still producing byte-identical artifacts.
#[test]
fn no_cross_tenant_cache_hits() {
    const SRC: &str = "(defun shared (x) (* x (+ x 1)))";
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    assert!(client.hello("first", None).unwrap().ok);
    let cold = client.compile("u", SRC).unwrap();
    let before_warm = handle.metrics_snapshot().counter("cache.hits").unwrap_or(0);
    let warm = client.compile("u", SRC).unwrap();
    let after_warm = handle.metrics_snapshot().counter("cache.hits").unwrap_or(0);
    assert!(
        after_warm > before_warm,
        "same tenant, same source must warm-hit"
    );
    assert_eq!(artifact_bytes(&cold), artifact_bytes(&warm));

    assert!(client.hello("second", None).unwrap().ok);
    let other = client.compile("u", SRC).unwrap();
    let after_other = handle.metrics_snapshot().counter("cache.hits").unwrap_or(0);
    assert_eq!(
        after_other, after_warm,
        "a different tenant must not hit the first tenant's entries"
    );
    // Same code nonetheless: isolation is about observability, not
    // output divergence.
    assert_eq!(artifact_bytes(&cold), artifact_bytes(&other));

    handle.shutdown();
    handle.join();
}

/// A full queue answers with a retry hint; nothing is silently
/// dropped: every pipelined request gets exactly one response, either
/// served or rejected.
#[test]
fn queue_full_rejects_with_retry_after_and_drops_nothing() {
    let handle = start(ServerConfig {
        workers: 1,
        queue: QueueConfig {
            per_tenant: 2,
            total: 2,
            quantum: 4,
        },
        service: ServiceConfig {
            fuel: 20_000_000,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    assert!(client.hello("burst", None).unwrap().ok);
    assert!(
        client
            .compile("spin", "(defun spin (n) (if (= n 0) 0 (spin (- n 1))))")
            .unwrap()
            .ok
    );
    // Eight fuel-bound runs into a 1-worker, depth-2 queue: the first
    // occupies the worker, two queue, the rest must bounce.
    let ids: Vec<u64> = (0..8)
        .map(|_| {
            client
                .send(Op::Run {
                    entry: "spin".into(),
                    args: vec!["100000000".into()],
                })
                .unwrap()
        })
        .collect();
    let responses: Vec<_> = ids
        .into_iter()
        .map(|id| client.recv_id(id).unwrap())
        .collect();
    let served = responses.iter().filter(|r| r.ok).count();
    let rejected: Vec<_> = responses.iter().filter(|r| !r.ok).collect();
    assert_eq!(served + rejected.len(), 8, "every request got a response");
    // At least the queue's depth is served; whether the worker claimed
    // one mid-burst (making it three) is a scheduling race.
    assert!(served >= 2, "queue capacity must serve");
    assert!(!rejected.is_empty(), "the burst must overflow the queue");
    for r in rejected {
        assert!(r.retry_after_ms > 0, "rejections carry a retry hint");
        assert_eq!(r.error.as_deref(), Some("queue full"));
    }
    // Served runs all hit the fuel ceiling — contained, not hung.
    for r in responses.iter().filter(|r| r.ok) {
        let Body::Run { value } = &r.body else {
            panic!("run body expected");
        };
        assert!(
            value.starts_with("trap:"),
            "fuel must bound the run: {value}"
        );
    }
    handle.shutdown();
    handle.join();
}

/// Deficit-round-robin end to end: a tenant flooding the only worker
/// with slow runs cannot starve a light tenant's requests.
#[test]
fn flooding_tenant_cannot_starve_light_tenant() {
    let handle = start(ServerConfig {
        workers: 1,
        service: ServiceConfig {
            fuel: 20_000_000,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let port = handle.port();
    let flooder = std::thread::spawn(move || {
        let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).unwrap();
        assert!(client.hello("flood", None).unwrap().ok);
        assert!(
            client
                .compile("spin", "(defun spin (n) (if (= n 0) 0 (spin (- n 1))))")
                .unwrap()
                .ok
        );
        let ids: Vec<u64> = (0..6)
            .map(|_| {
                client
                    .send(Op::Run {
                        entry: "spin".into(),
                        args: vec!["100000000".into()],
                    })
                    .unwrap()
            })
            .collect();
        for id in ids {
            client.recv_id(id).unwrap();
        }
        std::time::Instant::now()
    });
    // Give the flood a head start so its backlog is queued first.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut light = connect(&handle);
    assert!(light.hello("light", None).unwrap().ok);
    assert!(light.ping().unwrap().ok);
    assert!(light.ping().unwrap().ok);
    let light_done = std::time::Instant::now();
    let flood_done = flooder.join().expect("flooder thread");
    assert!(
        light_done < flood_done,
        "light tenant waited behind the whole flood backlog"
    );
    handle.shutdown();
    handle.join();
}

/// An exhausted incident budget demotes the tenant: later compiles run
/// with transformations off (clean artifacts, `degraded` SLO flag on),
/// while other tenants keep full optimization.
#[test]
fn incident_budget_demotes_only_the_offending_tenant() {
    const OPT: &str = "(defun folds (x) (if (null nil) (+ x 1) (- x 1)))";
    let handle = start(ServerConfig {
        incident_budget: 1,
        service: ServiceConfig {
            options: PipelineOptions {
                fault_plan: Some(
                    FaultPlan::new(0)
                        .arm(FaultSite::PhasePanic, 1000)
                        .only_for("boom"),
                ),
                ..PipelineOptions::default()
            },
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    assert!(client.hello("victim", None).unwrap().ok);

    let faulted = client.compile("boom", "(defun boom (x) (* x x))").unwrap();
    assert!(faulted.ok, "the incident is contained: {:?}", faulted.error);
    assert_eq!(faulted.slo.incident_kind.as_deref(), Some("panic"));
    assert!(faulted.slo.degraded);
    let Body::Compile {
        artifacts,
        incidents,
        ..
    } = &faulted.body
    else {
        panic!("compile body expected");
    };
    assert!(incidents[0].recovered);
    assert!(artifacts[0].degraded, "the recovery artifact is marked");

    // The victim is now demoted: clean compiles, transformations off.
    let demoted = client.compile("opt", OPT).unwrap();
    assert!(demoted.ok);
    assert!(demoted.slo.degraded, "demotion shows on every response");
    let Body::Compile { artifacts, .. } = &demoted.body else {
        panic!("compile body expected");
    };
    assert_eq!(artifacts[0].transformations, 0);
    assert!(
        !artifacts[0].degraded,
        "demoted compiles are clean, not faulted"
    );

    // A well-behaved tenant on the same server still optimizes.
    assert!(client.hello("bystander", None).unwrap().ok);
    let full = client.compile("opt", OPT).unwrap();
    assert!(!full.slo.degraded);
    let Body::Compile { artifacts, .. } = &full.body else {
        panic!("compile body expected");
    };
    assert!(
        artifacts[0].transformations > 0,
        "the bystander keeps source-level optimization"
    );

    handle.shutdown();
    handle.join();
}

/// A demoted tenant's `run` replays its sources under the options its
/// compiles ran with — transformations off — not the full optimizer.
/// With the fuel set between the optimized and the unoptimized
/// instruction counts of one call (measured in-process), the demoted tenant runs out of fuel
/// while a healthy tenant answers.
#[test]
fn demoted_tenant_runs_with_transformations_off() {
    const SPIN: &str = "(defun spin (n acc)
                          (if (zerop n) acc (spin (- n 1) (+ acc (if (null nil) 1 2)))))";
    let service = ServiceConfig {
        options: PipelineOptions {
            fault_plan: Some(
                FaultPlan::new(0)
                    .arm(FaultSite::PhasePanic, 1000)
                    .only_for("boom"),
            ),
            ..PipelineOptions::default()
        },
        ..ServiceConfig::default()
    };
    let insns = |options: PipelineOptions| {
        let mut c = Compiler::with_options(options, s1lisp::BackendKind::S1);
        c.compile_str(SPIN).unwrap();
        let mut m = c.machine();
        let value = m
            .run(
                "spin",
                &[s1lisp::Value::Fixnum(50), s1lisp::Value::Fixnum(0)],
            )
            .unwrap();
        assert_eq!(value.to_string(), "50");
        // Fuel meters dispatched instructions (runtime-call costs are
        // charged to the statistics only), so count what it consumed.
        m.fuel_per_run - m.fuel
    };
    let options = service.options.clone().unguarded();
    let optimized = insns(options.clone());
    let unoptimized = insns(options.transformations_off());
    assert!(optimized < unoptimized, "{optimized} vs {unoptimized}");

    let handle = start(ServerConfig {
        incident_budget: 1,
        service: ServiceConfig {
            fuel: (optimized + unoptimized) / 2,
            ..service
        },
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let run_value = |client: &mut ServeClient| {
        assert!(client.compile("spin", SPIN).unwrap().ok);
        let resp = client.run("spin", &["50", "0"]).unwrap();
        assert!(resp.ok, "{:?}", resp.error);
        let Body::Run { value } = resp.body else {
            panic!("run body expected");
        };
        value
    };

    assert!(client.hello("victim", None).unwrap().ok);
    let faulted = client.compile("boom", "(defun boom (x) (* x x))").unwrap();
    assert_eq!(faulted.slo.incident_kind.as_deref(), Some("panic"));
    let demoted = run_value(&mut client);
    assert!(
        demoted.starts_with("trap:") && demoted.contains("budget exhausted"),
        "{demoted}"
    );

    assert!(client.hello("bystander", None).unwrap().ok);
    assert_eq!(run_value(&mut client), "50");

    handle.shutdown();
    handle.join();
}

/// A request is one round trip, not one round trip plus the peer's
/// delayed ACK: twenty sequential pings on one connection finish well
/// inside the time a single Nagle stall per response would take
/// (about 40 ms each).
#[test]
fn sequential_pings_do_not_wait_for_delayed_acks() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.hello("pinger", None).unwrap().ok);
    let start = std::time::Instant::now();
    for _ in 0..20 {
        assert!(client.ping().unwrap().ok);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 pings took {elapsed:?}"
    );
    handle.shutdown();
    handle.join();
}

/// The SLO's layer fields and the unattributed remainder sum to
/// `wall_us`: a durable `compile` reports its compile and journal
/// layers, a `run` its replay, machine and execute layers, and each
/// leaves the other op's layers at zero.
#[test]
fn slo_layers_sum_to_wall_time() {
    let dir = std::env::temp_dir().join(format!("s1lisp-serve-slo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    assert!(client.hello("layers", None).unwrap().ok);
    let compiled = client
        .compile("sq", "(defun sq (x) (* x x)) (defun inc (x) (+ x 1))")
        .unwrap();
    assert!(compiled.ok && compiled.durable, "{:?}", compiled.error);
    let ran = client.run("sq", &["12"]).unwrap();
    assert_eq!(
        ran.body,
        Body::Run {
            value: "144".into()
        }
    );
    for resp in [&compiled, &ran] {
        let slo = &resp.slo;
        assert!(slo.layers_us() <= slo.wall_us, "{} {slo:?}", resp.op);
        assert_eq!(slo.layers_us() + slo.unattributed_us(), slo.wall_us);
    }
    let c = &compiled.slo;
    assert!(c.compile_us > 0 && c.journal_us > 0, "{c:?}");
    assert_eq!((c.replay_us, c.machine_us, c.execute_us), (0, 0, 0));
    let r = &ran.slo;
    assert!(r.replay_us > 0, "{r:?}");
    assert_eq!(
        r.replay_us + r.machine_us + r.execute_us,
        r.layers_us(),
        "{r:?}"
    );
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

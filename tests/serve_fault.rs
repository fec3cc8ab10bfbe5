//! Seeded fault storm against a live server: every fault is contained
//! to its request, the whole session replays bit-for-bit from the
//! seed, and the daemon never goes down.

use s1lisp_bench::service_units;
use s1lisp_driver::{FaultPlan, PipelineOptions, ServiceConfig};
use s1lisp_server::{Body, CompileServer, Response, ServeClient, ServerConfig, ServerHandle};

const STORM_SEED: u64 = 0xD06;
const STORM_PERMILLE: u16 = 200;

fn storm_server(seed: u64) -> ServerHandle {
    CompileServer::new(ServerConfig {
        service: ServiceConfig {
            options: PipelineOptions {
                guard: true,
                fault_plan: Some(FaultPlan::storm(seed, STORM_PERMILLE)),
                ..PipelineOptions::default()
            },
            ..ServiceConfig::default()
        },
        // A storm this dense exhausts the default budget part-way in;
        // that is fine (demotion is deterministic too), but a roomy
        // budget keeps most of the session compiling at full strength.
        incident_budget: 1_000,
        ..ServerConfig::default()
    })
    .serve_tcp(0)
    .expect("bind an ephemeral port")
}

/// Everything observable about a response, summarized for replay
/// comparison (timings excluded: they are honest wall-clock).
fn summarize(resp: &Response) -> String {
    let body = match &resp.body {
        Body::None => "none".to_string(),
        Body::Compile {
            artifacts,
            incidents,
            failures,
        } => format!(
            "compile[{}] incidents={:?} failures={failures:?}",
            artifacts
                .iter()
                .map(|a| a.to_json().to_string())
                .collect::<Vec<_>>()
                .join(","),
            incidents
        ),
        Body::Run { value } => format!("run={value}"),
        Body::Explain { dossier } => format!("explain={}b", dossier.len()),
    };
    format!(
        "id={} op={} ok={} err={:?} degraded={} incident={:?} {body}",
        resp.id, resp.op, resp.ok, resp.error, resp.slo.degraded, resp.slo.incident_kind
    )
}

/// One full storm session: compile the corpus, run a spread of entry
/// points (some draw injected simulator traps), and return the
/// summarized responses.
fn storm_session(handle: &ServerHandle) -> Vec<String> {
    let mut client =
        ServeClient::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect");
    assert!(client.hello("storm", None).unwrap().ok);
    let mut log = Vec::new();
    for unit in service_units() {
        let resp = client.compile(&unit.name, &unit.source).unwrap();
        log.push(summarize(&resp));
    }
    // Sixteen distinct entry names: at 20% permille each, the
    // simulator-trap site fires for some of them regardless of seed
    // drift in the corpus above (decisions are per-(site, key)).  The
    // storm may fault this compile too — also deterministic, so it
    // just joins the log.
    let probes = client.compile("probes", &probe_unit()).unwrap();
    log.push(summarize(&probes));
    for i in 0..16 {
        let resp = client.run(&format!("probe{i}"), &["7"]).unwrap();
        log.push(summarize(&resp));
    }
    log
}

fn probe_unit() -> String {
    (0..16)
        .map(|i| format!("(defun probe{i} (x) (+ x {i}))"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fault_storm_is_contained_and_replays_from_seed() {
    let first = storm_server(STORM_SEED);
    let log_a = storm_session(&first);

    // Contained: the server is still alive and serving cleanly after
    // the whole storm.
    let mut client =
        ServeClient::connect(&format!("127.0.0.1:{}", first.port())).expect("reconnect");
    assert!(client.hello("after", None).unwrap().ok);
    // The plan stays armed for the server's lifetime, so this may draw
    // a fault too — but it must be answered, contained, and recovered.
    let clean = client.compile("after", "(defun calm (x) x)").unwrap();
    assert!(clean.ok, "post-storm compile failed: {:?}", clean.error);
    first.shutdown();
    first.join();

    // The storm actually stormed: incidents surfaced in the SLO stream,
    // and at least one injected simulator trap hit the run path.
    let stormed = log_a.iter().filter(|l| l.contains("incident=Some")).count();
    assert!(
        stormed > 0,
        "seed {STORM_SEED:#x} drew no faults:\n{log_a:#?}"
    );
    assert!(
        log_a
            .iter()
            .any(|l| l.contains("run=trap: injected simulator fault")),
        "no injected run trap; pick a different seed"
    );

    // Replays: a second server with the same seed serves the same
    // session byte-for-byte (timings aside).
    let second = storm_server(STORM_SEED);
    let log_b = storm_session(&second);
    second.shutdown();
    second.join();
    assert_eq!(log_a, log_b, "the storm must replay from its seed");

    // And a different seed draws a different storm.
    let third = storm_server(STORM_SEED + 1);
    let log_c = storm_session(&third);
    third.shutdown();
    third.join();
    assert_ne!(log_a, log_c, "different seeds should diverge");
}

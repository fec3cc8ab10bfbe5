//! The kill -9 chaos drill for the durable compile server.
//!
//! ```sh
//! cargo run --release -p s1lisp-bench --bin chaos
//! cargo run --release -p s1lisp-bench --bin chaos -- --cycles 30 --seed 7
//! cargo run --release -p s1lisp-bench --bin chaos -- --serve-bin target/release/serve
//! ```
//!
//! Each cycle spawns the real `serve` daemon on a shared `--state-dir`,
//! drives an interleaved two-tenant mutation burst through TCP, and
//! SIGKILLs the process at a seeded point mid-burst — before the hello,
//! between acks, mid-fsync, or after the burst, wherever the seed
//! lands.  After every kill the drill recovers the directory in-process
//! and asserts the durability contract:
//!
//! * every mutation acknowledged `durable` is present;
//! * recovered state is an exact prefix of the send order — at most one
//!   in-flight mutation per tenant (journaled, ack lost to the kill)
//!   beyond the acknowledged set, and nothing never-sent;
//! * no cycle tears anything but the journal tail: mid-log corruption
//!   and quarantine counters stay zero;
//! * recovered artifacts are byte-identical to a cold `compile_batch`
//!   of the recovered log (checked in full after the last cycle).
//!
//! A final in-process phase arms the seeded `journal-write` fault site
//! and proves the flag is honest the other way round: with appends
//! failing, responses stop claiming `durable`, and recovery returns
//! exactly the durable-acked subset.
//!
//! Exits 0 when every cycle upholds the contract; panics (nonzero exit)
//! at the first violation, leaving the state dir behind for inspection.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use s1lisp_driver::{CompileService, FaultPlan, FaultSite, ServiceConfig, SourceUnit};
use s1lisp_server::{CompileServer, ServeClient, ServerConfig};
use s1lisp_trace::rng::SplitMix64;

/// Mutations sent per tenant per cycle.
const BURST: usize = 6;

const TENANTS: [&str; 2] = ["chaos-a", "chaos-b"];

fn usage() -> ! {
    eprintln!("usage: chaos [--cycles N] [--seed N] [--serve-bin PATH] [--keep]");
    std::process::exit(2);
}

fn unit(n: usize) -> (String, String) {
    (format!("u{n}"), format!("(defun g{n} (x) (+ x {n}))"))
}

fn durable_config(state_dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Spawns the serve daemon and parses the announced port off stderr; a
/// drain thread keeps reading so the child can never block on a full
/// pipe.
fn spawn_serve(serve_bin: &str, state_dir: &std::path::Path) -> (Child, u16) {
    let mut child = Command::new(serve_bin)
        .args(["--port", "0", "--state-dir"])
        .arg(state_dir)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {serve_bin}: {e}"));
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr);
    let mut announce = String::new();
    lines.read_line(&mut announce).expect("serve announce line");
    let port: u16 = announce
        .trim()
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("unparseable announce: {announce:?}"));
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = lines.read_to_end(&mut sink);
    });
    (child, port)
}

/// Per-tenant drill ledger across cycles.
struct Ledger {
    /// Sources known recovered after the last verification — the
    /// authoritative prefix the next cycle extends.
    committed: Vec<String>,
    /// Sources sent this cycle, in order (acked or not).
    sent: Vec<String>,
    /// Durable acks received this cycle (always a prefix of `sent`).
    acked: usize,
}

fn main() {
    let mut cycles = 20usize;
    let mut seed = 0x5EED_u64;
    let mut serve_bin: Option<String> = None;
    let mut keep = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("chaos: {flag} wants a value");
                usage()
            })
        };
        match arg.as_str() {
            "--cycles" => cycles = val("--cycles").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--serve-bin" => serve_bin = Some(val("--serve-bin")),
            "--keep" => keep = true,
            _ => usage(),
        }
    }
    let serve_bin = serve_bin.unwrap_or_else(|| {
        // Both binaries land in the same target directory.
        let mut path = std::env::current_exe().expect("current_exe");
        path.set_file_name("serve");
        path.to_string_lossy().into_owned()
    });
    let state_dir: PathBuf =
        std::env::temp_dir().join(format!("s1lisp-chaos-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    println!(
        "chaos: {cycles} kill cycles, seed {seed:#x}, serve {serve_bin}, state {}",
        state_dir.display()
    );

    let mut rng = SplitMix64::new(seed);
    let mut next_unit = 0usize;
    let mut ledgers: Vec<Ledger> = TENANTS
        .iter()
        .map(|_| Ledger {
            committed: Vec::new(),
            sent: Vec::new(),
            acked: 0,
        })
        .collect();

    // Cycle 0 calibrates: a full unkilled burst measures how long the
    // fsync-bound mutation train actually takes on this filesystem, and
    // the kill points of every later cycle are drawn uniformly across
    // that window (plus slack) — before the hello, between acks,
    // mid-fsync, after the burst, wherever the seed lands.
    let mut window_us: u64 = 0;
    for cycle in 0..=cycles {
        let (mut child, port) = spawn_serve(&serve_bin, &state_dir);
        let kill_after =
            (cycle > 0).then(|| Duration::from_micros(rng.below(window_us.max(1) * 11 / 10)));
        let killer = kill_after.map(|delay| {
            let pid = child.id();
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                // kill(2) via the child handle needs ownership; the
                // external kill command delivers the same SIGKILL.
                let _ = Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
            })
        });
        let burst_start = std::time::Instant::now();

        // The burst: both tenants interleaved, raw rejection surface
        // (no retry policy — a kill mid-call must error, not spin).
        let mut clients: Vec<Option<ServeClient>> = TENANTS
            .iter()
            .map(|tenant| {
                let mut c = match ServeClient::connect(&format!("127.0.0.1:{port}")) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("chaos: cycle {cycle}: connect {tenant}: {e}");
                        return None;
                    }
                };
                c.set_retry_policy(None);
                match c.hello(tenant, None) {
                    Ok(r) if r.ok => Some(c),
                    Ok(r) => {
                        eprintln!(
                            "chaos: cycle {cycle}: hello {tenant} refused: {:?}",
                            r.error
                        );
                        None
                    }
                    Err(e) => {
                        eprintln!("chaos: cycle {cycle}: hello {tenant}: {e}");
                        None
                    }
                }
            })
            .collect();
        for l in &mut ledgers {
            l.sent.clear();
            l.acked = 0;
        }
        'burst: for _ in 0..BURST {
            for (t, ledger) in ledgers.iter_mut().enumerate() {
                let Some(client) = clients[t].as_mut() else {
                    break 'burst;
                };
                let (name, src) = unit(next_unit);
                next_unit += 1;
                ledger.sent.push(src.clone());
                match client.compile(&name, &src) {
                    Ok(resp) if resp.ok && resp.durable => {
                        assert_eq!(
                            ledger.acked,
                            ledger.sent.len() - 1,
                            "acks must arrive in send order"
                        );
                        ledger.acked += 1;
                    }
                    Ok(resp) => panic!(
                        "cycle {cycle}: live server must ack durable: {:?}",
                        resp.error
                    ),
                    Err(_) => break 'burst, // the kill landed
                }
            }
        }
        if cycle == 0 {
            window_us = u64::try_from(burst_start.elapsed().as_micros())
                .unwrap_or(u64::MAX)
                .max(1_000);
        }
        if let Some(k) = killer {
            k.join().expect("killer thread");
        }
        let _ = child.kill(); // idempotent if the killer already hit
        let _ = child.wait();

        // Recover in-process and hold the contract up to the light.
        let recovered = CompileServer::new(durable_config(&state_dir));
        let metrics = recovered.metrics_snapshot();
        for bad in ["corrupt_journals", "quarantined", "replay_failures"] {
            let n = metrics
                .counter(&format!("server.recovery.{bad}"))
                .unwrap_or(0);
            assert_eq!(
                n, 0,
                "cycle {cycle}: {bad} = {n}, a kill may only tear the tail"
            );
        }
        let mut acked_total = 0usize;
        let mut inflight = 0usize;
        for (tenant, ledger) in TENANTS.iter().zip(&mut ledgers) {
            let Some(state) = recovered.tenant(tenant) else {
                // A kill before the tenant's first hello leaves no
                // state dir behind — fine unless something durable (or
                // previously committed) vanished with it.
                assert!(
                    ledger.committed.is_empty() && ledger.acked == 0,
                    "cycle {cycle}: tenant {tenant} lost durable state"
                );
                ledger.sent.clear();
                continue;
            };
            let st = state.lock().expect("tenant lock");
            let mut expected = ledger.committed.clone();
            expected.extend(ledger.sent.iter().cloned());
            let floor = ledger.committed.len() + ledger.acked;
            assert!(
                st.sources.len() >= floor,
                "cycle {cycle}: {tenant} lost acked mutations ({} < {floor})",
                st.sources.len()
            );
            assert!(
                st.sources.len() <= expected.len(),
                "cycle {cycle}: {tenant} resurrected {} mutations beyond the {} sent",
                st.sources.len() - expected.len(),
                expected.len()
            );
            assert_eq!(
                st.sources,
                expected[..st.sources.len()],
                "cycle {cycle}: {tenant} recovered out of send order"
            );
            acked_total += ledger.acked;
            inflight += st.sources.len() - floor;
            ledger.committed = st.sources.clone();
        }
        match kill_after {
            Some(delay) => println!(
                "chaos: cycle {cycle:>2} kill@{:>6}us acked={acked_total} inflight={inflight} \
                 committed={}",
                delay.as_micros(),
                ledgers.iter().map(|l| l.committed.len()).sum::<usize>()
            ),
            None => println!(
                "chaos: calibration burst took {window_us}us, acked={acked_total}, \
                 kill window 0..{}us",
                window_us * 11 / 10
            ),
        }
    }

    // The full byte-identity check: every recovered artifact equals a
    // cold `compile_batch` of the same log, front to back.
    let recovered = CompileServer::new(durable_config(&state_dir));
    for (tenant, ledger) in TENANTS.iter().zip(&ledgers) {
        let st = recovered.tenant(tenant).expect("tenant").clone();
        let st = st.lock().expect("tenant lock");
        let units: Vec<SourceUnit> = ledger
            .committed
            .iter()
            .enumerate()
            .map(|(i, src)| SourceUnit::new(format!("cold{i}"), src.clone()))
            .collect();
        let cold = CompileService::new(ServiceConfig::default()).compile_batch(&units);
        assert!(cold.failures.is_empty(), "{:?}", cold.failures);
        assert_eq!(cold.artifacts.len(), st.artifacts.len(), "{tenant}");
        for artifact in &cold.artifacts {
            let got = st
                .artifacts
                .get(&artifact.name)
                .unwrap_or_else(|| panic!("{tenant}: artifact {} lost", artifact.name));
            assert_eq!(
                got.to_json().to_string(),
                artifact.to_json().to_string(),
                "{tenant}: artifact {} differs from a cold compile",
                artifact.name
            );
        }
        println!(
            "chaos: {tenant} byte-identical: {} artifacts == cold compile_batch",
            cold.artifacts.len()
        );
    }
    drop(recovered);

    // Fault phase: with `journal-write` armed, the durable flag must
    // turn honest-pessimistic, and recovery must return exactly the
    // durable subset (the server shuts down cleanly, so there is no
    // in-flight allowance here).
    let fault_dir = state_dir.join("fault-phase");
    let mut config = durable_config(&fault_dir);
    config.service.options.fault_plan =
        Some(FaultPlan::new(seed).arm(FaultSite::JournalWrite, 400));
    // Periodic snapshots capture live state wholesale, which would
    // legitimately rescue a mutation whose journal append failed — keep
    // them off so "durable" and "recovered" must match exactly.
    config.snapshot_every = u64::MAX;
    let handle = CompileServer::new(config)
        .serve_tcp(0)
        .expect("bind fault-phase server");
    let mut client =
        ServeClient::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect");
    assert!(client.hello("chaos-f", None).expect("hello").ok);
    let mut durable_sources = Vec::new();
    for n in 0..3 * BURST {
        let (name, src) = unit(n);
        let resp = client.compile(&name, &src).expect("compile");
        assert!(resp.ok, "{:?}", resp.error);
        if resp.durable {
            durable_sources.push(src);
        }
    }
    handle.shutdown();
    handle.join();
    assert!(
        durable_sources.len() < 3 * BURST,
        "a 400‰ journal fault storm must cost some durability"
    );
    let recovered = CompileServer::new(durable_config(&fault_dir));
    let st = recovered.tenant("chaos-f").expect("tenant").clone();
    let st = st.lock().expect("tenant lock");
    assert_eq!(
        st.sources, durable_sources,
        "recovery must return exactly the durable-acked subset"
    );
    println!(
        "chaos: fault phase: {}/{} acks durable, recovery returned exactly those",
        durable_sources.len(),
        3 * BURST
    );
    drop(st);
    drop(recovered);

    if keep {
        println!("chaos: PASS (state kept at {})", state_dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&state_dir);
        println!("chaos: PASS");
    }
}

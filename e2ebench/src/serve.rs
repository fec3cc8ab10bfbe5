//! The `serve` workload: the shipped compile daemon, driven closed-loop.
//!
//! Set-up spawns `serve --port 0 --state-dir DIR` (the default
//! configuration plus durable state), reads its `serve: listening on`
//! line, connects two clients and sends each a `hello` for its own
//! tenant.  Each connection then runs blocks of one `compile` and four
//! `run`s in a seeded order, waiting for every reply as a REPL or editor
//! client does.  Half the compiles after a unit's
//! first definition resend its current source (a cache hit); the other
//! half change its constants (a miss, recompiled, journaled and
//! fsynced).  Every `run` answer is checked against the unit's
//! arithmetic computed here.  The two connections take turns (see
//! [`window`]).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use s1lisp::{Compiler, Value};
use s1lisp_server::{Body, Op, Response, ServeClient};
use s1lisp_trace::json::Json;
use s1lisp_trace::rng::SplitMix64;

use crate::util::{self, Outcome, Span, Tracer, SETUPS};

/// Closed-loop connections, one tenant each (the host's two cores).
const CONNECTIONS: usize = 2;
/// Ops (two rounds) left out of the replay-cost slope: their runs also
/// pay for the worker threads' first machines faulting in memory.
const WARM_OPS: u64 = 20;
/// How long to wait for the daemon's `listening on` line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The two units every tenant defines and redefines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Unit {
    /// `(ua x) = x*a + b`
    Ua { a: i64, b: i64 },
    /// `(ub x y) = y - x` when `x < y`, else `(x - y) * c`
    Ub { c: i64 },
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Ua { .. } => "ua",
            Unit::Ub { .. } => "ub",
        }
    }

    fn source(self) -> String {
        match self {
            Unit::Ua { a, b } => format!("(defun ua (x) (+ (* x {a}) {b}))"),
            Unit::Ub { c } => format!("(defun ub (x y) (if (< x y) (- y x) (* (- x y) {c})))"),
        }
    }

    fn answer(self, args: &[i64]) -> i64 {
        match self {
            Unit::Ua { a, b } => args[0] * a + b,
            Unit::Ub { c } => {
                if args[0] < args[1] {
                    args[1] - args[0]
                } else {
                    (args[0] - args[1]) * c
                }
            }
        }
    }

    fn arity(self) -> usize {
        match self {
            Unit::Ua { .. } => 1,
            Unit::Ub { .. } => 2,
        }
    }

    /// The same unit with fresh seeded constants.
    fn redraw(self, rng: &mut SplitMix64) -> Unit {
        match self {
            Unit::Ua { .. } => Unit::Ua {
                a: rng.range_i64(1, 1000),
                b: rng.range_i64(1, 1000),
            },
            Unit::Ub { .. } => Unit::Ub {
                c: rng.range_i64(1, 1_000_000),
            },
        }
    }
}

/// One request of a connection's script.
#[derive(Clone, Debug)]
enum Step {
    Compile(Unit),
    Run(Unit, Vec<i64>),
}

/// A connection's seeded request script, generated block by block
/// (one compile and four runs per block).  Units alternate `ua`, `ub`;
/// a unit's first compile defines it, later ones alternate hit and miss
/// in seeded pairs; runs call units already defined.
struct Script {
    rng: SplitMix64,
    current: [Option<Unit>; 2],
    used: std::collections::HashSet<Unit>,
    compiles: u64,
    hit_next: Option<bool>,
}

impl Script {
    fn new(seed: u64, conn: usize) -> Script {
        Script {
            rng: SplitMix64::new(seed ^ (0x5e7e_0000_0000_0000 + conn as u64)),
            current: [None, None],
            used: Default::default(),
            compiles: 0,
            hit_next: None,
        }
    }

    fn compile_step(&mut self) -> Step {
        let slot = (self.compiles % 2) as usize;
        self.compiles += 1;
        let template = [Unit::Ua { a: 0, b: 0 }, Unit::Ub { c: 0 }][slot];
        let unit = match self.current[slot] {
            Some(cur) => {
                let hit = match self.hit_next.take() {
                    Some(h) => h,
                    None => {
                        let h = self.rng.below(2) == 0;
                        self.hit_next = Some(!h);
                        h
                    }
                };
                if hit {
                    cur
                } else {
                    self.fresh(cur)
                }
            }
            None => self.fresh(template),
        };
        self.current[slot] = Some(unit);
        Step::Compile(unit)
    }

    /// A definition of `unit` never compiled before, so it misses.
    fn fresh(&mut self, unit: Unit) -> Unit {
        loop {
            let u = unit.redraw(&mut self.rng);
            if self.used.insert(u) {
                return u;
            }
        }
    }

    fn run_step(&mut self) -> Step {
        let defined: Vec<Unit> = self.current.iter().flatten().copied().collect();
        let unit = *self.rng.pick(&defined);
        let args = (0..unit.arity())
            .map(|_| self.rng.range_i64(-50, 50))
            .collect();
        Step::Run(unit, args)
    }

    fn block(&mut self) -> Vec<Step> {
        let at = if self.current.iter().all(Option::is_none) {
            0
        } else {
            self.rng.below(5) as usize
        };
        // Steps are drawn in order, so a run sees exactly the
        // definitions compiled before it.
        (0..5)
            .map(|i| {
                if i == at {
                    self.compile_step()
                } else {
                    self.run_step()
                }
            })
            .collect()
    }
}

/// A daemon serving the workload, and its two tenant connections.
struct Daemon {
    child: Child,
    clients: Vec<ServeClient>,
    stderr: JoinHandle<Vec<String>>,
    state_dir: PathBuf,
}

/// Spawns the daemon, waits for its `listening on` line, connects and
/// says `hello` on every connection.
fn start(serve_bin: &Path, state_dir: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let mut child = Command::new(serve_bin)
        .args(["--port", "0", "--state-dir"])
        .arg(state_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", serve_bin.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let (ready_tx, ready_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(addr) = line.strip_prefix("serve: listening on ") {
                let _ = ready_tx.send(addr.trim().to_string());
            }
            lines.push(line);
        }
        lines
    });
    let addr = match ready_rx.recv_timeout(READY_TIMEOUT) {
        Ok(a) => a,
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            let lines = reader.join().unwrap_or_default();
            return Err(format!("daemon never listened: {}", lines.join(" | ")));
        }
    };
    let mut daemon = Daemon {
        child,
        clients: Vec::new(),
        stderr: reader,
        state_dir: state_dir.to_path_buf(),
    };
    for conn in 0..CONNECTIONS {
        let mut client = match ServeClient::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                stop(daemon);
                return Err(format!("connect {addr}: {e}"));
            }
        };
        // Rejections surface as failures instead of being retried.
        client.set_retry_policy(None);
        match client.hello(&format!("tenant{conn}"), None) {
            Ok(r) if r.ok => daemon.clients.push(client),
            other => {
                stop(daemon);
                return Err(format!("hello failed: {other:?}"));
            }
        }
    }
    Ok(daemon)
}

/// Shuts the daemon down through a client `shutdown`, waits for it to
/// exit (killing it if it does not), and returns its stderr, which ends
/// with the metrics registry.
fn stop(mut d: Daemon) -> Vec<String> {
    if let Some(c) = d.clients.first_mut() {
        let _ = c.send(Op::Shutdown);
    }
    d.clients.clear();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match d.child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = d.child.kill();
                let _ = d.child.wait();
                break;
            }
        }
    }
    let lines = d.stderr.join().unwrap_or_default();
    let _ = std::fs::remove_dir_all(&d.state_dir);
    lines
}

/// One answered request, as the client saw it.
struct Sample {
    compile: bool,
    client_ms: f64,
    wall_ms: f64,
    queue_ms: f64,
    /// Sources the tenant had compiled when the request was sent (what
    /// a `run` replays).
    sources: u64,
    /// Past the first `WARM_OPS` ops.
    warm: bool,
}

fn check(step: &Step, resp: &Response) -> bool {
    if !resp.ok || resp.retry_after_ms > 0 {
        return false;
    }
    match (step, &resp.body) {
        (
            Step::Compile(u),
            Body::Compile {
                artifacts,
                failures,
                ..
            },
        ) => failures.is_empty() && artifacts.len() == 1 && artifacts[0].name == u.name(),
        (Step::Run(u, args), Body::Run { value }) => *value == u.answer(args).to_string(),
        _ => false,
    }
}

fn op_of(step: &Step) -> Op {
    match step {
        Step::Compile(u) => Op::Compile {
            unit: u.name().to_string(),
            source: u.source(),
        },
        Step::Run(u, args) => Op::Run {
            entry: u.name().to_string(),
            args: args.iter().map(i64::to_string).collect(),
        },
    }
}

struct Window {
    ops: u64,
    failed: u64,
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    samples: Vec<Sample>,
    spans: Vec<Span>,
    /// Per connection, a digest of its first requests.
    scripts: Vec<String>,
    peak_rss_mb: f64,
    stderr: Vec<String>,
    /// Per op: whether it was traced.
    traced: Vec<bool>,
}

/// Drives both connections of `d` for `seconds` (whole rounds of one
/// block per connection), then stops the daemon.  `traced`, every other
/// round is traced.
///
/// The connections take turns, one request at a time: each still waits
/// for its own reply, and the daemon never serves two requests at once.
/// Two free-running loops would overlap at times decided by their
/// phase, and which worker threads then hold a simulator `Machine`
/// decides how far the allocator's per-thread arenas grow: the daemon's
/// peak memory would be decided by a race.
fn window(mut d: Daemon, seed: u64, seconds: f64, traced: bool) -> Window {
    let epoch = Instant::now();
    let mut t = Tracer::new(false, epoch);
    let mut scripts: Vec<Script> = (0..d.clients.len()).map(|c| Script::new(seed, c)).collect();
    let mut compiles = vec![0u64; d.clients.len()];
    let mut first_steps: Vec<Vec<String>> = vec![Vec::new(); d.clients.len()];
    let mut w = Window {
        ops: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        latencies_ms: Vec::new(),
        samples: Vec::new(),
        spans: Vec::new(),
        scripts: Vec::new(),
        peak_rss_mb: 0.0,
        stderr: Vec::new(),
        traced: Vec::new(),
    };
    let mut round = 0u64;
    'rounds: while epoch.elapsed().as_secs_f64() < seconds {
        t.set_on(traced && round % 2 == 1);
        round += 1;
        let blocks: Vec<Vec<Step>> = scripts.iter_mut().map(Script::block).collect();
        for i in 0..blocks[0].len() {
            for (conn, block) in blocks.iter().enumerate() {
                let step = &block[i];
                if first_steps[conn].len() < 50 {
                    first_steps[conn].push(format!("{step:?}"));
                }
                let compile = matches!(step, Step::Compile(_));
                let client = &mut d.clients[conn];
                t.begin("bench.op", w.ops);
                t.begin("server.request", w.ops);
                let start_ns = t.elapsed_ns();
                let t0 = Instant::now();
                let resp = client.send(op_of(step)).and_then(|id| client.recv_id(id));
                let client_ms = util::ms(t0.elapsed());
                w.ops += 1;
                let Ok(resp) = resp else {
                    t.end();
                    t.end();
                    w.failed += 1;
                    break 'rounds;
                };
                // Server-side intervals, placed at the request's start:
                // only their lengths matter for self time.
                t.record(
                    "server.queue_wait",
                    start_ns,
                    resp.slo.queue_wait_us * 1_000,
                );
                t.record("server.wall", start_ns, resp.slo.wall_us * 1_000);
                t.end();
                t.begin("bench.check", w.ops);
                let ok = check(step, &resp);
                t.end();
                t.end();
                w.latencies_ms.push(client_ms);
                w.traced.push(t.on());
                w.samples.push(Sample {
                    compile,
                    client_ms,
                    wall_ms: resp.slo.wall_us as f64 / 1e3,
                    queue_ms: resp.slo.queue_wait_us as f64 / 1e3,
                    sources: compiles[conn],
                    warm: w.ops > WARM_OPS,
                });
                if !ok {
                    w.failed += 1;
                }
                if compile && ok {
                    compiles[conn] += 1;
                }
            }
        }
    }
    w.elapsed = epoch.elapsed();
    w.peak_rss_mb = util::peak_rss_mb(&d.child.id().to_string());
    w.stderr = stop(d);
    w.spans = t.into_spans();
    w.scripts = first_steps
        .iter()
        .map(|s| util::digest(s.iter().map(String::as_str)))
        .collect();
    w
}

/// The mean of a histogram in the daemon's shutdown metrics
/// (`  name  count=N sum=S`), 0 when it has no samples.
fn histogram_mean(stderr: &[String], name: &str) -> f64 {
    stderr
        .iter()
        .find_map(|l| {
            let rest = l.trim().strip_prefix(name)?.trim();
            let count: f64 = rest
                .strip_prefix("count=")?
                .split(' ')
                .next()?
                .parse()
                .ok()?;
            let sum: f64 = rest.split("sum=").nth(1)?.trim().parse().ok()?;
            (count > 0.0).then(|| sum / count)
        })
        .unwrap_or(0.0)
}

/// The code the daemon serves for this workload's units, compiled and
/// run in-process with the default compiler (the daemon reports
/// neither): S-1 code words of both units, and the instructions three
/// fixed calls retire.  Every answer is checked.
fn unit_code() -> (u64, u64, bool) {
    let units = [Unit::Ua { a: 7, b: 3 }, Unit::Ub { c: 5 }];
    let calls: [(Unit, Vec<i64>); 3] = [
        (units[0], vec![11]),
        (units[1], vec![4, 9]),
        (units[1], vec![9, 4]),
    ];
    let mut c = Compiler::new();
    let compiled = units.iter().all(|u| c.compile_str(&u.source()).is_ok());
    let mut insns = 0;
    let mut ok = compiled;
    for (u, args) in calls {
        let mut m = c.machine();
        let vals: Vec<Value> = args.iter().map(|&a| Value::Fixnum(a)).collect();
        ok &= m
            .run(u.name(), &vals)
            .is_ok_and(|v| v == Value::Fixnum(u.answer(&args)));
        insns += m.last_run_insns;
    }
    (c.code_size_words() as u64, insns, ok)
}

pub fn run(
    serve_bin: &Path,
    out_dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let state = |k: usize| out_dir.join(format!("serve-state-{}-{k}", std::process::id()));

    // Set-up, `SETUPS` times; the last daemon serves the workload.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let d = start(serve_bin, &state(k))?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            stop(old);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let setup_s = util::median(&setup_times);

    let w = if trace {
        let w = window(daemon, seed, seconds, true);
        traced(&mut out, &w);
        w
    } else {
        let w = window(daemon, seed, seconds, false);
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "throughput_per_s",
            w.ops as f64 / w.elapsed.as_secs_f64(),
            "1/s",
        );
        out.metric(
            "latency_p50_ms",
            util::percentile(&w.latencies_ms, 50.0),
            "ms",
        );
        out.metric(
            "latency_p90_ms",
            util::percentile(&w.latencies_ms, 90.0),
            "ms",
        );
        out.metric(
            "success_ratio",
            util::success_ratio(w.ops, w.failed),
            "ratio",
        );
        out.metric("peak_rss_mb", w.peak_rss_mb, "MiB");
        w
    };
    out.attempted += w.ops;
    out.failed += w.failed;
    let (words, insns, ok) = unit_code();
    out.checks_ok &= ok;
    if !trace {
        out.metric("sim_insns", insns as f64, "count");
        out.metric("code_words", words as f64, "count");
    }
    out.note(
        "serve_scripts",
        Json::Arr(w.scripts.iter().map(|s| Json::str(s.clone())).collect()),
    );
    out.note(
        "setup_s_each",
        Json::Arr(setup_times.into_iter().map(Json::Float).collect()),
    );
    Ok(out)
}

/// Per-layer numbers from a traced window (every other round traced;
/// the server-side times come with every response).
fn traced(out: &mut Outcome, w: &Window) {
    for (kind, compile) in [("run", false), ("compile", true)] {
        let of = |f: fn(&Sample) -> f64| {
            util::mean(
                &w.samples
                    .iter()
                    .filter(|s| s.compile == compile)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        out.metric(
            format!("server.client_ms.{kind}"),
            of(|s| s.client_ms),
            "ms",
        );
        out.metric(format!("server.wall_ms.{kind}"), of(|s| s.wall_ms), "ms");
        out.metric(
            format!("server.queue_wait_ms.{kind}"),
            of(|s| s.queue_ms),
            "ms",
        );
        out.metric(
            format!("server.transport_ms.{kind}"),
            of(|s| s.client_ms - s.wall_ms - s.queue_ms),
            "ms",
        );
    }
    out.metric(
        "server.journal_append_ms",
        histogram_mean(&w.stderr, "server.journal.append_us") / 1e3,
        "ms",
    );
    let runs: Vec<(f64, f64)> = w
        .samples
        .iter()
        .filter(|s| !s.compile && s.warm)
        .map(|s| (s.sources as f64, s.wall_ms))
        .collect();
    out.metric("server.run_wall_ms_per_source", util::slope(&runs), "ms");
    out.metric(
        "bench.unattributed_ms",
        util::unattributed_ms(&w.spans),
        "ms",
    );
    out.metric(
        "bench.trace_overhead_ratio",
        util::trace_overhead_ratio(&w.latencies_ms, &w.traced),
        "ratio",
    );
    out.spans = w.spans.clone();
}

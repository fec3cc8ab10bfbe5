//! Batch compilation: unit splitting, the worker pool, fault handling,
//! and result assembly.
//!
//! # Determinism
//!
//! Each job is *hermetic*: the worker receives the printed `defun` form,
//! the specials proclaimed before it in its unit, and the option set —
//! nothing else — and builds a private [`Compiler`] around them.  A
//! function's artifact therefore depends only on `(form, specials,
//! options)`, never on which worker ran it, in what order, or what else
//! was in the batch; results are reassembled in source order.  This is
//! also why the cache key is sound: the fingerprint covers exactly the
//! inputs the job can observe.
//!
//! Units are split by the frontend's one top-level splitter
//! ([`TopLevel::split`]), so a job sees exactly the specials a serial
//! [`Compiler::compile_str`] of its unit would.  What can still differ
//! from the serial path is gensym numbering in multi-`defun` units:
//! generated names (`or%3`, loop tags) restart per job instead of
//! counting across the unit.  Listings name callees and constants, never
//! a per-program table index, so on the experiment corpus the two paths
//! agree byte for byte (pinned by test); the contract the service
//! promises is jobs-invariance — `jobs = 1`, `2` and `8` byte-identical.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use s1lisp::{
    Artifact, BackendKind, CompileError, Compiler, FaultPlan, FaultSite, PendingFunction,
    PipelineOptions, TopLevel, Value,
};
use s1lisp_ast::Fnv1a64;
use s1lisp_reader::{read_all_str, read_str, Interner, Symbol};
use s1lisp_trace::json::Json;
use s1lisp_trace::metrics::{Histogram, MetricsRegistry, TIME_BUCKETS_US};

use crate::cache::{ArtifactCache, CacheStats};
use crate::{BackendSelect, BatchTuning, OracleCase, ServiceConfig, SourceUnit};

/// One function's worth of work: everything a worker needs, as plain
/// data that crosses threads freely.
#[derive(Clone, Debug)]
struct Job {
    seq: usize,
    unit: String,
    fn_name: String,
    /// The printed `defun` form (print∘read is the identity for the
    /// reader, pinned by property test).
    form: String,
    /// Special variables proclaimed (or `defvar`ed) before this form in
    /// its unit, in order.
    specials: Vec<String>,
    /// XORed into the cache key ([`BatchTuning::key_salt`]); zero for
    /// plain batches, a tenant fingerprint under the compile server.
    salt: u64,
    /// The backend the job compiles with (the batch's primary one).
    backend: BackendKind,
}

/// How one job was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the artifact cache; only the Preliminary phase ran.
    Hit,
    /// Compiled through the full pipeline and cached.
    Compiled,
    /// Recompiled with transformations off after a panic or timeout.
    Degraded,
    /// No artifact: the function failed to convert or compile (and, if
    /// it panicked or timed out first, the degraded retry failed too).
    Failed,
}

impl Outcome {
    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Compiled => "compiled",
            Outcome::Degraded => "degraded",
            Outcome::Failed => "failed",
        }
    }
}

/// What went wrong before a degraded recompile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// The pipeline panicked.
    Panic,
    /// A pipeline pass exceeded the per-pass time budget.
    Timeout,
    /// A guarded-compilation validator rejected the tree.
    Guard,
    /// An oracle side computed a different answer than the reference
    /// side.
    Miscompile,
    /// A durable-state recovery fault: the compile server found a
    /// tenant's on-disk snapshot or journal corrupted mid-log and
    /// quarantined the tenant to a fresh namespace.
    Recovery,
}

impl IncidentKind {
    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            IncidentKind::Panic => "panic",
            IncidentKind::Timeout => "timeout",
            IncidentKind::Guard => "guard",
            IncidentKind::Miscompile => "miscompile",
            IncidentKind::Recovery => "recovery",
        }
    }
}

/// A recorded pipeline fault: one function panicked, ran over budget,
/// failed a guard validator, or miscompiled under the oracle; the
/// batch carried on, and a degraded recompile (or reference artifact)
/// was attempted.
#[derive(Clone, Debug)]
pub struct Incident {
    /// The function whose compilation faulted.
    pub function: String,
    /// The compilation unit it came from.
    pub unit: String,
    /// Panic, timeout, guard violation, or oracle mismatch.
    pub kind: IncidentKind,
    /// The panic message, or a description of the violated invariant.
    pub detail: String,
    /// True when the degraded recompile produced an artifact.
    pub recovered: bool,
}

/// Telemetry for one job: who ran it, how it resolved, and which phases
/// it went through (phase name, spans, wall microseconds).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Source-order index across the whole batch.
    pub seq: usize,
    /// The compilation unit.
    pub unit: String,
    /// The function name.
    pub function: String,
    /// Which worker ran the job (scheduling-dependent).
    pub worker: usize,
    /// How the job resolved.
    pub outcome: Outcome,
    /// Wall time the worker spent on the job, in microseconds.
    pub wall_us: u64,
    /// Time the job sat in the queue before a worker picked it up, in
    /// microseconds (the per-job sample behind the
    /// `service.queue_wait_us` histogram).
    pub queue_us: u64,
    /// Phase spans recorded while resolving the job.  On a cache hit
    /// this is the Preliminary phase alone — the pinned evidence that
    /// hits skip every downstream phase.
    pub phase_spans: Vec<(String, u64, u64)>,
}

/// Per-worker totals.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index, `0..workers_used`.
    pub worker: usize,
    /// Jobs this worker resolved.
    pub jobs: u64,
    /// Total wall time across its jobs, in microseconds.
    pub wall_us: u64,
}

/// Batch-level telemetry.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Worker threads actually used (≤ the configured `jobs`).
    pub workers_used: usize,
    /// Functions fanned out.
    pub functions: usize,
    /// Cache traffic caused by this batch.
    pub cache: CacheStats,
    /// Jobs enqueued at the start (the queue only drains).
    pub queue_peak: usize,
    /// Per-worker totals, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Phase spans merged across every job: (phase, spans, wall
    /// microseconds), in first-seen source order.
    pub phase_totals: Vec<(String, u64, u64)>,
}

/// One oracle verdict: the printed outcome (value or trap) of `entry`
/// on every oracle side, the reference side first.
#[derive(Clone, Debug)]
pub struct OracleVerdict {
    /// The function that was called.
    pub entry: String,
    /// True when every side agreed with the reference side.
    pub matched: bool,
    /// True when a fault-plan site (`SimTrap`/`Miscompile`) perturbed a
    /// non-reference side.
    pub injected: bool,
    /// `(side label, printed outcome)` per side, reference first.
    pub sides: Vec<(&'static str, String)>,
}

impl OracleVerdict {
    /// The printed outcome of the side labelled `label`.
    pub fn outcome(&self, label: &str) -> Option<&str> {
        self.sides
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, out)| out.as_str())
    }

    /// The machine-readable form in a batch's `oracle` array.
    pub fn to_json(&self) -> Json {
        let side = |(label, outcome): &(&str, String)| {
            json_obj(vec![
                ("label", Json::str(*label)),
                ("outcome", Json::str(outcome)),
            ])
        };
        json_obj(vec![
            ("entry", Json::str(&self.entry)),
            ("matched", Json::Bool(self.matched)),
            ("injected", Json::Bool(self.injected)),
            ("sides", Json::Arr(self.sides.iter().map(side).collect())),
        ])
    }
}

fn json_obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The guarded-compilation summary attached to a batch when `guard` is
/// set in [`ServiceConfig::options`](crate::ServiceConfig::options).
#[derive(Clone, Debug)]
pub struct GuardReport {
    /// The fault plan's seed (0 when no plan was armed).
    pub seed: u64,
    /// Armed fault sites as `(site, permille)`.
    pub armed: Vec<(String, u16)>,
    /// True when persistent disk failures demoted the cache to
    /// memory-only operation during the batch.
    pub disk_disabled: bool,
    /// The containment verdict: no function was lost — every fault
    /// became a recovered incident and the failure list is empty.
    pub contained: bool,
}

impl GuardReport {
    /// The machine-readable form embedded in `report --json guard`.
    pub fn to_json(&self) -> Json {
        let armed = self
            .armed
            .iter()
            .map(|(site, rate)| {
                json_obj(vec![
                    ("site", Json::str(site)),
                    ("permille", Json::uint(u64::from(*rate))),
                ])
            })
            .collect();
        json_obj(vec![
            ("seed", Json::uint(self.seed)),
            ("armed", Json::Arr(armed)),
            ("disk_disabled", Json::Bool(self.disk_disabled)),
            ("contained", Json::Bool(self.contained)),
        ])
    }
}

/// Everything a batch compile produced.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Artifacts in source order (degraded ones included, marked).
    pub artifacts: Vec<Artifact>,
    /// One record per job, in source order.
    pub records: Vec<JobRecord>,
    /// Pipeline faults, in source order.
    pub incidents: Vec<Incident>,
    /// Failures as `(scope, message)`, where scope is `unit <name>` for
    /// split failures and the function name for per-job ones.
    pub failures: Vec<(String, String)>,
    /// `defvar` globals seen while splitting: (name, printed initial
    /// value).
    pub globals: Vec<(String, String)>,
    /// Specials the split units proclaim or `defvar`, in declaration
    /// order (repeats included).
    pub specials: Vec<String>,
    /// Batch telemetry.
    pub stats: BatchStats,
    /// Guarded-compilation summary; `None` unless the batch ran with
    /// `guard` set.
    pub guard: Option<GuardReport>,
    /// Oracle verdicts, in case order; empty unless the configuration
    /// has at least two oracle sides (`guard` set, or
    /// [`BackendSelect::Both`](crate::BackendSelect::Both)).
    pub oracle: Vec<OracleVerdict>,
}

impl BatchResult {
    /// The artifact for `name`, if the batch produced one (last
    /// definition wins, as in [`Compiler::function`]).
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().rev().find(|a| a.name == name)
    }

    /// Every dossier, concatenated in source order — the byte-stable
    /// rendering the determinism tests pin across `jobs` settings.
    pub fn render_artifacts(&self) -> String {
        let mut out = String::new();
        for a in &self.artifacts {
            out.push_str(&a.dossier);
            out.push('\n');
        }
        out
    }

    /// Cache hits as a percentage of functions, rounded down (100 ⇔
    /// every job was served from cache).
    pub fn hit_rate_percent(&self) -> u64 {
        if self.stats.functions == 0 {
            return 0;
        }
        self.stats.cache.hits * 100 / self.stats.functions as u64
    }

    /// The machine-readable form behind `report --json service`.
    pub fn to_json(&self) -> Json {
        let cache = json_obj(vec![
            ("hits", Json::uint(self.stats.cache.hits)),
            ("misses", Json::uint(self.stats.cache.misses)),
            ("evictions", Json::uint(self.stats.cache.evictions)),
            ("disk_hits", Json::uint(self.stats.cache.disk_hits)),
            ("io_retries", Json::uint(self.stats.cache.io_retries)),
            ("io_errors", Json::uint(self.stats.cache.io_errors)),
            ("corrupt_reads", Json::uint(self.stats.cache.corrupt_reads)),
            (
                "disk_evictions",
                Json::uint(self.stats.cache.disk_evictions),
            ),
        ]);
        let workers = self
            .stats
            .workers
            .iter()
            .map(|w| {
                json_obj(vec![
                    ("worker", Json::uint(w.worker as u64)),
                    ("jobs", Json::uint(w.jobs)),
                    ("wall_us", Json::uint(w.wall_us)),
                ])
            })
            .collect();
        let phases = self
            .stats
            .phase_totals
            .iter()
            .map(|(phase, spans, wall)| {
                json_obj(vec![
                    ("phase", Json::str(phase)),
                    ("spans", Json::uint(*spans)),
                    ("wall_us", Json::uint(*wall)),
                ])
            })
            .collect();
        let records = self
            .records
            .iter()
            .map(|r| {
                json_obj(vec![
                    ("seq", Json::uint(r.seq as u64)),
                    ("unit", Json::str(&r.unit)),
                    ("function", Json::str(&r.function)),
                    ("worker", Json::uint(r.worker as u64)),
                    ("outcome", Json::str(r.outcome.as_str())),
                    ("wall_us", Json::uint(r.wall_us)),
                    ("queue_us", Json::uint(r.queue_us)),
                    (
                        "phase_spans",
                        Json::Map(
                            r.phase_spans
                                .iter()
                                .map(|(p, spans, _)| (p.clone(), Json::uint(*spans)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let incidents = self
            .incidents
            .iter()
            .map(|i| {
                json_obj(vec![
                    ("function", Json::str(&i.function)),
                    ("unit", Json::str(&i.unit)),
                    ("kind", Json::str(i.kind.as_str())),
                    ("detail", Json::str(&i.detail)),
                    ("recovered", Json::Bool(i.recovered)),
                ])
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|(scope, error)| {
                json_obj(vec![
                    ("scope", Json::str(scope)),
                    ("error", Json::str(error)),
                ])
            })
            .collect();
        let globals = self
            .globals
            .iter()
            .map(|(name, init)| {
                json_obj(vec![("name", Json::str(name)), ("init", Json::str(init))])
            })
            .collect();
        let artifacts = self.artifacts.iter().map(Artifact::to_json).collect();
        json_obj(vec![
            ("workers_used", Json::uint(self.stats.workers_used as u64)),
            ("functions", Json::uint(self.stats.functions as u64)),
            ("hit_rate_percent", Json::uint(self.hit_rate_percent())),
            ("queue_peak", Json::uint(self.stats.queue_peak as u64)),
            ("cache", cache),
            ("workers", Json::Arr(workers)),
            ("phases", Json::Arr(phases)),
            ("records", Json::Arr(records)),
            ("incidents", Json::Arr(incidents)),
            ("failures", Json::Arr(failures)),
            ("globals", Json::Arr(globals)),
            (
                "guard",
                self.guard.as_ref().map_or(Json::Null, GuardReport::to_json),
            ),
            (
                "oracle",
                Json::Arr(self.oracle.iter().map(OracleVerdict::to_json).collect()),
            ),
            ("artifacts", Json::Arr(artifacts)),
        ])
    }
}

/// The batch-compilation service: a worker pool over hermetic
/// per-function jobs, in front of a content-addressed [`ArtifactCache`]
/// that persists across [`CompileService::compile_batch`] calls.
///
/// The service and its cache share one [`MetricsRegistry`]
/// ([`CompileService::metrics`]): `service.*` covers queue wait, job
/// wall time, outcomes, and incidents by kind; `cache.*` the cache's
/// traffic and latency.
pub struct CompileService {
    config: ServiceConfig,
    cache: ArtifactCache,
    metrics: Arc<MetricsRegistry>,
    queue_wait_us: Histogram,
    job_wall_us: Histogram,
}

/// The cache key: the function's name, the converted tree's structural
/// fingerprint and the option fingerprint.  The tree does not carry the
/// `defun` name, and an artifact does (its name, listing and dossier),
/// so two functions with equal bodies must not share an entry.
fn cache_key(name: &str, tree_fp: u64, options_fp: u64) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_str(name);
    h.write_u64(tree_fp);
    h.write_u64(options_fp);
    h.finish()
}

/// A compiler for `job` under `options`: the job's backend, tracing on,
/// the job's specials proclaimed.
fn job_compiler(options: &PipelineOptions, job: &Job) -> Compiler {
    let mut c = Compiler::with_options(options.clone(), job.backend);
    c.enable_trace();
    for s in &job.specials {
        c.proclaim_special(s);
    }
    c
}

/// Phase spans as (phase name, spans, wall microseconds).
type PhaseSpans = Vec<(String, u64, u64)>;

fn sink_phase_spans(c: &Compiler) -> PhaseSpans {
    c.trace().map_or_else(Vec::new, |sink| {
        sink.phases()
            .iter()
            .map(|p| {
                (
                    p.phase.to_string(),
                    p.spans,
                    u64::try_from(p.wall.as_micros()).unwrap_or(u64::MAX),
                )
            })
            .collect()
    })
}

/// A failed conversion or compilation.  `incident` is set for the
/// faults that take the degraded-recompile path — a panic, a guard
/// rejection, a per-pass budget overrun — and `None` for plain compile
/// errors, which fail the function outright.
struct AttemptErr {
    incident: Option<IncidentKind>,
    detail: String,
}

impl AttemptErr {
    fn plain(detail: impl Into<String>) -> AttemptErr {
        AttemptErr {
            incident: None,
            detail: detail.into(),
        }
    }

    fn from_compile(e: &CompileError) -> AttemptErr {
        AttemptErr {
            incident: match e {
                CompileError::Guard(_) => Some(IncidentKind::Guard),
                CompileError::Overrun(_) => Some(IncidentKind::Timeout),
                _ => None,
            },
            detail: e.to_string(),
        }
    }

    fn panicked(payload: &(dyn std::any::Any + Send)) -> AttemptErr {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        AttemptErr {
            incident: Some(IncidentKind::Panic),
            detail,
        }
    }
}

/// Converts a job's form: the Preliminary phase, which never optimizes
/// and so runs outside the panic guard.
fn convert(c: &mut Compiler, job: &Job) -> Result<PendingFunction, AttemptErr> {
    let mut pending = c
        .convert_str(&job.form)
        .map_err(|e| AttemptErr::from_compile(&e))?;
    match (pending.pop(), pending.is_empty()) {
        (Some(p), true) => Ok(p),
        _ => Err(AttemptErr::plain(format!(
            "expected exactly one function in job {}",
            job.fn_name
        ))),
    }
}

/// Runs a converted function through `c`'s pipeline, panic-isolated,
/// and detaches its artifact.
fn compile(c: &mut Compiler, p: PendingFunction) -> Result<Artifact, AttemptErr> {
    let name = catch_unwind(AssertUnwindSafe(|| c.compile_pending(p)))
        .map_err(|payload| AttemptErr::panicked(payload.as_ref()))?
        .map_err(|e| AttemptErr::from_compile(&e))?;
    c.artifact(&name)
        .ok_or_else(|| AttemptErr::plain(format!("no artifact for {name}")))
}

/// The recovery path after a fault: a fresh compiler with every
/// transformation off and no fault plan, validators or budget — the
/// retry must run clean.
fn degraded_attempt(
    job: &Job,
    options: &PipelineOptions,
) -> Result<(Artifact, PhaseSpans), AttemptErr> {
    let mut c = job_compiler(&options.clone().transformations_off().unguarded(), job);
    let p = convert(&mut c, job)?;
    let mut artifact = compile(&mut c, p)?;
    artifact.degraded = true;
    Ok((artifact, sink_phase_spans(&c)))
}

struct JobResult {
    record: JobRecord,
    artifact: Option<Artifact>,
    incident: Option<Incident>,
    failure: Option<(String, String)>,
}

/// Resolves one job end to end with one compiler: convert, probe the
/// cache, compile on a miss, degrade on a fault.
fn process_job(
    job: &Job,
    options: &PipelineOptions,
    cache: &ArtifactCache,
    worker: usize,
) -> JobResult {
    let start = Instant::now();
    let mut incident = None;
    let mut failure = None;
    let mut c = job_compiler(options, job);
    let (outcome, artifact, phase_spans) = match convert(&mut c, job) {
        Err(e) => {
            failure = Some((job.fn_name.clone(), e.detail));
            (Outcome::Failed, None, sink_phase_spans(&c))
        }
        Ok(p) => {
            // The *cache* key carries the tenant salt (partitioning the
            // shared cache); the *reported* fingerprint stays unsalted so
            // the same function compiles to byte-identical artifacts for
            // every tenant — the server-vs-`compile_batch` equivalence
            // contract.
            let fingerprint = cache_key(
                &job.fn_name,
                p.tree_fingerprint(),
                options.fingerprint(job.backend),
            );
            let key = fingerprint ^ job.salt;
            if let Some(mut hit) = cache.get(key) {
                hit.fingerprint = fingerprint;
                (Outcome::Hit, Some(hit), sink_phase_spans(&c))
            } else {
                match compile(&mut c, p) {
                    Ok(mut artifact) => {
                        artifact.fingerprint = fingerprint;
                        cache.put(key, &artifact);
                        (Outcome::Compiled, Some(artifact), sink_phase_spans(&c))
                    }
                    Err(AttemptErr {
                        incident: None,
                        detail,
                    }) => {
                        failure = Some((job.fn_name.clone(), detail));
                        (Outcome::Failed, None, Vec::new())
                    }
                    Err(AttemptErr {
                        incident: Some(kind),
                        detail,
                    }) => {
                        // Graceful degradation.  Degraded artifacts are
                        // never cached — the cache holds only clean
                        // output.
                        let retry = degraded_attempt(job, options);
                        incident = Some(Incident {
                            function: job.fn_name.clone(),
                            unit: job.unit.clone(),
                            kind,
                            detail,
                            recovered: retry.is_ok(),
                        });
                        match retry {
                            Ok((mut artifact, spans)) => {
                                artifact.fingerprint = fingerprint;
                                (Outcome::Degraded, Some(artifact), spans)
                            }
                            Err(e) => {
                                failure = Some((job.fn_name.clone(), e.detail));
                                (Outcome::Failed, None, Vec::new())
                            }
                        }
                    }
                }
            }
        }
    };
    JobResult {
        record: JobRecord {
            seq: job.seq,
            unit: job.unit.clone(),
            function: job.fn_name.clone(),
            worker,
            outcome,
            wall_us: elapsed_us(start),
            queue_us: 0,
            phase_spans,
        },
        artifact,
        incident,
        failure,
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The size estimate a job is scheduled by: convert the form with the
/// job's own option set and read the complexity analysis's
/// whole-function object-code estimate.  A form that fails to convert
/// estimates 0 — the job still runs (and records its failure) wherever
/// it lands in the queue.
fn size_estimate(job: &Job, options: &PipelineOptions) -> u32 {
    let mut probe = job_compiler(options, job);
    match probe.convert_str(&job.form) {
        Ok(pending) if pending.len() == 1 => pending[0].complexity_estimate(),
        _ => 0,
    }
}

/// The per-job metric handles a worker observes into: queue wait is the
/// time a job sat in the queue (from queue open to dequeue), job wall
/// the time the worker spent resolving it.
struct WorkerMetrics<'a> {
    queue_opened: Instant,
    queue_wait_us: &'a Histogram,
    job_wall_us: &'a Histogram,
}

fn worker_loop(
    worker: usize,
    queue: &Mutex<VecDeque<Job>>,
    options: &PipelineOptions,
    cache: &ArtifactCache,
    metrics: &WorkerMetrics<'_>,
    tx: &mpsc::Sender<JobResult>,
) {
    loop {
        let job = queue.lock().expect("job queue lock").pop_front();
        let Some(job) = job else { break };
        let queue_us = elapsed_us(metrics.queue_opened);
        metrics.queue_wait_us.observe(queue_us);
        let mut result = process_job(&job, options, cache, worker);
        result.record.queue_us = queue_us;
        metrics.job_wall_us.observe(result.record.wall_us);
        if tx.send(result).is_err() {
            break;
        }
    }
}

impl CompileService {
    /// A service over a fresh cache.
    pub fn new(config: ServiceConfig) -> CompileService {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = ArtifactCache::with_metrics(
            config.cache_capacity,
            config.cache_dir.clone(),
            config.disk_max_entries,
            config.options.fault_plan.clone(),
            Arc::clone(&metrics),
        );
        let queue_wait_us = metrics.histogram("service.queue_wait_us", TIME_BUCKETS_US);
        let job_wall_us = metrics.histogram("service.job_wall_us", TIME_BUCKETS_US);
        CompileService {
            config,
            cache,
            metrics,
            queue_wait_us,
            job_wall_us,
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The registry this service (and its cache) report into.  Lifetime
    /// totals across every batch; snapshot it between batches for
    /// deltas.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Splits `units` into per-function jobs, fans them across the
    /// worker pool, and reassembles results in source order.  The cache
    /// is consulted per function and persists across calls, so
    /// recompiling an unchanged batch is pure cache traffic.
    ///
    /// Unlike [`Compiler::compile_str`], failures are isolated: a
    /// function that fails to convert, compile, or recover is recorded
    /// in [`BatchResult::failures`] while the rest of the batch
    /// completes.
    pub fn compile_batch(&self, units: &[SourceUnit]) -> BatchResult {
        self.compile_batch_with(units, BatchTuning::default())
    }

    /// [`CompileService::compile_batch`] with per-batch [`BatchTuning`]:
    /// the compile server's entry point, where each request batch
    /// carries its tenant's cache-key salt and (once the tenant's
    /// incident budget is exhausted) the transformations-off demotion.
    /// `compile_batch` is exactly this call with the default (inert)
    /// tuning.
    pub fn compile_batch_with(&self, units: &[SourceUnit], tuning: BatchTuning) -> BatchResult {
        // The salt is not a compiler option — it partitions cache keys
        // only — so only the demotion shapes the options.
        let mut options = self.config.options.clone();
        if tuning.transformations_off {
            options = options.transformations_off();
        }
        let before = self.cache.stats();
        let mut jobs = Vec::new();
        let mut globals = Vec::new();
        let mut specials = Vec::new();
        let mut failures = Vec::new();
        for unit in units {
            match split_unit(unit, jobs.len()) {
                Ok(split) => {
                    jobs.extend(split.jobs);
                    globals.extend(split.globals);
                    specials.extend(split.specials);
                }
                Err(e) => failures.push((format!("unit {}", unit.name), e)),
            }
        }
        for j in &mut jobs {
            j.salt = tuning.key_salt;
            j.backend = self.config.backend.primary();
        }
        let functions = jobs.len();
        let queue_peak = functions;
        let workers_used = self.config.jobs.max(1).min(functions.max(1));
        if jobs.len() > 1 {
            // Largest first, by the complexity analysis's object-code
            // size estimate; ties keep source order.  The biggest
            // compilations start before the queue thins out, so the
            // batch does not end with one worker grinding a big function
            // while the rest idle.  Results are reassembled by `seq`, so
            // this affects wall-clock only, never output.
            let mut keyed: Vec<(u32, Job)> = jobs
                .into_iter()
                .map(|j| (size_estimate(&j, &options), j))
                .collect();
            keyed.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.seq.cmp(&b.1.seq)));
            jobs = keyed.into_iter().map(|(_, j)| j).collect();
        }
        let queue = Mutex::new(jobs.into_iter().collect::<VecDeque<_>>());
        let worker_metrics = WorkerMetrics {
            queue_opened: Instant::now(),
            queue_wait_us: &self.queue_wait_us,
            job_wall_us: &self.job_wall_us,
        };
        let (tx, rx) = mpsc::channel();
        if workers_used == 1 {
            // The degenerate serial path: same worker loop, caller's
            // thread, no pool.
            worker_loop(0, &queue, &options, &self.cache, &worker_metrics, &tx);
        } else {
            std::thread::scope(|s| {
                for worker in 0..workers_used {
                    let tx = tx.clone();
                    let queue = &queue;
                    let worker_metrics = &worker_metrics;
                    let options = &options;
                    s.spawn(move || {
                        worker_loop(worker, queue, options, &self.cache, worker_metrics, &tx);
                    });
                }
            });
        }
        drop(tx);
        let mut results: Vec<JobResult> = rx.into_iter().collect();
        results.sort_by_key(|r| r.record.seq);

        let mut workers: Vec<WorkerStats> = (0..workers_used)
            .map(|worker| WorkerStats {
                worker,
                jobs: 0,
                wall_us: 0,
            })
            .collect();
        let mut phase_totals: Vec<(String, u64, u64)> = Vec::new();
        let mut artifacts = Vec::new();
        let mut records = Vec::new();
        let mut incidents = Vec::new();
        for r in results {
            self.metrics
                .counter(&format!("service.outcome.{}", r.record.outcome.as_str()))
                .inc();
            if let Some(i) = &r.incident {
                self.metrics
                    .counter(&format!("service.incident.{}", i.kind.as_str()))
                    .inc();
            }
            if let Some(w) = workers.get_mut(r.record.worker) {
                w.jobs += 1;
                w.wall_us += r.record.wall_us;
            }
            for (phase, spans, wall) in &r.record.phase_spans {
                match phase_totals.iter_mut().find(|(p, _, _)| p == phase) {
                    Some(slot) => {
                        slot.1 += spans;
                        slot.2 += wall;
                    }
                    None => phase_totals.push((phase.clone(), *spans, *wall)),
                }
            }
            artifacts.extend(r.artifact);
            incidents.extend(r.incident);
            failures.extend(r.failure);
            records.push(r.record);
        }
        let mut batch = BatchResult {
            artifacts,
            records,
            incidents,
            failures,
            globals,
            specials,
            stats: BatchStats {
                workers_used,
                functions,
                cache: self.cache.stats().since(&before),
                queue_peak,
                workers,
                phase_totals,
            },
            guard: None,
            oracle: Vec::new(),
        };
        // The oracle first, so a guard report's containment verdict
        // sees its miscompile incidents.
        self.apply_oracle(units, &mut batch);
        if self.config.options.guard {
            self.attach_guard_report(&mut batch);
        }
        self.metrics.counter("service.batches").inc();
        self.metrics
            .counter("service.jobs")
            .add(batch.stats.functions as u64);
        self.metrics
            .gauge("service.queue_peak")
            .set(batch.stats.queue_peak as i64);
        self.metrics
            .gauge("cache.hit_rate_permille")
            .set(self.cache.stats().hit_rate_permille() as i64);
        batch
    }

    /// The post-batch oracle: compile every unit once per
    /// [`oracle_sides`] side, run each configured case on every side
    /// under [`ServiceConfig::fuel`], and judge each case
    /// ([`CompileService::judge_case`]).
    fn apply_oracle(&self, units: &[SourceUnit], batch: &mut BatchResult) {
        let sides = oracle_sides(&self.config);
        if sides.len() < 2 || self.config.oracle.is_empty() {
            return;
        }
        let compilers: Vec<Compiler> = sides
            .iter()
            .map(|side| {
                let mut c = Compiler::with_options(side.options.clone(), side.backend);
                for u in units {
                    // A unit that fails here already failed in the
                    // batch; the oracle is best-effort over what
                    // compiled.
                    let _ = catch_unwind(AssertUnwindSafe(|| c.compile_str(&u.source).map(drop)));
                }
                c
            })
            .collect();
        let plan = self.fault_plan();
        for case in &self.config.oracle {
            match self.judge_case(case, &plan, &sides, &compilers, batch) {
                Ok(verdict) => batch.oracle.push(verdict),
                Err(e) => batch.failures.push((format!("oracle {}", case.entry), e)),
            }
        }
    }

    /// The configured fault plan, or an inert one.
    fn fault_plan(&self) -> FaultPlan {
        self.config
            .options
            .fault_plan
            .clone()
            .unwrap_or_else(|| FaultPlan::new(0))
    }

    /// Attaches the [`GuardReport`], judging containment over every
    /// incident and failure the batch and its oracle recorded.
    fn attach_guard_report(&self, batch: &mut BatchResult) {
        let plan = self.fault_plan();
        let contained = batch.failures.is_empty() && batch.incidents.iter().all(|i| i.recovered);
        batch.guard = Some(GuardReport {
            seed: plan.seed,
            armed: plan
                .armed_sites()
                .into_iter()
                .map(|(site, rate)| (site.to_string(), rate))
                .collect(),
            disk_disabled: self.cache.disk_disabled(),
            contained,
        });
    }

    /// Runs one case on every side and compares each non-reference side
    /// with the reference: on the same engine the printed outcomes must
    /// be equal; across engines two traps also agree, since each engine
    /// words (and meters) its diagnostics in its own terms.
    ///
    /// The fault plan perturbs non-reference sides only: `Miscompile`
    /// every one, `SimTrap` those on the simulator.  Each disagreeing
    /// side records one [`IncidentKind::Miscompile`]; when it is the
    /// side whose artifacts ship, the reference compile's artifact ships
    /// in its place, marked degraded — the same contract as the
    /// panic/timeout recovery path.
    fn judge_case(
        &self,
        case: &OracleCase,
        plan: &FaultPlan,
        sides: &[Side],
        compilers: &[Compiler],
        batch: &mut BatchResult,
    ) -> Result<OracleVerdict, String> {
        let mut interner = Interner::new();
        let mut args = Vec::new();
        for a in &case.args {
            let d = read_str(a, &mut interner).map_err(|e| format!("argument {a}: {e}"))?;
            args.push(Value::from_datum(&d));
        }
        let mut injected = false;
        let mut outcomes = Vec::with_capacity(sides.len());
        for (i, c) in compilers.iter().enumerate() {
            let mut out = execute(c, &case.entry, &args, self.config.fuel);
            if i > 0 {
                if c.backend == BackendKind::S1 && plan.fires(FaultSite::SimTrap, &case.entry) {
                    out = "trap: injected simulator fault".to_string();
                    injected = true;
                }
                if plan.fires(FaultSite::Miscompile, &case.entry) {
                    out.push_str(" [injected miscompile]");
                    injected = true;
                }
            }
            outcomes.push(out);
        }
        let reference = &sides[0];
        let mut matched = true;
        for (i, side) in sides.iter().enumerate().skip(1) {
            let (want, got) = (&outcomes[0], &outcomes[i]);
            let both_trap = want.starts_with("trap:") && got.starts_with("trap:");
            if want == got || (side.backend != reference.backend && both_trap) {
                continue;
            }
            matched = false;
            let recovered = if side.ships {
                ship_reference(batch, &compilers[0], &case.entry)
            } else {
                batch.artifact(&case.entry).is_some()
            };
            let unit = batch
                .records
                .iter()
                .find(|r| r.function == case.entry)
                .map_or_else(|| "oracle".to_string(), |r| r.unit.clone());
            batch.incidents.push(Incident {
                function: case.entry.clone(),
                unit,
                kind: IncidentKind::Miscompile,
                detail: format!(
                    "oracle mismatch: {} gave {got}, {} gave {want}",
                    side.label, reference.label
                ),
                recovered,
            });
        }
        Ok(OracleVerdict {
            entry: case.entry.clone(),
            matched,
            injected,
            sides: sides.iter().map(|s| s.label).zip(outcomes).collect(),
        })
    }
}

/// One oracle side: a label, the compiler switches and the backend
/// whose engine runs the code.
struct Side {
    label: &'static str,
    options: PipelineOptions,
    backend: BackendKind,
    /// True for the side whose artifacts the batch ships.
    ships: bool,
}

/// The oracle sides a configuration implies, reference first.  Every
/// side compiles unguarded, with no fault plan or budget.
///
/// * `guard` adds a `reference` side (transformations off) and an
///   `optimized` side (the batch's options), both on the primary
///   backend; the optimized side ships.
/// * Without `guard`, the batch side itself is the reference, labelled
///   by its backend.
/// * [`BackendSelect::Both`] adds a `bytecode` side under the batch's
///   options.
///
/// Fewer than two sides means no oracle runs.
fn oracle_sides(config: &ServiceConfig) -> Vec<Side> {
    let options = config.options.clone().unguarded();
    let primary = config.backend.primary();
    let side = |label, options: &PipelineOptions, backend, ships| Side {
        label,
        options: options.clone(),
        backend,
        ships,
    };
    let mut sides = if config.options.guard {
        let reference = options.clone().transformations_off();
        vec![
            side("reference", &reference, primary, false),
            side("optimized", &options, primary, true),
        ]
    } else {
        vec![side(primary.name(), &options, primary, true)]
    };
    if config.backend == BackendSelect::Both {
        let bytecode = BackendKind::Bytecode;
        sides.push(side(bytecode.name(), &options, bytecode, false));
    }
    sides
}

/// Runs `entry` on `c`'s code under `fuel` — the S-1 simulator for S-1
/// code, the stack evaluator for bytecode — and prints the outcome: the
/// value, or `trap: …`.
fn execute(c: &Compiler, entry: &str, args: &[Value], fuel: u64) -> String {
    let result = match c.backend {
        BackendKind::S1 => {
            let mut m = c.machine();
            m.fuel_per_run = fuel;
            m.run(entry, args).map_err(|t| t.to_string())
        }
        BackendKind::Bytecode => {
            let mut e = c.evaluator();
            e.fuel_per_run = fuel;
            e.run(entry, args).map_err(|t| t.to_string())
        }
    };
    match result {
        Ok(v) => v.to_string(),
        Err(t) => format!("trap: {t}"),
    }
}

/// Downgrades `entry`'s record and ships the reference compile's
/// artifact in place of the suspect one, marked degraded.  Returns
/// whether a replacement shipped.
fn ship_reference(batch: &mut BatchResult, reference: &Compiler, entry: &str) -> bool {
    if let Some(r) = batch.records.iter_mut().find(|r| r.function == entry) {
        r.outcome = Outcome::Degraded;
    }
    let Some(mut a) = reference.artifact(entry) else {
        return false;
    };
    let Some(slot) = batch.artifacts.iter_mut().rev().find(|x| x.name == entry) else {
        return false;
    };
    a.degraded = true;
    a.fingerprint = slot.fingerprint;
    *slot = a;
    true
}

struct SplitUnit {
    jobs: Vec<Job>,
    globals: Vec<(String, String)>,
    specials: Vec<String>,
}

/// Maps the frontend's split of one unit ([`TopLevel::split`]) onto
/// hermetic jobs: each `defun` becomes a job carrying its printed form
/// and the specials declared before it; the unit's specials and
/// `defvar` initializers (printed as written) are reported alongside.
fn split_unit(unit: &SourceUnit, first_seq: usize) -> Result<SplitUnit, String> {
    let mut interner = Interner::new();
    let forms = read_all_str(&unit.source, &mut interner).map_err(|e| e.to_string())?;
    let split = TopLevel::split(&forms).map_err(|e| e.to_string())?;
    let names = |syms: &[Symbol]| syms.iter().map(|s| s.as_str().to_string()).collect();
    let jobs = split
        .forms
        .iter()
        .enumerate()
        .map(|(i, f)| Job {
            seq: first_seq + i,
            unit: unit.name.clone(),
            fn_name: f.name.clone(),
            form: f.form.to_string(),
            specials: names(split.specials_before(f)),
            salt: 0,
            backend: BackendKind::default(),
        })
        .collect();
    let globals = split
        .defvars
        .iter()
        .map(|d| (d.name.as_str().to_string(), d.init.to_string()))
        .collect();
    Ok(SplitUnit {
        jobs,
        globals,
        specials: names(&split.specials),
    })
}

//! The parallel compilation service.
//!
//! The paper's compiler (§4, Table 1) runs its phase pipeline one
//! function at a time; this crate lifts that per-function pipeline into
//! a batch service without touching phase semantics:
//!
//! * **Fan-out** — a [`CompileService`] splits compilation units into
//!   hermetic per-function jobs and runs them on `jobs` worker threads
//!   (`std::thread` + `mpsc`; `jobs = 1` degenerates to the serial path
//!   on the caller's thread).
//! * **Memoization** — an [`ArtifactCache`] keyed by the converted
//!   tree's structural fingerprint mixed with an option fingerprint;
//!   LRU in memory, optionally persisted to disk as JSON.  A cache hit
//!   skips every phase after Preliminary.
//! * **Robustness** — per-function panic isolation (`catch_unwind`), an
//!   optional per-pass time budget (`pass_budget` in
//!   [`ServiceConfig::options`], checked by the pipeline between passes,
//!   no thread per job), and graceful degradation: a function whose
//!   pipeline panics or runs over budget is recompiled with
//!   transformations off and the fault is recorded as an [`Incident`].  A between-pass check suffices
//!   because every pass terminates: the §7 optimizer is capped by
//!   `OptOptions::max_rounds` and the other passes are bounded tree
//!   walks.
//! * **Observability** — cache hit/miss/evict counters, queue depth,
//!   per-worker and per-phase totals, one [`JobRecord`] per function,
//!   all serializable for `report --json service`.
//! * **One oracle** — after the batch, each [`OracleCase`] runs on an
//!   ordered list of *sides*, each a label, a [`PipelineOptions`] value
//!   and an engine.  The first side is the reference; every other side
//!   must agree with it, or the disagreement becomes a miscompile
//!   [`Incident`] ([`OracleVerdict`]).  `guard` contributes a
//!   transformations-off `reference` side and an `optimized` side, and
//!   [`BackendSelect::Both`] a `bytecode` side.
//! * **Guarded compilation** — with `guard` set in
//!   [`ServiceConfig::options`], every job also runs the phase
//!   validators (Table-2 well-formedness and the back-translation round
//!   trip); a seeded [`FaultPlan`] can deterministically inject cache
//!   I/O errors, corrupt reads, phase panics, pass-budget overruns, and
//!   miscompiles to drill the whole containment surface
//!   ([`GuardReport`]), or aim one fault at one function
//!   ([`FaultPlan::only_for`]).
//!
//! ```
//! use s1lisp_driver::{CompileService, ServiceConfig, SourceUnit};
//!
//! let service = CompileService::new(ServiceConfig::with_jobs(4));
//! let units = [SourceUnit::new("demo", "(defun sq (x) (* x x))")];
//! let batch = service.compile_batch(&units);
//! assert_eq!(batch.artifacts.len(), 1);
//! assert!(batch.artifact("sq").unwrap().assembly.contains("RET"));
//! // Recompiling the same unit is pure cache traffic.
//! let again = service.compile_batch(&units);
//! assert_eq!(again.hit_rate_percent(), 100);
//! ```

#![warn(missing_docs)]

mod cache;
pub mod fsio;
mod service;

pub use cache::{ArtifactCache, CacheStats};
pub use s1lisp::{BackendKind, FaultPlan, FaultSite, PipelineOptions};
pub use service::{
    BatchResult, BatchStats, CompileService, GuardReport, Incident, IncidentKind, JobRecord,
    OracleVerdict, Outcome, WorkerStats,
};

use std::path::PathBuf;

/// One compilation unit: a named batch of top-level forms.
#[derive(Clone, Debug)]
pub struct SourceUnit {
    /// A label for reports (a file name, an experiment id, …).
    pub name: String,
    /// The top-level forms (`defun`/`defvar`/`proclaim`).
    pub source: String,
}

impl SourceUnit {
    /// Builds a unit from anything string-like.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> SourceUnit {
        SourceUnit {
            name: name.into(),
            source: source.into(),
        }
    }
}

/// One oracle case: after the batch, call `entry` with the given
/// arguments on every oracle side and demand that each agrees with the
/// reference side.  Arguments are printed datums (`"3"`, `"-1.5"`,
/// `"(1 2)"`) so the configuration stays plain cross-thread data.
#[derive(Clone, Debug)]
pub struct OracleCase {
    /// The function to call.
    pub entry: String,
    /// Printed-datum arguments.
    pub args: Vec<String>,
}

impl OracleCase {
    /// Builds a case from anything string-like.
    pub fn new(
        entry: impl Into<String>,
        args: impl IntoIterator<Item = impl Into<String>>,
    ) -> OracleCase {
        OracleCase {
            entry: entry.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }
}

/// Per-batch adjustments a multi-tenant caller (the compile server)
/// threads through the shared worker pool without cloning the service.
///
/// The default is inert: [`CompileService::compile_batch`] is exactly
/// `compile_batch_with(units, BatchTuning::default())`, and a zero salt
/// leaves every cache key untouched, so single-tenant callers see
/// byte-identical behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTuning {
    /// XORed into every artifact-cache key.  A tenant fingerprint here
    /// partitions the shared cache: two tenants compiling the same form
    /// under the same options get distinct keys, so neither can warm-hit
    /// (or even observe the existence of) the other's artifacts.
    pub key_salt: u64,
    /// Compile with every source-level transformation off (and CSE
    /// disabled) — the configuration a tenant is demoted to once its
    /// incident budget is exhausted.  Unlike the per-job degraded
    /// *retry*, these are clean first-attempt compiles: they cache
    /// normally (under the transformations-off option fingerprint) and
    /// their artifacts are not marked degraded.
    pub transformations_off: bool,
}

/// Which code generator a batch compiles with.
///
/// [`BackendSelect::Both`] is the cross-backend oracle mode: jobs
/// compile (and cache, and ship) S-1 artifacts exactly as
/// [`BackendSelect::S1`] does, and the oracle gains a `bytecode` side —
/// every [`OracleCase`] also runs on a bytecode compilation of the same
/// units, on the stack evaluator, under the same fuel.  A disagreement
/// is an [`IncidentKind::Miscompile`]; the S-1 artifact is what ships
/// either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendSelect {
    /// The paper's S-1 backend (code generation + peephole).
    #[default]
    S1,
    /// The portable bytecode backend.
    Bytecode,
    /// Compile S-1, cross-check every oracle case against bytecode.
    Both,
}

impl BackendSelect {
    /// Parses a report/CLI label (`"s1"`, `"bytecode"`/`"bc"`,
    /// `"both"`).
    pub fn parse(s: &str) -> Option<BackendSelect> {
        match s {
            "both" => Some(BackendSelect::Both),
            _ => BackendKind::parse(s).map(|k| match k {
                BackendKind::S1 => BackendSelect::S1,
                BackendKind::Bytecode => BackendSelect::Bytecode,
            }),
        }
    }

    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendSelect::S1 => "s1",
            BackendSelect::Bytecode => "bytecode",
            BackendSelect::Both => "both",
        }
    }

    /// The backend batch jobs compile with (what the artifacts carry).
    pub fn primary(self) -> BackendKind {
        match self {
            BackendSelect::Bytecode => BackendKind::Bytecode,
            BackendSelect::S1 | BackendSelect::Both => BackendKind::S1,
        }
    }
}

/// Service configuration.  `options` are the compiler switches every
/// job compiles under; with the primary backend they key the artifact
/// cache.  The rest shape scheduling, the cache tiers and the oracle.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (`1` = serial on the caller's thread).
    pub jobs: usize,
    /// The compiler switches for every job.  Beyond the code-shaping
    /// ones:
    /// * `guard` runs the phase validators (well-formedness +
    ///   back-translation round trip) on every job, routes violations
    ///   to the degraded path, and adds the oracle's `reference` and
    ///   `optimized` sides;
    /// * `fault_plan` arms the cache, phase, overrun and oracle
    ///   injection sites (the overrun site needs a `pass_budget` to
    ///   overrun);
    /// * `pass_budget` is the per-*pass* wall-clock budget: an overrun
    ///   fails the function with a structured [`s1lisp::PassOverrun`]
    ///   naming the slow pass, and the service records a timeout
    ///   incident and takes the degraded path.
    pub options: PipelineOptions,
    /// Which backend jobs compile with, and whether the oracle gains a
    /// `bytecode` side ([`BackendSelect::Both`]).  The backend salts
    /// the option fingerprint, so the artifact cache is partitioned
    /// per backend automatically.
    pub backend: BackendSelect,
    /// In-memory cache entries to keep (LRU beyond this).
    pub cache_capacity: usize,
    /// Directory for the persistent cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Bound on entries in the persistent tier (the oldest are swept
    /// after each write); `None` leaves on-disk growth unbounded.
    pub disk_max_entries: Option<usize>,
    /// Oracle cases, run after the batch on every oracle side.
    pub oracle: Vec<OracleCase>,
    /// Instruction budget per execution — each oracle side's run of
    /// each case, and each `run` request of the compile server — so a
    /// diverging or runaway program traps instead of hanging.
    pub fuel: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            jobs: 1,
            options: PipelineOptions::default(),
            backend: BackendSelect::S1,
            cache_capacity: 512,
            cache_dir: None,
            disk_max_entries: None,
            oracle: Vec::new(),
            fuel: 100_000_000,
        }
    }
}

impl ServiceConfig {
    /// The default configuration at a given worker count.
    pub fn with_jobs(jobs: usize) -> ServiceConfig {
        ServiceConfig {
            jobs,
            ..ServiceConfig::default()
        }
    }
}

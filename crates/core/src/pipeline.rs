//! The pass manager: Table 1 as an executable schedule.
//!
//! The paper presents compilation as an explicit ordered table of
//! phases; this module reifies that order as data.  Each phase is a
//! [`Pass`] over a shared [`UnitState`] (the function's tree plus the
//! analyses and annotations accumulated so far), and a [`Pipeline`] is
//! the ordered schedule [`Compiler::compile_str`](crate::Compiler)
//! merely runs.  The cross-cutting machinery — trace spans, per-pass
//! counters, the fault-injection trip points of
//! [`trip_phase_faults`](crate::phases::trip_phase_faults), and the
//! guard validators — lives *inside* passes instead of in parallel code
//! paths, so the `Compiler`, the driver service, and `explain`/dossiers
//! all observe one pipeline description.
//!
//! Pass order is execution order (= trace-span order), which differs
//! from Table 1's presentation order in one place the paper itself
//! notes: special-variable placement is computed with the analysis
//! quartet, before the source-level transformations.  The mapping from
//! passes back to Table 1 rows ([`PassInfo::table1`]) is cross-checked
//! against [`phases()`](crate::phases::phases) by test.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use s1lisp_analysis::{Complexity, Effects, EnvInfo, SpecialPlacement};
use s1lisp_annotate::{Annotations, BindingInfo, PdlInfo, RepInfo};
use s1lisp_ast::{unparse, NodeId, Tree};
use s1lisp_codegen::CodegenOptions;
use s1lisp_opt::{OptOptions, Optimizer, Transcript};
use s1lisp_reader::pretty;
use s1lisp_s1sim::Program;
use s1lisp_trace::fault::{FaultPlan, FaultSite};
use s1lisp_trace::TraceSink;

use crate::error::{CompileError, PassOverrun};
use crate::{guard, phases};

// ------------------------------------------------------------ unit state

/// Everything the analysis passes computed for one function, carried in
/// the [`UnitState`] for downstream passes (and external consumers like
/// the scheduling heuristics) to read instead of recomputing.
///
/// Each field is `None` until its pass has run.  The emission passes do
/// not *require* them — per the paper, analysis is co-routined inside
/// the optimizer and the annotators re-derive what they need — so a
/// custom pipeline may omit analysis passes entirely.
#[derive(Debug, Default)]
pub struct UnitAnalyses {
    /// Per-subtree read/write sets and referent back-pointers.
    pub environment: Option<EnvInfo>,
    /// Side-effect class per node.
    pub effects: Option<HashMap<NodeId, Effects>>,
    /// Object-code size estimate per node (the root's entry is the
    /// whole-function estimate the service's size-sorted scheduling
    /// uses).
    pub complexity: Option<HashMap<NodeId, Complexity>>,
    /// Nodes in tail position.
    pub tails: Option<HashSet<NodeId>>,
    /// Special-variable lookup placements.
    pub placements: Option<Vec<SpecialPlacement>>,
}

/// The machine-dependent annotations, accumulated pass by pass.
#[derive(Debug, Default)]
pub struct UnitAnnotations {
    /// How each lambda compiles; where each variable lives.
    pub binding: Option<BindingInfo>,
    /// WANTREP/ISREP for every node; representation of every variable.
    pub rep: Option<RepInfo>,
    /// PDLOKP/PDLNUMP and the stack-boxing decisions.
    pub pdl: Option<PdlInfo>,
}

/// The state one function accumulates as it moves through a
/// [`Pipeline`]: the (mutable) converted tree, the back-translated
/// source snapshots, the optimizer's transcript, and the analysis and
/// annotation results.
#[derive(Debug)]
pub struct UnitState {
    func: s1lisp_frontend::Function,
    /// The `defun` name.
    pub name: String,
    /// Back-translated source as converted (before any transformation).
    pub converted: String,
    /// The optimizer's transcript, filled by the source-level
    /// optimization pass.
    pub transcript: Transcript,
    /// Source-level transformations applied so far (optimizer + CSE).
    pub transformations: usize,
    /// Analysis results, filled by the analysis passes.
    pub analyses: UnitAnalyses,
    /// Machine-dependent annotations, filled by the annotation passes.
    pub annotations: UnitAnnotations,
}

impl UnitState {
    /// Wraps a converted function, snapshotting its back-translated
    /// source.
    pub fn new(func: s1lisp_frontend::Function) -> UnitState {
        let name = func.name.as_str().to_string();
        let converted = pretty(&unparse(&func.tree, func.tree.root), 78);
        UnitState {
            func,
            name,
            converted,
            transcript: Transcript::default(),
            transformations: 0,
            analyses: UnitAnalyses::default(),
            annotations: UnitAnnotations::default(),
        }
    }

    /// The function's tree.
    pub fn tree(&self) -> &Tree {
        &self.func.tree
    }

    /// The function's tree, mutably (the source-level passes rewrite it
    /// in place).
    pub fn tree_mut(&mut self) -> &mut Tree {
        &mut self.func.tree
    }

    /// Tears the state down into the converted function and the
    /// artifacts the compiler records: `(function, converted source,
    /// transcript, transformation count)`.
    pub fn into_parts(self) -> (s1lisp_frontend::Function, String, Transcript, usize) {
        (
            self.func,
            self.converted,
            self.transcript,
            self.transformations,
        )
    }
}

// ------------------------------------------------------------ pass trait

/// Shared context a pass runs against: the telemetry sink and the
/// output containers the emission passes extend — the S-1 program
/// (codegen + peephole) and the bytecode module (the bytecode
/// backend's emitter).
pub struct PassCx<'a> {
    /// Telemetry sink; a disabled sink makes spans/counters no-ops.
    pub sink: &'a mut dyn TraceSink,
    /// The S-1 program compiled so far.
    pub program: &'a mut Program,
    /// The bytecode module compiled so far.
    pub bytecode: &'a mut s1lisp_bytecode::Module,
}

/// One named phase of the per-function pipeline.
pub trait Pass {
    /// The pass's name (for schedules, budgets, and `report --passes`).
    fn name(&self) -> &'static str;

    /// The Table 1 rows this pass implements (empty for cross-cutting
    /// wrapper passes like the guard validators and fault trip points).
    fn table1(&self) -> &'static [&'static str] {
        &[]
    }

    /// The crate/module implementing the pass, matching the attribution
    /// in [`phases()`](crate::phases::phases) where a row exists.
    fn module(&self) -> &'static str;

    /// Runs the pass over one function.
    ///
    /// # Errors
    ///
    /// A [`CompileError`] aborts the rest of the unit's pipeline.
    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError>;
}

/// One row of [`Pipeline::describe`]: the static facts about a
/// scheduled pass plus whether the current options enable it.
#[derive(Clone, Debug)]
pub struct PassInfo {
    /// Pass name.
    pub name: &'static str,
    /// Table 1 rows the pass implements.
    pub table1: &'static [&'static str],
    /// Implementing crate/module.
    pub module: &'static str,
    /// Whether the schedule will run it under the options it was built
    /// from.
    pub enabled: bool,
}

/// Which code-generation backend closes the pipeline.
///
/// The front of the schedule — guards, the analysis quartet,
/// source-level optimization, and the three machine-dependent
/// annotation passes — is backend-independent; the [`Backend`]
/// contributes only the emission tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// S-1 assembly via `s1lisp-codegen` + TNBIND, run on the
    /// simulator.  The reference backend.
    #[default]
    S1,
    /// Portable linear bytecode via `s1lisp-bytecode`, run on its
    /// stack-frame evaluator.
    Bytecode,
}

impl BackendKind {
    /// Stable identifier, used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::S1 => "s1",
            BackendKind::Bytecode => "bytecode",
        }
    }

    /// Fingerprint salt folded into [`PipelineOptions::fingerprint`] so artifacts from different backends can never satisfy each
    /// other's cache keys.
    pub fn salt(self) -> &'static str {
        self.name()
    }

    /// Parses a CLI spelling ([`BackendKind::name`]).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "s1" => Some(BackendKind::S1),
            "bytecode" | "bc" => Some(BackendKind::Bytecode),
            _ => None,
        }
    }
}

/// A code-generation backend: a name, a cache-key salt, and the
/// emission passes it appends to the backend-independent front of the
/// schedule.
pub trait Backend {
    /// Stable identifier ([`BackendKind::name`]).
    fn name(&self) -> &'static str;

    /// Fingerprint salt ([`BackendKind::salt`]).
    fn salt(&self) -> &'static str;

    /// The emission tail of the schedule, with per-pass enablement.
    fn passes(&self, options: &PipelineOptions) -> Vec<(Box<dyn Pass + Send + Sync>, bool)>;
}

/// The S-1 backend: TNBIND + code generation, then the peephole
/// (branch-tensioning) pass — exactly the emission tail the pipeline
/// always had, byte for byte.
pub struct S1Backend;

impl Backend for S1Backend {
    fn name(&self) -> &'static str {
        BackendKind::S1.name()
    }

    fn salt(&self) -> &'static str {
        BackendKind::S1.salt()
    }

    fn passes(&self, options: &PipelineOptions) -> Vec<(Box<dyn Pass + Send + Sync>, bool)> {
        vec![
            (
                Box::new(EmitPass {
                    options: options.codegen_options.clone(),
                }),
                true,
            ),
            (Box::new(PeepholePass), options.tension_branches),
        ]
    }
}

/// The bytecode backend: one emission pass lowering the annotated tree
/// to the portable linear bytecode (branch tensioning does not apply —
/// the emitter resolves labels to absolute targets directly).
pub struct BytecodeBackend;

impl Backend for BytecodeBackend {
    fn name(&self) -> &'static str {
        BackendKind::Bytecode.name()
    }

    fn salt(&self) -> &'static str {
        BackendKind::Bytecode.salt()
    }

    fn passes(&self, _options: &PipelineOptions) -> Vec<(Box<dyn Pass + Send + Sync>, bool)> {
        vec![(Box::new(BytecodeEmitPass), true)]
    }
}

/// The [`Backend`] implementation for a [`BackendKind`].
pub fn backend_for(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::S1 => Box::new(S1Backend),
        BackendKind::Bytecode => Box::new(BytecodeBackend),
    }
}

/// The compiler's switches, declared once: the code-shaping options
/// (§7 transformations, optional CSE, code generation, branch
/// tensioning) plus the cross-cutting guard/fault/budget machinery.
/// A [`Compiler`](crate::Compiler) and a compilation service each hold
/// one of these; with a [`BackendKind`] it builds a [`Pipeline`] and
/// keys the artifact cache ([`PipelineOptions::fingerprint`]).
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Source-level optimization switches.
    pub opt_options: OptOptions,
    /// Whether the (optional) common sub-expression elimination pass
    /// runs (§4.3).
    pub cse: bool,
    /// Code-generation switches.
    pub codegen_options: CodegenOptions,
    /// Whether the branch-tensioning (peephole) pass runs.
    pub tension_branches: bool,
    /// Guarded compilation: the tree is validated against the Table-2
    /// well-formedness invariants and the §7 back-translation round
    /// trip after conversion and after the source-level
    /// transformations; a violation is a [`CompileError::Guard`]
    /// instead of silently emitted code.
    pub guard: bool,
    /// Seeded fault plan for the fault-injection pass; `None` (the
    /// default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Per-pass wall-clock budget: a pass that runs longer fails the
    /// unit with [`CompileError::Overrun`].  Checked after each pass
    /// returns, so the compilation service attributes overruns to a
    /// phase without spawning a thread per function.  A soft budget
    /// suffices because every pass terminates: the §7 optimizer stops
    /// after [`OptOptions::max_rounds`] rounds and the other passes are
    /// bounded tree walks.  `None` (the default) never times out.
    pub pass_budget: Option<Duration>,
}

impl Default for PipelineOptions {
    /// Every optimization enabled (CSE aside), branches tensioned, no
    /// guard, fault plan or budget.
    fn default() -> PipelineOptions {
        PipelineOptions {
            opt_options: OptOptions::default(),
            cse: false,
            codegen_options: CodegenOptions::default(),
            tension_branches: true,
            guard: false,
            fault_plan: None,
            pass_budget: None,
        }
    }
}

impl PipelineOptions {
    /// *No* optimization: the E12 baseline.
    pub fn unoptimized() -> PipelineOptions {
        PipelineOptions {
            opt_options: OptOptions::none(),
            codegen_options: CodegenOptions {
                tail_calls: false,
                pdl_numbers: false,
                cache_specials: false,
                register_allocation: false,
                representation_analysis: false,
                backtracking_pack: false,
            },
            tension_branches: false,
            ..PipelineOptions::default()
        }
    }

    /// The same options with every source-level transformation off
    /// ([`OptOptions::none`], CSE off): the degraded retry, a demoted
    /// tenant, and the oracle's reference side.
    pub fn transformations_off(self) -> PipelineOptions {
        PipelineOptions {
            opt_options: OptOptions::none(),
            cse: false,
            ..self
        }
    }

    /// The same options with the guard validators, the fault plan and
    /// the pass budget off: a compile that must run clean (the degraded
    /// retry, the oracle sides, a tenant's replay).
    pub fn unguarded(self) -> PipelineOptions {
        PipelineOptions {
            guard: false,
            fault_plan: None,
            pass_budget: None,
            ..self
        }
    }

    /// A fingerprint of every switch that can change emitted code under
    /// `backend`: the source-level optimization options (except
    /// `trace`, which only affects logging), CSE, the code-generation
    /// options, branch tensioning, and the backend itself.  Mixed with
    /// a tree fingerprint this keys the compilation service's artifact
    /// cache, so two configurations produce the same key exactly when
    /// they would produce the same artifact for the same converted
    /// tree.
    ///
    /// The canonical string is salted with the crate version and a
    /// hand-bumped [`CACHE_SCHEMA_VERSION`](crate::CACHE_SCHEMA_VERSION),
    /// so artifacts cached on disk by one build can never satisfy a
    /// different build sharing the same `--cache-dir` — a primop-table
    /// or cost-model change between versions silently invalidates every
    /// old entry.  Bump the schema integer whenever emitted code can
    /// change without any option changing.
    pub fn fingerprint(&self, backend: BackendKind) -> u64 {
        let o = &self.opt_options;
        let g = &self.codegen_options;
        let canonical = format!(
            "v:{}/{} opt:{}{}{}{}{}{}{}{}{}{} rounds:{} cse:{} cg:{}{}{}{}{}{} tension:{}",
            env!("CARGO_PKG_VERSION"),
            crate::CACHE_SCHEMA_VERSION,
            u8::from(o.call_lambda),
            u8::from(o.unused_args),
            u8::from(o.substitution),
            u8::from(o.if_distribution),
            u8::from(o.if_simplify),
            u8::from(o.if_lift),
            u8::from(o.constant_fold),
            u8::from(o.assoc_commut),
            u8::from(o.sin_to_cycles),
            u8::from(o.unroll),
            o.max_rounds,
            u8::from(self.cse),
            u8::from(g.tail_calls),
            u8::from(g.pdl_numbers),
            u8::from(g.cache_specials),
            u8::from(g.register_allocation),
            u8::from(g.representation_analysis),
            u8::from(g.backtracking_pack),
            u8::from(self.tension_branches),
        );
        // The backend salt keeps per-backend artifacts apart: the same
        // tree under the same switches emits different code per
        // backend, so their cache keys must differ too.
        let canonical = format!("{canonical} backend:{}", backend.salt());
        s1lisp_ast::fnv1a_str(&canonical)
    }
}

// ------------------------------------------------------------- pipeline

/// An ordered schedule of [`Pass`]es with per-pass enablement, built
/// from a [`PipelineOptions`] and a [`BackendKind`], and run over each
/// function's [`UnitState`].
pub struct Pipeline {
    passes: Vec<(Box<dyn Pass + Send + Sync>, bool)>,
    pass_budget: Option<Duration>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.pass_names())
            .field("pass_budget", &self.pass_budget)
            .finish()
    }
}

impl Pipeline {
    /// The standard per-function schedule under the given options: the
    /// fault trip point and conversion-side guard, the analysis
    /// quartet plus special-variable placement, source-level
    /// optimization (with its fixpoint rounds) and optional CSE, the
    /// back-translation guard, the three machine-dependent annotation
    /// passes, TNBIND + code generation, and the peephole optimizer.
    /// Disabled passes stay in the schedule (so `describe` shows them)
    /// but are skipped by [`Pipeline::run`].  The emission tail comes
    /// from `backend`'s [`Backend`].
    pub fn from_options(options: &PipelineOptions, backend: BackendKind) -> Pipeline {
        let mut passes: Vec<(Box<dyn Pass + Send + Sync>, bool)> = vec![
            (
                Box::new(FaultTripPass {
                    plan: options.fault_plan.clone(),
                    budget: options.pass_budget,
                }),
                options.fault_plan.is_some(),
            ),
            (
                Box::new(GuardPass {
                    name: "Guard: conversion",
                    stage: "conversion",
                }),
                options.guard,
            ),
            (Box::new(EnvironmentPass), true),
            (Box::new(EffectsPass), true),
            (Box::new(ComplexityPass), true),
            (Box::new(TailsPass), true),
            (Box::new(SpecialsPass), true),
            (
                Box::new(SourceOptPass {
                    options: options.opt_options.clone(),
                    guard: options.guard,
                }),
                true,
            ),
            (Box::new(CsePass), options.cse),
            (
                Box::new(GuardPass {
                    name: "Guard: back-translation",
                    stage: "back-translation",
                }),
                options.guard,
            ),
            (Box::new(BindingPass), true),
            (Box::new(RepPass), true),
            (Box::new(PdlPass), true),
        ];
        passes.extend(backend_for(backend).passes(options));
        Pipeline {
            passes,
            pass_budget: options.pass_budget,
        }
    }

    /// Runs every enabled pass, in order, over one unit.
    ///
    /// # Errors
    ///
    /// The first pass failure, or a [`CompileError::Overrun`] when a
    /// pass exceeds the configured budget.
    pub fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        for (pass, enabled) in &self.passes {
            if !enabled {
                continue;
            }
            let start = self.pass_budget.map(|_| Instant::now());
            pass.run(unit, cx)?;
            if let (Some(budget), Some(start)) = (self.pass_budget, start) {
                let elapsed = start.elapsed();
                if elapsed > budget {
                    return Err(CompileError::Overrun(PassOverrun {
                        function: unit.name.clone(),
                        pass: pass.name(),
                        elapsed,
                        budget,
                    }));
                }
            }
        }
        Ok(())
    }

    /// The schedule as data, for `report --passes` and the Table-1
    /// cross-check.
    pub fn describe(&self) -> Vec<PassInfo> {
        self.passes
            .iter()
            .map(|(p, enabled)| PassInfo {
                name: p.name(),
                table1: p.table1(),
                module: p.module(),
                enabled: *enabled,
            })
            .collect()
    }

    /// The pass names, in schedule order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|(p, _)| p.name()).collect()
    }

    /// The configured per-pass budget, if any.
    pub fn pass_budget(&self) -> Option<Duration> {
        self.pass_budget
    }

    /// Reorders the named passes into the given order, keeping their
    /// schedule slots (every other pass stays put).  Returns `false` —
    /// leaving the schedule untouched — unless each name matches
    /// exactly one scheduled pass.  Testing hook for commutation
    /// properties (e.g. permuting the pure analysis quartet).
    pub fn permute(&mut self, names: &[&str]) -> bool {
        let mut slots = Vec::new();
        for (i, (p, _)) in self.passes.iter().enumerate() {
            if names.contains(&p.name()) {
                slots.push(i);
            }
        }
        if slots.len() != names.len() {
            return false;
        }
        // Pull the named passes out (right to left, so indices stay
        // valid), order them per `names`, and drop them back into the
        // vacated slots left to right.
        let mut pulled: Vec<(Box<dyn Pass + Send + Sync>, bool)> = Vec::new();
        for &i in slots.iter().rev() {
            pulled.push(self.passes.remove(i));
        }
        let mut ordered = Vec::new();
        for name in names {
            let Some(k) = pulled.iter().position(|(p, _)| p.name() == *name) else {
                // Duplicate or unknown name: restore and bail.
                for (offset, entry) in pulled.into_iter().rev().enumerate() {
                    self.passes.insert(slots[offset], entry);
                }
                return false;
            };
            ordered.push(pulled.swap_remove(k));
        }
        for (&slot, entry) in slots.iter().zip(ordered) {
            self.passes.insert(slot, entry);
        }
        true
    }
}

// ------------------------------------------------------------- passes

/// Cross-cutting: trips the plan's faults for the function at the head
/// of the pipeline.  An armed `Overrun` sleeps just past the pass
/// budget, so the pipeline's own check reports it (with no budget it
/// never fires); otherwise any armed per-phase panic fires (one
/// deterministic decision per Table-1 phase key), where the service's
/// isolation layer catches it.
struct FaultTripPass {
    plan: Option<FaultPlan>,
    budget: Option<Duration>,
}

impl Pass for FaultTripPass {
    fn name(&self) -> &'static str {
        "Fault injection"
    }

    fn module(&self) -> &'static str {
        "s1lisp::phases::trip_phase_faults"
    }

    fn run(&self, unit: &mut UnitState, _cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        if let Some(budget) = self.budget {
            if plan.fires(FaultSite::Overrun, &unit.name) {
                std::thread::sleep(budget + budget / 4 + Duration::from_millis(20));
                return Ok(());
            }
        }
        phases::trip_phase_faults(plan, &unit.name);
        Ok(())
    }
}

/// Cross-cutting: the guard validators — Table-2 well-formedness and
/// the §7 back-translation round trip — at a named pipeline stage.
struct GuardPass {
    name: &'static str,
    stage: &'static str,
}

impl Pass for GuardPass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn module(&self) -> &'static str {
        "s1lisp::guard"
    }

    fn run(&self, unit: &mut UnitState, _cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        guard::validate_tree(&unit.name, self.stage, unit.tree())?;
        guard::round_trip(&unit.name, self.stage, unit.tree())?;
        Ok(())
    }
}

/// Environment analysis (Table 1): read/write sets per subtree.
struct EnvironmentPass;

impl Pass for EnvironmentPass {
    fn name(&self) -> &'static str {
        "Environment analysis"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Environment analysis"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-analysis::env"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let sp = cx.sink.span_begin("Environment analysis", &unit.name);
        let env = s1lisp_analysis::environment(unit.tree());
        if cx.sink.enabled() {
            cx.sink.add("nodes", unit.tree().node_count() as u64);
        }
        cx.sink.span_end(sp);
        unit.analyses.environment = Some(env);
        Ok(())
    }
}

/// Side-effects analysis (Table 1): effect class per subtree.
struct EffectsPass;

impl Pass for EffectsPass {
    fn name(&self) -> &'static str {
        "Side-effects analysis"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Side-effects analysis"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-analysis::effects"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let sp = cx.sink.span_begin("Side-effects analysis", &unit.name);
        let fx = s1lisp_analysis::effects(unit.tree());
        if cx.sink.enabled() {
            cx.sink.add("classified_nodes", fx.len() as u64);
        }
        cx.sink.span_end(sp);
        unit.analyses.effects = Some(fx);
        Ok(())
    }
}

/// Complexity analysis (Table 1): object-code size estimates.
struct ComplexityPass;

impl Pass for ComplexityPass {
    fn name(&self) -> &'static str {
        "Complexity analysis"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Complexity analysis"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-analysis::complexity"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let sp = cx.sink.span_begin("Complexity analysis", &unit.name);
        let cxm = s1lisp_analysis::complexity(unit.tree());
        if cx.sink.enabled() {
            cx.sink.add("estimated_nodes", cxm.len() as u64);
        }
        cx.sink.span_end(sp);
        unit.analyses.complexity = Some(cxm);
        Ok(())
    }
}

/// Tail-recursion analysis (Table 1): nodes in tail position.
struct TailsPass;

impl Pass for TailsPass {
    fn name(&self) -> &'static str {
        "Tail-recursion analysis"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Tail-recursion analysis"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-analysis::tails"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let sp = cx.sink.span_begin("Tail-recursion analysis", &unit.name);
        let tails = s1lisp_analysis::tail_nodes(unit.tree());
        if cx.sink.enabled() {
            cx.sink.add("tail_nodes", tails.len() as u64);
        }
        cx.sink.span_end(sp);
        unit.analyses.tails = Some(tails);
        Ok(())
    }
}

/// Special-variable lookup placement (Table 1).
struct SpecialsPass;

impl Pass for SpecialsPass {
    fn name(&self) -> &'static str {
        "Special variable lookups"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Special variable lookups"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-analysis::specials + codegen entry caching"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let sp = cx.sink.span_begin("Special variable lookups", &unit.name);
        let placements = s1lisp_analysis::special_placements(unit.tree());
        if cx.sink.enabled() {
            cx.sink.add("placements", placements.len() as u64);
        }
        cx.sink.span_end(sp);
        unit.analyses.placements = Some(placements);
        Ok(())
    }
}

/// Source-level optimization (Table 1, §5): the fixpoint of
/// [`Optimizer::round`] over the tree, preceded by the optional unroll
/// stage; under guarded compilation each applied round is validated
/// with [`Optimizer::check_round`].
struct SourceOptPass {
    options: OptOptions,
    guard: bool,
}

impl SourceOptPass {
    fn fixpoint(opt: &mut Optimizer, tree: &mut Tree, name: &str) -> usize {
        let mut total = 0;
        if opt.options.unroll {
            total += opt.unroll_stage(tree, name);
        }
        for _ in 0..opt.options.max_rounds {
            let applied = opt.round(tree);
            total += applied;
            if applied == 0 {
                break;
            }
        }
        tree.rebuild_backlinks();
        total
    }

    fn fixpoint_checked(opt: &mut Optimizer, tree: &mut Tree, name: &str) -> Result<usize, String> {
        let mut total = 0;
        if opt.options.unroll {
            total += opt.unroll_stage(tree, name);
            opt.check_round(tree, 0)?;
        }
        for round in 1..=opt.options.max_rounds {
            let applied = opt.round(tree);
            total += applied;
            if applied > 0 {
                opt.check_round(tree, round)?;
            }
            if applied == 0 {
                break;
            }
        }
        tree.rebuild_backlinks();
        Ok(total)
    }
}

impl Pass for SourceOptPass {
    fn name(&self) -> &'static str {
        "Source-level optimization"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Source-level optimization"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-opt"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let name = unit.name.clone();
        let sp = cx.sink.span_begin("Source-level optimization", &name);
        let nodes_before = unit.tree().node_count();
        let mut opt = Optimizer::with_options(self.options.clone());
        let result = if self.guard {
            Self::fixpoint_checked(&mut opt, unit.tree_mut(), &name)
        } else {
            Ok(Self::fixpoint(&mut opt, unit.tree_mut(), &name))
        };
        if cx.sink.enabled() {
            cx.sink
                .add("transformations", *result.as_ref().unwrap_or(&0) as u64);
            cx.sink.add("nodes_before", nodes_before as u64);
            cx.sink.add("nodes_after", unit.tree().node_count() as u64);
        }
        cx.sink.span_end(sp);
        let applied = result.map_err(|detail| guard::GuardError {
            function: name,
            stage: "source-level optimization",
            detail,
        })?;
        unit.transformations = applied;
        unit.transcript = std::mem::take(&mut opt.transcript);
        Ok(())
    }
}

/// Optional common sub-expression elimination (Table 1, §4.3).
struct CsePass;

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "Common subexpression elimination"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Common subexpression elimination"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-opt::cse"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let sp = cx
            .sink
            .span_begin("Common subexpression elimination", &unit.name);
        let eliminated = s1lisp_opt::cse::eliminate(unit.tree_mut());
        unit.transformations += eliminated;
        if cx.sink.enabled() {
            cx.sink.add("eliminated", eliminated as u64);
        }
        cx.sink.span_end(sp);
        Ok(())
    }
}

fn schedule_error(message: &str) -> CompileError {
    CompileError::Codegen(s1lisp_codegen::CodegenError {
        message: message.to_string(),
    })
}

/// Binding annotation (Table 1, §4.4).
struct BindingPass;

impl Pass for BindingPass {
    fn name(&self) -> &'static str {
        "Binding annotation"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Binding annotation"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-annotate::binding"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let binding = s1lisp_annotate::binding_annotation_traced(unit.tree(), &unit.name, cx.sink);
        unit.annotations.binding = Some(binding);
        Ok(())
    }
}

/// Representation annotation (Table 1, §6.2): WANTREP/ISREP.
struct RepPass;

impl Pass for RepPass {
    fn name(&self) -> &'static str {
        "Representation annotation"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Representation annotation"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-annotate::rep"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let Some(binding) = unit.annotations.binding.as_ref() else {
            return Err(schedule_error(
                "pipeline schedule error: representation annotation needs binding annotation",
            ));
        };
        let rep = s1lisp_annotate::rep_annotation_traced(unit.tree(), binding, &unit.name, cx.sink);
        unit.annotations.rep = Some(rep);
        Ok(())
    }
}

/// Pdl number annotation (Table 1, §6.3).
struct PdlPass;

impl Pass for PdlPass {
    fn name(&self) -> &'static str {
        "Pdl number annotation"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Pdl number annotation"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-annotate::pdl"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let (Some(binding), Some(rep)) = (
            unit.annotations.binding.as_ref(),
            unit.annotations.rep.as_ref(),
        ) else {
            return Err(schedule_error(
                "pipeline schedule error: pdl annotation needs binding and rep annotation",
            ));
        };
        let pdl =
            s1lisp_annotate::pdl_annotation_traced(unit.tree(), binding, rep, &unit.name, cx.sink);
        unit.annotations.pdl = Some(pdl);
        Ok(())
    }
}

/// TNBIND + code generation (Table 1): the per-lambda work loop of
/// pass-1 emit, TN packing ("Target annotation"), and the pass-2
/// re-emit when packing promoted variables to registers.
struct EmitPass {
    options: CodegenOptions,
}

impl Pass for EmitPass {
    fn name(&self) -> &'static str {
        "Code generation"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Target annotation", "Code generation"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-codegen + s1lisp-tnbind"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let (Some(binding), Some(rep), Some(pdl)) = (
            unit.annotations.binding.take(),
            unit.annotations.rep.take(),
            unit.annotations.pdl.take(),
        ) else {
            return Err(schedule_error(
                "pipeline schedule error: code generation needs the annotation passes",
            ));
        };
        let ann = Annotations { binding, rep, pdl };
        let result = s1lisp_codegen::emit_annotated(
            &unit.name,
            unit.tree(),
            &ann,
            cx.program,
            &self.options,
            cx.sink,
        );
        unit.annotations = UnitAnnotations {
            binding: Some(ann.binding),
            rep: Some(ann.rep),
            pdl: Some(ann.pdl),
        };
        result?;
        Ok(())
    }
}

/// The peephole (branch-tensioning) pass (Table 1), over the emitted
/// code in the program.
struct PeepholePass;

impl Pass for PeepholePass {
    fn name(&self) -> &'static str {
        "Peephole optimizer"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Peephole optimizer"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-codegen::tension_branches"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        if let Some(id) = cx.program.lookup_fn(&unit.name) {
            if let Some(code) = cx.program.func(id) {
                let mut code = (**code).clone();
                let sp = cx.sink.span_begin("Peephole optimizer", &unit.name);
                let retargeted = s1lisp_codegen::tension_branches(&mut code);
                if cx.sink.enabled() {
                    cx.sink.add("labels_retargeted", retargeted as u64);
                }
                cx.sink.span_end(sp);
                cx.program.define(code);
            }
        }
        Ok(())
    }
}

/// The bytecode backend's emission pass: lowers the annotated tree to
/// the portable linear bytecode, appending the unit's protos to the
/// [`PassCx::bytecode`] module.  Consumes the same annotations as S-1
/// code generation — binding allocation drives slot layout, the
/// representation lowering map selects fused numeric opcodes.
struct BytecodeEmitPass;

impl Pass for BytecodeEmitPass {
    fn name(&self) -> &'static str {
        "Code generation"
    }

    fn table1(&self) -> &'static [&'static str] {
        &["Code generation"]
    }

    fn module(&self) -> &'static str {
        "s1lisp-bytecode::emit"
    }

    fn run(&self, unit: &mut UnitState, cx: &mut PassCx<'_>) -> Result<(), CompileError> {
        let (Some(binding), Some(rep), Some(pdl)) = (
            unit.annotations.binding.take(),
            unit.annotations.rep.take(),
            unit.annotations.pdl.take(),
        ) else {
            return Err(schedule_error(
                "pipeline schedule error: code generation needs the annotation passes",
            ));
        };
        let ann = Annotations { binding, rep, pdl };
        let sp = cx.sink.span_begin("Code generation", &unit.name);
        let result = s1lisp_bytecode::emit_unit(&unit.name, unit.tree(), &ann);
        if cx.sink.enabled() {
            if let Ok(protos) = &result {
                cx.sink.add("protos", protos.len() as u64);
                cx.sink.add(
                    "insns",
                    protos.iter().map(|p| p.code.len()).sum::<usize>() as u64,
                );
                cx.sink.add(
                    "consts",
                    protos.iter().map(|p| p.consts.len()).sum::<usize>() as u64,
                );
            }
        }
        cx.sink.span_end(sp);
        unit.annotations = UnitAnnotations {
            binding: Some(ann.binding),
            rep: Some(ann.rep),
            pdl: Some(ann.pdl),
        };
        let protos = result.map_err(|e| schedule_error(&e.to_string()))?;
        cx.bytecode.define_unit(protos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{phases, PhaseStatus};
    use crate::Compiler;

    #[test]
    fn pipeline_is_consistent_with_table_1() {
        let table: Vec<&str> = phases().iter().map(|p| p.name).collect();
        let infos = Compiler::new().pipeline().describe();
        // Every row a pass claims is a real Table-1 row.
        for info in &infos {
            for row in info.table1 {
                assert!(
                    table.contains(row),
                    "{} claims unknown row {row}",
                    info.name
                );
            }
        }
        // Every per-function Table-1 row that is actually implemented
        // (Preliminary runs before the per-function pipeline; subsumed
        // rows have no pass of their own) is claimed by exactly one
        // pass.
        for p in phases() {
            if p.name == "Preliminary" || p.status == PhaseStatus::Subsumed {
                continue;
            }
            let claims = infos.iter().filter(|i| i.table1.contains(&p.name)).count();
            assert_eq!(claims, 1, "{} claimed {claims} times", p.name);
        }
        // Single-row passes carry the same module attribution as the
        // table.
        for info in &infos {
            if let [row] = info.table1 {
                let table_row = phases().into_iter().find(|p| p.name == *row).unwrap();
                assert_eq!(info.module, table_row.module, "{}", info.name);
            }
        }
    }

    #[test]
    fn default_schedule_enables_exactly_the_default_passes() {
        let infos = Compiler::new().pipeline().describe();
        let enabled = |name: &str| infos.iter().find(|i| i.name == name).unwrap().enabled;
        assert!(!enabled("Fault injection"));
        assert!(!enabled("Guard: conversion"));
        assert!(!enabled("Guard: back-translation"));
        assert!(!enabled("Common subexpression elimination"));
        assert!(enabled("Source-level optimization"));
        assert!(enabled("Code generation"));
        assert!(enabled("Peephole optimizer"));
        let mut c = Compiler::new();
        c.options.cse = true;
        c.options.guard = true;
        let infos = c.pipeline().describe();
        let enabled = |name: &str| infos.iter().find(|i| i.name == name).unwrap().enabled;
        assert!(enabled("Guard: conversion"));
        assert!(enabled("Common subexpression elimination"));
    }

    #[test]
    fn backends_share_the_middle_end_and_differ_only_in_the_tail() {
        let s1 = Compiler::new().pipeline().pass_names();
        let mut c = Compiler::new();
        c.backend = BackendKind::Bytecode;
        let bc = c.pipeline().pass_names();
        // S-1 keeps its historical shape: code generation then the
        // peephole pass.
        assert_eq!(
            s1[s1.len() - 2..],
            ["Code generation", "Peephole optimizer"]
        );
        // The bytecode backend replaces that tail with its single
        // emitter pass.
        assert_eq!(bc[bc.len() - 1], "Code generation");
        assert_eq!(bc.len(), s1.len() - 1);
        // Everything upstream of the backend is identical.
        assert_eq!(s1[..s1.len() - 2], bc[..bc.len() - 1]);
    }

    #[test]
    fn options_fingerprint_tracks_code_shaping_switches() {
        let fp = |o: &PipelineOptions| o.fingerprint(BackendKind::S1);
        let base = fp(&PipelineOptions::default());
        assert_eq!(base, fp(&PipelineOptions::default()));
        assert_ne!(base, fp(&PipelineOptions::unoptimized()));
        let cse = PipelineOptions {
            cse: true,
            ..PipelineOptions::default()
        };
        assert_ne!(base, fp(&cse));
        let untensioned = PipelineOptions {
            tension_branches: false,
            ..PipelineOptions::default()
        };
        assert_ne!(base, fp(&untensioned));
        // The optimizer's trace flag does not shape code.
        let mut traced = PipelineOptions::default();
        traced.opt_options.trace = true;
        assert_eq!(base, fp(&traced));
    }

    #[test]
    fn backend_salts_the_options_fingerprint() {
        let base = PipelineOptions::default().fingerprint(BackendKind::S1);
        let bc = PipelineOptions::default();
        // Same switches, different backend: the keys must never
        // collide, or one backend's cached artifacts would satisfy the
        // other's lookups.
        assert_ne!(base, bc.fingerprint(BackendKind::Bytecode));
        // Stable per backend.
        let mut bc2 = PipelineOptions::default();
        assert_eq!(
            bc.fingerprint(BackendKind::Bytecode),
            bc2.fingerprint(BackendKind::Bytecode)
        );
        // The salt composes with the other switches rather than
        // replacing them.
        bc2.cse = true;
        assert_ne!(
            bc.fingerprint(BackendKind::Bytecode),
            bc2.fingerprint(BackendKind::Bytecode)
        );
    }

    /// The literal keys of three configurations, as computed before
    /// the compiler switches were declared once: every artifact cached
    /// on disk stays reachable.
    #[test]
    fn fingerprints_are_pinned_literals() {
        assert_eq!(
            PipelineOptions::default().fingerprint(BackendKind::S1),
            0xb590_ec7b_0198_5db5
        );
        assert_eq!(
            PipelineOptions::unoptimized().fingerprint(BackendKind::S1),
            0xa3a4_7da4_31b5_ebc0
        );
        assert_eq!(
            PipelineOptions::default().fingerprint(BackendKind::Bytecode),
            0x5d6d_e95d_4b2c_cf78
        );
    }

    /// The default options *are* the default compiler: same key, same
    /// code.
    #[test]
    fn default_options_build_the_default_compiler() {
        const SRC: &str = "(defun norm (x y) (let ((s (+$f (*$f x x) (*$f y y)))) (sqrt$f s)))";
        let mut with = Compiler::with_options(PipelineOptions::default(), BackendKind::S1);
        let mut new = Compiler::new();
        assert_eq!(
            with.options.fingerprint(with.backend),
            new.options.fingerprint(new.backend)
        );
        with.compile_str(SRC).unwrap();
        new.compile_str(SRC).unwrap();
        assert_eq!(with.disassemble("norm"), new.disassemble("norm"));
    }

    #[test]
    fn backend_kind_parses_and_salts_distinctly() {
        assert_eq!(BackendKind::parse("s1"), Some(BackendKind::S1));
        assert_eq!(BackendKind::parse("bytecode"), Some(BackendKind::Bytecode));
        assert_eq!(BackendKind::parse("bc"), Some(BackendKind::Bytecode));
        assert_eq!(BackendKind::parse("vax"), None);
        assert_ne!(BackendKind::S1.salt(), BackendKind::Bytecode.salt());
    }

    #[test]
    fn permute_reorders_only_the_named_passes() {
        let mut p = Compiler::new().pipeline();
        let before = p.pass_names();
        assert!(p.permute(&[
            "Tail-recursion analysis",
            "Complexity analysis",
            "Side-effects analysis",
            "Environment analysis",
        ]));
        let after = p.pass_names();
        assert_eq!(
            after[2..6],
            [
                "Tail-recursion analysis",
                "Complexity analysis",
                "Side-effects analysis",
                "Environment analysis",
            ]
        );
        // Everything outside the quartet is untouched.
        assert_eq!(before[..2], after[..2]);
        assert_eq!(before[6..], after[6..]);
        // Unknown names leave the schedule alone.
        assert!(!p.permute(&["No such pass"]));
        assert_eq!(p.pass_names(), after);
    }

    #[test]
    fn pass_budget_overrun_is_a_structured_error() {
        let mut c = Compiler::new();
        c.options.pass_budget = Some(Duration::ZERO);
        let err = c
            .compile_str("(defun sq (x) (* x x))")
            .expect_err("zero budget must overrun");
        match err {
            CompileError::Overrun(o) => {
                assert_eq!(o.function, "sq");
                assert!(!o.pass.is_empty());
                assert_eq!(o.budget, Duration::ZERO);
                assert!(err_to_string(&CompileError::Overrun(o)).contains("pass budget"));
            }
            other => panic!("expected overrun, got {other}"),
        }
        // A sane budget compiles normally.
        let mut c = Compiler::new();
        c.options.pass_budget = Some(Duration::from_secs(60));
        c.compile_str("(defun sq (x) (* x x))").unwrap();
        assert!(c.disassemble("sq").is_some());
    }

    #[test]
    fn planned_overrun_trips_only_under_a_pass_budget() {
        use s1lisp_trace::fault::{FaultPlan, FaultSite};
        let plan = FaultPlan::new(1).arm(FaultSite::Overrun, 1000);
        let mut c = Compiler::new();
        c.options.fault_plan = Some(plan.clone());
        c.options.pass_budget = Some(Duration::from_millis(5));
        match c.compile_str("(defun sq (x) (* x x))") {
            Err(CompileError::Overrun(o)) => assert_eq!(o.pass, "Fault injection"),
            other => panic!("expected an overrun, got {other:?}"),
        }
        // With no budget to overrun, the site never fires.
        let mut c = Compiler::new();
        c.options.fault_plan = Some(plan);
        c.compile_str("(defun sq (x) (* x x))").unwrap();
    }

    fn err_to_string(e: &CompileError) -> String {
        e.to_string()
    }
}

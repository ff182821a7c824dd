//! The pass-pipeline flow layer: typed passes, per-pass instrumentation,
//! content-keyed artifact caching, and parallel multi-style evaluation.
//!
//! [`Flow`] is the driver behind [`Synthesizer`](crate::Synthesizer) and
//! the [`experiment`](crate::experiment) module. It chains the concrete
//! passes of [`crate::passes`]
//!
//! ```text
//! Behavior → PartitionedSchedule → Datapath → SimTrace → DesignReport
//!                                     └──────── Verification
//! ```
//!
//! inside a [`FlowContext`] that wall-clocks every pass, records the
//! produced artifact's label and size, and collects diagnostics. Artifacts
//! are cached content-keyed: the key hashes the behaviour (DSL text +
//! schedule), the technology parameters, and exactly the style components
//! the artifact depends on. A [`Datapath`] is keyed *without* the power
//! mode — the paper tables' non-gated and gated rows share one
//! conventional allocation, which therefore runs once — while a
//! [`DesignReport`] additionally keys the mode, computation count and
//! stimulus seed.
//!
//! Multi-style evaluation can run on scoped threads
//! ([`Flow::evaluate_styles_parallel`]); results are deterministic and
//! bit-identical to the sequential path because every evaluation is
//! independently seeded.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mc_alloc::Datapath;
use mc_dfg::benchmarks::Benchmark;
use mc_dfg::{Dfg, Schedule};
use mc_power::DesignReport;
use mc_sim::BatchBackend;
use mc_tech::TechLibrary;

use crate::passes::{AllocatePass, Behavior, PartitionPass, PowerPass, SimulatePass, VerifyPass};
use crate::style::DesignStyle;
use crate::synthesizer::{Design, SynthesisError};

/// A value produced by a [`Pass`]: anything the flow can describe for
/// instrumentation.
pub trait Artifact {
    /// A short human-readable description, recorded in [`PassMetrics`].
    fn label(&self) -> String;

    /// A representative size (nodes, components, steps…) for growth
    /// tracking across the pipeline.
    fn size(&self) -> usize;
}

/// One stage of the synthesis flow: a typed transformation from an input
/// artifact (borrowed from the driver) to an owned output artifact.
///
/// Passes run through [`FlowContext::run`], which times them and records
/// the output artifact's statistics; inside `run` a pass reports
/// findings via [`FlowContext::info`] / [`FlowContext::warn`].
pub trait Pass {
    /// The borrowed input artifact(s).
    type Input<'a>;
    /// The produced artifact.
    type Output: Artifact;

    /// Stable pass name used in metrics and diagnostics.
    fn name(&self) -> &'static str;

    /// Executes the pass.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] when the transformation fails.
    fn run(
        &self,
        input: Self::Input<'_>,
        ctx: &mut FlowContext,
    ) -> Result<Self::Output, SynthesisError>;
}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational: normal pipeline narration.
    Info,
    /// Warning: suspicious but not fatal (e.g. an idle clock partition).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// A finding reported by a pass while it ran.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The pass that reported it.
    pub pass: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.pass, self.message)
    }
}

/// Instrumentation record for one executed (or cache-served) pass.
#[derive(Debug, Clone)]
pub struct PassMetrics {
    /// The pass name.
    pub pass: &'static str,
    /// Wall-clock duration (the cache lookup time on a hit).
    pub duration: Duration,
    /// The produced artifact's label.
    pub artifact: String,
    /// The produced artifact's representative size.
    pub artifact_size: usize,
    /// Whether the artifact came from the cache instead of running the
    /// pass.
    pub cache_hit: bool,
}

impl fmt::Display for PassMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>9.1?} {}{}",
            self.pass,
            self.duration,
            self.artifact,
            if self.cache_hit { "  (cached)" } else { "" }
        )
    }
}

/// Renders a metrics slice as an aligned multi-line block.
#[must_use]
pub fn render_metrics(metrics: &[PassMetrics]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(s, "  {m}");
    }
    s
}

/// The execution context threaded through every pass: evaluation
/// configuration plus the collected metrics and diagnostics of one
/// pipeline run.
#[derive(Debug, Clone)]
pub struct FlowContext {
    tech: TechLibrary,
    computations: usize,
    seed: u64,
    power_seeds: usize,
    batch: usize,
    backend: BatchBackend,
    metrics: Vec<PassMetrics>,
    diagnostics: Vec<Diagnostic>,
}

impl FlowContext {
    /// A fresh context (single-seed power estimation, default lane
    /// width; see [`FlowContext::with_monte_carlo`]).
    #[must_use]
    pub fn new(tech: TechLibrary, computations: usize, seed: u64) -> Self {
        FlowContext {
            tech,
            computations,
            seed,
            power_seeds: 1,
            batch: Flow::DEFAULT_BATCH,
            backend: BatchBackend::default(),
            metrics: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Configures Monte-Carlo power estimation: `power_seeds` stimulus
    /// seeds simulated through the batched kernel at `batch` lanes.
    #[must_use]
    pub fn with_monte_carlo(mut self, power_seeds: usize, batch: usize) -> Self {
        self.power_seeds = power_seeds.max(1);
        self.batch = batch.max(1);
        self
    }

    /// Selects the multi-seed simulation kernel (throughput only —
    /// results are bit-identical across backends).
    #[must_use]
    pub fn with_backend(mut self, backend: BatchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The technology library evaluations price against.
    #[must_use]
    pub fn tech(&self) -> &TechLibrary {
        &self.tech
    }

    /// Random computations per simulation/verification.
    #[must_use]
    pub fn computations(&self) -> usize {
        self.computations
    }

    /// The stimulus seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stimulus seeds per power estimate (1 = single-seed point sample,
    /// the historical behaviour).
    #[must_use]
    pub fn power_seeds(&self) -> usize {
        self.power_seeds
    }

    /// Lane width of the batched kernel used when
    /// [`FlowContext::power_seeds`] exceeds one.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The multi-seed simulation kernel in use.
    #[must_use]
    pub fn backend(&self) -> BatchBackend {
        self.backend
    }

    /// Records an informational diagnostic.
    pub fn info(&mut self, pass: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            pass,
            severity: Severity::Info,
            message: message.into(),
        });
    }

    /// Records a warning diagnostic.
    pub fn warn(&mut self, pass: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            pass,
            severity: Severity::Warning,
            message: message.into(),
        });
    }

    /// Runs a pass: times it, records the artifact statistics, and
    /// returns its output.
    ///
    /// # Errors
    ///
    /// Propagates the pass's [`SynthesisError`].
    pub fn run<P: Pass>(
        &mut self,
        pass: &P,
        input: P::Input<'_>,
    ) -> Result<P::Output, SynthesisError> {
        let _span = mc_trace::span(pass.name());
        let start = Instant::now();
        let output = pass.run(input, self)?;
        self.metrics.push(PassMetrics {
            pass: pass.name(),
            duration: start.elapsed(),
            artifact: output.label(),
            artifact_size: output.size(),
            cache_hit: false,
        });
        Ok(output)
    }

    /// Records a cache-served artifact as a pseudo pass execution so that
    /// instrumentation shows where time was *not* spent.
    pub fn record_cache_hit<A: Artifact + ?Sized>(
        &mut self,
        pass: &'static str,
        artifact: &A,
        lookup: Duration,
    ) {
        self.metrics.push(PassMetrics {
            pass,
            duration: lookup,
            artifact: artifact.label(),
            artifact_size: artifact.size(),
            cache_hit: true,
        });
    }

    /// The metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &[PassMetrics] {
        &self.metrics
    }

    /// The diagnostics collected so far.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    fn into_parts(self) -> (Vec<PassMetrics>, Vec<Diagnostic>) {
        (self.metrics, self.diagnostics)
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    datapaths: HashMap<u64, Arc<Datapath>>,
    reports: HashMap<u64, Arc<DesignReport>>,
    verified: HashSet<u64>,
}

/// Aggregate cache counters, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an artifact.
    pub hits: usize,
    /// Lookups that had to run the producing pass(es).
    pub misses: usize,
    /// Datapaths currently cached.
    pub datapaths: usize,
    /// Reports currently cached.
    pub reports: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} datapaths, {} reports cached)",
            self.hits, self.misses, self.datapaths, self.reports
        )
    }
}

/// The content-keyed artifact cache shared by all evaluations of one
/// [`Flow`] (including concurrent ones).
#[derive(Debug, Default)]
struct ArtifactCache {
    inner: Mutex<CacheInner>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ArtifactCache {
    fn get_datapath(&self, key: u64) -> Option<Arc<Datapath>> {
        let found = self
            .inner
            .lock()
            .expect("cache lock")
            .datapaths
            .get(&key)
            .cloned();
        self.count(found.is_some());
        found
    }

    fn put_datapath(&self, key: u64, dp: Arc<Datapath>) {
        self.inner
            .lock()
            .expect("cache lock")
            .datapaths
            .insert(key, dp);
    }

    fn get_report(&self, key: u64) -> Option<Arc<DesignReport>> {
        let found = self
            .inner
            .lock()
            .expect("cache lock")
            .reports
            .get(&key)
            .cloned();
        self.count(found.is_some());
        found
    }

    fn put_report(&self, key: u64, report: Arc<DesignReport>) {
        self.inner
            .lock()
            .expect("cache lock")
            .reports
            .insert(key, report);
    }

    fn is_verified(&self, key: u64) -> bool {
        let found = self
            .inner
            .lock()
            .expect("cache lock")
            .verified
            .contains(&key);
        self.count(found);
        found
    }

    fn mark_verified(&self, key: u64) {
        self.inner.lock().expect("cache lock").verified.insert(key);
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            // Scheduling-dependent: concurrent rows race check-then-insert,
            // so hit/miss splits vary with thread count (like `CacheStats`,
            // which the deterministic reports exclude).
            mc_trace::count_runtime("flow.cache.hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            mc_trace::count_runtime("flow.cache.misses", 1);
        }
    }

    fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            datapaths: inner.datapaths.len(),
            reports: inner.reports.len(),
        }
    }

    fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.datapaths.clear();
        inner.reports.clear();
        inner.verified.clear();
    }
}

impl Clone for ArtifactCache {
    fn clone(&self) -> Self {
        let inner = self.inner.lock().expect("cache lock");
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                datapaths: inner.datapaths.clone(),
                reports: inner.reports.clone(),
                verified: inner.verified.clone(),
            }),
            hits: AtomicUsize::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicUsize::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

/// One fully-instrumented evaluation: the report plus everything the flow
/// learned while producing it.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The evaluated style.
    pub style: DesignStyle,
    /// The complete design report (shared with the cache).
    pub report: Arc<DesignReport>,
    /// Per-pass instrumentation, in execution order.
    pub metrics: Vec<PassMetrics>,
    /// Diagnostics reported by the passes.
    pub diagnostics: Vec<Diagnostic>,
}

impl Evaluated {
    /// Total wall-clock across all recorded passes.
    #[must_use]
    pub fn total_duration(&self) -> Duration {
        self.metrics.iter().map(|m| m.duration).sum()
    }
}

/// The pass-pipeline driver: holds one behaviour plus the evaluation
/// configuration, chains the passes of [`crate::passes`], caches
/// shareable artifacts, and evaluates design styles sequentially or on
/// scoped threads.
///
/// # Examples
///
/// ```
/// use mc_core::{DesignStyle, Flow};
/// use mc_dfg::benchmarks;
///
/// # fn main() -> Result<(), mc_core::SynthesisError> {
/// let flow = Flow::for_benchmark(&benchmarks::hal()).with_computations(60);
/// let evaluated = flow.evaluate_styles_parallel(&DesignStyle::paper_rows())?;
/// assert_eq!(evaluated.len(), 5);
/// for e in &evaluated {
///     assert!(e.report.power.total_mw > 0.0);
///     assert!(!e.metrics.is_empty()); // per-pass timings recorded
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Flow {
    behavior: Behavior,
    tech: TechLibrary,
    computations: usize,
    seed: u64,
    power_seeds: usize,
    batch: usize,
    backend: BatchBackend,
    fingerprint: u64,
    cache: ArtifactCache,
}

impl Flow {
    /// A flow over an explicit behaviour and schedule.
    #[must_use]
    pub fn new(dfg: Dfg, schedule: Schedule) -> Self {
        Self::from_behavior(Behavior::new(dfg, schedule))
    }

    /// A flow over a bundled benchmark (clones its DFG and schedule).
    #[must_use]
    pub fn for_benchmark(bm: &Benchmark) -> Self {
        Self::from_behavior(Behavior::for_benchmark(bm))
    }

    /// A flow over a prepared [`Behavior`] artifact.
    #[must_use]
    pub fn from_behavior(behavior: Behavior) -> Self {
        let tech = TechLibrary::vsc450();
        let fingerprint = fingerprint(&behavior, &tech);
        Flow {
            behavior,
            tech,
            computations: 400,
            seed: 42,
            power_seeds: 1,
            batch: Self::DEFAULT_BATCH,
            backend: BatchBackend::default(),
            fingerprint,
            cache: ArtifactCache::default(),
        }
    }

    /// Default lane width of the batched simulation kernel.
    pub const DEFAULT_BATCH: usize = 16;

    /// Overrides the technology library (re-keys the cache).
    #[must_use]
    pub fn with_tech(mut self, tech: TechLibrary) -> Self {
        self.tech = tech;
        self.fingerprint = fingerprint(&self.behavior, &self.tech);
        self
    }

    /// Sets the random computations per evaluation (default 400).
    #[must_use]
    pub fn with_computations(mut self, computations: usize) -> Self {
        self.computations = computations.max(1);
        self
    }

    /// Sets the stimulus seed (default 42).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of stimulus seeds per power estimate (default 1,
    /// the historical single-seed point sample). With more than one
    /// seed, simulation runs through the batched multi-lane kernel and
    /// the report carries Monte-Carlo confidence bounds
    /// ([`mc_power::DesignReport::power_ci`]); seed 0 of the schedule is
    /// the flow seed itself.
    #[must_use]
    pub fn with_power_seeds(mut self, power_seeds: usize) -> Self {
        self.power_seeds = power_seeds.max(1);
        self
    }

    /// Sets the lane width of the batched simulation kernel (default
    /// [`Flow::DEFAULT_BATCH`]; only used when
    /// [`Flow::with_power_seeds`] exceeds one). The lane width never
    /// affects results — only throughput.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Selects the multi-seed simulation kernel (default
    /// [`BatchBackend::Batched`]; only used when
    /// [`Flow::with_power_seeds`] exceeds one). Like the lane width, the
    /// backend never affects results — every backend is bit-identical to
    /// the single-seed run — so it is deliberately excluded from the
    /// report cache key.
    #[must_use]
    pub fn with_batch_backend(mut self, backend: BatchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The behaviour under synthesis.
    #[must_use]
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// The behavioural DFG.
    #[must_use]
    pub fn dfg(&self) -> &Dfg {
        &self.behavior.dfg
    }

    /// The schedule in use.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.behavior.schedule
    }

    /// The technology library in use.
    #[must_use]
    pub fn tech(&self) -> &TechLibrary {
        &self.tech
    }

    /// Random computations per evaluation.
    #[must_use]
    pub fn computations(&self) -> usize {
        self.computations
    }

    /// The stimulus seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stimulus seeds per power estimate.
    #[must_use]
    pub fn power_seeds(&self) -> usize {
        self.power_seeds
    }

    /// Lane width of the batched simulation kernel.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The multi-seed simulation kernel in use.
    #[must_use]
    pub fn backend(&self) -> BatchBackend {
        self.backend
    }

    /// The content fingerprint all cache keys derive from (behaviour DSL
    /// text + schedule + technology parameters).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Aggregate cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached artifact (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    fn context(&self) -> FlowContext {
        FlowContext::new(self.tech.clone(), self.computations, self.seed)
            .with_monte_carlo(self.power_seeds, self.batch)
            .with_backend(self.backend)
    }

    /// Cache key of the datapath: the allocation depends on strategy,
    /// clock count, memory kind and transfer insertion — *not* on the
    /// power mode, computations or seed, so e.g. the non-gated and gated
    /// conventional rows share one allocation.
    fn datapath_key(&self, style: DesignStyle) -> u64 {
        let mut h = DefaultHasher::new();
        self.fingerprint.hash(&mut h);
        style.strategy().hash(&mut h);
        style.clocks().hash(&mut h);
        style.mem_kind().hash(&mut h);
        style.transfers().hash(&mut h);
        h.finish()
    }

    /// Cache key of the full report: the datapath key plus everything the
    /// simulation depends on.
    fn report_key(&self, style: DesignStyle) -> u64 {
        let mut h = DefaultHasher::new();
        self.datapath_key(style).hash(&mut h);
        style.power_mode().hash(&mut h);
        self.computations.hash(&mut h);
        self.seed.hash(&mut h);
        self.power_seeds.hash(&mut h);
        h.finish()
    }

    fn verify_key(&self, style: DesignStyle) -> u64 {
        let mut h = DefaultHasher::new();
        self.report_key(style).hash(&mut h);
        "verified".hash(&mut h);
        h.finish()
    }

    /// Partition + allocate, cache-served when the same allocation was
    /// already produced (possibly under a different power mode).
    fn datapath(
        &self,
        style: DesignStyle,
        ctx: &mut FlowContext,
    ) -> Result<Arc<Datapath>, SynthesisError> {
        let key = self.datapath_key(style);
        let start = Instant::now();
        if let Some(dp) = self.cache.get_datapath(key) {
            ctx.record_cache_hit(AllocatePass.name(), &*dp, start.elapsed());
            return Ok(dp);
        }
        let partitioned = ctx.run(&PartitionPass { style }, &self.behavior)?;
        let datapath = ctx.run(&AllocatePass, (&self.behavior, &partitioned))?;
        let arc = Arc::new(datapath);
        self.cache.put_datapath(key, Arc::clone(&arc));
        Ok(arc)
    }

    fn verify(
        &self,
        style: DesignStyle,
        datapath: &Datapath,
        ctx: &mut FlowContext,
    ) -> Result<(), SynthesisError> {
        let key = self.verify_key(style);
        let pass = VerifyPass {
            mode: style.power_mode(),
        };
        let start = Instant::now();
        if self.cache.is_verified(key) {
            ctx.record_cache_hit(
                pass.name(),
                &crate::passes::Verification {
                    computations: self.computations.min(64),
                },
                start.elapsed(),
            );
            return Ok(());
        }
        ctx.run(&pass, (&self.behavior, datapath))?;
        self.cache.mark_verified(key);
        Ok(())
    }

    /// Synthesises a design in the given style through the pass pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Clock`] for invalid clock counts and
    /// [`SynthesisError::Alloc`] if allocation fails.
    pub fn synthesize(&self, style: DesignStyle) -> Result<Design, SynthesisError> {
        let mut ctx = self.context();
        let datapath = self.datapath(style, &mut ctx)?;
        Ok(Design {
            datapath: (*datapath).clone(),
            mode: style.power_mode(),
            style,
        })
    }

    /// Synthesises and verifies functional equivalence against the
    /// behaviour over random vectors.
    ///
    /// # Errors
    ///
    /// In addition to [`Flow::synthesize`]'s errors, returns
    /// [`SynthesisError::Equivalence`] if the netlist diverges from the
    /// DFG.
    pub fn synthesize_verified(&self, style: DesignStyle) -> Result<Design, SynthesisError> {
        let mut ctx = self.context();
        let datapath = self.datapath(style, &mut ctx)?;
        self.verify(style, &datapath, &mut ctx)?;
        Ok(Design {
            datapath: (*datapath).clone(),
            mode: style.power_mode(),
            style,
        })
    }

    /// Fully evaluates a style and returns the bare report — the
    /// facade-compatible entry point.
    ///
    /// # Errors
    ///
    /// Propagates [`Flow::synthesize`]'s errors.
    pub fn evaluate(&self, style: DesignStyle) -> Result<DesignReport, SynthesisError> {
        Ok((*self.evaluate_instrumented(style)?.report).clone())
    }

    /// Fully evaluates a style: partition → allocate → simulate → price,
    /// returning the report together with per-pass metrics and
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates [`Flow::synthesize`]'s errors.
    pub fn evaluate_instrumented(&self, style: DesignStyle) -> Result<Evaluated, SynthesisError> {
        let _span = mc_trace::span("flow.evaluate");
        let mut ctx = self.context();
        let key = self.report_key(style);
        let start = Instant::now();
        if let Some(report) = self.cache.get_report(key) {
            ctx.record_cache_hit(PowerPass.name(), &*report, start.elapsed());
            let (metrics, diagnostics) = ctx.into_parts();
            return Ok(Evaluated {
                style,
                report,
                metrics,
                diagnostics,
            });
        }
        // A genuine (uncached) pipeline run. The span/counter pair lets
        // callers that promise "no recompute" — the serve layer's warm
        // cache path — assert it through the trace machinery.
        let _run = mc_trace::span("flow.run");
        mc_trace::count_runtime("flow.runs", 1);
        let datapath = self.datapath(style, &mut ctx)?;
        let trace = ctx.run(
            &SimulatePass {
                mode: style.power_mode(),
            },
            &*datapath,
        )?;
        let report = ctx.run(&PowerPass, (&*datapath, &trace))?;
        let report = Arc::new(report);
        self.cache.put_report(key, Arc::clone(&report));
        let (metrics, diagnostics) = ctx.into_parts();
        Ok(Evaluated {
            style,
            report,
            metrics,
            diagnostics,
        })
    }

    /// Evaluates several styles sequentially, in order.
    ///
    /// # Errors
    ///
    /// Fails on the first style that errors.
    pub fn evaluate_styles(
        &self,
        styles: &[DesignStyle],
    ) -> Result<Vec<Evaluated>, SynthesisError> {
        styles
            .iter()
            .map(|&style| self.evaluate_instrumented(style))
            .collect()
    }

    /// Evaluates several styles concurrently on scoped threads, one per
    /// style, sharing the artifact cache. Results come back in input
    /// order and are bit-identical to [`Flow::evaluate_styles`]: every
    /// evaluation is independently seeded, so scheduling cannot perturb
    /// the numbers.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) style's error if any fail.
    ///
    /// # Panics
    ///
    /// Panics if an evaluation thread panics.
    pub fn evaluate_styles_parallel(
        &self,
        styles: &[DesignStyle],
    ) -> Result<Vec<Evaluated>, SynthesisError> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = styles
                .iter()
                .map(|&style| {
                    scope.spawn(move || {
                        let out = self.evaluate_instrumented(style);
                        // Hand the trace buffer off before the scope counts
                        // this thread as finished (see mc_trace::flush).
                        mc_trace::flush();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("flow evaluation thread panicked"))
                .collect()
        })
    }
}

/// Content fingerprint of a behaviour + technology pair: the DSL rendering
/// of the DFG (canonical and content-complete), the schedule assignment,
/// and the technology parameters.
fn fingerprint(behavior: &Behavior, tech: &TechLibrary) -> u64 {
    let mut h = DefaultHasher::new();
    behavior.dfg.name().hash(&mut h);
    mc_dfg::parse::to_dsl(&behavior.dfg).hash(&mut h);
    behavior.schedule.length().hash(&mut h);
    for t in 1..=behavior.schedule.length() {
        behavior.schedule.nodes_at_step(t).hash(&mut h);
    }
    format!("{:?}", tech.params()).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_dfg::benchmarks;

    fn flow() -> Flow {
        Flow::for_benchmark(&benchmarks::hal()).with_computations(40)
    }

    #[test]
    fn pipeline_produces_positive_power() {
        let e = flow()
            .evaluate_instrumented(DesignStyle::MultiClock(2))
            .unwrap();
        assert!(e.report.power.total_mw > 0.0);
        assert!(e.report.area.total_lambda2 > 0.0);
    }

    #[test]
    fn monte_carlo_flow_carries_confidence_bounds() {
        let single = flow()
            .evaluate_instrumented(DesignStyle::MultiClock(2))
            .unwrap();
        assert!(single.report.power_ci.is_none());

        let mc = flow()
            .with_power_seeds(4)
            .with_batch(8)
            .evaluate_instrumented(DesignStyle::MultiClock(2))
            .unwrap();
        let ci = mc.report.power_ci.expect("multi-seed run reports a CI");
        assert_eq!(ci.seeds, 4);
        assert!((ci.mean_mw - mc.report.power.total_mw).abs() < 1e-12);
        assert!(ci.ci95_mw >= 0.0);

        // Seed 0 of the schedule is the flow seed, so the single-seed
        // power is one of the averaged samples; with the default seed it
        // also bounds the mean from one side only by chance — instead
        // assert determinism: the same MC flow reprices identically.
        let again = flow()
            .with_power_seeds(4)
            .with_batch(8)
            .evaluate_instrumented(DesignStyle::MultiClock(2))
            .unwrap();
        assert_eq!(
            again.report.power.total_mw.to_bits(),
            mc.report.power.total_mw.to_bits()
        );
        let again_ci = again.report.power_ci.unwrap();
        assert_eq!(again_ci.ci95_mw.to_bits(), ci.ci95_mw.to_bits());
    }

    #[test]
    fn batch_width_never_changes_the_report() {
        let wide = flow()
            .with_power_seeds(5)
            .with_batch(16)
            .evaluate_instrumented(DesignStyle::ConventionalGated)
            .unwrap();
        let narrow = flow()
            .with_power_seeds(5)
            .with_batch(2)
            .evaluate_instrumented(DesignStyle::ConventionalGated)
            .unwrap();
        assert_eq!(
            wide.report.power.total_mw.to_bits(),
            narrow.report.power.total_mw.to_bits()
        );
        assert_eq!(
            wide.report.power_ci.unwrap().ci95_mw.to_bits(),
            narrow.report.power_ci.unwrap().ci95_mw.to_bits()
        );
    }

    #[test]
    fn batch_backend_never_changes_the_report() {
        let batched = flow()
            .with_power_seeds(5)
            .with_batch_backend(BatchBackend::Batched)
            .evaluate_instrumented(DesignStyle::ConventionalGated)
            .unwrap();
        let bitsliced = flow()
            .with_power_seeds(5)
            .with_batch_backend(BatchBackend::Bitsliced)
            .evaluate_instrumented(DesignStyle::ConventionalGated)
            .unwrap();
        assert_eq!(
            batched.report.power.total_mw.to_bits(),
            bitsliced.report.power.total_mw.to_bits()
        );
        assert_eq!(
            batched.report.power_ci.unwrap().ci95_mw.to_bits(),
            bitsliced.report.power_ci.unwrap().ci95_mw.to_bits()
        );
    }

    #[test]
    fn metrics_cover_every_pass_in_order() {
        let e = flow()
            .evaluate_instrumented(DesignStyle::MultiClock(3))
            .unwrap();
        let names: Vec<_> = e.metrics.iter().map(|m| m.pass).collect();
        assert_eq!(names, ["partition", "allocate", "simulate", "power"]);
        assert!(e.metrics.iter().all(|m| !m.cache_hit));
        assert!(e.metrics.iter().all(|m| m.artifact_size > 0));
    }

    #[test]
    fn diagnostics_propagate_from_passes() {
        let e = flow()
            .evaluate_instrumented(DesignStyle::MultiClock(2))
            .unwrap();
        assert!(
            e.diagnostics
                .iter()
                .any(|d| d.pass == "partition" && d.severity == Severity::Info),
            "partition pass should narrate: {:?}",
            e.diagnostics
        );
    }

    #[test]
    fn report_cache_hit_returns_identical_artifact() {
        let f = flow();
        let cold = f.evaluate_instrumented(DesignStyle::MultiClock(2)).unwrap();
        let warm = f.evaluate_instrumented(DesignStyle::MultiClock(2)).unwrap();
        // Same Arc: the cached artifact itself, not a recomputation.
        assert!(Arc::ptr_eq(&cold.report, &warm.report));
        assert_eq!(warm.metrics.len(), 1);
        assert!(warm.metrics[0].cache_hit);
        assert!(f.cache_stats().hits >= 1);
    }

    #[test]
    fn conventional_rows_share_one_allocation() {
        let f = flow();
        let ng = f
            .evaluate_instrumented(DesignStyle::ConventionalNonGated)
            .unwrap();
        let g = f
            .evaluate_instrumented(DesignStyle::ConventionalGated)
            .unwrap();
        // Same strategy/clocks/mem-kind/transfers → the gated row's
        // allocation is served from cache, only simulate+power run.
        assert!(!ng.metrics.iter().any(|m| m.cache_hit));
        let g_names: Vec<_> = g.metrics.iter().map(|m| (m.pass, m.cache_hit)).collect();
        assert_eq!(
            g_names,
            [("allocate", true), ("simulate", false), ("power", false)]
        );
        // But the reports differ: the gated mode gates clocks.
        assert!(g.report.power.total_mw < ng.report.power.total_mw);
    }

    #[test]
    fn parallel_evaluation_matches_sequential_bit_for_bit() {
        let styles = DesignStyle::paper_rows();
        let seq = flow().evaluate_styles(&styles).unwrap();
        let par = flow().evaluate_styles_parallel(&styles).unwrap();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.style, p.style);
            assert_eq!(s.report.power.total_mw, p.report.power.total_mw);
            assert_eq!(s.report.power.clock_mw, p.report.power.clock_mw);
            assert_eq!(s.report.area.total_lambda2, p.report.area.total_lambda2);
            assert_eq!(s.report.stats.mem_cells, p.report.stats.mem_cells);
        }
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let a = Flow::for_benchmark(&benchmarks::hal());
        let b = Flow::for_benchmark(&benchmarks::hal());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Flow::for_benchmark(&benchmarks::facet());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = Flow::for_benchmark(&benchmarks::hal())
            .with_tech(mc_tech::TechLibrary::vsc450().at_voltage(3.3));
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn synthesize_verified_caches_verification() {
        let f = flow();
        f.synthesize_verified(DesignStyle::MultiClock(2)).unwrap();
        let before = f.cache_stats().hits;
        f.synthesize_verified(DesignStyle::MultiClock(2)).unwrap();
        assert!(f.cache_stats().hits > before);
    }

    #[test]
    fn clear_cache_forces_recomputation() {
        let f = flow();
        let a = f.evaluate_instrumented(DesignStyle::MultiClock(2)).unwrap();
        f.clear_cache();
        let b = f.evaluate_instrumented(DesignStyle::MultiClock(2)).unwrap();
        assert!(!Arc::ptr_eq(&a.report, &b.report));
        assert_eq!(a.report.power.total_mw, b.report.power.total_mw);
    }
}

//! Partitioned multicore mixed-criticality scheduling with per-core
//! temporary speedup.
//!
//! The paper analyzes a uniprocessor; the natural multicore deployment
//! (and the one its DVFS mechanism supports — modern parts have
//! per-core frequency domains) is *partitioned*: statically assign each
//! task to one core, run the paper's protocol independently per core,
//! and overclock only the core whose HI task overran. A core accepts a
//! task iff the resulting per-core set remains
//!
//! 1. LO-mode EDF-schedulable at nominal speed, and
//! 2. HI-mode schedulable at a speed within the platform cap
//!    (`Σ DBF_HI(Δ) ≤ s_cap·Δ`).
//!
//! This crate provides the classic bin-packing heuristics over those
//! exact acceptance tests and reports each core's individual minimum
//! speedup, so a deployment can set per-core DVFS levels.
//!
//! # Delta-backed placement
//!
//! Placement attempts dominate the cost of bin-packing: first-fit over
//! `C` cores runs up to `C` acceptance tests per task, and a fresh
//! [`Analysis`] per attempt rebuilds the candidate core's three demand
//! profiles from scratch every time. The partitioner instead keeps one
//! resident [`DeltaAnalysis`] per core: a placement attempt is an O(1)
//! admit splice followed by the exact acceptance walks, and a rejected
//! attempt is rolled back by an evict splice. Decisions are
//! bit-identical to the fresh-per-attempt reference (kept available as
//! [`Engine::Fresh`] and pinned — verdicts *and* examined-walk counts —
//! by `tests/partition_differential.rs`).
//!
//! Two further cost levers, applied identically by both engines so they
//! stay mutually bit-identical:
//!
//! * **Utilization screen.** `sup_Δ DBF(Δ)/Δ` is at least the demand
//!   rate `Σ C/T`, so a candidate core whose LO utilization would
//!   exceed 1 (or whose HI utilization would exceed the speedup cap)
//!   is rejected without walking a single breakpoint. On a saturating
//!   fleet almost every probe of a full core is screened.
//! * **Sorted probing.** Best-fit ranks candidate cores by decreasing
//!   (worst-fit: increasing) HI utilization and probes in that order,
//!   so the first accepting core *is* the heuristic's choice — no need
//!   to probe every core and select afterwards.
//!
//! Fleet sizing (each core's exact Theorem 2 `s_min`) fans out over a
//! [`WorkerPool`] with per-worker [`AnalysisScratch`] buffers and walk
//! arenas; results are collected by core index, so the worker count
//! never changes the outcome.
//!
//! # Objectives
//!
//! Beyond the classic feasibility-only packing ([`Objective::CapOnly`]),
//! two speedup-aware objectives size each probe with the exact `s_min`:
//!
//! * [`Objective::MinMaxSpeedup`] places every task on the accepting
//!   core whose resulting `s_min` is smallest, greedily minimizing the
//!   fleet's maximum per-core DVFS level.
//! * [`Objective::SharedBudget`] admits a placement only while the sum
//!   of `max(s_min, 1)` over non-empty cores stays within a shared
//!   overclock budget — the "how much total boost can the power rail
//!   deliver" deployment constraint.
//!
//! # Examples
//!
//! ```
//! use rbs_core::AnalysisLimits;
//! use rbs_model::{Criticality, Task, TaskSet};
//! use rbs_partition::{partition, Heuristic, PlatformCap};
//! use rbs_timebase::Rational;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut tasks = Vec::new();
//! for i in 0..4 {
//!     tasks.push(
//!         Task::builder(format!("h{i}"), Criticality::Hi)
//!             .period(Rational::integer(10))
//!             .deadline_lo(Rational::integer(4))
//!             .deadline_hi(Rational::integer(10))
//!             .wcet_lo(Rational::integer(2))
//!             .wcet_hi(Rational::integer(6))
//!             .build()?,
//!     );
//! }
//! let set = TaskSet::new(tasks);
//! let cap = PlatformCap::new(2, Rational::TWO);
//! let outcome = partition(&set, cap, Heuristic::FirstFit, &AnalysisLimits::default())?
//!     .expect("2 cores at 2x fit four half-utilization tasks");
//! assert_eq!(outcome.cores().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod wire;

use rbs_core::speedup::SpeedupBound;
use rbs_core::{
    Analysis, AnalysisError, AnalysisLimits, AnalysisScratch, DeltaAnalysis, WalkCounts,
};
use rbs_model::{Mode, Task, TaskSet};
use rbs_pool::WorkerPool;
use rbs_timebase::Rational;

/// The platform: number of cores and the per-core speedup cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformCap {
    cores: usize,
    max_speedup: Rational,
}

impl PlatformCap {
    /// A platform with `cores` cores, each able to overclock up to
    /// `max_speedup`.
    ///
    /// # Panics
    ///
    /// Panics unless `cores ≥ 1` and `max_speedup > 0`.
    #[must_use]
    pub fn new(cores: usize, max_speedup: Rational) -> PlatformCap {
        assert!(cores >= 1, "need at least one core");
        assert!(max_speedup.is_positive(), "speedup cap must be positive");
        PlatformCap { cores, max_speedup }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The per-core speedup cap.
    #[must_use]
    pub fn max_speedup(&self) -> Rational {
        self.max_speedup
    }
}

/// Bin-packing heuristics for task placement. Tasks are considered in
/// decreasing HI-mode utilization ("decreasing" variants of the classic
/// schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Heuristic {
    /// Place on the first core that accepts.
    FirstFit,
    /// Place on the accepting core with the *highest* remaining HI-mode
    /// utilization headroom used (tightest fit).
    BestFit,
    /// Place on the accepting core with the *lowest* HI-mode utilization
    /// (spread the load).
    WorstFit,
}

/// What a placement must optimize or respect beyond per-core
/// feasibility at the speedup cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Objective {
    /// Classic feasibility packing: accept any core that passes the LO
    /// test and the HI decision at the cap; choose per the heuristic.
    CapOnly,
    /// Among accepting cores, place on the one whose resulting exact
    /// `s_min` is smallest (ties broken by the heuristic's probe
    /// order), greedily minimizing the fleet's maximum per-core DVFS
    /// level. Every probe sizes the candidate core exactly.
    MinMaxSpeedup,
    /// Admit a placement only while `Σ max(s_min, 1)` over non-empty
    /// cores stays within this shared overclock budget (each core still
    /// individually within the cap); among admissible cores, choose per
    /// the heuristic.
    SharedBudget(Rational),
}

/// A full placement request: platform, heuristic and objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    cap: PlatformCap,
    heuristic: Heuristic,
    objective: Objective,
}

impl PartitionSpec {
    /// A spec with the classic [`Objective::CapOnly`] objective.
    #[must_use]
    pub fn new(cap: PlatformCap, heuristic: Heuristic) -> PartitionSpec {
        PartitionSpec {
            cap,
            heuristic,
            objective: Objective::CapOnly,
        }
    }

    /// Replaces the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> PartitionSpec {
        self.objective = objective;
        self
    }

    /// The platform.
    #[must_use]
    pub fn cap(&self) -> PlatformCap {
        self.cap
    }

    /// The placement heuristic.
    #[must_use]
    pub fn heuristic(&self) -> Heuristic {
        self.heuristic
    }

    /// The placement objective.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }
}

/// Which probe implementation drives the partitioner. Both engines make
/// bit-identical decisions and run bit-identical acceptance walks; they
/// differ only in how the candidate core's demand profiles come to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One resident [`DeltaAnalysis`] per core: a placement attempt is
    /// an O(1) admit splice, a rejection an evict splice. The default.
    Delta,
    /// A fresh [`Analysis`] (full profile build) per placement attempt —
    /// the pre-delta reference implementation, kept as the differential
    /// and benchmark baseline.
    Fresh,
}

/// A successful partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    cores: Vec<TaskSet>,
    speedups: Vec<SpeedupBound>,
}

impl Partition {
    /// The per-core task sets (some may be empty on underloaded
    /// platforms).
    #[must_use]
    pub fn cores(&self) -> &[TaskSet] {
        &self.cores
    }

    /// Each core's exact minimum HI-mode speedup (Theorem 2 applied
    /// per core) — the DVFS level to configure for that core.
    #[must_use]
    pub fn core_speedups(&self) -> &[SpeedupBound] {
        &self.speedups
    }

    /// The platform-wide speedup requirement: the maximum over cores.
    #[must_use]
    pub fn max_core_speedup(&self) -> SpeedupBound {
        let mut worst = SpeedupBound::Finite(Rational::ZERO);
        for bound in &self.speedups {
            worst = match (*bound, worst) {
                (SpeedupBound::Unbounded, _) | (_, SpeedupBound::Unbounded) => {
                    SpeedupBound::Unbounded
                }
                (SpeedupBound::Finite(a), SpeedupBound::Finite(b)) => {
                    SpeedupBound::Finite(a.max(b))
                }
            };
        }
        worst
    }
}

/// Everything one partitioning run produced: the placement (when every
/// task landed), the first task that could not be placed otherwise, and
/// the run's cost counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionOutcome {
    partition: Option<Partition>,
    unplaced: Option<String>,
    walks: WalkCounts,
    probes: u64,
    screened: u64,
}

impl PartitionOutcome {
    /// The placement, when every task found a core.
    #[must_use]
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// Consumes the outcome into its placement.
    #[must_use]
    pub fn into_partition(self) -> Option<Partition> {
        self.partition
    }

    /// The first task the heuristic could not place — the fleet must
    /// shed it (or grow the platform); `None` when everything fits.
    #[must_use]
    pub fn unplaced(&self) -> Option<&str> {
        self.unplaced.as_deref()
    }

    /// Whether every task was placed.
    #[must_use]
    pub fn is_fit(&self) -> bool {
        self.partition.is_some()
    }

    /// Aggregate walk counters across every probe and the sizing pass —
    /// the observability block the service surfaces per request.
    #[must_use]
    pub fn walks(&self) -> WalkCounts {
        self.walks
    }

    /// Placement attempts that ran acceptance walks.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Placement attempts rejected by the utilization screen without
    /// walking.
    #[must_use]
    pub fn screened(&self) -> u64 {
        self.screened
    }
}

/// Partitions `set` onto the platform, or returns `Ok(None)` when the
/// heuristic cannot place every task.
///
/// Tasks are placed in decreasing HI-mode utilization order; each
/// placement is validated with the exact LO-mode test and the exact
/// HI-mode decision at the platform's speedup cap, probed against the
/// core's resident [`DeltaAnalysis`]. This is the single-threaded
/// [`Objective::CapOnly`] convenience form of [`partition_with`].
///
/// # Errors
///
/// Propagates exact-analysis errors.
///
/// # Panics
///
/// Panics if two tasks share a name (placement is tracked by name).
pub fn partition(
    set: &TaskSet,
    cap: PlatformCap,
    heuristic: Heuristic,
    limits: &AnalysisLimits,
) -> Result<Option<Partition>, AnalysisError> {
    let spec = PartitionSpec::new(cap, heuristic);
    let pool = WorkerPool::new(1);
    partition_with(set, &spec, &pool, limits).map(PartitionOutcome::into_partition)
}

/// Partitions `set` per `spec` with the delta-backed engine, sizing
/// cores in parallel over `pool`.
///
/// # Errors
///
/// Propagates exact-analysis errors.
///
/// # Panics
///
/// Panics if two tasks share a name (placement is tracked by name).
pub fn partition_with(
    set: &TaskSet,
    spec: &PartitionSpec,
    pool: &WorkerPool,
    limits: &AnalysisLimits,
) -> Result<PartitionOutcome, AnalysisError> {
    partition_with_engine(set, spec, Engine::Delta, pool, limits)
}

/// [`partition_with`] with an explicit probe engine — the entry point
/// the differential suite and the benchmark baseline drive.
///
/// # Errors
///
/// Propagates exact-analysis errors.
///
/// # Panics
///
/// Panics if two tasks share a name (placement is tracked by name).
pub fn partition_with_engine(
    set: &TaskSet,
    spec: &PartitionSpec,
    engine: Engine,
    pool: &WorkerPool,
    limits: &AnalysisLimits,
) -> Result<PartitionOutcome, AnalysisError> {
    assert_unique_names(set);
    let order = placement_order(set);
    let mut cores: Vec<CoreState> = (0..spec.cap.cores)
        .map(|_| CoreState::new(engine, limits))
        .collect();
    let mut scratch = AnalysisScratch::new();
    let mut tally = Tally::default();
    let mut budget_used = Rational::ZERO;
    let mut scan: Vec<usize> = Vec::with_capacity(cores.len());

    for task in order {
        probe_order(spec.heuristic, &cores, &mut scan);
        let placed = place_task(
            &mut cores,
            &scan,
            task,
            spec,
            limits,
            &mut scratch,
            &mut budget_used,
            &mut tally,
        )?;
        if placed.is_none() {
            let mut walks = WalkCounts::default();
            for core in &cores {
                walks.absorb(&core.counts());
            }
            return Ok(PartitionOutcome {
                partition: None,
                unplaced: Some(task.name().to_owned()),
                walks,
                probes: tally.probes,
                screened: tally.screened,
            });
        }
    }

    // Fleet sizing: one exact Theorem 2 query per core, fanned out over
    // the pool with per-worker scratch buffers and walk arenas. Cores
    // already sized by a speedup-aware accepting probe reuse that bound.
    let sized = pool.run_ordered_scoped(
        cores,
        AnalysisScratch::new,
        |scratch,
         _,
         mut core: CoreState|
         -> Result<(TaskSet, SpeedupBound, WalkCounts), AnalysisError> {
            let bound = match core.sized {
                Some(bound) => bound,
                None if core.len == 0 => SpeedupBound::Finite(Rational::ZERO),
                None => core.size(limits, scratch)?,
            };
            let counts = core.counts();
            Ok((core.into_set(), bound, counts))
        },
    );

    let mut core_sets = Vec::with_capacity(spec.cap.cores);
    let mut speedups = Vec::with_capacity(spec.cap.cores);
    let mut walks = WalkCounts::default();
    for slot in sized {
        let (core_set, bound, counts) = slot?;
        core_sets.push(core_set);
        speedups.push(bound);
        walks.absorb(&counts);
    }
    Ok(PartitionOutcome {
        partition: Some(Partition {
            cores: core_sets,
            speedups,
        }),
        unplaced: None,
        walks,
        probes: tally.probes,
        screened: tally.screened,
    })
}

/// Placement tracks tasks by name (the delta rollback is an evict by
/// name), so names must be unique.
fn assert_unique_names(set: &TaskSet) {
    let mut names: Vec<&str> = set.iter().map(Task::name).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        assert!(
            pair[0] != pair[1],
            "partition requires unique task names; '{}' appears twice",
            pair[0]
        );
    }
}

/// Decreasing HI-mode utilization, names breaking ties — the classic
/// "decreasing" packing order, stable across input permutations.
fn placement_order(set: &TaskSet) -> Vec<&Task> {
    let mut order: Vec<&Task> = set.iter().collect();
    order.sort_by(|a, b| {
        b.utilization(Mode::Hi)
            .cmp(&a.utilization(Mode::Hi))
            .then_with(|| a.name().cmp(b.name()))
    });
    order
}

/// The order cores are probed in, chosen so the *first* accepting core
/// is exactly the heuristic's selection: best-fit probes in decreasing
/// utilization (highest index first among ties, matching `max_by_key`
/// over an index-ordered candidate list), worst-fit in increasing
/// (lowest index first among ties, matching `min_by_key`).
fn probe_order(heuristic: Heuristic, cores: &[CoreState], scan: &mut Vec<usize>) {
    scan.clear();
    scan.extend(0..cores.len());
    match heuristic {
        Heuristic::FirstFit => {}
        Heuristic::BestFit => {
            scan.sort_by(|&a, &b| cores[b].u_hi.cmp(&cores[a].u_hi).then_with(|| b.cmp(&a)));
        }
        Heuristic::WorstFit => {
            scan.sort_by(|&a, &b| cores[a].u_hi.cmp(&cores[b].u_hi).then_with(|| a.cmp(&b)));
        }
    }
}

/// Probe/screen counters for one partitioning run.
#[derive(Debug, Default)]
struct Tally {
    probes: u64,
    screened: u64,
}

/// Tries every core in `scan` order and commits `task` to the chosen
/// one; returns the core index, or `None` when no core admits the task.
#[allow(clippy::too_many_arguments)]
fn place_task(
    cores: &mut [CoreState],
    scan: &[usize],
    task: &Task,
    spec: &PartitionSpec,
    limits: &AnalysisLimits,
    scratch: &mut AnalysisScratch,
    budget_used: &mut Rational,
    tally: &mut Tally,
) -> Result<Option<usize>, AnalysisError> {
    let cap = spec.cap.max_speedup;
    let u_lo = task.utilization(Mode::Lo);
    let u_hi = task.utilization(Mode::Hi);

    match spec.objective {
        Objective::CapOnly => {
            for &i in scan {
                let core = &mut cores[i];
                if core.screens(u_lo, u_hi, cap) {
                    tally.screened += 1;
                    continue;
                }
                tally.probes += 1;
                core.tentative(task);
                match core.query_fits(cap, limits, scratch) {
                    Ok(true) => {
                        core.commit(u_lo, u_hi, None);
                        return Ok(Some(i));
                    }
                    Ok(false) => core.rollback(task.name()),
                    Err(error) => {
                        core.rollback(task.name());
                        return Err(error);
                    }
                }
            }
            Ok(None)
        }
        Objective::MinMaxSpeedup => {
            // Every admissible core is sized exactly; the placement is
            // the argmin of the resulting s_min, ties broken by probe
            // order. Probes are rolled back and the winner re-admitted —
            // pure splices, no extra walks.
            let mut best: Option<(Rational, usize)> = None;
            for &i in scan {
                let core = &mut cores[i];
                if core.screens(u_lo, u_hi, cap) {
                    tally.screened += 1;
                    continue;
                }
                tally.probes += 1;
                core.tentative(task);
                let answer = core.query_speedup(limits, scratch);
                core.rollback(task.name());
                if let Some(SpeedupBound::Finite(s)) = answer? {
                    if s <= cap && best.is_none_or(|(b, _)| s < b) {
                        best = Some((s, i));
                    }
                }
            }
            Ok(best.map(|(s, i)| {
                cores[i].tentative(task);
                cores[i].commit(u_lo, u_hi, Some(SpeedupBound::Finite(s)));
                i
            }))
        }
        Objective::SharedBudget(budget) => {
            for &i in scan {
                let core = &mut cores[i];
                if core.screens(u_lo, u_hi, cap) {
                    tally.screened += 1;
                    continue;
                }
                tally.probes += 1;
                core.tentative(task);
                let answer = match core.query_speedup(limits, scratch) {
                    Ok(answer) => answer,
                    Err(error) => {
                        core.rollback(task.name());
                        return Err(error);
                    }
                };
                if let Some(SpeedupBound::Finite(s)) = answer {
                    // A non-empty core is charged max(s_min, 1): it runs
                    // at nominal speed at minimum, and only its excess
                    // above 1 draws on the shared overclock headroom.
                    let contrib = s.max(Rational::ONE);
                    if s <= cap && *budget_used - core.contrib + contrib <= budget {
                        *budget_used = *budget_used - core.contrib + contrib;
                        core.contrib = contrib;
                        core.commit(u_lo, u_hi, Some(SpeedupBound::Finite(s)));
                        return Ok(Some(i));
                    }
                }
                core.rollback(task.name());
            }
            Ok(None)
        }
    }
}

/// One candidate core: its probe backend plus the incrementally
/// maintained exact utilization sums driving the screen and the
/// best/worst-fit keys.
#[derive(Debug)]
struct CoreState {
    back: CoreBack,
    u_lo: Rational,
    u_hi: Rational,
    len: usize,
    /// `s_min` of the current content when the accepting probe computed
    /// it (speedup-aware objectives); `None` means the sizing pass must
    /// walk it.
    sized: Option<SpeedupBound>,
    /// Current charge against a shared overclock budget (zero while
    /// empty).
    contrib: Rational,
}

impl CoreState {
    fn new(engine: Engine, limits: &AnalysisLimits) -> CoreState {
        let back = match engine {
            Engine::Delta => CoreBack::Delta(Box::new(DeltaAnalysis::new(
                TaskSet::new(Vec::new()),
                limits,
            ))),
            Engine::Fresh => CoreBack::Fresh {
                tasks: Vec::new(),
                walks: WalkCounts::default(),
            },
        };
        CoreState {
            back,
            u_lo: Rational::ZERO,
            u_hi: Rational::ZERO,
            len: 0,
            sized: None,
            contrib: Rational::ZERO,
        }
    }

    /// The sound no-walk rejection: `sup_Δ DBF(Δ)/Δ ≥ Σ C/T` (the demand
    /// rate is the walk's limit as `Δ → ∞`), so a trial set whose LO
    /// utilization exceeds 1 fails the LO test, and one whose HI
    /// utilization exceeds the cap fails the HI decision at the cap —
    /// and, a fortiori, has `s_min` above the cap. Equality is *not*
    /// screened: utilization exactly 1 can still be schedulable.
    fn screens(&self, task_u_lo: Rational, task_u_hi: Rational, cap: Rational) -> bool {
        self.u_lo + task_u_lo > Rational::ONE || self.u_hi + task_u_hi > cap
    }

    /// Tentatively places `task`: a delta admit splice (or a trial push).
    /// Follow with [`CoreState::commit`] or [`CoreState::rollback`].
    fn tentative(&mut self, task: &Task) {
        match &mut self.back {
            CoreBack::Delta(delta) => delta
                .admit(task.clone())
                .expect("placement admits each unique name once"),
            CoreBack::Fresh { tasks, .. } => tasks.push(task.clone()),
        }
    }

    /// Keeps the tentatively placed task and updates the running sums.
    fn commit(&mut self, task_u_lo: Rational, task_u_hi: Rational, sized: Option<SpeedupBound>) {
        self.u_lo += task_u_lo;
        self.u_hi += task_u_hi;
        self.len += 1;
        self.sized = sized;
    }

    /// Rolls a rejected placement back: the delta evict restores the
    /// resident profiles bit-identically (even after a mid-splice bail —
    /// the dirty guard rebuilds from the set first).
    fn rollback(&mut self, name: &str) {
        match &mut self.back {
            CoreBack::Delta(delta) => {
                delta.evict(name).expect("rolling back the probed task");
            }
            CoreBack::Fresh { tasks, .. } => {
                tasks.pop();
            }
        }
    }

    /// The [`Objective::CapOnly`] acceptance probe: LO test, then (only
    /// if it passes) the HI decision at the cap.
    fn query_fits(
        &mut self,
        cap: Rational,
        limits: &AnalysisLimits,
        scratch: &mut AnalysisScratch,
    ) -> Result<bool, AnalysisError> {
        self.back.query(limits, scratch, |ctx| {
            Ok(ctx.is_lo_schedulable()? && ctx.is_hi_schedulable(cap)?)
        })
    }

    /// The speedup-aware acceptance probe: LO test, then the exact
    /// `s_min`; `None` when LO mode already fails.
    fn query_speedup(
        &mut self,
        limits: &AnalysisLimits,
        scratch: &mut AnalysisScratch,
    ) -> Result<Option<SpeedupBound>, AnalysisError> {
        self.back.query(limits, scratch, |ctx| {
            if !ctx.is_lo_schedulable()? {
                return Ok(None);
            }
            Ok(Some(ctx.minimum_speedup()?.bound()))
        })
    }

    /// Sizes the core's current content (Theorem 2's exact `s_min`).
    fn size(
        &mut self,
        limits: &AnalysisLimits,
        scratch: &mut AnalysisScratch,
    ) -> Result<SpeedupBound, AnalysisError> {
        self.back
            .query(limits, scratch, |ctx| Ok(ctx.minimum_speedup()?.bound()))
    }

    /// Cumulative walk counters for this core, probes and rollbacks
    /// included.
    fn counts(&self) -> WalkCounts {
        match &self.back {
            CoreBack::Delta(delta) => delta.walk_counts(),
            CoreBack::Fresh { walks, .. } => *walks,
        }
    }

    /// The core's final task set.
    fn into_set(self) -> TaskSet {
        match self.back {
            CoreBack::Delta(delta) => delta.into_set(),
            CoreBack::Fresh { tasks, .. } => TaskSet::new(tasks),
        }
    }
}

/// The probe backend of one core.
#[derive(Debug)]
enum CoreBack {
    /// Resident incremental context; Boxed so empty cores stay small.
    Delta(Box<DeltaAnalysis>),
    /// Fresh-per-attempt reference: the placed tasks plus the walk
    /// counters absorbed from each throwaway context.
    Fresh { tasks: Vec<Task>, walks: WalkCounts },
}

impl CoreBack {
    /// Runs `f` against an analysis context of the core's current
    /// content — the resident delta profiles, or a freshly built
    /// context — with the scratch's walk arena attached either way, so
    /// steady-state probes allocate nothing.
    fn query<R>(
        &mut self,
        limits: &AnalysisLimits,
        scratch: &mut AnalysisScratch,
        f: impl Fn(&Analysis<'_>) -> Result<R, AnalysisError>,
    ) -> Result<R, AnalysisError> {
        match self {
            CoreBack::Delta(delta) => scratch.with_arena(|| delta.with_analysis(|ctx| f(ctx))),
            CoreBack::Fresh { tasks, walks } => {
                // Deliberately the un-amortized reference: a cloned set
                // and a cold `Analysis` per probe, exactly what
                // re-running the uniprocessor analysis from scratch on
                // every placement attempt costs.
                let set = TaskSet::new(tasks.clone());
                let ctx = Analysis::new(&set, limits);
                let result = f(&ctx);
                walks.absorb(&ctx.walk_counts());
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_model::Criticality;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn hi_task(name: &str, period: i128, c_lo: i128, c_hi: i128, d_lo: i128) -> Task {
        Task::builder(name, Criticality::Hi)
            .period(int(period))
            .deadline_lo(int(d_lo))
            .deadline_hi(int(period))
            .wcet_lo(int(c_lo))
            .wcet_hi(int(c_hi))
            .build()
            .expect("valid")
    }

    fn lo_task(name: &str, period: i128, c: i128) -> Task {
        Task::builder(name, Criticality::Lo)
            .period(int(period))
            .deadline(int(period))
            .wcet(int(c))
            .build()
            .expect("valid")
    }

    fn heavy_set() -> TaskSet {
        TaskSet::new(vec![
            hi_task("h1", 10, 3, 6, 4),
            hi_task("h2", 10, 3, 6, 4),
            hi_task("h3", 10, 3, 6, 4),
            lo_task("l1", 20, 4),
            lo_task("l2", 20, 4),
        ])
    }

    #[test]
    fn every_task_lands_on_exactly_one_core() {
        let limits = AnalysisLimits::default();
        let set = heavy_set();
        let cap = PlatformCap::new(3, Rational::TWO);
        let partitioned = partition(&set, cap, Heuristic::FirstFit, &limits)
            .expect("completes")
            .expect("fits");
        let mut names: Vec<&str> = partitioned
            .cores()
            .iter()
            .flat_map(|c| c.iter().map(rbs_model::Task::name))
            .collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = set.iter().map(rbs_model::Task::name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn each_core_passes_its_own_analyses() {
        let limits = AnalysisLimits::default();
        let cap = PlatformCap::new(3, Rational::TWO);
        for heuristic in [Heuristic::FirstFit, Heuristic::BestFit, Heuristic::WorstFit] {
            let partitioned = partition(&heavy_set(), cap, heuristic, &limits)
                .expect("completes")
                .expect("fits");
            for (core, bound) in partitioned.cores().iter().zip(partitioned.core_speedups()) {
                if core.is_empty() {
                    continue;
                }
                assert!(rbs_core::lo_mode::is_lo_schedulable(core, &limits).expect("ok"));
                match bound {
                    SpeedupBound::Finite(s) => assert!(*s <= Rational::TWO, "core needs {s}"),
                    SpeedupBound::Unbounded => panic!("accepted core unbounded"),
                }
            }
        }
    }

    #[test]
    fn one_core_cannot_hold_the_heavy_set() {
        let limits = AnalysisLimits::default();
        let cap = PlatformCap::new(1, Rational::TWO);
        let result = partition(&heavy_set(), cap, Heuristic::FirstFit, &limits).expect("completes");
        assert_eq!(result, None);
    }

    #[test]
    fn a_higher_speed_cap_admits_more() {
        // Three HI tasks each needing ~1.5x alone cannot share two cores
        // at 1x, but fit at 2x.
        let limits = AnalysisLimits::default();
        let set = TaskSet::new(vec![hi_task("a", 8, 2, 6, 3), hi_task("b", 8, 2, 6, 3)]);
        let tight = partition(
            &set,
            PlatformCap::new(1, Rational::ONE),
            Heuristic::FirstFit,
            &limits,
        )
        .expect("completes");
        assert_eq!(tight, None, "1 core at 1x should reject");
        let boosted = partition(
            &set,
            PlatformCap::new(1, int(4)),
            Heuristic::FirstFit,
            &limits,
        )
        .expect("completes");
        assert!(boosted.is_none() || boosted.is_some()); // decided below
        let two_core = partition(
            &set,
            PlatformCap::new(2, Rational::TWO),
            Heuristic::FirstFit,
            &limits,
        )
        .expect("completes")
        .expect("two boosted cores fit");
        assert_eq!(two_core.cores().iter().filter(|c| !c.is_empty()).count(), 2);
    }

    #[test]
    fn worst_fit_spreads_best_fit_packs() {
        let limits = AnalysisLimits::default();
        let set = TaskSet::new(vec![
            hi_task("a", 10, 1, 2, 4),
            hi_task("b", 10, 1, 2, 4),
            lo_task("c", 20, 2),
            lo_task("d", 20, 2),
        ]);
        let cap = PlatformCap::new(2, Rational::TWO);
        let worst = partition(&set, cap, Heuristic::WorstFit, &limits)
            .expect("ok")
            .expect("fits");
        let used_worst = worst.cores().iter().filter(|c| !c.is_empty()).count();
        assert_eq!(used_worst, 2, "worst-fit should use both cores");
        let first = partition(&set, cap, Heuristic::FirstFit, &limits)
            .expect("ok")
            .expect("fits");
        // First-fit packs the light set on one core.
        let used_first = first.cores().iter().filter(|c| !c.is_empty()).count();
        assert_eq!(used_first, 1, "first-fit should pack one core");
    }

    #[test]
    fn max_core_speedup_aggregates() {
        let limits = AnalysisLimits::default();
        let cap = PlatformCap::new(3, Rational::TWO);
        let partitioned = partition(&heavy_set(), cap, Heuristic::WorstFit, &limits)
            .expect("ok")
            .expect("fits");
        let max = partitioned.max_core_speedup();
        for bound in partitioned.core_speedups() {
            if let (SpeedupBound::Finite(b), SpeedupBound::Finite(m)) = (bound, max) {
                assert!(*b <= m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = PlatformCap::new(0, Rational::TWO);
    }

    #[test]
    fn outcome_reports_the_unplaced_task_and_probe_counters() {
        let limits = AnalysisLimits::default();
        let spec = PartitionSpec::new(PlatformCap::new(1, Rational::TWO), Heuristic::FirstFit);
        let outcome =
            partition_with(&heavy_set(), &spec, &WorkerPool::new(1), &limits).expect("completes");
        assert!(!outcome.is_fit());
        assert!(outcome.unplaced().is_some());
        assert!(outcome.probes() + outcome.screened() > 0);

        let fits = PartitionSpec::new(PlatformCap::new(3, Rational::TWO), Heuristic::FirstFit);
        let outcome =
            partition_with(&heavy_set(), &fits, &WorkerPool::new(1), &limits).expect("completes");
        assert!(outcome.is_fit());
        assert_eq!(outcome.unplaced(), None);
        assert!(outcome.walks().total() > 0);
    }

    #[test]
    fn min_max_speedup_never_needs_more_than_cap_only() {
        let limits = AnalysisLimits::default();
        let cap = PlatformCap::new(3, Rational::TWO);
        let pool = WorkerPool::new(1);
        let classic = PartitionSpec::new(cap, Heuristic::FirstFit);
        let greedy = classic.with_objective(Objective::MinMaxSpeedup);
        let a = partition_with(&heavy_set(), &classic, &pool, &limits)
            .expect("ok")
            .into_partition()
            .expect("fits");
        let b = partition_with(&heavy_set(), &greedy, &pool, &limits)
            .expect("ok")
            .into_partition()
            .expect("fits");
        let worst = |p: &Partition| match p.max_core_speedup() {
            SpeedupBound::Finite(s) => s,
            SpeedupBound::Unbounded => panic!("accepted fleet unbounded"),
        };
        assert!(
            worst(&b) <= worst(&a),
            "greedy min-max ({}) must not exceed first-fit ({})",
            worst(&b),
            worst(&a)
        );
    }

    #[test]
    fn shared_budget_binds_and_relaxes() {
        let limits = AnalysisLimits::default();
        let cap = PlatformCap::new(3, Rational::TWO);
        let pool = WorkerPool::new(1);
        // A generous budget fits exactly like CapOnly...
        let roomy = PartitionSpec::new(cap, Heuristic::FirstFit)
            .with_objective(Objective::SharedBudget(int(6)));
        let fit = partition_with(&heavy_set(), &roomy, &pool, &limits).expect("ok");
        assert!(fit.is_fit(), "budget 6 covers three cores at the cap");
        // ...while a budget below even nominal speed on one core sheds.
        let starved = PartitionSpec::new(cap, Heuristic::FirstFit)
            .with_objective(Objective::SharedBudget(Rational::new(1, 2)));
        let shed = partition_with(&heavy_set(), &starved, &pool, &limits).expect("ok");
        assert!(!shed.is_fit());
        assert!(shed.unplaced().is_some());
        // The budget constraint holds on the accepted fleet.
        let partition = fit.into_partition().expect("fits");
        let mut total = Rational::ZERO;
        for (core, bound) in partition.cores().iter().zip(partition.core_speedups()) {
            if core.is_empty() {
                continue;
            }
            match bound {
                SpeedupBound::Finite(s) => total += (*s).max(Rational::ONE),
                SpeedupBound::Unbounded => panic!("accepted core unbounded"),
            }
        }
        assert!(total <= int(6), "Σ max(s_min, 1) = {total} over budget");
    }

    #[test]
    fn pool_width_does_not_change_the_outcome() {
        let limits = AnalysisLimits::default();
        let spec = PartitionSpec::new(PlatformCap::new(4, Rational::TWO), Heuristic::WorstFit);
        let one = partition_with(&heavy_set(), &spec, &WorkerPool::new(1), &limits).expect("ok");
        let eight = partition_with(&heavy_set(), &spec, &WorkerPool::new(8), &limits).expect("ok");
        assert_eq!(one, eight);
    }

    #[test]
    #[should_panic(expected = "unique task names")]
    fn duplicate_names_are_rejected() {
        let limits = AnalysisLimits::default();
        let set = TaskSet::new(vec![lo_task("twin", 10, 1), lo_task("twin", 20, 1)]);
        let _ = partition(
            &set,
            PlatformCap::new(2, Rational::TWO),
            Heuristic::FirstFit,
            &limits,
        );
    }
}

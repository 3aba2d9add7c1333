//! The traced in-process replay: the same requests the daemon answered,
//! served by a mirror of `Service::process_batch` (one request per
//! batch) and `report::query_parts` that wraps a span around each call
//! into a layer's public function. Spans stay in memory and are written
//! out when the replay ends.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rbs_core::report::{
    run_sweep_in, AnalyzeMeta, AnalyzeReport, DeltaBase, DeltaRequest, SweepGrid,
};
use rbs_core::speedup::SpeedupBound;
use rbs_core::{
    Analysis, AnalysisError, AnalysisLimits, AnalysisScratch, DeltaAnalysis, DeltaOp, WalkCounts,
};
use rbs_json::{FromJson, ToJson};
use rbs_model::{CanonicalTaskSet, Mode, TaskSet};
use rbs_partition::wire::PartitionRequest;
use rbs_partition::{partition_with, PartitionSpec};
use rbs_svc::{Outcome, Response, SvcError, SvcErrorKind, WorkerPool};
use rbs_timebase::Rational;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory; spans of one request share its id.
pub struct Tracer {
    epoch: Instant,
    request: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] = own[parent as usize].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes one JSON line per span.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.request, span.id, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts recorded where the work happens.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub walks: WalkCounts,
    pub lo_requirement_limits: u64,
    pub reset_row_limits: u64,
    pub sweep_reused: u64,
    pub sweep_rebuilt: u64,
    pub delta_kept: u64,
    pub delta_rewalked: u64,
    pub partition_probes: u64,
    pub partition_screened: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl Counters {
    fn add_walks(&mut self, counts: WalkCounts) {
        self.walks.integer += counts.integer;
        self.walks.exact += counts.exact;
        self.walks.pruned += counts.pruned;
        self.walks.avoided += counts.avoided;
        self.walks.lockstep += counts.lockstep;
    }
}

enum Job {
    Analyze(TaskSet),
    Sweep(SweepGrid),
    Delta {
        base: Arc<TaskSet>,
        ops: Vec<DeltaOp>,
    },
    Partition {
        set: TaskSet,
        spec: PartitionSpec,
    },
}

type JobResult = Result<(Arc<str>, AnalyzeMeta), SvcError>;

/// The in-process mirror of the service: its caches and base registry,
/// a worker's scratch, and the counters.
pub struct Mirror {
    limits: AnalysisLimits,
    cache: HashMap<Vec<u8>, Result<Arc<str>, SvcError>>,
    bases: HashMap<String, Arc<TaskSet>>,
    buffers: AnalysisScratch,
    arena: AnalysisScratch,
    pub counters: Counters,
}

fn parse_error(detail: String) -> SvcError {
    SvcError::new(SvcErrorKind::Parse, detail)
}

impl Mirror {
    pub fn new() -> Mirror {
        Mirror {
            limits: AnalysisLimits::default(),
            cache: HashMap::new(),
            bases: HashMap::new(),
            buffers: AnalysisScratch::new(),
            arena: AnalysisScratch::new(),
            counters: Counters::default(),
        }
    }

    /// Seeds the caches and base registry with a warm line the reference
    /// service already answered, without analyzing it again.
    pub fn prime(&mut self, line: &str, response: &Response) {
        let mut scratch = Tracer::new();
        if let Ok((canonical, _)) = self.triage(&mut scratch, line) {
            let entry = match &response.outcome {
                Outcome::Report { report_json, .. } => Ok(Arc::clone(report_json)),
                Outcome::Error { error, .. } => Err(error.clone()),
            };
            self.cache.insert(canonical.bytes().to_vec(), entry);
        }
    }

    /// Serves one request as a one-request batch and renders its line.
    pub fn serve(&mut self, t: &mut Tracer, seq: usize, line: &str) -> String {
        t.request = u32::try_from(seq).expect("fewer than 2^32 requests");
        self.counters.bytes_in += line.len() as u64;
        let rendered = t.span("svc.request", |t| {
            let outcome = self.outcome(t, line);
            let response = Response {
                seq,
                label: format!("bench:{seq}"),
                micros: 0,
                outcome,
            };
            t.span("svc.response_render", |_| response.render())
        });
        self.counters.bytes_out += rendered.len() as u64 + 1;
        rendered
    }

    fn register(&mut self, canonical: &CanonicalTaskSet, set: Arc<TaskSet>) {
        self.bases.entry(canonical.to_string()).or_insert(set);
    }

    /// Parse, decode and canonicalize, as `Service::triage` does.
    fn triage(&mut self, t: &mut Tracer, line: &str) -> Result<(CanonicalTaskSet, Job), SvcError> {
        let parsed = t
            .span("json.parse", |_| rbs_json::parse(line))
            .map_err(|e| parse_error(format!("invalid request: {e}")))?;
        if let Some(sweep) = parsed.get("sweep") {
            let grid = t
                .span("model.decode", |_| SweepGrid::from_json(sweep))
                .map_err(|e| parse_error(format!("invalid sweep request: {e}")))?;
            let canonical = t.span("model.canonical", |_| {
                CanonicalTaskSet::of_sweep(&grid.specs, grid.x, &grid.ys, &grid.speeds)
            });
            Ok((canonical, Job::Sweep(grid)))
        } else if let Some(delta) = parsed.get("delta") {
            let request = t
                .span("model.decode", |_| DeltaRequest::from_json(delta))
                .map_err(|e| parse_error(format!("invalid delta request: {e}")))?;
            let base = match request.base {
                DeltaBase::Inline(set) => {
                    let set = Arc::new(set);
                    let canonical = t.span("model.canonical", |_| CanonicalTaskSet::of(&set));
                    self.register(&canonical, Arc::clone(&set));
                    set
                }
                DeltaBase::Key(key) => self.bases.get(&key).cloned().ok_or_else(|| {
                    parse_error(format!(
                        "unknown delta base key \"{key}\" (analyze the set first or ship it inline)"
                    ))
                })?,
            };
            let (canonical, result) = t.span("model.canonical", |_| {
                let mut result = (*base).clone();
                for op in &request.ops {
                    op.apply_to(&mut result)
                        .map_err(|e| parse_error(format!("delta op rejected: {e}")))?;
                }
                Ok::<_, SvcError>((CanonicalTaskSet::of(&result), result))
            })?;
            self.register(&canonical, Arc::new(result));
            Ok((
                canonical,
                Job::Delta {
                    base,
                    ops: request.ops,
                },
            ))
        } else if let Some(partition) = parsed.get("partition") {
            let request = t
                .span("model.decode", |_| PartitionRequest::from_json(partition))
                .map_err(|e| parse_error(format!("invalid partition request: {e}")))?;
            let canonical = t.span("model.canonical", |_| {
                CanonicalTaskSet::of_partition(&request.set, &request.spec.canonical_detail())
            });
            Ok((
                canonical,
                Job::Partition {
                    set: request.set,
                    spec: request.spec,
                },
            ))
        } else {
            let set = t
                .span("model.decode", |_| TaskSet::from_json(&parsed))
                .map_err(|e| parse_error(format!("invalid task set: {e}")))?;
            let canonical = t.span("model.canonical", |_| CanonicalTaskSet::of(&set));
            self.register(&canonical, Arc::new(set.clone()));
            Ok((canonical, Job::Analyze(set)))
        }
    }

    fn outcome(&mut self, t: &mut Tracer, line: &str) -> Outcome {
        let (canonical, job) = match self.triage(t, line) {
            Ok(entry) => entry,
            Err(error) => {
                return Outcome::Error {
                    error,
                    cached: false,
                }
            }
        };
        let hit = t.span("svc.cache_lookup", |_| {
            self.cache.get(canonical.bytes()).cloned()
        });
        if let Some(hit) = hit {
            return match hit {
                Ok(report_json) => Outcome::Report {
                    hash: canonical.to_string(),
                    cached: true,
                    coalesced: false,
                    walks: None,
                    report_json,
                },
                Err(error) => Outcome::Error {
                    error,
                    cached: true,
                },
            };
        }
        let result = t.span("svc.analyze", |t| self.run(t, job));
        let entry = result
            .as_ref()
            .map(|(json, _)| Arc::clone(json))
            .map_err(Clone::clone);
        self.cache.insert(canonical.bytes().to_vec(), entry);
        match result {
            Ok((report_json, meta)) => Outcome::Report {
                hash: canonical.to_string(),
                cached: false,
                coalesced: false,
                walks: Some(meta),
                report_json,
            },
            Err(error) => Outcome::Error {
                error,
                cached: false,
            },
        }
    }

    /// The worker side of one job, as in `Service::process_batch`.
    fn run(&mut self, t: &mut Tracer, job: Job) -> JobResult {
        let Mirror {
            limits,
            buffers,
            arena,
            counters,
            ..
        } = self;
        match job {
            Job::Analyze(set) => {
                let result = arena.with_arena(|| {
                    let ctx = t.span("core.profile_build", |_| {
                        Analysis::new_with_scratch(&set, limits, buffers)
                    });
                    let parts = query_parts(t, &ctx, counters);
                    let counts = ctx.walk_counts();
                    ctx.recycle_into(buffers);
                    counters.add_walks(counts);
                    parts.map(|parts| (parts, counts))
                });
                let (parts, counts) = result.map_err(|e| SvcError::from_analysis(&e))?;
                let report = parts.into_report(set);
                let json = t.span("json.render", |_| rbs_json::to_string(&report));
                Ok((Arc::from(json), meta_of(counts)))
            }
            Job::Sweep(grid) => {
                let swept = t
                    .span("sweep.run", |_| run_sweep_in(&grid, limits, buffers))
                    .map_err(|e| SvcError::from_analysis(&e))?;
                match swept {
                    Some((report, meta)) => {
                        counters.sweep_reused += meta.reused_components;
                        counters.sweep_rebuilt += meta.rebuilt_components;
                        counters.add_walks(walks_of(&meta));
                        let json = t.span("json.render", |_| rbs_json::to_string(&report));
                        Ok((Arc::from(json), meta))
                    }
                    None => Ok((Arc::from("{\"infeasible\":true}"), AnalyzeMeta::default())),
                }
            }
            Job::Delta { base, ops } => {
                let result = arena.with_arena(|| {
                    let mut delta = t.span("delta.build", |_| {
                        DeltaAnalysis::new((*base).clone(), limits)
                    });
                    t.span("delta.apply", |_| delta.apply_batch(ops))
                        .map_err(|e| parse_error(format!("delta op rejected: {e}")))?;
                    let parts = t.span("delta.query", |t| {
                        delta.with_analysis(|ctx| query_parts(t, ctx, counters))
                    });
                    let counts = delta.walk_counts();
                    counters.add_walks(counts);
                    counters.delta_kept += counts.kept;
                    counters.delta_rewalked += counts.rewalked;
                    let parts = parts.map_err(|e| SvcError::from_analysis(&e))?;
                    Ok::<_, SvcError>((parts.into_report(delta.into_set()), counts))
                })?;
                let (report, counts) = result;
                let json = t.span("json.render", |_| rbs_json::to_string(&report));
                Ok((Arc::from(json), meta_of(counts)))
            }
            Job::Partition { set, spec } => {
                let outcome = t
                    .span("partition.run", |_| {
                        partition_with(&set, &spec, &WorkerPool::new(1), limits)
                    })
                    .map_err(|e| SvcError::from_analysis(&e))?;
                counters.partition_probes += outcome.probes();
                counters.partition_screened += outcome.screened();
                counters.add_walks(outcome.walks());
                let json = t.span("json.render", |_| rbs_json::to_string(&outcome.to_json()));
                Ok((Arc::from(json), meta_of(outcome.walks())))
            }
        }
    }
}

/// Everything in an [`AnalyzeReport`] but the set.
struct Parts {
    lo_schedulable: bool,
    lo_requirement: Rational,
    s_min: SpeedupBound,
    witness: Option<Rational>,
    resetting_rows: Vec<(Rational, rbs_core::resetting::ResettingBound)>,
    sized_speed: Option<Rational>,
}

impl Parts {
    fn into_report(self, set: TaskSet) -> AnalyzeReport {
        AnalyzeReport {
            set,
            lo_schedulable: self.lo_schedulable,
            lo_requirement: self.lo_requirement,
            s_min: self.s_min,
            witness: self.witness,
            resetting_rows: self.resetting_rows,
            sized_speed: self.sized_speed,
        }
    }
}

/// `report::query_parts`, call for call, with a span around each query.
fn query_parts(
    t: &mut Tracer,
    ctx: &Analysis<'_>,
    counters: &mut Counters,
) -> Result<Parts, AnalysisError> {
    t.span("core.prime_lockstep", |_| ctx.prime_lockstep());
    let lo_schedulable = t.span("core.lo_check", |_| ctx.is_lo_schedulable())?;
    let lo_requirement = t
        .span("core.lo_requirement", |_| ctx.lo_speed_requirement())
        .inspect_err(|_| counters.lo_requirement_limits += 1)?;
    let analysis = t.span("core.s_min", |_| ctx.minimum_speedup())?;
    let s_min = analysis.bound();
    let witness = analysis.witness();
    let mut speeds: Vec<Rational> = vec![Rational::ONE, Rational::new(3, 2), Rational::TWO];
    if let SpeedupBound::Finite(v) = s_min {
        if !speeds.contains(&v) && v.is_positive() {
            speeds.push(v);
            speeds.sort();
        }
    }
    let mut resetting_rows = Vec::new();
    for s in speeds {
        let row = t
            .span("core.reset_row", |_| ctx.resetting_time(s))
            .inspect_err(|_| counters.reset_row_limits += 1)?;
        resetting_rows.push((s, row.bound()));
    }
    let max_period = ctx
        .set()
        .iter()
        .filter_map(|task| task.params(Mode::Hi))
        .map(|p| p.period())
        .max();
    let sized_speed = match max_period {
        Some(p) => t.span("core.budget_sizing", |_| {
            ctx.minimal_speed_within_budget(
                p * Rational::integer(10),
                Rational::integer(4),
                Rational::new(1, 64),
            )
        })?,
        None => None,
    };
    Ok(Parts {
        lo_schedulable,
        lo_requirement,
        s_min,
        witness,
        resetting_rows,
        sized_speed,
    })
}

fn meta_of(counts: WalkCounts) -> AnalyzeMeta {
    AnalyzeMeta {
        integer_walks: counts.integer,
        exact_walks: counts.exact,
        pruned_walks: counts.pruned,
        avoided_walks: counts.avoided,
        reused_components: counts.reused_components,
        rebuilt_components: counts.rebuilt_components,
        lockstep_walks: counts.lockstep,
        patched_profiles: counts.patched,
        repaired_frontiers: counts.repaired,
        kept_records: counts.kept,
        rewalked_frontiers: counts.rewalked,
    }
}

fn walks_of(meta: &AnalyzeMeta) -> WalkCounts {
    WalkCounts {
        integer: meta.integer_walks,
        exact: meta.exact_walks,
        pruned: meta.pruned_walks,
        avoided: meta.avoided_walks,
        lockstep: meta.lockstep_walks,
        ..WalkCounts::default()
    }
}

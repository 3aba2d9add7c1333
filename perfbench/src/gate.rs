//! The correctness gate: every response the daemon sent must match an
//! in-process `Service::process_batch` over the same corpus, and every
//! report must satisfy the paper's invariants. Runs after the timed
//! phase.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rbs_core::report::analyze;
use rbs_core::resetting::ResettingBound;
use rbs_core::speedup::SpeedupBound;
use rbs_core::AnalysisLimits;
use rbs_json::{FromJson, Json};
use rbs_model::TaskSet;
use rbs_svc::{BatchStats, Outcome, Request, Response, Service, ServiceConfig, WorkerPool};
use rbs_timebase::Rational;

use crate::daemon::{classify, digest, Exchange};
use crate::workload::{Workload, PARTITION_CAP};

/// Every this many applied deltas per connection, the report is compared
/// with a fresh analysis of the client's copy of the resulting set.
const DELTA_SAMPLE_EVERY: u64 = 25;
/// Requests per reference batch beyond the timed-per-request prefix.
const CHUNK: usize = 128;

/// What the gate found, plus the in-process reference data the traced
/// replay reuses.
pub struct Gate {
    pub failures: Vec<String>,
    /// Requests whose answer failed a check.
    pub failed_requests: u64,
    /// Distinct reports whose invariants were checked.
    pub reports_checked: usize,
    /// Delta reports compared with a fresh analysis.
    pub deltas_checked: usize,
    /// The warm lines and the reference's answers to them.
    pub warm: Vec<(String, Response)>,
    /// The first timed requests, replayed one `process_batch` each.
    pub prefix: Prefix,
}

/// The per-request reference replay of the first timed requests.
#[derive(Default)]
pub struct Prefix {
    pub lines: Vec<String>,
    /// Untraced in-process cost of each request, in microseconds.
    pub process_batch_us: Vec<f64>,
    pub payload_digests: Vec<u64>,
    pub stats: BatchStats,
}

struct Checker {
    failures: Vec<String>,
    failed_requests: u64,
    checked_payloads: HashSet<u64>,
    reports_checked: usize,
}

impl Checker {
    fn fail(&mut self, message: String) {
        self.failed_requests += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        } else if self.failures.len() == 20 {
            self.failures.push("further failures suppressed".to_owned());
        }
    }

    /// Compares one reference response with what the daemon sent and
    /// checks the report's invariants once per distinct payload.
    fn compare(&mut self, what: &str, response: &Response, live: &Exchange) -> u64 {
        let line = response.render();
        let (_, reference, _) = classify(&line);
        if reference != live.payload_digest {
            self.fail(format!(
                "{what}: daemon payload differs from in-process process_batch"
            ));
        }
        if self.checked_payloads.insert(reference) {
            if let Outcome::Report { report_json, .. } = &response.outcome {
                self.reports_checked += 1;
                if let Err(problem) = check_report(report_json) {
                    self.fail(format!("{what}: {problem}"));
                }
            }
        }
        reference
    }
}

/// Runs the gate. `warm` and `timed` are the daemon's exchanges (timed
/// in send order); the first `prefix_len` timed requests are replayed
/// one per batch and timed.
pub fn run(
    workload: &Workload,
    warm: &[Vec<Exchange>],
    timed: &[Exchange],
    prefix_len: usize,
) -> Gate {
    let mut checker = Checker {
        failures: Vec::new(),
        failed_requests: 0,
        checked_payloads: HashSet::new(),
        reports_checked: 0,
    };
    let service = Service::with_config(WorkerPool::new(2), ServiceConfig::default());

    let warm_lines: Vec<String> = workload.warm_lines().into_iter().flatten().collect();
    let warm_live: Vec<&Exchange> = warm.iter().flatten().collect();
    if warm_live.len() != warm_lines.len() {
        checker.fail(format!(
            "warm pass: {} responses for {} requests",
            warm_live.len(),
            warm_lines.len()
        ));
    }
    let requests: Vec<Request> = warm_lines
        .iter()
        .enumerate()
        .map(|(i, body)| request(i, body))
        .collect();
    let (responses, _) = service.process_batch(&requests);
    for ((live, line), response) in warm_live.iter().zip(&warm_lines).zip(&responses) {
        if digest(line.as_bytes()) != live.request_digest {
            checker.fail("warm pass: regenerated request differs from the one sent".to_owned());
        }
        checker.compare("warm pass", response, live);
    }
    // The fleet chains start from the reference's own hash of the base:
    // if the daemon answered with another, every regenerated delta
    // differs from the one sent and the gate fails below.
    let base_key = responses.iter().find_map(|r| match &r.outcome {
        Outcome::Report { hash, .. } => Some(hash.clone()),
        Outcome::Error { .. } => None,
    });
    let warm_pairs: Vec<(String, Response)> = warm_lines.into_iter().zip(responses).collect();

    let mut feeders: Vec<_> = (0..warm.len())
        .map(|conn| workload.feeder(conn, base_key.clone()))
        .collect();
    let mut applied = vec![0u64; feeders.len()];
    let limits = AnalysisLimits::default();
    let mut prefix = Prefix::default();
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let mut chunk: Vec<(usize, String, Option<TaskSet>)> = Vec::new();
    let mut deltas_checked = 0;
    for (i, live) in timed.iter().enumerate() {
        let feeder = &mut feeders[live.conn];
        let line = feeder.next_line();
        let request_digest = digest(line.as_bytes());
        if request_digest != live.request_digest {
            checker.fail(format!(
                "timed request {i}: regenerated request differs from the one sent"
            ));
        }
        let expected = feeder.expected_hash();
        feeder.observe(expected.as_deref());
        let fresh = feeder.fleet_delta_set().and_then(|set| {
            applied[live.conn] += 1;
            (applied[live.conn] % DELTA_SAMPLE_EVERY == 1).then(|| set.clone())
        });
        if i < prefix_len {
            let start = Instant::now();
            let (responses, stats) = service.process_batch(&[request(i, &line)]);
            prefix
                .process_batch_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            prefix.stats.absorb(&stats);
            let reference = checker.compare(&format!("timed request {i}"), &responses[0], live);
            prefix.payload_digests.push(reference);
            prefix.lines.push(line);
            if let Some(set) = fresh {
                deltas_checked += 1;
                check_fresh(&mut checker, i, &responses[0], set, &limits);
            }
            continue;
        }
        if fresh.is_none() {
            if let Some(&reference) = seen.get(&request_digest) {
                if reference != live.payload_digest {
                    checker.fail(format!(
                        "timed request {i}: daemon payload differs from in-process process_batch"
                    ));
                }
                continue;
            }
        }
        chunk.push((i, line, fresh));
        if chunk.len() == CHUNK {
            deltas_checked += flush(
                &service,
                &mut chunk,
                timed,
                &mut seen,
                &mut checker,
                &limits,
            );
        }
    }
    if !chunk.is_empty() {
        deltas_checked += flush(
            &service,
            &mut chunk,
            timed,
            &mut seen,
            &mut checker,
            &limits,
        );
    }
    Gate {
        failures: checker.failures,
        failed_requests: checker.failed_requests,
        reports_checked: checker.reports_checked,
        deltas_checked,
        warm: warm_pairs,
        prefix,
    }
}

fn request(i: usize, body: &str) -> Request {
    Request {
        label: format!("bench:{i}"),
        body: body.to_owned(),
    }
}

fn flush(
    service: &Service,
    chunk: &mut Vec<(usize, String, Option<TaskSet>)>,
    timed: &[Exchange],
    seen: &mut HashMap<u64, u64>,
    checker: &mut Checker,
    limits: &AnalysisLimits,
) -> usize {
    let requests: Vec<Request> = chunk.iter().map(|(i, line, _)| request(*i, line)).collect();
    let (responses, _) = service.process_batch(&requests);
    let mut fresh_checked = 0;
    for ((i, line, fresh), response) in chunk.drain(..).zip(&responses) {
        let reference = checker.compare(&format!("timed request {i}"), response, &timed[i]);
        seen.insert(digest(line.as_bytes()), reference);
        if let Some(set) = fresh {
            fresh_checked += 1;
            check_fresh(checker, i, response, set, limits);
        }
    }
    fresh_checked
}

/// A delta report must equal a fresh analysis of the resulting set.
fn check_fresh(
    checker: &mut Checker,
    i: usize,
    response: &Response,
    set: TaskSet,
    limits: &AnalysisLimits,
) {
    let fresh = analyze(set, limits).map(|report| rbs_json::to_string(&report));
    let matches = match (&response.outcome, &fresh) {
        (Outcome::Report { report_json, .. }, Ok(fresh)) => **report_json == **fresh,
        (Outcome::Error { .. }, Err(_)) => true,
        _ => false,
    };
    if !matches {
        checker.fail(format!(
            "timed request {i}: delta report differs from a fresh analysis"
        ));
    }
}

/// The invariants of one report: `lo_schedulable ⇔ lo_requirement ≤ 1`,
/// `Δ_R` non-increasing in speed (`Unbounded` = ∞), and for partitions
/// a fit with every core's `s_min` within the cap.
pub fn check_report(report: &str) -> Result<(), String> {
    if report.starts_with("{\"set\":") {
        // Skip the echoed set: parse only the fields after it.
        let at = report
            .find(",\"lo_schedulable\":")
            .ok_or("report without lo_schedulable")?;
        let tail = format!("{{{}", &report[at + 1..]);
        let json = rbs_json::parse(&tail).map_err(|e| format!("unparsable report: {e}"))?;
        let schedulable = json
            .get("lo_schedulable")
            .and_then(Json::as_bool)
            .ok_or("report without lo_schedulable")?;
        let requirement = json
            .get("lo_requirement")
            .ok_or("report without lo_requirement")
            .and_then(|v| Rational::from_json(v).map_err(|_| "bad lo_requirement"))?;
        if schedulable != (requirement <= Rational::ONE) {
            return Err(format!(
                "lo_schedulable={schedulable} but lo_requirement={requirement}"
            ));
        }
        check_rows(json.get("resetting_rows"))
    } else if report.starts_with("{\"x\":") {
        let json = rbs_json::parse(report).map_err(|e| format!("unparsable sweep: {e}"))?;
        let points = json
            .get("points")
            .and_then(Json::as_array)
            .ok_or("sweep without points")?;
        points
            .iter()
            .try_for_each(|p| check_rows(p.get("resetting")))
    } else if report.starts_with("{\"fits\":") {
        let json = rbs_json::parse(report).map_err(|e| format!("unparsable partition: {e}"))?;
        if json.get("fits").and_then(Json::as_bool) != Some(true) {
            return Err("partition does not fit".to_owned());
        }
        let cap = Rational::integer(PARTITION_CAP);
        for core in json
            .get("cores")
            .and_then(Json::as_array)
            .ok_or("partition without cores")?
        {
            let bound = core
                .get("s_min")
                .ok_or("core without s_min")
                .and_then(|v| SpeedupBound::from_json(v).map_err(|_| "bad core s_min"))?;
            match bound {
                SpeedupBound::Finite(v) if v <= cap => {}
                other => return Err(format!("core s_min {other:?} exceeds the cap {cap}")),
            }
        }
        Ok(())
    } else if report == "{\"infeasible\":true}" {
        Ok(())
    } else {
        Err("unrecognized report shape".to_owned())
    }
}

/// `(s, Δ_R)` rows in increasing speed must have non-increasing `Δ_R`.
fn check_rows(rows: Option<&Json>) -> Result<(), String> {
    let rows = rows
        .and_then(Json::as_array)
        .ok_or("missing resetting rows")?;
    let mut previous: Option<(Rational, Option<Rational>)> = None;
    for row in rows {
        let pair = row
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or("bad resetting row")?;
        let speed = Rational::from_json(&pair[0]).map_err(|_| "bad row speed")?;
        let bound = match ResettingBound::from_json(&pair[1]).map_err(|_| "bad row bound")? {
            ResettingBound::Finite(v) => Some(v),
            ResettingBound::Unbounded => None,
        };
        if let Some((last_speed, last_bound)) = previous {
            if speed <= last_speed {
                return Err(format!(
                    "resetting rows not in increasing speed at s={speed}"
                ));
            }
            // None is ∞: a finite row may follow an unbounded one, never
            // the other way round, and finite rows may only shrink.
            let grows = match (last_bound, bound) {
                (Some(_), None) => true,
                (Some(a), Some(b)) => b > a,
                (None, _) => false,
            };
            if grows {
                return Err(format!("Δ_R increases from s={last_speed} to s={speed}"));
            }
        }
        previous = Some((speed, bound));
    }
    Ok(())
}

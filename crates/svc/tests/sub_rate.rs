//! Regression test for sub-rate resetting-time rows: a generator set whose
//! `U_HI > 1` puts the `s = 1` row below the arrived-demand rate. A walk
//! that can only give up after a full hyperperiod exhausts the default
//! breakpoint budget on this set, and the whole request then failed with
//! `limits`. The lower-envelope stop answers the row `Unbounded` in a few
//! breakpoints, and the rest of the report matches the standalone
//! queries.

use rbs_core::lo_mode::lo_speed_requirement;
use rbs_core::resetting::{resetting_time, ResettingBound};
use rbs_core::speedup::{minimum_speedup, SpeedupBound};
use rbs_core::AnalysisLimits;
use rbs_json::FromJson;
use rbs_model::TaskSet;
use rbs_svc::{Outcome, Request, Service, WorkerPool};
use rbs_timebase::Rational;

/// `rbs_bench::synthetic_set(10, 2)`, pinned as JSON so the test does not
/// move with the generator.
const SET_JSON: &str = include_str!("data/synthetic_10_seed2.json");

#[test]
fn sub_rate_generator_set_answers_an_unbounded_row_instead_of_limits() {
    let limits = AnalysisLimits::default();
    let svc = Service::new(WorkerPool::new(1), 8, limits);
    let request = Request {
        label: "synthetic_10_seed2".to_owned(),
        body: SET_JSON.trim().to_owned(),
    };
    let (responses, stats) = svc.process_batch(&[request]);
    assert_eq!(stats.errors.total(), 0, "{responses:?}");
    let Outcome::Report {
        walks, report_json, ..
    } = &responses[0].outcome
    else {
        panic!("expected a report, got {:?}", responses[0]);
    };
    let walks = walks.expect("a fresh analysis reports its walks");
    assert!(walks.pruned_walks >= 1, "the stop shows as a pruned walk");

    let report = rbs_json::parse(report_json).expect("report parses");
    let rows = match report.get("resetting_rows") {
        Some(rbs_json::Json::Array(rows)) => rows,
        other => panic!("resetting_rows missing: {other:?}"),
    };
    let rbs_json::Json::Array(first) = &rows[0] else {
        panic!("row is not a pair: {:?}", rows[0]);
    };
    assert_eq!(
        Rational::from_json(&first[0]).expect("speed"),
        Rational::ONE
    );
    assert_eq!(
        ResettingBound::from_json(&first[1]).expect("bound"),
        ResettingBound::Unbounded
    );

    let set: TaskSet = rbs_json::from_str(SET_JSON).expect("fixture parses");
    assert_eq!(
        resetting_time(&set, Rational::ONE, &limits)
            .expect("completes")
            .bound(),
        ResettingBound::Unbounded
    );
    assert_eq!(
        SpeedupBound::from_json(report.get("s_min").expect("s_min")).expect("s_min"),
        minimum_speedup(&set, &limits).expect("completes").bound()
    );
    assert_eq!(
        Rational::from_json(report.get("lo_requirement").expect("lo_requirement"))
            .expect("lo_requirement"),
        lo_speed_requirement(&set, &limits).expect("completes")
    );
}

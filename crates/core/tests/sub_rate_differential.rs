//! Differential tests for the lower-envelope give-up stop of sub-rate
//! first-fit walks: below the long-run demand rate, `first_fit` answers
//! `Never` once a segment starts past `Σd/(rate − s)` instead of walking a
//! whole hyperperiod. The answers must equal a test-local hyperperiod scan
//! built only from [`PeriodicDemand::eval`]. The proved-narrow `i64`, the
//! general `i128` and the exact rational lanes must agree on results,
//! examined counts and the `pruned` flag of the walk trace.
//!
//! One profile shape is run on all three lanes by stretching time and
//! demand by a common factor (every answer stretches with it, the
//! breakpoint order does not change): small quantities stay on the
//! narrow lane, and `2^66` makes the fast path's envelope products
//! overflow, so no integer lane exists. For first fits, `2^60` puts every
//! period past the narrow headroom proof at any budget while every
//! product the walk forms still fits `i128`. Frontier builds also
//! cross-multiply demand values by times, so their wide stretch is
//! `2^40`: wide at the default budget, though the small budgets of the
//! examined-count search may let the headroom proof admit narrow lanes.

use rbs_core::demand::{DemandProfile, FirstFit, PeriodicDemand, WalkKind, WalkTrace};
use rbs_core::{AnalysisError, AnalysisLimits};
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES: usize = 64;

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// One component's six quantities, buildable at any stretch.
#[derive(Debug, Clone, Copy)]
struct Shape {
    period: Rational,
    per_period: Rational,
    constant: Rational,
    ramp_start: Rational,
    jump: Rational,
    ramp_len: Rational,
}

impl Shape {
    fn build(&self, stretch: Rational) -> PeriodicDemand {
        PeriodicDemand::new(
            self.period * stretch,
            self.per_period * stretch,
            self.constant * stretch,
            self.ramp_start * stretch,
            self.jump * stretch,
            self.ramp_len * stretch,
        )
    }
}

/// A random component whose breakpoints all lie on the `1/8` grid and
/// whose period divides 12, so every profile's hyperperiod divides 12.
/// `lead` forces positive demand at zero and a positive jump, which
/// keeps the first-fit walks non-trivial and the exact stretch off the
/// fast path.
fn arb_shape(rng: &mut Rng, lead: bool) -> Shape {
    const PERIODS: [(i128, i128); 6] = [(1, 1), (3, 2), (2, 1), (3, 1), (4, 1), (6, 1)];
    let (pn, pd) = PERIODS[rng.gen_range_usize(0, PERIODS.len() - 1)];
    let period = rat(pn, pd);
    let ramp_start = period * rat(rng.gen_range_i128(0, 3), 4);
    let jump = rat(rng.gen_range_i128(i128::from(lead) * 4, 8), 4);
    let ramp_len = rat(rng.gen_range_i128(0, 8), 4);
    let extra = rat(rng.gen_range_i128(0, 4), 4);
    let constant = rat(rng.gen_range_i128(i128::from(lead), 4), 4);
    Shape {
        period,
        per_period: jump + ramp_len + extra,
        constant,
        ramp_start,
        jump,
        ramp_len,
    }
}

fn arb_shapes(rng: &mut Rng) -> Vec<Shape> {
    let len = rng.gen_range_usize(1, 4);
    (0..len).map(|i| arb_shape(rng, i == 0)).collect()
}

/// Wide-lane stretch of the first-fit walks.
const FIT_WIDE: Rational = Rational::integer(1 << 60);
/// Wide-lane stretch of the frontier builds.
const FRONTIER_WIDE: Rational = Rational::integer(1 << 40);

/// The three lanes of one shape list: `(stretch, profile)`.
fn lanes(shapes: &[Shape], wide: Rational) -> [(Rational, DemandProfile); 3] {
    [Rational::ONE, wide, Rational::integer(1 << 66)].map(|stretch| {
        let profile = DemandProfile::new(shapes.iter().map(|s| s.build(stretch)).collect());
        (stretch, profile)
    })
}

/// The first fit stretched back onto the unit timebase.
fn unstretch(fit: FirstFit, stretch: Rational) -> FirstFit {
    match fit {
        FirstFit::At(at) => FirstFit::At(at / stretch),
        FirstFit::Never => FirstFit::Never,
    }
}

fn total(components: &[PeriodicDemand], delta: Rational) -> Rational {
    components.iter().map(|c| c.eval(delta)).sum()
}

/// `min{Δ ∈ [0, until] : eval(Δ) ≤ s·Δ}` by scanning the `1/8` grid
/// cells, using nothing but [`PeriodicDemand::eval`]: every breakpoint is
/// a grid point, so demand is linear on each cell with the slope read
/// off its midpoint.
fn scan_first_fit(
    components: &[PeriodicDemand],
    speed: Rational,
    until: Rational,
) -> Option<Rational> {
    let step = rat(1, 8);
    let half = rat(1, 16);
    let mut start = Rational::ZERO;
    while start <= until {
        let value = total(components, start);
        if value <= speed * start {
            return Some(start);
        }
        let slope = (total(components, start + half) - value) / half;
        if speed > slope {
            let crossing = (value - slope * start) / (speed - slope);
            if crossing < start + step {
                return Some(crossing);
            }
        }
        start += step;
    }
    None
}

/// The hyperperiod-scan oracle at `speed ≤ rate`: a fit exists only
/// within one hyperperiod (demand(Δ+P) − s(Δ+P) ≥ demand(Δ) − sΔ), and 12
/// is a multiple of every generated profile's hyperperiod.
fn oracle(components: &[PeriodicDemand], speed: Rational) -> FirstFit {
    scan_first_fit(components, speed, Rational::integer(12)).map_or(FirstFit::Never, FirstFit::At)
}

/// The breakpoints a query examines: the smallest budget it completes
/// in, checked against the budget error one below it.
fn examined<T>(query: impl Fn(&AnalysisLimits) -> Result<T, AnalysisError>) -> usize {
    if query(&AnalysisLimits::new(0)).is_ok() {
        return 0;
    }
    let (mut lo, mut hi) = (0usize, 4096usize);
    assert!(
        query(&AnalysisLimits::new(hi)).is_ok(),
        "query needs > {hi} breakpoints"
    );
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if query(&AnalysisLimits::new(mid)).is_ok() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    assert!(matches!(
        query(&AnalysisLimits::new(hi - 1)),
        Err(AnalysisError::BreakpointBudgetExhausted { examined }) if examined == hi
    ));
    hi
}

/// Checks the lane labels: unit and wide stretch on the integer fast
/// path, `2^66` without one.
fn assert_lane_kinds(traces: &[WalkTrace], label: &str) {
    assert_eq!(traces[0].kind, WalkKind::Integer, "{label}: narrow lane");
    assert_eq!(traces[1].kind, WalkKind::Integer, "{label}: wide lane");
    assert_eq!(traces[2].kind, WalkKind::Rational, "{label}: exact lane");
}

/// Sub-rate and at-rate speeds for a profile of long-run rate `rate`.
fn sub_rate_speeds(rate: Rational) -> impl Iterator<Item = Rational> {
    (1..=8).map(move |k| rate * rat(k, 8))
}

#[test]
fn lower_envelope_bounds_every_component() {
    let mut rng = Rng::seed_from_u64(0x5b7a_0001);
    for case in 0..256 {
        let shape = arb_shape(&mut rng, case % 2 == 0);
        let c = shape.build(Rational::ONE);
        let deficit = c.envelope_deficit().expect("small quantities fit");
        assert!(!deficit.is_negative(), "case {case}");
        let step = c.period() / Rational::integer(96);
        for i in 0..=4 * 96 {
            let delta = step * Rational::integer(i);
            assert!(
                c.eval(delta) >= c.rate() * delta - deficit,
                "case {case} at {delta}: {c:?}"
            );
        }
    }
}

#[test]
fn sub_rate_first_fit_matches_the_hyperperiod_scan_on_every_lane() {
    let mut rng = Rng::seed_from_u64(0x5b7a_0002);
    let limits = AnalysisLimits::default();
    let mut pruned = 0usize;
    for case in 0..CASES {
        let shapes = arb_shapes(&mut rng);
        let lanes = lanes(&shapes, FIT_WIDE);
        assert!(!lanes[2].1.has_fast_path(), "case {case}: exact lane");
        let rate = lanes[0].1.rate();
        for speed in sub_rate_speeds(rate) {
            let label = format!("case {case} at speed {speed}: {shapes:?}");
            let expected = oracle(lanes[0].1.components(), speed);
            let mut traces = Vec::new();
            let mut counts = Vec::new();
            for (stretch, profile) in &lanes {
                let (fit, trace) = profile.first_fit_traced(speed, &limits).expect("completes");
                assert_eq!(unstretch(fit, *stretch), expected, "{label}");
                assert_eq!(
                    profile.first_fit_exact(speed, &limits).expect("completes"),
                    fit,
                    "{label}: exact reference"
                );
                traces.push(trace);
                counts.push(examined(|l| profile.first_fit(speed, l)));
            }
            assert_lane_kinds(&traces, &label);
            assert!(
                traces.iter().all(|t| t.pruned == traces[0].pruned),
                "{label}: pruned flags differ: {traces:?}"
            );
            assert!(
                counts.iter().all(|&n| n == counts[0]),
                "{label}: {counts:?}"
            );
            if traces[0].pruned {
                assert_eq!(expected, FirstFit::Never, "{label}: pruned answer");
                assert!(speed < rate, "{label}: pruned at the rate");
                pruned += 1;
            }
        }
    }
    assert!(pruned > 0, "the give-up stop never fired");
}

#[test]
fn sub_rate_frontier_lookups_match_the_scan_on_every_lane() {
    let mut rng = Rng::seed_from_u64(0x5b7a_0003);
    let limits = AnalysisLimits::default();
    let mut pruned = 0usize;
    for case in 0..CASES {
        let shapes = arb_shapes(&mut rng);
        let lanes = lanes(&shapes, FRONTIER_WIDE);
        let rate = lanes[0].1.rate();
        for min_speed in sub_rate_speeds(rate) {
            let label = format!("case {case} from speed {min_speed}: {shapes:?}");
            let served = oracle(lanes[0].1.components(), min_speed) != FirstFit::Never;
            let mut traces = Vec::new();
            let mut counts = Vec::new();
            let mut answers = Vec::new();
            for (stretch, profile) in &lanes {
                let (frontier, trace) = profile
                    .reset_frontier(min_speed, &limits)
                    .expect("completes");
                let lookups: Vec<Option<FirstFit>> = (0..=24)
                    .map(|j| min_speed + rate * rat(j, 16))
                    .map(|speed| frontier.lookup(speed).map(|fit| unstretch(fit, *stretch)))
                    .collect();
                answers.push(lookups);
                traces.push(trace);
                counts.push(examined(|l| profile.reset_frontier(min_speed, l)));
            }
            assert_lane_kinds(&traces, &label);
            assert!(
                traces.iter().all(|t| t.pruned == traces[0].pruned),
                "{label}: pruned flags differ: {traces:?}"
            );
            assert!(
                counts.iter().all(|&n| n == counts[0]),
                "{label}: {counts:?}"
            );
            assert!(
                answers.iter().all(|a| *a == answers[0]),
                "{label}: lookups differ"
            );
            let components = lanes[0].1.components();
            for (j, lookup) in answers[0].iter().enumerate() {
                let speed = min_speed + rate * rat(j as i128, 16);
                match lookup {
                    Some(FirstFit::At(at)) => assert_eq!(
                        scan_first_fit(components, speed, *at),
                        Some(*at),
                        "{label}: lookup at {speed}"
                    ),
                    Some(FirstFit::Never) => panic!("{label}: a lookup never answers Never"),
                    None => assert!(!served, "{label}: served build misses {speed}"),
                }
            }
            if traces[0].pruned {
                assert!(!served && min_speed < rate, "{label}: pruned build");
                pruned += 1;
            }
        }
    }
    assert!(pruned > 0, "the give-up stop never fired");
}

/// The old failure: coprime periods put the hyperperiod (about 1.4e10)
/// far beyond any budget, so a walk that can only give up after one
/// hyperperiod exhausts even a generous budget at `s = 1 < rate = 3/2`.
/// The lower envelope (`Σd ≈ 27`, horizon ≈ 53) answers `Never` within a
/// tiny budget on every lane.
#[test]
fn coprime_sub_rate_profile_answers_never_within_a_tiny_budget() {
    let shapes: Vec<Shape> = [101, 103, 107, 109, 113]
        .into_iter()
        .map(|period| Shape {
            period: Rational::integer(period),
            per_period: rat(3 * period, 10),
            constant: rat(period, 10),
            ramp_start: rat(period, 2),
            jump: rat(3 * period, 10),
            ramp_len: Rational::ZERO,
        })
        .collect();
    let limits = AnalysisLimits::new(64);
    // Periods near 2^58 after stretching: past the narrow headroom proof
    // even at this budget, with every product still inside `i128`.
    for (stretch, kind) in [
        (Rational::ONE, WalkKind::Integer),
        (Rational::integer(1 << 51), WalkKind::Integer),
        (Rational::integer(1 << 66), WalkKind::Rational),
    ] {
        let profile = DemandProfile::new(shapes.iter().map(|s| s.build(stretch)).collect());
        assert!(profile.rate() > Rational::ONE);
        let (fit, trace) = profile
            .first_fit_traced(Rational::ONE, &limits)
            .expect("the give-up stop fits the budget");
        assert_eq!(fit, FirstFit::Never, "stretch {stretch}");
        assert_eq!(trace.kind, kind, "stretch {stretch}");
        assert!(trace.pruned, "stretch {stretch}");
        assert_eq!(
            profile.first_fit_exact(Rational::ONE, &limits),
            Ok(FirstFit::Never)
        );
        let (frontier, trace) = profile
            .reset_frontier(Rational::ONE, &limits)
            .expect("the give-up stop fits the budget");
        assert!(trace.pruned, "stretch {stretch}");
        assert_eq!(frontier.lookup(Rational::ONE), None);
    }
}

/// A deficit sum that overflows `i128` leaves the walk without a give-up
/// horizon: it falls back to the hyperperiod stop instead of panicking.
/// Unit steps at `1/2^43`, `1/3^27` and `1/5^19` (rate 3) have deficits
/// `1/2^43`, `1/3^27` and `1/5^19`, whose sum needs a denominator near
/// `2^130`; their times share no `i128` timebase either, so only the
/// exact lane runs, and it stops after one hyperperiod of length 1.
#[test]
fn overflowing_deficit_falls_back_to_the_hyperperiod_stop() {
    let step = |offset: Rational| {
        PeriodicDemand::new(
            Rational::ONE,
            Rational::ONE,
            Rational::ZERO,
            offset,
            Rational::ONE,
            Rational::ZERO,
        )
    };
    let backlog = PeriodicDemand::new(
        Rational::ONE,
        Rational::ZERO,
        Rational::ONE,
        Rational::ZERO,
        Rational::ZERO,
        Rational::ZERO,
    );
    let profile = DemandProfile::new(vec![
        step(rat(1, 1 << 43)),
        step(rat(1, 3i128.pow(27))),
        step(rat(1, 5i128.pow(19))),
        backlog,
    ]);
    assert!(!profile.has_fast_path());
    assert_eq!(profile.rate(), Rational::integer(3));
    let limits = AnalysisLimits::default();
    let (fit, trace) = profile
        .first_fit_traced(Rational::ONE, &limits)
        .expect("the hyperperiod stop completes");
    assert_eq!(fit, FirstFit::Never);
    assert_eq!(trace.kind, WalkKind::Rational);
    assert!(!trace.pruned, "no horizon, so no early stop");
    assert_eq!(
        profile.first_fit_exact(Rational::ONE, &limits),
        Ok(FirstFit::Never)
    );
    // Segments start at 0, the three steps, 1 and the first step after
    // it, which lies past the hyperperiod.
    assert_eq!(examined(|l| profile.first_fit(Rational::ONE, l)), 6);
    let (frontier, trace) = profile
        .reset_frontier(Rational::ONE, &limits)
        .expect("the hyperperiod stop completes");
    assert!(!trace.pruned);
    assert_eq!(frontier.lookup(Rational::ONE), None);
}

//! Differential property tests for frontier repair: a [`DeltaAnalysis`]
//! that repairs its resetting-time staircase across deltas must answer
//! every query bit-identically to (a) a shadow context that drops the
//! staircase whole after every delta — the pre-repair behavior — and
//! (b) a fresh [`Analysis`] of the same set, while examining *no more*
//! walks than either. The churn mixes single ops and batched multi-op
//! deltas over HI-active and HI-terminated tasks, and runs on all three
//! walk lanes: proved-narrow `i64`, general `i128`, and the exact
//! rational fallback for sets with no representable shared timebase.
//! A poison pill pins that a panic inside the repair window leaves the
//! context rebuildable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rbs_core::{Analysis, AnalysisLimits, DeltaAnalysis, DeltaOp, WalkCounts};
use rbs_model::{Criticality, Task, TaskSet};
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES_PER_LANE: usize = 12;
const OPS_PER_CASE: usize = 10;

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// Which walk lane a case's tasks are engineered for. `Narrow` stays in
/// small integers so every scaled walk fits the proved-`i64` kernel;
/// `Wide` scales periods by a huge power of two so scaled quantities
/// need the full `i128` lanes (same code path, no overflow); `Exact`
/// mixes power-of-two and thirds denominators so large that no shared
/// integer timebase exists and every walk runs on exact rationals.
#[derive(Clone, Copy, PartialEq)]
enum Lane {
    Narrow,
    Wide,
    Exact,
}

/// A random valid task on the given lane covering the three shapes of
/// the model: a HI task (eq. (1)), a degraded LO task (eq. (2)), and a
/// HI-terminated LO task (eq. (3)). The terminated shape is what makes
/// repair interesting — its churn leaves `ADB_HI` untouched — so it is
/// drawn with double weight.
fn arb_task(rng: &mut Rng, lane: Lane, name: &str) -> Task {
    let stretch = match lane {
        Lane::Narrow => Rational::ONE,
        // Far past the i64 headroom proof once cross-multiplied, still
        // comfortably inside i128.
        Lane::Wide => Rational::integer(1 << 40),
        // Alternating unbridgeable denominators: 2^96 against 3·2^94
        // has no common multiple a 128-bit timebase can carry once the
        // profile also holds small fractional periods.
        Lane::Exact => {
            if rng.gen_bool(0.5) {
                Rational::integer(1 << 96)
            } else {
                rat(3 << 94, 1)
            }
        }
    };
    let den = [1, 2, 3, 4][rng.gen_range_usize(0, 3)];
    let period = rat(rng.gen_range_i128(2, 20), den) * stretch;
    let wcet = period * rat(rng.gen_range_i128(1, 3), 8);
    match rng.gen_range_usize(0, 3) {
        0 => {
            let deadline_lo = period * rat(rng.gen_range_i128(2, 4), 4);
            let wcet_hi = (wcet * rat(rng.gen_range_i128(4, 9), 4)).min(period);
            Task::builder(name, Criticality::Hi)
                .period(period)
                .deadline_lo(deadline_lo)
                .deadline_hi(period)
                .wcet_lo(wcet)
                .wcet_hi(wcet_hi)
                .build()
                .expect("valid HI task")
        }
        1 => {
            let degrade = rat(rng.gen_range_i128(4, 8), 4);
            Task::builder(name, Criticality::Lo)
                .period(period)
                .deadline(period)
                .period_hi(period * degrade)
                .deadline_hi(period * degrade)
                .wcet(wcet)
                .build()
                .expect("valid degraded LO task")
        }
        _ => Task::builder(name, Criticality::Lo)
            .period(period)
            .deadline(period)
            .wcet(wcet)
            .terminated()
            .build()
            .expect("valid terminated LO task"),
    }
}

/// Query speeds per lane: resetting-time walks on the `Exact` lane pay
/// per-breakpoint rational arithmetic, so that lane probes fewer speeds.
fn speeds(lane: Lane) -> &'static [Rational] {
    const COMMON: &[Rational] = &[Rational::TWO];
    const FULL: &[Rational] = &[Rational::ONE, Rational::TWO];
    match lane {
        Lane::Exact => COMMON,
        _ => FULL,
    }
}

/// Runs the full query surface on the repaired context, the
/// whole-invalidation shadow, and a fresh [`Analysis`] of the same set,
/// asserting the three agree bit for bit (values and errors alike).
fn assert_lanes_agree(
    repaired: &mut DeltaAnalysis,
    invalidated: &mut DeltaAnalysis,
    limits: &AnalysisLimits,
    lane: Lane,
    label: &str,
) {
    assert_eq!(
        repaired.set(),
        invalidated.set(),
        "{label}: shadow set diverged"
    );
    let set = repaired.set().clone();
    let ctx = Analysis::new(&set, limits);
    let fresh_smin = ctx.minimum_speedup();
    assert_eq!(repaired.minimum_speedup(), fresh_smin, "{label}: s_min");
    assert_eq!(
        invalidated.minimum_speedup(),
        fresh_smin,
        "{label}: shadow s_min"
    );
    for &s in speeds(lane) {
        let fresh_reset = ctx.resetting_time(s);
        assert_eq!(
            repaired.resetting_time(s),
            fresh_reset,
            "{label}: Delta_R at s = {s}"
        );
        assert_eq!(
            invalidated.resetting_time(s),
            fresh_reset,
            "{label}: shadow Delta_R at s = {s}"
        );
    }
}

/// One random delta: a single admit/evict/replace or, one round in
/// three, a batched multi-op splice (which may contain an opposing
/// admit+evict pair that cancels during simulation). Applied to both
/// contexts identically; the shadow then drops its staircase whole.
fn churn_step(
    rng: &mut Rng,
    lane: Lane,
    next_id: &mut usize,
    repaired: &mut DeltaAnalysis,
    invalidated: &mut DeltaAnalysis,
) {
    let fresh_name = |next_id: &mut usize| {
        let name = format!("t{next_id}");
        *next_id += 1;
        name
    };
    let names: Vec<String> = repaired.set().iter().map(|t| t.name().to_owned()).collect();
    let ops: Vec<DeltaOp> = if rng.gen_bool(1.0 / 3.0) && !names.is_empty() {
        // Batched: replace a resident, churn a transient through the
        // same splice (admitted then evicted — it must vanish during
        // simulation), and admit a survivor.
        let victim = names[rng.gen_range_usize(0, names.len() - 1)].clone();
        let transient = arb_task(rng, lane, &fresh_name(next_id));
        let survivor = arb_task(rng, lane, &fresh_name(next_id));
        let swap = arb_task(rng, lane, &fresh_name(next_id));
        vec![
            DeltaOp::Admit(transient.clone()),
            DeltaOp::Replace {
                id: victim,
                task: swap,
            },
            DeltaOp::Admit(survivor),
            DeltaOp::Evict(transient.name().to_owned()),
        ]
    } else {
        match rng.gen_range_usize(0, 2) {
            0 if !names.is_empty() => {
                vec![DeltaOp::Evict(
                    names[rng.gen_range_usize(0, names.len() - 1)].clone(),
                )]
            }
            1 if !names.is_empty() => {
                let victim = names[rng.gen_range_usize(0, names.len() - 1)].clone();
                let name = if rng.gen_bool(0.5) {
                    fresh_name(next_id)
                } else {
                    victim.clone()
                };
                vec![DeltaOp::Replace {
                    id: victim,
                    task: arb_task(rng, lane, &name),
                }]
            }
            _ => vec![DeltaOp::Admit(arb_task(rng, lane, &fresh_name(next_id)))],
        }
    };
    if ops.len() == 1 {
        repaired.apply(ops[0].clone()).expect("vetted op applies");
        invalidated
            .apply(ops[0].clone())
            .expect("vetted op applies");
    } else {
        repaired.apply_batch(ops.clone()).expect("vetted ops apply");
        invalidated.apply_batch(ops).expect("vetted ops apply");
    }
    invalidated.invalidate_frontier();
}

/// Walk-count relations after a case: repair can only *save* walks over
/// whole-invalidation, and every saved walk surfaces as a frontier hit.
fn assert_repair_only_saves(lane: Lane, case: usize, kept: &WalkCounts, dropped: &WalkCounts) {
    let label = match lane {
        Lane::Narrow => "narrow",
        Lane::Wide => "wide",
        Lane::Exact => "exact",
    };
    assert!(
        kept.integer <= dropped.integer,
        "{label} case {case}: repair grew integer walks ({} > {})",
        kept.integer,
        dropped.integer
    );
    assert!(
        kept.exact <= dropped.exact,
        "{label} case {case}: repair grew exact walks ({} > {})",
        kept.exact,
        dropped.exact
    );
    assert!(
        kept.avoided >= dropped.avoided,
        "{label} case {case}: repair lost frontier hits ({} < {})",
        kept.avoided,
        dropped.avoided
    );
    assert_eq!(
        kept.patched + kept.rebuilt_components + kept.reused_components,
        dropped.patched + dropped.rebuilt_components + dropped.reused_components,
        "{label} case {case}: splice accounting diverged"
    );
}

fn churn_lane(lane: Lane, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let limits = AnalysisLimits::default();
    let mut lane_repaired = 0u64;
    for case in 0..CASES_PER_LANE {
        let mut next_id = 0usize;
        let base: Vec<Task> = (0..rng.gen_range_usize(2, 5))
            .map(|_| {
                let name = format!("t{next_id}");
                next_id += 1;
                arb_task(&mut rng, lane, &name)
            })
            .collect();
        let base = TaskSet::new(base);
        let mut repaired = DeltaAnalysis::new(base.clone(), &limits);
        let mut invalidated = DeltaAnalysis::new(base, &limits);
        assert_lanes_agree(
            &mut repaired,
            &mut invalidated,
            &limits,
            lane,
            &format!("case {case} base"),
        );
        for step in 0..OPS_PER_CASE {
            churn_step(
                &mut rng,
                lane,
                &mut next_id,
                &mut repaired,
                &mut invalidated,
            );
            assert_lanes_agree(
                &mut repaired,
                &mut invalidated,
                &limits,
                lane,
                &format!("case {case} step {step}"),
            );
        }
        let kept = repaired.walk_counts();
        let dropped = invalidated.walk_counts();
        if lane == Lane::Exact {
            assert!(kept.exact > 0, "case {case}: lane never left the fast path");
        }
        assert_repair_only_saves(lane, case, &kept, &dropped);
        lane_repaired += kept.repaired;
    }
    // The lane exercised repair at all: terminated-task churn appears
    // with double weight precisely so staircases survive some deltas.
    assert!(lane_repaired > 0, "lane never repaired a staircase");
}

#[test]
fn narrow_lane_repair_is_bit_identical_to_invalidation_and_fresh() {
    churn_lane(Lane::Narrow, 0xf407_0001);
}

#[test]
fn wide_lane_repair_is_bit_identical_to_invalidation_and_fresh() {
    churn_lane(Lane::Wide, 0xf407_0002);
}

#[test]
fn exact_lane_repair_is_bit_identical_to_invalidation_and_fresh() {
    churn_lane(Lane::Exact, 0xf407_0003);
}

#[test]
fn a_panic_mid_repair_leaves_the_context_rebuildable() {
    let mut rng = Rng::seed_from_u64(0xf407_0004);
    let limits = AnalysisLimits::default();
    let base: Vec<Task> = (0..4)
        .map(|i| arb_task(&mut rng, Lane::Narrow, &format!("t{i}")))
        .collect();
    let mut delta = DeltaAnalysis::new(TaskSet::new(base), &limits);
    // Build a staircase so the repair window has live state to lose.
    let _ = delta.resetting_time(Rational::TWO).expect("completes");

    DeltaAnalysis::arm_mid_repair_fault();
    let pill = arb_task(&mut rng, Lane::Narrow, "pill");
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = delta.admit(pill);
    }));
    assert!(result.is_err(), "the armed fault must fire");

    // The unwind happened after the set mutation with the dirty guard
    // still raised: the next use rebuilds the profiles from the set and
    // every answer matches a fresh context of the post-admit set.
    let set = delta.set().clone();
    assert!(set.by_name("pill").is_some(), "set mutated before repair");
    let ctx = Analysis::new(&set, &limits);
    assert_eq!(delta.minimum_speedup(), ctx.minimum_speedup(), "s_min");
    assert_eq!(
        delta.resetting_time(Rational::TWO),
        ctx.resetting_time(Rational::TWO),
        "Delta_R"
    );
    // And the healed context keeps taking deltas — including batched
    // ones whose repair now runs un-poisoned.
    let follow_up = arb_task(&mut rng, Lane::Narrow, "next");
    delta
        .apply_batch(vec![
            DeltaOp::Admit(follow_up),
            DeltaOp::Evict("pill".to_owned()),
        ])
        .expect("healed context splices");
    let set = delta.set().clone();
    let ctx = Analysis::new(&set, &limits);
    assert_eq!(
        delta.minimum_speedup(),
        ctx.minimum_speedup(),
        "healed s_min"
    );
}

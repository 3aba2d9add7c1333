//! The three workloads: what each connection sends, generated from the
//! workload seed alone. The daemon only ever sees the JSON lines.
//!
//! Every request stream is deterministic given `(seed, connection)`, so
//! the correctness gate regenerates the exact lines that went over the
//! wire instead of keeping them in memory.

use std::fs;
use std::io;
use std::path::Path;

use rbs_json::{Json, ToJson};
use rbs_model::{CanonicalTaskSet, Criticality, Task, TaskSet};
use rbs_rng::Rng;
use rbs_timebase::Rational;

/// Load comes from this many TCP connections, each a closed loop.
pub const CONNECTIONS: usize = 2;

/// Cores and per-core speedup cap of every fleet partition request.
const PARTITION_CORES: usize = 20;
pub const PARTITION_CAP: i128 = 2;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's own evaluation traffic: unique Fig. 6 generator sets
    /// (about 80%) and sweep grids (about 20%), each sent once, so every
    /// request misses the cache. About a sixth of it reaches the
    /// sub-rate resetting-time walk, which takes most of the time; pool
    /// scaling and the sweep engine show here, while the delta,
    /// partition and cache-read paths stay idle.
    SynthCold,
    /// A working set analyzed once in set-up, then resubmitted as
    /// variants (permuted task order, unreduced rationals) that all hit
    /// the canonical cache. Isolates parse, hashing, cache reads, render
    /// and the socket; an analysis change should predict no movement.
    HotResubmit,
    /// Chained admit/evict/replace deltas against a resident 256-task
    /// fleet, with a 1000-task partition request per 20 deltas. Exercises
    /// the delta engine, frontier repair and the partitioner with large
    /// payloads, and grows daemon cache memory. Never reaches the
    /// sub-rate walk.
    FleetChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "synth_cold" => Some(Kind::SynthCold),
            "hot_resubmit" => Some(Kind::HotResubmit),
            "fleet_churn" => Some(Kind::FleetChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SynthCold => "synth_cold",
            Kind::HotResubmit => "hot_resubmit",
            Kind::FleetChurn => "fleet_churn",
        }
    }

    /// How many timed-phase requests the traced run replays in-process.
    /// Fixed per workload so the replay does the same work on every
    /// commit; sized to take a few seconds at the parent's speed.
    pub fn replay_len(self) -> usize {
        match self {
            Kind::SynthCold => 240,
            Kind::HotResubmit => 2000,
            Kind::FleetChurn => 420,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A cheap set-up (a
    /// process launch and a few tiny requests) is repeated more often,
    /// because on its own it varies by half between runs.
    pub fn setup_rounds(self) -> usize {
        match self {
            Kind::SynthCold | Kind::FleetChurn => 9,
            Kind::HotResubmit => 3,
        }
    }

    /// Requests each connection keeps in flight. One for the admission
    /// mixes, where a client waits for a verdict before deciding (and the
    /// fleet chain needs each answer's hash). The paper's evaluation
    /// traffic comes from campaign runners that submit whole corpora, so
    /// `synth_cold` keeps 8 in flight: per-request service time there
    /// spans three decades (0.1 ms to the 4M-breakpoint budget), and with
    /// one request outstanding the median latency sat where that spread is
    /// steepest and moved by 90% between seeds. With a window each sample
    /// is the turnaround of a micro-batch of several sets.
    pub fn window(self) -> usize {
        match self {
            Kind::SynthCold => 8,
            Kind::HotResubmit | Kind::FleetChurn => 1,
        }
    }
}

/// Cold requests come from a fixed pool of this many generator seeds, in
/// a seeded order, and every request stays unique within a run. A run
/// at the parent commit consumes about 1000, so which sets it sees
/// hardly moves with the seed: with a fresh random sample per seed, the
/// share of sub-rate sets alone moved `requests_per_s` and
/// `failed_ratio` by ±6% between seeds.
const SYNTH_POOL: u64 = 1200;
/// Generator sets in the hot working set. With the in-repo examples
/// this stays within the daemon's default positive (1024) and negative
/// (256) cache capacities even if every set failed. The sets are the
/// same for every seed (the seed draws the variants): which of them fail
/// decides the share of negative-cache answers, and over 200 random sets
/// that share alone moves `failed_ratio` by about 15% between seeds.
const HOT_WORKING_SET: u64 = 200;
/// Variants of each working-set member per connection.
const HOT_ROUNDS: usize = 2;
/// Tasks in the resident fleet and in each partition request.
const FLEET_BASE: usize = 256;
const FLEET_PARTITION: usize = 1000;
/// One partition request after every this many requests on a connection.
const PARTITION_EVERY: u64 = 21;
/// One stale evict (an already-departed task) every this many requests:
/// the in-band rejection a racing second operator gets.
const STALE_EVERY: u64 = 16;

/// Derives an independent stream seed from the workload seed.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut state = seed ^ a.rotate_left(21) ^ b.rotate_left(42) ^ 0x9E37_79B9_7F4A_7C15;
    rbs_rng::splitmix64(&mut state)
}

/// A workload bound to its seed.
pub struct Workload {
    kind: Kind,
    seed: u64,
    /// `examples/workloads/*.json`, each rendered onto one line.
    examples: Vec<Json>,
    /// The hot working set (generator sets, then the examples).
    hot_set: Vec<Json>,
    /// The resident fleet every delta chain starts from.
    fleet: TaskSet,
}

impl Workload {
    /// Builds the workload, reading the in-repo example sets under
    /// `root`.
    pub fn new(kind: Kind, seed: u64, root: &Path) -> io::Result<Workload> {
        let mut paths: Vec<_> = fs::read_dir(root.join("examples/workloads"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        let mut examples = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let json = rbs_json::parse(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            examples.push(json);
        }
        let mut hot_set = Vec::new();
        let mut fleet = TaskSet::empty();
        match kind {
            Kind::SynthCold => {}
            Kind::HotResubmit => {
                hot_set = (0..HOT_WORKING_SET)
                    .map(|j| rbs_bench::synthetic_set(10, mix(0, 0x407, j)).to_json())
                    .collect();
                hot_set.extend(examples.iter().cloned());
            }
            Kind::FleetChurn => fleet = rbs_bench::fleet_set(FLEET_BASE, mix(seed, 0xF1EE7, 0)),
        }
        Ok(Workload {
            kind,
            seed,
            examples,
            hot_set,
            fleet,
        })
    }

    /// The warm pass: what each connection submits during set-up.
    pub fn warm_lines(&self) -> Vec<Vec<String>> {
        let mut per_conn = vec![Vec::new(); CONNECTIONS];
        match self.kind {
            // Connection and worker warm-up only: the examples are not
            // part of the timed corpus.
            Kind::SynthCold => {
                for lines in &mut per_conn {
                    lines.extend(self.examples.iter().map(Json::render));
                }
            }
            Kind::HotResubmit => {
                for (i, set) in self.hot_set.iter().enumerate() {
                    per_conn[i % CONNECTIONS].push(set.render());
                }
            }
            Kind::FleetChurn => per_conn[0].push(rbs_json::to_string(&self.fleet)),
        }
        per_conn
    }

    /// The timed-phase request stream of one connection. `base_key` is
    /// the hash the daemon answered the fleet's warm analysis with.
    pub fn feeder(&self, conn: usize, base_key: Option<String>) -> Feeder {
        let conn64 = conn as u64;
        match self.kind {
            Kind::SynthCold => {
                let mut order: Vec<u64> = (0..SYNTH_POOL).collect();
                Rng::seed_from_u64(mix(self.seed, 0x5C01D, 0)).shuffle(&mut order);
                Feeder::Synth {
                    order,
                    seed: self.seed,
                    next: conn64,
                }
            }
            Kind::HotResubmit => {
                // Every member equally often, in a seeded order, so the
                // share of negative-cache answers is the working set's.
                let mut rng = Rng::seed_from_u64(mix(self.seed, 0x4E5B, conn64));
                let mut variants = Vec::with_capacity(HOT_ROUNDS * self.hot_set.len());
                for _ in 0..HOT_ROUNDS {
                    let mut order: Vec<usize> = (0..self.hot_set.len()).collect();
                    rng.shuffle(&mut order);
                    variants.extend(
                        order
                            .into_iter()
                            .map(|m| variant(&self.hot_set[m], &mut rng).render()),
                    );
                }
                Feeder::Hot { variants, next: 0 }
            }
            Kind::FleetChurn => Feeder::Fleet(Box::new(FleetChain {
                conn: conn64,
                seed: self.seed,
                rng: Rng::seed_from_u64(mix(self.seed, 0xC4A1, conn64)),
                set: self.fleet.clone(),
                base_key: base_key.unwrap_or_default(),
                sent: 0,
                admitted: 0,
                partitions: 0,
                last_evicted: None,
                last: Last::Partition,
            })),
        }
    }
}

/// A permuted copy of a task array with every rational multiplied out
/// by a random factor: a different request body with the same canonical
/// form.
fn variant(set: &Json, rng: &mut Rng) -> Json {
    let Json::Array(tasks) = set else {
        return set.clone();
    };
    let factor = rng.gen_range_i128(2, 6);
    let mut tasks: Vec<Json> = tasks.iter().map(|t| unreduce(t, factor)).collect();
    rng.shuffle(&mut tasks);
    Json::Array(tasks)
}

fn unreduce(value: &Json, factor: i128) -> Json {
    match value {
        Json::Object(fields) => {
            if let [(n, Json::Int(num)), (d, Json::Int(den))] = fields.as_slice() {
                if n == "num" && d == "den" {
                    return Json::Object(vec![
                        ("num".to_owned(), Json::Int(num * factor)),
                        ("den".to_owned(), Json::Int(den * factor)),
                    ]);
                }
            }
            Json::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), unreduce(v, factor)))
                    .collect(),
            )
        }
        Json::Array(items) => Json::Array(items.iter().map(|v| unreduce(v, factor)).collect()),
        other => other.clone(),
    }
}

/// What one connection sends next.
pub enum Feeder {
    Synth {
        order: Vec<u64>,
        seed: u64,
        next: u64,
    },
    Hot {
        variants: Vec<String>,
        next: usize,
    },
    Fleet(Box<FleetChain>),
}

impl Feeder {
    pub fn next_line(&mut self) -> String {
        match self {
            Feeder::Synth { order, seed, next } => {
                // The connections interleave over one shuffled pool, then
                // continue with fresh sets should a run outgrow it.
                let request_seed = match order.get(*next as usize) {
                    Some(&member) => mix(0, 0x5C01D, member),
                    None => mix(*seed, 0x5C01E, *next),
                };
                *next += CONNECTIONS as u64;
                synth_request(request_seed)
            }
            Feeder::Hot { variants, next } => {
                let line = variants[*next % variants.len()].clone();
                *next += 1;
                line
            }
            Feeder::Fleet(chain) => chain.next_line(),
        }
    }

    /// Feeds the hash of the daemon's answer to the last line back (only
    /// the fleet chain uses it: the next delta's base is that hash).
    pub fn observe(&mut self, hash: Option<&str>) {
        if let Feeder::Fleet(chain) = self {
            chain.observe(hash);
        }
    }

    /// The hash the last line's answer must carry, computed client-side
    /// (`None` when the answer is an error or does not extend the chain).
    pub fn expected_hash(&self) -> Option<String> {
        match self {
            Feeder::Fleet(chain) => chain.expected_hash(),
            _ => None,
        }
    }

    /// The fleet after the last delta line, for the fresh-analysis check.
    pub fn fleet_delta_set(&self) -> Option<&TaskSet> {
        match self {
            Feeder::Fleet(chain) if matches!(chain.last, Last::Delta { applies: true }) => {
                Some(&chain.set)
            }
            _ => None,
        }
    }
}

/// One cold request: a `synthetic_set(10)` task set, or (one time in
/// five) a `synthetic_specs(10)` sweep over the Fig. 6 grid.
fn synth_request(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    if rng.gen_bool(0.2) {
        let specs = rbs_bench::synthetic_specs(10, seed);
        let ys: Vec<Json> = (4..=11).map(|q| Rational::new(q, 4).to_json()).collect();
        let speeds: Vec<Json> = [
            Rational::new(5, 4),
            Rational::new(3, 2),
            Rational::TWO,
            Rational::integer(3),
        ]
        .iter()
        .map(ToJson::to_json)
        .collect();
        let grid = Json::Object(vec![
            (
                "specs".to_owned(),
                Json::Array(specs.iter().map(ToJson::to_json).collect()),
            ),
            ("ys".to_owned(), Json::Array(ys)),
            ("speeds".to_owned(), Json::Array(speeds)),
        ]);
        Json::Object(vec![("sweep".to_owned(), grid)]).render()
    } else {
        rbs_json::to_string(&rbs_bench::synthetic_set(10, seed))
    }
}

#[derive(Debug, Clone, Copy)]
enum Last {
    Delta { applies: bool },
    Partition,
}

/// One connection's delta chain over its own copy of the fleet.
pub struct FleetChain {
    conn: u64,
    seed: u64,
    rng: Rng,
    set: TaskSet,
    base_key: String,
    sent: u64,
    admitted: u64,
    partitions: u64,
    last_evicted: Option<String>,
    last: Last,
}

impl FleetChain {
    fn next_line(&mut self) -> String {
        self.sent += 1;
        if self.sent.is_multiple_of(PARTITION_EVERY) {
            self.last = Last::Partition;
            return self.partition_line();
        }
        if self.sent.is_multiple_of(STALE_EVERY) {
            self.last = Last::Delta { applies: false };
            let gone = self
                .last_evicted
                .clone()
                .unwrap_or_else(|| format!("gone{}", self.conn));
            return self.delta_line(&[Json::Object(vec![("evict".to_owned(), Json::Str(gone))])]);
        }
        let count = if self.rng.gen_bool(0.5) {
            1
        } else {
            self.rng.gen_range_usize(2, 8)
        };
        let ops: Vec<Json> = (0..count).map(|_| self.op()).collect();
        self.last = Last::Delta { applies: true };
        self.delta_line(&ops)
    }

    fn delta_line(&self, ops: &[Json]) -> String {
        let delta = Json::Object(vec![
            ("base".to_owned(), Json::Str(self.base_key.clone())),
            ("ops".to_owned(), Json::Array(ops.to_vec())),
        ]);
        Json::Object(vec![("delta".to_owned(), delta)]).render()
    }

    /// One admit, evict or replace, applied to the client's copy. The
    /// set drifts around its base size: admits dominate below 212 tasks
    /// and evicts above 300.
    fn op(&mut self) -> Json {
        let len = self.set.len();
        let choice = if len < 212 {
            0
        } else if len > 300 {
            1
        } else {
            self.rng.gen_range_usize(0, 2)
        };
        match choice {
            0 => {
                self.admitted += 1;
                let task = fleet_task(&mut self.rng, format!("c{}a{}", self.conn, self.admitted));
                self.set.push(task.clone());
                Json::Object(vec![("admit".to_owned(), task.to_json())])
            }
            1 => {
                let pos = self.rng.gen_range_usize(0, len - 1);
                let gone = self.set.remove(pos);
                self.last_evicted = Some(gone.name().to_owned());
                Json::Object(vec![(
                    "evict".to_owned(),
                    Json::Str(gone.name().to_owned()),
                )])
            }
            _ => {
                let pos = self.rng.gen_range_usize(0, len - 1);
                let id = self
                    .set
                    .get(pos)
                    .map(|t| t.name().to_owned())
                    .unwrap_or_default();
                let task = fleet_task(&mut self.rng, id.clone());
                self.set.replace(pos, task.clone());
                Json::Object(vec![(
                    "replace".to_owned(),
                    Json::Object(vec![
                        ("id".to_owned(), Json::Str(id)),
                        ("task".to_owned(), task.to_json()),
                    ]),
                )])
            }
        }
    }

    /// A fresh 1000-task fleet (new seed, so it misses the cache) onto
    /// 20 cores at cap 2, rotating heuristic and objective.
    fn partition_line(&mut self) -> String {
        let turn = self.partitions;
        self.partitions += 1;
        let tasks = rbs_bench::fleet_set(FLEET_PARTITION, mix(self.seed, 0x9A27 + self.conn, turn));
        let heuristic = ["first_fit", "best_fit", "worst_fit"][(turn % 3) as usize];
        let objective = match (turn / 3) % 3 {
            0 => Json::Str("cap_only".to_owned()),
            1 => Json::Str("min_max_speedup".to_owned()),
            _ => Json::Object(vec![(
                "shared_budget".to_owned(),
                Rational::integer(PARTITION_CAP * PARTITION_CORES as i128).to_json(),
            )]),
        };
        let request = Json::Object(vec![
            ("tasks".to_owned(), tasks.to_json()),
            ("cores".to_owned(), Json::Int(PARTITION_CORES as i128)),
            (
                "max_speedup".to_owned(),
                Rational::integer(PARTITION_CAP).to_json(),
            ),
            ("heuristic".to_owned(), Json::Str(heuristic.to_owned())),
            ("objective".to_owned(), objective),
        ]);
        Json::Object(vec![("partition".to_owned(), request)]).render()
    }

    fn observe(&mut self, hash: Option<&str>) {
        if let (Last::Delta { applies: true }, Some(hash)) = (self.last, hash) {
            hash.clone_into(&mut self.base_key);
        }
    }

    fn expected_hash(&self) -> Option<String> {
        match self.last {
            Last::Delta { applies: true } => Some(CanonicalTaskSet::of(&self.set).to_string()),
            _ => None,
        }
    }
}

/// A task drawn like `rbs_bench::fleet_set`'s: a 128-aligned harmonic
/// period menu, so admits never churn the resident timebase.
fn fleet_task(rng: &mut Rng, name: String) -> Task {
    const PERIOD_MENU: [i128; 10] = [256, 384, 512, 640, 768, 896, 1024, 1280, 1536, 1920];
    let period = Rational::integer(PERIOD_MENU[rng.gen_range_usize(0, PERIOD_MENU.len() - 1)]);
    let wcet = period * Rational::new(rng.gen_range_i128(1, 3), 128);
    if rng.gen_bool(0.4) {
        Task::builder(name, Criticality::Hi)
            .period(period)
            .deadline_lo(period * Rational::new(1, 2))
            .deadline_hi(period)
            .wcet_lo(wcet)
            .wcet_hi(wcet * Rational::TWO)
            .build()
            .expect("fleet HI parameters satisfy eq. (1)")
    } else {
        Task::builder(name, Criticality::Lo)
            .period(period)
            .deadline(period)
            .wcet(wcet)
            .terminated()
            .build()
            .expect("fleet LO parameters satisfy eq. (2)")
    }
}

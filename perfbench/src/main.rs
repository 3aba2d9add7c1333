//! End-to-end request benchmark for `rbs-netd`.
//!
//! One run launches the release daemon as a child process, drives it
//! over loopback from two closed-loop TCP connections for `--seconds`,
//! checks every answer against an in-process `Service::process_batch`
//! over the same corpus, and prints the metrics. With `--trace 1` it also
//! replays the first requests in-process with a span around each layer
//! call and reports per-layer metrics instead. See `perfbench/README.md`.
//!
//! ```text
//! bash perfbench/run.sh --workload synth_cold --seed 1 --seconds 10 --trace 0
//! ```

mod daemon;
mod gate;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use rbs_svc::{Request, Service, ServiceConfig, WorkerPool};

use daemon::{Conn, Daemon, ErrorKind, Exchange, Source, Verdict};
use workload::{Feeder, Kind, Workload, CONNECTIONS};

/// Warm-pass requests in flight per connection.
const WARM_WINDOW: usize = 32;
/// Requests in the cold batch behind `pool.jobs2_speedup`.
const POOL_BATCH: usize = 64;
/// Spans and run summaries go here, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    netd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut netd = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => trace = value == "1",
            "--netd" => netd = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        netd: netd.ok_or("--netd is required")?,
    })
}

/// The warm pass: a fixed list of lines; keeps the first report hash.
struct WarmSource<'a> {
    lines: std::slice::Iter<'a, String>,
    first_hash: Option<String>,
}

impl Source for WarmSource<'_> {
    fn next_line(&mut self) -> Option<String> {
        self.lines.next().cloned()
    }

    fn observe(&mut self, hash: Option<&str>) {
        if self.first_hash.is_none() {
            self.first_hash = hash.map(str::to_owned);
        }
    }
}

/// The timed phase: the workload's stream until the deadline.
struct TimedSource {
    feeder: Feeder,
    deadline: Instant,
}

impl Source for TimedSource {
    fn next_line(&mut self) -> Option<String> {
        (Instant::now() < self.deadline).then(|| self.feeder.next_line())
    }

    fn observe(&mut self, hash: Option<&str>) {
        self.feeder.observe(hash);
    }
}

/// A daemon after set-up: connected, warm.
struct Session {
    daemon: Daemon,
    conns: Vec<Conn>,
    warm: Vec<Vec<Exchange>>,
    base_key: Option<String>,
}

/// Launches the daemon, connects and runs the warm pass.
fn set_up(workload: &Workload, netd: &std::path::Path) -> io::Result<(Session, f64)> {
    let start = Instant::now();
    let daemon = Daemon::launch(netd)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<io::Result<Vec<_>>>()?;
    let lines = workload.warm_lines();
    let results: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&lines)
            .enumerate()
            .map(|(i, (conn, lines))| {
                scope.spawn(move || {
                    let mut source = WarmSource {
                        lines: lines.iter(),
                        first_hash: None,
                    };
                    let exchanges = conn.drive(i, WARM_WINDOW, start, &mut source)?;
                    Ok::<_, io::Error>((exchanges, source.first_hash))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-pass thread panicked"))
            .collect()
    });
    let mut warm = Vec::with_capacity(CONNECTIONS);
    let mut base_key = None;
    for result in results {
        let (exchanges, first_hash) = result?;
        base_key = base_key.or(first_hash);
        warm.push(exchanges);
    }
    let elapsed = start.elapsed().as_secs_f64();
    Ok((
        Session {
            daemon,
            conns,
            warm,
            base_key,
        },
        elapsed,
    ))
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The value of `key=` in the daemon's footer line.
fn footer_value(footer: &str, key: &str) -> Option<u64> {
    let at = footer.find(&format!("{key}="))? + key.len() + 1;
    let digits: String = footer[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Compares the footer's counters with the client's own; returns the
/// mismatches.
fn cross_check_footer(footer: &str, exchanges: &[&Exchange]) -> Vec<String> {
    let mut expected: Vec<(String, u64)> = Vec::new();
    let count =
        |f: &dyn Fn(&Verdict) -> bool| exchanges.iter().filter(|e| f(&e.verdict)).count() as u64;
    expected.push(("served".to_owned(), exchanges.len() as u64));
    expected.push((
        "ok".to_owned(),
        count(&|v| matches!(v, Verdict::Report { .. })),
    ));
    expected.push((
        "total".to_owned(),
        count(&|v| matches!(v, Verdict::Error { .. })),
    ));
    for kind in ErrorKind::ALL
        .into_iter()
        .filter(|k| *k != ErrorKind::Other)
    {
        expected.push((
            kind.name().to_owned(),
            count(&|v| matches!(v, Verdict::Error { kind: k, .. } if *k == kind)),
        ));
    }
    expected.push((
        "hits".to_owned(),
        count(&|v| matches!(v, Verdict::Report { cached: true })),
    ));
    expected.push((
        "negative".to_owned(),
        count(&|v| matches!(v, Verdict::Error { cached: true, .. })),
    ));
    expected
        .into_iter()
        .filter_map(|(key, want)| {
            let got = footer_value(footer, &key);
            (got != Some(want)).then(|| format!("footer {key}={got:?}, client counted {want}"))
        })
        .collect()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

fn run(args: &Args) -> io::Result<(bool, u64, u64, Vec<Metric>)> {
    let workload = Workload::new(args.kind, args.seed, &std::env::current_dir()?)?;
    let tag = format!("{}-{}", args.kind.name(), args.seed);

    let rounds = args.kind.setup_rounds();
    let mut setup_times = Vec::with_capacity(rounds);
    let mut session = None;
    for round in 0..rounds {
        let (fresh, elapsed) = set_up(&workload, &args.netd)?;
        setup_times.push(elapsed);
        if round + 1 == rounds {
            session = Some(fresh);
        } else {
            drop(fresh.conns);
            fresh.daemon.drain()?;
        }
    }
    let Session {
        daemon,
        mut conns,
        warm,
        base_key,
    } = session.expect("at least one set-up round");

    // The timed phase: every connection a closed loop with a fixed number
    // of requests outstanding.
    let cpu_before = daemon.cpu_ms()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let per_conn: Vec<io::Result<Vec<Exchange>>> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let mut source = TimedSource {
                    feeder: workload.feeder(i, base_key.clone()),
                    deadline,
                };
                let window = args.kind.window();
                scope.spawn(move || conn.drive(i, window, start, &mut source))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut timed = Vec::new();
    for exchanges in per_conn {
        timed.extend(exchanges?);
    }
    timed.sort_by_key(|e| e.sent);
    let elapsed = timed
        .iter()
        .map(|e| e.sent + e.latency)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let cpu_ms = daemon.cpu_ms()? - cpu_before;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let seq_errors: u64 = conns.iter().map(|c| c.seq_errors).sum();
    drop(conns);
    let footer = daemon.drain()?;

    let n = timed.len();
    let mut latencies: Vec<f64> = timed
        .iter()
        .map(|e| e.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let errors = timed
        .iter()
        .filter(|e| matches!(e.verdict, Verdict::Error { .. }))
        .count();
    let client_p50 = percentile(&latencies, 50.0);

    let mut problems = Vec::new();
    if n == 0 {
        problems.push("no request completed in the timed phase".to_owned());
    }
    if seq_errors > 0 {
        problems.push(format!("{seq_errors} responses out of seq order"));
    }
    let all: Vec<&Exchange> = warm.iter().flatten().chain(&timed).collect();
    problems.extend(cross_check_footer(&footer, &all));
    let footer_p50_ms = footer_value(&footer, "p50").map_or(f64::NAN, |us| us as f64 / 1e3);
    eprintln!(
        "perfbench: {tag}: {n} timed requests ({} beyond p99) over {elapsed:.2} s; client p50 {client_p50:.3} ms vs daemon footer p50 {footer_p50_ms:.3} ms",
        n - (n as f64 * 0.99).ceil() as usize
    );
    eprintln!("perfbench: footer: {footer}");
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", percentile(&latencies, f64::from(d) * 10.0)))
        .collect();
    eprintln!(
        "perfbench: client latency deciles (ms): {}",
        deciles.join(" ")
    );

    let prefix_len = if args.trace {
        args.kind.replay_len().min(n)
    } else {
        0
    };
    let gate_start = Instant::now();
    let gate = gate::run(&workload, &warm, &timed, prefix_len);
    eprintln!(
        "perfbench: gate: {} reports checked, {} delta reports against fresh analyses, {:.1} s",
        gate.reports_checked,
        gate.deltas_checked,
        gate_start.elapsed().as_secs_f64()
    );
    let failed = seq_errors + gate.failed_requests;
    problems.extend(gate.failures.iter().cloned());

    let metrics = if args.trace {
        per_layer(args, &gate, &timed[..prefix_len], &tag, &mut problems)?
    } else {
        vec![
            metric("setup_s", median(&setup_times), "s"),
            metric("requests_per_s", n as f64 / elapsed, "1/s"),
            metric("latency_p50_ms", client_p50, "ms"),
            metric("latency_p99_ms", percentile(&latencies, 99.0), "ms"),
            metric("failed_ratio", errors as f64 / n.max(1) as f64, "ratio"),
            metric("server_peak_rss_mb", peak_rss_mb, "MiB"),
            metric("server_cpu_ms_per_req", cpu_ms / n.max(1) as f64, "ms"),
        ]
    };
    for problem in &problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    // The daemon's footer only sees service time; keep its p50 on file
    // beside the client's so the waiting it cannot see stays visible.
    let summary = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"timed_requests\":{n},\"beyond_p99\":{},\"setup_rounds_s\":{:?},\"client_latency_p50_ms\":{client_p50},\"footer_latency_p50_ms\":{footer_p50_ms},\"reports_checked\":{},\"delta_reports_checked\":{},\"failed_checks\":{},\"footer\":{}}}\n",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        n - (n as f64 * 0.99).ceil() as usize,
        setup_times,
        gate.reports_checked,
        gate.deltas_checked,
        problems.len(),
        rbs_json::Json::Str(footer.clone()).render(),
    );
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        format!("{OUT_DIR}/run-{tag}-trace{}.json", u8::from(args.trace)),
        summary,
    )?;
    Ok((problems.is_empty(), n as u64, failed, metrics))
}

/// Median over the requests that made at least one span named `name`
/// of the per-request total time in it, in microseconds.
fn span_median_us(spans: &[trace::Span], name: &str) -> f64 {
    let mut per_request: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *per_request.entry(span.request).or_default() += span.duration_ns();
    }
    let values: Vec<f64> = per_request.values().map(|&ns| ns as f64 / 1e3).collect();
    median(&values)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced replay and the per-layer metrics.
fn per_layer(
    args: &Args,
    gate: &gate::Gate,
    timed: &[Exchange],
    tag: &str,
    problems: &mut Vec<String>,
) -> io::Result<Vec<Metric>> {
    let prefix = &gate.prefix;
    let mut mirror = trace::Mirror::new();
    for (line, response) in &gate.warm {
        mirror.prime(line, response);
    }
    let mut tracer = trace::Tracer::new();
    for (seq, line) in prefix.lines.iter().enumerate() {
        let rendered = mirror.serve(&mut tracer, seq, line);
        let (_, digest, _) = daemon::classify(&rendered);
        if digest != prefix.payload_digests[seq] {
            problems.push(format!(
                "traced replay of request {seq} differs from Service"
            ));
        }
    }
    let spans_path = PathBuf::from(format!("{OUT_DIR}/spans-{tag}.jsonl"));
    tracer.write(&spans_path)?;
    let spans = tracer.spans();

    // Self time by span name, for the file and the log.
    let mut own: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(tracer.self_ns()) {
        let entry = own.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
    }
    for (name, (count, self_ns)) in &own {
        eprintln!(
            "perfbench: span {name:<22} calls {count:>7}  self {:>12.1} us total",
            *self_ns as f64 / 1e3
        );
    }
    eprintln!("perfbench: spans written to {}", spans_path.display());

    // The cold batch for pool scaling: the first timed requests on
    // fresh services (the fleet's chains need their base, so the warm
    // line leads).
    let mut cold: Vec<Request> = Vec::new();
    if args.kind == Kind::FleetChurn {
        cold.extend(
            gate.warm
                .iter()
                .map(|(line, _)| line.clone())
                .map(|body| Request {
                    label: "bench:warm".to_owned(),
                    body,
                }),
        );
    }
    cold.extend(prefix.lines.iter().take(POOL_BATCH).map(|body| Request {
        label: "bench:cold".to_owned(),
        body: body.clone(),
    }));
    let time_batch = |jobs: usize| {
        let service = Service::with_config(WorkerPool::new(jobs), ServiceConfig::default());
        let start = Instant::now();
        let _ = service.process_batch(&cold);
        start.elapsed().as_secs_f64()
    };
    let pool_speedup = time_batch(1) / time_batch(2);

    let roots: Vec<f64> = {
        let mut per_request = vec![0u64; prefix.lines.len()];
        for span in spans.iter().filter(|s| s.name == "svc.request") {
            per_request[span.request as usize] += span.duration_ns();
        }
        per_request.iter().map(|&ns| ns as f64 / 1e3).collect()
    };
    let untraced_total: f64 = prefix.process_batch_us.iter().sum();
    let waits: Vec<f64> = {
        let mut waits: Vec<f64> = timed
            .iter()
            .zip(&prefix.process_batch_us)
            .map(|(e, us)| e.latency.as_secs_f64() * 1e6 - us)
            .collect();
        waits.sort_by(f64::total_cmp);
        waits
    };
    let c = mirror.counters;
    let stats = &prefix.stats;
    let us = |name: &str| span_median_us(spans, name);
    Ok(vec![
        metric("json.parse_us", us("json.parse"), "us"),
        metric("json.render_us", us("json.render"), "us"),
        metric("json.bytes_in", c.bytes_in as f64, "bytes"),
        metric("json.bytes_out", c.bytes_out as f64, "bytes"),
        metric("model.decode_us", us("model.decode"), "us"),
        metric("model.canonical_us", us("model.canonical"), "us"),
        metric(
            "svc.process_batch_us",
            median(&prefix.process_batch_us),
            "us",
        ),
        metric("svc.response_render_us", us("svc.response_render"), "us"),
        metric(
            "svc.cache_hit_ratio",
            ratio(
                (stats.cache_hits + stats.negative_hits) as u64,
                stats.served as u64,
            ),
            "ratio",
        ),
        metric("core.profile_build_us", us("core.profile_build"), "us"),
        metric("core.prime_lockstep_us", us("core.prime_lockstep"), "us"),
        metric("core.lo_check_us", us("core.lo_check"), "us"),
        metric("core.lo_requirement_us", us("core.lo_requirement"), "us"),
        metric("core.s_min_us", us("core.s_min"), "us"),
        metric("core.reset_row_us", us("core.reset_row"), "us"),
        metric("core.budget_sizing_us", us("core.budget_sizing"), "us"),
        metric(
            "core.lo_requirement.limits",
            c.lo_requirement_limits as f64,
            "count",
        ),
        metric("core.reset_row.limits", c.reset_row_limits as f64, "count"),
        metric("core.walks.integer", c.walks.integer as f64, "count"),
        metric("core.walks.exact", c.walks.exact as f64, "count"),
        metric("core.walks.pruned", c.walks.pruned as f64, "count"),
        metric("core.walks.avoided", c.walks.avoided as f64, "count"),
        metric("core.walks.lockstep", c.walks.lockstep as f64, "count"),
        metric("sweep.run_us", us("sweep.run"), "us"),
        metric(
            "sweep.reuse_ratio",
            ratio(c.sweep_reused, c.sweep_reused + c.sweep_rebuilt),
            "ratio",
        ),
        metric("delta.build_us", us("delta.build"), "us"),
        metric("delta.apply_us", us("delta.apply"), "us"),
        metric("delta.query_us", us("delta.query"), "us"),
        metric(
            "delta.frontier_kept_ratio",
            ratio(c.delta_kept, c.delta_kept + c.delta_rewalked),
            "ratio",
        ),
        metric("partition.run_us", us("partition.run"), "us"),
        metric("partition.probes", c.partition_probes as f64, "count"),
        metric(
            "partition.screened_ratio",
            ratio(
                c.partition_screened,
                c.partition_screened + c.partition_probes,
            ),
            "ratio",
        ),
        metric("pool.jobs2_speedup", pool_speedup, "ratio"),
        metric("net.wait_us", percentile(&waits, 50.0), "us"),
        metric("net.wait_p99_us", percentile(&waits, 99.0), "us"),
        metric("trace.replay_us", median(&roots), "us"),
        metric(
            "trace.overhead_ratio",
            if untraced_total > 0.0 {
                roots.iter().sum::<f64>() / untraced_total
            } else {
                0.0
            },
            "ratio",
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics) = match run(&args) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("perfbench: run failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        fields.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! End-to-end tests driving the `rbs-svc` binary: batch-mode exit
//! behavior for poison-pill input, and the incremental `--follow`
//! protocol (per-line flushing, stream resynchronization after an
//! oversized line, graceful drain with a final footer).

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rbs-svc"))
}

fn good_line(period: i128) -> String {
    format!(
        "[{{\"name\":\"w\",\"criticality\":\"Lo\",\
         \"lo\":{{\"period\":{{\"num\":{period},\"den\":1}},\
         \"deadline\":{{\"num\":{period},\"den\":1}},\
         \"wcet\":{{\"num\":1,\"den\":1}}}},\
         \"hi\":{{\"Continue\":{{\"period\":{{\"num\":{period},\"den\":1}},\
         \"deadline\":{{\"num\":{period},\"den\":1}},\
         \"wcet\":{{\"num\":1,\"den\":1}}}}}}}}]"
    )
}

fn panic_line() -> String {
    good_line(7).replace("\"name\":\"w\"", "\"name\":\"__rbs_fault_panic__\"")
}

fn sleep_line() -> String {
    good_line(11).replace("\"name\":\"w\"", "\"name\":\"__rbs_fault_sleep_ms_50__\"")
}

#[test]
fn batch_mode_classifies_poison_pills_and_exits_nonzero() {
    let stdin_payload = format!(
        "{}\nnot json at all\n{}\n{}\n{}\n{}\n",
        good_line(5),
        panic_line(),
        sleep_line(),
        "z".repeat(8192),
        good_line(9),
    );
    let mut child = binary()
        .args([
            "-",
            "--jobs",
            "4",
            "--fault-injection",
            "--timeout-ms",
            "5",
            "--max-request-bytes",
            "4096",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin_payload.as_bytes())
        .expect("writes");
    let output = child.wait_with_output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "poison-pill batch must exit non-zero\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request:\n{stdout}");
    // Every poison pill is classified; every good request is served.
    assert!(lines[0].contains("\"report\":"), "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"parse\""), "{}", lines[1]);
    assert!(lines[2].contains("\"kind\":\"panic\""), "{}", lines[2]);
    assert!(lines[3].contains("\"kind\":\"timeout\""), "{}", lines[3]);
    assert!(lines[4].contains("\"kind\":\"oversized\""), "{}", lines[4]);
    assert!(lines[5].contains("\"report\":"), "{}", lines[5]);
    // Submission order is preserved.
    for (seq, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{seq},")), "{line}");
    }
    // The footer reports the taxonomy.
    assert!(
        stderr
            .contains("errors{total=4 parse=1 limits=0 timeout=1 panic=1 oversized=1 overload=0}"),
        "{stderr}"
    );
}

struct Follow {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Follow {
    fn spawn(extra_args: &[&str]) -> Follow {
        let mut child = binary()
            .args(["--follow", "--jobs", "2"])
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Follow {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and reads exactly one response line — this
    /// deadlocks unless the daemon flushes per line, so it doubles as the
    /// flushing test.
    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("request writes");
        self.stdin.flush().expect("request flushes");
        let mut response = String::new();
        let n = self
            .stdout
            .read_line(&mut response)
            .expect("response reads");
        assert!(n > 0, "daemon closed stdout unexpectedly");
        response
    }

    /// Closes stdin (graceful drain) and returns (exit-success, stderr).
    fn drain(mut self) -> (bool, String) {
        drop(self.stdin);
        let status = self.child.wait().expect("daemon exits");
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("stderr reads");
        (status.success(), stderr)
    }
}

#[test]
fn follow_mode_answers_each_line_as_it_arrives() {
    let mut daemon = Follow::spawn(&[]);
    let first = daemon.roundtrip(&good_line(5));
    assert!(first.contains("\"report\":"), "{first}");
    assert!(first.starts_with("{\"seq\":0,"), "{first}");
    // A resubmission is served from the cache, still incrementally.
    let second = daemon.roundtrip(&good_line(5));
    assert!(second.contains("\"cached\":true"), "{second}");
    assert!(second.starts_with("{\"seq\":1,"), "{second}");
    let third = daemon.roundtrip("garbage");
    assert!(third.contains("\"kind\":\"parse\""), "{third}");
    let (success, stderr) = daemon.drain();
    assert!(success, "clean drain must exit zero:\n{stderr}");
    assert!(stderr.contains("served=3"), "{stderr}");
    assert!(stderr.contains("cache{hits=1"), "{stderr}");
}

#[test]
fn follow_mode_survives_poison_pills_and_oversized_lines() {
    let mut daemon = Follow::spawn(&[
        "--fault-injection",
        "--timeout-ms",
        "5",
        "--max-request-bytes",
        "2048",
    ]);
    let panic_response = daemon.roundtrip(&panic_line());
    assert!(
        panic_response.contains("\"kind\":\"panic\""),
        "{panic_response}"
    );
    // A line far beyond the cap is truncated on the wire, rejected as
    // oversized, and the stream stays synchronized for the next request.
    let oversized = daemon.roundtrip(&"q".repeat(100_000));
    assert!(oversized.contains("\"kind\":\"oversized\""), "{oversized}");
    let timeout = daemon.roundtrip(&sleep_line());
    assert!(timeout.contains("\"kind\":\"timeout\""), "{timeout}");
    let healthy = daemon.roundtrip(&good_line(9));
    assert!(healthy.contains("\"report\":"), "{healthy}");
    let (success, stderr) = daemon.drain();
    assert!(
        success,
        "in-band failures must not fail the daemon:\n{stderr}"
    );
    assert!(
        stderr
            .contains("errors{total=3 parse=0 limits=0 timeout=1 panic=1 oversized=1 overload=0}"),
        "{stderr}"
    );
}

#[test]
fn truncated_line_cut_at_a_cr_never_leaks_its_prefix() {
    // The wire cap is exactly the length of a valid request, and the
    // poison line is that request plus a `\r` plus junk: the framer
    // keeps cap + 1 bytes, ending in the coincidental `\r`. Stripping
    // it as a CRLF terminator would hand the valid prefix to the
    // service, which would serve a report for a request the client
    // never finished sending.
    let valid = good_line(5);
    let cap = valid.len().to_string();
    let mut daemon = Follow::spawn(&["--max-request-bytes", &cap]);
    let smuggled = format!("{valid}\r{}", "x".repeat(4096));
    let response = daemon.roundtrip(&smuggled);
    assert!(response.contains("\"kind\":\"oversized\""), "{response}");
    // The stream stays synchronized, and the same bytes sent as a whole
    // line still fit the cap.
    let healthy = daemon.roundtrip(&valid);
    assert!(healthy.contains("\"report\":"), "{healthy}");
    let (success, stderr) = daemon.drain();
    assert!(
        success,
        "in-band oversized must not fail the daemon:\n{stderr}"
    );
    assert!(stderr.contains("oversized=1"), "{stderr}");
}

#[test]
fn follow_mode_emits_periodic_footers() {
    let mut daemon = Follow::spawn(&["--stats-every", "1"]);
    let _ = daemon.roundtrip(&good_line(5));
    let _ = daemon.roundtrip(&good_line(9));
    let (success, stderr) = daemon.drain();
    assert!(success, "{stderr}");
    // One footer per request plus the final drain footer.
    let footers = stderr
        .lines()
        .filter(|l| l.starts_with("rbs-svc: served="))
        .count();
    assert_eq!(footers, 3, "{stderr}");
}

/// Every walk counter the service reports, in wire order: the response
/// `"walks"` object and the footer `walks{}` block must both list
/// exactly these.
const WALK_NAMES: [&str; 11] = [
    "integer", "exact", "pruned", "avoided", "reused", "rebuilt", "lockstep", "patched",
    "repaired", "kept", "rewalked",
];

/// Extracts the counters of a footer's `walks{integer=.. exact=.. ..}`
/// block in [`WALK_NAMES`] order, asserting the block lists exactly
/// those names in that order.
fn parse_walks(footer: &str) -> [u64; 11] {
    let start = footer.find("walks{").expect("footer has a walks block") + "walks{".len();
    let body = &footer[start..];
    let body = &body[..body.find('}').expect("walks block closes")];
    let fields: Vec<(&str, &str)> = body
        .split(' ')
        .map(|part| part.split_once('=').expect("footer counter is name=value"))
        .collect();
    let names: Vec<&str> = fields.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, WALK_NAMES, "footer walks block: {footer}");
    let mut counters = [0u64; 11];
    for (slot, (_, value)) in counters.iter_mut().zip(fields) {
        *slot = value.parse().expect("counter parses");
    }
    counters
}

/// The counter names of a response line's `"walks"` object, in order.
fn response_walk_names(response: &str) -> Vec<String> {
    let start = response
        .find("\"walks\":{")
        .expect("response has a walks object")
        + "\"walks\":{".len();
    let body = &response[start..];
    body[..body.find('}').expect("walks object closes")]
        .split(',')
        .map(|field| {
            let (name, value) = field.split_once(':').expect("walks field is name:value");
            value.parse::<u64>().expect("walks value parses");
            name.trim_matches('"').to_owned()
        })
        .collect()
}

#[test]
fn walk_counters_appear_per_response_and_grow_monotonically() {
    let mut daemon = Follow::spawn(&["--stats-every", "1"]);
    let first = daemon.roundtrip(&good_line(5));
    // Fresh reports carry the full per-analysis walk accounting,
    // including the pruning observability counters.
    assert_eq!(response_walk_names(&first), WALK_NAMES, "{first}");
    let _ = daemon.roundtrip(&good_line(9));
    let _ = daemon.roundtrip(&good_line(13));
    let (success, stderr) = daemon.drain();
    assert!(success, "{stderr}");
    let footers: Vec<[u64; 11]> = stderr
        .lines()
        .filter(|line| line.starts_with("rbs-svc: served="))
        .map(parse_walks)
        .collect();
    assert!(
        footers.len() >= 3,
        "periodic + drain footers expected: {stderr}"
    );
    // The footer aggregates are cumulative, so every counter must be
    // non-decreasing across consecutive footers.
    for pair in footers.windows(2) {
        for (slot, (earlier, later)) in pair[0].iter().zip(pair[1].iter()).enumerate() {
            assert!(
                earlier <= later,
                "walk counter {slot} regressed across footers: {stderr}"
            );
        }
    }
    let last = footers.last().expect("at least one footer");
    assert!(
        last[0] + last[1] > 0,
        "three analyses must execute at least one walk: {stderr}"
    );
}

/// The Table I set as a sweep request over `ys` with a single `s = 2`
/// probe speed.
fn sweep_line(ys: &[i128]) -> String {
    let ys_json = ys
        .iter()
        .map(|y| format!("{{\"num\":{y},\"den\":1}}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"sweep\":{{\"specs\":[\
         {{\"name\":\"tau1\",\"criticality\":\"Hi\",\"period\":{{\"num\":5,\"den\":1}},\
         \"wcet_lo\":{{\"num\":1,\"den\":1}},\"wcet_hi\":{{\"num\":2,\"den\":1}}}},\
         {{\"name\":\"tau2\",\"criticality\":\"Lo\",\"period\":{{\"num\":10,\"den\":1}},\
         \"wcet_lo\":{{\"num\":3,\"den\":1}},\"wcet_hi\":{{\"num\":3,\"den\":1}}}}],\
         \"ys\":[{ys_json}],\
         \"speeds\":[{{\"num\":2,\"den\":1}}]}}}}"
    )
}

#[test]
fn sweep_requests_answer_the_full_grid_and_reuse_components() {
    let mut daemon = Follow::spawn(&["--stats-every", "1"]);
    let first = daemon.roundtrip(&sweep_line(&[1, 2, 3]));
    // One response carries the whole (y, s) grid plus the component-reuse
    // accounting of the incremental engine.
    for needle in [
        "\"points\":",
        "\"s_min\":",
        "\"resetting\":",
        "\"reused\":",
        "\"rebuilt\":",
    ] {
        assert!(
            first.contains(needle),
            "sweep response needs {needle}: {first}"
        );
    }
    // Three grid points on a two-task set: components were reused, not
    // rebuilt from scratch per point.
    let reused = first
        .split("\"reused\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("reused counter parses");
    assert!(reused > 0, "sweep must reuse components: {first}");
    // Resubmission hits the positive cache under the sweep canonical form.
    let second = daemon.roundtrip(&sweep_line(&[1, 2, 3]));
    assert!(second.contains("\"cached\":true"), "{second}");
    // A different grid is a different cache entry.
    let third = daemon.roundtrip(&sweep_line(&[1, 2]));
    assert!(third.contains("\"cached\":false"), "{third}");
    // Malformed grids are classified as parse errors.
    let bad = daemon.roundtrip("{\"sweep\":{\"ys\":[]}}");
    assert!(bad.contains("\"kind\":\"parse\""), "{bad}");
    assert!(bad.contains("invalid sweep request"), "{bad}");
    let (success, stderr) = daemon.drain();
    assert!(success, "{stderr}");
    let last = *stderr
        .lines()
        .filter(|line| line.starts_with("rbs-svc: served="))
        .map(parse_walks)
        .collect::<Vec<_>>()
        .last()
        .expect("drain footer present");
    assert!(last[4] > 0, "footer must aggregate reused: {stderr}");
    assert!(last[5] > 0, "footer must aggregate rebuilt: {stderr}");
    assert!(stderr.contains("cache{hits=1"), "{stderr}");
}

/// A HI-terminated admittee for delta requests.
fn admit_task_json() -> String {
    "{\"name\":\"x\",\"criticality\":\"Lo\",\
     \"lo\":{\"period\":{\"num\":4,\"den\":1},\
     \"deadline\":{\"num\":4,\"den\":1},\
     \"wcet\":{\"num\":1,\"den\":1}},\
     \"hi\":\"Terminated\"}"
        .to_owned()
}

/// Extracts the `"hash":"..."` field of a response line.
fn extract_hash(response: &str) -> String {
    response
        .split("\"hash\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("response carries a hash")
        .to_owned()
}

#[test]
fn delta_requests_resolve_bases_and_share_the_report_cache() {
    let mut daemon = Follow::spawn(&[]);
    // Analyzing a set registers it as a delta base under its hash.
    let base = daemon.roundtrip(&good_line(5));
    let base_hash = extract_hash(&base);
    // Admit one task against the resident base by key. The splice stays
    // on the integer fast path: exactly one profile patched in place.
    let admit = format!(
        "{{\"delta\":{{\"base\":\"{base_hash}\",\"ops\":[{{\"admit\":{}}}]}}}}",
        admit_task_json()
    );
    let grown = daemon.roundtrip(&admit);
    assert!(grown.contains("\"report\":"), "{grown}");
    assert!(grown.contains("\"cached\":false"), "{grown}");
    assert!(grown.contains("\"patched\":1"), "{grown}");
    let grown_hash = extract_hash(&grown);
    assert_ne!(grown_hash, base_hash);
    // The same delta again is a cache hit under the resulting set's
    // canonical form.
    let again = daemon.roundtrip(&admit);
    assert!(again.contains("\"cached\":true"), "{again}");
    // Evicting the admittee from the grown set lands back on the base
    // set's cache entry — delta responses chain by hash, and delta and
    // analyze requests share the cache.
    let evict =
        format!("{{\"delta\":{{\"base\":\"{grown_hash}\",\"ops\":[{{\"evict\":\"x\"}}]}}}}");
    let shrunk = daemon.roundtrip(&evict);
    assert!(shrunk.contains("\"cached\":true"), "{shrunk}");
    assert_eq!(extract_hash(&shrunk), base_hash);
    // An inline base works without prior registration.
    let inline = format!(
        "{{\"delta\":{{\"base\":{},\"ops\":[{{\"admit\":{}}}]}}}}",
        good_line(7),
        admit_task_json()
    );
    let inline_response = daemon.roundtrip(&inline);
    assert!(inline_response.contains("\"report\":"), "{inline_response}");
    // Request-level rejections are parse-class: unknown base keys and
    // ops naming unknown tasks never reach a worker.
    let unknown_key =
        daemon.roundtrip("{\"delta\":{\"base\":\"feedfeed\",\"ops\":[{\"evict\":\"x\"}]}}");
    assert!(unknown_key.contains("\"kind\":\"parse\""), "{unknown_key}");
    assert!(
        unknown_key.contains("unknown delta base key"),
        "{unknown_key}"
    );
    let unknown_task = daemon.roundtrip(&format!(
        "{{\"delta\":{{\"base\":\"{base_hash}\",\"ops\":[{{\"evict\":\"ghost\"}}]}}}}"
    ));
    assert!(
        unknown_task.contains("\"kind\":\"parse\""),
        "{unknown_task}"
    );
    assert!(unknown_task.contains("delta op rejected"), "{unknown_task}");
    let (success, stderr) = daemon.drain();
    assert!(success, "{stderr}");
    assert!(stderr.contains("patched="), "{stderr}");
}

#[test]
fn help_exits_zero_and_documents_the_protocol() {
    let output = binary().arg("--help").output().expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in [
        "--follow",
        "--timeout-ms",
        "--max-request-bytes",
        "oversized",
    ] {
        assert!(stdout.contains(needle), "usage must mention {needle}");
    }
}

//! End-to-end tests of the `cyclops` command-line tool, driving the real
//! binary through generate → analyze → output-file round trips.

use std::process::Command;

fn cyclops(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cyclops"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cyclops-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = cyclops(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage: cyclops"));
    assert!(stdout.contains("pagerank"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = cyclops(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn pagerank_on_dataset_prints_ranks() {
    let (ok, stdout, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "GWeb",
        "--scale",
        "0.03",
        "--top",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("pagerank:"), "{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("  ")).count(), 3);
}

#[test]
fn gen_then_analyze_round_trip() {
    let graph_file = temp_path("gweb.txt");
    let (ok, stdout, stderr) = cyclops(&[
        "gen",
        "--dataset",
        "GWeb",
        "--scale",
        "0.03",
        "--output",
        graph_file.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote"));

    let (ok, stdout, stderr) = cyclops(&["info", "--input", graph_file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("vertices:"));

    let out_file = temp_path("ranks.txt");
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--input",
        graph_file.to_str().unwrap(),
        "--engine",
        "hama",
        "--output",
        out_file.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    let ranks = std::fs::read_to_string(&out_file).unwrap();
    assert!(ranks.lines().count() > 100);
    // Every line is "vertex value".
    for line in ranks.lines().take(5) {
        let mut parts = line.split_whitespace();
        parts.next().unwrap().parse::<u32>().unwrap();
        parts.next().unwrap().parse::<f64>().unwrap();
    }
}

#[test]
fn sssp_and_bfs_run_on_road() {
    let (ok, stdout, stderr) = cyclops(&[
        "sssp",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--source",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("sssp from 3"));

    let (ok, stdout, _) = cyclops(&[
        "bfs",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--partitioner",
        "metis",
    ]);
    assert!(ok);
    assert!(stdout.contains("bfs from 0"));
}

#[test]
fn cc_cd_triangles_summaries() {
    let (ok, stdout, _) = cyclops(&["cc", "--dataset", "DBLP", "--scale", "0.05"]);
    assert!(ok);
    assert!(stdout.contains("components"));

    let (ok, stdout, _) = cyclops(&[
        "cd",
        "--dataset",
        "DBLP",
        "--scale",
        "0.05",
        "--sweeps",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.contains("communities"));

    let (ok, stdout, _) = cyclops(&["triangles", "--dataset", "DBLP", "--scale", "0.05"]);
    assert!(ok);
    assert!(stdout.contains("triangles:"));
}

#[test]
fn out_of_range_source_is_rejected() {
    let (ok, _, stderr) = cyclops(&[
        "sssp",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--source",
        "99999999",
    ]);
    assert!(!ok);
    assert!(stderr.contains("out of range"));
}

/// One edge naming the largest u32 id implies ~4 billion vertices. The
/// loader must reject it with a parse error naming the line, quickly,
/// instead of aborting while allocating per-vertex arrays for them.
#[test]
fn huge_vertex_id_fails_fast_with_a_parse_error() {
    let input = temp_path("huge-id.txt");
    std::fs::write(&input, "0 4294967295\n").unwrap();
    let start = std::time::Instant::now();
    let (ok, _, stderr) = cyclops(&["pagerank", "--input", input.to_str().unwrap()]);
    let elapsed = start.elapsed();
    assert!(!ok, "huge id accepted");
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "took {elapsed:?}"
    );
}

#[test]
fn why_slow_json_matches_the_golden_report() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/why_slow.jsonl");
    let golden = include_str!("golden/why_slow.json");
    let (ok, stdout, stderr) = cyclops(&["why-slow", fixture, "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout, golden,
        "why-slow --json drifted from tests/golden/why_slow.json; \
         if the change is intentional, regenerate the golden file"
    );
    // Byte-identical on a second run: the report is a pure function of
    // the trace.
    let (_, again, _) = cyclops(&["why-slow", fixture, "--json"]);
    assert_eq!(stdout, again);
}

#[test]
fn why_slow_report_names_straggler_and_hot_vertices() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/why_slow.jsonl");
    let (ok, stdout, stderr) = cyclops(&["why-slow", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("worker 0 CMP"), "{stdout}");
    assert!(stdout.contains("critical path 1100ns"), "{stdout}");
    assert!(stdout.contains("hot vertices"), "{stdout}");

    let (ok, _, stderr) = cyclops(&["why-slow"]);
    assert!(!ok);
    assert!(stderr.contains("why-slow needs one trace file"), "{stderr}");

    // --hot without a trace sink would silently capture nothing.
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--hot",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--hot needs --trace"), "{stderr}");
}

/// Every trace-consuming command goes through the same loader, so a
/// missing, empty, or malformed trace must produce the same diagnostic
/// shape — `trace <path>: <cause>` — and a non-zero exit, regardless of
/// which command hit it.
#[test]
fn trace_commands_share_consistent_error_messages() {
    let missing = temp_path("nope.jsonl");
    let missing = missing.to_str().unwrap();
    let empty = temp_path("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let empty = empty.to_str().unwrap();
    let bad_header = temp_path("bad-header.jsonl");
    std::fs::write(&bad_header, "not json\n").unwrap();
    let bad_header = bad_header.to_str().unwrap();
    let truncated = temp_path("truncated.jsonl");
    std::fs::write(
        &truncated,
        "{\"engine\":\"cyclops\",\"cluster\":\"1x1x1\",\"workers\":1,\"values\":false}\n\
         {\"superstep\":0,\"worker\"\n",
    )
    .unwrap();
    let truncated = truncated.to_str().unwrap();

    let commands = [
        "metrics",
        "top",
        "why-slow",
        "trace-diff",
        "timeline",
        "comm",
        "mem",
    ];
    for command in commands {
        for (path, cause) in [
            (missing, "file not found"),
            (empty, "empty trace"),
            (bad_header, "bad trace header"),
            (truncated, "bad record on line 2"),
        ] {
            let args = match command {
                "top" => vec![command, path, "--once"],
                "trace-diff" => vec![command, path, path],
                _ => vec![command, path],
            };
            let (ok, _, stderr) = cyclops(&args);
            assert!(!ok, "{args:?} must fail");
            let expected = format!("error: trace {path}: {cause}");
            assert!(
                stderr.contains(&expected),
                "{args:?}: expected {expected:?} in {stderr:?}"
            );
        }
    }
}

/// Minimal recursive-descent JSON syntax checker: returns the remainder
/// after one value, or None on malformed input. Enough to assert the
/// Chrome export *parses* without pulling in a JSON dependency.
fn json_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next()?.1 {
        '{' => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return Some(r);
            }
            loop {
                rest = json_value(rest)?.trim_start(); // key (validated as a value)
                rest = rest.strip_prefix(':')?;
                rest = json_value(rest)?.trim_start();
                match rest.chars().next()? {
                    ',' => rest = rest[1..].trim_start(),
                    '}' => return Some(&rest[1..]),
                    _ => return None,
                }
            }
        }
        '[' => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Some(r);
            }
            loop {
                rest = json_value(rest)?.trim_start();
                match rest.chars().next()? {
                    ',' => rest = rest[1..].trim_start(),
                    ']' => return Some(&rest[1..]),
                    _ => return None,
                }
            }
        }
        '"' => {
            let mut escaped = false;
            for (i, c) in chars {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => return Some(&s[i + 1..]),
                    _ => {}
                }
            }
            None
        }
        _ => {
            let end = s
                .find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c))
                .unwrap_or(s.len());
            let token = &s[..end];
            if token == "true"
                || token == "false"
                || token == "null"
                || token.parse::<f64>().is_ok()
            {
                Some(&s[end..])
            } else {
                None
            }
        }
    }
}

fn assert_valid_json(s: &str) {
    let rest = json_value(s).unwrap_or_else(|| panic!("malformed JSON: {s}"));
    assert!(
        rest.trim().is_empty(),
        "trailing garbage after JSON: {rest}"
    );
}

/// The flight-recorder round trip: a `--flight` run appends span lines to
/// the trace, `timeline --chrome` exports them as valid Chrome trace-event
/// JSON, and `comm` verifies the worker-pair matrix against the sent
/// counters.
#[test]
fn flight_run_exports_chrome_trace_and_comm_matrix() {
    let trace = temp_path("flight.jsonl");
    let trace = trace.to_str().unwrap();
    let (ok, stdout, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--trace",
        trace,
        "--flight",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("flight-recorder spans appended"),
        "{stdout}"
    );
    let raw = std::fs::read_to_string(trace).unwrap();
    assert!(
        raw.contains("\"span\":\"cmp\""),
        "no compute spans in trace"
    );
    assert!(raw.contains("\"span\":\"barrier\""), "no barrier spans");
    assert!(raw.contains("\"span\":\"flush\""), "no flush spans");

    let (ok, stdout, stderr) = cyclops(&["timeline", trace]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("spans over"), "{stdout}");
    assert!(stdout.contains("cmp"), "{stdout}");

    let chrome = temp_path("flight.chrome.json");
    let chrome = chrome.to_str().unwrap();
    let (ok, _, stderr) = cyclops(&["timeline", trace, "--chrome", chrome]);
    assert!(ok, "stderr: {stderr}");
    let exported = std::fs::read_to_string(chrome).unwrap();
    assert_valid_json(&exported);
    assert!(exported.contains("\"traceEvents\""), "{exported}");
    assert!(exported.contains("\"ph\":\"X\""), "{exported}");

    let (ok, stdout, stderr) = cyclops(&["comm", trace]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("row sums consistent"), "{stdout}");
    assert!(stdout.contains("heatmap"), "{stdout}");
}

/// Without `--flight` the trace has no spans; `timeline --chrome` still
/// exports valid JSON by synthesizing phase spans from the records, and
/// `--flight` without `--trace` is rejected.
#[test]
fn timeline_synthesizes_chrome_spans_without_flight() {
    let trace = temp_path("noflight.jsonl");
    let trace = trace.to_str().unwrap();
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--trace",
        trace,
    ]);
    assert!(ok, "stderr: {stderr}");
    let chrome = temp_path("noflight.chrome.json");
    let chrome = chrome.to_str().unwrap();
    let (ok, stdout, stderr) = cyclops(&["timeline", trace, "--chrome", chrome]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("no flight-recorder spans"), "{stdout}");
    let exported = std::fs::read_to_string(chrome).unwrap();
    assert_valid_json(&exported);
    assert!(exported.contains("\"synthetic\":true"), "{exported}");

    let (ok, _, stderr) = cyclops(&["pagerank", "--dataset", "Amazon", "--flight"]);
    assert!(!ok);
    assert!(stderr.contains("--flight needs --trace"), "{stderr}");
}

#[test]
fn invalid_bucket_width_fails_with_nonzero_exit() {
    for width in ["NaN", "-3", "inf", "1e19", "nope"] {
        let (ok, _, stderr) = cyclops(&["sssp", "--dataset", "RoadCA", "--bucket-width", width]);
        assert!(!ok, "--bucket-width {width} must be rejected");
        assert!(
            stderr.contains("--bucket-width must be `auto` or a finite width")
                || stderr.contains("--bucket-width:"),
            "--bucket-width {width}: unexpected diagnostic {stderr:?}"
        );
    }
    let (ok, _, stderr) = cyclops(&[
        "sssp",
        "--dataset",
        "RoadCA",
        "--bucket-width",
        "1",
        "--bucket-mode",
        "greedy",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown bucket mode greedy"), "{stderr}");
}

/// Flags the chosen run would silently ignore exit non-zero instead, and
/// the retired hybrid-replication flag is unknown.
#[test]
fn ignored_flag_combinations_fail_with_nonzero_exit() {
    let cases: [(&[&str], &str); 12] = [
        (
            &["pagerank", "--bucket-width", "4"],
            "--bucket-width applies to sssp and bfs",
        ),
        (
            &["sssp", "--bucket-mode", "fast"],
            "--bucket-mode needs --bucket-width",
        ),
        (
            &["sssp", "--bucket-width", "auto", "--sched", "static"],
            "--sched has no effect with --bucket-width",
        ),
        (
            &["sssp", "--bucket-width", "2", "--sparse-cutoff", "0.1"],
            "--sparse-cutoff has no effect with --bucket-width",
        ),
        (
            &["pagerank", "--inbox", "sharded"],
            "--inbox applies only to pagerank --engine hama",
        ),
        (
            &["sssp", "--engine", "hama", "--inbox", "sharded"],
            "--inbox applies only to pagerank --engine hama",
        ),
        (
            &["cc", "--inbox", "global"],
            "--inbox applies only to pagerank --engine hama",
        ),
        (
            &["pagerank", "--engine", "hama", "--sched", "static"],
            "--sched has no effect with --engine hama",
        ),
        (
            &["sssp", "--engine", "bsp", "--sched", "dynamic"],
            "--sched has no effect with --engine hama",
        ),
        (
            &["cc", "--max-supersteps", "5"],
            "--max-supersteps has no effect on cc",
        ),
        (
            &["cc", "--engine", "hama", "--max-supersteps", "5"],
            "--max-supersteps has no effect on cc",
        ),
        (
            &["pagerank", "--replicate-threshold", "2"],
            "unknown flag --replicate-threshold",
        ),
    ];
    for (flags, diagnostic) in cases {
        let mut argv = flags.to_vec();
        argv.extend(["--dataset", "RoadCA", "--scale", "0.02"]);
        let (ok, _, stderr) = cyclops(&argv);
        assert!(!ok, "{flags:?} must be rejected");
        assert!(stderr.contains(diagnostic), "{flags:?}: {stderr}");
    }
}

#[test]
fn bucketed_sssp_matches_classic_distances_with_fewer_supersteps() {
    let graph_file = temp_path("bucketed.txt");
    cyclops(&[
        "gen",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--output",
        graph_file.to_str().unwrap(),
    ]);
    let supersteps = |stdout: &str| -> u64 {
        let rest = stdout.split("sssp from 0: ").nth(1).expect("summary line");
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    let classic_file = temp_path("classic-dist.txt");
    let (ok, stdout, stderr) = cyclops(&[
        "sssp",
        "--input",
        graph_file.to_str().unwrap(),
        "--output",
        classic_file.to_str().unwrap(),
    ]);
    assert!(ok, "classic: {stderr}");
    let classic_steps = supersteps(&stdout);

    for mode in ["det", "fast"] {
        let file = temp_path(&format!("bucketed-dist-{mode}.txt"));
        let (ok, stdout, stderr) = cyclops(&[
            "sssp",
            "--input",
            graph_file.to_str().unwrap(),
            "--bucket-width",
            "auto",
            "--bucket-mode",
            mode,
            "--output",
            file.to_str().unwrap(),
        ]);
        assert!(ok, "bucketed {mode}: {stderr}");
        assert!(
            supersteps(&stdout) < classic_steps,
            "bucketing must cut supersteps: {stdout} vs {classic_steps}"
        );
        assert_eq!(
            std::fs::read_to_string(&classic_file).unwrap(),
            std::fs::read_to_string(&file).unwrap(),
            "bucketed {mode} distances must be byte-identical to classic"
        );
    }
}

#[test]
fn engines_agree_via_cli_output_files() {
    let graph_file = temp_path("agree.txt");
    cyclops(&[
        "gen",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--output",
        graph_file.to_str().unwrap(),
    ]);
    let cy_file = temp_path("cy.txt");
    let ha_file = temp_path("ha.txt");
    for (engine, file) in [("cyclops", &cy_file), ("hama", &ha_file)] {
        let (ok, _, stderr) = cyclops(&[
            "sssp",
            "--input",
            graph_file.to_str().unwrap(),
            "--engine",
            engine,
            "--output",
            file.to_str().unwrap(),
        ]);
        assert!(ok, "{engine}: {stderr}");
    }
    assert_eq!(
        std::fs::read_to_string(&cy_file).unwrap(),
        std::fs::read_to_string(&ha_file).unwrap()
    );
}

#[test]
fn mem_json_matches_the_golden_report() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mem.jsonl");
    let golden = include_str!("golden/mem.json");
    let (ok, stdout, stderr) = cyclops(&["mem", fixture, "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout, golden,
        "mem --json drifted from tests/golden/mem.json; \
         if the change is intentional, regenerate the golden file"
    );
    // Byte-identical on a second run: the report is a pure function of
    // the trace.
    let (_, again, _) = cyclops(&["mem", fixture, "--json"]);
    assert_eq!(stdout, again);
}

#[test]
fn mem_report_renders_worker_and_untagged_rows() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mem.jsonl");
    let (ok, stdout, stderr) = cyclops(&["mem", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("peak bytes by worker and component"),
        "{stdout}"
    );
    assert!(stdout.contains("untagged"), "{stdout}");
    assert!(stdout.contains("replicas"), "{stdout}");
    assert!(stdout.contains("process rss: peak"), "{stdout}");

    let (ok, _, stderr) = cyclops(&["mem"]);
    assert!(!ok);
    assert!(stderr.contains("mem needs one trace file"), "{stderr}");

    // Memory samples ride on the trace file, so --mem alone is an error.
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--mem",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--mem needs --trace"), "{stderr}");
}

/// A trace from a run without `--mem` reports "no memory samples" rather
/// than an empty table or an error.
#[test]
fn mem_on_plain_trace_reports_no_samples() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/why_slow.jsonl");
    let (ok, stdout, stderr) = cyclops(&["mem", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("no memory samples recorded"), "{stdout}");
}

/// The tentpole's determinism contract: arming the tracking allocator with
/// `--mem` must not perturb the run — the trace (records and values alike)
/// stays `trace-diff`-identical to the same run without it, because memory
/// samples live on separate `{"mem":…}` lines outside the diff contract.
#[test]
fn mem_run_is_trace_diff_identical_to_plain_run() {
    let plain = temp_path("mem-equiv-plain.jsonl");
    let armed = temp_path("mem-equiv-armed.jsonl");
    let plain = plain.to_str().unwrap();
    let armed = armed.to_str().unwrap();
    let base = [
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.04",
        "--machines",
        "2",
        "--workers",
        "2",
        "--values",
    ];
    let mut a: Vec<&str> = base.to_vec();
    a.extend_from_slice(&["--trace", plain]);
    let (ok, _, stderr) = cyclops(&a);
    assert!(ok, "stderr: {stderr}");
    let mut b: Vec<&str> = base.to_vec();
    b.extend_from_slice(&["--trace", armed, "--mem"]);
    let (ok, stdout, stderr) = cyclops(&b);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("memory samples appended"), "{stdout}");

    // Full diff including values digests: byte-for-byte identical records.
    let (ok, stdout, stderr) = cyclops(&["trace-diff", plain, armed, "--values"]);
    assert!(ok, "diff failed: {stdout} {stderr}");
    assert!(stdout.contains("traces agree"), "{stdout}");

    // And the armed trace actually carries mem samples.
    let contents = std::fs::read_to_string(armed).unwrap();
    assert!(
        contents.lines().any(|l| l.starts_with("{\"mem\":")),
        "no mem lines in {armed}"
    );
}

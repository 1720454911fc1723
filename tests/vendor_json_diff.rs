//! Differential validation of the vendored `serde_json` stub against an
//! independent JSON implementation (python3's `json` module).
//!
//! The workspace builds offline against hand-written subsets of serde /
//! serde_json (see DESIGN.md §9). These tests bound the risk that the
//! stub silently speaks a private dialect: everything it emits must parse
//! under an implementation we did not write, and JSON formatted by that
//! implementation — different whitespace, `\uXXXX` escapes with surrogate
//! pairs, `1e+300`-style exponents — must parse back to the identical
//! value. Tests skip (without failing) when python3 is unavailable.

use std::io::Write;
use std::process::{Command, Stdio};

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    label: String,
    weights: Vec<f64>,
    flag: bool,
    missing: Option<u64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Sample {
    name: String,
    count: u64,
    delta: i64,
    ratio: f64,
    tiny: f64,
    huge: f64,
    buckets: Vec<u64>,
    inner: Inner,
    nested: Vec<Vec<i64>>,
    present: Option<String>,
}

fn sample() -> Sample {
    Sample {
        // Exercises every escape class: two-char escapes, a raw BMP
        // character, a non-BMP character (surrogate pair under python's
        // default ensure_ascii), and a control character.
        name: "quote \" backslash \\ newline \n tab \t snowman ☃ rocket 🚀 ctrl \u{1}".to_string(),
        count: u64::MAX,
        delta: -987_654_321,
        ratio: 0.1,
        tiny: 1e-5,
        huge: 1e300,
        buckets: vec![0, 1, 2, 1 << 40],
        inner: Inner {
            label: "µ-bench".to_string(),
            weights: vec![0.5, -3.75, 12345.678],
            flag: true,
            missing: None,
        },
        nested: vec![vec![], vec![-1, 0, 1]],
        present: Some("yes".to_string()),
    }
}

/// Runs a python3 one-liner with `stdin`, returning its stdout — or
/// `None` when python3 is not installed (the caller skips).
fn python3(script: &str, stdin: &str) -> Option<String> {
    let mut child = match Command::new("python3")
        .arg("-c")
        .arg(script)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(_) => {
            eprintln!("skipping: python3 not available");
            return None;
        }
    };
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "python3 rejected the stub's output: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Some(String::from_utf8(out.stdout).unwrap())
}

/// Stub → python → stub: compact stub output must be valid JSON to
/// python, and python's re-emission (ASCII escapes, exponent floats,
/// indentation) must deserialize to the identical value.
#[test]
fn stub_output_roundtrips_through_python() {
    let original = sample();
    let compact = serde_json::to_string(&original).unwrap();
    let Some(reemitted) = python3(
        "import json, sys; print(json.dumps(json.load(sys.stdin), indent=2))",
        &compact,
    ) else {
        return;
    };
    let back: Sample = serde_json::from_str(reemitted.trim()).unwrap();
    assert_eq!(back, original, "value must survive the foreign re-emission");
}

/// Python must see the stub's compact and pretty formattings as the same
/// document.
#[test]
fn compact_and_pretty_agree_under_python() {
    let original = sample();
    let compact = serde_json::to_string(&original).unwrap();
    let pretty = serde_json::to_string_pretty(&original).unwrap();
    let joined = format!("{compact}\n---SPLIT---\n{pretty}");
    let Some(out) = python3(
        "import json, sys\n\
         a, b = sys.stdin.read().split('\\n---SPLIT---\\n')\n\
         assert json.loads(a) == json.loads(b), 'compact and pretty differ'\n\
         print('ok')",
        &joined,
    ) else {
        return;
    };
    assert_eq!(out.trim(), "ok");
}

/// The `bnb faults --metrics json` output — a FaultReport line followed
/// by a MetricsSnapshot line — must be plain JSON to python with the
/// documented keys, and python's re-emission must parse back to the
/// identical report.
#[test]
fn faults_cli_json_is_real_json() {
    let args: Vec<String> = [
        "faults",
        "--inputs",
        "8",
        "--trials",
        "30",
        "--seed",
        "5",
        "--metrics",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = bnb_cli::run(&args).unwrap();
    let lines: Vec<&str> = out.trim_end().lines().collect();
    assert!(lines.len() >= 2, "expected report + metrics lines:\n{out}");
    let report_line = lines[lines.len() - 2];
    let metrics_line = lines[lines.len() - 1];
    let script = concat!(
        "import json, sys\n",
        "report, metrics = [json.loads(l) for l in sys.stdin.read().splitlines()]\n",
        "keys = ['m', 'trials', 'faults', 'strict_detected', 'strict_correct', ",
        "'strict_misdelivered', 'permissive_misdelivered_trials', ",
        "'permissive_misdelivered_records']\n",
        "missing = [k for k in keys if k not in report]\n",
        "assert not missing, f'missing {missing}'\n",
        "assert report['strict_misdelivered'] == 0, 'silent misdelivery'\n",
        "assert report['strict_detected'] + report['strict_correct'] == report['trials']\n",
        "assert 'hardware_faults' in metrics and 'fault_retries' in metrics\n",
        "assert metrics['hardware_faults'] == report['strict_detected']\n",
        "print(json.dumps(report, indent=2))",
    );
    let Some(reemitted) = python3(script, &format!("{report_line}\n{metrics_line}")) else {
        return;
    };
    let back: bnb::sim::faults::FaultReport = serde_json::from_str(reemitted.trim()).unwrap();
    let original: bnb::sim::faults::FaultReport = serde_json::from_str(report_line).unwrap();
    assert_eq!(
        back, original,
        "report must survive the foreign re-emission"
    );
}

/// Engine stats — the JSON the CLI actually ships — must be plain JSON to
/// python with the documented schema.
#[test]
fn engine_stats_json_is_real_json() {
    use bnb::core::network::BnbNetwork;
    use bnb::engine::{Engine, EngineConfig};
    use bnb::topology::perm::Permutation;
    use bnb::topology::record::records_for_permutation;

    let net = BnbNetwork::new(4);
    let engine = Engine::new(net, EngineConfig::with_workers(2));
    let p = Permutation::try_from((0..16).rev().collect::<Vec<_>>()).unwrap();
    let stats = engine.run(|h| {
        h.submit(records_for_permutation(&p));
        while h.drain().is_some() {}
        h.stats()
    });
    let json = serde_json::to_string(&stats).unwrap();
    let script = concat!(
        "import json, sys; v = json.load(sys.stdin); ",
        "keys = ['workers', 'batches', 'records', 'errors', ",
        "'records_per_sec', 'latency', 'histogram', 'queue_high_water']; ",
        "missing = [k for k in keys if k not in v]; ",
        "assert not missing, f'missing {missing}'; ",
        "assert v['batches'] == 1 and v['records'] == 16; ",
        "print('ok')",
    );
    let Some(out) = python3(script, &json) else {
        return;
    };
    assert_eq!(out.trim(), "ok");
}

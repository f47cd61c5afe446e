//! The repository benchmark: drives the diagnosis pipeline through its
//! public entry points on three workloads and reports end-to-end and
//! per-layer metrics. See `perfbench/README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! sdd-perfbench --workload campaign|serve_stream|bringup_100k \
//!     --seed N --seconds S --trace 0|1 --server-bin PATH
//! ```
//!
//! The last line on stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are every end-to-end metric; with `--trace 1` they are every
//! per-layer metric, and the run also writes its spans and the
//! program's counters to `.bench_trace/<workload>-seed<N>.json`.

mod bringup;
mod campaign;
mod serve;
mod stats;
mod sys;
mod trace;

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["campaign", "serve_stream", "bringup_100k"];

/// End-to-end metrics: (name, unit). Every workload reports all of them,
/// each for its own operation: an injected chip (`campaign`), a request
/// (`serve_stream`) or a bring-up (`bringup_100k`); see the README.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("warm_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("accuracy_pct", "%"),
];

/// Per-layer metrics: (name, unit). Every traced run reports all of
/// them; a layer that does no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("atpg.patterns_cpu_s", "s"),
    ("atpg.chip_patterns_max_s", "s"),
    ("atpg.pattern_sets_generated", "count"),
    ("atpg.draws_per_detected_chip", "draws/chip"),
    ("atpg.warm_pattern_sets_generated", "count"),
    ("observe.cpu_s", "s"),
    ("observe.capture_s", "s"),
    ("dictionary.cpu_s", "s"),
    ("dictionary.kernel_cpu_s", "s"),
    ("dictionary.cone_evals", "count"),
    ("dictionary.warm_cone_evals", "count"),
    ("dictionary.screen_cpu_s", "s"),
    ("dictionary.survivor_ratio", "ratio"),
    ("dictionary.build_s", "s"),
    ("cache.dict_hit_ratio", "ratio"),
    ("cache.dict_hit_ratio.mc", "ratio"),
    ("cache.dict_hit_ratio.screen", "ratio"),
    ("rank.cpu_s", "s"),
    ("store.load_cpu_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.flushes", "count"),
    ("serve.overhead_ms.mc", "ms"),
    ("serve.overhead_ms.screen", "ms"),
    ("netlist.build_s", "s"),
    ("timing.characterize_s", "s"),
    ("timing.clk_s", "s"),
    ("timing.cones_s", "s"),
    ("netlist.self_s", "s"),
    ("timing.self_s", "s"),
    ("atpg.self_s", "s"),
    ("observe.self_s", "s"),
    ("dictionary.self_s", "s"),
    ("store.self_s", "s"),
    ("rank.self_s", "s"),
    ("session.self_s", "s"),
    ("serve.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_ms", "ms"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed, failed output checks included.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The program's own counters, written to the trace file.
    pub counters: Vec<Value>,
}

impl Report {
    /// Books one operation; `Err` carries why it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: failed: {why}");
        }
    }

    /// Books one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(what()) });
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|_| format!("{flag} needs a number"))
    };
    let seconds = number("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed needs an unsigned integer".to_string())?,
        seconds,
        trace,
        server_bin: value("--server-bin").unwrap_or("sdd-server").into(),
    })
}

/// The span roots each workload's rollup is taken over; the first is
/// the one whose self times become the `<layer>.self_s` metrics.
fn rollup_roots(workload: &str) -> &'static [&'static str] {
    match workload {
        "campaign" => &["bench.cold_phase", "bench.warm_phase"],
        "serve_stream" => &["bench.pass"],
        _ => &["bench.bringup"],
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match sys::Scratch::create(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "campaign" => campaign::run(&args, &tracer, &scratch),
        "serve_stream" => serve::run(&args, &tracer, &scratch),
        _ => bringup::run(&args, &tracer),
    };
    drop(scratch);

    let metrics = if args.trace {
        finish_trace(&args, &tracer, &mut report);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    unit,
                    report.per_layer.get(name).copied().unwrap_or(0.0),
                )
            })
            .collect::<Vec<_>>()
    } else {
        let mut out = Vec::new();
        for &(name, unit) in &END_TO_END {
            let value = report.end_to_end.get(name).copied().unwrap_or(f64::NAN);
            report.check(value.is_finite() && value > 0.0, || {
                format!("{name} was not measured ({value})")
            });
            out.push((name, unit, if value.is_finite() { value } else { 0.0 }));
        }
        out
    };
    let mut out = Vec::new();
    for (name, unit, value) in metrics {
        println!("{name:<34} {value:>14.4} {unit}");
        out.push((
            name,
            object(vec![("value", value.to_value()), ("unit", unit.to_value())]),
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let result = object(vec![
        ("correct", correct.to_value()),
        ("attempted", report.attempted.to_value()),
        ("failed", report.failed.to_value()),
        ("metrics", object(out)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

/// A JSON object with its keys in the given order.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn nanos_by_layer(self_times: &BTreeMap<String, u64>) -> Value {
    Value::Map(
        self_times
            .iter()
            .map(|(k, &v)| (k.clone(), v.to_value()))
            .collect(),
    )
}

/// Rolls the spans up into per-layer self times, prints each rollup's
/// dominant layer next to the tracing overhead, and writes spans,
/// counters and rollups to the trace file.
fn finish_trace(args: &Args, tracer: &Tracer, report: &mut Report) {
    let spans = tracer.spans();
    let roots = rollup_roots(&args.workload);
    let overhead = tracer.overhead();
    let mut rollups = Vec::new();
    for (i, &root) in roots.iter().enumerate() {
        let n_roots = spans.iter().filter(|s| s.name == root).count().max(1);
        let self_times = trace::self_times(&spans, root);
        let dominant = trace::dominant(&self_times);
        let per_root = Duration::from_nanos(overhead.as_nanos() as u64 / n_roots as u64);
        match &dominant {
            Some((layer, share)) => println!(
                "rollup {root}: dominant layer {layer} ({:.1}% of self time over {n_roots} span(s)); \
                 tracing overhead {per_root:.2?} per span",
                100.0 * share
            ),
            None => println!("rollup {root}: no spans recorded"),
        }
        let total: u64 = self_times.values().sum();
        for layer in trace::LAYERS.iter().chain(&["bench"]) {
            if let Some(&nanos) = self_times.get(*layer) {
                println!(
                    "  {layer:<11} {:>10.4} s self time per span ({:>5.1}%)",
                    nanos as f64 / 1e9 / n_roots as f64,
                    100.0 * nanos as f64 / total.max(1) as f64
                );
            }
        }
        if i == 0 {
            for (layer, &nanos) in &self_times {
                if let Some(&(name, _)) = PER_LAYER
                    .iter()
                    .find(|(name, _)| name.strip_suffix(".self_s") == Some(layer.as_str()))
                {
                    report
                        .per_layer
                        .insert(name, nanos as f64 / 1e9 / n_roots as f64);
                }
            }
            report
                .per_layer
                .insert("trace.overhead_ms", per_root.as_secs_f64() * 1e3);
        }
        let dominant = dominant.map(|(layer, share)| {
            object(vec![
                ("layer", layer.to_value()),
                ("share", share.to_value()),
            ])
        });
        rollups.push((
            root,
            object(vec![
                ("spans", n_roots.to_value()),
                ("self_ns", nanos_by_layer(&self_times)),
                ("dominant", dominant.to_value()),
            ]),
        ));
    }
    let doc = object(vec![
        ("workload", args.workload.to_value()),
        ("seed", args.seed.to_value()),
        ("overhead_ns", (overhead.as_nanos() as u64).to_value()),
        ("rollups", object(rollups)),
        ("counters", report.counters.to_value()),
        ("spans", spans.to_value()),
    ]);
    let dir = PathBuf::from(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string(&doc).expect("trace serializes"),
            )
        })
        .map_err(|e| format!("writing {}: {e}", path.display()));
    report.op(written);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed() {
        let names = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n));
        for name in names {
            assert!(valid_name(name), "{name:?} does not match [A-Za-z0-9_.-]+");
        }
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, key: &str| -> Option<Value> {
            match v {
                Value::Map(entries) => entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone()),
                _ => None,
            }
        };
        let text_of = |v: Option<Value>| match v {
            Some(Value::Str(s)) => s,
            _ => String::new(),
        };
        let names = |key: &str| -> Vec<(String, String)> {
            match field(&doc, key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| (text_of(field(m, "name")), text_of(field(m, "unit"))))
                    .collect(),
                other => panic!("{key} is not an array: {other:?}"),
            }
        };
        let declared_workloads: Vec<String> =
            names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared_workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn args_parse_and_reject() {
        let raw = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&raw("--workload campaign --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(parse_args(&raw("--workload nope --seed 3 --seconds 2")).is_err());
        assert!(parse_args(&raw("--workload campaign --seconds 2")).is_err());
        assert!(parse_args(&raw("--workload campaign --seed 1 --seconds 0")).is_err());
    }
}

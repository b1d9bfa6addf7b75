//! genio-perf: the end-to-end benchmark of the GENIO stack.
//!
//! ```text
//! cargo run --release --manifest-path genio-perf/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] \
//!     [--json <file>] [--trace-out <file>] [--smoke]
//! ```
//!
//! One workload per process, closed loop from one generator thread. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! an untraced and a traced replica of the same inputs in lockstep, the
//! traced one with a span around every layer call, and prints the
//! per-layer metrics. Every line is `name value
//! unit`; the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A wrong output exits 1, a usage or set-up
//! error exits 2. See README.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod fleet;
mod host;
mod join_storm;
mod run;
mod spans;
mod stats;
mod subscriber;

use std::process::ExitCode;

use genio_testkit::json::Value;

use crate::run::{Outcome, Plan};
use crate::spans::{Recorder, LAYERS, UNATTRIBUTED};

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Subscriber1500,
    Subscriber64,
    JoinStorm,
    Fleet1m,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Subscriber1500,
    Workload::Subscriber64,
    Workload::JoinStorm,
    Workload::Fleet1m,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Subscriber1500 => "subscriber_1500",
            Workload::Subscriber64 => "subscriber_64",
            Workload::JoinStorm => "join_storm",
            Workload::Fleet1m => "fleet_1m",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile the `--json` document reports: the highest
    /// one a normal run's sample count supports with ten samples beyond
    /// it (thousands of cycles or sessions, but only about 50 fleet
    /// runs). It is not a gated metric: on a shared host it moves with
    /// the co-tenants far more than the median does.
    fn tail_percentile(self) -> f64 {
        match self {
            Workload::Fleet1m => 75.0,
            _ => 99.0,
        }
    }

    /// Set-ups per run behind `setup_s`. `join_storm` enrols a fresh
    /// fleet for every episode, so it sets up repeatedly anyway; the
    /// subscriber set-up takes milliseconds, so it is repeated most.
    fn setups(self) -> usize {
        match self {
            Workload::Subscriber1500 | Workload::Subscriber64 => 21,
            Workload::JoinStorm => 1,
            Workload::Fleet1m => 3,
        }
    }

    /// The thing `bench.items` counts.
    fn item(self) -> &'static str {
        match self {
            Workload::Subscriber1500 | Workload::Subscriber64 => "frames delivered intact",
            Workload::JoinStorm => "legitimate sessions",
            Workload::Fleet1m => "ONUs simulated",
        }
    }

    fn sizes(self, smoke: bool) -> Value {
        let num = |n: usize| Value::Num(n as f64);
        let fields: Vec<(&str, Value)> = match self {
            Workload::Subscriber1500 | Workload::Subscriber64 => {
                let shape = self.subscriber_shape();
                vec![
                    ("onus", num(subscriber::ONUS)),
                    ("frame_bytes", num(shape.frame)),
                    ("frames_per_onu", num(shape.per_onu)),
                    ("events_per_cycle", num(subscriber::EVENTS)),
                ]
            }
            Workload::JoinStorm => {
                let s = if smoke {
                    join_storm::SMOKE
                } else {
                    join_storm::FULL
                };
                vec![
                    ("onus_per_episode", num(s.onus)),
                    ("rounds", num(s.rounds)),
                    ("rounds_per_olt_identity", num(s.olt_rounds)),
                    ("revoke_before_round", num(s.revoke_before)),
                ]
            }
            Workload::Fleet1m => {
                let s = if smoke { fleet::SMOKE } else { fleet::FULL };
                vec![
                    ("trees", num(s.trees as usize)),
                    ("onus_per_tree", num(s.onus_per_tree as usize)),
                    ("cycles", num(s.cycles as usize)),
                ]
            }
        };
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn subscriber_shape(self) -> subscriber::Shape {
        if self == Workload::Subscriber64 {
            subscriber::SMALL
        } else {
            subscriber::MTU
        }
    }

    /// Runs the workload on one replica per recorder, in lockstep.
    fn run(self, seed: u64, plan: &Plan, recs: &mut [Recorder]) -> Result<Vec<Outcome>, String> {
        match self {
            Workload::Subscriber1500 | Workload::Subscriber64 => {
                subscriber::run(seed, self.subscriber_shape(), plan, recs)
            }
            Workload::JoinStorm => join_storm::run(seed, plan, recs),
            Workload::Fleet1m => fleet::run(seed, plan, recs),
        }
    }
}

/// Counts taken outside the layers, from returned results and public
/// fields, over the traced replica's whole run.
const COUNTERS: [&str; 10] = [
    "pon.gem.rejected_replay",
    "pon.gem.rejected_tamper",
    "netsec.macsec.rejected_replay",
    "netsec.macsec.rejected_integrity",
    "runtime.alerts",
    "runtime.incidents",
    "netsec.handshake.refused",
    "telemetry.trace_recorded",
    "telemetry.trace_dropped",
    "pon.engine.events",
];

/// Median over units of the traced replica's unit time over the
/// untraced replica's time for the same unit.
const TRACE_OVERHEAD: &str = "bench.trace_overhead";

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Latency percentile of a run: value in ms and samples beyond it.
fn latency_ms(out: &Outcome, p: f64) -> (f64, usize) {
    let mut sorted = out.samples_ns.clone();
    sorted.sort_unstable();
    stats::percentile(&sorted, p).map_or((0.0, 0), |(v, beyond)| (v as f64 / 1e6, beyond))
}

/// The latency percentile the end-to-end metrics gate. Co-tenants of a
/// shared host slow the stack in spells of seconds to minutes and never
/// speed it up, so the median of a run moves with how much of it a spell
/// covers. In one set of ten runs on a 2-vCPU shared VM, the median of
/// `subscriber_*` and `join_storm` moved by 20–26% (quartile distance
/// over median) and their 2nd percentile by 3–6%. The median and the
/// tail are in the `--json` document.
const GATED_PERCENTILE: f64 = 2.0;

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let setups: Vec<f64> = out.setup_ns.iter().map(|ns| *ns as f64 / 1e9).collect();
    vec![
        metric("latency_p2_ms", latency_ms(out, GATED_PERCENTILE).0, "ms"),
        metric("setup_s", stats::median(&setups).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
    ]
}

/// Per-layer metrics. A layer's time is given as its share of the traced
/// wall time, not in seconds: a layer a workload never calls would
/// otherwise print a time of exactly zero on every run. Self-time is
/// `share × bench.traced_wall_s`, and per item it is that over
/// `bench.items`.
fn per_layer(untraced: &Outcome, traced: &Outcome, rec: &Recorder) -> Vec<Metric> {
    let profile = spans::profile(rec.spans());
    let wall = profile.wall_ns as f64;
    let mut out = Vec::new();
    for (layer, (self_ns, calls)) in LAYERS.iter().zip(profile.layers) {
        out.push(metric(
            format!("{layer}.share"),
            self_ns as f64 / wall,
            "ratio",
        ));
        out.push(metric(format!("{layer}.calls"), calls as f64, "count"));
    }
    let glue = profile.unattributed_ns as f64;
    out.push(metric(format!("{UNATTRIBUTED}.self_s"), glue / 1e9, "s"));
    out.push(metric(
        format!("{UNATTRIBUTED}.share"),
        glue / wall,
        "ratio",
    ));
    out.push(metric("bench.traced_wall_s", wall / 1e9, "s"));
    out.push(metric("bench.items", traced.items as f64, "count"));
    for name in COUNTERS {
        let n = traced.counters.get(name).copied().unwrap_or(0);
        out.push(metric(name, n as f64, "count"));
    }
    // Unit k ran on both replicas back to back, so the per-unit ratio
    // cancels host drift that a ratio of two medians would keep.
    let ratios: Vec<f64> = traced
        .unit_ns
        .iter()
        .zip(&untraced.unit_ns)
        .map(|(t, u)| *t as f64 / *u as f64)
        .collect();
    let overhead = stats::median(&ratios).unwrap_or(0.0);
    out.push(metric(TRACE_OVERHEAD, overhead, "ratio"));
    out
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    trace_out: Option<String>,
    smoke: bool,
}

const USAGE: &str =
    "usage: genio-perf --workload <subscriber_1500|subscriber_64|join_storm|fleet_1m> \
--seed <u64> [--seconds <s>] [--trace <0|1>] [--json <file>] [--trace-out <file>] [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Subscriber1500,
        seed: 1,
        seconds: 20.0,
        trace: false,
        json: None,
        trace_out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or(bad("not a duration in (0, 60]"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            "--json" => parsed.json = Some(value),
            "--trace-out" => parsed.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Everything one invocation measured.
#[derive(Debug)]
struct Report {
    metrics: Vec<Metric>,
    /// The replica the end-to-end metrics (or, traced, the overhead
    /// base) come from.
    untraced: Outcome,
    traced: Option<(Outcome, Recorder)>,
    wrong: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    fn attempted(&self) -> u64 {
        self.untraced.attempted + self.traced.as_ref().map_or(0, |(o, _)| o.attempted)
    }

    fn failed(&self) -> u64 {
        self.untraced.failed + self.traced.as_ref().map_or(0, |(o, _)| o.failed)
    }
}

fn measure(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut plan = Plan {
        seconds: args.seconds,
        min_samples: if args.smoke {
            0
        } else {
            stats::samples_for(w.tail_percentile())
        },
        setups: if args.smoke { 1 } else { w.setups() },
        smoke: args.smoke,
    };
    let mut wrong = Vec::new();
    if !args.trace {
        let mut recs = [Recorder::new(false)];
        let out = w
            .run(args.seed, &plan, &mut recs)?
            .pop()
            .ok_or("the run produced no outcome")?;
        note_wrong(&mut wrong, "run", &out);
        if !args.smoke {
            let (_, beyond) = latency_ms(&out, w.tail_percentile());
            if beyond < stats::MIN_BEYOND {
                return Err(format!("only {beyond} samples beyond the tail percentile"));
            }
        }
        return Ok(Report {
            metrics: end_to_end(&out),
            untraced: out,
            traced: None,
            wrong,
        });
    }
    // Untraced and traced replicas in lockstep, sharing the budget.
    plan.min_samples = 0;
    plan.setups = 1;
    let mut recs = [Recorder::new(false), Recorder::new(true)];
    let mut outs = w.run(args.seed, &plan, &mut recs)?.into_iter();
    let (Some(untraced), Some(traced)) = (outs.next(), outs.next()) else {
        return Err("the run produced no traced outcome".to_string());
    };
    let [_, rec] = recs;
    note_wrong(&mut wrong, "untraced replica", &untraced);
    note_wrong(&mut wrong, "traced replica", &traced);
    if traced.digest != untraced.digest {
        wrong.push("traced and untraced replicas produced different outputs".to_string());
    }
    if let Some(path) = &args.trace_out {
        let document = spans::chrome_document(rec.spans(), args.seed);
        std::fs::write(path, document).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(Report {
        metrics: per_layer(&untraced, &traced, &rec),
        untraced,
        traced: Some((traced, rec)),
        wrong,
    })
}

fn note_wrong(wrong: &mut Vec<String>, replica: &str, out: &Outcome) {
    if out.wrong_count > 0 {
        wrong.push(format!("{replica}: {} wrong outputs", out.wrong_count));
        wrong.extend(out.wrong.iter().cloned());
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Value::Obj(vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// The one-line result: the last line of standard output.
fn result_line(report: &Report) -> String {
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(report.correct())),
        (
            "attempted".to_string(),
            Value::Num(report.attempted() as f64),
        ),
        ("failed".to_string(), Value::Num(report.failed() as f64)),
        ("metrics".to_string(), metrics_json(&report.metrics)),
    ])
    .to_string()
}

/// The `--json` document: the metrics plus provenance.
fn document(args: &Args, report: &Report) -> Value {
    let w = args.workload;
    let out = &report.untraced;
    let (p50_ms, p50_beyond) = latency_ms(out, 50.0);
    let (tail_ms, tail_beyond) = latency_ms(out, w.tail_percentile());
    let num = |n: f64| Value::Num(n);
    let text = |s: &str| Value::Str(s.to_string());
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    obj(vec![
        ("schema", text("genio-perf/v1")),
        ("workload", text(w.name())),
        ("seed", text(&args.seed.to_string())),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "host",
            obj(vec![
                ("nproc", num(host::nproc() as f64)),
                ("profile", text(host::profile())),
                ("git", text(&host::git_head())),
            ]),
        ),
        ("sizes", w.sizes(args.smoke)),
        ("item", text(w.item())),
        (
            "samples",
            obj(vec![
                ("units", num(out.units as f64)),
                ("warmup", num(out.warmup as f64)),
                ("latency", num(out.samples_ns.len() as f64)),
                ("p50_ms", num(p50_ms)),
                ("p50_beyond", num(p50_beyond as f64)),
                ("tail_percentile", num(w.tail_percentile())),
                ("tail_ms", num(tail_ms)),
                ("tail_beyond", num(tail_beyond as f64)),
                ("setups", num(out.setup_ns.len() as f64)),
            ]),
        ),
        ("digest", text(&format!("{:#018x}", out.digest.0))),
        ("correct", Value::Bool(report.correct())),
        ("attempted", num(report.attempted() as f64)),
        ("failed", num(report.failed() as f64)),
        ("metrics", metrics_json(&report.metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("genio-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "genio-perf: {} seed {} trace {} on {} CPUs ({} build)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::profile()
    );
    let report = match measure(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("genio-perf: {e}");
            return ExitCode::from(2);
        }
    };
    for wrong in &report.wrong {
        eprintln!("genio-perf: WRONG: {wrong}");
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{}\n", document(&args, &report))) {
            eprintln!("genio-perf: {path}: {e}");
        }
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genio_testkit::json;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        json::parse(&text).unwrap_or(Value::Null)
    }

    fn declared_names(doc: &Value, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn smoke(w: Workload, trace: bool) -> Report {
        let args = Args {
            workload: w,
            seed: 7,
            seconds: 1.0,
            trace,
            json: None,
            trace_out: None,
            smoke: true,
        };
        measure(&args).expect("smoke run")
    }

    #[test]
    fn smoke_runs_are_correct_and_match_the_declared_metrics() {
        let doc = declared();
        let mut e2e = declared_names(&doc, "end_to_end");
        let mut layered = declared_names(&doc, "per_layer");
        e2e.sort();
        layered.sort();
        assert!(
            !e2e.is_empty() && !layered.is_empty(),
            "BENCHMARK.json unreadable"
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(Workload::name));

        for w in WORKLOADS {
            for (trace, declared) in [(false, &e2e), (true, &layered)] {
                let report = smoke(w, trace);
                assert!(report.correct(), "{}: {:?}", w.name(), report.wrong);
                assert!(report.attempted() > 0);
                assert_eq!(report.failed(), 0);
                let mut printed: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                printed.sort();
                assert_eq!(&printed, declared, "{} trace {trace}", w.name());
                let line = json::parse(&result_line(&report)).expect("result line is JSON");
                assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_nonzero() {
        for w in WORKLOADS {
            for m in smoke(w, false).metrics {
                assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
            }
        }
    }

    #[test]
    fn traced_and_untraced_runs_agree_and_account_for_wall_time() {
        for w in WORKLOADS {
            let report = smoke(w, true);
            let (traced, rec) = report.traced.as_ref().expect("traced replica");
            assert_eq!(traced.digest, report.untraced.digest, "{}", w.name());
            assert!(traced.units > 0 && traced.units == report.untraced.units);
            let p = spans::profile(rec.spans());
            let layered: u64 = p.layers.iter().map(|l| l.0).sum();
            assert_eq!(layered + p.unattributed_ns, p.wall_ns);
            assert!(p.wall_ns > 0);
        }
    }

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let doc = declared();
        let mut names: Vec<String> = ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|section| declared_names(&doc, section))
            .map(|(name, _)| name)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload join_storm --seed 9 --seconds 10 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::JoinStorm);
        assert!(ok.trace && ok.seed == 9);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fleet_1m --seed x").is_err());
        assert!(args("--workload fleet_1m --trace 2").is_err());
        assert!(args("--workload fleet_1m --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}

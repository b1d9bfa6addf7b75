//! Micro-benchmark runner: warmup, calibrated timed samples, min/median/
//! p95 wall-clock stats, and JSON emission — a hermetic stand-in for the
//! Criterion subset the workspace uses.
//!
//! Each bench target (`harness = false`) builds a [`Criterion`] from its
//! command line via [`Criterion::from_args`], registers benches through
//! the same `bench_function` / `benchmark_group` API Criterion exposes,
//! and finishes with [`Criterion::emit`], which prints a summary table
//! and writes `<target>.json` under `GENIO_BENCH_JSON_DIR` (default
//! `target/genio-bench/`). `--quick` shortens warmup and sampling so a CI
//! pass stays fast; a positional argument filters benches by substring.

use std::fmt;
use std::time::{Duration, Instant};

use crate::json::Value;

/// Work-per-iteration declaration, recorded in the report and used for
/// rate lines in the summary.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier for parameterised benches (`bench_with_input`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    param: String,
}

impl BenchmarkId {
    /// Criterion-compatible constructor: the id is the parameter's
    /// `Display` form.
    pub fn from_parameter<P: fmt::Display>(param: P) -> Self {
        BenchmarkId { param: param.to_string() }
    }
}

/// One measured bench: per-iteration wall-clock statistics in
/// nanoseconds.
#[derive(Clone, Debug)]
pub struct Record {
    pub name: String,
    pub iters_per_sample: u64,
    pub samples: u64,
    pub min_ns: f64,
    pub median_ns: f64,
    pub p95_ns: f64,
    pub max_ns: f64,
    pub mean_ns: f64,
    pub throughput: Option<Throughput>,
}

impl Record {
    /// The record's JSON object (schema `genio-bench/v1`).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("iters_per_sample".to_string(), Value::Num(self.iters_per_sample as f64)),
            ("samples".to_string(), Value::Num(self.samples as f64)),
            ("min_ns".to_string(), Value::Num(self.min_ns)),
            ("median_ns".to_string(), Value::Num(self.median_ns)),
            ("p95_ns".to_string(), Value::Num(self.p95_ns)),
            ("max_ns".to_string(), Value::Num(self.max_ns)),
            ("mean_ns".to_string(), Value::Num(self.mean_ns)),
        ];
        match self.throughput {
            Some(Throughput::Bytes(n)) => fields.push((
                "throughput".to_string(),
                Value::Obj(vec![("bytes".to_string(), Value::Num(n as f64))]),
            )),
            Some(Throughput::Elements(n)) => fields.push((
                "throughput".to_string(),
                Value::Obj(vec![("elements".to_string(), Value::Num(n as f64))]),
            )),
            None => {}
        }
        Value::Obj(fields)
    }

    /// Parses a record back from its JSON object (the round-trip half of
    /// the schema contract).
    pub fn from_json(v: &Value) -> Result<Record, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let throughput = match v.get("throughput") {
            None => None,
            Some(t) => {
                if let Some(b) = t.get("bytes").and_then(Value::as_f64) {
                    Some(Throughput::Bytes(b as u64))
                } else if let Some(e) = t.get("elements").and_then(Value::as_f64) {
                    Some(Throughput::Elements(e as u64))
                } else {
                    return Err("throughput object missing bytes/elements".into());
                }
            }
        };
        Ok(Record {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or("missing name")?
                .to_string(),
            iters_per_sample: num("iters_per_sample")? as u64,
            samples: num("samples")? as u64,
            min_ns: num("min_ns")?,
            median_ns: num("median_ns")?,
            p95_ns: num("p95_ns")?,
            max_ns: num("max_ns")?,
            mean_ns: num("mean_ns")?,
            throughput,
        })
    }
}

/// Measurement knobs; [`Criterion::from_args`] picks quick or normal.
#[derive(Clone, Debug)]
struct Profile {
    warmup: Duration,
    sample_target: Duration,
    default_samples: u64,
    /// Hard cap on the sampling phase of one bench.
    time_cap: Duration,
}

impl Profile {
    fn normal() -> Self {
        Profile {
            warmup: Duration::from_millis(200),
            sample_target: Duration::from_millis(10),
            default_samples: 20,
            time_cap: Duration::from_secs(10),
        }
    }

    fn quick() -> Self {
        Profile {
            warmup: Duration::from_millis(25),
            sample_target: Duration::from_millis(3),
            default_samples: 10,
            time_cap: Duration::from_secs(3),
        }
    }
}

/// Passed to bench closures; [`Bencher::iter`] performs the calibrated
/// measurement.
pub struct Bencher {
    profile: Profile,
    samples_wanted: u64,
    /// Filled by `iter`: the batch size and the samples.
    result: Option<(u64, Vec<f64>)>,
}

impl Bencher {
    /// Times `f`: warmup, calibration of the batch size, then up to
    /// `samples_wanted` timed batches (stopping early at the time cap,
    /// but never before 3 samples).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let k = self.profile.calibrate(&mut f);
        let mut samples = Vec::with_capacity(self.samples_wanted as usize);
        let sampling_start = Instant::now();
        for _ in 0..self.samples_wanted {
            samples.push(sample(k, &mut f));
            if samples.len() >= 3 && sampling_start.elapsed() >= self.profile.time_cap {
                break;
            }
        }
        self.result = Some((k, samples));
    }
}

impl Profile {
    /// Warmup + calibration: runs `f` until the warmup window elapses and
    /// returns the batch size that makes one sample last about
    /// `sample_target`.
    fn calibrate<R, F: FnMut() -> R>(&self, f: &mut F) -> u64 {
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        loop {
            std::hint::black_box(f());
            warmup_iters += 1;
            if warmup_start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_iter_ns =
            (warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64).max(0.1);
        ((self.sample_target.as_nanos() as f64 / per_iter_ns) as u64).clamp(1, 1 << 24)
    }
}

/// One timed sample: `k` calls of `f`, in nanoseconds per call.
fn sample<R, F: FnMut() -> R>(k: u64, f: &mut F) -> f64 {
    let t = Instant::now();
    for _ in 0..k {
        std::hint::black_box(f());
    }
    t.elapsed().as_nanos() as f64 / k as f64
}

/// The bench context: registers measurements and emits the report.
pub struct Criterion {
    target: String,
    experiment: String,
    quick: bool,
    filter: Option<String>,
    profile: Profile,
    records: Vec<Record>,
}

impl Criterion {
    /// Builds the context from the process arguments (as invoked by
    /// `cargo bench`): `--quick` switches to the fast profile, a bare
    /// argument filters bench names by substring, Criterion/libtest
    /// flags that do not apply are ignored.
    pub fn from_args() -> Criterion {
        let mut args = std::env::args();
        let argv0 = args.next().unwrap_or_default();
        let mut quick = std::env::var("GENIO_BENCH_QUICK").is_ok_and(|v| v == "1");
        let mut filter = None;
        for arg in args {
            match arg.as_str() {
                "--quick" => quick = true,
                s if s.starts_with("--") => {} // --bench and friends
                s => filter = Some(s.to_string()),
            }
        }
        Criterion::new(&target_stem(&argv0), quick, filter)
    }

    /// Explicit constructor (used by the self-tests).
    pub fn new(target: &str, quick: bool, filter: Option<String>) -> Criterion {
        Criterion {
            target: target.to_string(),
            experiment: String::new(),
            quick,
            filter,
            profile: if quick { Profile::quick() } else { Profile::normal() },
            records: Vec::new(),
        }
    }

    /// Tags this target with its EXPERIMENTS.md id (e.g. `"E-L2"`).
    pub fn experiment_id(&mut self, id: &str) {
        self.experiment = id.to_string();
    }

    /// Registers and measures one bench.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_bench(name.to_string(), None, None, f);
        self
    }

    /// Opens a named group (`group/name` bench ids, shared settings).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size: None,
        }
    }

    fn run_bench<F: FnMut(&mut Bencher)>(
        &mut self,
        name: String,
        throughput: Option<Throughput>,
        sample_size: Option<u64>,
        mut f: F,
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            profile: self.profile.clone(),
            samples_wanted: self.samples_wanted(sample_size).max(3),
            result: None,
        };
        f(&mut bencher);
        let Some((k, samples)) = bencher.result else {
            // The closure never called iter(); nothing to record.
            return;
        };
        self.record(name, throughput, k, samples);
    }

    /// Measures two benches in lockstep and returns the per-pair ratios
    /// `b / a` (empty when the filter skips both names). After each side's
    /// warmup and calibration, sample `i` times `a` and `b` back to back,
    /// `a` first on even `i` and `b` first on odd `i`, so a slow spell of a
    /// shared host lands on both halves of a pair instead of on one side.
    fn run_pair<RA, RB, A, B>(
        &mut self,
        names: (String, String),
        throughput: Option<Throughput>,
        sample_size: Option<u64>,
        mut fa: A,
        mut fb: B,
    ) -> Vec<f64>
    where
        A: FnMut() -> RA,
        B: FnMut() -> RB,
    {
        if let Some(filter) = &self.filter {
            if !names.0.contains(filter.as_str()) && !names.1.contains(filter.as_str()) {
                return Vec::new();
            }
        }
        let wanted = self.samples_wanted(sample_size).max(3);
        let ka = self.profile.calibrate(&mut fa);
        let kb = self.profile.calibrate(&mut fb);
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        let sampling_start = Instant::now();
        for i in 0..wanted {
            if i % 2 == 0 {
                sa.push(sample(ka, &mut fa));
                sb.push(sample(kb, &mut fb));
            } else {
                sb.push(sample(kb, &mut fb));
                sa.push(sample(ka, &mut fa));
            }
            if sa.len() >= 3 && sampling_start.elapsed() >= self.profile.time_cap * 2 {
                break;
            }
        }
        let ratios = sa.iter().zip(&sb).map(|(a, b)| b / a).collect();
        self.record(names.0, throughput, ka, sa);
        self.record(names.1, throughput, kb, sb);
        ratios
    }

    fn samples_wanted(&self, sample_size: Option<u64>) -> u64 {
        match sample_size {
            Some(n) if self.quick => n.min(self.profile.default_samples),
            Some(n) => n,
            None => self.profile.default_samples,
        }
    }

    /// Summarizes one bench's samples, prints the line and keeps the record.
    fn record(
        &mut self,
        name: String,
        throughput: Option<Throughput>,
        k: u64,
        mut samples: Vec<f64>,
    ) {
        samples.sort_by(|a, b| a.total_cmp(b));
        let (Some(&min), Some(&max)) = (samples.first(), samples.last()) else {
            return;
        };
        let at = |q: f64| samples[((samples.len() as f64 * q) as usize).min(samples.len() - 1)];
        let record = Record {
            name,
            iters_per_sample: k,
            samples: samples.len() as u64,
            min_ns: min,
            median_ns: at(0.5),
            p95_ns: at(0.95),
            max_ns: max,
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            throughput,
        };
        print_record(&record);
        self.records.push(record);
    }

    /// Prints the summary and writes `<target>.json`. Call last.
    pub fn emit(&self) {
        println!(
            "\n[genio-testkit bench] target {} ({}): {} benches, {} profile",
            self.target,
            if self.experiment.is_empty() { "-" } else { &self.experiment },
            self.records.len(),
            if self.quick { "quick" } else { "full" },
        );
        let dir = std::env::var("GENIO_BENCH_JSON_DIR")
            .unwrap_or_else(|_| default_json_dir());
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("[genio-testkit bench] cannot create {dir}: {e}");
            return;
        }
        let path = format!("{dir}/{}.json", self.target);
        match std::fs::write(&path, self.report_json().to_string()) {
            Ok(()) => println!("[genio-testkit bench] wrote {path}"),
            Err(e) => eprintln!("[genio-testkit bench] cannot write {path}: {e}"),
        }
    }

    /// The full report as a JSON value.
    pub fn report_json(&self) -> Value {
        Value::Obj(vec![
            ("schema".to_string(), Value::Str("genio-bench/v1".to_string())),
            ("experiment".to_string(), Value::Str(self.experiment.clone())),
            ("target".to_string(), Value::Str(self.target.clone())),
            ("quick".to_string(), Value::Bool(self.quick)),
            (
                "benches".to_string(),
                Value::Arr(self.records.iter().map(Record::to_json).collect()),
            ),
        ])
    }

    /// Measured records (for the self-tests).
    pub fn records(&self) -> &[Record] {
        &self.records
    }
}

/// Criterion-compatible bench group.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Declares the work per iteration for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for subsequent benches.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n as u64);
        self
    }

    /// Registers `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.run_bench(full, self.throughput, self.sample_size, f);
        self
    }

    /// Registers `group/<id>` with an input reference.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.param);
        self.criterion
            .run_bench(full, self.throughput, self.sample_size, |b| f(b, input));
        self
    }

    /// Registers `group/a` and `group/b` measured in lockstep, sample by
    /// sample with the order alternating, and returns the per-pair ratios
    /// `b / a`: a ratio bound on their median does not move when a
    /// co-tenant slows one side's samples. Both records are emitted as if
    /// registered one by one.
    pub fn bench_paired<RA, RB>(
        &mut self,
        a: &str,
        fa: impl FnMut() -> RA,
        b: &str,
        fb: impl FnMut() -> RB,
    ) -> Vec<f64> {
        let names = (
            format!("{}/{}", self.name, a),
            format!("{}/{}", self.name, b),
        );
        self.criterion
            .run_pair(names, self.throughput, self.sample_size, fa, fb)
    }

    /// Ends the group (API compatibility; settings die with the group).
    pub fn finish(&mut self) {}
}

fn print_record(r: &Record) {
    let rate = match r.throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:8.1} MiB/s", n as f64 / r.median_ns * 1e9 / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:8.2} Melem/s", n as f64 / r.median_ns * 1e9 / 1e6)
        }
        None => String::new(),
    };
    println!(
        "bench {:<44} min {:>12}  median {:>12}  p95 {:>12}{rate}",
        r.name,
        fmt_ns(r.min_ns),
        fmt_ns(r.median_ns),
        fmt_ns(r.p95_ns),
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Cargo runs bench binaries with the package root as CWD, so a relative
/// default would scatter reports across `crates/*/target/`. Anchor at the
/// shared build directory instead: the binary lives in
/// `target/<profile>/deps/`, three levels below it.
fn default_json_dir() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.ancestors().nth(3).map(|t| t.join("genio-bench")))
        .and_then(|p| p.to_str().map(str::to_string))
        .unwrap_or_else(|| "target/genio-bench".to_string())
}

/// `target/release/deps/lesson2_encryption-0b9ab...` → `lesson2_encryption`.
fn target_stem(argv0: &str) -> String {
    let file = argv0.rsplit(['/', '\\']).next().unwrap_or(argv0);
    let stem = file.strip_suffix(".exe").unwrap_or(file);
    match stem.rsplit_once('-') {
        Some((name, hash))
            if !hash.is_empty() && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            name.to_string()
        }
        _ => stem.to_string(),
    }
}

/// Declares the `main` for a `harness = false` bench target: builds a
/// [`Criterion`] from the CLI, runs every listed bench fn, emits the
/// report.
#[macro_export]
macro_rules! bench_main {
    ($($bench_fn:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion::from_args();
            $($bench_fn(&mut criterion);)+
            criterion.emit();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_stem_strips_cargo_hash() {
        assert_eq!(target_stem("/t/deps/lesson2_encryption-0b9ab42de"), "lesson2_encryption");
        assert_eq!(target_stem("fig1_deployment"), "fig1_deployment");
        assert_eq!(target_stem("deps\\x-1a2b.exe"), "x");
        // A non-hex suffix is part of the name.
        assert_eq!(target_stem("my-bench"), "my-bench");
    }

    #[test]
    fn record_json_roundtrip() {
        let r = Record {
            name: "g/n".into(),
            iters_per_sample: 128,
            samples: 10,
            min_ns: 10.0,
            median_ns: 12.5,
            p95_ns: 20.0,
            max_ns: 21.0,
            mean_ns: 13.0,
            throughput: Some(Throughput::Bytes(1500)),
        };
        let parsed = Record::from_json(&crate::json::parse(&r.to_json().to_string()).unwrap())
            .unwrap();
        assert_eq!(parsed.name, r.name);
        assert_eq!(parsed.iters_per_sample, 128);
        assert_eq!(parsed.median_ns, 12.5);
        assert!(matches!(parsed.throughput, Some(Throughput::Bytes(1500))));
    }
}

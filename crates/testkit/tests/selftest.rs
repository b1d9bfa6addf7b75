//! Self-tests of the verification kit: PRNG determinism, generator
//! bounds, shrinking quality, seed reproduction, and the bench runner's
//! JSON schema round-trip.

use genio_testkit::bench::{Criterion, Record};
use genio_testkit::gen::{bytes, vec, Strategy};
use genio_testkit::json;
use genio_testkit::prelude::*;
use genio_testkit::rng::Rng;
use genio_testkit::runner::{parse_seed, run_collect, Config, PropError};

#[test]
fn prng_reseed_restarts_stream() {
    let mut a = Rng::from_seed(0xFEED);
    let first: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
    let mut b = Rng::from_seed(0xFEED);
    let again: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
    assert_eq!(first, again);
    // Forked children are decorrelated from the parent continuation.
    let mut c = Rng::from_seed(0xFEED);
    let fork = c.fork().next_u64();
    assert_ne!(fork, c.next_u64());
}

#[test]
fn generators_respect_bounds_over_many_draws() {
    let mut rng = Rng::from_seed(1);
    let strat = (vec(1u64..100, 1..8), 0u8..3, string_of("xyz", 2..5));
    for _ in 0..300 {
        let (v, sel, s) = strat.generate(&mut rng);
        assert!((1..8).contains(&v.len()));
        assert!(v.iter().all(|x| (1..100).contains(x)));
        assert!(sel < 3);
        assert!((2..5).contains(&s.len()) && s.chars().all(|c| "xyz".contains(c)));
    }
}

/// A seeded, known-failing property: "no element reaches 10". Greedy
/// shrinking (truncate, drop elements, bisect scalars) must land on the
/// canonical minimal counterexample `[10]`.
#[test]
fn shrinking_reaches_minimal_counterexample() {
    let strat = vec(0u64..1000, 0..20);
    let cfg = Config { seed: Some(0xBAD_5EED), ..Default::default() };
    let failure = run_collect("selftest_min", &cfg, &strat, |v: Vec<u64>| {
        if v.iter().any(|&x| x >= 10) {
            Err(PropError::fail("element >= 10"))
        } else {
            Ok(())
        }
    })
    .expect("property must fail under this generator");
    assert_eq!(failure.minimal, vec![10], "greedy shrink should reach [10]");
    assert!(failure.shrink_steps > 0);
}

/// The printed seed reproduces the failing generation as case 0.
#[test]
fn failure_seed_reproduces_failure() {
    let strat = bytes(0..64);
    let fails = |v: Vec<u8>| {
        if v.len() >= 5 {
            Err(PropError::fail("len >= 5"))
        } else {
            Ok(())
        }
    };
    let cfg = Config { seed: Some(0x1234), ..Default::default() };
    let first = run_collect("selftest_seed", &cfg, &strat, fails).expect("must fail");
    let replay_cfg = Config { seed: Some(first.seed), cases: 1, ..Default::default() };
    let replay = run_collect("selftest_seed", &replay_cfg, &strat, fails)
        .expect("replaying the printed seed must fail again");
    assert_eq!(replay.case, 0);
    assert_eq!(replay.minimal, first.minimal);
}

#[test]
fn passing_property_returns_none() {
    let cfg = Config::default();
    assert!(run_collect("selftest_pass", &cfg, &(0u32..10), |_| Ok(())).is_none());
}

#[test]
fn assume_rejections_regenerate() {
    let cfg = Config { seed: Some(7), ..Default::default() };
    // Rejects half the space; must still find the failure among evens.
    let failure = run_collect("selftest_assume", &cfg, &(0u64..1000), |v| {
        if v % 2 == 1 {
            return Err(PropError::Reject);
        }
        if v >= 500 {
            Err(PropError::fail("big even"))
        } else {
            Ok(())
        }
    });
    let failure = failure.expect("must eventually hit a big even value");
    assert_eq!(failure.minimal % 2, 0, "rejected (odd) candidates never count as minimal");
    assert!(failure.minimal >= 500);
}

#[test]
fn seed_parsing_accepts_hex_and_decimal() {
    assert_eq!(parse_seed("42"), Some(42));
    assert_eq!(parse_seed("0x2A"), Some(42));
    assert_eq!(parse_seed(" 0X2a "), Some(42));
    assert_eq!(parse_seed("nope"), None);
}

#[test]
fn bench_runner_emits_schema_v1() {
    let mut c = Criterion::new("selftest_target", true, None);
    c.experiment_id("E-T0");
    c.bench_function("noop", |b| b.iter(|| 1u64 + 1));
    {
        let mut group = c.benchmark_group("grp");
        group.sample_size(5);
        group.bench_function("add", |b| b.iter(|| std::hint::black_box(3u64) * 7));
        group.finish();
    }
    let report = c.report_json();
    let text = report.to_string();
    let parsed = json::parse(&text).expect("report must be valid JSON");
    assert_eq!(parsed.get("schema").unwrap().as_str(), Some("genio-bench/v1"));
    assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("E-T0"));
    assert_eq!(parsed.get("target").unwrap().as_str(), Some("selftest_target"));
    let benches = parsed.get("benches").unwrap().as_arr().unwrap();
    assert_eq!(benches.len(), 2);
    for b in benches {
        let rec = Record::from_json(b).expect("each bench parses back");
        assert!(rec.min_ns <= rec.median_ns);
        assert!(rec.median_ns <= rec.p95_ns);
        assert!(rec.p95_ns <= rec.max_ns);
        assert!(rec.samples >= 3);
    }
    assert_eq!(benches[1].get("name").unwrap().as_str(), Some("grp/add"));
}

#[test]
fn bench_filter_skips_nonmatching() {
    let mut c = Criterion::new("t", true, Some("match-me".into()));
    c.bench_function("other", |b| b.iter(|| 0u8));
    c.bench_function("match-me/x", |b| b.iter(|| 0u8));
    assert_eq!(c.records().len(), 1);
    assert_eq!(c.records()[0].name, "match-me/x");
}

#[test]
fn paired_benches_record_both_rows_and_one_ratio_per_pair() {
    let mut c = Criterion::new("t", true, None);
    let ratios = {
        let mut group = c.benchmark_group("pair");
        group.sample_size(5);
        group.bench_paired(
            "one",
            || std::hint::black_box(3u64) * 7,
            "two",
            || std::hint::black_box(5u64) * 11,
        )
    };
    let names: Vec<&str> = c.records().iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["pair/one", "pair/two"]);
    assert_eq!(ratios.len() as u64, c.records()[0].samples);
    assert_eq!(c.records()[0].samples, c.records()[1].samples);
    assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0));

    // A filter that matches neither name skips the pair.
    let mut c = Criterion::new("t", true, Some("match-me".into()));
    let ratios = c.benchmark_group("pair").bench_paired("one", || 0u8, "two", || 0u8);
    assert!(ratios.is_empty());
    assert!(c.records().is_empty());
}

// The macro surface itself, exercised end-to-end as real tests.
property! {
    /// Concatenation length is additive.
    fn concat_length_additive(a in bytes(0..32), b in bytes(0..32)) {
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        prop_assert_eq!(joined.len(), a.len() + b.len());
    }
}

property! {
    cases = 128;
    /// Sorting is idempotent (and `cases = N;` is honoured).
    fn sort_idempotent(mut v in vec(0u32..1000, 0..24)) {
        v.sort_unstable();
        let once = v.clone();
        v.sort_unstable();
        prop_assert_eq!(v, once);
    }
}

property! {
    /// prop_assume! discards cases without failing them.
    fn assume_filters(n in 0u32..100) {
        prop_assume!(n % 2 == 0);
        prop_assert_eq!(n % 2, 0);
    }
}

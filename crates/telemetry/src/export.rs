//! Exporters: a point-in-time [`Snapshot`] rendered as `genio-telemetry/v1`
//! JSON (via the testkit JSON value type, so the round-trip is testable
//! with the in-tree parser) or as Prometheus-style exposition text.

use genio_testkit::json::Value;

use crate::metrics::{quantile_from_buckets, HistogramCore, HISTOGRAM_BUCKETS};
use crate::ring::RingStats;

/// Quantile summary captured for each histogram.
pub const QUANTILES: [(f64, &str); 3] = [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")];

/// Frozen view of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub mean: f64,
    /// (quantile, estimate) pairs in [`QUANTILES`] order.
    pub quantiles: [(f64, u64); QUANTILES.len()],
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Freezes `cell` under the exported name `name`; the quantiles are
    /// walked over the same bucket counts the snapshot carries.
    pub(crate) fn of(name: String, cell: &HistogramCore) -> HistogramSnapshot {
        let (count, sum, max) = (cell.count(), cell.sum(), cell.max());
        let buckets = cell.bucket_counts();
        let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
        let quantiles = QUANTILES.map(|(q, _)| (q, quantile_from_buckets(&buckets, count, max, q)));
        HistogramSnapshot { name, count, sum, max, mean, quantiles, buckets }
    }
}

/// Frozen view of the whole telemetry state, produced by
/// [`crate::Telemetry::snapshot`]. All exporters read from here so the
/// two formats can never disagree about the underlying numbers.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
    pub ring: RingStats,
}

impl Snapshot {
    /// Counter value by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a `genio-telemetry/v1` JSON document.
    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters.iter().map(|(n, v)| (n.clone(), Value::Num(*v as f64))).collect(),
        );
        let histograms = Value::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    let mut fields = vec![
                        ("name".to_string(), Value::Str(h.name.clone())),
                        ("count".to_string(), Value::Num(h.count as f64)),
                        ("sum".to_string(), Value::Num(h.sum as f64)),
                        ("max".to_string(), Value::Num(h.max as f64)),
                        ("mean".to_string(), Value::Num(h.mean)),
                    ];
                    for ((_, label), (_, estimate)) in QUANTILES.iter().zip(h.quantiles.iter()) {
                        fields.push((label.to_string(), Value::Num(*estimate as f64)));
                    }
                    Value::Obj(fields)
                })
                .collect(),
        );
        let ring = Value::Obj(vec![
            ("recorded".to_string(), Value::Num(self.ring.recorded as f64)),
            ("dropped".to_string(), Value::Num(self.ring.dropped as f64)),
            ("drained".to_string(), Value::Num(self.ring.drained as f64)),
            ("buffered".to_string(), Value::Num(self.ring.buffered as f64)),
        ]);
        Value::Obj(vec![
            ("schema".to_string(), Value::Str("genio-telemetry/v1".to_string())),
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
            ("ring".to_string(), ring),
        ])
    }

    /// Renders the snapshot as Prometheus-style exposition text. Metric
    /// names are mangled to the Prometheus charset (`.`/`-` → `_`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let mangled = mangle(name);
            out.push_str(&format!("# TYPE {mangled} counter\n{mangled} {value}\n"));
        }
        for h in &self.histograms {
            let mangled = mangle(&h.name);
            out.push_str(&format!("# TYPE {mangled} histogram\n"));
            // Cumulative `_bucket` series: one line per occupied prefix,
            // `le` = the bucket's inclusive upper bound (2^(i+1) - 1),
            // then the mandatory `+Inf` bucket equal to the total count.
            let highest = h.buckets.iter().rposition(|&c| c > 0);
            let mut cumulative = 0u64;
            if let Some(highest) = highest {
                for (i, count) in h.buckets.iter().enumerate().take(highest + 1) {
                    cumulative += count;
                    let le =
                        if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                    out.push_str(&format!("{mangled}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{mangled}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{mangled}_sum {}\n{mangled}_count {}\n", h.sum, h.count));
        }
        out.push_str(&format!(
            "# TYPE genio_trace_ring_events counter\n\
             genio_trace_ring_events{{state=\"recorded\"}} {}\n\
             genio_trace_ring_events{{state=\"dropped\"}} {}\n\
             genio_trace_ring_events{{state=\"drained\"}} {}\n\
             genio_trace_ring_events{{state=\"buffered\"}} {}\n",
            self.ring.recorded, self.ring.dropped, self.ring.drained, self.ring.buffered
        ));
        out
    }
}

/// Maps a dotted metric name onto the Prometheus charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`): every illegal character becomes `_`, and
/// a leading digit is escaped with a `_` prefix so the result is always
/// a legal metric name.
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.push('_');
    }
    out.extend(
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangle_maps_dots_and_dashes() {
        assert_eq!(mangle("pon.tick-ns"), "pon_tick_ns");
    }

    #[test]
    fn mangle_escapes_leading_digits_and_odd_chars() {
        assert_eq!(mangle("5g.ran/slice"), "_5g_ran_slice");
        assert_eq!(mangle("ok_name"), "ok_name");
        assert_eq!(mangle("λ.rate"), "__rate");
    }

    fn sample_histogram() -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[0] = 3; // three observations of 1
        buckets[9] = 2; // two in [512, 1024)
        HistogramSnapshot {
            name: "pon.tick_ns".to_string(),
            count: 5,
            sum: 3 + 2 * 600,
            max: 700,
            mean: (3 + 2 * 600) as f64 / 5.0,
            quantiles: [(0.5, 1), (0.95, 1023), (0.99, 1023)],
            buckets,
        }
    }

    /// Parses `name{le="bound"} value` / `name value` exposition lines
    /// back into (key, value) pairs — the round-trip half of the
    /// conformance pin.
    fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect()
    }

    #[test]
    fn prometheus_histograms_are_cumulative_and_round_trip() {
        let snap = Snapshot {
            counters: vec![],
            histograms: vec![sample_histogram()],
            ring: RingStats::default(),
        };
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE pon_tick_ns histogram"));
        let series = parse_prometheus(&text);
        let get = |k: &str| series.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        // Bucket series is cumulative: bucket 0 holds 3, bucket 9 brings
        // the running total to 5, +Inf equals the count.
        assert_eq!(get("pon_tick_ns_bucket{le=\"1\"}"), Some(3.0));
        assert_eq!(get("pon_tick_ns_bucket{le=\"1023\"}"), Some(5.0));
        assert_eq!(get("pon_tick_ns_bucket{le=\"+Inf\"}"), Some(5.0));
        assert_eq!(get("pon_tick_ns_sum"), Some(1203.0));
        assert_eq!(get("pon_tick_ns_count"), Some(5.0));
        // Cumulative counts never decrease along the bucket series.
        let mut last = 0.0f64;
        for (k, v) in &series {
            if k.starts_with("pon_tick_ns_bucket") {
                assert!(*v >= last, "non-monotone bucket series at {k}");
                last = *v;
            }
        }
    }

    #[test]
    fn prometheus_empty_histogram_still_emits_inf_bucket() {
        let snap = Snapshot {
            counters: vec![],
            histograms: vec![HistogramSnapshot {
                name: "quiet".to_string(),
                count: 0,
                sum: 0,
                max: 0,
                mean: 0.0,
                quantiles: [(0.5, 0), (0.95, 0), (0.99, 0)],
                buckets: [0; HISTOGRAM_BUCKETS],
            }],
            ring: RingStats::default(),
        };
        let text = snap.to_prometheus();
        assert!(text.contains("quiet_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("quiet_count 0"));
    }

    #[test]
    fn json_schema_field_is_versioned() {
        let snap = Snapshot::default();
        let doc = snap.to_json();
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("genio-telemetry/v1"));
    }

    #[test]
    fn prometheus_text_mentions_every_metric() {
        let snap = Snapshot {
            counters: vec![("pon.frames_sent".to_string(), 7)],
            histograms: vec![],
            ring: RingStats::default(),
        };
        let text = snap.to_prometheus();
        assert!(text.contains("pon_frames_sent 7"));
        assert!(text.contains("genio_trace_ring_events{state=\"recorded\"} 0"));
    }
}

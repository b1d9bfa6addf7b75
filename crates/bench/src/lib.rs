//! # genio-bench
//!
//! Shared helpers for the benchmark harness that regenerates every figure
//! and lesson of the paper. Each bench target prints its paper-shaped
//! table once (so `cargo bench` output doubles as the experiment log) and
//! then measures the hot paths with Criterion.
//!
//! Bench targets (see `EXPERIMENTS.md` for the index):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig1_deployment` | Fig. 1 deployment/placement |
//! | `fig2_architecture` | Fig. 2 architecture inventory |
//! | `fig3_coverage` | Fig. 3 threat×mitigation matrix |
//! | `lesson1_hardening` … `lesson8_runtime` | Lessons 1–8 |
//! | `scenario_campaign` | the §III threat model end-to-end (E-S1) |

#![forbid(unsafe_code)]

use std::sync::Once;

use genio_crypto::gcm::{AesGcm, Input};

/// Prints a labelled experiment block exactly once per process, so the
/// table appears a single time in `cargo bench` output regardless of how
/// many times Criterion invokes the setup.
pub fn print_experiment_once(once: &'static Once, title: &str, body: &str) {
    once.call_once(|| {
        println!("\n================================================================");
        println!("{title}");
        println!("================================================================");
        println!("{body}");
    });
}

/// Seals `inputs` as one burst, then opens the sealed burst: the
/// round trip the batched data-plane rows time.
pub fn gcm_round_trip(gcm: &AesGcm, inputs: &[Input<'_>]) -> Vec<genio_crypto::Result<Vec<u8>>> {
    let sealed = gcm.seal_many(inputs);
    let opening: Vec<Input> = inputs
        .iter()
        .zip(&sealed)
        .map(|(input, text)| Input { text, ..*input })
        .collect();
    gcm.open_many(&opening)
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn print_once_is_idempotent() {
        static ONCE: Once = Once::new();
        print_experiment_once(&ONCE, "t", "b");
        print_experiment_once(&ONCE, "t", "b");
    }
}

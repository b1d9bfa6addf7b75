//! # genio-pon
//!
//! A Passive Optical Network (PON) simulator: the hardware substrate the
//! GENIO platform (DSN 2025) repurposes for edge computing.
//!
//! The paper's far-edge layer is built from **ONUs** (Optical Network Units
//! at customer premises) attached through passive splitters to **OLTs**
//! (Optical Line Terminals in the central office). Two physical facts drive
//! the paper's infrastructure-level threat model (T1):
//!
//! 1. **Downstream is broadcast** — every ONU on a PON tree receives every
//!    downstream frame, so a tapped fiber or a promiscuous ONU can observe
//!    all tenants' traffic unless payloads are encrypted (mitigation M3).
//! 2. **Upstream is time-division multiplexed** — the OLT grants transmission
//!    windows, so a rogue ONU can attempt to impersonate a legitimate one
//!    during activation unless the OLT authenticates it (mitigation M4).
//!
//! This crate models exactly those mechanics:
//!
//! * [`topology`] — OLTs, splitters, ONUs, fiber spans and their latency.
//! * [`frame`] — GEM-like downstream frames and upstream bursts, plus
//!   PLOAM-like control messages.
//! * [`activation`] — the ONU activation state machine
//!   (discovery → ranging → operational), with hooks for serial-number-only
//!   or certificate-based admission.
//! * [`tdma`] — the upstream bandwidth-map scheduler (a simplified DBA).
//! * [`security`] — per-ONU AES-GCM payload encryption as recommended by
//!   ITU-T G.987.3.
//! * [`attack`] — attack injectors for the paper's T1 threats: fiber taps,
//!   replay, ONU impersonation and downstream hijack.
//! * [`wheel`] — a hierarchical timer wheel (4 levels × 64 slots) with
//!   deterministic timestamp-then-insertion-order firing.
//! * [`engine`] — the fleet-scale sharded discrete-event engine
//!   (experiment E-S2): struct-of-arrays ONU state, per-tree event
//!   streams on shard workers, batched TDMA, deterministic merge.
//! * [`reference`] — the object-per-ONU stepper retained as the oracle
//!   for the differential test harness (`tests/engine_differential.rs`);
//!   a one-tree reference run is also the system-level T1 view (a fiber
//!   tap, a replay attacker and a rogue ONU against the real mechanism
//!   objects) that the attack-campaign example prints.
//!
//! # Example
//!
//! ```
//! use genio_pon::topology::PonTree;
//! use genio_pon::security::GemCrypto;
//!
//! # fn main() -> genio_pon::Result<()> {
//! let mut tree = PonTree::builder("olt-1").split_ratio(32).build();
//! let onu = tree.attach_onu("onu-1", 2_500)?; // 2.5 km of fiber
//! assert!(tree.onu(onu).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod attack;
pub mod engine;
pub mod frame;
pub mod reference;
pub mod security;
pub mod tdma;
pub mod topology;
pub mod wheel;

mod error;

pub use error::PonError;

/// Convenience alias for fallible PON operations.
pub type Result<T> = std::result::Result<T, PonError>;

//! Upstream TDMA scheduling: the OLT's dynamic bandwidth allocation (DBA).
//!
//! Upstream capacity on a PON is a single shared channel; the OLT divides
//! each cycle into per-ONU transmission windows. The scheduler matters to
//! the threat model twice: a rogue ONU transmitting **outside** its grant
//! collides with legitimate traffic (part of threat T1), and a greedy tenant
//! demanding outsized grants is the PON-side face of the paper's *resource
//! abuse* threat (T8), which the DBA's fairness policy bounds.

use std::collections::BTreeMap;

use crate::frame::UpstreamBurst;
use crate::topology::OnuId;
use crate::PonError;

/// Upstream service class, mirroring XG-PON T-CONT types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceClass {
    /// Fixed bandwidth: reserved every cycle regardless of demand.
    Fixed,
    /// Assured bandwidth: guaranteed when requested.
    Assured,
    /// Best effort: shares what remains.
    BestEffort,
}

/// A bandwidth request from one ONU for the next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthRequest {
    /// Requesting ONU.
    pub onu: OnuId,
    /// Bytes queued for upstream transmission.
    pub queued_bytes: u64,
    /// Service class of the ONU's traffic contract.
    pub class: ServiceClass,
}

/// One granted transmission window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Grantee.
    pub onu: OnuId,
    /// Window start within the cycle, nanoseconds.
    pub start_ns: u64,
    /// Window duration, nanoseconds.
    pub duration_ns: u64,
    /// Bytes the window can carry.
    pub bytes: u64,
}

/// A computed bandwidth map for one upstream cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthMap {
    cycle_ns: u64,
    grants: BTreeMap<OnuId, Grant>,
}

/// DBA configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbaConfig {
    /// Cycle length in nanoseconds (XGS-PON uses 125 µs).
    pub cycle_ns: u64,
    /// Upstream line rate in bytes per nanosecond worth of window.
    /// XGS-PON upstream is ~10 Gb/s ≈ 1.25 bytes/ns.
    pub bytes_per_ns: f64,
    /// Hard cap on the fraction of a cycle a single ONU may receive
    /// (fairness bound against resource abuse). `1.0` disables the cap.
    pub max_share: f64,
}

impl Default for DbaConfig {
    fn default() -> Self {
        DbaConfig {
            cycle_ns: 125_000,
            bytes_per_ns: 1.25,
            max_share: 0.5,
        }
    }
}

/// Computes a bandwidth map from the cycle's requests.
///
/// Allocation order: [`ServiceClass::Fixed`] first, then
/// [`ServiceClass::Assured`], then [`ServiceClass::BestEffort`] splits the
/// remainder proportionally to demand. Every grantee is capped at
/// `max_share` of the cycle.
pub fn compute_map(config: &DbaConfig, requests: &[BandwidthRequest]) -> BandwidthMap {
    let cycle_capacity = (config.cycle_ns as f64 * config.bytes_per_ns) as u64;
    let per_onu_cap = (cycle_capacity as f64 * config.max_share) as u64;
    let mut remaining = cycle_capacity;
    let mut awarded: BTreeMap<OnuId, u64> = BTreeMap::new();

    for class in [ServiceClass::Fixed, ServiceClass::Assured] {
        for req in requests.iter().filter(|r| r.class == class) {
            // The cap applies to the ONU's accumulated award, so multiple
            // requests from one ONU cannot stack past it.
            let already = awarded.get(&req.onu).copied().unwrap_or(0);
            let headroom = per_onu_cap.saturating_sub(already);
            let give = req.queued_bytes.min(headroom).min(remaining);
            if give > 0 {
                *awarded.entry(req.onu).or_insert(0) += give;
                remaining -= give;
            }
        }
    }
    // Best effort: iterative water-filling over per-ONU aggregated demand.
    // Each round splits the remaining pool proportionally to *unmet*
    // demand; rounds repeat so that one outsized requester hitting its cap
    // cannot strand capacity that smaller requesters still want.
    let mut be_demand: BTreeMap<OnuId, u64> = BTreeMap::new();
    for req in requests
        .iter()
        .filter(|r| r.class == ServiceClass::BestEffort)
    {
        let d = be_demand.entry(req.onu).or_insert(0);
        *d = d.saturating_add(req.queued_bytes);
    }
    let mut be_granted: BTreeMap<OnuId, u64> = BTreeMap::new();
    for _round in 0..8 {
        let unmet: Vec<(OnuId, u64)> = be_demand
            .iter()
            .map(|(&onu, &demand)| {
                let got = be_granted.get(&onu).copied().unwrap_or(0);
                let already = awarded.get(&onu).copied().unwrap_or(0) + got;
                let headroom = per_onu_cap.saturating_sub(already);
                (onu, demand.saturating_sub(got).min(headroom))
            })
            .filter(|(_, want)| *want > 0)
            .collect();
        let total_unmet: u64 = unmet.iter().map(|(_, w)| w).sum();
        if total_unmet == 0 || remaining == 0 {
            break;
        }
        let pool = remaining;
        let mut progressed = false;
        for (onu, want) in unmet {
            let fair = (pool as u128 * want as u128 / total_unmet as u128) as u64;
            let give = fair.max(1).min(want).min(remaining);
            if give > 0 {
                *be_granted.entry(onu).or_insert(0) += give;
                remaining -= give;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for (onu, bytes) in be_granted {
        *awarded.entry(onu).or_insert(0) += bytes;
    }

    // Lay windows out back-to-back in ONU-id order.
    let mut grants = BTreeMap::new();
    let mut cursor_ns = 0u64;
    for (onu, bytes) in awarded {
        let duration_ns = (bytes as f64 / config.bytes_per_ns).ceil() as u64;
        grants.insert(
            onu,
            Grant {
                onu,
                start_ns: cursor_ns,
                duration_ns,
                bytes,
            },
        );
        cursor_ns += duration_ns;
    }
    BandwidthMap {
        cycle_ns: config.cycle_ns,
        grants,
    }
}

/// Jain's fairness index over a sequence of granted byte counts: 1.0 =
/// perfectly fair. `None` when the sequence is empty or all-zero.
///
/// Shared by [`BandwidthMap::fairness_index`] and the batched engine
/// path so both compute bit-identical values (the differential harness
/// compares the folded sums exactly).
pub fn jain_fairness(bytes: impl Iterator<Item = u64>) -> Option<f64> {
    let xs: Vec<f64> = bytes.map(|b| b as f64).collect();
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return None;
    }
    Some(sum * sum / (xs.len() as f64 * sum_sq))
}

/// Reusable struct-of-arrays output of the batched DBA path
/// ([`compute_grants_into`]): one entry per granted ONU, in ONU-id
/// order, windows laid back-to-back. Private scratch vectors ride along
/// so a per-shard instance makes the whole TDMA cycle allocation-free
/// after warmup.
#[derive(Debug, Default, Clone)]
pub struct BatchGrants {
    /// Grantees, ascending.
    pub onus: Vec<OnuId>,
    /// Bytes granted, aligned with `onus`.
    pub bytes: Vec<u64>,
    /// Window starts within the cycle (ns), aligned with `onus`.
    pub start_ns: Vec<u64>,
    /// Window durations (ns), aligned with `onus`.
    pub duration_ns: Vec<u64>,
    // Scratch (per-request, cleared each call).
    fixed_award: Vec<u64>,
    be_award: Vec<u64>,
    wants: Vec<u64>,
}

impl BatchGrants {
    /// An empty buffer set.
    pub fn new() -> BatchGrants {
        BatchGrants::default()
    }

    /// Number of granted ONUs.
    pub fn len(&self) -> usize {
        self.onus.len()
    }

    /// Whether nothing was granted.
    pub fn is_empty(&self) -> bool {
        self.onus.is_empty()
    }

    /// Total bytes granted this cycle.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Grants as `(onu, bytes, start_ns, duration_ns)` tuples in window
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (OnuId, u64, u64, u64)> + '_ {
        self.onus
            .iter()
            .zip(&self.bytes)
            .zip(&self.start_ns)
            .zip(&self.duration_ns)
            .map(|(((&onu, &bytes), &start), &dur)| (onu, bytes, start, dur))
    }

    fn clear(&mut self, requests: usize) {
        self.onus.clear();
        self.bytes.clear();
        self.start_ns.clear();
        self.duration_ns.clear();
        self.fixed_award.clear();
        self.fixed_award.resize(requests, 0);
        self.be_award.clear();
        self.be_award.resize(requests, 0);
        self.wants.clear();
        self.wants.resize(requests, 0);
    }
}

/// Batched DBA for the fleet engine: one request per ONU, sorted by
/// ascending ONU id, grants written into reusable [`BatchGrants`]
/// buffers. Produces **exactly** the allocation [`compute_map`] would
/// for the same input — the same class passes, the same 8-round
/// best-effort water-fill with identical integer arithmetic, the same
/// back-to-back window layout — which the differential suite pins
/// grant-for-grant. The only difference is mechanical: no `BTreeMap`,
/// no per-call allocation.
pub fn compute_grants_into(
    config: &DbaConfig,
    requests: &[BandwidthRequest],
    out: &mut BatchGrants,
) {
    debug_assert!(
        requests.windows(2).all(|w| w[0].onu < w[1].onu),
        "batched DBA input must be one request per ONU, ascending"
    );
    out.clear(requests.len());
    let cycle_capacity = (config.cycle_ns as f64 * config.bytes_per_ns) as u64;
    let per_onu_cap = (cycle_capacity as f64 * config.max_share) as u64;
    let mut remaining = cycle_capacity;

    for class in [ServiceClass::Fixed, ServiceClass::Assured] {
        for (i, req) in requests.iter().enumerate() {
            if req.class != class {
                continue;
            }
            let already = out.fixed_award.get(i).copied().unwrap_or(0);
            let headroom = per_onu_cap.saturating_sub(already);
            let give = req.queued_bytes.min(headroom).min(remaining);
            if give > 0 {
                if let Some(a) = out.fixed_award.get_mut(i) {
                    *a += give;
                }
                remaining -= give;
            }
        }
    }

    // Best effort: the same iterative water-filling as `compute_map`,
    // over the implicit per-ONU demand (one request per ONU here).
    for _round in 0..8 {
        let mut total_unmet = 0u64;
        for (i, req) in requests.iter().enumerate() {
            let want = if req.class == ServiceClass::BestEffort {
                let got = out.be_award.get(i).copied().unwrap_or(0);
                let already = out.fixed_award.get(i).copied().unwrap_or(0) + got;
                let headroom = per_onu_cap.saturating_sub(already);
                req.queued_bytes.saturating_sub(got).min(headroom)
            } else {
                0
            };
            if let Some(w) = out.wants.get_mut(i) {
                *w = want;
            }
            total_unmet += want;
        }
        if total_unmet == 0 || remaining == 0 {
            break;
        }
        let pool = remaining;
        let mut progressed = false;
        for (i, want) in out.wants.iter().copied().enumerate() {
            if want == 0 {
                continue;
            }
            let fair = (pool as u128 * want as u128 / total_unmet as u128) as u64;
            let give = fair.max(1).min(want).min(remaining);
            if give > 0 {
                if let Some(a) = out.be_award.get_mut(i) {
                    *a += give;
                }
                remaining -= give;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Window layout back-to-back in ONU-id (= input) order.
    let mut cursor_ns = 0u64;
    for (i, req) in requests.iter().enumerate() {
        let total = out.fixed_award.get(i).copied().unwrap_or(0)
            + out.be_award.get(i).copied().unwrap_or(0);
        if total == 0 {
            continue;
        }
        let duration_ns = (total as f64 / config.bytes_per_ns).ceil() as u64;
        out.onus.push(req.onu);
        out.bytes.push(total);
        out.start_ns.push(cursor_ns);
        out.duration_ns.push(duration_ns);
        cursor_ns += duration_ns;
    }
}

impl BandwidthMap {
    /// The cycle length this map covers, nanoseconds.
    pub fn cycle_ns(&self) -> u64 {
        self.cycle_ns
    }

    /// Grant for `onu`, if any.
    pub fn grant(&self, onu: OnuId) -> Option<&Grant> {
        self.grants.get(&onu)
    }

    /// All grants in window order.
    pub fn grants(&self) -> impl Iterator<Item = &Grant> {
        self.grants.values()
    }

    /// Total bytes granted this cycle.
    pub fn total_bytes(&self) -> u64 {
        self.grants.values().map(|g| g.bytes).sum()
    }

    /// Validates that an upstream burst fits inside its sender's window.
    ///
    /// # Errors
    ///
    /// Returns [`PonError::OutsideGrant`] if the sender has no grant or
    /// transmitted outside it.
    pub fn validate_burst(&self, burst: &UpstreamBurst) -> crate::Result<()> {
        let grant = self
            .grants
            .get(&burst.source)
            .ok_or(PonError::OutsideGrant { onu: burst.source })?;
        let end = grant.start_ns + grant.duration_ns;
        if burst.window_start_ns < grant.start_ns || burst.window_start_ns >= end {
            return Err(PonError::OutsideGrant { onu: burst.source });
        }
        Ok(())
    }

    /// Jain's fairness index over granted bytes, in ONU-id order
    /// ([`jain_fairness`]): 1.0 = perfectly fair. Returns `None` when
    /// nothing was granted.
    pub fn fairness_index(&self) -> Option<f64> {
        jain_fairness(self.grants.values().map(|g| g.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PayloadKind;

    fn req(onu: OnuId, bytes: u64, class: ServiceClass) -> BandwidthRequest {
        BandwidthRequest {
            onu,
            queued_bytes: bytes,
            class,
        }
    }

    fn burst(onu: OnuId, at: u64) -> UpstreamBurst {
        UpstreamBurst {
            source: onu,
            port: 1,
            counter: 0,
            payload: vec![],
            kind: PayloadKind::Clear,
            window_start_ns: at,
        }
    }

    #[test]
    fn fixed_served_before_best_effort() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        // Capacity 1000 bytes; fixed asks 800, best-effort asks 800.
        let map = compute_map(
            &cfg,
            &[
                req(1, 800, ServiceClass::Fixed),
                req(2, 800, ServiceClass::BestEffort),
            ],
        );
        assert_eq!(map.grant(1).unwrap().bytes, 800);
        assert_eq!(map.grant(2).unwrap().bytes, 200);
    }

    #[test]
    fn best_effort_is_proportional() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        let map = compute_map(
            &cfg,
            &[
                req(1, 300, ServiceClass::BestEffort),
                req(2, 100, ServiceClass::BestEffort),
            ],
        );
        // Demand 400 < capacity 1000, so grants are proportional to demand
        // (pool split by demand share: 750/250).
        let g1 = map.grant(1).unwrap().bytes;
        let g2 = map.grant(2).unwrap().bytes;
        assert!(g1 >= 3 * g2 - 3 && g1 <= 3 * g2 + 3, "g1={g1} g2={g2}");
    }

    #[test]
    fn max_share_caps_greedy_onu() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 0.25,
        };
        let map = compute_map(
            &cfg,
            &[
                req(1, 10_000, ServiceClass::Assured),
                req(2, 100, ServiceClass::Assured),
            ],
        );
        assert_eq!(map.grant(1).unwrap().bytes, 250, "greedy onu capped at 25%");
        assert_eq!(map.grant(2).unwrap().bytes, 100);
    }

    #[test]
    fn windows_do_not_overlap() {
        let cfg = DbaConfig::default();
        let map = compute_map(
            &cfg,
            &[
                req(1, 10_000, ServiceClass::Assured),
                req(2, 20_000, ServiceClass::Assured),
                req(3, 5_000, ServiceClass::BestEffort),
            ],
        );
        let grants: Vec<&Grant> = map.grants().collect();
        for w in grants.windows(2) {
            assert!(w[0].start_ns + w[0].duration_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn burst_inside_grant_accepted() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        let map = compute_map(&cfg, &[req(1, 100, ServiceClass::Assured)]);
        let g = *map.grant(1).unwrap();
        assert!(map.validate_burst(&burst(1, g.start_ns)).is_ok());
        assert!(map
            .validate_burst(&burst(1, g.start_ns + g.duration_ns - 1))
            .is_ok());
    }

    #[test]
    fn burst_outside_grant_rejected() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        let map = compute_map(&cfg, &[req(1, 100, ServiceClass::Assured)]);
        let g = *map.grant(1).unwrap();
        assert_eq!(
            map.validate_burst(&burst(1, g.start_ns + g.duration_ns)),
            Err(PonError::OutsideGrant { onu: 1 })
        );
    }

    #[test]
    fn ungranted_onu_rejected() {
        let cfg = DbaConfig::default();
        let map = compute_map(&cfg, &[req(1, 100, ServiceClass::Assured)]);
        assert_eq!(
            map.validate_burst(&burst(99, 0)),
            Err(PonError::OutsideGrant { onu: 99 })
        );
    }

    #[test]
    fn fairness_index_perfect_when_equal() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        let map = compute_map(
            &cfg,
            &[
                req(1, 100, ServiceClass::Assured),
                req(2, 100, ServiceClass::Assured),
            ],
        );
        let f = map.fairness_index().unwrap();
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_index_degrades_when_skewed() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        let map = compute_map(
            &cfg,
            &[
                req(1, 900, ServiceClass::Assured),
                req(2, 100, ServiceClass::Assured),
            ],
        );
        assert!(map.fairness_index().unwrap() < 0.7);
    }

    #[test]
    fn empty_requests_empty_map() {
        let map = compute_map(&DbaConfig::default(), &[]);
        assert_eq!(map.total_bytes(), 0);
        assert!(map.fairness_index().is_none());
    }

    #[test]
    fn capacity_never_exceeded() {
        let cfg = DbaConfig {
            cycle_ns: 1_000,
            bytes_per_ns: 1.0,
            max_share: 1.0,
        };
        let reqs: Vec<BandwidthRequest> = (1..=10)
            .map(|i| req(i, 5_000, ServiceClass::Assured))
            .collect();
        let map = compute_map(&cfg, &reqs);
        assert!(map.total_bytes() <= 1_000);
    }
}

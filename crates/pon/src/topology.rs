//! PON tree topology: one OLT PON port, a passive splitter, and the ONUs
//! hanging off it.
//!
//! Fig. 1 of the paper places OLTs in telecom central offices (the *edge*
//! layer) and ONUs at customer premises (the *far-edge* layer). A single OLT
//! typically serves several PON trees; each tree shares one fiber trunk
//! through a passive splitter, which is why downstream traffic is physically
//! broadcast to every ONU.

use std::collections::BTreeMap;

use crate::PonError;

/// Identifier of an ONU within one PON tree (assigned by the OLT).
pub type OnuId = u32;

/// Speed of light in fiber, meters per microsecond (group velocity ≈ c/1.468).
const FIBER_M_PER_US: f64 = 204.0;

/// Maximum physical reach of the simulated PON standard (XGS-PON: 40 km
/// logical reach).
pub const MAX_REACH_M: u32 = 40_000;

/// Operational state of an attached ONU as seen by the topology layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnuStatus {
    /// Physically attached, not yet activated.
    Dark,
    /// Activation in progress.
    Activating,
    /// Ranged and carrying traffic.
    Operational,
    /// Administratively disabled (e.g. after a failed admission).
    Disabled,
}

/// An Optical Network Unit attached to the tree.
#[derive(Debug, Clone)]
pub struct Onu {
    /// OLT-assigned identifier.
    pub id: OnuId,
    /// Vendor serial number (the identity used by legacy activation).
    pub serial: String,
    /// Fiber distance from the splitter, in meters.
    pub fiber_m: u32,
    /// Current status.
    pub status: OnuStatus,
    /// Equalization delay assigned during ranging, in nanoseconds.
    pub eq_delay_ns: u64,
}

/// One-way propagation delay over `total_m` meters of fiber, in
/// nanoseconds. Free-function form of [`Onu::propagation_ns`] so the
/// fleet engine (which has no `Onu` objects) computes bit-identical
/// delays to the object-per-ONU reference path.
pub fn propagation_delay_ns(total_m: u64) -> u64 {
    (total_m as f64 / FIBER_M_PER_US * 1_000.0) as u64
}

impl Onu {
    /// One-way propagation delay from OLT to this ONU, in nanoseconds.
    pub fn propagation_ns(&self, trunk_m: u32) -> u64 {
        propagation_delay_ns(u64::from(self.fiber_m) + u64::from(trunk_m))
    }
}

/// Builder for [`PonTree`].
#[derive(Debug, Clone)]
pub struct PonTreeBuilder {
    olt_name: String,
    split_ratio: usize,
    trunk_m: u32,
}

impl PonTreeBuilder {
    /// Sets the passive split ratio (how many ONUs the tree supports).
    /// Typical deployments use 1:32 or 1:64.
    pub fn split_ratio(mut self, ratio: usize) -> Self {
        self.split_ratio = ratio;
        self
    }

    /// Sets the trunk fiber length from OLT to splitter, in meters.
    pub fn trunk_m(mut self, meters: u32) -> Self {
        self.trunk_m = meters;
        self
    }

    /// Builds the tree.
    pub fn build(self) -> PonTree {
        PonTree {
            olt_name: self.olt_name,
            split_ratio: self.split_ratio,
            trunk_m: self.trunk_m,
            onus: BTreeMap::new(),
            by_serial: BTreeMap::new(),
            next_id: 1,
        }
    }
}

/// A single PON tree: one OLT port, one splitter, up to `split_ratio` ONUs.
///
/// # Example
///
/// ```
/// use genio_pon::topology::PonTree;
///
/// # fn main() -> genio_pon::Result<()> {
/// let mut tree = PonTree::builder("olt-napoli-1").split_ratio(4).trunk_m(12_000).build();
/// let a = tree.attach_onu("SMBS-0001", 800)?;
/// let b = tree.attach_onu("SMBS-0002", 2_300)?;
/// assert_ne!(a, b);
/// assert_eq!(tree.onu_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PonTree {
    olt_name: String,
    split_ratio: usize,
    trunk_m: u32,
    onus: BTreeMap<OnuId, Onu>,
    /// Serial → id index so admission checks and activation lookups are
    /// O(log n) instead of a linear scan over the tree.
    by_serial: BTreeMap<String, OnuId>,
    next_id: OnuId,
}

impl PonTree {
    /// Starts building a tree rooted at the named OLT port.
    pub fn builder(olt_name: &str) -> PonTreeBuilder {
        PonTreeBuilder {
            olt_name: olt_name.to_string(),
            split_ratio: 32,
            trunk_m: 10_000,
        }
    }

    /// Name of the owning OLT port.
    pub fn olt_name(&self) -> &str {
        &self.olt_name
    }

    /// Configured split ratio.
    pub fn split_ratio(&self) -> usize {
        self.split_ratio
    }

    /// Trunk fiber length in meters.
    pub fn trunk_m(&self) -> u32 {
        self.trunk_m
    }

    /// Attaches a dark ONU with the given vendor serial and drop-fiber
    /// length, returning its OLT-assigned id.
    ///
    /// # Errors
    ///
    /// * [`PonError::SplitRatioExceeded`] if the splitter is full.
    /// * [`PonError::DuplicateSerial`] if the serial is already attached.
    /// * [`PonError::FiberTooLong`] if trunk + drop exceeds the standard's
    ///   reach.
    pub fn attach_onu(&mut self, serial: &str, fiber_m: u32) -> crate::Result<OnuId> {
        if self.onus.len() >= self.split_ratio {
            return Err(PonError::SplitRatioExceeded {
                capacity: self.split_ratio,
            });
        }
        if self.by_serial.contains_key(serial) {
            return Err(PonError::DuplicateSerial(serial.to_string()));
        }
        if self.trunk_m + fiber_m > MAX_REACH_M {
            return Err(PonError::FiberTooLong {
                meters: self.trunk_m + fiber_m,
                max: MAX_REACH_M,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.onus.insert(
            id,
            Onu {
                id,
                serial: serial.to_string(),
                fiber_m,
                status: OnuStatus::Dark,
                eq_delay_ns: 0,
            },
        );
        self.by_serial.insert(serial.to_string(), id);
        Ok(id)
    }

    /// Detaches an ONU (e.g. decommissioning or quarantine).
    ///
    /// # Errors
    ///
    /// Returns [`PonError::UnknownOnu`] if the id is not attached.
    pub fn detach_onu(&mut self, id: OnuId) -> crate::Result<Onu> {
        let onu = self.onus.remove(&id).ok_or(PonError::UnknownOnu(id))?;
        self.by_serial.remove(&onu.serial);
        Ok(onu)
    }

    /// Looks up an ONU by id.
    pub fn onu(&self, id: OnuId) -> Option<&Onu> {
        self.onus.get(&id)
    }

    /// Mutable lookup by id.
    pub fn onu_mut(&mut self, id: OnuId) -> Option<&mut Onu> {
        self.onus.get_mut(&id)
    }

    /// Looks up an ONU by vendor serial (indexed, O(log n)).
    pub fn onu_by_serial(&self, serial: &str) -> Option<&Onu> {
        self.by_serial.get(serial).and_then(|id| self.onus.get(id))
    }

    /// Number of attached ONUs.
    pub fn onu_count(&self) -> usize {
        self.onus.len()
    }

    /// Iterates over attached ONUs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Onu> {
        self.onus.values()
    }

    /// Ids of all ONUs currently operational.
    pub fn operational(&self) -> Vec<OnuId> {
        let mut out = Vec::new();
        self.operational_into(&mut out);
        out
    }

    /// Appends the ids of all operational ONUs to `out` in id order,
    /// reusing the caller's buffer (cleared first). Allocation-free on
    /// the steady state, which matters when called once per TDMA cycle.
    pub fn operational_into(&self, out: &mut Vec<OnuId>) {
        out.clear();
        out.extend(
            self.onus
                .values()
                .filter(|o| o.status == OnuStatus::Operational)
                .map(|o| o.id),
        );
    }

    /// Round-trip time to the farthest attached ONU, in nanoseconds —
    /// the ranging reference point used to compute equalization delays.
    /// `None` when the tree is empty. Propagation delay is monotone in
    /// fiber length, so one integer max over the fibers plus a single
    /// delay computation suffices (no per-ONU float math).
    pub fn max_rtt_ns(&self) -> Option<u64> {
        self.onus
            .values()
            .map(|o| o.fiber_m)
            .max()
            .map(|m| propagation_delay_ns(u64::from(m) + u64::from(self.trunk_m)) * 2)
    }

    /// Round-trip time from the OLT to the given ONU, in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`PonError::UnknownOnu`] if the id is not attached.
    pub fn rtt_ns(&self, id: OnuId) -> crate::Result<u64> {
        let onu = self.onu(id).ok_or(PonError::UnknownOnu(id))?;
        Ok(onu.propagation_ns(self.trunk_m) * 2)
    }

    /// The differential reach: the spread between the nearest and farthest
    /// ONU, which ranging must equalize. Zero when fewer than two ONUs.
    pub fn differential_reach_m(&self) -> u32 {
        let min = self.onus.values().map(|o| o.fiber_m).min().unwrap_or(0);
        let max = self.onus.values().map(|o| o.fiber_m).max().unwrap_or(0);
        max.saturating_sub(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> PonTree {
        PonTree::builder("olt-test")
            .split_ratio(4)
            .trunk_m(10_000)
            .build()
    }

    #[test]
    fn attach_assigns_sequential_ids() {
        let mut t = tree();
        assert_eq!(t.attach_onu("s1", 100).unwrap(), 1);
        assert_eq!(t.attach_onu("s2", 100).unwrap(), 2);
        assert_eq!(t.onu_count(), 2);
    }

    #[test]
    fn split_ratio_enforced() {
        let mut t = tree();
        for i in 0..4 {
            t.attach_onu(&format!("s{i}"), 100).unwrap();
        }
        assert_eq!(
            t.attach_onu("extra", 100),
            Err(PonError::SplitRatioExceeded { capacity: 4 })
        );
    }

    #[test]
    fn duplicate_serial_rejected() {
        let mut t = tree();
        t.attach_onu("dup", 100).unwrap();
        assert_eq!(
            t.attach_onu("dup", 200),
            Err(PonError::DuplicateSerial("dup".into()))
        );
    }

    #[test]
    fn fiber_reach_enforced() {
        let mut t = tree();
        assert!(matches!(
            t.attach_onu("far", 31_000),
            Err(PonError::FiberTooLong { .. })
        ));
        // Exactly at the limit is fine.
        t.attach_onu("edge", 30_000).unwrap();
    }

    #[test]
    fn detach_removes() {
        let mut t = tree();
        let id = t.attach_onu("s", 100).unwrap();
        let onu = t.detach_onu(id).unwrap();
        assert_eq!(onu.serial, "s");
        assert_eq!(t.detach_onu(id).unwrap_err(), PonError::UnknownOnu(id));
    }

    #[test]
    fn rtt_scales_with_distance() {
        let mut t = tree();
        let near = t.attach_onu("near", 100).unwrap();
        let far = t.attach_onu("far", 20_000).unwrap();
        assert!(t.rtt_ns(far).unwrap() > t.rtt_ns(near).unwrap());
        // 10 km trunk + 100 m drop ≈ 49.5 us one-way → RTT ≈ 99 us.
        let rtt = t.rtt_ns(near).unwrap();
        assert!((90_000..110_000).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn differential_reach() {
        let mut t = tree();
        assert_eq!(t.differential_reach_m(), 0);
        t.attach_onu("a", 500).unwrap();
        assert_eq!(t.differential_reach_m(), 0);
        t.attach_onu("b", 4_500).unwrap();
        assert_eq!(t.differential_reach_m(), 4_000);
    }

    #[test]
    fn lookup_by_serial() {
        let mut t = tree();
        let id = t.attach_onu("SER-42", 10).unwrap();
        assert_eq!(t.onu_by_serial("SER-42").unwrap().id, id);
        assert!(t.onu_by_serial("missing").is_none());
    }

    #[test]
    fn max_rtt_tracks_attach_and_detach() {
        let mut t = tree();
        assert_eq!(t.max_rtt_ns(), None);
        let near = t.attach_onu("near", 100).unwrap();
        let far = t.attach_onu("far", 20_000).unwrap();
        let brute = t
            .iter()
            .map(|o| o.propagation_ns(t.trunk_m()) * 2)
            .max()
            .unwrap();
        assert_eq!(t.max_rtt_ns(), Some(brute));
        assert_eq!(t.max_rtt_ns(), t.rtt_ns(far).ok());
        t.detach_onu(far).unwrap();
        assert_eq!(t.max_rtt_ns(), t.rtt_ns(near).ok());
    }

    #[test]
    fn operational_into_reuses_buffer() {
        let mut t = tree();
        let a = t.attach_onu("a", 10).unwrap();
        let b = t.attach_onu("b", 10).unwrap();
        t.onu_mut(a).unwrap().status = OnuStatus::Operational;
        t.onu_mut(b).unwrap().status = OnuStatus::Operational;
        let mut buf = vec![99, 98, 97];
        t.operational_into(&mut buf);
        assert_eq!(buf, vec![a, b]);
    }

    #[test]
    fn operational_filter() {
        let mut t = tree();
        let a = t.attach_onu("a", 10).unwrap();
        let _b = t.attach_onu("b", 10).unwrap();
        t.onu_mut(a).unwrap().status = OnuStatus::Operational;
        assert_eq!(t.operational(), vec![a]);
    }
}

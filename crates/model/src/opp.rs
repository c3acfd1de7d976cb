//! Operating performance points (OPPs) and OPP tables.
//!
//! An OPP couples a frequency with the minimum voltage able to sustain it
//! (the DVFS principle of paper §2.2.1) plus the two per-core power numbers
//! our calibrated device models need: the *idle* power of an online-but-idle
//! core at that OPP (the paper's measured "static" power, §4.1.2: 120 mW at
//! f_max, 47 mW at f_min on the Nexus 5) and the *additional dynamic* power
//! of a fully busy core (`C_eff · V² · f`, Eq. (1)).

use crate::error::ModelError;
use crate::units::{Khz, MilliVolts};

/// One operating performance point of a CPU core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opp {
    /// Core clock frequency.
    pub khz: Khz,
    /// Minimum rail voltage sustaining `khz`.
    pub mv: MilliVolts,
    /// Power of an online core that is idle (WFI, clock running) at this
    /// OPP, in mW. This is what the thesis measures as per-core "static"
    /// power (§4.1.2).
    pub idle_mw: f64,
    /// Additional power of a 100 %-busy core at this OPP over its idle
    /// power, in mW (the dynamic `C_eff · V² · f` term of Eq. (1)).
    pub busy_extra_mw: f64,
}

impl Opp {
    /// Total power of an online core at this OPP running at utilization
    /// `u ∈ [0, 1]`, in mW.
    pub fn core_power_mw(&self, u: f64) -> f64 {
        debug_assert!(
            self.idle_mw >= 0.0 && self.busy_extra_mw >= 0.0,
            "negative OPP power coefficients: {self:?}"
        );
        self.idle_mw + self.busy_extra_mw * u.clamp(0.0, 1.0)
    }
}

/// A validated, strictly-increasing table of OPPs.
///
/// Index 0 is the lowest frequency. The Nexus 5 table has 14 entries from
/// 300 MHz to 2.2656 GHz (paper Table 1).
///
/// ```
/// use mobicore_model::profiles;
/// let table = profiles::nexus5().opps().clone();
/// assert_eq!(table.len(), 14);
/// assert_eq!(table.min_khz().as_mhz(), 300.0);
/// assert_eq!(table.max_khz().as_mhz(), 2265.6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    opps: Vec<Opp>,
}

impl OppTable {
    /// Builds a table from OPPs sorted by strictly increasing frequency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyOppTable`] for an empty input and
    /// [`ModelError::UnsortedOppTable`] if frequencies are not strictly
    /// increasing.
    pub fn new(opps: Vec<Opp>) -> Result<Self, ModelError> {
        if opps.is_empty() {
            return Err(ModelError::EmptyOppTable);
        }
        for (i, pair) in opps.windows(2).enumerate() {
            if pair[0].khz >= pair[1].khz {
                return Err(ModelError::UnsortedOppTable { index: i + 1 });
            }
        }
        Ok(OppTable { opps })
    }

    /// Number of OPPs in the table.
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// Always `false`: construction rejects empty tables.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The OPP at `idx`, clamping to the highest entry if out of range.
    pub fn get_clamped(&self, idx: usize) -> &Opp {
        &self.opps[idx.min(self.opps.len() - 1)]
    }

    /// The OPP at `idx`, if in range.
    pub fn get(&self, idx: usize) -> Option<&Opp> {
        self.opps.get(idx)
    }

    /// Lowest table frequency.
    pub fn min_khz(&self) -> Khz {
        self.opps[0].khz
    }

    /// Highest table frequency.
    pub fn max_khz(&self) -> Khz {
        self.opps[self.opps.len() - 1].khz
    }

    /// Index of the highest OPP.
    pub fn max_index(&self) -> usize {
        self.opps.len() - 1
    }

    /// Index of the slowest OPP whose frequency is `>= khz` (the cpufreq
    /// `CPUFREQ_RELATION_L` rounding used when a governor asks for a target
    /// the hardware cannot hit exactly). Requests above the table clamp to
    /// the top OPP, as cpufreq does with `scaling_max_freq`.
    pub fn ceil_index(&self, khz: Khz) -> usize {
        let idx = match self.opps.binary_search_by(|o| o.khz.cmp(&khz)) {
            Ok(i) => i,
            Err(i) => i.min(self.opps.len() - 1),
        };
        debug_assert!(
            self.opps[idx].khz >= khz || idx == self.max_index(),
            "ceil_index must deliver at least the requested capacity"
        );
        idx
    }

    /// Index of the fastest OPP whose frequency is `<= khz`
    /// (`CPUFREQ_RELATION_H`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FrequencyBelowTable`] if `khz` is below the
    /// lowest OPP.
    pub fn floor_index(&self, khz: Khz) -> Result<usize, ModelError> {
        if khz < self.min_khz() {
            return Err(ModelError::FrequencyBelowTable {
                requested: khz,
                min: self.min_khz(),
            });
        }
        let idx = match self.opps.binary_search_by(|o| o.khz.cmp(&khz)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        debug_assert!(
            self.opps[idx].khz <= khz,
            "floor_index must never exceed the request"
        );
        Ok(idx)
    }

    /// Snaps an arbitrary requested frequency to a valid OPP, rounding up
    /// (so the delivered capacity is never below the request) and clamping
    /// to the table ends.
    pub fn snap_up(&self, khz: Khz) -> &Opp {
        &self.opps[self.ceil_index(khz)]
    }

    /// The exact index of `khz`, if it is a table frequency.
    pub fn index_of(&self, khz: Khz) -> Option<usize> {
        self.opps.binary_search_by(|o| o.khz.cmp(&khz)).ok()
    }

    /// Index of the OPP numerically closest to `khz` (ties round up).
    pub fn nearest_index(&self, khz: Khz) -> usize {
        let up = self.ceil_index(khz);
        if up == 0 {
            return 0;
        }
        let down = up - 1;
        let d_up = self.opps[up].khz.0.abs_diff(khz.0);
        let d_down = khz.0.abs_diff(self.opps[down].khz.0);
        if d_down < d_up {
            down
        } else {
            up
        }
    }

    /// Iterates over the OPPs from slowest to fastest.
    pub fn iter(&self) -> std::slice::Iter<'_, Opp> {
        self.opps.iter()
    }

    /// The five "benchmark" frequencies the thesis sweeps in §3.1 ("two
    /// low, two high, and one middle frequency"): indices 0, 1, middle,
    /// len−2, len−1.
    pub fn benchmark_five(&self) -> Vec<Khz> {
        let n = self.opps.len();
        let mut idxs = vec![0, 1.min(n - 1), n / 2, n.saturating_sub(2), n - 1];
        idxs.sort_unstable();
        idxs.dedup();
        idxs.into_iter().map(|i| self.opps[i].khz).collect()
    }
}

impl<'a> IntoIterator for &'a OppTable {
    type Item = &'a Opp;
    type IntoIter = std::slice::Iter<'a, Opp>;
    fn into_iter(self) -> Self::IntoIter {
        self.opps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opp(khz: u32) -> Opp {
        Opp {
            khz: Khz(khz),
            mv: MilliVolts(900 + khz / 10_000),
            idle_mw: 40.0,
            busy_extra_mw: 100.0,
        }
    }

    fn table() -> OppTable {
        OppTable::new(vec![
            opp(300_000),
            opp(600_000),
            opp(1_200_000),
            opp(2_400_000),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            OppTable::new(vec![]).unwrap_err(),
            ModelError::EmptyOppTable
        );
    }

    #[test]
    fn rejects_unsorted_and_duplicates() {
        let err = OppTable::new(vec![opp(600_000), opp(300_000)]).unwrap_err();
        assert_eq!(err, ModelError::UnsortedOppTable { index: 1 });
        let err = OppTable::new(vec![opp(600_000), opp(600_000)]).unwrap_err();
        assert_eq!(err, ModelError::UnsortedOppTable { index: 1 });
    }

    #[test]
    fn ceil_index_rounds_up_and_clamps() {
        let t = table();
        assert_eq!(t.ceil_index(Khz(300_000)), 0);
        assert_eq!(t.ceil_index(Khz(300_001)), 1);
        assert_eq!(t.ceil_index(Khz(1)), 0);
        assert_eq!(t.ceil_index(Khz(9_999_999)), 3);
    }

    #[test]
    fn floor_index_rounds_down() {
        let t = table();
        assert_eq!(t.floor_index(Khz(2_400_000)).unwrap(), 3);
        assert_eq!(t.floor_index(Khz(2_399_999)).unwrap(), 2);
        assert_eq!(t.floor_index(Khz(600_000)).unwrap(), 1);
        assert!(t.floor_index(Khz(100)).is_err());
    }

    #[test]
    fn snap_up_returns_exact_match() {
        let t = table();
        assert_eq!(t.snap_up(Khz(600_000)).khz, Khz(600_000));
        assert_eq!(t.snap_up(Khz(700_000)).khz, Khz(1_200_000));
    }

    #[test]
    fn core_power_scales_with_utilization() {
        let o = opp(300_000);
        assert_eq!(o.core_power_mw(0.0), 40.0);
        assert_eq!(o.core_power_mw(1.0), 140.0);
        assert_eq!(o.core_power_mw(0.5), 90.0);
        // out-of-range utilization clamps
        assert_eq!(o.core_power_mw(7.0), 140.0);
        assert_eq!(o.core_power_mw(-1.0), 40.0);
    }

    #[test]
    fn benchmark_five_spans_table() {
        let t = table();
        let five = t.benchmark_five();
        assert_eq!(five.first(), Some(&Khz(300_000)));
        assert_eq!(five.last(), Some(&Khz(2_400_000)));
    }

    #[test]
    fn iteration_is_ascending() {
        let t = table();
        let freqs: Vec<u32> = t.iter().map(|o| o.khz.0).collect();
        let mut sorted = freqs.clone();
        sorted.sort_unstable();
        assert_eq!(freqs, sorted);
        assert_eq!((&t).into_iter().count(), 4);
    }

    #[test]
    fn index_of_exact_only() {
        let t = table();
        assert_eq!(t.index_of(Khz(600_000)), Some(1));
        assert_eq!(t.index_of(Khz(600_001)), None);
    }

    #[test]
    fn nearest_index_rounds_correctly() {
        let t = table(); // 300k, 600k, 1.2M, 2.4M
        assert_eq!(t.nearest_index(Khz(100)), 0);
        assert_eq!(t.nearest_index(Khz(449_999)), 0);
        assert_eq!(t.nearest_index(Khz(450_000)), 1, "ties round up");
        assert_eq!(t.nearest_index(Khz(600_000)), 1);
        assert_eq!(t.nearest_index(Khz(9_999_999)), 3);
    }

    #[test]
    fn get_clamped_never_panics() {
        let t = table();
        assert_eq!(t.get_clamped(999).khz, Khz(2_400_000));
        assert_eq!(t.get_clamped(0).khz, Khz(300_000));
        assert!(t.get(999).is_none());
    }
}

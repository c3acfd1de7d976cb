//! Trace recording — the "file recording historical information of the
//! hardware states" the thesis' kernel application produces (§3.1).
//!
//! Full traces keep one [`TraceSample`] per trace period; every run also
//! keeps cheap running aggregates. A compact little-endian binary
//! encoding is provided so long traces can be shipped around without the
//! `Vec` overhead.

/// One retained trace row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Sample time, µs.
    pub t_us: u64,
    /// Device power at the sample, mW.
    pub power_mw: f64,
    /// Package temperature, °C.
    pub temp_c: f64,
    /// Bandwidth quota in force.
    pub quota: f64,
    /// Per-core effective frequency, kHz (0 = offline).
    pub khz: Vec<u32>,
    /// Per-core utilization over the last tick, percent.
    pub util_pct: Vec<f32>,
}

/// In-memory trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    samples: Vec<TraceSample>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, s: TraceSample) {
        self.samples.push(s);
    }

    /// The retained samples in time order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Encodes the trace to a compact little-endian binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let n = u32::try_from(self.samples.len()).expect("trace longer than the u32 wire format");
        buf.extend_from_slice(&n.to_le_bytes());
        for s in &self.samples {
            buf.extend_from_slice(&s.t_us.to_le_bytes());
            buf.extend_from_slice(&s.power_mw.to_le_bytes());
            buf.extend_from_slice(&s.temp_c.to_le_bytes());
            buf.extend_from_slice(&s.quota.to_le_bytes());
            buf.push(u8::try_from(s.khz.len()).expect("more cores than the u8 wire format"));
            for &k in &s.khz {
                buf.extend_from_slice(&k.to_le_bytes());
            }
            for &u in &s.util_pct {
                buf.extend_from_slice(&u.to_le_bytes());
            }
        }
        buf
    }

    /// Decodes a blob produced by [`Trace::to_bytes`].
    ///
    /// Returns `None` on truncated or malformed input.
    pub fn from_bytes(mut data: &[u8]) -> Option<Self> {
        let n = u32::from_le_bytes(take(&mut data)?) as usize;
        let mut samples = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let t_us = u64::from_le_bytes(take(&mut data)?);
            let power_mw = f64::from_le_bytes(take(&mut data)?);
            let temp_c = f64::from_le_bytes(take(&mut data)?);
            let quota = f64::from_le_bytes(take(&mut data)?);
            let [cores] = take(&mut data)?;
            let khz = (0..cores)
                .map(|_| take(&mut data).map(u32::from_le_bytes))
                .collect::<Option<_>>()?;
            let util_pct = (0..cores)
                .map(|_| take(&mut data).map(f32::from_le_bytes))
                .collect::<Option<_>>()?;
            samples.push(TraceSample {
                t_us,
                power_mw,
                temp_c,
                quota,
                khz,
                util_pct,
            });
        }
        Some(Trace { samples })
    }
}

/// Consumes the next `N` bytes of `data`; `None` when fewer remain.
fn take<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = data.split_first_chunk::<N>()?;
    *data = rest;
    Some(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64) -> TraceSample {
        TraceSample {
            t_us: t,
            power_mw: 123.5,
            temp_c: 31.25,
            quota: 0.9,
            khz: vec![300_000, 0, 960_000, 2_265_600],
            util_pct: vec![10.0, 0.0, 55.5, 100.0],
        }
    }

    #[test]
    fn round_trip() {
        let mut tr = Trace::new();
        tr.push(sample(0));
        tr.push(sample(10_000));
        let bytes = tr.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, tr);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn empty_round_trip() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        let back = Trace::from_bytes(&tr.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_input_rejected() {
        let mut tr = Trace::new();
        tr.push(sample(0));
        let bytes = tr.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 3]).is_none());
        assert!(Trace::from_bytes(&[1, 2]).is_none());
    }

    #[test]
    fn length_prefix_must_match() {
        // Claim 5 samples but provide none.
        assert!(Trace::from_bytes(&5u32.to_le_bytes()).is_none());
    }
}

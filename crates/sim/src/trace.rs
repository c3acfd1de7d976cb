//! Trace recording — the "file recording historical information of the
//! hardware states" the thesis' kernel application produces (§3.1).
//!
//! Full traces keep one [`TraceSample`] per trace period; every run also
//! keeps cheap running aggregates.

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
}

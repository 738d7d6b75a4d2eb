//! Shift-fault (position-error) modelling.
//!
//! Racetrack shifting is imperfect: with some per-domain-step
//! probability the domain train over- or under-shoots by one position
//! ("slip"), leaving the tape misaligned until detected. Reducing the
//! shift count therefore reduces fault *exposure* — a second,
//! reliability-flavoured argument for shift-minimizing placement that
//! the F9 experiment quantifies.
//!
//! [`ShiftFaultModel`] provides the analytic expectations;
//! [`FaultInjector`] draws concrete slip events for the functional
//! simulator using a small self-contained SplitMix64 generator (the
//! device crate takes no RNG dependency).

/// Per-shift-step position-error model.
///
/// `slip_probability` is the chance that one single-domain shift step
/// mis-positions the train by one domain (direction uniform). Typical
/// figures explored in the DWM reliability literature run from 1e-5
/// (conservative) to 1e-2 (aggressive overdrive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftFaultModel {
    /// Probability that one shift step slips by one domain.
    pub slip_probability: f64,
}

impl ShiftFaultModel {
    /// A model with the given per-step slip probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ slip_probability ≤ 1`.
    pub fn new(slip_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&slip_probability),
            "slip probability must be in [0, 1]"
        );
        ShiftFaultModel { slip_probability }
    }

    /// Expected number of slip events over `shifts` single-domain
    /// steps.
    pub fn expected_slips(&self, shifts: u64) -> f64 {
        shifts as f64 * self.slip_probability
    }

    /// Probability that an access moving `distance` steps completes
    /// without any slip.
    pub fn access_success_probability(&self, distance: u64) -> f64 {
        (1.0 - self.slip_probability).powi(distance.min(i32::MAX as u64) as i32)
    }
}

/// Deterministic slip-event source for fault-injection runs.
///
/// Uses SplitMix64 so the device crate needs no external RNG; the same
/// seed always produces the same fault pattern, which keeps
/// fault-injection experiments reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    model: ShiftFaultModel,
    state: u64,
}

impl FaultInjector {
    /// An injector drawing from `model` with the given seed.
    pub fn new(model: ShiftFaultModel, seed: u64) -> Self {
        FaultInjector { model, state: seed }
    }

    /// The underlying fault model.
    pub fn model(&self) -> &ShiftFaultModel {
        &self.model
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (public domain, Steele et al.).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        // 53 uniform bits in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draws the net position slip for an access that shifts
    /// `distance` steps: each step slips independently with the model's
    /// probability, direction ±1 uniform. Returns the signed net
    /// displacement error and the number of slip events.
    pub fn draw_slip(&mut self, distance: u64) -> (i64, u64) {
        let mut net = 0i64;
        let mut events = 0u64;
        for _ in 0..distance {
            if self.next_f64() < self.model.slip_probability {
                events += 1;
                net += if self.next_u64() & 1 == 0 { 1 } else { -1 };
            }
        }
        (net, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_scale_linearly() {
        let m = ShiftFaultModel::new(1e-3);
        assert!((m.expected_slips(1000) - 1.0).abs() < 1e-12);
        assert!((m.expected_slips(0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn success_probability_decays_with_distance() {
        let m = ShiftFaultModel::new(0.01);
        assert!(m.access_success_probability(1) > m.access_success_probability(10));
        assert_eq!(m.access_success_probability(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "slip probability")]
    fn invalid_probability_rejected() {
        let _ = ShiftFaultModel::new(1.5);
    }

    #[test]
    fn injector_is_deterministic() {
        let mut a = FaultInjector::new(ShiftFaultModel::new(0.1), 42);
        let mut b = FaultInjector::new(ShiftFaultModel::new(0.1), 42);
        for _ in 0..100 {
            assert_eq!(a.draw_slip(20), b.draw_slip(20));
        }
    }

    #[test]
    fn zero_probability_never_slips() {
        let mut inj = FaultInjector::new(ShiftFaultModel::new(0.0), 7);
        for _ in 0..100 {
            assert_eq!(inj.draw_slip(50), (0, 0));
        }
    }

    #[test]
    fn certain_probability_slips_every_step() {
        let mut inj = FaultInjector::new(ShiftFaultModel::new(1.0), 7);
        let (_, events) = inj.draw_slip(25);
        assert_eq!(events, 25);
    }

    #[test]
    fn empirical_rate_approaches_expectation() {
        let p = 0.05;
        let mut inj = FaultInjector::new(ShiftFaultModel::new(p), 99);
        let trials = 2000u64;
        let distance = 40u64;
        let mut events = 0u64;
        for _ in 0..trials {
            events += inj.draw_slip(distance).1;
        }
        let expected = p * (trials * distance) as f64;
        let observed = events as f64;
        // Within 10% of the mean over 80k Bernoulli draws.
        assert!(
            (observed - expected).abs() < 0.1 * expected,
            "observed {observed}, expected {expected}"
        );
    }
}

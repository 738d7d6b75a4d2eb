/// A single magnetic nanowire holding one bit per domain.
///
/// The track models the *physical* layout: a data region of `L` domains
/// flanked by padding domains so the data can shift under the ports
/// without falling off either end. The track's state is the bit value
/// of every physical domain plus the current *displacement* — how far
/// the domain train has been moved from its rest position. Displacement
/// `s` means the bit logically at data index `i` is physically under
/// position `i - s` relative to the rest-position origin.
///
/// [`Dbc`](crate::Dbc) shifts `W` tracks in lockstep; `Track` exists so
/// bit-level behaviour (and wear) can be tested in isolation.
///
/// # Example
///
/// ```
/// use dwm_device::Track;
///
/// let mut track = Track::new(8, 7);
/// track.set_bit(3, true);
/// assert!(track.bit(3));
/// track.shift_to(3 - 0); // align data index 3 with a port at position 0
/// assert_eq!(track.displacement(), 3);
/// assert!(track.bit(3)); // logical content is unchanged by shifting
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Logical data bits, indexed by data offset. Shifting moves the
    /// whole train physically, so logical content never changes; we
    /// model the physical motion with `displacement` and a wear vector.
    bits: Vec<bool>,
    /// Current displacement of the domain train from rest.
    displacement: i64,
    /// Minimum / maximum displacement allowed by the padding domains.
    min_displacement: i64,
    max_displacement: i64,
    /// Total single-domain shift steps performed (wear proxy).
    shift_steps: u64,
}

impl Track {
    /// Creates a track with `data_len` data domains and enough padding
    /// for displacements in `[-(data_len - 1 - first_port), last_port]`
    /// expressed here as a symmetric bound of `padding` domains on each
    /// side. The caller ([`Dbc`](crate::Dbc)) computes the padding from
    /// the port layout.
    pub fn new(data_len: usize, padding: usize) -> Self {
        Track {
            bits: vec![false; data_len],
            displacement: 0,
            min_displacement: -(padding as i64),
            max_displacement: padding as i64,
            shift_steps: 0,
        }
    }

    /// Number of data domains.
    pub fn data_len(&self) -> usize {
        self.bits.len()
    }

    /// Current displacement of the domain train.
    pub fn displacement(&self) -> i64 {
        self.displacement
    }

    /// Total single-domain shift steps performed so far.
    pub fn shift_steps(&self) -> u64 {
        self.shift_steps
    }

    /// Reads the bit at logical data index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= data_len` (the DBC validates offsets first).
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Writes the bit at logical data index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= data_len`.
    pub fn set_bit(&mut self, i: usize, v: bool) {
        self.bits[i] = v;
    }

    /// Shifts the train to displacement `target`, clamped to the range
    /// the padding allows, and returns the number of single-domain steps
    /// taken.
    pub fn shift_to(&mut self, target: i64) -> u64 {
        let target = target.clamp(self.min_displacement, self.max_displacement);
        let steps = target.abs_diff(self.displacement);
        self.displacement = target;
        self.shift_steps += steps;
        steps
    }

    /// Resets displacement to rest without counting wear (models a
    /// power-down park operation used between workload phases).
    pub fn park(&mut self) {
        self.displacement = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_track_is_zeroed_and_at_rest() {
        let t = Track::new(16, 15);
        assert_eq!(t.data_len(), 16);
        assert_eq!(t.displacement(), 0);
        assert_eq!(t.shift_steps(), 0);
        assert!((0..16).all(|i| !t.bit(i)));
    }

    #[test]
    fn shifting_accumulates_steps() {
        let mut t = Track::new(8, 7);
        assert_eq!(t.shift_to(5), 5);
        assert_eq!(t.shift_to(2), 3);
        assert_eq!(t.shift_to(2), 0);
        assert_eq!(t.shift_steps(), 8);
        assert_eq!(t.displacement(), 2);
    }

    #[test]
    fn shifting_is_clamped_by_padding() {
        let mut t = Track::new(8, 3);
        assert_eq!(t.shift_to(100), 3);
        assert_eq!(t.displacement(), 3);
        assert_eq!(t.shift_to(-100), 6);
        assert_eq!(t.displacement(), -3);
    }

    #[test]
    fn logical_bits_survive_shifting() {
        let mut t = Track::new(4, 3);
        t.set_bit(0, true);
        t.set_bit(3, true);
        t.shift_to(3);
        t.shift_to(-2);
        assert!(t.bit(0));
        assert!(!t.bit(1));
        assert!(t.bit(3));
    }

    #[test]
    fn park_resets_without_wear() {
        let mut t = Track::new(4, 3);
        t.shift_to(2);
        let wear = t.shift_steps();
        t.park();
        assert_eq!(t.displacement(), 0);
        assert_eq!(t.shift_steps(), wear);
    }
}

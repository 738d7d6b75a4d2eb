use crate::config::DeviceConfig;
use crate::error::DeviceError;
use crate::port::PortLayout;
use crate::stats::ShiftStats;
use crate::topology::{Linear, TapeState, TopologyPlan, TrackTopology};
use crate::track::Track;

/// A domain-block cluster: `W` tracks shifting in lockstep, storing one
/// `W`-bit word per domain offset.
///
/// The DBC is the unit the placement algorithms target: word offsets
/// within a DBC are the "positions" of the linear-arrangement problem.
/// Reads and writes go through the configured [`PortLayout`] under the
/// nearest-port policy, shifting the whole cluster as needed and
/// recording shift counts and wear.
///
/// # Example
///
/// ```
/// use dwm_device::{DeviceConfig, Dbc};
///
/// let config = DeviceConfig::builder()
///     .domains_per_track(16)
///     .tracks_per_dbc(8)
///     .build()?;
/// let mut dbc = Dbc::new(&config);
/// dbc.write(3, 0x5A)?;
/// dbc.write(12, 0xA5)?;
/// assert_eq!(dbc.read(3)?, 0x5A);
/// assert_eq!(dbc.read(12)?, 0xA5);
/// assert!(dbc.stats().shifts > 0);
/// # Ok::<(), dwm_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dbc {
    tracks: Vec<Track>,
    ports: PortLayout,
    words: usize,
    displacement: i64,
    stats: ShiftStats,
    /// Wear: single-domain steps, per physical domain boundary crossing
    /// is uniform across the track, so we track steps per track; the
    /// interesting wear figure for DWM is total steps, already in
    /// `stats`. Per-word write counts capture endurance of write ports.
    write_counts: Vec<u64>,
}

impl Dbc {
    /// Creates a zero-filled DBC from a device configuration.
    pub fn new(config: &DeviceConfig) -> Self {
        let words = config.words_per_dbc();
        let padding = words; // enough for any displacement either way
        Dbc {
            tracks: (0..config.tracks_per_dbc())
                .map(|_| Track::new(words, padding))
                .collect(),
            ports: config.port_layout().clone(),
            words,
            displacement: 0,
            stats: ShiftStats::new(),
            write_counts: vec![0; words],
        }
    }

    /// Number of addressable words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Word width in bits (= number of tracks).
    pub fn width(&self) -> usize {
        self.tracks.len()
    }

    /// Current tape displacement.
    pub fn displacement(&self) -> i64 {
        self.displacement
    }

    /// The port layout used by this DBC.
    pub fn ports(&self) -> &PortLayout {
        &self.ports
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> &ShiftStats {
        &self.stats
    }

    /// Per-word write counts (endurance proxy for the write ports).
    pub fn write_counts(&self) -> &[u64] {
        &self.write_counts
    }

    /// Resets counters (content and displacement are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = ShiftStats::new();
        self.write_counts.iter_mut().for_each(|c| *c = 0);
    }

    fn check_offset(&self, offset: usize) -> Result<(), DeviceError> {
        if offset >= self.words {
            Err(DeviceError::OffsetOutOfRange {
                offset,
                capacity: self.words,
            })
        } else {
            Ok(())
        }
    }

    /// Plans the access to `offset` from the current displacement: a
    /// DBC is a finite linear tape under the nearest-port policy.
    fn plan(&self, offset: usize) -> TopologyPlan {
        let state = TapeState {
            longitudinal: self.displacement,
            transverse: 0,
        };
        Linear.plan(&self.ports, self.words, state, offset)
    }

    /// Aligns `offset` with its nearest port, returning the shift
    /// distance taken.
    fn align(&mut self, offset: usize) -> u64 {
        let plan = self.plan(offset);
        let displacement = plan.state.longitudinal;
        for track in &mut self.tracks {
            track.shift_to(displacement);
        }
        self.displacement = displacement;
        plan.distance
    }

    /// Reads the word at `offset`, shifting as needed.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OffsetOutOfRange`] if `offset` is beyond
    /// the data region.
    pub fn read(&mut self, offset: usize) -> Result<u64, DeviceError> {
        self.check_offset(offset)?;
        let dist = self.align(offset);
        self.stats.record(dist, false);
        let mut word = 0u64;
        for (bit, track) in self.tracks.iter().enumerate() {
            if track.bit(offset) {
                word |= 1 << bit;
            }
        }
        Ok(word)
    }

    /// Writes `word` at `offset`, shifting as needed.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OffsetOutOfRange`] if `offset` is beyond
    /// the data region, or [`DeviceError::WordTooWide`] if `word` has
    /// significant bits above the track count.
    pub fn write(&mut self, offset: usize, word: u64) -> Result<(), DeviceError> {
        self.check_offset(offset)?;
        let width = self.width();
        if width < 64 && (word >> width) != 0 {
            return Err(DeviceError::WordTooWide {
                bits: 64 - word.leading_zeros(),
                width,
            });
        }
        let dist = self.align(offset);
        self.stats.record(dist, true);
        for (bit, track) in self.tracks.iter_mut().enumerate() {
            track.set_bit(offset, word & (1 << bit) != 0);
        }
        self.write_counts[offset] += 1;
        Ok(())
    }

    /// Shift distance the next access to `offset` would incur, without
    /// performing it.
    pub fn peek_distance(&self, offset: usize) -> Result<u64, DeviceError> {
        self.check_offset(offset)?;
        Ok(self.plan(offset).distance)
    }

    /// Fault-injection hook: physically displaces the domain train by
    /// `delta` positions, modelling a detected shift slip.
    ///
    /// The model assumes a position sensor (guard bits) so the
    /// controller learns the faulty position; the *next* access then
    /// implicitly pays the extra distance to re-align — the repair cost
    /// surfaces in that access's shift count, and data is never
    /// silently misread. Track wear from the slip motion itself is
    /// counted; access statistics are not (no access happened).
    pub fn inject_displacement_error(&mut self, delta: i64) {
        let target = self.displacement + delta;
        for track in &mut self.tracks {
            track.shift_to(target);
        }
        self.displacement = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(l: usize, w: usize, ports: usize) -> DeviceConfig {
        DeviceConfig::builder()
            .domains_per_track(l)
            .tracks_per_dbc(w)
            .ports(ports)
            .build()
            .unwrap()
    }

    #[test]
    fn read_after_write_round_trips_all_offsets() {
        let mut dbc = Dbc::new(&config(16, 16, 1));
        for o in 0..16 {
            dbc.write(o, (o as u64 * 7 + 1) & 0xFFFF).unwrap();
        }
        for o in 0..16 {
            assert_eq!(dbc.read(o).unwrap(), (o as u64 * 7 + 1) & 0xFFFF);
        }
    }

    #[test]
    fn out_of_range_offset_is_rejected() {
        let mut dbc = Dbc::new(&config(8, 8, 1));
        assert!(matches!(
            dbc.read(8),
            Err(DeviceError::OffsetOutOfRange { offset: 8, .. })
        ));
        assert!(matches!(
            dbc.write(99, 0),
            Err(DeviceError::OffsetOutOfRange { offset: 99, .. })
        ));
    }

    #[test]
    fn wide_word_is_rejected() {
        let mut dbc = Dbc::new(&config(8, 4, 1));
        assert!(matches!(
            dbc.write(0, 0x10),
            Err(DeviceError::WordTooWide { width: 4, .. })
        ));
        dbc.write(0, 0x0F).unwrap();
    }

    #[test]
    fn shift_counts_match_single_port_model() {
        // Single port at position 0: distance = |previous offset − next|.
        let mut dbc = Dbc::new(&config(16, 8, 1));
        dbc.read(5).unwrap(); // 5 from rest
        dbc.read(5).unwrap(); // 0
        dbc.read(9).unwrap(); // 4
        dbc.read(0).unwrap(); // 9
        assert_eq!(dbc.stats().shifts, 5 + 4 + 9);
        assert_eq!(dbc.stats().aligned_hits, 1);
        assert_eq!(dbc.stats().max_shift, 9);
    }

    #[test]
    fn two_ports_reduce_shift_count_on_far_jumps() {
        // Alternating far accesses: one port pays the full span every
        // time; two ports serve each end locally.
        let seq: Vec<usize> = (0..16).flat_map(|_| [0usize, 31]).collect();
        let mut one = Dbc::new(&config(32, 8, 1));
        let mut two = Dbc::new(&config(32, 8, 2));
        for &o in &seq {
            one.read(o).unwrap();
            two.read(o).unwrap();
        }
        assert!(two.stats().shifts < one.stats().shifts);
    }

    #[test]
    fn write_counts_track_endurance() {
        let mut dbc = Dbc::new(&config(8, 8, 1));
        dbc.write(2, 1).unwrap();
        dbc.write(2, 2).unwrap();
        dbc.write(3, 3).unwrap();
        assert_eq!(dbc.write_counts()[2], 2);
        assert_eq!(dbc.write_counts()[3], 1);
        assert_eq!(dbc.write_counts()[0], 0);
    }

    #[test]
    fn peek_distance_matches_following_access() {
        let mut dbc = Dbc::new(&config(32, 8, 2));
        for &o in &[3usize, 17, 30, 1] {
            let predicted = dbc.peek_distance(o).unwrap();
            let before = dbc.stats().shifts;
            dbc.read(o).unwrap();
            assert_eq!(dbc.stats().shifts - before, predicted);
        }
    }

    #[test]
    fn injected_slip_is_paid_by_next_access() {
        let mut dbc = Dbc::new(&config(16, 8, 1));
        dbc.read(5).unwrap(); // aligned at 5, cost 5
        dbc.inject_displacement_error(2);
        // Next access to 5 must undo the slip: distance 2, data intact.
        dbc.write(5, 0x3).unwrap();
        assert_eq!(dbc.stats().shifts, 5 + 2);
        assert_eq!(dbc.read(5).unwrap(), 0x3);
    }

    #[test]
    fn injected_slip_wears_tracks_without_access_stats() {
        let mut dbc = Dbc::new(&config(16, 8, 1));
        dbc.inject_displacement_error(-3);
        assert_eq!(dbc.stats().accesses(), 0);
        assert_eq!(dbc.stats().shifts, 0);
        assert_eq!(dbc.displacement(), -3);
    }

    #[test]
    fn reset_stats_clears_counters_only() {
        let mut dbc = Dbc::new(&config(8, 8, 1));
        dbc.write(4, 9).unwrap();
        dbc.reset_stats();
        assert_eq!(dbc.stats().accesses(), 0);
        assert_eq!(dbc.write_counts()[4], 0);
        assert_eq!(dbc.read(4).unwrap(), 9);
    }
}

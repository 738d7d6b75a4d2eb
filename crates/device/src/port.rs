/// Identifier of an access port within a [`PortLayout`].
///
/// A newtype rather than a bare `usize` so that port ids cannot be
/// confused with word offsets or shift distances in APIs that take both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub usize);

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// The fixed positions of the read/write heads along a track.
///
/// Positions are word offsets in `[0, L)` and are kept sorted. The
/// layout is shared by every DBC in a device. Because all tracks of a
/// DBC shift in lockstep, aligning word offset `o` with the port at
/// position `p` requires the tape displacement to equal `o - p`
/// (positive displacement = tape moved toward lower physical indices).
///
/// # Example
///
/// ```
/// use dwm_device::PortLayout;
///
/// let layout = PortLayout::evenly_spaced(2, 64);
/// assert_eq!(layout.positions(), &[16, 48]);
/// // Nearest port to word 50 given the tape currently at rest:
/// let (port, dist) = layout.nearest_port(50, 0);
/// assert_eq!(layout.positions()[port.0], 48);
/// assert_eq!(dist, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortLayout {
    positions: Vec<usize>,
}

impl PortLayout {
    /// A single port at word offset 0 (the common low-cost design).
    pub fn single() -> Self {
        PortLayout { positions: vec![0] }
    }

    /// `count` ports spread evenly over a track of `l` words.
    ///
    /// Port `i` sits at the centre of the `i`-th of `count` equal
    /// segments, i.e. at `(2i + 1) * l / (2 * count)`, which minimizes
    /// the worst-case distance from any word to its nearest port. The
    /// exception is one port: it sits at offset 0 ([`single`](Self::single),
    /// the classic low-cost macro-cell), so every way of asking for a
    /// single-port tape replays the same. `count = 0` yields an empty
    /// layout (rejected later by configuration validation).
    pub fn evenly_spaced(count: usize, l: usize) -> Self {
        if count == 1 {
            return PortLayout::single();
        }
        let positions = (0..count)
            .map(|i| ((2 * i + 1) * l) / (2 * count.max(1)))
            .map(|p| p.min(l.saturating_sub(1)))
            .collect();
        PortLayout { positions }
    }

    /// A layout with explicit positions, sorted. Repeated positions are
    /// kept: [`DeviceConfig`](crate::DeviceConfig) validation refuses
    /// them, and so does `dwm_core::TopologyCost::check_fit`, which
    /// `dwmplace eval` and the daemon's `/evaluate` run before costing a
    /// layout.
    pub fn at_positions<I: IntoIterator<Item = usize>>(positions: I) -> Self {
        let mut positions: Vec<usize> = positions.into_iter().collect();
        positions.sort_unstable();
        PortLayout { positions }
    }

    /// The sorted port positions (word offsets).
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of ports.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the layout has no ports.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterates over `(PortId, position)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, usize)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (PortId(i), p))
    }

    /// Given the current tape displacement, returns the port that can
    /// reach word `offset` with the fewest shifts, together with that
    /// shift distance.
    ///
    /// The required displacement to align `offset` with the port at
    /// position `p` is `offset - p`; the shift distance from the current
    /// displacement `s` is `|(offset - p) - s|`. Ties are broken toward
    /// the lowest-numbered port, which keeps replay deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the layout is empty (configurations validated through
    /// [`crate::DeviceConfig`] always have at least one port).
    #[inline]
    pub fn nearest_port(&self, offset: usize, displacement: i64) -> (PortId, u64) {
        self.iter()
            .map(|(id, p)| {
                let required = offset as i64 - p as i64;
                (id, required.abs_diff(displacement))
            })
            // The first minimum wins, so ties go to the lowest id.
            .min_by_key(|&(_, d)| d)
            .expect("port layout must not be empty")
    }

    /// The tape displacement required to align `offset` with `port`.
    #[inline]
    pub fn required_displacement(&self, offset: usize, port: PortId) -> i64 {
        offset as i64 - self.positions[port.0] as i64
    }
}

impl IntoIterator for &PortLayout {
    type Item = (PortId, usize);
    type IntoIter = std::vec::IntoIter<(PortId, usize)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// What an access port can do.
///
/// DWM macro-cells typically mix many cheap magneto-tunnel-junction
/// *read* heads with a few expensive shift-based *write* heads: a
/// read-only port costs a fraction of a read-write port's area. The
/// typed layout models that asymmetry — writes may only align with
/// read-write ports, reads with any port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortCapability {
    /// The port can only sense (read) the domain under it.
    ReadOnly,
    /// The port can sense and write the domain under it.
    ReadWrite,
}

/// A port layout in which each port is read-only or read-write.
///
/// # Example
///
/// ```
/// use dwm_device::{PortCapability, TypedPortLayout};
///
/// // One write head at 0, extra read heads at 21 and 42.
/// let layout = TypedPortLayout::new([
///     (0, PortCapability::ReadWrite),
///     (21, PortCapability::ReadOnly),
///     (42, PortCapability::ReadOnly),
/// ]);
/// assert_eq!(layout.read_layout().len(), 3);
/// assert_eq!(layout.write_layout().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypedPortLayout {
    read: PortLayout,
    write: PortLayout,
}

impl TypedPortLayout {
    /// Builds a typed layout from `(position, capability)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if no port is read-write (the tape would be unwritable).
    pub fn new<I: IntoIterator<Item = (usize, PortCapability)>>(ports: I) -> Self {
        let ports: Vec<(usize, PortCapability)> = ports.into_iter().collect();
        let write = PortLayout::at_positions(
            ports
                .iter()
                .filter(|(_, c)| *c == PortCapability::ReadWrite)
                .map(|&(p, _)| p),
        );
        assert!(
            !write.is_empty(),
            "a typed port layout needs at least one read-write port"
        );
        let read = PortLayout::at_positions(ports.iter().map(|&(p, _)| p));
        TypedPortLayout { read, write }
    }

    /// A layout of `total` evenly spaced ports over `l` words, of
    /// which the first `read_write` (cyclically every
    /// `total / read_write`-th port) are read-write.
    ///
    /// # Panics
    ///
    /// Panics if `read_write == 0` or `read_write > total`.
    pub fn evenly_spaced(total: usize, read_write: usize, l: usize) -> Self {
        assert!(
            read_write > 0 && read_write <= total,
            "need 1..=total read-write ports"
        );
        let all = PortLayout::evenly_spaced(total, l);
        let stride = total / read_write;
        TypedPortLayout::new(all.positions().iter().enumerate().map(|(i, &p)| {
            let cap = if i % stride == 0 && i / stride < read_write {
                PortCapability::ReadWrite
            } else {
                PortCapability::ReadOnly
            };
            (p, cap)
        }))
    }

    /// The layout usable by reads (all ports).
    pub fn read_layout(&self) -> &PortLayout {
        &self.read
    }

    /// The layout usable by writes (read-write ports only).
    pub fn write_layout(&self) -> &PortLayout {
        &self.write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_layout_is_at_zero() {
        let l = PortLayout::single();
        assert_eq!(l.positions(), &[0]);
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }

    #[test]
    fn evenly_spaced_centres_segments() {
        assert_eq!(PortLayout::evenly_spaced(1, 64).positions(), &[0]);
        assert_eq!(PortLayout::evenly_spaced(2, 64).positions(), &[16, 48]);
        assert_eq!(
            PortLayout::evenly_spaced(4, 64).positions(),
            &[8, 24, 40, 56]
        );
    }

    #[test]
    fn evenly_spaced_clamps_to_track() {
        let l = PortLayout::evenly_spaced(3, 2);
        assert!(l.positions().iter().all(|&p| p < 2));
    }

    #[test]
    fn at_positions_sorts() {
        let l = PortLayout::at_positions([9, 1, 5]);
        assert_eq!(l.positions(), &[1, 5, 9]);
    }

    #[test]
    fn nearest_port_accounts_for_displacement() {
        let l = PortLayout::at_positions([0, 10]);
        // At rest, word 9 is nearest to the port at 10 (distance 1).
        assert_eq!(l.nearest_port(9, 0), (PortId(1), 1));
        // With tape already displaced by +9, port 0 needs no shift.
        assert_eq!(l.nearest_port(9, 9), (PortId(0), 0));
    }

    #[test]
    fn nearest_port_breaks_ties_low() {
        let l = PortLayout::at_positions([0, 4]);
        // Word 2 is 2 away from both ports at rest: choose port 0.
        assert_eq!(l.nearest_port(2, 0).0, PortId(0));
    }

    #[test]
    fn required_displacement_is_signed() {
        let l = PortLayout::at_positions([4]);
        assert_eq!(l.required_displacement(1, PortId(0)), -3);
        assert_eq!(l.required_displacement(7, PortId(0)), 3);
    }

    #[test]
    fn typed_layout_splits_capabilities() {
        let t = TypedPortLayout::new([
            (0, PortCapability::ReadWrite),
            (21, PortCapability::ReadOnly),
            (42, PortCapability::ReadOnly),
        ]);
        assert_eq!(t.read_layout().positions(), &[0, 21, 42]);
        assert_eq!(t.write_layout().positions(), &[0]);
    }

    #[test]
    #[should_panic(expected = "read-write port")]
    fn typed_layout_requires_a_writer() {
        let _ = TypedPortLayout::new([(0, PortCapability::ReadOnly)]);
    }

    #[test]
    fn evenly_spaced_typed_counts() {
        let t = TypedPortLayout::evenly_spaced(4, 2, 64);
        assert_eq!(t.read_layout().len(), 4);
        assert_eq!(t.write_layout().len(), 2);
        let all_rw = TypedPortLayout::evenly_spaced(4, 4, 64);
        assert_eq!(all_rw.write_layout().len(), 4);
        assert_eq!(all_rw.write_layout(), all_rw.read_layout());
    }

    #[test]
    #[should_panic(expected = "read-write ports")]
    fn evenly_spaced_typed_rejects_zero_writers() {
        let _ = TypedPortLayout::evenly_spaced(4, 0, 64);
    }
}

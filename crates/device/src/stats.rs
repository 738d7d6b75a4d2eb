/// Running counters of device activity.
///
/// Collected by [`Dbc`](crate::Dbc) and by the simulator crate; the
/// analytic cost model in `dwm-core` produces the same `shifts` figure,
/// which the cross-validation test relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShiftStats {
    /// Total single-domain shift steps (summed over accesses, not
    /// multiplied by track count).
    pub shifts: u64,
    /// Number of read accesses served.
    pub reads: u64,
    /// Number of write accesses served.
    pub writes: u64,
    /// Accesses that needed no shifting (tape already aligned).
    pub aligned_hits: u64,
    /// Largest single-access shift distance observed.
    pub max_shift: u64,
}

dwm_foundation::json_struct!(ShiftStats {
    shifts,
    reads,
    writes,
    aligned_hits,
    max_shift
});

impl ShiftStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        ShiftStats::default()
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean shift distance per access; zero when no accesses occurred.
    pub fn mean_shift(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.shifts as f64 / n as f64
        }
    }

    /// Records one access of `dist` shift steps.
    pub fn record(&mut self, dist: u64, is_write: bool) {
        // Branch-free: replay loops call this once per access.
        self.shifts += dist;
        self.writes += u64::from(is_write);
        self.reads += u64::from(!is_write);
        self.aligned_hits += u64::from(dist == 0);
        self.max_shift = self.max_shift.max(dist);
    }

    /// Merges another counter set into this one (`max_shift` takes the
    /// maximum of the two).
    pub fn merge(&mut self, other: &ShiftStats) {
        self.shifts += other.shifts;
        self.reads += other.reads;
        self.writes += other.writes;
        self.aligned_hits += other.aligned_hits;
        self.max_shift = self.max_shift.max(other.max_shift);
    }
}

impl std::ops::AddAssign for ShiftStats {
    fn add_assign(&mut self, rhs: ShiftStats) {
        self.merge(&rhs);
    }
}

impl std::fmt::Display for ShiftStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shifts over {} accesses (mean {:.2}, max {}, {} aligned)",
            self.shifts,
            self.accesses(),
            self.mean_shift(),
            self.max_shift,
            self.aligned_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_all_fields() {
        let mut s = ShiftStats::new();
        s.record(3, false);
        s.record(0, true);
        s.record(7, false);
        assert_eq!(s.shifts, 10);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.aligned_hits, 1);
        assert_eq!(s.max_shift, 7);
        assert_eq!(s.accesses(), 3);
        assert!((s.mean_shift() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_shift_of_empty_is_zero() {
        assert_eq!(ShiftStats::new().mean_shift(), 0.0);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = ShiftStats::new();
        a.record(5, false);
        let mut b = ShiftStats::new();
        b.record(9, true);
        a += b;
        assert_eq!(a.shifts, 14);
        assert_eq!(a.max_shift, 9);
        assert_eq!(a.accesses(), 2);
    }

    #[test]
    fn display_mentions_shifts_and_accesses() {
        let mut s = ShiftStats::new();
        s.record(4, false);
        let text = s.to_string();
        assert!(text.contains("4 shifts"));
        assert!(text.contains("1 accesses"));
    }
}

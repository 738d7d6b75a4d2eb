//! Trace analysis: reuse distance, working sets, and phase detection.
//!
//! These analyses characterize *why* a placement helps on a given
//! workload (locality structure) and drive the online/adaptive
//! placement in `dwm-core`: phase boundaries are where re-placing data
//! pays for its migration cost.

use std::collections::BTreeMap;

use crate::access::Trace;

/// Reuse-distance histogram: for each access, the number of *distinct*
/// items touched since the previous access to the same item
/// (∞/cold for first touches).
///
/// Computed with the classic stack algorithm over a Vec "LRU stack" —
/// `O(T · D)` where `D` is the mean stack depth, plenty for the trace
/// sizes this workspace handles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of accesses with reuse distance `d`.
    pub histogram: Vec<u64>,
    /// Number of cold (first-touch) accesses.
    pub cold_accesses: u64,
}

impl ReuseProfile {
    /// Computes the reuse-distance profile of `trace`.
    pub fn compute(trace: &Trace) -> Self {
        let mut stack: Vec<u32> = Vec::new();
        let mut histogram: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        for a in trace.iter() {
            match lru_touch(&mut stack, a.item.0) {
                Some(distance) => {
                    if histogram.len() <= distance {
                        histogram.resize(distance + 1, 0);
                    }
                    histogram[distance] += 1;
                }
                None => cold += 1,
            }
        }
        ReuseProfile {
            histogram,
            cold_accesses: cold,
        }
    }

    /// Total accesses with a finite reuse distance.
    pub fn reuses(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Mean finite reuse distance (0 when there are no reuses).
    pub fn mean_distance(&self) -> f64 {
        let total = self.reuses();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }

    /// Fraction of reuses with distance < `d` — the hit ratio of a
    /// fully associative LRU buffer of `d` items.
    pub fn hit_ratio(&self, d: usize) -> f64 {
        let total = self.reuses() + self.cold_accesses;
        if total == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().take(d).sum();
        hits as f64 / total as f64
    }
}

/// Moves `id` to the top (the end) of the LRU `stack`, pushing it on a
/// first touch. Returns its reuse distance — the number of distinct
/// ids touched since its previous touch — when it was already present.
pub(crate) fn lru_touch(stack: &mut Vec<u32>, id: u32) -> Option<usize> {
    let distance = stack.iter().rev().position(|&x| x == id);
    if let Some(d) = distance {
        stack.remove(stack.len() - 1 - d);
    }
    stack.push(id);
    distance
}

/// Sizes of the working set (distinct items) over fixed-length windows.
pub fn working_set_curve(trace: &Trace, window: usize) -> Vec<usize> {
    assert!(window > 0, "window must be nonzero");
    trace
        .accesses()
        .chunks(window)
        .map(|chunk| {
            let mut items: Vec<u32> = chunk.iter().map(|a| a.item.0).collect();
            items.sort_unstable();
            items.dedup();
            items.len()
        })
        .collect()
}

/// Detects phase boundaries: indices (in accesses) where the item-
/// frequency distribution of consecutive windows diverges by more than
/// `threshold` (total-variation distance in `[0, 1]`). This is a
/// [`PhaseDetector`] fed the whole trace, then asked to
/// [`finish`](PhaseDetector::finish) its trailing partial window.
///
/// # Example
///
/// ```
/// use dwm_trace::{Trace, analysis::detect_phases};
///
/// // 100 accesses to items 0..4, then 100 accesses to items 10..14.
/// let mut ids: Vec<u32> = (0..100).map(|i| i % 4).collect();
/// ids.extend((0..100).map(|i| 10 + i % 4));
/// let trace = Trace::from_ids(ids);
/// let phases = detect_phases(&trace, 50, 0.5);
/// assert_eq!(phases, vec![100]);
/// ```
pub fn detect_phases(trace: &Trace, window: usize, threshold: f64) -> Vec<usize> {
    let mut detector = PhaseDetector::new(window, threshold);
    let mut boundaries = detector.push_chunk(trace.iter().map(|a| a.item.0));
    boundaries.extend(detector.finish());
    boundaries
}

/// Total-variation distance between two windows given their item
/// counts. Keys are visited in ascending item order (both maps are
/// ordered), so the floating-point summation order — and therefore
/// every threshold comparison downstream — is deterministic.
fn total_variation_counts(
    a: &BTreeMap<u32, u64>,
    a_len: usize,
    b: &BTreeMap<u32, u64>,
    b_len: usize,
) -> f64 {
    let mut ai = a.iter().peekable();
    let mut bi = b.iter().peekable();
    let mut sum = 0.0f64;
    let norm = |count: u64, len: usize| count as f64 / len as f64;
    loop {
        match (ai.peek(), bi.peek()) {
            (Some((&ka, &ca)), Some((&kb, &cb))) => {
                if ka < kb {
                    sum += norm(ca, a_len);
                    ai.next();
                } else if kb < ka {
                    sum += norm(cb, b_len);
                    bi.next();
                } else {
                    sum += (norm(ca, a_len) - norm(cb, b_len)).abs();
                    ai.next();
                    bi.next();
                }
            }
            (Some((_, &ca)), None) => {
                sum += norm(ca, a_len);
                ai.next();
            }
            (None, Some((_, &cb))) => {
                sum += norm(cb, b_len);
                bi.next();
            }
            (None, None) => break,
        }
    }
    0.5 * sum
}

/// Streaming phase-change detector: the one implementation of the
/// phase rule, for consumers that see the trace arrive in arbitrary
/// chunks (the `dwm-serve` session subsystem, [`crate::ProfileBuilder`])
/// and, over a whole trace, [`detect_phases`].
///
/// Accesses are pushed one at a time; every `window` accesses the
/// detector compares the completed window's item-frequency distribution
/// against the previous window's (total-variation distance) and reports
/// a *confirmed* boundary once `confirm` consecutive comparisons
/// diverge — `confirm = 1` (the default) reports every divergence,
/// higher values add hysteresis against one-window blips. [`finish`]
/// compares the trailing partial window too.
///
/// Boundaries do not depend on chunking: feeding any trace through
/// `push` (however it was split) plus one `finish` yields the
/// boundaries of comparing its consecutive `window`-access chunks when
/// `confirm == 1`. The test suite pins this against an offline oracle
/// that does exactly that.
///
/// [`finish`]: PhaseDetector::finish
///
/// # Example
///
/// ```
/// use dwm_trace::analysis::PhaseDetector;
///
/// let mut det = PhaseDetector::new(50, 0.5);
/// let mut boundaries = Vec::new();
/// for i in 0..100u32 {
///     boundaries.extend(det.push(i % 4));
/// }
/// for i in 0..100u32 {
///     boundaries.extend(det.push(10 + i % 4));
/// }
/// boundaries.extend(det.finish());
/// assert_eq!(boundaries, vec![100]);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    window: usize,
    threshold: f64,
    confirm: usize,
    /// Item counts of the last *complete* window, if any.
    prev: Option<BTreeMap<u32, u64>>,
    /// Item counts of the window being filled.
    current: BTreeMap<u32, u64>,
    current_len: usize,
    /// Consecutive diverging window comparisons seen so far.
    streak: usize,
    /// Total accesses pushed.
    accesses: usize,
    /// Divergences observed (before confirmation), for stats.
    divergences: u64,
}

impl PhaseDetector {
    /// A detector comparing `window`-access frequency distributions
    /// against `threshold`, confirming on the first divergence.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window > 0, "window must be nonzero");
        PhaseDetector {
            window,
            threshold,
            confirm: 1,
            prev: None,
            current: BTreeMap::new(),
            current_len: 0,
            streak: 0,
            accesses: 0,
            divergences: 0,
        }
    }

    /// Requires `confirm` consecutive diverging windows before a
    /// boundary is reported (1 = report immediately).
    ///
    /// # Panics
    ///
    /// Panics if `confirm` is zero.
    pub fn with_confirm(mut self, confirm: usize) -> Self {
        assert!(confirm > 0, "confirm must be nonzero");
        self.confirm = confirm;
        self
    }

    /// The window length in accesses.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total accesses pushed so far.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Window comparisons that diverged (whether or not confirmed).
    pub fn divergences(&self) -> u64 {
        self.divergences
    }

    /// Feeds one access. Returns the confirmed phase boundary (the
    /// access index where the diverging window began) completed by this
    /// access, if any.
    pub fn push(&mut self, item: u32) -> Option<usize> {
        *self.current.entry(item).or_insert(0) += 1;
        self.current_len += 1;
        self.accesses += 1;
        if self.current_len < self.window {
            return None;
        }
        let counts = std::mem::take(&mut self.current);
        self.current_len = 0;
        self.compare_and_roll(counts, self.window)
    }

    /// Feeds a chunk of accesses, collecting every confirmed boundary.
    pub fn push_chunk(&mut self, items: impl IntoIterator<Item = u32>) -> Vec<usize> {
        items.into_iter().filter_map(|i| self.push(i)).collect()
    }

    /// Evaluates the trailing partial window (if any) against the last
    /// complete one, normalizing each by its own length. A pure query:
    /// the detector is untouched, so it can be consulted at any point of
    /// the stream and pushed into again.
    pub fn finish(&self) -> Option<usize> {
        if self.current_len == 0 {
            return None;
        }
        let prev = self.prev.as_ref()?;
        let tv = total_variation_counts(prev, self.window, &self.current, self.current_len);
        (tv > self.threshold && self.streak + 1 >= self.confirm)
            .then(|| self.accesses - self.current_len)
    }

    /// Compares a just-completed window against the previous one and
    /// rolls the window state. `len` is the completed window's length.
    fn compare_and_roll(&mut self, counts: BTreeMap<u32, u64>, len: usize) -> Option<usize> {
        let boundary = match self.prev.as_ref() {
            Some(prev) => {
                let tv = total_variation_counts(prev, self.window, &counts, len);
                if tv > self.threshold {
                    self.divergences += 1;
                    self.streak += 1;
                    // The boundary sits where the diverging window
                    // began: (i + 1) · window for window pair (i, i + 1).
                    (self.streak >= self.confirm).then(|| {
                        self.streak = 0;
                        self.accesses - len
                    })
                } else {
                    self.streak = 0;
                    None
                }
            }
            None => None,
        };
        self.prev = Some(counts);
        boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SequentialGen, TraceGenerator, UniformGen, ZipfGen};

    #[test]
    fn sequential_reuse_distance_is_items_minus_one() {
        let t = SequentialGen::new(8).generate(80);
        let p = ReuseProfile::compute(&t);
        assert_eq!(p.cold_accesses, 8);
        // Every reuse of a sequential sweep has distance n−1 = 7.
        assert_eq!(p.histogram.len(), 8);
        assert_eq!(p.histogram[7], 72);
        assert!((p.mean_distance() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_item_has_zero_distance() {
        let t = Trace::from_ids([1u32, 1, 1, 1]);
        let p = ReuseProfile::compute(&t);
        assert_eq!(p.cold_accesses, 1);
        assert_eq!(p.histogram[0], 3);
    }

    #[test]
    fn hit_ratio_is_monotone_in_buffer_size() {
        let t = ZipfGen::new(32, 5).generate(2000);
        let p = ReuseProfile::compute(&t);
        let mut last = 0.0;
        for d in [1usize, 2, 4, 8, 16, 32] {
            let h = p.hit_ratio(d);
            assert!(h >= last);
            last = h;
        }
        assert!(p.hit_ratio(32) > 0.9);
    }

    #[test]
    fn zipf_has_shorter_mean_reuse_than_uniform() {
        let z = ReuseProfile::compute(&ZipfGen::new(32, 5).generate(4000));
        let u = ReuseProfile::compute(&UniformGen::new(32, 5).generate(4000));
        assert!(z.mean_distance() < u.mean_distance());
    }

    #[test]
    fn working_set_curve_reflects_footprint() {
        let t = SequentialGen::new(4).generate(40);
        assert_eq!(working_set_curve(&t, 8), vec![4; 5]);
        let tight = Trace::from_ids([0u32; 16]);
        assert_eq!(working_set_curve(&tight, 8), vec![1, 1]);
    }

    #[test]
    fn stable_workload_has_no_phases() {
        let t = UniformGen::new(16, 9).generate(1000);
        assert!(detect_phases(&t, 100, 0.6).is_empty());
    }

    #[test]
    fn phase_change_is_detected_at_boundary() {
        let mut ids: Vec<u32> = (0..300).map(|i| i % 8).collect();
        ids.extend((0..300).map(|i| 20 + i % 8));
        let t = Trace::from_ids(ids);
        let phases = detect_phases(&t, 100, 0.5);
        assert_eq!(phases, vec![300]);
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_rejected() {
        let _ = working_set_curve(&Trace::from_ids([0u32]), 0);
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let p = ReuseProfile::compute(&Trace::new());
        assert_eq!(p.cold_accesses, 0);
        assert_eq!(p.reuses(), 0);
        assert_eq!(p.mean_distance(), 0.0);
        assert_eq!(p.hit_ratio(8), 0.0);
    }

    /// The offline oracle of the phase rule: compares each pair of
    /// consecutive `window`-access chunks of the whole trace at once.
    fn offline_phases(trace: &Trace, window: usize, threshold: f64) -> Vec<usize> {
        let chunks: Vec<&[crate::access::Access]> = trace.accesses().chunks(window).collect();
        let mut boundaries = Vec::new();
        for (i, pair) in chunks.windows(2).enumerate() {
            if total_variation(pair[0], pair[1]) > threshold {
                boundaries.push((i + 1) * window);
            }
        }
        boundaries
    }

    fn window_counts(chunk: &[crate::access::Access]) -> BTreeMap<u32, u64> {
        let mut m = BTreeMap::new();
        for acc in chunk {
            *m.entry(acc.item.0).or_insert(0u64) += 1;
        }
        m
    }

    fn total_variation(a: &[crate::access::Access], b: &[crate::access::Access]) -> f64 {
        total_variation_counts(&window_counts(a), a.len(), &window_counts(b), b.len())
    }

    /// Streams `trace` through a detector in chunks of `chunk` accesses
    /// and collects every boundary, including the trailing-window check.
    fn stream_boundaries(trace: &Trace, window: usize, threshold: f64, chunk: usize) -> Vec<usize> {
        let mut det = PhaseDetector::new(window, threshold);
        let mut out = Vec::new();
        for ids in trace
            .accesses()
            .chunks(chunk)
            .map(|c| c.iter().map(|a| a.item.0).collect::<Vec<_>>())
        {
            out.extend(det.push_chunk(ids));
        }
        out.extend(det.finish());
        out
    }

    #[test]
    fn streaming_detector_matches_offline_under_any_chunking() {
        // A mix of stable and shifting workloads, including a trailing
        // partial window that only `finish` can see.
        let mut ids: Vec<u32> = (0..230).map(|i| i % 6).collect();
        ids.extend((0..170).map(|i| 40 + i % 6));
        ids.extend((0..95).map(|i| 80 + i % 3));
        let trace = Trace::from_ids(ids);
        for window in [50usize, 64, 100] {
            let offline = offline_phases(&trace, window, 0.5);
            assert!(!offline.is_empty(), "fixture must contain a phase change");
            assert_eq!(detect_phases(&trace, window, 0.5), offline);
            for chunk in [1usize, 7, 50, 64, 1000] {
                assert_eq!(
                    stream_boundaries(&trace, window, 0.5, chunk),
                    offline,
                    "window {window}, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn streaming_detector_matches_offline_on_random_traces() {
        let trace = churning_markov_trace();
        for window in [32usize, 75] {
            for threshold in [0.3f64, 0.5, 0.8] {
                let offline = offline_phases(&trace, window, threshold);
                assert_eq!(
                    stream_boundaries(&trace, window, threshold, 13),
                    offline,
                    "window {window}, threshold {threshold}"
                );
            }
        }
    }

    /// A phase-churning random trace for the equivalence sweep.
    fn churning_markov_trace() -> Trace {
        let mut ids = Vec::new();
        for phase in 0..5u32 {
            let t = crate::synth::MarkovGen::new(24, 4, u64::from(phase) + 3).generate(333);
            ids.extend(t.iter().map(|a| a.item.0 + phase * 3));
        }
        Trace::from_ids(ids)
    }

    #[test]
    fn confirm_count_adds_hysteresis() {
        // Alternating phases every window: each comparison diverges.
        let mut ids: Vec<u32> = Vec::new();
        for phase in 0..6 {
            let base = if phase % 2 == 0 { 0 } else { 50 };
            ids.extend((0..100).map(|i| base + i % 4));
        }
        let eager: Vec<usize> = {
            let mut det = PhaseDetector::new(100, 0.5);
            ids.iter().filter_map(|&i| det.push(i)).collect()
        };
        assert_eq!(eager, vec![100, 200, 300, 400, 500]);
        // confirm = 2 needs two diverging comparisons in a row; every
        // comparison diverges here, so boundaries fire on alternating
        // windows (streak resets after each confirmation).
        let damped: Vec<usize> = {
            let mut det = PhaseDetector::new(100, 0.5).with_confirm(2);
            ids.iter().filter_map(|&i| det.push(i)).collect()
        };
        assert_eq!(damped, vec![200, 400]);
        // A stable workload never confirms at any setting.
        let mut det = PhaseDetector::new(100, 0.5).with_confirm(2);
        let stable: Vec<usize> = (0..1000u32).filter_map(|i| det.push(i % 4)).collect();
        assert!(stable.is_empty());
        assert_eq!(det.accesses(), 1000);
        assert_eq!(det.divergences(), 0);
    }

    #[test]
    fn finish_is_a_pure_query() {
        let mut det = PhaseDetector::new(10, 0.5);
        for i in 0..10u32 {
            assert!(det.push(i % 2).is_none());
        }
        for _ in 0..5 {
            assert!(det.push(40).is_none());
        }
        // Trailing partial window diverges; finish sees it without
        // consuming it.
        assert_eq!(det.finish(), Some(10));
        assert_eq!(det.finish(), Some(10), "repeat finish is stable");
        for _ in 0..5 {
            let _ = det.push(41);
        }
        // The window completed; the boundary now arrives via push.
        assert_eq!(det.accesses(), 20);
    }

    #[test]
    #[should_panic(expected = "confirm must be nonzero")]
    fn zero_confirm_rejected() {
        let _ = PhaseDetector::new(10, 0.5).with_confirm(0);
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_detector_rejected() {
        let _ = PhaseDetector::new(0, 0.5);
    }
}

//! Workload profiles: compact statistical fingerprints of traces.
//!
//! A [`TraceProfile`] captures what the placement stack cares about —
//! kernel mix (read/write ratio), reuse-distance histogram, phase
//! structure, and Zipf skew — in a few hundred bytes of versioned JSON,
//! so realistic workloads can be shipped and replayed *without* shipping
//! the tenant trace itself. The profile feeds
//! [`ProfiledGen`](crate::synth::ProfiledGen), which regenerates a
//! statistically matched trace at arbitrary scale, streaming one access
//! at a time (a 10⁸-access replay never materializes the trace).
//!
//! Histograms use log₂ buckets: bucket `b` covers distances (or
//! popularity ranks) in `[2^b − 1, 2^(b+1) − 1)`, so bucket 0 is exactly
//! `{0}` — which makes the self-transition rate an exact corollary of
//! the reuse histogram rather than a separate knob.

use std::collections::HashMap;

use crate::access::{Access, Trace};
use crate::analysis::PhaseDetector;

/// Version stamp embedded in every serialized profile. Bump when the
/// schema or the generation semantics change incompatibly.
pub const PROFILE_VERSION: u32 = 1;

/// Log₂ bucket index of a distance or rank: bucket `b` covers
/// `[2^b − 1, 2^(b+1) − 1)`; bucket 0 is exactly `{0}`.
pub(crate) fn log2_bucket(x: u64) -> usize {
    (u64::BITS - 1 - (x + 1).leading_zeros()) as usize
}

/// Inclusive lower bound of log₂ bucket `b`.
pub(crate) fn bucket_lo(b: usize) -> u64 {
    (1u64 << b) - 1
}

/// A compact, versioned statistical fingerprint of a trace.
///
/// Produced by [`TraceProfile::from_trace`] (or the streaming
/// [`ProfileBuilder`]), serialized by `dwm trace profile`, and consumed
/// by [`ProfiledGen`](crate::synth::ProfiledGen) / `dwm trace synth`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Schema version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Label of the profiled trace (kernel or generator name).
    pub source: String,
    /// Length of the profiled trace, in accesses.
    pub length: u64,
    /// Number of distinct items — the item universe replays preserve.
    pub items: usize,
    /// Fraction of accesses that are writes (the kernel mix).
    pub write_ratio: f64,
    /// Fraction of consecutive access pairs touching the same item.
    pub self_transition_rate: f64,
    /// Least-squares Zipf exponent fitted to the rank/frequency curve.
    pub zipf_exponent: f64,
    /// Fraction of accesses going to the hottest 20% of items.
    pub hot20_share: f64,
    /// Mean absolute id distance between consecutive accesses.
    pub mean_stride: f64,
    /// Cold (first-touch) accesses as a fraction of the trace length.
    pub cold_fraction: f64,
    /// Excess short-distance reuse mass beyond what the frequency
    /// distribution alone would produce (0 for i.i.d.-like workloads,
    /// approaching 1 for tightly clustered walks). Drives the share of
    /// locality draws during replay.
    pub locality: f64,
    /// Number of detected phases (≥ 1; phase churn scatters adjacency).
    pub phases: usize,
    /// Access mass per log₂ popularity-rank bucket (sums to 1 when the
    /// trace is nonempty).
    pub rank_shares: Vec<f64>,
    /// Finite reuse-distance mass per log₂ bucket (sums to 1 when any
    /// reuse exists). Bucket 0 is the self-transition mass.
    pub reuse_buckets: Vec<f64>,
}

dwm_foundation::json_struct!(TraceProfile {
    version,
    source,
    length,
    items,
    write_ratio,
    self_transition_rate,
    zipf_exponent,
    hot20_share,
    mean_stride,
    cold_fraction,
    locality,
    phases,
    rank_shares,
    reuse_buckets,
});

impl TraceProfile {
    /// Profiles `trace` in one pass. The phase-detection window scales
    /// with the trace (`len/16`, clamped to `[64, 8192]`) so short
    /// kernel traces and long synthetic ones both resolve their phases.
    pub fn from_trace(trace: &Trace) -> Self {
        let window = (trace.len() / 16).clamp(64, 8192);
        let mut builder = ProfileBuilder::new(trace.label(), window);
        for a in trace.iter() {
            builder.push(*a);
        }
        builder.finish()
    }

    /// Parses a serialized profile, rejecting unknown schema versions.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a shape mismatch, or a
    /// version other than [`PROFILE_VERSION`].
    pub fn parse(input: &str) -> Result<Self, String> {
        let profile: TraceProfile =
            dwm_foundation::json::from_str(input).map_err(|e| e.to_string())?;
        if profile.version != PROFILE_VERSION {
            return Err(format!(
                "unsupported profile version {} (this build reads version {})",
                profile.version, PROFILE_VERSION
            ));
        }
        Ok(profile)
    }

    /// Serializes the profile as pretty-printed JSON (the `dwm trace
    /// profile` output format).
    pub fn to_json_pretty(&self) -> String {
        dwm_foundation::json::to_string_pretty(self)
    }

    /// Access mass going to items *outside* the hottest 20% — the Zipf
    /// tail mass the fidelity tests compare.
    pub fn tail_mass(&self) -> f64 {
        1.0 - self.hot20_share
    }

    /// Index of the log₂ reuse bucket at which the cumulative finite
    /// reuse mass first reaches quantile `q` (0 when no reuse exists).
    pub fn reuse_quantile_bucket(&self, q: f64) -> usize {
        let mut cum = 0.0;
        for (b, &mass) in self.reuse_buckets.iter().enumerate() {
            cum += mass;
            if cum >= q {
                return b;
            }
        }
        self.reuse_buckets.len().saturating_sub(1)
    }

    /// Component-wise gaps between this profile and `other`.
    pub fn fidelity(&self, other: &TraceProfile) -> Fidelity {
        let reuse_quantile_gap = [0.25, 0.5, 0.75]
            .iter()
            .map(|&q| {
                self.reuse_quantile_bucket(q)
                    .abs_diff(other.reuse_quantile_bucket(q))
            })
            .max()
            .unwrap_or(0);
        Fidelity {
            kernel_mix_gap: (self.write_ratio - other.write_ratio).abs(),
            self_transition_gap: (self.self_transition_rate - other.self_transition_rate).abs(),
            tail_mass_gap: (self.tail_mass() - other.tail_mass()).abs(),
            reuse_quantile_gap,
        }
    }
}

/// Gaps between two profiles, one per statistic the property tests
/// gate on. Produced by [`TraceProfile::fidelity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Absolute write-ratio (kernel mix) difference.
    pub kernel_mix_gap: f64,
    /// Absolute self-transition-rate difference.
    pub self_transition_gap: f64,
    /// Absolute Zipf tail-mass difference.
    pub tail_mass_gap: f64,
    /// Largest log₂-bucket distance across the p25/p50/p75 reuse
    /// quantiles.
    pub reuse_quantile_gap: usize,
}

impl Fidelity {
    /// Default kernel-mix tolerance (absolute write-ratio gap).
    pub const KERNEL_MIX_TOL: f64 = 0.05;
    /// Default Zipf tail-mass tolerance.
    pub const TAIL_MASS_TOL: f64 = 0.10;
    /// Default self-transition-rate tolerance.
    pub const SELF_TRANSITION_TOL: f64 = 0.05;
    /// Default reuse-quantile tolerance, in log₂ buckets.
    pub const REUSE_BUCKET_TOL: usize = 2;

    /// Whether every gap is within the default tolerances.
    pub fn within_default_tolerance(&self) -> bool {
        self.kernel_mix_gap <= Self::KERNEL_MIX_TOL
            && self.self_transition_gap <= Self::SELF_TRANSITION_TOL
            && self.tail_mass_gap <= Self::TAIL_MASS_TOL
            && self.reuse_quantile_gap <= Self::REUSE_BUCKET_TOL
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel mix Δ{:.3}, self-transition Δ{:.3}, tail mass Δ{:.3}, reuse quantiles Δ{} bucket(s)",
            self.kernel_mix_gap,
            self.self_transition_gap,
            self.tail_mass_gap,
            self.reuse_quantile_gap
        )
    }
}

/// Streaming profile accumulator: the incremental counterpart of
/// [`TraceProfile::from_trace`] for traces that never exist in memory
/// (the 10⁸-access fidelity checks profile
/// [`ProfiledGen::stream`](crate::synth::ProfiledGen::stream) output
/// directly through this).
///
/// Memory is `O(items)` — a frequency map, the reuse LRU stack, the
/// phase detector's window counts, and a ~64-entry histogram — never
/// `O(accesses)`.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    label: String,
    length: u64,
    writes: u64,
    freq: HashMap<u32, u64>,
    prev: Option<u32>,
    self_transitions: u64,
    stride_sum: u64,
    /// LRU stack for reuse distances (classic stack algorithm).
    stack: Vec<u32>,
    reuse_counts: Vec<u64>,
    cold: u64,
    detector: PhaseDetector,
    boundaries: u64,
}

impl ProfileBuilder {
    /// Phase-detection window used when the stream length is unknown.
    pub const DEFAULT_WINDOW: usize = 4096;

    /// A builder labelling its profile `source`, detecting phases over
    /// `phase_window`-access windows.
    ///
    /// # Panics
    ///
    /// Panics if `phase_window` is zero.
    pub fn new(source: impl Into<String>, phase_window: usize) -> Self {
        ProfileBuilder {
            label: source.into(),
            length: 0,
            writes: 0,
            freq: HashMap::new(),
            prev: None,
            self_transitions: 0,
            stride_sum: 0,
            stack: Vec::new(),
            reuse_counts: Vec::new(),
            cold: 0,
            detector: PhaseDetector::new(phase_window, 0.5),
            boundaries: 0,
        }
    }

    /// Accesses pushed so far.
    pub fn len(&self) -> u64 {
        self.length
    }

    /// Whether no accesses have been pushed.
    pub fn is_empty(&self) -> bool {
        self.length == 0
    }

    /// Feeds one access.
    pub fn push(&mut self, access: Access) {
        let id = access.item.0;
        self.length += 1;
        if access.kind.is_write() {
            self.writes += 1;
        }
        *self.freq.entry(id).or_insert(0) += 1;
        if let Some(prev) = self.prev {
            if prev == id {
                self.self_transitions += 1;
            }
            self.stride_sum += u64::from(prev.abs_diff(id));
        }
        self.prev = Some(id);
        // `analysis::lru_touch`'s step, written out: the profiler's hot
        // loop measured slower through the helper (`trace/profile_1M`).
        match self.stack.iter().rposition(|&x| x == id) {
            Some(pos) => {
                let distance = (self.stack.len() - 1 - pos) as u64;
                let b = log2_bucket(distance);
                if self.reuse_counts.len() <= b {
                    self.reuse_counts.resize(b + 1, 0);
                }
                self.reuse_counts[b] += 1;
                self.stack.remove(pos);
                self.stack.push(id);
            }
            None => {
                self.cold += 1;
                self.stack.push(id);
            }
        }
        if self.detector.push(id).is_some() {
            self.boundaries += 1;
        }
    }

    /// Finalizes the profile, folding in the trailing partial phase
    /// window exactly as [`crate::analysis::detect_phases`] would.
    pub fn finish(self) -> TraceProfile {
        let pairs = self.length.saturating_sub(1);
        let mut counts: Vec<u64> = self.freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let hot_n = counts.len().max(1).div_ceil(5);
        let hot_sum: u64 = counts.iter().take(hot_n).sum();
        let mut rank_shares = Vec::new();
        if total > 0 {
            for (rank, &c) in counts.iter().enumerate() {
                let b = log2_bucket(rank as u64);
                if rank_shares.len() <= b {
                    rank_shares.resize(b + 1, 0.0);
                }
                rank_shares[b] += c as f64 / total as f64;
            }
        }
        let reuses: u64 = self.reuse_counts.iter().sum();
        let reuse_buckets = self
            .reuse_counts
            .iter()
            .map(|&c| {
                if reuses == 0 {
                    0.0
                } else {
                    c as f64 / reuses as f64
                }
            })
            .collect();
        let boundaries = self.boundaries + u64::from(self.detector.finish().is_some());
        let locality = estimate_locality(&counts, &self.reuse_counts);
        TraceProfile {
            version: PROFILE_VERSION,
            source: self.label,
            length: self.length,
            items: counts.len(),
            write_ratio: ratio(self.writes, self.length),
            self_transition_rate: ratio(self.self_transitions, pairs),
            zipf_exponent: fit_zipf_exponent(&counts),
            hot20_share: ratio(hot_sum, total),
            mean_stride: ratio(self.stride_sum, pairs),
            cold_fraction: ratio(self.cold, self.length),
            locality,
            phases: (boundaries + 1) as usize,
            rank_shares,
            reuse_buckets,
        }
    }
}

/// Estimates how much short-distance reuse mass exceeds what an
/// i.i.d. draw from the same frequency distribution would produce.
///
/// The yardstick is the participation ratio `N_eff = (Σc)² / Σc²` (the
/// effective working-set size): for an i.i.d. stream the LRU stack
/// distance is spread over roughly `[0, N_eff)`, so about a quarter of
/// the reuse mass falls below `N_eff / 4`. Mass above that baseline is
/// clustering the frequency distribution can't explain, and is what
/// replay must re-create with explicit locality draws. Skewed i.i.d.
/// sources concentrate somewhat below the uniform baseline too, so the
/// excess is attenuated and tiny values snap to zero — pure rank draws
/// already reproduce those.
fn estimate_locality(sorted_counts: &[u64], reuse_counts: &[u64]) -> f64 {
    let total: u64 = sorted_counts.iter().sum();
    let sq: f64 = sorted_counts
        .iter()
        .map(|&c| (c as f64 / total.max(1) as f64).powi(2))
        .sum();
    if total == 0 || sq <= 0.0 {
        return 0.0;
    }
    let n_eff = 1.0 / sq;
    let reuses: u64 = reuse_counts.iter().sum();
    if reuses == 0 || n_eff < 8.0 {
        return 0.0;
    }
    let t = n_eff / 4.0;
    // Mass of reuse distances below t, interpolating linearly inside
    // the straddling log₂ bucket.
    let mut short = 0.0f64;
    for (b, &c) in reuse_counts.iter().enumerate() {
        let lo = bucket_lo(b) as f64;
        let hi = bucket_lo(b + 1) as f64;
        let frac = ((t - lo) / (hi - lo)).clamp(0.0, 1.0);
        short += frac * c as f64 / reuses as f64;
    }
    // The i.i.d. baseline is ≥ 0.25 and higher under skew; 0.4 keeps
    // mildly skewed i.i.d. sources at locality ≈ 0 while clustered
    // walks (short mass ≈ 0.9) still land near 0.8.
    let excess = ((short - 0.4) / 0.6).clamp(0.0, 1.0);
    if excess < 0.05 {
        0.0
    } else {
        excess
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Least-squares slope of `ln(count)` against `ln(rank + 1)` over the
/// descending-sorted counts, negated — the classic Zipf exponent fit.
fn fit_zipf_exponent(sorted_counts: &[u64]) -> f64 {
    let points: Vec<(f64, f64)> = sorted_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(rank, &c)| ((rank as f64 + 1.0).ln(), (c as f64).ln()))
        .collect();
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (-(n * sxy - sx * sy) / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{MarkovGen, TraceGenerator, UniformGen, ZipfGen};

    #[test]
    fn log2_buckets_partition_the_line() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(6), 2);
        assert_eq!(log2_bucket(7), 3);
        for b in 0..20 {
            assert_eq!(log2_bucket(bucket_lo(b)), b);
            assert_eq!(log2_bucket(bucket_lo(b + 1) - 1), b);
        }
    }

    #[test]
    fn profile_matches_trace_stats() {
        let t = ZipfGen::new(64, 9).generate(5000).normalize();
        let p = TraceProfile::from_trace(&t);
        let s = t.stats();
        assert_eq!(p.length as usize, s.length);
        assert_eq!(p.items, s.distinct_items);
        assert!((p.write_ratio - s.writes as f64 / s.length as f64).abs() < 1e-12);
        assert!((p.self_transition_rate - s.self_transition_rate).abs() < 1e-12);
        assert!((p.hot20_share - s.hot20_share).abs() < 1e-12);
        assert!((p.mean_stride - s.mean_stride).abs() < 1e-12);
    }

    #[test]
    fn histogram_masses_are_normalized() {
        let t = MarkovGen::new(48, 6, 3).generate(4000);
        let p = TraceProfile::from_trace(&t);
        let rank_sum: f64 = p.rank_shares.iter().sum();
        let reuse_sum: f64 = p.reuse_buckets.iter().sum();
        assert!((rank_sum - 1.0).abs() < 1e-9, "rank mass {rank_sum}");
        assert!((reuse_sum - 1.0).abs() < 1e-9, "reuse mass {reuse_sum}");
        // Self-transitions are exactly the bucket-0 reuse mass (scaled
        // from pairs to reuses).
        let reuses: f64 = 1.0; // normalized
        assert!(p.reuse_buckets[0] <= reuses);
    }

    #[test]
    fn streaming_builder_matches_from_trace() {
        let t = ZipfGen::new(32, 5).generate(3000).normalize();
        let window = (t.len() / 16).clamp(64, 8192);
        let mut b = ProfileBuilder::new(t.label(), window);
        for a in t.iter() {
            b.push(*a);
        }
        assert_eq!(b.finish(), TraceProfile::from_trace(&t));
    }

    #[test]
    fn zipf_fit_recovers_the_exponent_roughly() {
        for exp in [0.8f64, 1.2] {
            let t = ZipfGen::new(128, 7)
                .with_exponent(exp)
                .generate(60_000)
                .normalize();
            let p = TraceProfile::from_trace(&t);
            assert!(
                (p.zipf_exponent - exp).abs() < 0.35,
                "fitted {} for true {}",
                p.zipf_exponent,
                exp
            );
        }
        let u = UniformGen::new(128, 7).generate(60_000).normalize();
        assert!(TraceProfile::from_trace(&u).zipf_exponent < 0.2);
    }

    #[test]
    fn json_round_trip_preserves_the_profile() {
        let t = MarkovGen::new(40, 5, 11).generate(2500).normalize();
        let p = TraceProfile::from_trace(&t);
        let json = p.to_json_pretty();
        assert!(json.contains("\"version\": 1"));
        assert_eq!(TraceProfile::parse(&json).unwrap(), p);
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let t = UniformGen::new(8, 1).generate(100);
        let mut p = TraceProfile::from_trace(&t);
        p.version = 99;
        let err = TraceProfile::parse(&p.to_json_pretty()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        assert!(TraceProfile::parse("{not json").is_err());
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let p = TraceProfile::from_trace(&Trace::new());
        assert_eq!(p.length, 0);
        assert_eq!(p.items, 0);
        assert_eq!(p.phases, 1);
        assert_eq!(p.tail_mass(), 1.0);
        assert!(p.rank_shares.is_empty());
        assert!(p.reuse_buckets.is_empty());
        assert_eq!(p.reuse_quantile_bucket(0.5), 0);
    }

    #[test]
    fn fidelity_of_a_profile_with_itself_is_zero() {
        let t = ZipfGen::new(50, 3).generate(4000).normalize();
        let p = TraceProfile::from_trace(&t);
        let f = p.fidelity(&p);
        assert_eq!(f.kernel_mix_gap, 0.0);
        assert_eq!(f.tail_mass_gap, 0.0);
        assert_eq!(f.reuse_quantile_gap, 0);
        assert!(f.within_default_tolerance());
    }

    #[test]
    fn fidelity_flags_dissimilar_workloads() {
        let z = TraceProfile::from_trace(&ZipfGen::new(64, 3).with_exponent(1.4).generate(8000));
        let u = TraceProfile::from_trace(&UniformGen::new(64, 3).generate(8000));
        let f = z.fidelity(&u);
        assert!(!f.within_default_tolerance(), "{f}");
        assert!(f.tail_mass_gap > Fidelity::TAIL_MASS_TOL);
    }

    #[test]
    fn phase_churn_is_counted() {
        let mut ids: Vec<u32> = (0..2000).map(|i| i % 8).collect();
        ids.extend((0..2000).map(|i| 100 + i % 8));
        let p = TraceProfile::from_trace(&Trace::from_ids(ids));
        assert!(p.phases >= 2, "saw {} phases", p.phases);
        let stable = TraceProfile::from_trace(&UniformGen::new(16, 2).generate(4000));
        assert_eq!(stable.phases, 1);
    }
}

//! Seeded synthetic trace generators.
//!
//! The sensitivity sweeps (experiments F4/F5/F7) and the property tests
//! need workloads whose statistical character is controlled: uniform
//! random (worst case for placement), Zipf-skewed (frequency-dominated),
//! sequential/strided (regular), and Markov-clustered (locality-
//! dominated, the case placement exploits best). All generators are
//! deterministic given their seed.

use dwm_foundation::rng::Zipf;
use dwm_foundation::Rng;

use crate::access::{Access, AccessKind, Trace};
use crate::analysis::lru_touch;
use crate::profile::{bucket_lo, TraceProfile};

/// A source of synthetic traces.
///
/// Implementors are cheap value types describing a distribution; call
/// [`generate`](TraceGenerator::generate) to materialize a trace of the
/// requested length. The trait is object-safe so sweeps can iterate
/// over `&[&dyn TraceGenerator]`.
pub trait TraceGenerator {
    /// Short name used as the trace label and in report tables.
    fn name(&self) -> String;

    /// Generates `len` accesses over `self`'s item universe using the
    /// generator's seed (same seed → same trace).
    fn generate(&self, len: usize) -> Trace;
}

fn rw_kind(rng: &mut Rng, write_ratio: f64) -> AccessKind {
    if rng.gen_bool(write_ratio.clamp(0.0, 1.0)) {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Uniform random accesses over `items` items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformGen {
    /// Number of distinct items.
    pub items: usize,
    /// Probability an access is a write.
    pub write_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UniformGen {
    /// Uniform reads over `items` items with the given seed.
    pub fn new(items: usize, seed: u64) -> Self {
        UniformGen {
            items,
            write_ratio: 0.0,
            seed,
        }
    }
}

impl TraceGenerator for UniformGen {
    fn name(&self) -> String {
        format!("uniform-{}", self.items)
    }

    fn generate(&self, len: usize) -> Trace {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut trace: Trace = (0..len)
            .map(|_| Access {
                item: (rng.gen_range(0..self.items.max(1)) as u32).into(),
                kind: rw_kind(&mut rng, self.write_ratio),
            })
            .collect();
        trace = trace.with_label(self.name());
        trace
    }
}

/// Zipf-distributed accesses: item `i` (0-based rank) is drawn with
/// probability proportional to `1 / (i + 1)^exponent`.
///
/// Sampling uses an explicit CDF and binary search, so no external
/// distribution crate is needed and the result is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfGen {
    /// Number of distinct items.
    pub items: usize,
    /// Skew exponent (0 = uniform; ≈1 = classic Zipf).
    pub exponent: f64,
    /// Probability an access is a write.
    pub write_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ZipfGen {
    /// Zipf reads with the classic exponent 1.0.
    pub fn new(items: usize, seed: u64) -> Self {
        ZipfGen {
            items,
            exponent: 1.0,
            write_ratio: 0.0,
            seed,
        }
    }

    /// Sets the skew exponent.
    pub fn with_exponent(mut self, exponent: f64) -> Self {
        self.exponent = exponent;
        self
    }
}

impl TraceGenerator for ZipfGen {
    fn name(&self) -> String {
        format!("zipf-{}-s{:.2}", self.items, self.exponent)
    }

    fn generate(&self, len: usize) -> Trace {
        let zipf = Zipf::new(self.items.max(1), self.exponent);
        let mut rng = Rng::seed_from_u64(self.seed);
        let trace: Trace = (0..len)
            .map(|_| {
                let idx = zipf.sample(&mut rng);
                Access {
                    item: (idx as u32).into(),
                    kind: rw_kind(&mut rng, self.write_ratio),
                }
            })
            .collect();
        trace.with_label(self.name())
    }
}

/// Repeated sequential sweeps over `items` items (streaming pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequentialGen {
    /// Number of distinct items.
    pub items: usize,
}

impl SequentialGen {
    /// A sequential sweep generator.
    pub fn new(items: usize) -> Self {
        SequentialGen { items }
    }
}

impl TraceGenerator for SequentialGen {
    fn name(&self) -> String {
        format!("seq-{}", self.items)
    }

    fn generate(&self, len: usize) -> Trace {
        let trace: Trace = (0..len)
            .map(|t| Access::read((t % self.items.max(1)) as u32))
            .collect();
        trace.with_label(self.name())
    }
}

/// Strided accesses: item `(t * stride) mod items` at step `t`
/// (column-major array walks, banked FFT stages, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedGen {
    /// Number of distinct items.
    pub items: usize,
    /// Stride between consecutive accesses.
    pub stride: usize,
}

impl StridedGen {
    /// A strided generator.
    pub fn new(items: usize, stride: usize) -> Self {
        StridedGen { items, stride }
    }
}

impl TraceGenerator for StridedGen {
    fn name(&self) -> String {
        format!("stride-{}-by{}", self.items, self.stride)
    }

    fn generate(&self, len: usize) -> Trace {
        let n = self.items.max(1);
        let trace: Trace = (0..len)
            .map(|t| Access::read(((t * self.stride) % n) as u32))
            .collect();
        trace.with_label(self.name())
    }
}

/// Markov-cluster generator: items are grouped into clusters; the walk
/// stays inside its current cluster with probability `stay`, and jumps
/// to a uniformly random cluster otherwise.
///
/// This models the phase-local behaviour of real programs, which is the
/// structure adjacency-driven placement exploits: items co-accessed in
/// a phase should be co-located on the tape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovGen {
    /// Number of distinct items.
    pub items: usize,
    /// Number of clusters items are divided into.
    pub clusters: usize,
    /// Probability of staying within the current cluster per step.
    pub stay: f64,
    /// Probability an access is a write.
    pub write_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MarkovGen {
    /// A clustered walk with the given geometry and a default 0.9 stay
    /// probability.
    pub fn new(items: usize, clusters: usize, seed: u64) -> Self {
        MarkovGen {
            items,
            clusters: clusters.max(1),
            stay: 0.9,
            write_ratio: 0.0,
            seed,
        }
    }

    /// Sets the stay probability.
    pub fn with_stay(mut self, stay: f64) -> Self {
        self.stay = stay;
        self
    }
}

impl TraceGenerator for MarkovGen {
    fn name(&self) -> String {
        format!("markov-{}-c{}-p{:.2}", self.items, self.clusters, self.stay)
    }

    fn generate(&self, len: usize) -> Trace {
        let n = self.items.max(1);
        let k = self.clusters.min(n);
        let cluster_size = n.div_ceil(k);
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut cluster = 0usize;
        let trace: Trace = (0..len)
            .map(|_| {
                if !rng.gen_bool(self.stay.clamp(0.0, 1.0)) {
                    cluster = rng.gen_range(0..k);
                }
                let lo = cluster * cluster_size;
                let hi = ((cluster + 1) * cluster_size).min(n);
                let item = rng.gen_range(lo..hi.max(lo + 1)).min(n - 1);
                Access {
                    item: (item as u32).into(),
                    kind: rw_kind(&mut rng, self.write_ratio),
                }
            })
            .collect();
        trace.with_label(self.name())
    }
}

/// Phase-changing workload: the trace is split into `phases` segments,
/// each a clustered Markov walk over a *different affine shuffle* of
/// the item space, so the hot clusters of one phase are scattered in
/// the next.
///
/// This is the stress workload for static placement (no single layout
/// fits all phases) and the design case for
/// online/adaptive placement (experiment F10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasedGen {
    /// Number of distinct items.
    pub items: usize,
    /// Number of phases.
    pub phases: usize,
    /// Within-phase stay probability (cluster tightness).
    pub stay: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PhasedGen {
    /// A phased generator with the default 0.95 stay probability.
    pub fn new(items: usize, phases: usize, seed: u64) -> Self {
        PhasedGen {
            items,
            phases: phases.max(1),
            stay: 0.95,
            seed,
        }
    }
}

impl TraceGenerator for PhasedGen {
    fn name(&self) -> String {
        format!("phased-{}-p{}", self.items, self.phases)
    }

    fn generate(&self, len: usize) -> Trace {
        let n = self.items.max(1);
        let per_phase = len / self.phases;
        let mut accesses = Vec::with_capacity(len);
        for phase in 0..self.phases {
            let want = if phase + 1 == self.phases {
                len - accesses.len() // absorb rounding in the last phase
            } else {
                per_phase
            };
            let inner = MarkovGen::new(n, (n / 8).max(2), self.seed + phase as u64)
                .with_stay(self.stay)
                .generate(want);
            // Affine relabel: stride coprime with n scatters clusters.
            let stride = 2 * phase + 1;
            accesses.extend(inner.iter().map(|a| Access {
                item: (((a.item.index() * stride + 7 * phase) % n) as u32).into(),
                kind: a.kind,
            }));
        }
        Trace::from_accesses(accesses).with_label(self.name())
    }
}

/// Profile-driven generator: replays the statistical fingerprint in a
/// [`TraceProfile`] at arbitrary scale.
///
/// Each step draws from a three-component mixture. Self-transitions
/// are replayed *explicitly*: with a compensated probability (the
/// profile's `self_transition_rate` minus the rate the other two
/// components already produce by accident) the previous item repeats,
/// which matters for sources like BFS whose back-to-back revisits are
/// not predicted by popularity skew alone. Otherwise, with probability
/// `profile.locality` it samples a reuse distance ≥ 1 from the
/// profile's log₂ reuse histogram (bucket 0 excluded — that mass is
/// the explicit component) and re-touches the item at that LRU-stack
/// depth — reproducing the *excess* short-distance locality that
/// clustered walks exhibit. Otherwise it draws a popularity rank from
/// the log₂ rank-share histogram — anchoring per-item frequencies (and
/// therefore Zipf tail mass and the i.i.d. component of the reuse
/// distribution) to the source. Phase structure is replayed by
/// re-labelling ranks through a fresh coprime affine permutation per
/// phase segment, scattering which concrete ids are hot the way
/// [`PhasedGen`] does.
///
/// [`stream`](ProfiledGen::stream) yields accesses one at a time in
/// `O(items)` memory, so 10⁸-access replays never materialize a trace;
/// [`TraceGenerator::generate`] collects the same stream for the
/// moderate lengths tests use. Same seed → same trace, independent of
/// `DWM_THREADS` (generation is a single sequential RNG walk).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledGen {
    profile: TraceProfile,
    /// RNG seed.
    pub seed: u64,
}

impl ProfiledGen {
    /// A generator replaying `profile` with the given seed.
    pub fn new(profile: TraceProfile, seed: u64) -> Self {
        ProfiledGen { profile, seed }
    }

    /// The profile being replayed.
    pub fn profile(&self) -> &TraceProfile {
        &self.profile
    }

    /// Streams `len` accesses without materializing them.
    pub fn stream(&self, len: u64) -> ProfiledStream {
        let p = &self.profile;
        let cumulate = |masses: &[f64]| {
            let mut cum = Vec::with_capacity(masses.len());
            let mut acc = 0.0f64;
            for &mass in masses {
                acc += mass;
                cum.push(acc);
            }
            cum
        };
        let phases = p.phases.max(1);
        let per_phase = if len == 0 {
            0
        } else {
            (len / phases as u64).max(1)
        };
        let locality = p.locality.clamp(0.0, 1.0);
        // Reuse distances ≥ 1: bucket 0 (the self-transition mass) is
        // replayed by the explicit component, so strip and renormalize.
        let mut nonself: Vec<f64> = p.reuse_buckets.clone();
        if let Some(first) = nonself.first_mut() {
            *first = 0.0;
        }
        let nonself_total: f64 = nonself.iter().sum();
        let cum_reuse = if nonself_total > 0.0 {
            cumulate(
                &nonself
                    .iter()
                    .map(|&m| m / nonself_total)
                    .collect::<Vec<f64>>(),
            )
        } else {
            Vec::new()
        };
        // Rank draws place bucket mass uniformly within each log₂
        // bucket, so their accidental repeat rate is Σ m_b²/w_b; two
        // consecutive rank draws collide with roughly that probability.
        let rank_iid: f64 = p
            .rank_shares
            .iter()
            .enumerate()
            .map(|(b, &m)| {
                let lo = bucket_lo(b).min(p.items.saturating_sub(1) as u64);
                let hi = bucket_lo(b + 1).min(p.items as u64);
                m * m / (hi.saturating_sub(lo).max(1) as f64)
            })
            .sum();
        let accidental = ((1.0 - locality) * (1.0 - locality) * rank_iid).clamp(0.0, 1.0);
        ProfiledStream {
            rng: Rng::seed_from_u64(self.seed),
            emitted: 0,
            len: if p.items == 0 { 0 } else { len },
            items: p.items,
            write_ratio: p.write_ratio,
            locality,
            self_excess: (p.self_transition_rate - accidental).clamp(0.0, 1.0),
            last: None,
            cum_reuse,
            cum_rank: cumulate(&p.rank_shares),
            stack: Vec::with_capacity(p.items),
            phases,
            per_phase,
            phase: 0,
            stride: 1,
            offset: 0,
        }
    }
}

impl TraceGenerator for ProfiledGen {
    fn name(&self) -> String {
        format!("profiled-{}-p{}", self.profile.items, self.profile.phases)
    }

    fn generate(&self, len: usize) -> Trace {
        let trace: Trace = self.stream(len as u64).collect();
        trace.with_label(self.name())
    }
}

/// Streaming iterator over a [`ProfiledGen`] replay. See
/// [`ProfiledGen::stream`].
#[derive(Debug, Clone)]
pub struct ProfiledStream {
    rng: Rng,
    emitted: u64,
    len: u64,
    items: usize,
    write_ratio: f64,
    /// Share of locality (stack-distance) draws vs rank draws.
    locality: f64,
    /// Probability of explicitly repeating the previous item: the
    /// profile's self-transition rate minus the accidental repeat rate
    /// the mixture already produces.
    self_excess: f64,
    /// The previously emitted item, target of explicit repeats.
    last: Option<u32>,
    /// Cumulative reuse-bucket masses over distances ≥ 1, renormalized
    /// (last entry ≈ 1 when any non-self reuse mass exists).
    cum_reuse: Vec<f64>,
    /// Cumulative rank-share masses.
    cum_rank: Vec<f64>,
    /// LRU stack of *underlying* popularity ranks, hottest at the end.
    /// Only maintained when locality draws can consume it.
    stack: Vec<u32>,
    phases: usize,
    per_phase: u64,
    phase: usize,
    /// Current phase's affine relabel `rank ↦ (rank·stride + offset) % items`.
    stride: usize,
    offset: usize,
}

impl ProfiledStream {
    /// Samples a log₂ bucket index by cumulative mass, then a uniform
    /// value within the bucket, capped at `max` (exclusive).
    fn sample_bucketed(&mut self, which: Which, max: u64) -> u64 {
        let cum = match which {
            Which::Reuse => &self.cum_reuse,
            Which::Rank => &self.cum_rank,
        };
        let u = self.rng.next_f64();
        let b = cum.partition_point(|&c| c <= u).min(cum.len() - 1);
        let lo = bucket_lo(b).min(max.saturating_sub(1));
        let hi = bucket_lo(b + 1).min(max);
        lo + self.rng.gen_range(0..(hi - lo).max(1) as usize) as u64
    }
}

#[derive(Clone, Copy)]
enum Which {
    Reuse,
    Rank,
}

impl Iterator for ProfiledStream {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.emitted >= self.len {
            return None;
        }
        // Phase advance: a fresh coprime affine relabel per segment
        // scatters which concrete ids are hot, as phased sources do.
        let phase = ((self.emitted / self.per_phase.max(1)) as usize).min(self.phases - 1);
        if phase != self.phase {
            self.phase = phase;
            self.stride = coprime_stride(phase, self.items);
            self.offset = (7 * phase) % self.items.max(1);
        }
        if let Some(last) = self.last {
            if self.self_excess > 0.0 && self.rng.gen_bool(self.self_excess) {
                self.emitted += 1;
                return Some(Access {
                    item: last.into(),
                    kind: rw_kind(&mut self.rng, self.write_ratio),
                });
            }
        }
        let use_locality = self.locality > 0.0
            && !self.cum_reuse.is_empty()
            && !self.stack.is_empty()
            && self.rng.gen_bool(self.locality);
        let rank = if use_locality {
            let d = self.sample_bucketed(Which::Reuse, self.stack.len() as u64) as usize;
            let pos = self.stack.len() - 1 - d;
            let rank = self.stack.remove(pos);
            self.stack.push(rank);
            rank
        } else {
            let rank = if self.cum_rank.is_empty() {
                0
            } else {
                self.sample_bucketed(Which::Rank, self.items as u64) as u32
            };
            if self.locality > 0.0 {
                // Keep the recency order locality draws index into.
                lru_touch(&mut self.stack, rank);
            }
            rank
        };
        let item = (rank as usize * self.stride + self.offset) % self.items;
        self.last = Some(item as u32);
        self.emitted += 1;
        Some(Access {
            item: (item as u32).into(),
            kind: rw_kind(&mut self.rng, self.write_ratio),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.len - self.emitted) as usize;
        (left, Some(left))
    }
}

/// Smallest stride ≥ `2·phase + 1` (mod `n`) coprime with `n`, so the
/// per-phase relabel is a bijection on the item universe.
fn coprime_stride(phase: usize, n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    for k in 0..n {
        let mut s = (2 * phase + 1 + 2 * k) % n;
        if s == 0 {
            s = 1;
        }
        if gcd(s, n) == 1 {
            return s;
        }
    }
    1
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let g = UniformGen::new(32, 7);
        assert_eq!(g.generate(100), g.generate(100));
        let z = ZipfGen::new(32, 7);
        assert_eq!(z.generate(100), z.generate(100));
        let m = MarkovGen::new(32, 4, 7);
        assert_eq!(m.generate(100), m.generate(100));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            UniformGen::new(32, 1).generate(200),
            UniformGen::new(32, 2).generate(200)
        );
    }

    #[test]
    fn items_stay_in_range() {
        for trace in [
            UniformGen::new(10, 3).generate(500),
            ZipfGen::new(10, 3).generate(500),
            SequentialGen::new(10).generate(500),
            StridedGen::new(10, 3).generate(500),
            MarkovGen::new(10, 3, 3).generate(500),
        ] {
            assert!(
                trace.iter().all(|a| a.item.index() < 10),
                "{}",
                trace.label()
            );
            assert_eq!(trace.len(), 500);
        }
    }

    #[test]
    fn zipf_is_skewed_uniform_is_not() {
        let z = ZipfGen::new(50, 11).generate(5000).normalize().stats();
        let u = UniformGen::new(50, 11).generate(5000).normalize().stats();
        assert!(z.hot20_share > u.hot20_share + 0.2);
    }

    #[test]
    fn markov_clusters_reduce_transition_spread() {
        let m = MarkovGen::new(64, 8, 5).with_stay(0.95).generate(5000);
        let u = UniformGen::new(64, 5).generate(5000);
        assert!(m.stats().mean_stride < u.stats().mean_stride);
    }

    #[test]
    fn sequential_wraps_around() {
        let t = SequentialGen::new(4).generate(10);
        let ids: Vec<u32> = t.iter().map(|a| a.item.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn write_ratio_produces_writes() {
        let g = UniformGen {
            items: 8,
            write_ratio: 1.0,
            seed: 1,
        };
        assert!(g.generate(50).iter().all(|a| a.kind.is_write()));
    }

    #[test]
    fn phased_generator_changes_adjacency_between_phases() {
        // The relabeling scatters *adjacency* (who is co-accessed with
        // whom), not item frequencies: the transition structure of
        // phase 1 must be a poor predictor of phase 2. We check that
        // the hot transitions of phase 1 are mostly absent in phase 2.
        let t = PhasedGen::new(64, 2, 3).generate(8000);
        assert_eq!(t.len(), 8000);
        assert!(t.iter().all(|a| a.item.index() < 64));
        let pair_set = |accs: &[Access]| -> std::collections::HashSet<(u32, u32)> {
            accs.windows(2)
                .filter(|p| p[0].item != p[1].item)
                .map(|p| {
                    let (a, b) = (p[0].item.0, p[1].item.0);
                    (a.min(b), a.max(b))
                })
                .collect()
        };
        let p1 = pair_set(&t.accesses()[..4000]);
        let p2 = pair_set(&t.accesses()[4000..]);
        let overlap = p1.intersection(&p2).count() as f64 / p1.len().max(1) as f64;
        assert!(
            overlap < 0.5,
            "phases share {:.0}% of their transition pairs",
            overlap * 100.0
        );
    }

    #[test]
    fn phased_generator_is_deterministic_and_exact_length() {
        let g = PhasedGen::new(32, 3, 9);
        assert_eq!(g.generate(1000), g.generate(1000));
        // 1000 not divisible by 3: last phase absorbs the remainder.
        assert_eq!(g.generate(1000).len(), 1000);
    }

    #[test]
    fn profiled_replay_matches_its_source_profile() {
        let source = ZipfGen::new(64, 17).generate(20_000).normalize();
        let profile = TraceProfile::from_trace(&source);
        let synth = ProfiledGen::new(profile.clone(), 5).generate(20_000);
        let re = TraceProfile::from_trace(&synth.normalize());
        let f = profile.fidelity(&re);
        assert!(f.within_default_tolerance(), "{f}");
        assert_eq!(re.items, profile.items, "universe preserved");
    }

    #[test]
    fn profiled_generator_is_deterministic_and_streaming() {
        let profile = TraceProfile::from_trace(&MarkovGen::new(32, 4, 2).generate(5000));
        let g = ProfiledGen::new(profile, 9);
        assert_eq!(g.generate(2000), g.generate(2000));
        assert_ne!(
            g.generate(2000),
            ProfiledGen::new(g.profile().clone(), 10).generate(2000)
        );
        // The stream and the collected trace are the same sequence.
        let streamed: Vec<Access> = g.stream(500).collect();
        assert_eq!(streamed.as_slice(), &g.generate(500).accesses()[..500]);
        assert_eq!(g.stream(500).size_hint(), (500, Some(500)));
    }

    #[test]
    fn profiled_replay_preserves_the_write_mix() {
        let source = UniformGen {
            items: 24,
            write_ratio: 0.3,
            seed: 4,
        }
        .generate(10_000);
        let profile = TraceProfile::from_trace(&source);
        let synth = ProfiledGen::new(profile, 8).generate(40_000);
        let writes = synth.iter().filter(|a| a.kind.is_write()).count();
        let ratio = writes as f64 / synth.len() as f64;
        assert!((ratio - 0.3).abs() < 0.02, "write ratio {ratio}");
    }

    #[test]
    fn profiled_replay_of_an_empty_profile_is_empty() {
        let profile = TraceProfile::from_trace(&Trace::new());
        let g = ProfiledGen::new(profile, 1);
        assert!(g.generate(100).is_empty());
        assert_eq!(g.stream(100).count(), 0);
    }

    #[test]
    fn profiled_phases_scatter_hot_items() {
        // A two-phase source (same universe, relabeled hot set): the
        // replay must also shift its hot set between the halves.
        let mut accs: Vec<Access> = ZipfGen::new(64, 3).generate(8000).into_iter().collect();
        accs.extend(
            ZipfGen::new(64, 4)
                .generate(8000)
                .into_iter()
                .map(|a| Access {
                    item: (((a.item.index() * 13 + 7) % 64) as u32).into(),
                    kind: a.kind,
                }),
        );
        let source = Trace::from_accesses(accs);
        let profile = TraceProfile::from_trace(&source);
        assert!(
            profile.phases >= 2,
            "source shows {} phases",
            profile.phases
        );
        let synth = ProfiledGen::new(profile, 6).generate(16_000);
        let hot = |accs: &[Access]| {
            let mut freq = [0u64; 64];
            for a in accs {
                freq[a.item.index()] += 1;
            }
            let mut order: Vec<usize> = (0..64).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(freq[i]));
            order.truncate(8);
            order.sort_unstable();
            order
        };
        let first = hot(&synth.accesses()[..8000]);
        let second = hot(&synth.accesses()[8000..]);
        assert_ne!(first, second, "phases should relabel the hot set");
    }

    #[test]
    fn coprime_strides_are_bijective() {
        for n in [1usize, 2, 7, 9, 12, 64] {
            for phase in 0..6 {
                let s = coprime_stride(phase, n);
                let mut seen = vec![false; n.max(1)];
                for i in 0..n {
                    seen[(i * s) % n] = true;
                }
                assert!(
                    n == 0 || seen.iter().all(|&b| b),
                    "n={n} phase={phase} s={s}"
                );
            }
        }
    }

    #[test]
    fn generators_usable_as_objects() {
        let gens: Vec<Box<dyn TraceGenerator>> = vec![
            Box::new(UniformGen::new(8, 1)),
            Box::new(SequentialGen::new(8)),
        ];
        for g in &gens {
            assert!(!g.name().is_empty());
            assert_eq!(g.generate(10).len(), 10);
        }
    }
}

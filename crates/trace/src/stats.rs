use std::collections::HashMap;

use crate::access::Trace;

/// Summary statistics of a trace, as reported in the benchmark
/// characteristics table (experiment T2).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total number of accesses.
    pub length: usize,
    /// Number of distinct items touched.
    pub distinct_items: usize,
    /// Number of read accesses.
    pub reads: usize,
    /// Number of write accesses.
    pub writes: usize,
    /// Number of *transitions* between two different items (the edges
    /// of the access graph, with multiplicity).
    pub transitions: usize,
    /// Fraction of consecutive access pairs touching the same item.
    pub self_transition_rate: f64,
    /// Access-count skew: fraction of accesses going to the hottest 20%
    /// of items (1.0 = everything hot, 0.2 = perfectly uniform).
    pub hot20_share: f64,
    /// Mean absolute id distance between consecutive accesses — the
    /// shift cost of the *identity* placement per transition.
    pub mean_stride: f64,
}

impl TraceStats {
    /// Computes statistics for `trace`. Handles non-dense ids.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut freq: HashMap<u32, u64> = HashMap::new();
        let mut reads = 0usize;
        let mut writes = 0usize;
        for a in trace.iter() {
            *freq.entry(a.item.0).or_insert(0) += 1;
            if a.kind.is_write() {
                writes += 1;
            } else {
                reads += 1;
            }
        }
        let mut transitions = 0usize;
        let mut self_transitions = 0usize;
        let mut stride_sum = 0u64;
        for pair in trace.accesses().windows(2) {
            if pair[0].item == pair[1].item {
                self_transitions += 1;
            } else {
                transitions += 1;
            }
            stride_sum += (pair[0].item.0 as i64).abs_diff(pair[1].item.0 as i64);
        }
        let pairs = trace.len().saturating_sub(1);
        let mut counts: Vec<u64> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let hot_n = counts.len().max(1).div_ceil(5); // ceil(20%)
        let hot_sum: u64 = counts.iter().take(hot_n).sum();
        let total: u64 = counts.iter().sum();
        TraceStats {
            length: trace.len(),
            distinct_items: freq.len(),
            reads,
            writes,
            transitions,
            self_transition_rate: if pairs == 0 {
                0.0
            } else {
                self_transitions as f64 / pairs as f64
            },
            hot20_share: if total == 0 {
                0.0
            } else {
                hot_sum as f64 / total as f64
            },
            mean_stride: if pairs == 0 {
                0.0
            } else {
                stride_sum as f64 / pairs as f64
            },
        }
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} accesses over {} items ({} R / {} W), mean stride {:.2}, hot-20% share {:.0}%",
            self.length,
            self.distinct_items,
            self.reads,
            self.writes,
            self.mean_stride,
            self.hot20_share * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::access::{Access, Trace};

    #[test]
    fn counts_reads_writes_and_items() {
        let t = Trace::from_accesses([Access::read(0u32), Access::write(1u32), Access::read(0u32)]);
        let s = t.stats();
        assert_eq!(s.length, 3);
        assert_eq!(s.distinct_items, 2);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn transition_accounting() {
        let t = Trace::from_ids([0u32, 0, 1, 1, 2]);
        let s = t.stats();
        assert_eq!(s.transitions, 2);
        assert!((s.self_transition_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_trace_has_low_hot_share() {
        let t = Trace::from_ids((0u32..100).collect::<Vec<_>>());
        let s = t.stats();
        assert!((s.hot20_share - 0.2).abs() < 1e-9);
    }

    #[test]
    fn skewed_trace_has_high_hot_share() {
        let mut ids = vec![0u32; 80];
        ids.extend(1u32..21);
        let s = Trace::from_ids(ids).stats();
        assert!(s.hot20_share > 0.8);
    }

    #[test]
    fn mean_stride_of_sequential_is_one() {
        let t = Trace::from_ids(0u32..50);
        assert!((t.stats().mean_stride - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = Trace::new().stats();
        assert_eq!(s.length, 0);
        assert_eq!(s.distinct_items, 0);
        assert_eq!(s.mean_stride, 0.0);
        assert_eq!(s.self_transition_rate, 0.0);
    }
}

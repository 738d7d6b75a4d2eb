//! Request inputs, every one a pure function of the `--seed`.
//!
//! Shapes (items × ids per workload) follow the repository's
//! micro-benchmarks, so end-to-end and micro numbers describe the same
//! requests: 48 × 2400 is `serve/solve_hit`'s body, 256 × 8192 a
//! kernel-sized workload whose solve dominates its request.

use std::fmt::Write as _;

use dwm_foundation::rng::splitmix64;
use dwm_trace::synth::{PhasedGen, TraceGenerator, ZipfGen};
use dwm_trace::Trace;

/// Items in a small (hit-path) workload.
pub const SMALL_ITEMS: usize = 48;
/// Accesses in a small workload.
pub const SMALL_LEN: usize = 2400;
/// Items in a `solve_miss` workload.
pub const MISS_ITEMS: usize = 256;
/// Accesses in a `solve_miss` workload.
pub const MISS_LEN: usize = 8192;
/// Distinct primed workloads `solve_hit` cycles over.
pub const HIT_WORKLOADS: usize = 32;
/// Access streams `session_stream` replays.
pub const STREAMS: usize = 8;
/// Sessions per `session_stream` round; session `k` replays stream
/// `k % STREAMS`, so every stream is replayed by two sessions.
pub const SESSIONS: usize = 16;
/// Items per session stream. A 256-access window over 32 items
/// estimates the access distribution well enough that phase changes
/// fire at real phase boundaries (about one window in five); over 256
/// items sampling noise alone trips the detector nearly every window.
pub const STREAM_ITEMS: usize = 32;
/// Phases per session stream (each a differently shuffled clustered
/// walk, so sessions detect drift and re-place).
pub const STREAM_PHASES: usize = 6;
/// The sessions' decision window, in accesses.
pub const WINDOW: usize = 256;
/// Accesses per ingest request: four windows. With one window per
/// request the daemon's own work (~45 µs median in the traced replay)
/// was under a quarter of the ~200 µs round trip, so the workload timed
/// loopback wake-ups more than the write path, and every wake-up
/// delayed by the hypervisor slowed it.
pub const CHUNK: usize = 4 * WINDOW;
/// Accesses per session stream per round: 32 windows per phase, long
/// enough that a re-placement pays off its migration bill.
pub const STREAM_LEN: usize = STREAM_PHASES * 32 * WINDOW;

/// The seed of every workload's reference corpus, which
/// `shift_reduction_pct` is measured on. Fixed, so the metric does not
/// depend on `--seed`.
pub const REFERENCE_SEED: u64 = 0x0D5C_2015;
/// Solves in a reference corpus.
pub const REFERENCE: usize = 32;

/// An independent sub-seed: `seed`, a stream tag and an index mixed
/// through SplitMix64.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

fn ids_of(trace: &Trace) -> Vec<u32> {
    trace.iter().map(|a| a.item.index() as u32).collect()
}

/// A Zipf-skewed trace over `items` items. One shape per workload on
/// purpose: Zipf and Markov-clustered workloads of one size differ in
/// solve time by up to 2.4×, and a 50/50 mix would put the latency
/// median between two modes, where it flips from run to run.
pub fn workload_ids(seed: u64, items: usize, len: usize) -> Vec<u32> {
    ids_of(&ZipfGen::new(items, seed).generate(len))
}

/// A phase-changing session stream.
pub fn stream_ids(seed: u64) -> Vec<u32> {
    ids_of(&PhasedGen::new(STREAM_ITEMS, STREAM_PHASES, seed).generate(STREAM_LEN))
}

fn ids_json(out: &mut String, ids: &[u32]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{id}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

fn body(prefix: &str, ids: &[u32]) -> String {
    let mut out = String::with_capacity(prefix.len() + 12 + ids.len() * 4);
    out.push('{');
    out.push_str(prefix);
    out.push_str("\"ids\":");
    ids_json(&mut out, ids);
    out.push('}');
    out
}

/// A legacy algorithm-addressed `/solve` body.
pub fn hybrid_body(ids: &[u32]) -> String {
    body("\"algorithm\":\"hybrid\",", ids)
}

/// A tiered `quality:"balanced"` `/solve` body.
pub fn balanced_body(ids: &[u32]) -> String {
    body("\"quality\":\"balanced\",", ids)
}

/// A session ingest body.
pub fn chunk_body(ids: &[u32]) -> String {
    body("", ids)
}

/// The ids of `solve_hit`'s `k`-th primed workload.
pub fn hit_ids(seed: u64, k: usize) -> Vec<u32> {
    workload_ids(derive(seed, 1, k as u64), SMALL_ITEMS, SMALL_LEN)
}

/// The ids of `solve_miss`'s `i`-th request (warm-up included).
pub fn miss_ids(seed: u64, i: usize) -> Vec<u32> {
    workload_ids(derive(seed, 2, i as u64), MISS_ITEMS, MISS_LEN)
}

/// The ids of `session_stream`'s stream `k`.
pub fn session_stream(seed: u64, k: usize) -> Vec<u32> {
    stream_ids(derive(seed, 5, k as u64))
}

/// The `k`-th reference workload of `solve_hit`: its small shape.
pub fn reference_small_ids(k: usize) -> Vec<u32> {
    workload_ids(derive(REFERENCE_SEED, 7, k as u64), SMALL_ITEMS, SMALL_LEN)
}

/// The `k`-th reference workload of `solve_miss`.
pub fn reference_miss_ids(k: usize) -> Vec<u32> {
    workload_ids(derive(REFERENCE_SEED, 8, k as u64), MISS_ITEMS, MISS_LEN)
}

/// The `k`-th reference stream of `session_stream`.
pub fn reference_stream(k: usize) -> Vec<u32> {
    stream_ids(derive(REFERENCE_SEED, 9, k as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(hit_ids(7, 3), hit_ids(7, 3));
        assert_ne!(hit_ids(7, 3), hit_ids(8, 3));
        assert_ne!(hit_ids(7, 3), hit_ids(7, 4));
        assert_eq!(hit_ids(7, 0).len(), SMALL_LEN);
        assert_eq!(session_stream(1, 2), session_stream(1, 2));
        assert_eq!(session_stream(1, 2).len(), STREAM_LEN);
    }

    #[test]
    fn bodies_are_the_wire_shapes_the_daemon_parses() {
        assert_eq!(
            hybrid_body(&[1, 2]),
            r#"{"algorithm":"hybrid","ids":[1,2]}"#
        );
        assert_eq!(balanced_body(&[3]), r#"{"quality":"balanced","ids":[3]}"#);
        assert_eq!(chunk_body(&[4, 5]), r#"{"ids":[4,5]}"#);
    }
}

//! The `--cluster N` front: N independent [`Engine`] shards behind a
//! consistent-hash router keyed on the workload fingerprint.
//!
//! Each shard owns a disjoint slice of the solve-cache key space:
//! a workload's `dwm_graph::fingerprint` (with the topology folded
//! in — the same key the [`crate::cache::SolveCache`] uses) always
//! lands on the same shard, so repeats of a workload hit that shard's
//! cache exactly as they would hit a single engine's. There is no
//! cross-shard invalidation and cache capacity scales near-linearly
//! with N.
//!
//! Routing table:
//!
//! * `/solve` — consistent-hashed on the first workload's fingerprint
//!   (a multi-workload batch stays together on one shard, keeping its
//!   response bodies identical to a single engine's);
//! * `/evaluate`, `/simulate` — no cache behind them, so they hash on
//!   the raw body bytes purely for deterministic spread;
//! * `/session*` — shard 0, which owns the whole session table
//!   (session ids are per-engine counters and must not collide);
//! * `/health`, malformed or unknown requests — shard 0, so error
//!   bodies and liveness are byte-identical to a single engine;
//! * `/stats` — aggregated: cluster-level routing counters plus every
//!   shard's own stats object;
//! * `/metrics` — one scrape rendering the cluster registry, every
//!   shard registry (each stamped `shard="i"`), and the global one.

use std::sync::Arc;

use dwm_foundation::json::{Number, Object, Value};
use dwm_foundation::net::{Request, Response};
use dwm_foundation::obs;

use crate::engine::{workload_key, Engine, EngineConfig};
use crate::protocol::{decode_body, parse_topology};

/// Virtual nodes per shard on the hash ring. 64 keeps the expected
/// key-space imbalance between shards under a few percent.
const VNODES: u64 = 64;

/// N placement engines behind a fingerprint-consistent router.
pub struct Cluster {
    shards: Vec<Arc<Engine>>,
    /// Sorted `(point, shard)` ring.
    ring: Vec<(u64, u32)>,
    /// Cluster-level registry (routing counters live here, separate
    /// from any single shard's registry).
    registry: Arc<obs::Registry>,
    /// `dwm_serve_cluster_routed_total{shard="i"}` handles, indexed by
    /// shard.
    routed: Vec<Arc<obs::Counter>>,
}

/// Finalizer-style 64-bit mixer (splitmix64's) used for ring points
/// and body hashes; avalanche quality matters more than speed here.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over arbitrary bytes (body-hash routing for uncached
/// endpoints).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Cluster {
    /// Builds an N-shard cluster; each shard gets `config` with its
    /// `shard` index stamped in (labelling its metric registry).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn new(n: usize, config: EngineConfig) -> Self {
        assert!(n > 0, "cluster needs at least one shard");
        let shards: Vec<Arc<Engine>> = (0..n)
            .map(|i| {
                Arc::new(Engine::with_config(EngineConfig {
                    shard: Some(i as u32),
                    ..config
                }))
            })
            .collect();
        let mut ring: Vec<(u64, u32)> = (0..n as u64)
            .flat_map(|s| (0..VNODES).map(move |v| (mix64((s << 32) | v | 1), s as u32)))
            .collect();
        ring.sort_unstable();
        let registry = Arc::new(obs::Registry::new());
        let routed = (0..n)
            .map(|i| {
                registry.counter_with(
                    "dwm_serve_cluster_routed_total",
                    &[("shard", &i.to_string())],
                    "Requests routed to each cluster shard",
                )
            })
            .collect();
        Cluster {
            shards,
            ring,
            registry,
            routed,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines (shard 0 owns sessions and error responses).
    pub fn shards(&self) -> &[Arc<Engine>] {
        &self.shards
    }

    /// The cluster-level metric registry (routing counters).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// The ring owner of `key`: first point at or after it, wrapping.
    fn ring_shard(&self, key: u64) -> usize {
        let i = self.ring.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.ring[if i == self.ring.len() { 0 } else { i }];
        shard as usize
    }

    /// Routing decision for one request. Anything that cannot be
    /// keyed (malformed bodies, unknown paths) pins to shard 0 so the
    /// cluster's error responses are byte-identical to a single
    /// engine's.
    fn route(&self, req: &Request) -> usize {
        match req.path.as_str() {
            "/solve" => self.solve_shard(req).unwrap_or(0),
            "/evaluate" | "/simulate" => self.ring_shard(mix64(fnv64(&req.body))),
            _ => 0,
        }
    }

    /// The cache-owner shard of a `/solve` request: the consistent
    /// hash of the first workload's topology-folded fingerprint —
    /// exactly the solve-cache key the owning engine will use, which
    /// is what makes each shard's cache slice disjoint and hit/miss
    /// sequences identical to a single engine's.
    fn solve_shard(&self, req: &Request) -> Option<usize> {
        let decoded = decode_body(&req.body).ok()?;
        let topology = parse_topology(decoded.fields()).ok()?;
        let workloads = decoded.workloads().ok()?;
        let (_, fp) = workload_key(workloads.first()?, &topology);
        Some(self.ring_shard(fp.hi ^ fp.lo))
    }

    /// Handles one request: aggregation endpoints are answered here,
    /// everything else is forwarded to its owner shard.
    pub fn handle(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/stats" if req.method == "GET" => self.stats_response(),
            "/metrics" if req.method == "GET" => self.metrics_response(),
            _ => {
                let shard = self.route(req);
                self.routed[shard].inc_always();
                self.shards[shard].handle(req)
            }
        }
    }

    /// Cluster `/stats`: routing counters plus each shard's
    /// [`Engine::stats`] object. Reading them is not a request to any
    /// shard, so a shard's counters move only with the requests routed
    /// to it.
    fn stats_response(&self) -> Response {
        let mut routed = Object::new();
        for (i, counter) in self.routed.iter().enumerate() {
            routed.insert(i.to_string(), Value::Num(Number::U(counter.value())));
        }
        let mut cluster = Object::new();
        cluster.insert("shards", Value::Num(Number::U(self.shards.len() as u64)));
        cluster.insert("routed", Value::Obj(routed));
        let mut obj = Object::new();
        obj.insert("cluster", Value::Obj(cluster));
        obj.insert(
            "shards",
            Value::Arr(self.shards.iter().map(|engine| engine.stats()).collect()),
        );
        Response::json(200, Value::Obj(obj).to_compact())
    }

    /// Cluster `/metrics`: one exposition joining the cluster
    /// registry, every shard registry (disjoint names thanks to the
    /// `shard="i"` default label), and the global transport/solver
    /// registry.
    fn metrics_response(&self) -> Response {
        let mut registries: Vec<&obs::Registry> = vec![&self.registry];
        for engine in &self.shards {
            registries.push(engine.registry());
        }
        registries.push(obs::global());
        let text = obs::render_prometheus(&registries);
        Response {
            status: 200,
            headers: vec![("content-type".into(), "text/plain; version=0.0.4".into())],
            body: text.into_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_body(ids: &str) -> String {
        format!(r#"{{"ids":{ids}}}"#)
    }

    #[test]
    fn routing_is_stable_and_owner_consistent() {
        let cluster = Cluster::new(4, EngineConfig::default());
        let req = Request::post("/solve", solve_body("[0,1,0,2,1]"));
        let owner = cluster.route(&req);
        for _ in 0..5 {
            assert_eq!(cluster.route(&req), owner);
        }
        // Different workloads spread across shards (not all on one).
        let owners: std::collections::HashSet<usize> = (0..32)
            .map(|k| {
                let ids: Vec<u32> = (0..16).map(|i| (i * (k + 2)) % 11).collect();
                let body = format!(r#"{{"ids":{ids:?}}}"#);
                cluster.route(&Request::post("/solve", body))
            })
            .collect();
        assert!(owners.len() > 1, "32 workloads all routed to one shard");
    }

    #[test]
    fn repeats_hit_the_owner_shard_cache_like_a_single_engine() {
        let cluster = Cluster::new(4, EngineConfig::default());
        let single = Engine::with_config(EngineConfig::default());
        let req = Request::post("/solve", solve_body("[0,1,0,2,1,3]"));
        for _ in 0..3 {
            let clustered = cluster.handle(&req);
            let alone = single.handle(&req);
            assert_eq!(clustered.body, alone.body, "cluster response diverged");
        }
        // Exactly one shard holds the record; total entries match the
        // single engine.
        let entries: usize = cluster
            .shards()
            .iter()
            .map(|e| e.cache().stats().entries as usize)
            .sum();
        assert_eq!(entries, single.cache().stats().entries as usize);
        assert_eq!(entries, 1);
    }

    #[test]
    fn sessions_and_errors_pin_to_shard_zero() {
        let cluster = Cluster::new(3, EngineConfig::default());
        let create = cluster.handle(&Request::post("/session", r#"{"window":4}"#));
        assert_eq!(create.status, 200);
        let bad = cluster.handle(&Request::post("/solve", "not json"));
        assert_eq!(bad.status, 400);
        let single = Engine::with_config(EngineConfig::default());
        let bad_single = single.handle(&Request::post("/solve", "not json"));
        assert_eq!(bad.body, bad_single.body);
    }

    #[test]
    fn cluster_stats_aggregates_routing_and_shard_objects() {
        let cluster = Cluster::new(2, EngineConfig::default());
        cluster.handle(&Request::post("/solve", solve_body("[0,1,2,0]")));
        let stats = cluster.handle(&Request::new("GET", "/stats"));
        let text = stats.body_str().unwrap();
        let value = dwm_foundation::json::parse(text).unwrap();
        let Value::Obj(obj) = &value else {
            panic!("stats is not an object")
        };
        let Some(Value::Obj(c)) = obj.get("cluster") else {
            panic!("no cluster object")
        };
        assert_eq!(c.get("shards"), Some(&Value::Num(Number::U(2))));
        let Some(Value::Arr(shards)) = obj.get("shards") else {
            panic!("no shards array")
        };
        assert_eq!(shards.len(), 2);
        // The routed counters sum to the one request sent.
        let Some(Value::Obj(routed)) = c.get("routed") else {
            panic!("no routed object")
        };
        let total: u64 = (0..2)
            .map(|i| match routed.get(&i.to_string()) {
                Some(Value::Num(Number::U(n))) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 1);
        // Reading /stats is not a shard request: a second read reports
        // the same per-shard request counts.
        let requests = |stats: &Response| -> Vec<u64> {
            let value = dwm_foundation::json::parse(stats.body_str().unwrap()).unwrap();
            let shards = value.as_object().unwrap().get("shards").unwrap();
            shards
                .as_array()
                .unwrap()
                .iter()
                .map(|shard| {
                    let requests = shard.as_object().unwrap().get("requests").unwrap();
                    requests.as_number().unwrap().as_u64().unwrap()
                })
                .collect()
        };
        let again = cluster.handle(&Request::new("GET", "/stats"));
        assert_eq!(requests(&again), requests(&stats));
        // /metrics carries the same family, labelled per shard.
        let metrics = cluster.handle(&Request::new("GET", "/metrics"));
        let exposition = metrics.body_str().unwrap();
        assert!(exposition.contains("dwm_serve_cluster_routed_total{shard=\"0\"}"));
        assert!(exposition.contains("dwm_serve_cluster_routed_total{shard=\"1\"}"));
    }
}

//! Seeded request mixes for the `rctree-serve` wire protocol.
//!
//! Generates, reproducibly from a seed, one request script per client
//! connection: a weighted blend of `QUERY <net>`, `QUERY <net> <node>`,
//! `REPORT`, `CERTIFY <budget>` and (optionally) `ECO` directive lines
//! over the nets of a generated deck.  This is the workload behind
//! `rcdelay bench-client` and the concurrent-session equivalence tests —
//! the same `(seed, connection)` pair always produces the same script, so
//! a captured server run can be replayed exactly.

use rctree_core::tree::RcTree;

use crate::rng::Rng;

/// Shape of a generated request mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMixParams {
    /// Requests per connection script.
    pub requests_per_connection: usize,
    /// Fraction of requests that are `ECO` directive lines (0.0 for a
    /// read-only mix).
    pub eco_fraction: f64,
    /// Budget (seconds) used by generated `CERTIFY` requests.
    pub certify_budget: f64,
}

impl Default for RequestMixParams {
    fn default() -> Self {
        RequestMixParams {
            requests_per_connection: 100,
            eco_fraction: 0.0,
            certify_budget: 100e-9,
        }
    }
}

/// Net-name plus node-name metadata the generator draws from.
#[derive(Debug, Clone)]
struct NetNodes {
    name: String,
    /// All node names, in pre-order (the input node first).
    nodes: Vec<String>,
}

fn net_nodes(nets: &[(String, RcTree)]) -> Vec<NetNodes> {
    nets.iter()
        .map(|(name, tree)| NetNodes {
            name: name.clone(),
            nodes: tree
                .preorder()
                .map(|id| tree.name(id).expect("valid node").to_string())
                .collect(),
        })
        .collect()
}

/// One seeded request script per connection over the given `(name, tree)`
/// deck nets.
///
/// ECO directives are value edits only (`setcap` anywhere, `setline` on
/// non-input nodes) with absolute values, so the design never drifts
/// structurally and every generated request stays valid against any
/// serialization of the edit stream.  Weights for the read verbs:
/// 55% `QUERY <net>`, 20% `QUERY <net> <node>`, 15% `REPORT`,
/// 10% `CERTIFY`.
///
/// # Panics
///
/// Panics if `nets` is empty.
pub fn request_mix(
    nets: &[(String, RcTree)],
    connections: usize,
    params: &RequestMixParams,
    seed: u64,
) -> Vec<Vec<String>> {
    assert!(!nets.is_empty(), "request mix needs at least one net");
    let nets = net_nodes(nets);
    (0..connections)
        .map(|conn| {
            let mut rng = Rng::from_seed(
                seed.wrapping_mul(0xA076_1D64_78BD_642F)
                    .wrapping_add(conn as u64 + 1),
            );
            (0..params.requests_per_connection)
                .map(|_| one_request(&nets, params, &mut rng))
                .collect()
        })
        .collect()
}

fn one_request(nets: &[NetNodes], params: &RequestMixParams, rng: &mut Rng) -> String {
    let net = &nets[rng.index(nets.len())];
    one_request_for(net, params, rng)
}

fn one_request_for(net: &NetNodes, params: &RequestMixParams, rng: &mut Rng) -> String {
    if rng.chance(params.eco_fraction) {
        return eco_request(net, rng);
    }
    match rng.uniform() {
        u if u < 0.55 => format!("QUERY {}", net.name),
        u if u < 0.75 => {
            let node = &net.nodes[rng.index(net.nodes.len())];
            format!("QUERY {} {node}", net.name)
        }
        u if u < 0.90 => "REPORT".to_string(),
        _ => format!("CERTIFY {:e}", params.certify_budget),
    }
}

/// The shard owning deck net `index` of `total` under an `shards`-way
/// net-range partition — the client-side mirror of
/// [`rctree_sta::Design::partition`]'s contiguous component split (each
/// deck net of an extracted design is one connected component, in deck
/// order).
///
/// # Panics
///
/// Panics if `index >= total`.
pub fn shard_of(index: usize, total: usize, shards: usize) -> usize {
    assert!(index < total, "net index out of range");
    let count = shards.clamp(1, total);
    index * count / total
}

/// One seeded *shard-crossing* request script per connection: request `r`
/// of connection `c` targets shard `(c + r) % shards`, so every
/// connection's consecutive requests hop across all writer shards (ECOs
/// land on rotating shards, never spanning two) while `REPORT`/`CERTIFY`
/// requests exercise cross-shard composition throughout.
///
/// With `shards == 1` this degenerates to a valid (though differently
/// seeded-per-request) single-shard mix.  Determinism contract matches
/// [`request_mix`]: same `(seed, connection)` → same script.
///
/// # Panics
///
/// Panics if `nets` is empty.
pub fn shard_crossing_mix(
    nets: &[(String, RcTree)],
    connections: usize,
    params: &RequestMixParams,
    shards: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    assert!(!nets.is_empty(), "request mix needs at least one net");
    let meta = net_nodes(nets);
    let count = shards.clamp(1, meta.len());
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); count];
    for i in 0..meta.len() {
        by_shard[shard_of(i, meta.len(), count)].push(i);
    }
    (0..connections)
        .map(|conn| {
            let mut rng = Rng::from_seed(
                seed.wrapping_mul(0xA076_1D64_78BD_642F)
                    .wrapping_add(conn as u64 + 1),
            );
            (0..params.requests_per_connection)
                .map(|r| {
                    let pool = &by_shard[(conn + r) % count];
                    let net = &meta[pool[rng.index(pool.len())]];
                    one_request_for(net, params, &mut rng)
                })
                .collect()
        })
        .collect()
}

fn eco_request(net: &NetNodes, rng: &mut Rng) -> String {
    let setcap = |rng: &mut Rng| {
        let node = &net.nodes[rng.index(net.nodes.len())];
        let cap = rng.range_f64(0.5e-15, 60e-15);
        format!("setcap {} {node} {cap:e}", net.name)
    };
    // `setline` rewires the branch feeding a node, so it needs a non-input
    // node; single-node nets fall back to a capacitance edit.
    let setline = |rng: &mut Rng| {
        if net.nodes.len() < 2 {
            return setcap(rng);
        }
        let node = &net.nodes[1 + rng.index(net.nodes.len() - 1)];
        let r = rng.range_f64(5.0, 400.0);
        let c = rng.range_f64(0.5e-15, 20e-15);
        format!("setline {} {node} {r:e} {c:e}", net.name)
    };
    let first = if rng.chance(0.7) {
        setcap(rng)
    } else {
        setline(rng)
    };
    // Sometimes batch two directives on one request line, exercising the
    // multi-edit `;` path end to end.
    if rng.chance(0.25) {
        let second = setcap(rng);
        format!("ECO {first}; {second}")
    } else {
        format!("ECO {first}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::SpefDeckParams;

    fn trees() -> Vec<(String, RcTree)> {
        SpefDeckParams {
            nets: 6,
            ..SpefDeckParams::default()
        }
        .trees(11)
    }

    #[test]
    fn mixes_are_deterministic_per_seed_and_connection() {
        let nets = trees();
        let params = RequestMixParams {
            requests_per_connection: 40,
            eco_fraction: 0.3,
            ..RequestMixParams::default()
        };
        let a = request_mix(&nets, 3, &params, 7);
        let b = request_mix(&nets, 3, &params, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|s| s.len() == 40));
        // Connections draw distinct streams.
        assert_ne!(a[0], a[1]);
        // A different seed changes the scripts.
        assert_ne!(a, request_mix(&nets, 3, &params, 8));
    }

    #[test]
    fn read_only_mix_contains_no_eco() {
        let nets = trees();
        let params = RequestMixParams {
            requests_per_connection: 200,
            eco_fraction: 0.0,
            ..RequestMixParams::default()
        };
        let scripts = request_mix(&nets, 2, &params, 3);
        assert!(scripts.iter().flatten().all(|r| !r.starts_with("ECO")));
        // Every read verb shows up at this volume.
        let all: Vec<&String> = scripts.iter().flatten().collect();
        assert!(all.iter().any(|r| r.starts_with("QUERY ")));
        assert!(all.iter().any(|r| *r == "REPORT"));
        assert!(all.iter().any(|r| r.starts_with("CERTIFY ")));
        assert!(all
            .iter()
            .any(|r| r.starts_with("QUERY ") && r.split_whitespace().count() == 3));
    }

    #[test]
    fn shard_of_is_a_contiguous_clamped_partition() {
        // 6 nets over 3 shards: 2 per shard, contiguous, in order.
        let owners: Vec<usize> = (0..6).map(|i| shard_of(i, 6, 3)).collect();
        assert_eq!(owners, [0, 0, 1, 1, 2, 2]);
        // Monotone non-decreasing even when the split is uneven.
        let uneven: Vec<usize> = (0..7).map(|i| shard_of(i, 7, 4)).collect();
        assert!(uneven.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*uneven.last().unwrap(), 3);
        // More shards than nets clamps to one net per shard.
        assert_eq!(shard_of(1, 2, 8), 1);
        // Zero shards behaves as one.
        assert_eq!(shard_of(5, 6, 0), 0);
    }

    #[test]
    fn shard_crossing_mix_rotates_target_shards_and_is_deterministic() {
        let nets = trees();
        let params = RequestMixParams {
            requests_per_connection: 60,
            eco_fraction: 0.5,
            ..RequestMixParams::default()
        };
        let a = shard_crossing_mix(&nets, 3, &params, 3, 9);
        assert_eq!(a, shard_crossing_mix(&nets, 3, &params, 3, 9));
        assert_ne!(a, shard_crossing_mix(&nets, 3, &params, 3, 10));
        // Request r of connection c names a net owned by shard (c + r) % 3
        // whenever the request names a net at all.
        for (conn, script) in a.iter().enumerate() {
            for (r, request) in script.iter().enumerate() {
                let expected = (conn + r) % 3;
                let net = if let Some(rest) = request.strip_prefix("QUERY ") {
                    rest.split_whitespace().next().unwrap().to_string()
                } else if let Some(rest) = request.strip_prefix("ECO ") {
                    rest.split_whitespace().nth(1).unwrap().to_string()
                } else {
                    continue;
                };
                let index = nets.iter().position(|(n, _)| *n == net).expect("deck net");
                assert_eq!(
                    shard_of(index, nets.len(), 3),
                    expected,
                    "request `{request}` off its rotation slot"
                );
            }
        }
        // Every generated ECO stays single-shard: all nets in one request
        // line agree on an owner (the generator reuses one net per line).
        for request in a.iter().flatten().filter(|r| r.starts_with("ECO ")) {
            let body = request.strip_prefix("ECO ").unwrap();
            let owners: Vec<usize> = body
                .split(';')
                .map(|d| {
                    let net = d.split_whitespace().nth(1).unwrap();
                    let index = nets.iter().position(|(n, _)| *n == net).unwrap();
                    shard_of(index, nets.len(), 3)
                })
                .collect();
            assert!(owners.windows(2).all(|w| w[0] == w[1]), "{request}");
        }
    }

    #[test]
    fn eco_mix_emits_valid_directive_lines() {
        let nets = trees();
        let params = RequestMixParams {
            requests_per_connection: 300,
            eco_fraction: 0.5,
            ..RequestMixParams::default()
        };
        let scripts = request_mix(&nets, 1, &params, 5);
        let ecos: Vec<&String> = scripts[0]
            .iter()
            .filter(|r| r.starts_with("ECO "))
            .collect();
        assert!(!ecos.is_empty());
        assert!(
            ecos.iter().any(|r| r.contains(';')),
            "multi-edit lines occur"
        );
        for r in ecos {
            let line = r.strip_prefix("ECO ").unwrap();
            // Every generated directive parses under the shared grammar.
            let parsed = rctree_sta::script::parse_eco_script_line(1, line).unwrap();
            assert!(matches!(parsed, rctree_sta::ScriptLine::Edits(_)));
        }
    }
}

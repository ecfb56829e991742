//! Property-based tests of the interconnect substrate.

use memcomm_memsim::nic::{NetWord, TimedFifo};
use std::collections::BTreeMap;

use memcomm_netsim::congestion::{
    link_loads, pattern_congestion, scheduled_congestion, CongestionReport,
};
use memcomm_netsim::link::{Link, LinkParams, Step};
use memcomm_netsim::routing::{route, LinkId};
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic;
use memcomm_util::check::forall;
use memcomm_util::rng::Rng;

fn random_topology(rng: &mut Rng) -> Topology {
    let ndims = rng.range_usize(1, 4);
    let dims: Vec<u32> = (0..ndims).map(|_| rng.range_u32(1, 6)).collect();
    if rng.bool() {
        Topology::torus(&dims)
    } else {
        Topology::mesh(&dims)
    }
}

/// Dimension-order routes are valid walks: each hop moves between topology
/// neighbours, the route starts and ends correctly, and its length equals
/// the Manhattan distance.
#[test]
fn routes_are_valid_walks() {
    forall("routes_are_valid_walks", 256, |rng| {
        let topo = random_topology(rng);
        let seed = rng.range_u64(0, 1000);
        let n = topo.len();
        let src = (seed as usize * 7) % n;
        let dst = (seed as usize * 13 + 5) % n;
        let r = route(&topo, src, dst);
        assert_eq!(r.len() as u64, topo.distance(src, dst));
        if let (Some(first), Some(last)) = (r.first(), r.last()) {
            assert_eq!(first.from, src);
            assert_eq!(last.to, dst);
        }
        for link in &r {
            assert_eq!(
                topo.distance(link.from, link.to),
                1,
                "hop must be a neighbour step"
            );
        }
        for pair in r.windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "route must be contiguous");
        }
    });
}

/// Congestion factors are at least 1, and shared ports never reduce them.
#[test]
fn congestion_is_at_least_one_and_monotone_in_port_sharing() {
    forall(
        "congestion_is_at_least_one_and_monotone_in_port_sharing",
        64,
        |rng| {
            let topo = random_topology(rng);
            let k = rng.range_usize(1, 4);
            let flows = traffic::cyclic_shift(&topo, k, 64);
            let solo = pattern_congestion(&topo, &flows, 1);
            let shared = pattern_congestion(&topo, &flows, 2);
            assert!(solo.factor >= 1.0);
            assert!(shared.factor >= solo.factor);
            assert!(solo.max_link >= solo.mean_link);
        },
    );
}

/// Random permutations route every node's data somewhere distinct, and the
/// aggregate volume is conserved.
#[test]
fn permutation_traffic_is_a_bijection() {
    forall("permutation_traffic_is_a_bijection", 128, |rng| {
        let topo = random_topology(rng);
        let seed = rng.range_u64(0, 500);
        let flows = traffic::random_permutation(&topo, seed, 8);
        assert_eq!(flows.len(), topo.len());
        let mut seen = vec![false; topo.len()];
        for f in &flows {
            assert!(!seen[f.dst], "duplicate destination");
            seen[f.dst] = true;
        }
    });
}

/// The XOR all-to-all schedule covers every ordered pair exactly once for
/// any power-of-two node count.
#[test]
fn xor_schedule_is_exact_cover() {
    forall("xor_schedule_is_exact_cover", 16, |rng| {
        let log_p = rng.range_u32(1, 6);
        let p = 1usize << log_p;
        let rounds = traffic::aapc_xor_schedule(p, 8);
        assert_eq!(rounds.len(), p - 1);
        let mut pairs = std::collections::HashSet::new();
        for round in &rounds {
            for f in round {
                assert!(f.src != f.dst);
                assert!(pairs.insert((f.src, f.dst)), "pair repeated");
            }
        }
        assert_eq!(pairs.len(), p * (p - 1));
    });
}

/// A link conserves words and delivers them in order regardless of framing
/// mix; total wire time is at least the sum of word costs.
#[test]
fn link_conserves_and_orders() {
    forall("link_conserves_and_orders", 64, |rng| {
        let n = rng.range_usize(1, 200);
        let words = rng.vec(n, |rng| rng.bool());
        let congestion = rng.range_f64(1.0, 4.0);
        let params = LinkParams {
            bytes_per_cycle: 1.2,
            packet_words: 16,
            header_bytes: 8,
            adp_extra_bytes: 10,
            latency_cycles: 15,
            congestion,
        };
        let mut from = TimedFifo::new(words.len());
        let mut to = TimedFifo::new(words.len());
        let mut min_cycles = 0.0f64;
        for (i, &adp) in words.iter().enumerate() {
            let w = if adp {
                NetWord::addressed(i as u64 * 8, i as u64)
            } else {
                NetWord::data(i as u64)
            };
            min_cycles += params.word_cycles(&w);
            from.push(0, w).unwrap();
        }
        let mut link = Link::new(params);
        while link.moved() < words.len() as u64 {
            assert_eq!(link.step(&mut from, &mut to), Step::Progressed);
        }
        assert!(link.time() as f64 >= min_cycles.floor());
        for (i, _) in words.iter().enumerate() {
            let (_, w) = to.pop(u64::MAX / 2).expect("all words delivered");
            assert_eq!(w.data, i as u64, "delivery order");
        }
    });
}

/// Dimension-order routes are deadlock-ordered: the dimension a hop moves
/// in never decreases along the route (this is the invariant the engine's
/// virtual-channel assignment relies on), and the route is minimal (its
/// length is pinned to the Manhattan distance in `routes_are_valid_walks`).
#[test]
fn routes_are_dimension_ordered() {
    forall("routes_are_dimension_ordered", 256, |rng| {
        let topo = random_topology(rng);
        let n = topo.len();
        let src = rng.range_usize(0, n);
        let dst = rng.range_usize(0, n);
        let mut last_dim = 0usize;
        for link in route(&topo, src, dst) {
            let a = topo.coords(link.from);
            let b = topo.coords(link.to);
            let changed: Vec<usize> = (0..a.len()).filter(|&d| a[d] != b[d]).collect();
            assert_eq!(changed.len(), 1, "a hop moves in exactly one dimension");
            assert!(
                changed[0] >= last_dim,
                "dimension order violated: {} after {}",
                changed[0],
                last_dim
            );
            last_dim = changed[0];
        }
    });
}

/// `Topology::distance` is a metric on random torus/mesh shapes: zero only
/// on the diagonal, symmetric, and obeying the triangle inequality.
#[test]
fn distance_is_a_metric() {
    forall("distance_is_a_metric", 256, |rng| {
        let topo = random_topology(rng);
        let n = topo.len();
        let a = rng.range_usize(0, n);
        let b = rng.range_usize(0, n);
        let c = rng.range_usize(0, n);
        assert_eq!(topo.distance(a, a), 0);
        assert_eq!((topo.distance(a, b) == 0), (a == b));
        assert_eq!(topo.distance(a, b), topo.distance(b, a), "symmetry");
        assert!(
            topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c),
            "triangle inequality"
        );
    });
}

/// Link loads conserve traffic: the total bytes crossing all links equal
/// the sum over flows of size × routed distance (every byte is counted on
/// every link it traverses, and nowhere else).
#[test]
fn link_loads_conserve_flit_hops() {
    forall("link_loads_conserve_flit_hops", 128, |rng| {
        let topo = random_topology(rng);
        let n = topo.len();
        let flows: Vec<traffic::Flow> = (0..rng.range_usize(0, 12))
            .map(|_| traffic::Flow {
                src: rng.range_usize(0, n),
                dst: rng.range_usize(0, n),
                bytes: rng.range_u64(0, 512),
            })
            .collect();
        let loads = link_loads(&topo, &flows);
        let total: u64 = loads.values().sum();
        let expected: u64 = flows
            .iter()
            .map(|f| f.bytes * topo.distance(f.src, f.dst))
            .sum();
        assert_eq!(total, expected, "byte-hops must be conserved");
    });
}

/// Up to `max` flows between random nodes, about a third of them zero-byte.
fn random_flows(rng: &mut Rng, topo: &Topology, max: usize) -> Vec<traffic::Flow> {
    let n = topo.len();
    (0..rng.range_usize(0, max + 1))
        .map(|_| traffic::Flow {
            src: rng.range_usize(0, n),
            dst: rng.range_usize(0, n),
            bytes: rng.range_u64(0, 3).min(1) * rng.range_u64(1, 512),
        })
        .collect()
}

/// Every route of `routing::route`, folded into an ordered map.
fn reference_loads(topo: &Topology, flows: &[traffic::Flow]) -> BTreeMap<LinkId, u64> {
    let mut loads = BTreeMap::new();
    for f in flows {
        for link in route(topo, f.src, f.dst) {
            *loads.entry(link).or_insert(0) += f.bytes;
        }
    }
    loads
}

/// `pattern_congestion` computed the plain way, from [`reference_loads`].
fn reference_congestion(
    topo: &Topology,
    flows: &[traffic::Flow],
    nodes_per_port: u32,
) -> CongestionReport {
    let unit = flows.iter().map(|f| f.bytes).max().unwrap_or(0).max(1) as f64;
    let loads = reference_loads(topo, flows);
    let max_link = loads.values().copied().max().unwrap_or(0) as f64 / unit;
    let mean_link = if loads.is_empty() {
        0.0
    } else {
        loads.values().sum::<u64>() as f64 / loads.len() as f64 / unit
    };
    let per_port = nodes_per_port as usize;
    let mut inject = vec![0u64; topo.len().div_ceil(per_port)];
    let mut eject = inject.clone();
    for f in flows.iter().filter(|f| f.src != f.dst) {
        inject[f.src / per_port] += f.bytes;
        eject[f.dst / per_port] += f.bytes;
    }
    let port = inject.iter().chain(&eject).copied().max().unwrap_or(0) as f64 / unit;
    CongestionReport {
        max_link,
        mean_link,
        port,
        factor: max_link.max(port).max(1.0),
    }
}

fn bits(r: CongestionReport) -> [u64; 4] {
    [r.max_link, r.mean_link, r.port, r.factor].map(f64::to_bits)
}

/// The flat link array agrees with a naive routing of every flow, field by
/// field and bit for bit, on random tori and meshes (1- and 2-wide
/// dimensions included) with zero-byte and self flows: for one pattern,
/// for the worst round of a schedule (the later of equal rounds), and for
/// the per-link loads themselves.
#[test]
fn congestion_matches_a_naive_reference() {
    forall("congestion_matches_a_naive_reference", 256, |rng| {
        let topo = random_topology(rng);
        let nodes_per_port = rng.range_u32(1, 4);
        let rounds: Vec<Vec<traffic::Flow>> = (0..rng.range_usize(0, 5))
            .map(|_| random_flows(rng, &topo, 12))
            .collect();
        for flows in &rounds {
            assert_eq!(link_loads(&topo, flows), reference_loads(&topo, flows));
            let (got, want) = (
                pattern_congestion(&topo, flows, nodes_per_port),
                reference_congestion(&topo, flows, nodes_per_port),
            );
            assert_eq!(bits(got), bits(want), "{topo}: {got:?} vs {want:?}");
        }
        let want = rounds
            .iter()
            .map(|r| reference_congestion(&topo, r, nodes_per_port))
            .max_by(|a, b| a.factor.total_cmp(&b.factor))
            .map_or([0.0, 0.0, 0.0, 1.0].map(f64::to_bits), bits);
        assert_eq!(
            bits(scheduled_congestion(&topo, &rounds, nodes_per_port)),
            want,
            "{topo}: schedule of {} rounds",
            rounds.len()
        );
    });
}

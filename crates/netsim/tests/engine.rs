//! Fuzzed integration tests of the discrete-event network engine: random
//! traffic on random small topologies must always drain — no deadlock, no
//! wedged watchdog, every injected word delivered — and the event order
//! must not depend on the worker count.

use memcomm_memsim::node::NodeParams;
use memcomm_netsim::engine::{run_flows, run_schedule, EngineConfig};
use memcomm_netsim::link::LinkParams;
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::{self, Flow};
use memcomm_util::check::forall;
use memcomm_util::rng::Rng;

fn random_topology(rng: &mut Rng) -> Topology {
    let ndims = rng.range_usize(1, 4);
    let dims: Vec<u32> = (0..ndims).map(|_| rng.range_u32(1, 5)).collect();
    if rng.bool() {
        Topology::torus(&dims)
    } else {
        Topology::mesh(&dims)
    }
}

fn fuzz_cfg(rng: &mut Rng) -> EngineConfig {
    let link = LinkParams {
        bytes_per_cycle: rng.range_f64(1.0, 9.0),
        packet_words: 16,
        header_bytes: 8,
        adp_extra_bytes: 8,
        latency_cycles: rng.range_u64(1, 25),
        congestion: 1.0,
    };
    let mut cfg = EngineConfig::new(link, NodeParams::default());
    cfg.nodes_per_port = rng.range_u32(1, 3);
    cfg.vc_slots = rng.range_u32(2, 65);
    cfg.jobs = 1;
    cfg
}

fn random_flows(rng: &mut Rng, topo: &Topology) -> Vec<Flow> {
    let n = topo.len();
    (0..rng.range_usize(0, 14))
        .map(|_| Flow {
            src: rng.range_usize(0, n),
            dst: rng.range_usize(0, n),
            bytes: rng.range_u64(0, 40 * 8),
        })
        .collect()
}

/// Random flow sets on random topologies always drain, watchdog-clean:
/// every word that enters the network leaves it, whatever the shape, the
/// buffering, or the port sharing.
#[test]
fn random_traffic_always_drains() {
    forall("random_traffic_always_drains", 192, |rng| {
        let topo = random_topology(rng);
        let cfg = fuzz_cfg(rng);
        let flows = random_flows(rng, &topo);
        let expected: u64 = flows
            .iter()
            .filter(|f| f.src != f.dst)
            .map(|f| f.bytes.div_ceil(8))
            .sum();
        let out = run_flows(&topo, &flows, &cfg)
            .unwrap_or_else(|e| panic!("engine failed on {:?}: {e}", topo.dims()));
        assert_eq!(out.words, expected, "every word must drain");
        assert_eq!(out.dropped, 0, "no faults configured");
        if expected == 0 {
            assert_eq!(out.cycles, 0);
        }
    });
}

/// Multi-round schedules drain too, and the schedule digest is reproducible
/// run to run (same inputs, same event order).
#[test]
fn random_schedules_drain_and_replay() {
    forall("random_schedules_drain_and_replay", 48, |rng| {
        let topo = random_topology(rng);
        let cfg = fuzz_cfg(rng);
        let rounds: Vec<Vec<Flow>> = (0..rng.range_usize(1, 4))
            .map(|_| random_flows(rng, &topo))
            .collect();
        let a = run_schedule(&topo, &rounds, &cfg).expect("schedule runs");
        let b = run_schedule(&topo, &rounds, &cfg).expect("schedule replays");
        assert_eq!(a.digest, b.digest, "schedule digest must replay");
        assert_eq!(a.cycles, b.cycles);
    });
}

/// The conservative-window fan-out is invisible: any worker count produces
/// the same digest, cycle count, and aggregate counters as a serial run,
/// on every fuzzed topology.
#[test]
fn worker_count_never_changes_the_event_order() {
    forall("worker_count_never_changes_the_event_order", 48, |rng| {
        let topo = random_topology(rng);
        let mut cfg = fuzz_cfg(rng);
        cfg.record_events = true;
        let flows = random_flows(rng, &topo);
        cfg.jobs = 1;
        let serial = run_flows(&topo, &flows, &cfg).expect("serial run");
        for jobs in [2, 5] {
            cfg.jobs = jobs;
            let par = run_flows(&topo, &flows, &cfg).expect("parallel run");
            assert_eq!(par.digest, serial.digest, "digest at jobs={jobs}");
            assert_eq!(par.events, serial.events, "events at jobs={jobs}");
            assert_eq!(par.cycles, serial.cycles);
            assert_eq!(par.flit_hops, serial.flit_hops);
        }
    });
}

/// A fuzzed topology scaled up to 512 nodes (same construction as the
/// engine-vs-oracle scale tier): random dimensions grown under the node cap,
/// tail stretched so the big sizes are actually drawn.
fn random_scaled_topology(rng: &mut Rng) -> Topology {
    let mut dims: Vec<u32> = Vec::new();
    let mut nodes = 1usize;
    for _ in 0..rng.range_usize(1, 4) {
        let d = rng.range_u32(2, 9);
        if nodes * d as usize > 512 {
            break;
        }
        nodes *= d as usize;
        dims.push(d);
    }
    if dims.is_empty() {
        dims.push(rng.range_u32(2, 9));
        nodes = *dims.last().unwrap() as usize;
    }
    while nodes * 2 <= 512 && rng.bool() {
        *dims.last_mut().unwrap() *= 2;
        nodes *= 2;
    }
    if rng.bool() {
        Topology::torus(&dims)
    } else {
        Topology::mesh(&dims)
    }
}

/// The scale tier: random traffic on topologies up to 512 nodes under a
/// random shard count drains watchdog-clean with exact word AND flit-hop
/// conservation (total link traversals = Σ words × routed distance), and
/// re-running the same traffic under a different worker/shard draw
/// reproduces the digest and every counter.
#[test]
fn scaled_random_traffic_drains_and_sharding_is_invisible() {
    forall(
        "scaled_random_traffic_drains_and_sharding_is_invisible",
        12,
        |rng| {
            let topo = random_scaled_topology(rng);
            let n = topo.len();
            let mut cfg = fuzz_cfg(rng);
            cfg.jobs = rng.range_usize(1, 5);
            cfg.shards = rng.range_usize(0, 24);
            let flows: Vec<Flow> = (0..rng.range_usize(n / 8, n / 2 + 2).min(96))
                .map(|_| Flow {
                    src: rng.range_usize(0, n),
                    dst: rng.range_usize(0, n),
                    bytes: rng.range_u64(0, 48 * 8),
                })
                .collect();
            let expected_words: u64 = flows
                .iter()
                .filter(|f| f.src != f.dst)
                .map(|f| f.bytes.div_ceil(8))
                .sum();
            let expected_hops: u64 = flows
                .iter()
                .filter(|f| f.src != f.dst)
                .map(|f| f.bytes.div_ceil(8) * topo.distance(f.src, f.dst))
                .sum();
            let a = run_flows(&topo, &flows, &cfg)
                .unwrap_or_else(|e| panic!("engine failed on {:?} ({n} nodes): {e}", topo.dims()));
            assert_eq!(a.words, expected_words, "word conservation at {n} nodes");
            assert_eq!(
                a.flit_hops, expected_hops,
                "flit-hop conservation at {n} nodes"
            );
            assert_eq!(a.dropped, 0, "no faults configured");
            cfg.jobs = rng.range_usize(1, 5);
            cfg.shards = rng.range_usize(0, 24);
            let b = run_flows(&topo, &flows, &cfg).expect("re-partitioned run");
            assert_eq!(b.digest, a.digest, "digest under re-partitioning");
            assert_eq!(b.cycles, a.cycles);
            assert_eq!(b.flit_hops, a.flit_hops);
            assert_eq!(b.peak_queue_depth, a.peak_queue_depth);
        },
    );
}

/// The canonical congested pattern at a canonical size: the XOR all-to-all
/// on a 16-node torus drains with conserved flit-hops — the total link
/// traversals equal the sum over flows of words × routed distance.
#[test]
fn xor_all_to_all_conserves_flit_hops() {
    let topo = Topology::torus(&[4, 4]);
    let rounds = traffic::aapc_xor_schedule(topo.len(), 16 * 8);
    let mut rng = Rng::new(11);
    let cfg = fuzz_cfg(&mut rng);
    let out = run_schedule(&topo, &rounds, &cfg).expect("schedule runs");
    let expected_hops: u64 = rounds
        .iter()
        .flatten()
        .map(|f| f.bytes.div_ceil(8) * topo.distance(f.src, f.dst))
        .sum();
    let total_hops: u64 = out.rounds.iter().map(|r| r.flit_hops).sum();
    assert_eq!(total_hops, expected_hops, "flit-hop conservation");
}

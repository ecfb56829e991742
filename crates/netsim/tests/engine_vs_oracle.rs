//! Differential tier: the production event engine against the independent
//! reference engine in `oracle/mod.rs`.
//!
//! The oracle shares no code with `netsim::engine` — not the window core,
//! the queues, the shard partition, the stage-major fold, nor the digest —
//! so any bug in them shows up here as a mismatch. Every case draws seeded
//! traffic, a fuzzed configuration (latency, buffering, NIC FIFO depth,
//! port sharing, fault plans with outages and retry budgets), and its own
//! worker and shard count for the production run. The whole
//! observable outcome must match the oracle: the event stream (when
//! recorded), the digest, and every counter and ledger. Since the oracle
//! has no partition, agreement at a random jobs × shards is also the
//! partition-invariance check.

mod oracle;

use memcomm_commops::collectives;
use memcomm_memsim::fault::{FaultConfig, FaultPlan};
use memcomm_memsim::node::NodeParams;
use memcomm_netsim::adversary::{self, AdversaryConfig, AdversaryKind};
use memcomm_netsim::engine::{
    run_flows, run_schedule, scaled_topology, EngineConfig, EngineOutcome, RetryPolicy,
    ScheduleOutcome,
};
use memcomm_netsim::link::LinkParams;
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::Flow;
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
    let mut node = NodeParams::default();
    // Half the cases shrink the NIC FIFOs to a few words, so backpressure
    // from a full tx or rx reaches the pump, the ports and the links.
    if rng.bool() {
        node.tx_fifo_words = rng.range_usize(1, 9);
        node.rx_fifo_words = rng.range_usize(1, 9);
    }
    let mut cfg = EngineConfig::new(link, node);
    cfg.nodes_per_port = rng.range_u32(1, 3);
    cfg.vc_slots = rng.range_u32(2, 65);
    cfg.record_events = true;
    cfg.record_latency = rng.bool();
    // Half the cases arm the telemetry sampler at a random tick, so every
    // differential below also proves sampling never perturbs outcomes.
    cfg.sample_every = if rng.bool() { rng.range_u64(1, 129) } else { 0 };
    // A third of the cases run under a seeded fault plan: drops, retries,
    // jitter and NIC stalls of up to 2047 cycles (the idle watchdog's
    // slack). Some also draw transient link-outage windows, permanent link
    // outages that strand words, and a real backoff-bearing retry policy.
    if rng.range_u64(0, 3) == 0 {
        let mut fc = FaultConfig {
            seed: rng.range_u64(1, u64::MAX),
            rate: rng.range_f64(0.0, 0.12),
            max_jitter_cycles: rng.range_u64(1, 64),
            max_stall_cycles: rng.range_u64(1, 2048),
            ..FaultConfig::default()
        };
        if rng.range_u64(0, 3) == 0 {
            fc.outage_window_rate = rng.range_f64(0.0, 0.5);
            fc.outage_window_cycles = rng.range_u64(16, 512);
            fc.outage_period_cycles = rng.range_u64(512, 4096);
        }
        if rng.range_u64(0, 4) == 0 {
            fc.permanent_outage_rate = rng.range_f64(0.0, 0.3);
        }
        cfg.fault = FaultPlan::new(fc);
        if rng.range_u64(0, 2) == 0 {
            cfg.retry = RetryPolicy {
                max_retries: rng.range_u32(0, 16),
                backoff_base_cycles: rng.range_u64(0, 256),
                backoff_factor: rng.range_u32(1, 4),
                max_backoff_cycles: 1 << 12,
            };
        }
    }
    cfg
}

/// Draws the production run's own worker and shard counts (shards 0 =
/// auto). The oracle ignores both.
fn partition(rng: &mut Rng, cfg: &mut EngineConfig, max_shards: usize) {
    cfg.jobs = rng.range_usize(1, 5);
    cfg.shards = rng.range_usize(0, max_shards + 1);
}

fn random_flows(rng: &mut Rng, topo: &Topology) -> Vec<Flow> {
    let n = topo.len();
    (0..rng.range_usize(0, 14))
        .map(|_| Flow {
            src: rng.range_usize(0, n),
            dst: rng.range_usize(0, n),
            bytes: rng.range_u64(0, 64 * 8),
        })
        .collect()
}

/// Words `out` delivered: offered minus what the degraded accounting
/// reports missing.
fn delivered(out: &EngineOutcome) -> u64 {
    let missing: u64 = out
        .degraded
        .as_ref()
        .map_or(0, |d| d.missing_flows.iter().map(|&(_, m)| m).sum());
    out.words - missing
}

fn assert_outcomes_match(engine: &EngineOutcome, oracle: &EngineOutcome, ctx: &str) {
    let diverged = (0..engine.events.len().max(oracle.events.len()))
        .find(|&i| engine.events.get(i) != oracle.events.get(i));
    if let Some(i) = diverged {
        panic!(
            "event stream diverges at event {i} ({ctx}): engine {:?}, oracle {:?}",
            engine.events.get(i),
            oracle.events.get(i)
        );
    }
    assert_eq!(engine.digest, oracle.digest, "digest ({ctx})");
    assert_eq!(engine.cycles, oracle.cycles, "cycles ({ctx})");
    assert_eq!(engine.words, oracle.words, "words ({ctx})");
    assert_eq!(engine.flit_hops, oracle.flit_hops, "flit hops ({ctx})");
    assert_eq!(engine.windows, oracle.windows, "windows ({ctx})");
    assert_eq!(engine.dropped, oracle.dropped, "dropped ({ctx})");
    assert_eq!(engine.corrupted, oracle.corrupted, "corrupted ({ctx})");
    assert_eq!(engine.retried, oracle.retried, "retried ({ctx})");
    assert_eq!(engine.abandoned, oracle.abandoned, "abandoned ({ctx})");
    assert_eq!(engine.degraded, oracle.degraded, "degraded ({ctx})");
    assert_eq!(
        engine.flow_latency, oracle.flow_latency,
        "flow latency ({ctx})"
    );
    assert_eq!(
        engine.peak_queue_depth, oracle.peak_queue_depth,
        "peak queue depth ({ctx})"
    );
    // Ledgers the engine must balance on its own: every drop retried or
    // abandoned, and one latency sample per delivered word.
    assert_eq!(
        engine.dropped,
        engine.retried + engine.abandoned,
        "drop ledger ({ctx})"
    );
    if !engine.flow_latency.is_empty() {
        let samples: u64 = engine.flow_latency.iter().map(|h| h.count).sum();
        assert_eq!(samples, delivered(engine), "latency samples ({ctx})");
    }
}

fn assert_schedules_match(engine: &ScheduleOutcome, oracle: &ScheduleOutcome, ctx: &str) {
    assert_eq!(engine.rounds.len(), oracle.rounds.len(), "rounds ({ctx})");
    for (i, (e, o)) in engine.rounds.iter().zip(&oracle.rounds).enumerate() {
        assert_outcomes_match(e, o, &format!("{ctx} round {i}"));
    }
    assert_eq!(engine.digest, oracle.digest, "schedule digest ({ctx})");
    assert_eq!(engine.cycles, oracle.cycles, "schedule cycles ({ctx})");
    assert_eq!(
        engine.peak_queue_depth, oracle.peak_queue_depth,
        "schedule peak depth ({ctx})"
    );
}

fn context(topo: &Topology, cfg: &EngineConfig) -> String {
    format!(
        "dims {:?} ({} nodes), jobs {} shards {}",
        topo.dims(),
        topo.len(),
        cfg.jobs,
        cfg.shards
    )
}

/// Single-shot flow sets across random topology, latency, buffering and
/// fault plans.
#[test]
fn engine_matches_oracle_on_random_traffic() {
    forall("engine_matches_oracle_on_random_traffic", 200, |rng| {
        let topo = random_topology(rng);
        let mut cfg = fuzz_cfg(rng);
        let flows = random_flows(rng, &topo);
        partition(rng, &mut cfg, 8);
        let engine = run_flows(&topo, &flows, &cfg).expect("engine runs");
        let oracle = oracle::run(&topo, &flows, &cfg);
        assert_outcomes_match(&engine, &oracle, &context(&topo, &cfg));
    });
}

/// Multi-round schedules: per-round outcomes and the schedule-level digest
/// and peak depth agree.
#[test]
fn engine_matches_oracle_on_multi_round_schedules() {
    forall(
        "engine_matches_oracle_on_multi_round_schedules",
        48,
        |rng| {
            let topo = random_topology(rng);
            let mut cfg = fuzz_cfg(rng);
            let rounds: Vec<Vec<Flow>> = (0..rng.range_usize(1, 4))
                .map(|_| random_flows(rng, &topo))
                .collect();
            partition(rng, &mut cfg, 8);
            let engine = run_schedule(&topo, &rounds, &cfg).expect("engine schedule runs");
            let oracle = oracle::run_rounds(&topo, &rounds, &cfg);
            assert_schedules_match(&engine, &oracle, &context(&topo, &cfg));
        },
    );
}

/// A fuzzed topology scaled up to 512 nodes: grows random dimensions while
/// the node count allows, then stretches the tail so the big sizes are
/// actually reached.
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

fn random_scaled_flows(rng: &mut Rng, topo: &Topology) -> Vec<Flow> {
    let n = topo.len();
    let count = rng.range_usize(n / 8, n / 2 + 2).min(96);
    (0..count)
        .map(|_| Flow {
            src: rng.range_usize(0, n),
            dst: rng.range_usize(0, n),
            bytes: rng.range_u64(0, 48 * 8),
        })
        .collect()
}

/// The scale tier: topologies up to 512 nodes under up to 23 shards, where
/// the load-balanced partition and the stage-major fold do the most work.
#[test]
fn engine_matches_oracle_at_scale_under_random_sharding() {
    forall(
        "engine_matches_oracle_at_scale_under_random_sharding",
        12,
        |rng| {
            let topo = random_scaled_topology(rng);
            let mut cfg = fuzz_cfg(rng);
            // Full event streams get large at 512 nodes; the digest covers
            // the same ordering information for the big draws.
            cfg.record_events = topo.len() <= 128;
            let flows = random_scaled_flows(rng, &topo);
            partition(rng, &mut cfg, 23);
            let engine = run_flows(&topo, &flows, &cfg).expect("engine runs at scale");
            let oracle = oracle::run(&topo, &flows, &cfg);
            let ctx = format!("{}, {} flows", context(&topo, &cfg), flows.len());
            assert_outcomes_match(&engine, &oracle, &ctx);
        },
    );
}

/// Retry storms under faulty links: adversarial spray traffic over a
/// drop-heavy plan with transient outage windows and a tight, real-backoff
/// retry budget — the path where in-place retries, the delivery ring's
/// overflow list and the outage calendar's cached spans all interact.
#[test]
fn engine_matches_oracle_under_retry_storms() {
    forall("engine_matches_oracle_under_retry_storms", 10, |rng| {
        let topo = Topology::torus(&[4, rng.range_u32(2, 5)]);
        let traffic = adversary::generate(
            &topo,
            &AdversaryConfig {
                kind: AdversaryKind::RetryStorm,
                seed: rng.range_u64(1, u64::MAX),
                base_bytes: 128,
                ..AdversaryConfig::default()
            },
        );
        let mut cfg = fuzz_cfg(rng);
        cfg.record_latency = true;
        cfg.flow_classes = traffic.classes.clone();
        cfg.fault = FaultPlan::new(FaultConfig {
            seed: rng.range_u64(1, u64::MAX),
            rate: rng.range_f64(0.15, 0.45),
            max_jitter_cycles: 16,
            outage_window_rate: 0.25,
            outage_window_cycles: 128,
            outage_period_cycles: 1024,
            ..FaultConfig::default()
        });
        cfg.retry = RetryPolicy {
            max_retries: rng.range_u32(1, 6),
            backoff_base_cycles: 32,
            backoff_factor: 2,
            max_backoff_cycles: 1 << 12,
        };
        partition(rng, &mut cfg, 8);
        let engine = run_flows(&topo, &traffic.flows, &cfg).expect("engine storm run");
        let oracle = oracle::run(&topo, &traffic.flows, &cfg);
        assert!(engine.dropped > 0, "the storm must actually drop words");
        assert_outcomes_match(&engine, &oracle, &context(&topo, &cfg));
    });
}

/// Real collective schedules instead of random flow soup: a random
/// collective × power-of-two node count × payload × fuzzed config. Beyond
/// matching the oracle, the schedule's volume is conserved: every word is
/// offered, and the words that never arrive are exactly the abandoned ones
/// unless a permanent outage strands more.
#[test]
fn engine_matches_oracle_on_collective_schedules() {
    forall("engine_matches_oracle_on_collective_schedules", 24, |rng| {
        let nodes = 1usize << rng.range_u32(1, 6);
        let ndims = rng.range_usize(1, 4);
        let base = if rng.bool() {
            Topology::torus(&vec![2; ndims])
        } else {
            Topology::mesh(&vec![2; ndims])
        };
        let topo = scaled_topology(&base, nodes).expect("power-of-two scales");
        let coll = *rng.choose(&collectives::ALL);
        let words = rng.range_u64(1, 96);
        let rounds = coll.schedule(nodes, words).expect("collective compiles");

        let mut cfg = fuzz_cfg(rng);
        cfg.record_events = nodes <= 16;
        partition(rng, &mut cfg, 8);
        let engine = run_schedule(&topo, &rounds, &cfg).expect("engine drains watchdog-clean");
        let oracle = oracle::run_rounds(&topo, &rounds, &cfg);
        let ctx = format!(
            "{} n={nodes} words={words}, {}",
            coll.name(),
            context(&topo, &cfg)
        );
        assert_schedules_match(&engine, &oracle, &ctx);

        let offered: u64 = engine.rounds.iter().map(|r| r.words).sum();
        let volume = coll.volume_words(nodes, words).expect("closed form");
        assert_eq!(
            offered, volume,
            "every word of the schedule is offered ({ctx})"
        );
        let abandoned: u64 = engine.rounds.iter().map(|r| r.abandoned).sum();
        let missing: u64 = engine.rounds.iter().map(|r| r.words - delivered(r)).sum();
        if cfg.fault.config().permanent_outage_rate == 0.0 {
            assert_eq!(
                missing, abandoned,
                "missing words are the abandoned ones ({ctx})"
            );
        } else {
            assert!(missing >= abandoned, "abandoned words are missing ({ctx})");
        }
    });
}

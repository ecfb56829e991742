//! Differential test: the discrete-event network engine against the
//! analytic per-round wire model, on every collective × machine × node
//! count.
//!
//! Each collective compiles to barrier-separated rounds of flows. The
//! engine executes them word by word on the scaled topology; the analytic
//! path prices each round with the closed-form congestion factor and sums.
//! Neither is derived from the other, so agreement is evidence both are
//! right. The tolerance is the paper's own Table 6 accuracy envelope: the
//! worst model-vs-measured chained-throughput ratio across its kernels,
//! with the same engine-fill margin `tests/engine_vs_model.rs` uses.
//!
//! The same pass pins conservation (the engine delivers exactly the
//! schedule's payload, which matches the closed-form volume), lower-bound
//! dominance (volume ≥ the information-theoretic floor in every cell), and
//! partition invariance (byte-identical results across jobs × shards).

use memcomm::commops::collectives::{self, Collective};
use memcomm::kernels::netrun::{self, CollectiveRun, EngineOptions};
use memcomm::machines::{reference, Machine};

/// Same engine-fill margin as `tests/engine_vs_model.rs`.
const MARGIN: f64 = 1.10;

/// The paper's accuracy envelope: collectives are not Table 6 kernels, so
/// the band is the worst model ÷ measured chained ratio across the table.
fn paper_band() -> f64 {
    reference::table6()
        .into_iter()
        .map(|r| {
            let ratio = r.model_chained.as_mbps() / r.measured_chained.as_mbps();
            ratio.max(1.0 / ratio)
        })
        .fold(1.0, f64::max)
        * MARGIN
}

/// (jobs, shards) — a serial single-shard run and a sharded parallel one.
/// Results must never depend on either.
const GRID: [(usize, usize); 2] = [
    (1, 1), // serial, one shard (the baseline)
    (4, 0), // 4 workers, auto shards
];

fn opts_for(nodes: usize, (jobs, shards): (usize, usize)) -> EngineOptions {
    EngineOptions {
        nodes: Some(nodes),
        jobs,
        shards,
        ..EngineOptions::default()
    }
}

/// Runs one cell on the baseline config and checks it against the model.
fn check_cell(machine: &Machine, coll: Collective, nodes: usize, words: u64) -> CollectiveRun {
    let band = paper_band();
    let topo = netrun::engine_topology(machine, Some(nodes)).expect("topology scales");
    assert_eq!(topo.len(), nodes);

    let run = netrun::run_collective(machine, coll, words, &opts_for(nodes, GRID[0]))
        .expect("engine runs");
    let cost = collectives::analytic_cost(machine, &topo, coll, words).expect("model prices");

    // Conservation: engine delivery == closed-form volume == schedule sum.
    let schedule = coll.schedule(nodes, words).expect("schedule compiles");
    let scheduled: u64 = schedule.iter().flatten().map(|f| f.bytes.div_ceil(8)).sum();
    assert_eq!(
        run.run.words,
        run.volume_words,
        "{} on {} at {nodes}: engine delivered {} words, closed form says {}",
        coll.name(),
        machine.name,
        run.run.words,
        run.volume_words,
    );
    assert_eq!(
        scheduled,
        run.volume_words,
        "{} on {} at {nodes}: schedule sums to {scheduled} words, closed form says {}",
        coll.name(),
        machine.name,
        run.volume_words,
    );

    // Lower-bound dominance: no schedule beats the information floor.
    assert!(
        run.volume_words >= run.lower_bound_words && run.lower_bound_words > 0,
        "{} on {} at {nodes}: volume {} below lower bound {}",
        coll.name(),
        machine.name,
        run.volume_words,
        run.lower_bound_words,
    );

    // Rounds telescope: the model's per-round costs sum to its end cycle,
    // and both sides agree on the round count.
    assert_eq!(run.rounds as usize, cost.rounds.len());
    assert_eq!(
        cost.rounds.iter().map(|r| r.cycles).sum::<u64>(),
        cost.end_cycle
    );

    // The differential statistic: engine cycles over analytic cycles.
    let ratio = run.run.cycles as f64 / cost.end_cycle as f64;
    println!(
        "{:16} {:14} n={nodes:4} words={words:3} engine={:7} analytic={:7} ratio={ratio:.3} \
         band={band:.3} vol/LB={:.2}",
        coll.name(),
        machine.name,
        run.run.cycles,
        cost.end_cycle,
        run.volume_words as f64 / run.lower_bound_words as f64,
    );
    assert!(
        (1.0 / band..=band).contains(&ratio),
        "{} on {} at {nodes} nodes: engine/analytic cycle ratio {ratio:.3} outside the \
         paper's accuracy band {:.3}..={band:.3}",
        coll.name(),
        machine.name,
        1.0 / band,
    );
    run
}

/// Re-runs a cell across the partition grid and demands the
/// whole result — digest, cycles, counters — is byte-identical.
fn check_invariance(
    machine: &Machine,
    coll: Collective,
    nodes: usize,
    words: u64,
    baseline: &CollectiveRun,
) {
    for config in &GRID[1..] {
        let run = netrun::run_collective(machine, coll, words, &opts_for(nodes, *config))
            .expect("engine runs");
        assert_eq!(
            &run,
            baseline,
            "{} on {} at {nodes}: result depends on (jobs={}, shards={})",
            coll.name(),
            machine.name,
            config.0,
            config.1,
        );
    }
}

#[test]
fn the_full_matrix_at_64_nodes_is_inside_the_band_and_partition_invariant() {
    for machine in [Machine::t3d(), Machine::paragon()] {
        for coll in collectives::ALL {
            let baseline = check_cell(&machine, coll, 64, 32);
            check_invariance(&machine, coll, 64, 32, &baseline);
        }
    }
}

#[test]
fn the_full_matrix_at_256_nodes_is_inside_the_band() {
    for machine in [Machine::t3d(), Machine::paragon()] {
        for coll in collectives::ALL {
            let baseline = check_cell(&machine, coll, 256, 4);
            // The full grid at 256 nodes would blow the suite's wall
            // budget on the ring collectives (hundreds of rounds each);
            // the log-round allreduce stands in for the partition sweep
            // here, and the 64-node matrix covers every kind.
            if coll == Collective::AllreduceRecursiveDoubling {
                check_invariance(&machine, coll, 256, 4, &baseline);
            }
        }
    }
}

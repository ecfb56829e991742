//! Scale-sweep differential tier for the sharded discrete-event engine:
//! the transpose exchange on 4×4, 8×8, 16×16, and 16×8×8 tori (16 to 1024
//! nodes), each size checked two ways:
//!
//! 1. **Accuracy**: the engine's emergent congestion factor must agree
//!    with the closed-form [`scheduled_congestion`] analysis of the same
//!    rounds, within the paper's own Table 6 accuracy band for the
//!    transpose (model ÷ measured chained throughput, plus a small margin
//!    for the engine's pipeline-fill accounting).
//! 2. **Determinism**: the FNV event-stream digest — and every other
//!    outcome field — must be byte-identical across worker counts
//!    `jobs ∈ {1, 2, 8}` and across shard counts `{1, 3, 16, auto}`.
//!    The stage-major window fold makes partitioning unobservable.
//!
//! The kilo-node case runs a truncated prefix of the XOR schedule with a
//! substantial payload per pair: enough words that steady-state contention
//! dominates the pipeline fill (tiny patches collapse the emergent factor
//! to 1), few enough rounds that the sweep stays inside the CI wall-clock
//! budget. A successful run is also a watchdog-clean drain: the engine
//! errors out if any round stalls.

use memcomm::kernels::netrun::{self, EngineOptions};
use memcomm::machines::{reference, Machine};
use memcomm::netsim::congestion::scheduled_congestion;
use memcomm::netsim::topology::Topology;
use memcomm::netsim::traffic::aapc_xor_schedule;

/// Margin on top of the paper's Table 6 transpose band (same rationale as
/// `tests/engine_vs_model.rs`: the fill subtraction wobbles the factor a
/// few percent, more at small instances).
const MARGIN: f64 = 1.10;

fn transpose_band() -> f64 {
    let row = reference::table6()
        .into_iter()
        .find(|r| r.kernel == "Transpose")
        .expect("Transpose missing from the paper's Table 6");
    let ratio = row.model_chained.as_mbps() / row.measured_chained.as_mbps();
    ratio.max(1.0 / ratio) * MARGIN
}

struct ScaleCase {
    dims: &'static [u32],
    /// Words exchanged per pair and per round.
    words_per_pair: u64,
    /// XOR-schedule prefix length (of the full `n − 1` rounds).
    rounds: usize,
}

const CASES: &[ScaleCase] = &[
    ScaleCase {
        dims: &[4, 4],
        words_per_pair: 64,
        rounds: 6,
    },
    ScaleCase {
        dims: &[8, 8],
        words_per_pair: 64,
        rounds: 6,
    },
    ScaleCase {
        dims: &[16, 16],
        words_per_pair: 48,
        rounds: 5,
    },
    ScaleCase {
        dims: &[16, 8, 8],
        words_per_pair: 32,
        rounds: 4,
    },
];

fn truncated_transpose(
    n: usize,
    words_per_pair: u64,
    rounds: usize,
) -> Vec<Vec<memcomm::netsim::traffic::Flow>> {
    let mut all = aapc_xor_schedule(n, words_per_pair * 8);
    all.truncate(rounds);
    all
}

fn opts(jobs: usize, shards: usize) -> EngineOptions {
    EngineOptions {
        jobs,
        shards,
        ..EngineOptions::default()
    }
}

#[test]
fn engine_tracks_the_analytic_model_from_16_to_1024_nodes() {
    let machine = Machine::t3d();
    let band = transpose_band();
    println!("dims           nodes  engine-c  analytic-c  ratio  band {band:.3}");
    for case in CASES {
        let topo = Topology::torus(case.dims);
        let n = topo.len();
        let rounds = truncated_transpose(n, case.words_per_pair, case.rounds);
        let analytic = scheduled_congestion(&topo, &rounds, machine.nodes_per_port).factor;

        let run =
            netrun::run_rounds(&machine, &topo, &rounds, &opts(0, 0)).expect("watchdog-clean run");

        // Flit-hop/word conservation: the engine delivered exactly the
        // truncated schedule's payload, nothing dropped or duplicated.
        let scheduled: u64 = rounds
            .iter()
            .flatten()
            .filter(|f| f.src != f.dst)
            .map(|f| f.bytes.div_ceil(8))
            .sum();
        assert_eq!(run.words, scheduled, "{:?}: words lost", case.dims);

        let ratio = run.factor / analytic;
        println!(
            "{:12?}  {:5}  {:8.3}  {:10.3}  {:5.3}",
            case.dims, n, run.factor, analytic, ratio
        );
        assert!(
            (1.0 / band..=band).contains(&ratio),
            "{:?} ({n} nodes): engine factor {:.3} vs analytic {:.3} — ratio {ratio:.3} \
             outside the paper's accuracy band {:.3}..={band:.3}",
            case.dims,
            run.factor,
            analytic,
            1.0 / band,
        );
    }
}

#[test]
fn digests_are_byte_identical_across_jobs_and_shards_at_every_scale() {
    let machine = Machine::t3d();
    for case in CASES {
        let topo = Topology::torus(case.dims);
        let n = topo.len();
        let rounds = truncated_transpose(n, case.words_per_pair, case.rounds);

        let base =
            netrun::run_rounds(&machine, &topo, &rounds, &opts(1, 1)).expect("baseline runs");
        assert!(base.words > 0 && base.flit_hops > 0, "{n}-node run is real");

        // jobs sweep (auto shards) and shards sweep (fixed jobs): the
        // baseline is single-threaded on a single shard, so any
        // partitioning artifact shows up as a digest mismatch here.
        for (jobs, shards) in [(2, 0), (8, 0), (2, 1), (2, 3), (2, 16), (8, 16)] {
            let run = netrun::run_rounds(&machine, &topo, &rounds, &opts(jobs, shards))
                .expect("variant runs");
            let ctx = format!("{n} nodes, jobs={jobs}, shards={shards}");
            assert_eq!(run.digest, base.digest, "{ctx}: digest drifted");
            assert_eq!(run.cycles, base.cycles, "{ctx}: cycles drifted");
            assert_eq!(run.flit_hops, base.flit_hops, "{ctx}: flit-hops drifted");
            assert_eq!(run.windows, base.windows, "{ctx}: windows drifted");
            assert_eq!(run.words, base.words, "{ctx}: words drifted");
            assert!(
                (run.factor - base.factor).abs() < 1e-12,
                "{ctx}: factor drifted"
            );
        }
    }
}

//! The experiment functions, one per table/figure.
//!
//! Every function that sweeps independent points (message sizes, transfer
//! notations, `xQy` operations) fans them out across the process-default
//! worker count via [`memcomm_util::par::par_map_auto`]. Results come back
//! in input order, and measurements memoized in the installed cache are
//! pure functions of their points, so output is bit-identical whatever the
//! worker count.

use memcomm_util::par::par_map_auto;

use memcomm_commops::{
    measure_message, run_exchange, run_get_exchange, run_resilient_transfer, ExchangeConfig,
    LibraryProfile, ProtocolConfig, Style,
};
use memcomm_kernels::apps::{CommMethod, FemKernel, SorKernel, TransposeKernel};
use memcomm_kernels::mesh::PartitionedMesh;
use memcomm_kernels::netrun::{self, EngineOptions, Table6Kernel};
use memcomm_machines::calibrate;
use memcomm_machines::microbench::{self, StrideSide};
use memcomm_machines::{reference, Machine};
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::fault::{FaultConfig, FaultPlan};
use memcomm_memsim::SimResult;
use memcomm_model::{
    buffer_packing_expr, chained_expr, AccessPattern, BasicTransfer, BufferPackingPlan,
    ChainedPlan, RateTable, ReceiveEngine, SendEngine,
};
use memcomm_netsim::link::measure_wire_rate;

/// Default payload for microbenchmark measurements (words).
pub const MICRO_WORDS: u64 = 16 * 1024;
/// Default payload for end-to-end exchanges (words).
pub const EXCHANGE_WORDS: u64 = 8 * 1024;

/// Parses the `xQy` shorthand used throughout the harness.
///
/// # Panics
///
/// Panics on malformed operation names (they are compile-time constants
/// here).
pub fn parse_q(op: &str) -> (AccessPattern, AccessPattern) {
    let (x, y) = op.split_once('Q').expect("ops are written xQy");
    let pat = |s: &str| match s {
        "1" => AccessPattern::Contiguous,
        "w" => AccessPattern::Indexed,
        n => AccessPattern::strided(n.parse().expect("stride")).expect("stride >= 2"),
    };
    (pat(x), pat(y))
}

/// The machine-appropriate buffer-packing plan (Sections 5.1.1 / 5.1.3).
pub fn bp_plan(machine: &Machine) -> BufferPackingPlan {
    BufferPackingPlan {
        send: if machine.caps.fetch_send {
            SendEngine::Dma
        } else {
            SendEngine::Processor
        },
        recv: ReceiveEngine::Deposit,
        elide_contiguous_copies: false,
        overlap_unpack: false,
    }
}

/// The machine-appropriate chained plan (Sections 5.1.2 / 5.1.4).
pub fn chained_plan(machine: &Machine) -> ChainedPlan {
    ChainedPlan {
        recv: if machine.caps.deposit_noncontiguous {
            ReceiveEngine::Deposit
        } else {
            ReceiveEngine::Processor
        },
    }
}

/// The exchange configuration reproducing the paper's methodology on a
/// machine (the Paragon measurements were half duplex).
pub fn paper_exchange_cfg(machine: &Machine, words: u64) -> ExchangeConfig {
    ExchangeConfig {
        words,
        full_duplex: !machine.caps.fetch_send,
        ..ExchangeConfig::default()
    }
}

// ---------------------------------------------------------------- Figure 1

/// One message size of Figure 1.
#[derive(Debug, Clone)]
pub struct Figure1Point {
    /// Message size in 64-bit words.
    pub message_words: u64,
    /// PVM-style throughput (MB/s).
    pub pvm: f64,
    /// Low-level library throughput (MB/s).
    pub low_level: f64,
}

/// Figure 1: library throughput vs message size on one machine.
///
/// # Errors
///
/// Propagates simulation failures from the message measurements.
pub fn figure1(machine: &Machine) -> SimResult<Vec<Figure1Point>> {
    let sizes = [16u64, 64, 256, 1024, 4096, 16384, 65536];
    par_map_auto(&sizes, |&words| {
        Ok(Figure1Point {
            message_words: words,
            pvm: measure_message(machine, LibraryProfile::pvm(machine), words)?.as_mbps(),
            low_level: measure_message(machine, LibraryProfile::low_level(machine), words)?
                .as_mbps(),
        })
    })
    .into_iter()
    .collect()
}

// ------------------------------------------------------------- Tables 1–3

/// One basic-transfer rate, simulated vs paper.
#[derive(Debug, Clone)]
pub struct RateRow {
    /// Transfer notation (e.g. `"1C64"`).
    pub transfer: String,
    /// Simulated rate (MB/s).
    pub simulated: f64,
    /// The paper's figure, when it reports one.
    pub paper: Option<f64>,
}

fn rate_rows(machine: &Machine, notations: &[&str], words: u64) -> SimResult<Vec<RateRow>> {
    let paper = calibrate::reference_rates(machine);
    let rows: SimResult<Vec<Option<RateRow>>> = par_map_auto(notations, |s| {
        let t = BasicTransfer::parse(s).expect("notation constants");
        Ok(
            microbench::measure_rate(machine, t, words)?.map(|rate| RateRow {
                transfer: s.to_string(),
                simulated: rate.as_mbps(),
                paper: paper.get(t).map(|p| p.as_mbps()),
            }),
        )
    })
    .into_iter()
    .collect();
    Ok(rows?.into_iter().flatten().collect())
}

/// Table 1: local memory-to-memory copies.
///
/// # Errors
///
/// Propagates simulation failures from the rate measurements.
pub fn table1(machine: &Machine, words: u64) -> SimResult<Vec<RateRow>> {
    rate_rows(machine, &["1C1", "1C64", "64C1", "1Cw", "wC1"], words)
}

/// Table 2: send transfers.
///
/// # Errors
///
/// Propagates simulation failures from the rate measurements.
pub fn table2(machine: &Machine, words: u64) -> SimResult<Vec<RateRow>> {
    rate_rows(machine, &["1S0", "1F0", "64S0", "wS0"], words)
}

/// Table 3: receive transfers.
///
/// # Errors
///
/// Propagates simulation failures from the rate measurements.
pub fn table3(machine: &Machine, words: u64) -> SimResult<Vec<RateRow>> {
    rate_rows(
        machine,
        &["0R1", "0D1", "0R64", "0D64", "0Rw", "0Dw"],
        words,
    )
}

// --------------------------------------------------------------- Figure 4

/// One stride of Figure 4.
#[derive(Debug, Clone)]
pub struct StridePoint {
    /// Stride in words.
    pub stride: u32,
    /// `sC1` (strided loads) throughput.
    pub loads: f64,
    /// `1Cs` (strided stores) throughput.
    pub stores: f64,
}

/// Figure 4: local copy throughput vs stride.
///
/// # Errors
///
/// Propagates simulation failures from either stride sweep.
pub fn figure4(machine: &Machine, words: u64) -> SimResult<Vec<StridePoint>> {
    let strides = [2u32, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128];
    let loads = microbench::stride_sweep(machine, &strides, words, StrideSide::Loads)?;
    let stores = microbench::stride_sweep(machine, &strides, words, StrideSide::Stores)?;
    Ok(loads
        .into_iter()
        .zip(stores)
        .map(|((stride, l), (_, s))| StridePoint {
            stride,
            loads: l.as_mbps(),
            stores: s.as_mbps(),
        })
        .collect())
}

// ---------------------------------------------------------------- Table 4

/// One congestion row of Table 4.
#[derive(Debug, Clone)]
pub struct NetworkRow {
    /// Congestion factor.
    pub congestion: f64,
    /// Simulated data-only bandwidth.
    pub data_only: f64,
    /// Simulated address-data-pair bandwidth.
    pub addr_data: f64,
    /// Paper's data-only figure.
    pub paper_data_only: f64,
    /// Paper's address-data-pair figure.
    pub paper_addr_data: f64,
}

/// Table 4: network bandwidth as a function of congestion.
pub fn table4(machine: &Machine, words: u64) -> Vec<NetworkRow> {
    let paper = match machine.name {
        "Cray T3D" => reference::t3d_network(),
        _ => reference::paragon_network(),
    };
    paper
        .into_iter()
        .map(|row| {
            let link = machine.link(row.congestion);
            NetworkRow {
                congestion: row.congestion,
                data_only: measure_wire_rate(link, words, false)
                    .throughput(machine.clock())
                    .as_mbps(),
                addr_data: measure_wire_rate(link, words, true)
                    .throughput(machine.clock())
                    .as_mbps(),
                paper_data_only: row.data_only.as_mbps(),
                paper_addr_data: row.addr_data.as_mbps(),
            }
        })
        .collect()
}

// --------------------------------------- Section 5 / Figures 7 and 8

/// One `xQy` comparison row.
#[derive(Debug, Clone)]
pub struct QRow {
    /// Operation (e.g. `"1Q64"`).
    pub op: String,
    /// End-to-end simulated, buffer packing.
    pub sim_bp: f64,
    /// End-to-end simulated, chained.
    pub sim_chained: f64,
    /// Model estimate from the *simulated* rate table, buffer packing.
    pub model_bp: f64,
    /// Model estimate from the simulated rate table, chained.
    pub model_chained: f64,
    /// The paper's model estimate, buffer packing (where given).
    pub paper_model_bp: Option<f64>,
    /// The paper's model estimate, chained (where given).
    pub paper_model_chained: Option<f64>,
    /// Whether the co-simulated transfers were verified end to end.
    pub verified: bool,
}

/// Section 5 (Figures 7/8): buffer packing vs chained for a spread of
/// access patterns, simulated end to end and estimated by the model from
/// the machine's simulated rate table.
/// # Errors
///
/// Propagates simulation failures from the co-simulated exchanges.
pub fn section5(machine: &Machine, rates: &RateTable, words: u64) -> SimResult<Vec<QRow>> {
    let paper: Vec<reference::QPoint> = match machine.name {
        "Cray T3D" => reference::t3d_q_model(),
        _ => reference::paragon_q_model(),
    };
    let ops = [
        "1Q1", "1Q16", "16Q1", "1Q64", "64Q1", "16Q64", "1Qw", "wQ1", "wQw",
    ];
    let cfg = paper_exchange_cfg(machine, words);
    par_map_auto(&ops, |op| {
        let (x, y) = parse_q(op);
        let bp = run_exchange(machine, x, y, Style::BufferPacking, &cfg)?;
        let ch = run_exchange(machine, x, y, Style::Chained, &cfg)?;
        let model_bp = buffer_packing_expr(x, y, bp_plan(machine))
            .and_then(|e| e.estimate(rates))
            .map(|t| t.as_mbps())
            .unwrap_or(f64::NAN);
        let model_ch = chained_expr(x, y, chained_plan(machine))
            .and_then(|e| e.estimate(rates))
            .map(|t| t.as_mbps())
            .unwrap_or(f64::NAN);
        let paper_point = paper.iter().find(|p| p.op == *op);
        Ok(QRow {
            op: op.to_string(),
            sim_bp: bp.per_node(machine.clock()).as_mbps(),
            sim_chained: ch.per_node(machine.clock()).as_mbps(),
            model_bp,
            model_chained: model_ch,
            paper_model_bp: paper_point.map(|p| p.buffer_packing.as_mbps()),
            paper_model_chained: paper_point.map(|p| p.chained.as_mbps()),
            verified: bp.verified && ch.verified,
        })
    })
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------- Table 5

/// One Table 5 row.
#[derive(Debug, Clone)]
pub struct LoadsVsStoresRow {
    /// `"1Q16"` (strided stores) or `"16Q1"` (strided loads).
    pub op: String,
    /// Machine name.
    pub machine: String,
    /// Simulated, buffer packing.
    pub sim_bp: f64,
    /// Simulated, chained.
    pub sim_chained: f64,
    /// Paper measured, buffer packing.
    pub paper_measured_bp: f64,
    /// Paper measured, chained.
    pub paper_measured_chained: f64,
    /// Paper model, buffer packing.
    pub paper_model_bp: f64,
    /// Paper model, chained.
    pub paper_model_chained: f64,
}

/// Table 5: strided loads vs strided stores on both machines.
///
/// # Errors
///
/// Propagates simulation failures from the co-simulated exchanges.
pub fn table5(words: u64) -> SimResult<Vec<LoadsVsStoresRow>> {
    let rows = reference::table5();
    par_map_auto(&rows, |r| {
        let machine = if r.machine == "Cray T3D" {
            Machine::t3d()
        } else {
            Machine::paragon()
        };
        let (x, y) = parse_q(r.op);
        let cfg = paper_exchange_cfg(&machine, words);
        let bp = run_exchange(&machine, x, y, Style::BufferPacking, &cfg)?;
        let ch = run_exchange(&machine, x, y, Style::Chained, &cfg)?;
        Ok(LoadsVsStoresRow {
            op: r.op.to_string(),
            machine: r.machine.to_string(),
            sim_bp: bp.per_node(machine.clock()).as_mbps(),
            sim_chained: ch.per_node(machine.clock()).as_mbps(),
            paper_measured_bp: r.measured_bp.as_mbps(),
            paper_measured_chained: r.measured_chained.as_mbps(),
            paper_model_bp: r.model_bp.as_mbps(),
            paper_model_chained: r.model_chained.as_mbps(),
        })
    })
    .into_iter()
    .collect()
}

// --------------------------------------------- Extension: model accuracy

/// One point of the model-accuracy grid.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Operation.
    pub op: String,
    /// Style label.
    pub style: String,
    /// Model estimate from the simulated rate table.
    pub model: f64,
    /// End-to-end simulated rate.
    pub simulated: f64,
    /// `simulated / model`.
    pub ratio: f64,
}

/// Quantifies "although simple, the model is highly accurate in the cases
/// that we have evaluated so far" over a grid of operations and both
/// styles: the model estimate (from the machine's simulated rate table)
/// against the end-to-end co-simulation.
///
/// # Errors
///
/// Propagates simulation failures from the co-simulated exchanges.
pub fn model_accuracy(
    machine: &Machine,
    rates: &RateTable,
    words: u64,
) -> SimResult<Vec<AccuracyRow>> {
    let cfg = paper_exchange_cfg(machine, words);
    let ops = [
        "1Q1", "1Q8", "8Q1", "1Q64", "64Q1", "1Qw", "wQ1", "wQw", "16Q64",
    ];
    let grid: Vec<(&str, Style)> = ops
        .iter()
        .flat_map(|&op| [(op, Style::BufferPacking), (op, Style::Chained)])
        .collect();
    let rows: SimResult<Vec<Option<AccuracyRow>>> = par_map_auto(&grid, |&(op, style)| {
        let (x, y) = parse_q(op);
        let expr = match style {
            Style::BufferPacking => buffer_packing_expr(x, y, bp_plan(machine)),
            Style::Chained => chained_expr(x, y, chained_plan(machine)),
        };
        let model = match expr.and_then(|e| e.estimate(rates)) {
            Ok(t) => t,
            Err(_) => return Ok(None),
        };
        let run = run_exchange(machine, x, y, style, &cfg)?;
        debug_assert!(run.verified);
        let simulated = run.per_node(machine.clock()).as_mbps();
        Ok(Some(AccuracyRow {
            op: op.to_string(),
            style: match style {
                Style::BufferPacking => "buffer-packing".to_string(),
                Style::Chained => "chained".to_string(),
            },
            model: model.as_mbps(),
            simulated,
            ratio: simulated / model.as_mbps(),
        }))
    })
    .into_iter()
    .collect();
    Ok(rows?.into_iter().flatten().collect())
}

/// Mean absolute log-ratio of an accuracy grid (0 = perfect).
pub fn accuracy_mean_log_error(rows: &[AccuracyRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.ratio.ln().abs()).sum::<f64>() / rows.len() as f64
}

// ------------------------------------------- Extension: problem-size scaling

/// One problem size of the scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Matrix dimension of the transpose workload.
    pub n: u64,
    /// Patch words per pairwise exchange at 64 nodes.
    pub patch_words: u64,
    /// PVM per-node rate.
    pub pvm: f64,
    /// Buffer-packing per-node rate.
    pub buffer_packing: f64,
    /// Chained per-node rate.
    pub chained: f64,
}

/// Section 2's observation, reproduced: "the effective communication
/// throughput never reaches peak bandwidth, even if applications are scaled
/// to giant problem sizes... it is not the constant per message
/// overhead... but rather overheads that occur for each byte transferred."
/// Sweeps the transpose workload's matrix size on the simulated T3D.
///
/// # Errors
///
/// Propagates simulation failures from the kernel measurements.
pub fn scaling(machine: &Machine) -> SimResult<Vec<ScalingPoint>> {
    // n = 2048 is the largest whose stride-n destination region fits the
    // simulated node memory (a stride-4096 patch spans 256 MB).
    let sizes = [128u64, 256, 512, 1024, 2048];
    par_map_auto(&sizes, |&n| {
        let kernel = TransposeKernel {
            n,
            words_per_element: 2,
        };
        let p = machine.topology.len() as u64;
        let measure =
            |method| -> SimResult<f64> { Ok(kernel.measure(machine, method)?.per_node.as_mbps()) };
        Ok(ScalingPoint {
            n,
            patch_words: kernel.patch_words(p),
            pvm: measure(CommMethod::Pvm)?,
            buffer_packing: measure(CommMethod::BufferPacking)?,
            chained: measure(CommMethod::Chained)?,
        })
    })
    .into_iter()
    .collect()
}

// --------------------------------------------------- Extension: put vs get

/// One row of the put-vs-get extension experiment.
#[derive(Debug, Clone)]
pub struct PutGetRow {
    /// Operation.
    pub op: String,
    /// Chained put (remote stores) per-node rate.
    pub put: f64,
    /// Get (remote loads through the annex) per-node rate.
    pub get: f64,
    /// Both verified.
    pub verified: bool,
}

/// Extension (paper footnote 2): deposits ("put") vs withdrawals ("get").
/// Not a paper table — the paper asserts the put preference and moves on;
/// this measures it.
///
/// # Errors
///
/// Propagates simulation failures from either transfer direction.
pub fn put_vs_get(machine: &Machine, words: u64) -> SimResult<Vec<PutGetRow>> {
    let ops = ["1Q1", "1Q64", "wQw"];
    par_map_auto(&ops, |op| {
        let (x, y) = parse_q(op);
        let cfg = ExchangeConfig {
            words,
            ..ExchangeConfig::default()
        };
        let put = run_exchange(machine, x, y, Style::Chained, &cfg)?;
        let get = run_get_exchange(machine, x, y, &cfg)?;
        Ok(PutGetRow {
            op: op.to_string(),
            put: put.per_node(machine.clock()).as_mbps(),
            get: get.per_node(machine.clock()).as_mbps(),
            verified: put.verified && get.verified,
        })
    })
    .into_iter()
    .collect()
}

// ------------------------------------------------------------ Section 3.4.1

/// The worked transpose example.
#[derive(Debug, Clone)]
pub struct Section341 {
    /// Our model estimate of `|1Q1024|` from the simulated rate table.
    pub model_estimate: f64,
    /// Our end-to-end simulated transpose communication rate.
    pub simulated: f64,
    /// The paper's estimate (25.0 MB/s).
    pub paper_estimate: f64,
    /// The paper's measurement (20.0 MB/s).
    pub paper_measured: f64,
}

/// Section 3.4.1: `|1Q1024|` estimated vs simulated on the T3D.
///
/// # Errors
///
/// Propagates simulation failures from the transpose measurement.
pub fn section341(rates: &RateTable) -> SimResult<Section341> {
    let t3d = Machine::t3d();
    let (x, y) = parse_q("1Q1024");
    let estimate = buffer_packing_expr(x, y, bp_plan(&t3d))
        .and_then(|e| e.estimate(rates))
        .map(|t| t.as_mbps())
        .unwrap_or(f64::NAN);
    let measured = TransposeKernel::paper_instance()
        .measure(&t3d, CommMethod::BufferPacking)?
        .per_node
        .as_mbps();
    let (paper_est, paper_meas) = reference::section_341();
    Ok(Section341 {
        model_estimate: estimate,
        simulated: measured,
        paper_estimate: paper_est.as_mbps(),
        paper_measured: paper_meas.as_mbps(),
    })
}

// ---------------------------------------------------------------- Table 6

/// One kernel row of Table 6.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated, buffer packing.
    pub sim_bp: f64,
    /// Simulated, chained.
    pub sim_chained: f64,
    /// Simulated, stock PVM.
    pub sim_pvm: f64,
    /// Our model's chained estimate from the simulated rate table.
    pub model_chained: f64,
    /// Paper measured, buffer packing.
    pub paper_bp: f64,
    /// Paper measured, chained.
    pub paper_chained: f64,
    /// Paper's chained model estimate.
    pub paper_model_chained: f64,
    /// Paper's Cray PVM3 figure (Section 6.2 text).
    pub paper_pvm3: f64,
    /// Congestion factor used.
    pub congestion: f64,
    /// All simulated exchanges verified.
    pub verified: bool,
}

/// Table 6: the application kernels on the (simulated) 64-node T3D.
///
/// # Errors
///
/// Propagates simulation failures from the kernel measurements.
pub fn table6(rates: &RateTable) -> SimResult<Vec<KernelRow>> {
    let t3d = Machine::t3d();
    let paper = reference::table6();
    let transpose = TransposeKernel::paper_instance();
    let fem = FemKernel::paper_instance();
    let sor = SorKernel::paper_instance();

    let mut rows = Vec::new();
    let mut push = |name: &str,
                    bp: memcomm_kernels::KernelMeasurement,
                    ch: memcomm_kernels::KernelMeasurement,
                    pvm: memcomm_kernels::KernelMeasurement,
                    model: f64| {
        let p = paper
            .iter()
            .find(|r| r.kernel == name)
            .expect("paper rows cover all kernels");
        rows.push(KernelRow {
            kernel: name.to_string(),
            sim_bp: bp.per_node.as_mbps(),
            sim_chained: ch.per_node.as_mbps(),
            sim_pvm: pvm.per_node.as_mbps(),
            model_chained: model,
            paper_bp: p.measured_bp.as_mbps(),
            paper_chained: p.measured_chained.as_mbps(),
            paper_model_chained: p.model_chained.as_mbps(),
            paper_pvm3: p.pvm3.as_mbps(),
            congestion: ch.congestion,
            verified: bp.verified && ch.verified && pvm.verified,
        });
    };

    push(
        "Transpose",
        transpose.measure(&t3d, CommMethod::BufferPacking)?,
        transpose.measure(&t3d, CommMethod::Chained)?,
        transpose.measure(&t3d, CommMethod::Pvm)?,
        transpose
            .model_chained(rates)
            .map(|t| t.as_mbps())
            .unwrap_or(f64::NAN),
    );
    push(
        "FEM",
        fem.measure(&t3d, CommMethod::BufferPacking)?,
        fem.measure(&t3d, CommMethod::Chained)?,
        fem.measure(&t3d, CommMethod::Pvm)?,
        fem.model_chained(rates)
            .map(|t| t.as_mbps())
            .unwrap_or(f64::NAN),
    );
    push(
        "SOR",
        sor.measure(&t3d, CommMethod::BufferPacking)?,
        sor.measure(&t3d, CommMethod::Chained)?,
        sor.measure(&t3d, CommMethod::Pvm)?,
        sor.model_chained(rates)
            .map(|t| t.as_mbps())
            .unwrap_or(f64::NAN),
    );
    Ok(rows)
}

/// Options of the event-engine reproduction of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSettings {
    /// Simulated node count (power of two; 64 = the paper's machines).
    pub nodes: usize,
    /// Matrix dimension of the transpose kernel (the paper's 1024; smoke
    /// runs shrink it so tiny node counts don't get giant patches).
    pub transpose_n: u64,
    /// Halo row words of the SOR kernel.
    pub sor_n: u64,
    /// Shard workers (0 = the process-wide setting). Never affects results.
    pub jobs: usize,
    /// Engine shard count (0 = auto: about two per worker). Never affects
    /// results either — the engine folds events in a canonical stage-major
    /// order, so digests are byte-identical at any shard count.
    pub shards: usize,
}

impl Default for EngineSettings {
    /// The paper's instances on 64 simulated nodes.
    fn default() -> Self {
        EngineSettings {
            nodes: 64,
            transpose_n: 1024,
            sor_n: 256,
            jobs: 0,
            shards: 0,
        }
    }
}

/// One Table 6 kernel × machine executed on the discrete-event engine,
/// side by side with the analytic congestion model.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Kernel name.
    pub kernel: String,
    /// Machine name.
    pub machine: String,
    /// Simulated node count.
    pub nodes: u64,
    /// Emergent congestion factor the engine observed.
    pub engine_congestion: f64,
    /// The closed-form factor on the same topology.
    pub analytic_congestion: f64,
    /// Chained throughput priced at the engine's factor, MB/s.
    pub engine_chained: f64,
    /// Chained throughput priced at the analytic factor, MB/s.
    pub analytic_chained: f64,
    /// engine / analytic throughput ratio — the differential statistic.
    pub ratio: f64,
    /// Engine cycles across all rounds.
    pub cycles: u64,
    /// Link traversals across all rounds.
    pub flit_hops: u64,
    /// Conservative windows executed.
    pub windows: u64,
    /// Event-stream digest (hex) — identical at any worker count.
    pub digest: String,
    /// The priced exchanges delivered correct data.
    pub verified: bool,
}

/// FEM partition grid for a power-of-two node count, split like
/// [`scaled_topology`](memcomm_netsim::engine::scaled_topology) splits
/// dimensions (64 → 4×4×4, 4 → 2×2×1).
pub fn fem_parts(nodes: usize) -> [usize; 3] {
    let exp = nodes.trailing_zeros() as usize;
    let mut parts = [1usize; 3];
    for (i, p) in parts.iter_mut().enumerate() {
        *p = 1 << (exp / 3 + usize::from(i < exp % 3));
    }
    parts
}

/// The Table 6 kernels sized for an engine run.
pub fn engine_kernels(settings: &EngineSettings) -> Vec<Table6Kernel> {
    vec![
        Table6Kernel::Transpose(TransposeKernel {
            // The matrix dimension must stay a multiple of the node count,
            // so kilo-node runs grow the paper's 1024 instance with the
            // machine instead of rejecting it.
            n: settings.transpose_n.max(settings.nodes as u64),
            words_per_element: 2,
        }),
        Table6Kernel::Fem(FemKernel {
            mesh: PartitionedMesh::synthetic_valley([48, 48, 48], fem_parts(settings.nodes), 1995),
        }),
        Table6Kernel::Sor(SorKernel { n: settings.sor_n }),
    ]
}

/// Table 6 on the event engine: every kernel × machine executed round by
/// round on the simulated topology, reported against the analytic factor.
///
/// # Errors
///
/// Propagates engine failures (deadlock, watchdog) and invalid
/// kernel/topology decompositions.
pub fn engine_table6(settings: &EngineSettings) -> SimResult<Vec<EngineRow>> {
    let mut rows = Vec::new();
    for machine in [Machine::t3d(), Machine::paragon()] {
        let topo = netrun::engine_topology(&machine, Some(settings.nodes))?;
        let p = topo.len() as u64;
        for kernel in engine_kernels(settings) {
            let rounds = kernel.rounds(&topo)?;
            let analytic_congestion = kernel.analytic_congestion(&machine, &topo)?;
            let opts = EngineOptions {
                nodes: Some(settings.nodes),
                jobs: settings.jobs,
                shards: settings.shards,
                ..EngineOptions::default()
            };
            let run = netrun::run_rounds(&machine, &topo, &rounds, &opts)?;
            let engine_m = kernel.measure_at(&machine, CommMethod::Chained, p, run.factor)?;
            let analytic_m =
                kernel.measure_at(&machine, CommMethod::Chained, p, analytic_congestion)?;
            rows.push(EngineRow {
                kernel: kernel.name().to_string(),
                machine: machine.name.to_string(),
                nodes: p,
                engine_congestion: run.factor,
                analytic_congestion,
                engine_chained: engine_m.per_node.as_mbps(),
                analytic_chained: analytic_m.per_node.as_mbps(),
                ratio: engine_m.per_node.as_mbps() / analytic_m.per_node.as_mbps(),
                cycles: run.cycles,
                flit_hops: run.flit_hops,
                windows: run.windows,
                digest: format!("{:016x}", run.digest),
                verified: engine_m.verified && analytic_m.verified,
            });
        }
    }
    Ok(rows)
}

// ----------------------------------------- Robustness: fault injection

/// Fault-injection knobs for the robustness sweep, threaded from the
/// runner's options. The seed never appears in any report row: a zero-rate
/// plan renders byte-identical output whatever its seed, which is the
/// property the fault tests pin down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSettings {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Per-word fault probability on links, FIFOs and engines.
    pub rate: f64,
    /// Probability that an engine site is out for the whole run.
    pub outage_rate: f64,
    /// Cycle budget per transfer (`None` = bounded only by the watchdog).
    pub max_cycles: Option<Cycle>,
}

impl Default for FaultSettings {
    /// No faults, no budget.
    fn default() -> Self {
        FaultSettings {
            seed: 0,
            rate: 0.0,
            outage_rate: 0.0,
            max_cycles: None,
        }
    }
}

impl FaultSettings {
    /// The replayable fault plan these settings describe.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: self.seed,
            rate: self.rate,
            outage_rate: self.outage_rate,
            ..FaultConfig::default()
        })
    }
}

/// One point of the fault-injection robustness grid.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Operation.
    pub op: String,
    /// Style label.
    pub style: String,
    /// End-to-end throughput in MB/s (absent when the transfer failed).
    pub mbps: Option<f64>,
    /// Frames transmitted, including retransmissions.
    pub frames_sent: u64,
    /// Retransmitted frames.
    pub retransmissions: u64,
    /// Whether a chained transfer fell back to CPU receives because its
    /// deposit engine was out.
    pub degraded: bool,
    /// Whether the destination held exactly the source data.
    pub verified: bool,
    /// The error, when the transfer exhausted its retries or cycle budget.
    pub error: Option<String>,
}

/// Robustness grid: sequence-numbered, checksummed, retried transfers under
/// the configured fault plan. Every point reports `ok` or its own error, so
/// a hostile plan degrades the report point by point instead of aborting
/// the sweep.
pub fn faults(machine: &Machine, words: u64, settings: &FaultSettings) -> Vec<FaultRow> {
    let ops = ["1Q1", "1Q64", "wQw"];
    let grid: Vec<(&str, Style)> = ops
        .iter()
        .flat_map(|&op| [(op, Style::BufferPacking), (op, Style::Chained)])
        .collect();
    let cfg = ProtocolConfig {
        words,
        max_cycles: settings.max_cycles,
        ..ProtocolConfig::default()
    };
    par_map_auto(&grid, |&(op, style)| {
        let (x, y) = parse_q(op);
        let style_label = match style {
            Style::BufferPacking => "buffer-packing",
            Style::Chained => "chained",
        };
        match run_resilient_transfer(machine, x, y, style, settings.plan(), &cfg) {
            Ok(r) => FaultRow {
                op: op.to_string(),
                style: style_label.to_string(),
                mbps: Some(r.throughput(machine.clock()).as_mbps()),
                frames_sent: r.frames_sent,
                retransmissions: r.retransmissions,
                degraded: r.degraded,
                verified: r.verified,
                error: None,
            },
            Err(e) => FaultRow {
                op: op.to_string(),
                style: style_label.to_string(),
                mbps: None,
                frames_sent: 0,
                retransmissions: 0,
                degraded: false,
                verified: false,
                error: Some(e.to_string()),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_q_handles_all_forms() {
        assert_eq!(
            parse_q("1Q1024"),
            (AccessPattern::Contiguous, AccessPattern::Strided(1024))
        );
        assert_eq!(
            parse_q("wQ1"),
            (AccessPattern::Indexed, AccessPattern::Contiguous)
        );
    }

    #[test]
    fn table1_has_paper_references() {
        let rows = table1(&Machine::t3d(), 2048).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.paper.is_some() && r.simulated > 0.0));
    }

    #[test]
    fn table2_skips_missing_hardware() {
        // The T3D has no DMA: 1F0 row absent.
        let rows = table2(&Machine::t3d(), 2048).unwrap();
        assert!(!rows.iter().any(|r| r.transfer == "1F0"));
        let rows = table2(&Machine::paragon(), 2048).unwrap();
        assert!(rows.iter().any(|r| r.transfer == "1F0"));
    }

    #[test]
    fn figure1_curves_grow() {
        let points = figure1(&Machine::t3d()).unwrap();
        assert!(points.last().unwrap().low_level > points.first().unwrap().low_level);
        assert!(points.iter().all(|p| p.low_level > p.pvm));
    }

    #[test]
    fn table4_matches_congestion_halving() {
        let rows = table4(&Machine::paragon(), 4096);
        assert_eq!(rows.len(), 3);
        let r1 = &rows[0];
        let r2 = &rows[1];
        assert!((r1.data_only / r2.data_only - 2.0).abs() < 0.1);
    }

    #[test]
    fn model_accuracy_is_tight_for_buffer_packing() {
        // The reciprocal-sum rule is exact for a time-shared processor:
        // buffer-packing points must sit within a few percent.
        let m = Machine::t3d();
        let rates = microbench::measure_table(&m, 4096).unwrap();
        let rows = model_accuracy(&m, &rates, 2048).unwrap();
        let bp: Vec<&AccuracyRow> = rows
            .iter()
            .filter(|r| r.style == "buffer-packing")
            .collect();
        assert!(bp.len() >= 8);
        for r in &bp {
            assert!(
                (r.ratio - 1.0).abs() < 0.25,
                "{} bp: model {:.1} vs sim {:.1}",
                r.op,
                r.model,
                r.simulated
            );
        }
        // And chained estimates are one-sided: the model never undershoots
        // by much (it ignores only contention, which slows the simulation).
        for r in rows.iter().filter(|r| r.style == "chained") {
            assert!(r.ratio < 1.15, "{} chained overshoot: {:.2}", r.op, r.ratio);
        }
    }

    #[test]
    fn scaling_saturates_below_the_wire() {
        let points = scaling(&Machine::t3d()).unwrap();
        let last = points.last().unwrap();
        let prev = &points[points.len() - 2];
        // Saturation: quadrupling the data buys <15% more throughput...
        assert!(last.chained < prev.chained * 1.15);
        // ...far below the congested wire's 75 MB/s (per-byte costs, as the
        // paper says, not per-message ones).
        assert!(last.chained < 60.0, "chained saturates at {}", last.chained);
        assert!(
            points[0].chained < last.chained,
            "small sizes are overhead-bound"
        );
    }

    #[test]
    fn put_always_beats_get() {
        let rows = put_vs_get(&Machine::t3d(), 1024).unwrap();
        for r in &rows {
            assert!(r.verified);
            assert!(r.put > r.get, "{}: put {} vs get {}", r.op, r.put, r.get);
        }
    }

    #[test]
    fn section5_chained_wins_off_contiguous() {
        let m = Machine::t3d();
        let rates = microbench::measure_table(&m, 2048).unwrap();
        let rows = section5(&m, &rates, 1024).unwrap();
        for r in &rows {
            assert!(r.verified, "{} not verified", r.op);
            assert!(
                r.sim_chained > r.sim_bp,
                "{}: chained {} vs bp {}",
                r.op,
                r.sim_chained,
                r.sim_bp
            );
        }
    }

    #[test]
    fn faults_grid_is_clean_without_a_plan() {
        let rows = faults(&Machine::t3d(), 512, &FaultSettings::default());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.verified && r.error.is_none(),
                "{}/{}: {:?}",
                r.op,
                r.style,
                r.error
            );
            assert_eq!(
                r.retransmissions, 0,
                "{}/{} retried without faults",
                r.op, r.style
            );
            assert!(!r.degraded);
        }
    }

    #[test]
    fn faults_grid_recovers_under_light_faults() {
        let settings = FaultSettings {
            seed: 42,
            rate: 0.005,
            ..FaultSettings::default()
        };
        let rows = faults(&Machine::t3d(), 512, &settings);
        for r in &rows {
            assert!(
                r.verified && r.error.is_none(),
                "{}/{} did not recover: {:?}",
                r.op,
                r.style,
                r.error
            );
        }
        assert!(
            rows.iter().any(|r| r.retransmissions > 0),
            "a 0.5% word fault rate must force at least one retransmission"
        );
    }

    #[test]
    fn fault_rows_ignore_the_seed_at_zero_rate() {
        let a = faults(&Machine::t3d(), 256, &FaultSettings::default());
        let b = faults(
            &Machine::t3d(),
            256,
            &FaultSettings {
                seed: 0xDEAD_BEEF,
                ..FaultSettings::default()
            },
        );
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.mbps, rb.mbps, "{}/{}", ra.op, ra.style);
            assert_eq!(ra.frames_sent, rb.frames_sent);
        }
    }
}

//! The paper's headline results, asserted as integration tests across the
//! whole stack (DESIGN.md Section 5's success criteria).

use memcomm::commops::{run_exchange, ExchangeConfig, Style};
use memcomm::machines::calibrate::{calibration_report, mean_log_error};
use memcomm::machines::memo::{self, MemoCache};
use memcomm::machines::{microbench, Machine};
use memcomm::model::BasicTransfer;
use memcomm::netsim::link::measure_wire_rate;
use memcomm_bench::experiments::{
    model_accuracy, paper_exchange_cfg, parse_q, EXCHANGE_WORDS, MICRO_WORDS,
};

const WORDS: u64 = 4096;

fn rate(machine: &Machine, op: &str) -> f64 {
    rate_at(machine, op, WORDS)
}

fn rate_at(machine: &Machine, op: &str, words: u64) -> f64 {
    let t = BasicTransfer::parse(op).expect("notation");
    microbench::measure_rate(machine, t, words)
        .expect("simulates")
        .unwrap_or_else(|| panic!("{} lacks {op}", machine.name))
        .as_mbps()
}

/// Per-node MB/s of a verified `xQy` exchange.
fn exchange_rate(machine: &Machine, op: &str, style: Style, cfg: &ExchangeConfig) -> f64 {
    let (x, y) = parse_q(op);
    let run = run_exchange(machine, x, y, style, cfg).expect("simulates");
    assert!(run.verified, "{} {op} moved wrong data", machine.name);
    run.per_node(machine.clock()).as_mbps()
}

#[test]
fn local_copies_order_contiguous_strided_indexed() {
    for m in [Machine::t3d(), Machine::paragon()] {
        let c = rate(&m, "1C1");
        let s = rate(&m, "1C64").max(rate(&m, "64C1"));
        let w = rate(&m, "wC1").min(rate(&m, "1Cw"));
        assert!(c > s, "{}: contiguous {c} > strided {s}", m.name);
        assert!(s > w * 0.85, "{}: strided {s} vs indexed {w}", m.name);
    }
}

#[test]
fn stride_preference_flips_between_machines() {
    // T3D: strided stores beat strided loads (write-back queue).
    let t3d = Machine::t3d();
    assert!(rate(&t3d, "1C64") > rate(&t3d, "64C1"));
    // Paragon: strided loads beat strided stores (pipelined loads).
    let paragon = Machine::paragon();
    assert!(rate(&paragon, "64C1") > rate(&paragon, "1C64"));
}

#[test]
fn figure4_crossover_shows_in_the_stride_sweep() {
    let strides = [2u32, 8, 32, 128];
    let t3d_loads = microbench::stride_sweep(
        &Machine::t3d(),
        &strides,
        WORDS,
        microbench::StrideSide::Loads,
    )
    .expect("simulates");
    let t3d_stores = microbench::stride_sweep(
        &Machine::t3d(),
        &strides,
        WORDS,
        microbench::StrideSide::Stores,
    )
    .expect("simulates");
    for ((_, l), (_, s)) in t3d_loads.iter().zip(&t3d_stores).skip(1) {
        assert!(s > l, "T3D strided stores win at every large stride");
    }
}

#[test]
fn address_data_pairs_cost_roughly_half_the_bandwidth() {
    for m in [Machine::t3d(), Machine::paragon()] {
        let nd = measure_wire_rate(m.link(1.0), WORDS, false).throughput(m.clock());
        let nadp = measure_wire_rate(m.link(1.0), WORDS, true).throughput(m.clock());
        let ratio = nd.as_mbps() / nadp.as_mbps();
        assert!(
            (1.8..2.6).contains(&ratio),
            "{}: Nd/Nadp ratio {ratio}",
            m.name
        );
    }
}

#[test]
fn congestion_divides_network_bandwidth() {
    let m = Machine::t3d();
    let c1 = measure_wire_rate(m.link(1.0), WORDS, false).cycles as f64;
    let c2 = measure_wire_rate(m.link(2.0), WORDS, false).cycles as f64;
    let c4 = measure_wire_rate(m.link(4.0), WORDS, false).cycles as f64;
    assert!((c2 / c1 - 2.0).abs() < 0.05);
    assert!((c4 / c1 - 4.0).abs() < 0.05);
}

#[test]
fn chained_beats_buffer_packing_by_the_papers_factors() {
    // "these tests confirm that chained communication results in 40-60%
    // higher performance for access patterns other than contiguous" — allow
    // a generous band around that.
    let t3d = Machine::t3d();
    let cfg = ExchangeConfig {
        words: WORDS,
        ..ExchangeConfig::default()
    };
    for (name, lo, hi) in [("1Q64", 1.1, 2.4), ("64Q1", 1.1, 2.4), ("wQw", 1.2, 2.4)] {
        let factor = exchange_rate(&t3d, name, Style::Chained, &cfg)
            / exchange_rate(&t3d, name, Style::BufferPacking, &cfg);
        assert!(
            (lo..hi).contains(&factor),
            "{name}: chained/bp factor {factor:.2} outside [{lo}, {hi})"
        );
    }
}

#[test]
fn contiguous_chaining_wins_big_by_skipping_copies() {
    let t3d = Machine::t3d();
    let cfg = ExchangeConfig {
        words: WORDS,
        ..ExchangeConfig::default()
    };
    let factor = exchange_rate(&t3d, "1Q1", Style::Chained, &cfg)
        / exchange_rate(&t3d, "1Q1", Style::BufferPacking, &cfg);
    // The paper predicts 70 vs 27.9 — about 2.5x.
    assert!((1.8..3.2).contains(&factor), "factor {factor:.2}");
}

#[test]
fn calibration_stays_tight() {
    for m in [Machine::t3d(), Machine::paragon()] {
        let rows = calibration_report(&m, WORDS).expect("simulates");
        let err = mean_log_error(&rows);
        assert!(
            err < 0.30,
            "{}: mean log error {err:.3} (typical deviation {:.0}%)",
            m.name,
            (err.exp() - 1.0) * 100.0
        );
    }
}

#[test]
fn paragon_dma_outruns_its_processor_send() {
    let paragon = Machine::paragon();
    assert!(rate(&paragon, "1F0") > 2.0 * rate(&paragon, "1S0"));
}

#[test]
fn t3d_deposit_engine_serves_any_pattern_paragon_does_not() {
    let t3d = Machine::t3d();
    let dw = BasicTransfer::parse("0Dw").expect("notation");
    assert!(microbench::measure_basic(&t3d, dw, 512).unwrap().is_some());
    let paragon = Machine::paragon();
    assert!(microbench::measure_basic(&paragon, dw, 512)
        .unwrap()
        .is_none());
}

/// The payload every ablation runs at, in words.
const ABLATION_WORDS: u64 = 2048;

/// One mechanism measured as calibrated and with the mechanism mutated.
struct Ablation {
    /// The machine, the mutation and the operation that shows it.
    what: &'static str,
    /// MB/s on the stock machine.
    stock: f64,
    /// MB/s with the mutation.
    mutated: f64,
    /// `mutated / stock` as measured when the row was written.
    ratio: f64,
}

/// T3D write-back queue off (one entry, no merging, a posted write miss
/// priced as a plain write miss): strided stores `1C64` fall from 71.6 to
/// 46.6 MB/s. The paper: "strided stores are better supported because of
/// the write back queue". It gives no size for this; the simulated loss is
/// 35 %.
fn write_back_queue() -> Ablation {
    let stock = Machine::t3d();
    let mut off = Machine::t3d();
    off.node.path.wbq.entries = 1;
    off.node.path.wbq.merge = false;
    off.node.path.dram.posted_write_miss_cycles = off.node.path.dram.write_miss_cycles;
    Ablation {
        what: "T3D write-back queue off, 1C64",
        stock: rate_at(&stock, "1C64", ABLATION_WORDS),
        mutated: rate_at(&off, "1C64", ABLATION_WORDS),
        ratio: 0.651,
    }
}

/// T3D read-ahead off: the contiguous load stream `1C0` falls from 145.2
/// to 104.3 MB/s. The paper: "we have measured improvements of approx.
/// 60%". Simulated, read-ahead gains 39 %: the modelled unit buffers one
/// line, and each prefetch still occupies the T3D's single DRAM bank, so
/// it hides a fill's demand latency but not its DRAM time.
fn read_ahead() -> Ablation {
    let stock = Machine::t3d();
    let mut off = Machine::t3d();
    off.node.path.readahead.enabled = false;
    Ablation {
        what: "T3D read-ahead off, 1C0",
        stock: rate_at(&stock, "1C0", ABLATION_WORDS),
        mutated: rate_at(&off, "1C0", ABLATION_WORDS),
        ratio: 0.718,
    }
}

/// Paragon pipelined loads off: strided loads `64C1` fall from 32.8 to
/// 19.0 MB/s. The paper: a code "unable to use the pipelined loads" sees "a
/// 30–40% performance loss". The simulated loss is 42 %, two points past
/// the paper's upper end.
fn pipelined_loads() -> Ablation {
    let stock = Machine::paragon();
    let mut off = Machine::paragon();
    off.node.cpu.pfq.enabled = false;
    Ablation {
        what: "Paragon pipelined loads off, 64C1",
        stock: rate_at(&stock, "64C1", ABLATION_WORDS),
        mutated: rate_at(&off, "64C1", ABLATION_WORDS),
        ratio: 0.579,
    }
}

/// Paragon bus penalty for fine-grain interleaving raised from 2 to 6
/// cycles: the full-duplex chained `wQw` exchange, in which each node's
/// sending and receiving engines interleave single-word accesses on its
/// bus, falls from 23.3 to 19.8 MB/s. The paper: "a performance penalty of
/// up to 50% must be expected". The simulated loss is 15 %, inside that
/// bound; the row compares the calibrated 2-cycle penalty with a 6-cycle
/// one, not with none.
fn interleave_penalty() -> Ablation {
    let stock = Machine::paragon();
    let mut heavy = Machine::paragon();
    heavy.node.path.switch_penalty_cycles = 6;
    let cfg = ExchangeConfig {
        full_duplex: true,
        ..paper_exchange_cfg(&stock, ABLATION_WORDS)
    };
    Ablation {
        what: "Paragon interleave penalty 2 -> 6 cycles, full-duplex chained wQw",
        stock: exchange_rate(&stock, "wQw", Style::Chained, &cfg),
        mutated: exchange_rate(&heavy, "wQw", Style::Chained, &cfg),
        ratio: 0.850,
    }
}

/// T3D buffer packing `1Q64` in 256-word chunks instead of store and
/// forward: 27.8 → 29.4 MB/s. No sentence of the paper sizes this, since
/// the libraries it measured were store-and-forward; pipelining the
/// packing is the obvious optimization, and it gains 6 %.
fn chunked_buffer_packing() -> Ablation {
    let t3d = Machine::t3d();
    let cfg = |chunk_words| ExchangeConfig {
        words: ABLATION_WORDS,
        chunk_words,
        ..ExchangeConfig::default()
    };
    Ablation {
        what: "T3D buffer packing in 256-word chunks, 1Q64",
        stock: exchange_rate(&t3d, "1Q64", Style::BufferPacking, &cfg(None)),
        mutated: exchange_rate(&t3d, "1Q64", Style::BufferPacking, &cfg(Some(256))),
        ratio: 1.058,
    }
}

/// Every ablation moves its rate the way its row says, by the row's ratio
/// within ±0.05.
#[test]
fn ablations_move_the_rates_the_paper_attributes_to_their_mechanisms() {
    let rows: [fn() -> Ablation; 5] = [
        write_back_queue,
        read_ahead,
        pipelined_loads,
        interleave_penalty,
        chunked_buffer_packing,
    ];
    for row in rows {
        let a = row();
        assert_eq!(
            a.mutated.partial_cmp(&a.stock),
            a.ratio.partial_cmp(&1.0),
            "{}: the mutation moved {:.1} MB/s to {:.1}, not the way it should",
            a.what,
            a.stock,
            a.mutated
        );
        let ratio = a.mutated / a.stock;
        assert!(
            (ratio - a.ratio).abs() <= 0.05,
            "{}: mutated/stock {ratio:.3} strays from {} ({:.1} -> {:.1} MB/s)",
            a.what,
            a.ratio,
            a.stock,
            a.mutated
        );
    }
}

/// The model's laws over the whole `repro --accuracy` grid (nine `xQy`
/// operations in both styles on both machines, 36 points) at the sweep's
/// default sizes. The laws do not hold in this form at smaller sizes: at
/// 1024 exchange words the T3D's buffer-packing `wQ1` runs 1.36 times its
/// estimate.
///
/// - ∘ (buffer packing, one processor doing every transfer in turn) holds
///   within 2 % on every point.
/// - ‖ (chained, transfers overlapped) bounds every point from above.
/// - Seven chained points run well below ‖, where sender and receiver
///   contend for one memory system: the paper's own one-sided gap (its
///   Table 5 measured 27.4 MB/s against 38 modelled). The model leaves it
///   out on purpose, so the set and its band are pinned: a recalibration
///   that opens or closes a gap fails here.
/// - Chained beats buffer packing on every non-contiguous operation
///   (§5.1).
/// - Strided stores beat strided loads on the T3D (its write-back queue),
///   and the Paragon inverts this (its pipelined loads). The Paragon's
///   buffer-packing `1Q64`/`64Q1` pair differs by under 1 %, so buffer
///   packing is held to the order alone.
#[test]
fn the_model_laws_hold_over_the_accuracy_grid() {
    let cache = MemoCache::unbounded();
    let _memo = memo::install(&cache);
    let (mut packed, mut chained, mut below_parallel) = (0, 0, Vec::new());
    for (m, stores_win) in [(Machine::t3d(), true), (Machine::paragon(), false)] {
        let rates = microbench::measure_table(&m, MICRO_WORDS).expect("simulates");
        let rows = model_accuracy(&m, &rates, EXCHANGE_WORDS).expect("simulates");
        let simulated = |op: &str, style: &str| {
            rows.iter()
                .find(|r| r.op == op && r.style == style)
                .unwrap_or_else(|| panic!("{} has no {op} {style} point", m.name))
                .simulated
        };
        for r in &rows {
            let at = format!("{} {} {}", m.name, r.op, r.style);
            if r.style == "buffer-packing" {
                packed += 1;
                assert!(
                    (0.98..=1.02).contains(&r.ratio),
                    "{at}: simulated/model {:.4} breaks the reciprocal sum",
                    r.ratio
                );
                continue;
            }
            chained += 1;
            assert!(
                r.ratio <= 1.002,
                "{at}: simulated/model {:.4} outruns the min rule",
                r.ratio
            );
            if r.ratio < 0.98 {
                assert!(
                    (0.60..=0.85).contains(&r.ratio),
                    "{at}: simulated/model {:.4} left the gap's band",
                    r.ratio
                );
                below_parallel.push(format!("{} {}", m.name, r.op));
            }
            if r.op != "1Q1" {
                let bp = simulated(&r.op, "buffer-packing");
                assert!(
                    r.simulated > bp,
                    "{at}: {:.1} MB/s loses to buffer packing's {bp:.1}",
                    r.simulated
                );
            }
        }
        for (style, margin) in [("chained", 1.10), ("buffer-packing", 1.0)] {
            for (stores, loads) in [("1Q8", "8Q1"), ("1Q64", "64Q1")] {
                let (s, l) = (simulated(stores, style), simulated(loads, style));
                let (faster, slower) = if stores_win { (s, l) } else { (l, s) };
                assert!(
                    faster > slower * margin,
                    "{} {style}: {stores} {s:.1} vs {loads} {l:.1} MB/s",
                    m.name
                );
            }
        }
    }
    assert_eq!((packed, chained), (18, 18), "the grid lost points");
    assert_eq!(
        below_parallel,
        [
            "Cray T3D 8Q1",
            "Cray T3D 64Q1",
            "Cray T3D wQ1",
            "Cray T3D wQw",
            "Cray T3D 16Q64",
            "Intel Paragon 1Qw",
            "Intel Paragon wQw",
        ],
        "the chained points below the min rule changed"
    );
}

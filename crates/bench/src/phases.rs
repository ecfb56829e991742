//! Per-stage phase attribution: measured stage split vs the model's
//! predicted split.
//!
//! A composed transfer `xQy` moves through up to five stages — `pack`,
//! `send`, `wire`, `deposit`, `unpack`. The simulator records the cycle at
//! which each stage drains ([`PhaseTimeline`]); the copy-transfer model
//! predicts each stage's cost from the calibrated [`RateTable`]. This module
//! runs both and reports the attribution error between the two splits,
//! turning "the model is accurate end to end" into "the model is accurate
//! *stage by stage*".

use memcomm_commops::{run_exchange, PhaseTimeline, Style};
use memcomm_machines::Machine;
use memcomm_memsim::{Cycle, SimResult};
use memcomm_model::{AccessPattern, BasicTransfer, RateTable};

use crate::experiments::{paper_exchange_cfg, parse_q};

/// The operations whose stage split we attribute (covers both pattern axes
/// and the indexed `ω` extreme).
pub const PHASE_OPS: [&str; 5] = ["1Q1", "1Q64", "64Q1", "1Qw", "wQ1"];

/// One measured-vs-predicted stage split for a single `(op, style)` point.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Operation shorthand (`1Q64`, `wQ1`, ...).
    pub op: String,
    /// Transfer style (`bp` or `chained`).
    pub style: String,
    /// End-to-end simulated cycles.
    pub end_cycle: Cycle,
    /// Simulated marginal cycles per stage (pack/send/wire/deposit/unpack);
    /// sums exactly to `end_cycle`.
    pub sim: [Cycle; 5],
    /// Model-predicted marginal cycles per stage from the calibrated rate
    /// table, after applying the composition rule (see
    /// [`compose_marginals`]) so both splits share the same telescoped
    /// semantics.
    pub model: [f64; 5],
    /// Total-variation distance between the normalised stage splits,
    /// `0.5 * Σ |sim_share − model_share|` in `[0, 1]`.
    pub attribution_error: f64,
}

impl PhaseRow {
    /// Stage names, in array order.
    pub const STAGES: [&'static str; 5] = PhaseTimeline::STAGES;
}

/// Model-predicted cycles for one stage: the time to move `bytes` at the
/// calibrated rate, in clock cycles. Absent rates (a transfer the machine
/// cannot perform) predict zero.
fn stage_cycles(machine: &Machine, rates: &RateTable, t: BasicTransfer, bytes: u64) -> f64 {
    match rates.rate(t) {
        Ok(rate) if rate.as_bytes_per_sec() > 0.0 => {
            bytes as f64 * machine.clock().hz() / rate.as_bytes_per_sec()
        }
        _ => 0.0,
    }
}

/// The model's predicted per-stage cycles for `xQy` under `style`.
///
/// Buffer packing runs all five stages: a local pack copy `xC1`, a
/// contiguous send (`1S0`, DMA-driven where the machine fetches for the
/// network), the wire (`Nd`), a contiguous deposit (`0D1`) and the unpack
/// copy `1Cy`. Chaining collapses pack and unpack into the send/deposit
/// stages: the send engine walks the source pattern directly (`xS0`) and
/// the receive engine stores each word at its home (`0Dy`), paying the
/// address-data network when either side is non-contiguous.
pub fn model_stages(
    machine: &Machine,
    rates: &RateTable,
    op: &str,
    style: Style,
    words: u64,
) -> [f64; 5] {
    let (x, y) = parse_q(op);
    let bytes = words.saturating_mul(8);
    let cyc = |t, b| stage_cycles(machine, rates, t, b);
    match style {
        Style::BufferPacking => {
            let contig = AccessPattern::Contiguous;
            let send = if machine.caps.fetch_send {
                BasicTransfer::fetch_send(contig)
            } else {
                BasicTransfer::load_send(contig)
            };
            [
                cyc(BasicTransfer::copy(x, contig), bytes),
                cyc(send, bytes),
                cyc(BasicTransfer::net_data(), bytes),
                cyc(BasicTransfer::receive_deposit(contig), bytes),
                cyc(BasicTransfer::copy(contig, y), bytes),
            ]
        }
        Style::Chained => {
            let contiguous = x == AccessPattern::Contiguous && y == AccessPattern::Contiguous;
            let wire = if contiguous {
                BasicTransfer::net_data()
            } else {
                BasicTransfer::net_addr_data()
            };
            let wire_bytes = if contiguous {
                bytes
            } else {
                bytes.saturating_mul(2)
            };
            let deposit = if machine.deposit_noncontiguous() {
                BasicTransfer::receive_deposit(y)
            } else {
                BasicTransfer::receive_store(y)
            };
            [
                0.0,
                cyc(BasicTransfer::load_send(x), bytes),
                cyc(wire, wire_bytes),
                cyc(deposit, bytes),
                0.0,
            ]
        }
    }
}

/// Applies the model's composition rule to raw per-stage costs, producing
/// marginal cycles with the same telescoped semantics as the simulator's
/// [`PhaseTimeline::marginals`]: sequential stages (`∘`) add, while the
/// pipelined `send ‖ wire ‖ deposit` group overlaps, so each member
/// contributes only the cycles by which it outlasts the stages already
/// running when it drains.
pub fn compose_marginals(raw: [f64; 5]) -> [f64; 5] {
    let [pack, send, wire, deposit, unpack] = raw;
    [
        pack,
        send,
        (wire - send).max(0.0),
        (deposit - send.max(wire)).max(0.0),
        unpack,
    ]
}

/// Total-variation distance between two stage splits, after normalising
/// each to shares. Zero when either split is all-zero.
fn attribution_error(sim: &[Cycle; 5], model: &[f64; 5]) -> f64 {
    let sim_total: f64 = sim.iter().map(|&c| c as f64).sum();
    let model_total: f64 = model.iter().sum();
    if sim_total <= 0.0 || model_total <= 0.0 {
        return 0.0;
    }
    0.5 * sim
        .iter()
        .zip(model)
        .map(|(&s, &m)| (s as f64 / sim_total - m / model_total).abs())
        .sum::<f64>()
}

/// Runs [`PHASE_OPS`] in both styles on `machine` and attributes each run's
/// stage split against the model's prediction.
///
/// # Errors
///
/// Propagates simulator errors from the underlying exchanges.
pub fn phase_breakdown(
    machine: &Machine,
    rates: &RateTable,
    words: u64,
) -> SimResult<Vec<PhaseRow>> {
    let cfg = paper_exchange_cfg(machine, words);
    let mut rows = Vec::new();
    for op in PHASE_OPS {
        let (x, y) = parse_q(op);
        for (style, tag) in [(Style::BufferPacking, "bp"), (Style::Chained, "chained")] {
            let r = run_exchange(machine, x, y, style, &cfg)?;
            let sim = r.phases.marginals(r.end_cycle);
            let model = compose_marginals(model_stages(machine, rates, op, style, words));
            rows.push(PhaseRow {
                op: op.to_string(),
                style: tag.to_string(),
                end_cycle: r.end_cycle,
                sim,
                model,
                attribution_error: attribution_error(&sim, &model),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcomm_machines::microbench;

    #[test]
    fn marginals_sum_to_end_cycle_and_error_is_bounded() {
        let machine = Machine::t3d();
        let rates = microbench::measure_table(&machine, 2048).expect("rates");
        let rows = phase_breakdown(&machine, &rates, 1024).expect("breakdown");
        assert_eq!(rows.len(), PHASE_OPS.len() * 2);
        for row in &rows {
            assert_eq!(
                row.sim.iter().sum::<Cycle>(),
                row.end_cycle,
                "{} {} marginals must telescope to the end cycle",
                row.op,
                row.style
            );
            assert!(
                (0.0..=1.0).contains(&row.attribution_error),
                "attribution error is a total-variation distance"
            );
        }
    }

    #[test]
    fn contiguous_bp_model_predicts_all_five_stages() {
        let machine = Machine::t3d();
        let rates = microbench::measure_table(&machine, 2048).expect("rates");
        let model = model_stages(&machine, &rates, "64Q64", Style::BufferPacking, 1024);
        assert!(
            model.iter().all(|&c| c > 0.0),
            "all raw stage costs present: {model:?}"
        );
        let chained = model_stages(&machine, &rates, "64Q64", Style::Chained, 1024);
        assert_eq!(chained[0], 0.0);
        assert_eq!(chained[4], 0.0);
        assert!(chained[1] > 0.0 && chained[2] > 0.0 && chained[3] > 0.0);
    }

    #[test]
    fn composition_telescopes_to_serial_plus_pipelined_max() {
        let raw = [10.0, 20.0, 50.0, 30.0, 5.0];
        let composed = compose_marginals(raw);
        // pack + max(send, wire, deposit) + unpack.
        assert_eq!(composed.iter().sum::<f64>(), 10.0 + 50.0 + 5.0);
        assert_eq!(composed[3], 0.0, "deposit hides inside the wire stage");
    }
}

//! Canonical communication-operation formulas from Section 5 of the paper.
//!
//! A compiler's performance-critical operation is the local-to-remote memory
//! copy `xQy`. This module builds the model expressions for its two
//! implementation families:
//!
//! * **buffer packing** (`xQy`): gather into a contiguous buffer, move the
//!   block, scatter at the destination —
//!   `xQy = xC1 ∘ (1S0 ‖ Nd ‖ 0D1) ∘ 1Cy`;
//! * **chained** (`xQ'y`): gather, transfer and scatter in one step, sending
//!   address-data pairs so the deposit engine can store any pattern —
//!   `xQ'y = xS0 ‖ Nadp ‖ 0Dy` (and `1Q'1 = 1S0 ‖ Nd ‖ 0D1`).
//!
//! The plans are parameterized by which engine feeds the network (processor
//! or DMA) and which drains it (processor or deposit engine), which is how
//! the T3D and Paragon variants of Sections 5.1.1–5.1.4 differ.

use crate::{AccessPattern, BasicTransfer, ModelError, ResourceCap, TransferExpr};

/// Which engine moves outgoing data from memory to the network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SendEngine {
    /// The node processor executes a load-send loop (`xS0`).
    Processor,
    /// A DMA / fetch engine streams the data in the background (`xF0`).
    /// Real DMAs typically restrict the access pattern to contiguous blocks.
    Dma,
}

/// Which engine moves incoming data from the network interface to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReceiveEngine {
    /// The (co-)processor executes a receive-store loop (`0Ry`).
    Processor,
    /// A deposit engine stores in the background (`0Dy`).
    Deposit,
}

impl SendEngine {
    fn transfer(self, pattern: AccessPattern) -> BasicTransfer {
        match self {
            SendEngine::Processor => BasicTransfer::load_send(pattern),
            SendEngine::Dma => BasicTransfer::fetch_send(pattern),
        }
    }
}

impl ReceiveEngine {
    fn transfer(self, pattern: AccessPattern) -> BasicTransfer {
        match self {
            ReceiveEngine::Processor => BasicTransfer::receive_store(pattern),
            ReceiveEngine::Deposit => BasicTransfer::receive_deposit(pattern),
        }
    }
}

/// The two implementation families of `xQy` (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Style {
    /// `xQy = xC1 ∘ (send ‖ Nd ‖ receive) ∘ 1Cy` — pack, move block,
    /// unpack ([`buffer_packing_expr`]).
    BufferPacking,
    /// `xQ'y = xS0 ‖ Nadp ‖ 0Dy` — direct transfer, addresses on the wire
    /// for non-contiguous destinations ([`chained_expr`]).
    Chained,
}

/// Configuration of a buffer-packing implementation of `xQy`.
///
/// The defaults describe the PVM-style implementation on the T3D
/// (processor send, deposit-engine receive, copies never elided, no
/// overlap of the unpack copy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferPackingPlan {
    /// Engine feeding the network with the packed buffer.
    pub send: SendEngine,
    /// Engine draining the network into the receive buffer.
    pub recv: ReceiveEngine,
    /// Skip the gather/scatter copy when the corresponding pattern is
    /// already contiguous. Standard libraries like PVM force the copy in all
    /// cases to comply with their interface; expert implementations elide it.
    pub elide_contiguous_copies: bool,
    /// Overlap the unpack copy with the transfer (`… ‖ 1Cy` instead of
    /// `… ∘ 1Cy`), as when the Paragon communication co-processor attends
    /// the DMA engines and the main processor is free to scatter.
    pub overlap_unpack: bool,
}

impl Default for BufferPackingPlan {
    fn default() -> Self {
        BufferPackingPlan {
            send: SendEngine::Processor,
            recv: ReceiveEngine::Deposit,
            elide_contiguous_copies: false,
            overlap_unpack: false,
        }
    }
}

/// Configuration of a chained implementation of `xQ'y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainedPlan {
    /// Engine draining the network. The T3D annex is a
    /// [`ReceiveEngine::Deposit`]; the Paragon substitutes its co-processor,
    /// a [`ReceiveEngine::Processor`].
    pub recv: ReceiveEngine,
}

impl Default for ChainedPlan {
    fn default() -> Self {
        ChainedPlan {
            recv: ReceiveEngine::Deposit,
        }
    }
}

/// Builds the model expression for a buffer-packing `xQy`.
///
/// # Errors
///
/// Propagates composition errors; with a well-formed plan these cannot occur.
pub fn buffer_packing_expr(
    x: AccessPattern,
    y: AccessPattern,
    plan: BufferPackingPlan,
) -> Result<TransferExpr, ModelError> {
    assert!(x.is_memory() && y.is_memory(), "Q moves memory to memory");
    let middle = TransferExpr::par(vec![
        plan.send.transfer(AccessPattern::Contiguous).into(),
        BasicTransfer::net_data().into(),
        plan.recv.transfer(AccessPattern::Contiguous).into(),
    ])?;
    let gather = (!(plan.elide_contiguous_copies && x == AccessPattern::Contiguous))
        .then(|| BasicTransfer::copy(x, AccessPattern::Contiguous));
    let scatter = (!(plan.elide_contiguous_copies && y == AccessPattern::Contiguous))
        .then(|| BasicTransfer::copy(AccessPattern::Contiguous, y));

    let mut stages: Vec<TransferExpr> = Vec::new();
    if let Some(g) = gather {
        stages.push(g.into());
    }
    stages.push(middle);
    match (scatter, plan.overlap_unpack) {
        (None, _) => TransferExpr::seq(stages),
        (Some(s), false) => {
            stages.push(s.into());
            TransferExpr::seq(stages)
        }
        (Some(s), true) => {
            let pipeline = TransferExpr::seq(stages)?;
            TransferExpr::par(vec![pipeline, s.into()])
        }
    }
}

/// Builds the model expression for a chained `xQ'y`.
///
/// Contiguous-to-contiguous transfers ride the data-only network (`Nd`);
/// any other pattern combination must send address-data pairs (`Nadp`) so
/// the receiving engine knows where to store each word.
///
/// # Errors
///
/// Propagates composition errors; with a well-formed plan these cannot occur.
pub fn chained_expr(
    x: AccessPattern,
    y: AccessPattern,
    plan: ChainedPlan,
) -> Result<TransferExpr, ModelError> {
    assert!(x.is_memory() && y.is_memory(), "Q' moves memory to memory");
    let contiguous = x == AccessPattern::Contiguous && y == AccessPattern::Contiguous;
    let network = if contiguous {
        BasicTransfer::net_data()
    } else {
        BasicTransfer::net_addr_data()
    };
    TransferExpr::par(vec![
        BasicTransfer::load_send(x).into(),
        network.into(),
        plan.recv.transfer(y).into(),
    ])
}

/// The resource constraints of a symmetric exchange, where every node sends
/// and receives simultaneously: twice the operation's throughput must fit in
/// the raw store bandwidth `0Cy` and the raw load bandwidth `xC0`
/// (Sections 3.4.1 and 5.1.3).
pub fn symmetric_exchange_caps(x: AccessPattern, y: AccessPattern) -> Vec<ResourceCap> {
    vec![
        ResourceCap::rate_of(
            "memory store bandwidth 0Cy",
            2.0,
            BasicTransfer::store_stream(y),
        ),
        ResourceCap::rate_of(
            "memory load bandwidth xC0",
            2.0,
            BasicTransfer::load_stream(x),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: AccessPattern = AccessPattern::Indexed;
    const ONE: AccessPattern = AccessPattern::Contiguous;

    #[test]
    fn buffer_packing_formula_matches_paper() {
        let q = buffer_packing_expr(W, AccessPattern::Strided(64), BufferPackingPlan::default())
            .unwrap();
        assert_eq!(q.to_string(), "wC1 o (1S0 || Nd || 0D1) o 1C64");
    }

    #[test]
    fn buffer_packing_keeps_copies_for_contiguous_by_default() {
        // PVM forces the copies even for 1Q1.
        let q = buffer_packing_expr(ONE, ONE, BufferPackingPlan::default()).unwrap();
        assert_eq!(q.to_string(), "1C1 o (1S0 || Nd || 0D1) o 1C1");
    }

    #[test]
    fn buffer_packing_can_elide_contiguous_copies() {
        let plan = BufferPackingPlan {
            elide_contiguous_copies: true,
            ..BufferPackingPlan::default()
        };
        let q = buffer_packing_expr(ONE, ONE, plan).unwrap();
        assert_eq!(q.to_string(), "(1S0 || Nd || 0D1)");
    }

    #[test]
    fn paragon_overlap_variant() {
        // xQy = xC1 o (1F0 || Nd || 0D1) || 1Cy
        let plan = BufferPackingPlan {
            send: SendEngine::Dma,
            recv: ReceiveEngine::Deposit,
            elide_contiguous_copies: false,
            overlap_unpack: true,
        };
        let q = buffer_packing_expr(AccessPattern::Strided(16), W, plan).unwrap();
        assert_eq!(q.to_string(), "(16C1 o (1F0 || Nd || 0D1) || 1Cw)");
    }

    #[test]
    fn chained_contiguous_uses_data_only_network() {
        let q = chained_expr(ONE, ONE, ChainedPlan::default()).unwrap();
        assert_eq!(q.to_string(), "(1S0 || Nd || 0D1)");
    }

    #[test]
    fn chained_noncontiguous_uses_address_data_pairs() {
        let q = chained_expr(ONE, AccessPattern::Strided(64), ChainedPlan::default()).unwrap();
        assert_eq!(q.to_string(), "(1S0 || Nadp || 0D64)");
        let q = chained_expr(
            W,
            W,
            ChainedPlan {
                recv: ReceiveEngine::Processor,
            },
        )
        .unwrap();
        assert_eq!(q.to_string(), "(wS0 || Nadp || 0Rw)");
    }

    #[test]
    fn symmetric_caps_reference_raw_streams() {
        let caps = symmetric_exchange_caps(ONE, W);
        assert_eq!(caps.len(), 2);
        assert!(caps.iter().all(|c| c.multiplier == 2.0));
    }
}

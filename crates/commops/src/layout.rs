//! Per-node memory layout of an exchange and its verification.

use memcomm_machines::microbench::alloc_pattern_walk;
use memcomm_memsim::walk::Walk;
use memcomm_memsim::{Node, SimError, SimResult};
use memcomm_model::{classify_offsets, AccessPattern};

/// How one side of an exchange walks memory: either a pattern (indexed
/// patterns get a seeded random permutation) or an explicit word-offset
/// list (e.g. derived from an MPI-style datatype).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkSpec {
    /// A plain access pattern.
    Pattern(AccessPattern),
    /// Explicit word offsets, in element order.
    Offsets(Vec<u32>),
}

impl WalkSpec {
    /// The access pattern this spec exhibits (explicit offsets are
    /// classified; a constant-stride offset list is exactly a strided
    /// pattern, so the classification is lossless for simulation).
    pub fn pattern(&self) -> AccessPattern {
        match self {
            WalkSpec::Pattern(p) => *p,
            WalkSpec::Offsets(offsets) => {
                let as64: Vec<u64> = offsets.iter().map(|&o| u64::from(o)).collect();
                classify_offsets(&as64)
            }
        }
    }

    /// Number of elements, if the spec pins it (offset lists do).
    pub fn len(&self) -> Option<u64> {
        match self {
            WalkSpec::Pattern(_) => None,
            WalkSpec::Offsets(o) => Some(o.len() as u64),
        }
    }

    /// Whether the spec pins the transfer to zero elements (an empty offset
    /// list; pattern specs leave the length to the configuration).
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    fn build_walk(&self, node: &mut Node, words: u64, seed: u64) -> SimResult<Walk> {
        match self {
            WalkSpec::Pattern(p) => alloc_pattern_walk(node, *p, words, seed),
            WalkSpec::Offsets(offsets) => {
                if offsets.len() as u64 != words {
                    return Err(SimError::InvalidWalk {
                        detail: format!(
                            "offset list of {} entries for a transfer of {words} words",
                            offsets.len()
                        ),
                    });
                }
                match self.pattern() {
                    AccessPattern::Indexed => {
                        // Region spans the largest offset; the walk follows
                        // the explicit list.
                        let span = u64::from(*offsets.iter().max().expect("non-empty")) + 1;
                        let (region, index_region) = node.mem.alloc_indexed(span, words)?;
                        Ok(
                            Walk::new(
                                AccessPattern::Indexed,
                                region,
                                words,
                                Some(offsets.clone()),
                            )?
                            .with_index_region(index_region),
                        )
                    }
                    pattern => {
                        // Contiguous or constant stride: the pattern walk
                        // reproduces the offsets exactly (starting at the
                        // region base plus the first offset — element 0's
                        // placement within the type does not affect timing).
                        let index = None;
                        node.alloc_walk(pattern, words, index)
                    }
                }
            }
        }
    }
}

/// The four arrays an exchange touches on every node: the source operand,
/// the destination operand, and the contiguous pack/unpack buffers used by
/// buffer-packing transfers.
///
/// Both nodes allocate in the same order, so a walk's addresses are valid
/// on either node — which is how a sending node computes remote store
/// addresses for chained transfers (the "compiler generates the addresses
/// on the sender" case of Section 2.1).
#[derive(Debug, Clone)]
pub struct ExchangeLayout {
    /// Source operand, pattern `x`.
    pub src: Walk,
    /// Destination operand, pattern `y`.
    pub dst: Walk,
    /// Contiguous send buffer.
    pub send_buf: Walk,
    /// Contiguous receive buffer.
    pub recv_buf: Walk,
}

impl ExchangeLayout {
    /// Allocates the layout on a node and fills the source with values that
    /// encode `(node_id, element)` for end-to-end verification.
    ///
    /// # Errors
    ///
    /// Propagates allocation and walk-validation failures.
    pub fn new(
        node: &mut Node,
        x: AccessPattern,
        y: AccessPattern,
        words: u64,
        seed: u64,
        node_id: u64,
    ) -> SimResult<Self> {
        Self::with_specs(
            node,
            &WalkSpec::Pattern(x),
            &WalkSpec::Pattern(y),
            words,
            seed,
            node_id,
        )
    }

    /// Like [`new`](Self::new), but with explicit walk specifications
    /// (offset lists from datatypes, or plain patterns).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWalk`] if an offset list's length differs
    /// from `words`, and propagates allocation failures.
    pub fn with_specs(
        node: &mut Node,
        x: &WalkSpec,
        y: &WalkSpec,
        words: u64,
        seed: u64,
        node_id: u64,
    ) -> SimResult<Self> {
        let src = x.build_walk(node, words, seed)?;
        let dst = y.build_walk(node, words, seed ^ 0xABCD)?;
        let send_buf = node.alloc_walk(AccessPattern::Contiguous, words, None)?;
        let recv_buf = node.alloc_walk(AccessPattern::Contiguous, words, None)?;
        for i in 0..words {
            node.mem.write(src.addr(i), Self::value(node_id, i));
        }
        Ok(ExchangeLayout {
            src,
            dst,
            send_buf,
            recv_buf,
        })
    }

    /// A view of the layout truncated to `send_words` on the outgoing side
    /// and `recv_words` on the incoming side (half-duplex runs set one of
    /// them to zero).
    pub fn slice_for(&self, send_words: u64, recv_words: u64) -> ExchangeLayout {
        ExchangeLayout {
            src: self.src.slice(0, send_words),
            send_buf: self.send_buf.slice(0, send_words),
            recv_buf: self.recv_buf.slice(0, recv_words),
            dst: self.dst.slice(0, recv_words),
        }
    }

    /// The verification value for element `i` originating at `node_id`.
    pub fn value(node_id: u64, i: u64) -> u64 {
        (node_id << 48) | i
    }

    /// Checks that this node's destination holds the peer's source values
    /// in element order (element `i` of the peer's source landed at element
    /// `i` of our destination).
    pub fn verify_received(&self, node: &Node, peer_id: u64) -> bool {
        (0..self.dst.len()).all(|i| node.mem.read(self.dst.addr(i)) == Self::value(peer_id, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcomm_memsim::NodeParams;

    #[test]
    fn layouts_are_identical_across_nodes() {
        let mut a = Node::new(NodeParams::default());
        let mut b = Node::new(NodeParams::default());
        let la = ExchangeLayout::new(
            &mut a,
            AccessPattern::Indexed,
            AccessPattern::Strided(4),
            64,
            7,
            0,
        )
        .unwrap();
        let lb = ExchangeLayout::new(
            &mut b,
            AccessPattern::Indexed,
            AccessPattern::Strided(4),
            64,
            7,
            1,
        )
        .unwrap();
        for i in 0..64 {
            assert_eq!(la.src.addr(i), lb.src.addr(i));
            assert_eq!(la.dst.addr(i), lb.dst.addr(i));
        }
    }

    #[test]
    fn verify_detects_missing_data() {
        let mut a = Node::new(NodeParams::default());
        let layout = ExchangeLayout::new(
            &mut a,
            AccessPattern::Contiguous,
            AccessPattern::Contiguous,
            8,
            1,
            0,
        )
        .unwrap();
        assert!(!layout.verify_received(&a, 1), "nothing received yet");
        for i in 0..8 {
            let v = ExchangeLayout::value(1, i);
            a.mem.write(layout.dst.addr(i), v);
        }
        assert!(layout.verify_received(&a, 1));
    }
}

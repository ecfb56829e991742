//! The annex's remote-load service.
//!
//! The T3D's fetch/deposit circuitry "handles incoming remote operations
//! (loads and stores) with their memory accesses on behalf of the
//! communication system". [`DepositEngine`](crate::engines::DepositEngine)
//! models the store half; an [`AnnexEngine`] models the load half: it
//! serves request words ([`WordKind::Request`]) by reading local memory and
//! sending the value back as an addressed reply. This is the machinery
//! behind remote *loads* ("get"), which the paper deliberately avoids:
//! "when withdrawing data, the latency is higher since address information
//! has to travel first to the node that holds the data."

use crate::clock::Cycle;
use crate::engines::{DepositParams, Step};
use crate::error::{SimError, SimResult};
use crate::mem::Memory;
use crate::nic::{NetWord, TimedFifo, WordKind};
use crate::path::{MemPath, Port};

/// An annex serving an incoming stream of remote-load requests.
#[derive(Debug)]
pub struct AnnexEngine {
    /// The engine's local clock.
    pub t: Cycle,
    params: DepositParams,
    expected_requests: u64,
    served: u64,
    staged_reply: Option<NetWord>,
}

impl AnnexEngine {
    /// Creates an annex that will serve `expected_requests` remote loads.
    pub fn new(params: DepositParams, expected_requests: u64) -> Self {
        AnnexEngine {
            t: 0,
            params,
            expected_requests,
            served: 0,
            staged_reply: None,
        }
    }

    /// Advances by one word: flush a staged reply, or serve one incoming
    /// request.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] for any word but an addressed request
    /// (a bare request, a data word, protocol control traffic).
    pub fn step(
        &mut self,
        path: &mut MemPath,
        mem: &mut Memory,
        rx: &mut TimedFifo,
        tx: &mut TimedFifo,
    ) -> SimResult<Step> {
        if let Some(reply) = self.staged_reply {
            return Ok(match tx.push(self.t, reply) {
                Some(at) => {
                    self.t = self.t.max(at);
                    self.staged_reply = None;
                    Step::Progressed
                }
                None => Step::Blocked,
            });
        }
        if self.served == self.expected_requests {
            return Ok(Step::Done);
        }
        let Some((at, word)) = rx.pop(self.t) else {
            return Ok(Step::Blocked);
        };
        self.t = self.t.max(at) + self.params.word_cycles;
        let (WordKind::Request, Some(remote)) = (word.kind, word.addr) else {
            return Err(SimError::Protocol {
                detail: "the annex serves only addressed requests".to_string(),
                at: self.t,
            });
        };
        self.t = path.engine_read(self.t, Port::Deposit, remote, 1);
        let value = mem.read(remote);
        self.staged_reply = Some(NetWord::addressed(word.data, value));
        self.served += 1;
        Ok(Step::Progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeParams};
    use memcomm_model::AccessPattern;

    fn drive(annex: &mut AnnexEngine, node: &mut Node) {
        // tx/rx are disjoint fields; split-borrow through the node.
        for _ in 0..10_000 {
            let Node {
                path, mem, tx, rx, ..
            } = node;
            match annex.step(path, mem, rx, tx).unwrap() {
                Step::Done => return,
                Step::Blocked => panic!("annex starved"),
                Step::Progressed => {}
            }
        }
        panic!("annex did not finish");
    }

    #[test]
    fn serves_requests_with_replies() {
        let mut node = Node::new(NodeParams::default());
        let data = node.alloc_walk(AccessPattern::Contiguous, 8, None).unwrap();
        node.mem.fill(data.region(), (0..8).map(|i| 100 + i));
        for i in 0..8 {
            node.rx
                .push(i, NetWord::request(data.addr(i), 0x9000 + i * 8))
                .unwrap();
        }
        let mut annex = AnnexEngine::new(node.params().deposit, 8);
        drive(&mut annex, &mut node);
        let replies: Vec<NetWord> =
            std::iter::from_fn(|| node.tx.pop(u64::MAX / 2).map(|(_, w)| w)).collect();
        assert_eq!(replies.len(), 8);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.kind, WordKind::Data);
            assert_eq!(r.addr, Some(0x9000 + i as u64 * 8));
            assert_eq!(r.data, 100 + i as u64);
        }
    }

    #[test]
    fn blocked_reply_is_not_lost() {
        let mut node = Node::new(NodeParams::default());
        // Tiny tx so the reply push blocks.
        node.tx = TimedFifo::new(1);
        node.tx.push(0, NetWord::data(0)).unwrap();
        let data = node.alloc_walk(AccessPattern::Contiguous, 1, None).unwrap();
        node.mem.write(data.addr(0), 55);
        node.rx
            .push(0, NetWord::request(data.addr(0), 0x9000))
            .unwrap();
        let mut annex = AnnexEngine::new(node.params().deposit, 1);
        let Node {
            path, mem, tx, rx, ..
        } = &mut node;
        assert_eq!(annex.step(path, mem, rx, tx).unwrap(), Step::Progressed); // read memory, stage
        assert_eq!(annex.step(path, mem, rx, tx).unwrap(), Step::Blocked); // tx full
        tx.pop(100);
        assert_eq!(annex.step(path, mem, rx, tx).unwrap(), Step::Progressed); // reply out
        assert_eq!(annex.step(path, mem, rx, tx).unwrap(), Step::Done);
        let (_, reply) = tx.pop(u64::MAX / 2).unwrap();
        assert_eq!(reply.data, 55);
    }

    #[test]
    fn control_words_are_rejected() {
        for word in [NetWord::control(0xAB), NetWord::addressed(0x40, 41)] {
            let mut node = Node::new(NodeParams::default());
            node.rx.push(0, word).unwrap();
            let mut annex = AnnexEngine::new(node.params().deposit, 1);
            let Node {
                path, mem, tx, rx, ..
            } = &mut node;
            assert!(
                matches!(
                    annex.step(path, mem, rx, tx),
                    Err(SimError::Protocol { .. })
                ),
                "{word:?}"
            );
        }
    }
}

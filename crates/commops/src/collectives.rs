//! MPI-style collective operations compiled onto the copy-transfer algebra
//! and the flow engine.
//!
//! The paper's evaluation stops at pairwise symmetric exchanges and the
//! three Table 6 kernels, but the ∘/‖ composition algebra was built to
//! price arbitrary communication structures. This module closes that gap
//! for the classical collectives: broadcast (binomial tree), allgather
//! (ring and recursive doubling), allreduce (recursive doubling and ring
//! reduce-scatter + allgather) and full all-to-all (the XOR schedule the
//! paper cites for AAPC on tori).
//!
//! Each [`Collective`] compiles into two independent artifacts:
//!
//! * **an engine flow schedule** ([`Collective::schedule`]): barrier-
//!   separated rounds of [`Flow`]s in node-id space, executable by the
//!   sharded discrete-event engine on any power-of-two topology;
//! * **an analytic cost** ([`analytic_cost`]): per round, the closed-form
//!   congestion factor of the round's flow pattern prices the widest
//!   source's serialization over the machine's wire, plus a pipeline fill —
//!   the exact inverse of the engine bridge's factor derivation, which
//!   reads the round's extent and fill from the same two `netsim` functions
//!   ([`round_extent`], [`LinkParams::pipeline_fill`]), so the two are
//!   directly comparable cycle for cycle. Rounds compose sequentially (∘,
//!   times add); within a round every node's send ‖ wire ‖ receive run in
//!   parallel, which the congestion factor captures.
//!
//! [`LinkParams::pipeline_fill`]: memcomm_netsim::LinkParams::pipeline_fill
//!
//! Volumes are accounted in words and compared against information-
//! theoretic floors ([`Collective::lower_bound_words`]): each non-root must
//! receive the broadcast payload once; each allgather participant must
//! receive the other `n − 1` blocks; an allreduce moves at least
//! `2·(n − 1)·w` words (the reduce-scatter + allgather bound of the
//! communication-lower-bound literature — Scquizzato & Silvestri; Ballard,
//! Demmel, Holtz & Schwartz); all-to-all must deliver every one of the
//! `n·(n − 1)` personalized blocks. The schedules here meet the broadcast,
//! allgather and all-to-all floors exactly; recursive-doubling allreduce
//! trades a `n·log₂(n) / (2·(n − 1))` volume overshoot for its shallow
//! round count, and the ring variant meets the floor up to block padding.

use memcomm_machines::Machine;
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::nic::NetWord;
use memcomm_memsim::{SimError, SimResult};
use memcomm_model::WORD_BYTES;
use memcomm_netsim::congestion::{pattern_congestion, round_extent};
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::{aapc_xor_schedule, Flow};

/// Every collective, in report order.
pub const ALL: [Collective; 6] = [
    Collective::Broadcast,
    Collective::AllgatherRing,
    Collective::AllgatherRecursiveDoubling,
    Collective::AllreduceRecursiveDoubling,
    Collective::AllreduceRing,
    Collective::AllToAll,
];

/// A collective operation over `n` nodes, each contributing a payload of
/// `w` words (for broadcast, the root's message; for allgather, each
/// node's block; for allreduce, the vector being reduced; for all-to-all,
/// the block sent to each peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Binomial-tree broadcast: `log₂(n)` rounds; in round `r` every node
    /// `p < 2^r` forwards the full message to `p + 2^r`.
    Broadcast,
    /// Ring allgather: `n − 1` rounds; every node passes one block of `w`
    /// words to its successor in node-id space.
    AllgatherRing,
    /// Recursive-doubling allgather: `log₂(n)` rounds; in round `r` node
    /// `p` exchanges its accumulated `2^r` blocks with `p ⊕ 2^r`.
    AllgatherRecursiveDoubling,
    /// Recursive-doubling allreduce: `log₂(n)` rounds; in round `r` node
    /// `p` exchanges the full `w`-word vector with `p ⊕ 2^r` and reduces.
    AllreduceRecursiveDoubling,
    /// Ring allreduce: `n − 1` reduce-scatter rounds followed by `n − 1`
    /// allgather rounds, each moving one `⌈w / n⌉`-word block per node.
    AllreduceRing,
    /// Full all-to-all personalized exchange: the `n − 1`-round XOR
    /// schedule (`p ↔ p ⊕ r`), `w` words per pair.
    AllToAll,
}

impl Collective {
    /// The collective's report/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Collective::Broadcast => "broadcast",
            Collective::AllgatherRing => "allgather-ring",
            Collective::AllgatherRecursiveDoubling => "allgather-rd",
            Collective::AllreduceRecursiveDoubling => "allreduce-rd",
            Collective::AllreduceRing => "allreduce-ring",
            Collective::AllToAll => "all-to-all",
        }
    }

    /// Parses a CLI name back into a collective.
    pub fn parse(s: &str) -> Option<Collective> {
        ALL.into_iter().find(|c| c.name() == s)
    }

    /// The number of communication rounds on `n` nodes.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for invalid `n` (see [`Collective::schedule`]).
    pub fn round_count(self, n: usize) -> SimResult<u64> {
        validate(self, n, 1)?;
        let k = n.trailing_zeros() as u64;
        Ok(match self {
            Collective::Broadcast
            | Collective::AllgatherRecursiveDoubling
            | Collective::AllreduceRecursiveDoubling => k,
            Collective::AllgatherRing | Collective::AllToAll => n as u64 - 1,
            Collective::AllreduceRing => 2 * (n as u64 - 1),
        })
    }

    /// Compiles the collective into barrier-separated engine rounds in
    /// node-id space (the engine maps ids onto the topology).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when `n` is not a power of two ≥ 2 (none of
    /// these schedules decompose on other counts) or `words` is zero.
    pub fn schedule(self, n: usize, words: u64) -> SimResult<Vec<Vec<Flow>>> {
        validate(self, n, words)?;
        let k = n.trailing_zeros();
        Ok(match self {
            Collective::Broadcast => (0..k)
                .map(|r| {
                    (0..1usize << r)
                        .map(|p| Flow {
                            src: p,
                            dst: p + (1 << r),
                            bytes: words * WORD_BYTES,
                        })
                        .collect()
                })
                .collect(),
            Collective::AllgatherRing => ring_rounds(n, n - 1, words),
            Collective::AllgatherRecursiveDoubling => (0..k)
                .map(|r| xor_round(n, 1 << r, (words << r) * WORD_BYTES))
                .collect(),
            Collective::AllreduceRecursiveDoubling => (0..k)
                .map(|r| xor_round(n, 1 << r, words * WORD_BYTES))
                .collect(),
            Collective::AllreduceRing => ring_rounds(n, 2 * (n - 1), words.div_ceil(n as u64)),
            Collective::AllToAll => aapc_xor_schedule(n, words * WORD_BYTES),
        })
    }

    /// Total words the schedule moves over the network (closed form; the
    /// property suite pins it against the enumerated schedule).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for invalid `n` or zero `words`.
    pub fn volume_words(self, n: usize, words: u64) -> SimResult<u64> {
        validate(self, n, words)?;
        let p = n as u64;
        let k = n.trailing_zeros() as u64;
        Ok(match self {
            Collective::Broadcast => (p - 1) * words,
            Collective::AllgatherRing
            | Collective::AllgatherRecursiveDoubling
            | Collective::AllToAll => p * (p - 1) * words,
            Collective::AllreduceRecursiveDoubling => p * k * words,
            Collective::AllreduceRing => 2 * (p - 1) * p * words.div_ceil(p),
        })
    }

    /// The information-theoretic floor on the words any schedule of this
    /// collective must move (see the module docs for the argument behind
    /// each bound).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for invalid `n` or zero `words`.
    pub fn lower_bound_words(self, n: usize, words: u64) -> SimResult<u64> {
        validate(self, n, words)?;
        let p = n as u64;
        Ok(match self {
            Collective::Broadcast => (p - 1) * words,
            Collective::AllgatherRing
            | Collective::AllgatherRecursiveDoubling
            | Collective::AllToAll => p * (p - 1) * words,
            Collective::AllreduceRecursiveDoubling | Collective::AllreduceRing => {
                2 * (p - 1) * words
            }
        })
    }

    /// The output footprint summed over nodes: what every node holds when
    /// the collective completes. Both allreduce variants produce the same
    /// result volume by construction — the property suite pins that.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for invalid `n` or zero `words`.
    pub fn result_words(self, n: usize, words: u64) -> SimResult<u64> {
        validate(self, n, words)?;
        let p = n as u64;
        Ok(match self {
            // Every node ends holding the root's message / the reduced vector.
            Collective::Broadcast
            | Collective::AllreduceRecursiveDoubling
            | Collective::AllreduceRing => p * words,
            // Every node ends holding all n blocks.
            Collective::AllgatherRing
            | Collective::AllgatherRecursiveDoubling
            | Collective::AllToAll => p * p * words,
        })
    }
}

fn validate(coll: Collective, n: usize, words: u64) -> SimResult<()> {
    if n < 2 || !n.is_power_of_two() {
        return Err(SimError::Protocol {
            detail: format!(
                "{} needs a power-of-two node count >= 2, got {n}",
                coll.name()
            ),
            at: 0,
        });
    }
    if words == 0 {
        return Err(SimError::Protocol {
            detail: format!("{} of zero words moves nothing", coll.name()),
            at: 0,
        });
    }
    if largest_round_bytes(coll, n as u64, words).is_none() {
        return Err(SimError::Protocol {
            detail: format!(
                "{} of {words} words on {n} nodes overflows a 64-bit round volume",
                coll.name()
            ),
            at: 0,
        });
    }
    Ok(())
}

/// The bytes the schedule's largest round moves over all its flows, or
/// `None` past `u64::MAX`.
fn largest_round_bytes(coll: Collective, n: u64, words: u64) -> Option<u64> {
    let (flows, flow_words) = match coll {
        Collective::Broadcast => (n / 2, words),
        // The last round moves 2^(k − 1) = n / 2 blocks per flow.
        Collective::AllgatherRecursiveDoubling => (n, words.checked_mul(n / 2)?),
        Collective::AllreduceRing => (n, words.div_ceil(n)),
        Collective::AllgatherRing
        | Collective::AllreduceRecursiveDoubling
        | Collective::AllToAll => (n, words),
    };
    flow_words.checked_mul(WORD_BYTES)?.checked_mul(flows)
}

/// `rounds` identical rounds of every node passing `words` to its ring
/// successor in node-id space.
fn ring_rounds(n: usize, rounds: usize, words: u64) -> Vec<Vec<Flow>> {
    (0..rounds)
        .map(|_| {
            (0..n)
                .map(|p| Flow {
                    src: p,
                    dst: (p + 1) % n,
                    bytes: words * WORD_BYTES,
                })
                .collect()
        })
        .collect()
}

/// One round of every node exchanging `bytes` with its XOR partner.
fn xor_round(n: usize, mask: usize, bytes: u64) -> Vec<Flow> {
    (0..n)
        .map(|p| Flow {
            src: p,
            dst: p ^ mask,
            bytes,
        })
        .collect()
}

// ------------------------------------------------------- analytic pricing

/// The analytic wire cost of one collective round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundCost {
    /// Words the round's widest source injects.
    pub words: u64,
    /// Closed-form congestion factor of the round's flow pattern
    /// ([`pattern_congestion`]).
    pub congestion: f64,
    /// Longest route any of the round's flows takes.
    pub max_hops: u64,
    /// Predicted round makespan: pipeline fill plus the widest source's
    /// serialization scaled by the congestion factor.
    pub cycles: Cycle,
}

/// The analytic cost of a whole collective: per-round wire costs composed
/// sequentially (∘ — barrier-separated rounds add), the end-to-end total,
/// and the worst round's congestion factor (directly comparable to the
/// engine bridge's emergent factor).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveCost {
    /// Per-round costs, in schedule order.
    pub rounds: Vec<RoundCost>,
    /// End-to-end predicted cycles — exactly the sum of the per-round
    /// costs; [`CollectiveCost::completions`] exposes the telescoping.
    pub end_cycle: Cycle,
    /// Worst-round congestion factor.
    pub congestion: f64,
}

impl CollectiveCost {
    /// Cumulative completion cycles after each round. The marginals of
    /// this sequence reconstruct the per-round costs exactly and its last
    /// element is [`CollectiveCost::end_cycle`] — the same telescoping
    /// contract [`crate::PhaseTimeline::marginals`] keeps for the
    /// exchange's pipeline stages.
    pub fn completions(&self) -> Vec<Cycle> {
        self.rounds
            .iter()
            .scan(0, |acc, r| {
                *acc += r.cycles;
                Some(*acc)
            })
            .collect()
    }
}

/// Prices a collective on a machine's wire analytically, round by round.
///
/// Per round, the flow pattern reduces to a congestion factor by closed-
/// form link/port analysis; the round's makespan is then
/// `fill + W·wt·factor`, where `W` is the widest source's word count,
/// `wt` the machine's per-word wire time, and `fill` the
/// `(max_hops + 2)`-stage pipeline fill — the exact inverse of the factor
/// the engine bridge derives from a measured makespan, so engine and model
/// are comparable cycle for cycle with no fitted constants.
///
/// # Errors
///
/// [`SimError::Protocol`] when the topology's node count is not a power of
/// two ≥ 2 or `words` is zero.
pub fn analytic_cost(
    machine: &Machine,
    topo: &Topology,
    coll: Collective,
    words: u64,
) -> SimResult<CollectiveCost> {
    let sched = coll.schedule(topo.len(), words)?;
    let link = machine.link(1.0);
    let wt = link.word_cycles(&NetWord::data(0));
    let mut rounds = Vec::with_capacity(sched.len());
    let mut end_cycle: Cycle = 0;
    let mut congestion = 1.0f64;
    for flows in &sched {
        let factor = pattern_congestion(topo, flows, machine.nodes_per_port).factor;
        // A round that moves nothing still pays its two-stage fill.
        let (widest, max_hops) = round_extent(topo, flows);
        let fill = link.pipeline_fill(max_hops);
        let cycles = (fill + widest as f64 * wt * factor).ceil() as Cycle;
        end_cycle += cycles;
        congestion = congestion.max(factor);
        rounds.push(RoundCost {
            words: widest,
            congestion: factor,
            max_hops,
            cycles,
        });
    }
    Ok(CollectiveCost {
        rounds,
        end_cycle,
        congestion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in ALL {
            assert_eq!(Collective::parse(c.name()), Some(c));
        }
        assert_eq!(Collective::parse("reduce-scatter"), None);
    }

    #[test]
    fn schedules_match_their_round_counts() {
        for c in ALL {
            for n in [2usize, 8, 64] {
                let sched = c.schedule(n, 4).unwrap();
                assert_eq!(sched.len() as u64, c.round_count(n).unwrap(), "{c:?} n={n}");
                for round in &sched {
                    for f in round {
                        assert_ne!(f.src, f.dst, "{c:?}: self-flow");
                        assert!(f.src < n && f.dst < n);
                        assert!(f.bytes > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_tree_doubles_coverage() {
        let sched = Collective::Broadcast.schedule(8, 2).unwrap();
        assert_eq!(
            sched.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }

    #[test]
    fn zero_words_are_a_protocol_error() {
        for c in ALL {
            assert!(matches!(c.schedule(8, 0), Err(SimError::Protocol { .. })));
        }
    }

    #[test]
    fn oversized_words_are_a_protocol_error() {
        // 2^61 words are 2^64 bytes: the largest round of every collective
        // overflows a u64, so each is refused before a flow is built.
        let t3d = Machine::t3d();
        for c in ALL {
            assert!(
                matches!(c.schedule(4, 1 << 61), Err(SimError::Protocol { .. })),
                "{}",
                c.name()
            );
            assert!(matches!(
                c.volume_words(4, 1 << 61),
                Err(SimError::Protocol { .. })
            ));
            assert!(matches!(
                analytic_cost(&t3d, &t3d.topology, c, 1 << 61),
                Err(SimError::Protocol { .. })
            ));
        }
        // The bound is the largest round's volume: four all-to-all flows of
        // 2^58 words (2^63 bytes) fit, of 2^59 words do not.
        assert!(Collective::AllToAll.schedule(4, 1 << 58).is_ok());
        assert!(Collective::AllToAll.schedule(4, 1 << 59).is_err());
        // Recursive doubling's last round carries n / 2 blocks per flow.
        assert!(Collective::AllgatherRecursiveDoubling
            .schedule(64, 1 << 49)
            .is_ok());
        assert!(Collective::AllgatherRecursiveDoubling
            .schedule(64, 1 << 50)
            .is_err());
    }

    #[test]
    fn analytic_cost_telescopes_and_floors_at_one() {
        let t3d = Machine::t3d();
        let cost = analytic_cost(&t3d, &t3d.topology, Collective::AllToAll, 64).unwrap();
        assert_eq!(cost.rounds.len(), 63);
        assert_eq!(
            cost.rounds.iter().map(|r| r.cycles).sum::<Cycle>(),
            cost.end_cycle
        );
        assert_eq!(cost.completions().last().copied(), Some(cost.end_cycle));
        assert!(cost.congestion >= 1.0);
    }
}

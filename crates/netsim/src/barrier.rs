//! Barrier synchronization cost model.
//!
//! The paper's application kernels synchronize between communication steps
//! (its companion paper, Stricker et al. 1995, studies fast synchronization
//! explicitly). The SOR kernel in particular is fixed-cost-bound, and the
//! dominant fixed cost per iteration is the barrier. This module models the
//! standard **dissemination barrier**: in round `r` (of `⌈log₂ P⌉`) node
//! `p` signals node `(p + 2^r) mod P` and waits for the signal from
//! `(p − 2^r) mod P`; each round costs one one-word message plus the
//! software time to post and poll it.

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::nic::{NetWord, WordKind};

use crate::link::{ceil_cycle, LinkParams};
use crate::topology::Topology;

/// Number of dissemination rounds for `p` participants.
pub fn dissemination_rounds(p: usize) -> u32 {
    assert!(p >= 1, "a barrier needs at least one participant");
    (p as f64).log2().ceil() as u32
}

/// Cycles for one full barrier across the machine: rounds × (software post
/// and poll + one-word wire time at the pattern's congestion + cut-through
/// latency).
///
/// `software_cycles_per_round` is the library's cost to post the signal and
/// spin on the incoming flag; vendor-tuned code is a few hundred cycles,
/// PVM-class code an order of magnitude more.
pub fn barrier_cycles(
    topo: &Topology,
    link: &LinkParams,
    software_cycles_per_round: Cycle,
) -> Cycle {
    let rounds = Cycle::from(dissemination_rounds(topo.len()));
    let word = NetWord {
        addr: None,
        data: 0,
        kind: WordKind::Data,
    };
    let wire = ceil_cycle(link.word_cycles(&word));
    rounds * (software_cycles_per_round + wire + link.latency_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkParams {
        LinkParams {
            bytes_per_cycle: 160.0 / 150.0,
            packet_words: 16,
            header_bytes: 8,
            adp_extra_bytes: 10,
            latency_cycles: 20,
            congestion: 2.0,
        }
    }

    #[test]
    fn rounds_are_log2() {
        assert_eq!(dissemination_rounds(1), 0);
        assert_eq!(dissemination_rounds(2), 1);
        assert_eq!(dissemination_rounds(64), 6);
        assert_eq!(dissemination_rounds(65), 7);
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let small = barrier_cycles(&Topology::torus(&[2, 2]), &link(), 300);
        let large = barrier_cycles(&Topology::torus(&[4, 4, 4]), &link(), 300);
        assert_eq!(large, 3 * small, "64 nodes take 6 rounds, 4 nodes take 2");
    }

    #[test]
    fn sixty_four_nodes_land_in_the_ten_microsecond_range() {
        // ~6 rounds x ~(300 + 17 + 20) cycles ~ 2000 cycles = 13.5 us at
        // 150 MHz — the fast-synchronization ballpark of the era.
        let t = barrier_cycles(&Topology::torus(&[4, 4, 4]), &link(), 300);
        assert!((1500..3000).contains(&t), "barrier {t} cycles");
    }

    #[test]
    fn single_node_barrier_is_free() {
        assert_eq!(barrier_cycles(&Topology::torus(&[1]), &link(), 300), 0);
    }
}

//! Microbenchmark harness: measures every basic transfer on a simulated
//! machine and assembles the machine's [`RateTable`].
//!
//! This is the simulated counterpart of Section 4 of the paper ("Measuring
//! throughput figures for basic transfers"): each figure comes out of a
//! steady-state run over arrays far larger than the cache, and auxiliary
//! traffic (index loads, addresses, headers) costs time but never counts as
//! payload.

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::nic::{NetWord, WordKind};
use memcomm_memsim::scenario;
use memcomm_memsim::walk::Walk;
use memcomm_memsim::{Measurement, Node, SimResult};
use memcomm_model::{AccessPattern, BasicTransfer, Engine, RateTable, Throughput};
use memcomm_netsim::link::measure_wire_rate;

use crate::machine::Machine;
use crate::memo::Point;

/// Deterministic pseudo-random permutation of `0..n` for indexed walks
/// (splitmix64-seeded xorshift64*, Fisher–Yates).
pub fn permutation_index(n: u64, seed: u64) -> Vec<u32> {
    assert!(n <= u64::from(u32::MAX), "index entries are 32-bit");
    let mut out: Vec<u32> = (0..n as u32).collect();
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    state = (state ^ (state >> 31)) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for i in (1..n as usize).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Builds a fresh node for a machine.
pub fn make_node(machine: &Machine) -> Node {
    Node::new(machine.node)
}

/// Allocates a walk of `words` elements with the given pattern (indexed
/// walks get a seeded permutation).
///
/// An indexed walk is placed
/// ([`Memory::alloc_indexed`](memcomm_memsim::mem::Memory::alloc_indexed))
/// before its permutation is built, so a walk the node cannot hold fails
/// with [`SimError::OutOfMemory`](memcomm_memsim::SimError::OutOfMemory)
/// before `words` index entries exist.
///
/// # Errors
///
/// Propagates allocation and walk-construction errors from the node.
pub fn alloc_pattern_walk(
    node: &mut Node,
    pattern: AccessPattern,
    words: u64,
    seed: u64,
) -> SimResult<Walk> {
    if pattern != AccessPattern::Indexed {
        return node.alloc_walk(pattern, words, None);
    }
    let (region, index_region) = node.mem.alloc_indexed(words, words)?;
    let index = permutation_index(words, seed);
    Ok(Walk::new(pattern, region, words, Some(index))?.with_index_region(index_region))
}

fn feed_cycles(machine: &Machine, addressed: bool) -> Cycle {
    let word = NetWord {
        addr: addressed.then_some(0),
        data: 0,
        kind: WordKind::Data,
    };
    machine.link(1.0).word_cycles(&word).round().max(1.0) as Cycle
}

/// Measures one basic transfer on the machine, over `words` payload words.
/// Returns `None` when the machine does not offer that transfer (the "–"
/// cells of the paper's tables).
///
/// Results are memoized through the *installed* cache handle (see
/// [`crate::memo`]): under an installed [`crate::memo::MemoHandle`] the
/// first call for a `(machine, transfer, words)` point simulates and later
/// calls — from other experiments, the calibration report, or parallel
/// sweep workers — are lookups; with no handle installed every call
/// simulates.
///
/// # Errors
///
/// Propagates any [`memcomm_memsim::SimError`] from the underlying
/// simulation (errors are memoized like values — deterministic failures
/// replay from the cache).
pub fn measure_basic(
    machine: &Machine,
    transfer: BasicTransfer,
    words: u64,
) -> SimResult<Option<Measurement>> {
    crate::memo::cached(machine, basic_point(transfer, words), || {
        simulate_basic(machine, transfer, words)
    })
}

/// The memo point [`measure_basic`] looks up.
pub fn basic_point(transfer: BasicTransfer, words: u64) -> Point {
    Point::Basic { transfer, words }
}

/// Measures the raw wire rate of `machine`'s link at `congestion`, as
/// Table 4 does ([`measure_wire_rate`]: `words` data-only or
/// address-data-pair words between unconstrained FIFOs), through the
/// installed memo cache. A wire run cannot fail; the result type is the
/// memo's.
pub fn measure_wire(
    machine: &Machine,
    congestion: f64,
    words: u64,
    address_data_pairs: bool,
) -> SimResult<Measurement> {
    let point = wire_point(congestion, words, address_data_pairs);
    crate::memo::cached(machine, point, || {
        Ok(measure_wire_rate(
            machine.link(congestion),
            words,
            address_data_pairs,
        ))
    })
}

/// The memo point [`measure_wire`] looks up.
pub fn wire_point(congestion: f64, words: u64, address_data_pairs: bool) -> Point {
    Point::Wire {
        congestion_bits: congestion.to_bits(),
        words,
        address_data_pairs,
    }
}

/// Runs one basic-transfer simulation unconditionally, bypassing the memo
/// cache. The cache's correctness rests on this being a pure function of
/// its arguments.
///
/// # Errors
///
/// Propagates any [`memcomm_memsim::SimError`] from the scenario run.
pub fn simulate_basic(
    machine: &Machine,
    transfer: BasicTransfer,
    words: u64,
) -> SimResult<Option<Measurement>> {
    let obs = memcomm_obs::Obs::current();
    if !obs.is_enabled() {
        return simulate_basic_inner(machine, transfer, words);
    }
    // Each simulated (non-memoized) microbenchmark gets its own trace
    // process; memo-cache hits never reach this path, so a trace shows
    // exactly the simulations that actually ran.
    let _point = obs.point_scope(&format!("{} {transfer}", machine.name));
    let result = simulate_basic_inner(machine, transfer, words);
    obs.count("microbench.simulated", 1);
    if obs.tracing() {
        if let Ok(Some(m)) = &result {
            obs.span("microbench", &transfer.to_string(), 0, m.cycles);
        }
    }
    result
}

fn simulate_basic_inner(
    machine: &Machine,
    transfer: BasicTransfer,
    words: u64,
) -> SimResult<Option<Measurement>> {
    let mut node = make_node(machine);
    let read = transfer.read_pattern();
    let write = transfer.write_pattern();
    match transfer.engine() {
        Engine::Copy => match (read.is_memory(), write.is_memory()) {
            (true, true) => {
                let src = alloc_pattern_walk(&mut node, read, words, 11)?;
                let dst = alloc_pattern_walk(&mut node, write, words, 23)?;
                Ok(Some(scenario::run_local_copy(&mut node, &src, &dst)?))
            }
            (true, false) => {
                let src = alloc_pattern_walk(&mut node, read, words, 11)?;
                Ok(Some(scenario::run_load_stream(&mut node, &src)?))
            }
            (false, true) => {
                let dst = alloc_pattern_walk(&mut node, write, words, 23)?;
                Ok(Some(scenario::run_store_stream(&mut node, &dst)?))
            }
            (false, false) => Ok(None),
        },
        Engine::LoadSend => {
            let src = alloc_pattern_walk(&mut node, read, words, 11)?;
            Ok(Some(scenario::run_load_send(
                &mut node,
                &src,
                None,
                machine.port_word_cycles(),
            )?))
        }
        Engine::FetchSend => {
            if !machine.caps.fetch_send || read != AccessPattern::Contiguous {
                return Ok(None);
            }
            let src = alloc_pattern_walk(&mut node, read, words, 11)?;
            Ok(Some(scenario::run_fetch_send(
                &mut node,
                &src,
                machine.port_word_cycles(),
            )?))
        }
        Engine::ReceiveStore => {
            if !machine.caps.receive_store {
                return Ok(None);
            }
            let addressed = write != AccessPattern::Contiguous;
            let dst = alloc_pattern_walk(&mut node, write, words, 23)?;
            Ok(Some(scenario::run_receive_store(
                &mut node,
                &dst,
                addressed,
                feed_cycles(machine, addressed),
            )?))
        }
        Engine::ReceiveDeposit => {
            let addressed = write != AccessPattern::Contiguous;
            if addressed && !machine.deposit_noncontiguous() {
                return Ok(None);
            }
            let dst = alloc_pattern_walk(&mut node, write, words, 23)?;
            Ok(Some(scenario::run_receive_deposit(
                &mut node,
                &dst,
                addressed,
                feed_cycles(machine, addressed),
            )?))
        }
        Engine::NetData => Ok(Some(measure_wire_rate(
            machine.link(machine.default_congestion),
            words,
            false,
        ))),
        Engine::NetAddrData => Ok(Some(measure_wire_rate(
            machine.link(machine.default_congestion),
            words,
            true,
        ))),
    }
}

/// Measures one basic transfer and converts to MB/s.
///
/// # Errors
///
/// Propagates simulation errors from [`measure_basic`].
pub fn measure_rate(
    machine: &Machine,
    transfer: BasicTransfer,
    words: u64,
) -> SimResult<Option<Throughput>> {
    Ok(measure_basic(machine, transfer, words)?.map(|m| m.throughput(machine.clock())))
}

/// The standard set of transfers a machine's rate table covers: the
/// patterns of Tables 1–3 plus stride anchors for interpolation and the
/// network rates at the machine's representative congestion.
pub fn standard_transfers() -> Vec<BasicTransfer> {
    use AccessPattern::{Contiguous as C1, Indexed as W};
    let s = |n: u32| AccessPattern::strided(n).expect("static strides");
    let mut out = vec![
        BasicTransfer::copy(C1, C1),
        BasicTransfer::copy(C1, W),
        BasicTransfer::copy(W, C1),
        BasicTransfer::load_stream(C1),
        BasicTransfer::store_stream(C1),
        BasicTransfer::load_stream(W),
        BasicTransfer::store_stream(W),
        BasicTransfer::load_send(C1),
        BasicTransfer::load_send(W),
        BasicTransfer::fetch_send(C1),
        BasicTransfer::receive_store(C1),
        BasicTransfer::receive_store(W),
        BasicTransfer::receive_deposit(C1),
        BasicTransfer::receive_deposit(W),
        BasicTransfer::net_data(),
        BasicTransfer::net_addr_data(),
    ];
    for n in [2u32, 4, 8, 16, 32, 64] {
        out.push(BasicTransfer::copy(C1, s(n)));
        out.push(BasicTransfer::copy(s(n), C1));
        out.push(BasicTransfer::load_send(s(n)));
        out.push(BasicTransfer::receive_store(s(n)));
        out.push(BasicTransfer::receive_deposit(s(n)));
        out.push(BasicTransfer::load_stream(s(n)));
        out.push(BasicTransfer::store_stream(s(n)));
    }
    out
}

/// Measures the machine's full standard rate table. Unsupported transfers
/// are simply absent, mirroring the "–" cells of the paper's tables.
///
/// Every transfer is looked up, one after another in table order, through
/// the installed memo cache; a sweep simulates them beforehand in its one
/// fan-out, so there they are lookups.
///
/// # Errors
///
/// Returns the first simulation error among the transfers (in table order).
pub fn measure_table(machine: &Machine, words: u64) -> SimResult<RateTable> {
    // Every transfer runs before the first error returns, so a transfer
    // that panics fails the caller whatever errors come before it.
    let rates: Vec<_> = standard_transfers()
        .into_iter()
        .map(|t| Ok(measure_rate(machine, t, words)?.map(|r| (t, r))))
        .collect();
    let mut table = RateTable::default();
    for rate in rates {
        if let Some((t, r)) = rate? {
            table.insert(t, r);
        }
    }
    Ok(table)
}

/// Which side of a copy is strided in a stride sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideSide {
    /// `sC1`: strided loads, contiguous stores.
    Loads,
    /// `1Cs`: contiguous loads, strided stores.
    Stores,
}

/// Sweeps local-copy throughput over strides — the data for Figure 4.
///
/// # Errors
///
/// Returns the first simulation error among the strides (in sweep order).
pub fn stride_sweep(
    machine: &Machine,
    strides: &[u32],
    words: u64,
    side: StrideSide,
) -> SimResult<Vec<(u32, Throughput)>> {
    // Every stride runs before the first error returns, as in
    // `measure_table`.
    let rates: Vec<_> = strides
        .iter()
        .map(|&n| {
            let s = AccessPattern::strided(n).expect("sweep strides are >= 1");
            let t = match side {
                StrideSide::Loads => BasicTransfer::copy(s, AccessPattern::Contiguous),
                StrideSide::Stores => BasicTransfer::copy(AccessPattern::Contiguous, s),
            };
            let rate =
                measure_rate(machine, t, words)?.ok_or(memcomm_memsim::SimError::Protocol {
                    detail: "local copies always run".to_string(),
                    at: 0,
                })?;
            Ok((n, rate))
        })
        .collect();
    rates.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDS: u64 = 4096;

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation_index(1000, 7);
        let mut seen = vec![false; 1000];
        for &i in &p {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert_ne!(permutation_index(1000, 7), permutation_index(1000, 8));
    }

    #[test]
    fn extreme_sizes_fail_with_out_of_memory() {
        // 2^61 words wrap every byte count; 5e9 words is past the 32-bit
        // index range. Indexed walks fail before building a permutation.
        for words in [1 << 61, 5_000_000_000] {
            for notation in ["1C1", "1C64", "64C1", "1Cw", "wC1"] {
                let t = BasicTransfer::parse(notation).unwrap();
                for m in [Machine::t3d(), Machine::paragon()] {
                    assert!(
                        matches!(
                            simulate_basic(&m, t, words),
                            Err(memcomm_memsim::SimError::OutOfMemory { .. })
                        ),
                        "{} {notation} at {words} words",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn unsupported_transfers_are_none() {
        let t3d = Machine::t3d();
        let none = |m: &Machine, t: &str| {
            measure_basic(m, BasicTransfer::parse(t).unwrap(), WORDS)
                .unwrap()
                .is_none()
        };
        assert!(none(&t3d, "1F0"));
        assert!(none(&t3d, "0R1"));
        let paragon = Machine::paragon();
        assert!(none(&paragon, "0D64"));
        assert!(none(&paragon, "0Dw"));
    }

    #[test]
    fn table_has_the_supported_entries() {
        let t3d = Machine::t3d();
        let table = measure_table(&t3d, WORDS).unwrap();
        assert!(table.get(BasicTransfer::parse("1C1").unwrap()).is_some());
        assert!(table.get(BasicTransfer::parse("0Dw").unwrap()).is_some());
        assert!(table.get(BasicTransfer::parse("1F0").unwrap()).is_none());
        assert!(table.len() > 30);
    }

    #[test]
    fn stride_sweep_is_monotonically_ordered_overall() {
        let t3d = Machine::t3d();
        let sweep = stride_sweep(&t3d, &[2, 8, 64], WORDS, StrideSide::Stores).unwrap();
        assert!(
            sweep[0].1 >= sweep[2].1,
            "small strides are at least as fast"
        );
    }
}

//! Key-completeness tier for the memo cache's co-simulated points.
//!
//! Every input of every memoized entry point must be part of its key, or
//! a lookup would answer one point with another's result. Through one
//! shared installed cache, each check changes one input of a base point at
//! a time — the patterns, the style, every `ExchangeConfig` field, every
//! `LibraryProfile` field, the words, a wire run's congestion and framing,
//! every `FaultConfig` and `ProtocolConfig` field of a resilient transfer,
//! and the machine — and asserts that the changed point misses, returns
//! exactly what an uncached run returns, and hits on the repeat. Exchange and get points share patterns and
//! parameters, so the shared cache also shows the kinds never collide.
//! And a point measured through `measure_point`, as the sweep's simulate
//! phase measures it, is exactly the entry its own function looks up.

use std::fmt::Debug;

use memcomm_commops::{
    cached_resilient_transfer, exchange_point, get_point, measure_message, measure_point,
    message_point, resilient_point, run_exchange, run_get_exchange, ExchangeConfig, LibraryProfile,
    ProtocolConfig, Style,
};
use memcomm_machines::memo::{self, MemoCache, MemoHandle, Point, PointValue};
use memcomm_machines::{microbench, Machine};
use memcomm_memsim::fault::{FaultConfig, FaultPlan};
use memcomm_memsim::SimResult;
use memcomm_model::{AccessPattern, BasicTransfer};

const C: AccessPattern = AccessPattern::Contiguous;
const S8: AccessPattern = AccessPattern::Strided(8);

/// Runs `point` with no cache, then twice through `cache`: the first
/// lookup must miss and the second hit, and both must return the uncached
/// result.
fn assert_new_point<T: PartialEq + Debug>(cache: &MemoHandle, what: &str, point: impl Fn() -> T) {
    assert!(
        memo::current().is_none(),
        "{what}: the uncached run needs no handle"
    );
    let uncached = point();
    let _guard = memo::install(cache);
    for (pass, hits, misses) in [("first", 0, 1), ("repeat", 1, 0)] {
        let before = cache.stats();
        let got = point();
        let delta = cache.stats().since(before);
        assert_eq!(
            got, uncached,
            "{what}: {pass} lookup differs from an uncached run"
        );
        assert_eq!(
            (delta.hits, delta.misses),
            (hits, misses),
            "{what}: {pass} lookup"
        );
    }
}

fn ablated_t3d() -> Machine {
    let mut m = Machine::t3d();
    m.node.path.readahead.enabled = false;
    m
}

/// A base exchange point and one variant per input, each differing from
/// the base in exactly that input.
fn exchange_cases() -> Vec<(
    &'static str,
    Machine,
    AccessPattern,
    AccessPattern,
    Style,
    ExchangeConfig,
)> {
    let base = ExchangeConfig {
        words: 256,
        ..ExchangeConfig::default()
    };
    let t3d = Machine::t3d();
    let bp = Style::BufferPacking;
    let with = |f: fn(&mut ExchangeConfig)| {
        let mut cfg = base;
        f(&mut cfg);
        cfg
    };
    vec![
        ("base", t3d.clone(), C, S8, bp, base),
        ("x", t3d.clone(), AccessPattern::Indexed, S8, bp, base),
        ("y", t3d.clone(), C, AccessPattern::Strided(16), bp, base),
        ("style", t3d.clone(), C, S8, Style::Chained, base),
        ("words", t3d.clone(), C, S8, bp, with(|c| c.words = 320)),
        (
            "chunk_words",
            t3d.clone(),
            C,
            S8,
            bp,
            with(|c| c.chunk_words = Some(64)),
        ),
        (
            "congestion",
            t3d.clone(),
            C,
            S8,
            bp,
            with(|c| c.congestion = Some(1.0)),
        ),
        (
            "full_duplex",
            t3d.clone(),
            C,
            S8,
            bp,
            with(|c| c.full_duplex = false),
        ),
        (
            "elide_contiguous_copies",
            t3d.clone(),
            C,
            S8,
            bp,
            with(|c| c.elide_contiguous_copies = true),
        ),
        ("seed", t3d.clone(), C, S8, bp, with(|c| c.seed = 7)),
        (
            "max_cycles",
            t3d.clone(),
            C,
            S8,
            bp,
            with(|c| c.max_cycles = Some(1_000)),
        ),
        ("machine", Machine::paragon(), C, S8, bp, base),
        ("ablation", ablated_t3d(), C, S8, bp, base),
    ]
}

/// One named input and how a variant changes it.
type Change<T> = (&'static str, fn(&mut T));

/// A base resilient transfer and one variant per input, each differing from
/// the base in exactly that input.
fn resilient_cases() -> Vec<(
    String,
    Machine,
    AccessPattern,
    AccessPattern,
    Style,
    FaultConfig,
    ProtocolConfig,
)> {
    let faults = FaultConfig {
        seed: 3,
        rate: 0.01,
        ..FaultConfig::default()
    };
    let protocol = ProtocolConfig {
        words: 256,
        ..ProtocolConfig::default()
    };
    let fault_fields: [Change<FaultConfig>; 9] = [
        ("seed", |f| f.seed = 4),
        ("rate", |f| f.rate = 0.02),
        ("max_jitter_cycles", |f| f.max_jitter_cycles += 1),
        ("max_stall_cycles", |f| f.max_stall_cycles += 1),
        ("outage_rate", |f| f.outage_rate = 0.5),
        ("outage_window_rate", |f| f.outage_window_rate = 0.5),
        ("outage_window_cycles", |f| f.outage_window_cycles += 1),
        ("outage_period_cycles", |f| f.outage_period_cycles += 1),
        ("permanent_outage_rate", |f| f.permanent_outage_rate = 0.5),
    ];
    let protocol_fields: [Change<ProtocolConfig>; 8] = [
        ("words", |p| p.words = 320),
        ("frame_words", |p| p.frame_words = 32),
        ("timeout_cycles", |p| p.timeout_cycles += 1),
        ("backoff_factor", |p| p.backoff_factor = 3),
        ("max_timeout_cycles", |p| p.max_timeout_cycles += 1),
        ("max_retries", |p| p.max_retries = 2),
        ("seed", |p| p.seed = 7),
        ("max_cycles", |p| p.max_cycles = Some(1_000)),
    ];
    let t3d = Machine::t3d();
    let bp = Style::BufferPacking;
    let mut cases = vec![
        ("base".to_string(), t3d.clone(), C, S8, bp, faults, protocol),
        (
            "x".into(),
            t3d.clone(),
            AccessPattern::Indexed,
            S8,
            bp,
            faults,
            protocol,
        ),
        (
            "y".into(),
            t3d.clone(),
            C,
            AccessPattern::Strided(16),
            bp,
            faults,
            protocol,
        ),
        (
            "style".into(),
            t3d.clone(),
            C,
            S8,
            Style::Chained,
            faults,
            protocol,
        ),
        (
            "machine".into(),
            Machine::paragon(),
            C,
            S8,
            bp,
            faults,
            protocol,
        ),
        (
            "ablation".into(),
            ablated_t3d(),
            C,
            S8,
            bp,
            faults,
            protocol,
        ),
    ];
    for (field, change) in fault_fields {
        let mut f = faults;
        change(&mut f);
        cases.push((
            format!("faults.{field}"),
            t3d.clone(),
            C,
            S8,
            bp,
            f,
            protocol,
        ));
    }
    for (field, change) in protocol_fields {
        let mut p = protocol;
        change(&mut p);
        cases.push((
            format!("protocol.{field}"),
            t3d.clone(),
            C,
            S8,
            bp,
            faults,
            p,
        ));
    }
    cases
}

/// A base wire run and one variant per input.
fn wire_cases() -> Vec<(&'static str, Machine, f64, u64, bool)> {
    let t3d = Machine::t3d();
    vec![
        ("base", t3d.clone(), 2.0, 256, false),
        ("congestion", t3d.clone(), 1.0, 256, false),
        ("words", t3d.clone(), 2.0, 320, false),
        ("address_data_pairs", t3d.clone(), 2.0, 256, true),
        ("machine", Machine::paragon(), 2.0, 256, false),
        ("ablation", ablated_t3d(), 2.0, 256, false),
    ]
}

#[test]
fn every_input_of_every_point_kind_is_in_the_key() {
    let cache = MemoCache::unbounded();

    for (input, m, x, y, style, cfg) in exchange_cases() {
        let run = || run_exchange(&m, x, y, style, &cfg);
        // A budget too small to finish is an error, stored like a value.
        assert_eq!(run().is_err(), input == "max_cycles", "exchange {input}");
        assert_new_point(&cache, &format!("exchange {input}"), run);
    }

    for (input, m, x, y, style, cfg) in exchange_cases() {
        if style == Style::Chained {
            continue; // gets have no style
        }
        assert_new_point(&cache, &format!("get {input}"), || {
            run_get_exchange(&m, x, y, &cfg)
        });
    }

    let t3d = Machine::t3d();
    let low = LibraryProfile::low_level(&t3d);
    for (input, m, profile, words) in [
        ("base", t3d.clone(), low, 256),
        (
            "name",
            t3d.clone(),
            LibraryProfile {
                name: "renamed",
                ..low
            },
            256,
        ),
        (
            "per_message_cycles",
            t3d.clone(),
            LibraryProfile {
                per_message_cycles: low.per_message_cycles + 1,
                ..low
            },
            256,
        ),
        (
            "system_buffering",
            t3d.clone(),
            LibraryProfile {
                system_buffering: true,
                ..low
            },
            256,
        ),
        ("words", t3d.clone(), low, 320),
        ("empty", t3d.clone(), low, 0),
        ("ablation", ablated_t3d(), low, 256),
    ] {
        assert_new_point(&cache, &format!("message {input}"), || {
            measure_message(&m, profile, words)
        });
    }

    let c1 = BasicTransfer::parse("1C1").expect("parses");
    for (input, m, transfer, words) in [
        ("base", t3d.clone(), c1, 256),
        (
            "transfer",
            t3d.clone(),
            BasicTransfer::parse("1C8").expect("parses"),
            256,
        ),
        ("words", t3d.clone(), c1, 320),
        ("ablation", ablated_t3d(), c1, 256),
    ] {
        assert_new_point(&cache, &format!("basic {input}"), || {
            microbench::measure_basic(&m, transfer, words)
        });
    }

    for (input, m, congestion, words, pairs) in wire_cases() {
        assert_new_point(&cache, &format!("wire {input}"), || {
            microbench::measure_wire(&m, congestion, words, pairs)
        });
    }

    for (input, m, x, y, style, faults, protocol) in resilient_cases() {
        let run = || cached_resilient_transfer(&m, x, y, style, FaultPlan::new(faults), &protocol);
        // A budget too small to finish is an error, stored like a value.
        assert_eq!(
            run().is_err(),
            input == "protocol.max_cycles",
            "resilient {input}"
        );
        assert_new_point(&cache, &format!("resilient {input}"), run);
    }
}

/// Measures `point` through `measure_point` on a fresh cache, then runs its
/// entry function: the run must hit the stored entry and return its value.
fn assert_planned<T: PointValue + Debug>(
    what: &str,
    machine: &Machine,
    point: Point,
    run: impl Fn() -> SimResult<T>,
) {
    let cache = MemoCache::unbounded();
    let _guard = memo::install(&cache);
    let planned = measure_point(machine, point).map(T::from_value);
    let before = cache.stats();
    let got = run();
    let delta = cache.stats().since(before);
    assert_eq!((delta.hits, delta.misses), (1, 0), "{what}: lookup");
    assert_eq!(format!("{got:?}"), format!("{planned:?}"), "{what}: value");
}

#[test]
fn measure_point_stores_what_each_entry_function_looks_up() {
    for (input, m, x, y, style, cfg) in exchange_cases() {
        assert_planned(
            &format!("exchange {input}"),
            &m,
            exchange_point(x, y, style, &cfg),
            || run_exchange(&m, x, y, style, &cfg),
        );
        assert_planned(&format!("get {input}"), &m, get_point(x, y, &cfg), || {
            run_get_exchange(&m, x, y, &cfg)
        });
    }
    let t3d = Machine::t3d();
    for profile in [LibraryProfile::pvm(&t3d), LibraryProfile::low_level(&t3d)] {
        assert_planned(
            &format!("message {}", profile.name),
            &t3d,
            message_point(profile, 256),
            || measure_message(&t3d, profile, 256),
        );
    }
    for (input, m, congestion, words, pairs) in wire_cases() {
        assert_planned(
            &format!("wire {input}"),
            &m,
            microbench::wire_point(congestion, words, pairs),
            || microbench::measure_wire(&m, congestion, words, pairs),
        );
    }
    for (input, m, x, y, style, faults, protocol) in resilient_cases() {
        let plan = FaultPlan::new(faults);
        assert_planned(
            &format!("resilient {input}"),
            &m,
            resilient_point(x, y, style, plan, &protocol),
            || cached_resilient_transfer(&m, x, y, style, plan, &protocol),
        );
    }
    for transfer in ["1C1", "0D64", "1F0"] {
        let t = BasicTransfer::parse(transfer).expect("parses");
        assert_planned(
            &format!("basic {transfer}"),
            &t3d,
            microbench::basic_point(t, 256),
            || microbench::measure_basic(&t3d, t, 256),
        );
    }
}

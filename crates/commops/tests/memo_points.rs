//! Key-completeness tier for the memo cache's co-simulated points.
//!
//! Every input of every memoized entry point must be part of its key, or
//! a lookup would answer one point with another's result. Through one
//! shared installed cache, each check changes one input of a base point at
//! a time — the patterns, the style, every `ExchangeConfig` field, every
//! `LibraryProfile` field, the words and the machine — and asserts that the
//! changed point misses, returns exactly what an uncached run returns, and
//! hits on the repeat. Exchange and get points share patterns and
//! parameters, so the shared cache also shows the kinds never collide.
//! And a point measured through `measure_point`, as the sweep's simulate
//! phase measures it, is exactly the entry its own function looks up.

use std::fmt::Debug;

use memcomm_commops::{
    exchange_point, get_point, measure_message, measure_point, message_point, run_exchange,
    run_get_exchange, ExchangeConfig, LibraryProfile, Style,
};
use memcomm_machines::memo::{self, MemoCache, MemoHandle, Point, PointValue};
use memcomm_machines::{microbench, Machine};
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

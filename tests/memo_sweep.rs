//! The memo cache across a whole sweep: a warm pass on the cache a cold
//! pass filled simulates nothing — basic transfers, pattern and get
//! exchanges and library messages alike — and renders the cold pass's
//! bytes, at one and at four workers, traced and untraced.
//!
//! One `#[test]`: every run must render the bytes of the first.

use memcomm::commops::{
    measure_message, run_exchange, run_get_exchange, ExchangeConfig, LibraryProfile, Style,
};
use memcomm::machines::memo::{self, MemoCache};
use memcomm::machines::{microbench, Machine};
use memcomm::model::{AccessPattern, BasicTransfer};
use memcomm_bench::runner::{run_sweep, SweepOptions};
use memcomm_obs::Obs;

const MICRO_WORDS: u64 = 1024;
const EXCHANGE_WORDS: u64 = 256;

/// Looks up one point of every kind the sweep measures (Table 1's `1C1`,
/// put/get's `1Q1` put and get, a Figure 1 PVM message) and returns how
/// many missed.
fn kind_misses() -> u64 {
    let t3d = Machine::t3d();
    let c = AccessPattern::Contiguous;
    let cfg = ExchangeConfig {
        words: EXCHANGE_WORDS,
        ..ExchangeConfig::default()
    };
    let before = memo::stats();
    let c1 = BasicTransfer::parse("1C1").expect("parses");
    microbench::measure_basic(&t3d, c1, MICRO_WORDS).expect("basic");
    run_exchange(&t3d, c, c, Style::Chained, &cfg).expect("put");
    run_get_exchange(&t3d, c, c, &cfg).expect("get");
    measure_message(&t3d, LibraryProfile::pvm(&t3d), 1024).expect("message");
    memo::stats().since(before).misses
}

#[test]
fn a_warm_sweep_misses_nothing_and_renders_the_cold_bytes() {
    let mut reference: Option<String> = None;
    for jobs in [1, 4] {
        for trace in [false, true] {
            let what = format!("jobs {jobs}, trace {trace}");
            let opts = SweepOptions {
                jobs,
                micro_words: MICRO_WORDS,
                exchange_words: EXCHANGE_WORDS,
                ..SweepOptions::default()
            };
            let obs = Obs::new(trace);
            let _obs = obs.install();
            let cache = MemoCache::unbounded();
            let _memo = memo::install(&cache);

            let (cold, cold_metrics) = run_sweep(&opts);
            assert!(
                cold.sections.iter().all(|s| s.ok),
                "{what}: {:?}",
                cold.sections
            );
            assert_eq!(kind_misses(), 0, "{what}: the cold pass stores every kind");
            let (warm, warm_metrics) = run_sweep(&opts);
            assert_eq!(warm_metrics.cache.misses, 0, "{what}: {warm_metrics:?}");
            assert_eq!(
                warm_metrics.cache.hits,
                cold_metrics.cache.hits + cold_metrics.cache.misses,
                "{what}: the warm pass repeats every lookup of the cold pass"
            );

            let bytes = cold.to_json().render();
            assert_eq!(warm.to_json().render(), bytes, "{what}: warm bytes");
            assert_eq!(
                reference.get_or_insert_with(|| bytes.clone()),
                &bytes,
                "{what}: bytes differ from jobs 1 untraced"
            );
            assert_eq!(obs.trace_len() > 0, trace, "{what}: trace recorded");
        }
    }
}

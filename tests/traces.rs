//! Trace-driven validation of the model's premises (Section 3.1).

use memcomm::machines::{microbench, Machine};
use memcomm::memsim::scenario;
use memcomm::model::AccessPattern;

/// "Temporal locality plays only a small role in the memory accesses for
/// communication" — a gather copy's source stream touches each line once.
#[test]
fn communication_streams_have_no_temporal_locality() {
    let m = Machine::t3d();
    let mut node = microbench::make_node(&m);
    let src = microbench::alloc_pattern_walk(&mut node, AccessPattern::Indexed, 4096, 7).unwrap();
    let dst =
        microbench::alloc_pattern_walk(&mut node, AccessPattern::Contiguous, 4096, 8).unwrap();
    node.path.enable_tracing();
    scenario::run_local_copy(&mut node, &src, &dst).expect("simulates");
    let trace = node.path.take_trace().expect("tracing was on");
    assert!(!trace.is_empty());
    // Look at the gather's data loads over the operand region only (the
    // index array itself is re-read, two entries per word — that is the
    // overhead stream, not the operand stream).
    let span = src.region();
    let loads = trace.filter(|e| {
        e.op == memcomm::memsim::trace::TraceOp::Load && e.addr >= span.base && e.addr < span.end()
    });
    // Operand (word-granularity) reuse: each element is read exactly once.
    let reuse = loads.reuse_fraction(8);
    assert!(
        reuse < 0.01,
        "communication stream showed temporal locality: {reuse:.2}"
    );
}

/// "Spatial locality is an important factor": contiguous copies switch DRAM
/// rows rarely, strided copies almost always.
#[test]
fn spatial_locality_separates_patterns_in_the_trace() {
    // The DRAM page the row locality is measured against.
    const ROW_BYTES: u64 = 2048;
    let m = Machine::t3d();
    let trace_of = |pattern: AccessPattern| {
        let mut node = microbench::make_node(&m);
        let src = microbench::alloc_pattern_walk(&mut node, pattern, 4096, 7).unwrap();
        let dst =
            microbench::alloc_pattern_walk(&mut node, AccessPattern::Contiguous, 4096, 8).unwrap();
        node.path.enable_tracing();
        scenario::run_local_copy(&mut node, &src, &dst).expect("simulates");
        node.path.take_trace().expect("tracing was on")
    };
    // Compare the *load streams*: the full trace interleaves loads, posted
    // stores and drains, which is a different (and also interesting)
    // question.
    let loads = |t: &memcomm::memsim::trace::Trace| {
        t.filter(|e| e.op == memcomm::memsim::trace::TraceOp::Load)
    };
    let contiguous = loads(&trace_of(AccessPattern::Contiguous));
    let strided = loads(&trace_of(AccessPattern::strided(512).unwrap()));
    let c = contiguous.row_switch_fraction(ROW_BYTES);
    let s = strided.row_switch_fraction(ROW_BYTES);
    assert!(
        s > 2.0 * c,
        "strided stream must switch rows far more often: {s:.2} vs {c:.2}"
    );
}

/// A chained exchange's trace interleaves the processor and the deposit
/// engine — the port switching the Paragon's bus arbitration punished.
#[test]
fn chained_exchanges_interleave_requesters() {
    use memcomm::commops::{ExchangeConfig, Style};
    // Use the machinery end to end but trace one node by rebuilding the
    // relevant agents here: the send microbenchmark plus deposit traffic is
    // enough to show interleaving, so use the simpler receive path.
    let m = Machine::t3d();
    let mut node = microbench::make_node(&m);
    let dst =
        microbench::alloc_pattern_walk(&mut node, AccessPattern::strided(8).unwrap(), 1024, 3)
            .unwrap();
    node.path.enable_tracing();
    scenario::run_receive_deposit(&mut node, &dst, true, 8).expect("simulates");
    let trace = node.path.take_trace().expect("tracing was on");
    let engine_refs = trace
        .entries()
        .iter()
        .filter(|e| e.port == memcomm::memsim::path::Port::Deposit)
        .count();
    assert!(
        engine_refs > 0,
        "the deposit engine must appear in the trace"
    );

    // And a full exchange still verifies with tracing untouched (tracing is
    // an observer, not a participant).
    let r = memcomm::commops::run_exchange(
        &m,
        AccessPattern::Contiguous,
        AccessPattern::Contiguous,
        Style::Chained,
        &ExchangeConfig {
            words: 512,
            ..ExchangeConfig::default()
        },
    );
    assert!(r.expect("simulates").verified);
}

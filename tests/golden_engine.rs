//! Golden-file regression test for the discrete-event network engine: the
//! Table 6 kernels are pinned row by row at several scales — congestion
//! factors, cycle counts, flit-hops, window counts, and the event-stream
//! digest — from the 8-node smoke torus up to a 256-node (8×8×4) run, byte
//! for byte as `tests/golden/engine_table6.json`.
//!
//! The engine is deterministic and its results are independent of both the
//! worker count and the shard count (the runs here deliberately use the
//! process-wide defaults for both), so the rendered document must match
//! exactly. If a deliberate engine change moves these numbers, regenerate:
//!
//! ```text
//! MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_engine
//! ```

use memcomm_bench::experiments::{engine_table6, EngineSettings};
use memcomm_util::json::Json;

/// The pinned scales: node count, transpose `n`, SOR `n`.
const SCALES: [(usize, u64, u64); 2] = [(8, 256, 256), (256, 512, 256)];

#[test]
fn engine_table6_matches_the_golden_file() {
    let entries = SCALES
        .iter()
        .map(|&(nodes, transpose_n, sor_n)| {
            let settings = EngineSettings {
                nodes,
                transpose_n,
                sor_n,
                // Defaults on purpose: the golden digests must not depend on
                // the worker or shard count, so every regeneration
                // environment — any core count — must reproduce them.
                jobs: 0,
                shards: 0,
            };
            let rows = engine_table6(&settings).expect("engine reproduces");
            Json::obj([
                ("nodes", (nodes as u64).into()),
                ("transpose_n", transpose_n.into()),
                ("sor_n", sor_n.into()),
                (
                    "rows",
                    Json::arr(&rows, |r| {
                        Json::obj([
                            ("kernel", Json::str(&r.kernel)),
                            ("machine", Json::str(&r.machine)),
                            ("engine_congestion", r.engine_congestion.into()),
                            ("analytic_congestion", r.analytic_congestion.into()),
                            ("engine_chained", r.engine_chained.into()),
                            ("analytic_chained", r.analytic_chained.into()),
                            ("cycles", r.cycles.into()),
                            ("flit_hops", r.flit_hops.into()),
                            ("windows", r.windows.into()),
                            ("digest", Json::str(&r.digest)),
                        ])
                    }),
                ),
            ])
        })
        .collect();
    let got = Json::obj([("entries", Json::Arr(entries))]).render();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/engine_table6.json"
    );
    if std::env::var_os("MEMCOMM_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden regenerated");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, golden,
        "engine Table 6 drifted from tests/golden/engine_table6.json \
         (regenerate with MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_engine)"
    );
}

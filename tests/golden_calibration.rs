//! Golden-file regression test: re-derives the calibrated basic-transfer
//! rates behind Tables 1–4 and pins them, with each machine's mean log
//! error against the paper, byte for byte as
//! `tests/golden/calibration.json`.
//!
//! The simulator is deterministic, so the rendered document must match
//! exactly. If a deliberate simulator change moves the rates, regenerate:
//!
//! ```text
//! MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_calibration
//! ```

use memcomm::machines::{calibrate, Machine};
use memcomm_util::json::Json;

/// Words moved by each calibrated transfer.
const WORDS: u64 = 8192;

#[test]
fn calibrated_rates_match_the_golden_file() {
    let machines = [Machine::t3d(), Machine::paragon()]
        .iter()
        .map(|machine| {
            let report = calibrate::calibration_report(machine, WORDS).expect("simulates");
            let mle = calibrate::mean_log_error(&report);
            // The headline claim the README makes: calibration stays within
            // a typical deviation of ~15%.
            assert!(mle < 0.15, "{}: calibration drifted to {mle}", machine.name);
            Json::obj([
                ("machine", Json::str(machine.name)),
                ("mean_log_error", mle.into()),
                (
                    "rows",
                    Json::arr(&report, |r| {
                        Json::obj([
                            ("transfer", Json::str(&r.transfer.to_string())),
                            ("mbps", r.simulated.as_mbps().into()),
                        ])
                    }),
                ),
            ])
        })
        .collect();
    let got = Json::obj([("words", WORDS.into()), ("machines", Json::Arr(machines))]).render();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/calibration.json");
    if std::env::var_os("MEMCOMM_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden regenerated");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, golden,
        "calibrated rates drifted from tests/golden/calibration.json \
         (regenerate with MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_calibration)"
    );
}

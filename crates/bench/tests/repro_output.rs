//! Golden-file regression test for `repro`'s text output: the stdout of a
//! small sweep and of a small sampled storm, pinned byte for byte in
//! `tests/golden/repro_sweep.txt` and `tests/golden/repro_storm.txt`.
//!
//! Both commands are serial, so their stdout is a pure function of the
//! flags (the sweep's wall-clock summary goes to stderr, which is not
//! pinned). The pin is self-regenerating — if a deliberate rendering or
//! model change moves these bytes, regenerate with:
//!
//! ```text
//! MEMCOMM_UPDATE_GOLDEN=1 cargo test -p memcomm-bench --test repro_output
//! ```

use std::process::Command;

/// Golden file name and `repro` arguments of each pinned command.
const COMMANDS: &[(&str, &[&str])] = &[
    (
        "repro_sweep.txt",
        &[
            "--calibration",
            "--table1",
            "--figure4",
            "--table4",
            "--faults",
            "7",
            "--words",
            "1024",
            "--exchange-words",
            "512",
            "--serial",
        ],
    ),
    (
        "repro_storm.txt",
        &[
            "--adversary",
            "incast",
            "--nodes",
            "16",
            "--adversary-bytes",
            "64",
            "--flow-latency",
            "--sample-every",
            "64",
            "--heatmap",
            "--jobs",
            "1",
        ],
    ),
];

#[test]
fn repro_text_output_matches_the_golden_files() {
    for (file, args) in COMMANDS {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("MEMCOMM_UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &got).expect("golden regenerated");
            eprintln!("regenerated {path}");
            continue;
        }
        let golden = std::fs::read_to_string(&path).expect("golden file present");
        assert_eq!(
            got, golden,
            "repro {args:?} stdout drifted from tests/golden/{file} \
             (regenerate with MEMCOMM_UPDATE_GOLDEN=1 cargo test -p memcomm-bench \
             --test repro_output)"
        );
    }
}

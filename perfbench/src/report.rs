//! Result collection, summary statistics and the one-line JSON result.

use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "a percentile needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// One thread's share of [`reference_ms`]: a dependent random walk over
/// 16 MiB and a B-tree of 50k keys, the kinds of work a simulator does.
fn reference_kernel(seed: u64) -> u64 {
    use std::collections::BTreeMap;
    let n = 1usize << 22;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = seed | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in (1..n).rev() {
        let j = (step() % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0usize;
    for _ in 0..(1 << 20) {
        at = next[at] as usize;
    }
    let mut tree = BTreeMap::new();
    for i in 0..50_000u64 {
        tree.insert(step(), i);
    }
    let hits = (0..50_000u64)
        .filter(|k| tree.contains_key(&(k * 7919)))
        .count();
    at as u64 + hits as u64
}

/// Short fork-join rounds: each spawns `threads` scoped threads that spin
/// briefly and joins them. A round waits for its slowest thread, as the
/// engine's per-window fan-out does, so losing a CPU to another tenant
/// slows it the way it slows the parallel workloads.
fn fork_join_rounds(threads: usize, rounds: u32) -> u64 {
    let mut total = 0u64;
    for round in 0..rounds {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|i| {
                    s.spawn(move || {
                        let mut x = (u64::from(round) << 8 | i) | 1;
                        for _ in 0..20_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                        }
                        x
                    })
                })
                .collect();
            for h in handles {
                total ^= h.join().expect("the reference kernel does not panic");
            }
        });
    }
    total
}

/// Milliseconds the host takes for a fixed workload that does not depend
/// on the code under test, run on `threads` threads: the memory and B-tree
/// kernel on every thread at once, then fork-join rounds.
pub fn reference_ms(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|i| s.spawn(move || reference_kernel(0x9E37_79B9_7F4A_7C15 ^ i)))
            .collect();
        for h in handles {
            std::hint::black_box(h.join().expect("the reference kernel does not panic"));
        }
    });
    std::hint::black_box(fork_join_rounds(threads, 1000));
    secs(t) * 1e3
}

/// The flag that makes the benchmark binary run [`reference_ms`] and print
/// its result instead of a workload.
pub const REFERENCE_FLAG: &str = "--host-reference";

/// [`reference_ms`] in a child process, so that the kernel's memory never
/// shows in this process's peak resident set.
pub fn reference_ms_in_child(threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let child = std::process::Command::new(exe)
        .args([REFERENCE_FLAG, &threads.to_string()])
        .output()
        .map_err(|e| format!("cannot run the host reference: {e}"))?;
    std::str::from_utf8(&child.stdout)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|_| child.status.success())
        .ok_or_else(|| format!("the host reference failed: {}", child.status))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, the digest the repository pins report bytes with.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checked operations and named metric values of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is also logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A value that is not finite cannot be written as JSON; it becomes a
    /// failed check instead.
    pub fn render(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in bad {
            self.check(false, || format!("metric {name} is not finite"));
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.put("setup_s", 0.5, "s");
        let line = out.render();
        let doc = memcomm_util::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(
            doc.get("correct"),
            Some(&memcomm_util::json::Json::Bool(true))
        );
        assert!(!line.contains('\n'));
    }
}

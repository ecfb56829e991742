//! The `--collectives` report section: every collective executed on the
//! event engine and priced by the analytic per-round wire model, with the
//! measured communication volume set against its information-theoretic
//! floor.
//!
//! Engine and model are independent (the engine runs flows word by word;
//! the model reduces each round to a closed-form congestion factor), so
//! their cycle ratio is a differential statistic exactly like the
//! `engine_table6` section's throughput ratio — `tests/collectives_vs_model.rs`
//! holds every cell to the paper's Table 6 accuracy band.

use memcomm_commops::collectives::{self, Collective};
use memcomm_kernels::netrun::{self, EngineOptions};
use memcomm_machines::Machine;
use memcomm_memsim::{SimError, SimResult};
use memcomm_util::json::Json;

/// What `--collectives` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveSettings {
    /// Collectives to run (empty = all of [`collectives::ALL`]).
    pub kinds: Vec<Collective>,
    /// Simulated node count (power of two; scaled from each machine's own
    /// topology).
    pub nodes: usize,
    /// Per-node payload words (the broadcast message, the allgather block,
    /// the allreduce vector, the per-peer all-to-all block).
    pub words: u64,
    /// Shard workers (0 = the process-wide setting). Never affects results.
    pub jobs: usize,
    /// Engine shard count (0 = auto). Never affects results either.
    pub shards: usize,
}

impl Default for CollectiveSettings {
    /// All collectives on 64 simulated nodes, 128-word payloads.
    fn default() -> Self {
        CollectiveSettings {
            kinds: Vec::new(),
            nodes: 64,
            words: 128,
            jobs: 0,
            shards: 0,
        }
    }
}

/// One collective × machine cell of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveRow {
    /// Collective name.
    pub collective: String,
    /// Machine name.
    pub machine: String,
    /// Simulated node count.
    pub nodes: u64,
    /// Per-node payload words.
    pub words: u64,
    /// Barrier-separated communication rounds.
    pub rounds: u64,
    /// End-to-end cycles the analytic wire model predicts.
    pub analytic_cycles: u64,
    /// End-to-end cycles the engine measured.
    pub engine_cycles: u64,
    /// engine / analytic cycle ratio — the differential statistic.
    pub ratio: f64,
    /// Emergent congestion factor the engine observed.
    pub engine_congestion: f64,
    /// The closed-form worst-round factor.
    pub analytic_congestion: f64,
    /// Words the schedule moved over the network.
    pub volume_words: u64,
    /// The collective's information-theoretic floor in words.
    pub lower_bound_words: u64,
    /// volume / lower-bound ratio (≥ 1 by construction; asserted).
    pub volume_ratio: f64,
    /// Engine event-stream digest (identical at any jobs × shards).
    pub digest: String,
}

/// Runs the selected collectives on both machines.
///
/// # Errors
///
/// Propagates engine and scheduling failures; a cell whose measured volume
/// falls below its lower bound is reported as a protocol error (it would
/// mean the schedule dropped payload).
pub fn collectives_table(settings: &CollectiveSettings) -> SimResult<Vec<CollectiveRow>> {
    let kinds: Vec<Collective> = if settings.kinds.is_empty() {
        collectives::ALL.to_vec()
    } else {
        settings.kinds.clone()
    };
    let opts = EngineOptions {
        nodes: Some(settings.nodes),
        jobs: settings.jobs,
        shards: settings.shards,
        ..EngineOptions::default()
    };
    let mut rows = Vec::new();
    for machine in [Machine::t3d(), Machine::paragon()] {
        let topo = netrun::engine_topology(&machine, Some(settings.nodes))?;
        for &kind in &kinds {
            let run = netrun::run_collective(&machine, kind, settings.words, &opts)?;
            let cost = collectives::analytic_cost(&machine, &topo, kind, settings.words)?;
            if run.volume_words < run.lower_bound_words {
                return Err(SimError::Protocol {
                    detail: format!(
                        "{} on {}: measured volume {} below the lower bound {}",
                        kind.name(),
                        machine.name,
                        run.volume_words,
                        run.lower_bound_words
                    ),
                    at: 0,
                });
            }
            rows.push(CollectiveRow {
                collective: kind.name().to_string(),
                machine: machine.name.to_string(),
                nodes: settings.nodes as u64,
                words: settings.words,
                rounds: run.rounds,
                analytic_cycles: cost.end_cycle,
                engine_cycles: run.run.cycles,
                ratio: run.run.cycles as f64 / cost.end_cycle as f64,
                engine_congestion: run.run.factor,
                analytic_congestion: cost.congestion,
                volume_words: run.volume_words,
                lower_bound_words: run.lower_bound_words,
                volume_ratio: run.volume_words as f64 / run.lower_bound_words as f64,
                digest: format!("{:016x}", run.run.digest),
            });
        }
    }
    Ok(rows)
}

/// The byte-deterministic JSON form of the section (shared by the full
/// report and the golden pin).
pub fn collectives_json(rows: &[CollectiveRow]) -> Json {
    Json::arr(rows, |r| {
        Json::obj([
            ("collective", Json::str(&r.collective)),
            ("machine", Json::str(&r.machine)),
            ("nodes", r.nodes.into()),
            ("words", r.words.into()),
            ("rounds", r.rounds.into()),
            ("analytic_cycles", r.analytic_cycles.into()),
            ("engine_cycles", r.engine_cycles.into()),
            ("ratio", r.ratio.into()),
            ("engine_congestion", r.engine_congestion.into()),
            ("analytic_congestion", r.analytic_congestion.into()),
            ("volume_words", r.volume_words.into()),
            ("lower_bound_words", r.lower_bound_words.into()),
            ("volume_ratio", r.volume_ratio.into()),
            ("digest", Json::str(&r.digest)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table_covers_kinds_times_machines() {
        let settings = CollectiveSettings {
            kinds: vec![Collective::Broadcast, Collective::AllToAll],
            nodes: 8,
            words: 16,
            jobs: 1,
            shards: 1,
        };
        let rows = collectives_table(&settings).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.volume_ratio >= 1.0);
            assert!(r.analytic_cycles > 0 && r.engine_cycles > 0);
            assert_eq!(r.digest.len(), 16);
        }
        // Rendered bytes are stable enough to diff.
        let a = collectives_json(&rows).render();
        let b = collectives_json(&collectives_table(&settings).unwrap()).render();
        assert_eq!(a, b);
    }
}

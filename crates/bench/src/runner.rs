//! The parallel, memoized sweep engine.
//!
//! [`run_sweep`] evaluates every selected experiment of the reproduction in
//! three phases:
//!
//! 1. **plan** — each selected section's fill runs once under
//!    [`memo::record`], which collects the memo points it looks up (a basic
//!    transfer, a pattern or get exchange, a library message, a wire run
//!    or a resilient transfer, each on one machine) and simulates none of
//!    them, and the runner removes duplicates in first-lookup order;
//! 2. **simulate** — the distinct points run in one fan-out across
//!    [`SweepOptions::jobs`] workers, in plan order, into the measurement
//!    cache ([`memcomm_machines::memo`]);
//! 3. **render** — the sections fill the report one after another, in
//!    report order, from the filled cache.
//!
//! So each distinct point simulates exactly once per cache: the run adopts
//! the caller's installed [`memcomm_machines::memo::MemoHandle`] (the
//! serving process shares one across requests) or installs a fresh one of
//! its own. Every run of the default sections is a memo point, so a warm
//! pass on a filled cache simulates nothing; only the opt-in `engine` and
//! `collectives` sections run unrecorded, as they did.
//!
//! The engine returns two artifacts with deliberately different contracts:
//!
//! * a [`FullReport`] — the machine-readable results. Its JSON rendering is
//!   **byte-deterministic**: points come back in input order whatever the
//!   worker count, floats render shortest-round-trip, and no wall-clock
//!   data is included, so a parallel run is byte-identical to a serial one
//!   (the equivalence tests assert exactly this);
//! * a [`RunMetrics`] — the run's *observability* data (wall times, cache
//!   hit rate, simulated cycles). Timing is inherently nondeterministic, so
//!   it lives here and never contaminates the report.

use std::collections::{BTreeSet, HashSet};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use memcomm_commops::measure_point;
use memcomm_machines::memo::{self, CacheStats, Point};
use memcomm_machines::{calibrate, microbench, Machine};
use memcomm_memsim::stats::{FaultCounters, SimCounters};
use memcomm_memsim::SimResult;
use memcomm_obs::{HistogramSummary, Obs};
use memcomm_util::json::Json;
use memcomm_util::par;

use crate::experiments::{self, EXCHANGE_WORDS, MICRO_WORDS};

/// Every experiment key, in evaluation (and report) order.
pub const SECTIONS: &[&str] = &[
    "calibration",
    "figure1",
    "table1",
    "table2",
    "table3",
    "figure4",
    "table4",
    "figure7",
    "figure8",
    "table5",
    "section341",
    "table6",
    "putget",
    "scaling",
    "accuracy",
    "faults",
];

/// What to run and how wide to fan out.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Worker threads for the point fan-out, and for an engine or
    /// collectives run that sets no worker count of its own (1 = serial).
    /// Only this run reads it.
    pub jobs: usize,
    /// Payload words for microbenchmark measurements.
    pub micro_words: u64,
    /// Payload words for end-to-end exchanges.
    pub exchange_words: u64,
    /// Selected experiment keys (empty = all of [`SECTIONS`]). A set that
    /// names no key, such as an `engine` request's `{"engine"}`, runs only
    /// the opt-in sections.
    pub sections: BTreeSet<String>,
    /// Fault-injection settings for the robustness section. The zero-rate
    /// default makes the section a faultless baseline; its seed is never
    /// echoed into the report or keyed into a memo point, so zero-rate runs
    /// are byte-identical whatever the seed, and share their points.
    pub faults: experiments::FaultSettings,
    /// Also run the per-stage phase-attribution breakdown. Like `engine`
    /// and `collectives`, it is opt-in and no [`SECTIONS`] key, so default
    /// reports keep their exact bytes.
    pub phases: bool,
    /// Also execute Table 6 on the discrete-event network engine.
    pub engine: Option<experiments::EngineSettings>,
    /// Also run the collective-operations layer on the engine and the
    /// analytic wire model.
    pub collectives: Option<crate::collectives::CollectiveSettings>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: par::available_jobs(),
            micro_words: MICRO_WORDS,
            exchange_words: EXCHANGE_WORDS,
            sections: BTreeSet::new(),
            faults: experiments::FaultSettings::default(),
            phases: false,
            engine: None,
            collectives: None,
        }
    }
}

impl SweepOptions {
    /// Whether an experiment key is selected.
    pub fn wants(&self, key: &str) -> bool {
        self.sections.is_empty() || self.sections.contains(key)
    }
}

/// Rows measured on one machine.
#[derive(Debug, Clone)]
pub struct MachineSeries<T> {
    /// Machine name.
    pub machine: String,
    /// The measured rows.
    pub rows: Vec<T>,
}

/// One calibration comparison row (flattened across machines).
#[derive(Debug, Clone)]
pub struct CalRow {
    /// Machine name.
    pub machine: String,
    /// Transfer notation.
    pub transfer: String,
    /// Simulated rate (MB/s).
    pub simulated: f64,
    /// The paper's rate (MB/s).
    pub paper: f64,
    /// `simulated / paper`.
    pub ratio: f64,
}

/// Outcome of one experiment section: completed, or the simulation error /
/// worker panic that stopped it. A failed section leaves its report slice
/// partial (usually empty) and the sweep moves on — the report is still
/// rendered, with the failure on record.
#[derive(Debug, Clone)]
pub struct SectionStatus {
    /// Section name: a [`SECTIONS`] key, `section5` for figures 7/8, or
    /// `phases`, `engine` or `collectives` for the opt-in sections.
    pub name: String,
    /// Whether the section completed.
    pub ok: bool,
    /// The simulation error or panic message, when it did not.
    pub error: Option<String>,
}

/// The complete machine-readable reproduction report.
///
/// Field order is the JSON rendering order; keep it stable — the
/// serial-vs-parallel equivalence tests compare rendered bytes.
#[derive(Debug, Clone, Default)]
pub struct FullReport {
    /// Microbenchmark payload words.
    pub micro_words: u64,
    /// Exchange payload words.
    pub exchange_words: u64,
    /// Calibration rows (both machines, flattened).
    pub calibration: Vec<CalRow>,
    /// Figure 1 series.
    pub figure1: Vec<MachineSeries<experiments::Figure1Point>>,
    /// Table 1 series.
    pub table1: Vec<MachineSeries<experiments::RateRow>>,
    /// Table 2 series.
    pub table2: Vec<MachineSeries<experiments::RateRow>>,
    /// Table 3 series.
    pub table3: Vec<MachineSeries<experiments::RateRow>>,
    /// Figure 4 series.
    pub figure4: Vec<MachineSeries<experiments::StridePoint>>,
    /// Table 4 series.
    pub table4: Vec<MachineSeries<experiments::NetworkRow>>,
    /// Section 5 (Figures 7/8) series.
    pub section5: Vec<MachineSeries<experiments::QRow>>,
    /// Table 5 rows.
    pub table5: Vec<experiments::LoadsVsStoresRow>,
    /// Section 3.4.1 worked example.
    pub section341: Option<experiments::Section341>,
    /// Table 6 rows.
    pub table6: Vec<experiments::KernelRow>,
    /// Put-vs-get extension series.
    pub put_vs_get: Vec<MachineSeries<experiments::PutGetRow>>,
    /// Scaling extension series.
    pub scaling: Vec<MachineSeries<experiments::ScalingPoint>>,
    /// Model-accuracy extension series.
    pub model_accuracy: Vec<MachineSeries<experiments::AccuracyRow>>,
    /// Robustness (fault-injection) series.
    pub faults: Vec<MachineSeries<experiments::FaultRow>>,
    /// Per-stage phase attribution series ([`SweepOptions::phases`]). This
    /// and the two opt-in fields below render only when non-empty, so
    /// default runs keep the bytes of earlier versions.
    pub phases: Vec<MachineSeries<crate::phases::PhaseRow>>,
    /// Event-engine Table 6 rows ([`SweepOptions::engine`]).
    pub engine_table6: Vec<experiments::EngineRow>,
    /// Collective-operations rows ([`SweepOptions::collectives`]).
    pub collectives: Vec<crate::collectives::CollectiveRow>,
    /// Per-section completion status, in evaluation order.
    pub sections: Vec<SectionStatus>,
}

fn series<T>(list: &[MachineSeries<T>], row: impl Fn(&T) -> Json + Copy) -> Json {
    Json::arr(list, |s| {
        Json::obj([
            ("machine", Json::str(&s.machine)),
            ("rows", Json::arr(&s.rows, row)),
        ])
    })
}

impl FullReport {
    /// Renders the report as a deterministic JSON value.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("micro_words", self.micro_words.into()),
            ("exchange_words", self.exchange_words.into()),
            (
                "calibration",
                Json::arr(&self.calibration, |r| {
                    Json::obj([
                        ("machine", Json::str(&r.machine)),
                        ("transfer", Json::str(&r.transfer)),
                        ("simulated", r.simulated.into()),
                        ("paper", r.paper.into()),
                        ("ratio", r.ratio.into()),
                    ])
                }),
            ),
            (
                "figure1",
                series(&self.figure1, |p| {
                    Json::obj([
                        ("message_words", p.message_words.into()),
                        ("pvm", p.pvm.into()),
                        ("low_level", p.low_level.into()),
                    ])
                }),
            ),
            ("table1", series(&self.table1, rate_row)),
            ("table2", series(&self.table2, rate_row)),
            ("table3", series(&self.table3, rate_row)),
            (
                "figure4",
                series(&self.figure4, |p| {
                    Json::obj([
                        ("stride", p.stride.into()),
                        ("loads", p.loads.into()),
                        ("stores", p.stores.into()),
                    ])
                }),
            ),
            (
                "table4",
                series(&self.table4, |r| {
                    Json::obj([
                        ("congestion", r.congestion.into()),
                        ("data_only", r.data_only.into()),
                        ("addr_data", r.addr_data.into()),
                        ("paper_data_only", r.paper_data_only.into()),
                        ("paper_addr_data", r.paper_addr_data.into()),
                    ])
                }),
            ),
            (
                "section5",
                series(&self.section5, |r| {
                    Json::obj([
                        ("op", Json::str(&r.op)),
                        ("sim_bp", r.sim_bp.into()),
                        ("sim_chained", r.sim_chained.into()),
                        ("model_bp", r.model_bp.into()),
                        ("model_chained", r.model_chained.into()),
                        ("paper_model_bp", r.paper_model_bp.into()),
                        ("paper_model_chained", r.paper_model_chained.into()),
                        ("verified", r.verified.into()),
                    ])
                }),
            ),
            (
                "table5",
                Json::arr(&self.table5, |r| {
                    Json::obj([
                        ("op", Json::str(&r.op)),
                        ("machine", Json::str(&r.machine)),
                        ("sim_bp", r.sim_bp.into()),
                        ("sim_chained", r.sim_chained.into()),
                        ("paper_measured_bp", r.paper_measured_bp.into()),
                        ("paper_measured_chained", r.paper_measured_chained.into()),
                        ("paper_model_bp", r.paper_model_bp.into()),
                        ("paper_model_chained", r.paper_model_chained.into()),
                    ])
                }),
            ),
            (
                "section341",
                self.section341.as_ref().map_or(Json::Null, |s| {
                    Json::obj([
                        ("model_estimate", s.model_estimate.into()),
                        ("simulated", s.simulated.into()),
                        ("paper_estimate", s.paper_estimate.into()),
                        ("paper_measured", s.paper_measured.into()),
                    ])
                }),
            ),
            (
                "table6",
                Json::arr(&self.table6, |r| {
                    Json::obj([
                        ("kernel", Json::str(&r.kernel)),
                        ("sim_bp", r.sim_bp.into()),
                        ("sim_chained", r.sim_chained.into()),
                        ("sim_pvm", r.sim_pvm.into()),
                        ("model_chained", r.model_chained.into()),
                        ("paper_bp", r.paper_bp.into()),
                        ("paper_chained", r.paper_chained.into()),
                        ("paper_model_chained", r.paper_model_chained.into()),
                        ("paper_pvm3", r.paper_pvm3.into()),
                        ("congestion", r.congestion.into()),
                        ("verified", r.verified.into()),
                    ])
                }),
            ),
            (
                "put_vs_get",
                series(&self.put_vs_get, |r| {
                    Json::obj([
                        ("op", Json::str(&r.op)),
                        ("put", r.put.into()),
                        ("get", r.get.into()),
                        ("verified", r.verified.into()),
                    ])
                }),
            ),
            (
                "scaling",
                series(&self.scaling, |p| {
                    Json::obj([
                        ("n", p.n.into()),
                        ("patch_words", p.patch_words.into()),
                        ("pvm", p.pvm.into()),
                        ("buffer_packing", p.buffer_packing.into()),
                        ("chained", p.chained.into()),
                    ])
                }),
            ),
            (
                "model_accuracy",
                series(&self.model_accuracy, |r| {
                    Json::obj([
                        ("op", Json::str(&r.op)),
                        ("style", Json::str(&r.style)),
                        ("model", r.model.into()),
                        ("simulated", r.simulated.into()),
                        ("ratio", r.ratio.into()),
                    ])
                }),
            ),
            (
                "faults",
                series(&self.faults, |r| {
                    Json::obj([
                        ("op", Json::str(&r.op)),
                        ("style", Json::str(&r.style)),
                        ("mbps", r.mbps.into()),
                        ("frames_sent", r.frames_sent.into()),
                        ("retransmissions", r.retransmissions.into()),
                        ("degraded", r.degraded.into()),
                        ("verified", r.verified.into()),
                        ("error", r.error.as_deref().map_or(Json::Null, Json::str)),
                    ])
                }),
            ),
        ];
        if !self.phases.is_empty() {
            pairs.push(("phases", series(&self.phases, phase_row)));
        }
        if !self.engine_table6.is_empty() {
            pairs.push((
                "engine_table6",
                Json::arr(&self.engine_table6, |r| {
                    Json::obj([
                        ("kernel", Json::str(&r.kernel)),
                        ("machine", Json::str(&r.machine)),
                        ("nodes", r.nodes.into()),
                        ("engine_congestion", r.engine_congestion.into()),
                        ("analytic_congestion", r.analytic_congestion.into()),
                        ("engine_chained", r.engine_chained.into()),
                        ("analytic_chained", r.analytic_chained.into()),
                        ("ratio", r.ratio.into()),
                        ("cycles", r.cycles.into()),
                        ("flit_hops", r.flit_hops.into()),
                        ("windows", r.windows.into()),
                        ("digest", Json::str(&r.digest)),
                        ("verified", r.verified.into()),
                    ])
                }),
            ));
        }
        if !self.collectives.is_empty() {
            pairs.push((
                "collectives",
                crate::collectives::collectives_json(&self.collectives),
            ));
        }
        pairs.push((
            "sections",
            Json::arr(&self.sections, |st| {
                Json::obj([
                    ("name", Json::str(&st.name)),
                    ("ok", st.ok.into()),
                    ("error", st.error.as_deref().map_or(Json::Null, Json::str)),
                ])
            }),
        ));
        Json::obj(pairs)
    }
}

fn phase_row(r: &crate::phases::PhaseRow) -> Json {
    const IDX: [usize; 5] = [0, 1, 2, 3, 4];
    Json::obj([
        ("op", Json::str(&r.op)),
        ("style", Json::str(&r.style)),
        ("end_cycle", r.end_cycle.into()),
        ("attribution_error", r.attribution_error.into()),
        (
            "stages",
            Json::arr(&IDX, |&i| {
                Json::obj([
                    ("stage", Json::str(crate::phases::PhaseRow::STAGES[i])),
                    ("sim_cycles", r.sim[i].into()),
                    ("model_cycles", r.model[i].into()),
                ])
            }),
        ),
    ])
}

fn rate_row(r: &experiments::RateRow) -> Json {
    Json::obj([
        ("transfer", Json::str(&r.transfer)),
        ("simulated", r.simulated.into()),
        ("paper", r.paper.into()),
    ])
}

/// Wall time and point count for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentMetrics {
    /// Section name, as in [`SectionStatus::name`].
    pub name: String,
    /// Wall-clock milliseconds of the section's render: its fill reading
    /// the points the simulate phase cached, plus whatever it runs that is
    /// no memo point.
    pub wall_ms: f64,
    /// Result rows produced.
    pub points: u64,
}

/// Observability data for one sweep run. Deliberately separate from
/// [`FullReport`]: wall times differ run to run, so they must never enter
/// the deterministic report.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Worker threads used.
    pub jobs: usize,
    /// Total result rows across all experiments.
    pub points: u64,
    /// Distinct memo points the selected sections' recorded fills look up,
    /// each simulated at most once (a cold run on a fresh cache misses
    /// exactly these).
    pub planned: u64,
    /// Host milliseconds spent planning: recording the selected sections'
    /// fills and removing duplicate points.
    pub plan_ms: f64,
    /// Host milliseconds spent simulating the planned points.
    pub simulate_ms: f64,
    /// Host milliseconds spent after the simulate phase: rendering the
    /// sections from the cache (about the sum of the experiments'
    /// `wall_ms`).
    pub render_ms: f64,
    /// Measurement-cache counters for this run (hits, misses, entries).
    pub cache: CacheStats,
    /// Simulation counters for this run: cycles, words, count, and the
    /// co-simulation driver's moves and blocked step calls. They count
    /// only the simulations that ran, so a memo hit adds nothing.
    pub sim: SimCounters,
    /// Fault-machinery counters for this run (injected, retried, degraded,
    /// dropped). Like `sim`, they count only the simulations that ran.
    pub faults: FaultCounters,
    /// Total wall-clock milliseconds: `plan_ms + simulate_ms + render_ms`.
    pub wall_ms: f64,
    /// Registry histogram summaries at the end of the run (protocol frame
    /// latency, retries per frame, queue depths), sorted by name. They
    /// sample only the simulations that ran: a memo hit records nothing.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-experiment breakdown.
    pub experiments: Vec<ExperimentMetrics>,
}

impl RunMetrics {
    /// Renders the metrics as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", (self.jobs as u64).into()),
            ("points", self.points.into()),
            ("planned", self.planned.into()),
            ("cache_hits", self.cache.hits.into()),
            ("cache_misses", self.cache.misses.into()),
            ("cache_entries", self.cache.entries.into()),
            ("cache_evictions", self.cache.evictions.into()),
            ("cache_hit_rate", self.cache.hit_rate().into()),
            ("sim_cycles", self.sim.cycles.into()),
            ("sim_words", self.sim.words.into()),
            ("measurements", self.sim.measurements.into()),
            ("drive_steps", self.sim.drive_steps.into()),
            ("drive_blocked", self.sim.drive_blocked.into()),
            ("faults_injected", self.faults.injected.into()),
            ("faults_retried", self.faults.retried.into()),
            ("faults_degraded", self.faults.degraded.into()),
            ("faults_dropped", self.faults.dropped.into()),
            ("wall_ms", self.wall_ms.into()),
            ("plan_ms", self.plan_ms.into()),
            ("simulate_ms", self.simulate_ms.into()),
            ("render_ms", self.render_ms.into()),
            (
                "histograms",
                Json::arr(&self.histograms, |(name, h)| {
                    Json::obj([
                        ("name", Json::str(name)),
                        ("count", h.count.into()),
                        ("sum", h.sum.into()),
                        ("min", h.min.into()),
                        ("max", h.max.into()),
                        ("mean", h.mean.into()),
                        ("p50", h.p50.into()),
                        ("p99", h.p99.into()),
                        ("p999", h.p999.into()),
                    ])
                }),
            ),
            (
                "experiments",
                Json::arr(&self.experiments, |e| {
                    Json::obj([
                        ("name", Json::str(&e.name)),
                        ("wall_ms", e.wall_ms.into()),
                        ("points", e.points.into()),
                    ])
                }),
            ),
        ])
    }

    /// One-line human summary (cache behaviour + wall time).
    pub fn summary(&self) -> String {
        format!(
            "{} points in {:.0} ms on {} worker(s) ({} planned points: planned in {:.1} ms, simulated in {:.0} ms, rendered in {:.0} ms); cache: {} hits / {} misses ({:.0}% hit rate, {} entries); simulated {} cycles over {} measurements ({} driver steps, {} blocked); faults: {} injected / {} retried / {} degraded / {} dropped",
            self.points,
            self.wall_ms,
            self.jobs,
            self.planned,
            self.plan_ms,
            self.simulate_ms,
            self.render_ms,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries,
            self.sim.cycles,
            self.sim.measurements,
            self.sim.drive_steps,
            self.sim.drive_blocked,
            self.faults.injected,
            self.faults.retried,
            self.faults.degraded,
            self.faults.dropped,
        )
    }
}

/// How a section fills the report: it appends its rows and returns how many.
type Fill = fn(&SweepOptions, &mut FullReport) -> SimResult<u64>;

/// One report section: the name its status and metrics carry, whether the
/// options select it (given that name), whether its fill is recorded for
/// the memo points it looks up, and how it fills the report. [`run_sweep`]
/// records the selected sections of [`TABLE`], simulates the points they
/// look up, then fills them in order.
struct Section {
    name: &'static str,
    selected: fn(&SweepOptions, &str) -> bool,
    /// Whether [`distinct_points`] records the fill. It is false for a
    /// fill whose runs depend on engine runs (`engine`, `collectives`):
    /// recording it would run those.
    recorded: bool,
    fill: Fill,
}

impl Section {
    /// A recorded section selected by its own [`SECTIONS`] key.
    const fn keyed(name: &'static str, fill: Fill) -> Section {
        Section {
            name,
            selected: SweepOptions::wants,
            recorded: true,
            fill,
        }
    }
}

/// Measures one series per machine into `series`; returns the rows added.
fn per_machine<T>(
    machines: &[Machine],
    series: &mut Vec<MachineSeries<T>>,
    rows: impl Fn(&Machine) -> SimResult<Vec<T>>,
) -> SimResult<u64> {
    let mut n = 0;
    for m in machines {
        let rows = rows(m)?;
        n += rows.len() as u64;
        series.push(MachineSeries {
            machine: m.name.to_string(),
            rows,
        });
    }
    Ok(n)
}

/// [`per_machine`] over both of the paper's machines, T3D first.
fn both<T>(
    series: &mut Vec<MachineSeries<T>>,
    rows: impl Fn(&Machine) -> SimResult<Vec<T>>,
) -> SimResult<u64> {
    per_machine(&[Machine::t3d(), Machine::paragon()], series, rows)
}

/// The machines Section 5 covers: the T3D for Figure 7, the Paragon for
/// Figure 8, each when selected.
fn section5_machines(o: &SweepOptions) -> Vec<Machine> {
    [(Machine::t3d(), "figure7"), (Machine::paragon(), "figure8")]
        .into_iter()
        .filter_map(|(m, key)| o.wants(key).then_some(m))
        .collect()
}

/// A worker count of an engine or collectives run: its own, or the
/// sweep's when it sets none (0).
fn or_sweep_jobs(jobs: usize, o: &SweepOptions) -> usize {
    if jobs == 0 {
        o.jobs
    } else {
        jobs
    }
}

/// Every section, in evaluation (and report) order: one per [`SECTIONS`]
/// key, except that figures 7 and 8 share `section5`, then the opt-in
/// sections, each selected by its own option.
const TABLE: &[Section] = &[
    Section::keyed("calibration", |o, r| {
        for m in [Machine::t3d(), Machine::paragon()] {
            for c in calibrate::calibration_report(&m, o.micro_words)? {
                r.calibration.push(CalRow {
                    machine: m.name.to_string(),
                    transfer: c.transfer.to_string(),
                    simulated: c.simulated.as_mbps(),
                    paper: c.paper.as_mbps(),
                    ratio: c.ratio(),
                });
            }
        }
        Ok(r.calibration.len() as u64)
    }),
    Section::keyed("figure1", |_, r| both(&mut r.figure1, experiments::figure1)),
    Section::keyed("table1", |o, r| {
        both(&mut r.table1, |m| experiments::table1(m, o.micro_words))
    }),
    Section::keyed("table2", |o, r| {
        both(&mut r.table2, |m| experiments::table2(m, o.micro_words))
    }),
    Section::keyed("table3", |o, r| {
        both(&mut r.table3, |m| experiments::table3(m, o.micro_words))
    }),
    Section::keyed("figure4", |o, r| {
        both(&mut r.figure4, |m| experiments::figure4(m, o.micro_words))
    }),
    Section::keyed("table4", |o, r| {
        both(&mut r.table4, |m| experiments::table4(m, o.micro_words))
    }),
    Section {
        name: "section5",
        selected: |o, _| o.wants("figure7") || o.wants("figure8"),
        recorded: true,
        fill: |o, r| {
            per_machine(&section5_machines(o), &mut r.section5, |m| {
                let rates = microbench::measure_table(m, o.micro_words)?;
                experiments::section5(m, &rates, o.exchange_words)
            })
        },
    },
    Section::keyed("table5", |o, r| {
        r.table5 = experiments::table5(o.exchange_words)?;
        Ok(r.table5.len() as u64)
    }),
    Section::keyed("section341", |o, r| {
        let rates = microbench::measure_table(&Machine::t3d(), o.micro_words)?;
        r.section341 = Some(experiments::section341(&rates)?);
        Ok(1)
    }),
    Section::keyed("table6", |o, r| {
        let rates = microbench::measure_table(&Machine::t3d(), o.micro_words)?;
        r.table6 = experiments::table6(&rates)?;
        Ok(r.table6.len() as u64)
    }),
    Section::keyed("putget", |o, r| {
        both(&mut r.put_vs_get, |m| {
            experiments::put_vs_get(m, o.exchange_words)
        })
    }),
    Section::keyed("scaling", |_, r| {
        per_machine(&[Machine::t3d()], &mut r.scaling, experiments::scaling)
    }),
    Section::keyed("accuracy", |o, r| {
        both(&mut r.model_accuracy, |m| {
            let rates = microbench::measure_table(m, o.micro_words)?;
            experiments::model_accuracy(m, &rates, o.exchange_words)
        })
    }),
    Section::keyed("faults", |o, r| {
        both(&mut r.faults, |m| {
            Ok(experiments::faults(m, o.exchange_words, &o.faults))
        })
    }),
    Section {
        name: "phases",
        selected: |o, _| o.phases,
        recorded: true,
        fill: |o, r| {
            both(&mut r.phases, |m| {
                let rates = microbench::measure_table(m, o.micro_words)?;
                crate::phases::phase_breakdown(m, &rates, o.exchange_words)
            })
        },
    },
    Section {
        name: "engine",
        selected: |o, _| o.engine.is_some(),
        recorded: false,
        fill: |o, r| {
            if let Some(engine) = &o.engine {
                r.engine_table6 = experiments::engine_table6(&experiments::EngineSettings {
                    jobs: or_sweep_jobs(engine.jobs, o),
                    ..*engine
                })?;
            }
            Ok(r.engine_table6.len() as u64)
        },
    },
    Section {
        name: "collectives",
        selected: |o, _| o.collectives.is_some(),
        recorded: false,
        fill: |o, r| {
            if let Some(settings) = &o.collectives {
                r.collectives = crate::collectives::collectives_table(
                    &crate::collectives::CollectiveSettings {
                        jobs: or_sweep_jobs(settings.jobs, o),
                        ..settings.clone()
                    },
                )?;
            }
            Ok(r.collectives.len() as u64)
        },
    },
];

/// The distinct memo points the selected sections look up, each with its
/// machine, in first-lookup order. Each recorded section's fill runs once
/// under [`memo::record`], against a scratch report, so it names its
/// points without simulating any.
fn distinct_points(opts: &SweepOptions, sections: &[&Section]) -> Vec<(Machine, Point)> {
    let mut seen = HashSet::new();
    let mut work = Vec::new();
    for section in sections.iter().filter(|s| s.recorded) {
        let mut scratch = FullReport::default();
        let lookups = memo::record(|| (section.fill)(opts, &mut scratch));
        work.extend(
            lookups.into_iter().filter(|(machine, point)| {
                seen.insert((memo::machine_fingerprint(machine), *point))
            }),
        );
    }
    work
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|m| (*m).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .map_or_else(
            || "worker panicked without a message".to_string(),
            |m| format!("panic: {m}"),
        )
}

/// Runs the selected experiments with `opts.jobs` workers and returns the
/// deterministic report plus this run's metrics.
///
/// Records the memo points every selected section's fill looks up,
/// simulates the distinct ones in one fan-out of `opts.jobs` workers, then
/// renders the sections in order from the filled cache (see the module
/// docs). The worker count is this run's alone: nothing process-wide
/// changes, so concurrent sweeps in one process never change each other's
/// width. Never panics on experiment failure: a point whose simulation
/// panics is dropped from the cache, and each section renders behind a
/// panic shield, so a typed simulation error or a panic records the
/// section's status and zero points, and the sweep moves on with a partial
/// report. The report's `sections` field records which completed.
pub fn run_sweep(opts: &SweepOptions) -> (FullReport, RunMetrics) {
    let sections: Vec<&Section> = TABLE
        .iter()
        .filter(|s| (s.selected)(opts, s.name))
        .collect();
    sweep(opts, &sections)
}

/// [`run_sweep`] over `sections`, in order.
fn sweep(opts: &SweepOptions, sections: &[&Section]) -> (FullReport, RunMetrics) {
    // Simulation and fault counters live in a per-run registry, not
    // process-wide statics: adopt the caller's installed observability handle (so traces
    // and histograms flow to it), or install a registry-only one of our own.
    let ambient = Obs::current();
    let obs = if ambient.is_enabled() {
        ambient
    } else {
        Obs::new(false)
    };
    let _obs_guard = obs.install();
    // Same handle discipline for the measurement memo cache: adopt the
    // caller's installed cache (a serving process shares one across
    // requests) or install a fresh unbounded one for this run, so two
    // concurrent sweeps in one process can never bleed entries.
    let cache = memo::current().unwrap_or_else(memo::MemoCache::unbounded);
    let _memo_guard = memo::install(&cache);
    let cache_before = memo::stats();
    let sim_before = SimCounters::from_obs(&obs);
    let faults_before = FaultCounters::from_obs(&obs);
    let start = Instant::now();

    let work = distinct_points(opts, sections);
    let simulating = Instant::now();
    par::par_map(opts.jobs, &work, |(machine, point)| {
        // A panicking simulation caches nothing, so the section that looks
        // the point up meets the panic again and records it as its failure.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| measure_point(machine, *point)));
    });
    let rendering = Instant::now();

    let mut report = FullReport {
        micro_words: opts.micro_words,
        exchange_words: opts.exchange_words,
        ..FullReport::default()
    };
    let mut experiment_metrics: Vec<ExperimentMetrics> = Vec::new();
    for section in sections.iter().copied() {
        let t = Instant::now();
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| (section.fill)(opts, &mut report)));
        let (points, error) = match outcome {
            Ok(Ok(points)) => (points, None),
            Ok(Err(e)) => (0, Some(e.to_string())),
            Err(payload) => (0, Some(panic_text(payload.as_ref()))),
        };
        experiment_metrics.push(ExperimentMetrics {
            name: section.name.to_string(),
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            points,
        });
        report.sections.push(SectionStatus {
            name: section.name.to_string(),
            ok: error.is_none(),
            error,
        });
    }

    let end = Instant::now();
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    let [plan_ms, simulate_ms, render_ms] = [
        ms(start, simulating),
        ms(simulating, rendering),
        ms(rendering, end),
    ];
    let metrics = RunMetrics {
        jobs: opts.jobs,
        points: experiment_metrics.iter().map(|e| e.points).sum(),
        planned: work.len() as u64,
        plan_ms,
        simulate_ms,
        render_ms,
        cache: memo::stats().since(cache_before),
        sim: SimCounters::from_obs(&obs).since(sim_before),
        faults: FaultCounters::from_obs(&obs).since(faults_before),
        wall_ms: plan_ms + simulate_ms + render_ms,
        histograms: obs
            .metrics_snapshot()
            .map(|s| s.histograms)
            .unwrap_or_default(),
        experiments: experiment_metrics,
    };
    (report, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcomm_model::BasicTransfer;

    fn small_opts(jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            micro_words: 1024,
            exchange_words: 512,
            sections: ["table1", "calibration"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..SweepOptions::default()
        }
    }

    #[test]
    fn sweep_reports_points_and_cache_traffic() {
        let (report, metrics) = run_sweep(&small_opts(2));
        assert_eq!(report.table1.len(), 2);
        assert!(!report.calibration.is_empty());
        assert!(metrics.points > 0);
        assert_eq!(metrics.experiments.len(), 2);
        let total = metrics.cache.hits + metrics.cache.misses;
        assert!(total > 0, "the sweep must go through the memo cache");
        // Calibration and Table 1 overlap on local-copy transfers, so a
        // combined run must hit the cache; and it simulates each planned
        // point once, before rendering.
        assert!(metrics.cache.hits > 0, "{:?}", metrics.cache);
        assert_eq!(metrics.cache.misses, metrics.planned, "{metrics:?}");
        // The phases split the run's wall time exactly.
        let phases = metrics.plan_ms + metrics.simulate_ms + metrics.render_ms;
        assert_eq!(phases, metrics.wall_ms, "{metrics:?}");
    }

    #[test]
    fn json_rendering_is_stable() {
        let (report, _) = run_sweep(&small_opts(1));
        assert_eq!(report.to_json().render(), report.to_json().render());
    }

    #[test]
    fn metrics_render_without_wall_time_in_report() {
        let (report, metrics) = run_sweep(&small_opts(1));
        assert!(!report.to_json().render().contains("wall_ms"));
        for key in [
            "wall_ms",
            "planned",
            "plan_ms",
            "simulate_ms",
            "render_ms",
            "drive_steps",
            "drive_blocked",
        ] {
            assert!(metrics.to_json().render().contains(key), "{key}");
        }
        assert!(metrics.summary().contains("hit rate"));
        assert!(metrics.summary().contains("injected"));
    }

    #[test]
    fn every_selected_section_reports_its_status() {
        let (report, _) = run_sweep(&small_opts(1));
        let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["calibration", "table1"]);
        assert!(report.sections.iter().all(|s| s.ok && s.error.is_none()));
    }

    #[test]
    fn a_failing_point_fails_only_its_section() {
        // At this size every Table 1 walk outgrows node memory, the indexed
        // ones included (they are placed before their 32-bit permutation is
        // built). Table 1 fails with its first point's typed error, and
        // Table 5 renders as usual.
        for jobs in [1, 2] {
            let opts = SweepOptions {
                jobs,
                micro_words: 5_000_000_000,
                exchange_words: 256,
                sections: ["table1", "table5"].iter().map(|s| s.to_string()).collect(),
                ..SweepOptions::default()
            };
            let (report, _) = run_sweep(&opts);
            let status: Vec<(&str, Option<&str>)> = report
                .sections
                .iter()
                .map(|s| (s.name.as_str(), s.error.as_deref()))
                .collect();
            assert_eq!(
                status,
                [
                    (
                        "table1",
                        Some("node memory exhausted: need 40000000768 bytes, have 50331648")
                    ),
                    ("table5", None)
                ],
                "jobs {jobs}"
            );
            assert_eq!(report.table5.len(), 4, "jobs {jobs}");
        }
    }

    /// Words of the panicking point: past the 32-bit index range.
    const PANIC_WORDS: u64 = 5_000_000_000;

    /// A T3D with 2^40 words of node memory: `1Cw` at [`PANIC_WORDS`]
    /// places both its walks, then panics building the permutation.
    fn roomy_t3d() -> Machine {
        let mut m = Machine::t3d();
        m.node.memory_words = 1 << 40;
        m
    }

    fn panicking_transfer() -> BasicTransfer {
        BasicTransfer::parse("1Cw").unwrap()
    }

    #[test]
    fn a_panicking_point_fails_only_its_section() {
        // The simulate phase catches the point's panic and caches nothing,
        // so the section's fill meets the panic again and records it, and
        // the next section renders as usual.
        let panicking = Section {
            name: "panicking",
            selected: |_, _| true,
            recorded: true,
            fill: |_, _| {
                microbench::measure_basic(&roomy_t3d(), panicking_transfer(), PANIC_WORDS)
                    .map(|_| 1)
            },
        };
        let table5 = TABLE.iter().find(|s| s.name == "table5").unwrap();
        for jobs in [1, 2] {
            let opts = SweepOptions {
                jobs,
                exchange_words: 256,
                ..SweepOptions::default()
            };
            let (report, metrics) = sweep(&opts, &[&panicking, table5]);
            let status: Vec<(&str, Option<&str>)> = report
                .sections
                .iter()
                .map(|s| (s.name.as_str(), s.error.as_deref()))
                .collect();
            assert_eq!(
                status,
                [
                    ("panicking", Some("panic: index entries are 32-bit")),
                    ("table5", None)
                ],
                "jobs {jobs}"
            );
            assert_eq!(report.table5.len(), 4, "jobs {jobs}");
            // Every planned point missed once; the panicking one missed
            // again in its fill and is the only one not cached.
            assert_eq!(metrics.cache.misses, metrics.planned + 1, "jobs {jobs}");
            assert_eq!(metrics.cache.entries, metrics.planned - 1, "jobs {jobs}");
        }
    }

    #[test]
    fn faults_section_runs_clean_by_default() {
        let opts = SweepOptions {
            jobs: 1,
            micro_words: 256,
            exchange_words: 256,
            sections: ["faults"].iter().map(|s| s.to_string()).collect(),
            ..SweepOptions::default()
        };
        let (report, metrics) = run_sweep(&opts);
        assert_eq!(report.faults.len(), 2, "both machines");
        for series in &report.faults {
            assert!(series.rows.iter().all(|r| r.verified && r.error.is_none()));
        }
        assert_eq!(metrics.faults.injected, 0, "zero-rate plan injects nothing");
        // The seed must leave no trace in the rendered report.
        let json = report.to_json().render();
        assert!(!json.contains("seed"), "fault seed leaked into the report");
    }

    #[test]
    fn a_failing_section_leaves_a_partial_report() {
        // An impossibly small cycle budget makes every resilient transfer
        // fail; the sweep must finish, record per-point errors, and keep the
        // section status ok (point failures are data, not section failures).
        let opts = SweepOptions {
            jobs: 1,
            micro_words: 256,
            exchange_words: 256,
            sections: ["faults"].iter().map(|s| s.to_string()).collect(),
            faults: crate::experiments::FaultSettings {
                max_cycles: Some(1),
                ..crate::experiments::FaultSettings::default()
            },
            phases: false,
            engine: None,
            collectives: None,
        };
        let (report, _) = run_sweep(&opts);
        assert!(report.sections.iter().all(|s| s.ok));
        for series in &report.faults {
            for r in &series.rows {
                assert!(!r.verified);
                let err = r.error.as_deref().expect("budget must trip");
                assert!(err.contains("cycle"), "unexpected error: {err}");
            }
        }
    }
}

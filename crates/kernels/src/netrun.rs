//! Running the Table 6 kernels on the event-driven network engine.
//!
//! The kernels price their communication step by composing a co-simulated
//! pairwise exchange with a *congestion factor*. Historically that factor
//! came only from the closed-form flow analysis
//! ([`netsim::congestion`](memcomm_netsim::congestion)); this module adds a
//! second, independent source: the sharded discrete-event engine
//! ([`netsim::engine`](memcomm_netsim::engine)) actually executes the
//! kernel's communication rounds on the full topology and reports the
//! *emergent* serialization it observed. [`CongestionModel`] selects the
//! source; the analytic path remains the default and is byte-identical to
//! the pre-engine behaviour.

use std::collections::HashMap;

use memcomm_commops::collectives::Collective;
use memcomm_machines::Machine;
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::fault::FaultPlan;
use memcomm_memsim::nic::NetWord;
use memcomm_memsim::{SimError, SimResult};
use memcomm_netsim::adversary::{self, AdversaryConfig};
use memcomm_netsim::engine::{self, EngineConfig};
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::Flow;

use crate::apps::{CommMethod, FemKernel, KernelMeasurement, SorKernel, TransposeKernel};

/// Knobs of an event-engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOptions {
    /// Simulate this many nodes instead of the machine's own count (scaled
    /// via [`engine::scaled_topology`]); must be a power of two.
    pub nodes: Option<usize>,
    /// Worker threads for the shard fan-out (0 = process-wide setting).
    /// Results never depend on this.
    pub jobs: usize,
    /// Shard count (0 = auto: about two per worker). Results never depend
    /// on this either — the engine's stage-major fold keeps digests
    /// byte-identical at any value.
    pub shards: usize,
    /// Keep full event streams (tests pin event-order equality with this).
    pub record_events: bool,
    /// Telemetry sampling interval in cycles (0 = off). Results never
    /// depend on this — sampling only adds outputs.
    pub sample_every: Cycle,
    /// Retired: the engine has one scheduler. This field remains only
    /// because the `perfbench` package names it in a struct literal;
    /// `true` is refused with [`SimError::Protocol`] rather than silently
    /// running the one scheduler there is. Write new literals with
    /// `..EngineOptions::default()`.
    pub reference_scheduler: bool,
}

/// Where a kernel's congestion factor comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionModel {
    /// The closed-form flow analysis (the paper's reduction; the default).
    #[default]
    Analytic,
    /// The sharded discrete-event engine.
    Event(EngineOptions),
}

/// The engine configuration matching a machine's link, NIC, and port
/// parameters, with memory pacing left unpaced (the NIC saturated) so the
/// run measures pure network contention.
pub fn engine_config(machine: &Machine) -> EngineConfig {
    let mut cfg = EngineConfig::new(machine.link(1.0), machine.node);
    cfg.nodes_per_port = machine.nodes_per_port;
    cfg
}

/// [`engine_config`] with the run knobs of `opts` applied.
fn configured(machine: &Machine, opts: &EngineOptions) -> SimResult<EngineConfig> {
    if opts.reference_scheduler {
        return Err(SimError::Protocol {
            detail: "the engine's reference scheduler is retired; \
                     EngineOptions::reference_scheduler must be false"
                .into(),
            at: 0,
        });
    }
    let mut cfg = engine_config(machine);
    cfg.jobs = opts.jobs;
    cfg.shards = opts.shards;
    cfg.record_events = opts.record_events;
    cfg.sample_every = opts.sample_every;
    Ok(cfg)
}

/// The topology an engine run simulates: the machine's own, or a scaled
/// variant with the same rank and wrap-ness.
///
/// # Errors
///
/// [`memcomm_memsim::SimError::Protocol`] for a non-power-of-two override.
pub fn engine_topology(machine: &Machine, nodes: Option<usize>) -> SimResult<Topology> {
    match nodes {
        None => Ok(machine.topology.clone()),
        Some(n) => engine::scaled_topology(&machine.topology, n),
    }
}

/// What an engine execution of a kernel's rounds observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineRun {
    /// Emergent congestion: the worst round's serialization over the ideal
    /// wire time of its widest source, clamped at 1.
    pub factor: f64,
    /// Total cycles across all rounds (rounds are barrier-separated).
    pub cycles: Cycle,
    /// Cycles of the slowest round.
    pub worst_round_cycles: Cycle,
    /// Total link traversals.
    pub flit_hops: u64,
    /// Total conservative windows executed.
    pub windows: u64,
    /// Words delivered: these runs arm no faults, so every offered word
    /// ([`engine::EngineOutcome::words`]) arrives.
    pub words: u64,
    /// Event-stream digest (identical at any worker count).
    pub digest: u64,
    /// Deepest event backlog any round reached (see
    /// [`memcomm_netsim::engine::EngineOutcome::peak_queue_depth`]).
    pub peak_queue_depth: u64,
}

/// Executes `rounds` on the engine and derives the emergent congestion
/// factor.
///
/// The factor bridges the two worlds: the engine measures a round makespan
/// `T`; subtracting the pipeline fill (`(max_hops + 2)` stages of wire +
/// latency) and dividing by the ideal serialization time `W·wt` of the
/// round's widest source yields the effective multiplier the topology
/// imposed — directly comparable to the analytic
/// [`scheduled_congestion`](memcomm_netsim::congestion::scheduled_congestion)
/// factor, because the per-word framing cancels in the ratio.
///
/// # Errors
///
/// Propagates engine failures (deadlock, watchdog, invalid flows), and
/// [`SimError::Protocol`] when `opts` asks for the retired reference
/// scheduler.
pub fn run_rounds(
    machine: &Machine,
    topo: &Topology,
    rounds: &[Vec<Flow>],
    opts: &EngineOptions,
) -> SimResult<EngineRun> {
    let cfg = configured(machine, opts)?;
    let out = engine::run_schedule(topo, rounds, &cfg)?;

    let wt = cfg.link.word_cycles(&NetWord::data(0));
    let latency = cfg.link.latency_cycles as f64;
    let mut factor = 1.0f64;
    let mut worst_round_cycles = 0;
    let mut words = 0;
    let mut flit_hops = 0;
    let mut windows = 0;
    for (flows, r) in rounds.iter().zip(&out.rounds) {
        words += r.words;
        flit_hops += r.flit_hops;
        windows += r.windows;
        worst_round_cycles = worst_round_cycles.max(r.cycles);
        let mut per_src: HashMap<usize, u64> = HashMap::new();
        let mut max_hops = 0u64;
        for f in flows {
            if f.src == f.dst || f.bytes == 0 {
                continue;
            }
            *per_src.entry(f.src).or_default() += f.bytes.div_ceil(8);
            max_hops = max_hops.max(topo.distance(f.src, f.dst));
        }
        let Some(widest) = per_src.values().copied().max() else {
            continue;
        };
        let fill = (max_hops + 2) as f64 * (wt + latency);
        let round_factor = ((r.cycles as f64 - fill) / (widest as f64 * wt)).max(1.0);
        factor = factor.max(round_factor);
    }
    Ok(EngineRun {
        factor,
        cycles: out.cycles,
        worst_round_cycles,
        flit_hops,
        windows,
        words,
        digest: out.digest,
        peak_queue_depth: out.peak_queue_depth,
    })
}

/// Result of one collective engine run: the compiled schedule's shape, its
/// volume accounting against the information-theoretic floor, and the full
/// engine observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveRun {
    /// Barrier-separated rounds the collective compiled into.
    pub rounds: u64,
    /// Words the schedule moves (closed form; equals the engine's
    /// delivered word count).
    pub volume_words: u64,
    /// The collective's information-theoretic floor in words.
    pub lower_bound_words: u64,
    /// What the engine observed executing the schedule.
    pub run: EngineRun,
}

/// Compiles a collective on the machine's (optionally scaled) topology and
/// executes it on the event engine — the collective counterpart of
/// [`run_rounds`], bridging [`memcomm_commops::collectives`] to the engine.
///
/// # Errors
///
/// [`memcomm_memsim::SimError::Protocol`] for non-power-of-two node counts
/// or a zero payload; otherwise propagates engine failures.
pub fn run_collective(
    machine: &Machine,
    coll: Collective,
    words: u64,
    opts: &EngineOptions,
) -> SimResult<CollectiveRun> {
    let topo = engine_topology(machine, opts.nodes)?;
    let sched = coll.schedule(topo.len(), words)?;
    let run = run_rounds(machine, &topo, &sched, opts)?;
    Ok(CollectiveRun {
        rounds: sched.len() as u64,
        volume_words: coll.volume_words(topo.len(), words)?,
        lower_bound_words: coll.lower_bound_words(topo.len(), words)?,
        run,
    })
}

/// One of the three Table 6 kernels, ready to run under either congestion
/// model.
#[derive(Debug, Clone)]
pub enum Table6Kernel {
    /// The 2D-FFT transpose (all-to-all personalized exchange).
    Transpose(TransposeKernel),
    /// The FEM boundary exchange (phased neighbour shifts).
    Fem(FemKernel),
    /// The SOR halo shift (two sequential cyclic shifts).
    Sor(SorKernel),
}

impl Table6Kernel {
    /// The kernel's Table 6 row label.
    pub fn name(&self) -> &'static str {
        match self {
            Table6Kernel::Transpose(_) => "Transpose",
            Table6Kernel::Fem(_) => "FEM",
            Table6Kernel::Sor(_) => "SOR",
        }
    }

    /// The kernel's communication rounds on `topo`.
    ///
    /// # Errors
    ///
    /// [`memcomm_memsim::SimError::Protocol`] for configurations that do
    /// not decompose over the topology.
    pub fn rounds(&self, topo: &Topology) -> SimResult<Vec<Vec<Flow>>> {
        match self {
            Table6Kernel::Transpose(k) => k.rounds(topo),
            Table6Kernel::Fem(k) => k.rounds(topo),
            Table6Kernel::Sor(k) => k.rounds(topo),
        }
    }

    /// The analytic congestion factor on an explicit topology.
    ///
    /// # Errors
    ///
    /// [`memcomm_memsim::SimError::Protocol`] on invalid decompositions.
    pub fn analytic_congestion(&self, machine: &Machine, topo: &Topology) -> SimResult<f64> {
        match self {
            Table6Kernel::Transpose(k) => k.congestion_on(topo, machine.nodes_per_port),
            Table6Kernel::Fem(k) => k.congestion_on(topo, machine.nodes_per_port),
            Table6Kernel::Sor(k) => k.congestion_on(topo, machine.nodes_per_port),
        }
    }

    /// The congestion factor under the selected model.
    ///
    /// # Errors
    ///
    /// Propagates engine failures and invalid decompositions.
    pub fn congestion_with(&self, machine: &Machine, model: &CongestionModel) -> SimResult<f64> {
        match model {
            CongestionModel::Analytic => self.analytic_congestion(machine, &machine.topology),
            CongestionModel::Event(opts) => {
                let topo = engine_topology(machine, opts.nodes)?;
                let rounds = self.rounds(&topo)?;
                Ok(run_rounds(machine, &topo, &rounds, opts)?.factor)
            }
        }
    }

    /// Prices the kernel's co-simulated exchange at an explicit node count
    /// and congestion factor.
    ///
    /// # Errors
    ///
    /// Propagates exchange simulation failures.
    pub fn measure_at(
        &self,
        machine: &Machine,
        method: CommMethod,
        p: u64,
        congestion: f64,
    ) -> SimResult<KernelMeasurement> {
        match self {
            Table6Kernel::Transpose(k) => k.measure_at(machine, method, p, congestion),
            Table6Kernel::Fem(k) => k.measure_at(machine, method, congestion),
            Table6Kernel::Sor(k) => k.measure_at(machine, method, congestion),
        }
    }

    /// Measures the kernel's communication step under the selected model:
    /// the co-simulated exchange is priced at the analytic factor
    /// (`Analytic`) or at the factor the event engine actually observed
    /// (`Event`).
    ///
    /// # Errors
    ///
    /// Propagates engine and exchange simulation failures.
    pub fn measure_with(
        &self,
        machine: &Machine,
        method: CommMethod,
        model: &CongestionModel,
    ) -> SimResult<KernelMeasurement> {
        let (p, congestion) = match model {
            CongestionModel::Analytic => (
                machine.topology.len() as u64,
                self.congestion_with(machine, model)?,
            ),
            CongestionModel::Event(opts) => {
                let topo = engine_topology(machine, opts.nodes)?;
                (topo.len() as u64, self.congestion_with(machine, model)?)
            }
        };
        self.measure_at(machine, method, p, congestion)
    }
}

/// Result of one adversarial engine run: the compiled schedule's size plus
/// the full engine outcome (retry counters, degraded accounting, per-class
/// latency tails — everything `repro --adversary` reports).
#[derive(Debug, Clone)]
pub struct AdversaryRun {
    /// Network flows the generator compiled.
    pub flows: u64,
    /// The engine outcome, with per-class latency recorded.
    pub outcome: engine::EngineOutcome,
}

/// Compiles an adversarial traffic pattern on the machine's (optionally
/// scaled) topology and runs it to completion under the given fault plan
/// and retry policy, recording per-class inject→eject latency. The
/// generator's classes become the engine's flow classes, so the outcome's
/// `flow_latency` splits background from adversarial traffic (see
/// [`memcomm_netsim::adversary::CLASS_NAMES`]).
///
/// # Errors
///
/// Propagates topology-scaling and engine failures, and
/// [`SimError::Protocol`] when `opts` asks for the retired reference
/// scheduler. A run the fault plan wedges is *not* an error: it returns
/// `Ok` with [`engine::Degraded`] accounting in the outcome.
pub fn run_adversary(
    machine: &Machine,
    adv: &AdversaryConfig,
    fault: FaultPlan,
    retry: engine::RetryPolicy,
    opts: &EngineOptions,
) -> SimResult<AdversaryRun> {
    let mut cfg = configured(machine, opts)?;
    let topo = engine_topology(machine, opts.nodes)?;
    let traffic = adversary::generate(&topo, adv);
    cfg.fault = fault;
    cfg.retry = retry;
    cfg.flow_classes = traffic.classes;
    cfg.record_latency = true;
    let outcome = engine::run_flows(&topo, &traffic.flows, &cfg)?;
    Ok(AdversaryRun {
        flows: traffic.flows.len() as u64,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_model_matches_the_plain_kernel_paths() {
        let t3d = Machine::t3d();
        let k = Table6Kernel::Sor(SorKernel::paper_instance());
        let via_model = k.congestion_with(&t3d, &CongestionModel::Analytic).unwrap();
        let direct = SorKernel::paper_instance().congestion(&t3d).unwrap();
        assert_eq!(via_model, direct);
        let m = k
            .measure_with(&t3d, CommMethod::Chained, &CongestionModel::Analytic)
            .unwrap();
        let direct_m = SorKernel::paper_instance()
            .measure(&t3d, CommMethod::Chained)
            .unwrap();
        assert_eq!(m, direct_m);
    }

    #[test]
    fn adversary_bridge_runs_and_classifies() {
        use memcomm_memsim::fault::FaultConfig;
        use memcomm_netsim::adversary::AdversaryKind;
        let t3d = Machine::t3d();
        let opts = EngineOptions {
            nodes: Some(16),
            jobs: 1,
            ..EngineOptions::default()
        };
        let adv = AdversaryConfig {
            kind: AdversaryKind::RetryStorm,
            base_bytes: 64,
            ..AdversaryConfig::default()
        };
        let fault = FaultPlan::new(FaultConfig {
            seed: 7,
            rate: 0.1,
            ..FaultConfig::default()
        });
        let run = run_adversary(
            &t3d,
            &adv,
            fault,
            memcomm_netsim::engine::RetryPolicy::default(),
            &opts,
        )
        .unwrap();
        assert!(run.flows > 0);
        assert!(run.outcome.dropped > 0, "the plan must fire");
        assert_eq!(
            run.outcome.dropped,
            run.outcome.retried + run.outcome.abandoned
        );
        assert!(!run.outcome.flow_latency.is_empty(), "latency was recorded");
        let delivered: u64 = run.outcome.flow_latency.iter().map(|h| h.count).sum();
        assert_eq!(delivered, run.outcome.words);
    }

    #[test]
    fn collective_bridge_runs_and_accounts_volume() {
        let t3d = Machine::t3d();
        let opts = EngineOptions {
            nodes: Some(8),
            jobs: 1,
            ..EngineOptions::default()
        };
        let run = run_collective(&t3d, Collective::AllreduceRecursiveDoubling, 32, &opts).unwrap();
        assert_eq!(run.rounds, 3);
        assert_eq!(run.run.words, run.volume_words);
        assert!(run.volume_words >= run.lower_bound_words);
        assert!(run.run.factor >= 1.0);

        // Non-power-of-two node counts are rejected, not mis-scheduled.
        let bad = EngineOptions {
            nodes: Some(6),
            ..opts
        };
        assert!(matches!(
            run_collective(&t3d, Collective::Broadcast, 32, &bad),
            Err(memcomm_memsim::SimError::Protocol { .. })
        ));
    }

    #[test]
    fn the_retired_reference_scheduler_is_refused() {
        let t3d = Machine::t3d();
        let retired = EngineOptions {
            nodes: Some(4),
            jobs: 1,
            reference_scheduler: true,
            ..EngineOptions::default()
        };
        let topo = engine_topology(&t3d, retired.nodes).unwrap();
        let rounds = memcomm_netsim::traffic::aapc_xor_schedule(topo.len(), 64);
        assert!(matches!(
            run_rounds(&t3d, &topo, &rounds, &retired),
            Err(SimError::Protocol { .. })
        ));
        assert!(matches!(
            run_collective(&t3d, Collective::Broadcast, 8, &retired),
            Err(SimError::Protocol { .. })
        ));
        assert!(matches!(
            run_adversary(
                &t3d,
                &AdversaryConfig::default(),
                FaultPlan::disabled(),
                engine::RetryPolicy::default(),
                &retired,
            ),
            Err(SimError::Protocol { .. })
        ));
        // The same options with the field left false run normally.
        let live = EngineOptions {
            reference_scheduler: false,
            ..retired
        };
        assert!(run_rounds(&t3d, &topo, &rounds, &live).is_ok());
    }

    #[test]
    fn event_model_runs_a_small_transpose() {
        let t3d = Machine::t3d();
        let opts = EngineOptions {
            nodes: Some(4),
            jobs: 1,
            ..EngineOptions::default()
        };
        let k = Table6Kernel::Transpose(TransposeKernel {
            n: 64,
            words_per_element: 2,
        });
        let c = k
            .congestion_with(&t3d, &CongestionModel::Event(opts))
            .unwrap();
        assert!(c >= 1.0, "congestion {c}");
        let m = k
            .measure_with(&t3d, CommMethod::Chained, &CongestionModel::Event(opts))
            .unwrap();
        assert!(m.verified);
        assert!(m.per_node.as_mbps() > 0.0);
    }
}

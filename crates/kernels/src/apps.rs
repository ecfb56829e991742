//! The application kernels of Section 6 / Table 6.
//!
//! [`TransposeKernel`], [`FemKernel`] and [`SorKernel`] each hold one
//! kernel's decomposition: its parameters and the communication rounds it
//! runs on a topology. [`Table6Kernel`] prices any of them the way the paper
//! reports: per node, one representative pairwise exchange co-simulated in
//! detail at the congestion factor the kernel's rounds impose on the
//! machine's topology (`netsim` derives it), plus the per-message and
//! synchronization costs of the communication layer in use.

use std::sync::OnceLock;

use memcomm_commops::{run_exchange, ExchangeConfig, Style};
use memcomm_machines::{microbench, LibraryProfile, Machine};
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::{SimError, SimResult};
use memcomm_model::{
    chained_expr, AccessPattern, BasicTransfer, ChainedPlan, ModelError, RateTable, ReceiveEngine,
    Throughput,
};
use memcomm_netsim::congestion::{pattern_congestion, scheduled_congestion};
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic;

use crate::mesh::PartitionedMesh;

/// How the kernel's communication is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMethod {
    /// Hand-written buffer packing over low-level transfers.
    BufferPacking,
    /// Chained transfers (deposit engine / co-processor receive).
    Chained,
    /// Stock PVM: buffer packing plus system buffering and heavy
    /// per-message overhead.
    Pvm,
}

impl CommMethod {
    fn label(self) -> &'static str {
        match self {
            CommMethod::BufferPacking => "buffer-packing",
            CommMethod::Chained => "chained",
            CommMethod::Pvm => "PVM",
        }
    }

    fn style(self) -> Style {
        match self {
            CommMethod::Chained => Style::Chained,
            _ => Style::BufferPacking,
        }
    }

    /// The message library the method runs over: PVM's, or the low-level
    /// vendor path that hand-written and chained code use.
    fn profile(self, machine: &Machine) -> LibraryProfile {
        match self {
            CommMethod::Pvm => LibraryProfile::pvm(machine),
            _ => LibraryProfile::low_level(machine),
        }
    }

    /// Per-iteration synchronization: a dissemination barrier over the
    /// machine's topology, with library-dependent software cost per round.
    fn sync_cycles(self, machine: &Machine) -> Cycle {
        let software_per_round = match self {
            CommMethod::Pvm => (20.0e-6 * machine.clock().hz()) as Cycle,
            _ => (2.0e-6 * machine.clock().hz()) as Cycle,
        };
        memcomm_netsim::barrier_cycles(
            &machine.topology,
            &machine.link(machine.default_congestion),
            software_per_round,
        )
    }
}

/// One measured kernel data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMeasurement {
    /// Kernel name.
    pub kernel: &'static str,
    /// Communication method label.
    pub method: &'static str,
    /// Per-node throughput of the communication step.
    pub per_node: Throughput,
    /// Congestion factor the traffic pattern imposes.
    pub congestion: f64,
    /// Whether the co-simulated exchange delivered correct data.
    pub verified: bool,
}

/// PVM's store-and-forward copy through a system buffer: the simulated
/// cycles of one contiguous local copy of `words` on this machine,
/// memoized like every basic transfer.
fn system_copy_cycles(machine: &Machine, words: u64) -> SimResult<Cycle> {
    let copy = BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::Contiguous);
    let copy = microbench::measure_basic(machine, copy, words)?.ok_or(SimError::Protocol {
        detail: "local copies always run".to_string(),
        at: 0,
    })?;
    Ok(copy.cycles)
}

/// One representative round of a kernel's communication step: the
/// exchange [`measure`](Round::measure) co-simulates, which a
/// system-buffering library pays a copy on each side for.
#[derive(Debug, Clone, Copy)]
struct Round {
    kernel: &'static str,
    x: AccessPattern,
    y: AccessPattern,
    method: CommMethod,
    words: u64,
    congestion: f64,
    elide_contiguous_copies: bool,
}

impl Round {
    fn measure(&self, machine: &Machine) -> SimResult<(Cycle, KernelMeasurement)> {
        let profile = self.method.profile(machine);
        let cfg = ExchangeConfig {
            words: self.words,
            congestion: Some(self.congestion),
            // A system-buffering library always copies; hand-written code
            // may elide.
            elide_contiguous_copies: self.elide_contiguous_copies && !profile.system_buffering,
            ..ExchangeConfig::default()
        };
        let result = run_exchange(machine, self.x, self.y, self.method.style(), &cfg)?;
        let mut round = result.end_cycle + profile.per_message_cycles;
        if profile.system_buffering {
            round += 2 * system_copy_cycles(machine, self.words)?;
        }
        let m = KernelMeasurement {
            kernel: self.kernel,
            method: self.method.label(),
            per_node: machine.clock().throughput(self.words * 8, round),
            congestion: self.congestion,
            verified: result.verified,
        };
        Ok((round, m))
    }
}

/// One of the three Table 6 kernels: the one type that prices a kernel's
/// communication step, at the analytic congestion factor or at any other
/// (the event engine substitutes its own).
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

    /// The kernel's communication rounds on `topo` — what both the analytic
    /// congestion factor and the event engine execute.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for configurations that do not decompose over
    /// the topology.
    pub fn rounds(&self, topo: &Topology) -> SimResult<Vec<Vec<traffic::Flow>>> {
        match self {
            Table6Kernel::Transpose(k) => k.rounds(topo),
            Table6Kernel::Fem(k) => k.rounds(topo),
            Table6Kernel::Sor(k) => k.rounds(topo),
        }
    }

    /// The analytic congestion factor on `topo`: the worst of the kernel's
    /// [`rounds`](Self::rounds) under the machine's port sharing
    /// ([`scheduled_congestion`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for configurations that do not decompose over
    /// the topology.
    pub fn analytic_congestion(&self, machine: &Machine, topo: &Topology) -> SimResult<f64> {
        Ok(scheduled_congestion(topo, &self.rounds(topo)?, machine.nodes_per_port).factor)
    }

    /// Measures the communication step per node on the machine's own
    /// topology, at the analytic congestion factor.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the kernel does not decompose over the
    /// machine, and simulation failures from the co-simulated exchange.
    pub fn measure(&self, machine: &Machine, method: CommMethod) -> SimResult<KernelMeasurement> {
        let congestion = self.analytic_congestion(machine, &machine.topology)?;
        self.measure_at(machine, method, machine.topology.len() as u64, congestion)
    }

    /// Measures the communication step per node at an explicit node count
    /// `p` and congestion factor. SOR's step is two sequential halo-row
    /// exchanges plus the iteration's synchronization, and its rate is one
    /// halo row over the whole step (the paper's per-node accounting).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the transpose does not decompose over
    /// `p` nodes, and simulation failures from the co-simulated exchange.
    pub fn measure_at(
        &self,
        machine: &Machine,
        method: CommMethod,
        p: u64,
        congestion: f64,
    ) -> SimResult<KernelMeasurement> {
        let (cycles, m) = self.round(method, p, congestion)?.measure(machine)?;
        let Table6Kernel::Sor(k) = self else {
            return Ok(m);
        };
        let iteration = 2 * cycles + method.sync_cycles(machine);
        Ok(KernelMeasurement {
            per_node: machine.clock().throughput(k.n * 8, iteration),
            ..m
        })
    }

    /// The kernel's representative round on `p` nodes at `congestion`.
    fn round(&self, method: CommMethod, p: u64, congestion: f64) -> SimResult<Round> {
        let (x, y, words, elide_contiguous_copies) = match self {
            // The transpose patch is short contiguous runs, not one block:
            // the gather copy is genuinely needed (the paper models it as
            // 1C1).
            Table6Kernel::Transpose(k) => {
                let words = k.try_patch_words(p)?;
                (AccessPattern::Contiguous, k.stride()?, words, false)
            }
            Table6Kernel::Fem(k) => (
                AccessPattern::Indexed,
                AccessPattern::Indexed,
                k.exchange_words(),
                false,
            ),
            // Halo rows are contiguous: a hand-written buffer-packing SOR
            // does not copy them, which is why the paper's Table 6 shows
            // chained and buffer packing nearly equal for SOR.
            Table6Kernel::Sor(k) => (
                AccessPattern::Contiguous,
                AccessPattern::Contiguous,
                k.n,
                true,
            ),
        };
        Ok(Round {
            kernel: self.name(),
            x,
            y,
            method,
            words,
            congestion,
            elide_contiguous_copies,
        })
    }

    /// The copy-transfer model's chained estimate from a measured rate
    /// table: `1Q'n` for the transpose, `ωQ'ω` for FEM and `1Q'1` for SOR.
    /// It ignores per-message and synchronization costs, which is why the
    /// paper's own Table 6 shows a large model-vs-measured gap for SOR. A
    /// transpose `n` past the 32-bit stride range prices as the widest
    /// stride: the table prices every stride past its widest anchor alike.
    ///
    /// # Errors
    ///
    /// Propagates missing-rate errors from the table, and
    /// [`ModelError::InvalidStride`] for a transpose of `n = 0`.
    pub fn model_chained(&self, rates: &RateTable) -> Result<Throughput, ModelError> {
        let (x, y) = match self {
            Table6Kernel::Transpose(k) => (
                AccessPattern::Contiguous,
                AccessPattern::strided(u32::try_from(k.n).unwrap_or(u32::MAX))?,
            ),
            Table6Kernel::Fem(_) => (AccessPattern::Indexed, AccessPattern::Indexed),
            Table6Kernel::Sor(_) => (AccessPattern::Contiguous, AccessPattern::Contiguous),
        };
        let plan = ChainedPlan {
            recv: ReceiveEngine::Deposit,
        };
        chained_expr(x, y, plan)?.estimate(rates)
    }
}

/// The 2D-FFT transpose kernel (Section 6.1.1): an `n × n` complex matrix
/// block-distributed by rows over the machine's nodes; the transpose is an
/// all-to-all personalized exchange of `(n/p)²` complex patches, with
/// contiguous loads and stride-`n` stores (`1Q_n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransposeKernel {
    /// Matrix dimension.
    pub n: u64,
    /// Words per matrix element (2 for complex).
    pub words_per_element: u64,
}

impl TransposeKernel {
    /// The paper's instance: a 1024×1024 complex 2D FFT on 64 nodes.
    pub fn paper_instance() -> Self {
        TransposeKernel {
            n: 1024,
            words_per_element: 2,
        }
    }
    /// Validates a node count for this kernel: the XOR schedule needs a
    /// power of two, the patch decomposition needs `p` to divide `n` —
    /// anything else used to truncate silently into a wrong patch size —
    /// and the stride-`n` stores need `n` to fit a 32-bit stride.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] describing the invalid decomposition.
    pub fn validate_nodes(&self, p: u64) -> SimResult<()> {
        if p < 2 || !p.is_power_of_two() {
            return Err(SimError::Protocol {
                detail: format!("transpose needs a power-of-two node count >= 2, got {p}"),
                at: 0,
            });
        }
        if self.n < 2 || !self.n.is_multiple_of(p) {
            return Err(SimError::Protocol {
                detail: format!(
                    "transpose patches need p | n: n = {} does not split over p = {p} nodes",
                    self.n
                ),
                at: 0,
            });
        }
        self.stride().map(|_| ())
    }

    /// Payload words of one pairwise patch on `p` nodes, `(n/p)²` elements,
    /// behind [`validate_nodes`](Self::validate_nodes), refused when the
    /// patch or the bytes of the whole schedule (`p · (p − 1)` patches)
    /// overflow a `u64`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an invalid decomposition.
    pub fn try_patch_words(&self, p: u64) -> SimResult<u64> {
        self.validate_nodes(p)?;
        let side = self.n / p;
        let patch = side
            .checked_mul(side)
            .and_then(|w| w.checked_mul(self.words_per_element));
        let schedule_bytes = patch.and_then(|w| w.checked_mul(8 * p)?.checked_mul(p - 1));
        patch
            .filter(|_| schedule_bytes.is_some())
            .ok_or_else(|| SimError::Protocol {
                detail: format!(
                    "transpose of n = {} over p = {p} nodes overflows a 64-bit byte count",
                    self.n
                ),
                at: 0,
            })
    }

    /// The stride-`n` pattern of the transpose's stores.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when `n` is no stride of 32 bits.
    fn stride(&self) -> SimResult<AccessPattern> {
        u32::try_from(self.n)
            .ok()
            .and_then(|n| AccessPattern::strided(n).ok())
            .ok_or_else(|| SimError::Protocol {
                detail: format!("transpose stride n = {} is no 32-bit stride", self.n),
                at: 0,
            })
    }

    /// The XOR-schedule rounds of the all-to-all on `topo` — what both the
    /// analytic congestion factor and the event engine execute.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an invalid decomposition.
    pub fn rounds(&self, topo: &Topology) -> SimResult<Vec<Vec<traffic::Flow>>> {
        let p = topo.len() as u64;
        let patch = self.try_patch_words(p)?;
        Ok(traffic::aapc_xor_schedule(p as usize, patch * 8))
    }

    /// Measures the *entire* transpose — all `p − 1` rounds of the XOR
    /// schedule, each co-simulated at its own round congestion — and
    /// returns the aggregate per-node rate. [`Table6Kernel::measure`] uses
    /// one representative round at the worst round congestion; this method
    /// is the long-form validation that the shortcut is sound.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from any round's exchange.
    pub fn measure_full(
        &self,
        machine: &Machine,
        method: CommMethod,
    ) -> SimResult<KernelMeasurement> {
        let p = machine.topology.len();
        let patch = self.try_patch_words(p as u64)?;
        let rounds = traffic::aapc_xor_schedule(p, patch * 8);
        let mut total_cycles: Cycle = 0;
        let mut verified = true;
        let mut worst = 1.0f64;
        for round in &rounds {
            let congestion = pattern_congestion(&machine.topology, round, machine.nodes_per_port)
                .factor
                .max(1.0);
            worst = worst.max(congestion);
            let (cycles, m) = Table6Kernel::Transpose(*self)
                .round(method, p as u64, congestion)?
                .measure(machine)?;
            total_cycles += cycles;
            verified &= m.verified;
        }
        let total_words = patch * rounds.len() as u64;
        Ok(KernelMeasurement {
            kernel: "Transpose",
            method: method.label(),
            per_node: machine.clock().throughput(total_words * 8, total_cycles),
            congestion: worst,
            verified,
        })
    }
}

/// The FEM boundary-exchange kernel (Section 6.1.2): a partitioned
/// irregular mesh where each solver step exchanges interface values with
/// every neighbour partition through index arrays (`ωQ'ω`).
#[derive(Debug, Clone)]
pub struct FemKernel {
    /// The partitioned mesh.
    pub mesh: PartitionedMesh,
}

impl FemKernel {
    /// A 110k-point synthetic valley over 64 partitions, sized so each
    /// interface is a few hundred words, like the Quake mesh's partitions.
    /// The mesh is a constant: it is built once per process.
    pub fn paper_instance() -> &'static FemKernel {
        static PAPER: OnceLock<FemKernel> = OnceLock::new();
        PAPER.get_or_init(|| FemKernel {
            mesh: PartitionedMesh::synthetic_valley([48, 48, 48], [4, 4, 4], 1995),
        })
    }

    /// Words exchanged with one neighbour (the mean interface size).
    pub fn exchange_words(&self) -> u64 {
        self.mesh.mean_interface_points() as u64
    }

    /// The per-direction phase rounds of the boundary exchange on `topo`
    /// (one shift per topology direction, as solvers schedule it) — shared
    /// by the analytic factor and the event engine.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when the mesh partition count does not match
    /// the topology's node count.
    pub fn rounds(&self, topo: &Topology) -> SimResult<Vec<Vec<traffic::Flow>>> {
        if self.mesh.partitions() != topo.len() {
            return Err(SimError::Protocol {
                detail: format!(
                    "FEM mesh has {} partitions but the topology has {} nodes",
                    self.mesh.partitions(),
                    topo.len()
                ),
                at: 0,
            });
        }
        let bytes = self.exchange_words() * 8;
        // Phase = all flows with the same (coordinate delta) direction, -1
        // before +1, lowest dimension first; for a shift on a torus each
        // phase is a permutation. A 2-wide torus ring has no -1 direction
        // (hop deltas tie positive), so that phase is empty and is dropped
        // rather than scheduled as a no-op round.
        let dims = topo.dims();
        let mut phases = vec![Vec::new(); 2 * dims.len()];
        for f in traffic::neighbor_exchange(topo, bytes) {
            // The flow's hop delta in every dimension, from node-id strides.
            let mut stride = topo.len();
            let mut moves = dims.iter().enumerate().filter_map(|(dim, &size)| {
                stride /= size as usize;
                let [a, b] = [f.src, f.dst].map(|n| (n / stride % size as usize) as u32);
                let delta = topo.hop_delta(a, b, dim);
                (delta != 0).then_some((dim, delta))
            });
            if let (Some((dim, step @ (-1 | 1))), None) = (moves.next(), moves.next()) {
                phases[2 * dim + usize::from(step == 1)].push(f);
            }
        }
        phases.retain(|phase| !phase.is_empty());
        Ok(phases)
    }
}

/// The SOR halo-shift kernel (Section 6.1.3): contiguous overlap rows
/// exchanged with the two shift neighbours after every relaxation, plus a
/// synchronization — many small messages, so fixed costs dominate and
/// chaining buys little (the paper's point about the model-vs-measured gap
/// for SOR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SorKernel {
    /// Matrix dimension (halo row length in words).
    pub n: u64,
}

impl SorKernel {
    /// The paper's 256×256 instance.
    pub fn paper_instance() -> Self {
        SorKernel { n: 256 }
    }

    /// Validates this kernel against a topology: the halo shift needs a
    /// neighbour to shift to, and a non-empty halo row whose shift's link
    /// loads (at most `p · (p − 1)` rows of 8-byte words) fit a `u64`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] describing the invalid configuration.
    pub fn validate_on(&self, topo: &Topology) -> SimResult<()> {
        if topo.len() < 2 {
            return Err(SimError::Protocol {
                detail: format!("SOR shift needs at least 2 nodes, got {}", topo.len()),
                at: 0,
            });
        }
        if self.n == 0 {
            return Err(SimError::Protocol {
                detail: "SOR halo row must be non-empty".into(),
                at: 0,
            });
        }
        let p = topo.len() as u64;
        if self
            .n
            .checked_mul(8 * p)
            .and_then(|b| b.checked_mul(p - 1))
            .is_none()
        {
            return Err(SimError::Protocol {
                detail: format!(
                    "SOR halo row of {} words on {p} nodes overflows a 64-bit byte count",
                    self.n
                ),
                at: 0,
            });
        }
        Ok(())
    }

    /// The two sequential halo shifts of one relaxation (up then down) —
    /// what both the analytic congestion factor and the event engine
    /// execute.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an invalid configuration.
    pub fn rounds(&self, topo: &Topology) -> SimResult<Vec<Vec<traffic::Flow>>> {
        self.validate_on(topo)?;
        let bytes = self.n * 8;
        Ok(vec![
            traffic::cyclic_shift(topo, 1, bytes),
            traffic::cyclic_shift(topo, topo.len() - 1, bytes),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_patch_matches_paper() {
        let k = TransposeKernel::paper_instance();
        // 16x16 complex patch = 512 words on 64 nodes.
        assert_eq!(k.try_patch_words(64), Ok(512));
    }

    #[test]
    fn congestion_factors_are_reasonable() {
        let t3d = Machine::t3d();
        let transpose = Table6Kernel::Transpose(TransposeKernel::paper_instance());
        let transpose = transpose.analytic_congestion(&t3d, &t3d.topology).unwrap();
        assert!(
            (2.0..=4.0).contains(&transpose),
            "transpose congestion {transpose}"
        );
        let sor = Table6Kernel::Sor(SorKernel::paper_instance());
        let sor_t3d = sor.analytic_congestion(&t3d, &t3d.topology).unwrap();
        assert!((2.0..=2.5).contains(&sor_t3d), "shift congestion {sor_t3d}");
        let paragon = Machine::paragon();
        let sor_p = sor
            .analytic_congestion(&paragon, &paragon.topology)
            .unwrap();
        assert!(
            sor_p >= 1.0 && sor_p <= sor_t3d,
            "no port sharing on the Paragon"
        );
        // SOR's factor is the worse of its two shifts; at every
        // power-of-two scale either machine stretches to, that is the +1
        // shift's factor alone, to the bit.
        for machine in [t3d, paragon] {
            for nodes in (1..=12).map(|k| 1usize << k) {
                let topo = crate::netrun::engine_topology(&machine, Some(nodes)).unwrap();
                let shift = traffic::cyclic_shift(&topo, 1, SorKernel::paper_instance().n * 8);
                let up = pattern_congestion(&topo, &shift, machine.nodes_per_port).factor;
                let both = sor.analytic_congestion(&machine, &topo).unwrap();
                assert_eq!(both.to_bits(), up.to_bits(), "{} at {nodes}", machine.name);
            }
        }
    }

    #[test]
    fn invalid_decompositions_are_protocol_errors() {
        let t3d = Machine::t3d();
        // 100 is not a multiple of 64: the old code truncated (100/64 = 1)
        // and priced a 1x1 patch; now it refuses.
        let bad = TransposeKernel {
            n: 100,
            words_per_element: 2,
        };
        let bad = Table6Kernel::Transpose(bad);
        assert!(matches!(
            bad.analytic_congestion(&t3d, &t3d.topology),
            Err(SimError::Protocol { .. })
        ));
        assert!(matches!(
            bad.measure(&t3d, CommMethod::Chained),
            Err(SimError::Protocol { .. })
        ));
        // A non-power-of-two node count can't run the XOR schedule.
        let k = TransposeKernel::paper_instance();
        assert!(matches!(
            k.try_patch_words(48),
            Err(SimError::Protocol { .. })
        ));
        assert!(k.try_patch_words(64).is_ok());
        // A FEM mesh partitioned for 64 nodes cannot run on 16.
        let fem = FemKernel::paper_instance();
        let small = Topology::torus(&[4, 4]);
        assert!(matches!(fem.rounds(&small), Err(SimError::Protocol { .. })));
        // SOR needs a neighbour.
        let sor = Table6Kernel::Sor(SorKernel::paper_instance());
        let lone = Topology::torus(&[1]);
        assert!(matches!(
            sor.analytic_congestion(&t3d, &lone),
            Err(SimError::Protocol { .. })
        ));
        // Matrix sizes past the 32-bit stride range: n = 2^61 on 4 nodes,
        // whose patch also overflows, and n = 2^32 + 1024 on 64 nodes,
        // whose schedule's link loads also overflow.
        let quad = Topology::torus(&[2, 2]);
        let cube = Topology::torus(&[4, 4, 4]);
        for (n, topo) in [(1 << 61, &quad), (4_294_968_320, &cube)] {
            let k = TransposeKernel {
                n,
                words_per_element: 2,
            };
            let p = topo.len() as u64;
            assert!(matches!(
                k.try_patch_words(p),
                Err(SimError::Protocol { .. })
            ));
            assert!(matches!(k.rounds(topo), Err(SimError::Protocol { .. })));
            let k = Table6Kernel::Transpose(k);
            assert!(matches!(
                k.analytic_congestion(&t3d, topo),
                Err(SimError::Protocol { .. })
            ));
            assert!(matches!(
                k.measure_at(&t3d, CommMethod::Chained, p, 1.0),
                Err(SimError::Protocol { .. })
            ));
        }
        // A halo row whose bytes overflow.
        let long = SorKernel { n: 1 << 61 };
        assert!(matches!(long.rounds(&quad), Err(SimError::Protocol { .. })));
        // A 32-bit stride whose schedule's bytes overflow (2^61-word
        // patches), and a patch that overflows on its own.
        let wide = TransposeKernel {
            n: 1 << 31,
            words_per_element: 2,
        };
        assert!(matches!(
            wide.try_patch_words(2),
            Err(SimError::Protocol { .. })
        ));
        let heavy = TransposeKernel {
            n: 1024,
            words_per_element: 1 << 60,
        };
        assert!(matches!(
            heavy.try_patch_words(64),
            Err(SimError::Protocol { .. })
        ));
        // The model prices a stride past the 32-bit range as the widest.
        let huge = TransposeKernel {
            n: 1 << 61,
            words_per_element: 2,
        };
        assert!(matches!(
            Table6Kernel::Transpose(huge).model_chained(&RateTable::default()),
            Err(ModelError::MissingRate(_))
        ));
    }

    #[test]
    fn fem_congestion_generalizes_to_any_even_dim_torus() {
        let t3d = Machine::t3d();
        // Scaled power-of-two tori hit 2-wide rings ([2,2,2] at 8 nodes,
        // [4,4,2] at 32); the duplicated ±1 exchange flows used to double
        // the worst-phase factor to 4 there. With shared ports (T3D npp=2)
        // every even-dim torus must price the phased halo exchange at the
        // port-sharing factor 2 — including non-power-of-two node counts.
        for dims in [
            vec![2u32, 2, 2],
            vec![4, 2, 2],
            vec![4, 4, 2],
            vec![6, 4, 2],
            vec![6, 6, 2],
        ] {
            let topo = Topology::torus(&dims);
            let parts = [dims[0] as usize, dims[1] as usize, dims[2] as usize];
            let fem = Table6Kernel::Fem(FemKernel {
                mesh: PartitionedMesh::synthetic_valley([48, 48, 48], parts, 1995),
            });
            let f = fem.analytic_congestion(&t3d, &topo).unwrap();
            assert!(
                (f - 2.0).abs() < 1e-9,
                "phased exchange on {dims:?} priced at {f}, want 2.0"
            );
            // Every scheduled phase is a permutation: at most one flow per
            // source, and no empty rounds.
            for phase in fem.rounds(&topo).unwrap() {
                assert!(!phase.is_empty());
                let srcs: std::collections::HashSet<_> = phase.iter().map(|f| f.src).collect();
                assert_eq!(srcs.len(), phase.len(), "{dims:?}: phase not a permutation");
            }
        }
    }

    #[test]
    fn chained_beats_buffer_packing_beats_pvm_on_t3d() {
        let t3d = Machine::t3d();
        let k = Table6Kernel::Transpose(TransposeKernel::paper_instance());
        let bp = k.measure(&t3d, CommMethod::BufferPacking).unwrap();
        let ch = k.measure(&t3d, CommMethod::Chained).unwrap();
        let pvm = k.measure(&t3d, CommMethod::Pvm).unwrap();
        assert!(bp.verified && ch.verified && pvm.verified);
        assert!(
            ch.per_node > bp.per_node && bp.per_node > pvm.per_node,
            "chained {} > bp {} > pvm {}",
            ch.per_node,
            bp.per_node,
            pvm.per_node
        );
    }

    #[test]
    fn full_transpose_agrees_with_the_representative_round() {
        let t3d = Machine::t3d();
        let k = TransposeKernel::paper_instance();
        let full = k.measure_full(&t3d, CommMethod::Chained).unwrap();
        let single = Table6Kernel::Transpose(k)
            .measure(&t3d, CommMethod::Chained)
            .unwrap();
        assert!(full.verified);
        let ratio = full.per_node.as_mbps() / single.per_node.as_mbps();
        assert!(
            (0.85..1.25).contains(&ratio),
            "full {} vs representative {} (ratio {ratio:.2})",
            full.per_node,
            single.per_node
        );
    }

    #[test]
    fn fem_exchange_is_indexed_and_small() {
        let k = FemKernel::paper_instance();
        assert_eq!(k.mesh.partitions(), 64);
        assert_eq!(k.exchange_words(), 144, "12x12 faces");
        let t3d = Machine::t3d();
        let k = Table6Kernel::Fem(k.clone());
        let ch = k.measure(&t3d, CommMethod::Chained).unwrap();
        let bp = k.measure(&t3d, CommMethod::BufferPacking).unwrap();
        assert!(ch.verified && bp.verified);
        assert!(ch.per_node > bp.per_node);
    }

    #[test]
    fn sor_is_overhead_dominated() {
        let t3d = Machine::t3d();
        let k = Table6Kernel::Sor(SorKernel::paper_instance());
        let ch = k.measure(&t3d, CommMethod::Chained).unwrap();
        let bp = k.measure(&t3d, CommMethod::BufferPacking).unwrap();
        // Chained helps only marginally for contiguous small messages.
        let ratio = ch.per_node.as_mbps() / bp.per_node.as_mbps();
        assert!((0.95..1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn model_estimates_exceed_sor_measurement() {
        // The paper's Table 6: SOR chained model 68.1 vs measured 27.9 —
        // fixed costs the model ignores. The same structural gap must
        // appear here.
        let t3d = Machine::t3d();
        let rates = memcomm_machines::microbench::measure_table(&t3d, 4096).unwrap();
        let k = Table6Kernel::Sor(SorKernel::paper_instance());
        let model = k.model_chained(&rates).unwrap();
        let measured = k.measure(&t3d, CommMethod::Chained).unwrap();
        assert!(model.as_mbps() > 1.8 * measured.per_node.as_mbps());
    }
}

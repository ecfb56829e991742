//! Processor roles: local copies, load-send, receive-store.

use std::collections::VecDeque;

use crate::clock::Cycle;
use crate::engines::Step;
use crate::error::{SimError, SimResult};
use crate::mem::Memory;
use crate::nic::{NetWord, TimedFifo, WordKind};
use crate::path::{MemPath, Port};
use crate::pfq::{Pfq, PfqParams};
use crate::walk::Walk;
use memcomm_model::AccessPattern;

/// Processor cost model.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct CpuParams {
    /// Cycles to generate an address and issue a load (amortized over an
    /// unrolled loop).
    pub load_issue_cycles: Cycle,
    /// Cycles to issue a store.
    pub store_issue_cycles: Cycle,
    /// Residual loop-control cycles per element.
    pub loop_cycles: Cycle,
    /// Extra address arithmetic per indexed access (beyond the index load).
    pub indexed_extra_cycles: Cycle,
    /// Cycles to store one word to the memory-mapped NIC port.
    pub port_store_cycles: Cycle,
    /// Cycles to load one word from the NIC port.
    pub port_load_cycles: Cycle,
    /// Pipelined-load (cache-bypassing) capability.
    pub pfq: PfqParams,
}

/// A processor: a local clock plus the pipelined-load state.
///
/// Engines ([`LocalCopier`], [`CpuSender`], [`CpuReceiver`]) borrow a `Cpu`
/// per step, so one physical processor can time-share several roles — the
/// situation the model's sequential-composition rule describes.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// The processor's local clock.
    pub t: Cycle,
    params: CpuParams,
    port: Port,
    pfq: Pfq,
    values: VecDeque<u64>,
}

impl Cpu {
    /// Creates a processor at cycle 0 that arbitrates for memory as `port`.
    pub fn new(params: CpuParams, port: Port) -> Self {
        Cpu {
            t: 0,
            params,
            port,
            pfq: Pfq::new(params.pfq),
            values: VecDeque::new(),
        }
    }

    /// The cost model.
    pub fn params(&self) -> &CpuParams {
        &self.params
    }

    /// The memory-path port this processor arbitrates as.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Whether loads of this pattern use the pipelined (cache-bypassing)
    /// path: enabled hardware and a non-contiguous pattern (contiguous
    /// streams do better through cache-line fills and read-ahead).
    pub fn pipelined_for(&self, pattern: AccessPattern) -> bool {
        self.pfq.enabled() && pattern != AccessPattern::Contiguous
    }

    /// Software-pipeline depth for loads of this pattern.
    pub fn depth_for(&self, pattern: AccessPattern) -> usize {
        if self.pipelined_for(pattern) {
            self.pfq.params().depth
        } else {
            1
        }
    }

    /// Outstanding issued-but-unretired loads.
    pub fn pending_loads(&self) -> usize {
        self.values.len()
    }

    /// Charges the index-array load for element `i` of an indexed walk
    /// (no-op for other patterns).
    pub fn fetch_index(&mut self, path: &mut MemPath, walk: &Walk, i: u64) {
        if let Some(ia) = walk.index_addr(i) {
            self.t = path.cpu_load(self.t + self.params.load_issue_cycles, self.port, ia);
            self.t += self.params.indexed_extra_cycles;
        }
    }

    /// Issues the load of element `i` of `walk`: index fetch, issue cost,
    /// and either a blocking cached load or a pipelined uncached load. The
    /// loaded value is retrieved with [`retire_load`](Self::retire_load).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if the load pipe is full — the engine
    /// must retire before issuing past the pipeline depth.
    pub fn issue_load(
        &mut self,
        path: &mut MemPath,
        mem: &Memory,
        walk: &Walk,
        i: u64,
    ) -> SimResult<()> {
        self.fetch_index(path, walk, i);
        self.t += self.params.loop_cycles + self.params.load_issue_cycles;
        let addr = walk.addr(i);
        let value = mem.read(addr);
        if self.pipelined_for(walk.pattern()) {
            let t = self.pfq.issue_time(self.t);
            let ready = path.uncached_load(t, self.port, addr);
            self.pfq.push(ready);
            self.t = t;
        } else {
            // Cached loads complete in order and never exceed depth 1 in the
            // engines, but share the bookkeeping path for uniform retire.
            if self.pfq.is_full() {
                return Err(SimError::Protocol {
                    detail: "load issued past the pipeline depth".to_string(),
                    at: self.t,
                });
            }
            let ready = path.cpu_load(self.t, self.port, addr);
            self.t = ready;
            self.pfq.push(ready);
        }
        self.values.push_back(value);
        Ok(())
    }

    /// Retires the oldest outstanding load, waiting for its data, and
    /// returns the value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if no load is outstanding.
    pub fn retire_load(&mut self) -> SimResult<u64> {
        let Some(ready) = self.pfq.retire() else {
            return Err(SimError::Protocol {
                detail: "no outstanding load to retire".to_string(),
                at: self.t,
            });
        };
        self.t = self.t.max(ready);
        self.values.pop_front().ok_or(SimError::Protocol {
            detail: "load value queue out of sync with the pipeline".to_string(),
            at: self.t,
        })
    }

    /// Stores `value` as element `i` of `walk` (index fetch, issue, posted
    /// store through the memory path) and updates memory.
    pub fn store_element(
        &mut self,
        path: &mut MemPath,
        mem: &mut Memory,
        walk: &Walk,
        i: u64,
        value: u64,
    ) {
        self.fetch_index(path, walk, i);
        self.store_at(path, mem, walk.addr(i), value);
    }

    /// Stores `value` at an explicit byte address (used when the address
    /// arrived over the wire).
    pub fn store_at(&mut self, path: &mut MemPath, mem: &mut Memory, addr: u64, value: u64) {
        self.t += self.params.store_issue_cycles;
        self.t = path.cpu_store(self.t, self.port, addr);
        mem.write(addr, value);
    }

    /// Charges a store of one word to the NIC port.
    pub fn port_store(&mut self) {
        self.t += self.params.port_store_cycles;
    }

    /// Pops a word from a NIC FIFO, charging the port-load cost. Returns
    /// `None` (and leaves the clock untouched) when the FIFO is empty.
    pub fn port_pop(&mut self, fifo: &mut TimedFifo) -> Option<NetWord> {
        let (at, word) = fifo.pop(self.t)?;
        self.t = at + self.params.port_load_cycles;
        Some(word)
    }
}

/// A local memory-to-memory copy `xCy`, element by element, with software
/// pipelining for non-contiguous loads.
#[derive(Debug, Clone)]
pub struct LocalCopier {
    src: Walk,
    dst: Walk,
    issued: u64,
    retired: u64,
}

impl LocalCopier {
    /// Creates a copier.
    ///
    /// # Panics
    ///
    /// Panics if the walks differ in length.
    pub fn new(src: Walk, dst: Walk) -> Self {
        assert_eq!(src.len(), dst.len(), "copy walks must have equal length");
        LocalCopier {
            src,
            dst,
            issued: 0,
            retired: 0,
        }
    }

    /// Advances by one element (unpipelined loads) or by one issue or one
    /// retire+store (pipelined loads).
    ///
    /// With a pipeline depth of 1 each step is atomic — it leaves no load
    /// in flight — so several engines can time-share one [`Cpu`] safely (a
    /// buffer-packing processor interleaving gather, send and scatter).
    /// Deeper pipelines keep loads in flight across steps and must not be
    /// interleaved with other engines on the same processor.
    ///
    /// # Errors
    ///
    /// Propagates pipeline-discipline violations from the processor.
    pub fn step(&mut self, cpu: &mut Cpu, path: &mut MemPath, mem: &mut Memory) -> SimResult<Step> {
        let n = self.src.len();
        if self.retired == n {
            return Ok(Step::Done);
        }
        let depth = cpu.depth_for(self.src.pattern()) as u64;
        if depth == 1 {
            cpu.issue_load(path, mem, &self.src, self.issued)?;
            self.issued += 1;
            let value = cpu.retire_load()?;
            cpu.store_element(path, mem, &self.dst, self.retired, value);
            self.retired += 1;
        } else if self.issued < n && self.issued - self.retired < depth {
            cpu.issue_load(path, mem, &self.src, self.issued)?;
            self.issued += 1;
        } else {
            let value = cpu.retire_load()?;
            cpu.store_element(path, mem, &self.dst, self.retired, value);
            self.retired += 1;
        }
        Ok(Step::Progressed)
    }

    /// Runs the whole copy (local copies never block on FIFOs).
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`step`](Self::step).
    pub fn run(mut self, cpu: &mut Cpu, path: &mut MemPath, mem: &mut Memory) -> SimResult<()> {
        while self.step(cpu, path, mem)? != Step::Done {}
        Ok(())
    }
}

/// A processor send loop `xS0`: loads elements of `src` and stores them to
/// the NIC port, optionally pairing each with a remote destination address
/// (address-data pairs for chained transfers).
#[derive(Debug, Clone)]
pub struct CpuSender {
    src: Walk,
    remote_dst: Option<Walk>,
    issued: u64,
    sent: u64,
    staged: Option<NetWord>,
}

impl CpuSender {
    /// Creates a sender. `remote_dst`, when present, supplies the remote
    /// store address for each element (its index region, if indexed, must
    /// live in *this* node's memory: the sender computes the addresses).
    ///
    /// # Panics
    ///
    /// Panics if walk lengths differ.
    pub fn new(src: Walk, remote_dst: Option<Walk>) -> Self {
        if let Some(d) = &remote_dst {
            assert_eq!(src.len(), d.len(), "send walks must have equal length");
        }
        CpuSender {
            src,
            remote_dst,
            issued: 0,
            sent: 0,
            staged: None,
        }
    }

    /// Words this sender has pushed so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Advances by one issue, one stage, or one FIFO push.
    ///
    /// # Errors
    ///
    /// Propagates pipeline-discipline violations from the processor.
    pub fn step(
        &mut self,
        cpu: &mut Cpu,
        path: &mut MemPath,
        mem: &Memory,
        tx: &mut TimedFifo,
    ) -> SimResult<Step> {
        let n = self.src.len();
        if let Some(word) = self.staged {
            return Ok(match tx.push(cpu.t, word) {
                Some(at) => {
                    cpu.t = cpu.t.max(at);
                    self.staged = None;
                    self.sent += 1;
                    Step::Progressed
                }
                None => Step::Blocked,
            });
        }
        if self.sent == n {
            return Ok(Step::Done);
        }
        let depth = cpu.depth_for(self.src.pattern()) as u64;
        if depth == 1 {
            // Atomic per element: no load stays in flight across steps, so
            // the processor can be time-shared with other engines.
            cpu.issue_load(path, mem, &self.src, self.issued)?;
            self.issued += 1;
            let value = cpu.retire_load()?;
            let addr = self.remote_dst.as_ref().map(|d| {
                cpu.fetch_index(path, d, self.sent);
                d.addr(self.sent)
            });
            cpu.port_store();
            self.staged = Some(NetWord {
                addr,
                data: value,
                kind: WordKind::Data,
            });
        } else if self.issued < n && self.issued - self.sent < depth {
            cpu.issue_load(path, mem, &self.src, self.issued)?;
            self.issued += 1;
        } else {
            let value = cpu.retire_load()?;
            let addr = self.remote_dst.as_ref().map(|d| {
                cpu.fetch_index(path, d, self.sent);
                d.addr(self.sent)
            });
            cpu.port_store();
            self.staged = Some(NetWord {
                addr,
                data: value,
                kind: WordKind::Data,
            });
        }
        Ok(Step::Progressed)
    }
}

/// A processor receive loop `0Ry`: pops words from the NIC FIFO and stores
/// them — either at the address carried by the word (address-data pairs) or
/// along a destination walk (data-only transfers).
#[derive(Debug, Clone)]
pub struct CpuReceiver {
    dst: Walk,
    received: u64,
}

impl CpuReceiver {
    /// Creates a receiver expecting `dst.len()` words. Words carrying their
    /// own address are stored there; bare data words follow `dst`.
    pub fn new(dst: Walk) -> Self {
        CpuReceiver { dst, received: 0 }
    }

    /// Words received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Advances by one word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] when a protocol control word reaches a
    /// raw receive loop — control traffic belongs to the protocol layer.
    pub fn step(
        &mut self,
        cpu: &mut Cpu,
        path: &mut MemPath,
        mem: &mut Memory,
        rx: &mut TimedFifo,
    ) -> SimResult<Step> {
        if self.received == self.dst.len() {
            return Ok(Step::Done);
        }
        let Some(word) = cpu.port_pop(rx) else {
            return Ok(Step::Blocked);
        };
        if word.kind == WordKind::Control {
            return Err(SimError::Protocol {
                detail: "raw receive loop cannot interpret control words".to_string(),
                at: cpu.t,
            });
        }
        match word.addr {
            Some(addr) => cpu.store_at(path, mem, addr, word.data),
            None => cpu.store_element(path, mem, &self.dst, self.received, word.data),
        }
        self.received += 1;
        Ok(Step::Progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeParams;

    fn path() -> MemPath {
        MemPath::new(NodeParams::default().path)
    }

    fn cpu(pfq: bool) -> Cpu {
        Cpu::new(
            CpuParams {
                load_issue_cycles: 1,
                store_issue_cycles: 1,
                loop_cycles: 1,
                indexed_extra_cycles: 1,
                port_store_cycles: 6,
                port_load_cycles: 6,
                pfq: PfqParams {
                    depth: 3,
                    enabled: pfq,
                },
            },
            Port::Cpu,
        )
    }

    #[test]
    fn local_copy_moves_data() {
        let mut mem = Memory::new(64 * 1024, 2048);
        let mut p = path();
        let mut c = cpu(false);
        let src = mem.alloc_walk(AccessPattern::Contiguous, 64, None).unwrap();
        let dst = mem
            .alloc_walk(AccessPattern::strided(4).unwrap(), 64, None)
            .unwrap();
        mem.fill(src.region(), (0..64).map(|i| i * 11));
        LocalCopier::new(src.clone(), dst.clone())
            .run(&mut c, &mut p, &mut mem)
            .unwrap();
        for i in 0..64 {
            assert_eq!(mem.read(dst.addr(i)), i * 11);
        }
        assert!(c.t > 0);
    }

    #[test]
    fn indexed_copy_permutes() {
        let mut mem = Memory::new(64 * 1024, 2048);
        let mut p = path();
        let mut c = cpu(false);
        let n = 16u64;
        let index: Vec<u32> = (0..n as u32).rev().collect();
        let src = mem
            .alloc_walk(AccessPattern::Indexed, n, Some(index))
            .unwrap();
        let dst = mem.alloc_walk(AccessPattern::Contiguous, n, None).unwrap();
        mem.fill(src.region(), 0..n);
        LocalCopier::new(src, dst.clone())
            .run(&mut c, &mut p, &mut mem)
            .unwrap();
        assert_eq!(mem.dump(dst.region()), (0..n).rev().collect::<Vec<_>>());
    }

    #[test]
    fn pipelined_loads_speed_strided_copies() {
        let run = |pfq: bool| {
            let mut mem = Memory::new(1 << 20, 2048);
            let mut p = path();
            let mut c = cpu(pfq);
            let src = mem
                .alloc_walk(AccessPattern::strided(64).unwrap(), 1024, None)
                .unwrap();
            let dst = mem
                .alloc_walk(AccessPattern::Contiguous, 1024, None)
                .unwrap();
            LocalCopier::new(src, dst)
                .run(&mut c, &mut p, &mut mem)
                .unwrap();
            c.t
        };
        // With a single DRAM bank the pipeline cannot overlap much; the test
        // only requires it not to be slower.
        assert!(run(true) <= run(false));
    }

    #[test]
    fn sender_blocks_on_full_fifo_and_resumes() {
        let mut mem = Memory::new(64 * 1024, 2048);
        let mut p = path();
        let mut c = cpu(false);
        let src = mem.alloc_walk(AccessPattern::Contiguous, 8, None).unwrap();
        mem.fill(src.region(), 100..108);
        let mut tx = TimedFifo::new(2);
        let mut s = CpuSender::new(src, None);
        let mut blocked = 0;
        let mut done = false;
        let mut drained = Vec::new();
        // Drive sender; drain one word whenever it blocks.
        for _ in 0..200 {
            match s.step(&mut c, &mut p, &mem, &mut tx).unwrap() {
                Step::Blocked => {
                    blocked += 1;
                    let (_, w) = tx.pop(c.t + 50).unwrap();
                    drained.push(w.data);
                }
                Step::Done => {
                    done = true;
                    break;
                }
                Step::Progressed => {}
            }
        }
        while let Some((_, w)) = tx.pop(u64::MAX / 2) {
            drained.push(w.data);
        }
        assert!(done, "sender must finish");
        assert!(blocked > 0, "2-slot fifo must backpressure");
        assert_eq!(drained, (100..108).collect::<Vec<_>>());
    }

    #[test]
    fn receiver_stores_addressed_words() {
        let mut mem = Memory::new(64 * 1024, 2048);
        let mut p = path();
        let mut c = cpu(false);
        let dst = mem
            .alloc_walk(AccessPattern::strided(2).unwrap(), 4, None)
            .unwrap();
        let mut rx = TimedFifo::new(8);
        for i in 0..4u64 {
            rx.push(
                i * 10,
                NetWord {
                    addr: Some(dst.addr(3 - i)),
                    data: 70 + i,
                    kind: WordKind::Data,
                },
            )
            .unwrap();
        }
        let mut r = CpuReceiver::new(dst.clone());
        while r.step(&mut c, &mut p, &mut mem, &mut rx).unwrap() != Step::Done {}
        assert_eq!(mem.read(dst.addr(3)), 70);
        assert_eq!(mem.read(dst.addr(0)), 73);
    }

    #[test]
    fn receiver_blocks_on_empty_fifo() {
        let mut mem = Memory::new(64 * 1024, 2048);
        let mut p = path();
        let mut c = cpu(false);
        let dst = mem.alloc_walk(AccessPattern::Contiguous, 1, None).unwrap();
        let mut rx = TimedFifo::new(2);
        let mut r = CpuReceiver::new(dst);
        assert_eq!(
            r.step(&mut c, &mut p, &mut mem, &mut rx).unwrap(),
            Step::Blocked
        );
    }

    #[test]
    fn adp_sender_attaches_remote_addresses() {
        let mut mem = Memory::new(64 * 1024, 2048);
        let mut p = path();
        let mut c = cpu(false);
        let src = mem.alloc_walk(AccessPattern::Contiguous, 4, None).unwrap();
        let dst = mem
            .alloc_walk(AccessPattern::strided(8).unwrap(), 4, None)
            .unwrap();
        mem.fill(src.region(), 0..4);
        let mut tx = TimedFifo::new(16);
        let mut s = CpuSender::new(src, Some(dst.clone()));
        while s.step(&mut c, &mut p, &mem, &mut tx).unwrap() != Step::Done {}
        for i in 0..4 {
            let (_, w) = tx.pop(c.t).unwrap();
            assert_eq!(w.addr, Some(dst.addr(i)));
            assert_eq!(w.wire_bytes(), 16);
        }
    }
}

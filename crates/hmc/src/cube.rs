//! The assembled cube: links + vaults + functional storage + energy.

use crate::address::AddressMapping;
use crate::config::HmcConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::vault::Vault;
use hipe_sim::{Cycle, ThroughputPipe};

/// What kind of access the host performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain read: data crosses the links to the host.
    Read,
    /// Plain write: data crosses the links to the cube.
    Write,
    /// An HMC-ISA operation (e.g. load-compare): executed by the vault
    /// functional unit; only a small result crosses the links back.
    PimOp {
        /// Bytes of the result carried in the response packet.
        result_bytes: u64,
    },
}

/// Timing outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Cycle at which the requester observes completion.
    pub complete: Cycle,
}

/// Aggregate activity counters of the cube.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HmcStats {
    /// Row activations (== closed-page bank accesses).
    pub activations: u64,
    /// Bytes read from DRAM cores.
    pub bytes_read: u64,
    /// Bytes written to DRAM cores.
    pub bytes_written: u64,
    /// Bytes that crossed the links in either direction (incl. headers).
    pub link_bytes: u64,
    /// Vault functional-unit operations executed.
    pub fu_ops: u64,
}

/// Per-vault activity counters: the vault-group accounting behind the
/// partitioned execution reports (which vault groups a run actually
/// worked, and how evenly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultActivity {
    /// Row activations in this vault's banks.
    pub activations: u64,
    /// Bytes read from this vault's DRAM cores.
    pub bytes_read: u64,
    /// Bytes written to this vault's DRAM cores.
    pub bytes_written: u64,
}

impl std::ops::AddAssign for VaultActivity {
    fn add_assign(&mut self, other: VaultActivity) {
        self.activations += other.activations;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// The Hybrid Memory Cube: timing, functional storage and energy.
///
/// The cube exposes three request paths:
///
/// * [`access`](Self::access) — host requests that traverse the serial
///   links (plain reads/writes from the cache hierarchy, or HMC-ISA
///   PIM operations that return only a result);
/// * [`internal_read`](Self::internal_read) /
///   [`internal_write`](Self::internal_write) — logic-layer requests
///   issued by the HIVE/HIPE engine, which sit *inside* the cube and
///   do not use the links;
/// * [`read_bytes`](Self::read_bytes) / [`write_bytes`](Self::write_bytes)
///   — zero-time functional accesses to the memory image (used to set
///   up workloads and by engines to compute real values).
///
/// # Example
///
/// ```
/// use hipe_hmc::{AccessKind, Hmc, HmcConfig};
/// let mut hmc = Hmc::new(HmcConfig::paper(), 1 << 16);
/// let r1 = hmc.access(0, 0, 64, AccessKind::Read);
/// let r2 = hmc.access(0, 256, 64, AccessKind::Read);
/// // Different vaults: the bank phases overlap, so the second read
/// // trails the first only by link serialization, not a bank cycle.
/// assert!(r2.complete - r1.complete < 20);
/// ```
#[derive(Debug)]
pub struct Hmc {
    cfg: HmcConfig,
    mapping: AddressMapping,
    vaults: Vec<Vault>,
    /// Host -> cube direction (requests, write payloads).
    req_link: ThroughputPipe,
    /// Cube -> host direction (responses, read payloads).
    rsp_link: ThroughputPipe,
    mem: Vec<u8>,
    stats: HmcStats,
    /// Per-vault accounting (run-scoped, reset with the timing state).
    vault_activity: Vec<VaultActivity>,
    energy_model: EnergyModel,
    energy: EnergyBreakdown,
}

impl Hmc {
    /// Creates a cube with `image_bytes` of functional storage.
    ///
    /// The timing model covers the full 8 GB address space; only the
    /// first `image_bytes` are backed by real data (enough to hold the
    /// workload tables — the paper's Q6 working set is ~1 GB at SF 1
    /// and proportionally less at reduced scale).
    pub fn new(cfg: HmcConfig, image_bytes: usize) -> Self {
        let (num, den) = cfg.link_rate();
        let vaults = (0..cfg.vaults).map(|_| Vault::new(&cfg)).collect();
        Hmc {
            mapping: AddressMapping::new(&cfg),
            vaults,
            req_link: ThroughputPipe::new(num, den, cfg.link_latency),
            rsp_link: ThroughputPipe::new(num, den, cfg.link_latency),
            mem: vec![0; image_bytes],
            stats: HmcStats::default(),
            vault_activity: vec![VaultActivity::default(); cfg.vaults],
            energy_model: EnergyModel::paper(),
            energy: EnergyBreakdown::default(),
            cfg,
        }
    }

    /// The cube configuration.
    pub fn config(&self) -> &HmcConfig {
        &self.cfg
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Performs a host-side access that traverses the serial links.
    ///
    /// Requests larger than one row buffer are split into per-row bank
    /// requests that proceed in parallel across vaults/banks; the
    /// response completes when the last fragment arrives.
    pub fn access(&mut self, cycle: Cycle, addr: u64, bytes: u64, kind: AccessKind) -> Response {
        let header = self.cfg.packet_header_bytes;
        // Request packet: header plus write payload (write) or just the
        // command (read / PIM op carries a 16 B immediate in-header).
        let req_bytes = match kind {
            AccessKind::Write => header + bytes,
            AccessKind::Read | AccessKind::PimOp { .. } => header,
        };
        let at_cube = self.req_link.transfer(cycle, req_bytes);
        self.stats.link_bytes += req_bytes;
        self.energy.add_link(&self.energy_model, req_bytes);

        // Bank phase.
        let mut done = at_cube;
        let write = matches!(kind, AccessKind::Write);
        let mapping = self.mapping;
        for (a, l) in mapping.split(addr, bytes) {
            let d = self.bank_access(at_cube, a, l, write);
            done = done.max(d);
        }

        // PIM operation executes in the vault functional unit after the
        // data is out of the bank.
        if let AccessKind::PimOp { .. } = kind {
            let loc = self.mapping.locate(addr);
            done = self.vaults[loc.vault].execute_fu(done, self.cfg.vault_fu_latency);
            self.stats.fu_ops += 1;
            self.energy.add_logic_ops(&self.energy_model, 1);
        }

        // Response packet.
        let rsp_bytes = match kind {
            AccessKind::Read => header + bytes,
            AccessKind::Write => header,
            AccessKind::PimOp { result_bytes } => header + result_bytes,
        };
        let at_host = self.rsp_link.transfer(done, rsp_bytes);
        self.stats.link_bytes += rsp_bytes;
        self.energy.add_link(&self.energy_model, rsp_bytes);
        Response { complete: at_host }
    }

    /// Transfers a host-to-cube packet of `bytes` over the request link
    /// without touching DRAM; returns the cycle it arrives at the cube.
    ///
    /// Used for logic-layer instruction dispatch: the packet terminates
    /// at the logic-layer engine, so no bank is involved.
    pub fn link_request(&mut self, cycle: Cycle, bytes: u64) -> Cycle {
        self.stats.link_bytes += bytes;
        self.energy.add_link(&self.energy_model, bytes);
        self.req_link.transfer(cycle, bytes)
    }

    /// Transfers a cube-to-host packet of `bytes` over the response link
    /// without touching DRAM; returns the cycle it arrives at the host.
    ///
    /// Used for the logic-layer engine's unlock acknowledgement.
    pub fn link_response(&mut self, cycle: Cycle, bytes: u64) -> Cycle {
        self.stats.link_bytes += bytes;
        self.energy.add_link(&self.energy_model, bytes);
        self.rsp_link.transfer(cycle, bytes)
    }

    /// Performs a logic-layer access (HIVE/HIPE engine): touches the
    /// banks directly, bypassing the links.
    pub fn internal_read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        let mapping = self.mapping;
        let mut done = cycle;
        for (a, l) in mapping.split(addr, bytes) {
            done = done.max(self.bank_access(cycle, a, l, false));
        }
        done
    }

    /// Logic-layer write path; see [`internal_read`](Self::internal_read).
    pub fn internal_write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        let mapping = self.mapping;
        let mut done = cycle;
        for (a, l) in mapping.split(addr, bytes) {
            done = done.max(self.bank_access(cycle, a, l, true));
        }
        done
    }

    fn bank_access(&mut self, cycle: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
        let loc = self.mapping.locate(addr);
        let done = self.vaults[loc.vault].access(cycle, loc.bank, bytes, write);
        self.stats.activations += 1;
        self.vault_activity[loc.vault].activations += 1;
        self.energy.add_activate(&self.energy_model, 1);
        if write {
            self.stats.bytes_written += bytes;
            self.vault_activity[loc.vault].bytes_written += bytes;
            self.energy.add_dram_write(&self.energy_model, bytes);
        } else {
            self.stats.bytes_read += bytes;
            self.vault_activity[loc.vault].bytes_read += bytes;
            self.energy.add_dram_read(&self.energy_model, bytes);
        }
        done
    }

    /// Resets every run-scoped timing and accounting structure —
    /// vaults, link pipes, stats, energy — while keeping the memory
    /// image intact.
    ///
    /// This is the cube half of a warm session's reset protocol: after
    /// the call, the cube times and meters accesses exactly like a
    /// freshly constructed one, but the (expensive) table image does
    /// not have to be re-materialized. The image half is the caller's:
    /// whatever output bytes the last run wrote must be cleared with
    /// [`zero_bytes`](Self::zero_bytes). A warm session zeroes only its
    /// last plan's output footprint (the mask bytes of the regions it
    /// scanned and the aggregate area), or the whole output area when
    /// it cannot tell what the last run wrote.
    pub fn reset_run_state(&mut self) {
        let (num, den) = self.cfg.link_rate();
        self.vaults = (0..self.cfg.vaults)
            .map(|_| Vault::new(&self.cfg))
            .collect();
        self.req_link = ThroughputPipe::new(num, den, self.cfg.link_latency);
        self.rsp_link = ThroughputPipe::new(num, den, self.cfg.link_latency);
        self.stats = HmcStats::default();
        // The per-vault(-group) accounting the engine cluster reads is
        // run-scoped like the aggregate stats: a warm run must start
        // from the same zeroed meters a cold cube has, or warm != cold
        // under partitioned execution.
        self.vault_activity = vec![VaultActivity::default(); self.cfg.vaults];
        self.energy = EnergyBreakdown::default();
    }

    /// Charges one logic-layer ALU operation to the energy account
    /// (used by the HIVE/HIPE engine models).
    pub fn charge_logic_op(&mut self) {
        self.stats.fu_ops += 1;
        self.energy.add_logic_ops(&self.energy_model, 1);
    }

    /// Charges `n` processor-side cache accesses to the energy account.
    pub fn charge_cache_accesses(&mut self, n: u64) {
        self.energy.add_cache_accesses(&self.energy_model, n);
    }

    /// Finalizes background energy for a run that lasted `cycles`.
    pub fn finish(&mut self, cycles: Cycle) {
        self.energy.add_background(&self.energy_model, cycles);
    }

    /// Functional read of the memory image.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Functional write to the memory image.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.mem[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    /// Mutable functional view of `len` image bytes at `addr` — the
    /// zero-copy write path: producers (table materialization, engine
    /// stores) serialize straight into the cube's backing memory
    /// instead of staging through a scratch buffer and
    /// [`write_bytes`](Self::write_bytes).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        &mut self.mem[addr as usize..addr as usize + len]
    }

    /// Functional in-place zeroing of `len` image bytes at `addr`
    /// (no scratch buffer, unlike [`write_bytes`](Self::write_bytes)).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn zero_bytes(&mut self, addr: u64, len: usize) {
        self.mem[addr as usize..addr as usize + len].fill(0);
    }

    /// Functional read of a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.read_bytes(addr, 8));
        u64::from_le_bytes(b)
    }

    /// Functional write of a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Size of the functional image in bytes.
    pub fn image_len(&self) -> usize {
        self.mem.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> HmcStats {
        self.stats
    }

    /// Per-vault activity counters (one entry per vault).
    pub fn vault_activity(&self) -> &[VaultActivity] {
        &self.vault_activity
    }

    /// Per-vault-group activity: folds the per-vault counters into
    /// `groups` equally sized contiguous vault groups — the partition
    /// view of the cube.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is non-zero and divides the vault count.
    pub fn group_activity(&self, groups: usize) -> Vec<VaultActivity> {
        assert!(
            groups > 0 && self.cfg.vaults.is_multiple_of(groups),
            "{groups} groups do not divide {} vaults",
            self.cfg.vaults
        );
        let per = self.cfg.vaults / groups;
        self.vault_activity
            .chunks(per)
            .map(|chunk| {
                let mut sum = VaultActivity::default();
                for &v in chunk {
                    sum += v;
                }
                sum
            })
            .collect()
    }

    /// Energy accumulated so far.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy
    }

    /// The energy constants in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Total bank busy cycles across the cube (utilization diagnostics).
    pub fn bank_busy_cycles(&self) -> Cycle {
        self.vaults.iter().map(Vault::bank_busy_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Hmc {
        Hmc::new(HmcConfig::paper(), 1 << 20)
    }

    #[test]
    fn read_latency_includes_links_and_bank() {
        let cfg = HmcConfig::paper();
        let mut h = cube();
        let r = h.access(0, 0, 64, AccessKind::Read);
        // At least one link traversal each way plus the bank access.
        assert!(r.complete >= 2 * cfg.link_latency + cfg.closed_page_read_latency(64));
    }

    #[test]
    fn streaming_reads_engage_all_vaults() {
        let mut h = cube();
        // 64 blocks of 256 B: two sweeps over 32 vaults.
        let mut last = 0;
        for i in 0..64u64 {
            last = h.access(0, i * 256, 256, AccessKind::Read).complete;
        }
        // If the vaults did not overlap this would take 64 bank cycles
        // (~25k cycles); with interleaving it is bounded by two bank
        // rounds plus link serialization of 64 responses.
        assert!(last < 5_000, "streaming took {last}");
        assert_eq!(h.stats().activations, 64);
    }

    #[test]
    fn pim_op_moves_less_link_traffic_than_read() {
        let mut plain = cube();
        let mut pim = cube();
        plain.access(0, 0, 256, AccessKind::Read);
        pim.access(0, 0, 256, AccessKind::PimOp { result_bytes: 16 });
        assert!(pim.stats().link_bytes < plain.stats().link_bytes);
        assert_eq!(pim.stats().fu_ops, 1);
        // Both touch the same DRAM bytes.
        assert_eq!(pim.stats().bytes_read, plain.stats().bytes_read);
    }

    #[test]
    fn internal_access_bypasses_links() {
        let mut h = cube();
        let done = h.internal_read(0, 0, 256);
        assert_eq!(h.stats().link_bytes, 0);
        assert_eq!(done, h.config().closed_page_read_latency(256));
    }

    #[test]
    fn unaligned_access_splits_rows() {
        let mut h = cube();
        h.internal_read(0, 128, 256); // straddles two rows
        assert_eq!(h.stats().activations, 2);
    }

    #[test]
    fn functional_storage_round_trips() {
        let mut h = cube();
        h.write_u64(0x100, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(h.read_u64(0x100), 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn write_energy_differs_from_read() {
        let mut h = cube();
        h.internal_write(0, 0, 256);
        let wr = h.energy();
        let mut h2 = cube();
        h2.internal_read(0, 0, 256);
        let rd = h2.energy();
        assert!(wr.dram_pj() > rd.dram_pj());
    }

    #[test]
    fn zero_bytes_clears_in_place() {
        let mut h = cube();
        h.write_u64(0x100, 77);
        h.write_u64(0x108, 88);
        h.zero_bytes(0x100, 8);
        assert_eq!(h.read_u64(0x100), 0);
        assert_eq!(h.read_u64(0x108), 88);
    }

    #[test]
    fn bytes_mut_writes_through_to_the_image() {
        let mut h = cube();
        h.bytes_mut(0x40, 8).copy_from_slice(&99u64.to_le_bytes());
        assert_eq!(h.read_u64(0x40), 99);
        assert_eq!(h.read_bytes(0x40, 8), 99u64.to_le_bytes());
    }

    #[test]
    fn reset_run_state_keeps_memory_and_zeroes_meters() {
        let mut h = cube();
        h.write_u64(0x80, 42);
        h.access(0, 0, 256, AccessKind::Read);
        h.finish(1000);
        assert!(h.stats().link_bytes > 0);
        h.reset_run_state();
        // The image survives; timing, stats and energy are cold again.
        assert_eq!(h.read_u64(0x80), 42);
        assert_eq!(h.stats(), HmcStats::default());
        assert_eq!(h.energy().total_pj(), 0.0);
        let mut cold = cube();
        cold.write_u64(0x80, 42);
        assert_eq!(
            h.access(0, 0, 256, AccessKind::Read),
            cold.access(0, 0, 256, AccessKind::Read)
        );
    }

    #[test]
    fn vault_activity_follows_the_interleave() {
        let mut h = cube();
        // Blocks 0 and 1 are vaults 0 and 1; block 32 wraps to vault 0.
        h.internal_read(0, 0, 256);
        h.internal_read(0, 256, 256);
        h.internal_write(0, 32 * 256, 256);
        let v = h.vault_activity();
        assert_eq!(v[0].activations, 2);
        assert_eq!(v[0].bytes_read, 256);
        assert_eq!(v[0].bytes_written, 256);
        assert_eq!(v[1].activations, 1);
        assert_eq!(v[2], VaultActivity::default());
        // The per-vault counters partition the aggregate ones.
        let total: u64 = v.iter().map(|a| a.activations).sum();
        assert_eq!(total, h.stats().activations);
    }

    #[test]
    fn group_activity_folds_vault_groups() {
        let mut h = cube();
        h.internal_read(0, 0, 256); // vault 0 -> group 0 of 4
        h.internal_read(0, 9 * 256, 256); // vault 9 -> group 1 of 4
        let groups = h.group_activity(4);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].bytes_read, 256);
        assert_eq!(groups[1].bytes_read, 256);
        assert_eq!(groups[2].bytes_read + groups[3].bytes_read, 0);
        // One group == the whole cube.
        assert_eq!(h.group_activity(1)[0].bytes_read, h.stats().bytes_read);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn group_activity_rejects_uneven_splits() {
        let h = cube();
        let _ = h.group_activity(5);
    }

    #[test]
    fn reset_run_state_clears_vault_accounting() {
        // Regression (partitioned execution): a warm session's reset
        // must also zero the per-vault-group meters, or the second run
        // of a cluster reports stale balance numbers.
        let mut h = cube();
        h.internal_read(0, 0, 256);
        assert!(h.vault_activity()[0].activations > 0);
        h.reset_run_state();
        assert!(h
            .vault_activity()
            .iter()
            .all(|v| *v == VaultActivity::default()));
        assert_eq!(h.group_activity(4)[0], VaultActivity::default());
    }

    #[test]
    fn finish_adds_background_energy() {
        let mut h = cube();
        let before = h.energy().dram_pj();
        h.finish(1_000_000);
        assert!(h.energy().dram_pj() > before);
    }
}

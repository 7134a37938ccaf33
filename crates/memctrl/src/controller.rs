//! The memory controller.
//!
//! Serves [`MemRequest`]s one at a time, consults the installed
//! [`DefenseHook`], and drives the [`DramDevice`]. Denied requests are
//! *skipped*: no DRAM command is issued and only the hook's check
//! latency is charged — matching the paper's observation that invalid
//! (locked-row) instructions cost nothing downstream.

use dlk_dram::{DramConfig, DramDevice, DramGeometry, ReadData};
use dlk_obs::LocalHistogram;

use crate::error::MemCtrlError;
use crate::interpose::{DefenseHook, HookAction, NoDefense};
use crate::mapping::AddressMapper;
use crate::metrics::CtrlMetrics;
use crate::request::{MemRequest, RequestKind};

/// Configuration of a [`MemoryController`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemCtrlConfig {
    /// DRAM device configuration.
    pub dram: DramConfig,
}

impl MemCtrlConfig {
    /// Small configuration for unit tests.
    pub fn tiny_for_tests() -> Self {
        Self { dram: DramConfig::tiny_for_tests() }
    }
}

/// A served (or skipped) request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: MemRequest,
    /// `true` if the defense denied the access (skipped instruction).
    pub denied: bool,
    /// Cycles the request took, including the hook's check latency.
    pub latency: u64,
    /// Data returned for reads that were served, held inline up to
    /// [`ReadData::INLINE`] bytes.
    pub data: Option<ReadData>,
}

/// Aggregate controller statistics: a view computed from the
/// controller's [`CtrlMetrics`] by [`MemoryController::stats`], which
/// stay the one recorder of every counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Requests served against DRAM.
    pub served: u64,
    /// Requests denied by the defense hook.
    pub denied: u64,
    /// Requests redirected by the defense hook.
    pub redirected: u64,
    /// Untrusted requests rejected by OS page protection (virtual
    /// memory isolation — before any hardware defense is consulted).
    pub os_faults: u64,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Sum of request latencies in cycles.
    pub total_latency: u64,
}

impl ControllerStats {
    /// Mean latency per completed request in cycles. Returns `0.0`
    /// (never `NaN`) when no request completed — e.g. an empty-trace
    /// replay.
    pub fn mean_latency(&self) -> f64 {
        let total = self.served + self.denied;
        if total == 0 {
            0.0
        } else {
            self.total_latency as f64 / total as f64
        }
    }

    /// Fraction of requests the defense denied, in `[0, 1]`. Returns
    /// `0.0` (never `NaN`) when no request completed.
    pub fn denial_rate(&self) -> f64 {
        let total = self.served + self.denied;
        if total == 0 {
            0.0
        } else {
            self.denied as f64 / total as f64
        }
    }

    /// Accumulates another channel's statistics into this one — the
    /// shard-merge primitive of the sharded execution engine. Field
    /// order is fixed, so merging shard stats in channel order is
    /// deterministic.
    pub fn merge(&mut self, other: &ControllerStats) {
        self.served += other.served;
        self.denied += other.denied;
        self.redirected += other.redirected;
        self.os_faults += other.os_faults;
        self.reads += other.reads;
        self.writes += other.writes;
        self.total_latency += other.total_latency;
    }
}

/// The memory controller: mapper + defense hook + DRAM device.
///
/// # Example
///
/// ```
/// use dlk_memctrl::{MemoryController, MemCtrlConfig, MemRequest};
///
/// # fn main() -> Result<(), dlk_memctrl::MemCtrlError> {
/// let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
/// ctrl.service(MemRequest::write(0, vec![42]))?;
/// let done = ctrl.service(MemRequest::read(0, 1))?;
/// assert_eq!(done.data.as_deref(), Some(&[42u8][..]));
/// # Ok(())
/// # }
/// ```
pub struct MemoryController {
    dram: DramDevice,
    mapper: AddressMapper,
    hook: Box<dyn DefenseHook>,
    metrics: CtrlMetrics,
    /// Physical byte ranges untrusted processes cannot touch (the OS's
    /// virtual-memory isolation of victim-owned pages).
    os_protected: Vec<(u64, u64)>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mapper", &self.mapper)
            .field("hook", &self.hook.name())
            .field("stats", &self.stats())
            .finish()
    }
}

impl MemoryController {
    /// Creates a controller with no defense installed.
    pub fn new(config: MemCtrlConfig) -> Self {
        Self::with_hook(config, Box::new(NoDefense))
    }

    /// Creates a controller with a defense hook installed.
    pub fn with_hook(config: MemCtrlConfig, hook: Box<dyn DefenseHook>) -> Self {
        let dram = DramDevice::new(config.dram);
        let mapper = AddressMapper::new(config.dram.geometry);
        Self { dram, mapper, hook, metrics: CtrlMetrics::new(), os_protected: Vec::new() }
    }

    /// Marks the physical byte range `[start, end)` as owned by the
    /// victim: untrusted requests inside it fault at the OS level
    /// (page permissions), before any hardware defense is consulted.
    /// An attacker can therefore only *activate* rows it owns — the
    /// premise of the paper's MLaaS threat model.
    pub fn os_protect_range(&mut self, start: u64, end: u64) {
        self.os_protected.push((start, end));
    }

    fn os_faults(&self, request: &MemRequest) -> bool {
        // An end past `u64::MAX` lies beyond every range start.
        let request_end = request.addr.checked_add(request.len as u64);
        request.untrusted
            && self.os_protected.iter().any(|&(start, end)| {
                request.addr < end && request_end.is_none_or(|request_end| request_end > start)
            })
    }

    /// Replaces the defense hook, returning the old one.
    pub fn set_hook(&mut self, hook: Box<dyn DefenseHook>) -> Box<dyn DefenseHook> {
        std::mem::replace(&mut self.hook, hook)
    }

    /// The installed hook.
    pub fn hook(&self) -> &dyn DefenseHook {
        self.hook.as_ref()
    }

    /// The DRAM geometry.
    pub fn geometry(&self) -> DramGeometry {
        *self.dram.geometry()
    }

    /// The address mapper.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// The DRAM device (read-only).
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// Mutable access to the DRAM device (fault injection, inspection).
    pub fn dram_mut(&mut self) -> &mut DramDevice {
        &mut self.dram
    }

    /// Controller statistics, derived from [`MemoryController::metrics`].
    /// The latency histograms are cumulative, so exporting the metrics
    /// never resets these totals.
    pub fn stats(&self) -> ControllerStats {
        let metrics = &self.metrics;
        ControllerStats {
            served: metrics.served.iter().sum(),
            denied: metrics.denied,
            redirected: metrics.redirected,
            os_faults: metrics.os_faults,
            reads: metrics.served[RequestKind::Read.index()],
            writes: metrics.served[RequestKind::Write.index()],
            total_latency: metrics.latency_cycles.iter().map(LocalHistogram::sum).sum(),
        }
    }

    /// The local metrics this controller has recorded.
    pub fn metrics(&self) -> &CtrlMetrics {
        &self.metrics
    }

    /// Folds everything recorded since the last export into `registry`
    /// under `<prefix>.*` (see [`CtrlMetrics::export_into`]). Delta
    /// export: repeated calls never double-count, and controllers of
    /// different shards exporting to one prefix aggregate.
    pub fn export_obs(&mut self, registry: &dlk_obs::Registry, prefix: &str) {
        self.metrics.export_into(registry, prefix);
    }

    /// Serves one request. The OS page-protection fault comes first,
    /// before any address validation: an untrusted request into a
    /// protected range is denied, never an error. The request is then
    /// mapped to its DRAM location and checked against the row boundary
    /// before the hook is consulted and the device accessed.
    ///
    /// # Errors
    ///
    /// Returns an error for unmappable addresses or row-spanning
    /// requests; the DRAM device state is unchanged in that case.
    pub fn service(&mut self, request: MemRequest) -> Result<CompletedRequest, MemCtrlError> {
        if self.os_faults(&request) {
            self.metrics.os_faults += 1;
            return Ok(CompletedRequest { request, denied: true, latency: 0, data: None });
        }
        let (row, col) = self.mapper.to_dram(request.addr)?;
        // `col < row_bytes`, so unlike `col + len` this cannot wrap.
        if request.len > self.geometry().row_bytes - col {
            return Err(MemCtrlError::SpansRowBoundary { addr: request.addr, len: request.len });
        }
        let mut latency = self.hook.check_latency();
        let row = match self.hook.before_access(&request, row, &mut self.dram) {
            HookAction::Allow => row,
            HookAction::Deny => {
                self.metrics.denied += 1;
                self.metrics.record_latency(request.kind, latency);
                self.dram.advance(latency);
                return Ok(CompletedRequest { request, denied: true, latency, data: None });
            }
            HookAction::Redirect(new_row) => {
                self.metrics.redirected += 1;
                new_row
            }
        };
        let will_activate = self.dram.open_row_of(row.bank) != Some(row);
        let data = match request.kind {
            RequestKind::Read => {
                let (data, cycles) = self.dram.access_read(row, col, request.len)?;
                latency += cycles;
                Some(data)
            }
            RequestKind::Write => {
                latency += self.dram.access_write(row, col, &request.payload)?;
                None
            }
        };
        if will_activate {
            self.hook.on_activate(row, &mut self.dram);
        }
        self.metrics.served[request.kind.index()] += 1;
        self.metrics.record_latency(request.kind, latency);
        Ok(CompletedRequest { request, denied: false, latency, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::RowAddr;

    #[test]
    fn write_then_read_roundtrip() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let written = ctrl.service(MemRequest::write(0x10, vec![9, 8, 7])).unwrap();
        assert_eq!(written.data, None);
        let read = ctrl.service(MemRequest::read(0x10, 3)).unwrap();
        assert_eq!(read.data.as_deref(), Some(&[9u8, 8, 7][..]));
        assert_eq!(ctrl.stats().served, 2);
        assert!(ctrl.stats().mean_latency() > 0.0);
    }

    #[test]
    fn row_spanning_request_rejected() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes;
        let req = MemRequest::read(row_bytes as u64 - 1, 2);
        assert!(matches!(ctrl.service(req), Err(MemCtrlError::SpansRowBoundary { .. })));
    }

    #[test]
    fn huge_length_is_rejected_not_wrapped() {
        // `col + len` would wrap to a small value and pass the check.
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let req = MemRequest::read(1, usize::MAX).untrusted();
        assert!(matches!(ctrl.service(req), Err(MemCtrlError::SpansRowBoundary { .. })));
        assert_eq!(ctrl.dram().stats().total_activations(), 0);
    }

    #[test]
    fn os_fault_overlap_test_does_not_overflow() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        ctrl.os_protect_range(0, 64);
        ctrl.os_protect_range(u64::MAX - 8, u64::MAX);
        // The end of this request lies past `u64::MAX`: it overlaps the
        // top range and faults instead of overflowing.
        let top = ctrl.service(MemRequest::read(u64::MAX - 4, 16).untrusted()).unwrap();
        assert!(top.denied);
        let wrapping = ctrl.service(MemRequest::read(64, usize::MAX).untrusted()).unwrap();
        assert!(wrapping.denied);
        // Clear of both ranges, a request is validated as usual.
        let beyond = MemRequest::read(u64::MAX - 100, 8).untrusted();
        assert!(matches!(ctrl.service(beyond), Err(MemCtrlError::AddressOutOfRange { .. })));
        assert_eq!(ctrl.stats().os_faults, 2);
    }

    #[test]
    fn os_fault_wins_over_validation() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes as u64;
        ctrl.os_protect_range(0, 2 * row_bytes);
        // Row-spanning, so trusted it is an error; untrusted into the
        // protected range it is an OS-fault denial.
        let spanning = MemRequest::read(row_bytes - 1, 2);
        assert!(matches!(
            ctrl.service(spanning.clone()),
            Err(MemCtrlError::SpansRowBoundary { .. })
        ));
        assert!(ctrl.service(spanning.untrusted()).unwrap().denied);
        assert_eq!(ctrl.stats().os_faults, 1);
        assert_eq!(ctrl.dram().stats().total_activations(), 0);
    }

    #[test]
    fn out_of_range_address_rejected() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let capacity = ctrl.mapper().capacity();
        assert!(matches!(
            ctrl.service(MemRequest::read(capacity, 1)),
            Err(MemCtrlError::AddressOutOfRange { .. })
        ));
    }

    struct DenyAll;
    impl DefenseHook for DenyAll {
        fn before_access(
            &mut self,
            _request: &MemRequest,
            _target: RowAddr,
            _dram: &mut DramDevice,
        ) -> HookAction {
            HookAction::Deny
        }
        fn check_latency(&self) -> u64 {
            3
        }
        fn name(&self) -> &str {
            "deny-all"
        }
    }

    #[test]
    fn denied_requests_skip_dram() {
        let mut ctrl =
            MemoryController::with_hook(MemCtrlConfig::tiny_for_tests(), Box::new(DenyAll));
        let done = ctrl.service(MemRequest::read(0, 1)).unwrap();
        assert!(done.denied);
        assert_eq!(done.latency, 3);
        assert_eq!(ctrl.stats().denied, 1);
        assert_eq!(ctrl.stats().served, 0);
        assert_eq!(ctrl.dram().stats().total_activations(), 0);
    }

    struct RedirectTo(RowAddr);
    impl DefenseHook for RedirectTo {
        fn before_access(
            &mut self,
            _request: &MemRequest,
            _target: RowAddr,
            _dram: &mut DramDevice,
        ) -> HookAction {
            HookAction::Redirect(self.0)
        }
        fn name(&self) -> &str {
            "redirect"
        }
    }

    #[test]
    fn redirected_request_reads_other_row_same_column() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes as u64;
        // Write 0xEE at row 4, column 0x10.
        ctrl.service(MemRequest::write(4 * row_bytes + 0x10, vec![0xEE])).unwrap();
        ctrl.set_hook(Box::new(RedirectTo(RowAddr::new(0, 0, 4))));
        // Read row 0 column 0x10 — redirected to row 4, same column.
        let done = ctrl.service(MemRequest::read(0x10, 1)).unwrap();
        assert_eq!(done.data.as_deref(), Some(&[0xEEu8][..]));
        assert_eq!(ctrl.stats().redirected, 1);
    }

    struct CountActs(std::sync::Arc<std::sync::atomic::AtomicU64>);
    impl DefenseHook for CountActs {
        fn before_access(
            &mut self,
            _request: &MemRequest,
            _target: RowAddr,
            _dram: &mut DramDevice,
        ) -> HookAction {
            HookAction::Allow
        }
        fn on_activate(&mut self, _row: RowAddr, _dram: &mut DramDevice) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn name(&self) -> &str {
            "count"
        }
    }

    #[test]
    fn hook_observes_activations_not_row_hits() {
        let acts = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut ctrl = MemoryController::with_hook(
            MemCtrlConfig::tiny_for_tests(),
            Box::new(CountActs(acts.clone())),
        );
        // Same row twice: one activation, one row-buffer hit.
        ctrl.service(MemRequest::read(0, 1)).unwrap();
        ctrl.service(MemRequest::read(8, 1)).unwrap();
        assert_eq!(acts.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn metrics_record_serves_denies_and_faults() {
        let registry = dlk_obs::Registry::new();
        let mut ctrl =
            MemoryController::with_hook(MemCtrlConfig::tiny_for_tests(), Box::new(DenyAll));
        ctrl.os_protect_range(0, 64);
        ctrl.service(MemRequest::read(0, 1)).unwrap(); // denied by hook
        ctrl.service(MemRequest::read(0, 1).untrusted()).unwrap(); // OS fault
        ctrl.set_hook(Box::new(NoDefense));
        ctrl.service(MemRequest::write(128, vec![1])).unwrap(); // served
        ctrl.export_obs(&registry, "memctrl");
        assert_eq!(registry.counter("memctrl.denied").get(), 1);
        assert_eq!(registry.counter("memctrl.os_faults").get(), 1);
        assert_eq!(registry.counter("memctrl.served").get(), 1);
        let reads = registry.histogram("memctrl.latency_cycles.read");
        let writes = registry.histogram("memctrl.latency_cycles.write");
        // The OS fault never reaches the latency histograms.
        assert_eq!(reads.count(), 1);
        assert_eq!(writes.count(), 1);
        assert_eq!(reads.max(), 3); // DenyAll's check latency
        assert!(writes.max() > 0);

        // `stats()` is a view of the same recorder: after more traffic
        // and a second export, it equals the registry.
        for addr in [136u64, 512] {
            ctrl.service(MemRequest::write(addr, vec![2])).unwrap();
            ctrl.service(MemRequest::read(addr, 1)).unwrap();
        }
        ctrl.export_obs(&registry, "memctrl");
        let stats = ctrl.stats();
        let counter = |name: &str| registry.counter(&format!("memctrl.{name}")).get();
        assert_eq!(
            (stats.served, stats.denied, stats.redirected, stats.os_faults),
            (counter("served"), counter("denied"), counter("redirected"), counter("os_faults"))
        );
        assert_eq!((stats.reads, stats.writes), (2, 3));
        assert_eq!(stats.total_latency, reads.sum() + writes.sum());
    }

    #[test]
    fn debug_impl_mentions_hook_name() {
        let ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        assert!(format!("{ctrl:?}").contains("none"));
    }

    #[test]
    fn idle_stats_report_zero_not_nan() {
        let stats = ControllerStats::default();
        assert_eq!(stats.mean_latency(), 0.0);
        assert_eq!(stats.denial_rate(), 0.0);
        assert!(!stats.mean_latency().is_nan());
    }

    #[test]
    fn merge_accumulates_every_field() {
        let a = ControllerStats {
            served: 1,
            denied: 2,
            redirected: 3,
            os_faults: 4,
            reads: 5,
            writes: 6,
            total_latency: 7,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            ControllerStats {
                served: 2,
                denied: 4,
                redirected: 6,
                os_faults: 8,
                reads: 10,
                writes: 12,
                total_latency: 14,
            }
        );
        assert!((b.denial_rate() - 4.0 / 6.0).abs() < 1e-12);
    }
}

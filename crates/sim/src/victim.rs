//! Victim specifications and their deployed form.
//!
//! A [`VictimSpec`] is *data*: it names what lives in DRAM before the
//! attack starts — raw rows, or a `(ModelKind, seed)` pair from the
//! enumerable model zoo — so the whole spec can be compared, persisted
//! through the scenario-spec codec and expanded by sweep grids.
//! [`ScenarioBuilder::victim`](crate::ScenarioBuilder::victim) accepts
//! any number of them (multi-tenant scenarios deploy several victims on
//! one device). Building the scenario resolves the model (training is
//! deterministic and memoized per seed) and turns each spec into a
//! [`DeployedVictim`]: data written to the device, OS page protection
//! installed, and the physical ranges defenses should guard recorded.

use dlk_dnn::models::{ModelKind, Victim};
use dlk_dnn::{QuantNetwork, WeightLayout};
use dlk_memctrl::{
    MemCtrlError, MemRequest, MemoryController, PageTable, PageTableConfig, VirtAddr,
};

use crate::error::SimError;

/// A victim workload to deploy on the device, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimSpec {
    pub(crate) kind: SpecKind,
    pub(crate) os_protect: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecKind {
    /// One or more raw data rows filled with a byte pattern.
    RowSpan { first_row: u64, rows: u64, fill: u8 },
    /// A quantized model deployed contiguously at a base address.
    Model { model: ModelKind, seed: u64, base_phys: u64 },
    /// A quantized model deployed frame-by-frame behind a DRAM-resident
    /// page table (the §V page-table-attack substrate).
    Paged { model: ModelKind, seed: u64, page_size: u64, first_pfn: u64, table_base: u64 },
}

impl VictimSpec {
    /// A single raw data row (global row index) filled with `fill`.
    /// Not OS-protected by default: the row plays the role of generic
    /// victim data an attacker can address (but a defense may lock).
    pub fn row(row: u64, fill: u8) -> Self {
        Self::row_span(row, 1, fill)
    }

    /// `rows` consecutive raw data rows starting at `first_row`.
    pub fn row_span(first_row: u64, rows: u64, fill: u8) -> Self {
        Self { kind: SpecKind::RowSpan { first_row, rows: rows.max(1), fill }, os_protect: false }
    }

    /// The zoo victim `model` trained with `seed`, its weight image
    /// deployed at `base_phys`. OS-protected by default (the MLaaS
    /// threat model: the attacker cannot address the victim's own
    /// pages).
    pub fn model(model: ModelKind, seed: u64, base_phys: u64) -> Self {
        Self { kind: SpecKind::Model { model, seed, base_phys }, os_protect: true }
    }

    /// A victim whose weight pages sit behind a DRAM-resident page
    /// table (defaults: 256-byte pages, first frame 8, table at 4096).
    pub fn paged(model: ModelKind, seed: u64) -> Self {
        Self {
            kind: SpecKind::Paged { model, seed, page_size: 256, first_pfn: 8, table_base: 4096 },
            os_protect: true,
        }
    }

    /// The victim's model kind, for model-backed specs.
    pub fn model_kind(&self) -> Option<ModelKind> {
        match self.kind {
            SpecKind::Model { model, .. } | SpecKind::Paged { model, .. } => Some(model),
            SpecKind::RowSpan { .. } => None,
        }
    }

    /// Swaps the model kind of a model-backed spec (the sweep grid's
    /// model axis); a no-op for raw-row victims.
    pub fn with_model_kind(mut self, new: ModelKind) -> Self {
        match &mut self.kind {
            SpecKind::Model { model, .. } | SpecKind::Paged { model, .. } => *model = new,
            SpecKind::RowSpan { .. } => {}
        }
        self
    }

    /// Overrides the paging layout of a [`VictimSpec::paged`] victim.
    pub fn with_paging(mut self, page_size: u64, first_pfn: u64, table_base: u64) -> Self {
        if let SpecKind::Paged { page_size: ps, first_pfn: fp, table_base: tb, .. } = &mut self.kind
        {
            *ps = page_size;
            *fp = first_pfn;
            *tb = table_base;
        }
        self
    }

    /// Enables or disables OS page protection for this victim.
    pub fn with_os_protect(mut self, on: bool) -> Self {
        self.os_protect = on;
        self
    }

    /// Writes the victim into DRAM and registers OS protection,
    /// resolving `(ModelKind, seed)` into its trained victim.
    pub(crate) fn deploy(&self, ctrl: &mut MemoryController) -> Result<DeployedVictim, SimError> {
        let mapper = *ctrl.mapper();
        let row_bytes = mapper.geometry().row_bytes as u64;
        match self.kind {
            SpecKind::RowSpan { first_row, rows, fill } => {
                let pattern = vec![fill; row_bytes as usize];
                for r in first_row..first_row + rows {
                    let (row, _) = mapper.to_dram(r * row_bytes)?;
                    ctrl.dram_mut().write_row(row, &pattern)?;
                }
                let start = first_row * row_bytes;
                let end = (first_row + rows) * row_bytes;
                if self.os_protect {
                    ctrl.os_protect_range(start, end);
                }
                Ok(DeployedVictim {
                    guarded: vec![(start, end)],
                    kind: DeployedKind::Rows { rows, start, fill },
                })
            }
            SpecKind::Model { model, seed, base_phys } => {
                let victim = model.victim(seed);
                let layout = WeightLayout::new(base_phys, mapper);
                layout.deploy(&victim.model, ctrl.dram_mut())?;
                let (start, end) = layout.phys_range(&victim.model);
                if self.os_protect {
                    ctrl.os_protect_range(start, end);
                }
                Ok(DeployedVictim {
                    guarded: vec![(start, end)],
                    kind: DeployedKind::Model { victim, layout },
                })
            }
            SpecKind::Paged { model, seed, page_size, first_pfn, table_base } => {
                let victim = model.victim(seed);
                let weight_bytes = victim.model.weight_bytes();
                let pages = (weight_bytes.len() as u64).div_ceil(page_size);
                let table = PageTable::new(PageTableConfig {
                    page_size,
                    base_phys: table_base,
                    num_pages: pages,
                });
                // Install translations and deposit the weight image
                // frame by frame.
                for page in 0..pages {
                    table.map(ctrl.dram_mut(), &mapper, page, first_pfn + page)?;
                    let start = (page * page_size) as usize;
                    let end = (start + page_size as usize).min(weight_bytes.len());
                    let phys = (first_pfn + page) * page_size;
                    let mut offset = 0usize;
                    while start + offset < end {
                        let (row, col) = mapper.to_dram(phys + offset as u64)?;
                        let take = (mapper.geometry().row_bytes - col).min(end - start - offset);
                        let mut row_data = ctrl.dram().read_row(row).map_err(MemCtrlError::Dram)?;
                        row_data[col..col + take]
                            .copy_from_slice(&weight_bytes[start + offset..start + offset + take]);
                        ctrl.dram_mut().write_row(row, &row_data).map_err(MemCtrlError::Dram)?;
                        offset += take;
                    }
                }
                let table_bytes = pages * 8;
                if self.os_protect {
                    // The OS isolates kernel page tables and the
                    // victim's frames; the attacker can only activate
                    // its own (adjacent) rows.
                    ctrl.os_protect_range(table_base, table_base + table_bytes);
                    ctrl.os_protect_range(first_pfn * page_size, (first_pfn + pages) * page_size);
                }
                Ok(DeployedVictim {
                    // Defenses guard the page-table rows: that is what
                    // the attack must hammer to corrupt a translation.
                    guarded: vec![(table_base, table_base + table_bytes)],
                    kind: DeployedKind::Paged { victim, table },
                })
            }
        }
    }
}

#[derive(Debug)]
enum DeployedKind {
    Rows { rows: u64, start: u64, fill: u8 },
    Model { victim: Victim, layout: WeightLayout },
    Paged { victim: Victim, table: PageTable },
}

/// A victim deployed on the scenario's device.
#[derive(Debug)]
pub struct DeployedVictim {
    kind: DeployedKind,
    guarded: Vec<(u64, u64)>,
}

impl DeployedVictim {
    /// The physical byte ranges defenses should guard for this victim.
    pub fn guarded_ranges(&self) -> &[(u64, u64)] {
        &self.guarded
    }

    /// First physical byte of the victim's data (rows or weight image).
    pub fn data_start(&self) -> Option<u64> {
        match &self.kind {
            DeployedKind::Rows { start, .. } => Some(*start),
            DeployedKind::Model { layout, .. } => Some(layout.base_phys()),
            DeployedKind::Paged { .. } => None,
        }
    }

    /// The trained victim (model + dataset), for model-backed kinds.
    pub fn victim(&self) -> Option<&Victim> {
        match &self.kind {
            DeployedKind::Model { victim, .. } | DeployedKind::Paged { victim, .. } => Some(victim),
            DeployedKind::Rows { .. } => None,
        }
    }

    /// The weight layout, for contiguously deployed models.
    pub fn layout(&self) -> Option<&WeightLayout> {
        match &self.kind {
            DeployedKind::Model { layout, .. } => Some(layout),
            _ => None,
        }
    }

    /// The page table, for paged victims.
    pub fn page_table(&self) -> Option<&PageTable> {
        match &self.kind {
            DeployedKind::Paged { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Reads the model back from the device exactly as the victim
    /// process would — trusted requests through the controller (and the
    /// page-table walk for paged victims), following any defense
    /// redirects. Denied reads yield zero bytes (fail-closed).
    ///
    /// Returns `None` for raw-row victims.
    ///
    /// # Errors
    ///
    /// Propagates controller and layout errors.
    pub fn reload_model(
        &self,
        ctrl: &mut MemoryController,
    ) -> Result<Option<QuantNetwork>, SimError> {
        let mapper = *ctrl.mapper();
        let row_bytes = mapper.geometry().row_bytes as u64;
        let (victim, bytes) = match &self.kind {
            DeployedKind::Rows { .. } => return Ok(None),
            DeployedKind::Model { victim, layout } => {
                // A contiguous image is fetched row chunk by row chunk.
                let (start, end) = layout.phys_range(&victim.model);
                let bytes = read_stream(ctrl, (end - start) as usize, |_, done| {
                    let phys = start + done as u64;
                    let col = mapper.to_dram(phys).map(|(_, col)| col as u64)?;
                    Ok((phys, (row_bytes - col).min(end - phys)))
                })?;
                (victim, bytes)
            }
            DeployedKind::Paged { victim, table } => {
                let page_size = table.config().page_size;
                let total = victim.model.total_weights();
                let bytes = read_stream(ctrl, total, |ctrl, done| {
                    let pa = table.translate(ctrl.dram(), &mapper, VirtAddr(done as u64))?;
                    let take = (page_size - pa % page_size)
                        .min(row_bytes - pa % row_bytes)
                        .min((total - done) as u64);
                    Ok((pa, take))
                })?;
                (victim, bytes)
            }
        };
        let mut model = victim.model.clone();
        model.load_weight_bytes(&bytes)?;
        Ok(Some(model))
    }

    /// Accuracy (percent) of `model` on this victim's held-out sample.
    pub fn accuracy_pct(&self, model: &QuantNetwork, eval_batch: usize) -> Option<f64> {
        let victim = self.victim()?;
        let (x, y) = victim.dataset.test_sample(eval_batch, 0);
        model.accuracy(&x, &y).ok().map(|a| a * 100.0)
    }

    /// For raw-row victims: reads every data row back through the
    /// controller (trusted, following redirects) and checks the fill
    /// pattern survived.
    pub fn data_intact(&self, ctrl: &mut MemoryController) -> Result<Option<bool>, SimError> {
        let DeployedKind::Rows { rows, start, fill } = &self.kind else {
            return Ok(None);
        };
        let row_bytes = ctrl.geometry().row_bytes;
        let expected = vec![*fill; row_bytes];
        for index in 0..*rows {
            let phys = start + index * row_bytes as u64;
            let done = ctrl.service(MemRequest::read(phys, row_bytes))?;
            if done.data.as_deref() != Some(expected.as_slice()) {
                return Ok(Some(false));
            }
        }
        Ok(Some(true))
    }
}

/// Streams `total` bytes through the controller as trusted reads,
/// asking `next` for each step's `(physical address, take)` given the
/// number of bytes read so far. Denied reads yield zero bytes — the
/// fail-closed policy shared by every model reload path.
fn read_stream(
    ctrl: &mut MemoryController,
    total: usize,
    mut next: impl FnMut(&MemoryController, usize) -> Result<(u64, u64), SimError>,
) -> Result<Vec<u8>, SimError> {
    let mut bytes = Vec::with_capacity(total);
    while bytes.len() < total {
        let (pa, take) = next(ctrl, bytes.len())?;
        let done = ctrl.service(MemRequest::read(pa, take as usize))?;
        match done.data {
            Some(data) => bytes.extend_from_slice(&data),
            None => bytes.extend(std::iter::repeat_n(0u8, take as usize)),
        }
    }
    Ok(bytes)
}

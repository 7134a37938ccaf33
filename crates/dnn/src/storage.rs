//! The DRAM weight layout.
//!
//! Deploys a [`QuantNetwork`]'s weight bytes into DRAM rows at a base
//! physical address and reads them back. This closes the loop that
//! makes the attacks *physical*: a RowHammer disturbance in a weight
//! row is an actual bit flip in the byte image that the next
//! [`WeightLayout::load`] turns into a corrupted model.
//!
//! The layout also answers the two geometry questions the rest of the
//! system asks:
//!
//! - attacker: "which DRAM row and bit do I hammer to flip bit `b` of
//!   weight `w`?" — [`WeightLayout::bit_location`];
//! - defender: "which rows hold weights, so I can lock their
//!   neighbours?" — [`WeightLayout::rows_spanned`].

use dlk_dram::{DramDevice, RowAddr};
use dlk_memctrl::{AddressMapper, Trace, TraceOp};

use crate::error::DnnError;
use crate::quant::{BitIndex, QuantNetwork};

/// Maps a quantized model's weights onto DRAM rows.
///
/// # Example
///
/// ```
/// use dlk_dram::{DramConfig, DramDevice};
/// use dlk_memctrl::AddressMapper;
/// use dlk_dnn::{models, QuantNetwork, WeightLayout};
///
/// # fn main() -> Result<(), dlk_dnn::DnnError> {
/// let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
/// let mapper = AddressMapper::new(*dram.geometry());
/// let model = QuantNetwork::quantize(&models::tiny_mlp(1));
/// let layout = WeightLayout::new(0x0, mapper);
/// layout.deploy(&model, &mut dram)?;
/// let mut reloaded = model.clone();
/// layout.load(&mut reloaded, &dram)?;
/// assert_eq!(reloaded, model);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightLayout {
    base_phys: u64,
    mapper: AddressMapper,
}

impl WeightLayout {
    /// Creates a layout placing weights at physical address `base_phys`.
    pub fn new(base_phys: u64, mapper: AddressMapper) -> Self {
        Self { base_phys, mapper }
    }

    /// Base physical address of the weight image.
    pub fn base_phys(&self) -> u64 {
        self.base_phys
    }

    /// The address mapper.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Bytes the model occupies.
    pub fn required_bytes(&self, model: &QuantNetwork) -> u64 {
        model.total_weights() as u64
    }

    /// Physical byte address of a weight.
    pub fn weight_phys_addr(
        &self,
        model: &QuantNetwork,
        layer: usize,
        weight: usize,
    ) -> Option<u64> {
        model.byte_offset(layer, weight).map(|offset| self.base_phys + offset as u64)
    }

    /// DRAM location of one weight *bit*: `(row, bit-within-row)`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadWeightIndex`] for out-of-range indices or
    /// a DRAM error if the image exceeds capacity.
    pub fn bit_location(
        &self,
        model: &QuantNetwork,
        index: BitIndex,
    ) -> Result<(RowAddr, usize), DnnError> {
        let phys = self
            .weight_phys_addr(model, index.layer, index.weight)
            .ok_or(DnnError::BadWeightIndex { layer: index.layer, index: index.weight })?;
        let (row, col) = self.mapper.to_dram(phys).map_err(|_| DnnError::RegionTooSmall {
            needed: phys,
            available: self.mapper.capacity(),
        })?;
        Ok((row, col * 8 + (index.bit & 7) as usize))
    }

    /// Every DRAM row the weight image touches, in address order.
    ///
    /// # Errors
    ///
    /// Returns an error if the image exceeds DRAM capacity.
    pub fn rows_spanned(&self, model: &QuantNetwork) -> Result<Vec<RowAddr>, DnnError> {
        let bytes = self.required_bytes(model);
        let row_bytes = self.mapper.geometry().row_bytes as u64;
        let mut rows = Vec::new();
        let mut phys = self.base_phys;
        let end = self.base_phys + bytes;
        while phys < end {
            let (row, _) = self.mapper.to_dram(phys).map_err(|_| DnnError::RegionTooSmall {
                needed: end,
                available: self.mapper.capacity(),
            })?;
            rows.push(row);
            phys = (phys / row_bytes + 1) * row_bytes;
        }
        Ok(rows)
    }

    /// The physical byte range `[start, end)` of the weight image —
    /// what the victim registers with the protection plan.
    pub fn phys_range(&self, model: &QuantNetwork) -> (u64, u64) {
        (self.base_phys, self.base_phys + self.required_bytes(model))
    }

    /// The weight-fetch trace of `batches` inference passes: the read
    /// stream a victim process issues to pull the whole weight image
    /// through the memory controller, `chunk` bytes per request,
    /// split at DRAM row boundaries. Replaying this trace through a
    /// sharded engine is how model inference drives the multi-channel
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error if the image exceeds DRAM capacity.
    pub fn fetch_trace(
        &self,
        model: &QuantNetwork,
        batches: usize,
        chunk: usize,
    ) -> Result<Trace, DnnError> {
        let total = self.required_bytes(model);
        let row_bytes = self.mapper.geometry().row_bytes as u64;
        let chunk = chunk.max(1) as u64;
        let mut trace = Trace::new();
        for _ in 0..batches {
            let mut offset = 0u64;
            while offset < total {
                let phys = self.base_phys + offset;
                let (_, col) = self.mapper.to_dram(phys).map_err(|_| DnnError::RegionTooSmall {
                    needed: self.base_phys + total,
                    available: self.mapper.capacity(),
                })?;
                let take = chunk.min(total - offset).min(row_bytes - col as u64);
                trace.push(TraceOp::Read { addr: phys, len: take as usize });
                offset += take;
            }
        }
        Ok(trace)
    }

    /// Writes the model's weight bytes into DRAM (functional writes —
    /// deployment happens once, off the timed path).
    ///
    /// # Errors
    ///
    /// Returns an error if the image exceeds DRAM capacity.
    pub fn deploy(&self, model: &QuantNetwork, dram: &mut DramDevice) -> Result<(), DnnError> {
        let bytes = model.weight_bytes();
        let row_bytes = self.mapper.geometry().row_bytes;
        let mut offset = 0usize;
        while offset < bytes.len() {
            let phys = self.base_phys + offset as u64;
            let (row, col) = self.mapper.to_dram(phys).map_err(|_| DnnError::RegionTooSmall {
                needed: bytes.len() as u64,
                available: self.mapper.capacity(),
            })?;
            let take = (row_bytes - col).min(bytes.len() - offset);
            let mut row_data = dram.read_row(row)?;
            row_data[col..col + take].copy_from_slice(&bytes[offset..offset + take]);
            dram.write_row(row, &row_data)?;
            offset += take;
        }
        Ok(())
    }

    /// Reads the weight image back from DRAM into the model —
    /// inference always runs on what DRAM currently holds.
    ///
    /// # Errors
    ///
    /// Returns an error if the image exceeds DRAM capacity.
    pub fn load(&self, model: &mut QuantNetwork, dram: &DramDevice) -> Result<(), DnnError> {
        let total = model.total_weights();
        let row_bytes = self.mapper.geometry().row_bytes;
        let mut bytes = Vec::with_capacity(total);
        while bytes.len() < total {
            let phys = self.base_phys + bytes.len() as u64;
            let (row, col) = self.mapper.to_dram(phys).map_err(|_| DnnError::RegionTooSmall {
                needed: total as u64,
                available: self.mapper.capacity(),
            })?;
            let take = (row_bytes - col).min(total - bytes.len());
            let row_data = dram.read_row(row)?;
            bytes.extend_from_slice(&row_data[col..col + take]);
        }
        model.load_weight_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use dlk_dram::DramConfig;

    fn setup() -> (DramDevice, WeightLayout, QuantNetwork) {
        let dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mapper = AddressMapper::new(*dram.geometry());
        let model = QuantNetwork::quantize(&models::tiny_mlp(9));
        (dram, WeightLayout::new(128, mapper), model)
    }

    #[test]
    fn deploy_load_roundtrip() {
        let (mut dram, layout, model) = setup();
        layout.deploy(&model, &mut dram).unwrap();
        let mut reloaded = model.clone();
        layout.load(&mut reloaded, &dram).unwrap();
        assert_eq!(reloaded, model);
    }

    #[test]
    fn dram_bit_flip_corrupts_expected_weight() {
        let (mut dram, layout, model) = setup();
        layout.deploy(&model, &mut dram).unwrap();
        let target = BitIndex { layer: 1, weight: 7, bit: 7 };
        let (row, bit) = layout.bit_location(&model, target).unwrap();
        dram.flip_bit(row, bit).unwrap();
        let mut corrupted = model.clone();
        layout.load(&mut corrupted, &dram).unwrap();
        // Exactly the targeted weight changed, by the sign bit.
        assert_eq!(corrupted.bit(target).unwrap(), !model.bit(target).unwrap());
        let byte_before = model.weighted_layers()[1].matrix().unwrap().weight_byte(7).unwrap();
        let byte_after = corrupted.weighted_layers()[1].matrix().unwrap().weight_byte(7).unwrap();
        assert_eq!(byte_before ^ byte_after, 0x80);
        // All other layers untouched.
        assert_eq!(corrupted.weighted_layers()[0], model.weighted_layers()[0]);
    }

    #[test]
    fn rows_spanned_covers_image() {
        let (_, layout, model) = setup();
        let rows = layout.rows_spanned(&model).unwrap();
        let row_bytes = 64u64;
        let expected = {
            let start = 128 / row_bytes;
            let end = (128 + model.total_weights() as u64).div_ceil(row_bytes);
            (end - start) as usize
        };
        assert_eq!(rows.len(), expected);
    }

    #[test]
    fn phys_range_matches_required_bytes() {
        let (_, layout, model) = setup();
        let (start, end) = layout.phys_range(&model);
        assert_eq!(start, 128);
        assert_eq!(end - start, layout.required_bytes(&model));
    }

    #[test]
    fn image_exceeding_capacity_rejected() {
        let (mut dram, _, model) = setup();
        let mapper = AddressMapper::new(*dram.geometry());
        let layout = WeightLayout::new(mapper.capacity() - 4, mapper);
        assert!(matches!(layout.deploy(&model, &mut dram), Err(DnnError::RegionTooSmall { .. })));
    }

    #[test]
    fn conv_kernel_flip_roundtrips_through_dram() {
        // The satellite acceptance: quantize → store → flip a conv
        // kernel bit in DRAM → dequantize sees exactly that change.
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mapper = AddressMapper::new(*dram.geometry());
        let model = QuantNetwork::quantize(&models::tiny_cnn(7));
        assert!(
            model.layers().iter().any(|l| matches!(l, crate::quant::QuantLayer::Conv(_))),
            "victim must be a real CNN"
        );
        let layout = WeightLayout::new(64, mapper);
        layout.deploy(&model, &mut dram).unwrap();

        // Weighted layer 1 is the first residual conv; flip its MSB.
        let target = BitIndex { layer: 1, weight: 3, bit: 7 };
        let (row, bit) = layout.bit_location(&model, target).unwrap();
        dram.flip_bit(row, bit).unwrap();

        let mut corrupted = model.clone();
        layout.load(&mut corrupted, &dram).unwrap();
        assert_eq!(corrupted.bit(target).unwrap(), !model.bit(target).unwrap());
        let offset = model.byte_offset(target.layer, target.weight).unwrap();
        for (i, (a, b)) in model.weight_bytes().iter().zip(corrupted.weight_bytes()).enumerate() {
            if i == offset {
                assert_eq!(a ^ b, 0x80, "targeted byte flips its sign bit");
            } else {
                assert_eq!(*a, b, "byte {i} must be untouched");
            }
        }
        // The dequantized kernel moved by exactly the sign-bit delta.
        let delta = model.flip_delta(target).unwrap();
        let before = model.to_float_model();
        let after = corrupted.to_float_model();
        let w = |net: &crate::network::Network| {
            net.weighted_layers()[target.layer].weight().unwrap().as_slice()[target.weight]
        };
        assert!((w(&after) - w(&before) - delta).abs() < 1e-6);
    }

    #[test]
    fn fetch_trace_covers_the_image_in_row_safe_chunks() {
        let (_, layout, model) = setup();
        let trace = layout.fetch_trace(&model, 2, 24).unwrap();
        let row_bytes = 64u64;
        let mut per_batch = 0u64;
        for op in trace.ops() {
            let dlk_memctrl::TraceOp::Read { addr, len } = op else {
                panic!("fetch trace only reads")
            };
            assert!(len <= 24);
            assert_eq!((addr % row_bytes + len as u64 - 1) / row_bytes, 0, "no row spans");
            per_batch += len as u64;
        }
        assert_eq!(per_batch, 2 * layout.required_bytes(&model));
        assert_eq!(
            trace.ops().iter().next(),
            Some(dlk_memctrl::TraceOp::Read { addr: 128, len: 24 })
        );
    }

    #[test]
    fn weight_phys_addr_is_contiguous() {
        let (_, layout, model) = setup();
        let a = layout.weight_phys_addr(&model, 0, 0).unwrap();
        let b = layout.weight_phys_addr(&model, 0, 1).unwrap();
        assert_eq!(b, a + 1);
        assert_eq!(layout.weight_phys_addr(&model, 99, 0), None);
    }
}

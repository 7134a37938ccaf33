//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use dram_locker::dnn::{models, QuantNetwork};
use dram_locker::dram::{DramConfig, DramDevice, DramGeometry, RowAddr, RowId};
use dram_locker::locker::{Instruction, LockTable, MicroProgram};
use dram_locker::memctrl::AddressMapper;

proptest! {
    /// Address mapping is bijective for every address.
    #[test]
    fn mapper_roundtrip(phys in 0u64..16384) {
        let mapper = AddressMapper::new(DramGeometry::tiny());
        let (row, col) = mapper.to_dram(phys).unwrap();
        prop_assert_eq!(mapper.to_phys(row, col), phys);
    }

    /// Row-id flattening is bijective over the whole geometry.
    #[test]
    fn row_id_roundtrip(bank in 0u16..2, subarray in 0u16..2, row in 0u32..64) {
        let geometry = DramGeometry::tiny();
        let addr = RowAddr::new(bank, subarray, row);
        let id = geometry.row_id(addr);
        prop_assert_eq!(geometry.row_addr(id), Some(addr));
    }

    /// Every 16-bit word either decodes to an instruction that encodes
    /// back to itself, or is rejected.
    #[test]
    fn isa_decode_encode_consistent(word in any::<u16>()) {
        if let Ok(instruction) = Instruction::decode(word) {
            prop_assert_eq!(instruction.encode(), word);
        }
    }

    /// Assembled programs disassemble to themselves.
    #[test]
    fn program_assembly_roundtrip(a in 0u8..128, b in 0u8..128, buf in 0u8..128) {
        let program = MicroProgram::swap(a, b, buf);
        let words = program.assemble();
        prop_assert_eq!(MicroProgram::disassemble(&words).unwrap(), program);
    }

    /// Lock-table membership matches a reference set under arbitrary
    /// lock sequences.
    #[test]
    fn lock_table_matches_reference(rows in proptest::collection::vec(0u64..64, 1..100)) {
        let mut table = LockTable::new(64);
        let mut reference = std::collections::HashSet::new();
        for row in rows {
            table.lock(RowId(row)).unwrap();
            reference.insert(row);
        }
        prop_assert_eq!(table.len(), reference.len());
        for row in 0..64 {
            prop_assert_eq!(table.peek(RowId(row)), reference.contains(&row));
        }
    }

    /// DRAM row writes are isolated: writing one row never changes
    /// another.
    #[test]
    fn row_writes_are_isolated(row_a in 0u32..32, row_b in 0u32..32, fill in any::<u8>()) {
        prop_assume!(row_a != row_b);
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let a = RowAddr::new(0, 0, row_a);
        let b = RowAddr::new(0, 0, row_b);
        let before = dram.read_row(b).unwrap();
        dram.write_row(a, &[fill; 64]).unwrap();
        prop_assert_eq!(dram.read_row(b).unwrap(), before);
    }

    /// Swapping twice through the buffer row restores both rows.
    #[test]
    fn double_swap_is_identity(fill_a in any::<u8>(), fill_b in any::<u8>()) {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let a = RowAddr::new(0, 1, 3);
        let b = RowAddr::new(0, 1, 7);
        let buffer = RowAddr::new(0, 1, 63);
        dram.write_row(a, &[fill_a; 64]).unwrap();
        dram.write_row(b, &[fill_b; 64]).unwrap();
        dram.swap_rows(a, b, buffer).unwrap();
        dram.swap_rows(a, b, buffer).unwrap();
        prop_assert_eq!(dram.read_row(a).unwrap(), vec![fill_a; 64]);
        prop_assert_eq!(dram.read_row(b).unwrap(), vec![fill_b; 64]);
    }

    /// Flipping any weight bit twice restores the model exactly.
    #[test]
    fn double_bit_flip_is_identity(offset in 0usize..288, bit in 0u8..8) {
        let model = models::tiny_mlp(5);
        let mut quantized = QuantNetwork::quantize(&model);
        let reference = quantized.clone();
        let Some((layer, weight)) = quantized.locate_byte(offset) else {
            return Ok(());
        };
        let index = dram_locker::dnn::BitIndex { layer, weight, bit };
        quantized.flip_bit(index).unwrap();
        quantized.flip_bit(index).unwrap();
        prop_assert_eq!(quantized, reference);
    }

    /// Quantization error is bounded by half a step everywhere.
    #[test]
    fn quantization_error_bounded(seed in 0u64..32) {
        let model = models::tiny_mlp(seed);
        let quantized = QuantNetwork::quantize(&model);
        for (fl, ql) in model.weighted_layers().into_iter().zip(quantized.weighted_layers()) {
            let deq = ql.matrix().unwrap().dequantize();
            for (a, b) in fl.weight().unwrap().as_slice().iter().zip(deq.weight().as_slice()) {
                prop_assert!((a - b).abs() <= ql.scale() / 2.0 + 1e-6);
            }
        }
    }
}

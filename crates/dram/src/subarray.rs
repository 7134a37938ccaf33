//! Subarray row storage.
//!
//! A subarray owns its rows' contents. Rows are allocated lazily (an
//! untouched row reads as all-zero) so that large geometries stay cheap
//! to simulate: each row is a slot of a dense vector indexed by row
//! number, which grows to the highest row written and materializes a
//! row on its first write. Row numbers therefore must lie inside the
//! subarray; [`DramDevice`](crate::DramDevice) validates every row
//! before it reaches here. Bit indexing is little-endian within each
//! byte: bit `i` of the row lives in byte `i / 8`, bit position `i % 8`.
//! A timed read returns its bytes as a [`ReadData`].

use std::fmt;
use std::ops::{Deref, Range};

use crate::error::DramError;

/// The bytes a read returned, dereferencing to `[u8]`. A read of up to
/// [`ReadData::INLINE`] bytes (a hammer loop's single byte, a PTE, a
/// short weight chunk) is held inline, so serving it allocates
/// nothing; a longer read holds a `Vec`.
#[derive(Clone)]
pub struct ReadData(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; ReadData::INLINE] },
    Heap(Vec<u8>),
}

impl ReadData {
    /// The longest read held inline, in bytes.
    pub const INLINE: usize = 16;

    /// A copy of `bytes`.
    fn copy_of(bytes: &[u8]) -> Self {
        if bytes.len() <= Self::INLINE {
            let mut inline = [0; Self::INLINE];
            inline[..bytes.len()].copy_from_slice(bytes);
            Self(Repr::Inline { len: bytes.len() as u8, bytes: inline })
        } else {
            Self(Repr::Heap(bytes.to_vec()))
        }
    }

    /// `len` zero bytes: what an untouched row reads.
    fn zeroed(len: usize) -> Self {
        if len <= Self::INLINE {
            Self(Repr::Inline { len: len as u8, bytes: [0; Self::INLINE] })
        } else {
            Self(Repr::Heap(vec![0; len]))
        }
    }
}

impl Deref for ReadData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for ReadData {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ReadData {}

impl fmt::Debug for ReadData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Functional storage for one subarray's rows.
#[derive(Debug, Clone, Default)]
pub struct Subarray {
    rows: Vec<Option<Vec<u8>>>,
    row_bytes: usize,
}

impl Subarray {
    /// Creates an empty subarray whose rows hold `row_bytes` bytes.
    pub fn new(row_bytes: usize) -> Self {
        Self { rows: Vec::new(), row_bytes }
    }

    /// Row size in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Number of rows that have been materialized (written at least once).
    pub fn materialized_rows(&self) -> usize {
        self.rows.iter().flatten().count()
    }

    /// Reads a full row. Untouched rows read as zeros.
    pub fn read(&self, row: u32) -> Vec<u8> {
        self.peek(row).map_or_else(|| vec![0; self.row_bytes], <[u8]>::to_vec)
    }

    /// Returns a reference to the row's bytes if it has been materialized.
    pub fn peek(&self, row: u32) -> Option<&[u8]> {
        self.rows.get(row as usize)?.as_deref()
    }

    /// The row's bytes, materialized (zeroed) on first use.
    fn row_mut(&mut self, row: u32) -> &mut Vec<u8> {
        let slot = row as usize;
        if slot >= self.rows.len() {
            self.rows.resize_with(slot + 1, || None);
        }
        let row_bytes = self.row_bytes;
        self.rows[slot].get_or_insert_with(|| vec![0; row_bytes])
    }

    /// The byte range `len` bytes at `col` cover, if it fits in a row.
    fn span(&self, col: usize, len: usize) -> Result<Range<usize>, DramError> {
        match col.checked_add(len) {
            Some(end) if end <= self.row_bytes => Ok(col..end),
            _ => Err(DramError::InvalidColumn {
                col: col.saturating_add(len),
                row_bytes: self.row_bytes,
            }),
        }
    }

    /// Overwrites a full row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::DataSizeMismatch`] if `data` is not exactly
    /// one row long.
    pub fn write(&mut self, row: u32, data: &[u8]) -> Result<(), DramError> {
        if data.len() != self.row_bytes {
            return Err(DramError::DataSizeMismatch { got: data.len(), expected: self.row_bytes });
        }
        self.row_mut(row).copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at byte offset `col`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidColumn`] if the range exceeds the row.
    pub fn read_bytes(&self, row: u32, col: usize, len: usize) -> Result<ReadData, DramError> {
        let span = self.span(col, len)?;
        Ok(match self.peek(row) {
            Some(data) => ReadData::copy_of(&data[span]),
            None => ReadData::zeroed(len),
        })
    }

    /// Writes bytes starting at byte offset `col`, materializing the row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidColumn`] if the range exceeds the row.
    pub fn write_bytes(&mut self, row: u32, col: usize, bytes: &[u8]) -> Result<(), DramError> {
        let span = self.span(col, bytes.len())?;
        self.row_mut(row)[span].copy_from_slice(bytes);
        Ok(())
    }

    /// Flips one bit of a row (RowHammer disturbance). Returns the new
    /// value of the bit.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidColumn`] if `bit` exceeds the row.
    pub fn flip_bit(&mut self, row: u32, bit: usize) -> Result<bool, DramError> {
        if bit >= self.row_bytes * 8 {
            return Err(DramError::InvalidColumn { col: bit / 8, row_bytes: self.row_bytes });
        }
        let row_data = self.row_mut(row);
        let byte = bit / 8;
        let mask = 1u8 << (bit % 8);
        row_data[byte] ^= mask;
        Ok(row_data[byte] & mask != 0)
    }

    /// Reads one bit of a row.
    pub fn read_bit(&self, row: u32, bit: usize) -> Result<bool, DramError> {
        if bit >= self.row_bytes * 8 {
            return Err(DramError::InvalidColumn { col: bit / 8, row_bytes: self.row_bytes });
        }
        Ok(self.peek(row).is_some_and(|data| data[bit / 8] & (1 << (bit % 8)) != 0))
    }

    /// Copies row `src` over row `dst` (the functional effect of a
    /// RowClone AAP within this subarray).
    pub fn copy_row(&mut self, src: u32, dst: u32) {
        let data = self.read(src);
        *self.row_mut(dst) = data;
    }

    /// Swaps the contents of two rows (three copies through a buffer in
    /// hardware; a plain swap functionally).
    pub fn swap_rows(&mut self, a: u32, b: u32) {
        let da = self.read(a);
        let db = self.read(b);
        *self.row_mut(a) = db;
        *self.row_mut(b) = da;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subarray() -> Subarray {
        Subarray::new(16)
    }

    #[test]
    fn untouched_rows_read_zero() {
        let sa = subarray();
        assert_eq!(sa.read(5), vec![0; 16]);
        assert_eq!(sa.materialized_rows(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut sa = subarray();
        let data: Vec<u8> = (0..16).collect();
        sa.write(3, &data).unwrap();
        assert_eq!(sa.read(3), data);
        assert_eq!(sa.materialized_rows(), 1);
    }

    #[test]
    fn write_wrong_size_rejected() {
        let mut sa = subarray();
        let err = sa.write(0, &[1, 2, 3]).unwrap_err();
        assert_eq!(err, DramError::DataSizeMismatch { got: 3, expected: 16 });
    }

    #[test]
    fn partial_read_write() {
        let mut sa = subarray();
        sa.write_bytes(1, 4, &[0xAA, 0xBB]).unwrap();
        assert_eq!(*sa.read_bytes(1, 4, 2).unwrap(), [0xAA, 0xBB]);
        assert_eq!(*sa.read_bytes(1, 0, 4).unwrap(), [0; 4]);
        assert!(sa.read_bytes(1, 15, 2).is_err());
        assert!(sa.write_bytes(1, 15, &[0, 0]).is_err());
    }

    #[test]
    fn huge_spans_are_errors_not_wraps() {
        let mut sa = subarray();
        let err = DramError::InvalidColumn { col: usize::MAX, row_bytes: 16 };
        assert_eq!(sa.read_bytes(0, 1, usize::MAX), Err(err.clone()));
        assert_eq!(sa.write_bytes(0, usize::MAX, &[1]), Err(err));
        assert_eq!(sa.materialized_rows(), 0);
    }

    #[test]
    fn rows_materialize_sparsely() {
        let mut sa = subarray();
        sa.write_bytes(40, 0, &[1]).unwrap();
        assert_eq!(sa.materialized_rows(), 1);
        assert_eq!(sa.peek(39), None);
        assert_eq!(*sa.read_bytes(41, 0, 2).unwrap(), [0, 0]);
        assert_eq!(sa.peek(40).unwrap()[0], 1);
    }

    #[test]
    fn reads_past_the_inline_size_match_short_ones() {
        let mut sa = Subarray::new(64);
        let data: Vec<u8> = (1..=64).collect();
        sa.write(2, &data).unwrap();
        for len in [0, 1, ReadData::INLINE, ReadData::INLINE + 1, 64] {
            assert_eq!(*sa.read_bytes(2, 0, len).unwrap(), data[..len], "len {len}");
            assert_eq!(*sa.read_bytes(3, 0, len).unwrap(), vec![0; len], "untouched, len {len}");
        }
        let (short, long) = (sa.read_bytes(2, 4, 3).unwrap(), sa.read_bytes(2, 4, 40).unwrap());
        assert_eq!(short, short.clone());
        assert_ne!(short, long);
        assert_eq!(format!("{short:?}"), "[5, 6, 7]");
    }

    #[test]
    fn flip_bit_toggles() {
        let mut sa = subarray();
        assert!(sa.flip_bit(0, 9).unwrap()); // 0 -> 1
        assert!(sa.read_bit(0, 9).unwrap());
        assert!(!sa.flip_bit(0, 9).unwrap()); // 1 -> 0
        assert!(!sa.read_bit(0, 9).unwrap());
        assert!(sa.flip_bit(0, 16 * 8).is_err());
    }

    #[test]
    fn copy_row_duplicates_contents() {
        let mut sa = subarray();
        sa.write(0, &[7u8; 16]).unwrap();
        sa.copy_row(0, 9);
        assert_eq!(sa.read(9), vec![7u8; 16]);
        // Source unchanged.
        assert_eq!(sa.read(0), vec![7u8; 16]);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut sa = subarray();
        sa.write(0, &[1u8; 16]).unwrap();
        sa.write(1, &[2u8; 16]).unwrap();
        sa.swap_rows(0, 1);
        assert_eq!(sa.read(0), vec![2u8; 16]);
        assert_eq!(sa.read(1), vec![1u8; 16]);
    }

    #[test]
    fn swap_with_unmaterialized_row_zeroes() {
        let mut sa = subarray();
        sa.write(0, &[1u8; 16]).unwrap();
        sa.swap_rows(0, 7);
        assert_eq!(sa.read(0), vec![0u8; 16]);
        assert_eq!(sa.read(7), vec![1u8; 16]);
    }
}

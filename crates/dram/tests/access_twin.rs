//! Timed accesses pinned against their command sequences.
//!
//! `DramDevice::access_read`/`access_write` must behave exactly like
//! the commands they stand for. Each test drives one device through
//! `access_*` and a twin through `issue(Pre/Act/Rd/Wr)` plus functional
//! row reads and writes, with one seeded op stream. The stream mixes
//! row hits, row conflicts, out-of-range accesses and TRH crossings
//! with a flip plan. Every op must give both twins the same result,
//! errors included, and the twins must stay equal: clock, statistics,
//! every stored row and every hammer count.

use dlk_dram::{DramCommand, DramConfig, DramDevice, DramError, RowAddr, RowId};

/// SplitMix64: a seeded op stream.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// The twin driven through `issue`. `issue` does not count row-buffer
/// hits and misses, so the twin tallies them itself.
struct Twin {
    dram: DramDevice,
    hits: u64,
    misses: u64,
}

impl Twin {
    /// `validate_access`: the row first, then the column, then the span.
    fn validate(&self, row: RowAddr, col: usize, len: usize) -> Result<(), DramError> {
        self.dram.read_row(row)?;
        let row_bytes = self.dram.geometry().row_bytes;
        if col >= row_bytes {
            Err(DramError::InvalidColumn { col, row_bytes })
        } else if len > row_bytes - col {
            Err(DramError::InvalidColumn { col: col.saturating_add(len), row_bytes })
        } else {
            Ok(())
        }
    }

    /// `open_row_for`: a hit issues nothing, a conflict PRE then ACT,
    /// an idle bank ACT.
    fn open(&mut self, row: RowAddr) -> Result<(), DramError> {
        match self.dram.open_row_of(row.bank) {
            Some(open) if open == row => self.hits += 1,
            Some(_) => {
                self.misses += 1;
                self.dram.issue(DramCommand::Pre(row.bank))?;
                self.dram.issue(DramCommand::Act(row))?;
            }
            None => {
                self.misses += 1;
                self.dram.issue(DramCommand::Act(row))?;
            }
        }
        Ok(())
    }

    fn read(&mut self, row: RowAddr, col: usize, len: usize) -> Result<(Vec<u8>, u64), DramError> {
        self.validate(row, col, len)?;
        let begin = self.dram.now();
        self.open(row)?;
        self.dram.issue(DramCommand::Rd { bank: row.bank, col })?;
        let data = self.dram.read_row(row)?[col..col + len].to_vec();
        Ok((data, self.dram.now() - begin))
    }

    fn write(&mut self, row: RowAddr, col: usize, bytes: &[u8]) -> Result<u64, DramError> {
        self.validate(row, col, bytes.len())?;
        let begin = self.dram.now();
        self.open(row)?;
        self.dram.issue(DramCommand::Wr { bank: row.bank, col })?;
        let mut data = self.dram.read_row(row)?;
        data[col..col + bytes.len()].copy_from_slice(bytes);
        self.dram.write_row(row, &data)?;
        Ok(self.dram.now() - begin)
    }
}

/// Asserts that the two devices are equal in everything observable.
fn assert_same(dram: &DramDevice, twin: &Twin, at: usize) {
    assert_eq!(dram.now(), twin.dram.now(), "clock after op {at}");
    let mut expected = twin.dram.stats().clone();
    expected.row_buffer_hits = twin.hits;
    expected.row_buffer_misses = twin.misses;
    assert_eq!(dram.stats(), &expected, "stats after op {at}");
    let geometry = *dram.geometry();
    for id in 0..geometry.total_rows() {
        let row = geometry.row_addr(RowId(id)).expect("every id below total_rows");
        assert_eq!(dram.read_row(row), twin.dram.read_row(row), "{row} after op {at}");
        assert_eq!(
            dram.activation_count(RowId(id)),
            twin.dram.activation_count(RowId(id)),
            "hammer count of {row} after op {at}"
        );
    }
}

/// Runs `ops` seeded accesses on a device and its twin, comparing
/// every result and the whole state every 100 ops. Returns how many
/// ops failed with an illegal-command error.
fn run_twins(config: DramConfig, seed: u64, ops: usize) -> u64 {
    let mut dram = DramDevice::new(config);
    let mut twin = Twin { dram: DramDevice::new(config), hits: 0, misses: 0 };
    let geometry = config.geometry;
    // Victims of the two hammered rows (10 and 12 share victim 11)
    // flip planned bits; row 31's neighbours flip pseudo-random ones.
    for (row, bits) in [(11, vec![3, 100]), (13, vec![7])] {
        let id = geometry.row_id(RowAddr::new(0, 0, row));
        dram.hammer_mut().set_flip_plan(id, bits.clone());
        twin.dram.hammer_mut().set_flip_plan(id, bits);
    }
    let mut stream = Stream(seed);
    let mut illegal = 0;
    for at in 0..ops {
        // Mostly bank 0 subarray 0, where the rows conflict and the
        // hammered ones cross TRH; now and then another bank, a bank
        // or row outside the geometry, or a span past the row's end.
        let row = match stream.below(20) {
            0 => RowAddr::new(1, 1, stream.below(64) as u32),
            1 => RowAddr::new(2, 0, 0),
            2 => RowAddr::new(0, 0, 64),
            _ => RowAddr::new(0, 0, [10, 12, 31][stream.below(3) as usize]),
        };
        let col = stream.below(geometry.row_bytes as u64) as usize;
        let len = match stream.below(8) {
            0 => 17 + stream.below(48) as usize,
            1 => 0,
            _ => 1 + stream.below(16) as usize,
        };
        let error = if stream.below(3) == 0 {
            let bytes: Vec<u8> = (0..len).map(|_| stream.below(256) as u8).collect();
            let got = dram.access_write(row, col, &bytes);
            assert_eq!(got, twin.write(row, col, &bytes), "write {at}: {row} +{col} len {len}");
            got.err()
        } else {
            let got = dram.access_read(row, col, len).map(|(data, cycles)| (data.to_vec(), cycles));
            assert_eq!(got, twin.read(row, col, len), "read {at}: {row} +{col} len {len}");
            got.err()
        };
        illegal += u64::from(matches!(error, Some(DramError::IllegalCommand { .. })));
        if at % 100 == 99 {
            assert_same(&dram, &twin, at);
        }
    }
    assert_same(&dram, &twin, ops);
    assert!(dram.stats().bit_flips > 0, "the stream must cross TRH");
    assert!(dram.stats().row_buffer_hits > 0 && dram.stats().row_buffer_misses > 0);
    illegal
}

#[test]
fn accesses_match_their_commands_without_refresh() {
    let illegal = run_twins(DramConfig::tiny_for_tests(), 7, 3_000);
    assert_eq!(illegal, 0);
}

#[test]
fn accesses_match_their_commands_under_auto_refresh() {
    let mut config = DramConfig::tiny_for_tests();
    config.auto_refresh = true;
    config.timing.trefi = 2_000;
    config.timing.trefw = 10_000;
    // A REF that falls due between a request's ACT and its RD/WR closes
    // the bank, and the column command fails on both twins alike.
    let illegal = run_twins(config, 11, 3_000);
    assert!(illegal > 0, "no REF landed inside an access");
}

//! The DRAM-Locker 16-bit instruction set (Fig. 5 of the paper).
//!
//! Two instruction classes, distinguished by the 2-bit opcode:
//!
//! | OP   | Mnemonic | Encoding                        |
//! |------|----------|---------------------------------|
//! | `01` | `AAP`    | `01 ddddddd sssssss` — row copy from µReg `s` to µReg `d` |
//! | `10` | `bnez`   | `10 rrrrrrr ttttttt` — branch to µOp `t` if µReg `r` ≠ 0  |
//! | `11` | `done`   | `11 00000000000000` — terminate the micro-program         |
//!
//! µRegs are 7-bit names resolved through a [`RegFile`] that binds them
//! to DRAM row addresses (for `AAP`) or scalar counters (for `bnez`).
//! The [`MicroExecutor`] runs a [`MicroProgram`] against a
//! [`DramDevice`], issuing one RowClone AAP per copy instruction — this
//! is exactly how DRAM-Locker's SWAP reaches the DRAM.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

use dlk_dram::{DramDevice, DramError, RowAddr};

/// Number of addressable µRegs (7-bit names).
pub const NUM_UREGS: usize = 128;

/// A decoded DRAM-Locker instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instruction {
    /// RowClone copy: row bound to µReg `src` copied over µReg `dst`.
    Copy {
        /// Destination µReg (bound to a row).
        dst: u8,
        /// Source µReg (bound to a row).
        src: u8,
    },
    /// Branch to µOp index `target` if the counter µReg `reg` is not
    /// zero; decrements the counter on a taken branch.
    Bnez {
        /// Counter µReg.
        reg: u8,
        /// Branch target (µOp index).
        target: u8,
    },
    /// Terminate the micro-program.
    Done,
}

/// Instruction class of one opcode block — the discriminant column of
/// the dense decode table, also used as the pre-decoded dispatch tag
/// of a [`CompiledProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// Reserved opcode `00`: always a fault.
    Reserved = 0,
    /// `01` — RowClone copy.
    Copy = 1,
    /// `10` — branch if counter non-zero.
    Bnez = 2,
    /// `11` — terminate.
    Done = 3,
}

/// One row of the dense decode table, indexed by the top-2 opcode
/// bits. Flag columns describe operand validity instead of per-opcode
/// code paths: `zero_mask` are the word bits that must be clear for a
/// canonical encoding (`done` takes no operands), `valid` is false
/// only for the reserved block.
struct DecodeEntry {
    class: OpClass,
    valid: bool,
    zero_mask: u16,
}

/// The 4-entry decode table (one aligned block per 2-bit opcode, after
/// plonky2's power-of-two opcode blocks). `Instruction::decode`, the
/// bulk disassembler and [`CompiledProgram::from_words`] all key into
/// this table; the legacy match decoder survives as
/// [`Instruction::decode_reference`], and an exhaustive-u16 test pins
/// the two word-for-word.
const DECODE_TABLE: [DecodeEntry; 4] = [
    DecodeEntry { class: OpClass::Reserved, valid: false, zero_mask: 0 },
    DecodeEntry { class: OpClass::Copy, valid: true, zero_mask: 0 },
    DecodeEntry { class: OpClass::Bnez, valid: true, zero_mask: 0 },
    DecodeEntry { class: OpClass::Done, valid: true, zero_mask: 0x3FFF },
];

impl Instruction {
    const OP_COPY: u16 = 0b01;
    const OP_BNEZ: u16 = 0b10;
    const OP_DONE: u16 = 0b11;

    /// Encodes the instruction into its 16-bit representation.
    pub fn encode(&self) -> u16 {
        match self {
            Instruction::Copy { dst, src } => {
                (Self::OP_COPY << 14) | ((*dst as u16 & 0x7F) << 7) | (*src as u16 & 0x7F)
            }
            Instruction::Bnez { reg, target } => {
                (Self::OP_BNEZ << 14) | ((*reg as u16 & 0x7F) << 7) | (*target as u16 & 0x7F)
            }
            Instruction::Done => Self::OP_DONE << 14,
        }
    }

    /// The table's `valid` column packed into one bit per opcode
    /// block, so the bulk validity scan needs no table load.
    const VALID_BITS: u16 = {
        let mut bits = 0u16;
        let mut op = 0;
        while op < DECODE_TABLE.len() {
            if DECODE_TABLE[op].valid {
                bits |= 1 << op;
            }
            op += 1;
        }
        bits
    };

    /// The one non-trivial `zero_mask` column (`done`'s operand bits),
    /// lifted out of the table at compile time.
    const DONE_ZERO_MASK: u16 = DECODE_TABLE[Instruction::OP_DONE as usize].zero_mask;

    /// Whether `word` is a canonical encoding — the branch-free
    /// validity test of the decode table. Uses the compile-time
    /// projections of the flag columns ([`Self::VALID_BITS`],
    /// [`Self::DONE_ZERO_MASK`]) so the check is pure arithmetic and
    /// the bulk scan in [`CompiledProgram::from_words`] vectorizes;
    /// the exhaustive-u16 test pins it against the table decoder.
    #[inline]
    pub fn word_is_canonical(word: u16) -> bool {
        let op = word >> 14;
        ((Self::VALID_BITS >> op) & 1 == 1)
            & ((op != Self::OP_DONE) | (word & Self::DONE_ZERO_MASK == 0))
    }

    /// Decodes a 16-bit word through the dense decode table.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadOpcode`] for the reserved opcode `00` and
    /// [`IsaError::BadEncoding`] for malformed `done` words.
    #[inline]
    pub fn decode(word: u16) -> Result<Self, IsaError> {
        let entry = &DECODE_TABLE[(word >> 14) as usize];
        if !(entry.valid & (word & entry.zero_mask == 0)) {
            return Err(Self::classify_fault(word));
        }
        let hi = ((word >> 7) & 0x7F) as u8;
        let lo = (word & 0x7F) as u8;
        Ok(match entry.class {
            OpClass::Copy => Instruction::Copy { dst: hi, src: lo },
            OpClass::Bnez => Instruction::Bnez { reg: hi, target: lo },
            // `zero_mask` already proved the operand bits clear.
            _ => Instruction::Done,
        })
    }

    /// The exact fault a non-canonical word raises (cold path).
    #[cold]
    fn classify_fault(word: u16) -> IsaError {
        if DECODE_TABLE[(word >> 14) as usize].valid {
            IsaError::BadEncoding(word)
        } else {
            IsaError::BadOpcode(word)
        }
    }

    /// The pre-refactor match-based decoder, kept verbatim as the
    /// oracle for the table-driven [`Instruction::decode`] (tests pin
    /// the two word-for-word over all 65536 words; the layered bench
    /// reports the throughput ratio as `locker/decode_vs_reference`).
    #[doc(hidden)]
    pub fn decode_reference(word: u16) -> Result<Self, IsaError> {
        let op = word >> 14;
        let hi = ((word >> 7) & 0x7F) as u8;
        let lo = (word & 0x7F) as u8;
        match op {
            Self::OP_COPY => Ok(Instruction::Copy { dst: hi, src: lo }),
            Self::OP_BNEZ => Ok(Instruction::Bnez { reg: hi, target: lo }),
            Self::OP_DONE => {
                if hi == 0 && lo == 0 {
                    Ok(Instruction::Done)
                } else {
                    Err(IsaError::BadEncoding(word))
                }
            }
            _ => Err(IsaError::BadOpcode(word)),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Copy { dst, src } => write!(f, "AAP r{dst}, r{src}"),
            Instruction::Bnez { reg, target } => write!(f, "bnez r{reg}, {target}"),
            Instruction::Done => f.write_str("done"),
        }
    }
}

/// ISA decoding/execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Reserved opcode `00`.
    BadOpcode(u16),
    /// Non-canonical encoding (e.g. `done` with operand bits set).
    BadEncoding(u16),
    /// A copy referenced a µReg with no bound row.
    UnboundReg(u8),
    /// The program ran past its end without `done`.
    MissingDone,
    /// Execution exceeded the step budget (runaway loop).
    StepLimit(usize),
    /// DRAM rejected an AAP.
    Dram(DramError),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadOpcode(word) => write!(f, "reserved opcode in word {word:#06x}"),
            IsaError::BadEncoding(word) => write!(f, "malformed encoding {word:#06x}"),
            IsaError::UnboundReg(reg) => write!(f, "µreg r{reg} has no bound row"),
            IsaError::MissingDone => f.write_str("program ended without done"),
            IsaError::StepLimit(n) => write!(f, "step limit {n} exceeded"),
            IsaError::Dram(err) => write!(f, "dram error: {err}"),
        }
    }
}

impl Error for IsaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IsaError::Dram(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DramError> for IsaError {
    fn from(err: DramError) -> Self {
        IsaError::Dram(err)
    }
}

/// The µReg file: binds register names to row addresses and counters.
#[derive(Debug, Clone)]
pub struct RegFile {
    rows: [Option<RowAddr>; NUM_UREGS],
    counters: [u64; NUM_UREGS],
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Self { rows: [None; NUM_UREGS], counters: [0; NUM_UREGS] }
    }

    /// Binds µReg `reg` to a DRAM row.
    pub fn bind_row(&mut self, reg: u8, row: RowAddr) {
        self.rows[reg as usize % NUM_UREGS] = Some(row);
    }

    /// The row bound to `reg`, if any.
    pub fn row(&self, reg: u8) -> Option<RowAddr> {
        self.rows[reg as usize % NUM_UREGS]
    }

    /// Sets counter µReg `reg`.
    pub fn set_counter(&mut self, reg: u8, value: u64) {
        self.counters[reg as usize % NUM_UREGS] = value;
    }

    /// Reads counter µReg `reg`.
    pub fn counter(&self, reg: u8) -> u64 {
        self.counters[reg as usize % NUM_UREGS]
    }
}

/// A sequence of instructions.
///
/// # Example
///
/// ```
/// use dlk_locker::{Instruction, MicroProgram};
///
/// let prog = MicroProgram::swap(0, 1, 2);
/// assert_eq!(prog.len(), 4); // three copies + done
/// let words = prog.assemble();
/// let back = MicroProgram::disassemble(&words).unwrap();
/// assert_eq!(back, prog);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MicroProgram {
    instructions: Vec<Instruction>,
}

impl MicroProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical SWAP program of the paper (Fig. 4(b)): with µRegs
    /// `a` (locked row), `b` (unlocked row) and `buf` (buffer row):
    ///
    /// 1. `AAP buf, a` — locked row into the buffer row;
    /// 2. `AAP a, b` — unlocked row into the locked row;
    /// 3. `AAP b, buf` — buffer row into the unlocked row;
    /// 4. `done`.
    pub fn swap(a: u8, b: u8, buf: u8) -> Self {
        Self {
            instructions: vec![
                Instruction::Copy { dst: buf, src: a },
                Instruction::Copy { dst: a, src: b },
                Instruction::Copy { dst: b, src: buf },
                Instruction::Done,
            ],
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// The instructions.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Assembles to 16-bit words.
    pub fn assemble(&self) -> Vec<u16> {
        self.instructions.iter().map(Instruction::encode).collect()
    }

    /// Disassembles from 16-bit words.
    ///
    /// # Errors
    ///
    /// Returns the first decoding error.
    pub fn disassemble(words: &[u16]) -> Result<Self, IsaError> {
        let instructions =
            words.iter().map(|&w| Instruction::decode(w)).collect::<Result<_, _>>()?;
        Ok(Self { instructions })
    }

    /// Pre-decodes the program into its dense executable form.
    pub fn compile(&self) -> CompiledProgram {
        CompiledProgram { ops: self.instructions.iter().map(PackedOp::from_instruction).collect() }
    }
}

/// One pre-decoded µOp in dense table form: the 2-bit opcode as the
/// dispatch tag plus the two 7-bit operand fields, regardless of
/// class. Decoding a word into this form is branch-free; the explicit
/// padding byte keeps the struct 4 bytes wide so the bulk decoder's
/// stores stay lane-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct PackedOp {
    /// The opcode bits (1 = copy, 2 = bnez, 3 = done).
    op: u8,
    /// High operand field (copy `dst` / bnez `reg`).
    a: u8,
    /// Low operand field (copy `src` / bnez `target`).
    b: u8,
    /// Always zero.
    pad: u8,
}

impl PackedOp {
    #[inline]
    fn from_word(word: u16) -> Self {
        Self {
            op: (word >> 14) as u8,
            a: ((word >> 7) & 0x7F) as u8,
            b: (word & 0x7F) as u8,
            pad: 0,
        }
    }

    fn from_instruction(instruction: &Instruction) -> Self {
        Self::from_word(instruction.encode())
    }

    /// The decoded instruction this op packs.
    pub fn instruction(&self) -> Instruction {
        match self.op {
            1 => Instruction::Copy { dst: self.a, src: self.b },
            2 => Instruction::Bnez { reg: self.a, target: self.b },
            _ => Instruction::Done,
        }
    }
}

/// A pre-decoded micro-program: the dense form [`MicroExecutor`] runs
/// without re-decoding. Produced by [`MicroProgram::compile`] or
/// directly from a word stream by [`CompiledProgram::from_words`],
/// whose bulk decoder validates every word with the decode table's
/// flag columns first (a branch-free scan) and then packs operands
/// unchecked.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledProgram {
    ops: Vec<PackedOp>,
}

impl CompiledProgram {
    /// Bulk-decodes a word stream.
    ///
    /// # Errors
    ///
    /// Returns the first decoding error, identical to the error
    /// [`MicroProgram::disassemble`] reports for the same words.
    pub fn from_words(words: &[u16]) -> Result<Self, IsaError> {
        // Accumulate validity over the whole stream instead of
        // early-exiting: the reduction has no data-dependent branch,
        // so it vectorizes; the faulting word is located again only on
        // the cold error path. Kept as a separate pass from the pack
        // loop — fusing them carries the flag through the collect and
        // de-vectorizes both.
        let all_canonical =
            words.iter().fold(true, |ok, &w| ok & Instruction::word_is_canonical(w));
        if !all_canonical {
            // Relocating the fault can't fail (the reduction saw one),
            // but stay infallible anyway: a never-taken fallthrough to
            // a generic fault beats an expect() on the service path.
            let bad = words
                .iter()
                .copied()
                .find(|&w| !Instruction::word_is_canonical(w))
                .unwrap_or(words.first().copied().unwrap_or(0));
            return Err(Instruction::classify_fault(bad));
        }
        Ok(Self { ops: words.iter().map(|&w| PackedOp::from_word(w)).collect() })
    }

    /// Number of µOps.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The packed µOps.
    pub fn ops(&self) -> &[PackedOp] {
        &self.ops
    }

    /// Reconstructs the instruction-level program.
    pub fn decompile(&self) -> MicroProgram {
        MicroProgram { instructions: self.ops.iter().map(PackedOp::instruction).collect() }
    }
}

/// A cache of pre-decoded programs keyed by their word stream, so
/// replaying the same micro-program never re-decodes. Backing store of
/// [`MicroExecutor::run_words`].
#[derive(Debug, Clone, Default)]
pub struct ProgramCache {
    programs: std::collections::HashMap<Vec<u16>, CompiledProgram>,
    hits: u64,
    misses: u64,
    /// `(hits, misses)` already pushed to a registry by
    /// [`ProgramCache::export_obs`], so repeated exports add deltas
    /// only.
    exported: std::cell::Cell<(u64, u64)>,
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled program for `words`, bulk-decoding at most once
    /// per distinct word stream.
    ///
    /// # Errors
    ///
    /// Returns the first decoding error (never cached — a faulting
    /// stream faults again).
    pub fn get_or_compile(&mut self, words: &[u16]) -> Result<&CompiledProgram, IsaError> {
        if !self.programs.contains_key(words) {
            self.misses += 1;
            let compiled = CompiledProgram::from_words(words)?;
            self.programs.insert(words.to_vec(), compiled);
        } else {
            self.hits += 1;
        }
        Ok(&self.programs[words])
    }

    /// Pushes the hit/miss counters into `registry` as
    /// `<prefix>.hits` / `<prefix>.misses` — the exposition path for
    /// counters that are otherwise private to the executor. Only the
    /// delta since the previous export is added, so repeated exports
    /// never double-count.
    pub fn export_obs(&self, registry: &dlk_obs::Registry, prefix: &str) {
        let (prev_hits, prev_misses) = self.exported.get();
        registry.counter(&format!("{prefix}.hits")).add(self.hits.saturating_sub(prev_hits));
        registry.counter(&format!("{prefix}.misses")).add(self.misses.saturating_sub(prev_misses));
        self.exported.set((self.hits, self.misses));
    }

    /// Replays served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Word streams decoded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

/// Executes micro-programs against a DRAM device.
#[derive(Debug, Clone)]
pub struct MicroExecutor {
    /// Maximum µOps executed before aborting (runaway-loop guard).
    pub step_limit: usize,
    /// Pre-decoded programs keyed by word stream, so
    /// [`MicroExecutor::run_words`] replay never re-decodes.
    cache: ProgramCache,
}

impl Default for MicroExecutor {
    fn default() -> Self {
        Self { step_limit: 4096, cache: ProgramCache::new() }
    }
}

/// Result of executing a micro-program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// µOps executed (including the final `done`).
    pub steps: usize,
    /// AAP copies issued to DRAM.
    pub copies: usize,
    /// Device cycles consumed.
    pub cycles: u64,
}

impl MicroExecutor {
    /// Creates an executor with the default step limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `program` to its `done`, issuing AAPs to `dram`.
    ///
    /// # Errors
    ///
    /// Returns an error for unbound registers, missing `done`, step
    /// limit overruns or DRAM command failures.
    pub fn run(
        &self,
        program: &MicroProgram,
        regs: &mut RegFile,
        dram: &mut DramDevice,
    ) -> Result<ExecReport, IsaError> {
        self.run_compiled(&program.compile(), regs, dram)
    }

    /// Runs a pre-decoded program — the no-re-decode replay path.
    /// Behaviour (reports and errors) is identical to
    /// [`MicroExecutor::run`] on the equivalent [`MicroProgram`].
    ///
    /// # Errors
    ///
    /// Returns an error for unbound registers, missing `done`, step
    /// limit overruns or DRAM command failures.
    pub fn run_compiled(
        &self,
        program: &CompiledProgram,
        regs: &mut RegFile,
        dram: &mut DramDevice,
    ) -> Result<ExecReport, IsaError> {
        Self::exec(self.step_limit, program, regs, dram)
    }

    fn exec(
        step_limit: usize,
        program: &CompiledProgram,
        regs: &mut RegFile,
        dram: &mut DramDevice,
    ) -> Result<ExecReport, IsaError> {
        let begin_cycles = dram.now();
        let mut pc = 0usize;
        let mut report = ExecReport::default();
        loop {
            if report.steps >= step_limit {
                return Err(IsaError::StepLimit(step_limit));
            }
            let Some(op) = program.ops().get(pc) else {
                return Err(IsaError::MissingDone);
            };
            report.steps += 1;
            match op.op {
                1 => {
                    let (dst, src) = (op.a, op.b);
                    let src_row = regs.row(src).ok_or(IsaError::UnboundReg(src))?;
                    let dst_row = regs.row(dst).ok_or(IsaError::UnboundReg(dst))?;
                    dram.row_clone(src_row, dst_row)?;
                    report.copies += 1;
                    pc += 1;
                }
                2 => {
                    let value = regs.counter(op.a);
                    if value != 0 {
                        regs.set_counter(op.a, value - 1);
                        pc = op.b as usize;
                    } else {
                        pc += 1;
                    }
                }
                _ => {
                    report.cycles = dram.now() - begin_cycles;
                    return Ok(report);
                }
            }
        }
    }

    /// Decodes-and-runs a word stream, serving repeat streams from the
    /// executor's [`ProgramCache`] so replay never re-decodes.
    ///
    /// # Errors
    ///
    /// Returns the first decoding error, or any execution error of
    /// [`MicroExecutor::run_compiled`].
    pub fn run_words(
        &mut self,
        words: &[u16],
        regs: &mut RegFile,
        dram: &mut DramDevice,
    ) -> Result<ExecReport, IsaError> {
        let Self { step_limit, cache } = self;
        let program = cache.get_or_compile(words)?;
        Self::exec(*step_limit, program, regs, dram)
    }

    /// The executor's program cache (hit/miss accounting).
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// Surfaces the program cache's hit/miss counters in `registry`
    /// under `<prefix>.*` (see [`ProgramCache::export_obs`]).
    pub fn export_obs(&self, registry: &dlk_obs::Registry, prefix: &str) {
        self.cache.export_obs(registry, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    #[test]
    fn program_cache_export_obs_adds_deltas_only() {
        let registry = dlk_obs::Registry::new();
        let mut cache = ProgramCache::new();
        let words = MicroProgram::swap(0, 1, 2).assemble();
        cache.get_or_compile(&words).unwrap(); // miss
        cache.get_or_compile(&words).unwrap(); // hit
        cache.export_obs(&registry, "locker.program_cache");
        assert_eq!(registry.counter("locker.program_cache.hits").get(), 1);
        assert_eq!(registry.counter("locker.program_cache.misses").get(), 1);
        cache.get_or_compile(&words).unwrap(); // another hit
        cache.export_obs(&registry, "locker.program_cache");
        assert_eq!(registry.counter("locker.program_cache.hits").get(), 2);
        assert_eq!(registry.counter("locker.program_cache.misses").get(), 1);
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        for instruction in [
            Instruction::Copy { dst: 3, src: 127 },
            Instruction::Bnez { reg: 1, target: 0 },
            Instruction::Done,
        ] {
            assert_eq!(Instruction::decode(instruction.encode()).unwrap(), instruction);
        }
    }

    #[test]
    fn reserved_opcode_rejected() {
        assert_eq!(Instruction::decode(0x0000), Err(IsaError::BadOpcode(0)));
    }

    #[test]
    fn malformed_done_rejected() {
        let word = (0b11 << 14) | 1;
        assert_eq!(Instruction::decode(word), Err(IsaError::BadEncoding(word)));
    }

    #[test]
    fn opcodes_match_fig5() {
        // OP=01 copy, OP=10 bnez, OP=11 done.
        assert_eq!(Instruction::Copy { dst: 0, src: 0 }.encode() >> 14, 0b01);
        assert_eq!(Instruction::Bnez { reg: 0, target: 0 }.encode() >> 14, 0b10);
        assert_eq!(Instruction::Done.encode() >> 14, 0b11);
    }

    #[test]
    fn swap_program_swaps_rows_on_dram() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let a = RowAddr::new(0, 0, 1);
        let b = RowAddr::new(0, 0, 2);
        let buf = RowAddr::new(0, 0, 63);
        dram.write_row(a, &[0xAA; 64]).unwrap();
        dram.write_row(b, &[0xBB; 64]).unwrap();

        let mut regs = RegFile::new();
        regs.bind_row(0, a);
        regs.bind_row(1, b);
        regs.bind_row(2, buf);
        let report =
            MicroExecutor::new().run(&MicroProgram::swap(0, 1, 2), &mut regs, &mut dram).unwrap();
        assert_eq!(report.copies, 3);
        assert!(report.cycles > 0);
        assert_eq!(dram.read_row(a).unwrap(), vec![0xBB; 64]);
        assert_eq!(dram.read_row(b).unwrap(), vec![0xAA; 64]);
    }

    #[test]
    fn unbound_reg_detected() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut regs = RegFile::new();
        let err = MicroExecutor::new()
            .run(&MicroProgram::swap(0, 1, 2), &mut regs, &mut dram)
            .unwrap_err();
        assert_eq!(err, IsaError::UnboundReg(0));
    }

    #[test]
    fn bnez_loops_and_decrements() {
        // Loop: copy a->b, bnez r3 back to 0, done. Counter 2 => 3 copies.
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut regs = RegFile::new();
        regs.bind_row(0, RowAddr::new(0, 0, 1));
        regs.bind_row(1, RowAddr::new(0, 0, 2));
        regs.set_counter(3, 2);
        let mut prog = MicroProgram::new();
        prog.push(Instruction::Copy { dst: 1, src: 0 });
        prog.push(Instruction::Bnez { reg: 3, target: 0 });
        prog.push(Instruction::Done);
        let report = MicroExecutor::new().run(&prog, &mut regs, &mut dram).unwrap();
        assert_eq!(report.copies, 3);
        assert_eq!(regs.counter(3), 0);
    }

    #[test]
    fn missing_done_detected() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut regs = RegFile::new();
        regs.bind_row(0, RowAddr::new(0, 0, 1));
        regs.bind_row(1, RowAddr::new(0, 0, 2));
        let mut prog = MicroProgram::new();
        prog.push(Instruction::Copy { dst: 1, src: 0 });
        let err = MicroExecutor::new().run(&prog, &mut regs, &mut dram).unwrap_err();
        assert_eq!(err, IsaError::MissingDone);
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut regs = RegFile::new();
        regs.set_counter(0, u64::MAX);
        let mut prog = MicroProgram::new();
        prog.push(Instruction::Bnez { reg: 0, target: 0 });
        prog.push(Instruction::Done);
        let executor = MicroExecutor { step_limit: 100, ..MicroExecutor::new() };
        assert_eq!(
            executor.run(&prog, &mut regs, &mut dram).unwrap_err(),
            IsaError::StepLimit(100)
        );
    }

    #[test]
    fn assembly_roundtrip() {
        let prog = MicroProgram::swap(5, 6, 7);
        let words = prog.assemble();
        assert_eq!(words.len(), 4);
        assert_eq!(MicroProgram::disassemble(&words).unwrap(), prog);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Instruction::Copy { dst: 1, src: 2 }.to_string(), "AAP r1, r2");
        assert_eq!(Instruction::Bnez { reg: 3, target: 0 }.to_string(), "bnez r3, 0");
        assert_eq!(Instruction::Done.to_string(), "done");
    }

    /// The dense decode table reproduces the legacy match decoder
    /// word-for-word over the entire 16-bit space, including the exact
    /// `BadOpcode`/`BadEncoding` faults.
    #[test]
    fn table_decoder_matches_reference_exhaustively() {
        for word in 0..=u16::MAX {
            let legacy = Instruction::decode_reference(word);
            assert_eq!(Instruction::decode(word), legacy, "word {word:#06x}");
            assert_eq!(Instruction::word_is_canonical(word), legacy.is_ok(), "word {word:#06x}");
            // The bulk decoder agrees on the word in isolation too.
            match CompiledProgram::from_words(&[word]) {
                Ok(compiled) => {
                    assert_eq!(compiled.ops()[0].instruction(), legacy.unwrap());
                }
                Err(err) => assert_eq!(Err(err), legacy),
            }
        }
    }

    /// Encode→decode round-trips over every expressible instruction.
    #[test]
    fn encode_decode_roundtrip_exhaustive() {
        let mut all = vec![Instruction::Done];
        for hi in 0..=0x7Fu8 {
            for lo in 0..=0x7Fu8 {
                all.push(Instruction::Copy { dst: hi, src: lo });
                all.push(Instruction::Bnez { reg: hi, target: lo });
            }
        }
        for instruction in all {
            let word = instruction.encode();
            assert_eq!(Instruction::decode(word), Ok(instruction));
            assert_eq!(Instruction::decode_reference(word), Ok(instruction));
            assert_eq!(PackedOp::from_word(word).instruction(), instruction);
        }
    }

    /// Bulk decode reports the first faulting word, exactly like the
    /// per-word disassembler.
    #[test]
    fn compiled_from_words_reports_first_fault() {
        let words = [Instruction::Done.encode(), 0x0000, (0b11 << 14) | 1];
        assert_eq!(CompiledProgram::from_words(&words), Err(IsaError::BadOpcode(0)));
        let words = [(0b11 << 14) | 1, 0x0000];
        assert_eq!(
            CompiledProgram::from_words(&words),
            Err(IsaError::BadEncoding((0b11 << 14) | 1))
        );
        assert_eq!(
            MicroProgram::disassemble(&words).unwrap_err(),
            IsaError::BadEncoding((0b11 << 14) | 1)
        );
    }

    /// compile→decompile is the identity, and `from_words` agrees with
    /// compiling the disassembled program.
    #[test]
    fn compile_roundtrip() {
        let prog = MicroProgram::swap(5, 6, 7);
        let compiled = prog.compile();
        assert_eq!(compiled.len(), prog.len());
        assert_eq!(compiled.decompile(), prog);
        assert_eq!(CompiledProgram::from_words(&prog.assemble()).unwrap(), compiled);
    }

    /// The pre-decoded path executes bit-identically to the
    /// instruction-level path: same DRAM state, report and errors.
    #[test]
    fn run_compiled_matches_run() {
        let config = DramConfig::tiny_for_tests();
        let build = || {
            let mut dram = DramDevice::new(config);
            let a = RowAddr::new(0, 0, 1);
            let b = RowAddr::new(0, 0, 2);
            dram.write_row(a, &[0xAA; 64]).unwrap();
            dram.write_row(b, &[0xBB; 64]).unwrap();
            let mut regs = RegFile::new();
            regs.bind_row(0, a);
            regs.bind_row(1, b);
            regs.bind_row(2, RowAddr::new(0, 0, 63));
            regs.set_counter(3, 2);
            (dram, regs)
        };
        let mut prog = MicroProgram::swap(0, 1, 2);
        let mut looped = MicroProgram::new();
        looped.push(Instruction::Copy { dst: 1, src: 0 });
        looped.push(Instruction::Bnez { reg: 3, target: 0 });
        looped.push(Instruction::Done);
        for program in [&mut prog, &mut looped] {
            let executor = MicroExecutor::new();
            let (mut dram_a, mut regs_a) = build();
            let (mut dram_b, mut regs_b) = build();
            let via_run = executor.run(program, &mut regs_a, &mut dram_a).unwrap();
            let via_compiled =
                executor.run_compiled(&program.compile(), &mut regs_b, &mut dram_b).unwrap();
            assert_eq!(via_run, via_compiled);
            assert_eq!(dram_a.stats(), dram_b.stats());
            for row in 1..4 {
                let addr = RowAddr::new(0, 0, row);
                assert_eq!(dram_a.read_row(addr).unwrap(), dram_b.read_row(addr).unwrap());
            }
        }
    }

    /// Replaying the same word stream decodes once and hits the cache
    /// afterwards.
    #[test]
    fn run_words_caches_decoded_programs() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut regs = RegFile::new();
        regs.bind_row(0, RowAddr::new(0, 0, 1));
        regs.bind_row(1, RowAddr::new(0, 0, 2));
        regs.bind_row(2, RowAddr::new(0, 0, 63));
        let words = MicroProgram::swap(0, 1, 2).assemble();
        let mut executor = MicroExecutor::new();
        for _ in 0..5 {
            executor.run_words(&words, &mut regs, &mut dram).unwrap();
        }
        assert_eq!(executor.cache().misses(), 1, "decoded exactly once");
        assert_eq!(executor.cache().hits(), 4);
        assert_eq!(executor.cache().len(), 1);
        // A faulting stream is never cached.
        assert!(executor.run_words(&[0x0000], &mut regs, &mut dram).is_err());
        assert!(executor.run_words(&[0x0000], &mut regs, &mut dram).is_err());
        assert_eq!(executor.cache().len(), 1);
    }
}

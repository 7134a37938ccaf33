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
//! The [`MicroExecutor`] interprets a [`MicroProgram`] against a
//! [`DramDevice`], issuing one RowClone AAP per copy instruction. It is
//! the reference semantics of the program
//! [`SwapEngine`](crate::SwapEngine) reports: the engine issues the
//! SWAP's three copies itself (to inject per-copy errors), and a test
//! pins it against running [`MicroProgram::swap`] here.

use std::error::Error;
use std::fmt;

use dlk_dram::{DramDevice, DramError, RowAddr};

/// Number of addressable µRegs (7-bit names).
pub const NUM_UREGS: usize = 128;

/// A decoded DRAM-Locker instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// Decodes a 16-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadOpcode`] for the reserved opcode `00` and
    /// [`IsaError::BadEncoding`] for malformed `done` words.
    pub fn decode(word: u16) -> Result<Self, IsaError> {
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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
}

/// Executes micro-programs against a DRAM device.
#[derive(Debug, Clone)]
pub struct MicroExecutor {
    /// Maximum µOps executed before aborting (runaway-loop guard).
    pub step_limit: usize,
}

impl Default for MicroExecutor {
    fn default() -> Self {
        Self { step_limit: 4096 }
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
        let begin_cycles = dram.now();
        let mut pc = 0usize;
        let mut report = ExecReport::default();
        loop {
            if report.steps >= self.step_limit {
                return Err(IsaError::StepLimit(self.step_limit));
            }
            let Some(&instruction) = program.instructions().get(pc) else {
                return Err(IsaError::MissingDone);
            };
            report.steps += 1;
            match instruction {
                Instruction::Copy { dst, src } => {
                    let src_row = regs.row(src).ok_or(IsaError::UnboundReg(src))?;
                    let dst_row = regs.row(dst).ok_or(IsaError::UnboundReg(dst))?;
                    dram.row_clone(src_row, dst_row)?;
                    report.copies += 1;
                    pc += 1;
                }
                Instruction::Bnez { reg, target } => {
                    let value = regs.counter(reg);
                    if value != 0 {
                        regs.set_counter(reg, value - 1);
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instruction::Done => {
                    report.cycles = dram.now() - begin_cycles;
                    return Ok(report);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

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
        let executor = MicroExecutor { step_limit: 100 };
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
    fn disassemble_reports_the_first_fault() {
        let malformed_done = (0b11 << 14) | 1;
        let words = [Instruction::Done.encode(), 0x0000, malformed_done];
        assert_eq!(MicroProgram::disassemble(&words), Err(IsaError::BadOpcode(0)));
        let words = [malformed_done, 0x0000];
        assert_eq!(MicroProgram::disassemble(&words), Err(IsaError::BadEncoding(malformed_done)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Instruction::Copy { dst: 1, src: 2 }.to_string(), "AAP r1, r2");
        assert_eq!(Instruction::Bnez { reg: 3, target: 0 }.to_string(), "bnez r3, 0");
        assert_eq!(Instruction::Done.to_string(), "done");
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
        }
    }
}

//! Request traces: generation and the trace-file codec.
//!
//! Traces model the workloads that drive the evaluation — a victim's
//! DNN weight reads, background traffic, and attacker hammer loops. A
//! hammer loop alternates between two rows of the same bank so every
//! access conflicts in the row buffer and forces an ACT, the classic
//! double-sided-free hammer pattern.

use std::fmt;
use std::sync::Arc;

use crate::error::MemCtrlError;
use crate::request::{MemRequest, RequestKind};

/// One operation in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Read `len` bytes at `addr`.
    Read {
        /// Physical byte address.
        addr: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Write `payload` at `addr`.
    Write {
        /// Physical byte address.
        addr: u64,
        /// Bytes to write.
        payload: Vec<u8>,
    },
}

impl TraceOp {
    /// The physical byte address the op names.
    pub fn addr(&self) -> u64 {
        match *self {
            TraceOp::Read { addr, .. } | TraceOp::Write { addr, .. } => addr,
        }
    }

    /// The request this op issues at `addr` — its own address, or the
    /// shard-local one a router translated it to — marked
    /// attacker-issued when `untrusted`.
    pub fn request(&self, addr: u64, untrusted: bool) -> MemRequest {
        self.borrowed().request(addr, untrusted)
    }

    /// Appends the op's trace-file record, without a line break:
    /// `R <addr> <len>` or `W <addr> <payload>`, the address in `0x`
    /// hex, the length in decimal and the payload as two lowercase hex
    /// digits per byte (`-` when empty, so the record keeps three
    /// fields). [`Trace::to_text`] writes one per line, and so does a
    /// spec file's `op` record. The record is built in one small
    /// buffer and appended at once (a long payload in a few pieces).
    pub fn write_record(&self, out: &mut String) {
        self.borrowed().write_record(out);
    }

    /// Parses one record in the form [`write_record`](Self::write_record)
    /// writes. Either number may be decimal or `0x` hex (the one
    /// grammar of [`parse_u64`]), the payload's hex digits uppercase,
    /// and fields may be split by any whitespace, as
    /// [`str::split_whitespace`] splits them. One pass over the bytes:
    /// each field is decoded as it is read.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the record.
    pub fn parse_record(record: &str) -> Result<Self, String> {
        let mut payload = Vec::new();
        let Fields { addr, len, payload_at } = read_record(record, &mut payload)?;
        Ok(match payload_at {
            None => TraceOp::Read { addr, len },
            Some(_) => TraceOp::Write { addr, payload },
        })
    }

    /// The op with its payload borrowed.
    fn borrowed(&self) -> OpRef<'_> {
        match self {
            TraceOp::Read { addr, len } => OpRef::Read { addr: *addr, len: *len },
            TraceOp::Write { addr, payload } => OpRef::Write { addr: *addr, payload },
        }
    }
}

/// An op with its payload borrowed, as a trace hands its ops to the
/// record writer and the request builder: no heap block per op.
#[derive(Clone, Copy)]
enum OpRef<'a> {
    Read { addr: u64, len: usize },
    Write { addr: u64, payload: &'a [u8] },
}

impl OpRef<'_> {
    fn to_op(self) -> TraceOp {
        match self {
            OpRef::Read { addr, len } => TraceOp::Read { addr, len },
            OpRef::Write { addr, payload } => TraceOp::Write { addr, payload: payload.to_vec() },
        }
    }

    /// [`TraceOp::request`].
    #[inline]
    fn request(self, addr: u64, untrusted: bool) -> MemRequest {
        let (kind, len, payload) = match self {
            OpRef::Read { len, .. } => (RequestKind::Read, len, Vec::new()),
            OpRef::Write { payload, .. } => (RequestKind::Write, payload.len(), payload.to_vec()),
        };
        MemRequest { kind, addr, len, payload, untrusted }
    }

    /// [`TraceOp::write_record`].
    fn write_record(self, out: &mut String) {
        let mut buf = [0u8; 64];
        let (kind, addr) = match self {
            OpRef::Read { addr, .. } => (b'R', addr),
            OpRef::Write { addr, .. } => (b'W', addr),
        };
        buf[..4].copy_from_slice(&[kind, b' ', b'0', b'x']);
        let mut end = 4 + put_hex(&mut buf[4..], addr);
        buf[end] = b' ';
        end += 1;
        match self {
            OpRef::Read { len, .. } => end += put_decimal(&mut buf[end..], len as u64),
            OpRef::Write { payload, .. } => {
                if payload.is_empty() {
                    buf[end] = b'-';
                    end += 1;
                }
                for &byte in payload {
                    if end + 2 > buf.len() {
                        push_ascii(out, &buf[..end]);
                        end = 0;
                    }
                    buf[end] = HEX_DIGITS[usize::from(byte >> 4)];
                    buf[end + 1] = HEX_DIGITS[usize::from(byte & 0xf)];
                    end += 2;
                }
            }
        }
        push_ascii(out, &buf[..end]);
    }
}

/// An op as a trace lays it out: a write's payload is the `len` bytes
/// of the payload buffer from `payload_at`; a read has none.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Fields {
    addr: u64,
    len: usize,
    payload_at: Option<usize>,
}

/// One op in 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Record {
    /// The op's address; in a [`WIDE`] record, the op's index in
    /// [`Store::wide`].
    addr: u64,
    /// A read's length or a write's payload length.
    len: u32,
    /// Where a write's payload starts in [`Store::payloads`], or
    /// [`READ`] or [`WIDE`].
    at: u32,
}

/// [`Record::at`] of a read.
const READ: u32 = u32::MAX;
/// [`Record::at`] of an op whose length or payload offset does not fit
/// a record.
const WIDE: u32 = u32::MAX - 1;

/// A trace's ops: a [`Record`] each, every write's payload in one
/// buffer in op order, and the rare op whose length or payload offset
/// passes 32 bits whole in `wide`. Ops are only ever appended, through
/// [`Store::push_fields`], so one sequence of ops has one layout and
/// the derived equality is the ops' equality.
#[derive(Clone, Default, PartialEq, Eq)]
struct Store {
    records: Vec<Record>,
    payloads: Vec<u8>,
    wide: Vec<Fields>,
}

impl Store {
    #[inline]
    fn addr(&self, record: Record) -> u64 {
        match record.at {
            WIDE => self.wide[record.addr as usize].addr,
            _ => record.addr,
        }
    }

    #[inline]
    fn get(&self, record: Record) -> OpRef<'_> {
        let Fields { addr, len, payload_at } = match record.at {
            READ => Fields { addr: record.addr, len: record.len as usize, payload_at: None },
            WIDE => self.wide[record.addr as usize],
            at => Fields {
                addr: record.addr,
                len: record.len as usize,
                payload_at: Some(at as usize),
            },
        };
        match payload_at {
            None => OpRef::Read { addr, len },
            Some(at) => OpRef::Write { addr, payload: &self.payloads[at..at + len] },
        }
    }

    fn push(&mut self, op: OpRef<'_>) {
        let fields = match op {
            OpRef::Read { addr, len } => Fields { addr, len, payload_at: None },
            OpRef::Write { addr, payload } => {
                let at = self.payloads.len();
                self.payloads.extend_from_slice(payload);
                Fields { addr, len: payload.len(), payload_at: Some(at) }
            }
        };
        self.push_fields(fields);
    }

    /// Appends an op whose payload, if any, already ends the buffer.
    fn push_fields(&mut self, fields: Fields) {
        let at = match fields.payload_at {
            None => Some(READ),
            Some(at) => u32::try_from(at).ok().filter(|&at| at < WIDE),
        };
        let record = match (u32::try_from(fields.len), at) {
            (Ok(len), Some(at)) => Record { addr: fields.addr, len, at },
            _ => {
                self.wide.push(fields);
                Record { addr: self.wide.len() as u64 - 1, len: 0, at: WIDE }
            }
        };
        self.records.push(record);
    }

    /// Parses one record ([`TraceOp::parse_record`]) onto the end.
    fn push_record(&mut self, record: &str) -> Result<(), String> {
        let fields = read_record(record, &mut self.payloads)?;
        self.push_fields(fields);
        Ok(())
    }
}

/// A sequence of memory operations.
///
/// The ops sit behind an [`Arc`]: a clone shares them, and
/// [`push`](Trace::push) or [`extend`](Extend::extend) on a shared
/// trace first copies them out for the trace being changed. Each op is
/// held as one 16-byte record and every write's payload in one byte
/// buffer per trace, so a read takes 16 bytes and an 8-byte write 24,
/// with no heap block per op. [`ops`](Trace::ops) reads them back as
/// [`TraceOp`] values.
///
/// # Example
///
/// ```
/// use dlk_memctrl::Trace;
/// let trace = Trace::sequential_reads(0, 8, 4, 16);
/// assert_eq!(trace.len(), 16);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Arc<Store>,
    /// Whether replayed requests are marked attacker-issued.
    pub untrusted: bool,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.records.is_empty()
    }

    /// The operations.
    pub fn ops(&self) -> Ops<'_> {
        Ops { store: &self.ops }
    }

    /// Whether `self` and `other` share one copy of their ops, as clones
    /// do until one is changed.
    pub fn shares_ops(&self, other: &Trace) -> bool {
        Arc::ptr_eq(&self.ops, &other.ops)
    }

    /// Appends an operation.
    pub fn push(&mut self, op: TraceOp) {
        Arc::make_mut(&mut self.ops).push(op.borrowed());
    }

    /// Parses one trace-file record ([`TraceOp::parse_record`]) and
    /// appends its op, its payload decoded straight into the trace.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the record, and leaves the trace as
    /// it was.
    pub fn push_record(&mut self, record: &str) -> Result<(), String> {
        Arc::make_mut(&mut self.ops).push_record(record)
    }

    /// `count` reads of `len` bytes each, starting at `base`, advancing
    /// by `stride` bytes.
    pub fn sequential_reads(base: u64, stride: u64, len: usize, count: usize) -> Self {
        (0..count).map(|i| TraceOp::Read { addr: base + i as u64 * stride, len }).collect()
    }

    /// A hammer loop: `iterations` alternating 1-byte reads of two
    /// addresses (put them in the same bank, different rows, to force a
    /// row-buffer conflict and thus an ACT per access).
    pub fn hammer_pair(addr_a: u64, addr_b: u64, iterations: usize) -> Self {
        let mut trace: Self = (0..iterations)
            .flat_map(|_| [addr_a, addr_b])
            .map(|addr| TraceOp::Read { addr, len: 1 })
            .collect();
        trace.untrusted = true;
        trace
    }

    /// The requests this trace issues, in order, with the trace's trust
    /// level applied.
    pub fn requests(&self) -> impl Iterator<Item = MemRequest> + '_ {
        self.routed_requests(Some)
    }

    /// The requests of the ops that `route` keeps, in order, each at the
    /// address `route` gives its op's address (a shard serving only the
    /// ops homed on it, at their shard-local addresses), with the
    /// trace's trust level applied. An op `route` drops is never built
    /// into a request.
    pub fn routed_requests<'a>(
        &'a self,
        route: impl FnMut(u64) -> Option<u64> + 'a,
    ) -> impl Iterator<Item = MemRequest> + 'a {
        RoutedRequests {
            ops: &self.ops,
            records: self.ops.records.iter(),
            route,
            untrusted: self.untrusted,
        }
    }

    /// This trace with each op's address mapped through `to`, in op
    /// order, stopping at its first error. The payloads are copied in
    /// one piece.
    ///
    /// # Errors
    ///
    /// Returns `to`'s first error.
    pub fn try_map_addrs<E>(&self, mut to: impl FnMut(u64) -> Result<u64, E>) -> Result<Self, E> {
        let mut ops = Store::clone(&self.ops);
        let Store { records, wide, .. } = &mut ops;
        for record in records {
            let addr = match record.at {
                WIDE => &mut wide[record.addr as usize].addr,
                _ => &mut record.addr,
            };
            *addr = to(*addr)?;
        }
        Ok(Self { ops: Arc::new(ops), untrusted: self.untrusted })
    }

    /// Appends one line per op: `prefix`, the op's record
    /// ([`TraceOp::write_record`]) and a line break. With no prefix
    /// that is a trace file's body; with `"op "`, a spec's `op` lines.
    pub fn write_records(&self, out: &mut String, prefix: &str) {
        for &record in &self.ops.records {
            out.push_str(prefix);
            self.ops.get(record).write_record(out);
            out.push('\n');
        }
    }

    /// Serializes the trace to the workspace's line-based trace-file
    /// format (this codec *is* the on-disk representation recorded
    /// traces replay from):
    ///
    /// ```text
    /// # dlk-trace v1 untrusted=1
    /// R 0x1000 4
    /// W 0x2040 0a0bff
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!("# dlk-trace v1 untrusted={}\n", u8::from(self.untrusted));
        self.write_records(&mut out, "");
        out
    }

    /// Parses a trace from the format produced by [`Trace::to_text`].
    /// Blank lines and `#` comments are skipped (the header comment is
    /// recognized for the `untrusted` flag); every other line is one
    /// [`TraceOp::parse_record`] record.
    ///
    /// # Errors
    ///
    /// Returns [`MemCtrlError::TraceParse`] with the offending line.
    pub fn from_text(text: &str) -> Result<Self, MemCtrlError> {
        let mut ops = Store::default();
        let mut untrusted = false;
        for (index, raw) in text.lines().enumerate() {
            let record = raw.trim();
            if record.is_empty() {
                continue;
            }
            if let Some(comment) = record.strip_prefix('#') {
                // Only the codec's own header carries the trust flag;
                // free-form comments are never interpreted.
                let mut header = comment.split_whitespace();
                if header.next() == Some("dlk-trace") && header.any(|field| field == "untrusted=1")
                {
                    untrusted = true;
                }
                continue;
            }
            ops.push_record(record)
                .map_err(|reason| MemCtrlError::TraceParse { line: index + 1, reason })?;
        }
        Ok(Self { ops: Arc::new(ops), untrusted })
    }

    /// Round-robin interleave of several tenants' traces into one
    /// stream, preserving each tenant's internal order — the
    /// multi-tenant workload the sharded engine replays. The result is
    /// untrusted iff any input is.
    pub fn interleave(tenants: &[Trace]) -> Self {
        let mut ops = Store::default();
        let total = tenants.iter().map(Trace::len).sum();
        ops.records.reserve(total);
        ops.payloads.reserve(tenants.iter().map(|tenant| tenant.ops.payloads.len()).sum());
        let mut cursor = 0;
        while ops.records.len() < total {
            for tenant in tenants {
                if let Some(&record) = tenant.ops.records.get(cursor) {
                    ops.push(tenant.ops.get(record));
                }
            }
            cursor += 1;
        }
        Self { ops: Arc::new(ops), untrusted: tenants.iter().any(|t| t.untrusted) }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("ops", &self.ops())
            .field("untrusted", &self.untrusted)
            .finish()
    }
}

/// A trace's operations, read as [`TraceOp`] values: [`Trace::ops`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Ops<'a> {
    store: &'a Store,
}

impl<'a> Ops<'a> {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.store.records.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.store.records.is_empty()
    }

    /// The operations in order.
    pub fn iter(&self) -> Iter<'a> {
        Iter { store: self.store, records: self.store.records.iter() }
    }

    /// The operations, collected.
    pub fn to_vec(&self) -> Vec<TraceOp> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Ops<'a> {
    type Item = TraceOp;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Ops<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An iterator over a trace's operations: [`Ops::iter`].
#[derive(Clone)]
pub struct Iter<'a> {
    store: &'a Store,
    records: std::slice::Iter<'a, Record>,
}

impl Iterator for Iter<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        self.records.next().map(|&record| self.store.get(record).to_op())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// [`Trace::routed_requests`]. `next` and the decoding it calls are
/// `#[inline]`, so a replay loop builds each request in place: behind a
/// call that returns the request by value, replay ran ~30% slower.
struct RoutedRequests<'a, F> {
    ops: &'a Store,
    records: std::slice::Iter<'a, Record>,
    route: F,
    untrusted: bool,
}

impl<F: FnMut(u64) -> Option<u64>> Iterator for RoutedRequests<'_, F> {
    type Item = MemRequest;

    #[inline]
    fn next(&mut self) -> Option<MemRequest> {
        for &record in self.records.by_ref() {
            if let Some(addr) = (self.route)(self.ops.addr(record)) {
                return Some(self.ops.get(record).request(addr, self.untrusted));
            }
        }
        None
    }
}

/// Reads one record in [`TraceOp::write_record`]'s form: the grammar of
/// [`TraceOp::parse_record`]. A write's payload is decoded onto the end
/// of `payloads`, where the returned fields place it; on an error
/// `payloads` is left as it was.
fn read_record(record: &str, payloads: &mut Vec<u8>) -> Result<Fields, String> {
    let mut fields = Cursor { text: record, at: 0 };
    if !fields.next_field() {
        return Err("empty record".to_owned());
    }
    let read = match fields.field() {
        "R" => true,
        "W" => false,
        kind => return Err(format!("unknown record kind '{kind}', expected R or W")),
    };
    if !fields.next_field() {
        return Err("missing address field".to_owned());
    }
    let addr = fields.number().ok_or("address is not a number")?;
    let start = payloads.len();
    let op = if read {
        if !fields.next_field() {
            return Err("missing read length".to_owned());
        }
        let len = fields
            .number()
            .and_then(|len| usize::try_from(len).ok())
            .ok_or("read length is not a number")?;
        Fields { addr, len, payload_at: None }
    } else {
        if !fields.next_field() {
            return Err("missing write payload".to_owned());
        }
        if !fields.payload(payloads) {
            return Err("payload is not even-length hex".to_owned());
        }
        Fields { addr, len: payloads.len() - start, payload_at: Some(start) }
    };
    if fields.next_field() {
        payloads.truncate(start);
        return Err("trailing fields".to_owned());
    }
    Ok(op)
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Writes `value` in lowercase hex, without leading zeros, at the start
/// of `buf`, taking each digit by shift. Returns the digit count.
fn put_hex(buf: &mut [u8], mut value: u64) -> usize {
    let digits = (64 - value.leading_zeros() as usize).div_ceil(4).max(1);
    for digit in buf[..digits].iter_mut().rev() {
        *digit = HEX_DIGITS[value as usize & 0xf];
        value >>= 4;
    }
    digits
}

/// Writes `value` in decimal, without leading zeros, at the start of
/// `buf`. Returns the digit count.
fn put_decimal(buf: &mut [u8], mut value: u64) -> usize {
    let digits = value.checked_ilog10().map_or(1, |log| log as usize + 1);
    for digit in buf[..digits].iter_mut().rev() {
        *digit = b'0' + (value % 10) as u8;
        value /= 10;
    }
    digits
}

/// Appends `bytes`, which the record writer fills with ASCII only.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    // ASCII is UTF-8, so no byte is ever left out.
    if let Ok(ascii) = std::str::from_utf8(bytes) {
        out.push_str(ascii);
    }
}

/// A position in a record, read left to right. Fields end at
/// whitespace as [`str::split_whitespace`] sees it: an ASCII byte is
/// judged by itself, any other character by decoding it.
struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Skips whitespace. Whether a field follows.
    fn next_field(&mut self) -> bool {
        while let Some(&byte) = self.text.as_bytes().get(self.at) {
            if !self.ends_at(self.at) {
                return true;
            }
            self.at += if byte.is_ascii() { 1 } else { self.char_len() };
        }
        false
    }

    /// Whether a field ends at byte `at`: the record's end or
    /// whitespace (in ASCII, vertical tab too, as
    /// [`char::is_whitespace`] has it).
    fn ends_at(&self, at: usize) -> bool {
        match self.text.as_bytes().get(at) {
            None => true,
            Some(&byte) if byte.is_ascii() => matches!(byte, b'\t'..=b'\r' | b' '),
            Some(_) => self.text[at..].starts_with(char::is_whitespace),
        }
    }

    /// The UTF-8 length of the character at the cursor.
    fn char_len(&self) -> usize {
        self.text[self.at..].chars().next().map_or(1, char::len_utf8)
    }

    /// The rest of the field at the cursor, whatever it holds.
    fn field(&mut self) -> &'a str {
        let start = self.at;
        while !self.ends_at(self.at) {
            self.at += self.char_len();
        }
        &self.text[start..self.at]
    }

    /// The field at the cursor as a number in [`parse_u64`]'s grammar.
    fn number(&mut self) -> Option<u64> {
        let (value, len) = leading_u64(&self.text.as_bytes()[self.at..])?;
        self.ends_at(self.at + len).then(|| {
            self.at += len;
            value
        })
    }

    /// Decodes the field at the cursor as a write payload onto the end
    /// of `payload`: `-` for none, or two hex digits (either case) per
    /// byte. Whether it is one; when not, `payload` is left as it was.
    fn payload(&mut self, payload: &mut Vec<u8>) -> bool {
        let bytes = &self.text.as_bytes()[self.at..];
        if bytes.first() == Some(&b'-') && self.ends_at(self.at + 1) {
            self.at += 1;
            return true;
        }
        // The payload is a record's last field, so the rest of the
        // record bounds its length.
        let start = payload.len();
        payload.reserve(bytes.len() / 2);
        let mut len = 0;
        while let [hi, lo, ..] = bytes[len..] {
            let (hi, lo) = (nibble(hi), nibble(lo));
            if (hi | lo) > 0xf {
                break;
            }
            payload.push(hi << 4 | lo);
            len += 2;
        }
        // An odd digit or a non-hex byte leaves the field unfinished.
        if len > 0 && self.ends_at(self.at + len) {
            self.at += len;
            true
        } else {
            payload.truncate(start);
            false
        }
    }
}

/// Parses a number in the one grammar of trace records and spec files:
/// decimal digits, or `0x` followed by hex digits (either case), and
/// nothing else — no sign, no `0X`, no whitespace. `None` when `field`
/// is not in that form or overflows a `u64`.
pub fn parse_u64(field: &str) -> Option<u64> {
    leading_u64(field.as_bytes()).and_then(|(value, len)| (len == field.len()).then_some(value))
}

/// The number in [`parse_u64`]'s grammar that `bytes` start with, and
/// its length: one pass, each digit checked and added at once. `None`
/// when there is no digit or the number overflows a `u64`.
fn leading_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    let (digits, prefix, radix) = match bytes {
        [b'0', b'x', hex @ ..] => (hex, 2, 16),
        _ => (bytes, 0, 10),
    };
    let mut value = 0u64;
    let mut len = 0;
    for &byte in digits {
        let digit = if radix == 16 { nibble(byte) } else { byte.wrapping_sub(b'0') };
        if u64::from(digit) >= radix {
            break;
        }
        value = value.checked_mul(radix)?.checked_add(u64::from(digit))?;
        len += 1;
    }
    (len > 0).then_some((value, prefix + len))
}

/// Each byte's value as a hex digit (either case), or 16 when it is
/// not one: a table, since random digits defeat branch prediction.
const NIBBLES: [u8; 256] = {
    let mut table = [16u8; 256];
    let mut digit = 0;
    while digit < 16 {
        let lower = HEX_DIGITS[digit];
        table[lower as usize] = digit as u8;
        table[lower.to_ascii_uppercase() as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// The value of hex digit `byte` (either case); 16 when `byte` is not
/// one.
fn nibble(byte: u8) -> u8 {
    NIBBLES[usize::from(byte)]
}

impl Extend<TraceOp> for Trace {
    fn extend<T: IntoIterator<Item = TraceOp>>(&mut self, iter: T) {
        let ops = Arc::make_mut(&mut self.ops);
        let iter = iter.into_iter();
        ops.records.reserve(iter.size_hint().0);
        for op in iter {
            ops.push(op.borrowed());
        }
    }
}

/// A trusted trace of the collected ops.
impl FromIterator<TraceOp> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceOp>>(iter: T) -> Self {
        let mut trace = Self::new();
        trace.extend(iter);
        trace
    }
}

/// A trusted trace of `ops`.
impl From<Vec<TraceOp>> for Trace {
    fn from(ops: Vec<TraceOp>) -> Self {
        ops.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::controller::{CompletedRequest, MemCtrlConfig, MemoryController};

    #[test]
    fn sequential_reads_layout() {
        let trace = Trace::sequential_reads(100, 10, 2, 3);
        assert_eq!(
            trace.ops().to_vec(),
            [
                TraceOp::Read { addr: 100, len: 2 },
                TraceOp::Read { addr: 110, len: 2 },
                TraceOp::Read { addr: 120, len: 2 },
            ]
        );
    }

    /// Serves every request of `trace` on `ctrl`, in order.
    fn serve_all(ctrl: &mut MemoryController, trace: &Trace) -> Vec<CompletedRequest> {
        trace.requests().map(|request| ctrl.service(request).unwrap()).collect()
    }

    #[test]
    fn hammer_pair_forces_activations() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes as u64;
        // Two rows in the same bank/subarray (bank-sequential mapping).
        let trace = Trace::hammer_pair(10 * row_bytes, 12 * row_bytes, 50);
        let done = serve_all(&mut ctrl, &trace);
        assert_eq!(done.len(), 100);
        // Every access after the first misses the row buffer.
        assert_eq!(ctrl.dram().stats().row_buffer_misses, 100);
        assert!(trace.requests().all(|request| request.untrusted));
    }

    #[test]
    fn requests_roundtrip_data() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let mut trace = Trace::new();
        trace.push(TraceOp::Write { addr: 5, payload: vec![1, 2] });
        trace.push(TraceOp::Read { addr: 5, len: 2 });
        let done = serve_all(&mut ctrl, &trace);
        assert_eq!(done[1].data.as_deref(), Some(&[1u8, 2][..]));
    }

    #[test]
    fn requests_carry_each_ops_fields() {
        let mut trace = Trace::sequential_reads(0, 8, 4, 3);
        trace.push(TraceOp::Write { addr: 0x80, payload: vec![7, 8] });
        let requests: Vec<MemRequest> = trace.requests().collect();
        assert_eq!(requests.len(), 4);
        let write = &requests[3];
        assert_eq!(
            (write.kind, write.addr, write.len, write.untrusted),
            (RequestKind::Write, 0x80, 2, false)
        );
        assert_eq!(write.payload, vec![7, 8]);
        let moved = trace.ops().to_vec()[3].request(0x10, true);
        assert_eq!((moved.addr, moved.untrusted), (0x10, true));
    }

    #[test]
    fn collect_from_iterator() {
        let trace: Trace = (0..4).map(|i| TraceOp::Read { addr: i * 8, len: 1 }).collect();
        assert_eq!(trace.len(), 4);
        assert!(!trace.untrusted);
    }

    #[test]
    fn text_codec_roundtrips() {
        let mut trace = Trace::hammer_pair(0x100, 0x300, 2);
        let mut ops = trace.ops().to_vec();
        ops.extend(wide_and_long_ops());
        for op in &ops[trace.len()..] {
            trace.push(op.clone());
        }
        assert_eq!(trace.ops().to_vec(), ops);
        let text = trace.to_text();
        assert!(text.starts_with("# dlk-trace v1 untrusted=1\n"));
        assert!(text.contains("W 0x5 0aff00"));
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_text(), text);
        let mut copy = parsed.clone();
        copy.push(TraceOp::Write { addr: 1, payload: vec![2] });
        assert_eq!(parsed.ops().to_vec(), ops);
        assert_eq!(copy.ops().to_vec()[..ops.len()], ops);
        assert_eq!(copy.ops().iter().last(), Some(TraceOp::Write { addr: 1, payload: vec![2] }));
    }

    /// Ops at the edges of a record: lengths past 32 bits, a payload
    /// past 64 KiB and the ops after it, the highest address.
    fn wide_and_long_ops() -> Vec<TraceOp> {
        let long: Vec<u8> = (0..70_000u32).map(|i| (i * 7) as u8).collect();
        vec![
            TraceOp::Write { addr: 5, payload: vec![0x0A, 0xFF, 0x00] },
            TraceOp::Read { addr: u64::MAX, len: u32::MAX as usize + 1 },
            TraceOp::Read { addr: 0x40, len: u32::MAX as usize },
            TraceOp::Write { addr: u64::MAX, payload: long },
            TraceOp::Read { addr: u64::MAX, len: usize::MAX },
            TraceOp::Write { addr: 0x80, payload: vec![0x5a; 8] },
            TraceOp::Write { addr: 0, payload: Vec::new() },
        ]
    }

    #[test]
    fn try_map_addrs_maps_every_op_in_order() {
        let trace = Trace::from(wide_and_long_ops());
        let mut seen = Vec::new();
        let mapped = trace
            .try_map_addrs(|addr| {
                seen.push(addr);
                Ok::<_, ()>(!addr)
            })
            .unwrap();
        let ops = trace.ops().to_vec();
        assert_eq!(seen, ops.iter().map(TraceOp::addr).collect::<Vec<_>>());
        for (mapped, op) in mapped.ops().iter().zip(ops) {
            let expected = match op {
                TraceOp::Read { addr, len } => TraceOp::Read { addr: !addr, len },
                TraceOp::Write { addr, payload } => TraceOp::Write { addr: !addr, payload },
            };
            assert_eq!(mapped, expected);
        }
        let mut calls = 0;
        let failed = trace.try_map_addrs(|addr| {
            calls += 1;
            if calls == 3 {
                Err(addr)
            } else {
                Ok(addr)
            }
        });
        assert_eq!(failed, Err(0x40));
    }

    /// perfbench `replay`'s mix: 60k ops, a quarter of them 8-byte
    /// writes, held in 16 bytes per op plus 8 per write.
    #[test]
    fn a_replay_mix_takes_16_bytes_per_op_and_8_per_write() {
        let trace: Trace = (0..60_000u64)
            .map(|i| match i % 4 {
                2 => TraceOp::Write { addr: i * 8, payload: i.to_le_bytes().to_vec() },
                _ => TraceOp::Read { addr: i * 8, len: 8 },
            })
            .collect();
        let Store { records, payloads, wide } = &*trace.ops;
        assert_eq!(std::mem::size_of::<Record>(), 16);
        assert_eq!(std::mem::size_of_val(records.as_slice()), 60_000 * 16);
        assert_eq!(payloads.len(), 15_000 * 8);
        assert!(wide.is_empty());
    }

    #[test]
    fn text_codec_accepts_decimal_and_comments() {
        let parsed = Trace::from_text("# recorded on machine X\n\nR 256 4\nW 0x10 abcd\n").unwrap();
        assert_eq!(
            parsed.ops().to_vec(),
            [
                TraceOp::Read { addr: 256, len: 4 },
                TraceOp::Write { addr: 0x10, payload: vec![0xAB, 0xCD] },
            ]
        );
        assert!(!parsed.untrusted);
    }

    #[test]
    fn text_codec_reports_the_offending_line() {
        let err = Trace::from_text("R 0x0 1\nX 0x0 1\n").unwrap_err();
        assert!(matches!(err, MemCtrlError::TraceParse { line: 2, .. }), "{err:?}");
        let err = Trace::from_text("W 0x0 abc\n").unwrap_err();
        assert!(matches!(err, MemCtrlError::TraceParse { line: 1, .. }), "{err:?}");
        assert!(Trace::from_text("R 0x0 1 extra\n").is_err());
    }

    #[test]
    fn empty_text_parses_to_empty_trace() {
        let trace = Trace::from_text("").unwrap();
        assert!(trace.is_empty());
        assert_eq!(Trace::from_text(&trace.to_text()).unwrap(), trace);
    }

    #[test]
    fn empty_write_payload_roundtrips() {
        let mut trace = Trace::new();
        trace.push(TraceOp::Write { addr: 0x40, payload: Vec::new() });
        let text = trace.to_text();
        assert!(text.contains("W 0x40 -"));
        assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn multibyte_utf8_payload_is_an_error_not_a_panic() {
        let err = Trace::from_text("W 0x0 \u{20AC}a\n").unwrap_err();
        assert!(matches!(err, MemCtrlError::TraceParse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn only_the_codec_header_sets_the_trust_flag() {
        let text = "# note: untrusted=1 was NOT used for this capture\nR 0x0 1\n";
        assert!(!Trace::from_text(text).unwrap().untrusted);
        assert!(!Trace::from_text("# dlk-trace v1 untrusted=10\nR 0x0 1\n").unwrap().untrusted);
        assert!(Trace::from_text("# dlk-trace v1 untrusted=1\nR 0x0 1\n").unwrap().untrusted);
    }

    #[test]
    fn records_round_trip_one_op_at_a_time() {
        for op in [
            TraceOp::Read { addr: 0, len: 0 },
            TraceOp::Read { addr: u64::MAX, len: usize::MAX },
            TraceOp::Write { addr: 0x2040, payload: vec![0x00, 0x0a, 0xff] },
            TraceOp::Write { addr: 0x40, payload: Vec::new() },
        ] {
            let mut record = String::new();
            op.write_record(&mut record);
            assert_eq!(TraceOp::parse_record(&record), Ok(op), "{record}");
        }
        let mut record = String::new();
        TraceOp::Read { addr: 0xab, len: 12 }.write_record(&mut record);
        assert_eq!(record, "R 0xab 12");
        assert_eq!(
            TraceOp::parse_record("# dlk-trace v1 untrusted=1"),
            Err("unknown record kind '#', expected R or W".to_owned())
        );
        assert!(TraceOp::parse_record("").is_err());
    }

    #[test]
    fn numbers_are_decimal_or_0x_hex_only() {
        for (field, value) in [
            ("0", 0),
            ("007", 7),
            ("0x0", 0),
            ("0xff", 255),
            ("0xFF", 255),
            ("18446744073709551615", u64::MAX),
            ("0xffffffffffffffff", u64::MAX),
        ] {
            assert_eq!(parse_u64(field), Some(value), "{field}");
        }
        for field in [
            "",
            "+5",
            "-5",
            "0x",
            "0X5",
            "0x+10",
            "0x-1",
            " 5",
            "5 ",
            "5_000",
            "1e3",
            "0b101",
            "ff",
            "18446744073709551616",
            "0x10000000000000000",
        ] {
            assert_eq!(parse_u64(field), None, "{field:?}");
        }
        // The read length takes the same grammar as the address.
        assert_eq!(TraceOp::parse_record("R 0x10 0x20"), Ok(TraceOp::Read { addr: 16, len: 32 }));
    }

    /// The record reader this module had before the byte-level cursor:
    /// `split_whitespace` fields, a digit check before
    /// `from_str_radix`, and `to_digit` payload hex.
    fn split_whitespace_reference(record: &str) -> Result<TraceOp, String> {
        let number = |field: &str| {
            let (digits, radix) = match field.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (field, 10),
            };
            if !digits.bytes().all(|byte| char::from(byte).is_digit(radix)) {
                return None;
            }
            u64::from_str_radix(digits, radix).ok()
        };
        let hex = |hex: &str| {
            if hex == "-" {
                return Some(Vec::new());
            }
            let digit = |byte: u8| char::from(byte).to_digit(16).map(|d| d as u8);
            let mut payload = Vec::new();
            for pair in hex.as_bytes().chunks(2) {
                match *pair {
                    [hi, lo] => payload.push(digit(hi)? << 4 | digit(lo)?),
                    _ => return None,
                }
            }
            Some(payload)
        };
        let mut fields = record.split_whitespace();
        let kind = fields.next().ok_or("empty record")?;
        if kind != "R" && kind != "W" {
            return Err(format!("unknown record kind '{kind}', expected R or W"));
        }
        let addr = fields.next().ok_or("missing address field")?;
        let addr = number(addr).ok_or("address is not a number")?;
        let op = if kind == "R" {
            let len = fields.next().ok_or("missing read length")?;
            let len = number(len)
                .and_then(|len| usize::try_from(len).ok())
                .ok_or("read length is not a number")?;
            TraceOp::Read { addr, len }
        } else {
            let payload = fields.next().ok_or("missing write payload")?;
            TraceOp::Write { addr, payload: hex(payload).ok_or("payload is not even-length hex")? }
        };
        if fields.next().is_some() {
            return Err("trailing fields".to_owned());
        }
        Ok(op)
    }

    /// One of `pieces`, at random.
    fn pick<'a>(rng: &mut StdRng, pieces: &[&'a str]) -> &'a str {
        pieces[rng.random_range(0..pieces.len())]
    }

    /// A number field: decimal or `0x` hex of any `u64`, either hex
    /// case, leading zeros, or one of the near misses.
    fn number_field(rng: &mut StdRng) -> String {
        let value = match rng.random_range(0u32..3) {
            0 => rng.random_range(0u64..16),
            1 => rng.random_range(0u64..1 << 20),
            _ => rng.random_range(0u64..u64::MAX),
        };
        let zeros = "0".repeat(rng.random_range(0usize..3));
        match rng.random_range(0u32..8) {
            0 | 1 => format!("{zeros}{value}"),
            2 | 3 => format!("0x{zeros}{value:x}"),
            4 => format!("0x{zeros}{value:X}"),
            5 => format!("{value}{}", pick(rng, &["0", "5", "9", "x", "g", "\u{e9}"])),
            6 => format!("0x{value:x}{}", pick(rng, &["0", "f", "F", "g", "\u{20ac}"])),
            _ => pick(rng, &["", "+5", "-5", "0x", "0X10", "0x+1", "1e3", "5_0"]).to_owned(),
        }
    }

    /// A field separator: mostly whitespace of every kind, sometimes a
    /// character that glues two fields into one.
    fn separator(rng: &mut StdRng) -> &'static str {
        if rng.random_bool(0.95) {
            pick(
                rng,
                &[" ", " ", "  ", "\t", "\u{b}", "\u{c}", "\r", "\u{3000}", "\u{a0}", "\u{85}"],
            )
        } else {
            pick(rng, &["", "\u{200b}", "\u{e9}", "-", "+"])
        }
    }

    #[test]
    fn parse_record_agrees_with_the_split_whitespace_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut parsed = 0;
        for _ in 0..20_000 {
            let mut record = String::new();
            if rng.random_bool(0.2) {
                record.push_str(separator(&mut rng));
            }
            record.push_str(pick(
                &mut rng,
                &["R", "R", "R", "W", "W", "W", "r", "RW", "", "\u{154}"],
            ));
            record.push_str(separator(&mut rng));
            record.push_str(&number_field(&mut rng));
            record.push_str(separator(&mut rng));
            if rng.random_bool(0.5) {
                record.push_str(&number_field(&mut rng));
            } else {
                let bytes = rng.random_range(0usize..10);
                for _ in 0..bytes {
                    let byte = rng.random_range(0u32..256);
                    let pair = if rng.random_bool(0.5) {
                        format!("{byte:02x}")
                    } else {
                        format!("{byte:02X}")
                    };
                    record.push_str(&pair);
                }
                record
                    .push_str(pick(&mut rng, &["", "", "", "", "-", "--", "a", "g0", "\u{20ac}"]));
            }
            if rng.random_bool(0.1) {
                record.push_str(separator(&mut rng));
                record.push_str(pick(&mut rng, &["x", "0", "-", "\u{3000}", ""]));
            }
            if rng.random_bool(0.2) {
                record.push_str(separator(&mut rng));
            }
            let got = TraceOp::parse_record(&record);
            parsed += usize::from(got.is_ok());
            assert_eq!(got, split_whitespace_reference(&record), "{record:?}");
        }
        // The generator reaches both outcomes often.
        assert!((2_000..18_000).contains(&parsed), "{parsed} of 20000 parsed");
    }

    #[test]
    fn clones_share_their_ops_until_one_is_changed() {
        let trace = Trace::sequential_reads(0, 8, 4, 3);
        let mut copy = trace.clone();
        assert!(copy.shares_ops(&trace));
        copy.push(TraceOp::Read { addr: 0x80, len: 1 });
        assert!(!copy.shares_ops(&trace));
        assert_eq!((trace.len(), copy.len()), (3, 4));
        assert_eq!(copy.ops().to_vec()[..3], trace.ops().to_vec());
    }

    #[test]
    fn interleave_round_robins_tenants() {
        let a = Trace::sequential_reads(0, 8, 1, 3);
        let b = Trace::hammer_pair(100, 200, 1);
        let mix = Trace::interleave(&[a.clone(), b.clone()]);
        assert_eq!(mix.len(), a.len() + b.len());
        assert!(mix.untrusted, "one untrusted tenant taints the mix");
        let (mix_ops, a_ops, b_ops) = (mix.ops().to_vec(), a.ops().to_vec(), b.ops().to_vec());
        assert_eq!(mix_ops[0], a_ops[0]);
        assert_eq!(mix_ops[1], b_ops[0]);
        assert_eq!(mix_ops[2], a_ops[1]);
        // Tenant a's internal order is preserved.
        let from_a: Vec<_> = mix_ops.iter().filter(|op| a_ops.contains(op)).collect();
        assert_eq!(from_a.len(), a.len());
    }
}

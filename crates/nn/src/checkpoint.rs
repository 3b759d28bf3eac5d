//! Run-state checkpointing: save/load model weights *and* full training
//! state to a small self-describing binary format (no external
//! dependencies).
//!
//! Combined with `autocts::Genotype::to_text` a searched-and-trained
//! model is fully persistable: the genotype captures the architecture,
//! the checkpoint the weights — and, since the `CTSCKPT2` format, the
//! complete run state (optimizer moments, schedules, counters, RNG), so
//! an interrupted run resumes bit-identically.
//!
//! # Format
//!
//! Magic `CTSCKPT2`, a sequence of chunks (`[u8; 4]` tag + `u64` payload
//! length + payload), and a trailing CRC32 (IEEE) over everything before
//! it. Torn or corrupted writes are therefore *detected and rejected*,
//! never loaded. Unknown chunk tags are skipped, so the format is
//! forward-extensible. All integers little-endian. A stream with any
//! other magic is rejected as corrupt ("bad checkpoint magic").
//!
//! Writes via [`save_run_state`]/[`save_parameters`] are atomic: the
//! bytes go to a `<path>.tmp` sibling, are fsynced, then renamed over the
//! destination, so a crash mid-write leaves the previous checkpoint
//! intact.

// This file parses attacker-controllable bytes: every length cast must be
// checked and every slice access bounds-proven, so the pedantic subset is
// promoted to warnings (check.sh runs clippy with -D warnings).
#![warn(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use cts_autograd::Parameter;
use cts_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC_V2: &[u8; 8] = b"CTSCKPT2";

/// Hard caps on attacker-controlled header fields. A hostile checkpoint
/// can still claim large tensors, but every allocation is additionally
/// bounded by the bytes actually present in the stream.
const MAX_NAME_LEN: usize = 1 << 16;
const MAX_RANK: usize = 16;

const TAG_PARAMS: &[u8; 4] = b"PRMS";
const TAG_OPTIMIZERS: &[u8; 4] = b"OPTS";
const TAG_SCHEDULE: &[u8; 4] = b"SCHD";
const TAG_COUNTERS: &[u8; 4] = b"CNTR";
const TAG_RNG: &[u8; 4] = b"RNGS";
const TAG_TRACE: &[u8; 4] = b"TRCE";
const TAG_LOSSES: &[u8; 4] = b"LOSS";
const TAG_MIDEPOCH: &[u8; 4] = b"MIDE";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of a checkpoint read or write.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem / stream error.
    Io(io::Error),
    /// The bytes are not a valid checkpoint (bad magic, truncation, CRC
    /// mismatch, malformed chunk). A corrupt file is never partially
    /// loaded.
    Corrupt(String),
    /// The checkpoint is well-formed but does not match the run it is
    /// being restored into (missing/mismatched parameters, wrong
    /// optimizer layout, RNG state divergence).
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------------

/// Serialised state of one Adam optimizer: step count, learning rate, and
/// the first/second moment buffers aligned with the optimizer's parameter
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizerState {
    /// Which optimizer this is (e.g. `"weight"`, `"arch"`).
    pub name: String,
    /// Adam step counter `t`.
    pub t: u64,
    /// Learning rate at checkpoint time (watchdog LR cuts persist).
    pub lr: f32,
    /// First-moment buffers, one per parameter.
    pub m: Vec<Tensor>,
    /// Second-moment buffers, one per parameter.
    pub v: Vec<Tensor>,
}

/// Serialised position of a [`crate::TemperatureSchedule`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleState {
    /// Current temperature τ.
    pub tau: f32,
    /// Per-epoch annealing factor.
    pub factor: f32,
    /// Temperature floor.
    pub min: f32,
}

/// Position inside a partially-completed epoch, written by mid-epoch
/// checkpoints ([`crate::runstate::CheckpointConfig::every_steps`]).
///
/// A resumed run skips the first `batch` batches of the epoch and seeds
/// its loss accumulator with `loss_sum`, so the epoch's mean loss — and
/// therefore every downstream decision (watchdog, early stopping) — is
/// bit-identical to an uninterrupted run. `loss_sum` is `f64` because the
/// accumulator itself is `f64`; rounding it through `f32` would fork the
/// resumed trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MidEpochState {
    /// Batches of the current epoch already consumed.
    pub batch: u64,
    /// Running sum of per-batch training losses within the epoch.
    pub loss_sum: f64,
}

/// Scalar bookkeeping of a training / search run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunCounters {
    /// Completed epochs (the next epoch to run on resume).
    pub epoch: u64,
    /// Global step counter.
    pub step: u64,
    /// Epoch index with the best validation loss so far.
    pub best_epoch: u64,
    /// Early-stopping stall counter.
    pub stall: u64,
    /// Peak activation-scalar count observed (search memory accounting).
    pub memory_scalars: u64,
    /// Best validation loss so far.
    pub best_val: f32,
    /// Mean validation loss of the last completed epoch.
    pub last_val: f32,
    /// Wall-clock seconds accumulated before this checkpoint.
    pub secs: f64,
}

impl Default for RunCounters {
    fn default() -> Self {
        Self {
            epoch: 0,
            step: 0,
            best_epoch: 0,
            stall: 0,
            memory_scalars: 0,
            best_val: f32::INFINITY,
            last_val: 0.0,
            secs: 0.0,
        }
    }
}

/// Complete state of a training or search run at an epoch boundary.
///
/// Everything a resumed run needs to continue *bit-identically*: named
/// parameter tensors, per-optimizer Adam moments, the temperature
/// schedule position, counters, the shuffle RNG, and the per-epoch trace
/// accumulated so far.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunState {
    /// Named parameter tensors (weights and architecture parameters).
    pub params: Vec<(String, Tensor)>,
    /// One entry per optimizer driving the run.
    pub optimizers: Vec<OptimizerState>,
    /// Temperature-schedule position (search runs only).
    pub schedule: Option<ScheduleState>,
    /// Scalar bookkeeping.
    pub counters: RunCounters,
    /// Raw xoshiro256++ state of the shuffle RNG (search runs only).
    pub rng: Option<[u64; 4]>,
    /// Per-epoch `[τ, val_loss, α_entropy]` trace (search runs only).
    pub trace: Vec<[f32; 3]>,
    /// Mean training loss per completed epoch.
    pub train_losses: Vec<f32>,
    /// Mean validation loss per completed epoch.
    pub val_losses: Vec<f32>,
    /// Mid-epoch position when the checkpoint was taken between epoch
    /// boundaries; `None` for epoch-boundary checkpoints. Decoders that
    /// predate this field skip the chunk (unknown tags are ignored), so
    /// mid-epoch checkpoints stay readable as epoch checkpoints.
    pub mid_epoch: Option<MidEpochState>,
}

impl RunState {
    /// Snapshot a parameter list into named `(name, tensor)` pairs.
    ///
    /// # Errors
    /// Fails when two parameters share a name — the checkpoint could not
    /// be restored unambiguously.
    pub fn capture_params(params: &[Parameter]) -> Result<Vec<(String, Tensor)>, CheckpointError> {
        let mut seen = HashMap::with_capacity(params.len());
        let mut out = Vec::with_capacity(params.len());
        for p in params {
            let name = p.name();
            if seen.insert(name.clone(), ()).is_some() {
                return Err(CheckpointError::Incompatible(format!(
                    "duplicate parameter name {name:?} — cannot checkpoint unambiguously"
                )));
            }
            out.push((name, p.value().clone()));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial)
// ---------------------------------------------------------------------------

#[allow(clippy::cast_possible_truncation, clippy::indexing_slicing)] // i < 256 throughout
const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32; // invariant: i < 256 (loop bound).
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE) of `bytes`.
#[allow(clippy::cast_possible_truncation, clippy::indexing_slicing)] // index masked to 8 bits
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // invariant: the index is masked to 8 bits, in table range.
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// v2 encoding
// ---------------------------------------------------------------------------

/// Encode a collection length / rank as `u32`.
fn len_u32(n: usize) -> u32 {
    // invariant: checkpoint collections (params, moments, trace rows, name
    // bytes) stay far below u32::MAX entries by construction; a violation
    // is a programming error, not a data error.
    u32::try_from(n).expect("collection length exceeds u32")
}

/// Reassemble an `f32` from a 4-byte `chunks_exact(4)` window.
fn le_f32(b: &[u8]) -> f32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(b);
    f32::from_le_bytes(w)
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::with_capacity(4096) }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(len_u32(s.len()));
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn tensor(&mut self, t: &Tensor) {
        self.u32(len_u32(t.rank()));
        for &d in t.shape() {
            self.u64(d as u64);
        }
        for &x in t.data() {
            self.f32(x);
        }
    }
    fn chunk(&mut self, tag: &[u8; 4], body: impl FnOnce(&mut Enc)) {
        self.buf.extend_from_slice(tag);
        let len_at = self.buf.len();
        self.u64(0); // patched below
        let start = self.buf.len();
        body(self);
        let len = (self.buf.len() - start) as u64;
        // invariant: `len_at..len_at + 8` is the placeholder written above.
        self.buf
            .get_mut(len_at..len_at + 8)
            .expect("length placeholder in bounds")
            .copy_from_slice(&len.to_le_bytes());
    }
}

/// Serialise a [`RunState`] into the `CTSCKPT2` byte layout.
pub fn encode_run_state(rs: &RunState) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(MAGIC_V2);
    e.chunk(TAG_PARAMS, |e| {
        e.u32(len_u32(rs.params.len()));
        for (name, t) in &rs.params {
            e.str(name);
            e.tensor(t);
        }
    });
    if !rs.optimizers.is_empty() {
        e.chunk(TAG_OPTIMIZERS, |e| {
            e.u32(len_u32(rs.optimizers.len()));
            for o in &rs.optimizers {
                e.str(&o.name);
                e.u64(o.t);
                e.f32(o.lr);
                e.u32(len_u32(o.m.len()));
                for t in &o.m {
                    e.tensor(t);
                }
                for t in &o.v {
                    e.tensor(t);
                }
            }
        });
    }
    if let Some(s) = &rs.schedule {
        e.chunk(TAG_SCHEDULE, |e| {
            e.f32(s.tau);
            e.f32(s.factor);
            e.f32(s.min);
        });
    }
    e.chunk(TAG_COUNTERS, |e| {
        let c = &rs.counters;
        e.u64(c.epoch);
        e.u64(c.step);
        e.u64(c.best_epoch);
        e.u64(c.stall);
        e.u64(c.memory_scalars);
        e.f32(c.best_val);
        e.f32(c.last_val);
        e.f64(c.secs);
    });
    if let Some(s) = &rs.rng {
        e.chunk(TAG_RNG, |e| {
            for &w in s {
                e.u64(w);
            }
        });
    }
    if !rs.trace.is_empty() {
        e.chunk(TAG_TRACE, |e| {
            e.u32(len_u32(rs.trace.len()));
            for row in &rs.trace {
                for &x in row {
                    e.f32(x);
                }
            }
        });
    }
    e.chunk(TAG_LOSSES, |e| {
        e.u32(len_u32(rs.train_losses.len()));
        for &x in &rs.train_losses {
            e.f32(x);
        }
        e.u32(len_u32(rs.val_losses.len()));
        for &x in &rs.val_losses {
            e.f32(x);
        }
    });
    if let Some(me) = &rs.mid_epoch {
        e.chunk(TAG_MIDEPOCH, |e| {
            e.u64(me.batch);
            e.f64(me.loss_sum);
        });
    }
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.buf
}

// ---------------------------------------------------------------------------
// v2 decoding (hardened: every allocation bounded by remaining bytes)
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(corrupt(format!(
                "need {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| corrupt("decoder overrun"))?;
        self.pos += n;
        Ok(s)
    }
    /// Fixed-size read: `bytes(N)` copied into an array, so callers never
    /// need a slice-to-array `unwrap`.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.array()?))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.array()?))
    }
    /// Decode a `u32` count/length field as `usize`, rejecting values the
    /// platform cannot index.
    fn count(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u32()?;
        usize::try_from(v).map_err(|_| corrupt(format!("count {v} overflows usize")))
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.count()?;
        if len > MAX_NAME_LEN {
            return Err(corrupt(format!("name length {len} exceeds cap {MAX_NAME_LEN}")));
        }
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|e| corrupt(format!("non-UTF-8 name: {e}")))
    }
    fn tensor(&mut self) -> Result<Tensor, CheckpointError> {
        let rank = self.count()?;
        if rank > MAX_RANK {
            return Err(corrupt(format!("tensor rank {rank} exceeds cap {MAX_RANK}")));
        }
        let mut shape = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = self.u64()?;
            let d = usize::try_from(d).map_err(|_| corrupt(format!("dimension {d} overflows")))?;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| corrupt("tensor element count overflows"))?;
            shape.push(d);
        }
        let nbytes = numel
            .checked_mul(4)
            .ok_or_else(|| corrupt("tensor byte count overflows"))?;
        // Bounds-check against the actual stream before allocating: a
        // hostile header cannot force an allocation larger than the file.
        let raw = self.bytes(nbytes)?;
        let mut data = Vec::with_capacity(numel);
        for b in raw.chunks_exact(4) {
            data.push(le_f32(b));
        }
        Ok(Tensor::from_vec(shape, data))
    }
    /// Bounded `with_capacity` for a count field: each entry needs at
    /// least `min_entry_bytes`, so the claimed count cannot pre-allocate
    /// more than the remaining stream could possibly hold.
    fn bounded_count(&self, claimed: usize, min_entry_bytes: usize) -> usize {
        claimed.min(self.remaining() / min_entry_bytes.max(1) + 1)
    }
}

fn parse_v2(bytes: &[u8]) -> Result<RunState, CheckpointError> {
    if bytes.len() < MAGIC_V2.len() + 4 {
        return Err(corrupt("shorter than magic + CRC footer"));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let mut fb = [0u8; 4];
    fb.copy_from_slice(footer);
    let expect = u32::from_le_bytes(fb);
    let got = crc32(body);
    if expect != got {
        return Err(corrupt(format!("CRC mismatch: footer {expect:#010x}, computed {got:#010x}")));
    }
    if body.get(..MAGIC_V2.len()) != Some(MAGIC_V2.as_slice()) {
        return Err(corrupt("bad v2 magic"));
    }
    let mut rs = RunState::default();
    let mut d = Dec { buf: body, pos: MAGIC_V2.len() };
    while d.remaining() > 0 {
        let tag: [u8; 4] = d.array()?;
        let len = d.u64()?;
        let len = usize::try_from(len)
            .map_err(|_| corrupt(format!("chunk length {len} overflows usize")))?;
        let payload = d.bytes(len)?;
        let mut c = Dec { buf: payload, pos: 0 };
        match &tag {
            t if t == TAG_PARAMS => {
                let count = c.count()?;
                let mut params = Vec::with_capacity(c.bounded_count(count, 12));
                for _ in 0..count {
                    let name = c.str()?;
                    let tensor = c.tensor()?;
                    params.push((name, tensor));
                }
                rs.params = params;
            }
            t if t == TAG_OPTIMIZERS => {
                let count = c.count()?;
                let mut opts = Vec::with_capacity(c.bounded_count(count, 20));
                for _ in 0..count {
                    let name = c.str()?;
                    let t = c.u64()?;
                    let lr = c.f32()?;
                    let n = c.count()?;
                    let mut m = Vec::with_capacity(c.bounded_count(n, 4));
                    for _ in 0..n {
                        m.push(c.tensor()?);
                    }
                    let mut v = Vec::with_capacity(m.len());
                    for _ in 0..n {
                        v.push(c.tensor()?);
                    }
                    opts.push(OptimizerState { name, t, lr, m, v });
                }
                rs.optimizers = opts;
            }
            t if t == TAG_SCHEDULE => {
                rs.schedule = Some(ScheduleState {
                    tau: c.f32()?,
                    factor: c.f32()?,
                    min: c.f32()?,
                });
            }
            t if t == TAG_COUNTERS => {
                rs.counters = RunCounters {
                    epoch: c.u64()?,
                    step: c.u64()?,
                    best_epoch: c.u64()?,
                    stall: c.u64()?,
                    memory_scalars: c.u64()?,
                    best_val: c.f32()?,
                    last_val: c.f32()?,
                    secs: c.f64()?,
                };
            }
            t if t == TAG_RNG => {
                let s = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
                if s.iter().all(|&w| w == 0) {
                    return Err(corrupt("all-zero RNG state"));
                }
                rs.rng = Some(s);
            }
            t if t == TAG_TRACE => {
                let rows = c.count()?;
                let mut trace = Vec::with_capacity(c.bounded_count(rows, 12));
                for _ in 0..rows {
                    trace.push([c.f32()?, c.f32()?, c.f32()?]);
                }
                rs.trace = trace;
            }
            t if t == TAG_LOSSES => {
                let nt = c.count()?;
                let mut tl = Vec::with_capacity(c.bounded_count(nt, 4));
                for _ in 0..nt {
                    tl.push(c.f32()?);
                }
                let nv = c.count()?;
                let mut vl = Vec::with_capacity(c.bounded_count(nv, 4));
                for _ in 0..nv {
                    vl.push(c.f32()?);
                }
                rs.train_losses = tl;
                rs.val_losses = vl;
            }
            t if t == TAG_MIDEPOCH => {
                rs.mid_epoch = Some(MidEpochState {
                    batch: c.u64()?,
                    loss_sum: c.f64()?,
                });
            }
            _ => {} // unknown chunk: skip (forward compatibility)
        }
    }
    Ok(rs)
}

// ---------------------------------------------------------------------------
// Public read/write API
// ---------------------------------------------------------------------------

/// Parse a checkpoint's parameters into `(name, tensor)` pairs.
pub fn read_checkpoint(r: impl Read) -> io::Result<Vec<(String, Tensor)>> {
    Ok(read_run_state(r)?.params)
}

/// Parse a full [`RunState`] from a reader. The magic is checked before
/// the rest of the stream is read.
pub fn read_run_state(mut r: impl Read) -> Result<RunState, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC_V2 {
        return Err(corrupt("bad checkpoint magic"));
    }
    let mut bytes = magic.to_vec();
    r.read_to_end(&mut bytes)?;
    parse_v2(&bytes)
}

/// Serialise a [`RunState`] (v2 layout) into a writer.
pub fn write_run_state(mut w: impl Write, rs: &RunState) -> io::Result<()> {
    w.write_all(&encode_run_state(rs))
}

/// Atomically persist a [`RunState`] to `path`: write `<path>.tmp`,
/// fsync, rename. A crash at any point leaves either the old checkpoint
/// or the new one — never a torn file (and a torn `.tmp` is rejected by
/// the CRC footer anyway).
pub fn save_run_state(path: impl AsRef<Path>, rs: &RunState) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let bytes = encode_run_state(rs);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load a [`RunState`] from a file, rejecting corrupt/truncated data.
pub fn load_run_state(path: impl AsRef<Path>) -> Result<RunState, CheckpointError> {
    let file = std::fs::File::open(path)?;
    read_run_state(io::BufReader::new(file))
}

/// Save parameters to a file (v2 params-only checkpoint, atomic write).
pub fn save_parameters(path: impl AsRef<Path>, params: &[Parameter]) -> io::Result<()> {
    let rs = RunState {
        params: RunState::capture_params(params).map_err(io::Error::from)?,
        ..RunState::default()
    };
    save_run_state(path, &rs).map_err(io::Error::from)
}

/// Restore `params` from checkpoint `entries`, matching by name.
///
/// All problems (missing entries, shape mismatches) are collected and
/// reported in a single error rather than failing on the first; returns
/// the number of parameters restored.
pub fn apply_parameters(
    entries: &[(String, Tensor)],
    params: &[Parameter],
) -> Result<usize, CheckpointError> {
    let by_name: HashMap<&str, &Tensor> =
        entries.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut problems = Vec::new();
    let mut restored = 0usize;
    for p in params {
        let name = p.name();
        match by_name.get(name.as_str()) {
            None => problems.push(format!("missing parameter {name}")),
            Some(t) if t.shape() != p.value().shape() => problems.push(format!(
                "shape mismatch for {name}: checkpoint {:?} vs model {:?}",
                t.shape(),
                p.value().shape()
            )),
            Some(t) => {
                p.set_value((*t).clone());
                restored += 1;
            }
        }
    }
    if problems.is_empty() {
        Ok(restored)
    } else {
        Err(CheckpointError::Incompatible(problems.join("; ")))
    }
}

/// Load a checkpoint file into an existing parameter set, matching by
/// name (O(P) via a hash map). Every parameter must find a name- and
/// shape-matching entry; all failures are reported in one error. Returns
/// the number restored.
pub fn load_parameters(path: impl AsRef<Path>, params: &[Parameter]) -> io::Result<usize> {
    let file = std::fs::File::open(path)?;
    let entries = read_checkpoint(io::BufReader::new(file))?;
    apply_parameters(&entries, params).map_err(|e| match e {
        CheckpointError::Incompatible(m) if m.starts_with("missing parameter") => {
            io::Error::new(io::ErrorKind::NotFound, m)
        }
        other => io::Error::from(other),
    })
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)] // tests index fixture buffers deliberately
mod tests {
    use super::*;
    use cts_tensor::init;
    use rand::{rngs::SmallRng, SeedableRng};

    fn params(seed: u64) -> Vec<Parameter> {
        let mut rng = SmallRng::seed_from_u64(seed);
        vec![
            Parameter::new("layer.weight", init::uniform(&mut rng, [3, 4], -1.0, 1.0)),
            Parameter::new("layer.bias", init::uniform(&mut rng, [4], -1.0, 1.0)),
        ]
    }

    #[test]
    fn roundtrip_through_memory() {
        let ps = params(1);
        let rs = RunState { params: RunState::capture_params(&ps).unwrap(), ..RunState::default() };
        let mut buf = Vec::new();
        write_run_state(&mut buf, &rs).unwrap();
        let entries = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "layer.weight");
        assert!(entries[0].1.approx_eq(&ps[0].value(), 0.0));
    }

    #[test]
    fn file_roundtrip_restores_values() {
        let dir = std::env::temp_dir().join("cts_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let original = params(2);
        save_parameters(&path, &original).unwrap();
        let fresh = params(3); // different values, same names/shapes
        assert!(!fresh[0].value().approx_eq(&original[0].value(), 1e-6));
        let restored = load_parameters(&path, &fresh).unwrap();
        assert_eq!(restored, 2);
        assert!(fresh[0].value().approx_eq(&original[0].value(), 0.0));
        assert!(fresh[1].value().approx_eq(&original[1].value(), 0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_checkpoint(&b"NOTACKPT\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let dir = std::env::temp_dir().join("cts_ckpt_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        save_parameters(&path, &params(4)).unwrap();
        let wrong = vec![Parameter::new("layer.weight", Tensor::zeros([2, 2]))];
        assert!(load_parameters(&path, &wrong).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_parameter() {
        let dir = std::env::temp_dir().join("cts_ckpt_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        save_parameters(&path, &params(5)).unwrap();
        let extra = vec![Parameter::new("unknown", Tensor::zeros([1]))];
        let err = load_parameters(&path, &extra).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn missing_and_mismatched_reported_together() {
        let dir = std::env::temp_dir().join("cts_ckpt_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        save_parameters(&path, &params(6)).unwrap();
        let wrong = vec![
            Parameter::new("layer.weight", Tensor::zeros([9, 9])), // mismatched
            Parameter::new("nope.a", Tensor::zeros([1])),          // missing
            Parameter::new("nope.b", Tensor::zeros([1])),          // missing
        ];
        let msg = load_parameters(&path, &wrong).unwrap_err().to_string();
        assert!(msg.contains("layer.weight"), "{msg}");
        assert!(msg.contains("nope.a"), "{msg}");
        assert!(msg.contains("nope.b"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_state_roundtrip() {
        let ps = params(7);
        let rs = RunState {
            params: RunState::capture_params(&ps).unwrap(),
            optimizers: vec![OptimizerState {
                name: "weight".into(),
                t: 42,
                lr: 5e-4,
                m: vec![Tensor::full([3, 4], 0.5), Tensor::full([4], -0.25)],
                v: vec![Tensor::full([3, 4], 0.125), Tensor::full([4], 2.0)],
            }],
            schedule: Some(ScheduleState { tau: 3.3, factor: 0.9, min: 1e-3 }),
            counters: RunCounters {
                epoch: 7,
                step: 133,
                best_epoch: 5,
                stall: 2,
                memory_scalars: 10_000,
                best_val: 0.75,
                last_val: 0.8,
                secs: 12.5,
            },
            rng: Some([1, 2, 3, 4]),
            trace: vec![[5.0, 1.0, 1.5], [4.5, 0.9, 1.2]],
            train_losses: vec![1.0, 0.9],
            val_losses: vec![1.1, 1.0],
            mid_epoch: Some(MidEpochState { batch: 3, loss_sum: 2.755 }),
        };
        let bytes = encode_run_state(&rs);
        let back = read_run_state(&bytes[..]).unwrap();
        assert_eq!(rs, back);
        // And the epoch-boundary form (no MIDE chunk) roundtrips to None.
        let boundary = RunState { mid_epoch: None, ..rs };
        let bytes2 = encode_run_state(&boundary);
        let back2 = read_run_state(&bytes2[..]).unwrap();
        assert_eq!(back2.mid_epoch, None);
        assert_eq!(boundary, back2);
    }

    #[test]
    fn any_truncation_rejected() {
        let rs = RunState {
            params: RunState::capture_params(&params(8)).unwrap(),
            rng: Some([9, 9, 9, 9]),
            ..RunState::default()
        };
        let bytes = encode_run_state(&rs);
        for cut in 0..bytes.len() {
            assert!(
                read_run_state(&bytes[..cut]).is_err(),
                "truncation at byte {cut}/{} was accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_rejected_by_crc() {
        let rs = RunState {
            params: RunState::capture_params(&params(9)).unwrap(),
            ..RunState::default()
        };
        let bytes = encode_run_state(&rs);
        for &at in &[8usize, 20, bytes.len() / 2, bytes.len() - 6] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(read_run_state(&bad[..]).is_err(), "bit flip at {at} accepted");
        }
    }

    #[test]
    fn duplicate_param_names_rejected_at_capture() {
        let ps = vec![
            Parameter::new("same", Tensor::zeros([1])),
            Parameter::new("same", Tensor::zeros([2])),
        ];
        assert!(RunState::capture_params(&ps).is_err());
    }
}

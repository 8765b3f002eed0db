//! Crash-safe die checkpointing.
//!
//! A checkpoint is the complete **mutable** state of a
//! [`Supervisor`](crate::Supervisor)-managed die — everything that can
//! diverge from a freshly fabricated twin over the die's lifetime:
//!
//! * per-crossbar device state (cell levels/signs/defects, effective
//!   weights with drift folded in, spare banks, remap indirection,
//!   margins, op tallies, aging clock + event-RNG stream positions),
//! * stochastic-module RNG positions (SpinDrop / Spatial / Scale /
//!   arbiter bit-sources),
//! * calibration state (norm statistics mid-stream, the calibration
//!   tensor, the abstention threshold),
//! * supervisor progress (virtual clock, step index, latched health
//!   tier and hysteresis dwell, recovery-event trail, op-counter and
//!   energy windows).
//!
//! **Restore-onto-twin contract.** A checkpoint does *not* carry the
//! immutable structure (trained weights, geometry, device corner,
//! config, seeds): restore applies the captured state onto a supervisor
//! built by the same deterministic constructor from the same inputs.
//! After [`Supervisor::restore`](crate::Supervisor::restore), any
//! sequence of `step` / `serve_predict` / scrub calls is **bit-identical**
//! to the uninterrupted original — outputs, RNG stream positions, and
//! energy tallies alike. The round-trip battery below proves this over
//! geometry × defects × spares × aging × latched-tier corners.
//!
//! **Wire format.** The hand-rolled JSON layer ([`crate::json`])
//! carries the payload under a versioned header:
//!
//! ```json
//! {"format": "neuspin-checkpoint", "version": 1,
//!  "checksum": "<fnv1a-64 hex of the payload serialization>",
//!  "payload": {...}}
//! ```
//!
//! `f64`/`f32` fields ride the writer's shortest-round-trip `Display`
//! (bit-exact both ways); `u64` fields are hex *strings* because a JSON
//! number is an f64 and counters can exceed 2⁵³. Decoding rejects
//! unknown formats, version skew, and checksum mismatches with a typed
//! [`CheckpointError`] — a truncated or bit-rotted checkpoint is
//! refused, never half-applied.
//!
//! Encoding streams the state through `json::Writer` in one pass, with
//! no value tree, and patches the checksum in last; decoding parses the
//! document into a [`Json`] tree and reads the state from it.

use crate::blocks::BlockState;
use crate::health::MonitorState;
use crate::json::{parse, Json, Writer};
use crate::model::ModelState;
use crate::runtime::{RecoveryAction, RecoveryEvent};
use crate::HealthPolicy;
use neuspin_cim::{
    AgingHookState, ArbiterState, CrossbarState, MlcCrossbarState, OpCounter, SpareColumnState,
    XnorCellState,
};
use neuspin_device::{AgingSnapshot, DefectKind, SpinRngState};
use neuspin_energy::Joules;
use neuspin_nn::Tensor;
use std::fmt;

/// The header's format discriminator.
pub const FORMAT: &str = "neuspin-checkpoint";
/// The current checkpoint format version.
pub const VERSION: u64 = 1;
/// Holds the checksum's 16 hex digits until the payload is written.
const CHECKSUM_PLACEHOLDER: &str = "0000000000000000";

/// FNV-1a 64-bit hash — the checkpoint content checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Why a checkpoint was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not parseable as a checkpoint (bad JSON, missing or ill-typed
    /// fields).
    Malformed(String),
    /// The `format` discriminator names something else.
    FormatMismatch(String),
    /// The format version is not [`VERSION`].
    VersionMismatch {
        /// The version the header claimed.
        found: u64,
    },
    /// The payload does not hash to the header checksum (truncation or
    /// bit rot).
    ChecksumMismatch {
        /// The checksum the header claimed.
        expected: String,
        /// The checksum of the payload as received.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::FormatMismatch(found) => {
                write!(f, "not a {FORMAT} document (format: {found:?})")
            }
            CheckpointError::VersionMismatch { found } => {
                write!(f, "checkpoint version {found} unsupported (expected {VERSION})")
            }
            CheckpointError::ChecksumMismatch { expected, found } => {
                write!(f, "checkpoint checksum mismatch: header {expected}, payload {found}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

type R<T> = Result<T, CheckpointError>;

fn bad(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(why.into())
}

/// The decoded supervisor payload — see the module docs for what is
/// (and deliberately is not) captured.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SupervisorState {
    pub(crate) model: ModelState,
    pub(crate) monitor: MonitorState,
    pub(crate) calib: Tensor,
    pub(crate) now_hours: f64,
    pub(crate) last_scrub_hours: f64,
    pub(crate) step: usize,
    pub(crate) engaged_tier: HealthPolicy,
    pub(crate) commissioned: bool,
    pub(crate) events: Vec<RecoveryEvent>,
}

/// A verified, decoded die checkpoint, ready for
/// [`Supervisor::restore`](crate::Supervisor::restore).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) state: SupervisorState,
}

impl Checkpoint {
    /// Parses and verifies a serialized checkpoint: format, version,
    /// then the payload checksum, then the payload itself.
    pub fn decode(text: &str) -> R<Checkpoint> {
        let root =
            parse(text).map_err(|e| bad(format!("JSON parse error at byte {}", e.offset)))?;
        let format = str_field(&root, "format")?;
        if format != FORMAT {
            return Err(CheckpointError::FormatMismatch(format.to_string()));
        }
        let version = f64_field(&root, "version")? as u64;
        if version != VERSION {
            return Err(CheckpointError::VersionMismatch { found: version });
        }
        let expected = str_field(&root, "checksum")?.to_string();
        let payload = field(&root, "payload")?;
        let found = format!("{:016x}", fnv1a(payload.to_string().as_bytes()));
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }
        Ok(Checkpoint { state: decode_supervisor(payload)? })
    }

    /// Serializes a supervisor state under the versioned, checksummed
    /// header. Byte-deterministic: the same state always produces the
    /// same string.
    pub(crate) fn encode_state(state: &SupervisorState) -> String {
        let mut out = String::new();
        Checkpoint::encode_into(state, &mut out);
        out
    }

    /// [`Checkpoint::encode_state`] into `out`, which is cleared first
    /// and keeps its capacity. One pass: the header goes out with a
    /// placeholder checksum, the payload streams after it, and the
    /// placeholder is then patched with the FNV-1a of the payload bytes.
    pub(crate) fn encode_into(state: &SupervisorState, out: &mut String) {
        out.clear();
        let mut w = Writer::new(out);
        w.open_obj();
        w.key("format").str(FORMAT);
        w.key("version").num(VERSION as f64);
        // The checksum digits start one byte past the string's opening quote.
        let checksum_at = w.key("checksum").offset() + 1;
        w.str(CHECKSUM_PLACEHOLDER);
        let payload_start = w.key("payload").offset();
        encode_supervisor(&mut w, state);
        let payload_end = w.offset();
        w.close_obj();
        let checksum = format!("{:016x}", fnv1a(&out.as_bytes()[payload_start..payload_end]));
        out.replace_range(checksum_at..checksum_at + checksum.len(), &checksum);
    }
}

// ---------------------------------------------------------------------
// Scalar helpers. u64 rides hex strings (JSON numbers are f64 — exact
// only to 2⁵³); f64/f32 ride the writer's shortest-round-trip Display.
// Encoders stream into a `Writer`; decoders read the parsed tree.

fn write_pair(w: &mut Writer<'_>, p: (f64, f64)) {
    w.arr([p.0, p.1], Writer::num);
}

fn write_f32s(w: &mut Writer<'_>, xs: &[f32]) {
    w.arr(xs.iter().map(|&x| f64::from(x)), Writer::num);
}

fn field<'a>(v: &'a Json, key: &str) -> R<&'a Json> {
    v.get(key).ok_or_else(|| bad(format!("missing field '{key}'")))
}

fn f64_field(v: &Json, key: &str) -> R<f64> {
    field(v, key)?.as_f64().ok_or_else(|| bad(format!("field '{key}' is not a number")))
}

fn usize_field(v: &Json, key: &str) -> R<usize> {
    Ok(f64_field(v, key)? as usize)
}

fn u64_field(v: &Json, key: &str) -> R<u64> {
    let s = str_field(v, key)?;
    u64::from_str_radix(s, 16).map_err(|_| bad(format!("field '{key}' is not a hex u64")))
}

fn bool_field(v: &Json, key: &str) -> R<bool> {
    field(v, key)?.as_bool().ok_or_else(|| bad(format!("field '{key}' is not a bool")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> R<&'a str> {
    field(v, key)?.as_str().ok_or_else(|| bad(format!("field '{key}' is not a string")))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> R<&'a [Json]> {
    field(v, key)?.as_arr().ok_or_else(|| bad(format!("field '{key}' is not an array")))
}

fn f64s_field(v: &Json, key: &str) -> R<Vec<f64>> {
    arr_field(v, key)?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| bad(format!("'{key}' holds a non-number"))))
        .collect()
}

fn f32s_field(v: &Json, key: &str) -> R<Vec<f32>> {
    Ok(f64s_field(v, key)?.into_iter().map(|x| x as f32).collect())
}

fn bools_field(v: &Json, key: &str) -> R<Vec<bool>> {
    arr_field(v, key)?
        .iter()
        .map(|x| x.as_bool().ok_or_else(|| bad(format!("'{key}' holds a non-bool"))))
        .collect()
}

fn pair(v: &Json, ctx: &str) -> R<(f64, f64)> {
    let items = v.as_arr().ok_or_else(|| bad(format!("'{ctx}' is not a pair")))?;
    if items.len() != 2 {
        return Err(bad(format!("'{ctx}' is not a 2-element pair")));
    }
    let a = items[0].as_f64().ok_or_else(|| bad(format!("'{ctx}'[0] is not a number")))?;
    let b = items[1].as_f64().ok_or_else(|| bad(format!("'{ctx}'[1] is not a number")))?;
    Ok((a, b))
}

fn pair_field(v: &Json, key: &str) -> R<(f64, f64)> {
    pair(field(v, key)?, key)
}

// ---------------------------------------------------------------------
// Per-type codecs, leaves first.

fn encode_counter(w: &mut Writer<'_>, c: &OpCounter) {
    w.open_obj();
    w.key("cell_reads").hex(c.cell_reads);
    w.key("cell_writes").hex(c.cell_writes);
    w.key("sa_evals").hex(c.sa_evals);
    w.key("adc_converts").hex(c.adc_converts);
    w.key("adc_saturations").hex(c.adc_saturations);
    w.key("rng_bits").hex(c.rng_bits);
    w.key("sram_accesses").hex(c.sram_accesses);
    w.key("digital_ops").hex(c.digital_ops);
    w.close_obj();
}

fn decode_counter(v: &Json) -> R<OpCounter> {
    Ok(OpCounter {
        cell_reads: u64_field(v, "cell_reads")?,
        cell_writes: u64_field(v, "cell_writes")?,
        sa_evals: u64_field(v, "sa_evals")?,
        adc_converts: u64_field(v, "adc_converts")?,
        adc_saturations: u64_field(v, "adc_saturations")?,
        rng_bits: u64_field(v, "rng_bits")?,
        sram_accesses: u64_field(v, "sram_accesses")?,
        digital_ops: u64_field(v, "digital_ops")?,
    })
}

fn encode_rng(w: &mut Writer<'_>, s: &SpinRngState) {
    w.open_obj();
    w.key("bias_current").num(s.bias_current);
    w.key("target_p").num(s.target_p);
    w.key("bits_generated").hex(s.bits_generated);
    w.close_obj();
}

fn decode_rng(v: &Json) -> R<SpinRngState> {
    Ok(SpinRngState {
        bias_current: f64_field(v, "bias_current")?,
        target_p: f64_field(v, "target_p")?,
        bits_generated: u64_field(v, "bits_generated")?,
    })
}

fn decode_rngs(v: &Json, key: &str) -> R<Vec<SpinRngState>> {
    arr_field(v, key)?.iter().map(decode_rng).collect()
}

fn encode_defect(w: &mut Writer<'_>, kind: Option<DefectKind>) {
    match kind {
        None => w.null(),
        Some(k) => w.num(k.index() as f64),
    }
}

fn decode_defect(v: &Json, ctx: &str) -> R<Option<DefectKind>> {
    match v {
        Json::Null => Ok(None),
        _ => {
            let i = v.as_f64().ok_or_else(|| bad(format!("'{ctx}' is not a defect index")))?
                as usize;
            DefectKind::ALL
                .get(i)
                .copied()
                .map(Some)
                .ok_or_else(|| bad(format!("'{ctx}' defect index {i} out of range")))
        }
    }
}

fn encode_cell(w: &mut Writer<'_>, c: &XnorCellState) {
    w.open_obj();
    write_pair(w.key("plus_levels"), c.plus_levels);
    write_pair(w.key("minus_levels"), c.minus_levels);
    w.key("sign").bool(c.sign);
    encode_defect(w.key("plus_defect"), c.plus_defect);
    encode_defect(w.key("minus_defect"), c.minus_defect);
    write_pair(w.key("reference"), c.reference);
    w.close_obj();
}

fn decode_cell(v: &Json) -> R<XnorCellState> {
    Ok(XnorCellState {
        plus_levels: pair_field(v, "plus_levels")?,
        minus_levels: pair_field(v, "minus_levels")?,
        sign: bool_field(v, "sign")?,
        plus_defect: decode_defect(field(v, "plus_defect")?, "plus_defect")?,
        minus_defect: decode_defect(field(v, "minus_defect")?, "minus_defect")?,
        reference: pair_field(v, "reference")?,
    })
}

fn decode_cells(v: &Json, key: &str) -> R<Vec<XnorCellState>> {
    arr_field(v, key)?.iter().map(decode_cell).collect()
}

fn encode_aging_snapshot(w: &mut Writer<'_>, s: &AgingSnapshot) {
    w.open_obj();
    w.key("now_hours").num(s.now_hours);
    w.key("epoch").hex(s.epoch);
    w.key("cum_writes").num(s.cum_writes);
    w.key("lifetimes").arr(s.lifetimes.iter().copied(), Writer::num);
    w.key("drift").arr(s.drift.iter().copied(), Writer::num);
    w.key("worn").arr(s.worn.iter().copied(), Writer::bool);
    w.close_obj();
}

fn decode_aging_snapshot(v: &Json) -> R<AgingSnapshot> {
    Ok(AgingSnapshot {
        now_hours: f64_field(v, "now_hours")?,
        epoch: u64_field(v, "epoch")?,
        cum_writes: f64_field(v, "cum_writes")?,
        lifetimes: f64s_field(v, "lifetimes")?,
        drift: f64s_field(v, "drift")?,
        worn: bools_field(v, "worn")?,
    })
}

fn encode_aging_hook(w: &mut Writer<'_>, h: &AgingHookState) {
    w.open_obj();
    encode_aging_snapshot(w.key("aging"), &h.aging);
    write_f32s(w.key("golden"), &h.golden);
    w.key("seen_reads").hex(h.seen_reads);
    w.key("seen_writes").hex(h.seen_writes);
    w.close_obj();
}

fn decode_aging_hook(v: &Json) -> R<AgingHookState> {
    Ok(AgingHookState {
        aging: decode_aging_snapshot(field(v, "aging")?)?,
        golden: f32s_field(v, "golden")?,
        seen_reads: u64_field(v, "seen_reads")?,
        seen_writes: u64_field(v, "seen_writes")?,
    })
}

fn encode_spare(w: &mut Writer<'_>, s: &SpareColumnState) {
    w.open_obj();
    w.key("cells").arr(&s.cells, encode_cell);
    w.key("used").bool(s.used);
    w.close_obj();
}

fn decode_spare(v: &Json) -> R<SpareColumnState> {
    Ok(SpareColumnState { cells: decode_cells(v, "cells")?, used: bool_field(v, "used")? })
}

fn encode_remap(w: &mut Writer<'_>, map: &Option<Vec<usize>>) {
    match map {
        None => w.null(),
        Some(m) => w.arr(m.iter().map(|&i| i as f64), Writer::num),
    }
}

fn decode_remap(v: &Json, ctx: &str) -> R<Option<Vec<usize>>> {
    match v {
        Json::Null => Ok(None),
        Json::Arr(items) => items
            .iter()
            .map(|x| {
                x.as_f64()
                    .map(|f| f as usize)
                    .ok_or_else(|| bad(format!("'{ctx}' holds a non-number")))
            })
            .collect::<R<Vec<usize>>>()
            .map(Some),
        _ => Err(bad(format!("'{ctx}' is neither null nor an array"))),
    }
}

fn encode_crossbar(w: &mut Writer<'_>, s: &CrossbarState) {
    w.open_obj();
    w.key("cells").arr(&s.cells, encode_cell);
    w.key("eff").arr(s.eff.iter().copied(), Writer::num);
    w.key("row_enabled").arr(s.row_enabled.iter().copied(), Writer::bool);
    encode_counter(w.key("counter"), &s.counter);
    w.key("defects").arr(&s.defects, |w, &(r, c, k)| {
        w.arr([r as f64, c as f64, k.index() as f64], Writer::num);
    });
    w.key("spares").arr(&s.spares, encode_spare);
    encode_remap(w.key("row_src"), &s.row_src);
    encode_remap(w.key("col_src"), &s.col_src);
    w.key("margin_sum").num(s.margin_sum);
    w.key("margin_count").hex(s.margin_count);
    w.key("packed_calls").hex(s.packed_calls);
    match &s.aging {
        None => w.key("aging").null(),
        Some(hook) => encode_aging_hook(w.key("aging"), hook),
    }
    w.close_obj();
}

fn decode_crossbar(v: &Json) -> R<CrossbarState> {
    let mut defects = Vec::new();
    for (i, item) in arr_field(v, "defects")?.iter().enumerate() {
        let triple = item.as_arr().ok_or_else(|| bad(format!("defect {i} is not a triple")))?;
        if triple.len() != 3 {
            return Err(bad(format!("defect {i} is not a 3-element triple")));
        }
        let r = triple[0].as_f64().ok_or_else(|| bad("defect row"))? as usize;
        let c = triple[1].as_f64().ok_or_else(|| bad("defect col"))? as usize;
        let k = decode_defect(&triple[2], "defect kind")?
            .ok_or_else(|| bad(format!("defect {i} has a null kind")))?;
        defects.push((r, c, k));
    }
    let aging = match field(v, "aging")? {
        Json::Null => None,
        hook => Some(decode_aging_hook(hook)?),
    };
    Ok(CrossbarState {
        cells: decode_cells(v, "cells")?,
        eff: f64s_field(v, "eff")?,
        row_enabled: bools_field(v, "row_enabled")?,
        counter: decode_counter(field(v, "counter")?)?,
        defects,
        spares: arr_field(v, "spares")?.iter().map(decode_spare).collect::<R<Vec<_>>>()?,
        row_src: decode_remap(field(v, "row_src")?, "row_src")?,
        col_src: decode_remap(field(v, "col_src")?, "col_src")?,
        margin_sum: f64_field(v, "margin_sum")?,
        margin_count: u64_field(v, "margin_count")?,
        packed_calls: u64_field(v, "packed_calls")?,
        aging,
    })
}

fn encode_mlc(w: &mut Writer<'_>, s: &MlcCrossbarState) {
    w.open_obj();
    w.key("eff").arr(s.eff.iter().copied(), Writer::num);
    w.key("row_enabled").arr(s.row_enabled.iter().copied(), Writer::bool);
    encode_counter(w.key("counter"), &s.counter);
    w.key("margin_sum").num(s.margin_sum);
    w.key("margin_count").hex(s.margin_count);
    w.close_obj();
}

fn decode_mlc(v: &Json) -> R<MlcCrossbarState> {
    Ok(MlcCrossbarState {
        eff: f64s_field(v, "eff")?,
        row_enabled: bools_field(v, "row_enabled")?,
        counter: decode_counter(field(v, "counter")?)?,
        margin_sum: f64_field(v, "margin_sum")?,
        margin_count: u64_field(v, "margin_count")?,
    })
}

fn encode_arbiter(w: &mut Writer<'_>, s: &ArbiterState) {
    w.open_obj();
    w.key("bit_sources").arr(&s.bit_sources, encode_rng);
    w.key("bits_used").hex(s.bits_used);
    w.close_obj();
}

fn decode_arbiter(v: &Json) -> R<ArbiterState> {
    Ok(ArbiterState {
        bit_sources: decode_rngs(v, "bit_sources")?,
        bits_used: u64_field(v, "bits_used")?,
    })
}

fn encode_block(w: &mut Writer<'_>, state: &BlockState) {
    w.open_obj();
    match state {
        BlockState::Conv { xbar, local } => {
            w.key("kind").str("conv");
            encode_crossbar(w.key("xbar"), xbar);
            encode_counter(w.key("local"), local);
        }
        BlockState::Fc { xbar, local } => {
            w.key("kind").str("fc");
            encode_crossbar(w.key("xbar"), xbar);
            encode_counter(w.key("local"), local);
        }
        BlockState::FcSpinBayes { xbars, arbiter, local } => {
            w.key("kind").str("fc_spinbayes");
            w.key("xbars").arr(xbars, encode_mlc);
            encode_arbiter(w.key("arbiter"), arbiter);
            encode_counter(w.key("local"), local);
        }
        BlockState::DigitalFc { local } => {
            w.key("kind").str("digital_fc");
            encode_counter(w.key("local"), local);
        }
        BlockState::Norm { mean, var, stats, local } => {
            w.key("kind").str("norm");
            write_f32s(w.key("mean"), mean);
            write_f32s(w.key("var"), var);
            w.key("stats_count").hex(stats.count);
            w.key("stats_mean").arr(stats.mean.iter().copied(), Writer::num);
            w.key("stats_m2").arr(stats.m2.iter().copied(), Writer::num);
            encode_counter(w.key("local"), local);
        }
        BlockState::InvNorm { modules, local } => {
            w.key("kind").str("inv_norm");
            match modules {
                None => w.key("modules").null(),
                Some((g, b)) => w.key("modules").arr([g, b], encode_rng),
            }
            encode_counter(w.key("local"), local);
        }
        BlockState::DropPerNeuron { modules } => {
            w.key("kind").str("drop_per_neuron");
            w.key("modules").arr(modules, encode_rng);
        }
        BlockState::DropPerChannel { modules } => {
            w.key("kind").str("drop_per_channel");
            w.key("modules").arr(modules, encode_rng);
        }
        BlockState::DropScale { module, local } => {
            w.key("kind").str("drop_scale");
            encode_rng(w.key("module"), module);
            encode_counter(w.key("local"), local);
        }
        BlockState::DropViScale { local } => {
            w.key("kind").str("drop_vi_scale");
            encode_counter(w.key("local"), local);
        }
        BlockState::Stateless => w.key("kind").str("stateless"),
    }
    w.close_obj();
}

fn decode_block(v: &Json) -> R<BlockState> {
    let kind = str_field(v, "kind")?;
    Ok(match kind {
        "conv" => BlockState::Conv {
            xbar: decode_crossbar(field(v, "xbar")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "fc" => BlockState::Fc {
            xbar: decode_crossbar(field(v, "xbar")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "fc_spinbayes" => BlockState::FcSpinBayes {
            xbars: arr_field(v, "xbars")?.iter().map(decode_mlc).collect::<R<Vec<_>>>()?,
            arbiter: decode_arbiter(field(v, "arbiter")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "digital_fc" => BlockState::DigitalFc { local: decode_counter(field(v, "local")?)? },
        "norm" => BlockState::Norm {
            mean: f32s_field(v, "mean")?,
            var: f32s_field(v, "var")?,
            stats: crate::blocks::FeatureStats {
                count: u64_field(v, "stats_count")?,
                mean: f64s_field(v, "stats_mean")?,
                m2: f64s_field(v, "stats_m2")?,
            },
            local: decode_counter(field(v, "local")?)?,
        },
        "inv_norm" => BlockState::InvNorm {
            modules: match field(v, "modules")? {
                Json::Null => None,
                arr => {
                    let items =
                        arr.as_arr().ok_or_else(|| bad("inv_norm modules is not an array"))?;
                    if items.len() != 2 {
                        return Err(bad("inv_norm modules must hold exactly 2 states"));
                    }
                    Some((decode_rng(&items[0])?, decode_rng(&items[1])?))
                }
            },
            local: decode_counter(field(v, "local")?)?,
        },
        "drop_per_neuron" => BlockState::DropPerNeuron { modules: decode_rngs(v, "modules")? },
        "drop_per_channel" => BlockState::DropPerChannel { modules: decode_rngs(v, "modules")? },
        "drop_scale" => BlockState::DropScale {
            module: decode_rng(field(v, "module")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "drop_vi_scale" => BlockState::DropViScale { local: decode_counter(field(v, "local")?)? },
        "stateless" => BlockState::Stateless,
        other => return Err(bad(format!("unknown block kind '{other}'"))),
    })
}

fn encode_model(w: &mut Writer<'_>, state: &ModelState) {
    w.open_obj();
    w.key("blocks").arr(&state.blocks, encode_block);
    encode_counter(w.key("baseline"), &state.baseline);
    encode_counter(w.key("extra"), &state.extra);
    w.close_obj();
}

fn decode_model(v: &Json) -> R<ModelState> {
    Ok(ModelState {
        blocks: arr_field(v, "blocks")?.iter().map(decode_block).collect::<R<Vec<_>>>()?,
        baseline: decode_counter(field(v, "baseline")?)?,
        extra: decode_counter(field(v, "extra")?)?,
    })
}

fn encode_policy(w: &mut Writer<'_>, p: HealthPolicy) {
    w.num(f64::from(p.tier_index()));
}

fn decode_policy(v: &Json, ctx: &str) -> R<HealthPolicy> {
    let tier = v.as_f64().ok_or_else(|| bad(format!("'{ctx}' is not a tier number")))? as u32;
    Ok(HealthPolicy::from_tier_index(tier))
}

fn encode_monitor(w: &mut Writer<'_>, state: &MonitorState) {
    w.open_obj();
    w.key("abstain_entropy").num(state.abstain_entropy);
    w.key("window").arr(state.window.iter().copied(), write_pair);
    match state.baseline {
        None => w.key("baseline").null(),
        Some(p) => write_pair(w.key("baseline"), p),
    }
    encode_policy(w.key("latched"), state.latched);
    encode_policy(w.key("pending"), state.pending);
    w.key("pending_count").num(state.pending_count as f64);
    w.close_obj();
}

fn decode_monitor(v: &Json) -> R<MonitorState> {
    let window = arr_field(v, "window")?
        .iter()
        .map(|p| pair(p, "window entry"))
        .collect::<R<Vec<_>>>()?;
    let baseline = match field(v, "baseline")? {
        Json::Null => None,
        p => Some(pair(p, "baseline")?),
    };
    Ok(MonitorState {
        abstain_entropy: f64_field(v, "abstain_entropy")?,
        window,
        baseline,
        latched: decode_policy(field(v, "latched")?, "latched")?,
        pending: decode_policy(field(v, "pending")?, "pending")?,
        pending_count: usize_field(v, "pending_count")?,
    })
}

fn encode_action(w: &mut Writer<'_>, a: RecoveryAction) {
    w.str(&a.to_string());
}

fn decode_action(v: &Json, ctx: &str) -> R<RecoveryAction> {
    match v.as_str().ok_or_else(|| bad(format!("'{ctx}' is not an action string")))? {
        "scrub" => Ok(RecoveryAction::Scrub),
        "recalibrate" => Ok(RecoveryAction::Recalibrate),
        "remap_tier" => Ok(RecoveryAction::RemapTier),
        "abstain" => Ok(RecoveryAction::Abstain),
        other => Err(bad(format!("unknown recovery action '{other}'"))),
    }
}

fn encode_event(w: &mut Writer<'_>, e: &RecoveryEvent) {
    w.open_obj();
    w.key("at_hours").num(e.at_hours);
    w.key("step").num(e.step as f64);
    encode_action(w.key("action"), e.action);
    encode_policy(w.key("policy"), e.policy);
    w.key("cells_refreshed").num(e.cells_refreshed as f64);
    w.key("flagged").num(e.flagged as f64);
    w.key("repaired").num(e.repaired as f64);
    w.key("energy_j").num(e.energy.0);
    w.close_obj();
}

fn decode_event(v: &Json) -> R<RecoveryEvent> {
    Ok(RecoveryEvent {
        at_hours: f64_field(v, "at_hours")?,
        step: usize_field(v, "step")?,
        action: decode_action(field(v, "action")?, "action")?,
        policy: decode_policy(field(v, "policy")?, "policy")?,
        cells_refreshed: usize_field(v, "cells_refreshed")?,
        flagged: usize_field(v, "flagged")?,
        repaired: usize_field(v, "repaired")?,
        energy: Joules(f64_field(v, "energy_j")?),
    })
}

fn encode_supervisor(w: &mut Writer<'_>, state: &SupervisorState) {
    w.open_obj();
    encode_model(w.key("model"), &state.model);
    encode_monitor(w.key("monitor"), &state.monitor);
    w.key("calib_shape").arr(state.calib.shape().iter().map(|&d| d as f64), Writer::num);
    write_f32s(w.key("calib_data"), state.calib.as_slice());
    w.key("now_hours").num(state.now_hours);
    w.key("last_scrub_hours").num(state.last_scrub_hours);
    w.key("step").num(state.step as f64);
    encode_policy(w.key("engaged_tier"), state.engaged_tier);
    w.key("commissioned").bool(state.commissioned);
    w.key("events").arr(&state.events, encode_event);
    w.close_obj();
}

fn decode_supervisor(v: &Json) -> R<SupervisorState> {
    let shape = arr_field(v, "calib_shape")?
        .iter()
        .map(|d| {
            d.as_f64().map(|f| f as usize).ok_or_else(|| bad("calib_shape holds a non-number"))
        })
        .collect::<R<Vec<usize>>>()?;
    let data = f32s_field(v, "calib_data")?;
    if shape.iter().product::<usize>() != data.len() {
        return Err(bad(format!(
            "calib tensor shape {:?} does not match {} data elements",
            shape,
            data.len()
        )));
    }
    Ok(SupervisorState {
        model: decode_model(field(v, "model")?)?,
        monitor: decode_monitor(field(v, "monitor")?)?,
        calib: Tensor::from_vec(data, &shape),
        now_hours: f64_field(v, "now_hours")?,
        last_scrub_hours: f64_field(v, "last_scrub_hours")?,
        step: usize_field(v, "step")?,
        engaged_tier: decode_policy(field(v, "engaged_tier")?, "engaged_tier")?,
        commissioned: bool_field(v, "commissioned")?,
        events: arr_field(v, "events")?.iter().map(decode_event).collect::<R<Vec<_>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::model::{HardwareConfig, HardwareModel};
    use crate::runtime::{Supervisor, SupervisorConfig};
    use crate::testutil::{small_commissioned_supervisor, small_inputs};
    use neuspin_bayes::{build_cnn, ArchConfig, Method, Predictive};
    use neuspin_cim::{BistConfig, CrossbarConfig};
    use neuspin_device::{AgingConfig, DefectRates};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_pred_eq(a: &Predictive, b: &Predictive, label: &str) {
        assert_eq!(a.passes, b.passes, "{label}: pass count diverged");
        assert_eq!(a.mean_probs.shape(), b.mean_probs.shape(), "{label}: shape diverged");
        for (x, y) in a.mean_probs.as_slice().iter().zip(b.mean_probs.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: mean_probs diverged");
        }
        for (x, y) in a.entropy.iter().zip(&b.entropy) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: entropy diverged");
        }
        for (x, y) in a.mutual_information.iter().zip(&b.mutual_information) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: MI diverged");
        }
        for (x, y) in a.variance.iter().zip(&b.variance) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: variance diverged");
        }
    }

    #[derive(Clone, Copy)]
    struct Case {
        seed: u64,
        hidden: usize,
        defects: bool,
        spares: usize,
        /// 0 = fresh (one served batch), 1 = aged (scheduled scrubs),
        /// 2 = stressed (hair-trigger health ladder, heavy aging).
        schedule: u8,
    }

    /// The deterministic twin constructor: everything immutable about
    /// the die (weights, geometry, defects, spares, config, seeds) —
    /// and nothing mutable (no commissioning, no lifetime).
    fn build_die(case: &Case) -> Supervisor {
        let arch = ArchConfig {
            c1: 2,
            c2: 4,
            hidden: case.hidden,
            classes: 4,
            side: 8,
            ..ArchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(case.seed);
        let mut sw = build_cnn(Method::SpinDrop, &arch, &mut rng);
        let config = HardwareConfig {
            crossbar: CrossbarConfig {
                defect_rates: if case.defects {
                    DefectRates::uniform(0.002)
                } else {
                    DefectRates::none()
                },
                ..CrossbarConfig::ideal()
            },
            passes: 2,
            spare_cols: case.spares,
            ..HardwareConfig::default()
        };
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &arch, &config, &mut rng);
        if case.defects || case.spares > 0 {
            hw.fault_management(&BistConfig::default(), &mut rng);
        }
        hw.enable_aging(&AgingConfig { seed: case.seed ^ 0xA9, ..AgingConfig::default() });
        let health = if case.schedule == 2 {
            HealthConfig { entropy_slack: 1e-6, margin_slack: 1e-6, dwell: 1, ..HealthConfig::default() }
        } else {
            HealthConfig::default()
        };
        let scrub = if case.schedule == 1 { 60.0 } else { 0.0 };
        Supervisor::new(
            hw,
            SupervisorConfig {
                seed: case.seed,
                health,
                scrub_interval_hours: scrub,
                ..SupervisorConfig::default()
            },
        )
    }

    /// Commission + the case's lifetime schedule: the mutable history a
    /// checkpoint must carry.
    fn drive(sup: &mut Supervisor, case: &Case) {
        sup.commission(small_inputs(8, case.seed), &small_inputs(4, case.seed.wrapping_add(1)));
        let probe = small_inputs(3, case.seed ^ 0x77);
        match case.schedule {
            0 => {
                sup.serve_predict(&probe, case.seed ^ 0x51);
            }
            1 => {
                for _ in 0..3 {
                    sup.step(&probe, 40.0);
                }
            }
            _ => {
                for _ in 0..2 {
                    sup.step(&probe, 100.0);
                }
            }
        }
    }

    /// The 96-case round-trip battery: geometry × defects × spares ×
    /// lifetime schedule × seed. Each case drives a die through its
    /// schedule, checkpoints it, restores the checkpoint onto a fresh
    /// twin, and proves the two are bit-identical through three more
    /// supervisor operations (serve → age-step → serve) — outputs *and*
    /// full re-serialized state.
    #[test]
    fn battery_checkpoint_roundtrip_96() {
        let mut cases = 0usize;
        let mut latched = 0usize;
        for &hidden in &[12usize, 16] {
            for &defects in &[false, true] {
                for &spares in &[0usize, 2] {
                    for schedule in 0u8..3 {
                        for s in 0u64..4 {
                            cases += 1;
                            let seed = 0x5EED_0000u64
                                .wrapping_add((cases as u64).wrapping_mul(0x9D))
                                .wrapping_add(s);
                            let case = Case { seed, hidden, defects, spares, schedule };
                            let label = format!(
                                "case {cases} (seed {seed:#x} hidden {hidden} defects {defects} \
                                 spares {spares} schedule {schedule})"
                            );

                            let mut a = build_die(&case);
                            drive(&mut a, &case);
                            if a.policy() > crate::HealthPolicy::Healthy {
                                latched += 1;
                            }

                            let encoded = a.checkpoint();
                            let decoded = Checkpoint::decode(&encoded)
                                .unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
                            assert_eq!(
                                Checkpoint::encode_state(&decoded.state),
                                encoded,
                                "{label}: decode → re-encode is not byte-stable"
                            );

                            let mut b = build_die(&case);
                            b.restore(&decoded);

                            let probe = small_inputs(2, seed ^ 0x1111);
                            let ra = a.serve_predict(&probe, seed ^ 7);
                            let rb = b.serve_predict(&probe, seed ^ 7);
                            assert_pred_eq(&ra.predictive, &rb.predictive, &label);
                            let sa = a.step(&probe, 12.5);
                            let sb = b.step(&probe, 12.5);
                            assert_pred_eq(&sa.predictive, &sb.predictive, &label);
                            let ta = a.serve_predict(&probe, seed ^ 9);
                            let tb = b.serve_predict(&probe, seed ^ 9);
                            assert_pred_eq(&ta.predictive, &tb.predictive, &label);

                            assert_eq!(
                                a.checkpoint(),
                                b.checkpoint(),
                                "{label}: full state diverged after continuation"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 96);
        assert!(
            latched > 0,
            "battery never latched a degraded tier — the stressed schedule is toothless"
        );
    }

    const LOCK_SEED: u64 = 0xC0DE_C4EC;

    /// `(fnv1a, length)` of the lock die's checkpoint per method,
    /// captured before the encoder was rewritten as a streaming writer.
    const LOCK_GOLDEN: [(Method, u64, usize); 7] = [
        (Method::Deterministic, 0x8990434e0bae34d4, 90074),
        (Method::SpinDrop, 0x8de0cb3e151a05ed, 110007),
        (Method::SpatialSpinDrop, 0xb1d12557ae27c43d, 92245),
        (Method::SpinScaleDrop, 0x6f4a982db9b565f4, 90931),
        (Method::AffineDropout, 0x60a7ec903355a65c, 88802),
        (Method::SubsetVi, 0x8ebd5c77b2c6024d, 90642),
        (Method::SpinBayes, 0x40ff7848767c59e4, 87298),
    ];

    /// The lock die for `method` on a one-worker pool: a small CNN with
    /// fabrication defects, two spare columns per crossbar, fault
    /// management (spare repair, then fault-aware remap) and aging,
    /// commissioned, served, and stepped past a scheduled scrub.
    fn lock_die(method: Method) -> Supervisor {
        let arch = ArchConfig {
            c1: 2,
            c2: 4,
            hidden: 16,
            classes: 4,
            side: 8,
            ..ArchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(LOCK_SEED);
        let sw_method = if method == Method::SpinBayes {
            Method::Deterministic
        } else {
            method
        };
        let mut sw = build_cnn(sw_method, &arch, &mut rng);
        let config = HardwareConfig {
            crossbar: CrossbarConfig {
                defect_rates: DefectRates::uniform(0.01),
                ..CrossbarConfig::ideal()
            },
            passes: 2,
            spare_cols: 2,
            ..HardwareConfig::default()
        };
        let mut hw = HardwareModel::compile(&mut sw, method, &arch, &config, &mut rng);
        hw.fault_management(&BistConfig::default(), &mut rng);
        hw.enable_aging(&AgingConfig {
            seed: LOCK_SEED ^ 0xA9,
            ..AgingConfig::default()
        });
        let mut sup = Supervisor::new(
            hw,
            SupervisorConfig {
                seed: LOCK_SEED,
                scrub_interval_hours: 60.0,
                ..SupervisorConfig::default()
            },
        );
        sup.set_threads(1);
        sup.commission(small_inputs(8, LOCK_SEED), &small_inputs(4, LOCK_SEED + 1));
        let probe = small_inputs(3, LOCK_SEED ^ 0x77);
        sup.serve_predict(&probe, LOCK_SEED ^ 0x51);
        sup.step(&probe, 40.0);
        sup.step(&probe, 40.0);
        sup
    }

    /// Byte lock on the encoder for every method's block mix: the
    /// checkpoint hashes to its captured value, is exactly the canonical
    /// compact form of its own parse, and decode → encode reproduces it.
    #[test]
    fn checkpoint_bytes_are_locked_for_every_method() {
        let mut kinds = std::collections::BTreeSet::new();
        for &(method, hash, len) in &LOCK_GOLDEN {
            let cp = lock_die(method).checkpoint();
            let root = parse(&cp).unwrap_or_else(|e| panic!("{method:?}: {e}"));
            assert_eq!(
                root.to_string(),
                cp,
                "{method:?}: not the canonical compact form"
            );
            let decoded = Checkpoint::decode(&cp).unwrap_or_else(|e| panic!("{method:?}: {e}"));
            assert_eq!(
                Checkpoint::encode_state(&decoded.state),
                cp,
                "{method:?}: decode → re-encode is not byte-stable"
            );

            // The die must reach every part of the crossbar encoder.
            let xbars: Vec<&CrossbarState> = decoded
                .state
                .model
                .blocks
                .iter()
                .filter_map(|b| match b {
                    BlockState::Conv { xbar, .. } | BlockState::Fc { xbar, .. } => Some(xbar),
                    _ => None,
                })
                .collect();
            assert!(!xbars.is_empty(), "{method:?}: no binary crossbar");
            assert!(
                xbars.iter().all(|x| !x.spares.is_empty()),
                "{method:?}: no spares"
            );
            assert!(
                xbars.iter().all(|x| x.aging.is_some()),
                "{method:?}: aging off"
            );
            assert!(
                xbars.iter().any(|x| !x.defects.is_empty()),
                "{method:?}: no defects"
            );
            assert!(
                xbars.iter().any(|x| x.col_src.is_some()),
                "{method:?}: no column remap"
            );
            let blocks = root
                .get("payload")
                .and_then(|p| p.get("model"))
                .and_then(|m| m.get("blocks"));
            for block in blocks.and_then(Json::as_arr).expect("payload.model.blocks") {
                kinds.insert(
                    block
                        .get("kind")
                        .and_then(Json::as_str)
                        .expect("kind")
                        .to_string(),
                );
            }

            assert_eq!(
                (fnv1a(cp.as_bytes()), cp.len()),
                (hash, len),
                "{method:?}: bytes moved"
            );
        }
        let all = [
            "conv",
            "fc",
            "fc_spinbayes",
            "digital_fc",
            "norm",
            "inv_norm",
            "drop_per_neuron",
            "drop_per_channel",
            "drop_scale",
            "drop_vi_scale",
            "stateless",
        ];
        let missing: Vec<_> = all.iter().filter(|k| !kinds.contains(**k)).collect();
        assert!(missing.is_empty(), "block kinds never encoded: {missing:?}");
    }

    /// A checkpoint taken on one pool width restores onto a twin that
    /// runs another, and the two dies continue bit-identically through
    /// serve → step → serve, from 1 worker to 4 and from 4 to 1.
    #[test]
    fn restore_across_pool_widths_is_bit_identical() {
        let case = Case { seed: 0x71D7, hidden: 16, defects: true, spares: 2, schedule: 1 };
        for (from, to) in [(1, 4), (4, 1)] {
            let label = format!("pool width {from} -> {to}");
            let mut a = build_die(&case);
            a.set_threads(from);
            drive(&mut a, &case);
            let mut b = build_die(&case);
            b.set_threads(to);
            b.restore_from_str(&a.checkpoint()).expect("restore");

            let probe = small_inputs(3, 0x3D);
            let (ra, rb) = (a.serve_predict(&probe, 0x41), b.serve_predict(&probe, 0x41));
            assert_pred_eq(&ra.predictive, &rb.predictive, &label);
            let (sa, sb) = (a.step(&probe, 25.0), b.step(&probe, 25.0));
            assert_pred_eq(&sa.predictive, &sb.predictive, &label);
            let (ta, tb) = (a.serve_predict(&probe, 0x42), b.serve_predict(&probe, 0x42));
            assert_pred_eq(&ta.predictive, &tb.predictive, &label);
            // Replica passes tally into the model-wide counter, not the
            // crossbars', so only the totals compare across widths.
            assert_eq!(a.model().counter(), b.model().counter(), "{label}: op totals diverged");
        }
    }

    /// Re-serializes a parsed checkpoint after mutating its top-level
    /// header pairs.
    fn tamper(encoded: &str, f: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
        let mut root = parse(encoded).expect("donor checkpoint must parse");
        if let Json::Obj(ref mut pairs) = root {
            f(pairs);
        }
        root.to_string()
    }

    fn set_field(pairs: &mut [(String, Json)], key: &str, value: Json) {
        for (k, v) in pairs.iter_mut() {
            if k == key {
                *v = value;
                return;
            }
        }
        panic!("field '{key}' not found");
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(matches!(
            Checkpoint::decode("not json at all"),
            Err(CheckpointError::Malformed(_))
        ));
        let encoded = small_commissioned_supervisor(7).checkpoint();
        assert!(matches!(
            Checkpoint::decode(&encoded[..encoded.len() - 8]),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_wrong_format_and_version() {
        let encoded = small_commissioned_supervisor(8).checkpoint();
        let wrong_format =
            tamper(&encoded, |p| set_field(p, "format", Json::Str("neuspin-bench".into())));
        assert!(matches!(
            Checkpoint::decode(&wrong_format),
            Err(CheckpointError::FormatMismatch(f)) if f == "neuspin-bench"
        ));
        let wrong_version = tamper(&encoded, |p| set_field(p, "version", Json::Num(2.0)));
        assert!(matches!(
            Checkpoint::decode(&wrong_version),
            Err(CheckpointError::VersionMismatch { found: 2 })
        ));
    }

    #[test]
    fn decode_rejects_payload_bit_rot() {
        let encoded = small_commissioned_supervisor(9).checkpoint();
        // Flip one payload field without updating the checksum: the
        // document still parses, but the content hash must catch it.
        let rotted = tamper(&encoded, |p| {
            for (k, v) in p.iter_mut() {
                if k == "payload" {
                    if let Json::Obj(ref mut fields) = v {
                        set_field(fields, "commissioned", Json::Bool(false));
                    }
                }
            }
        });
        assert!(matches!(
            Checkpoint::decode(&rotted),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_missing_payload_field_even_with_valid_checksum() {
        let encoded = small_commissioned_supervisor(10).checkpoint();
        let gutted = tamper(&encoded, |p| {
            let mut payload = None;
            for (k, v) in p.iter_mut() {
                if k == "payload" {
                    if let Json::Obj(ref mut fields) = v {
                        fields.retain(|(k, _)| k != "step");
                    }
                    payload = Some(v.to_string());
                }
            }
            let checksum = format!("{:016x}", fnv1a(payload.expect("payload").as_bytes()));
            set_field(p, "checksum", Json::Str(checksum));
        });
        assert!(matches!(
            Checkpoint::decode(&gutted),
            Err(CheckpointError::Malformed(m)) if m.contains("step")
        ));
    }

    #[test]
    fn failed_restore_leaves_the_supervisor_untouched() {
        let mut sup = small_commissioned_supervisor(12);
        let before = sup.checkpoint();
        let err = sup.restore_from_str("{\"format\": \"junk\"}");
        assert!(err.is_err());
        assert_eq!(sup.checkpoint(), before, "failed restore must not mutate state");
    }

    #[test]
    fn periodic_checkpointing_tracks_the_interval() {
        let mut sup = small_commissioned_supervisor(13);
        assert!(sup.last_checkpoint().is_none(), "interval 0 must disable checkpointing");
        sup.serve_predict(&small_inputs(2, 1), 5);
        assert!(sup.last_checkpoint().is_none());

        let case = Case { seed: 0xCAFE, hidden: 12, defects: false, spares: 0, schedule: 0 };
        let config = SupervisorConfig {
            seed: case.seed,
            checkpoint_interval_steps: 2,
            ..SupervisorConfig::default()
        };
        let mut periodic = Supervisor::new(build_die(&case).into_model(), config);
        periodic.commission(small_inputs(8, case.seed), &small_inputs(4, case.seed + 1));
        let probe = small_inputs(2, 3);
        periodic.serve_predict(&probe, 11); // step 1: no checkpoint
        assert!(periodic.last_checkpoint().is_none());
        periodic.serve_predict(&probe, 12); // step 2: checkpoint
        let first = periodic.last_checkpoint().expect("step 2 must checkpoint").to_string();
        Checkpoint::decode(&first).expect("periodic checkpoint must decode");
        periodic.serve_predict(&probe, 13); // step 3: retained
        assert_eq!(periodic.last_checkpoint(), Some(first.as_str()));
        periodic.serve_predict(&probe, 14); // step 4: refreshed
        let second = periodic.last_checkpoint().expect("step 4 must checkpoint");
        assert_ne!(second, first, "step counter advanced, so the checkpoint must differ");
    }

    /// The fleet rejoin property: a BIST audit on a restored die leaves
    /// its predictions bit-identical to the uninterrupted original (the
    /// march test restores array contents exactly), and a healthy die
    /// passes the gate.
    #[test]
    fn bist_gate_passes_and_preserves_predictions_after_restore() {
        let case = Case { seed: 0xB157, hidden: 16, defects: true, spares: 2, schedule: 1 };
        let mut original = build_die(&case);
        drive(&mut original, &case);
        let encoded = original.checkpoint();

        let mut twin = build_die(&case);
        twin.restore_from_str(&encoded).expect("restore");
        let gate = twin.bist_gate();
        assert!(gate.passed, "healthy restored die must pass the gate: {:?}", gate.layers);
        assert!(!gate.layers.is_empty());

        let probe = small_inputs(3, 0xF00D);
        for round in 0..2u64 {
            let a = original.serve_predict(&probe, 0x9A + round);
            let b = twin.serve_predict(&probe, 0x9A + round);
            assert_pred_eq(&a.predictive, &b.predictive, &format!("post-gate round {round}"));
        }
    }
}

//! The on-disk checkpoint format: envelope, checksum, and state codec.
//!
//! A checkpoint file is a single-line JSON *envelope* with a fixed,
//! canonical layout:
//!
//! ```json
//! {"version":1,"payload":"<escaped JSON>","checksum":"<16 hex digits>"}
//! ```
//!
//! The payload is itself JSON — `{"meta":…,"state":…}` — carried as an
//! escaped string so the checksum has an exact byte sequence to cover:
//! FNV-1a-64 over the unescaped payload bytes. Reads verify in trust
//! order: the version is checked before anything else (a future format
//! is rejected as [`CkptError::VersionMismatch`], never misparsed), the
//! checksum before the payload is decoded (bit rot is
//! [`CkptError::ChecksumMismatch`], never a confusing shape error), and
//! only then is the state parsed. A file that ends early is
//! [`CkptError::Truncated`]; any other deviation from the canonical
//! layout is [`CkptError::Malformed`] with the byte offset.
//!
//! Seeds, fingerprints and energies follow the workspace hex/bits rule
//! described in [`mogs_mrf::codec`]: the whole point of a checkpoint is
//! *bit*-identical resume, so no `u64` or `f64` travels as a JSON number.

use mogs_engine::{Degraded, FaultState, JobState, ShardBinding, StateBinding};
use mogs_gibbs::kernel::UnitFault;
use mogs_mrf::codec::{
    fnv1a, parse_hex, read_hex_u64, read_object, required, F64Bits, ObjectWriter,
};
use mogs_mrf::Label;
use serde::de::{self, Parser};
use serde::{Deserialize, Serialize};

use crate::error::CkptError;

/// The one envelope version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// One durable checkpoint: the engine's captured [`JobState`] plus an
/// opaque caller blob (`mogs-serve` stores the original request JSON so
/// a recovery scan can rebuild the spec without a database).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Caller-owned context, stored and returned verbatim.
    pub meta: String,
    /// The engine's resumable state.
    pub state: JobState,
}

/// Encodes a checkpoint into its complete envelope text.
#[must_use]
pub fn encode(checkpoint: &Checkpoint) -> String {
    let mut payload = String::with_capacity(256);
    ObjectWriter::new(&mut payload)
        .field("meta", &checkpoint.meta)
        .with("state", |out| write_state(&checkpoint.state, out))
        .end();
    seal(&payload)
}

/// Wraps arbitrary payload text in a versioned, checksummed envelope.
///
/// This is the envelope half of [`encode`], exposed so tests (and
/// tools) can seal payloads that are *not* valid checkpoints and prove
/// the decoder rejects them as [`CkptError::State`] rather than
/// blaming the envelope.
#[must_use]
pub fn seal(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 64);
    ObjectWriter::new(&mut out)
        .field("version", &FORMAT_VERSION)
        .field("payload", payload)
        .hex_u64("checksum", fnv1a(payload.as_bytes()))
        .end();
    out
}

/// Decodes a complete envelope back into a checkpoint.
///
/// # Errors
///
/// [`CkptError::Truncated`], [`CkptError::Malformed`],
/// [`CkptError::VersionMismatch`], [`CkptError::ChecksumMismatch`], or
/// [`CkptError::State`] — see the module docs for the verification
/// order.
pub fn decode(input: &str) -> Result<Checkpoint, CkptError> {
    let payload = open_envelope(input)?;
    parse_payload(&payload)
}

/// Verifies the envelope (version, layout, checksum) and returns the
/// payload text without decoding it.
///
/// # Errors
///
/// [`CkptError::Truncated`], [`CkptError::Malformed`],
/// [`CkptError::VersionMismatch`], or [`CkptError::ChecksumMismatch`].
pub fn open_envelope(input: &str) -> Result<String, CkptError> {
    let mut scan = Scan { s: input, pos: 0 };
    scan.lit("{\"version\":")?;
    let found = scan.digits_u32()?;
    if found != FORMAT_VERSION {
        return Err(CkptError::VersionMismatch {
            found,
            supported: FORMAT_VERSION,
        });
    }
    scan.lit(",\"payload\":")?;
    let payload = scan.string()?;
    scan.lit(",\"checksum\":\"")?;
    let stored = scan.hex16()?;
    scan.lit("\"}")?;
    if !input[scan.pos..].chars().all(char::is_whitespace) {
        return Err(CkptError::Malformed { offset: scan.pos });
    }
    let computed = fnv1a(payload.as_bytes());
    if parse_hex(&stored) != Some(computed) {
        return Err(CkptError::ChecksumMismatch {
            stored,
            computed: format!("{computed:016x}"),
        });
    }
    Ok(payload)
}

/// Checks that a decoded state belongs under `expected`'s spec facts.
///
/// The engine re-validates at [`Engine::resume`](mogs_engine::Engine),
/// but callers that want to *select* among checkpoints (the serve
/// recovery scan, the repro ladder) use this to get the typed
/// [`CkptError::BindingMismatch`] without constructing a job.
///
/// # Errors
///
/// [`CkptError::BindingMismatch`] naming the first differing field.
pub fn verify_binding(state: &JobState, expected: &StateBinding) -> Result<(), CkptError> {
    state
        .binding
        .matches(expected)
        .map_err(|reason| CkptError::BindingMismatch { reason })
}

// ---------------------------------------------------------------------
// Envelope scanner: strict canonical layout, byte-accurate errors.
// ---------------------------------------------------------------------

struct Scan<'a> {
    s: &'a str,
    pos: usize,
}

impl Scan<'_> {
    /// Consumes `lit` exactly. A proper prefix at end-of-input is
    /// `Truncated`; any diverging byte is `Malformed` at its offset.
    fn lit(&mut self, lit: &str) -> Result<(), CkptError> {
        let rest = &self.s[self.pos..];
        if rest.starts_with(lit) {
            self.pos += lit.len();
            return Ok(());
        }
        for (i, (a, b)) in rest.bytes().zip(lit.bytes()).enumerate() {
            if a != b {
                return Err(CkptError::Malformed {
                    offset: self.pos + i,
                });
            }
        }
        Err(CkptError::Truncated)
    }

    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    fn digits_u32(&mut self) -> Result<u32, CkptError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return if self.pos == self.s.len() {
                Err(CkptError::Truncated)
            } else {
                Err(CkptError::Malformed { offset: self.pos })
            };
        }
        self.s[start..self.pos]
            .parse()
            .map_err(|_| CkptError::Malformed { offset: start })
    }

    /// A JSON string with the escapes the serializer emits (plus `\/`
    /// for tolerance). The opening quote has not been consumed yet.
    fn string(&mut self) -> Result<String, CkptError> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(CkptError::Truncated);
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    let escape_at = self.pos;
                    self.pos += 1;
                    let Some(escaped) = self.peek() else {
                        return Err(CkptError::Truncated);
                    };
                    self.pos += escaped.len_utf8();
                    match escaped {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            if self.s.len() < self.pos + 4 {
                                return Err(CkptError::Truncated);
                            }
                            let code = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(CkptError::Malformed { offset: self.pos })?;
                            out.push(code);
                            self.pos += 4;
                        }
                        _ => return Err(CkptError::Malformed { offset: escape_at }),
                    }
                }
                c if (c as u32) < 0x20 => return Err(CkptError::Malformed { offset: self.pos }),
                c => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Exactly 16 hex digits.
    fn hex16(&mut self) -> Result<String, CkptError> {
        for _ in 0..16 {
            match self.peek() {
                None => return Err(CkptError::Truncated),
                Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                Some(_) => return Err(CkptError::Malformed { offset: self.pos }),
            }
        }
        Ok(self.s[self.pos - 16..self.pos].to_string())
    }
}

// ---------------------------------------------------------------------
// Payload codec: the shared bits-safe object codec over the inner JSON.
// ---------------------------------------------------------------------

fn parse_payload(payload: &str) -> Result<Checkpoint, CkptError> {
    let mut parser = Parser::new(payload);
    let checkpoint = parse_checkpoint(&mut parser).map_err(state_error)?;
    parser.expect_end().map_err(state_error)?;
    Ok(checkpoint)
}

fn state_error(err: de::Error) -> CkptError {
    CkptError::State {
        reason: err.to_string(),
    }
}

fn parse_checkpoint(parser: &mut Parser<'_>) -> Result<Checkpoint, de::Error> {
    let (mut meta, mut state) = (None, None);
    read_object(parser, |p, key| {
        match key {
            "meta" => meta = Some(p.parse_string()?),
            "state" => state = Some(parse_state(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Checkpoint {
        meta: required(parser, "checkpoint", "meta", meta)?,
        state: required(parser, "checkpoint", "state", state)?,
    })
}

fn write_state(state: &JobState, out: &mut String) {
    let energy: Vec<F64Bits> = state.energy_trace.iter().map(|&e| F64Bits(e)).collect();
    let faults: Vec<Option<FaultCodec>> = state
        .kernel_faults
        .iter()
        .map(|f| f.map(FaultCodec))
        .collect();
    ObjectWriter::new(out)
        .with("binding", |out| write_binding(&state.binding, out))
        .field("next_sweep", &state.next_sweep)
        .field("labels", &state.labels)
        .field("energy_trace", &energy)
        .field("histograms", &state.histograms)
        .field("kernel_faults", &faults)
        .with("fault", |out| match &state.fault {
            None => out.push_str("null"),
            Some(fault) => write_fault_state(fault, out),
        })
        .field("sink_state", &state.sink_state)
        .end();
}

fn parse_state(parser: &mut Parser<'_>) -> Result<JobState, de::Error> {
    let (mut binding, mut next_sweep, mut labels, mut energy_trace) = (None, None, None, None);
    let (mut histograms, mut kernel_faults, mut fault, mut sink_state) = (None, None, None, None);
    read_object(parser, |p, key| {
        match key {
            "binding" => binding = Some(parse_binding(p)?),
            "next_sweep" => next_sweep = Some(usize::deserialize_json(p)?),
            "labels" => labels = Some(Vec::deserialize_json(p)?),
            "energy_trace" => {
                let bits = Vec::<F64Bits>::deserialize_json(p)?;
                energy_trace = Some(bits.into_iter().map(|b| b.0).collect());
            }
            "histograms" => histograms = Some(Option::deserialize_json(p)?),
            "kernel_faults" => {
                let faults = Vec::<Option<FaultCodec>>::deserialize_json(p)?;
                kernel_faults = Some(faults.into_iter().map(|f| f.map(|f| f.0)).collect());
            }
            "fault" => {
                fault = Some(if p.consume_literal("null") {
                    None
                } else {
                    Some(parse_fault_state(p)?)
                });
            }
            "sink_state" => sink_state = Some(Option::deserialize_json(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(JobState {
        binding: required(parser, "state", "binding", binding)?,
        next_sweep: required(parser, "state", "next_sweep", next_sweep)?,
        labels: required(parser, "state", "labels", labels)?,
        energy_trace: required(parser, "state", "energy_trace", energy_trace)?,
        histograms: required(parser, "state", "histograms", histograms)?,
        kernel_faults: required(parser, "state", "kernel_faults", kernel_faults)?,
        fault: required(parser, "state", "fault", fault)?,
        sink_state: required(parser, "state", "sink_state", sink_state)?,
    })
}

fn write_binding(binding: &StateBinding, out: &mut String) {
    let mut w = ObjectWriter::new(out);
    w.field("sites", &binding.sites)
        .field("width", &binding.width)
        .field("height", &binding.height)
        .field("labels", &binding.labels)
        .field("iterations", &binding.iterations)
        .field("burn_in", &binding.burn_in)
        .field("threads", &binding.threads)
        .hex_u64("seed", binding.seed)
        .hex_u64("fingerprint", binding.fingerprint)
        .field("kernel", &binding.kernel)
        .field("track_modes", &binding.track_modes)
        .field("record_energy", &binding.record_energy);
    if let Some(shard) = &binding.shard {
        // Emitted only for shard-granular fleet states, so whole-plane
        // checkpoints round-trip byte-identically to the PR-8 format.
        w.with("shard", |out| {
            ObjectWriter::new(out)
                .field("shard", &shard.shard)
                .field("of", &shard.of)
                .field("owned", &shard.owned)
                .hex_u64("sites_digest", shard.sites_digest)
                .end();
        });
    }
    w.end();
}

fn parse_shard_binding(parser: &mut Parser<'_>) -> Result<ShardBinding, de::Error> {
    let (mut shard, mut of, mut owned, mut sites_digest) = (None, None, None, None);
    read_object(parser, |p, key| {
        match key {
            "shard" => shard = Some(usize::deserialize_json(p)?),
            "of" => of = Some(usize::deserialize_json(p)?),
            "owned" => owned = Some(usize::deserialize_json(p)?),
            "sites_digest" => sites_digest = Some(read_hex_u64(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(ShardBinding {
        shard: required(parser, "shard binding", "shard", shard)?,
        of: required(parser, "shard binding", "of", of)?,
        owned: required(parser, "shard binding", "owned", owned)?,
        sites_digest: required(parser, "shard binding", "sites_digest", sites_digest)?,
    })
}

fn parse_binding(parser: &mut Parser<'_>) -> Result<StateBinding, de::Error> {
    let (mut sites, mut width, mut height, mut labels) = (None, None, None, None);
    let (mut iterations, mut burn_in, mut threads) = (None, None, None);
    let (mut seed, mut fingerprint, mut kernel) = (None, None, None);
    let (mut track_modes, mut record_energy, mut shard) = (None, None, None);
    read_object(parser, |p, key| {
        match key {
            "sites" => sites = Some(usize::deserialize_json(p)?),
            "width" => width = Some(usize::deserialize_json(p)?),
            "height" => height = Some(usize::deserialize_json(p)?),
            "labels" => labels = Some(usize::deserialize_json(p)?),
            "iterations" => iterations = Some(usize::deserialize_json(p)?),
            "burn_in" => burn_in = Some(usize::deserialize_json(p)?),
            "threads" => threads = Some(usize::deserialize_json(p)?),
            "seed" => seed = Some(read_hex_u64(p)?),
            "fingerprint" => fingerprint = Some(read_hex_u64(p)?),
            "kernel" => kernel = Some(p.parse_string()?),
            "track_modes" => track_modes = Some(p.parse_bool()?),
            "record_energy" => record_energy = Some(p.parse_bool()?),
            "shard" => shard = Some(parse_shard_binding(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(StateBinding {
        sites: required(parser, "binding", "sites", sites)?,
        width: required(parser, "binding", "width", width)?,
        height: required(parser, "binding", "height", height)?,
        labels: required(parser, "binding", "labels", labels)?,
        iterations: required(parser, "binding", "iterations", iterations)?,
        burn_in: required(parser, "binding", "burn_in", burn_in)?,
        threads: required(parser, "binding", "threads", threads)?,
        seed: required(parser, "binding", "seed", seed)?,
        fingerprint: required(parser, "binding", "fingerprint", fingerprint)?,
        kernel: required(parser, "binding", "kernel", kernel)?,
        track_modes: required(parser, "binding", "track_modes", track_modes)?,
        record_energy: required(parser, "binding", "record_energy", record_energy)?,
        // Absent in every pre-fleet checkpoint: default, not required.
        shard,
    })
}

/// One unit fault on the wire: `{"kind":"dead"}`, `{"kind":"stuck",
/// "label":n}` or `{"kind":"dark","rate":<bits>}` (healthy units are
/// `null` in the surrounding array).
struct FaultCodec(UnitFault);

impl Serialize for FaultCodec {
    fn serialize_json(&self, out: &mut String) {
        let mut w = ObjectWriter::new(out);
        match self.0 {
            UnitFault::Dead => w.field("kind", "dead"),
            UnitFault::Stuck(label) => w.field("kind", "stuck").field("label", &label.value()),
            UnitFault::DarkCount { rate_per_ns } => {
                w.field("kind", "dark").f64_bits("rate", rate_per_ns)
            }
        }
        .end();
    }
}

impl Deserialize for FaultCodec {
    fn deserialize_json(parser: &mut Parser<'_>) -> Result<Self, de::Error> {
        let (mut kind, mut label, mut rate) = (None, None, None);
        read_object(parser, |p, key| {
            match key {
                "kind" => kind = Some(p.parse_string()?),
                "label" => label = Some(u8::deserialize_json(p)?),
                "rate" => rate = Some(F64Bits::deserialize_json(p)?.0),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let fault = match kind.as_deref() {
            Some("dead") => UnitFault::Dead,
            Some("stuck") => {
                let value = required(parser, "stuck fault", "label", label)?;
                let label = Label::try_new(value)
                    .map_err(|_| parser.error("stuck fault: label does not fit in 6 bits"))?;
                UnitFault::Stuck(label)
            }
            Some("dark") => UnitFault::DarkCount {
                rate_per_ns: required(parser, "dark fault", "rate", rate)?,
            },
            _ => return Err(parser.error("fault kind must be 'dead', 'stuck', or 'dark'")),
        };
        Ok(FaultCodec(fault))
    }
}

fn write_fault_state(fault: &FaultState, out: &mut String) {
    ObjectWriter::new(out)
        .field("cursor", &fault.cursor)
        .field("quarantined", &fault.quarantined)
        .with("degraded", |out| match &fault.degraded {
            None => out.push_str("null"),
            Some(degraded) => ObjectWriter::new(out)
                .field("failed_over_at", &degraded.failed_over_at)
                .field("units_lost", &degraded.units_lost)
                .end(),
        })
        .field("poisoned", &fault.poisoned)
        .end();
}

fn parse_fault_state(parser: &mut Parser<'_>) -> Result<FaultState, de::Error> {
    let (mut cursor, mut quarantined, mut degraded, mut poisoned) = (None, None, None, None);
    read_object(parser, |p, key| {
        match key {
            "cursor" => cursor = Some(usize::deserialize_json(p)?),
            "quarantined" => quarantined = Some(Vec::deserialize_json(p)?),
            "degraded" => {
                degraded = Some(if p.consume_literal("null") {
                    None
                } else {
                    Some(parse_degraded(p)?)
                });
            }
            "poisoned" => poisoned = Some(p.parse_bool()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(FaultState {
        cursor: required(parser, "fault state", "cursor", cursor)?,
        quarantined: required(parser, "fault state", "quarantined", quarantined)?,
        degraded: required(parser, "fault state", "degraded", degraded)?,
        poisoned: required(parser, "fault state", "poisoned", poisoned)?,
    })
}

fn parse_degraded(parser: &mut Parser<'_>) -> Result<Degraded, de::Error> {
    let (mut failed_over_at, mut units_lost) = (None, None);
    read_object(parser, |p, key| {
        match key {
            "failed_over_at" => failed_over_at = Some(usize::deserialize_json(p)?),
            "units_lost" => units_lost = Some(usize::deserialize_json(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Degraded {
        failed_over_at: required(parser, "degraded", "failed_over_at", failed_over_at)?,
        units_lost: required(parser, "degraded", "units_lost", units_lost)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::Degraded;

    fn demo_state() -> JobState {
        JobState {
            binding: StateBinding {
                sites: 12,
                width: 4,
                height: 3,
                labels: 3,
                iterations: 10,
                burn_in: 2,
                threads: 2,
                seed: 0xDEAD_BEEF_CAFE_F00D,
                fingerprint: u64::MAX - 5,
                kernel: "rsu-pool\"escaped\"".to_string(),
                track_modes: true,
                record_energy: true,
                shard: Some(ShardBinding {
                    shard: 1,
                    of: 3,
                    owned: 4,
                    sites_digest: 0xFEED_FACE_0123_4567,
                }),
            },
            next_sweep: 4,
            labels: vec![0, 1, 2, 1, 0, 2, 2, 1, 0, 0, 1, 2],
            energy_trace: vec![-14.25, 3.5e-300, 0.0],
            histograms: Some(vec![7; 36]),
            kernel_faults: vec![
                None,
                Some(UnitFault::Dead),
                Some(UnitFault::Stuck(Label::new(2))),
                Some(UnitFault::DarkCount { rate_per_ns: 0.125 }),
            ],
            fault: Some(FaultState {
                cursor: 3,
                quarantined: vec![false, true, false, false],
                degraded: Some(Degraded {
                    failed_over_at: 3,
                    units_lost: 2,
                }),
                poisoned: false,
            }),
            sink_state: Some("v=1;ring=\n3ff0000000000000".to_string()),
        }
    }

    #[test]
    fn round_trips_a_fully_populated_checkpoint() {
        let original = Checkpoint {
            meta: "{\"tenant\":\"acme\"}".to_string(),
            state: demo_state(),
        };
        let encoded = encode(&original);
        let decoded = decode(&encoded).expect("canonical envelope decodes");
        assert_eq!(decoded, original);
    }

    #[test]
    fn non_finite_energies_round_trip_bitwise() {
        let mut state = demo_state();
        state.energy_trace = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let original = Checkpoint {
            meta: String::new(),
            state,
        };
        let decoded = decode(&encode(&original)).expect("decodes");
        let bits: Vec<u64> = decoded
            .state
            .energy_trace
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let want: Vec<u64> = original
            .state
            .energy_trace
            .iter()
            .map(|e| e.to_bits())
            .collect();
        assert_eq!(bits, want, "hex-bits wire preserves every f64 payload");
    }

    #[test]
    fn version_is_checked_before_anything_else() {
        let encoded = encode(&Checkpoint {
            meta: String::new(),
            state: demo_state(),
        });
        // Bump the version digit; the checksum is now also stale, but
        // the reader must report the version, not the checksum.
        let bumped = encoded.replacen("{\"version\":1", "{\"version\":2", 1);
        let err = decode(&bumped).expect_err("future version is rejected");
        assert_eq!(
            err,
            CkptError::VersionMismatch {
                found: 2,
                supported: 1
            }
        );
    }

    #[test]
    fn every_proper_prefix_is_truncated() {
        let encoded = encode(&Checkpoint {
            meta: "m".to_string(),
            state: demo_state(),
        });
        for end in (0..encoded.len()).filter(|&i| encoded.is_char_boundary(i)) {
            let err = decode(&encoded[..end]).expect_err("prefix cannot decode");
            assert_eq!(
                err,
                CkptError::Truncated,
                "prefix of {end} bytes misdiagnosed"
            );
        }
    }

    #[test]
    fn garbage_is_malformed_at_the_right_offset() {
        let err = decode("not a checkpoint").expect_err("garbage rejected");
        assert_eq!(err, CkptError::Malformed { offset: 0 });
        let err = decode("{\"version\":x}").expect_err("non-digit version");
        assert_eq!(err, CkptError::Malformed { offset: 11 });
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let encoded = encode(&Checkpoint {
            meta: "abcdef".to_string(),
            state: demo_state(),
        });
        let corrupted = encoded.replacen("abcdef", "abcdeg", 1);
        let err = decode(&corrupted).expect_err("corrupted payload rejected");
        assert_eq!(err.variant(), "checksum-mismatch");
    }

    #[test]
    fn sealed_garbage_payload_is_a_state_error() {
        // A valid envelope around a payload that is not a checkpoint:
        // the envelope layer must pass and the payload layer must name
        // the problem.
        let err = decode(&seal("{\"meta\":\"x\"}")).expect_err("incomplete payload");
        assert_eq!(err.variant(), "state");
        let CkptError::State { reason } = err else {
            unreachable!()
        };
        assert!(reason.contains("state"), "reason names the field: {reason}");
    }

    #[test]
    fn binding_verification_names_the_field() {
        let state = demo_state();
        let mut expected = state.binding.clone();
        expected.fingerprint ^= 1;
        let err = verify_binding(&state, &expected).expect_err("fingerprints differ");
        assert_eq!(err.variant(), "binding-mismatch");
        assert!(err.to_string().contains("fingerprint"), "err: {err}");
        assert!(verify_binding(&state, &state.binding).is_ok());
    }

    #[test]
    fn stuck_fault_label_out_of_range_is_rejected_not_panicked() {
        let payload = seal(
            "{\"meta\":\"\",\"state\":{\"binding\":{\"sites\":1,\"width\":1,\"height\":1,\
             \"labels\":1,\"iterations\":1,\"burn_in\":0,\"threads\":1,\
             \"seed\":\"0000000000000000\",\"fingerprint\":\"0000000000000000\",\
             \"kernel\":\"k\",\"track_modes\":false,\"record_energy\":false},\
             \"next_sweep\":0,\"labels\":[0],\"energy_trace\":[],\"histograms\":null,\
             \"kernel_faults\":[{\"kind\":\"stuck\",\"label\":200}],\"fault\":null,\
             \"sink_state\":null}}",
        );
        let err = decode(&payload).expect_err("label 200 does not fit in 6 bits");
        assert_eq!(err.variant(), "state");
    }
}

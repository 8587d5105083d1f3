//! Property tests for the checkpoint wire format.
//!
//! The claims under test, over randomized job states:
//!
//! - encode → decode is the identity (bit-exact for every `f64`, hex-safe
//!   for every `u64`);
//! - any truncation of a valid envelope is `Truncated` — never a panic,
//!   never a partial checkpoint;
//! - any single-character corruption is caught by a *typed* error (or is
//!   provably harmless, e.g. hex case in the checksum field: the decode
//!   must then still equal the original);
//! - version bumps and binding mismatches each surface as their own
//!   variant, distinct from corruption;
//! - arbitrary bytes are a typed error, never a panic;
//! - a checkpoint written by an earlier build re-encodes byte-identically.
//!
//! "Never partially restore" holds by construction — [`decode`] returns
//! a complete [`Checkpoint`] or an error and mutates nothing — so these
//! properties focus on the never-panic and right-variant halves.

use mogs_ckpt::{decode, encode, seal, verify_binding, Checkpoint, CkptError};
use mogs_engine::prelude::UnitFault;
use mogs_engine::{FaultState, JobState, ShardBinding, StateBinding};
use mogs_mrf::Label;
use proptest::prelude::*;

fn arb_binding() -> impl Strategy<Value = StateBinding> {
    (
        ((1usize..200), (1usize..16), (1usize..16), (1usize..65)),
        ((1usize..500), (0usize..32), (1usize..9)),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
        (0usize..3),
        prop::bool::ANY,
        (
            prop::bool::ANY,
            (0usize..9),
            (1usize..9),
            (0usize..200),
            0u64..=u64::MAX,
        ),
    )
        .prop_map(
            |(
                (sites, width, height, labels),
                (iterations, burn_in, threads),
                (seed, fingerprint),
                kernel_pick,
                track_modes,
                (record_energy, shard_pick, of, owned, sites_digest),
            )| {
                let kernel = ["softmax-gibbs", "rsu-pool", "odd \"name\"\twith\nescapes"]
                    [kernel_pick]
                    .to_string();
                // shard_pick 0 keeps the common whole-plane case well
                // represented; otherwise derive a valid shard index.
                let shard = (shard_pick > 0).then(|| ShardBinding {
                    shard: (shard_pick - 1) % of,
                    of,
                    owned,
                    sites_digest,
                });
                StateBinding {
                    sites,
                    width,
                    height,
                    labels,
                    iterations,
                    burn_in,
                    threads,
                    seed,
                    fingerprint,
                    kernel,
                    track_modes,
                    record_energy,
                    shard,
                }
            },
        )
}

fn arb_fault() -> impl Strategy<Value = Option<UnitFault>> {
    ((0usize..4), (0u8..64), (0.0f64..2.0)).prop_map(|(kind, label, rate)| match kind {
        0 => None,
        1 => Some(UnitFault::Dead),
        2 => Some(UnitFault::Stuck(Label::new(label))),
        _ => Some(UnitFault::DarkCount { rate_per_ns: rate }),
    })
}

fn arb_fault_state() -> impl Strategy<Value = Option<FaultState>> {
    (
        prop::bool::ANY,
        (0usize..20),
        prop::collection::vec(prop::bool::ANY, 0..8),
        prop::bool::ANY,
        ((0usize..2), (0usize..100), (0usize..8)),
    )
        .prop_map(
            |(present, cursor, quarantined, poisoned, (degraded, failed_over_at, units_lost))| {
                present.then(|| FaultState {
                    cursor,
                    quarantined,
                    degraded: (degraded == 1).then_some(mogs_engine::Degraded {
                        failed_over_at,
                        units_lost,
                    }),
                    poisoned,
                })
            },
        )
}

/// Finite-energy states: safe to compare with `PartialEq` whole.
fn arb_state() -> impl Strategy<Value = JobState> {
    (
        (arb_binding(), 0usize..500),
        (
            prop::collection::vec(0u8..64, 0..64),
            prop::collection::vec(-1e300f64..1e300, 0..16),
        ),
        ((0usize..2), prop::collection::vec(0u32..=u32::MAX, 0..32)),
        prop::collection::vec(arb_fault(), 0..6),
        arb_fault_state(),
        ((0usize..2), (0usize..3)),
    )
        .prop_map(
            |(
                (binding, next_sweep),
                (labels, energy_trace),
                (hist_present, histograms),
                kernel_faults,
                fault,
                (sink_present, sink_pick),
            )| {
                let sink_state = (sink_present == 1).then(|| {
                    [
                        "",
                        "v=1;ring=3ff0000000000000",
                        "blob with \"quotes\"\nand\tescapes",
                    ][sink_pick]
                        .to_string()
                });
                JobState {
                    binding,
                    next_sweep,
                    labels,
                    energy_trace,
                    histograms: (hist_present == 1).then_some(histograms),
                    kernel_faults,
                    fault,
                    sink_state,
                }
            },
        )
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (arb_state(), (0usize..3)).prop_map(|(state, meta_pick)| Checkpoint {
        meta: [
            "",
            "{\"tenant\":\"acme\",\"body\":\"{\\\"w\\\":4}\"}",
            "plain note",
        ][meta_pick]
            .to_string(),
        state,
    })
}

const TYPED: [&str; 5] = [
    "truncated",
    "malformed",
    "version-mismatch",
    "checksum-mismatch",
    "state",
];

proptest! {
    #[test]
    fn round_trip_is_the_identity(checkpoint in arb_checkpoint()) {
        let decoded = decode(&encode(&checkpoint));
        prop_assert_eq!(decoded.as_ref(), Ok(&checkpoint));
    }

    /// Energies drawn as raw bit patterns — including NaNs, infinities,
    /// subnormals, negative zero — survive exactly.
    #[test]
    fn energy_round_trips_bitwise(
        checkpoint in arb_checkpoint(),
        bits in prop::collection::vec(0u64..=u64::MAX, 0..16),
    ) {
        let mut checkpoint = checkpoint;
        checkpoint.state.energy_trace = bits.iter().copied().map(f64::from_bits).collect();
        let decoded = decode(&encode(&checkpoint))
            .map_err(|e| format!("decode failed: {e}"))?;
        let got: Vec<u64> = decoded.state.energy_trace.iter().map(|e| e.to_bits()).collect();
        prop_assert_eq!(got, bits);
    }

    #[test]
    fn every_truncation_is_typed_truncated(
        checkpoint in arb_checkpoint(),
        cut in 0.0f64..1.0,
    ) {
        let encoded = encode(&checkpoint);
        let mut end = ((encoded.len() as f64) * cut) as usize;
        while !encoded.is_char_boundary(end) {
            end -= 1;
        }
        // `end == len` would be the whole (valid) envelope.
        if end < encoded.len() {
            let err = decode(&encoded[..end])
                .expect_err("a proper prefix must not decode");
            prop_assert_eq!(err, CkptError::Truncated);
        }
    }

    /// Single-character corruption anywhere in the envelope either
    /// fails with one of the typed read errors or — when the flip is
    /// semantically neutral, e.g. checksum hex case — decodes to
    /// exactly the original. Nothing panics; nothing comes back
    /// altered.
    #[test]
    fn single_char_corruption_never_panics_or_corrupts(
        checkpoint in arb_checkpoint(),
        position in 0.0f64..1.0,
        replacement in 0x21u8..0x7f,
    ) {
        let encoded = encode(&checkpoint);
        let mut at = ((encoded.len() as f64) * position) as usize;
        while !encoded.is_char_boundary(at) {
            at -= 1;
        }
        let original_char = encoded[at..].chars().next().expect("in bounds");
        let replacement = char::from(replacement);
        if original_char != replacement {
            let mut corrupted = String::with_capacity(encoded.len());
            corrupted.push_str(&encoded[..at]);
            corrupted.push(replacement);
            corrupted.push_str(&encoded[at + original_char.len_utf8()..]);
            match decode(&corrupted) {
                Err(err) => prop_assert!(
                    TYPED.contains(&err.variant()),
                    "unexpected variant {} for {err}",
                    err.variant()
                ),
                Ok(decoded) => prop_assert_eq!(decoded, checkpoint),
            }
        }
    }

    #[test]
    fn version_bump_is_always_version_mismatch(
        checkpoint in arb_checkpoint(),
        version in 2u32..1000,
    ) {
        let encoded = encode(&checkpoint);
        let bumped = encoded.replacen(
            "{\"version\":1,",
            &format!("{{\"version\":{version},"),
            1,
        );
        let err = decode(&bumped).expect_err("future versions are rejected");
        prop_assert_eq!(
            err,
            CkptError::VersionMismatch { found: version, supported: 1 }
        );
    }

    #[test]
    fn arbitrary_bytes_are_a_typed_error(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(err) = decode(&text) {
            prop_assert!(TYPED.contains(&err.variant()), "{err}");
        }
    }

    /// Arbitrary bytes behind a canonical envelope head still never
    /// panic the payload decoder.
    #[test]
    fn sealed_arbitrary_payloads_are_a_typed_error(
        bytes in prop::collection::vec(0u8..=255, 0..160),
    ) {
        let sealed = seal(&String::from_utf8_lossy(&bytes));
        let err = decode(&sealed).expect_err("random payloads are not checkpoints");
        prop_assert_eq!(err.variant(), "state");
    }

    /// Any one differing binding field is a `binding-mismatch`, found
    /// before a resume is even attempted.
    #[test]
    fn binding_drift_is_typed(state in arb_state(), field in 0usize..6) {
        let mut expected = state.binding.clone();
        match field {
            0 => expected.sites += 1,
            1 => expected.labels += 1,
            2 => expected.seed ^= 1,
            3 => expected.fingerprint ^= 1 << 63,
            4 => expected.kernel.push('x'),
            _ => expected.iterations += 1,
        }
        let err = verify_binding(&state, &expected).expect_err("bindings differ");
        prop_assert_eq!(err.variant(), "binding-mismatch");
        prop_assert!(verify_binding(&state, &state.binding).is_ok());
    }
}

/// Written by the previous hand-rolled encoder: every field class (hex
/// seed and digest, IEEE-bit energies including negative zero, all three
/// fault kinds, a degraded fault state, escaped meta).
const GOLDEN: &str = r#"{"version":1,"payload":"{\"meta\":\"{\\\"tenant\\\":\\\"acme\\\"}\",\"state\":{\"binding\":{\"sites\":6,\"width\":3,\"height\":2,\"labels\":3,\"iterations\":10,\"burn_in\":2,\"threads\":2,\"seed\":\"0000000000005eed\",\"fingerprint\":\"2c6eb214ef4eac64\",\"kernel\":\"rsu-pool\",\"track_modes\":true,\"record_energy\":true,\"shard\":{\"shard\":1,\"of\":2,\"owned\":3,\"sites_digest\":\"feedface01234567\"}},\"next_sweep\":4,\"labels\":[0,1,2,1,0,2],\"energy_trace\":[\"c02c800000000000\",\"3fd3333333333334\",\"8000000000000000\"],\"histograms\":[1,0,2],\"kernel_faults\":[null,{\"kind\":\"dead\"},{\"kind\":\"stuck\",\"label\":2},{\"kind\":\"dark\",\"rate\":\"3fc0000000000000\"}],\"fault\":{\"cursor\":3,\"quarantined\":[false,true,false,false],\"degraded\":{\"failed_over_at\":3,\"units_lost\":2},\"poisoned\":false},\"sink_state\":\"v=1;ring=3ff0000000000000\"}}","checksum":"a49271b9234a6f0d"}"#;

#[test]
fn golden_checkpoint_reencodes_byte_identically() {
    let checkpoint = decode(GOLDEN).expect("golden checkpoint decodes");
    assert_eq!(checkpoint.state.binding.seed, 0x5EED);
    assert_eq!(
        checkpoint.state.energy_trace[1].to_bits(),
        (0.1f64 + 0.2).to_bits()
    );
    assert_eq!(
        checkpoint.state.energy_trace[2].to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(encode(&checkpoint), GOLDEN);
}

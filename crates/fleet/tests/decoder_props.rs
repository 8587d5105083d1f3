//! Decoder properties for every format written with the shared
//! bits-safe codec (`mogs_mrf::codec`) that is not a checkpoint: fleet
//! specs, every coordinator↔worker message, schedule certificates, and
//! the length-prefixed frames they travel in. Checkpoints, which add a
//! checksummed envelope, have the same properties in
//! `crates/ckpt/tests/format_props.rs`.
//!
//! For each format, over randomized values:
//!
//! - encode → decode is the identity;
//! - every proper prefix of an encoding is a typed error;
//! - a single-byte flip is a typed error or a decode. These formats carry
//!   no checksum, so a flipped digit inside a number can decode to a
//!   different valid value; what must hold is that such a decode is
//!   canonical — it re-encodes to text that decodes to the same value;
//! - arbitrary bytes never panic.
//!
//! `recv_frame` is fed arbitrary bytes over a real socket pair: it
//! returns exactly the declared payload or a typed error, and never
//! allocates past the frame limit on a corrupt length prefix.
//!
//! Golden tests pin encodings written by earlier builds: they must keep
//! decoding to the same values, and certificates must re-encode to the
//! identical bytes.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use mogs_audit::{color_schedule, Chunking, ScheduleCertificate};
use mogs_fleet::wire::{
    encode_to_coordinator, encode_to_worker, parse_to_coordinator, parse_to_worker, recv_frame,
    Conn, ToCoordinator, ToWorker,
};
use mogs_fleet::{BackendKind, FleetError, FleetSpec, Workload};
use mogs_mrf::Topology;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = FleetSpec> {
    (
        (1usize..400, 1usize..400, 1u16..64, 1u8..=4),
        (0u64..=u64::MAX, 0.0f64..8.0),
        (prop::bool::ANY, 0usize..9),
        (1usize..500, 1usize..17, 0u64..=u64::MAX, 0usize..50),
    )
        .prop_map(
            |(
                (width, height, labels, disparity),
                (scene_seed, noise_sigma),
                (stereo, replicas),
                (iterations, threads, seed, burn_in),
            )| FleetSpec {
                workload: if stereo {
                    Workload::Stereo {
                        width,
                        height,
                        disparity,
                        noise_sigma,
                        scene_seed,
                    }
                } else {
                    Workload::Demo {
                        width,
                        height,
                        labels,
                    }
                },
                backend: if replicas == 0 {
                    BackendKind::Softmax
                } else {
                    BackendKind::Rsu { replicas }
                },
                iterations,
                threads,
                seed,
                burn_in,
            },
        )
}

fn arb_updates() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..100_000, 0u8..=255), 0..12)
}

fn arb_to_worker() -> impl Strategy<Value = ToWorker> {
    (
        0usize..5,
        arb_spec(),
        prop::collection::vec((0usize..8, 0usize..8), 0..6),
        (prop::bool::ANY, prop::collection::vec(0u8..=255, 0..24)),
        (0usize..1000, prop::collection::vec(arb_updates(), 0..4)),
        (arb_updates(), 0u64..=u64::MAX),
    )
        .prop_map(
            |(kind, spec, cells, (has_plane, plane), (sweep, replay), (updates, nonce))| match kind
            {
                0 => ToWorker::Assign {
                    spec,
                    cells,
                    plane: has_plane.then_some(plane),
                    resume_sweep: sweep,
                    replay,
                },
                1 => ToWorker::Phase {
                    sweep,
                    group: sweep % 7,
                },
                2 => ToWorker::Halo { updates },
                3 => ToWorker::Ping { nonce },
                _ => ToWorker::Finish,
            },
        )
}

fn arb_to_coordinator() -> impl Strategy<Value = ToCoordinator> {
    (
        0usize..5,
        (0usize..100_000, 0usize..8),
        arb_updates(),
        0u64..=u64::MAX,
        0usize..3,
    )
        .prop_map(
            |(kind, (sweep, group), updates, nonce, reason)| match kind {
                0 => ToCoordinator::AssignOk { owned: sweep },
                1 => ToCoordinator::PhaseDone {
                    sweep,
                    group,
                    updates,
                },
                2 => ToCoordinator::Pong { nonce },
                3 => ToCoordinator::Fault {
                    reason: ["", "unit \"q\" died", "tab\tand\nnewline"][reason].to_string(),
                },
                _ => ToCoordinator::Bye,
            },
        )
}

/// A greedy certificate over a random sparse graph, with uniform or
/// explicit chunking (whether it would verify is beside the point here).
fn arb_certificate() -> impl Strategy<Value = ScheduleCertificate> {
    (
        1usize..24,
        prop::collection::vec((0usize..1000, 0usize..1000), 0..40),
        (1usize..4, prop::bool::ANY),
    )
        .prop_map(|(sites, raw_edges, (threads, explicit))| {
            let edges: Vec<(usize, usize)> = raw_edges
                .iter()
                .map(|&(a, b)| (a % sites, b % sites))
                .filter(|(a, b)| a != b)
                .collect();
            let topology = Topology::from_edges(sites, &edges).expect("folded edges are valid");
            let cert = color_schedule(&topology, threads);
            if !explicit {
                return cert;
            }
            let chunking = Chunking::Explicit {
                ranges: cert.classes().iter().map(|c| vec![(0, c.len())]).collect(),
            };
            ScheduleCertificate::from_classes(&topology, cert.classes().to_vec(), chunking)
        })
}

/// One format under test: its encoder and decoder, with decode errors
/// reduced to the typed variant name they carry.
struct Format<T> {
    encode: fn(&T) -> String,
    decode: fn(&str) -> Result<T, String>,
}

fn fleet_variant(err: &FleetError) -> String {
    err.variant().to_string()
}

const SPEC: Format<FleetSpec> = Format {
    encode: FleetSpec::encode,
    decode: |text| FleetSpec::parse(text).map_err(|e| fleet_variant(&e)),
};
const TO_WORKER: Format<ToWorker> = Format {
    encode: encode_to_worker,
    decode: |text| parse_to_worker(text).map_err(|e| fleet_variant(&e)),
};
const TO_COORDINATOR: Format<ToCoordinator> = Format {
    encode: encode_to_coordinator,
    decode: |text| parse_to_coordinator(text).map_err(|e| fleet_variant(&e)),
};
const CERTIFICATE: Format<ScheduleCertificate> = Format {
    encode: ScheduleCertificate::to_json,
    // Certificate parse errors are one type (`serde::de::Error`).
    decode: |text| ScheduleCertificate::from_json(text).map_err(|_| "parse".to_string()),
};

/// The typed error variants a malformed encoding may produce.
const TYPED: [&str; 3] = ["protocol", "spec", "parse"];

impl<T: PartialEq + std::fmt::Debug> Format<T> {
    fn round_trips(&self, value: &T) -> Result<(), String> {
        let text = (self.encode)(value);
        let decoded = (self.decode)(&text);
        prop_assert_eq!(decoded.as_ref(), Ok(value), "{}", text);
        Ok(())
    }

    fn rejects_every_proper_prefix(&self, value: &T) -> Result<(), String> {
        let text = (self.encode)(value);
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let prefix = &text[..end];
            match (self.decode)(prefix) {
                Err(variant) => prop_assert!(TYPED.contains(&variant.as_str()), "{variant}"),
                Ok(decoded) => return Err(format!("prefix {prefix:?} decoded: {decoded:?}")),
            }
        }
        Ok(())
    }

    fn survives_a_flip(&self, value: &T, position: f64, byte: u8) -> Result<(), String> {
        let mut bytes = (self.encode)(value).into_bytes();
        let at = ((bytes.len() as f64) * position) as usize;
        // Every generated encoding is ASCII, so an ASCII flip keeps it
        // valid UTF-8 (non-UTF-8 payloads are refused by the framing).
        prop_assert!(bytes[at].is_ascii());
        bytes[at] = byte;
        let flipped = String::from_utf8(bytes).expect("ASCII flip of ASCII text");
        match (self.decode)(&flipped) {
            Err(variant) => prop_assert!(TYPED.contains(&variant.as_str()), "{variant}"),
            Ok(decoded) => {
                let again = (self.decode)(&(self.encode)(&decoded));
                prop_assert_eq!(again.as_ref(), Ok(&decoded), "{}", flipped);
            }
        }
        Ok(())
    }

    fn never_panics_on(&self, text: &str) -> Result<(), String> {
        if let Err(variant) = (self.decode)(text) {
            prop_assert!(TYPED.contains(&variant.as_str()), "{variant}");
        }
        Ok(())
    }
}

/// Writes `bytes` into one end of a socket pair, closes it, and reads one
/// frame from the other end.
fn recv_from_bytes(bytes: &[u8]) -> Result<String, FleetError> {
    let (mut tx, rx) = UnixStream::pair().expect("socket pair");
    tx.write_all(bytes)
        .expect("small writes fit the socket buffer");
    drop(tx);
    let mut conn = Conn::Unix(rx);
    recv_frame(&mut conn, Some(Duration::from_secs(5)), "fuzz")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_is_the_identity(
        spec in arb_spec(),
        to_worker in arb_to_worker(),
        to_coordinator in arb_to_coordinator(),
        certificate in arb_certificate(),
    ) {
        SPEC.round_trips(&spec)?;
        TO_WORKER.round_trips(&to_worker)?;
        TO_COORDINATOR.round_trips(&to_coordinator)?;
        CERTIFICATE.round_trips(&certificate)?;
    }

    #[test]
    fn every_proper_prefix_is_a_typed_error(
        spec in arb_spec(),
        to_worker in arb_to_worker(),
        to_coordinator in arb_to_coordinator(),
        certificate in arb_certificate(),
    ) {
        SPEC.rejects_every_proper_prefix(&spec)?;
        TO_WORKER.rejects_every_proper_prefix(&to_worker)?;
        TO_COORDINATOR.rejects_every_proper_prefix(&to_coordinator)?;
        CERTIFICATE.rejects_every_proper_prefix(&certificate)?;
    }

    #[test]
    fn single_byte_flip_is_a_typed_error_or_a_canonical_decode(
        spec in arb_spec(),
        to_worker in arb_to_worker(),
        to_coordinator in arb_to_coordinator(),
        certificate in arb_certificate(),
        position in 0.0f64..1.0,
        byte in 0u8..0x80,
    ) {
        SPEC.survives_a_flip(&spec, position, byte)?;
        TO_WORKER.survives_a_flip(&to_worker, position, byte)?;
        TO_COORDINATOR.survives_a_flip(&to_coordinator, position, byte)?;
        CERTIFICATE.survives_a_flip(&certificate, position, byte)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        SPEC.never_panics_on(&text)?;
        TO_WORKER.never_panics_on(&text)?;
        TO_COORDINATOR.never_panics_on(&text)?;
        CERTIFICATE.never_panics_on(&text)?;
    }

    /// Arbitrary bytes — behind a well-formed, a corrupted (one digit
    /// replaced, possibly by `+`) or a wholly random length prefix — give
    /// the declared payload exactly or a typed frame error.
    #[test]
    fn recv_frame_returns_the_declared_payload_or_a_typed_error(
        declared in 0usize..64,
        prefix_mode in 0usize..3,
        (at, replacement) in (0usize..8, 0u8..=255),
        body in prop::collection::vec(0u8..=255, 0..72),
    ) {
        let mut bytes = format!("{declared:08x}").into_bytes();
        match prefix_mode {
            0 => {}
            1 => bytes[at] = if replacement % 2 == 0 { b'+' } else { replacement },
            _ => bytes = body.iter().copied().cycle().take(8).collect(),
        }
        bytes.extend_from_slice(&body);
        match recv_from_bytes(&bytes) {
            Ok(payload) => {
                let len = usize::from_str_radix(
                    std::str::from_utf8(&bytes[..8]).expect("prefix parsed as hex"),
                    16,
                )
                .expect("prefix parsed as hex");
                prop_assert!(bytes[..8].iter().all(u8::is_ascii_hexdigit));
                prop_assert_eq!(payload.as_bytes(), &bytes[8..8 + len]);
            }
            Err(err) => prop_assert!(
                ["frame", "deadline", "io"].contains(&err.variant()),
                "{err}"
            ),
        }
    }
}

/// Frames at the declared size limit's edge: a prefix past the limit is
/// refused before any payload buffer is allocated.
#[test]
fn oversized_declarations_are_refused_without_reading() {
    let err = recv_from_bytes(b"ffffffff").expect_err("past the frame limit");
    assert_eq!(err.variant(), "frame");
    assert!(err.to_string().contains("exceeds the frame limit"), "{err}");
}

#[test]
fn golden_certificates_reencode_byte_identically() {
    // Written by the previous hand-rolled encoder.
    for golden in [
        "{\"version\":1,\"sites\":9,\"fingerprint\":\"2c6eb214ef4eac64\",\
         \"classes\":[[0,2,4,6,8],[1,3,5,7]],\"chunking\":{\"kind\":\"uniform\",\"threads\":2},\
         \"obligations\":[\"NoNeighborsSharePhase\",\"ExactChunkPartition\",\"ExactlyOnceCoverage\"]}",
        "{\"version\":1,\"sites\":4,\"fingerprint\":\"754d036aa9e469e3\",\
         \"classes\":[[0,2],[1,3]],\"chunking\":{\"kind\":\"explicit\",\
         \"ranges\":[[[0,1],[1,2]],[[0,2]]]},\
         \"obligations\":[\"NoNeighborsSharePhase\",\"ExactChunkPartition\",\"ExactlyOnceCoverage\"]}",
    ] {
        let cert = ScheduleCertificate::from_json(golden).expect("golden certificate parses");
        assert_eq!(cert.to_json(), golden);
    }
}

#[test]
fn golden_unpadded_fleet_encodings_decode_to_the_same_values() {
    // Specs stored as checkpoint `meta` and sent by `POST /v1/fleet/jobs`
    // clients before seeds were zero-padded.
    let stereo = FleetSpec::parse(
        "{\"workload\":{\"kind\":\"stereo\",\"width\":24,\"height\":18,\"disparity\":2,\
         \"noise_sigma\":\"3fd3333333333334\",\"scene_seed\":\"11\"},\
         \"backend\":{\"kind\":\"rsu\",\"replicas\":4},\"iterations\":20,\"threads\":4,\
         \"seed\":\"5eed0c0a\",\"burn_in\":6}",
    )
    .expect("unpadded stereo spec parses");
    assert_eq!(
        stereo,
        FleetSpec {
            workload: Workload::Stereo {
                width: 24,
                height: 18,
                disparity: 2,
                noise_sigma: 0.1 + 0.2,
                scene_seed: 17,
            },
            backend: BackendKind::Rsu { replicas: 4 },
            iterations: 20,
            threads: 4,
            seed: 0x5EED_0C0A,
            burn_in: 6,
        }
    );
    let demo = FleetSpec::parse(
        "{\"workload\":{\"kind\":\"demo\",\"width\":12,\"height\":9,\"labels\":5},\
         \"backend\":{\"kind\":\"softmax\"},\"iterations\":8,\"threads\":3,\"seed\":\"0\",\
         \"burn_in\":2}",
    )
    .expect("unpadded demo spec parses");
    assert_eq!(demo.seed, 0);
    // The padded re-encoding differs only in the seed's leading zeros.
    assert!(demo.encode().contains("\"seed\":\"0000000000000000\""));
    assert_eq!(
        parse_to_worker("{\"t\":\"ping\",\"nonce\":\"2a\"}").expect("unpadded ping"),
        ToWorker::Ping { nonce: 42 }
    );
    assert_eq!(
        parse_to_coordinator("{\"t\":\"pong\",\"nonce\":\"2a\"}").expect("unpadded pong"),
        ToCoordinator::Pong { nonce: 42 }
    );
    assert_eq!(
        encode_to_worker(&ToWorker::Ping { nonce: 42 }),
        "{\"t\":\"ping\",\"nonce\":\"000000000000002a\"}"
    );
}

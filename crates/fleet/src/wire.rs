//! Length-prefixed message framing over TCP or Unix-domain sockets.
//!
//! Every frame is an 8-digit ASCII-hex byte length followed by exactly
//! that many bytes of UTF-8 JSON. The prefix is human-greppable in a
//! packet capture, has no endianness, and makes truncation detectable:
//! a reader that times out mid-frame knows the stream is torn and the
//! peer condemned — frames are never resynchronized, because a worker
//! whose stream desynced is indistinguishable from a dead one and is
//! migrated the same way.
//!
//! Payloads are JSON objects whose `"t"` member names the message (the
//! encoders write it first), with `u64`s under the workspace hex/bits
//! rule described in [`mogs_mrf::codec`].
//! Label planes travel as hex strings, two digits per site, so a
//! 10⁴-site plane is a 20 kB frame rather than a 50 kB JSON array.
//!
//! Every function on the wire path returns [`FleetResult`] — enforced
//! by the `fleet-wire-error` audit lint rule over `send_*`/`recv_*`/
//! `rpc_*` names.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use mogs_mrf::codec::{
    hex_digit, push_hex_byte, read_hex_u64, read_object, required, ObjectWriter,
};
use serde::de::{self, Parser};
use serde::Deserialize;

use crate::error::{FleetError, FleetResult};
use crate::spec::{protocol, FleetSpec};

/// Upper bound on one frame's payload, far above any plane this
/// workspace samples; anything larger is a corrupt prefix.
pub const FRAME_LIMIT: usize = 64 << 20;

/// One established coordinator↔worker stream.
#[derive(Debug)]
pub enum Conn {
    /// Loopback TCP.
    Tcp(TcpStream),
    /// Unix-domain socket.
    Unix(UnixStream),
}

impl Conn {
    /// Applies a read timeout to the underlying socket (`None` blocks
    /// forever).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> FleetResult<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
        .map_err(|e| FleetError::io("setting read timeout", e))
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// (Re)admits a shard: build the job, pin the cells, seat the plane,
    /// replay the completed phases of the resume sweep.
    Assign {
        /// The full job description.
        spec: FleetSpec,
        /// Owned `(group, chunk)` cells.
        cells: Vec<(usize, usize)>,
        /// Sweep-boundary plane to seat; `None` keeps the admission
        /// plane (fresh start only).
        plane: Option<Vec<u8>>,
        /// First sweep the shard runs after (re)admission.
        resume_sweep: usize,
        /// Per-group update logs of the resume sweep's completed phases:
        /// the shard runs its own chunks of group `i`, then applies
        /// `replay[i]`, for each `i` in order.
        replay: Vec<Vec<(usize, u8)>>,
    },
    /// Run one color phase of one sweep.
    Phase {
        /// Sweep index.
        sweep: usize,
        /// Color group index.
        group: usize,
    },
    /// Labels sampled by other shards this phase; no acknowledgement
    /// (stream ordering sequences it before the next `Phase`).
    Halo {
        /// `(site, label)` updates.
        updates: Vec<(usize, u8)>,
    },
    /// Liveness probe.
    Ping {
        /// Echoed verbatim in the `Pong`.
        nonce: u64,
    },
    /// Orderly shutdown; the worker replies `Bye` and exits.
    Finish,
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoordinator {
    /// The `Assign` was admitted and caught up.
    AssignOk {
        /// Sites the shard owns (sanity echo).
        owned: usize,
    },
    /// One phase completed; `updates` covers every owned site of the
    /// group.
    PhaseDone {
        /// Sweep index, echoed.
        sweep: usize,
        /// Group index, echoed.
        group: usize,
        /// `(site, label)` for each owned site of the group.
        updates: Vec<(usize, u8)>,
    },
    /// Liveness reply.
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
    /// The worker hit a fatal error and is about to exit (best-effort
    /// courtesy; the coordinator treats the death itself as truth).
    Fault {
        /// The worker-side failure, verbatim.
        reason: String,
    },
    /// Orderly shutdown acknowledgement.
    Bye,
}

/// Encodes a label plane as hex, two digits per site.
#[must_use]
pub fn encode_plane(labels: &[u8]) -> String {
    let mut out = String::with_capacity(labels.len() * 2);
    for &l in labels {
        push_hex_byte(&mut out, l);
    }
    out
}

/// Decodes a hex label plane: exactly two ASCII hex digits per site.
///
/// # Errors
///
/// [`FleetError::Protocol`] on odd length or a non-hex digit.
pub fn decode_plane(text: &str) -> FleetResult<Vec<u8>> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(FleetError::Protocol {
            reason: format!("plane hex has odd length {}", bytes.len()),
        });
    }
    bytes
        .chunks_exact(2)
        .map(|pair| match (hex_digit(pair[0]), hex_digit(pair[1])) {
            (Some(hi), Some(lo)) => Ok((hi << 4) | lo),
            _ => Err(FleetError::Protocol {
                reason: format!(
                    "plane hex contains non-hex pair {:?}",
                    String::from_utf8_lossy(pair)
                ),
            }),
        })
        .collect()
}

/// Writes one frame: 8-hex-digit length prefix plus payload.
///
/// # Errors
///
/// [`FleetError::Frame`] when the payload exceeds [`FRAME_LIMIT`],
/// [`FleetError::Io`] on a socket failure.
pub fn send_frame(conn: &mut Conn, payload: &str) -> FleetResult<()> {
    if payload.len() > FRAME_LIMIT {
        return Err(FleetError::Frame {
            reason: format!("payload of {} bytes exceeds the frame limit", payload.len()),
        });
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(format!("{:08x}", payload.len()).as_bytes());
    frame.extend_from_slice(payload.as_bytes());
    conn.write_all(&frame)
        .and_then(|()| conn.flush())
        .map_err(|e| FleetError::io("sending frame", e))
}

/// Reads one frame, honouring an optional deadline. A timeout — even
/// mid-frame — returns [`FleetError::Deadline`]; the stream must then
/// be condemned, never reused.
///
/// # Errors
///
/// [`FleetError::Deadline`] past the deadline, [`FleetError::Frame`]
/// for a torn or malformed frame, [`FleetError::Io`] otherwise.
pub fn recv_frame(
    conn: &mut Conn,
    deadline: Option<Duration>,
    rpc: &'static str,
) -> FleetResult<String> {
    conn.set_read_timeout(deadline)?;
    let after_ms = deadline.map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64);
    let classify = move |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            FleetError::Deadline { rpc, after_ms }
        }
        std::io::ErrorKind::UnexpectedEof => FleetError::Frame {
            reason: format!("stream closed mid-frame during {rpc}"),
        },
        _ => FleetError::io("receiving frame", e),
    };
    let mut prefix = [0u8; 8];
    conn.read_exact(&mut prefix).map_err(classify)?;
    let len = prefix.iter().try_fold(0usize, |acc, &b| {
        hex_digit(b)
            .map(|d| (acc << 4) | usize::from(d))
            .ok_or_else(|| FleetError::Frame {
                reason: format!(
                    "length prefix {:?} is not 8 hex digits",
                    String::from_utf8_lossy(&prefix)
                ),
            })
    })?;
    if len > FRAME_LIMIT {
        return Err(FleetError::Frame {
            reason: format!("declared payload of {len} bytes exceeds the frame limit"),
        });
    }
    let mut payload = vec![0u8; len];
    conn.read_exact(&mut payload).map_err(classify)?;
    String::from_utf8(payload).map_err(|_| FleetError::Frame {
        reason: "payload is not UTF-8".to_string(),
    })
}

/// Opens a message object with its `"t"` tag member.
fn tagged<'a>(out: &'a mut String, tag: &str) -> ObjectWriter<'a> {
    let mut w = ObjectWriter::new(out);
    w.field("t", tag);
    w
}

/// Serializes a coordinator → worker message.
#[must_use]
pub fn encode_to_worker(msg: &ToWorker) -> String {
    let mut out = String::with_capacity(64);
    match msg {
        ToWorker::Assign {
            spec,
            cells,
            plane,
            resume_sweep,
            replay,
        } => tagged(&mut out, "assign")
            .with("spec", |out| spec.write_json(out))
            .field("cells", cells)
            .field("plane", &plane.as_deref().map(encode_plane))
            .field("resume_sweep", resume_sweep)
            .field("replay", replay)
            .end(),
        ToWorker::Phase { sweep, group } => tagged(&mut out, "phase")
            .field("sweep", sweep)
            .field("group", group)
            .end(),
        ToWorker::Halo { updates } => tagged(&mut out, "halo").field("updates", updates).end(),
        ToWorker::Ping { nonce } => tagged(&mut out, "ping").hex_u64("nonce", *nonce).end(),
        ToWorker::Finish => tagged(&mut out, "finish").end(),
    }
    out
}

/// Serializes a worker → coordinator message.
#[must_use]
pub fn encode_to_coordinator(msg: &ToCoordinator) -> String {
    let mut out = String::with_capacity(64);
    match msg {
        ToCoordinator::AssignOk { owned } => {
            tagged(&mut out, "assign_ok").field("owned", owned).end();
        }
        ToCoordinator::PhaseDone {
            sweep,
            group,
            updates,
        } => tagged(&mut out, "phase_done")
            .field("sweep", sweep)
            .field("group", group)
            .field("updates", updates)
            .end(),
        ToCoordinator::Pong { nonce } => tagged(&mut out, "pong").hex_u64("nonce", *nonce).end(),
        ToCoordinator::Fault { reason } => tagged(&mut out, "fault").field("reason", reason).end(),
        ToCoordinator::Bye => tagged(&mut out, "bye").end(),
    }
    out
}

/// Parses a coordinator → worker message.
///
/// # Errors
///
/// [`FleetError::Protocol`] on malformed or unknown messages.
pub fn parse_to_worker(payload: &str) -> FleetResult<ToWorker> {
    let mut parser = Parser::new(payload);
    let msg = parse_to_worker_value(&mut parser).map_err(protocol)?;
    parser.expect_end().map_err(protocol)?;
    Ok(msg)
}

fn parse_to_worker_value(parser: &mut Parser<'_>) -> Result<ToWorker, de::Error> {
    let (mut tag, mut spec, mut cells, mut plane, mut resume_sweep) =
        (None, None, None, None, None);
    let (mut replay, mut sweep, mut group, mut updates, mut nonce) = (None, None, None, None, None);
    read_object(parser, |p, key| {
        match key {
            "t" => tag = Some(p.parse_string()?),
            "spec" => spec = Some(FleetSpec::parse_value(p)?),
            "cells" => cells = Some(Deserialize::deserialize_json(p)?),
            "plane" => {
                plane = Some(match Option::<String>::deserialize_json(p)? {
                    None => None,
                    Some(text) => Some(decode_plane(&text).map_err(|e| p.error(&e.to_string()))?),
                });
            }
            "resume_sweep" => resume_sweep = Some(usize::deserialize_json(p)?),
            "replay" => replay = Some(Deserialize::deserialize_json(p)?),
            "sweep" => sweep = Some(usize::deserialize_json(p)?),
            "group" => group = Some(usize::deserialize_json(p)?),
            "updates" => updates = Some(Deserialize::deserialize_json(p)?),
            "nonce" => nonce = Some(read_hex_u64(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let tag = required(parser, "message", "t", tag)?;
    let msg = tag.as_str();
    Ok(match msg {
        "assign" => ToWorker::Assign {
            spec: required(parser, msg, "spec", spec)?,
            cells: required(parser, msg, "cells", cells)?,
            plane: required(parser, msg, "plane", plane)?,
            resume_sweep: required(parser, msg, "resume_sweep", resume_sweep)?,
            replay: required(parser, msg, "replay", replay)?,
        },
        "phase" => ToWorker::Phase {
            sweep: required(parser, msg, "sweep", sweep)?,
            group: required(parser, msg, "group", group)?,
        },
        "halo" => ToWorker::Halo {
            updates: required(parser, msg, "updates", updates)?,
        },
        "ping" => ToWorker::Ping {
            nonce: required(parser, msg, "nonce", nonce)?,
        },
        "finish" => ToWorker::Finish,
        other => return Err(parser.error(&format!("unknown coordinator message {other:?}"))),
    })
}

/// Parses a worker → coordinator message.
///
/// # Errors
///
/// [`FleetError::Protocol`] on malformed or unknown messages.
pub fn parse_to_coordinator(payload: &str) -> FleetResult<ToCoordinator> {
    let mut parser = Parser::new(payload);
    let msg = parse_to_coordinator_value(&mut parser).map_err(protocol)?;
    parser.expect_end().map_err(protocol)?;
    Ok(msg)
}

fn parse_to_coordinator_value(parser: &mut Parser<'_>) -> Result<ToCoordinator, de::Error> {
    let (mut tag, mut owned, mut sweep, mut group) = (None, None, None, None);
    let (mut updates, mut nonce, mut reason) = (None, None, None);
    read_object(parser, |p, key| {
        match key {
            "t" => tag = Some(p.parse_string()?),
            "owned" => owned = Some(usize::deserialize_json(p)?),
            "sweep" => sweep = Some(usize::deserialize_json(p)?),
            "group" => group = Some(usize::deserialize_json(p)?),
            "updates" => updates = Some(Deserialize::deserialize_json(p)?),
            "nonce" => nonce = Some(read_hex_u64(p)?),
            "reason" => reason = Some(p.parse_string()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let tag = required(parser, "message", "t", tag)?;
    let msg = tag.as_str();
    Ok(match msg {
        "assign_ok" => ToCoordinator::AssignOk {
            owned: required(parser, msg, "owned", owned)?,
        },
        "phase_done" => ToCoordinator::PhaseDone {
            sweep: required(parser, msg, "sweep", sweep)?,
            group: required(parser, msg, "group", group)?,
            updates: required(parser, msg, "updates", updates)?,
        },
        "pong" => ToCoordinator::Pong {
            nonce: required(parser, msg, "nonce", nonce)?,
        },
        "fault" => ToCoordinator::Fault {
            reason: required(parser, msg, "reason", reason)?,
        },
        "bye" => ToCoordinator::Bye,
        other => return Err(parser.error(&format!("unknown worker message {other:?}"))),
    })
}

/// Sends a coordinator → worker message.
///
/// # Errors
///
/// See [`send_frame`].
pub fn send_to_worker(conn: &mut Conn, msg: &ToWorker) -> FleetResult<()> {
    send_frame(conn, &encode_to_worker(msg))
}

/// Receives a coordinator → worker message.
///
/// # Errors
///
/// See [`recv_frame`] and [`parse_to_worker`].
pub fn recv_to_worker(conn: &mut Conn, deadline: Option<Duration>) -> FleetResult<ToWorker> {
    parse_to_worker(&recv_frame(conn, deadline, "worker-recv")?)
}

/// Sends a worker → coordinator message.
///
/// # Errors
///
/// See [`send_frame`].
pub fn send_to_coordinator(conn: &mut Conn, msg: &ToCoordinator) -> FleetResult<()> {
    send_frame(conn, &encode_to_coordinator(msg))
}

/// Receives a worker → coordinator message.
///
/// # Errors
///
/// See [`recv_frame`] and [`parse_to_coordinator`].
pub fn recv_to_coordinator(
    conn: &mut Conn,
    deadline: Option<Duration>,
    rpc: &'static str,
) -> FleetResult<ToCoordinator> {
    parse_to_coordinator(&recv_frame(conn, deadline, rpc)?)
}

/// Round-trip liveness probe: sends `Ping` and waits for the matching
/// `Pong`, discarding any stale `PhaseDone` still queued from a
/// superseded phase exchange.
///
/// # Errors
///
/// [`FleetError::Deadline`] when the pong misses the deadline,
/// [`FleetError::Protocol`] on a mismatched nonce or unexpected reply.
pub fn rpc_ping(conn: &mut Conn, nonce: u64, deadline: Duration) -> FleetResult<()> {
    send_to_worker(conn, &ToWorker::Ping { nonce })?;
    loop {
        match recv_to_coordinator(conn, Some(deadline), "ping")? {
            ToCoordinator::Pong { nonce: echoed } if echoed == nonce => return Ok(()),
            ToCoordinator::Pong { nonce: echoed } => {
                return Err(FleetError::Protocol {
                    reason: format!("pong nonce {echoed:#x} does not match ping {nonce:#x}"),
                })
            }
            ToCoordinator::PhaseDone { .. } => continue,
            other => {
                return Err(FleetError::Protocol {
                    reason: format!("expected pong, got {other:?}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackendKind, Workload};
    use std::net::TcpListener;

    fn pair() -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (Conn::Tcp(client), Conn::Tcp(server))
    }

    fn sample_spec() -> FleetSpec {
        FleetSpec {
            workload: Workload::Demo {
                width: 12,
                height: 9,
                labels: 5,
            },
            backend: BackendKind::Softmax,
            iterations: 8,
            threads: 3,
            seed: u64::MAX,
            burn_in: 2,
        }
    }

    #[test]
    fn frames_round_trip_over_tcp() {
        let (mut a, mut b) = pair();
        send_frame(&mut a, "hello fleet").expect("send");
        let got = recv_frame(&mut b, Some(Duration::from_secs(2)), "test").expect("recv");
        assert_eq!(got, "hello fleet");
    }

    #[test]
    fn recv_deadline_is_typed() {
        let (_a, mut b) = pair();
        let err = recv_frame(&mut b, Some(Duration::from_millis(50)), "probe")
            .expect_err("nothing was sent");
        assert_eq!(err.variant(), "deadline");
        assert!(err.is_migratable());
    }

    #[test]
    fn closed_stream_is_a_frame_error() {
        let (a, mut b) = pair();
        drop(a);
        let err =
            recv_frame(&mut b, Some(Duration::from_secs(2)), "probe").expect_err("peer closed");
        assert_eq!(err.variant(), "frame");
    }

    #[test]
    fn every_worker_message_round_trips() {
        let msgs = vec![
            ToWorker::Assign {
                spec: sample_spec(),
                cells: vec![(0, 0), (1, 2)],
                plane: Some(vec![0, 1, 4, 255]),
                resume_sweep: 3,
                replay: vec![vec![(0, 1), (9, 4)], vec![]],
            },
            ToWorker::Assign {
                spec: sample_spec(),
                cells: vec![(0, 1)],
                plane: None,
                resume_sweep: 0,
                replay: vec![],
            },
            ToWorker::Phase { sweep: 7, group: 1 },
            ToWorker::Halo {
                updates: vec![(3, 2), (4, 0)],
            },
            ToWorker::Ping { nonce: u64::MAX },
            ToWorker::Finish,
        ];
        for msg in msgs {
            let text = encode_to_worker(&msg);
            let back = parse_to_worker(&text).expect("parses");
            assert_eq!(back, msg, "round trip: {text}");
        }
    }

    #[test]
    fn every_coordinator_message_round_trips() {
        let msgs = vec![
            ToCoordinator::AssignOk { owned: 54 },
            ToCoordinator::PhaseDone {
                sweep: 2,
                group: 0,
                updates: vec![(0, 0), (2, 3)],
            },
            ToCoordinator::Pong { nonce: 1 },
            ToCoordinator::Fault {
                reason: "unit \"q\" died".to_string(),
            },
            ToCoordinator::Bye,
        ];
        for msg in msgs {
            let text = encode_to_coordinator(&msg);
            let back = parse_to_coordinator(&text).expect("parses");
            assert_eq!(back, msg, "round trip: {text}");
        }
    }

    #[test]
    fn plane_hex_round_trips_and_rejects_garbage() {
        let plane: Vec<u8> = (0..=255).collect();
        assert_eq!(decode_plane(&encode_plane(&plane)).expect("decodes"), plane);
        assert!(decode_plane("abc").is_err(), "odd length");
        assert!(decode_plane("zz").is_err(), "non-hex");
    }

    #[test]
    fn plane_hex_refuses_a_sign() {
        // `u8::from_str_radix` reads "+a" as 10.
        assert!(decode_plane("+a").is_err());
        assert!(decode_plane("0+").is_err());
    }

    #[test]
    fn nonce_refuses_a_sign() {
        // `u64::from_str_radix` reads "+2a" as 42.
        let err = parse_to_worker("{\"t\":\"ping\",\"nonce\":\"+2a\"}").expect_err("signed nonce");
        assert_eq!(err.variant(), "protocol");
        assert!(parse_to_coordinator("{\"t\":\"pong\",\"nonce\":\"+2a\"}").is_err());
    }

    #[test]
    fn length_prefix_refuses_a_sign() {
        // `usize::from_str_radix` reads "+0000010" as 16.
        let (mut a, mut b) = pair();
        a.write_all(b"+0000010{\"t\":\"finish\"}..")
            .expect("raw write");
        a.flush().expect("flush");
        let err = recv_frame(&mut b, Some(Duration::from_secs(2)), "probe")
            .expect_err("signed length prefix");
        assert_eq!(err.variant(), "frame");
    }

    #[test]
    fn ping_discards_stale_phase_done() {
        let (mut coord, mut worker) = pair();
        // A stale PhaseDone sits in the queue ahead of the pong.
        send_to_coordinator(
            &mut worker,
            &ToCoordinator::PhaseDone {
                sweep: 0,
                group: 0,
                updates: vec![],
            },
        )
        .expect("stale send");
        send_to_coordinator(&mut worker, &ToCoordinator::Pong { nonce: 42 }).expect("pong send");
        // rpc_ping's own Ping will be ignored by this fake worker; the
        // queued replies satisfy it.
        rpc_ping(&mut coord, 42, Duration::from_secs(2)).expect("ping survives stale traffic");
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let (mut a, mut b) = pair();
        // A corrupt prefix claiming a huge frame.
        a.write_all(b"ffffffff").expect("raw write");
        a.flush().expect("flush");
        let err = recv_frame(&mut b, Some(Duration::from_secs(2)), "probe")
            .expect_err("oversized declaration");
        assert_eq!(err.variant(), "frame");
    }
}

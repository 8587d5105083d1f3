//! Schedule certificates: portable, versioned proofs that a coloring is
//! safe to run on the engine's unsafe label-plane path.
//!
//! A [`ScheduleCertificate`] packages everything the engine needs to
//! shard a sweep — the color classes (phase groups) and the chunk
//! partition — together with everything a *verifier* needs to re-prove
//! the three unsafe-plane invariants from scratch: a format version, the
//! site count and adjacency fingerprint of the interference graph the
//! schedule was proved against, and the list of proof obligations the
//! certificate claims.
//!
//! The split of responsibilities is deliberately adversarial:
//!
//! * [`color_schedule`] is the *untrusted producer* — a greedy
//!   smallest-available-color pass in site order. It is simple and fast,
//!   but nothing downstream assumes it is correct.
//! * [`verify_certificate`] is the *independent checker* — it re-derives
//!   no-neighbours-per-phase, exact chunk partition, and exactly-once
//!   coverage from the raw CSR adjacency (the checker in
//!   [`schedule`](crate::schedule)), never trusting the colorer (or
//!   whoever deserialized the certificate from JSON) to have done its
//!   job. It is the workspace's only schedule prover.
//!
//! On a first-order grid the greedy pass reproduces the checkerboard
//! exactly (and the 2×2 block coloring on a second-order grid), so the
//! engine's historical parity scheduling is the degenerate 2-color case
//! of this module — see DESIGN §14 for the argument.

use mogs_mrf::codec::{read_hex_u64, read_object, required, ObjectWriter};
use mogs_mrf::Topology;
use serde::{de, Deserialize, Serialize};

use crate::report::{AuditReport, Violation};
use crate::schedule::{check_graph_schedule, Chunking};

/// The certificate format version [`verify_certificate`] understands.
/// Bump on any change to the serialized layout or to the meaning of an
/// obligation; verifiers reject every other version outright.
pub const CERTIFICATE_VERSION: u32 = 1;

/// One invariant a certificate claims to have proved. A verifier treats
/// a certificate that fails to claim any of [`Obligation::ALL`] as
/// unsound, because a clean verdict would then be silent about an
/// invariant the unsafe plane path requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Obligation {
    /// No two sites adjacent in the interference graph update in the
    /// same color class.
    NoNeighborsSharePhase,
    /// The chunks of every color class partition it exactly.
    ExactChunkPartition,
    /// Every site is updated exactly once per sweep.
    ExactlyOnceCoverage,
}

impl Obligation {
    /// Every obligation the unsafe plane path requires.
    pub const ALL: [Obligation; 3] = [
        Obligation::NoNeighborsSharePhase,
        Obligation::ExactChunkPartition,
        Obligation::ExactlyOnceCoverage,
    ];

    /// The obligation's stable name (matches the serialized form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Obligation::NoNeighborsSharePhase => "NoNeighborsSharePhase",
            Obligation::ExactChunkPartition => "ExactChunkPartition",
            Obligation::ExactlyOnceCoverage => "ExactlyOnceCoverage",
        }
    }
}

/// A serializable schedule proof: color classes plus chunk partition,
/// bound to the interference graph they were proved against.
///
/// Construction does not imply validity — a certificate is only as good
/// as the [`verify_certificate`] verdict on it. That is the point:
/// certificates can cross process or serialization boundaries, and the
/// admitting side re-proves everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleCertificate {
    version: u32,
    sites: usize,
    fingerprint: u64,
    classes: Vec<Vec<usize>>,
    chunking: Chunking,
    obligations: Vec<Obligation>,
}

impl ScheduleCertificate {
    /// Wraps an externally produced coloring as a certificate bound to
    /// `topology`, claiming every obligation. Used by the engine for
    /// caller-supplied phase groups, and by adversarial tests to inject
    /// colorings the verifier must reject.
    #[must_use]
    pub fn from_classes(topology: &Topology, classes: Vec<Vec<usize>>, chunking: Chunking) -> Self {
        ScheduleCertificate {
            version: CERTIFICATE_VERSION,
            sites: topology.len(),
            fingerprint: topology.fingerprint(),
            classes,
            chunking,
            obligations: Obligation::ALL.to_vec(),
        }
    }

    /// Replaces the claimed obligations (adversarial-test hook: a
    /// verifier must reject a certificate that claims too few).
    #[must_use]
    pub fn with_obligations(mut self, obligations: Vec<Obligation>) -> Self {
        self.obligations = obligations;
        self
    }

    /// The certificate format version.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Sites in the graph the certificate was proved against.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Adjacency fingerprint of the graph the certificate was proved
    /// against (see [`Topology::fingerprint`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The color classes, in phase order; each lists its sites in update
    /// order.
    #[must_use]
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Number of color classes (the schedule's chromatic width).
    #[must_use]
    pub fn color_count(&self) -> usize {
        self.classes.len()
    }

    /// The chunk partition.
    #[must_use]
    pub fn chunking(&self) -> &Chunking {
        &self.chunking
    }

    /// The obligations the certificate claims.
    #[must_use]
    pub fn obligations(&self) -> &[Obligation] {
        &self.obligations
    }

    /// Consumes the certificate, returning the color classes (for a
    /// caller that verified it and now wants to run the schedule without
    /// cloning).
    #[must_use]
    pub fn into_classes(self) -> Vec<Vec<usize>> {
        self.classes
    }

    /// The certificate as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a certificate from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed JSON or missing fields.
    /// A certificate that parses is *not* thereby valid — run it through
    /// [`verify_certificate`].
    pub fn from_json(input: &str) -> Result<Self, de::Error> {
        serde::json::from_str(input)
    }
}

// The vendored serde derive cannot express struct-variant enums
// (`Chunking`) or a u64 that must survive JSON round-trips, so the wire
// format is written with the shared codec: the fingerprint under the
// hex rule of `mogs_mrf::codec`, and `Chunking` as a tagged object.
impl Serialize for Chunking {
    fn serialize_json(&self, out: &mut String) {
        let mut w = ObjectWriter::new(out);
        match self {
            Chunking::Uniform { threads } => w.field("kind", "uniform").field("threads", threads),
            Chunking::Explicit { ranges } => w.field("kind", "explicit").field("ranges", ranges),
        }
        .end();
    }
}

impl Deserialize for Chunking {
    fn deserialize_json(parser: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        let (mut kind, mut threads, mut ranges) = (None, None, None);
        read_object(parser, |p, key| {
            match key {
                "kind" => kind = Some(p.parse_string()?),
                "threads" => threads = Some(usize::deserialize_json(p)?),
                "ranges" => ranges = Some(Vec::deserialize_json(p)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        match kind.as_deref() {
            Some("uniform") => Ok(Chunking::Uniform {
                threads: required(parser, "uniform chunking", "threads", threads)?,
            }),
            Some("explicit") => Ok(Chunking::Explicit {
                ranges: required(parser, "explicit chunking", "ranges", ranges)?,
            }),
            _ => Err(parser.error("chunking kind must be 'uniform' or 'explicit'")),
        }
    }
}

impl Serialize for ScheduleCertificate {
    fn serialize_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("version", &self.version)
            .field("sites", &self.sites)
            .hex_u64("fingerprint", self.fingerprint)
            .field("classes", &self.classes)
            .field("chunking", &self.chunking)
            .field("obligations", &self.obligations)
            .end();
    }
}

impl Deserialize for ScheduleCertificate {
    fn deserialize_json(parser: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        let (mut version, mut sites, mut fingerprint) = (None, None, None);
        let (mut classes, mut chunking, mut obligations) = (None, None, None);
        read_object(parser, |p, key| {
            match key {
                "version" => version = Some(u32::deserialize_json(p)?),
                "sites" => sites = Some(usize::deserialize_json(p)?),
                "fingerprint" => fingerprint = Some(read_hex_u64(p)?),
                "classes" => classes = Some(Vec::deserialize_json(p)?),
                "chunking" => chunking = Some(Chunking::deserialize_json(p)?),
                "obligations" => obligations = Some(Vec::deserialize_json(p)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(ScheduleCertificate {
            version: required(parser, "certificate", "version", version)?,
            sites: required(parser, "certificate", "sites", sites)?,
            fingerprint: required(parser, "certificate", "fingerprint", fingerprint)?,
            classes: required(parser, "certificate", "classes", classes)?,
            chunking: required(parser, "certificate", "chunking", chunking)?,
            obligations: required(parser, "certificate", "obligations", obligations)?,
        })
    }
}

/// Greedily colors `topology` and emits a certificate with the uniform
/// `threads`-way chunk split.
///
/// Sites are visited in ascending order; each takes the smallest color
/// unused by its already-colored neighbours. Classes therefore come out
/// in first-appearance order with sites ascending within each class —
/// which on a first-order grid reproduces the checkerboard parity order
/// (and the 2×2 block-color order on a second-order grid) exactly.
///
/// The result is a *claim*, not a proof: run it through
/// [`verify_certificate`] before trusting it.
#[must_use]
pub fn color_schedule(topology: &Topology, threads: usize) -> ScheduleCertificate {
    let n = topology.len();
    let mut color: Vec<usize> = vec![usize::MAX; n];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut used: Vec<bool> = Vec::new();
    for site in 0..n {
        // `classes.len() + 1` slots always hold a free color: the
        // already-colored neighbours use at most `classes.len()` of them.
        used.clear();
        used.resize(classes.len() + 1, false);
        for &neighbor in topology.neighbors(site) {
            if neighbor < site {
                used[color[neighbor]] = true;
            }
        }
        let c = used
            .iter()
            .position(|&taken| !taken)
            .unwrap_or(classes.len());
        if c == classes.len() {
            classes.push(Vec::new());
        }
        classes[c].push(site);
        color[site] = c;
    }
    ScheduleCertificate::from_classes(topology, classes, Chunking::Uniform { threads })
}

/// Independently re-proves `certificate` against `topology`, trusting
/// nothing about how it was produced.
///
/// Checks run in order of how much of the certificate they let the
/// verifier believe:
///
/// 1. **Version** — an unknown format version means no field can be
///    interpreted; the report carries only
///    [`Violation::CertificateVersionMismatch`].
/// 2. **Binding** — the site count and adjacency fingerprint must match
///    `topology`, else the proof is about some other graph
///    ([`Violation::CertificateTopologyMismatch`]) and re-checking the
///    classes against this one would be meaningless.
/// 3. **Obligations** — every [`Obligation::ALL`] entry must be claimed
///    ([`Violation::CertificateObligationMissing`] per absentee).
/// 4. **The schedule itself** — the three invariants are re-derived from
///    the raw adjacency by the interference checker in
///    [`schedule`](crate::schedule).
#[must_use]
pub fn verify_certificate(topology: &Topology, certificate: &ScheduleCertificate) -> AuditReport {
    let mut violations = Vec::new();
    if certificate.version != CERTIFICATE_VERSION {
        violations.push(Violation::CertificateVersionMismatch {
            found: certificate.version,
            supported: CERTIFICATE_VERSION,
        });
        return AuditReport {
            violations,
            stats: Default::default(),
        };
    }
    if certificate.sites != topology.len() || certificate.fingerprint != topology.fingerprint() {
        violations.push(Violation::CertificateTopologyMismatch {
            cert_sites: certificate.sites,
            topo_sites: topology.len(),
            cert_fingerprint: certificate.fingerprint,
            topo_fingerprint: topology.fingerprint(),
        });
        return AuditReport {
            violations,
            stats: Default::default(),
        };
    }
    for required in Obligation::ALL {
        if !certificate.obligations.contains(&required) {
            violations.push(Violation::CertificateObligationMissing {
                obligation: required.name(),
            });
        }
    }
    let mut report = check_graph_schedule(topology, &certificate.classes, &certificate.chunking);
    violations.append(&mut report.violations);
    report.violations = violations;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_mrf::{Grid2D, Neighborhood};

    fn path(n: usize) -> Topology {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Topology::from_edges(n, &edges).expect("path graph")
    }

    #[test]
    fn greedy_coloring_of_a_path_is_the_2_coloring() {
        let topo = path(6);
        let cert = color_schedule(&topo, 2);
        assert_eq!(cert.classes(), &[vec![0, 2, 4], vec![1, 3, 5]]);
        assert!(verify_certificate(&topo, &cert).is_clean());
    }

    #[test]
    fn greedy_coloring_matches_checkerboard_on_first_order_grids() {
        for (w, h) in [(2, 2), (5, 4), (9, 6)] {
            let grid = Grid2D::new(w, h);
            let topo = Topology::from_grid(grid, Neighborhood::FirstOrder);
            let cert = color_schedule(&topo, 2);
            let reference: Vec<Vec<usize>> = mogs_mrf::Parity::BOTH
                .into_iter()
                .map(|p| grid.sites_of_parity(p).collect())
                .collect();
            assert_eq!(cert.classes(), &reference[..], "{w}x{h}");
        }
    }

    #[test]
    fn greedy_coloring_matches_block_colors_on_second_order_grids() {
        for (w, h) in [(2, 2), (5, 4), (9, 6)] {
            let grid = Grid2D::new(w, h);
            let topo = Topology::from_grid(grid, Neighborhood::SecondOrder);
            let cert = color_schedule(&topo, 2);
            let reference: Vec<Vec<usize>> = (0..4)
                .map(|c| grid.sites_of_block_color(c).collect())
                .collect();
            assert_eq!(cert.classes(), &reference[..], "{w}x{h}");
        }
    }

    #[test]
    fn clique_needs_one_color_per_site_and_verifies() {
        let n = 5;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        let topo = Topology::from_edges(n, &edges).expect("clique");
        let cert = color_schedule(&topo, 1);
        assert_eq!(cert.color_count(), n);
        assert!(verify_certificate(&topo, &cert).is_clean());
    }

    #[test]
    fn star_needs_two_colors_with_the_hub_alone_in_one() {
        let topo = Topology::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).expect("star");
        let cert = color_schedule(&topo, 1);
        assert_eq!(cert.classes(), &[vec![0], vec![1, 2, 3, 4]]);
        assert!(verify_certificate(&topo, &cert).is_clean());
    }

    #[test]
    fn adjacent_sites_in_one_class_are_rejected() {
        let topo = path(4);
        let cert = ScheduleCertificate::from_classes(
            &topo,
            vec![vec![0, 1], vec![2, 3]],
            Chunking::Uniform { threads: 1 },
        );
        let report = verify_certificate(&topo, &cert);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NeighborsSharePhase { .. })));
    }

    #[test]
    fn wrong_version_is_rejected_before_anything_else() {
        let topo = path(4);
        let mut cert = color_schedule(&topo, 1);
        cert.version = CERTIFICATE_VERSION + 1;
        let report = verify_certificate(&topo, &cert);
        assert_eq!(
            report.violations,
            vec![Violation::CertificateVersionMismatch {
                found: CERTIFICATE_VERSION + 1,
                supported: CERTIFICATE_VERSION,
            }]
        );
    }

    #[test]
    fn foreign_topology_is_rejected() {
        let topo = path(4);
        let other = path(5);
        let cert = color_schedule(&other, 1);
        let report = verify_certificate(&topo, &cert);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            Violation::CertificateTopologyMismatch {
                cert_sites: 5,
                topo_sites: 4,
                ..
            }
        ));
        // Same site count, different adjacency: caught by fingerprint.
        let rewired = Topology::from_edges(4, &[(0, 2), (1, 3)]).expect("rewired");
        let cert = color_schedule(&rewired, 1);
        let report = verify_certificate(&topo, &cert);
        assert!(matches!(
            report.violations[0],
            Violation::CertificateTopologyMismatch { .. }
        ));
    }

    #[test]
    fn missing_obligations_are_rejected_by_name() {
        let topo = path(4);
        let cert =
            color_schedule(&topo, 1).with_obligations(vec![Obligation::NoNeighborsSharePhase]);
        let report = verify_certificate(&topo, &cert);
        assert_eq!(
            report.violations,
            vec![
                Violation::CertificateObligationMissing {
                    obligation: "ExactChunkPartition",
                },
                Violation::CertificateObligationMissing {
                    obligation: "ExactlyOnceCoverage",
                },
            ]
        );
    }

    #[test]
    fn json_round_trip_is_identity() {
        let grid = Grid2D::new(5, 4);
        let topo = Topology::from_grid(grid, Neighborhood::SecondOrder);
        // 2 threads: the smallest block-color class has 4 sites, so any
        // higher count would (correctly) flag a chunk underflow.
        let cert = color_schedule(&topo, 2);
        let json = cert.to_json();
        let back = ScheduleCertificate::from_json(&json).expect("round trip");
        assert_eq!(back, cert);
        assert!(verify_certificate(&topo, &back).is_clean());
        // Explicit chunking survives too.
        let cert = ScheduleCertificate::from_classes(
            &topo,
            cert.classes().to_vec(),
            Chunking::Explicit {
                ranges: vec![vec![(0, 5)], vec![(0, 5)], vec![(0, 5)], vec![(0, 5)]],
            },
        );
        let back = ScheduleCertificate::from_json(&cert.to_json()).expect("round trip");
        assert_eq!(back, cert);
    }

    #[test]
    fn tampered_json_fingerprint_is_rejected_as_foreign() {
        let topo = path(4);
        let cert = color_schedule(&topo, 1);
        let json = cert.to_json();
        let hex = format!("{:016x}", cert.fingerprint());
        let tampered = json.replace(&hex, "00000000deadbeef");
        let back = ScheduleCertificate::from_json(&tampered).expect("parses");
        let report = verify_certificate(&topo, &back);
        assert!(matches!(
            report.violations[0],
            Violation::CertificateTopologyMismatch { .. }
        ));
    }

    #[test]
    fn json_with_unknown_keys_and_reordered_fields_still_parses() {
        let topo = path(3);
        let cert = color_schedule(&topo, 1);
        let json = format!(
            "{{\"note\":\"x\",\"obligations\":[\"NoNeighborsSharePhase\",\
             \"ExactChunkPartition\",\"ExactlyOnceCoverage\"],\
             \"chunking\":{{\"threads\":1,\"kind\":\"uniform\"}},\
             \"classes\":[[0,2],[1]],\"fingerprint\":\"{:016x}\",\
             \"sites\":3,\"version\":1}}",
            cert.fingerprint()
        );
        let back = ScheduleCertificate::from_json(&json).expect("parses");
        assert_eq!(back, cert);
    }

    #[test]
    fn signed_fingerprint_is_refused() {
        // `u64::from_str_radix` reads "+1" as 1.
        let json = "{\"version\":1,\"sites\":4,\"fingerprint\":\"+1\",\
                    \"classes\":[[0,2],[1,3]],\"chunking\":{\"kind\":\"uniform\",\"threads\":1},\
                    \"obligations\":[]}";
        assert!(ScheduleCertificate::from_json(json).is_err());
        let unsigned = json.replace("+1", "1");
        assert_eq!(
            ScheduleCertificate::from_json(&unsigned)
                .expect("unsigned fingerprint parses")
                .fingerprint(),
            1
        );
    }

    #[test]
    fn large_fingerprints_survive_the_json_round_trip_exactly() {
        // Above 2^53: a numeric encoding through f64 would corrupt this.
        let topo = path(3);
        let mut cert = color_schedule(&topo, 1);
        cert.fingerprint = u64::MAX - 1;
        let back = ScheduleCertificate::from_json(&cert.to_json()).expect("parses");
        assert_eq!(back.fingerprint(), u64::MAX - 1);
    }
}

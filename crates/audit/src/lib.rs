//! `mogs-audit` — static analysis for the MOGS inference runtime.
//!
//! Three analyzers, one purpose: turn the prose arguments that justify the
//! engine's `unsafe` label-plane path into machine-checked facts.
//!
//! * [`certificate`] — the **schedule prover**. A greedy graph-coloring
//!   scheduler ([`color_schedule`]) emits a serializable, versioned
//!   [`ScheduleCertificate`] over any sparse
//!   [`Topology`](mogs_mrf::Topology); the independent
//!   [`verify_certificate`] pass — the only prover — re-proves against
//!   the raw adjacency, without trusting the colorer, the three
//!   invariants the in-place plane update requires (no neighbouring
//!   sites in one phase, chunks partition each group exactly, every
//!   site covered once per sweep), returning a typed [`AuditReport`].
//!   Grid schedules are the degenerate 2-color (first order) / 4-color
//!   (second order) case. `mogs-engine` runs it at job admission;
//!   `repro audit` runs it over the seed vision workloads. The checker
//!   itself lives in [`schedule`].
//! * [`sharding`] — the **fleet partition verifier**. For a plane split
//!   across worker processes (`mogs-fleet`) it proves the partition is
//!   exact, aligned to the certificate's deterministic RNG cells, and
//!   haloed with precisely the cross-shard adjacency — the three facts
//!   the fleet's bit-identity argument stands on.
//! * [`lint`] — the **workspace source linter** (`cargo run -p
//!   mogs-audit -- lint`). A dependency-light lexer-based pass enforcing
//!   project rules rustc and clippy cannot: `// SAFETY:` comments on
//!   `unsafe` blocks and impls, no `unwrap`/`expect` in library code,
//!   no `as` casts in allowlisted hot-path modules, `# Panics` docs on
//!   panicking public functions, and no float `==` in the physics
//!   crates.
//!
//! The optional `shadow` feature adds [`shadow::ShadowPlane`], a dynamic
//! happens-before checker tests use to cross-check the static verdict
//! against the access pattern a sweep actually performs.

pub mod certificate;
pub mod lexer;
pub mod lint;
pub mod report;
pub mod schedule;
#[cfg(feature = "shadow")]
pub mod shadow;
pub mod sharding;

pub use certificate::{
    color_schedule, verify_certificate, Obligation, ScheduleCertificate, CERTIFICATE_VERSION,
};
pub use report::{AuditError, AuditReport, AuditStats, SiteCoord, Violation};
pub use schedule::Chunking;
pub use sharding::{verify_sharding, ShardingReport, ShardingStats, ShardingViolation};

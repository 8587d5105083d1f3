//! The serializable fleet job description.
//!
//! A [`FleetSpec`] is everything a worker process needs to rebuild its
//! shard of the job *exactly* — workload, backend, sweep budget,
//! chunking, seed. It crosses the wire in every `Assign` message and is
//! stored as checkpoint `meta`, so seeds and the noise level follow the
//! workspace hex/bits rule described in [`mogs_mrf::codec`].
//!
//! Workloads are *descriptions*, not data: both the demo field (the
//! `mogs-ckpt` crash-harness Potts model) and the synthetic stereo pair
//! are deterministic functions of their parameters, so two processes
//! that parse the same spec build bit-identical MRFs without shipping
//! pixel planes around.

use mogs_mrf::codec::{read_hex_u64, read_object, required, F64Bits, ObjectWriter};
use serde::de::{self, Parser};
use serde::Deserialize;

use crate::error::{FleetError, FleetResult};

/// Which sampler family the fleet job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact software Gibbs (softmax of the conditionals).
    Softmax,
    /// Emulated RSU-G pool.
    Rsu {
        /// Units in the pool.
        replicas: usize,
    },
}

impl BackendKind {
    /// The engine-side backend selector.
    #[must_use]
    pub fn to_engine(self) -> mogs_engine::Backend {
        match self {
            BackendKind::Softmax => mogs_engine::Backend::Softmax,
            BackendKind::Rsu { replicas } => mogs_engine::Backend::RsuG { replicas },
        }
    }
}

/// A deterministic workload: parameters from which every process builds
/// the same MRF.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The `mogs-ckpt` crash-harness field: a Potts prior plus a fixed
    /// pseudo-random singleton preference per `(site, label)`.
    Demo {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
        /// Labels in the scalar label space.
        labels: u16,
    },
    /// Synthetic stereo matching (paper §8.1): a rendered rectified pair
    /// with a foreground square at known disparity.
    Stereo {
        /// Image width.
        width: usize,
        /// Image height.
        height: usize,
        /// Foreground disparity in pixels (`1..=4`).
        disparity: u8,
        /// Gaussian noise added to the rendered pair.
        noise_sigma: f64,
        /// Seed of the rendered scene (not the sampler).
        scene_seed: u64,
    },
}

impl Workload {
    /// Grid dimensions `(width, height)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        match *self {
            Workload::Demo { width, height, .. } | Workload::Stereo { width, height, .. } => {
                (width, height)
            }
        }
    }

    /// Sites in the plane.
    #[must_use]
    pub fn sites(&self) -> usize {
        let (w, h) = self.dims();
        w * h
    }

    /// Labels in the label space.
    #[must_use]
    pub fn label_count(&self) -> usize {
        match *self {
            Workload::Demo { labels, .. } => usize::from(labels),
            // Stereo uses the paper's 5-disparity space.
            Workload::Stereo { .. } => 5,
        }
    }
}

/// The complete, self-contained description of one fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// What to infer.
    pub workload: Workload,
    /// Which sampler family to run.
    pub backend: BackendKind,
    /// Full sweep budget.
    pub iterations: usize,
    /// Deterministic chunk count (feeds the chunk RNG streams; the
    /// partitioner splits along these chunks).
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Burn-in prefix discarded before mode tracking.
    pub burn_in: usize,
}

impl FleetSpec {
    /// Structural validation: everything checkable without building the
    /// field. Engine admission re-checks the rest per shard.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] naming the violated constraint.
    pub fn validate(&self) -> FleetResult<()> {
        let spec = |reason: String| FleetError::Spec { reason };
        let (w, h) = self.workload.dims();
        if w == 0 || h == 0 {
            return Err(spec(format!("workload grid {w}x{h} has no sites")));
        }
        if self.iterations == 0 {
            return Err(spec("iterations must be at least 1".to_string()));
        }
        if self.threads == 0 {
            return Err(spec("threads must be at least 1".to_string()));
        }
        match self.workload {
            Workload::Demo { labels, .. } => {
                if labels == 0 {
                    return Err(spec("demo label space must be non-empty".to_string()));
                }
            }
            Workload::Stereo {
                disparity,
                noise_sigma,
                ..
            } => {
                if !(1..=4).contains(&disparity) {
                    return Err(spec(format!(
                        "stereo disparity {disparity} outside 1..=4 (5-label space)"
                    )));
                }
                if !(noise_sigma.is_finite() && noise_sigma >= 0.0) {
                    return Err(spec(format!(
                        "stereo noise sigma {noise_sigma} must be finite and non-negative"
                    )));
                }
            }
        }
        if let BackendKind::Rsu { replicas } = self.backend {
            if replicas == 0 {
                return Err(spec("RSU pool needs at least one replica".to_string()));
            }
        }
        Ok(())
    }

    /// Encodes the spec as its wire/meta JSON text.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json(&mut out);
        out
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .with("workload", |out| {
                let mut w = ObjectWriter::new(out);
                match self.workload {
                    Workload::Demo {
                        width,
                        height,
                        labels,
                    } => w
                        .field("kind", "demo")
                        .field("width", &width)
                        .field("height", &height)
                        .field("labels", &labels),
                    Workload::Stereo {
                        width,
                        height,
                        disparity,
                        noise_sigma,
                        scene_seed,
                    } => w
                        .field("kind", "stereo")
                        .field("width", &width)
                        .field("height", &height)
                        .field("disparity", &disparity)
                        .f64_bits("noise_sigma", noise_sigma)
                        .hex_u64("scene_seed", scene_seed),
                }
                .end();
            })
            .with("backend", |out| {
                let mut w = ObjectWriter::new(out);
                match self.backend {
                    BackendKind::Softmax => w.field("kind", "softmax"),
                    BackendKind::Rsu { replicas } => {
                        w.field("kind", "rsu").field("replicas", &replicas)
                    }
                }
                .end();
            })
            .field("iterations", &self.iterations)
            .field("threads", &self.threads)
            .hex_u64("seed", self.seed)
            .field("burn_in", &self.burn_in)
            .end();
    }

    /// Parses a spec from its JSON text and validates it.
    ///
    /// # Errors
    ///
    /// [`FleetError::Protocol`] on malformed JSON, [`FleetError::Spec`]
    /// on a structurally invalid spec.
    pub fn parse(input: &str) -> FleetResult<Self> {
        let mut parser = Parser::new(input);
        let spec = Self::parse_value(&mut parser).map_err(protocol)?;
        parser.expect_end().map_err(protocol)?;
        spec.validate()?;
        Ok(spec)
    }

    pub(crate) fn parse_value(parser: &mut Parser<'_>) -> Result<Self, de::Error> {
        let (mut workload, mut backend, mut iterations) = (None, None, None);
        let (mut threads, mut seed, mut burn_in) = (None, None, None);
        read_object(parser, |p, key| {
            match key {
                "workload" => workload = Some(parse_workload(p)?),
                "backend" => backend = Some(parse_backend(p)?),
                "iterations" => iterations = Some(usize::deserialize_json(p)?),
                "threads" => threads = Some(usize::deserialize_json(p)?),
                "seed" => seed = Some(read_hex_u64(p)?),
                "burn_in" => burn_in = Some(usize::deserialize_json(p)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(FleetSpec {
            workload: required(parser, "spec", "workload", workload)?,
            backend: required(parser, "spec", "backend", backend)?,
            iterations: required(parser, "spec", "iterations", iterations)?,
            threads: required(parser, "spec", "threads", threads)?,
            seed: required(parser, "spec", "seed", seed)?,
            burn_in: required(parser, "spec", "burn_in", burn_in)?,
        })
    }
}

pub(crate) fn protocol(err: de::Error) -> FleetError {
    FleetError::Protocol {
        reason: err.to_string(),
    }
}

fn parse_workload(parser: &mut Parser<'_>) -> Result<Workload, de::Error> {
    let (mut kind, mut width, mut height, mut labels) = (None, None, None, None);
    let (mut disparity, mut noise_sigma, mut scene_seed) = (None, None, None);
    read_object(parser, |p, key| {
        match key {
            "kind" => kind = Some(p.parse_string()?),
            "width" => width = Some(usize::deserialize_json(p)?),
            "height" => height = Some(usize::deserialize_json(p)?),
            "labels" => labels = Some(u16::deserialize_json(p)?),
            "disparity" => disparity = Some(u8::deserialize_json(p)?),
            "noise_sigma" => noise_sigma = Some(F64Bits::deserialize_json(p)?.0),
            "scene_seed" => scene_seed = Some(read_hex_u64(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let kind = required(parser, "workload", "kind", kind)?;
    let width = required(parser, "workload", "width", width)?;
    let height = required(parser, "workload", "height", height)?;
    match kind.as_str() {
        "demo" => Ok(Workload::Demo {
            width,
            height,
            labels: required(parser, "demo workload", "labels", labels)?,
        }),
        "stereo" => Ok(Workload::Stereo {
            width,
            height,
            disparity: required(parser, "stereo workload", "disparity", disparity)?,
            noise_sigma: required(parser, "stereo workload", "noise_sigma", noise_sigma)?,
            scene_seed: required(parser, "stereo workload", "scene_seed", scene_seed)?,
        }),
        other => Err(parser.error(&format!("unknown workload kind {other:?}"))),
    }
}

fn parse_backend(parser: &mut Parser<'_>) -> Result<BackendKind, de::Error> {
    let (mut kind, mut replicas) = (None, None);
    read_object(parser, |p, key| {
        match key {
            "kind" => kind = Some(p.parse_string()?),
            "replicas" => replicas = Some(usize::deserialize_json(p)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match required(parser, "backend", "kind", kind)?.as_str() {
        "softmax" => Ok(BackendKind::Softmax),
        "rsu" => Ok(BackendKind::Rsu {
            replicas: required(parser, "rsu backend", "replicas", replicas)?,
        }),
        other => Err(parser.error(&format!("unknown backend kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> FleetSpec {
        FleetSpec {
            workload: Workload::Demo {
                width: 12,
                height: 9,
                labels: 5,
            },
            backend: BackendKind::Rsu { replicas: 4 },
            iterations: 36,
            threads: 3,
            seed: 0x5EED_0C0A,
            burn_in: 6,
        }
    }

    fn stereo() -> FleetSpec {
        FleetSpec {
            workload: Workload::Stereo {
                width: 24,
                height: 18,
                disparity: 2,
                noise_sigma: 2.0,
                scene_seed: 17,
            },
            backend: BackendKind::Softmax,
            iterations: 20,
            threads: 4,
            seed: u64::MAX - 3,
            burn_in: 6,
        }
    }

    #[test]
    fn round_trips_both_workloads() {
        for spec in [demo(), stereo()] {
            let text = spec.encode();
            let back = FleetSpec::parse(&text).expect("round trip parses");
            assert_eq!(back, spec, "round trip must be lossless: {text}");
        }
    }

    #[test]
    fn seed_above_f64_precision_survives() {
        // 2^53 + 1 is exactly the value a number-typed seed would round.
        let mut spec = demo();
        spec.seed = (1 << 53) + 1;
        let back = FleetSpec::parse(&spec.encode()).expect("parses");
        assert_eq!(back.seed, (1 << 53) + 1);
    }

    #[test]
    fn noise_sigma_is_bit_exact() {
        let mut spec = stereo();
        if let Workload::Stereo { noise_sigma, .. } = &mut spec.workload {
            *noise_sigma = 0.1 + 0.2; // a value with no short decimal form
        }
        let back = FleetSpec::parse(&spec.encode()).expect("parses");
        let Workload::Stereo { noise_sigma, .. } = back.workload else {
            panic!("wrong workload");
        };
        assert_eq!(noise_sigma.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut bad = demo();
        bad.iterations = 0;
        assert!(FleetSpec::parse(&bad.encode()).is_err(), "zero iterations");
        let mut bad = stereo();
        if let Workload::Stereo { disparity, .. } = &mut bad.workload {
            *disparity = 9;
        }
        assert!(FleetSpec::parse(&bad.encode()).is_err(), "bad disparity");
        assert!(
            FleetSpec::parse("{\"workload\":{\"kind\":\"demo\"}}").is_err(),
            "missing fields"
        );
        assert!(FleetSpec::parse("not json").is_err(), "garbage");
    }

    #[test]
    fn unknown_keys_are_skipped_for_forward_compat() {
        let mut text = demo().encode();
        text.insert_str(1, "\"future\":{\"nested\":[1,2,3]},");
        let back = FleetSpec::parse(&text).expect("tolerates unknown keys");
        assert_eq!(back, demo());
    }
}

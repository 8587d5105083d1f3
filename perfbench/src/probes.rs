//! Bench-owned implementations of the engine's public extension traits.
//!
//! - [`TimedKernel`] wraps any [`SweepKernel`]: it times each
//!   `sample_chunk` call and forwards `name()` and every unit hook, so
//!   checkpoint bindings and sampled labels stay bit-identical.
//! - [`TimedWriter`] wraps a [`CheckpointWriter`] and times each write.
//! - [`SweepClock`] is a [`DiagSink`] that asks for nothing
//!   ([`SinkNeeds::none`]) and stamps the end of every sweep.
//!
//! The kernel and writer wrappers are used on traced runs only; the
//! sweep clock is how the untraced run gets per-sweep times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mogs_engine::prelude::*;
use mogs_gibbs::LabelSampler;
use mogs_mrf::Label;
use rand::Rng;

use crate::trace::Tracer;

/// Counters shared by every clone of one [`TimedKernel`].
#[derive(Debug)]
pub struct KernelProbe {
    /// `sample_chunk` calls.
    pub chunks: AtomicU64,
    /// Sites drawn.
    pub sites: AtomicU64,
    /// Time inside the wrapped `sample_chunk`, summed over workers.
    pub busy_ns: AtomicU64,
    /// Span id the chunk spans are parented to.
    pub parent: AtomicU64,
    tracer: Arc<Tracer>,
}

impl KernelProbe {
    /// A zeroed probe recording chunk spans into `tracer`.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(KernelProbe {
            chunks: AtomicU64::new(0),
            sites: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            tracer,
        })
    }

    /// The tracer chunk spans go to.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }
}

/// A timing wrapper around a sweep kernel.
#[derive(Debug, Clone)]
pub struct TimedKernel<K> {
    inner: K,
    probe: Arc<KernelProbe>,
}

impl<K> TimedKernel<K> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: K, probe: Arc<KernelProbe>) -> Self {
        TimedKernel { inner, probe }
    }
}

impl<K: LabelSampler> LabelSampler for TimedKernel<K> {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.inner.sample_label(energies, temperature, current, rng)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn conditional_probabilities(&self, energies: &[f64], temperature: f64) -> Option<Vec<f64>> {
        self.inner.conditional_probabilities(energies, temperature)
    }
}

impl<K: SweepKernel> SweepKernel for TimedKernel<K> {
    fn sample_chunk<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        m: usize,
        temperature: f64,
        current: &[Label],
        out: &mut [Label],
        scratch: &mut KernelScratch,
        rng: &mut R,
    ) {
        let start = Instant::now();
        self.inner
            .sample_chunk(energies, m, temperature, current, out, scratch, rng);
        let end = Instant::now();
        let p = &self.probe;
        p.chunks.fetch_add(1, Ordering::Relaxed);
        p.sites.fetch_add(current.len() as u64, Ordering::Relaxed);
        let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        p.busy_ns.fetch_add(ns, Ordering::Relaxed);
        p.tracer.record(
            "kernel.draw",
            p.parent.load(Ordering::Relaxed),
            0,
            start,
            end,
        );
    }

    fn unit_count(&self) -> usize {
        self.inner.unit_count()
    }

    fn inject_unit_fault(&mut self, unit: usize, fault: UnitFault) -> bool {
        self.inner.inject_unit_fault(unit, fault)
    }

    fn set_live_units(&mut self, live: &[bool]) -> usize {
        self.inner.set_live_units(live)
    }

    fn probe_unit(&self, unit: usize, energies: &[f64], draws: u32, seed: u64) -> Option<Vec<f64>> {
        self.inner.probe_unit(unit, energies, draws, seed)
    }

    fn fail_over_to_exact(&mut self) -> bool {
        self.inner.fail_over_to_exact()
    }

    fn unit_faults(&self) -> Vec<Option<UnitFault>> {
        self.inner.unit_faults()
    }
}

/// A timing wrapper around a checkpoint writer.
pub struct TimedWriter {
    inner: Arc<dyn CheckpointWriter>,
    tracer: Arc<Tracer>,
    /// Span id write spans are parented to.
    pub parent: AtomicU64,
    /// Duration of every successful write, ns.
    pub writes_ns: Mutex<Vec<u64>>,
}

impl TimedWriter {
    /// Wraps `inner`, recording `ckpt.write` spans into `tracer`.
    #[must_use]
    pub fn new(inner: Arc<dyn CheckpointWriter>, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(TimedWriter {
            inner,
            tracer,
            parent: AtomicU64::new(0),
            writes_ns: Mutex::new(Vec::new()),
        })
    }
}

impl CheckpointWriter for TimedWriter {
    fn write(&self, state: &JobState) -> Result<(), String> {
        let start = Instant::now();
        let result = self.inner.write(state);
        let end = Instant::now();
        if result.is_ok() {
            let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
            self.writes_ns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ns);
        }
        self.tracer.record(
            "ckpt.write",
            self.parent.load(Ordering::Relaxed),
            0,
            start,
            end,
        );
        result
    }
}

/// Stamps the end of every sweep; requests neither energy nor labels.
#[derive(Debug, Default)]
pub struct SweepClock {
    stamps: Mutex<Vec<Instant>>,
}

impl SweepClock {
    /// The sweep-end instants recorded so far.
    #[must_use]
    pub fn stamps(&self) -> Vec<Instant> {
        self.stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl DiagSink for SweepClock {
    fn needs(&self) -> SinkNeeds {
        SinkNeeds::none()
    }

    fn on_start(&self, info: &JobStartInfo) {
        let mut stamps = self.stamps.lock().unwrap_or_else(PoisonError::into_inner);
        stamps.clear();
        stamps.reserve(info.iterations);
    }

    fn on_sweep(&self, _observation: &SweepObservation<'_>) -> SweepDecision {
        let now = Instant::now();
        self.stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(now);
        SweepDecision::Continue
    }
}

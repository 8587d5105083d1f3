//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, a parent and a job id (spans of
//! one serve job share the job id). Spans are pushed into a vector and
//! written out as JSON lines when the run ends; nothing is written while
//! the workload runs. A disabled tracer records nothing and costs one
//! branch per call site.
//!
//! [`attribute`] turns a span tree into self times that add up to the
//! root's duration: every instant of the root interval is charged to the
//! deepest span open at that instant (parallel spans of one depth, such
//! as kernel chunks on two workers, are charged once, by their union).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Job id shared by every span of one job (0 when not job-scoped).
    pub job: u64,
    /// Layer-qualified name, e.g. `kernel.draw`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// The span recorder shared by the workload code and the wrappers.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; when `enabled` is false every call is a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id ahead of recording, so children measured
    /// before their parent closes can name it. Returns 0 when disabled.
    #[must_use]
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished interval under a fresh id and returns the id
    /// (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, job, start, end);
        id
    }

    /// Records a finished interval under an id from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            job,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name inside the subtree of `root`, in ns, with
/// the root's own share under `remainder`. The values add up to the
/// root's duration exactly.
#[must_use]
pub fn attribute(
    spans: &[Span],
    root: u64,
    remainder: &'static str,
) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut root_idx = None;
    for (i, s) in spans.iter().enumerate() {
        if s.id == root {
            root_idx = Some(i);
        } else {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let mut out = BTreeMap::new();
    let Some(root_idx) = root_idx else {
        return out;
    };
    let (lo, hi) = (spans[root_idx].start_ns, spans[root_idx].end_ns);
    // (time, +1/-1, depth, name) for every span below the root,
    // clipped to the root interval.
    let mut events: Vec<(u64, i64, usize, &'static str)> = Vec::new();
    let mut stack = vec![(root, 1usize)];
    while let Some((id, depth)) = stack.pop() {
        for &i in children.get(&id).map_or(&[][..], Vec::as_slice) {
            let s = &spans[i];
            let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
            if a < b {
                events.push((a, 1, depth, s.name));
                events.push((b, -1, depth, s.name));
            }
            stack.push((s.id, depth + 1));
        }
    }
    events.sort_unstable();
    let mut active: BTreeMap<(usize, &'static str), i64> = BTreeMap::new();
    let mut t = lo;
    for (at, delta, depth, name) in events {
        if at > t {
            let owner = active.keys().next_back().map_or(remainder, |&(_, n)| n);
            *out.entry(owner).or_insert(0) += at - t;
            t = at;
        }
        let count = active.entry((depth, name)).or_insert(0);
        *count += delta;
        if *count == 0 {
            active.remove(&(depth, name));
        }
    }
    if hi > t {
        *out.entry(remainder).or_insert(0) += hi - t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span(1, 0, "run", 0, 100),
            span(2, 1, "job", 10, 90),
            // Two parallel draws overlap: charged once, by union.
            span(3, 2, "draw", 20, 50),
            span(4, 2, "draw", 30, 60),
            span(5, 2, "write", 70, 80),
            span(6, 1, "build", 0, 10),
        ];
        let parts = attribute(&spans, 1, "remainder");
        assert_eq!(parts["build"], 10);
        assert_eq!(parts["draw"], 40);
        assert_eq!(parts["write"], 10);
        assert_eq!(parts["job"], 30);
        assert_eq!(parts["remainder"], 10);
        assert_eq!(parts.values().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, 0, now, now), 0);
        assert!(t.spans().is_empty());
    }
}

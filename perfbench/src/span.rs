//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! into a layer of the system under test. A span's name is
//! `<layer>.<operation>`; the layer is the part before the first dot. With
//! recording off (every untraced run), [`enter`] returns an inert guard and
//! records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Enclosing span on the same logical path, if any.
    pub parent: Option<u64>,
    /// Pass the span belongs to: 0 for set-up, 1.. for timed passes, and
    /// [`DIFF_PASS`] for the differential passes of the traced run.
    pub pass: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer half of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Pass id of the traced run's differential passes.
pub const DIFF_PASS: u64 = u64::MAX;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static PASS: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off for spans entered from now on.
pub fn set_recording(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    ON.load(Ordering::SeqCst)
}

/// Tag spans entered from now on with pass `id`.
pub fn set_pass(id: u64) {
    PASS.store(id, Ordering::SeqCst);
}

/// Open guard; the span is recorded when it drops.
pub struct Guard {
    open: Option<(u64, &'static str, u64, Option<u64>, u64)>,
}

impl Guard {
    /// The span's id (for parenting spans on another thread), if recording.
    pub fn id(&self) -> Option<u64> {
        self.open.map(|o| o.0)
    }
}

/// Enter span `name` under the innermost open span of this thread.
pub fn enter(name: &'static str) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied());
    enter_under(name, parent)
}

/// Enter span `name` under an explicit parent (used by the serve leg's
/// query thread, whose spans belong to the pass opened on the main thread).
pub fn enter_under(name: &'static str, parent: Option<u64>) -> Guard {
    if !recording() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    let start = epoch().elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, name, start, parent, PASS.load(Ordering::SeqCst))),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, start_ns, parent, pass)) = self.open.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let span = Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            pass,
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Every span recorded so far, in id order.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    v.sort_by_key(|s| s.id);
    v
}

/// Self time per layer, in seconds, summed over the spans `keep` selects: a
/// span's self time is its duration minus the part its direct children
/// cover. Children on another thread may run concurrently with their
/// parent; their time is subtracted only up to the parent's duration.
pub fn self_time_by_layer(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.dur_ns();
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
        *out.entry(s.layer().to_string()).or_insert(0.0) += (s.dur_ns() - covered) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, "bench.pass", 0, 1_000_000_000, None),
            span(2, "simmpi.run_mpi", 0, 600_000_000, Some(1)),
            span(
                3,
                "overlap-core.attribute",
                600_000_000,
                700_000_000,
                Some(1),
            ),
        ];
        let t = self_time_by_layer(&spans, |_| true);
        assert!((t["bench"] - 0.3).abs() < 1e-9);
        assert!((t["simmpi"] - 0.6).abs() < 1e-9);
        assert!((t["overlap-core"] - 0.1).abs() < 1e-9);
    }
}

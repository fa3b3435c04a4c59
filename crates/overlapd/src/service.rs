//! Multi-session registry, the per-session view memo and the merged fleet
//! view.
//!
//! Each pushed stream gets its own [`Session`] behind a mutex; sessions
//! are independent, so concurrent clients contend only when they push to the
//! *same* session (where serialization is exactly what the fold needs).
//!
//! **View memo.** A served view is a function of the lines a session has
//! accepted, and [`SessionFold::lines`] counts them, so it is the session's
//! *generation*. Each session keeps at most one finished response body per
//! [`View`] slot, tagged with the generation (and, for the series, the
//! requested width) it was built at. A read at the same key returns the
//! stored bytes; any other read rebuilds the body through the fold,
//! replaces the slot and returns the new bytes. The fleet view merges one
//! memoized per-session partial the same way. The memo has no size knob:
//! it holds at most one body per [`View`] variant and one fleet partial
//! per session.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use overlap_core::stream::{FoldOpts, SessionFold, StreamError};
use overlap_core::{MetricsRegistry, OverlapStats};
use serde::Serialize;

/// Lock a mutex, recovering the data from a poisoned one (a panicking
/// connection must not take its session down with it).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shared session registry behind the server.
pub struct Service {
    opts: FoldOpts,
    sessions: Mutex<BTreeMap<String, Arc<Mutex<Session>>>>,
}

/// One served per-session view: the `GET /v1/sessions/<name>/<view>`
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// `report`: per-scope, per-rank live summaries (compact JSON).
    Report,
    /// `series[?window_ns=N]`: windowed series; `None` picks each scope's
    /// default width (compact JSON).
    Series(Option<u64>),
    /// `waits`: per-scope wait-state breakdowns (compact JSON).
    Waits,
    /// `attribution.json`: the batch attribution artifact (pretty JSON).
    Attribution,
    /// `critpath.folded`: flamegraph-collapsed text.
    Collapsed,
}

/// Memo slots per session: one per [`View`] variant.
const VIEW_SLOTS: usize = 5;

impl View {
    fn slot(self) -> usize {
        match self {
            View::Report => 0,
            View::Series(_) => 1,
            View::Waits => 2,
            View::Attribution => 3,
            View::Collapsed => 4,
        }
    }

    /// The response's `Content-Type`; `None` means `application/json`.
    pub fn content_type(self) -> Option<&'static str> {
        match self {
            View::Collapsed => Some("text/plain"),
            _ => None,
        }
    }
}

/// A finished response body and the key it was built at.
struct Memo {
    generation: u64,
    view: View,
    body: Arc<[u8]>,
}

/// One session's share of the fleet view.
struct FleetPart {
    scopes: usize,
    ranks: usize,
    events: u64,
    total: OverlapStats,
    metrics: MetricsRegistry,
}

/// One pushed stream: its fold plus the memo of its served views.
pub struct Session {
    name: String,
    fold: SessionFold,
    views: [Option<Memo>; VIEW_SLOTS],
    fleet: Option<(u64, Arc<FleetPart>)>,
}

impl Session {
    fn new(name: &str, opts: FoldOpts) -> Self {
        Session {
            name: name.to_string(),
            fold: SessionFold::new(opts),
            views: Default::default(),
            fleet: None,
        }
    }

    /// Fold a block of complete lines; returns the event lines this call
    /// folded. On refusal the lines before the bad one stay folded.
    pub fn push_text(&mut self, text: &str) -> Result<u64, StreamError> {
        let before = self.fold.event_lines();
        self.fold.push_text(text)?;
        Ok(self.fold.event_lines() - before)
    }

    /// The response body of `view` at the current generation: the stored
    /// bytes when the slot holds this key, else a fresh build that replaces
    /// the slot.
    pub fn view(&mut self, view: View) -> Arc<[u8]> {
        let generation = self.fold.lines();
        let slot = &mut self.views[view.slot()];
        if let Some(m) = slot {
            if m.generation == generation && m.view == view {
                return m.body.clone();
            }
        }
        let body: Arc<[u8]> = render(&mut self.fold, &self.name, view).into();
        *slot = Some(Memo {
            generation,
            view,
            body: body.clone(),
        });
        body
    }

    /// The views whose bodies the memo holds right now, slot order.
    pub fn memoized(&self) -> Vec<View> {
        self.views.iter().flatten().map(|m| m.view).collect()
    }

    fn fleet_part(&mut self) -> Arc<FleetPart> {
        let generation = self.fold.lines();
        if let Some((g, part)) = &self.fleet {
            if *g == generation {
                return part.clone();
            }
        }
        let mut part = FleetPart {
            scopes: 0,
            ranks: 0,
            events: 0,
            total: OverlapStats::default(),
            metrics: MetricsRegistry::new(),
        };
        for scope in self.fold.report() {
            part.scopes += 1;
            for rank in &scope.ranks {
                part.ranks += 1;
                part.events += rank.events_seen;
                part.total.merge(&rank.total);
                part.metrics.merge(&rank.metrics);
            }
        }
        let part = Arc::new(part);
        self.fleet = Some((generation, part.clone()));
        part
    }
}

/// Build `view`'s response body from the fold: the exact bytes the batch
/// pipeline writes for the same stream.
fn render(fold: &mut SessionFold, name: &str, view: View) -> Vec<u8> {
    let json = |s: Result<String, serde_json::Error>| s.expect("view serializes").into_bytes();
    match view {
        View::Report => json(serde_json::to_string(&fold.report())),
        View::Series(width) => json(serde_json::to_string(&fold.series(width))),
        View::Waits => json(serde_json::to_string(&fold.wait_states())),
        View::Attribution => json(serde_json::to_string_pretty(&fold.attribution(name))),
        View::Collapsed => fold.collapsed().into_bytes(),
    }
}

/// One row of the `/v1/sessions` listing.
#[derive(Debug, Clone, Serialize)]
pub struct SessionInfo {
    /// Session name (client-chosen; `repro push` defaults to the file stem).
    pub name: String,
    /// Non-empty lines accepted so far.
    pub lines: u64,
    /// Raw event lines folded so far.
    pub events: u64,
    /// Scope labels seen so far, stream order.
    pub scopes: Vec<String>,
}

/// The merged cross-session fleet view served at `/v1/fleet`: every rank of
/// every scope of every session folded into one overlap aggregate and one
/// metrics registry (both mergeable by construction — counters add,
/// histograms share the fixed latency bucket layout).
#[derive(Debug, Clone, Serialize)]
pub struct FleetView {
    /// Session names, sorted.
    pub sessions: Vec<String>,
    /// Total scopes across all sessions.
    pub scopes: usize,
    /// Total rank folds across all sessions.
    pub ranks: usize,
    /// Total raw event lines folded.
    pub events: u64,
    /// All sessions' overlap measures merged.
    pub total: OverlapStats,
    /// All sessions' metrics registries merged.
    pub metrics: MetricsRegistry,
}

impl Service {
    /// Create an empty registry; every session folds with `opts`.
    pub fn new(opts: FoldOpts) -> Self {
        Service {
            opts,
            sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// Fetch-or-create the named session.
    pub fn session(&self, name: &str) -> Arc<Mutex<Session>> {
        lock(&self.sessions)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Session::new(name, self.opts.clone()))))
            .clone()
    }

    /// Fetch the named session if it exists.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<Session>>> {
        lock(&self.sessions).get(name).cloned()
    }

    fn snapshot(&self) -> Vec<(String, Arc<Mutex<Session>>)> {
        lock(&self.sessions)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Listing rows for every session, name order.
    pub fn list(&self) -> Vec<SessionInfo> {
        self.snapshot()
            .into_iter()
            .map(|(name, s)| {
                let s = lock(&s);
                SessionInfo {
                    name,
                    lines: s.fold.lines(),
                    events: s.fold.event_lines(),
                    scopes: s.fold.scope_names(),
                }
            })
            .collect()
    }

    /// Build the merged fleet view from each session's memoized partial, in
    /// name order. Consistent per session, not across sessions — the right
    /// trade for a live endpoint.
    pub fn fleet(&self) -> FleetView {
        let mut view = FleetView {
            sessions: Vec::new(),
            scopes: 0,
            ranks: 0,
            events: 0,
            total: OverlapStats::default(),
            metrics: MetricsRegistry::new(),
        };
        for (name, s) in self.snapshot() {
            view.sessions.push(name);
            let part = lock(&s).fleet_part();
            view.scopes += part.scopes;
            view.ranks += part.ranks;
            view.events += part.events;
            view.total.merge(&part.total);
            view.metrics.merge(&part.metrics);
        }
        view
    }
}

impl Default for Service {
    fn default() -> Self {
        Service::new(FoldOpts::default())
    }
}

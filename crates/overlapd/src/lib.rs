#![warn(missing_docs)]

//! # overlapd — streaming overlap-analysis service
//!
//! A single-binary server (exposed through `repro serve`) that accepts
//! concurrent **event streams** — the same JSONL schema the batch pipeline
//! exports as `<id>.events.jsonl` — and computes overlap bounds and
//! wait-state attribution *incrementally*, with bounded memory, while runs
//! are still in flight. See `docs/SERVICE.md` for the wire protocol, the
//! memory model, and the equivalence guarantee.
//!
//! * [`service::Service`] — the multi-session registry: one
//!   [`service::Session`] (an [`overlap_core::stream::SessionFold`] plus
//!   the memo of its served views) per pushed stream, and the merged
//!   cross-session fleet view,
//! * [`server::Server`] — the TCP front end: length-framed ingest
//!   (`OVLP1`) and a minimal HTTP/1.1 read side on one port, with graceful
//!   shutdown,
//! * [`client`] — the `repro push` / `--stream` client half of the framed
//!   protocol.
//!
//! **Equivalence.** For the same event stream, every artifact this service
//! serves is byte-identical to the batch pipeline's: the attribution JSON
//! and collapsed flamegraph text come from the shared constructors in
//! [`overlap_core::artifact`], the windowed series from
//! [`overlap_core::trace::windowed_parts`], and the per-rank summaries from
//! the same fold the in-process recorder runs.
//!
//! **Memory.** Raw events are folded at ring capacity and never retained;
//! server memory is O(sessions × ranks × ring) plus the derived records
//! (bounds, call spans, waits) the served artifacts require — never
//! O(raw events) — plus the view memo: at most one finished body per
//! [`View`] slot and one fleet partial per session, so
//! O(sessions × endpoints × body). Ingest applies frames under the session
//! lock, so TCP flow control is the backpressure: a fast client blocks on a
//! busy session instead of growing a queue, and no frame may exceed
//! [`server::MAX_FRAME`].
//!
//! **Query cost.** A served view is a function of the lines the session has
//! accepted, so each body is built once per session generation
//! ([`overlap_core::stream::SessionFold::lines`]) and served from the memo
//! until the next accepted line (see [`service`]). Bodies are built under
//! the session lock and written after it is released, so a slow reader
//! stalls neither pushes nor the fleet view.

pub mod client;
pub mod http;
pub mod server;
pub mod service;

pub use client::{push_file, push_text, PushError};
pub use server::Server;
pub use service::{FleetView, Service, Session, SessionInfo, View};

//! # perfbench — end-to-end and per-layer benchmark
//!
//! One program, outside the crates it measures, with three workloads:
//!
//! * `paper-figs` — the paper's evaluation configurations (Sec. 3.2
//!   microbenchmark sweeps, NAS FT/CG/SP and ARMCI non-blocking MG at 16
//!   ranks) with aggregate-only recording on the flat fabric;
//! * `halo-4k` — a traced 64×64 halo on the fitted fat-tree with a
//!   background tenant, then attribution and JSONL + Chrome export;
//! * `serve-roundtrip` — pushes of a traced 256-rank halo's JSONL into
//!   fresh overlapd sessions beside a closed loop of read queries.
//!
//! Every workload ends each pass with a serve leg (push → fold → serve over
//! a real socket) against a fresh server. In `serve-roundtrip` it is the
//! whole pass, with pushes and GETs on two client threads at once; the
//! simulation workloads push a stream cut from their own warm-up output and
//! then read it back, on their one thread. Inputs come from the seed alone;
//! every pass checks its outputs (see [`Tally`]).
//!
//! Layers are timed from outside, around the calls into each crate. The
//! traced run (`--trace 1`) adds spans ([`span`]) and the differential
//! passes that isolate a layer: compute-only engine runs, empty-body MPI
//! runs, a fabric replay of the ground-truth transfers, recorder-off and
//! trace-flipped simulation legs, and the in-process stream fold.

pub mod alloc;
pub mod serve;
pub mod sim;
pub mod span;
pub mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use overlap_core::trace::TraceBundle;

use serve::{ServeInput, ServeStats, ENDPOINTS};
use sim::{Digest, Halo, PaperRun, RecMode, RunSpec, SimLeg};
use stats::{median, percentile};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation configurations.
    PaperFigs,
    /// The 4096-rank traced halo.
    Halo4k,
    /// The overlapd push/query round trip.
    ServeRoundtrip,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigs,
        Workload::Halo4k,
        Workload::ServeRoundtrip,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigs => "paper-figs",
            Workload::Halo4k => "halo-4k",
            Workload::ServeRoundtrip => "serve-roundtrip",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input scale: the benchmark's own (`Full`) or a seconds-long smoke size
/// for the self-tests (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs that exercise every gate quickly.
    Tiny,
}

/// Deliberate defects, for checking that the gates catch them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plant {
    /// Flip one byte of each served artifact before comparing it.
    pub corrupt_served_byte: bool,
    /// Drop one ground-truth transfer before the halo count gate.
    pub drop_transfer: bool,
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measure passes until this many seconds have passed...
    pub seconds: f64,
    /// ...and at least this many passes ran.
    pub min_passes: usize,
    /// Set-ups (each with one warm-up pass); `setup_s` is their median.
    pub setups: usize,
    /// Traced run: spans, differential passes, per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Planted defects.
    pub plant: Plant,
}

impl Opts {
    /// Defaults for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Opts {
            workload,
            seed,
            seconds: 10.0,
            min_passes: 3,
            setups: 3,
            trace: false,
            size: Size::Full,
            plant: Plant::default(),
        }
    }

    fn pushes(&self) -> usize {
        match (self.workload, self.size) {
            (Workload::ServeRoundtrip, Size::Full) => 6,
            (_, Size::Full) => 4,
            (_, Size::Tiny) => 2,
        }
    }

    fn min_queries(&self) -> usize {
        match (self.workload, self.size) {
            (_, Size::Tiny) => 5,
            (Workload::Halo4k, Size::Full) => 60,
            (_, Size::Full) => 100,
        }
    }
}

/// Attempted and failed operations. Every simulation run, push, GET and
/// gate is one attempt; a run that fails or breaks a check is one failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or broke a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// One attempted operation that passed if `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed_with(why());
        }
    }

    /// One attempted operation that failed.
    pub fn fail(&mut self, why: String) {
        self.check(false, || why);
    }

    /// Mark an operation already counted as attempted as failed.
    pub fn failed_with(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Attempts and failures.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Digest of the simulated statistics.
    pub digest: Option<Digest>,
    /// Timed passes.
    pub passes: usize,
    /// Spans of the traced run.
    pub spans: Vec<span::Span>,
}

impl Outcome {
    /// Metric value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

enum SimPlan {
    Paper(Vec<PaperRun>),
    Halo(Box<Halo>),
    None,
}

/// What set-up leaves for the timed passes.
struct State {
    sim: SimPlan,
    serve: ServeInput,
    /// Digest of the warm-up (or, for `serve-roundtrip`, set-up) simulation.
    digest: Option<Digest>,
    /// Set-up simulation of `serve-roundtrip` (its last measured run).
    setup_leg: Option<SimLeg>,
    /// The halo that simulation runs, re-run between the untraced run's
    /// passes.
    setup_halo: Option<Halo>,
    /// Events per host second of the measured set-up simulation runs of
    /// `serve-roundtrip`.
    sim_rates: Vec<f64>,
    /// Export cost of the set-up (`serve-roundtrip`): seconds, bytes.
    setup_export: (f64, u64),
}

/// Measurements of one timed pass.
struct Pass {
    wall_s: f64,
    leg: Option<SimLeg>,
    serve: ServeStats,
    attribute_s: f64,
    export_s: f64,
    export_bytes: u64,
    spans_on: bool,
}

/// The recorder mode a workload's timed passes use.
fn sim_mode(plan: &SimPlan) -> RecMode {
    match plan {
        SimPlan::Halo(_) => RecMode::TRACED,
        _ => RecMode::AGGREGATE,
    }
}

fn run_leg(plan: &SimPlan, mode: RecMode, tally: &mut Tally) -> Option<SimLeg> {
    match plan {
        SimPlan::Paper(runs) => Some(sim::paper_leg(runs, mode, tally)),
        SimPlan::Halo(h) => Some(sim::halo_leg(h, mode, tally)),
        SimPlan::None => None,
    }
}

/// Keep the first `n` rank traces as one bundle: the slice of a
/// simulation's output its serve leg pushes.
fn slice_bundle(scope: &str, leg: &SimLeg, n: usize) -> TraceBundle {
    TraceBundle {
        scope: scope.to_string(),
        ranks: leg.traces.iter().take(n).cloned().collect(),
        extras: Vec::new(),
    }
}

fn setup(opts: &Opts, tally: &mut Tally) -> State {
    let _s = span::enter("bench.setup");
    let (seed, size) = (opts.seed, opts.size);
    let mut state = match opts.workload {
        Workload::PaperFigs => {
            let plan = sim::paper_plan(seed, size);
            let leg = sim::paper_leg(&plan, RecMode::AGGREGATE, tally);
            let digest = leg.finish(tally);
            // The served stream: the eager sweep, traced.
            let mut bundles = Vec::new();
            for p in sim::paper_serve_points(&plan) {
                match sim::run_micro(&p, RecMode::TRACED.opts()) {
                    Ok(out) => bundles.push(TraceBundle {
                        scope: format!("paper-figs/eager/c{}", p.compute_ns),
                        ranks: out.traces,
                        extras: Vec::new(),
                    }),
                    Err(e) => tally.fail(format!("traced eager point failed: {e}")),
                }
            }
            State {
                sim: SimPlan::Paper(plan),
                serve: ServeInput::new(&bundles),
                digest: Some(digest),
                setup_leg: None,
                setup_halo: None,
                sim_rates: Vec::new(),
                setup_export: (0.0, 0),
            }
        }
        Workload::Halo4k => {
            let halo = sim::halo_4k(seed, size);
            let leg = sim::halo_leg(&halo, RecMode::TRACED, tally);
            let digest = leg.finish(tally);
            let bundle = slice_bundle("halo-4k/slice", &leg, 256);
            sim::attribute_and_check(&leg, halo.expected_transfers(), opts.plant, tally);
            drop(sim::export("halo-4k", leg.traces));
            State {
                sim: SimPlan::Halo(Box::new(halo)),
                serve: ServeInput::new(&[bundle]),
                digest: Some(digest),
                setup_leg: None,
                setup_halo: None,
                sim_rates: Vec::new(),
                setup_export: (0.0, 0),
            }
        }
        Workload::ServeRoundtrip => {
            let halo = sim::halo_serve(seed, size);
            // A warm-up run, then three measured runs; the last one's
            // export is the stream the passes push.
            let warm = sim::halo_leg(&halo, RecMode::TRACED, tally).finish(tally);
            let mut sim_rates = Vec::new();
            let mut leg = SimLeg::default();
            for _ in 0..3 {
                leg = sim::halo_leg(&halo, RecMode::TRACED, tally);
                sim_rates.push(ratio(leg.events as f64, leg.mpi_s));
                let digest = leg.finish(tally);
                tally.check(warm == digest, || {
                    format!("set-up digest {digest:?} differs from the warm-up's {warm:?}")
                });
            }
            let bundle = TraceBundle {
                scope: "serve-halo".to_string(),
                ranks: std::mem::take(&mut leg.traces),
                extras: Vec::new(),
            };
            let t0 = Instant::now();
            let serve = ServeInput::new(&[bundle]);
            let export_s = t0.elapsed().as_secs_f64();
            let export_bytes = serve.text.len() as u64;
            State {
                sim: SimPlan::None,
                serve,
                digest: Some(warm),
                setup_leg: Some(leg),
                setup_halo: Some(halo),
                sim_rates,
                setup_export: (export_s, export_bytes),
            }
        }
    };
    // Warm the serve leg: bind, one push, a few GETs, the artifact gate.
    let _ = serve::serve_leg(&state.serve, "warmup", 1, 1, false, opts.plant, tally);
    if let Some(leg) = &mut state.setup_leg {
        leg.reports.clear();
    }
    state
}

fn run_pass(state: &State, opts: &Opts, id: u64, tally: &mut Tally) -> (Pass, Option<Digest>) {
    let spans_on = span::recording();
    let t0 = Instant::now();
    let pass_span = span::enter("bench.pass");
    let mut leg = run_leg(&state.sim, sim_mode(&state.sim), tally);
    let (mut attribute_s, mut export_s, mut export_bytes) = (0.0, 0.0, 0);
    if let (SimPlan::Halo(h), Some(leg)) = (&state.sim, leg.as_mut()) {
        let t = Instant::now();
        let attrs = sim::attribute_and_check(leg, h.expected_transfers(), opts.plant, tally);
        attribute_s = t.elapsed().as_secs_f64();
        drop(attrs);
        let t = Instant::now();
        let (_, _, bytes) = sim::export("halo-4k", std::mem::take(&mut leg.traces));
        export_s = t.elapsed().as_secs_f64();
        export_bytes = bytes;
    }
    let serve = serve::serve_leg(
        &state.serve,
        &format!("pass{id}"),
        opts.pushes(),
        opts.min_queries(),
        opts.workload == Workload::ServeRoundtrip,
        opts.plant,
        tally,
    );
    drop(pass_span);
    // The pass ends with its last GET; the artifact gate, the server's
    // shutdown, the report gates and the digest stay outside the timing.
    let wall_s = serve
        .done
        .unwrap_or_else(Instant::now)
        .duration_since(t0)
        .as_secs_f64();
    let digest = leg.as_ref().map(|l| l.finish(tally));
    if let Some(l) = leg.as_mut() {
        l.reports.clear();
    }
    let pass = Pass {
        wall_s,
        leg,
        serve,
        attribute_s,
        export_s,
        export_bytes,
        spans_on,
    };
    (pass, digest)
}

/// Run one benchmark: set up `opts.setups` times, then timed passes, then
/// (traced run) the differential passes. `started` is the process start
/// `setup_s` counts from.
pub fn run(opts: &Opts, started: Instant) -> Outcome {
    let mut tally = Tally::default();
    span::set_recording(opts.trace);
    span::set_pass(0);

    let mut setup_s = Vec::new();
    let mut state = None;
    let mut sim_rates = Vec::new();
    for k in 0..opts.setups.max(1) {
        let t0 = if k == 0 { started } else { Instant::now() };
        drop(state.take());
        let st = setup(opts, &mut tally);
        setup_s.push(t0.elapsed().as_secs_f64());
        sim_rates.extend_from_slice(&st.sim_rates);
        if let (Some(prev), Some(d)) = (state.as_ref().and_then(|s: &State| s.digest), st.digest) {
            tally.check(prev == d, || {
                format!("set-up digest {d:?} differs from {prev:?}")
            });
        }
        state = Some(st);
    }
    let state = state.expect("at least one set-up ran");

    let mut passes: Vec<Pass> = Vec::new();
    let loop_start = Instant::now();
    let mut id = 1;
    while passes.len() < opts.min_passes.max(1) || loop_start.elapsed().as_secs_f64() < opts.seconds
    {
        // The traced run alternates span recording so that the difference
        // between its traced and untraced passes is the tracing overhead.
        span::set_recording(opts.trace && id % 2 == 1);
        span::set_pass(id);
        let (pass, digest) = run_pass(&state, opts, id, &mut tally);
        eprintln!(
            "perfbench: pass {id}: {:.3} s, {} pushes, {} queries",
            pass.wall_s,
            pass.serve.push_s.len(),
            pass.serve.queries.len()
        );
        if let (Some(want), Some(got)) = (state.digest, digest) {
            tally.check(want == got, || {
                format!("pass {id} digest {got:?} differs from the warm-up's {want:?}")
            });
        }
        passes.push(pass);
        // `serve-roundtrip` times no simulation in its passes; one run of
        // its set-up halo between them, outside their timing, makes its
        // `sim_events_per_s` sample the whole run, as the other metrics do.
        if let (Some(halo), false) = (&state.setup_halo, opts.trace) {
            let leg = sim::halo_leg(halo, RecMode::TRACED, &mut tally);
            sim_rates.push(ratio(leg.events as f64, leg.mpi_s));
            let got = leg.finish(&mut tally);
            tally.check(state.digest == Some(got), || {
                format!("digest {got:?} after pass {id} differs from the warm-up's")
            });
        }
        id += 1;
    }

    let mut metrics = if opts.trace {
        span::set_recording(true);
        span::set_pass(span::DIFF_PASS);
        layer_metrics(&state, &passes, &mut tally)
    } else {
        end_to_end_metrics(&state, &passes, &setup_s, &sim_rates)
    };
    span::set_recording(false);
    let spans = span::take();
    if opts.trace {
        metrics.extend(span_metrics(&passes, &spans));
        let failed = ratio(tally.failed as f64, tally.attempted as f64);
        metrics.push(m("failed_ratio", failed, "ratio"));
    }
    Outcome {
        tally,
        metrics,
        digest: state.digest,
        passes: passes.len(),
        spans,
    }
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn all_queries(passes: &[Pass]) -> impl Iterator<Item = &serve::Query> {
    passes.iter().flat_map(|p| p.serve.queries.iter())
}

/// End-to-end metrics. Each timing is a median over the timed passes (of
/// each pass's own value) or over the pushes, so a burst of host noise
/// moves one sample, not the run. A pass's simulation time is split finer:
/// `wall_s` sums the median of each library run over the passes and the
/// median of the rest of the pass, and `sim_events_per_s` divides the
/// events by the summed medians of the MPI runs, so a burst that slows one
/// run of one pass moves neither. On `serve-roundtrip`, `sim_rates` holds
/// the rates of its set-up and between-pass simulation runs.
fn end_to_end_metrics(
    state: &State,
    passes: &[Pass],
    setup_s: &[f64],
    sim_rates: &[f64],
) -> Vec<Metric> {
    let runs = run_medians(passes);
    let sim_s: f64 = runs.iter().map(|r| r.0).sum();
    let rest_s = per_pass(passes, |p| {
        let leg_s: f64 = p.leg.iter().flat_map(|l| &l.run_s).map(|r| r.0).sum();
        p.wall_s - leg_s
    });
    let sim_events_per_s = if state.setup_leg.is_some() {
        median(sim_rates)
    } else {
        let mpi_s: f64 = runs.iter().filter(|r| r.1).map(|r| r.0).sum();
        ratio(leg_stat(passes, |l| l.events as f64), mpi_s)
    };
    let lines = state.serve.lines as f64;
    let push_rates: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.serve.push_s.iter().map(|s| ratio(lines, *s)))
        .collect();
    let query = |q: f64| {
        per_pass(passes, |p| {
            let ms: Vec<f64> = p.serve.queries.iter().map(|q| q.ms).collect();
            percentile(&ms, q)
        })
    };
    vec![
        m("setup_s", median(setup_s), "s"),
        m("wall_s", sim_s + rest_s, "s"),
        m("sim_events_per_s", sim_events_per_s, "1/s"),
        m("ingest_lines_per_s", median(&push_rates), "1/s"),
        m("query_p50_ms", query(50.0), "ms"),
        m("query_p90_ms", query(90.0), "ms"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Median over passes of `f`.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Median over passes of each library run's host seconds, run order, with
/// whether it is an MPI run. Every pass runs the same plan.
fn run_medians(passes: &[Pass]) -> Vec<(f64, bool)> {
    let legs: Vec<&SimLeg> = passes.iter().filter_map(|p| p.leg.as_ref()).collect();
    let Some(first) = legs.first() else {
        return Vec::new();
    };
    (0..first.run_s.len())
        .map(|i| {
            let secs: Vec<f64> = legs
                .iter()
                .filter_map(|l| l.run_s.get(i))
                .map(|r| r.0)
                .collect();
            (median(&secs), first.run_s[i].1)
        })
        .collect()
}

fn leg_stat(passes: &[Pass], f: impl Fn(&SimLeg) -> f64) -> f64 {
    per_pass(passes, |p| p.leg.as_ref().map_or(0.0, &f))
}

fn layer_metrics(state: &State, passes: &[Pass], tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    // Counts of the simulation the workload runs: its timed passes, or the
    // set-up simulation of `serve-roundtrip`.
    let leg_of = |f: &dyn Fn(&SimLeg) -> f64| match &state.setup_leg {
        Some(leg) => f(leg),
        None => leg_stat(passes, f),
    };
    let events = leg_of(&|l| l.events as f64);
    let transfers = leg_of(&|l| l.transfers as f64);
    let specs: Vec<RunSpec> = match &state.setup_leg {
        Some(leg) => leg.specs.clone(),
        None => passes
            .iter()
            .rev()
            .find_map(|p| p.leg.as_ref())
            .map(|l| l.specs.clone())
            .unwrap_or_default(),
    };

    // simcore: compute-only engine runs at the workload's rank counts.
    let (co_s, co_events) = sim::compute_only(&specs, tally);
    out.push(m("simcore.events", events, "count"));
    out.push(m("simcore.lifecycle_s", co_s, "s"));
    out.push(m(
        "simcore.events_per_s",
        ratio(co_events as f64, co_s),
        "1/s",
    ));

    // simnet: ground truth, and its replay through the World API.
    let replay_s = sim::replay(&specs, tally);
    out.push(m("simnet.transfers", transfers, "count"));
    out.push(m(
        "simnet.bytes_moved",
        leg_of(&|l| l.bytes_moved as f64),
        "bytes",
    ));
    out.push(m("simnet.replay_s", replay_s, "s"));

    // simmpi: empty-body lifecycle, calls, protocol counts.
    let (eb_s, eb_events) = sim::empty_body(&specs, tally);
    out.push(m("simmpi.lifecycle_s", eb_s, "s"));
    out.push(m("simmpi.lifecycle_events", eb_events as f64, "count"));
    out.push(m("simmpi.calls", leg_of(&|l| l.mpi_calls as f64), "count"));
    out.push(m(
        "simmpi.events_per_transfer",
        ratio(events, transfers),
        "count",
    ));
    out.push(m(
        "simmpi.retransmits",
        leg_of(&|l| l.retransmits as f64),
        "count",
    ));

    // simarmci.
    out.push(m("simarmci.s", leg_stat(passes, |l| l.armci_s), "s"));
    out.push(m(
        "simarmci.calls",
        leg_of(&|l| l.armci_calls as f64),
        "count",
    ));

    // overlap-core: recorder and trace shares from paired simulation legs.
    let (recorder_share, trace_share) = rec_shares(&state.sim, tally);
    out.push(m("overlap-core.recorder_share", recorder_share, "ratio"));
    out.push(m("overlap-core.trace_share", trace_share, "ratio"));
    out.push(m(
        "overlap-core.ring_flushes",
        leg_of(&|l| l.ring_flushes as f64),
        "count",
    ));
    let (attribute_s, export_s, export_bytes) = match state.sim {
        SimPlan::Halo(_) => (
            per_pass(passes, |p| p.attribute_s),
            per_pass(passes, |p| p.export_s),
            per_pass(passes, |p| p.export_bytes as f64),
        ),
        _ => (0.0, state.setup_export.0, state.setup_export.1 as f64),
    };
    out.push(m("overlap-core.attribute_s", attribute_s, "s"));
    out.push(m("overlap-core.export_s", export_s, "s"));
    out.push(m("overlap-core.export_bytes", export_bytes, "bytes"));
    let fold = serve::fold_cost(&state.serve, 3, tally);
    let lines = state.serve.lines as f64;
    out.push(m(
        "overlap-core.parse_lines_per_s",
        ratio(lines, fold.parse_s),
        "1/s",
    ));
    out.push(m(
        "overlap-core.fold_lines_per_s",
        ratio(lines, fold.fold_s),
        "1/s",
    ));
    out.push(m(
        "overlap-core.fold_allocs_per_line",
        fold.allocs_per_line,
        "count",
    ));
    out.push(m("overlap-core.report_s", fold.report_s, "s"));

    // overlapd: push, transport share, per-endpoint latency, contention.
    let push_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.serve.push_s.iter().copied())
        .collect();
    let push_med = median(&push_s);
    out.push(m("overlapd.push_s", push_med, "s"));
    out.push(m(
        "overlapd.transport_share",
        1.0 - ratio(fold.fold_s, push_med),
        "ratio",
    ));
    for (i, ep) in ENDPOINTS.iter().enumerate() {
        let ms: Vec<f64> = all_queries(passes)
            .filter(|q| q.endpoint == i)
            .map(|q| q.ms)
            .collect();
        out.push(m(format!("overlapd.query_ms.{ep}"), median(&ms), "ms"));
    }
    let fleet_busy: Vec<f64> = all_queries(passes)
        .filter(|q| ENDPOINTS[q.endpoint] == "fleet" && q.during_push)
        .map(|q| q.ms)
        .collect();
    let fleet_idle: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.serve.idle_fleet_ms.iter().copied())
        .collect();
    let contention = if fleet_busy.is_empty() {
        0.0
    } else {
        median(&fleet_busy) - median(&fleet_idle)
    };
    out.push(m("overlapd.fleet_contention_ms", contention, "ms"));
    out.push(m(
        "overlapd.refusals",
        passes.iter().map(|p| p.serve.refusals as f64).sum(),
        "count",
    ));
    out.push(m(
        "overlapd.response_bytes",
        per_pass(passes, |p| p.serve.response_bytes as f64),
        "bytes",
    ));

    out
}

/// Self time per layer per traced pass (from the timed passes' spans), and
/// the tracing overhead: the median wall of the passes that recorded spans
/// over that of the passes that did not, minus one.
fn span_metrics(passes: &[Pass], spans: &[span::Span]) -> Vec<Metric> {
    let timed: BTreeSet<u64> = spans
        .iter()
        .map(|s| s.pass)
        .filter(|&p| p != 0 && p != span::DIFF_PASS)
        .collect();
    let mut self_s: BTreeMap<String, f64> = LAYERS.iter().map(|l| (l.to_string(), 0.0)).collect();
    for (layer, secs) in span::self_time_by_layer(spans, |s| timed.contains(&s.pass)) {
        *self_s.entry(layer).or_insert(0.0) += secs / timed.len().max(1) as f64;
    }
    let mut out: Vec<Metric> = self_s
        .into_iter()
        .map(|(layer, secs)| m(format!("self_s.{layer}"), secs, "s"))
        .collect();
    let wall = |on: bool| {
        let w: Vec<f64> = passes
            .iter()
            .filter(|p| p.spans_on == on)
            .map(|p| p.wall_s)
            .collect();
        median(&w)
    };
    let (traced, untraced) = (wall(true), wall(false));
    let overhead = if traced > 0.0 && untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    };
    out.push(m("trace.overhead_share", overhead, "ratio"));
    out
}

/// Layers reported by `self_s.<layer>`: those the timed passes call into
/// (zero when a workload's passes do not). The engine and the fabric run
/// inside the `simmpi` and `simarmci` calls; the differential passes split
/// them out as `simcore.lifecycle_s` and `simnet.replay_s`.
pub const LAYERS: [&str; 5] = ["bench", "simmpi", "simarmci", "overlap-core", "overlapd"];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Recorder and trace shares of the simulation leg: two rounds of paired
/// legs (default, recorder off, trace capture flipped), each share
/// `1 - wall(without) / wall(with)` over the medians.
fn rec_shares(plan: &SimPlan, tally: &mut Tally) -> (f64, f64) {
    if matches!(plan, SimPlan::None) {
        return (0.0, 0.0);
    }
    let base = sim_mode(plan);
    let off = RecMode::OFF;
    let flip = RecMode {
        trace: !base.trace,
        ..base
    };
    let (mut on_s, mut off_s, mut flip_s) = (vec![], vec![], vec![]);
    let secs = |mode: RecMode, tally: &mut Tally| {
        run_leg(plan, mode, tally).map_or(0.0, |l| l.mpi_s + l.armci_s)
    };
    for _ in 0..2 {
        on_s.push(secs(base, tally));
        off_s.push(secs(off, tally));
        flip_s.push(secs(flip, tally));
    }
    let (on, off, flip) = (median(&on_s), median(&off_s), median(&flip_s));
    let recorder = 1.0 - ratio(off, on);
    let trace = if base.trace {
        1.0 - ratio(flip, on)
    } else {
        1.0 - ratio(on, flip)
    };
    (recorder, trace)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

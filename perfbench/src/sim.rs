//! The simulation legs: the paper's evaluation configurations, the 4096-rank
//! halo, and the traced halo that feeds the serve workload — plus the
//! differential passes that split a leg's time by layer.

use std::sync::Arc;
use std::time::Instant;

use nasbench::runner::{run_benchmark_cfg, NasBenchmark, RunArtifacts};
use nasbench::Class;
use overlap_core::trace::{RankTrace, TraceBundle};
use overlap_core::{attribution, OverlapReport, RecorderOpts};
use simcore::{SimOpts, Simulation};
use simmpi::{run_mpi, MpiConfig, MpiRunOutcome, RelStats, Src, TagSel};
use simnet::{
    BackgroundJob, Cluster, NetConfig, Packet, RegionId, TopologySpec, TrafficPattern,
    TransferKind, TransferRecord,
};

use crate::span;
use crate::stats::{Fnv, Rng};
use crate::{Plant, Size, Tally};

/// Which point-to-point calls the two microbenchmark processes use
/// (paper Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// Sender `Isend` + compute + `Wait`; receiver blocking `Recv`.
    IsendRecv,
    /// Sender blocking `Send`; receiver `Irecv` + compute + `Wait`.
    SendIrecv,
    /// Both sides non-blocking.
    IsendIrecv,
}

/// One microbenchmark point: `reps` transfers of `bytes` with `compute_ns`
/// of computation between the initiating and the waiting call.
#[derive(Debug, Clone)]
pub struct MicroPoint {
    /// MPI library configuration (protocol selection).
    pub cfg: MpiConfig,
    /// Message size.
    pub bytes: usize,
    /// Inserted computation, ns.
    pub compute_ns: u64,
    /// Call pairing.
    pub pairing: Pairing,
    /// Transfers.
    pub reps: u64,
}

/// A halo exchange on a `side` x `side` torus: each rank posts receives
/// from and sends `bytes` to its four neighbours, computes for a seeded,
/// per-rank and per-iteration time, then waits.
#[derive(Debug, Clone)]
pub struct Halo {
    /// Torus side (ranks = side²).
    pub side: usize,
    /// Message size.
    pub bytes: usize,
    /// Exchange iterations.
    pub iters: u64,
    /// Fabric.
    pub net: NetConfig,
    /// MPI library configuration.
    pub cfg: MpiConfig,
    /// Compute per (rank, iteration), ns, rank-major.
    pub compute: Arc<Vec<u64>>,
}

impl Halo {
    /// Seeded halo. `base_ns` of compute plus a skew drawn from
    /// `0..skew_ns` per rank and iteration.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        side: usize,
        bytes: usize,
        iters: u64,
        base_ns: u64,
        skew_ns: u64,
        net: NetConfig,
        cfg: MpiConfig,
    ) -> Self {
        let mut rng = Rng::new(seed, 0x4a10);
        let compute = (0..side * side * iters as usize)
            .map(|_| base_ns + rng.below(skew_ns))
            .collect();
        Halo {
            side,
            bytes,
            iters,
            net,
            cfg,
            compute: Arc::new(compute),
        }
    }

    /// Ranks.
    pub fn ranks(&self) -> usize {
        self.side * self.side
    }

    /// Messages one run moves (four per rank per iteration).
    pub fn expected_transfers(&self) -> usize {
        self.ranks() * 4 * self.iters as usize
    }

    /// Run the exchange.
    pub fn run(&self, rec: RecorderOpts) -> Result<MpiRunOutcome, String> {
        let (side, bytes, iters) = (self.side, self.bytes, self.iters);
        let compute = Arc::clone(&self.compute);
        run_mpi(
            self.ranks(),
            self.net.clone(),
            self.cfg.clone(),
            rec,
            move |mpi| {
                let me = mpi.rank();
                let (x, y) = (me % side, me / side);
                let at = |x: usize, y: usize| (y % side) * side + (x % side);
                let neighbors = [
                    at(x + 1, y),
                    at(x + side - 1, y),
                    at(x, y + 1),
                    at(x, y + side - 1),
                ];
                let msg = vec![1u8; bytes];
                for iter in 0..iters {
                    let recvs: Vec<_> = neighbors
                        .iter()
                        .map(|&nb| mpi.irecv(Src::Rank(nb), TagSel::Is(iter)))
                        .collect();
                    let sends: Vec<_> = neighbors
                        .iter()
                        .map(|&nb| mpi.isend(nb, iter, &msg))
                        .collect();
                    mpi.compute(compute[me * iters as usize + iter as usize]);
                    mpi.waitall(&sends);
                    mpi.waitall(&recvs);
                }
            },
        )
        .map_err(|e| e.one_line())
    }
}

/// The 4096-rank halo of `halo-4k`: 16 KB direct-read rendezvous messages
/// on a fat-tree fitted to the rank count, with ingress contention and a
/// seeded uniform background tenant.
pub fn halo_4k(seed: u64, size: Size) -> Halo {
    let side = match size {
        Size::Full => 64,
        Size::Tiny => 8,
    };
    let net = NetConfig {
        model_ingress_contention: true,
        topology: TopologySpec::FatTree { k: 8 },
        background: Some(
            BackgroundJob::builder(TrafficPattern::Uniform)
                .msg_bytes(8 << 10)
                .period_ns(200_000)
                .seed(seed)
                .build(),
        ),
        ..NetConfig::infiniband_2006()
    };
    Halo::new(
        seed,
        side,
        16 << 10,
        2,
        150_000,
        50_000,
        net,
        MpiConfig::open_mpi_leave_pinned(),
    )
}

/// The traced 256-rank small-message halo whose JSONL export the serve
/// workload pushes.
pub fn halo_serve(seed: u64, size: Size) -> Halo {
    let (side, iters) = match size {
        Size::Full => (16, 8),
        Size::Tiny => (4, 2),
    };
    Halo::new(
        seed,
        side,
        1 << 10,
        iters,
        20_000,
        10_000,
        NetConfig::default(),
        MpiConfig::open_mpi_pipelined(),
    )
}

/// One library run of `paper-figs`.
#[derive(Debug, Clone)]
pub enum PaperRun {
    /// A microbenchmark point.
    Micro(MicroPoint),
    /// A NAS benchmark at a class and process count, in its paper
    /// environment.
    Nas(NasBenchmark, Class, usize),
}

/// The paper's evaluation configurations (Sec. 3.2 and Sec. 4): the eager,
/// pipelined and direct microbenchmark sweeps over the three call pairings,
/// then NAS FT, CG and SP (class A) and ARMCI non-blocking MG (class B) at
/// 16 ranks. The seed jitters each sweep point's computation and shuffles
/// the run order. An eager point makes 200 transfers and a 1 MB point 50,
/// which keeps a pass near two seconds, so a run holds enough passes for
/// its medians.
pub fn paper_plan(seed: u64, size: Size) -> Vec<PaperRun> {
    let mut rng = Rng::new(seed, 0xf165);
    let (eager_reps, long_reps, long_us, eager_us, np, class, mg_class) = match size {
        Size::Full => (
            200,
            50,
            vec![0, 250, 500, 750, 1000, 1250, 1500, 1750],
            vec![0, 5, 10, 15, 20, 25, 30],
            16,
            Class::A,
            Class::B,
        ),
        Size::Tiny => (4, 4, vec![0, 500], vec![0, 10], 4, Class::S, Class::S),
    };
    let mut runs = Vec::new();
    let mut sweep = |cfg: MpiConfig, bytes: usize, us: &[u64], step_us: u64, pairing: Pairing| {
        let reps = if bytes < 64 << 10 {
            eager_reps
        } else {
            long_reps
        };
        for &c in us {
            let jitter = rng.below(step_us * 1_000 / 4 + 1);
            runs.push(PaperRun::Micro(MicroPoint {
                cfg: cfg.clone(),
                bytes,
                compute_ns: c * 1_000 + jitter,
                pairing,
                reps,
            }));
        }
    };
    let piped = MpiConfig::open_mpi_pipelined;
    let direct = MpiConfig::open_mpi_leave_pinned;
    sweep(piped(), 10 << 10, &eager_us, 5, Pairing::IsendIrecv);
    for pairing in [Pairing::IsendRecv, Pairing::SendIrecv, Pairing::IsendIrecv] {
        sweep(piped(), 1 << 20, &long_us, 250, pairing);
        sweep(direct(), 1 << 20, &long_us, 250, pairing);
    }
    for bench in [NasBenchmark::Ft, NasBenchmark::Cg, NasBenchmark::Sp] {
        runs.push(PaperRun::Nas(bench, class, np));
    }
    // Fig. 19 characterizes ARMCI MG at class B.
    runs.push(PaperRun::Nas(
        NasBenchmark::MgArmciNonBlocking,
        mg_class,
        np,
    ));
    // Fisher-Yates: the seed picks the order the runs execute in.
    for i in (1..runs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        runs.swap(i, j);
    }
    runs
}

/// The eager sweep of the plan, traced: the stream `paper-figs` serves.
pub fn paper_serve_points(plan: &[PaperRun]) -> Vec<MicroPoint> {
    plan.iter()
        .filter_map(|r| match r {
            PaperRun::Micro(p) if p.bytes < 64 << 10 => Some(p.clone()),
            _ => None,
        })
        .collect()
}

/// Run one microbenchmark point.
pub fn run_micro(p: &MicroPoint, rec: RecorderOpts) -> Result<MpiRunOutcome, String> {
    let (bytes, reps, compute_ns, pairing) = (p.bytes, p.reps, p.compute_ns, p.pairing);
    run_mpi(2, NetConfig::default(), p.cfg.clone(), rec, move |mpi| {
        let msg = vec![0x5Au8; bytes];
        for i in 0..reps {
            let sender = mpi.rank() == 0;
            match (sender, pairing) {
                (true, Pairing::IsendRecv | Pairing::IsendIrecv) => {
                    let r = mpi.isend(1, i, &msg);
                    mpi.compute(compute_ns);
                    mpi.wait(r);
                }
                (true, Pairing::SendIrecv) => {
                    mpi.send(1, i, &msg);
                    mpi.compute(compute_ns);
                }
                (false, Pairing::SendIrecv | Pairing::IsendIrecv) => {
                    let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                    mpi.compute(compute_ns);
                    mpi.wait(r);
                }
                (false, Pairing::IsendRecv) => {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                    mpi.compute(compute_ns);
                }
            }
            // Lock-step iterations: a steady state, not sender run-ahead.
            mpi.barrier();
        }
    })
    .map_err(|e| e.one_line())
}

/// How the recorder runs in a simulation leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecMode {
    /// Recorder on.
    pub enabled: bool,
    /// Time-resolved trace capture on.
    pub trace: bool,
}

impl RecMode {
    /// Aggregate-only recording (the paper's default).
    pub const AGGREGATE: RecMode = RecMode {
        enabled: true,
        trace: false,
    };
    /// Recording with time-resolved trace capture.
    pub const TRACED: RecMode = RecMode {
        enabled: true,
        trace: true,
    };
    /// Recorder off.
    pub const OFF: RecMode = RecMode {
        enabled: false,
        trace: false,
    };

    /// Recorder options for this mode.
    pub fn opts(self) -> RecorderOpts {
        RecorderOpts {
            enabled: self.enabled,
            trace: self.trace,
            ..RecorderOpts::default()
        }
    }
}

/// What the differential passes need to re-run one library run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Ranks.
    pub ranks: usize,
    /// Fabric.
    pub net: NetConfig,
    /// MPI configuration; `None` for an ARMCI run.
    pub mpi: Option<MpiConfig>,
    /// Compute calls per rank in the compute-only variant.
    pub chunks: u64,
    /// Compute per call in the compute-only variant, ns.
    pub chunk_ns: u64,
    /// Ground-truth transfers of the run (for the fabric replay).
    pub transfers: Vec<TransferRecord>,
}

/// Everything one simulation leg measured and produced.
#[derive(Debug, Default)]
pub struct SimLeg {
    /// Host seconds spent inside MPI runs (the `sim_events_per_s` base).
    pub mpi_s: f64,
    /// Host seconds spent inside ARMCI runs.
    pub armci_s: f64,
    /// Host seconds of each library run, run order, and whether it was an
    /// MPI run (the end-to-end timings take a median per run over passes).
    pub run_s: Vec<(f64, bool)>,
    /// Engine entries processed by the MPI runs (ARMCI outcomes do not
    /// report the engine count).
    pub events: u64,
    /// Σ virtual end time, ns.
    pub end_time: u64,
    /// Ground-truth transfers.
    pub transfers: u64,
    /// Σ ground-truth transfer bytes.
    pub bytes_moved: u64,
    /// Completed MPI library calls.
    pub mpi_calls: u64,
    /// Completed ARMCI library calls.
    pub armci_calls: u64,
    /// Reliability-layer retransmissions.
    pub retransmits: u64,
    /// Recorder ring flushes.
    pub ring_flushes: u64,
    /// Per-run reports, run order (hashed and checked after the timed
    /// region by [`SimLeg::finish`]).
    pub reports: Vec<Vec<OverlapReport>>,
    /// Traces (runs with trace capture only), rank order.
    pub traces: Vec<RankTrace>,
    /// Per-run specs for the differential passes.
    pub specs: Vec<RunSpec>,
}

impl SimLeg {
    fn absorb_reports(&mut self, reports: Vec<OverlapReport>, armci: bool) {
        for r in &reports {
            let calls: u64 = r.calls.values().map(|c| c.count).sum();
            if armci {
                self.armci_calls += calls;
            } else {
                self.mpi_calls += calls;
            }
            self.ring_flushes += r.queue_flushes;
        }
        self.reports.push(reports);
    }

    /// Gate every run's reports with `overlap_core::invariant::check_reports`
    /// and return the digest of the leg's simulated statistics.
    pub fn finish(&self, tally: &mut Tally) -> Digest {
        let mut fnv = Fnv::default();
        for run in &self.reports {
            let v = overlap_core::check_reports(run);
            tally.check(v.is_empty(), || {
                format!("{} invariant violation(s), first: {:?}", v.len(), v.first())
            });
            for r in run {
                fnv.write(
                    serde_json::to_string(r)
                        .expect("report serializes")
                        .as_bytes(),
                );
            }
        }
        Digest {
            events: self.events,
            end_time: self.end_time,
            reports_fnv: fnv.finish(),
        }
    }

    fn absorb_transfers(&mut self, transfers: &[TransferRecord]) {
        self.transfers += transfers.len() as u64;
        self.bytes_moved += transfers.iter().map(|t| t.bytes as u64).sum::<u64>();
    }

    fn absorb_mpi(&mut self, out: MpiRunOutcome, secs: f64, spec: RunSpec) {
        self.mpi_s += secs;
        self.events += out.events_processed;
        self.end_time += out.end_time;
        self.retransmits += out
            .rel_stats
            .iter()
            .map(|s: &RelStats| s.retransmissions)
            .sum::<u64>();
        self.absorb_transfers(&out.transfers);
        self.absorb_reports(out.reports, false);
        self.specs.push(RunSpec {
            transfers: out.transfers,
            ..spec
        });
        self.traces.extend(out.traces);
    }
}

/// The simulated statistics of a leg: constant across passes and runs for
/// a seed, so a speed-only change shows that the model did not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Engine entries processed.
    pub events: u64,
    /// Σ virtual end time, ns.
    pub end_time: u64,
    /// FNV-1a of every per-rank report's JSON, run order.
    pub reports_fnv: u64,
}

/// Run the `paper-figs` leg once.
pub fn paper_leg(plan: &[PaperRun], mode: RecMode, tally: &mut Tally) -> SimLeg {
    let mut leg = SimLeg::default();
    for run in plan {
        match run {
            PaperRun::Micro(p) => {
                let t0 = Instant::now();
                let out = {
                    let _s = span::enter("simmpi.run_mpi");
                    run_micro(p, mode.opts())
                };
                let secs = t0.elapsed().as_secs_f64();
                leg.run_s.push((secs, true));
                let spec = RunSpec {
                    ranks: 2,
                    net: NetConfig::default(),
                    mpi: Some(p.cfg.clone()),
                    chunks: p.reps,
                    chunk_ns: p.compute_ns.max(1),
                    transfers: Vec::new(),
                };
                match out {
                    Ok(out) => leg.absorb_mpi(out, secs, spec),
                    Err(e) => tally.fail(format!("microbenchmark run failed: {e}")),
                }
            }
            PaperRun::Nas(bench, class, np) => {
                let armci = matches!(bench, NasBenchmark::MgArmciNonBlocking);
                let t0 = Instant::now();
                let art = {
                    let _s = span::enter(if armci {
                        "simarmci.run_armci"
                    } else {
                        "simmpi.run_nas"
                    });
                    run_benchmark_cfg(
                        *bench,
                        *class,
                        *np,
                        NetConfig::default(),
                        bench.paper_env(),
                        mode.opts(),
                    )
                };
                let secs = t0.elapsed().as_secs_f64();
                leg.run_s.push((secs, !armci));
                let spec = RunSpec {
                    ranks: *np,
                    net: NetConfig::default(),
                    mpi: (!armci).then(|| bench.paper_env()),
                    chunks: 64,
                    chunk_ns: 10_000,
                    transfers: Vec::new(),
                };
                match art {
                    RunArtifacts::Mpi(out) => leg.absorb_mpi(out, secs, spec),
                    RunArtifacts::Armci(out) => {
                        leg.armci_s += secs;
                        leg.end_time += out.end_time;
                        leg.absorb_transfers(&out.transfers);
                        leg.absorb_reports(out.reports, true);
                        leg.specs.push(RunSpec {
                            transfers: out.transfers,
                            ..spec
                        });
                        leg.traces.extend(out.traces);
                    }
                }
            }
        }
    }
    leg
}

/// Run a halo leg once (the simulation only).
pub fn halo_leg(halo: &Halo, mode: RecMode, tally: &mut Tally) -> SimLeg {
    let mut leg = SimLeg::default();
    let t0 = Instant::now();
    let out = {
        let _s = span::enter("simmpi.run_mpi");
        halo.run(mode.opts())
    };
    let secs = t0.elapsed().as_secs_f64();
    leg.run_s.push((secs, true));
    let spec = RunSpec {
        ranks: halo.ranks(),
        net: halo.net.clone(),
        mpi: Some(halo.cfg.clone()),
        chunks: halo.iters,
        chunk_ns: halo.compute.iter().sum::<u64>() / halo.compute.len() as u64,
        transfers: Vec::new(),
    };
    match out {
        Ok(out) => leg.absorb_mpi(out, secs, spec),
        Err(e) => tally.fail(format!("halo run failed: {e}")),
    }
    leg
}

/// Attribution of a traced leg plus the `halo-4k` gates: every transfer's
/// cause breakdown sums to its non-overlapped time, and the fabric moved
/// exactly the expected number of messages. `plant.drop_transfer` removes
/// one ground-truth transfer before the count is checked.
pub fn attribute_and_check(
    leg: &SimLeg,
    expected_transfers: usize,
    plant: Plant,
    tally: &mut Tally,
) -> Vec<attribution::RankAttribution> {
    let attrs: Vec<_> = {
        let _s = span::enter("overlap-core.attribute");
        leg.traces.iter().map(attribution::attribute).collect()
    };
    let mismatches = attrs
        .iter()
        .flat_map(|a| a.records.iter())
        .filter(|r| r.breakdown.iter().map(|s| s.ns).sum::<u64>() != r.nonoverlap)
        .count();
    tally.check(mismatches == 0, || {
        format!("{mismatches} transfer(s) whose breakdown does not sum to nonoverlap")
    });
    let mut seen = leg.transfers as usize;
    if plant.drop_transfer {
        seen = seen.saturating_sub(1);
    }
    tally.check(seen == expected_transfers, || {
        format!("fabric moved {seen} transfers, expected {expected_transfers}")
    });
    attrs
}

/// JSONL and Chrome-trace export of a traced leg; returns the bundle, the
/// JSONL text and the bytes written.
pub fn export(scope: &str, traces: Vec<RankTrace>) -> (TraceBundle, String, u64) {
    let _s = span::enter("overlap-core.export");
    let bundle = TraceBundle {
        scope: scope.to_string(),
        ranks: traces,
        extras: Vec::new(),
    };
    let bundles = std::slice::from_ref(&bundle);
    let text = overlap_core::trace::jsonl(bundles);
    let chrome = overlap_core::trace::chrome_json(bundles);
    let bytes = (text.len() + chrome.len()) as u64;
    (bundle, text, bytes)
}

/// Compute-only variant of each run: the same rank count on a bare engine,
/// each rank computing `chunks` times. Returns (host seconds, engine
/// entries).
pub fn compute_only(specs: &[RunSpec], tally: &mut Tally) -> (f64, u64) {
    let mut secs = 0.0;
    let mut events = 0;
    for spec in specs {
        let (chunks, ns) = (spec.chunks, spec.chunk_ns);
        let t0 = Instant::now();
        let out = {
            let _s = span::enter("simcore.compute_only");
            Simulation::new(spec.ranks).run(SimOpts::default(), move |ctx| {
                for _ in 0..chunks {
                    ctx.compute(ns);
                }
            })
        };
        secs += t0.elapsed().as_secs_f64();
        match out {
            Ok(o) => {
                tally.check(true, String::new);
                events += o.events_processed;
            }
            Err(e) => tally.fail(format!("compute-only run failed: {}", e.one_line())),
        }
    }
    (secs, events)
}

/// Empty-body variant of each MPI run: library init and the finalize
/// barrier only. Returns (host seconds, engine entries).
pub fn empty_body(specs: &[RunSpec], tally: &mut Tally) -> (f64, u64) {
    let mut secs = 0.0;
    let mut events = 0;
    for spec in specs {
        let Some(cfg) = &spec.mpi else { continue };
        let t0 = Instant::now();
        let out = {
            let _s = span::enter("simmpi.empty_body");
            run_mpi(
                spec.ranks,
                spec.net.clone(),
                cfg.clone(),
                RecorderOpts::default(),
                |_| {},
            )
        };
        secs += t0.elapsed().as_secs_f64();
        match out {
            Ok(o) => {
                tally.check(true, String::new);
                events += o.events_processed;
            }
            Err(e) => tally.fail(format!("empty-body run failed: {}", e.one_line())),
        }
    }
    (secs, events)
}

/// Replay each run's ground-truth transfers through the fabric's public
/// post/poll API on a fresh cluster with the same configuration: sends as
/// two-sided sends, RDMA writes and reads against one registered region
/// per node. Each initiator posts at the recorded physical start; every
/// rank then polls until its completions and receives are in. Gate: the
/// replay records as many transfers as the original. Returns host seconds.
pub fn replay(specs: &[RunSpec], tally: &mut Tally) -> f64 {
    let mut secs = 0.0;
    for spec in specs.iter().filter(|s| !s.transfers.is_empty()) {
        let t0 = Instant::now();
        let result = {
            let _s = span::enter("simnet.replay");
            replay_one(spec)
        };
        secs += t0.elapsed().as_secs_f64();
        match result {
            Ok(n) => tally.check(n == spec.transfers.len(), || {
                format!(
                    "replay recorded {n} transfers, original {}",
                    spec.transfers.len()
                )
            }),
            Err(e) => tally.fail(format!("replay failed: {e}")),
        }
    }
    secs
}

fn replay_one(spec: &RunSpec) -> Result<usize, String> {
    let n = spec.ranks;
    let max_bytes = spec
        .transfers
        .iter()
        .map(|t| t.bytes)
        .max()
        .unwrap_or(0)
        .max(1);
    let payload = bytes::Bytes::from(vec![0xA5u8; max_bytes]);
    // Per node: the ops it initiates (time-ordered) and the sends it receives.
    let mut ops: Vec<Vec<TransferRecord>> = vec![Vec::new(); n];
    let mut rx_expected = vec![0usize; n];
    let mut region_len = vec![0usize; n];
    for t in &spec.transfers {
        match t.kind {
            TransferKind::Send => {
                ops[t.src].push(t.clone());
                rx_expected[t.dst] += 1;
            }
            TransferKind::RdmaWrite => {
                ops[t.src].push(t.clone());
                region_len[t.dst] = region_len[t.dst].max(t.bytes);
            }
            TransferKind::RdmaRead => {
                ops[t.dst].push(t.clone());
                region_len[t.src] = region_len[t.src].max(t.bytes);
            }
        }
    }
    for o in &mut ops {
        o.sort_by_key(|t| t.phys_start);
    }
    let cluster = Cluster::new(n, spec.net.clone());
    let regions: Vec<Option<RegionId>> = {
        let world = cluster.world();
        let mut w = world.lock();
        region_len
            .iter()
            .enumerate()
            .map(|(node, &len)| (len > 0).then(|| w.register(node, vec![0u8; len])))
            .collect()
    };
    let (ops, rx_expected, regions) = (Arc::new(ops), Arc::new(rx_expected), Arc::new(regions));
    let out = cluster
        .run(SimOpts::default(), move |ctx, world| {
            let me = ctx.rank();
            for t in &ops[me] {
                if ctx.now() < t.phys_start {
                    ctx.compute(t.phys_start - ctx.now());
                }
                let mut w = world.lock();
                let x = Some(w.alloc_xfer_id());
                match t.kind {
                    TransferKind::Send => {
                        let p = Packet::with_data(
                            me,
                            t.bytes + 64,
                            1,
                            [0; 6],
                            payload.slice(0..t.bytes),
                        );
                        w.post_send(me, t.dst, p, 0, x);
                    }
                    TransferKind::RdmaWrite => {
                        let r = regions[t.dst].expect("write target has a region");
                        w.post_rdma_write(me, t.dst, r, 0, payload.slice(0..t.bytes), 0, None, x);
                    }
                    TransferKind::RdmaRead => {
                        let r = regions[t.src].expect("read target has a region");
                        w.post_rdma_read(me, t.src, r, 0, t.bytes, 0, None, x);
                    }
                }
            }
            let (mut cq, mut rx) = (0, 0);
            loop {
                {
                    let mut w = world.lock();
                    while w.poll_cq(me).is_some() {
                        cq += 1;
                    }
                    while w.poll_rx(me).is_some() {
                        rx += 1;
                    }
                }
                if cq >= ops[me].len() && rx >= rx_expected[me] {
                    return;
                }
                ctx.park();
            }
        })
        .map_err(|e| e.one_line())?;
    Ok(out.transfers.len())
}

//! The traced run: per-layer costs timed from outside the library crates.
//!
//! Every honest `CirEval` is wrapped in [`Traced`], which times each
//! `on_message` call (bucketed by the delivered message's kind) and each
//! `on_timer` call, and counts the allocations made inside those calls
//! through [`CountingAlloc`]. Outside those windows it replays every
//! delivered message through the wire codec to time encode and decode.
//! [`run_traced`] builds the transport directly with the wrapped parties,
//! mirroring `MpcBuilder::run`. Untraced runs never use any of this.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mpc_core::builder::RunError;
use mpc_core::{CirEval, Circuit, MpcRunResult};
use mpc_net::{
    party_as, Backend, Context, CorruptionSet, FaultPlan, LinkDelays, Metrics, NetConfig, PartyId,
    PartyView, PathSlice, Protocol, Simulation, TcpNet, ThresholdAdversary, Transport, WireDecode,
    WireEncode,
};
use mpc_protocols::byzantine::SilentParty;
use mpc_protocols::{Msg, Params};

use crate::{cpu_ms, median, ms, run_checked, Args, Job, Plan, Report, Workload, TICK_MICROS};

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A global allocator that counts allocations per thread and per process
/// while counting is switched on ([`set_counting`]). Install it with
/// `#[global_allocator]` in the traced binary only.
pub struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            // Statistics only: Relaxed publishes nothing else.
            PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
            PROCESS_BYTES.fetch_add(size as u64, Ordering::Relaxed);
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and a const-initialised thread-local, never the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations this thread has made while counting was on.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Allocations and bytes requested by the whole process while counting was
/// on.
pub fn process_allocs() -> (u64, u64) {
    (
        PROCESS_ALLOCS.load(Ordering::Relaxed),
        PROCESS_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// The party wrapper
// ---------------------------------------------------------------------------

/// Message kinds, as named in the per-layer metrics.
pub const KINDS: [&str; 6] = ["acast", "sba", "aba", "wps", "open", "ready"];

fn kind_of(msg: &Msg) -> usize {
    match msg {
        Msg::Acast(_) => 0,
        Msg::Sba(_) => 1,
        Msg::Aba(_) => 2,
        Msg::RowPolys(_) | Msg::Points(_) => 3,
        Msg::Open { .. } => 4,
        Msg::Ready(_) => 5,
        Msg::PackedDeal(_) | Msg::PackedReport(_) => {
            panic!("packed messages cannot occur: every workload pins packing(0)")
        }
    }
}

/// Work done inside one kind of call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Calls (delivered messages, or timer fires).
    pub calls: u64,
    /// Wall time inside the calls, in ns.
    pub ns: u64,
    /// Allocations made inside the calls.
    pub allocs: u64,
    /// Encoded payload bits of the delivered messages.
    pub bits: u64,
}

impl Bucket {
    fn add(&mut self, other: &Bucket) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.bits += other.bits;
    }
}

/// Per-party trace of one run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// `on_message` work per entry of [`KINDS`].
    pub kinds: [Bucket; 6],
    /// `on_timer` work.
    pub timer: Bucket,
    /// `init` work.
    pub init: Bucket,
    /// Codec replay: time in `encode`, in ns.
    pub encode_ns: u64,
    /// Codec replay: time in `decode`, in ns.
    pub decode_ns: u64,
    /// Codec replay: allocations.
    pub codec_allocs: u64,
}

impl Stats {
    /// Folds `other` into `self`.
    pub fn add(&mut self, other: &Stats) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.add(b);
        }
        self.timer.add(&other.timer);
        self.init.add(&other.init);
        self.encode_ns += other.encode_ns;
        self.decode_ns += other.decode_ns;
        self.codec_allocs += other.codec_allocs;
    }

    /// Every protocol handler call: messages, timers and `init`.
    pub fn handlers(&self) -> Bucket {
        let mut all = self.timer;
        all.add(&self.init);
        for k in &self.kinds {
            all.add(k);
        }
        all
    }
}

/// Runs `f`, adding its wall time and this thread's allocations to `b`.
fn timed<R>(b: &mut Bucket, f: impl FnOnce() -> R) -> R {
    let a0 = thread_allocs();
    let t0 = Instant::now();
    let r = f();
    b.ns += t0.elapsed().as_nanos() as u64;
    b.allocs += thread_allocs() - a0;
    b.calls += 1;
    r
}

/// An honest `CirEval` whose calls are timed and counted.
pub struct Traced {
    /// The wrapped party.
    pub inner: CirEval,
    /// What its calls cost.
    pub stats: Stats,
}

impl Protocol<Msg> for Traced {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let inner = &mut self.inner;
        timed(&mut self.stats.init, || inner.init(ctx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let bytes = msg.encode();
        let t1 = Instant::now();
        let decoded = Msg::decode(&bytes);
        let t2 = Instant::now();
        drop(decoded.expect("a delivered message re-decodes"));
        self.stats.encode_ns += (t1 - t0).as_nanos() as u64;
        self.stats.decode_ns += (t2 - t1).as_nanos() as u64;
        self.stats.codec_allocs += thread_allocs() - a0;

        let bucket = &mut self.stats.kinds[kind_of(&msg)];
        bucket.bits += 8 * bytes.len() as u64;
        drop(bytes);
        let inner = &mut self.inner;
        timed(bucket, || inner.on_message(ctx, from, path, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, timer_id: u64) {
        let inner = &mut self.inner;
        timed(&mut self.stats.timer, || {
            inner.on_timer(ctx, path, timer_id)
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// One traced circuit
// ---------------------------------------------------------------------------

fn eval(view: &dyn PartyView<Msg>, i: PartyId) -> Option<&CirEval> {
    party_as::<Traced, Msg>(view, i).map(|t| &t.inner)
}

/// The traced evaluation of one job, with every honest party's trace summed.
pub struct TracedRun {
    /// The run's result, as `MpcBuilder::run` would report it.
    pub result: Result<MpcRunResult, RunError>,
    /// Summed per-party traces.
    pub stats: Stats,
    /// Values the first honest party opened publicly.
    pub values_opened: u64,
}

/// Evaluates `circuit` on `job` with traced parties, building the transport
/// the way `MpcBuilder::run` does for the workload's pinned knobs.
pub fn run_traced(w: &Workload, circuit: &Circuit, job: &Job) -> TracedRun {
    let delta = NetConfig::DEFAULT_DELTA;
    let params = Params::new(w.n, w.ts, w.ta, delta);
    let corrupt = CorruptionSet::new(w.silent.to_vec());
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..w.n)
        .map(|i| {
            if w.is_honest(i) {
                let mut inner = CirEval::new(params, circuit.clone(), job.inputs[i]);
                inner.set_per_gate_openings(false);
                inner.set_packing(0);
                Box::new(Traced {
                    inner,
                    stats: Stats::default(),
                }) as Box<dyn Protocol<Msg>>
            } else {
                Box::new(SilentParty)
            }
        })
        .collect();
    let cfg = NetConfig::for_kind(w.n, w.network)
        .with_delta(delta)
        .with_seed(job.seed)
        .with_threads(1)
        .with_frames(true);
    let mut net: Box<dyn Transport<Msg>> = match w.backend {
        Backend::Simulator => {
            let mut sim = Simulation::new(cfg, corrupt, parties);
            sim.set_fault_plan(FaultPlan::none());
            Box::new(sim)
        }
        Backend::Tcp => {
            let links = LinkDelays::for_kind(w.n, cfg.kind, cfg.delta, cfg.seed);
            let mut tcp =
                TcpNet::with_links(cfg, corrupt, links, parties).with_tick_micros(TICK_MICROS);
            tcp.set_fault_plan(FaultPlan::none());
            tcp.set_chaos_plan(FaultPlan::none());
            Box::new(tcp)
        }
        Backend::Threaded => panic!("no workload runs the threaded backend"),
    };
    net.set_adversary_structure(Arc::new(ThresholdAdversary::new(w.n, w.ts, w.ta)));

    let honest: Vec<PartyId> = (0..w.n).filter(|&i| w.is_honest(i)).collect();
    let horizon = params.horizon_for_depth(circuit.mult_depth()) * 8;
    let done = net.run_until_done(horizon, &mut |view| {
        honest
            .iter()
            .all(|&i| eval(view, i).is_some_and(|p| p.output.is_some()))
    });

    let view: &dyn PartyView<Msg> = net.as_ref();
    let mut stats = Stats::default();
    for &i in &honest {
        let traced = party_as::<Traced, Msg>(view, i).expect("honest parties are traced");
        stats.add(&traced.stats);
    }
    let first = eval(view, honest[0]).expect("honest parties are traced");
    let values_opened = first.values_opened_by_layer.iter().sum();
    let outputs: Vec<_> = (0..w.n)
        .map(|i| eval(view, i).and_then(|p| p.output))
        .collect();
    let result = if !done {
        Err(RunError {
            message: format!("honest parties did not terminate within horizon {horizon}"),
            transport: net.last_error().cloned(),
        })
    } else if honest.iter().any(|&i| outputs[i] != outputs[honest[0]]) {
        Err(RunError {
            message: "honest parties disagree on the output".to_string(),
            transport: None,
        })
    } else {
        Ok(MpcRunResult {
            output: outputs[honest[0]].expect("done means every honest party has an output"),
            outputs,
            input_subset: first.input_subset.clone().unwrap_or_default(),
            finished_at: view.now(),
            metrics: net.metrics().clone(),
        })
    };
    TracedRun {
        result,
        stats,
        values_opened,
    }
}

// ---------------------------------------------------------------------------
// The traced benchmark run
// ---------------------------------------------------------------------------

/// Sums over the traced circuits of a run.
#[derive(Default)]
struct Totals {
    stats: Stats,
    untraced_ms: Vec<f64>,
    overhead: Vec<f64>,
    kernel_round_ms: Vec<f64>,
    wall_ns: u64,
    cpu_user_ms: f64,
    cpu_sys_ms: f64,
    process_allocs: u64,
    process_bytes: u64,
    values_opened: u64,
    metrics: Metrics,
    ticks: Vec<f64>,
}

/// The per-layer measurement of one traced run. Each job runs twice, once
/// untraced through `MpcBuilder::run` and once traced; the median ratio of
/// the two times is the tracing overhead.
pub fn run_traced_bench(args: &Args) -> Report {
    let w = &args.workload;
    // Two evaluations per job: half the jobs keep the run near `--seconds`.
    let count = (w.circuit_count(args.seconds) / 2).max(3);
    let plan = Plan::new(w, args.seed, count);
    let circuit = w.circuit();
    let mut report = Report {
        correct: true,
        attempted: count,
        ..Report::default()
    };
    let warmup = &plan.warmups[0];
    if let Err(e) = run_checked(w, &circuit, warmup, w.builder(warmup).run(&circuit)) {
        eprintln!("warm-up failed: {e}");
        report.correct = false;
    }

    let mut t = Totals::default();
    for job in &plan.timed {
        set_counting(false);
        let t0 = Instant::now();
        let plain = w.builder(job).run(&circuit);
        t.untraced_ms.push(ms(t0.elapsed()));
        let plain = run_checked(w, &circuit, job, plain);

        set_counting(true);
        let (allocs0, bytes0) = process_allocs();
        let (user0, sys0) = cpu_ms();
        let t0 = Instant::now();
        let traced = run_traced(w, &circuit, job);
        let wall = t0.elapsed();
        let (user1, sys1) = cpu_ms();
        let (allocs1, bytes1) = process_allocs();
        set_counting(false);

        t.overhead
            .push(ms(wall) / t.untraced_ms.last().expect("pushed above") - 1.0);
        t.kernel_round_ms
            .push(crate::kernel_round_ms(w.kernel_rounds()));
        t.wall_ns += wall.as_nanos() as u64;
        t.cpu_user_ms += user1 - user0;
        t.cpu_sys_ms += sys1 - sys0;
        t.process_allocs += allocs1 - allocs0;
        t.process_bytes += bytes1 - bytes0;
        t.stats.add(&traced.stats);
        t.values_opened += traced.values_opened;
        match (plain, run_checked(w, &circuit, job, traced.result)) {
            (Ok(_), Ok(r)) => {
                t.metrics.merge(&r.metrics);
                t.ticks.push(r.finished_at as f64);
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("circuit failed: {e}");
                }
                report.failed += 1;
            }
        }
    }
    report.correct &= report.failed == 0;
    push_layers(&mut report, w, &t, count);
    report
}

fn push_layers(report: &mut Report, w: &Workload, t: &Totals, count: usize) {
    let per = |v: u64| v as f64 / count as f64;
    let per_ms = |ns: u64| ns as f64 / 1e6 / count as f64;
    let per_mbit = |bits: u64| bits as f64 / 1e6 / count as f64;
    let s = &t.stats;
    for (name, b) in KINDS.iter().zip(&s.kinds) {
        report.push(format!("protocols.{name}.msgs"), per(b.calls), "count");
        report.push(format!("protocols.{name}.handler_ms"), per_ms(b.ns), "ms");
        report.push(format!("protocols.{name}.allocs"), per(b.allocs), "count");
        report.push(
            format!("protocols.{name}.payload_mbit"),
            per_mbit(b.bits),
            "Mbit",
        );
    }
    report.push("protocols.timer.fires", per(s.timer.calls), "count");
    report.push("protocols.timer.handler_ms", per_ms(s.timer.ns), "ms");
    report.push("protocols.timer.allocs", per(s.timer.allocs), "count");
    let handlers = s.handlers();
    report.push("protocols.handler_ms", per_ms(handlers.ns), "ms");

    let m = &t.metrics;
    let segment = |seg: u32| *m.honest_bits_by_root_segment.get(&seg).unwrap_or(&0);
    for seg in [0, 1] {
        report.push(
            format!("cireval.root_segment.{seg}.mbit"),
            per_mbit(segment(seg)),
            "Mbit",
        );
    }
    let segmented: u64 = m.honest_bits_by_root_segment.values().sum();
    report.push(
        "cireval.unsegmented.mbit",
        per_mbit(m.honest_bits - segmented),
        "Mbit",
    );
    report.push("cireval.values_opened", per(t.values_opened), "count");

    let codec_ns = s.encode_ns + s.decode_ns;
    let engine_ns = t.wall_ns as f64 - handlers.ns as f64 - codec_ns as f64;
    report.push("engine.self_ms", engine_ns / 1e6 / count as f64, "ms");
    let engine_allocs = t.process_allocs as f64 - handlers.allocs as f64 - s.codec_allocs as f64;
    report.push("engine.allocs", engine_allocs / count as f64, "count");
    report.push("engine.events", per(m.events_processed), "count");
    report.push("engine.frames", per(m.frames_sent), "count");
    report.push("engine.max_queue_depth", m.max_queue_depth as f64, "count");

    report.push("codec.encode_ms", per_ms(s.encode_ns), "ms");
    report.push("codec.decode_ms", per_ms(s.decode_ns), "ms");

    let untraced_p50 = median(&t.untraced_ms);
    let floor_ms = match w.backend {
        Backend::Simulator => 0.0,
        _ => median(&t.ticks) * TICK_MICROS as f64 / 1e3,
    };
    report.push("transport.cpu_user_ms", t.cpu_user_ms / count as f64, "ms");
    report.push("transport.cpu_sys_ms", t.cpu_sys_ms / count as f64, "ms");
    report.push("transport.pacing_floor_ms", floor_ms, "ms");
    report.push("transport.pacing_share", floor_ms / untraced_p50, "share");
    report.push("transport.timeouts_fired", per(m.timeouts_fired), "count");
    report.push("transport.late_packets", per(m.late_packets), "count");
    report.push(
        "transport.held_packets_peak",
        m.held_packets_peak as f64,
        "count",
    );
    report.push("transport.reconnects", per(m.reconnects), "count");
    report.push("transport.dial_retries", per(m.dial_retries), "count");
    report.push("transport.wedges", per(m.wedges), "count");

    report.push("process.allocs", per(t.process_allocs), "count");
    report.push(
        "process.alloc_mb",
        t.process_bytes as f64 / 1e6 / count as f64,
        "MB",
    );
    report.push("trace.overhead_pct", median(&t.overhead) * 100.0, "%");
    report.push("host.kernel_round_ms", median(&t.kernel_round_ms), "ms");
    report.push("host.circuit_wall_ms.p50", untraced_p50, "ms");
}

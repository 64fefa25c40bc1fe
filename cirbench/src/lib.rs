//! The CirEval benchmark: complete `Π_CirEval` evaluations through the
//! public `MpcBuilder::run`, one circuit in flight at a time (a closed loop
//! with one client that waits for every output, as a party does).
//!
//! A run is a pure function of its arguments: the workload fixes the
//! configuration, and `--seed` plus `--seconds` fix the circuit count and
//! every per-circuit seed, so the exact counts (bits, messages, ticks,
//! events) of a run repeat on every rerun. See `METHOD.md` for why each
//! workload exists and which metric each layer should move.

use std::time::{Duration, Instant};

use mpc_algebra::Fp;
use mpc_core::builder::RunError;
use mpc_core::{Circuit, MpcBuilder, MpcRunResult};
use mpc_net::{Backend, FaultPlan, NetworkKind, PartyId};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod trace;

/// The real duration of one logical tick on the tcp backend, in µs.
pub const TICK_MICROS: u64 = 200;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One benchmark configuration. Every knob `MpcBuilder` would otherwise
/// read from the environment is pinned in [`Workload::builder`].
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Parties `n`.
    pub n: usize,
    /// Synchronous corruption threshold `t_s`.
    pub ts: usize,
    /// Asynchronous corruption threshold `t_a`.
    pub ta: usize,
    /// The network the run executes in.
    pub network: NetworkKind,
    /// Parties that are silent from the start.
    pub silent: &'static [PartyId],
    /// `Circuit::layered` width (multiplications per layer).
    pub width: usize,
    /// `Circuit::layered` depth (multiplication layers).
    pub depth: usize,
    /// The transport backend.
    pub backend: Backend,
    /// Wall time of one circuit on the reference host (2 cores, release
    /// build), used only to turn `--seconds` into a fixed circuit count.
    pub nominal_ms: u64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sync-n7-sim",
        n: 7,
        ts: 2,
        ta: 0,
        network: NetworkKind::Synchronous,
        silent: &[],
        width: 2,
        depth: 2,
        backend: Backend::Simulator,
        nominal_ms: 1300,
    },
    Workload {
        name: "async-n5-wide-crash-sim",
        n: 5,
        ts: 1,
        ta: 1,
        network: NetworkKind::Asynchronous,
        silent: &[4],
        width: 16,
        depth: 2,
        backend: Backend::Simulator,
        nominal_ms: 420,
    },
    Workload {
        name: "sync-n7-tcp",
        n: 7,
        ts: 2,
        ta: 0,
        network: NetworkKind::Synchronous,
        silent: &[],
        width: 2,
        depth: 2,
        backend: Backend::Tcp,
        nominal_ms: 2000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The evaluated circuit.
    pub fn circuit(&self) -> Circuit {
        Circuit::layered(self.n, self.width, self.depth)
    }

    /// Kernel rounds between two circuits: about [`KERNEL_SHARE`] of a
    /// circuit's nominal time.
    pub fn kernel_rounds(&self) -> usize {
        (self.nominal_ms as f64 * KERNEL_SHARE / ROUND_REF_MS).ceil() as usize
    }

    /// Whether party `i` runs the protocol.
    pub fn is_honest(&self, i: PartyId) -> bool {
        !self.silent.contains(&i)
    }

    /// The number of timed circuits a run of `seconds` makes. It depends on
    /// the arguments only, never on elapsed time, so a rerun repeats the
    /// same work.
    pub fn circuit_count(&self, seconds: u64) -> usize {
        ((seconds * 1000 + self.nominal_ms / 2) / self.nominal_ms).max(3) as usize
    }

    /// A builder for one circuit with every knob pinned: nothing is left to
    /// the `MPC_*` environment.
    pub fn builder(&self, job: &Job) -> MpcBuilder {
        MpcBuilder::new(self.n, self.ts, self.ta)
            .network(self.network)
            .seed(job.seed)
            .field_inputs(&job.inputs)
            .corrupt(self.silent)
            .transport(self.backend)
            .threads(1)
            .frames(true)
            .packing(0)
            .per_gate_openings(false)
            .fault_plan(FaultPlan::none())
            .chaos_plan(FaultPlan::none())
            .tick_micros(TICK_MICROS)
            .drain(false)
    }
}

/// One circuit evaluation: its network seed and the parties' inputs.
#[derive(Clone, Debug)]
pub struct Job {
    /// Master seed of the run (party randomness, schedule, common coin).
    pub seed: u64,
    /// One random field element per party.
    pub inputs: Vec<Fp>,
}

impl Job {
    /// The job with the given seed; its inputs are drawn from that seed.
    pub fn new(n: usize, seed: u64) -> Job {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_5EED);
        Job {
            seed,
            inputs: (0..n).map(|_| Fp::random(&mut rng)).collect(),
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The jobs of one run: `SETUPS` untimed warm-ups, then the timed circuits.
#[derive(Clone, Debug)]
pub struct Plan {
    /// One warm-up job per set-up.
    pub warmups: Vec<Job>,
    /// The timed jobs, in order.
    pub timed: Vec<Job>,
}

impl Plan {
    /// Derives every job from `seed`; `count` timed circuits.
    pub fn new(w: &Workload, seed: u64, count: usize) -> Plan {
        let mut state = seed;
        let mut next = || Job::new(w.n, splitmix64(&mut state));
        let warmups = (0..SETUPS).map(|_| next()).collect();
        let timed = (0..count).map(|_| next()).collect();
        Plan { warmups, timed }
    }
}

/// Checks one run's result against the cleartext evaluation over the
/// agreed input subset (excluded inputs count as zero).
pub fn check(w: &Workload, circuit: &Circuit, job: &Job, r: &MpcRunResult) -> Result<(), String> {
    if r.input_subset.len() < w.n - w.ts {
        return Err(format!(
            "|CS| = {} < n - t_s = {}",
            r.input_subset.len(),
            w.n - w.ts
        ));
    }
    let included: Vec<Fp> = (0..w.n)
        .map(|i| {
            if r.input_subset.contains(&i) {
                job.inputs[i]
            } else {
                Fp::ZERO
            }
        })
        .collect();
    let expected = circuit.evaluate_clear(&included);
    if r.output != expected {
        return Err(format!(
            "output {} != expected {} over CS {:?}",
            r.output.as_u64(),
            expected.as_u64(),
            r.input_subset
        ));
    }
    for i in (0..w.n).filter(|&i| w.is_honest(i)) {
        if r.outputs[i] != Some(expected) {
            return Err(format!("honest party {i} output {:?}", r.outputs[i]));
        }
    }
    Ok(())
}

/// Runs and checks one job; on failure returns the reason, naming the seed.
pub fn run_checked(
    w: &Workload,
    circuit: &Circuit,
    job: &Job,
    result: Result<MpcRunResult, RunError>,
) -> Result<MpcRunResult, String> {
    let r = result.map_err(|e| format!("seed {:#x}: run error: {e}", job.seed))?;
    check(w, circuit, job, &r).map_err(|e| format!("seed {:#x}: {e}", job.seed))?;
    Ok(r)
}

/// Parsed command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the run's job list.
    pub seed: u64,
    /// Nominal run length, turned into a circuit count.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(&value).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value}; known: {names:?}")
                    })?)
                }
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 1..=600"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }

    /// Parses the process arguments, refusing to run while any `MPC_*`
    /// variable is set (some of them have no builder override, so they
    /// would silently change what is measured). Exits with code 2 on error.
    pub fn from_env() -> Args {
        let knobs: Vec<String> = std::env::vars()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("MPC_"))
            .collect();
        let parsed = if knobs.is_empty() {
            Args::parse(std::env::args().skip(1))
        } else {
            Err(format!("refusing to run with {knobs:?} set"))
        };
        parsed.unwrap_or_else(|e| {
            eprintln!("cirbench: {e}");
            eprintln!("usage: cirbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2)
        })
    }
}

/// The median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User and system CPU time of the whole process (every thread, including
/// ones that have exited), in ms, from `/proc/self/stat`.
pub fn cpu_ms() -> (f64, f64) {
    // Linux reports these fields in USER_HZ, which is 100 on every
    // architecture it exposes to user space.
    const MS_PER_TICK: f64 = 10.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let tick = |i: usize| fields[i].parse::<f64>().expect("numeric stat field") * MS_PER_TICK;
    (tick(11), tick(12))
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The result line of a run: `correct`, `attempted`, `failed` and named
/// metrics with their units, printed as one JSON object.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output was checked and correct.
    pub correct: bool,
    /// Circuits attempted.
    pub attempted: usize,
    /// Circuits that failed or gave a wrong output.
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The JSON result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints a readable table, then the JSON result as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        println!("{}", self.to_json());
    }
}

/// The unit of every end-to-end time: the time of one round of
/// [`kernel_round_ms`], fixed at a round figure near what it took on the
/// reference host (0.3 to 0.55 ms). See [`Clock`].
pub const ROUND_REF_MS: f64 = 0.4;

/// The share of a circuit's nominal time the kernel runs between two
/// circuits. Longer kernel runs follow the host's speed with less noise of
/// their own.
pub const KERNEL_SHARE: f64 = 0.08;

/// Runs `rounds` rounds of a fixed CPU workload that does not use the
/// library: hash-map inserts of freshly allocated vectors and modular
/// arithmetic, the same kinds of work the protocol handlers do. Returns the
/// mean wall time of one round, in ms.
pub fn kernel_round_ms(rounds: usize) -> f64 {
    const P: u64 = (1 << 61) - 1;
    let t0 = Instant::now();
    let mut acc = 0u64;
    let mut s = 0x1234u64;
    for _ in 0..rounds {
        let mut m: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for i in 0..2000u64 {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v: Vec<u64> = (0..8)
                .map(|j| ((s >> 3) ^ j).wrapping_mul(i | 1) % P)
                .collect();
            m.insert(s % 4096, v);
        }
        for (k, v) in &m {
            let h = v.iter().fold(0u64, |a, &x| {
                ((a as u128 * 31 + x as u128) % P as u128) as u64
            });
            acc = acc.wrapping_add(k ^ h);
        }
    }
    std::hint::black_box(acc);
    ms(t0.elapsed()) / rounds as f64
}

/// Converts wall time into reference time.
///
/// This host's speed drifts by tens of percent over seconds to minutes, for
/// reasons outside the process (see METHOD.md), and the drift moves every
/// wall-clock figure with it. So every timed interval is bracketed by
/// kernel runs, and reported as `wall × ROUND_REF_MS / round`, the round
/// time being the mean of the two runs around the interval. A change to the
/// library moves the interval but not the kernel.
pub struct Clock {
    rounds: usize,
    last_round_ms: f64,
}

impl Clock {
    /// Starts the clock with one kernel run of `rounds` rounds.
    pub fn start(rounds: usize) -> Clock {
        Clock {
            rounds,
            last_round_ms: kernel_round_ms(rounds),
        }
    }

    /// Converts `wall_ms`, an interval that has just ended, into reference
    /// ms. Runs the kernel once, and reuses that run for the next interval.
    pub fn reference_ms(&mut self, wall_ms: f64) -> f64 {
        let next = kernel_round_ms(self.rounds);
        let round = (self.last_round_ms + next) / 2.0;
        self.last_round_ms = next;
        wall_ms * ROUND_REF_MS / round
    }
}

/// The end-to-end measurement of one untraced run. Times are reference
/// times (see [`Clock`]).
pub fn run_untraced(args: &Args) -> Report {
    let started = Instant::now();
    let w = &args.workload;
    let plan = Plan::new(w, args.seed, w.circuit_count(args.seconds));
    let mut report = Report {
        correct: true,
        ..Report::default()
    };

    // Set-up: build the circuit and run one untimed warm-up circuit (the
    // first one of a process pays its page faults). The first set-up is
    // timed from process start; the clock's first kernel run follows it.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut circuit = w.circuit();
    let mut clock: Option<Clock> = None;
    for (k, job) in plan.warmups.iter().enumerate() {
        let t0 = if k == 0 { started } else { Instant::now() };
        circuit = w.circuit();
        if let Err(e) = run_checked(w, &circuit, job, w.builder(job).run(&circuit)) {
            eprintln!("warm-up failed: {e}");
            report.correct = false;
        }
        let wall = ms(t0.elapsed());
        let clock = clock.get_or_insert_with(|| Clock::start(w.kernel_rounds()));
        setup_s.push(clock.reference_ms(wall) / 1e3);
    }
    let mut clock = clock.expect("SETUPS > 0 starts the clock");

    let (mut circuit_ms, mut cpu_ms_total) = (Vec::new(), 0.0);
    let (mut ticks, mut bits, mut msgs) = (Vec::new(), 0u64, 0u64);
    for job in &plan.timed {
        let (user0, sys0) = cpu_ms();
        let t = Instant::now();
        let result = w.builder(job).run(&circuit);
        let wall = ms(t.elapsed());
        let (user1, sys1) = cpu_ms();
        let reference = clock.reference_ms(wall);
        let cpu = user1 - user0 + sys1 - sys0;
        eprintln!(
            "circuit seed={:#018x} wall_ms={wall:.1} reference_ms={reference:.1} cpu_ms={cpu}",
            job.seed
        );
        circuit_ms.push(reference);
        cpu_ms_total += cpu * reference / wall;
        match run_checked(w, &circuit, job, result) {
            Ok(r) => {
                ticks.push(r.finished_at as f64);
                bits += r.metrics.honest_bits;
                msgs += r.metrics.honest_messages;
            }
            Err(e) => {
                eprintln!("circuit failed: {e}");
                report.failed += 1;
            }
        }
    }

    let count = plan.timed.len();
    let ok = (count - report.failed).max(1) as f64;
    report.attempted = count;
    report.correct &= report.failed == 0;
    report.push("setup_s", median(&setup_s), "s");
    report.push("circuit_ms.p50", median(&circuit_ms), "ms");
    report.push(
        "circuits_per_s",
        count as f64 * 1e3 / circuit_ms.iter().sum::<f64>(),
        "1/s",
    );
    report.push("cpu_ms_per_circuit", cpu_ms_total / count as f64, "ms");
    report.push("completion_ticks.p50", median(&ticks), "ticks");
    report.push("honest_mbit_per_circuit", bits as f64 / 1e6 / ok, "Mbit");
    report.push("honest_msgs_per_circuit", msgs as f64 / ok, "count");
    report.push(
        "ok_share",
        (count - report.failed) as f64 / count as f64,
        "share",
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

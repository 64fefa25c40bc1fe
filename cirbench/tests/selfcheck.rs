//! Self-checks of the traced run: its counts add up, repeat exactly, agree
//! across backends, and match the untraced `MpcBuilder::run` they mirror.
//!
//! Run with `cargo test --release --manifest-path cirbench/Cargo.toml`
//! (a debug build works too, only slower).

use cirbench::trace::{run_traced, Stats, TracedRun, KINDS};
use cirbench::{run_checked, Job, Workload};
use mpc_core::MpcRunResult;

#[global_allocator]
static ALLOC: cirbench::trace::CountingAlloc = cirbench::trace::CountingAlloc;

fn workload(name: &str) -> Workload {
    Workload::by_name(name).expect("known workload")
}

/// One checked traced run: its summed party traces, the values the first
/// honest party opened, and its result.
fn traced(name: &str, seed: u64) -> (Stats, u64, MpcRunResult) {
    let w = workload(name);
    let job = Job::new(w.n, seed);
    let circuit = w.circuit();
    let TracedRun {
        result,
        stats,
        values_opened,
    } = run_traced(&w, &circuit, &job);
    let r = run_checked(&w, &circuit, &job, result).expect("traced run is correct");
    (stats, values_opened, r)
}

#[test]
fn per_kind_deliveries_sum_to_honest_messages_on_sync_n7_sim() {
    let (stats, _, r) = traced("sync-n7-sim", 7);
    let delivered: u64 = stats.kinds.iter().map(|b| b.calls).sum();
    assert_eq!(delivered, r.metrics.honest_messages);
    let sba = stats.kinds[KINDS.iter().position(|&k| k == "sba").unwrap()].calls;
    assert!(
        sba * 100 >= delivered * 65,
        "SBA makes {sba} of {delivered} deliveries"
    );
}

#[test]
fn sim_and_tcp_send_the_same_honest_traffic() {
    let (_, _, sim) = traced("sync-n7-sim", 11);
    let (_, _, tcp) = traced("sync-n7-tcp", 11);
    assert_eq!(sim.metrics.honest_bits, tcp.metrics.honest_bits);
    assert_eq!(sim.metrics.honest_messages, tcp.metrics.honest_messages);
    assert_eq!(sim.output, tcp.output);
}

#[test]
fn traced_sim_counts_repeat_and_match_the_untraced_run() {
    for name in ["sync-n7-sim", "async-n5-wide-crash-sim"] {
        let (a, opened_a, ra) = traced(name, 3);
        let (b, opened_b, rb) = traced(name, 3);
        let counts = |s: &Stats| {
            let mut v: Vec<(u64, u64)> = s.kinds.iter().map(|k| (k.calls, k.bits)).collect();
            v.push((s.timer.calls, s.init.calls));
            v
        };
        assert_eq!(counts(&a), counts(&b), "{name}: per-kind counts");
        assert_eq!(opened_a, opened_b, "{name}: values opened");
        // `Metrics` equality covers bits, messages, events and frames.
        assert_eq!(ra.metrics, rb.metrics, "{name}: metrics");
        assert_eq!(ra.finished_at, rb.finished_at, "{name}: completion tick");

        let w = workload(name);
        let job = Job::new(w.n, 3);
        let plain = w.builder(&job).run(&w.circuit()).expect("untraced run");
        assert_eq!(plain.metrics, ra.metrics, "{name}: traced vs untraced");
        assert_eq!(
            plain.finished_at, ra.finished_at,
            "{name}: traced vs untraced"
        );
        assert_eq!(
            plain.input_subset, ra.input_subset,
            "{name}: traced vs untraced"
        );
    }
}

#[test]
fn work_per_run_depends_on_the_arguments_only() {
    let w = workload("async-n5-wide-crash-sim");
    let count = w.circuit_count(20);
    let a = cirbench::Plan::new(&w, 5, count);
    let b = cirbench::Plan::new(&w, 5, count);
    let seeds = |p: &cirbench::Plan| p.timed.iter().map(|j| j.seed).collect::<Vec<_>>();
    assert_eq!(seeds(&a), seeds(&b));
    assert_eq!(a.timed[0].inputs, b.timed[0].inputs);
    assert_ne!(seeds(&a), seeds(&cirbench::Plan::new(&w, 6, count)));
}

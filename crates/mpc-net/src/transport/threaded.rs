//! The threaded backend: the wall-clock runtime ([`WallNet`]) with every
//! inter-party link an in-memory `std::sync::mpsc` channel — one OS thread
//! per party, canonical wire bytes, real `recv_timeout` deadlines. See
//! DESIGN.md, "Transport abstraction & conformance oracle", for the
//! execution model and the conformance argument.

use std::sync::mpsc::Sender;
use std::time::Duration;

use crate::simulation::NetConfig;
use crate::transport::wall::{sealed::Wiring, Inbound, WallNet};
use crate::transport::Backend;

/// The in-memory channel medium: a party's sender to peer `r` is a clone of
/// `r`'s inbox sender.
#[derive(Default)]
pub struct Channels;

impl Wiring for Channels {
    const BACKEND: Backend = Backend::Threaded;
    const CAP_SLACK: Duration = Duration::from_secs(2);

    fn connect<'scope, 'env>(
        &'env self,
        _scope: &'scope std::thread::Scope<'scope, 'env>,
        _config: &NetConfig,
        _tick_us: u64,
        inboxes: &[Sender<Inbound>],
    ) -> Vec<Vec<Sender<Inbound>>> {
        inboxes.iter().map(|_| inboxes.to_vec()).collect()
    }
}

/// The threaded [`crate::transport::Transport`] backend
/// ([`Backend::Threaded`]).
pub type ThreadedNet<M> = WallNet<M, Channels>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{ByzantineStrategy, CorruptionSet, GarbleBytes, Passive};
    use crate::context::{Context, Protocol};
    use crate::faults::FaultPlan;
    use crate::scheduler::LinkDelays;
    use crate::simulation::{NetworkKind, Simulation};
    use crate::transport::{PartyId, Transport, TransportError};
    use crate::wire::{WireDecode, WireEncode, WireError, WireReader};
    use std::any::Any;

    /// Ping-pong with a deadline: party 0 broadcasts `Ping` at init and arms
    /// a `2Δ` timer; everyone answers `Pong` to the sender; when the timer
    /// fires, party 0 freezes the count of pongs that beat the deadline —
    /// the toy analogue of the sync→async fallback decision.
    #[derive(Debug, Default)]
    struct DeadlinePing {
        pongs: usize,
        at_deadline: Option<usize>,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    impl WireEncode for Msg {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(match self {
                Msg::Ping => 0,
                Msg::Pong => 1,
            });
        }
    }

    impl WireDecode for Msg {
        fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            match r.u8()? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Pong),
                tag => Err(WireError::InvalidTag {
                    tag,
                    context: "threaded test Msg",
                }),
            }
        }
    }

    impl Protocol<Msg> for DeadlinePing {
        fn init(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me == 0 {
                ctx.broadcast(Msg::Ping);
                ctx.set_timer(2 * ctx.delta, 7);
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: PartyId,
            _path: &[u32],
            msg: Msg,
        ) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _path: &[u32], _id: u64) {
            self.at_deadline = Some(self.pongs);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn parties(n: usize) -> Vec<Box<dyn Protocol<Msg>>> {
        (0..n)
            .map(|_| Box::new(DeadlinePing::default()) as Box<dyn Protocol<Msg>>)
            .collect()
    }

    /// Runs the same configuration on the simulator oracle and the threaded
    /// backend and asserts output, metric, and per-party transcript
    /// conformance.
    fn assert_conformance(
        kind: NetworkKind,
        seed: u64,
        corruption: CorruptionSet,
        strategy: impl Fn() -> Box<dyn ByzantineStrategy>,
    ) {
        assert_conformance_with_plan(kind, seed, corruption, strategy, FaultPlan::none());
    }

    fn assert_conformance_with_plan(
        kind: NetworkKind,
        seed: u64,
        corruption: CorruptionSet,
        strategy: impl Fn() -> Box<dyn ByzantineStrategy>,
        plan: FaultPlan,
    ) {
        let n = 4;
        let horizon = 10_000;
        let cfg = NetConfig::for_kind(n, kind)
            .with_seed(seed)
            .with_frames(true);
        let links = LinkDelays::for_kind(n, kind, cfg.delta, seed);

        let mut sim = Simulation::with_scheduler(
            cfg.clone(),
            corruption.clone(),
            Box::new(links.clone()),
            parties(n),
        );
        sim.set_strategy(strategy());
        sim.set_fault_plan(plan.clone());
        sim.record_transcript();
        sim.run_to_quiescence(horizon);

        let mut th = ThreadedNet::with_links(cfg, corruption.clone(), links, parties(n))
            .with_tick_micros(300);
        Transport::set_strategy(&mut th, strategy());
        th.set_fault_plan(plan);
        Transport::record_transcript(&mut th);
        th.run_net_to_quiescence(horizon);

        for i in 0..n {
            let s = sim.party_as::<DeadlinePing>(i).unwrap();
            let t = th.party_as::<DeadlinePing>(i).unwrap();
            assert_eq!(s.pongs, t.pongs, "party {i} pong count (seed {seed})");
            assert_eq!(
                s.at_deadline, t.at_deadline,
                "party {i} deadline snapshot (seed {seed})"
            );
        }
        assert_eq!(
            sim.metrics(),
            Transport::metrics(&th),
            "metrics fingerprint (seed {seed})"
        );
        for i in 0..n {
            let s: Vec<_> = sim.transcript().iter().filter(|e| e.party == i).collect();
            let t: Vec<_> = Transport::transcript(&th)
                .iter()
                .filter(|e| e.party == i)
                .collect();
            assert_eq!(s, t, "party {i} transcript projection (seed {seed})");
        }
    }

    #[test]
    fn threaded_matches_simulator_sync_honest() {
        for seed in [1, 7] {
            assert_conformance(
                NetworkKind::Synchronous,
                seed,
                CorruptionSet::none(),
                || Box::new(Passive),
            );
        }
    }

    #[test]
    fn threaded_matches_simulator_async_honest() {
        assert_conformance(NetworkKind::Asynchronous, 11, CorruptionSet::none(), || {
            Box::new(Passive)
        });
    }

    #[test]
    fn threaded_matches_simulator_with_garbling_corrupt_sender() {
        assert_conformance(
            NetworkKind::Synchronous,
            3,
            CorruptionSet::new(vec![3]),
            || Box::new(GarbleBytes),
        );
    }

    #[test]
    fn threaded_matches_simulator_under_crash_fault() {
        // Party 2 fail-silent at the wire from tick 1: both backends must
        // drop the exact same messages (fault_drops is fingerprint) and
        // reach the same outputs.
        assert_conformance_with_plan(
            NetworkKind::Synchronous,
            5,
            CorruptionSet::none(),
            || Box::new(Passive),
            FaultPlan::none().crash(2, 1, None),
        );
    }

    #[test]
    fn threaded_matches_simulator_under_duplicate_and_delay_bursts() {
        assert_conformance_with_plan(
            NetworkKind::Synchronous,
            9,
            CorruptionSet::none(),
            || Box::new(Passive),
            FaultPlan::none()
                .duplicate_burst(None, None, (0, 64), 3)
                .delay_burst(Some(1), None, (0, 64), 5),
        );
    }

    #[test]
    fn threaded_matches_simulator_under_partition_heal() {
        assert_conformance_with_plan(
            NetworkKind::Asynchronous,
            13,
            CorruptionSet::none(),
            || Box::new(Passive),
            FaultPlan::none().partition(vec![0, 1], 2, Some(120)),
        );
    }

    #[test]
    fn wedge_timeout_is_configurable_and_typed() {
        let n = 4;
        let cfg = NetConfig::synchronous(n).with_seed(5).with_frames(true);
        let links = LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed);
        let th = ThreadedNet::<Msg>::with_links(cfg, CorruptionSet::none(), links, parties(n))
            .with_wedge_millis(250);
        assert_eq!(th.wedge_ms, 250);
        assert!(Transport::<Msg>::last_error(&th).is_none());
        let err = TransportError::Wedged {
            party: 2,
            last_progress_tick: 17,
        };
        assert_eq!(err.to_string(), "party 2 wedged (no progress past tick 17)");
    }

    #[test]
    fn threaded_timers_are_real_timeouts() {
        let n = 4;
        let cfg = NetConfig::synchronous(n).with_seed(5).with_frames(true);
        let links = LinkDelays::for_kind(n, cfg.kind, cfg.delta, cfg.seed);
        let mut th = ThreadedNet::with_links(cfg, CorruptionSet::none(), links, parties(n))
            .with_tick_micros(300);
        th.run_net_to_quiescence(10_000);
        // Party 0's 2Δ deadline fired via a real recv_timeout expiry.
        assert_eq!(Transport::<Msg>::metrics(&th).timeouts_fired, 1);
        assert_eq!(th.party_as::<DeadlinePing>(0).unwrap().at_deadline, Some(n));
    }
}

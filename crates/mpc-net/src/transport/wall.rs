//! The wall-clock party runtime shared by the threaded and tcp backends:
//! one OS thread per party, canonical wire bytes, wall-clock timeouts.
//!
//! [`WallNet`] is generic over the [`Medium`] that carries bytes between
//! party threads — in-memory channels ([`super::threaded::Channels`]) or
//! supervised loopback sockets ([`super::tcp::Sockets`]). Everything else —
//! the party runtime, the quiescence coordinator, the result merge and the
//! [`Transport`] impl — exists once, here.
//!
//! # Execution model
//!
//! Each party runs `PartyRuntime::run` on its own thread. Outbound traffic
//! leaves a party as TCP-ready byte strings — the same per-destination
//! [`crate::wire::Frame`] encodings the framed simulator engine produces for
//! honest senders, and path-prefixed single-message packets for corrupt
//! senders (whose [`ByzantineStrategy`] keeps its exact per-message view of
//! the wire) — and travels over the medium.
//!
//! Time is paced against the wall clock: one logical tick is a fixed real
//! duration (`MPC_TICK_US`, default 1000 µs), and a party processes the work
//! due at tick `t` when `recv_timeout` reaches the tick's real deadline —
//! every timer expiry on this backend is a genuine timeout, not a simulated
//! event. Link latency comes from a [`LinkDelays`] matrix: a packet sent at
//! tick `t` over a link of `d` ticks is *stamped* `deliver_tick = t + d` by
//! the sender and held by the receiver until that tick's wall deadline.
//! Logical "now" therefore flows in-band with the packets, never from the
//! wall clock — what the wall clock decides is *which event wins a race*:
//! a party whose `Δ`-timer deadline arrives before a slow sender's bytes
//! fires the timeout and takes the synchronous→asynchronous fallback path,
//! exactly as it would against a real slow network.
//!
//! On an oversubscribed host (debug builds, single core) a party can overrun
//! its tick budget, and a fixed wall schedule would then misdeliver its
//! packets as *late*. The runtime therefore layers a conservative link-clock
//! gate (Chandy–Misra null messages, `Inbound::Past`) on top of the wall
//! pacing: a due tick only fires once every incoming link promises nothing
//! earlier is still in flight. On a healthy schedule the promises run ahead
//! of the deadlines and the gate never waits; under load it converts
//! would-be lateness into back-pressure, bounded by the wedge timeout
//! (`MPC_WEDGE_MS`).
//!
//! # Conformance
//!
//! Party batches are executed by the *same* engines the simulator uses
//! (`run_party_batch` / `run_corrupt_batch`), and the per-receiver
//! packet order `(deliver_tick, send_tick, from, order)` reproduces the
//! simulator's canonical event order whenever the latency matrix is
//! column-distinct (which [`LinkDelays`] constructions guarantee): for any
//! seed, either medium and the simulator produce byte-identical per-party
//! outputs and identical per-party bit accounting. See
//! `tests/transport_conformance.rs` and DESIGN.md, "Transport abstraction &
//! conformance oracle".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{
    AdversaryStructure, ByzantineStrategy, CorruptionSet, Passive, WireAction, WireSend,
};
use crate::context::{Context, Effects, Path, Protocol};
use crate::faults::{FaultOutcome, FaultPlan};
use crate::knobs;
use crate::metrics::Metrics;
use crate::scheduler::LinkDelays;
use crate::simulation::{
    run_corrupt_batch, run_party_batch, BatchOutcome, CorruptOutcome, CorruptSend, EventKind,
    FrameSet, NetConfig, TranscriptEntry, WorkerParty,
};
use crate::transport::{Backend, PartyId, PartyView, Time, Transport, TransportError};
use crate::wire::{WireDecode, WireEncode, WireReader};

/// What travels between party threads.
pub enum Inbound {
    Packet(Packet),
    /// A link-clock promise (a Chandy–Misra null message): nothing the sender
    /// emits from here on can arrive on this link before `floor`. Channels
    /// are FIFO and per-link delays fixed, so once a receiver has read this
    /// it has also already received every packet of the link due earlier.
    Past {
        from: PartyId,
        floor: Time,
    },
    /// Global shutdown, sent by the coordinator at quiescence (or at the
    /// hard wall-clock cap).
    Stop,
}

/// One byte string on a channel. `bytes` is a complete [`crate::wire::Frame`]
/// when `framed`, else a path-prefixed single message (see
/// [`encode_single`]).
pub struct Packet {
    pub(super) from: PartyId,
    pub(super) send_tick: Time,
    /// Emission index among the sender's packets of `send_tick` — the
    /// receiver-side tiebreaker that reproduces the simulator's scheduling
    /// order for same-link packets.
    pub(super) order: u32,
    pub(super) deliver_tick: Time,
    pub(super) framed: bool,
    pub(super) bytes: Arc<Vec<u8>>,
}

/// A latency-held inbound event, ordered by the canonical receiver key.
pub(super) struct HeldEv {
    deliver_tick: Time,
    send_tick: Time,
    from: PartyId,
    order: u32,
    kind: EventKind,
}

impl HeldEv {
    fn key(&self) -> (Time, Time, PartyId, u32) {
        (self.deliver_tick, self.send_tick, self.from, self.order)
    }
}

impl PartialEq for HeldEv {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeldEv {}
impl PartialOrd for HeldEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeldEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A pending timer, ordered by `(fire, tseq)` — `tseq` is the party's timer
/// scheduling order, matching the simulator's per-party seq order.
pub(super) struct HeldTimer {
    fire: Time,
    tseq: u64,
    path: Path,
    id: u64,
}

impl HeldTimer {
    fn key(&self) -> (Time, u64) {
        (self.fire, self.tseq)
    }
}

impl PartialEq for HeldTimer {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeldTimer {}
impl PartialOrd for HeldTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeldTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Coordination state shared by all party threads and the coordinator.
pub(super) struct Shared {
    /// Packets sent but not yet taken off their channel. Quiescence needs
    /// this at 0.
    pub(super) in_flight: AtomicI64,
    /// Per-party "blocked with nothing pending" flags.
    pub(super) idle: Vec<AtomicBool>,
    /// Bumped on every send, receive and processed tick; the coordinator's
    /// double-read of this counter makes its idle scan race-free.
    pub(super) activity: AtomicU64,
}

/// The wire-level adversary, shared by all corrupt parties' threads. With a
/// single corrupt party the lock is uncontended and the consult order equals
/// the simulator's; with several, strategies that draw from the shared RNG
/// stream should be wrapped in [`crate::ChannelDeterministic`] to stay
/// order-independent.
pub(super) struct AdvState {
    pub(super) strategy: Box<dyn ByzantineStrategy>,
    pub(super) rng: StdRng,
}

/// What a party thread hands back when it stops.
pub(super) struct PartyDone<M> {
    pub(super) party: PartyId,
    pub(super) protocol: Box<dyn Protocol<M>>,
    pub(super) metrics: Metrics,
    pub(super) transcript: Vec<TranscriptEntry>,
    pub(super) last_tick: Time,
    pub(super) processed_any: bool,
    /// First wedge this party's conservative gate diagnosed: the lagging
    /// peer and the last tick its link clock had cleared.
    pub(super) wedged: Option<(PartyId, Time)>,
}

/// Encodes a single (non-framed) message for the wire: `u32` path length,
/// path segments as little-endian `u32`s, then the payload bytes verbatim.
/// The prefix layout matches the per-item layout inside a [`crate::Frame`].
pub(super) fn encode_single(path: &[u32], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + path.len() * 4 + payload.len());
    buf.extend_from_slice(&(path.len() as u32).to_le_bytes());
    for &seg in path {
        buf.extend_from_slice(&seg.to_le_bytes());
    }
    buf.extend_from_slice(payload);
    buf
}

/// Splits a single-message packet back into its path and payload bytes. The
/// prefix is always well-formed (this backend wrote it *after* the Byzantine
/// strategy acted — only the payload tail can be garbled, exactly like the
/// simulator's `(path, payload)` events).
pub(super) fn decode_single(bytes: &[u8]) -> (Path, Arc<Vec<u8>>) {
    let mut r = WireReader::new(bytes);
    let len = r.u32().expect("single-packet path prefix") as usize;
    let mut segs = Vec::with_capacity(len);
    for _ in 0..len {
        segs.push(r.u32().expect("single-packet path segment"));
    }
    let consumed = bytes.len() - r.remaining();
    (
        Path::from(segs.as_slice()),
        Arc::new(bytes[consumed..].to_vec()),
    )
}

/// The per-thread party runtime. See the module docs for the model.
pub(super) struct PartyRuntime<'s, M> {
    pub(super) me: PartyId,
    pub(super) n: usize,
    pub(super) delta: Time,
    pub(super) coin_seed: u64,
    pub(super) horizon: Time,
    pub(super) record: bool,
    pub(super) honest: bool,
    pub(super) tick_us: u64,
    pub(super) guard: Duration,
    /// Wall-clock epoch: tick `t`'s deadline is `start + t·tick + guard`.
    /// Stamped after the post-init barrier so thread-spawn latency never
    /// eats into tick 0's budget.
    pub(super) start: Instant,
    pub(super) links: &'s LinkDelays,
    pub(super) faults: &'s FaultPlan,
    pub(super) protocol: Box<dyn Protocol<M>>,
    pub(super) rng: StdRng,
    pub(super) rx: Receiver<Inbound>,
    pub(super) txs: Vec<Sender<Inbound>>,
    pub(super) shared: &'s Shared,
    pub(super) adv: &'s Mutex<AdvState>,
    pub(super) held: BinaryHeap<Reverse<HeldEv>>,
    pub(super) timers: BinaryHeap<Reverse<HeldTimer>>,
    pub(super) tseq: u64,
    pub(super) metrics: Metrics,
    pub(super) transcript: Vec<TranscriptEntry>,
    /// Every tick below this has been processed; late packets clamp here.
    pub(super) next_unprocessed: Time,
    pub(super) last_tick: Time,
    pub(super) processed_any: bool,
    pub(super) order_tick: Time,
    pub(super) order_counter: u32,
    pub(super) stopping: bool,
    /// Per-sender link clock: the earliest tick at which a not-yet-received
    /// packet from that sender could still arrive (own slot unused). Raised
    /// by [`Inbound::Past`] promises; processing tick `t` waits until every
    /// slot exceeds `t`, so an overrun party (debug compute on an
    /// oversubscribed host) back-pressures its receivers instead of being
    /// ruled late — the wall clock still decides *when* a due tick fires,
    /// the floors only guarantee no link has earlier bytes in flight.
    pub(super) chan_floor: Vec<Time>,
    /// Highest promise broadcast so far (the basis tick, before per-link
    /// delay is added); deduplicates [`Inbound::Past`] chatter.
    pub(super) promised: Time,
    /// How long the conservative gate tolerates *zero* progress (no packet,
    /// no advancing link clock) on a lagging link before processing anyway —
    /// see [`default_wedge_timeout`]. Configurable via
    /// `ThreadedNet::with_wedge_millis` / the `MPC_WEDGE_MS` knob.
    pub(super) wedge_timeout: Duration,
    /// First wedge diagnosed by the gate (lagging peer, its last cleared
    /// tick); surfaced post-run as `TransportError::Wedged`.
    pub(super) wedged: Option<(PartyId, Time)>,
}

/// The default zero-progress grace of the conservative gate (30 s). This is
/// a pathology net for a wedged peer, not a pacing knob: a single
/// debug-build batch on an oversubscribed single-core host can legitimately
/// compute for hundreds of milliseconds while emitting nothing, and bailing
/// on it surfaces as `late_packets` plus oracle divergence. The
/// coordinator's hard wall-clock cap remains the final backstop. Unlike the
/// pre-PR-9 hard-coded constant, expiry is no longer silent: it increments
/// [`Metrics::wedges`] and surfaces a typed
/// [`TransportError::Wedged`] through `Transport::last_error`.
pub const fn default_wedge_timeout() -> Duration {
    Duration::from_secs(30)
}

impl<M: WireEncode + WireDecode + 'static> PartyRuntime<'_, M> {
    /// Next emission index among this party's packets of `tick`.
    fn next_order(&mut self, tick: Time) -> u32 {
        if self.order_tick != tick {
            self.order_tick = tick;
            self.order_counter = 0;
        }
        let o = self.order_counter;
        self.order_counter += 1;
        o
    }

    fn deadline_of(&self, tick: Time) -> Instant {
        self.start + Duration::from_micros(self.tick_us.saturating_mul(tick)) + self.guard
    }

    /// The earliest tick with pending work (held packet or timer), if any.
    fn next_work(&self) -> Option<Time> {
        let next_held = self.held.peek().map(|Reverse(ev)| ev.deliver_tick);
        let next_timer = self.timers.peek().map(|Reverse(tm)| tm.fire);
        match (next_held, next_timer) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(Time::MAX).min(b.unwrap_or(Time::MAX))),
        }
    }

    /// Records a link-clock promise from `from`; true if the clock advanced.
    fn note_past(&mut self, from: PartyId, floor: Time) -> bool {
        if floor > self.chan_floor[from] {
            self.chan_floor[from] = floor;
            return true;
        }
        false
    }

    /// A sender whose link clock does not yet clear tick `t`, if any.
    fn lagging_link(&self, t: Time) -> Option<PartyId> {
        (0..self.n).find(|&s| s != self.me && self.chan_floor[s] <= t)
    }

    /// Recomputes this party's output clock — the earliest tick it could
    /// still process, hence the earliest `send_tick` it could still stamp —
    /// and broadcasts the promise when it has advanced. The clock is the
    /// Chandy–Misra recurrence: own pending work, capped below by incoming
    /// link clocks (a future packet can reactivate an otherwise idle party),
    /// and never below what is already processed. Promises beyond the
    /// horizon are pointless (that work is discarded), so the basis is
    /// capped there — this also bounds the null-message chatter.
    fn update_promise(&mut self, next: Option<Time>) {
        let cap = self.horizon.saturating_add(1);
        let mut basis = next.unwrap_or(cap).min(cap);
        for s in 0..self.n {
            if s != self.me {
                basis = basis.min(self.chan_floor[s]);
            }
        }
        basis = basis.max(self.next_unprocessed).min(cap);
        if basis > self.promised {
            self.promised = basis;
            for r in 0..self.n {
                if r != self.me {
                    let _ = self.txs[r].send(Inbound::Past {
                        from: self.me,
                        floor: basis.saturating_add(self.links.get(self.me, r)),
                    });
                }
            }
        }
    }

    fn push_timer(&mut self, fire: Time, path: Path, id: u64) {
        self.tseq += 1;
        self.timers.push(Reverse(HeldTimer {
            fire,
            tseq: self.tseq,
            path,
            id,
        }));
    }

    fn hold(
        &mut self,
        deliver_tick: Time,
        send_tick: Time,
        from: PartyId,
        order: u32,
        kind: EventKind,
    ) {
        self.held.push(Reverse(HeldEv {
            deliver_tick,
            send_tick,
            from,
            order,
            kind,
        }));
        let depth = self.held.len() as u64;
        if depth > self.metrics.held_packets_peak {
            self.metrics.held_packets_peak = depth;
        }
    }

    /// Takes one packet off the channel into the held heap.
    fn receive(&mut self, p: Packet) {
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
        let mut deliver = p.deliver_tick;
        if deliver < self.next_unprocessed {
            // Physically late: its logical tick is already processed. Clamp
            // forward (and diagnose) rather than lose or reorder it.
            self.metrics.late_packets += 1;
            if std::env::var_os("MPC_TRACE_LATE").is_some() {
                eprintln!(
                    "late: to={} from={} deliver={} send={} next_unprocessed={} floor[from]={}",
                    self.me,
                    p.from,
                    deliver,
                    p.send_tick,
                    self.next_unprocessed,
                    self.chan_floor[p.from]
                );
            }
            deliver = self.next_unprocessed;
        }
        let kind = if p.framed {
            EventKind::DeliverFrame {
                to: self.me,
                from: p.from,
                payload: p.bytes,
            }
        } else {
            let (path, payload) = decode_single(&p.bytes);
            EventKind::Deliver {
                to: self.me,
                from: p.from,
                path,
                payload,
            }
        };
        self.hold(deliver, p.send_tick, p.from, p.order, kind);
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn send_packet(&mut self, to: PartyId, send_tick: Time, framed: bool, bytes: Arc<Vec<u8>>) {
        debug_assert_ne!(to, self.me, "self-addressed traffic is delivered in-batch");
        // The injected fault plan acts on the network, after the sender's
        // bit accounting (callers record sends before calling here) — the
        // exact decision the simulator's dispatch makes for the same
        // coordinates, because the plan is a pure function of them.
        let scheduled = send_tick + self.links.get(self.me, to);
        let (deliver_tick, duplicate) = match self.faults.resolve(self.me, to, send_tick, scheduled)
        {
            FaultOutcome::Drop => {
                self.metrics.fault_drops += 1;
                return;
            }
            FaultOutcome::Deliver { at, duplicate } => (at, duplicate),
        };
        let order = self.next_order(send_tick);
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let packet = Packet {
            from: self.me,
            send_tick,
            order,
            deliver_tick,
            framed,
            bytes: Arc::clone(&bytes),
        };
        if self.txs[to].send(Inbound::Packet(packet)).is_err() {
            // Receiver already gone (forced stop): retract the claim.
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(dup_tick) = duplicate {
            // The duplicate copy mirrors the simulator's second queue push:
            // its own emission index, the adjusted later delivery tick.
            self.metrics.fault_duplicates += 1;
            let order = self.next_order(send_tick);
            self.shared.activity.fetch_add(1, Ordering::SeqCst);
            self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            let packet = Packet {
                from: self.me,
                send_tick,
                order,
                deliver_tick: dup_tick,
                framed,
                bytes,
            };
            if self.txs[to].send(Inbound::Packet(packet)).is_err() {
                self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Dispatches an honest activation's coalesced frames: unicast frames in
    /// ascending destination order, then the broadcast frame to every other
    /// party — the simulator's flush order, reproduced in the packet `order`
    /// stamps.
    fn flush_frames(&mut self, frames: FrameSet, send_tick: Time) {
        let FrameSet {
            unicast,
            broadcast,
            broadcast_meta,
        } = frames;
        for (to, (builder, meta)) in unicast {
            for (bits, seg) in meta {
                self.metrics.record_send(self.me, true, bits, seg);
            }
            self.metrics.frames_sent += 1;
            self.send_packet(to, send_tick, true, Arc::new(builder.finish()));
        }
        if !broadcast.is_empty() {
            let payload = Arc::new(broadcast.finish());
            for to in 0..self.n {
                if to == self.me {
                    continue;
                }
                for &(bits, seg) in &broadcast_meta {
                    self.metrics.record_send(self.me, true, bits, seg);
                }
                self.metrics.frames_sent += 1;
                self.send_packet(to, send_tick, true, Arc::clone(&payload));
            }
        }
    }

    /// Routes one corrupt-sender message through the Byzantine strategy (the
    /// simulator's `dispatch` order of operations) at init time.
    fn route_corrupt(
        &mut self,
        adv: &mut AdvState,
        to: PartyId,
        path: Path,
        payload: Arc<Vec<u8>>,
        broadcast: bool,
        batch0: &mut Vec<EventKind>,
    ) {
        let send = WireSend {
            from: self.me,
            to,
            n: self.n,
            path: &path,
            bytes: &payload,
            broadcast,
        };
        let payload = match adv.strategy.on_send(&send, &mut adv.rng) {
            WireAction::Deliver => payload,
            WireAction::Replace(bytes) => {
                self.metrics.adversary_tampered += 1;
                Arc::new(bytes)
            }
            WireAction::Drop => {
                self.metrics.adversary_drops += 1;
                return;
            }
        };
        self.metrics.record_send(
            self.me,
            false,
            payload.len() as u64 * 8,
            path.first().copied(),
        );
        if to == self.me {
            batch0.push(EventKind::Deliver {
                to,
                from: self.me,
                path,
                payload,
            });
        } else {
            let bytes = Arc::new(encode_single(&path, &payload));
            self.send_packet(to, 0, false, bytes);
        }
    }

    /// Runs the party's `init` at tick 0 and converts its effects into the
    /// tick-0 pending batch plus outbound packets — mirroring the simulator's
    /// init flush (self-sends and broadcast self-copies as same-tick events,
    /// cross-party honest traffic framed, corrupt traffic per message).
    pub(super) fn init(&mut self) {
        let mut effects: Effects<M> = Effects::new();
        {
            let mut ctx = Context::new(
                self.me,
                self.n,
                0,
                self.delta,
                &mut effects,
                &mut self.rng,
                self.coin_seed,
            );
            self.protocol.init(&mut ctx);
        }
        let mut batch0: Vec<EventKind> = Vec::new();
        if self.honest {
            let mut frames = FrameSet::new();
            for (to, path, msg) in effects.sends.drain(..) {
                if to == self.me {
                    let payload = Arc::new(msg.encode());
                    self.metrics.record_send(
                        self.me,
                        true,
                        payload.len() as u64 * 8,
                        path.first().copied(),
                    );
                    batch0.push(EventKind::Deliver {
                        to,
                        from: self.me,
                        path,
                        payload,
                    });
                } else {
                    frames.add_send(to, &path, &msg);
                }
            }
            for (path, msg) in effects.broadcasts.drain(..) {
                let (bits, self_copy) = frames.add_broadcast(&path, &msg);
                self.metrics
                    .record_send(self.me, true, bits, path.first().copied());
                batch0.push(EventKind::Deliver {
                    to: self.me,
                    from: self.me,
                    path,
                    payload: Arc::new(self_copy),
                });
            }
            self.flush_frames(frames, 0);
        } else {
            let sends: Vec<_> = effects.sends.drain(..).collect();
            let broadcasts: Vec<_> = effects.broadcasts.drain(..).collect();
            if !sends.is_empty() || !broadcasts.is_empty() {
                let adv_mutex = self.adv;
                let mut adv = adv_mutex.lock().expect("adversary state poisoned");
                for (to, path, msg) in sends {
                    let payload = Arc::new(msg.encode());
                    self.route_corrupt(&mut adv, to, path, payload, false, &mut batch0);
                }
                for (path, msg) in broadcasts {
                    let payload = Arc::new(msg.encode());
                    for to in 0..self.n {
                        self.route_corrupt(
                            &mut adv,
                            to,
                            path.clone(),
                            Arc::clone(&payload),
                            true,
                            &mut batch0,
                        );
                    }
                }
            }
        }
        for (delay, path, id) in effects.timers.drain(..) {
            if delay == 0 {
                batch0.push(EventKind::Timer {
                    party: self.me,
                    path,
                    id,
                });
            } else {
                self.push_timer(delay, path, id);
            }
        }
        for kind in batch0 {
            let order = self.next_order(0);
            self.hold(0, 0, self.me, order, kind);
        }
    }

    /// Processes everything due at tick `t` as one batch through the shared
    /// slice engines.
    fn process_tick(&mut self, t: Time) {
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
        let mut events: Vec<EventKind> = Vec::new();
        while self
            .held
            .peek()
            .is_some_and(|Reverse(ev)| ev.deliver_tick <= t)
        {
            let Some(Reverse(ev)) = self.held.pop() else {
                unreachable!("peeked event vanished")
            };
            debug_assert_eq!(ev.deliver_tick, t, "ticks are processed in order");
            events.push(ev.kind);
        }
        let mut timer_events = 0u64;
        while self.timers.peek().is_some_and(|Reverse(tm)| tm.fire <= t) {
            let Some(Reverse(tm)) = self.timers.pop() else {
                unreachable!("peeked timer vanished")
            };
            events.push(EventKind::Timer {
                party: self.me,
                path: tm.path,
                id: tm.id,
            });
            timer_events += 1;
        }
        // Every timer expiry on this backend is a real `recv_timeout`
        // deadline that elapsed.
        self.metrics.timeouts_fired += timer_events;
        self.metrics
            .record_slice(events.len() as u64, (self.held.len() + events.len()) as u64);
        let (n, delta, coin_seed, record) = (self.n, self.delta, self.coin_seed, self.record);
        let wp = WorkerParty {
            party: self.me,
            protocol: &mut self.protocol,
            rng: &mut self.rng,
            events,
        };
        if self.honest {
            let outcome = run_party_batch(wp, t, n, delta, coin_seed, record);
            self.apply_honest(outcome, t);
        } else {
            let adv_mutex = self.adv;
            let mut adv = adv_mutex.lock().expect("adversary state poisoned");
            let AdvState { strategy, rng } = &mut *adv;
            let outcome =
                run_corrupt_batch(wp, t, n, delta, coin_seed, record, strategy.as_mut(), rng);
            drop(adv);
            self.apply_corrupt(outcome, t);
        }
        self.next_unprocessed = t + 1;
        self.last_tick = t;
        self.processed_any = true;
    }

    fn apply_honest(&mut self, outcome: BatchOutcome, t: Time) {
        let BatchOutcome {
            party,
            events,
            // The threaded loop already counted this batch's timer expiries
            // when it popped them from its timer wheel.
            timers_fired: _,
            decode_failures,
            transcript,
            self_records,
            frames,
            timers,
        } = outcome;
        debug_assert_eq!(party, self.me);
        self.metrics.events_processed += events;
        self.metrics.decode_failures += decode_failures;
        if self.record {
            self.transcript.extend(transcript);
        }
        for (bits, seg) in self_records {
            self.metrics.record_send(self.me, true, bits, seg);
        }
        self.flush_frames(frames, t);
        for (delay, path, id) in timers {
            self.push_timer(t + delay, path, id);
        }
    }

    fn apply_corrupt(&mut self, outcome: CorruptOutcome, t: Time) {
        let CorruptOutcome {
            party,
            events,
            decode_failures,
            transcript,
            sends,
            drops,
            tampered,
            wire_messages,
            timers,
        } = outcome;
        debug_assert_eq!(party, self.me);
        self.metrics.events_processed += events;
        self.metrics.decode_failures += decode_failures;
        if self.record {
            self.transcript.extend(transcript);
        }
        self.metrics.adversary_drops += drops;
        self.metrics.adversary_tampered += tampered;
        self.metrics.corrupt_messages += wire_messages;
        for CorruptSend { to, path, payload } in sends {
            let bytes = Arc::new(encode_single(&path, &payload));
            self.send_packet(to, t, false, bytes);
        }
        for (delay, path, id) in timers {
            self.push_timer(t + delay, path, id);
        }
    }

    /// The party thread body: init, epoch barrier, then the paced event loop
    /// until the coordinator's `Stop`.
    pub(super) fn run(mut self, barrier: &Barrier, epoch: &OnceLock<Instant>) -> PartyDone<M> {
        self.init();
        barrier.wait();
        if self.me == 0 {
            // One tick of lead so tick 0's deadline is comfortably ahead.
            let _ = epoch.set(Instant::now() + Duration::from_micros(self.tick_us));
        }
        barrier.wait();
        self.start = *epoch.get().expect("epoch stamped by party 0");
        loop {
            loop {
                match self.rx.try_recv() {
                    Ok(Inbound::Packet(p)) => {
                        // Clear the idle flag *before* folding the packet in
                        // (which releases its in-flight claim): a party woken
                        // from the blocking branch by a promise keeps a
                        // stale idle=true through this drain, and a window
                        // where the flag is true while the packet is neither
                        // in flight nor processed lets the coordinator
                        // declare quiescence mid-run and truncate the tail
                        // of a healthy schedule.
                        self.shared.idle[self.me].store(false, Ordering::SeqCst);
                        self.receive(p);
                    }
                    Ok(Inbound::Past { from, floor }) => {
                        self.note_past(from, floor);
                    }
                    Ok(Inbound::Stop) => self.stopping = true,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.stopping = true;
                        break;
                    }
                }
            }
            if self.stopping {
                break;
            }
            let next = self.next_work();
            self.update_promise(next);
            // Keep the invariant local and self-evident: the flag is true
            // exactly while this party is blocked below with no work.
            self.shared.idle[self.me].store(next.is_none(), Ordering::SeqCst);
            match next {
                None => {
                    match self.rx.recv() {
                        Ok(Inbound::Packet(p)) => {
                            self.shared.idle[self.me].store(false, Ordering::SeqCst);
                            self.receive(p);
                        }
                        // A promise creates no work: stay marked idle so the
                        // coordinator can declare quiescence through the
                        // end-of-run promise exchange (floors creeping toward
                        // the horizon cap) instead of waiting it out.
                        Ok(Inbound::Past { from, floor }) => {
                            self.note_past(from, floor);
                        }
                        Ok(Inbound::Stop) | Err(_) => {
                            self.shared.idle[self.me].store(false, Ordering::SeqCst);
                            break;
                        }
                    }
                }
                Some(t) if t > self.horizon => {
                    // Mirror `Simulation::run_until`: work beyond the horizon
                    // stays unprocessed.
                    self.held.clear();
                    self.timers.clear();
                }
                Some(t) => {
                    let deadline = self.deadline_of(t);
                    let now = Instant::now();
                    if now < deadline {
                        match self.rx.recv_timeout(deadline - now) {
                            Ok(Inbound::Packet(p)) => self.receive(p),
                            Ok(Inbound::Past { from, floor }) => {
                                self.note_past(from, floor);
                            }
                            Ok(Inbound::Stop) => self.stopping = true,
                            // The real timeout: tick `t`'s deadline elapsed
                            // with no earlier-due bytes on the wire.
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => self.stopping = true,
                        }
                        continue;
                    }
                    // Conservative gate: tick `t` is due by the wall clock,
                    // but only fires once every incoming link clock clears it
                    // — i.e. no sender can still produce a packet that the
                    // simulator would have scheduled at or before `t`. On a
                    // healthy schedule floors run ahead of deadlines and this
                    // costs nothing; under load it converts would-be late
                    // packets into bounded back-pressure.
                    // The grace clock measures *stalled* time: a laggard
                    // grinding through a long compute burst keeps resetting
                    // it with every promise it emits, so the gate only bails
                    // on a genuinely dead peer, not on slow progress.
                    let mut stalled_since = Instant::now();
                    let trace_gate = std::env::var_os("MPC_TRACE_GATE").is_some();
                    let mut traced = Instant::now();
                    let quantum = Duration::from_micros((self.tick_us / 2).clamp(100, 1000));
                    while self.lagging_link(t).is_some() && !self.stopping {
                        if trace_gate && traced.elapsed() > Duration::from_secs(1) {
                            traced = Instant::now();
                            eprintln!(
                                "gate: me={} t={} floors={:?} promised={} nup={} held={} timers={}",
                                self.me,
                                t,
                                self.chan_floor,
                                self.promised,
                                self.next_unprocessed,
                                self.held.len(),
                                self.timers.len()
                            );
                        }
                        if stalled_since.elapsed() > self.wedge_timeout {
                            // Zero progress for the whole grace: diagnose the
                            // wedged peer, then process anyway (liveness) —
                            // the run surfaces the wedge as a typed error.
                            if let Some(peer) = self.lagging_link(t) {
                                self.metrics.wedges += 1;
                                if self.wedged.is_none() {
                                    self.wedged = Some((peer, self.chan_floor[peer]));
                                }
                            }
                            break;
                        }
                        let progressed = match self.rx.recv_timeout(quantum) {
                            Ok(Inbound::Packet(p)) => {
                                self.receive(p);
                                true
                            }
                            Ok(Inbound::Past { from, floor }) => self.note_past(from, floor),
                            Ok(Inbound::Stop) => {
                                self.stopping = true;
                                false
                            }
                            Err(RecvTimeoutError::Timeout) => false,
                            Err(RecvTimeoutError::Disconnected) => {
                                self.stopping = true;
                                false
                            }
                        };
                        if progressed {
                            stalled_since = Instant::now();
                        }
                        // A risen incoming clock can raise our own promise,
                        // which a peer's gate may in turn be waiting on —
                        // re-broadcast from inside the gate or mutually
                        // gating parties would stall until the grace bail.
                        let nw = self.next_work();
                        self.update_promise(nw);
                        // A packet taken during the gate may carry work due
                        // *before* `t`. Keep gating on the stale `t` and the
                        // promise basis pins at that earlier tick — which a
                        // peer's own gate may be waiting to see cleared:
                        // mutual deadlock until the grace bail. Re-enter the
                        // outer loop so the gate re-forms on the true
                        // earliest tick.
                        if nw != Some(t) {
                            break;
                        }
                    }
                    // A packet taken during the gate may be due before `t`;
                    // recompute rather than process out of order.
                    if self.stopping || self.next_work() != Some(t) {
                        continue;
                    }
                    self.process_tick(t);
                }
            }
        }
        PartyDone {
            party: self.me,
            protocol: self.protocol,
            metrics: self.metrics,
            transcript: self.transcript,
            last_tick: self.last_tick,
            processed_any: self.processed_any,
            wedged: self.wedged,
        }
    }
}

/// The medium a [`WallNet`] runs over: what carries packets and link-clock
/// promises from a party thread to its peers' inboxes. Sealed — implemented
/// only by [`super::threaded::Channels`] and [`super::tcp::Sockets`].
pub trait Medium: sealed::Wiring {}

impl<K: sealed::Wiring> Medium for K {}

pub(super) mod sealed {
    use super::*;

    /// The per-medium hooks of [`WallNet::run_net_to_quiescence`].
    pub trait Wiring: Default + Send + Sync + 'static {
        /// The backend this medium implements.
        const BACKEND: Backend;
        /// Wall-clock slack on top of the coordinator's hard cap.
        const CAP_SLACK: Duration;

        /// Returns every party's outbound senders, indexed by destination
        /// (a party's own slot is its own inbox), spawning in `scope` the
        /// helper threads the medium needs. Called once per network (a
        /// [`WallNet`] runs once), before any party thread starts.
        fn connect<'scope, 'env>(
            &'env self,
            scope: &'scope std::thread::Scope<'scope, 'env>,
            config: &NetConfig,
            tick_us: u64,
            inboxes: &[Sender<Inbound>],
        ) -> Vec<Vec<Sender<Inbound>>>;

        /// Called inside the scope once every party thread has joined, so
        /// the helper threads wind down.
        fn close(&self) {}

        /// Folds the run's medium counters into the merged metrics after
        /// every helper thread has exited.
        fn fold(&self, _metrics: &mut Metrics) {}
    }
}

/// The wall-clock [`Transport`] runtime over a [`Medium`]; used through its
/// aliases [`super::threaded::ThreadedNet`] and [`super::tcp::TcpNet`].
/// Construct with [`WallNet::new`] (latency matrix derived from the
/// [`NetConfig`]'s network kind and seed) or [`WallNet::with_links`]
/// (explicit matrix, e.g. the exact one handed to the simulator oracle),
/// then drive it through the [`Transport`] trait.
pub struct WallNet<M, K: Medium> {
    config: NetConfig,
    corruption: CorruptionSet,
    structure: Option<Arc<dyn AdversaryStructure>>,
    links: LinkDelays,
    faults: FaultPlan,
    tick_us: u64,
    pub(super) wedge_ms: u64,
    pub(super) medium: K,
    parties: Vec<Option<Box<dyn Protocol<M>>>>,
    strategy: Option<Box<dyn ByzantineStrategy>>,
    record: bool,
    transcript: Vec<TranscriptEntry>,
    metrics: Metrics,
    now: Time,
    ran: bool,
    last_error: Option<TransportError>,
}

impl<M: WireEncode + WireDecode + 'static, K: Medium> WallNet<M, K> {
    /// Creates a network with the default latency matrix for the configured
    /// network kind ([`LinkDelays::for_kind`]).
    pub fn new(
        config: NetConfig,
        corruption: CorruptionSet,
        parties: Vec<Box<dyn Protocol<M>>>,
    ) -> Self {
        let links = LinkDelays::for_kind(config.n, config.kind, config.delta, config.seed);
        Self::with_links(config, corruption, links, parties)
    }

    /// Creates a network with an explicit latency matrix.
    ///
    /// # Panics
    ///
    /// Panics if `parties.len() != config.n` or `links.n() != config.n`, or
    /// if `MPC_TICK_US` / `MPC_WEDGE_MS` is set but not a positive integer.
    pub fn with_links(
        config: NetConfig,
        corruption: CorruptionSet,
        links: LinkDelays,
        parties: Vec<Box<dyn Protocol<M>>>,
    ) -> Self {
        assert_eq!(
            parties.len(),
            config.n,
            "need exactly one root protocol per party"
        );
        assert_eq!(links.n(), config.n, "latency matrix size must match n");
        let mut metrics = Metrics::new();
        // One OS thread per party — the honest analogue of the simulator's
        // worker-thread knob.
        metrics.worker_threads = config.n as u64;
        WallNet {
            tick_us: knobs::parsed::<NonZeroU64>("MPC_TICK_US", "a positive microsecond count")
                .map_or(1000, NonZeroU64::get),
            wedge_ms: knobs::parsed::<NonZeroU64>("MPC_WEDGE_MS", "a positive millisecond count")
                .map_or(default_wedge_timeout().as_millis() as u64, NonZeroU64::get),
            config,
            corruption,
            structure: None,
            links,
            faults: FaultPlan::none(),
            medium: K::default(),
            parties: parties.into_iter().map(Some).collect(),
            strategy: None,
            record: false,
            transcript: Vec::new(),
            metrics,
            now: 0,
            ran: false,
            last_error: None,
        }
    }

    /// Overrides the real duration of one logical tick (microseconds; `0`
    /// keeps the `MPC_TICK_US` / 1000 µs default). Call before running.
    pub fn with_tick_micros(mut self, micros: u64) -> Self {
        if micros > 0 {
            self.tick_us = micros;
        }
        self
    }

    /// Overrides the conservative gate's zero-progress grace (milliseconds;
    /// `0` keeps the `MPC_WEDGE_MS` / 30 s default). Call before running. A
    /// gate that waits this long without any progress on a lagging link
    /// counts a wedge in [`Metrics::wedges`] and surfaces
    /// [`TransportError::Wedged`] through [`Transport::last_error`] instead
    /// of silently stalling.
    pub fn with_wedge_millis(mut self, millis: u64) -> Self {
        if millis > 0 {
            self.wedge_ms = millis;
        }
        self
    }

    /// Installs an injected [`FaultPlan`] applied on top of the link-latency
    /// matrix (default: the empty plan). Call before running — the same plan
    /// yields the same per-message decisions on the simulator.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The injected fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Downcasts party `i`'s root protocol to a concrete type for inspecting
    /// outputs after the run.
    pub fn party_as<T: 'static>(&self, i: PartyId) -> Option<&T> {
        PartyView::party(self, i).as_any().downcast_ref::<T>()
    }

    /// Wires the medium, spawns the party threads, runs to quiescence (no
    /// held packet, no pending timer, nothing in flight at any party,
    /// bounded by `horizon` logical ticks and a hard wall-clock cap), joins,
    /// and folds the per-party and medium accounting. Subsequent calls are
    /// no-ops — a quiesced run has nothing left to resume.
    pub fn run_net_to_quiescence(&mut self, horizon: Time) {
        if self.ran {
            return;
        }
        self.ran = true;
        let n = self.config.n;
        let tick_us = self.tick_us.max(1);
        // Absorbs scheduling jitter between a sender's batch and the
        // receivers' tick deadlines without eating a whole tick.
        let guard = Duration::from_micros((tick_us / 4).max(50));
        let record = self.record;
        let horizon_cap = Duration::from_micros(tick_us.saturating_mul(horizon.saturating_add(16)))
            + K::CAP_SLACK;
        let shared = Shared {
            in_flight: AtomicI64::new(0),
            idle: (0..n).map(|_| AtomicBool::new(false)).collect(),
            activity: AtomicU64::new(0),
        };
        let adv = Mutex::new(AdvState {
            strategy: self.strategy.take().unwrap_or_else(|| Box::new(Passive)),
            rng: StdRng::seed_from_u64(self.config.adversary_seed()),
        });
        let barrier = Barrier::new(n);
        let epoch: OnceLock<Instant> = OnceLock::new();
        // Party inboxes; the coordinator keeps the senders for Stop.
        let mut inboxes: Vec<Sender<Inbound>> = Vec::with_capacity(n);
        let mut rxs: Vec<Receiver<Inbound>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            inboxes.push(tx);
            rxs.push(rx);
        }
        let protocols: Vec<Box<dyn Protocol<M>>> = self
            .parties
            .iter_mut()
            .map(|slot| slot.take().expect("party state present outside a run"))
            .collect();
        let medium = &self.medium;
        let links = &self.links;
        let faults = &self.faults;
        let corruption = &self.corruption;
        let config = &self.config;
        let wedge_timeout = Duration::from_millis(self.wedge_ms.max(1));
        let results: Vec<PartyDone<M>> = std::thread::scope(|scope| {
            let shared = &shared;
            let adv = &adv;
            let barrier = &barrier;
            let epoch = &epoch;
            let outbound = medium.connect(scope, config, tick_us, &inboxes);
            let handles: Vec<_> = protocols
                .into_iter()
                .zip(rxs)
                .zip(outbound)
                .enumerate()
                .map(|(i, ((protocol, rx), txs))| {
                    let rng = StdRng::seed_from_u64(config.party_rng_seed(i));
                    let honest = corruption.is_honest(i);
                    let (delta, coin_seed) = (config.delta, config.coin_seed());
                    scope.spawn(move || {
                        let runtime = PartyRuntime {
                            me: i,
                            n,
                            delta,
                            coin_seed,
                            horizon,
                            record,
                            honest,
                            tick_us,
                            guard,
                            start: Instant::now(), // re-stamped after the barrier
                            links,
                            faults,
                            protocol,
                            rng,
                            rx,
                            txs,
                            shared,
                            adv,
                            held: BinaryHeap::new(),
                            timers: BinaryHeap::new(),
                            tseq: 0,
                            metrics: Metrics::new(),
                            transcript: Vec::new(),
                            next_unprocessed: 0,
                            last_tick: 0,
                            processed_any: false,
                            order_tick: 0,
                            order_counter: 0,
                            stopping: false,
                            // Initial link clocks: every peer starts at tick
                            // 0, so nothing can arrive on a link before its
                            // delay (init-time sends land exactly there).
                            chan_floor: (0..n)
                                .map(|s| if s == i { Time::MAX } else { links.get(s, i) })
                                .collect(),
                            promised: 0,
                            wedge_timeout,
                            wedged: None,
                        };
                        runtime.run(barrier, epoch)
                    })
                })
                .collect();
            // Coordinator: poll for quiescence (packets in transit on the
            // medium keep `in_flight` claimed, so the scan is sound across
            // it), then broadcast Stop.
            let poll = Duration::from_micros((tick_us / 2).clamp(100, 2000));
            let wall_start = Instant::now();
            loop {
                std::thread::sleep(poll);
                let a1 = shared.activity.load(Ordering::SeqCst);
                let quiet = shared.in_flight.load(Ordering::SeqCst) == 0
                    && shared.idle.iter().all(|f| f.load(Ordering::SeqCst));
                let a2 = shared.activity.load(Ordering::SeqCst);
                if (quiet && a1 == a2) || wall_start.elapsed() > horizon_cap {
                    break;
                }
            }
            for tx in &inboxes {
                let _ = tx.send(Inbound::Stop);
            }
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("party thread panicked"))
                .collect();
            medium.close();
            results
        });
        let mut merged = Metrics::new();
        merged.worker_threads = n as u64;
        let mut now = 0;
        let mut transcript: Vec<TranscriptEntry> = Vec::new();
        for done in results {
            self.parties[done.party] = Some(done.protocol);
            merged.merge(&done.metrics);
            if done.processed_any {
                now = now.max(done.last_tick);
            }
            if self.last_error.is_none() {
                if let Some((party, last_progress_tick)) = done.wedged {
                    self.last_error = Some(TransportError::Wedged {
                        party,
                        last_progress_tick,
                    });
                }
            }
            transcript.extend(done.transcript);
        }
        self.medium.fold(&mut merged);
        // Stable by-tick sort over the party-ascending concatenation: each
        // party's subsequence is exactly its processing order.
        transcript.sort_by_key(|e| e.at);
        self.metrics = merged;
        self.now = now;
        self.transcript = transcript;
        self.strategy = Some(adv.into_inner().expect("adversary state poisoned").strategy);
    }
}

impl<M: WireEncode + WireDecode + 'static, K: Medium> PartyView<M> for WallNet<M, K> {
    fn n(&self) -> usize {
        self.config.n
    }
    fn now(&self) -> Time {
        self.now
    }
    fn party(&self, i: PartyId) -> &dyn Protocol<M> {
        self.parties[i]
            .as_deref()
            .expect("party state present outside a run")
    }
}

impl<M: WireEncode + WireDecode + 'static, K: Medium> Transport<M> for WallNet<M, K> {
    fn backend(&self) -> Backend {
        K::BACKEND
    }
    fn set_strategy(&mut self, strategy: Box<dyn ByzantineStrategy>) {
        self.strategy = Some(strategy);
    }
    fn record_transcript(&mut self) {
        self.record = true;
    }
    fn transcript(&self) -> &[TranscriptEntry] {
        &self.transcript
    }
    fn run_until_done(
        &mut self,
        horizon: Time,
        pred: &mut dyn FnMut(&dyn PartyView<M>) -> bool,
    ) -> bool {
        self.run_net_to_quiescence(horizon);
        pred(self)
    }
    fn run_to_quiescence(&mut self, horizon: Time) {
        self.run_net_to_quiescence(horizon);
    }
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
    fn corruption(&self) -> &CorruptionSet {
        &self.corruption
    }
    fn set_adversary_structure(&mut self, structure: Arc<dyn AdversaryStructure>) {
        self.structure = Some(structure);
    }
    fn adversary_structure(&self) -> Option<&Arc<dyn AdversaryStructure>> {
        self.structure.as_ref()
    }
    fn last_error(&self) -> Option<&TransportError> {
        self.last_error.as_ref()
    }
}

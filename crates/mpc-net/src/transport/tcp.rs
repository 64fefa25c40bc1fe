//! The TCP socket transport backend: the wall-clock runtime ([`WallNet`])
//! over the [`Sockets`] medium, which carries every inter-party link over a
//! *supervised* loopback `TcpStream`.
//!
//! # Execution model
//!
//! Party threads run the same runtime as the threaded backend — same
//! wall-clock tick pacing, same conservative link-clock gate, same batch
//! engines — so every conformance property the threaded backend inherits
//! from the simulator oracle carries over unchanged. Only the medium
//! differs: a party's outbound channel to peer `r` feeds a per-link
//! *supervisor* (an outbox thread owning one dialed socket), and inbound
//! packets arrive through a listener/reader pair that decodes the stream
//! incrementally and forwards into the party's local inbox.
//!
//! The supervisor absorbs real connection failure (see
//! [`super::supervisor`] for the stream protocol):
//!
//! * **Dial**: exponential backoff with deterministic jitter; failed
//!   attempts count [`crate::Metrics::dial_retries`].
//! * **Reconnect-with-replay**: every sequenced record stays in a bounded
//!   replay buffer until cumulatively acked; a torn connection is re-dialed
//!   ([`crate::Metrics::reconnects`]) and the unacked tail retransmitted in
//!   order ([`crate::Metrics::frames_replayed`]). Delivery is
//!   at-least-once; the receiver dedupes by link sequence — the stream
//!   ordinal of the canonical `(from, send_tick, order)` key — so the
//!   party-side held heap stays bit-identical to the simulator oracle.
//! * **Liveness**: an idle link re-announces its last promised floor as a
//!   probe record, piggybacking heartbeat on the Chandy–Misra null
//!   messages; a dead peer surfaces as a failed write or an ack-stream EOF.
//! * **Resync**: any undecodable bytes (torn or duplicated runs) poison the
//!   stream; the receiver abandons them ([`crate::Metrics::bytes_resynced`])
//!   and tears the connection down — the replay path restarts the stream at
//!   a record boundary.
//!
//! Because a lost packet is replayed rather than dropped, and because
//! link-clock floors queue *behind* it in the same FIFO stream, a
//! receiver's gate can never clear a tick that a lost-but-replayable packet
//! belongs to: connection failure is converted into bounded back-pressure
//! (at worst a wedge diagnosis), never into logical divergence.
//!
//! # Chaos shim
//!
//! [`TcpNet::set_chaos_plan`] installs a second [`FaultPlan`], interpreted
//! at the socket layer by `supervisor::chaos_action`: `Drop`
//! severs the connection mid-record, an extra delay stalls the write past
//! the wedge deadline, a duplicate writes a garbled byte run that forces a
//! resync. Chaos acts only on a record's first transmission — replays are
//! clean — so the logical schedule (and the guarantee matrix verdict) is
//! untouched; only the wall-clock path stretches.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::faults::FaultPlan;
use crate::knobs;
use crate::metrics::Metrics;
use crate::simulation::NetConfig;
use crate::transport::supervisor::{
    chaos_action, decode_handshake, encode_handshake, encode_record, Backoff, ChaosAction,
    LinkRecord, RecordDecoder, ReplayBuffer,
};
use crate::transport::wall::{sealed::Wiring, Inbound, Packet, WallNet};
use crate::transport::{Backend, PartyId, Time};

/// Supervisor counters shared by every link thread of one run, folded into
/// the merged [`Metrics`] afterwards.
#[derive(Default)]
struct SupStats {
    reconnects: AtomicU64,
    dial_retries: AtomicU64,
    frames_replayed: AtomicU64,
    bytes_resynced: AtomicU64,
}

/// One established connection, dialer side.
struct Conn {
    stream: TcpStream,
    /// Cumulative ack watermark, advanced by the detached ack-reader.
    acked: Arc<AtomicU64>,
    /// Set by the ack-reader when the peer closed or the ack stream broke.
    dead: Arc<AtomicBool>,
}

/// Static configuration of one directed link's supervisor.
struct LinkCtx<'a> {
    from: PartyId,
    to: PartyId,
    addr: SocketAddr,
    chaos: &'a FaultPlan,
    tick_us: u64,
    probe: Duration,
    replay_cap: usize,
    stats: &'a Arc<SupStats>,
    closing: &'a Arc<AtomicBool>,
    backoff_seed: u64,
}

fn io_severed() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionAborted, "chaos sever")
}

/// Writes one record under a chaos verdict. `Err` means the connection is
/// gone (really or by chaos) and must be re-established.
fn transmit(stream: &mut TcpStream, bytes: &[u8], act: ChaosAction) -> std::io::Result<()> {
    match act {
        ChaosAction::Clean => stream.write_all(bytes),
        ChaosAction::Stall { dur } => {
            std::thread::sleep(dur);
            stream.write_all(bytes)
        }
        ChaosAction::Sever { prefix } => {
            let _ = stream.write_all(&bytes[..prefix.min(bytes.len())]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Err(io_severed())
        }
        ChaosAction::DuplicateRun => {
            stream.write_all(bytes)?;
            let run = bytes.len().clamp(1, 24);
            let _ = stream.write_all(&bytes[..run]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Err(io_severed())
        }
    }
}

/// Dials until connected (or the run is closing), with deterministic
/// exponential backoff. Returns the connection with its ack-reader spawned.
fn establish(ctx: &LinkCtx<'_>, generation: u64) -> Option<Conn> {
    let mut backoff = Backoff::new(ctx.backoff_seed ^ generation.wrapping_mul(0x9E37));
    loop {
        if ctx.closing.load(Ordering::Relaxed) {
            return None;
        }
        if let Ok(mut stream) = TcpStream::connect(ctx.addr) {
            let _ = stream.set_nodelay(true);
            if stream
                .write_all(&encode_handshake(ctx.from, ctx.to))
                .is_ok()
            {
                let acked = Arc::new(AtomicU64::new(0));
                let dead = Arc::new(AtomicBool::new(false));
                // Without an ack stream the link still works — the replay
                // buffer just never trims until reconnect.
                if let Ok(clone) = stream.try_clone() {
                    let (acked2, dead2) = (acked.clone(), dead.clone());
                    let closing2 = ctx.closing.clone();
                    std::thread::spawn(move || ack_loop(clone, acked2, dead2, closing2));
                }
                return Some(Conn {
                    stream,
                    acked,
                    dead,
                });
            }
        }
        ctx.stats.dial_retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(backoff.next_delay());
    }
}

/// Dialer-side reader of the ack back-channel of one connection.
fn ack_loop(
    mut stream: TcpStream,
    acked: Arc<AtomicU64>,
    dead: Arc<AtomicBool>,
    closing: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut dec = RecordDecoder::new();
    let mut chunk = [0u8; 1024];
    loop {
        if closing.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                dec.extend(&chunk[..k]);
                loop {
                    match dec.next_record() {
                        Ok(Some(LinkRecord::Ack { next_seq })) => {
                            acked.fetch_max(next_seq, Ordering::Relaxed);
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => {
                            dead.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    dead.store(true, Ordering::Relaxed);
}

/// The per-link supervisor loop (outbox): owns the dialer side of one
/// directed link, converts [`Inbound`] values into stream records, and
/// survives connection loss by reconnect-with-replay.
fn outbox_loop(ctx: LinkCtx<'_>, rx: Receiver<Inbound>) {
    let mut buf = ReplayBuffer::new();
    let mut conn: Option<Conn> = None;
    let mut generation: u64 = 0;
    // Highest data sequence the chaos shim has already ruled on: replays
    // (seq ≤ this) are always written clean, guaranteeing progress.
    let mut chaos_done: Option<u64> = None;
    let mut last_floor: Time = 0;
    loop {
        if ctx.closing.load(Ordering::Relaxed) {
            if let Some(c) = conn.take() {
                let _ = c.stream.shutdown(Shutdown::Both);
            }
            return;
        }
        // (Re-)establish and replay the unacked tail in sequence order.
        if conn.is_none() {
            let Some(c) = establish(&ctx, generation) else {
                return; // closing
            };
            generation += 1;
            if generation > 1 {
                ctx.stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            conn = Some(c);
            let c = conn.as_mut().expect("just established");
            let mut replayed = 0u64;
            let mut ok = true;
            for (_, bytes) in buf.unacked() {
                if c.stream.write_all(bytes).is_err() {
                    ok = false;
                    break;
                }
                replayed += 1;
            }
            ctx.stats
                .frames_replayed
                .fetch_add(replayed, Ordering::Relaxed);
            if !ok {
                conn = None;
                continue;
            }
        }
        match rx.recv_timeout(ctx.probe) {
            Ok(Inbound::Packet(p)) => {
                let seq = buf.assign_seq();
                let rec = LinkRecord::Data {
                    seq,
                    send_tick: p.send_tick,
                    order: p.order,
                    deliver_tick: p.deliver_tick,
                    framed: p.framed,
                    payload: (*p.bytes).clone(),
                };
                let bytes = encode_record(&rec);
                // First transmission only: the shim never touches replays.
                let act = if chaos_done.is_none_or(|d| seq > d) {
                    chaos_done = Some(seq);
                    chaos_action(
                        ctx.chaos,
                        ctx.from,
                        ctx.to,
                        p.send_tick,
                        p.deliver_tick,
                        ctx.tick_us,
                        bytes.len(),
                    )
                } else {
                    ChaosAction::Clean
                };
                let c = conn.as_mut().expect("connected above");
                let res = transmit(&mut c.stream, &bytes, act);
                buf.push(seq, bytes);
                if res.is_err() {
                    conn = None;
                    continue;
                }
            }
            Ok(Inbound::Past { floor, .. }) => {
                let seq = buf.assign_seq();
                last_floor = last_floor.max(floor);
                let bytes = encode_record(&LinkRecord::Floor { seq, floor });
                let c = conn.as_mut().expect("connected above");
                let res = c.stream.write_all(&bytes);
                buf.push(seq, bytes);
                if res.is_err() {
                    conn = None;
                    continue;
                }
            }
            // Shutdown is an in-process control signal; it never crosses the
            // wire (and the coordinator only ever sends it to inboxes).
            Ok(Inbound::Stop) => {}
            Err(RecvTimeoutError::Timeout) => {
                let c = conn.as_mut().expect("connected above");
                if c.dead.load(Ordering::Relaxed) {
                    conn = None;
                    continue;
                }
                // Idle heartbeat: re-announce the latest promised floor (a
                // receiver-side no-op — floors are max-monotonic) purely so
                // a dead peer shows up as a failed write.
                let probe = encode_record(&LinkRecord::Probe { floor: last_floor });
                if c.stream.write_all(&probe).is_err() {
                    conn = None;
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The party thread is gone and the queue fully drained:
                // quiescence guarantees nothing here is still undelivered.
                if let Some(c) = conn.take() {
                    let _ = c.stream.shutdown(Shutdown::Both);
                }
                return;
            }
        }
        // Trim by the cumulative ack; enforce the byte bound by bounded
        // back-pressure (never by dropping — that would break at-least-once
        // delivery).
        if let Some(c) = conn.as_ref() {
            buf.trim(c.acked.load(Ordering::Relaxed));
            let wait_start = Instant::now();
            while buf.bytes() > ctx.replay_cap
                && wait_start.elapsed() < Duration::from_millis(200)
                && !c.dead.load(Ordering::Relaxed)
                && !ctx.closing.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_micros(500));
                buf.trim(c.acked.load(Ordering::Relaxed));
            }
        }
    }
}

/// Reads exactly `buf.len()` bytes despite read timeouts; bails on EOF,
/// error, or the run closing.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], closing: &AtomicBool) -> bool {
    let mut got = 0;
    while got < buf.len() {
        if closing.load(Ordering::Relaxed) {
            return false;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return false,
            Ok(k) => got += k,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return false,
        }
    }
    true
}

/// Listener-side reader of one accepted connection: incremental decode,
/// sequence dedup, forward into the party inbox, cumulative acks back.
fn reader_loop(
    me: PartyId,
    n: usize,
    mut stream: TcpStream,
    inbox: Sender<Inbound>,
    ingress: Arc<Vec<Mutex<u64>>>,
    stats: Arc<SupStats>,
    closing: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut hs = [0u8; 12];
    if !read_full(&mut stream, &mut hs, &closing) {
        return;
    }
    let Some((from, to)) = decode_handshake(&hs) else {
        return;
    };
    if to != me || from >= n || from == me {
        return;
    }
    let expected = &ingress[from * n + me];
    let mut dec = RecordDecoder::new();
    let mut chunk = vec![0u8; 16 << 10];
    loop {
        if closing.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF mid-record: the truncated tail is abandoned — the
                // dialer replays the whole record on its next connection.
                let pending = dec.pending_bytes() as u64;
                if pending > 0 {
                    stats.bytes_resynced.fetch_add(pending, Ordering::Relaxed);
                }
                return;
            }
            Ok(k) => {
                dec.extend(&chunk[..k]);
                let mut progressed = false;
                let poisoned = loop {
                    match dec.next_record() {
                        Ok(Some(rec)) => {
                            if !deliver(rec, from, expected, &inbox, &mut progressed) {
                                break true;
                            }
                        }
                        Ok(None) => break false,
                        Err(_) => {
                            // Garbage has no in-band record boundary to skip
                            // to: abandon the buffered bytes and resync by
                            // teardown (the dialer reconnects and replays).
                            stats
                                .bytes_resynced
                                .fetch_add(dec.pending_bytes() as u64, Ordering::Relaxed);
                            break true;
                        }
                    }
                };
                if poisoned {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                if progressed {
                    let next_seq = *expected.lock().expect("ingress slot poisoned");
                    let ack = encode_record(&LinkRecord::Ack { next_seq });
                    if stream.write_all(&ack).is_err() {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// Applies one decoded record at the receiver. Returns `false` if the
/// stream must be torn down (sequence gap or a record that does not belong
/// on this direction).
fn deliver(
    rec: LinkRecord,
    from: PartyId,
    expected: &Mutex<u64>,
    inbox: &Sender<Inbound>,
    progressed: &mut bool,
) -> bool {
    let (seq, inbound) = match rec {
        LinkRecord::Data {
            seq,
            send_tick,
            order,
            deliver_tick,
            framed,
            payload,
        } => (
            seq,
            Inbound::Packet(Packet {
                from,
                send_tick,
                order,
                deliver_tick,
                framed,
                bytes: Arc::new(payload),
            }),
        ),
        LinkRecord::Floor { seq, floor } => (seq, Inbound::Past { from, floor }),
        LinkRecord::Probe { floor } => {
            // Unsequenced liveness: floors are max-monotonic, re-delivery
            // is harmless. A send error just means the party already left.
            let _ = inbox.send(Inbound::Past { from, floor });
            return true;
        }
        // Acks flow receiver → dialer; one on this direction means the
        // stream is scrambled.
        LinkRecord::Ack { .. } => return false,
    };
    // Check-and-forward under the link lock: replay duplicates from an old
    // and a new connection of the same link may race here, and exactly one
    // copy may cross into the inbox (a double delivery would corrupt the
    // in-flight accounting and the held heap).
    let mut exp = expected.lock().expect("ingress slot poisoned");
    if seq < *exp {
        return true; // replay duplicate — already delivered
    }
    if seq > *exp {
        return false; // gap: impossible on a clean stream, resync
    }
    *exp += 1;
    let _ = inbox.send(inbound);
    *progressed = true;
    true
}

/// Accept loop of one party's listener: polls non-blockingly (so shutdown
/// needs no wake-up connection) and spawns a detached reader per accepted
/// connection.
fn acceptor_loop(
    me: PartyId,
    n: usize,
    listener: TcpListener,
    inbox: Sender<Inbound>,
    ingress: Arc<Vec<Mutex<u64>>>,
    stats: Arc<SupStats>,
    closing: Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    loop {
        if closing.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let (inbox, ingress) = (inbox.clone(), ingress.clone());
                let (stats, closing) = (stats.clone(), closing.clone());
                std::thread::spawn(move || {
                    reader_loop(me, n, stream, inbox, ingress, stats, closing)
                });
            }
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

/// The supervised-socket medium: the tcp-only settings plus the state its
/// supervisor threads share. Every directed link gets a supervisor (outbox)
/// thread dialing the receiver's loopback listener; every party gets an
/// acceptor spawning one reader per accepted connection.
pub struct Sockets {
    /// The socket-level chaos plan (see [`TcpNet::set_chaos_plan`]).
    chaos: FaultPlan,
    /// Replay-buffer byte bound per link.
    replay_cap: usize,
    /// Idle-link probe interval.
    probe: Duration,
    stats: Arc<SupStats>,
    /// Set once the party threads have joined: releases acceptors, stuck
    /// dials and any outbox still waiting on a timeout.
    closing: Arc<AtomicBool>,
}

impl Default for Sockets {
    /// No chaos; `MPC_TCP_REPLAY_CAP` (default 8 MiB) and
    /// `MPC_TCP_PROBE_MS` (default 25 ms).
    ///
    /// # Panics
    ///
    /// Panics if either knob is set but not a positive integer.
    fn default() -> Self {
        Sockets {
            chaos: FaultPlan::none(),
            replay_cap: knobs::parsed::<NonZeroUsize>(
                "MPC_TCP_REPLAY_CAP",
                "a positive byte count",
            )
            .map_or(8 << 20, NonZeroUsize::get),
            probe: Duration::from_millis(
                knobs::parsed::<NonZeroU64>("MPC_TCP_PROBE_MS", "a positive millisecond count")
                    .map_or(25, NonZeroU64::get),
            ),
            stats: Arc::default(),
            closing: Arc::default(),
        }
    }
}

impl Wiring for Sockets {
    const BACKEND: Backend = Backend::Tcp;
    // More generous than the threaded cap: reconnect cycles and stalled
    // writes legitimately stretch a chaotic run's wall clock.
    const CAP_SLACK: Duration = Duration::from_secs(5);

    /// Binds the listeners, then spawns the acceptors and the link
    /// supervisors; party `i`'s sender to `r` feeds link `(i, r)`'s outbox.
    fn connect<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        config: &NetConfig,
        tick_us: u64,
        inboxes: &[Sender<Inbound>],
    ) -> Vec<Vec<Sender<Inbound>>> {
        let n = inboxes.len();
        // Listeners first: every dial target exists before any outbox dials.
        let mut addrs = Vec::with_capacity(n);
        let ingress: Arc<Vec<Mutex<u64>>> = Arc::new((0..n * n).map(|_| Mutex::new(0)).collect());
        for (i, inbox) in inboxes.iter().enumerate() {
            let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
            addrs.push(listener.local_addr().expect("listener addr"));
            let inbox = inbox.clone();
            let (ingress, stats, closing) =
                (ingress.clone(), self.stats.clone(), self.closing.clone());
            scope.spawn(move || acceptor_loop(i, n, listener, inbox, ingress, stats, closing));
        }
        let seed = config.seed;
        (0..n)
            .map(|from| {
                (0..n)
                    .map(|to| {
                        if to == from {
                            return inboxes[from].clone();
                        }
                        let (tx, rx) = mpsc::channel::<Inbound>();
                        let ctx = LinkCtx {
                            from,
                            to,
                            addr: addrs[to],
                            chaos: &self.chaos,
                            tick_us,
                            probe: self.probe,
                            replay_cap: self.replay_cap,
                            stats: &self.stats,
                            closing: &self.closing,
                            backoff_seed: seed
                                .wrapping_mul(0x0100_0000_01b3)
                                .wrapping_add((from * n + to) as u64),
                        };
                        scope.spawn(move || outbox_loop(ctx, rx));
                        tx
                    })
                    .collect()
            })
            .collect()
    }

    fn close(&self) {
        // Parties are gone (their link senders dropped, so outboxes drain
        // and exit); the flag releases everything else.
        self.closing.store(true, Ordering::SeqCst);
    }

    fn fold(&self, merged: &mut Metrics) {
        merged.reconnects = self.stats.reconnects.load(Ordering::Relaxed);
        merged.dial_retries = self.stats.dial_retries.load(Ordering::Relaxed);
        merged.frames_replayed = self.stats.frames_replayed.load(Ordering::Relaxed);
        merged.bytes_resynced = self.stats.bytes_resynced.load(Ordering::Relaxed);
    }
}

/// The socket transport: the third [`crate::transport::Transport`] backend
/// ([`Backend::Tcp`]). Constructed like
/// [`super::threaded::ThreadedNet`] (same conformance contract against the
/// simulator oracle); optionally install a socket-level chaos plan, then
/// drive it through the trait.
pub type TcpNet<M> = WallNet<M, Sockets>;

impl<M> WallNet<M, Sockets> {
    /// Overrides the replay-buffer byte bound (`0` keeps the
    /// `MPC_TCP_REPLAY_CAP` / 8 MiB default).
    pub fn with_replay_cap(mut self, bytes: usize) -> Self {
        if bytes > 0 {
            self.medium.replay_cap = bytes;
        }
        self
    }

    /// Installs the *socket-level* chaos plan interpreted by the supervisor
    /// shim (sever / stall / duplicate byte runs). Independent of
    /// [`WallNet::set_fault_plan`] — the logical plan decides what is
    /// dropped, the chaos plan only how rough the wire is.
    pub fn set_chaos_plan(&mut self, plan: FaultPlan) {
        self.medium.chaos = plan;
    }

    /// The installed chaos plan.
    pub fn chaos_plan(&self) -> &FaultPlan {
        &self.medium.chaos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_have_sane_defaults() {
        let sockets = Sockets::default();
        if std::env::var_os("MPC_TCP_REPLAY_CAP").is_none() {
            assert_eq!(sockets.replay_cap, 8 << 20);
        }
        if std::env::var_os("MPC_TCP_PROBE_MS").is_none() {
            assert_eq!(sockets.probe, Duration::from_millis(25));
        }
    }
}

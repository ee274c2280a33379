//! Streams: asynchronous element flows with attached operators.
//!
//! Mirrors the paper's library surface:
//!
//! | paper                   | here                         |
//! |-------------------------|------------------------------|
//! | `MPIStream_Attach`      | [`Stream::attach`]           |
//! | `MPIStream_Isend`       | [`Stream::isend`]            |
//! | `MPIStream_Operate`     | [`Stream::operate`]          |
//! | `MPIStream_Terminate`   | [`Stream::terminate`]        |
//! | `MPIStream_FreeChannel` | dropping the [`Stream`]      |
//!
//! Consumers process elements **first-come-first-served** across all
//! producers (`AnySource` matching on availability time), which is the
//! mechanism that absorbs producer imbalance: a late producer never stalls
//! the consumer as long as any other producer has data in flight.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::channel::{RoutePolicy, StreamChannel};
use crate::group::Role;
use crate::transport::{MsgInfo, SimDuration, SimTime, Src, Transport};
use crate::wire::{Wire, WireError};

/// Wire format of one stream message: the enum that actually crosses the
/// transport, with a defined [`Wire`] encoding (discriminant byte `0` for
/// `Data`, `1` for `Term`) so the same stream runs over a socket link.
/// Public so replication drivers (`crates/replica`) can speak the same
/// wire protocol from their own send/receive loops.
pub enum StreamMsg<T> {
    /// A batch of `aggregation`-coalesced elements.
    Data(Vec<T>),
    /// End of this producer's flow; carries the total elements it sent to
    /// this consumer (conservation checking).
    Term {
        /// Total elements this producer sent to this consumer.
        sent: u64,
    },
    /// Epoch marker (discriminant `2`), sent only by *replicated*
    /// producers when they start replaying to a new primary: everything
    /// this producer sent on the data tag before the marker belongs to
    /// an earlier reign and must not fold. Unreplicated channels never
    /// send it, so their wire traffic stays byte-identical.
    Mark(u64),
}

impl<T: Wire> Wire for StreamMsg<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StreamMsg::Data(batch) => {
                out.push(0);
                batch.encode(out);
            }
            StreamMsg::Term { sent } => {
                out.push(1);
                sent.encode(out);
            }
            StreamMsg::Mark(mark) => {
                out.push(2);
                mark.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(StreamMsg::Data(Vec::decode(input)?)),
            1 => Ok(StreamMsg::Term { sent: u64::decode(input)? }),
            2 => Ok(StreamMsg::Mark(u64::decode(input)?)),
            got => Err(WireError::BadDiscriminant { got }),
        }
    }
}

/// Producer- and consumer-side statistics of one stream endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Elements pushed by this producer / processed by this consumer.
    pub elements: u64,
    /// Wire messages sent / received (data messages only).
    pub batches: u64,
    /// Modelled payload bytes moved.
    pub bytes: u64,
    /// Elements abandoned producer-side because no live consumer could
    /// accept them (their consumer was declared dead and the route policy
    /// admits no alternative). Always `0` on fault-free runs.
    pub lost: u64,
}

/// Terminal state of one producer as seen by a consumer endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProducerState {
    /// The producer closed its flow cleanly with a `Term` marker.
    Terminated,
    /// The producer went silent past the channel's `failure_timeout` and
    /// was declared dead by the consumer's failure detector.
    Dead,
}

/// Per-producer accounting inside a [`StreamOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProducerReport {
    /// World rank of the producer.
    pub rank: usize,
    /// Elements from this producer this consumer endpoint has taken: its
    /// cursor, so elements a step before the drain took count too.
    pub delivered: u64,
    /// Elements the producer claims to have sent us (the `Term` payload);
    /// `None` when it died before terminating, so its claim is unknown.
    pub claimed: Option<u64>,
    /// How this producer's flow ended.
    pub state: ProducerState,
}

impl ProducerReport {
    /// Elements known to be lost from this producer: claimed by its `Term`
    /// but never delivered (link drops). `0` when the producer died without
    /// terminating — its claim is unknown, not zero.
    pub fn lost(&self) -> u64 {
        self.claimed.map_or(0, |c| c.saturating_sub(self.delivered))
    }
}

/// Result of a fault-tolerant drain ([`Stream::operate_outcome`]): how many
/// elements were processed and what became of each producer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Elements this drain handed to its operator, over all producers.
    pub processed: u64,
    /// One report per producer, in channel (sorted world-rank) order.
    pub producers: Vec<ProducerReport>,
}

impl StreamOutcome {
    /// Whether every producer closed cleanly and every claimed element was
    /// delivered — i.e. the run was indistinguishable from fault-free.
    pub fn complete(&self) -> bool {
        self.producers.iter().all(|p| p.state == ProducerState::Terminated && p.lost() == 0)
    }

    /// World ranks of the producers declared dead.
    pub fn dead(&self) -> Vec<usize> {
        self.producers.iter().filter(|p| p.state == ProducerState::Dead).map(|p| p.rank).collect()
    }

    /// Total elements known lost (claimed by a `Term` but not delivered).
    pub fn lost(&self) -> u64 {
        self.producers.iter().map(|p| p.lost()).sum()
    }
}

/// One endpoint of a stream over a [`StreamChannel`].
///
/// Producer endpoints push with [`Stream::isend`] and close with
/// [`Stream::terminate`]; consumer endpoints drain with
/// [`Stream::operate`] (or step with [`Stream::try_step`]).
pub struct Stream<T> {
    channel: StreamChannel,
    // --- producer state ---
    /// Pending (not yet flushed) elements per consumer index.
    agg: Vec<Vec<T>>,
    rr_next: usize,
    /// Outstanding (unacknowledged) elements per consumer index, for
    /// credit-based flow control.
    outstanding: Vec<u64>,
    /// Elements sent per consumer index (for Term accounting).
    sent_per_consumer: Vec<u64>,
    /// Consumer indices this producer declared dead (credit silence past
    /// the channel's `failure_timeout`).
    dead_consumers: Vec<bool>,
    terminated: bool,
    /// Producer-side statistics; a consumer endpoint keeps its own in `rx`.
    stats: StreamStats,
    // --- consumer state ---
    /// Elements received but not yet handed out by [`Stream::recv_one`].
    pending: VecDeque<T>,
    /// Everything else a consumer endpoint knows (see [`ConsumerCore`]).
    rx: ConsumerCore,
}

/// What one [`Stream::step_deadline`] call (or any single receive of a
/// consumer endpoint) consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepEvent {
    /// World rank of the producer whose message was dispatched.
    pub src: usize,
    /// Elements handed to the operator (0 for a `Term`).
    pub elems: u64,
    /// Whether the message was the producer's termination marker.
    pub term: bool,
}

/// A replicated consumer's durable per-channel state: the element cursor
/// per producer, terminated producers' claims, and the endpoint's
/// statistics. Serialized with the [`Wire`] codec and shipped inside VSR
/// prepare messages (`crates/replica`); a standby that takes over restores
/// it with [`Stream::restore_consumer`] and resumes from the exact cursor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsumerCheckpoint {
    /// `(producer world rank, elements delivered)` — sorted by rank for a
    /// canonical encoding.
    pub cursors: Vec<(u64, u64)>,
    /// `(producer world rank, claimed total)` for producers whose `Term`
    /// arrived — also sorted by rank.
    pub claims: Vec<(u64, u64)>,
    /// Consumer-side [`StreamStats`] mirror (elements, batches, bytes).
    pub elements: u64,
    /// Data messages received.
    pub batches: u64,
    /// Payload bytes received.
    pub bytes: u64,
}

crate::wire_struct!(ConsumerCheckpoint { cursors, claims, elements, batches, bytes });

impl<T: Wire + Send + 'static> Stream<T> {
    /// Attach a stream endpoint to `channel` (the element type `T` plays
    /// the role of the MPI derived datatype).
    pub fn attach(channel: StreamChannel) -> Stream<T> {
        let nc = channel.consumers.len();
        // Aggregation buffers are allocated at full batch capacity once
        // and swapped for an equally-sized buffer on every flush, so the
        // element push path never grows a Vec (see `flush_one`).
        let cap = channel.config.aggregation;
        Stream {
            agg: (0..nc).map(|_| Vec::with_capacity(cap)).collect(),
            rr_next: 0,
            outstanding: vec![0; nc],
            sent_per_consumer: vec![0; nc],
            dead_consumers: vec![false; nc],
            terminated: false,
            stats: StreamStats::default(),
            pending: VecDeque::new(),
            rx: ConsumerCore::new(
                channel.producers.len(),
                channel.config.credits.map(|_| channel.config.credit_batch as u64),
            ),
            channel,
        }
    }

    /// The underlying channel.
    pub fn channel(&self) -> &StreamChannel {
        &self.channel
    }

    /// Endpoint statistics so far.
    pub fn stats(&self) -> StreamStats {
        match self.channel.my_role {
            Role::Consumer => self.rx.stats,
            _ => self.stats,
        }
    }

    fn my_producer_index<TP: Transport>(&self, rank: &TP) -> usize {
        self.channel
            .producers
            .iter()
            .position(|&w| w == rank.world_rank())
            .expect("this rank is not a producer on the channel")
    }

    fn default_consumer_index<TP: Transport>(&mut self, rank: &TP) -> usize {
        match self.channel.config.route {
            RoutePolicy::Static => self.my_producer_index(rank) % self.channel.consumers.len(),
            RoutePolicy::RoundRobin => {
                let i = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.channel.consumers.len();
                i
            }
        }
    }

    // ------------------------------------------------------------------
    // Producer side
    // ------------------------------------------------------------------

    /// Inject one element into the stream (`MPIStream_Isend`): route it to
    /// a consumer per the channel policy, coalescing `aggregation`
    /// elements per wire message. Asynchronous — blocks only when the
    /// credit window is exhausted.
    pub fn isend<TP: Transport>(&mut self, rank: &mut TP, elem: T) {
        assert_eq!(self.channel.my_role, Role::Producer, "isend on a non-producer endpoint");
        let c = self.default_consumer_index(rank);
        self.isend_to(rank, c, elem);
    }

    /// Inject one element routed by `key` (hash-partitioned streams, e.g.
    /// word-histogram keys).
    pub fn isend_keyed<TP: Transport>(&mut self, rank: &mut TP, key: u64, elem: T) {
        let c = (mix64(key) % self.channel.consumers.len() as u64) as usize;
        self.isend_to(rank, c, elem);
    }

    /// Inject one element to an explicit consumer index (application-
    /// specific routing, e.g. "the consumer responsible for my subdomain").
    pub fn isend_to<TP: Transport>(&mut self, rank: &mut TP, consumer: usize, elem: T) {
        assert!(!self.terminated, "isend after terminate");
        assert_eq!(self.channel.my_role, Role::Producer, "isend on a non-producer endpoint");
        self.agg[consumer].push(elem);
        if self.agg[consumer].len() >= self.channel.config.aggregation {
            self.flush_one(rank, consumer);
        }
    }

    /// Flush any partially filled aggregation buffers.
    pub fn flush<TP: Transport>(&mut self, rank: &mut TP) {
        for c in 0..self.channel.consumers.len() {
            if !self.agg[c].is_empty() {
                self.flush_one(rank, c);
            }
        }
    }

    fn flush_one<TP: Transport>(&mut self, rank: &mut TP, consumer: usize) {
        // The outgoing batch keeps its allocation (it travels to the
        // consumer inside the wire message); the slot gets a fresh
        // full-capacity buffer so subsequent pushes never reallocate.
        let cap = self.channel.config.aggregation;
        let batch = std::mem::replace(&mut self.agg[consumer], Vec::with_capacity(cap));
        debug_assert!(!batch.is_empty());
        self.send_batch(rank, consumer, batch);
    }

    /// Deliver one batch to `consumer`, re-routing it if the consumer is —
    /// or is discovered mid-wait to be — dead. [`RoutePolicy::RoundRobin`]
    /// re-routes to the next live consumer; under [`RoutePolicy::Static`]
    /// (and keyed routing) elements are pinned to their consumer, so they
    /// are dropped and counted in [`StreamStats::lost`].
    fn send_batch<TP: Transport>(&mut self, rank: &mut TP, mut consumer: usize, batch: Vec<T>) {
        let n = batch.len() as u64;
        loop {
            if self.dead_consumers[consumer] {
                match self.reroute_from(consumer) {
                    Some(c) => consumer = c,
                    None => {
                        self.stats.lost += n;
                        return;
                    }
                }
            }
            // Credit window: block until the consumer has drained enough —
            // or, with a failure timeout, until it is declared dead.
            if let Some(window) = self.channel.config.credits {
                let mut died = false;
                while self.outstanding[consumer] + n > window as u64 {
                    if !self.absorb_credit(rank, consumer) {
                        self.declare_consumer_dead(consumer);
                        died = true;
                        break;
                    }
                }
                if died {
                    continue;
                }
            }
            let bytes = n * self.channel.config.element_bytes;
            let dst = self.channel.consumers[consumer];
            let tag = self.channel.data_tag();
            // Report to the sanitizer *before* injecting: on a threaded
            // backend the consumer can observe the message (and ack it)
            // the instant `send` returns, so a post-send report would
            // race any cross-rank ledger built on these hooks.
            rank.check_data_sent(self.channel.id, dst, n);
            rank.send(dst, tag, bytes, StreamMsg::Data(batch));
            self.outstanding[consumer] += n;
            rank.prof_stream_send(self.channel.id, n, bytes);
            if let Some(window) = self.channel.config.credits {
                rank.prof_credit_occupancy(
                    self.channel.id,
                    self.outstanding[consumer],
                    window as u64,
                );
            }
            self.sent_per_consumer[consumer] += n;
            self.stats.elements += n;
            self.stats.batches += 1;
            self.stats.bytes += bytes;
            return;
        }
    }

    /// The consumer index that takes over from dead `consumer`, if the
    /// route policy admits one.
    fn reroute_from(&self, consumer: usize) -> Option<usize> {
        match self.channel.config.route {
            RoutePolicy::RoundRobin => {
                let nc = self.channel.consumers.len();
                (1..nc).map(|d| (consumer + d) % nc).find(|&c| !self.dead_consumers[c])
            }
            RoutePolicy::Static => None,
        }
    }

    /// Failure-detection verdict on a consumer: stop waiting on it and
    /// reclaim its credit window so no later send can block on it either.
    fn declare_consumer_dead(&mut self, consumer: usize) {
        self.dead_consumers[consumer] = true;
        self.outstanding[consumer] = 0;
    }

    /// Blockingly consume one credit message for `consumer`. With a
    /// `failure_timeout` configured the wait is bounded: `false` means the
    /// consumer stayed silent past the timeout.
    fn absorb_credit<TP: Transport>(&mut self, rank: &mut TP, consumer: usize) -> bool {
        let src = self.channel.consumers[consumer];
        let tag = self.channel.credit_tag();
        let acked = match self.channel.config.failure_timeout {
            None => rank.recv::<u64>(Src::Rank(src), tag).0,
            Some(t) => {
                let deadline = rank.now() + t;
                match rank.recv_deadline::<u64>(Src::Rank(src), tag, deadline) {
                    Some((acked, _)) => acked,
                    None => return false,
                }
            }
        };
        self.outstanding[consumer] = self.outstanding[consumer].saturating_sub(acked);
        true
    }

    /// Opportunistically drain any credits that have already arrived
    /// (keeps the window loose without blocking).
    fn drain_credits<TP: Transport>(&mut self, rank: &mut TP) {
        if self.channel.config.credits.is_none() {
            return;
        }
        let tag = self.channel.credit_tag();
        while let Some((acked, info)) = rank.try_recv::<u64>(Src::Any, tag) {
            let c = self
                .channel
                .consumers
                .iter()
                .position(|&w| w == info.src)
                .expect("credit from a consumer");
            self.outstanding[c] = self.outstanding[c].saturating_sub(acked);
        }
    }

    /// Close this producer's flow (`MPIStream_Terminate`): flush all
    /// buffers and notify every consumer.
    pub fn terminate<TP: Transport>(&mut self, rank: &mut TP) {
        assert_eq!(self.channel.my_role, Role::Producer, "terminate on a non-producer endpoint");
        if self.terminated {
            return;
        }
        self.flush(rank);
        let tag = self.channel.data_tag();
        for (c, &dst) in self.channel.consumers.clone().iter().enumerate() {
            // A consumer declared dead gets no Term: its traffic was
            // re-routed (or dropped) and nobody is listening there.
            if self.dead_consumers[c] {
                continue;
            }
            let sent = self.sent_per_consumer[c];
            rank.send(dst, tag, 16, StreamMsg::<T>::Term { sent });
        }
        // Drain remaining credit messages so they do not linger as
        // unconsumed traffic (and so outstanding counts settle for tests).
        self.drain_credits(rank);
        self.terminated = true;
    }

    /// Whether this producer endpoint has terminated.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    // ------------------------------------------------------------------
    // Consumer side: thin drivers over the sans-io `ConsumerCore`. They
    // differ only in how they receive (blocking, try, deadline), when
    // the operator runs, and whether the failure detector is armed.
    // ------------------------------------------------------------------

    /// Gate (or un-gate) credit acknowledgements. While held, every credit
    /// this endpoint would grant is parked in the pending ledger instead of
    /// being sent; [`Stream::release_credits`] flushes the ledger. The
    /// commit-before-credit-return handshake of replicated consumers
    /// (`crates/replica`) — a credit there asserts the acknowledged
    /// elements are durably replicated, so it may only leave after the
    /// covering checkpoint commits.
    pub fn hold_credits(&mut self, hold: bool) {
        self.rx.gate_credits = hold;
    }

    /// Flush every parked credit acknowledgement, regardless of the
    /// `credit_batch` threshold. A no-op on channels without credits.
    pub fn release_credits<TP: Transport>(&mut self, rank: &mut TP) {
        for (src, acked) in self.rx.take_credits() {
            self.send_credit(rank, src, acked);
        }
    }

    /// Drain the parked credit ledger without sending anything: the
    /// replicated driver's alternative to [`Stream::release_credits`],
    /// used to wrap each acknowledgement in a view-stamped envelope
    /// before it leaves (`crates/replica`). Returns `(producer world
    /// rank, elements)` pairs, sorted by rank for a deterministic send
    /// order; empty on channels without credits. The caller must report
    /// each pair via `Transport::check_credit_issued` when it sends.
    pub fn take_pending_credits(&mut self) -> Vec<(usize, u64)> {
        self.rx.take_credits()
    }

    /// Apply `op` to every arriving element, first-come-first-served over
    /// all producers, until every producer has terminated
    /// (`MPIStream_Operate`). Returns the number of elements processed.
    pub fn operate<TP: Transport>(&mut self, rank: &mut TP, mut op: impl FnMut(&mut TP, T)) -> u64 {
        let tag = self.consumer_tag("operate");
        // Drain anything a prior recv_one pulled but did not hand out.
        let mut processed = self.drain_pending(rank, &mut op);
        while !self.rx.all_done() {
            let got = rank.recv(Src::Any, tag);
            processed += self.deliver(rank, got, None, &mut op).elems;
        }
        debug_assert_eq!(
            self.rx.stats.elements,
            self.rx.claimed(),
            "conservation: processed must equal producers' claimed total"
        );
        processed
    }

    /// Fault-tolerant [`Stream::operate`]: apply `op` to every arriving
    /// element (FCFS across producers) until every producer has either
    /// terminated or been declared dead, and return a [`StreamOutcome`]
    /// with per-producer delivered/claimed accounting instead of hanging
    /// on a `Term` that will never come.
    ///
    /// Failure detection requires `config.failure_timeout = Some(t)`: a
    /// producer that has not yet terminated and from which nothing has
    /// arrived for `2t` of virtual time is declared [`ProducerState::Dead`]
    /// and its claim on the stream is discarded. The patience is twice the
    /// producer-side credit-wait timeout deliberately — a producer stalled
    /// up to `t` while it convicts a dead consumer of its own must not be
    /// convicted in turn by the surviving consumers. The verdict
    /// self-heals — if a declared-dead producer's message does arrive
    /// later (an extreme delay spike rather than a crash) while the drain
    /// is still running, the message is processed and the producer is
    /// live again.
    ///
    /// With `failure_timeout = None` this behaves exactly like `operate`,
    /// plus reporting. Earlier [`Stream::try_step`] / [`Stream::recv_one`]
    /// calls may have taken elements (they count as delivered), but no
    /// `Term` may have been consumed yet: the drain must see every
    /// producer's flow end.
    pub fn operate_outcome<TP: Transport>(
        &mut self,
        rank: &mut TP,
        mut op: impl FnMut(&mut TP, T),
    ) -> StreamOutcome {
        let tag = self.consumer_tag("operate");
        assert!(self.rx.claims.is_empty(), "operate_outcome after a drain consumed a Term");
        let now = rank.now();
        if let Some(t) = self.channel.config.failure_timeout {
            // Consumer patience is 2x the configured timeout (see rustdoc).
            self.rx.arm(&self.channel.producers, now, t + t);
        }
        // Elements a prior `recv_one` pulled but never handed out are
        // already on their producer's cursor; they only count in `processed`.
        let mut processed = self.drain_pending(rank, &mut op);
        while !self.rx.all_done() {
            let got = match self.rx.next_deadline() {
                None => Some(rank.recv(Src::Any, tag)),
                Some(deadline) => rank.recv_deadline(Src::Any, tag, deadline),
            };
            let now = rank.now();
            match got {
                Some(got) => processed += self.deliver(rank, got, Some(now), &mut op).elems,
                // Deadline passed with nothing deliverable.
                None => self.rx.convict(now),
            }
        }
        StreamOutcome {
            processed,
            producers: self.channel.producers.iter().map(|&p| self.rx.report(p)).collect(),
        }
    }

    /// Process at most the next wire message if one is already available;
    /// never blocks. Returns the elements processed and whether *any* wire
    /// message (data or termination marker) was consumed — the progress
    /// signal multiplexers need to avoid busy-waiting.
    pub fn try_step<TP: Transport>(
        &mut self,
        rank: &mut TP,
        mut op: impl FnMut(&mut TP, T),
    ) -> (u64, bool) {
        let tag = self.consumer_tag("try_step");
        match rank.try_recv(Src::Any, tag) {
            Some(got) => (self.deliver(rank, got, None, &mut op).elems, true),
            None => (0, false),
        }
    }

    /// Blockingly dispatch the next wire message, giving up at `deadline`:
    /// `None` on timeout, otherwise what was consumed. The receive loop
    /// primitive of replicated consumers (`crates/replica`), whose primary
    /// must interleave stream progress with heartbeats to its standbys.
    pub fn step_deadline<TP: Transport>(
        &mut self,
        rank: &mut TP,
        deadline: SimTime,
        mut op: impl FnMut(&mut TP, T),
    ) -> Option<StepEvent> {
        let tag = self.consumer_tag("step_deadline");
        let got = rank.recv_deadline(Src::Any, tag, deadline)?;
        Some(self.deliver(rank, got, None, &mut op))
    }

    /// Snapshot this consumer endpoint's durable state (element cursors,
    /// terminated producers' claims, statistics) for replication. The
    /// encoding is canonical: two endpoints that processed the same
    /// elements produce byte-identical checkpoints.
    pub fn consumer_checkpoint(&self) -> ConsumerCheckpoint {
        let sorted = |m: &HashMap<usize, u64>| {
            let mut v: Vec<(u64, u64)> = m.iter().map(|(&r, &n)| (r as u64, n)).collect();
            v.sort_unstable();
            v
        };
        let stats = self.rx.stats;
        ConsumerCheckpoint {
            cursors: sorted(&self.rx.cursors),
            claims: sorted(&self.rx.claims),
            elements: stats.elements,
            batches: stats.batches,
            bytes: stats.bytes,
        }
    }

    /// Install a replicated predecessor's [`ConsumerCheckpoint`] into this
    /// (fresh) consumer endpoint: cursors, claims and statistics resume
    /// from the exact committed state; parked credits and undelivered
    /// buffers are cleared (the takeover protocol re-derives credit from
    /// the cursors, and a committed checkpoint never contains unprocessed
    /// elements).
    pub fn restore_consumer(&mut self, ckpt: &ConsumerCheckpoint) {
        assert_eq!(self.channel.my_role, Role::Consumer);
        let rx = &mut self.rx;
        rx.cursors = ckpt.cursors.iter().map(|&(r, n)| (r as usize, n)).collect();
        rx.claims = ckpt.claims.iter().map(|&(r, n)| (r as usize, n)).collect();
        rx.pending_credit.clear();
        rx.muted.clear();
        rx.stats.elements = ckpt.elements;
        rx.stats.batches = ckpt.batches;
        rx.stats.bytes = ckpt.bytes;
        self.pending.clear();
    }

    /// Quarantine producer world rank `src`'s data tag until a
    /// [`StreamMsg::Mark`] with a value `>= mark` arrives from it
    /// (`u64::MAX`: forever). While quarantined, every wire message from
    /// `src` — data, `Term`, stale markers — is dropped unprocessed.
    /// Replicated consumers call this at takeover for each unfinished
    /// producer before announcing the new view: per-`(src, tag)` FIFO
    /// guarantees everything the producer sent to this rank's earlier
    /// reign is delivered strictly before the post-announce marker, so
    /// the drop window contains exactly the stale traffic.
    pub fn quarantine_until_mark(&mut self, src: usize, mark: u64) {
        self.rx.muted.insert(src, mark);
    }

    /// Whether producer world rank `src` is currently quarantined.
    pub fn is_quarantined(&self, src: usize) -> bool {
        self.rx.muted.contains_key(&src)
    }

    /// The element cursor for producer world rank `src`: elements of its
    /// flow this endpoint has processed.
    pub fn cursor_of(&self, src: usize) -> u64 {
        self.rx.cursors.get(&src).copied().unwrap_or(0)
    }

    /// Whether producer world rank `src`'s `Term` has been processed, and
    /// its claimed total if so.
    pub fn claim_of(&self, src: usize) -> Option<u64> {
        self.rx.claims.get(&src).copied()
    }

    /// Whether every producer has signalled termination (or, after a
    /// fault-tolerant drain, been declared dead).
    pub fn all_terminated(&self) -> bool {
        self.rx.all_done()
    }

    /// Release the endpoint (`MPIStream_FreeChannel`): consumes the
    /// stream, asserting it is in a clean terminal state — producers must
    /// have terminated, consumers must have drained every claimed element.
    /// Dropping a `Stream` without `free` is allowed (Rust cleans up), but
    /// `free` catches protocol bugs the way the C API's explicit call did.
    pub fn free<TP: Transport>(self, _rank: &mut TP) {
        match self.channel.my_role {
            Role::Producer => {
                assert!(self.terminated, "free() on a producer endpoint that never terminated");
                assert!(self.agg.iter().all(|b| b.is_empty()), "free() with unflushed elements");
            }
            Role::Consumer => {
                assert!(
                    self.all_terminated(),
                    "free() on a consumer endpoint before all producers terminated"
                );
                assert!(
                    self.pending.is_empty(),
                    "free() with {} undelivered elements",
                    self.pending.len()
                );
                // Conservation only holds when no producer died: a dead
                // producer's claim is unknown and its data may be short.
                if self.rx.detector.as_ref().is_none_or(|d| d.dead.is_empty()) {
                    assert_eq!(
                        self.rx.stats.elements,
                        self.rx.claimed(),
                        "free() with unconsumed claimed elements"
                    );
                }
            }
            Role::Bystander => {}
        }
    }

    /// Pull-style consumption: block for the next element (FCFS across
    /// producers). Returns `None` once every producer has terminated and
    /// all elements were handed out. Mixing `recv_one` with `operate` on
    /// the same endpoint is supported — both drain the same buffers.
    pub fn recv_one<TP: Transport>(&mut self, rank: &mut TP) -> Option<T> {
        let tag = self.consumer_tag("recv_one");
        loop {
            if let Some(elem) = self.pending.pop_front() {
                return Some(elem);
            }
            if self.all_terminated() {
                debug_assert_eq!(self.rx.stats.elements, self.rx.claimed());
                return None;
            }
            let got = rank.recv(Src::Any, tag);
            // The batch moves into the (empty) buffer and its credit
            // leaves at receipt, before any element is handed out.
            let mut pending = std::mem::take(&mut self.pending);
            self.deliver(rank, got, None, &mut |_, elem| pending.push_back(elem));
            self.pending = pending;
        }
    }

    /// The data tag, asserting this is a consumer endpoint.
    fn consumer_tag(&self, what: &str) -> crate::transport::Tag {
        assert_eq!(self.channel.my_role, Role::Consumer, "{what} on a non-consumer endpoint");
        self.channel.data_tag()
    }

    /// Hand elements a prior `recv_one` pulled but did not return to `op`.
    fn drain_pending<TP: Transport>(
        &mut self,
        rank: &mut TP,
        op: &mut impl FnMut(&mut TP, T),
    ) -> u64 {
        let n = self.pending.len() as u64;
        for elem in std::mem::take(&mut self.pending) {
            op(rank, elem);
        }
        n
    }

    /// Fold one received message through the core, run its batch through
    /// `op`, then acknowledge the batch. `now` is the receive instant when
    /// the failure detector is armed.
    fn deliver<TP: Transport>(
        &mut self,
        rank: &mut TP,
        (msg, info): (StreamMsg<T>, MsgInfo),
        now: Option<SimTime>,
        op: &mut impl FnMut(&mut TP, T),
    ) -> StepEvent {
        let src = info.src;
        let (elems, term) = match self.rx.on_msg(src, info.bytes, msg, now) {
            Event::Data(batch) => {
                let n = batch.len() as u64;
                rank.prof_stream_recv(self.channel.id, n, info.bytes);
                for elem in batch {
                    op(rank, elem);
                }
                if let Some(acked) = self.rx.grant(src, n) {
                    self.send_credit(rank, src, acked);
                }
                (n, false)
            }
            Event::Term => (0, true),
            Event::Skip => (0, false),
        };
        StepEvent { src, elems, term }
    }

    fn send_credit<TP: Transport>(&self, rank: &mut TP, src: usize, acked: u64) {
        // Sanitizer report before the send, as on the data path: the
        // producer absorbs the credit as soon as it is observable.
        rank.check_credit_issued(self.channel.id, src, acked);
        rank.send(src, self.channel.credit_tag(), 8, acked);
    }
}

/// What the consumer core made of one wire message.
enum Event<T> {
    /// A data batch, accounted and ready for the operator.
    Data(Vec<T>),
    /// The producer's termination marker (a resent one included).
    Term,
    /// Nothing to fold: an epoch marker, or quarantined stale traffic.
    Skip,
}

/// The consumer half of a stream endpoint, free of I/O: every receive
/// path of [`Stream`] feeds its messages through [`ConsumerCore::on_msg`]
/// and sends whatever credit [`ConsumerCore::grant`] says is due.
#[derive(Default)]
struct ConsumerCore {
    /// Producers on the channel.
    producers: usize,
    /// Element cursor per producer world rank: how many of its elements
    /// this endpoint has accounted. The replay oracle replicated
    /// consumers checkpoint.
    cursors: HashMap<usize, u64>,
    /// Terminated producers' claimed totals per world rank (their `Term`
    /// payloads); its length is the number of producers that terminated.
    claims: HashMap<usize, u64>,
    /// Producer world ranks whose data tag is quarantined, mapped to the
    /// [`StreamMsg::Mark`] value that lifts the quarantine (`u64::MAX` =
    /// never). A replicated consumer taking over quarantines every
    /// unfinished producer until its post-announce epoch marker arrives:
    /// per-`(src, tag)` FIFO puts all traffic addressed to an earlier
    /// reign of this rank strictly before the marker, so everything
    /// dropped while muted is provably stale. Always empty on
    /// unreplicated channels.
    muted: HashMap<usize, u64>,
    /// The channel's `credit_batch`, or `None` when it has no credits.
    credit_batch: Option<u64>,
    /// Credit not yet acknowledged, per producer world rank.
    pending_credit: HashMap<usize, u64>,
    /// While true, nothing is acknowledged until the ledger is taken: the
    /// commit-before-credit-return gate of replicated consumers.
    gate_credits: bool,
    /// Consumer-side statistics (elements, batches, bytes).
    stats: StreamStats,
    /// The silence-deadline failure detector, armed by
    /// [`Stream::operate_outcome`] on channels with a `failure_timeout`.
    detector: Option<Detector>,
}

/// Producers silent for `patience` are declared dead; one that speaks
/// again self-heals.
struct Detector {
    patience: SimDuration,
    /// When each producer last spoke (or the detector was armed).
    last_heard: HashMap<usize, SimTime>,
    /// Silence deadlines of *open* (neither terminated nor dead)
    /// producers, earliest first, maintained incrementally on each
    /// arrival in place of a full O(np) min-scan per message.
    deadlines: BTreeSet<(SimTime, usize)>,
    dead: BTreeSet<usize>,
}

impl ConsumerCore {
    fn new(producers: usize, credit_batch: Option<u64>) -> ConsumerCore {
        ConsumerCore { producers, credit_batch, ..ConsumerCore::default() }
    }

    /// Account one wire message from producer world rank `src` (`bytes`
    /// on the wire). `now` is its receive instant when the detector is
    /// armed; the unarmed drivers pass `None` and never read the clock.
    fn on_msg<T>(
        &mut self,
        src: usize,
        bytes: u64,
        msg: StreamMsg<T>,
        now: Option<SimTime>,
    ) -> Event<T> {
        let event = match msg {
            StreamMsg::Mark(mark) => {
                // An epoch marker lifts a matching quarantine; stale
                // markers (from a view this rank's quarantine outlived)
                // are ignored.
                if self.muted.get(&src).is_some_and(|&need| mark >= need) {
                    self.muted.remove(&src);
                }
                Event::Skip
            }
            // Quarantined: pre-takeover traffic addressed to an earlier
            // reign of this rank. Dropping it is the exactly-once cut —
            // everything below the producer's marker was either already
            // folded into the committed checkpoint or will arrive again in
            // the post-marker replay.
            _ if !self.muted.is_empty() && self.muted.contains_key(&src) => Event::Skip,
            StreamMsg::Data(batch) => {
                let n = batch.len() as u64;
                self.stats.elements += n;
                self.stats.batches += 1;
                self.stats.bytes += bytes;
                *self.cursors.entry(src).or_insert(0) += n;
                Event::Data(batch)
            }
            StreamMsg::Term { sent } => {
                // Idempotent: a resent Term (a replicated producer whose
                // TermAck was lost, see `crates/replica`) re-states the
                // same claim. A `Term` is the producer's last message on
                // the data tag, so its pending credit is dropped rather
                // than sent to a producer that can no longer block on
                // the window.
                self.claims.insert(src, sent);
                self.pending_credit.remove(&src);
                Event::Term
            }
        };
        if let (Some(d), Some(now)) = (&mut self.detector, now) {
            d.heard(src, now, !self.claims.contains_key(&src));
        }
        event
    }

    /// Account `n` processed elements from `src`: the acknowledgement to
    /// send now, if the `credit_batch` threshold is met and credits are
    /// not held. With the default batch of 1 every batch is acknowledged
    /// at once.
    fn grant(&mut self, src: usize, n: u64) -> Option<u64> {
        let batch = self.credit_batch?;
        let owed = self.pending_credit.entry(src).or_insert(0);
        *owed += n;
        (!self.gate_credits && *owed >= batch).then(|| std::mem::take(owed))
    }

    /// Drain the credit ledger, sorted by producer rank (HashMap
    /// iteration order is not deterministic).
    fn take_credits(&mut self) -> Vec<(usize, u64)> {
        let mut owed: Vec<(usize, u64)> =
            self.pending_credit.drain().filter(|&(_, n)| n > 0).collect();
        owed.sort_unstable();
        owed
    }

    /// Total elements terminated producers claim to have sent.
    fn claimed(&self) -> u64 {
        self.claims.values().sum()
    }

    /// Whether every producer has terminated or been declared dead.
    fn all_done(&self) -> bool {
        let dead = self.detector.as_ref().map_or(0, |d| d.dead.len());
        self.claims.len() + dead >= self.producers
    }

    /// Arm the failure detector at `now`: every producer must speak
    /// within `patience`.
    fn arm(&mut self, producers: &[usize], now: SimTime, patience: SimDuration) {
        self.detector = Some(Detector {
            patience,
            last_heard: producers.iter().map(|&p| (p, now)).collect(),
            deadlines: producers.iter().map(|&p| (now + patience, p)).collect(),
            dead: BTreeSet::new(),
        });
    }

    /// The earliest instant an open producer's silence exceeds the
    /// patience; `None` while the detector is unarmed.
    fn next_deadline(&self) -> Option<SimTime> {
        let d = self.detector.as_ref()?;
        Some(d.deadlines.first().expect("at least one producer is open").0)
    }

    /// Declare every producer silent past its deadline at `now` dead.
    fn convict(&mut self, now: SimTime) {
        let Some(d) = &mut self.detector else { return };
        while let Some(&(deadline, p)) = d.deadlines.first() {
            if deadline > now {
                break;
            }
            d.deadlines.pop_first();
            d.dead.insert(p);
        }
    }

    /// What became of producer world rank `p`, from its cursor and claim.
    fn report(&self, p: usize) -> ProducerReport {
        let dead = self.detector.as_ref().is_some_and(|d| d.dead.contains(&p));
        ProducerReport {
            rank: p,
            delivered: self.cursors.get(&p).copied().unwrap_or(0),
            claimed: self.claims.get(&p).copied(),
            state: if dead { ProducerState::Dead } else { ProducerState::Terminated },
        }
    }
}

impl Detector {
    /// Producer `src` spoke at `now`: lift any verdict on it and, while
    /// its flow is `open`, restart its silence deadline.
    fn heard(&mut self, src: usize, now: SimTime, open: bool) {
        let last = self.last_heard.get_mut(&src).expect("stream data from a channel producer");
        // Absent when `src` was closed (a dead producer speaking again).
        self.deadlines.remove(&(*last + self.patience, src));
        *last = now;
        self.dead.remove(&src);
        if open {
            self.deadlines.insert((now + self.patience, src));
        }
    }
}

/// Finalizer-style avalanche hash (so consecutive keys spread evenly).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::{mix64, ConsumerCore, Event, ProducerState, StreamMsg};
    use crate::transport::{SimDuration, SimTime};

    fn data(core: &mut ConsumerCore, src: usize, n: u32) -> Event<u32> {
        core.on_msg(src, 8 * n as u64, StreamMsg::Data((0..n).collect()), None)
    }

    fn term(core: &mut ConsumerCore, src: usize, sent: u64) -> Event<u32> {
        core.on_msg(src, 16, StreamMsg::Term { sent }, None)
    }

    #[test]
    fn a_duplicate_term_is_idempotent() {
        let mut core = ConsumerCore::new(2, None);
        assert!(matches!(data(&mut core, 4, 5), Event::Data(b) if b.len() == 5));
        assert!(matches!(term(&mut core, 4, 5), Event::Term));
        assert!(matches!(term(&mut core, 4, 5), Event::Term), "a resent Term is still a Term");
        assert_eq!((core.claims.len(), core.claimed()), (1, 5));
        assert!(!core.all_done(), "one of two producers terminated");
        term(&mut core, 7, 0);
        assert!(core.all_done());
    }

    #[test]
    fn quarantine_drops_traffic_until_a_fresh_mark() {
        let mut core = ConsumerCore::new(1, Some(1));
        core.muted.insert(3, 7);
        assert!(matches!(data(&mut core, 3, 4), Event::Skip));
        assert!(matches!(term(&mut core, 3, 4), Event::Skip));
        assert_eq!((core.cursors.get(&3), core.claims.len()), (None, 0));
        assert_eq!(core.stats.batches, 0, "quarantined traffic is not accounted");
        assert!(matches!(core.on_msg::<u32>(3, 9, StreamMsg::Mark(6), None), Event::Skip));
        assert!(core.muted.contains_key(&3), "a stale Mark leaves the quarantine in place");
        assert!(matches!(data(&mut core, 3, 2), Event::Skip));
        assert!(matches!(core.on_msg::<u32>(3, 9, StreamMsg::Mark(7), None), Event::Skip));
        assert!(core.muted.is_empty(), "a Mark >= the required value lifts it");
        assert!(matches!(data(&mut core, 3, 2), Event::Data(_)));
        assert!(matches!(term(&mut core, 3, 2), Event::Term));
        assert_eq!((core.cursors[&3], core.claimed()), (2, 2));
    }

    #[test]
    fn held_credits_are_parked_and_taken_sorted() {
        let mut core = ConsumerCore::new(3, Some(1));
        core.gate_credits = true;
        assert_eq!(core.grant(5, 2), None);
        assert_eq!(core.grant(2, 3), None);
        assert_eq!(core.grant(5, 1), None);
        assert_eq!(core.take_credits(), vec![(2, 3), (5, 3)]);
        assert_eq!(core.take_credits(), vec![], "taking empties the ledger");
        core.gate_credits = false;
        assert_eq!(core.grant(5, 1), Some(1), "batch 1 acknowledges at once");
    }

    #[test]
    fn credit_is_acknowledged_at_the_batch_threshold() {
        let mut core = ConsumerCore::new(1, Some(4));
        assert_eq!(core.grant(1, 3), None);
        assert_eq!(core.grant(1, 2), Some(5), "flushes everything owed once >= batch");
        assert_eq!(core.grant(1, 1), None);
        assert_eq!(core.take_credits(), vec![(1, 1)]);
        assert_eq!(ConsumerCore::new(1, None).grant(1, 9), None, "no credits, no ledger");
    }

    #[test]
    fn a_term_drops_its_producers_pending_credit() {
        let mut core = ConsumerCore::new(2, Some(4));
        assert_eq!(core.grant(1, 3), None);
        assert_eq!(core.grant(2, 3), None);
        term(&mut core, 1, 3);
        assert_eq!(core.take_credits(), vec![(2, 3)]);
    }

    #[test]
    fn silence_convicts_at_the_patience_and_speaking_self_heals() {
        let t = SimDuration::from_millis(1);
        let ms = |n: u64| SimTime(n * 1_000_000);
        let mut core = ConsumerCore::new(2, None);
        assert_eq!(core.next_deadline(), None, "unarmed: blocking receives");
        // `operate_outcome` arms with twice the failure timeout.
        core.arm(&[1, 2], ms(0), t + t);
        assert_eq!(core.next_deadline(), Some(ms(2)));
        // Producer 1 speaks at 1ms; producer 2 stays silent.
        core.on_msg(1, 8, StreamMsg::Data(vec![0u32]), Some(ms(1)));
        core.convict(SimTime(ms(2).0 - 1));
        assert!(!core.all_done(), "silence shorter than 2t convicts nobody");
        core.convict(ms(2));
        assert_eq!(core.report(2).state, ProducerState::Dead);
        assert_eq!(core.report(1).state, ProducerState::Terminated);
        assert_eq!(core.next_deadline(), Some(ms(3)), "only producer 1 is still open");
        // The convicted producer speaks after all: the verdict is lifted
        // and its deadline restarts from now.
        core.on_msg(2, 8, StreamMsg::Data(vec![0u32]), Some(ms(4)));
        assert_eq!(core.report(2).state, ProducerState::Terminated);
        assert_eq!(core.report(2).delivered, 1);
        core.on_msg(1, 16, StreamMsg::<u32>::Term { sent: 1 }, Some(ms(4)));
        assert_eq!(core.next_deadline(), Some(ms(6)), "a terminated producer has no deadline");
        assert!(!core.all_done());
        core.on_msg(2, 16, StreamMsg::<u32>::Term { sent: 1 }, Some(ms(5)));
        assert!(core.all_done());
    }

    #[test]
    fn mix64_spreads_consecutive_keys() {
        let n = 16u64;
        let mut buckets = vec![0usize; n as usize];
        for k in 0..1_600 {
            buckets[(mix64(k) % n) as usize] += 1;
        }
        // Each bucket should get roughly 100; no pathological clumping.
        assert!(buckets.iter().all(|&b| b > 50 && b < 200), "{buckets:?}");
    }

    #[test]
    fn mix64_is_a_bijection_probe() {
        // Distinct inputs must map to distinct outputs (sampled).
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(mix64(k)));
        }
    }
}

//! The declarative topology model the static pass analyzes.
//!
//! A [`Topology`] is the communication structure of one decoupled program:
//! the α-partition into process groups and the stream channels between
//! them, with each channel's granularity, aggregation, credit window,
//! routing and drain discipline. Declarations are cheap plain data — they
//! can be written by hand, built by the per-application extractors in
//! `apps::*::topology`, or extracted from a live [`StreamChannel`] inside a
//! simulation via [`ChannelDecl::from_channel`].

use mpistream::{ChannelConfig, RoutePolicy, StreamChannel};

pub use mpisim::SimDuration;

/// One process group of the α-partition (e.g. the computation group G0 and
/// the analysis group G1 of Fig. 1).
#[derive(Clone, Debug)]
pub struct GroupDecl {
    pub name: String,
    /// World ranks of the members.
    pub ranks: Vec<usize>,
}

impl GroupDecl {
    pub fn new(name: impl Into<String>, ranks: Vec<usize>) -> GroupDecl {
        GroupDecl { name: name.into(), ranks }
    }
}

/// How a channel's elements reach consumers — the *effective* routing,
/// which for keyed application-level maps can be narrower than the
/// channel's configured [`RoutePolicy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Producer `i` (index in the producer list) feeds consumer `i % nc`.
    Static,
    /// Every producer rotates over all consumers.
    RoundRobin,
    /// Explicit key-domain map: bucket `b` routes to consumer index
    /// `buckets[b]`. `None` is a hole — keys hashing there are never
    /// delivered (the mutation the routing-totality lint exists to catch).
    Keyed { buckets: Vec<Option<usize>> },
}

/// The consumer's drain discipline, which decides what a missing `Term`
/// does to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drain {
    /// `operate` / `recv_one` (and loops over `try_step` or
    /// `step_deadline`): runs until a `Term` arrives from every producer.
    /// A producer that never terminates hangs the consumer.
    Operate,
    /// `operate_outcome`: the only drain that arms the failure detector,
    /// so waits are bounded when the channel has a `failure_timeout`; a
    /// silent producer is declared dead instead of hanging the drain.
    OperateOutcome,
}

/// Declaration of one stream channel.
#[derive(Clone, Debug)]
pub struct ChannelDecl {
    pub name: String,
    /// World ranks of the producer group.
    pub producers: Vec<usize>,
    /// World ranks of the consumer group.
    pub consumers: Vec<usize>,
    /// The channel's configuration (granularity, aggregation, credits,
    /// configured route, failure timeout).
    pub config: ChannelConfig,
    /// Effective routing (see [`Routing`]); defaults to the configured
    /// [`RoutePolicy`].
    pub routing: Routing,
    /// The consumer-side drain discipline.
    pub drain: Drain,
    /// Producers that call `terminate()`. Anything missing here models a
    /// producer exiting without closing its flow.
    pub terminating: Vec<usize>,
    /// Explicit consumer-side patience before declaring a producer dead.
    /// `None` means the library default (twice the producer timeout — the
    /// t/2t hierarchy), which is correct by construction.
    pub consumer_patience: Option<SimDuration>,
}

impl ChannelDecl {
    /// Declare a channel from its configuration. The effective routing
    /// mirrors `config.route`; every producer terminates; the drain is the
    /// blocking `operate` unless overridden.
    pub fn new(
        name: impl Into<String>,
        producers: Vec<usize>,
        consumers: Vec<usize>,
        config: ChannelConfig,
    ) -> ChannelDecl {
        let routing = match config.route {
            RoutePolicy::Static => Routing::Static,
            RoutePolicy::RoundRobin => Routing::RoundRobin,
        };
        let terminating = producers.clone();
        ChannelDecl {
            name: name.into(),
            producers,
            consumers,
            config,
            routing,
            drain: Drain::Operate,
            terminating,
            consumer_patience: None,
        }
    }

    /// Extract the declaration of a live channel endpoint (any role works:
    /// membership and configuration are agreed collectively at creation).
    pub fn from_channel(name: impl Into<String>, ch: &StreamChannel) -> ChannelDecl {
        ChannelDecl::new(
            name,
            ch.producers().to_vec(),
            ch.consumers().to_vec(),
            ch.config().clone(),
        )
    }

    /// Override the effective routing with an explicit keyed map.
    pub fn keyed(mut self, buckets: Vec<Option<usize>>) -> ChannelDecl {
        self.routing = Routing::Keyed { buckets };
        self
    }

    /// Override the drain discipline.
    pub fn drain(mut self, drain: Drain) -> ChannelDecl {
        self.drain = drain;
        self
    }

    /// Model `rank` exiting without calling `terminate()`.
    pub fn drop_term(mut self, rank: usize) -> ChannelDecl {
        self.terminating.retain(|&r| r != rank);
        self
    }

    /// Declare an explicit consumer-side patience (instead of the derived
    /// 2x producer timeout).
    pub fn patience(mut self, patience: SimDuration) -> ChannelDecl {
        self.consumer_patience = Some(patience);
        self
    }

    /// Consumer indices a given producer (by index) can route data to.
    pub(crate) fn targets_of_producer(&self, pi: usize) -> Vec<usize> {
        let nc = self.consumers.len();
        if nc == 0 {
            return Vec::new();
        }
        match &self.routing {
            Routing::Static => vec![pi % nc],
            Routing::RoundRobin => (0..nc).collect(),
            Routing::Keyed { buckets } => {
                let mut t: Vec<usize> =
                    buckets.iter().filter_map(|b| *b).filter(|&c| c < nc).collect();
                t.sort_unstable();
                t.dedup();
                t
            }
        }
    }
}

/// A whole decoupled program: the α-partition and its channels.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// World size (number of ranks the partition must cover).
    pub world: usize,
    /// The α-groups. May be empty for channel-only declarations (the
    /// partition lints then have nothing to say).
    pub groups: Vec<GroupDecl>,
    pub channels: Vec<ChannelDecl>,
}

impl Topology {
    pub fn new(world: usize) -> Topology {
        Topology { world, groups: Vec::new(), channels: Vec::new() }
    }

    pub fn group(mut self, g: GroupDecl) -> Topology {
        self.groups.push(g);
        self
    }

    pub fn channel(mut self, ch: ChannelDecl) -> Topology {
        self.channels.push(ch);
        self
    }
}

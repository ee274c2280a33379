//! Property-based tests of the stream library: conservation, termination
//! and routing invariants under randomized configurations.

use std::sync::Arc;

use mpisim::{FaultPlan, MachineConfig, SimDuration, World};
use mpistream::{
    ChannelConfig, ConsumerCheckpoint, GroupSpec, Role, RoutePolicy, Stream, StreamChannel,
    StreamStats,
};
use parking_lot::Mutex;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every element injected by any producer is processed exactly once,
    /// across random world sizes, group fractions, aggregation factors,
    /// credit windows and routing policies.
    #[test]
    fn streams_conserve_elements(
        every in 2usize..6,
        blocks in 1usize..4,       // world = every * blocks
        per_producer in prop::collection::vec(0usize..40, 1..24),
        aggregation in 1usize..9,
        credits_raw in 0usize..4,  // 0 = unbounded, else 16*credits
        round_robin in any::<bool>(),
    ) {
        let nprocs = every * blocks;
        let credits = if credits_raw == 0 { None } else { Some(credits_raw * 16) };
        let route = if round_robin { RoutePolicy::RoundRobin } else { RoutePolicy::Static };
        // Element counts per producer (cycled if fewer entries given).
        let counts = Arc::new(per_producer);
        let received: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let sent_total = Arc::new(Mutex::new(0u64));

        let (rcv, snt, cnt) = (received.clone(), sent_total.clone(), counts.clone());
        let world = World::new(MachineConfig::default()).with_seed(42);
        world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every };
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(
                rank,
                &comm,
                role,
                ChannelConfig {
                    element_bytes: 1 << 10,
                    aggregation,
                    credits,
                    route,
                    credit_batch: 1,
                    failure_timeout: None,
                    replicas: 0,
                    replication_patience: None,
                },
            );
            let mut stream: Stream<(usize, u32)> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    let me = rank.world_rank();
                    let n = cnt[me % cnt.len()];
                    for i in 0..n {
                        stream.isend(rank, (me, i as u32));
                    }
                    stream.terminate(rank);
                    *snt.lock() += n as u64;
                }
                Role::Consumer => {
                    stream.operate(rank, |_, e| rcv.lock().push(e));
                }
                Role::Bystander => unreachable!(),
            }
        });

        let got = received.lock();
        prop_assert_eq!(got.len() as u64, *sent_total.lock());
        // No duplicates.
        let mut dedup: Vec<(usize, u32)> = got.clone();
        dedup.sort_unstable();
        let before = dedup.len();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), before, "duplicate delivery detected");
    }

    /// Keyed routing sends equal keys to the same consumer regardless of
    /// how producers interleave, for any group shape.
    #[test]
    fn keyed_routing_is_stable(
        every in 2usize..5,
        blocks in 2usize..4,
        keys in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let nprocs = every * blocks;
        let keys = Arc::new(keys);
        let owner: Arc<Mutex<std::collections::HashMap<u64, usize>>> =
            Arc::new(Mutex::new(std::collections::HashMap::new()));
        let (own, ks) = (owner.clone(), keys.clone());
        let world = World::new(MachineConfig::default()).with_seed(7);
        world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every };
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
            let mut stream: Stream<u64> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    for &k in ks.iter() {
                        stream.isend_keyed(rank, k, k);
                    }
                    stream.terminate(rank);
                }
                Role::Consumer => {
                    let me = rank.world_rank();
                    stream.operate(rank, |_, k| {
                        let mut map = own.lock();
                        if let Some(prev) = map.insert(k, me) {
                            assert_eq!(prev, me, "key {k} split across consumers");
                        }
                    });
                }
                Role::Bystander => unreachable!(),
            }
        });
        // Every key was delivered somewhere.
        let owner = owner.lock();
        for k in keys.iter() {
            prop_assert!(owner.contains_key(k));
        }
    }

    /// An *empty* fault plan is inert: attaching one (whatever its seed)
    /// and arming a failure timeout must leave every endpoint's
    /// `StreamStats` byte-identical to a run without the fault layer, over
    /// random stream shapes. The fault machinery may only change behaviour
    /// when a fault actually fires.
    #[test]
    fn fault_free_plan_leaves_stream_stats_identical(
        every in 2usize..6,
        blocks in 1usize..4,
        per_producer in 0usize..60,
        aggregation in 1usize..9,
        plan_seed in any::<u64>(),
        with_timeout in any::<bool>(),
    ) {
        let nprocs = every * blocks;
        let run = |plan: Option<FaultPlan>, timeout: Option<SimDuration>| {
            let stats: Arc<Mutex<Vec<(usize, StreamStats)>>> =
                Arc::new(Mutex::new(Vec::new()));
            let st = stats.clone();
            let mut world = World::new(MachineConfig::default()).with_seed(99);
            if let Some(p) = plan {
                world = world.with_fault_plan(p);
            }
            world.run_expect(nprocs, move |rank| {
                let comm = rank.comm_world();
                let spec = GroupSpec { every };
                let role = spec.role_of(rank.world_rank());
                let ch = StreamChannel::create(
                    rank,
                    &comm,
                    role,
                    ChannelConfig {
                        element_bytes: 1 << 10,
                        aggregation,
                        credits: Some(64),
                        route: RoutePolicy::Static,
                        credit_batch: 1,
                        failure_timeout: timeout,
                        replicas: 0,
                        replication_patience: None,
                    },
                );
                let mut stream: Stream<u64> = Stream::attach(ch);
                match role {
                    Role::Producer => {
                        for i in 0..per_producer {
                            rank.compute(1e-6);
                            stream.isend(rank, i as u64);
                        }
                        stream.terminate(rank);
                    }
                    Role::Consumer => {
                        stream.operate(rank, |_, _| {});
                    }
                    Role::Bystander => unreachable!(),
                }
                st.lock().push((rank.world_rank(), stream.stats()));
            });
            let mut v = stats.lock().clone();
            v.sort_unstable_by_key(|&(r, _)| r);
            v
        };
        let timeout = if with_timeout { Some(SimDuration::from_secs(1)) } else { None };
        let bare = run(None, None);
        let planned = run(Some(FaultPlan::new(plan_seed)), timeout);
        prop_assert_eq!(bare, planned, "empty FaultPlan (seed {}) perturbed stats", plan_seed);
    }

    /// The group split is a partition consistent with `role_of`, for any
    /// spec and world that fits it.
    #[test]
    fn group_split_is_consistent(every in 2usize..9, blocks in 1usize..5) {
        let nprocs = every * blocks;
        // (world rank, is-producer, producer-group size, consumer-group size).
        type SplitObs = (usize, bool, usize, usize);
        let seen: Arc<Mutex<Vec<SplitObs>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let world = World::new(MachineConfig::ideal());
        world.run_expect(nprocs, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every };
            let (producers, consumers, role) = spec.split(rank, &comm);
            let me = rank.world_rank();
            assert_eq!(role, spec.role_of(me));
            match role {
                Role::Producer => assert!(producers.contains(me)),
                Role::Consumer => assert!(consumers.contains(me)),
                Role::Bystander => unreachable!(),
            }
            s2.lock().push((
                me,
                role == Role::Consumer,
                producers.size(),
                consumers.size(),
            ));
        });
        let seen = seen.lock();
        let n_consumers = seen.iter().filter(|(_, c, _, _)| *c).count();
        prop_assert_eq!(n_consumers, blocks, "one consumer per block of `every`");
        for &(_, _, np, nc) in seen.iter() {
            prop_assert_eq!(np + nc, nprocs);
            prop_assert_eq!(nc, blocks);
        }
    }

    /// Every drain entry point is a driver over the same consumer core:
    /// on one randomized producer schedule (producer count, per-producer
    /// element counts and compute delays, aggregation, credit window and
    /// batch) each of them processes the same multiset of elements and
    /// ends in the same `ConsumerCheckpoint`, and `operate_outcome`
    /// reports a complete outcome whose `delivered` are the cursors.
    #[test]
    fn every_drain_driver_agrees_on_one_schedule(
        producers in 1usize..5,
        counts in prop::collection::vec(0usize..40, 1..5),
        delays_us in prop::collection::vec(0u64..30, 1..5),
        aggregation in 1usize..5,
        window_raw in 0usize..4,   // 0 = no credits, else aggregation * window_raw
        batch_raw in 0usize..8,
        seed in any::<u64>(),
    ) {
        let credits = (window_raw > 0).then_some(aggregation * window_raw);
        let credit_batch = credits.map_or(1, |w| 1 + batch_raw % (w - aggregation + 1));
        let config = ChannelConfig {
            element_bytes: 64,
            aggregation,
            credits,
            credit_batch,
            // Armed but generous: the detector runs, never convicts.
            failure_timeout: Some(SimDuration::from_secs(1)),
            ..ChannelConfig::default()
        };
        let drains: Vec<_> = (0..5)
            .map(|driver| drain_with(driver, producers, &counts, &delays_us, config.clone(), seed))
            .collect();
        let mut expect: Vec<(usize, u32)> = (0..producers)
            .flat_map(|p| (0..counts[p % counts.len()] as u32).map(move |i| (p, i)))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(&drains[0].0, &expect);
        for (driver, d) in drains.iter().enumerate().skip(1) {
            prop_assert_eq!(&d.0, &drains[0].0, "driver {} processed a different multiset", driver);
            prop_assert_eq!(&d.1, &drains[0].1, "driver {} checkpoint differs", driver);
        }
    }
}

/// Run one producer schedule with the consumer (the last rank) draining
/// through `driver`: 0 `operate`, 1 `operate_outcome`, 2 a `recv_one`
/// loop, 3 a `try_step` + `wait_for_mail` loop, 4 a `step_deadline`
/// loop. Returns the sorted processed elements and the final checkpoint.
fn drain_with(
    driver: usize,
    producers: usize,
    counts: &[usize],
    delays_us: &[u64],
    config: ChannelConfig,
    seed: u64,
) -> (Vec<(usize, u32)>, ConsumerCheckpoint) {
    let slot = Arc::new(Mutex::new(None));
    let out = slot.clone();
    let (counts, delays_us) = (counts.to_vec(), delays_us.to_vec());
    World::new(MachineConfig::default()).with_seed(seed).run_expect(producers + 1, move |rank| {
        let comm = rank.comm_world();
        let me = rank.world_rank();
        let role = if me < producers { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, config.clone());
        let mut stream: Stream<(usize, u32)> = Stream::attach(ch);
        if role == Role::Producer {
            for i in 0..counts[me % counts.len()] as u32 {
                rank.compute(delays_us[me % delays_us.len()] as f64 * 1e-6);
                stream.isend(rank, (me, i));
            }
            stream.terminate(rank);
            return;
        }
        let mut got = Vec::new();
        match driver {
            0 => {
                stream.operate(rank, |_, e| got.push(e));
            }
            1 => {
                let outcome = stream.operate_outcome(rank, |_, e| got.push(e));
                assert!(outcome.complete(), "{outcome:?}");
                assert_eq!(outcome.processed, got.len() as u64);
                for p in &outcome.producers {
                    assert_eq!(p.delivered, stream.cursor_of(p.rank));
                    assert_eq!(p.claimed, stream.claim_of(p.rank));
                }
            }
            2 => {
                while let Some(e) = stream.recv_one(rank) {
                    got.push(e);
                }
            }
            3 => {
                while !stream.all_terminated() {
                    if !stream.try_step(rank, |_, e| got.push(e)).1 {
                        rank.wait_for_mail();
                    }
                }
            }
            _ => {
                while !stream.all_terminated() {
                    let deadline = rank.now() + SimDuration::from_micros(7);
                    stream.step_deadline(rank, deadline, |_, e| got.push(e));
                }
            }
        }
        got.sort_unstable();
        *out.lock() = Some((got, stream.consumer_checkpoint()));
    });
    let drained = slot.lock().take().expect("consumer finished");
    drained
}

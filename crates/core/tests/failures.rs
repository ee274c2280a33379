//! Failure detection and recovery at the stream layer: consumers that
//! complete `operate_outcome` with reported loss instead of hanging when a
//! producer dies, and producers that re-route around a dead consumer.

use std::sync::Arc;

use mpisim::{FaultPlan, MachineConfig, SimDuration, SimTime, World};
use mpistream::{ChannelConfig, ProducerState, Role, RoutePolicy, Stream, StreamChannel};
use parking_lot::Mutex;

fn ideal() -> World {
    World::new(MachineConfig::ideal())
}

/// The headline recovery scenario: one of two producers is killed
/// mid-stream. The consumer must not hang on the `Term` that will never
/// arrive — it completes `operate_outcome` and reports the dead producer
/// with partial delivery, while the surviving producer's flow is complete.
#[test]
fn consumer_completes_with_reported_loss_after_producer_kill() {
    // Rank 1 dies at 250us, roughly halfway through its 500us send loop.
    let world = ideal().with_fault_plan(FaultPlan::new(7).kill(1, SimTime(250_000)));
    let got: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    let outcome_slot = Arc::new(Mutex::new(None));
    let o = outcome_slot.clone();
    let out = world.run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 256,
                failure_timeout: Some(SimDuration::from_millis(2)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                let me = rank.world_rank() as u64;
                for i in 0..100u64 {
                    rank.compute_exact(5e-6);
                    stream.isend(rank, me << 32 | i);
                }
                stream.terminate(rank);
            }
            Role::Consumer => {
                let g = g.clone();
                let outcome = stream.operate_outcome(rank, move |_, v| g.lock().push(v));
                *o.lock() = Some(outcome);
            }
            Role::Bystander => unreachable!(),
        }
    });
    assert_eq!(out.sim.killed, vec![1]);
    let outcome = outcome_slot.lock().take().expect("consumer finished");
    assert!(!outcome.complete());
    assert_eq!(outcome.dead(), vec![1]);
    let r0 = outcome.producers[0];
    assert_eq!(r0.rank, 0);
    assert_eq!(r0.state, ProducerState::Terminated);
    assert_eq!(r0.claimed, Some(100));
    assert_eq!(r0.delivered, 100);
    assert_eq!(r0.lost(), 0);
    let r1 = outcome.producers[1];
    assert_eq!(r1.rank, 1);
    assert_eq!(r1.state, ProducerState::Dead);
    assert_eq!(r1.claimed, None, "a dead producer never got to claim a total");
    assert!(
        r1.delivered > 0 && r1.delivered < 100,
        "rank 1 died mid-stream, delivered {}",
        r1.delivered
    );
    assert_eq!(outcome.processed, 100 + r1.delivered);
    assert_eq!(got.lock().len() as u64, outcome.processed);
}

/// Producer-side recovery: under RoundRobin, a producer whose credit
/// window on a killed consumer stays exhausted past the failure timeout
/// declares it dead and re-routes everything else to the surviving
/// consumer. Nothing is abandoned (`stats.lost == 0`) and the survivor's
/// accounting is exact.
#[test]
fn round_robin_producer_reroutes_around_dead_consumer() {
    // Rank 1 (consumer index 0) dies at 100us.
    let world = ideal().with_fault_plan(FaultPlan::new(3).kill(1, SimTime(100_000)));
    let outcome_slot = Arc::new(Mutex::new(None));
    let o = outcome_slot.clone();
    let stats_slot = Arc::new(Mutex::new(None));
    let s = stats_slot.clone();
    let out = world.run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() == 0 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 256,
                credits: Some(4),
                route: RoutePolicy::RoundRobin,
                failure_timeout: Some(SimDuration::from_millis(2)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..200u64 {
                    rank.compute_exact(2e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
                *s.lock() = Some(stream.stats());
            }
            Role::Consumer => {
                let outcome = stream.operate_outcome(rank, |_, _| {});
                if rank.world_rank() == 2 {
                    *o.lock() = Some(outcome);
                }
            }
            Role::Bystander => unreachable!(),
        }
    });
    assert_eq!(out.sim.killed, vec![1]);
    let stats = stats_slot.lock().take().expect("producer finished");
    assert_eq!(stats.lost, 0, "RoundRobin re-routes instead of dropping");
    let outcome = outcome_slot.lock().take().expect("surviving consumer finished");
    // The survivor's view of rank 0 is clean: it terminated, and every
    // element claimed for this consumer arrived.
    assert!(outcome.complete());
    let r0 = outcome.producers[0];
    assert_eq!(r0.claimed, Some(r0.delivered));
    // Pre-kill the survivor got about half of the first ~50 elements; all
    // of the post-detection traffic lands here, so well over half of the
    // 200 total must have arrived.
    assert!(
        outcome.processed > 120,
        "expected the bulk of 200 elements after re-route, got {}",
        outcome.processed
    );
    // What was not delivered here went to the dead consumer before the
    // verdict — bounded by the pre-kill share plus the credit window.
    assert!(outcome.processed < 200);
}

/// Under Static routing elements are pinned to their consumer: when it
/// dies they cannot be re-routed, so the producer drops them and counts
/// the loss, and the other consumer sees a clean zero-element flow.
#[test]
fn static_producer_drops_and_counts_elements_for_dead_consumer() {
    // Rank 1 (consumer index 0, the Static target of producer 0) dies.
    let world = ideal().with_fault_plan(FaultPlan::new(9).kill(1, SimTime(100_000)));
    let stats_slot = Arc::new(Mutex::new(None));
    let s = stats_slot.clone();
    let other_slot = Arc::new(Mutex::new(None));
    let o = other_slot.clone();
    world.run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() == 0 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 256,
                credits: Some(4),
                route: RoutePolicy::Static,
                failure_timeout: Some(SimDuration::from_millis(2)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..200u64 {
                    rank.compute_exact(2e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
                *s.lock() = Some(stream.stats());
            }
            Role::Consumer => {
                let outcome = stream.operate_outcome(rank, |_, _| {});
                if rank.world_rank() == 2 {
                    *o.lock() = Some(outcome);
                }
            }
            Role::Bystander => unreachable!(),
        }
    });
    let stats = stats_slot.lock().take().expect("producer finished");
    assert!(stats.lost > 0, "pinned elements for a dead consumer are lost");
    assert_eq!(stats.elements + stats.lost, 200, "every element sent or counted lost");
    // The unrelated consumer is untouched: the producer terminates with a
    // zero claim towards it.
    let other = other_slot.lock().take().expect("other consumer finished");
    assert!(other.complete());
    assert_eq!(other.processed, 0);
    assert_eq!(other.producers[0].claimed, Some(0));
}

/// Without faults, `operate_outcome` is `operate` plus reporting: all
/// producers terminate cleanly and the accounting is exact, even with a
/// failure timeout armed.
#[test]
fn fault_free_outcome_reports_clean_completion() {
    let world = ideal();
    let outcome_slot = Arc::new(Mutex::new(None));
    let o = outcome_slot.clone();
    world.run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 128,
                aggregation: 4,
                credits: Some(16),
                failure_timeout: Some(SimDuration::from_millis(1)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..50u64 {
                    rank.compute_exact(5e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
            }
            Role::Consumer => {
                let outcome = stream.operate_outcome(rank, |_, _| {});
                *o.lock() = Some(outcome);
            }
            Role::Bystander => unreachable!(),
        }
    });
    let outcome = outcome_slot.lock().take().expect("consumer finished");
    assert!(outcome.complete());
    assert_eq!(outcome.processed, 100);
    assert_eq!(outcome.dead(), Vec::<usize>::new());
    assert_eq!(outcome.lost(), 0);
    for (i, r) in outcome.producers.iter().enumerate() {
        assert_eq!(r.rank, i);
        assert_eq!(r.state, ProducerState::Terminated);
        assert_eq!(r.claimed, Some(50));
        assert_eq!(r.delivered, 50);
    }
}

/// A producer killed *before it sends anything* still ends as a clean
/// `Dead` verdict with zero delivery — the consumer's initial grace period
/// starts at attach time, not at first contact.
#[test]
fn producer_killed_before_first_send_reports_zero_delivery() {
    let world = ideal().with_fault_plan(FaultPlan::new(1).kill(0, SimTime(10_000)));
    let outcome_slot = Arc::new(Mutex::new(None));
    let o = outcome_slot.clone();
    world.run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                element_bytes: 128,
                failure_timeout: Some(SimDuration::from_millis(1)),
                replicas: 0,
                replication_patience: None,
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                // Rank 0 stalls past its own death; rank 1 streams fine.
                if rank.world_rank() == 0 {
                    rank.compute_exact(1e-3);
                }
                for i in 0..20u64 {
                    rank.compute_exact(5e-6);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
            }
            Role::Consumer => {
                let outcome = stream.operate_outcome(rank, |_, _| {});
                *o.lock() = Some(outcome);
            }
            Role::Bystander => unreachable!(),
        }
    });
    let outcome = outcome_slot.lock().take().expect("consumer finished");
    assert_eq!(outcome.dead(), vec![0]);
    assert_eq!(outcome.producers[0].delivered, 0);
    assert_eq!(outcome.producers[0].claimed, None);
    assert_eq!(outcome.producers[1].delivered, 20);
    assert_eq!(outcome.processed, 20);
}

/// Elements an earlier step took are delivered, not lost: the outcome's
/// per-producer `delivered` is the endpoint's cursor, while `processed`
/// counts only what this call handed to its operator.
#[test]
fn outcome_counts_elements_taken_before_the_drain_as_delivered() {
    let outcome_slot = Arc::new(Mutex::new(None));
    let o = outcome_slot.clone();
    ideal().run_expect(2, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() == 0 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(
            rank,
            &comm,
            role,
            ChannelConfig {
                aggregation: 4,
                failure_timeout: Some(SimDuration::from_millis(5)),
                ..ChannelConfig::default()
            },
        );
        let mut stream: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..16u64 {
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
            }
            Role::Consumer => {
                // Poll until the first batch is taken outside the drain.
                loop {
                    let (n, consumed) = stream.try_step(rank, |_, _| {});
                    if consumed {
                        assert_eq!(n, 4);
                        break;
                    }
                    rank.wait_for_mail();
                }
                let outcome = stream.operate_outcome(rank, |_, _| {});
                *o.lock() = Some(outcome);
            }
            Role::Bystander => unreachable!(),
        }
    });
    let outcome = outcome_slot.lock().take().expect("consumer finished");
    assert_eq!(outcome.processed, 12, "only the drain's own elements reach its operator");
    let r = outcome.producers[0];
    assert_eq!((r.delivered, r.claimed), (16, Some(16)));
    assert_eq!(r.lost(), 0);
    assert!(outcome.complete());
}

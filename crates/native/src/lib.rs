//! # native — the stream runtime on real OS threads
//!
//! A [`Transport`](mpistream::Transport) backend that runs every rank as
//! an OS thread on the host, so stream programs written against
//! `mpistream` execute in *actual* parallel instead of inside the
//! discrete-event simulator. The paper's decoupling pipeline — producer
//! groups streaming to consumer groups over FCFS channels — is exercised
//! against a real memory hierarchy, real locks and the wall clock.
//!
//! ## What this backend is (and is not)
//!
//! - **Same programs.** `run_decoupled`, `Stream`, `StreamChannel`,
//!   `operate2` all work unchanged; the cross-backend equivalence suite
//!   checks that fault-free payload sets match the simulator exactly.
//! - **Real concurrency, wall-clock time.** [`Transport::now`] is
//!   nanoseconds since [`NativeWorld::run`] began; deadline receives park
//!   on a condvar with a wall-clock timeout. `compute(secs)` sleeps
//!   `secs × compute_scale` — it models occupancy, it does not simulate a
//!   machine.
//! - **No determinism.** FCFS arrival order depends on OS scheduling.
//!   Anything order-sensitive must be order-normalized before comparison
//!   (the equivalence tests sort payload sets for exactly this reason).
//! - **No fault model, no performance model.** There is no fault
//!   injection, no modelled network, no sanitizer. A rank that panics
//!   aborts the whole run when its thread is joined, but peers blocked on
//!   it will wait until then — bound native runs with an external timeout
//!   (as `ci.sh` does).
//!
//! ## Mailboxes and collectives
//!
//! Each rank owns an indexed mailbox mirroring the simulator's PR-3
//! matching structure — per-tag ordered index for wildcard matches,
//! per-`(src, tag)` FIFO for directed ones — fed through a lock-free
//! MPSC staging stack so N producers never serialize on the consumer's
//! index (see [`mailbox`] for the full design: Treiber staging, an
//! eventcount park protocol that cannot lose wake-ups, and a version
//! counter snapshotted once per polling round inside `wait_for_mail`).
//!
//! The rank itself is the shared [`MailboxRank`] runtime, which the
//! socket backend uses too: [`NativeRank`] is `MailboxRank<ThreadLink>`,
//! where a [`ThreadLink`] boxes each value straight into the
//! destination's mailbox. Collectives are point-to-point messages over
//! a flat star for groups of up to 64 ranks (every member exchanges
//! directly with group rank 0 — the fewest hops, which wins when ranks
//! outnumber cores and every tree level costs a context switch) and a
//! binomial tree above that (`O(log size)` levels on the critical path);
//! see DESIGN.md §13 for the measurement behind the size rule.
//!
//! ```
//! use mpistream::{run_decoupled, ChannelConfig, GroupSpec, Transport};
//! use native::NativeWorld;
//!
//! let outcome = NativeWorld::new(8).run(|rank| {
//!     let world = rank.world_group();
//!     run_decoupled::<u64, _, _, _>(
//!         rank,
//!         &world,
//!         GroupSpec { every: 4 },
//!         ChannelConfig::default(),
//!         |rank, p| {
//!             for step in 0..10 {
//!                 p.stream.isend(rank, step);
//!             }
//!         },
//!         |rank, c| {
//!             let mut seen = 0;
//!             c.stream.operate(rank, |_, _| seen += 1);
//!             assert_eq!(seen, 30); // 3 producers x 10 elements each
//!         },
//!     );
//! });
//! assert_eq!(outcome.nprocs, 8);
//! ```

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use mpistream::{MsgInfo, Wire};

pub mod mailbox;
mod rank;
pub mod sync;

use mailbox::{Env, Mailbox};
pub use rank::{Link, MailboxGroup, MailboxRank};
use sync::atomic::{AtomicU32, Ordering};
use sync::{thread, Instant};

/// One native rank: the per-thread handle [`NativeWorld::run`] passes to
/// the body.
pub type NativeRank = MailboxRank<ThreadLink>;

/// A group of native ranks.
pub type NativeGroup = MailboxGroup;

/// What a native run reports back.
#[derive(Clone, Copy, Debug)]
pub struct NativeOutcome {
    /// Number of ranks (threads) that ran.
    pub nprocs: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// A native world: `nprocs` ranks, each on its own OS thread.
pub struct NativeWorld {
    nprocs: usize,
    compute_scale: f64,
}

impl NativeWorld {
    /// A world of `nprocs` ranks.
    pub fn new(nprocs: usize) -> NativeWorld {
        assert!(nprocs > 0, "a world needs at least one rank");
        NativeWorld { nprocs, compute_scale: 1.0 }
    }

    /// Wall-clock seconds slept per modelled compute second (default 1.0).
    /// Scaled-down runs of simulator-sized workloads set this below 1 so
    /// `compute(secs)` costs go down proportionally.
    pub fn with_compute_scale(mut self, scale: f64) -> NativeWorld {
        assert!(scale.is_finite() && scale >= 0.0, "compute_scale must be finite and >= 0");
        self.compute_scale = scale;
        self
    }

    /// Run `body` once per rank, each on its own thread, and join them
    /// all. A panicking rank propagates after every thread has exited —
    /// peers blocked on the dead rank block the join, so bound native
    /// runs with an external timeout.
    pub fn run<F>(&self, body: F) -> NativeOutcome
    where
        F: Fn(&mut NativeRank) + Send + Sync,
    {
        let epoch = Instant::now();
        let world = MailboxGroup::world(self.nprocs);
        let shared = Arc::new(Threads {
            mailboxes: (0..self.nprocs).map(|_| Arc::new(Mailbox::new())).collect(),
            channel_ids: AtomicU32::new(0),
        });
        let start = Instant::now();
        thread::scope(|scope| {
            let body = &body;
            for r in 0..self.nprocs {
                let shared = Arc::clone(&shared);
                let world = world.clone();
                scope.spawn(move || {
                    let mailbox = Arc::clone(&shared.mailboxes[r]);
                    let link = ThreadLink(shared);
                    let mut rank =
                        MailboxRank::new(r, world, epoch, self.compute_scale, mailbox, link);
                    body(&mut rank);
                });
            }
        });
        NativeOutcome { nprocs: self.nprocs, elapsed: start.elapsed() }
    }
}

/// What every rank thread of one world shares.
struct Threads {
    mailboxes: Vec<Arc<Mailbox>>,
    channel_ids: AtomicU32,
}

/// The native [`Link`]: every rank's mailbox lives in one address space,
/// so a send boxes the value into the destination's mailbox and a
/// receive downcasts it back — no codec.
pub struct ThreadLink(Arc<Threads>);

impl Link for ThreadLink {
    fn deliver<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, value: T) {
        let MsgInfo { src, tag, bytes } = info;
        self.0.mailboxes[dst].push(Env { src, tag, bytes, payload: Box::new(value) });
    }

    fn open<T: Wire + Send + 'static>(
        rank: usize,
        info: MsgInfo,
        payload: Box<dyn Any + Send>,
    ) -> T {
        match payload.downcast::<T>() {
            Ok(v) => *v,
            Err(_) => panic!(
                "rank {rank}: payload type mismatch receiving tag {:?} from {} (expected {})",
                info.tag,
                info.src,
                std::any::type_name::<T>()
            ),
        }
    }

    fn alloc_channel_id(&mut self) -> u16 {
        let id = self.0.channel_ids.fetch_add(1, Ordering::Relaxed);
        u16::try_from(id).expect("too many channels")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{split_id, Shape, META_ID, WORLD_ID};
    use mpistream::{Group, Src, Tag, Transport};

    #[test]
    fn ping_pong_round_trips() {
        NativeWorld::new(2).run(|rank| {
            let t = Tag::user(1);
            if rank.world_rank() == 0 {
                rank.send(1, t, 8, 41u64);
                let (v, info) = rank.recv::<u64>(Src::Rank(1), t);
                assert_eq!(v, 42);
                assert_eq!(info.src, 1);
            } else {
                let (v, _) = rank.recv::<u64>(Src::Any, t);
                rank.send(0, t, 8, v + 1);
            }
        });
    }

    #[test]
    fn collectives_agree_across_threads() {
        NativeWorld::new(8).run(|rank| {
            let world = rank.world_group();
            let sum = rank.allreduce(&world, 8, rank.world_rank() as u64, |a, b| *a += b);
            assert_eq!(sum, 28);
            let all = rank.allgatherv(&world, 8, rank.world_rank());
            assert_eq!(all, (0..8).collect::<Vec<_>>());
            let from_root = rank.bcast(&world, 3, 8, (rank.world_rank() == 3).then_some(99u32));
            assert_eq!(from_root, 99);
            rank.barrier(&world);
        });
    }

    /// The two collective geometries are interchangeable: pin the star
    /// and then the tree on the same 6-rank world and demand identical
    /// results from every collective.
    #[test]
    fn flat_and_tree_collectives_agree() {
        for shape in [Shape::Star, Shape::Tree] {
            NativeWorld::new(6).run(|rank| {
                rank.pin_shape(shape);
                let world = rank.world_group();
                let sum = rank.allreduce(&world, 8, rank.world_rank() as u64, |a, b| *a += b);
                assert_eq!(sum, 15);
                let all = rank.allgatherv(&world, 8, rank.world_rank());
                assert_eq!(all, (0..6).collect::<Vec<_>>());
                let v = rank.bcast(&world, 4, 8, (rank.world_rank() == 4).then_some(7u8));
                assert_eq!(v, 7);
                rank.barrier(&world);
                let g = rank.split(&world, Some((rank.world_rank() % 2) as i64), 0).unwrap();
                assert_eq!(g.size(), 3);
            });
        }
    }

    /// Past 64 members the default path switches to the binomial tree:
    /// every collective on a 70-rank world, then on a 66-rank split cell
    /// (tree, hashed id) and its 4-rank sibling (star).
    #[test]
    fn wide_groups_take_the_tree() {
        const N: usize = 70;
        NativeWorld::new(N).run(|rank| {
            let me = rank.world_rank();
            let world = rank.world_group();
            let sum = rank.allreduce(&world, 8, me as u64, |a, b| *a += b);
            assert_eq!(sum, (N * (N - 1) / 2) as u64);
            let all = rank.allgatherv(&world, 8, me);
            assert_eq!(all, (0..N).collect::<Vec<_>>());
            let v = rank.bcast(&world, 67, 8, (me == 67).then_some(me as u32));
            assert_eq!(v, 67);
            let cell = rank.split(&world, Some((me < 66) as i64), me as i64).unwrap();
            assert_eq!(cell.size(), if me < 66 { 66 } else { 4 });
            let cell_sum = rank.allreduce(&cell, 8, 1u32, |a, b| *a += b);
            assert_eq!(cell_sum as usize, cell.size());
        });
    }

    #[test]
    fn overlay_matches_the_binomial_recurrence() {
        let tree = Shape::Tree;
        assert_eq!(tree.children(0, 6), vec![1, 2, 4]);
        assert_eq!(tree.children(2, 6), vec![3]);
        assert_eq!(tree.children(4, 6), vec![5]);
        assert_eq!(tree.children(5, 6), Vec::<usize>::new());
        assert_eq!(tree.parent(5), 4);
        assert_eq!(tree.parent(3), 2);
        assert_eq!(tree.parent(1), 0);
        // The star hangs every member directly off the root.
        let star = Shape::Star;
        assert_eq!(star.children(0, 6), vec![1, 2, 3, 4, 5]);
        assert_eq!(star.children(3, 6), Vec::<usize>::new());
        assert!((1..6).all(|v| star.parent(v) == 0));
        // At 3 ranks the two shapes have the same edges.
        assert_eq!(star.children(0, 3), tree.children(0, 3));
        assert!((1..3).all(|v| tree.children(v, 3).is_empty() && tree.parent(v) == 0));
    }

    #[test]
    fn split_ids_dodge_the_reserved_values() {
        assert_ne!(split_id(0, 0, 0), WORLD_ID);
        assert_ne!(split_id(0, 0, 0), META_ID);
        // Distinct cells of one split get distinct ids.
        assert_ne!(split_id(0, 3, 0), split_id(0, 3, 1));
    }

    #[test]
    fn split_forms_color_groups_with_distinct_ids() {
        NativeWorld::new(6).run(|rank| {
            let world = rank.world_group();
            let me = rank.world_rank();
            let g = rank.split(&world, Some((me % 2) as i64), me as i64).unwrap();
            let expect: Vec<usize> = (0..6).filter(|r| r % 2 == me % 2).collect();
            assert_eq!(g.ranks(), &expect[..]);
            // Collectives address the new group without cross-talk.
            let sum = rank.allreduce(&g, 8, 1u32, |a, b| *a += b);
            assert_eq!(sum, 3);
        });
    }

    /// `Some(i64::MIN)` is a legal color, distinct from `None` — the old
    /// sentinel encoding collapsed the two, so MIN-colored members would
    /// have absorbed non-participants and deadlocked on first collective.
    #[test]
    fn split_min_color_is_distinct_from_none() {
        NativeWorld::new(4).run(|rank| {
            let world = rank.world_group();
            let me = rank.world_rank();
            let color = if me < 2 { Some(i64::MIN) } else { None };
            let g = rank.split(&world, color, me as i64);
            assert_eq!(g.is_some(), me < 2);
            if let Some(g) = g {
                assert_eq!(g.ranks(), &[0, 1]);
                let sum = rank.allreduce(&g, 8, 1u32, |a, b| *a += b);
                assert_eq!(sum, 2);
            }
        });
    }

    #[test]
    fn split_none_yields_no_group() {
        NativeWorld::new(3).run(|rank| {
            let world = rank.world_group();
            let color = if rank.world_rank() == 2 { None } else { Some(0) };
            let g = rank.split(&world, color, 0);
            assert_eq!(g.is_some(), rank.world_rank() != 2);
            if let Some(g) = g {
                assert_eq!(g.ranks(), &[0, 1]);
            }
        });
    }

    #[test]
    fn deadline_recv_times_out_on_the_wall_clock() {
        NativeWorld::new(1).run(|rank| {
            let deadline = rank.now() + desim::SimDuration::from_millis(15);
            let got = rank.recv_deadline::<u64>(Src::Any, Tag::user(9), deadline);
            assert!(got.is_none());
            assert!(rank.now() >= deadline);
        });
    }

    #[test]
    fn clock_is_monotone_and_compute_advances_it() {
        NativeWorld::new(1).run(|rank| {
            let t0 = rank.now();
            rank.compute(5e-3);
            let t1 = rank.now();
            assert!(t1 > t0);
            assert!(t1.since(t0) >= desim::SimDuration::from_millis(4));
        });
    }
}

//! The one point-to-point runtime behind both mailbox backends.
//!
//! [`MailboxRank`] implements [`Transport`] once — identity and clock,
//! receives against the rank's own [`Mailbox`], and every collective as
//! point-to-point messages over a star-or-tree overlay. The only thing
//! the native and socket backends do differently is move a value into
//! another rank's mailbox and back out of it again; that is a [`Link`]:
//!
//! - native threads box the value straight into the destination's
//!   mailbox and downcast it on receipt;
//! - socket processes encode it with the [`Wire`] codec, write a frame
//!   (the peer's reader thread pushes it into *its* mailbox) and decode
//!   it on receipt.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use desim::SimTime;
use mpistream::{Group, MsgInfo, Src, Tag, Transport, Wire};

use crate::mailbox::{Env, Mailbox};
use crate::sync::{thread, Instant};

/// Group id of the world group.
pub(crate) const WORLD_ID: u64 = 0;
/// Group id marking metadata-only groups (never collective targets).
pub(crate) const META_ID: u64 = u64::MAX;
/// Internal tag namespace for collective traffic (streams use ns 2).
const NS_COLL: u8 = 3;

/// Largest group served by the flat star; larger groups use the
/// binomial tree. From the committed `BENCH_native.json` geometry sweep:
/// the star beat the tree at every size from 2 to 64 ranks (wall ratio
/// 0.41–0.76) — with ranks outnumbering cores every tree level is a
/// forced context switch, while the star's hub drains its one mailbox
/// in arrival order. Past the measured range the tree's `O(log n)`
/// critical path takes over.
const STAR_MAX: usize = 64;

/// An ordered set of world ranks plus the id collectives key their tags
/// on. Split products get their id by hashing `(parent, seq, color)`,
/// which every member of a cell computes alike — no shared registry,
/// within a process or across processes.
#[derive(Clone, Debug)]
pub struct MailboxGroup {
    id: u64,
    ranks: Arc<Vec<usize>>,
}

impl MailboxGroup {
    /// The world group of `nprocs` ranks.
    pub fn world(nprocs: usize) -> MailboxGroup {
        MailboxGroup { id: WORLD_ID, ranks: Arc::new((0..nprocs).collect()) }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }
}

impl Group for MailboxGroup {
    fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn rank_of(&self, w: usize) -> Option<usize> {
        // Membership lists are small and setup-time only; linear scan.
        self.ranks.iter().position(|&x| x == w)
    }

    fn meta(ranks: Vec<usize>) -> MailboxGroup {
        MailboxGroup { id: META_ID, ranks: Arc::new(ranks) }
    }
}

/// Deterministic split-cell id: every member of one cell computes the
/// same key locally. splitmix64 finalization over the triple; the
/// reserved world/meta ids are remapped.
pub(crate) fn split_id(parent: u64, seq: u32, color: i64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let h =
        mix(mix(mix(parent.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ u64::from(seq)) ^ color as u64);
    match h {
        WORLD_ID => 1,
        META_ID => META_ID - 1,
        other => other,
    }
}

/// Tag for collective `seq` on the group with `id`. The id is folded
/// into both the 16-bit channel field and the sequence field: hashed
/// split ids can alias in the low 16 bits, and mixing the high bits
/// into `seq` keeps concurrently outstanding collectives of two such
/// groups on distinct tags (within one group, call order still makes
/// `seq` unique — the MPI contract). The world group's id is 0, so its
/// tags are just `(0, seq)`.
fn coll_tag(id: u64, seq: u32) -> Tag {
    Tag::internal(NS_COLL, id as u16, seq.wrapping_add((id >> 16) as u32))
}

/// Collective geometry. Both shapes exchange exactly `2(size - 1)`
/// messages per reduce + bcast; they differ in the critical path — the
/// star serializes through its hub, the tree pays `log2(size)` levels of
/// hand-offs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Every member exchanges directly with virtual rank 0.
    Star,
    /// Binomial tree rooted at virtual rank 0.
    Tree,
}

impl Shape {
    /// Children of virtual rank `v` in a group of `size`, ascending (the
    /// deterministic fold and gather order). Star: the root owns
    /// everyone. Tree: `v + 2^k` for every `2^k` below `v`'s lowest set
    /// bit (all of them for the root) that stays inside the group.
    pub(crate) fn children(self, v: usize, size: usize) -> Vec<usize> {
        match self {
            Shape::Star if v == 0 => (1..size).collect(),
            Shape::Star => Vec::new(),
            Shape::Tree => {
                let lsb = if v == 0 { usize::MAX } else { v & v.wrapping_neg() };
                std::iter::successors(Some(1usize), |k| k.checked_mul(2))
                    .take_while(|&k| k < lsb && v + k < size)
                    .map(|k| v + k)
                    .collect()
            }
        }
    }

    /// Parent of virtual rank `v != 0`. Tree: clear the lowest set bit.
    pub(crate) fn parent(self, v: usize) -> usize {
        match self {
            Shape::Star => 0,
            Shape::Tree => v & (v - 1),
        }
    }
}

/// One collective's overlay: its tag, the group rotated so the root sits
/// at virtual rank 0, this rank's virtual rank, and the shape.
struct Overlay {
    tag: Tag,
    ranks: Arc<Vec<usize>>,
    root: usize,
    my_v: usize,
    shape: Shape,
}

impl Overlay {
    /// World rank of virtual rank `v`.
    fn world(&self, v: usize) -> usize {
        self.ranks[(v + self.root) % self.ranks.len()]
    }

    /// This rank's children, as virtual ranks.
    fn children(&self) -> Vec<usize> {
        self.shape.children(self.my_v, self.ranks.len())
    }

    /// World rank of this (non-root) rank's parent.
    fn parent(&self) -> usize {
        self.world(self.shape.parent(self.my_v))
    }
}

/// How values move between [`MailboxRank`]s: the part of a backend that
/// is not the shared runtime.
pub trait Link {
    /// Put `value` into `dst`'s mailbox under `info` (`dst` may be the
    /// sender, `info.src`, itself).
    fn deliver<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, value: T);

    /// Recover the `T` that [`Link::deliver`] packed into `payload`, for
    /// receiving rank `rank`. Panics if the payload is not a `T`: a
    /// mismatch is a protocol bug, never a recoverable condition.
    fn open<T: Wire + Send + 'static>(
        rank: usize,
        info: MsgInfo,
        payload: Box<dyn Any + Send>,
    ) -> T;

    /// A stream channel id unique across the world.
    fn alloc_channel_id(&mut self) -> u16;
}

/// One rank of a mailbox backend: the [`Transport`] handle a world
/// passes to each rank's body. Receives match in the rank's own
/// [`Mailbox`]; sends and channel ids go through the link `L`.
pub struct MailboxRank<L: Link> {
    rank: usize,
    world: MailboxGroup,
    epoch: Instant,
    compute_scale: f64,
    mailbox: Arc<Mailbox>,
    /// Mailbox version at the last `wait_for_mail` return — a polling-
    /// round snapshot, deliberately *not* advanced by `try_recv`/`probe`
    /// (see `wait_for_mail` for why).
    mail_seen: u64,
    /// Per-group collective sequence numbers (identical call order on a
    /// group keeps them in agreement, as MPI requires).
    coll_seq: HashMap<u64, u32>,
    /// Overrides the size rule; set only by [`Self::pin_shape`].
    pinned_shape: Option<Shape>,
    link: L,
}

impl<L: Link> MailboxRank<L> {
    /// Rank `rank` of `world`, receiving into `mailbox` and sending
    /// through `link`. [`Transport::now`] counts from `epoch`;
    /// `compute(secs)` sleeps `secs × compute_scale`.
    pub fn new(
        rank: usize,
        world: MailboxGroup,
        epoch: Instant,
        compute_scale: f64,
        mailbox: Arc<Mailbox>,
        link: L,
    ) -> MailboxRank<L> {
        MailboxRank {
            rank,
            world,
            epoch,
            compute_scale,
            mailbox,
            mail_seen: 0,
            coll_seq: HashMap::new(),
            pinned_shape: None,
            link,
        }
    }

    /// Run every later collective over `shape` whatever the group size,
    /// so one world can drive both geometries. All members must pin the
    /// same shape before their next collective.
    #[cfg(test)]
    pub(crate) fn pin_shape(&mut self, shape: Shape) {
        self.pinned_shape = Some(shape);
    }

    /// The overlay of the next collective on `group`, rooted at group
    /// rank `root`.
    fn overlay(&mut self, group: &MailboxGroup, root: usize) -> Overlay {
        assert!(group.id != META_ID, "collective on a metadata-only group");
        let seq = self.coll_seq.entry(group.id).or_insert(0);
        let tag = coll_tag(group.id, *seq);
        *seq += 1;
        let size = group.size();
        assert!(root < size, "bcast root {root} out of range for group of {size}");
        let my_gr = group.rank_of(self.rank).expect("collective on a group we are not in");
        // Every member decides from the group size alone, so a group
        // always agrees on its geometry.
        let by_size = if size <= STAR_MAX { Shape::Star } else { Shape::Tree };
        let shape = self.pinned_shape.unwrap_or(by_size);
        Overlay {
            tag,
            ranks: Arc::clone(&group.ranks),
            root,
            my_v: (my_gr + size - root) % size,
            shape,
        }
    }

    /// Reduce up to virtual rank 0: fold the children's partial
    /// accumulators (ascending, a fixed deterministic order) into ours,
    /// then forward to the parent. Returns `Some(total)` at the root,
    /// `None` elsewhere. `op` must be associative and commutative (the
    /// Transport contract); for floats the fold order — linear on the
    /// star, tree-shaped otherwise — may differ bitwise from another
    /// geometry's (DESIGN.md §11).
    fn reduce_up<T: Wire + Send + 'static>(
        &mut self,
        ov: &Overlay,
        bytes: u64,
        value: T,
        op: &impl Fn(&mut T, &T),
    ) -> Option<T> {
        let mut acc = value;
        for c in ov.children() {
            let (child, _info) = self.recv::<T>(Src::Rank(ov.world(c)), ov.tag);
            op(&mut acc, &child);
        }
        if ov.my_v == 0 {
            Some(acc)
        } else {
            self.send(ov.parent(), ov.tag, bytes, acc);
            None
        }
    }

    /// Broadcast down from virtual rank 0: receive from the parent, then
    /// forward to each child. `value` must be `Some` at the root. Safe on
    /// the same tag as a preceding [`Self::reduce_up`] over the same
    /// overlay: between any rank pair the two phases flow in opposite
    /// directions, so directed receives cannot cross-match.
    fn bcast_down<T: Wire + Clone + Send + 'static>(
        &mut self,
        ov: &Overlay,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let val = if ov.my_v == 0 {
            value.expect("overlay root supplies the broadcast value")
        } else {
            self.recv::<T>(Src::Rank(ov.parent()), ov.tag).0
        };
        for c in ov.children() {
            self.send(ov.world(c), ov.tag, bytes, val.clone());
        }
        val
    }

    fn unpack<T: Wire + Send + 'static>(&self, env: Env) -> (T, MsgInfo) {
        let info = MsgInfo { src: env.src, tag: env.tag, bytes: env.bytes };
        (L::open(self.rank, info, env.payload), info)
    }
}

impl<L: Link> Transport for MailboxRank<L> {
    type Group = MailboxGroup;

    fn world_rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world.size()
    }

    fn world_group(&self) -> MailboxGroup {
        self.world.clone()
    }

    fn now(&self) -> SimTime {
        SimTime(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn compute(&mut self, secs: f64) {
        let scaled = secs * self.compute_scale;
        if scaled.is_finite() && scaled > 0.0 {
            thread::sleep(Duration::from_secs_f64(scaled));
        }
    }

    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        assert!(dst < self.world.size(), "send to out-of-range rank {dst}");
        self.link.deliver(dst, MsgInfo { src: self.rank, tag, bytes }, value);
    }

    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        let env = self.mailbox.take(src, tag);
        self.unpack(env)
    }

    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        let env = self.mailbox.try_take(src, tag)?;
        Some(self.unpack(env))
    }

    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        let until = self.epoch + Duration::from_nanos(deadline.0);
        let env = self.mailbox.take_deadline(src, tag, until)?;
        Some(self.unpack(env))
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.mailbox.probe(src, tag)
    }

    fn wait_for_mail(&mut self) {
        // `mail_seen` is the version at the *previous* return from here
        // (initially 0, matching the mailbox's initial version); polls in
        // between never touch it. So a push landing anywhere in the
        // caller's polling round — even between polls of two different
        // streams in one `operate2` pass — keeps the version ahead of the
        // snapshot and this returns immediately instead of parking past a
        // message it never re-examined. Worst case is one spurious
        // re-poll; a lost wake-up is impossible.
        self.mail_seen = self.mailbox.wait_change(self.mail_seen);
    }

    fn barrier(&mut self, group: &MailboxGroup) {
        self.allreduce(group, 1, (), |_, _| {});
    }

    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &MailboxGroup,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        // Reduce to group rank 0, then broadcast the total back down the
        // same overlay: 2(size-1) directed messages, no rendezvous.
        let ov = self.overlay(group, 0);
        let total = self.reduce_up(&ov, bytes, value, &op);
        self.bcast_down(&ov, bytes, total)
    }

    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &MailboxGroup,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        let ov = self.overlay(group, 0);
        // Gather upward: in the tree, child `v + 2^k` owns the contiguous
        // group-rank range [v + 2^k, v + 2^(k+1)) (clipped to size); in
        // the star each child owns just itself. Either way appending
        // children ascending keeps the accumulator contiguous and
        // group-rank-ordered; rank 0 ends up with the full vector.
        let mut acc: Vec<T> = vec![value];
        for c in ov.children() {
            let (mut sub, _info) = self.recv::<Vec<T>>(Src::Rank(ov.world(c)), ov.tag);
            acc.append(&mut sub);
        }
        let gathered = if ov.my_v == 0 {
            Some(acc)
        } else {
            let n = acc.len() as u64;
            self.send(ov.parent(), ov.tag, bytes * n, acc);
            None
        };
        self.bcast_down(&ov, bytes * group.size() as u64, gathered)
    }

    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &MailboxGroup,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let ov = self.overlay(group, root);
        self.bcast_down(&ov, bytes, value)
    }

    fn split(
        &mut self,
        group: &MailboxGroup,
        color: Option<i64>,
        key: i64,
    ) -> Option<MailboxGroup> {
        // Gather the Option itself — no sentinel, so every i64
        // (including i64::MIN) is a legal color, distinct from
        // non-participation.
        let mut entries = self.allgatherv(group, 24, (color, key, self.rank));
        let seq = self.coll_seq[&group.id] - 1; // the allgatherv's seq
        let my_color = color?;
        // Members with my color, ordered by (key, world_rank) — the
        // MPI_Comm_split contract. `None` entries match no Some color.
        entries.retain(|&(c, _, _)| c == Some(my_color));
        entries.sort_unstable_by_key(|&(_, k, w)| (k, w));
        let members: Vec<usize> = entries.iter().map(|&(_, _, w)| w).collect();
        Some(MailboxGroup { id: split_id(group.id, seq, my_color), ranks: Arc::new(members) })
    }

    fn alloc_channel_id(&mut self) -> u16 {
        self.link.alloc_channel_id()
    }
}

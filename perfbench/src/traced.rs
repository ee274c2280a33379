//! The benchmark's tracer: a [`Transport`] wrapper that records a span
//! around every call into the transport layer, plus the spans the
//! workloads open through `prof_begin`/`prof_end` around their calls into
//! the stream, replica and app layers.
//!
//! Spans live in memory for one traced region and are reduced to
//! per-operation totals when the region ends ([`Traced::finish`]). A
//! span's self time is its duration minus the time its direct children
//! cover. Every top-level span opens a new id and its descendants inherit
//! it, so the stream call of one element and the transport calls it makes
//! share an id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use mpistream::transport::SimTime;
use mpistream::{MsgInfo, Src, Tag, TagKind, Transport, Wire};

const NO_PARENT: u32 = u32::MAX;

/// Where each rank writes the spans of its last traced region when its
/// world ends (unset: nowhere).
pub static SPANS_DIR: OnceLock<PathBuf> = OnceLock::new();

/// One recorded span. Times are nanoseconds since the region's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub id: u64,
}

/// Totals of one operation over a traced region.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpTotal {
    pub name: String,
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

mpistream::wire_struct!(OpTotal { name, count, dur_ns, self_ns });

/// What one rank's traced region reduces to.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    pub ops: Vec<OpTotal>,
    /// Transport sends on stream data and credit tags.
    pub data_sends: u64,
    pub credit_sends: u64,
    /// Replication commits (from the `prof_repl_commit` hook): one
    /// latency sample per commit, and the checkpoint bytes shipped.
    pub commit_ns: Vec<u64>,
    pub commit_bytes: u64,
    /// First start and last end of the region's collective calls
    /// (0, 0 when there were none).
    pub coll_first: u64,
    pub coll_last: u64,
}

mpistream::wire_struct!(RankTrace {
    ops,
    data_sends,
    credit_sends,
    commit_ns,
    commit_bytes,
    coll_first,
    coll_last
});

impl RankTrace {
    fn op(&self, name: &str) -> Option<&OpTotal> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// Summed duration of the named operations, in nanoseconds.
    pub fn dur(&self, names: &[&str]) -> u64 {
        names.iter().filter_map(|n| self.op(n)).map(|o| o.dur_ns).sum()
    }

    /// Summed self time of the named operations, in nanoseconds.
    pub fn self_time(&self, names: &[&str]) -> u64 {
        names.iter().filter_map(|n| self.op(n)).map(|o| o.self_ns).sum()
    }

    /// Summed call count of the named operations.
    pub fn count(&self, names: &[&str]) -> u64 {
        names.iter().filter_map(|n| self.op(n)).map(|o| o.count).sum()
    }

    /// Fold another region of the same rank into this one.
    pub fn merge(&mut self, other: RankTrace) {
        for o in other.ops {
            match self.ops.iter_mut().find(|m| m.name == o.name) {
                Some(m) => {
                    m.count += o.count;
                    m.dur_ns += o.dur_ns;
                    m.self_ns += o.self_ns;
                }
                None => self.ops.push(o),
            }
        }
        self.data_sends += other.data_sends;
        self.credit_sends += other.credit_sends;
        self.commit_ns.extend(other.commit_ns);
        self.commit_bytes += other.commit_bytes;
        if other.coll_last > 0 {
            if self.coll_last == 0 {
                self.coll_first = other.coll_first;
            }
            self.coll_last = self.coll_last.max(other.coll_last);
        }
    }
}

/// Transport operations that block until a message (or a deadline).
pub const BLOCKING: &[&str] =
    &["transport.recv", "transport.recv_deadline", "transport.wait_for_mail"];
/// Every transport operation the wrapper times.
pub const TRANSPORT: &[&str] = &[
    "transport.send",
    "transport.recv",
    "transport.recv_deadline",
    "transport.try_recv",
    "transport.probe",
    "transport.wait_for_mail",
    "transport.coll",
];

/// Map a `prof_begin` category to a span name: the workloads name their
/// stream and replica calls `stream.*`/`replica.*`; anything else comes
/// from inside the app (`reduce`, `master`) and lands in `app.*`.
fn category_name(cat: &'static str) -> &'static str {
    match cat {
        c if c.contains('.') => c,
        "reduce" => "app.reduce",
        "master" => "app.master",
        _ => "app.other",
    }
}

/// A [`Transport`] that forwards to `inner` and records spans.
pub struct Traced<'a, TP: Transport> {
    inner: &'a mut TP,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_id: u64,
    data_sends: u64,
    credit_sends: u64,
    commit_ns: Vec<u64>,
    commit_bytes: u64,
}

impl<'a, TP: Transport> Traced<'a, TP> {
    pub fn new(inner: &'a mut TP, epoch: Instant) -> Self {
        Traced {
            inner,
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            next_id: 0,
            data_sends: 0,
            credit_sends: 0,
            commit_ns: Vec::new(),
            commit_bytes: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = if parent == NO_PARENT {
            self.next_id += 1;
            self.next_id
        } else {
            self.spans[parent as usize].id
        };
        let idx = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span { name, start, end: start, parent, id });
        self.open.push(idx);
    }

    fn exit(&mut self) {
        let idx = self.open.pop().expect("span exit without an open span");
        self.spans[idx as usize].end = self.now_ns();
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut TP) -> R) -> R {
        self.enter(name);
        let r = f(self.inner);
        self.exit();
        r
    }

    /// End the region: reduce the spans to per-operation totals, and
    /// hand back the spans themselves.
    pub fn finish(self) -> (RankTrace, Vec<Span>) {
        assert!(self.open.is_empty(), "traced region ended inside a span");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut totals: BTreeMap<&'static str, OpTotal> = BTreeMap::new();
        let (mut coll_first, mut coll_last) = (u64::MAX, 0u64);
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end - s.start;
            let t = totals
                .entry(s.name)
                .or_insert_with(|| OpTotal { name: s.name.to_string(), ..OpTotal::default() });
            t.count += 1;
            t.dur_ns += dur;
            t.self_ns += dur.saturating_sub(children);
            if s.name == "transport.coll" {
                coll_first = coll_first.min(s.start);
                coll_last = coll_last.max(s.end);
            }
        }
        let trace = RankTrace {
            ops: totals.into_values().collect(),
            data_sends: self.data_sends,
            credit_sends: self.credit_sends,
            commit_ns: self.commit_ns,
            commit_bytes: self.commit_bytes,
            coll_first: if coll_last == 0 { 0 } else { coll_first },
            coll_last,
        };
        (trace, self.spans)
    }
}

/// Write rank `rank`'s spans to `<SPANS_DIR>/rank<rank>.jsonl`, one JSON
/// object per line; a no-op when no directory was given.
pub fn dump_spans(rank: usize, spans: &[Span]) {
    let Some(dir) = SPANS_DIR.get() else { return };
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
            s.name, s.start, s.end, s.id
        );
    }
    let path = dir.join(format!("rank{rank}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

impl<TP: Transport> Transport for Traced<'_, TP> {
    type Group = TP::Group;

    fn world_rank(&self) -> usize {
        self.inner.world_rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn world_group(&self) -> TP::Group {
        self.inner.world_group()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn compute(&mut self, secs: f64) {
        self.inner.compute(secs)
    }

    fn send<T: Wire + Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: u64, value: T) {
        match tag.kind() {
            TagKind::StreamData { .. } => self.data_sends += 1,
            TagKind::StreamCredit { .. } => self.credit_sends += 1,
            _ => {}
        }
        self.timed("transport.send", |r| r.send(dst, tag, bytes, value))
    }

    fn recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> (T, MsgInfo) {
        self.timed("transport.recv", |r| r.recv(src, tag))
    }

    fn try_recv<T: Wire + Send + 'static>(&mut self, src: Src, tag: Tag) -> Option<(T, MsgInfo)> {
        self.timed("transport.try_recv", |r| r.try_recv(src, tag))
    }

    fn recv_deadline<T: Wire + Send + 'static>(
        &mut self,
        src: Src,
        tag: Tag,
        deadline: SimTime,
    ) -> Option<(T, MsgInfo)> {
        self.timed("transport.recv_deadline", |r| r.recv_deadline(src, tag, deadline))
    }

    fn probe(&mut self, src: Src, tag: Tag) -> Option<MsgInfo> {
        self.timed("transport.probe", |r| r.probe(src, tag))
    }

    fn wait_for_mail(&mut self) {
        self.timed("transport.wait_for_mail", |r| r.wait_for_mail())
    }

    fn barrier(&mut self, group: &TP::Group) {
        self.timed("transport.coll", |r| r.barrier(group))
    }

    fn allreduce<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &TP::Group,
        bytes: u64,
        value: T,
        op: impl Fn(&mut T, &T),
    ) -> T {
        self.timed("transport.coll", |r| r.allreduce(group, bytes, value, op))
    }

    fn allgatherv<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &TP::Group,
        bytes: u64,
        value: T,
    ) -> Vec<T> {
        self.timed("transport.coll", |r| r.allgatherv(group, bytes, value))
    }

    fn bcast<T: Wire + Clone + Send + 'static>(
        &mut self,
        group: &TP::Group,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        self.timed("transport.coll", |r| r.bcast(group, root, bytes, value))
    }

    fn split(&mut self, group: &TP::Group, color: Option<i64>, key: i64) -> Option<TP::Group> {
        self.timed("transport.coll", |r| r.split(group, color, key))
    }

    fn alloc_channel_id(&mut self) -> u16 {
        self.inner.alloc_channel_id()
    }

    fn check_register_channel(&mut self, id: u16, window: Option<u64>, credit_tag: Tag) {
        self.inner.check_register_channel(id, window, credit_tag)
    }

    fn check_data_sent(&mut self, id: u16, consumer: usize, elems: u64) {
        self.inner.check_data_sent(id, consumer, elems)
    }

    fn check_credit_issued(&mut self, id: u16, producer: usize, elems: u64) {
        self.inner.check_credit_issued(id, producer, elems)
    }

    fn prof_begin(&mut self, cat: &'static str) {
        self.enter(category_name(cat));
        self.inner.prof_begin(cat)
    }

    fn prof_end(&mut self, cat: &'static str) {
        self.inner.prof_end(cat);
        let name = category_name(cat);
        // Close the innermost open span of that name, and anything left
        // open inside it.
        while let Some(&idx) = self.open.last() {
            let done = self.spans[idx as usize].name == name;
            self.exit();
            if done {
                break;
            }
        }
    }

    fn prof_stream_send(&mut self, channel: u16, elems: u64, bytes: u64) {
        self.inner.prof_stream_send(channel, elems, bytes)
    }

    fn prof_stream_recv(&mut self, channel: u16, elems: u64, bytes: u64) {
        self.inner.prof_stream_recv(channel, elems, bytes)
    }

    fn prof_credit_occupancy(&mut self, channel: u16, outstanding: u64, window: u64) {
        self.inner.prof_credit_occupancy(channel, outstanding, window)
    }

    fn prof_repl_commit(&mut self, channel: u16, bytes: u64, latency_ns: u64) {
        self.commit_ns.push(latency_ns);
        self.commit_bytes += bytes;
        self.inner.prof_repl_commit(channel, bytes, latency_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use native::NativeWorld;

    #[test]
    fn self_time_excludes_children_and_ids_follow_the_top_span() {
        NativeWorld::new(1).with_compute_scale(0.0).run(|rank| {
            let mut t = Traced::new(rank, Instant::now());
            t.prof_begin("stream.isend");
            t.send(0, Tag::user(1), 8, 7u64);
            t.prof_end("stream.isend");
            t.prof_begin("stream.isend");
            let (v, _) = t.recv::<u64>(Src::Rank(0), Tag::user(1));
            t.prof_end("stream.isend");
            assert_eq!(v, 7);
            let spans = t.spans.clone();
            assert_eq!(spans.len(), 4);
            assert_eq!(spans[1].id, spans[0].id);
            assert_eq!(spans[3].id, spans[2].id);
            assert_ne!(spans[0].id, spans[2].id);
            let (tr, _) = t.finish();
            let isend = tr.ops.iter().find(|o| o.name == "stream.isend").unwrap();
            let inner = tr.dur(&["transport.send", "transport.recv"]);
            assert_eq!(isend.count, 2);
            assert_eq!(isend.self_ns, isend.dur_ns - inner);
            assert_eq!((tr.data_sends, tr.credit_sends, tr.count(&["transport.send"])), (0, 0, 1));
        });
    }
}

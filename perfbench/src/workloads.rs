//! The four workloads. Each invocation of the binary runs one world of
//! one workload: set-up, then a fixed number of fixed-size jobs
//! ([`Workload::jobs_per_world`]), every job checked against its oracle. With tracing on, every
//! other job (block, for echo) runs through [`Traced`], so the traced and
//! untraced jobs of one world interleave and their ratio is the tracing
//! overhead.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use apps::portable::{mini_mapreduce, mini_mapreduce_oracle, MiniMrConfig};
use mpistream::transport::SimDuration;
use mpistream::{ChannelConfig, Role, RoutePolicy, Stream, StreamChannel, Transport};
use native::NativeWorld;
use replica::{run_replicated, ReplicaRole, ReplicatedProducer};
use socket::SocketWorld;

use crate::traced::{dump_spans, RankTrace, Traced};

/// Elements per producer per `pipeline_native` job.
pub const PIPELINE_PER_PRODUCER: u64 = 100_000;
/// Elements per producer per `replicated_native` job.
pub const REPLICATED_PER_PRODUCER: u64 = 10_000;
/// Round trips per `echo_socket` block.
pub const ECHO_BLOCK: u64 = 200;
/// Every `STRIDE`-th element of a pipeline job is stamped at creation
/// and timed at its fold.
const STRIDE: u64 = 64;
/// Low bits of a pipeline element carry `base + index`; the bits above
/// carry the producer.
const VALUE_BITS: u32 = 40;
const N_PRODUCERS: usize = 2;

/// The `mapreduce_socket` job: `mini_mapreduce` with one local reducer
/// and one master for two mappers; 2,048 tokens over 256 words make
/// each map-output chunk about 256 `(u32, u32)` pairs, 2 KB.
pub fn mapreduce_config() -> MiniMrConfig {
    MiniMrConfig {
        every: 2,
        vocab: 256,
        chunks_per_mapper: 24,
        tokens_per_chunk: 2048,
        ..MiniMrConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PipelineNative,
    ReplicatedNative,
    MapreduceSocket,
    EchoSocket,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "pipeline_native" => Workload::PipelineNative,
            "replicated_native" => Workload::ReplicatedNative,
            "mapreduce_socket" => Workload::MapreduceSocket,
            "echo_socket" => Workload::EchoSocket,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineNative => "pipeline_native",
            Workload::ReplicatedNative => "replicated_native",
            Workload::MapreduceSocket => "mapreduce_socket",
            Workload::EchoSocket => "echo_socket",
        }
    }

    pub fn backend(self) -> &'static str {
        match self {
            Workload::PipelineNative | Workload::ReplicatedNative => "native",
            Workload::MapreduceSocket | Workload::EchoSocket => "socket",
        }
    }

    /// Jobs (blocks of round trips, for echo) one world runs: each world
    /// does the same work, so its set-up and memory compare across worlds.
    pub fn jobs_per_world(self) -> u64 {
        match self {
            Workload::PipelineNative | Workload::ReplicatedNative => 12,
            Workload::MapreduceSocket => 200,
            Workload::EchoSocket => 64,
        }
    }

    pub fn nprocs(self) -> usize {
        match self {
            Workload::PipelineNative => 3,
            Workload::ReplicatedNative => 5,
            Workload::MapreduceSocket => 4,
            Workload::EchoSocket => 2,
        }
    }
}

/// Verdict of one job on one rank.
pub const FAIL: u8 = 0;
pub const PASS: u8 = 1;
/// This rank checks nothing in this workload.
pub const UNCHECKED: u8 = 2;

/// One job as one rank saw it.
#[derive(Clone, Debug, Default)]
pub struct JobRec {
    /// Start barrier to end of the job on this rank.
    pub t_ns: u64,
    /// Elements (round trips, chunks) the job completed.
    pub units: u64,
    pub verdict: u8,
    pub err: String,
    pub traced: bool,
    /// Final replica view (replicated consumers; 0 elsewhere).
    pub view: u64,
    pub trace: RankTrace,
}

mpistream::wire_struct!(JobRec { t_ns, units, verdict, err, traced, view, trace });

impl JobRec {
    /// A job this rank checked: it passed when `err` is empty.
    fn checked(units: u64, err: String) -> JobRec {
        let verdict = if err.is_empty() { PASS } else { FAIL };
        JobRec { units, verdict, err, ..JobRec::default() }
    }

    /// A job this rank took part in without checking anything.
    fn unchecked(units: u64) -> JobRec {
        JobRec { units, verdict: UNCHECKED, ..JobRec::default() }
    }
}

/// Everything one rank reports from one world.
#[derive(Clone, Debug, Default)]
pub struct RankOut {
    pub rank: usize,
    /// Launch to entry into the rank's body.
    pub spawn_ns: u64,
    /// Launch to this rank passing the first barrier after set-up.
    pub setup_ns: u64,
    /// Peak resident set of this rank's process (socket ranks).
    pub rss_kb: u64,
    /// Time of the serial oracle of one job (mapreduce master).
    pub serial_ns: u64,
    /// Per-unit latencies of untraced jobs.
    pub lat_ns: Vec<u64>,
    /// Traced set-up region (echo creates its channels there).
    pub setup_trace: RankTrace,
    pub jobs: Vec<JobRec>,
}

mpistream::wire_struct!(RankOut {
    rank,
    spawn_ns,
    setup_ns,
    rss_kb,
    serial_ns,
    lat_ns,
    setup_trace,
    jobs
});

/// Run-wide settings every rank sees.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub seed: u64,
    pub trace: bool,
}

/// Run `$body` with `$r` bound either to `$rank` itself or to a
/// [`Traced`] wrapper around it; yields `(value, RankTrace)` (an empty
/// trace when untraced). A traced region's spans replace `$spans`.
macro_rules! maybe_traced {
    ($rank:expr, $on:expr, $epoch:expr, $spans:expr, |$r:ident| $body:expr) => {
        if $on {
            let mut t = Traced::new(&mut *$rank, $epoch);
            let out = {
                let $r = &mut t;
                $body
            };
            let (trace, spans) = t.finish();
            $spans = spans;
            (out, trace)
        } else {
            let $r = &mut *$rank;
            ($body, RankTrace::default())
        }
    };
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Peak resident set of this process, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// pipeline_native and replicated_native
// ---------------------------------------------------------------------

/// Producer `p`'s seeded base for job `job`; element `i` is
/// `p << VALUE_BITS | (base + i)`.
fn pipeline_base(seed: u64, job: u64, p: usize) -> u64 {
    splitmix(seed ^ splitmix(job << 8 | p as u64)) & ((1 << (VALUE_BITS - 1)) - 1)
}

/// Closed form of the wrapping sum of every element of a job.
pub fn pipeline_sum(seed: u64, job: u64, per_producer: u64) -> u64 {
    (0..N_PRODUCERS).fold(0u64, |acc, p| {
        let n = per_producer;
        let base = pipeline_base(seed, job, p);
        let tri = n * (n - 1) / 2;
        acc.wrapping_add(n.wrapping_mul((p as u64) << VALUE_BITS))
            .wrapping_add(n.wrapping_mul(base))
            .wrapping_add(tri)
    })
}

fn pipeline_channel(replicated: bool) -> ChannelConfig {
    ChannelConfig {
        element_bytes: 8,
        aggregation: 8,
        credits: Some(32),
        route: RoutePolicy::Static,
        credit_batch: 8,
        // Wall clock. The replicated producers and consumers wait at most
        // this long per tick, and a waiter that misses a wake-up resumes
        // only at its tick: 500 ms stalled 1.5% of jobs by 0.5-1 s, 50 ms
        // bounds those stalls to 50 ms. Failover patience derives to 4x,
        // 200 ms, still well above a live primary's silences.
        failure_timeout: replicated.then(|| SimDuration::from_millis(50)),
        replicas: if replicated { 2 } else { 0 },
        replication_patience: None,
    }
}

/// Creation stamps of every `STRIDE`-th element, per producer, in
/// nanoseconds since the world's launch.
struct Stamps {
    launch: Instant,
    slots: Vec<Vec<AtomicU64>>,
}

impl Stamps {
    fn now(&self) -> u64 {
        self.launch.elapsed().as_nanos() as u64
    }

    /// Record element `v`'s latency if it is a stamped one.
    fn observe(&self, v: u64, bases: &[u64], out: &mut Vec<u64>) {
        let p = (v >> VALUE_BITS) as usize;
        let i = (v & ((1 << VALUE_BITS) - 1)).wrapping_sub(bases[p]);
        if i.is_multiple_of(STRIDE) {
            let sent = self.slots[p][(i / STRIDE) as usize].load(Ordering::Relaxed);
            out.push(self.now().saturating_sub(sent));
        }
    }
}

/// One pipeline job's data phase on one rank.
fn pipeline_data<TP: Transport>(
    r: &mut TP,
    ch: StreamChannel,
    replicated: bool,
    expect: (u64, u64),
    bases: &[u64],
    stamps: &Stamps,
    lat: &mut Vec<u64>,
) -> JobRec {
    let me = r.world_rank();
    let per = expect.1 / N_PRODUCERS as u64;
    if me < N_PRODUCERS {
        let hi = (me as u64) << VALUE_BITS;
        let base = bases[me];
        let stamp = |i: u64| {
            if i.is_multiple_of(STRIDE) {
                stamps.slots[me][(i / STRIDE) as usize].store(stamps.now(), Ordering::Relaxed);
            }
        };
        if replicated {
            let mut p: ReplicatedProducer<u64> = ReplicatedProducer::new(ch);
            for i in 0..per {
                stamp(i);
                r.prof_begin("replica.push");
                p.push(r, hi | (base + i));
                r.prof_end("replica.push");
            }
            r.prof_begin("replica.finish");
            let fin = p.finish(r);
            r.prof_end("replica.finish");
            let err = if fin.sent == per {
                String::new()
            } else {
                format!("producer {me} sent {}", fin.sent)
            };
            JobRec { view: fin.view, ..JobRec::checked(per, err) }
        } else {
            let mut s: Stream<u64> = Stream::attach(ch);
            for i in 0..per {
                stamp(i);
                r.prof_begin("stream.isend");
                s.isend(r, hi | (base + i));
                r.prof_end("stream.isend");
            }
            r.prof_begin("stream.terminate");
            s.terminate(r);
            r.prof_end("stream.terminate");
            JobRec::unchecked(per)
        }
    } else if replicated {
        let out = run_replicated::<u64, (u64, u64), _, _>(r, &ch, (0, 0), |_, acc, v| {
            stamps.observe(v, bases, lat);
            acc.0 = acc.0.wrapping_add(v);
            acc.1 += 1;
            ControlFlow::Continue(())
        });
        let rec = match out.role {
            ReplicaRole::Primary if out.state == expect => {
                JobRec::checked(out.state.1, String::new())
            }
            ReplicaRole::Primary => {
                JobRec::checked(out.state.1, format!("primary state {:?} != {expect:?}", out.state))
            }
            ReplicaRole::Standby => JobRec::unchecked(0),
            ReplicaRole::Died => JobRec::checked(0, format!("replica {me} died")),
        };
        JobRec { view: out.view, ..rec }
    } else {
        let mut s: Stream<u64> = Stream::attach(ch);
        let (mut sum, mut n) = (0u64, 0u64);
        r.prof_begin("stream.operate");
        s.operate(r, |_, v| {
            stamps.observe(v, bases, lat);
            sum = sum.wrapping_add(v);
            n += 1;
        });
        r.prof_end("stream.operate");
        let err = if (sum, n) == expect {
            String::new()
        } else {
            format!("folded {:?}, closed form {expect:?}", (sum, n))
        };
        JobRec::checked(n, err)
    }
}

/// `pipeline_native` or `replicated_native`.
pub fn run_pipeline(w: Workload, set: Settings) -> Vec<RankOut> {
    let replicated = w == Workload::ReplicatedNative;
    let per = if replicated { REPLICATED_PER_PRODUCER } else { PIPELINE_PER_PRODUCER };
    let outs = Mutex::new(Vec::new());
    let launch = Instant::now();
    let stamps = Stamps {
        launch,
        slots: (0..N_PRODUCERS)
            .map(|_| (0..per.div_ceil(STRIDE)).map(|_| AtomicU64::new(0)).collect())
            .collect(),
    };
    NativeWorld::new(w.nprocs()).with_compute_scale(0.0).run(|rank| {
        let mut out = RankOut { rank: rank.world_rank(), ..RankOut::default() };
        out.spawn_ns = launch.elapsed().as_nanos() as u64;
        let world = rank.world_group();
        rank.barrier(&world);
        out.setup_ns = launch.elapsed().as_nanos() as u64;
        let role = if out.rank < N_PRODUCERS { Role::Producer } else { Role::Consumer };
        let epoch = Instant::now();
        let mut spans = Vec::new();
        for job in 0..w.jobs_per_world() {
            let traced = set.trace && job % 2 == 1;
            let bases: Vec<u64> =
                (0..N_PRODUCERS).map(|p| pipeline_base(set.seed, job, p)).collect();
            let expect = (pipeline_sum(set.seed, job, per), per * N_PRODUCERS as u64);
            let (ch, mut trace) = maybe_traced!(rank, traced, epoch, spans, |r| {
                r.prof_begin("stream.create");
                let ch = StreamChannel::create(r, &world, role, pipeline_channel(replicated));
                r.prof_end("stream.create");
                ch
            });
            rank.barrier(&world);
            let t0 = Instant::now();
            let mut lat = Vec::new();
            let (rec, data_trace) = maybe_traced!(rank, traced, epoch, spans, |r| {
                pipeline_data(r, ch, replicated, expect, &bases, &stamps, &mut lat)
            });
            rank.barrier(&world);
            let t_ns = t0.elapsed().as_nanos() as u64;
            if !traced {
                out.lat_ns.extend(lat);
            }
            trace.merge(data_trace);
            out.jobs.push(JobRec { t_ns, traced, trace, ..rec });
        }
        dump_spans(out.rank, &spans);
        outs.lock().expect("no rank panicked").push(out);
    });
    let mut outs = outs.into_inner().expect("no rank panicked");
    outs.sort_by_key(|o| o.rank);
    outs
}

// ---------------------------------------------------------------------
// Socket worlds
// ---------------------------------------------------------------------

const LAUNCH_ENV: &str = "PERFBENCH_LAUNCH_NS";

fn unix_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64)
}

/// Nanoseconds since the launcher started the world: the launcher
/// exports its start time before forking, every rank process inherits
/// it, and all of them read the same system-wide clock.
fn since_launch() -> u64 {
    let launch: u64 = std::env::var(LAUNCH_ENV).ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    unix_ns().saturating_sub(launch)
}

fn socket_world(w: Workload, key: &str) -> SocketWorld {
    if std::env::var_os("MPISTREAM_SOCKET_KEY").is_none() {
        std::env::set_var(LAUNCH_ENV, unix_ns().to_string());
    }
    SocketWorld::new(key, w.nprocs()).with_compute_scale(0.0)
}

// ---------------------------------------------------------------------
// mapreduce_socket
// ---------------------------------------------------------------------

/// World ranks of the mappers and the master of the job (rank 1 is the
/// local reducer).
pub const MR_MAPPERS: [usize; 2] = [0, 2];
pub const MR_MASTER: usize = 3;

pub fn run_mapreduce(set: Settings) -> Vec<RankOut> {
    let cfg = mapreduce_config();
    let mut outs = socket_world(Workload::MapreduceSocket, "perfbench-mapreduce").run(|rank| {
        let mut out = RankOut { rank: rank.world_rank(), ..RankOut::default() };
        out.spawn_ns = since_launch();
        let world = rank.world_group();
        rank.barrier(&world);
        out.setup_ns = since_launch();
        let nprocs = rank.world_size();
        let oracle = (out.rank == MR_MASTER).then(|| {
            let t = Instant::now();
            let hist = mini_mapreduce_oracle(nprocs, &cfg);
            out.serial_ns = t.elapsed().as_nanos() as u64;
            hist
        });
        let units = (MR_MAPPERS.len() * cfg.chunks_per_mapper) as u64;
        let epoch = Instant::now();
        let mut spans = Vec::new();
        for job in 0..Workload::MapreduceSocket.jobs_per_world() {
            let traced = set.trace && job % 2 == 1;
            rank.barrier(&world);
            let t0 = Instant::now();
            let (hist, trace) =
                maybe_traced!(rank, traced, epoch, spans, |r| mini_mapreduce(r, &cfg));
            let rec = match (&oracle, hist) {
                (Some(want), Some(got)) if *want == got => JobRec::checked(units, String::new()),
                (Some(_), Some(_)) => {
                    JobRec::checked(units, "histogram differs from the serial oracle".into())
                }
                (Some(_), None) => JobRec::checked(units, "master returned no histogram".into()),
                (None, Some(_)) => {
                    JobRec::checked(units, "a non-master returned a histogram".into())
                }
                (None, None) => JobRec::unchecked(units),
            };
            let t_ns = t0.elapsed().as_nanos() as u64;
            if !traced && out.rank == MR_MASTER {
                out.lat_ns.push(t_ns);
            }
            out.jobs.push(JobRec { t_ns, traced, trace, ..rec });
        }
        dump_spans(out.rank, &spans);
        out.rss_kb = peak_rss_kb();
        out
    });
    outs.sort_by_key(|o| o.rank);
    outs
}

// ---------------------------------------------------------------------
// echo_socket
// ---------------------------------------------------------------------

/// The `k`-th request of the run: a seeded value and its round index.
pub fn echo_request(seed: u64, k: u64) -> (u64, u64) {
    (splitmix(seed ^ splitmix(k)), k)
}

pub fn run_echo(set: Settings) -> Vec<RankOut> {
    let mut outs = socket_world(Workload::EchoSocket, "perfbench-echo").run(|rank| {
        let me = rank.world_rank();
        let mut out = RankOut { rank: me, ..RankOut::default() };
        out.spawn_ns = since_launch();
        let world = rank.world_group();
        let epoch = Instant::now();
        let mut spans = Vec::new();
        let config =
            ChannelConfig { element_bytes: 16, aggregation: 1, ..ChannelConfig::default() };
        let ((req, rep), setup_trace) = maybe_traced!(rank, set.trace, epoch, spans, |r| {
            r.prof_begin("stream.create");
            let req_role = if me == 0 { Role::Producer } else { Role::Consumer };
            let rep_role = if me == 0 { Role::Consumer } else { Role::Producer };
            let req = StreamChannel::create(r, &world, req_role, config.clone());
            let rep = StreamChannel::create(r, &world, rep_role, config.clone());
            r.prof_end("stream.create");
            (req, rep)
        });
        out.setup_trace = setup_trace;
        rank.barrier(&world);
        out.setup_ns = since_launch();
        let mut req: Stream<(u64, u64)> = Stream::attach(req);
        let mut rep: Stream<(u64, u64)> = Stream::attach(rep);
        let mut k = 0u64;
        for block in 0.. {
            let traced = set.trace && block % 2 == 1;
            if me == 0 && block == Workload::EchoSocket.jobs_per_world() {
                req.terminate(rank);
                if rep.recv_one(rank).is_some() {
                    let err = "reply after the last request".to_string();
                    out.jobs.push(JobRec { verdict: FAIL, err, ..JobRec::default() });
                }
                break;
            }
            let t0 = Instant::now();
            let mut lat = Vec::with_capacity(ECHO_BLOCK as usize);
            let (rec, trace) = maybe_traced!(rank, traced, epoch, spans, |r| {
                if me == 0 {
                    Some(echo_client_block(r, &mut req, &mut rep, set.seed, &mut k, &mut lat))
                } else {
                    echo_server_block(r, &mut req, &mut rep)
                }
            });
            let t_ns = t0.elapsed().as_nanos() as u64;
            let Some(rec) = rec else { break };
            if !traced {
                out.lat_ns.extend(lat);
            }
            out.jobs.push(JobRec { t_ns, traced, trace, ..rec });
        }
        dump_spans(me, &spans);
        out.rss_kb = peak_rss_kb();
        out
    });
    outs.sort_by_key(|o| o.rank);
    outs
}

/// One block of round trips on the client.
fn echo_client_block<TP: Transport>(
    r: &mut TP,
    req: &mut Stream<(u64, u64)>,
    rep: &mut Stream<(u64, u64)>,
    seed: u64,
    k: &mut u64,
    lat: &mut Vec<u64>,
) -> JobRec {
    let mut err = String::new();
    for _ in 0..ECHO_BLOCK {
        let want = echo_request(seed, *k);
        r.prof_begin("app.round");
        let t = Instant::now();
        r.prof_begin("stream.isend");
        req.isend(r, want);
        r.prof_end("stream.isend");
        r.prof_begin("stream.recv_one");
        let got = rep.recv_one(r);
        r.prof_end("stream.recv_one");
        lat.push(t.elapsed().as_nanos() as u64);
        r.prof_end("app.round");
        if got != Some(want) && err.is_empty() {
            err = format!("round {}: sent {want:?}, echoed {got:?}", *k);
        }
        *k += 1;
    }
    JobRec::checked(ECHO_BLOCK, err)
}

/// One block on the server: echo up to [`ECHO_BLOCK`] requests. `None`
/// once the client's `Term` has ended the run.
fn echo_server_block<TP: Transport>(
    r: &mut TP,
    req: &mut Stream<(u64, u64)>,
    rep: &mut Stream<(u64, u64)>,
) -> Option<JobRec> {
    for _ in 0..ECHO_BLOCK {
        r.prof_begin("stream.recv_one");
        let got = req.recv_one(r);
        r.prof_end("stream.recv_one");
        match got {
            Some(x) => {
                r.prof_begin("stream.isend");
                rep.isend(r, x);
                r.prof_end("stream.isend");
            }
            None => {
                rep.terminate(r);
                return None;
            }
        }
    }
    Some(JobRec::unchecked(ECHO_BLOCK))
}

//! Multi-process [`Transport`] backend: every rank a separate OS
//! process, linked by framed Unix-domain sockets.
//!
//! The paper's decoupling strategy assumes compute and data-movement
//! groups that could live on different nodes; the sim and native
//! backends still share one address space. This backend takes the same
//! stream programs across a real process boundary: payloads cross the
//! [`Wire`] codec (DESIGN.md §16), matching happens in the exact same
//! [`Mailbox`] the native backend uses (lock-free MPSC staging +
//! eventcount park, so the schedcheck models of that structure still
//! apply), and the rank is the native crate's shared [`MailboxRank`]
//! runtime — [`SocketRank`] is `MailboxRank<SocketLink>` — so
//! collectives are genuine network rendezvous over the same overlays as
//! on native threads: a flat star up to 64 ranks, a binomial tree above.
//!
//! ## Topology
//!
//! A [`SocketWorld::run`] in the **launcher** process re-executes the
//! current binary once per rank (`fork`/`exec` with a
//! `MPISTREAM_SOCKET_*` env handshake). Each child:
//!
//! 1. binds its data listener `dir/rank<r>.sock`, *then* greets the
//!    launcher over `dir/ctl.sock` — so once the launcher releases the
//!    world (GO), every listener is guaranteed to exist and
//!    connect-on-first-use cannot race;
//! 2. runs the body against a [`SocketRank`]; an acceptor thread plus
//!    one reader thread per inbound link decode frames into the mailbox
//!    concurrently with the body;
//! 3. ships its [`Wire`]-encoded result back on the control link and
//!    parks until the launcher's ALL_DONE — a close barrier: no rank
//!    exits while a peer might still be writing to it, so teardown
//!    never manufactures connection-reset errors.
//!
//! Exactly **one** `SocketWorld::run` per process: in a child, `run`
//! never returns (the process exits after the body), and a second run
//! with a different key panics immediately instead of forking the
//! world's children again. In `cargo test`, give each socket test its
//! own `#[test]` fn, construct the world with [`SocketWorld::for_test`],
//! and put the socket run *first* in the fn so re-executed children
//! reach it before any sim/native comparison work.

pub mod frame;

use std::any::Any;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpistream::{MsgInfo, Tag, Wire, MAX_FRAME_BYTES};
use native::mailbox::{Env, Mailbox};
use native::sync::Instant;
use native::{Link, MailboxGroup, MailboxRank};

/// Launch-handshake environment variables.
const ENV_KEY: &str = "MPISTREAM_SOCKET_KEY";
const ENV_RANK: &str = "MPISTREAM_SOCKET_RANK";
const ENV_WORLD: &str = "MPISTREAM_SOCKET_WORLD";
const ENV_DIR: &str = "MPISTREAM_SOCKET_DIR";
const ENV_SCALE: &str = "MPISTREAM_SOCKET_SCALE";

/// Control-plane bytes.
const CTL_GO: u8 = 0x47;
const CTL_ALL_DONE: u8 = 0x44;

/// How long control-plane reads (HELLO, results) and first-use data
/// connects may take before the run is declared wedged.
const CTL_TIMEOUT: Duration = Duration::from_secs(120);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Capacity of each link's write buffer and each reader's read buffer.
/// A frame up to this size leaves in one `write(2)`, a larger one in two.
/// 64 KiB is many times a 2 KB map-output chunk or any control frame,
/// and below Linux's default Unix-socket send buffer (208 KiB), so one
/// full buffer normally fits into the socket in a single write.
const LINK_BUF_BYTES: usize = 64 << 10;

/// One socket rank: the per-process handle [`SocketWorld::run`] passes
/// to the body.
pub type SocketRank = MailboxRank<SocketLink>;

/// A socket world: `nprocs` ranks, each its own OS process.
pub struct SocketWorld {
    key: String,
    nprocs: usize,
    compute_scale: f64,
    /// `None`: re-exec with this process's own argv (examples/binaries).
    /// `Some`: explicit child argv (libtest filter args, see
    /// [`SocketWorld::for_test`]).
    child_args: Option<Vec<String>>,
    /// Death-tolerant mode (see [`SocketWorld::death_tolerant`]).
    tolerant: bool,
}

impl SocketWorld {
    /// A world of `nprocs` ranks keyed by `key` (any string unique to
    /// this call site within the binary). Children re-exec the current
    /// binary with its original arguments.
    pub fn new(key: &str, nprocs: usize) -> SocketWorld {
        assert!(nprocs > 0, "a world needs at least one rank");
        SocketWorld {
            key: key.to_string(),
            nprocs,
            compute_scale: 1.0,
            child_args: None,
            tolerant: false,
        }
    }

    /// A world for use inside `#[test]` fns under the libtest harness:
    /// `test_path` must be the test's full name (e.g.
    /// `"socket_quickstart_matches"`, with module prefixes if any) — it
    /// doubles as the world key and as the `--exact` filter children
    /// re-run, so each child executes only the calling test.
    pub fn for_test(test_path: &str, nprocs: usize) -> SocketWorld {
        SocketWorld {
            child_args: Some(vec![
                test_path.to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
            ]),
            ..SocketWorld::new(test_path, nprocs)
        }
    }

    /// Wall-clock seconds slept per modelled compute second (default
    /// 1.0), forwarded to every child through the env handshake.
    pub fn with_compute_scale(mut self, scale: f64) -> SocketWorld {
        assert!(scale.is_finite() && scale >= 0.0, "compute_scale must be finite and >= 0");
        self.compute_scale = scale;
        self
    }

    /// Tolerate rank death: a rank process that vanishes mid-run (kill,
    /// abort, crash) no longer takes the world down with it. Sends to a
    /// dead peer are silently dropped (the peer is remembered as dead —
    /// no reconnect storms), readers treat a broken inbound link as EOF,
    /// and the launcher reports the dead rank as `None` instead of
    /// panicking. Pair with [`SocketWorld::run_tolerant`]; fault-free
    /// runs behave identically to the strict mode.
    pub fn death_tolerant(mut self) -> SocketWorld {
        self.tolerant = true;
        self
    }

    /// Run `body` once per rank, each in its own OS process, and return
    /// every rank's result in rank order.
    ///
    /// In the launcher this forks the children and collects their
    /// [`Wire`]-encoded results; in a child it runs `body` and **never
    /// returns** (the process exits after the close barrier). The body
    /// must be deterministic in what *type* it returns — the launcher
    /// decodes exactly `R` from every rank.
    pub fn run<R, F>(&self, body: F) -> Vec<R>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        assert!(
            !self.tolerant,
            "a death-tolerant world must use run_tolerant: a dead rank has no result, \
             so the launcher returns Vec<Option<R>>"
        );
        self.run_tolerant(body)
            .into_iter()
            .map(|r| r.expect("strict launcher panics before recording a dead rank"))
            .collect()
    }

    /// Like [`SocketWorld::run`], but for a [death-tolerant]
    /// world: ranks that die mid-run come back as `None`, every
    /// surviving rank's result as `Some`.
    ///
    /// [death-tolerant]: SocketWorld::death_tolerant
    pub fn run_tolerant<R, F>(&self, body: F) -> Vec<Option<R>>
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        match std::env::var(ENV_KEY) {
            Err(_) => self.run_launcher(),
            Ok(k) if k == self.key => self.run_child(body),
            Ok(k) => panic!(
                "this process was launched as a rank of socket world {k:?} but reached \
                 SocketWorld::run for {:?} first — keep exactly one SocketWorld::run per \
                 test/process and put it before any other backend runs",
                self.key
            ),
        }
    }

    fn run_launcher<R: Wire>(&self) -> Vec<Option<R>> {
        let dir = scratch_dir(&self.key);
        std::fs::create_dir_all(&dir).expect("create socket scratch dir");
        let listener = UnixListener::bind(dir.join("ctl.sock")).expect("bind control socket");
        listener.set_nonblocking(true).expect("nonblocking control listener");

        let exe = std::env::current_exe().expect("resolve current executable");
        let args: Vec<String> =
            self.child_args.clone().unwrap_or_else(|| std::env::args().skip(1).collect());
        let mut guard = LaunchGuard { children: Vec::new(), dir: dir.clone() };
        for r in 0..self.nprocs {
            let child = Command::new(&exe)
                .args(&args)
                .env(ENV_KEY, &self.key)
                .env(ENV_RANK, r.to_string())
                .env(ENV_WORLD, self.nprocs.to_string())
                .env(ENV_DIR, &dir)
                .env(ENV_SCALE, self.compute_scale.to_string())
                .spawn()
                .expect("spawn rank process");
            guard.children.push(child);
        }

        // Accept one HELLO per rank; each child binds its data listener
        // before greeting, so past this loop every listener exists.
        let deadline = std::time::Instant::now() + CTL_TIMEOUT;
        let mut conns: Vec<Option<UnixStream>> = (0..self.nprocs).map(|_| None).collect();
        let mut accepted = 0;
        while accepted < self.nprocs {
            match listener.accept() {
                Ok((mut s, _)) => {
                    s.set_nonblocking(false).expect("blocking control conn");
                    s.set_read_timeout(Some(CTL_TIMEOUT)).expect("control read timeout");
                    let mut hello = [0u8; 4];
                    s.read_exact(&mut hello).expect("read HELLO");
                    let r = u32::from_le_bytes(hello) as usize;
                    assert!(r < self.nprocs, "HELLO from out-of-range rank {r}");
                    assert!(conns[r].is_none(), "duplicate HELLO from rank {r}");
                    conns[r] = Some(s);
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    guard.check_alive();
                    assert!(
                        std::time::Instant::now() < deadline,
                        "socket world {:?}: timed out waiting for rank handshakes \
                         ({accepted}/{} arrived)",
                        self.key,
                        self.nprocs
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("control accept failed: {e}"),
            }
        }
        let mut conns: Vec<UnixStream> = conns.into_iter().map(|c| c.expect("all ranks")).collect();

        for c in &mut conns {
            c.write_all(&[CTL_GO]).expect("send GO");
        }
        // Collect results in rank order, then release everyone at once:
        // the ALL_DONE close barrier keeps ranks alive until no peer can
        // still be writing to them.
        let mut results = Vec::with_capacity(self.nprocs);
        for (r, c) in conns.iter_mut().enumerate() {
            match frame::read_blob(c) {
                Ok(blob) => results.push(Some(R::from_frame(&blob).unwrap_or_else(|e| {
                    panic!("rank {r} returned a malformed result frame: {e}")
                }))),
                Err(_) if self.tolerant => results.push(None),
                Err(e) => panic!("rank {r} died before returning a result: {e}"),
            }
        }
        for (r, c) in conns.iter_mut().enumerate() {
            // A dead rank's control link is gone; releasing it is a no-op.
            let released = c.write_all(&[CTL_ALL_DONE]);
            if results[r].is_some() {
                released.expect("send ALL_DONE");
            }
        }
        for (r, mut child) in guard.children.drain(..).enumerate() {
            let status = child.wait().expect("wait for rank process");
            if results[r].is_some() {
                assert!(status.success(), "rank {r} exited with {status}");
            }
        }
        drop(guard); // removes the scratch dir
        results
    }

    fn run_child<R, F>(&self, body: F) -> !
    where
        R: Wire,
        F: FnOnce(&mut SocketRank) -> R,
    {
        let rank: usize = env_parsed(ENV_RANK);
        let nprocs: usize = env_parsed(ENV_WORLD);
        assert_eq!(
            nprocs, self.nprocs,
            "world size mismatch: launched with {nprocs} ranks, call site says {}",
            self.nprocs
        );
        let dir = PathBuf::from(std::env::var(ENV_DIR).expect("socket dir env"));
        let compute_scale: f64 = env_parsed(ENV_SCALE);

        // Data listener first, HELLO second — the ordering GO relies on.
        let mailbox = Arc::new(Mailbox::new());
        let listener = UnixListener::bind(rank_sock(&dir, rank)).expect("bind data listener");
        let mut ctl =
            connect_retry(&dir.join("ctl.sock"), CONNECT_TIMEOUT).expect("connect control socket");
        ctl.set_read_timeout(Some(CTL_TIMEOUT)).expect("control read timeout");
        ctl.write_all(&(rank as u32).to_le_bytes()).expect("send HELLO");
        let mut go = [0u8; 1];
        ctl.read_exact(&mut go).expect("read GO");
        assert_eq!(go[0], CTL_GO, "unexpected control byte");

        {
            let mailbox = Arc::clone(&mailbox);
            let tolerant = self.tolerant;
            std::thread::spawn(move || acceptor_loop(listener, mailbox, tolerant));
        }

        let link = SocketLink::new(rank, nprocs, dir, Arc::clone(&mailbox), self.tolerant);
        let world = MailboxGroup::world(nprocs);
        let mut sr = MailboxRank::new(rank, world, Instant::now(), compute_scale, mailbox, link);
        let result = body(&mut sr);
        frame::write_blob(&mut ctl, &result.to_frame()).expect("ship result");
        let mut done = [0u8; 1];
        ctl.read_exact(&mut done).expect("read ALL_DONE");
        assert_eq!(done[0], CTL_ALL_DONE, "unexpected control byte");
        // Reader/acceptor threads die with the process; the close
        // barrier above guarantees no peer still needs this rank.
        std::process::exit(0);
    }
}

/// Kills any still-running children and removes the scratch directory —
/// on the success path the children vec has been drained first.
struct LaunchGuard {
    children: Vec<Child>,
    dir: PathBuf,
}

impl LaunchGuard {
    /// Fail fast if a child already died during the handshake.
    fn check_alive(&mut self) {
        for (r, c) in self.children.iter_mut().enumerate() {
            if let Ok(Some(status)) = c.try_wait() {
                if !status.success() {
                    panic!("rank {r} exited with {status} during the handshake");
                }
            }
        }
    }
}

impl Drop for LaunchGuard {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn env_parsed<T: std::str::FromStr>(name: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    std::env::var(name)
        .unwrap_or_else(|_| panic!("{name} not set in rank process"))
        .parse()
        .unwrap_or_else(|e| panic!("{name} unparseable: {e:?}"))
}

fn rank_sock(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.sock"))
}

/// Per-run scratch directory under the system temp dir. Keyed by pid +
/// a process-wide counter (several sequential worlds in one launcher) +
/// a hash of the world key, kept short for the Unix socket path limit.
fn scratch_dir(key: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    std::env::temp_dir().join(format!("mpws-{}-{n}-{h:08x}", std::process::id()))
}

fn connect_retry(path: &Path, total: Duration) -> std::io::Result<UnixStream> {
    let deadline = std::time::Instant::now() + total;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Accept inbound links forever (until process exit), one reader thread
/// per connection. Readers assemble frames independently of the
/// consumer, so a recv deadline expiring while a frame is in flight
/// never corrupts the link — the frame simply lands in the mailbox when
/// complete.
fn acceptor_loop(listener: UnixListener, mailbox: Arc<Mailbox>, tolerant: bool) {
    for conn in listener.incoming() {
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mailbox = Arc::clone(&mailbox);
        std::thread::spawn(move || {
            let src = match frame::read_preamble(&mut stream) {
                Ok(src) => src,
                Err(_) if tolerant => return, // peer died right after dialling
                Err(e) => panic!("connection preamble: {e}"),
            };
            reader_loop(stream, src, &mailbox, tolerant);
        });
    }
}

/// Decode frames from one inbound link into the mailbox until clean
/// EOF. Malformed traffic from a peer is fatal to this rank (the peers
/// are our own world; garbage means a protocol bug, not hostile input —
/// the codec itself reports it as a typed error first) — except under
/// `tolerant`, where a broken link (the peer process died mid-frame) is
/// treated as end-of-stream.
pub fn reader_loop(stream: UnixStream, src: usize, mailbox: &Mailbox, tolerant: bool) {
    let mut stream = BufReader::with_capacity(LINK_BUF_BYTES, stream);
    loop {
        match frame::read_frame(&mut stream) {
            Ok(Some((tag, bytes, payload))) => {
                mailbox.push(Env { src, tag: Tag(tag), bytes, payload: Box::new(payload) });
            }
            Ok(None) => break,
            Err(_) if tolerant => break,
            Err(e) => panic!("reader for link from rank {src}: {e}"),
        }
    }
}

/// A fresh outbound link: the connection preamble for sender `src` sits
/// in the link's buffer and leaves with the first frame.
fn open_link<W: Write>(inner: W, src: usize) -> BufWriter<W> {
    let mut w = BufWriter::with_capacity(LINK_BUF_BYTES, inner);
    frame::write_preamble(&mut w, src).expect("the preamble fits an empty link buffer");
    w
}

/// Send one frame on a link: assemble it in the link's buffer, then
/// flush before returning. A frame of up to [`LINK_BUF_BYTES`] (preamble
/// included) costs one `write` on the inner stream, a larger one at most
/// two. Frames are never held back to batch with later sends, so a rank
/// never blocks with bytes a peer is waiting for still in its buffer.
fn send_frame<W: Write>(
    w: &mut BufWriter<W>,
    tag: u64,
    bytes: u64,
    payload: &[u8],
) -> io::Result<()> {
    frame::write_frame(w, tag, bytes, payload)?;
    w.flush()
}

/// The socket [`Link`]: sends cross the [`Wire`] codec and a framed
/// Unix-socket write (the peer's reader thread pushes the frame into its
/// mailbox); receives decode the frame back.
pub struct SocketLink {
    rank: usize,
    dir: PathBuf,
    /// This rank's own mailbox, for self-sends.
    mailbox: Arc<Mailbox>,
    /// Outbound links, connected on first use (always succeeds: every
    /// listener was bound before GO), each behind its own write buffer.
    links: Vec<Option<BufWriter<UnixStream>>>,
    /// Reused encode buffer for outbound payloads.
    encoded: Vec<u8>,
    /// Per-process channel counter; world-unique ids without shared
    /// memory: `counter * nprocs + rank` gives each rank a disjoint
    /// arithmetic progression.
    next_channel: u32,
    nprocs: usize,
    /// Death-tolerant mode (see [`SocketWorld::death_tolerant`]).
    tolerant: bool,
    /// Peers observed dead (tolerant mode only): once a connect or a
    /// write to a rank fails it stays marked, so later sends drop
    /// immediately instead of re-dialling a corpse.
    dead: Vec<bool>,
}

impl SocketLink {
    fn new(
        rank: usize,
        nprocs: usize,
        dir: PathBuf,
        mailbox: Arc<Mailbox>,
        tolerant: bool,
    ) -> Self {
        SocketLink {
            rank,
            dir,
            mailbox,
            links: (0..nprocs).map(|_| None).collect(),
            encoded: Vec::new(),
            next_channel: 0,
            nprocs,
            tolerant,
            dead: vec![false; nprocs],
        }
    }

    /// Connect-on-first-use outbound link; `None` means `dst` is dead
    /// (only possible in death-tolerant mode — strict worlds panic).
    fn link(&mut self, dst: usize) -> Option<&mut BufWriter<UnixStream>> {
        if self.dead[dst] {
            return None;
        }
        if self.links[dst].is_none() {
            // Every listener was bound before GO, so in tolerant mode a
            // refused connect means the peer is gone — fail on the first
            // attempt instead of retrying against a corpse for seconds.
            let connected = if self.tolerant {
                UnixStream::connect(rank_sock(&self.dir, dst))
            } else {
                connect_retry(&rank_sock(&self.dir, dst), CONNECT_TIMEOUT)
            };
            match connected {
                Ok(s) => self.links[dst] = Some(open_link(s, self.rank)),
                Err(_) if self.tolerant => {
                    self.dead[dst] = true;
                    return None;
                }
                Err(e) => panic!("rank {}: connect to rank {dst}: {e}", self.rank),
            }
        }
        self.links[dst].as_mut()
    }

    /// Frame `payload` to `dst`. An oversized frame is the sender's bug
    /// and panics in either mode before any byte is written; only an I/O
    /// error means the peer is gone.
    fn send(&mut self, dst: usize, tag: Tag, bytes: u64, payload: &[u8]) {
        let len = frame::HEADER_BYTES + payload.len();
        assert!(
            len <= MAX_FRAME_BYTES,
            "rank {}: a {len}-byte frame to rank {dst} exceeds the {MAX_FRAME_BYTES}-byte cap",
            self.rank
        );
        let Some(link) = self.link(dst) else {
            return; // tolerant mode: dst is dead, the send is dropped
        };
        if let Err(e) = send_frame(link, tag.0, bytes, payload) {
            assert!(self.tolerant, "rank {}: send to rank {dst}: {e}", self.rank);
            // Discard the unsent bytes: dropping the writer would flush
            // them at the corpse once more.
            if let Some(w) = self.links[dst].take() {
                drop(w.into_parts());
            }
            self.dead[dst] = true;
        }
    }
}

impl Link for SocketLink {
    fn deliver<T: Wire + Send + 'static>(&mut self, dst: usize, info: MsgInfo, value: T) {
        let MsgInfo { src, tag, bytes } = info;
        if dst == src {
            // Self-sends still cross the codec — one uniform path, so a
            // payload that cannot round-trip fails loudly everywhere.
            self.mailbox.push(Env { src, tag, bytes, payload: Box::new(value.to_frame()) });
            return;
        }
        let mut encoded = std::mem::take(&mut self.encoded);
        encoded.clear();
        value.encode(&mut encoded);
        self.send(dst, tag, bytes, &encoded);
        // Keep the buffer for the next send, but not one grown by a rare
        // huge payload.
        encoded.shrink_to(LINK_BUF_BYTES);
        self.encoded = encoded;
    }

    fn open<T: Wire + Send + 'static>(
        rank: usize,
        info: MsgInfo,
        payload: Box<dyn Any + Send>,
    ) -> T {
        let buf = payload.downcast::<Vec<u8>>().unwrap_or_else(|_| {
            panic!("rank {rank}: non-frame payload in a socket mailbox (tag {:?})", info.tag)
        });
        T::from_frame(&buf).unwrap_or_else(|e| {
            panic!(
                "rank {rank}: malformed {} frame from rank {} under tag {:?}: {e}",
                std::any::type_name::<T>(),
                info.src,
                info.tag
            )
        })
    }

    fn alloc_channel_id(&mut self) -> u16 {
        let id = self.next_channel as usize * self.nprocs + self.rank;
        self.next_channel += 1;
        u16::try_from(id).expect("too many channels")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpistream::{Src, Transport, WireError};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Counts the `write` calls that reach it.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        let mut w = open_link(CountingSink::default(), 3);
        let mut expected = Vec::new();
        frame::write_preamble(&mut expected, 3).unwrap();
        let mut send = |w: &mut BufWriter<CountingSink>, len: usize| {
            let payload = vec![0xAB; len];
            let before = w.get_ref().writes;
            send_frame(w, 7, len as u64, &payload).unwrap();
            frame::write_frame(&mut expected, 7, len as u64, &payload).unwrap();
            w.get_ref().writes - before
        };
        // The preamble leaves together with the first frame.
        assert_eq!(send(&mut w, 0), 1, "preamble + first frame");
        assert_eq!(send(&mut w, 0), 1, "empty payload");
        assert_eq!(send(&mut w, 2048), 1, "2 KiB payload");
        for len in [LINK_BUF_BYTES - 8, LINK_BUF_BYTES, 3 * LINK_BUF_BYTES] {
            assert!(send(&mut w, len) <= 2, "{len}-byte payload");
        }
        assert_eq!(w.buffer().len(), 0, "nothing left unflushed");
        assert!(w.get_ref().bytes == expected, "the stream is exactly the frames");
    }

    /// A payload that encodes as `n` zero bytes, cheap at any size.
    struct Blob(usize);

    impl Wire for Blob {
        fn encode(&self, out: &mut Vec<u8>) {
            out.resize(out.len() + self.0, 0);
        }

        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            let n = input.len();
            *input = &[];
            Ok(Blob(n))
        }
    }

    /// Rank 0's link to a rank 1 that is the far end of `tx`.
    fn paired_link(tx: UnixStream, tolerant: bool) -> SocketLink {
        let mut link = SocketLink::new(0, 2, PathBuf::new(), Arc::new(Mailbox::new()), tolerant);
        link.links[1] = Some(open_link(tx, 0));
        link
    }

    fn panic_text(err: Box<dyn Any + Send>) -> String {
        err.downcast::<String>().map(|s| *s).unwrap_or_default()
    }

    const INFO: MsgInfo = MsgInfo { src: 0, tag: Tag::user(1), bytes: 8 };

    #[test]
    fn an_oversized_frame_panics_in_both_modes_and_spares_the_peer() {
        let too_big = MAX_FRAME_BYTES - frame::HEADER_BYTES + 1;
        for tolerant in [false, true] {
            let (tx, rx) = UnixStream::pair().expect("socketpair");
            let mut link = paired_link(tx, tolerant);
            let err = catch_unwind(AssertUnwindSafe(|| link.deliver(1, INFO, Blob(too_big))))
                .expect_err("an oversized frame is a sender bug");
            let text = panic_text(err);
            let (len, cap) = (MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES);
            assert!(text.contains(&format!("{len}-byte frame")), "names the size: {text}");
            assert!(text.contains(&format!("{cap}-byte cap")), "names the cap: {text}");
            assert!(!link.dead[1], "a live peer is not marked dead (tolerant: {tolerant})");

            // Nothing of the rejected frame was written: the peer reads
            // the preamble, then the next frame, then EOF.
            link.deliver(1, INFO, 41u64);
            drop(link);
            let mut r = BufReader::new(rx);
            assert_eq!(frame::read_preamble(&mut r).unwrap(), 0);
            let next = frame::read_frame(&mut r).unwrap();
            assert_eq!(next, Some((INFO.tag.0, 8, 41u64.to_frame())));
            assert_eq!(frame::read_frame(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn only_an_io_error_marks_a_peer_dead() {
        let (tx, rx) = UnixStream::pair().expect("socketpair");
        drop(rx);
        let mut link = paired_link(tx, true);
        link.deliver(1, INFO, 1u64);
        assert!(link.dead[1] && link.links[1].is_none(), "tolerant: the writer is dropped");
        link.deliver(1, INFO, 2u64); // dropped without a reconnect

        let (tx, rx) = UnixStream::pair().expect("socketpair");
        drop(rx);
        let mut link = paired_link(tx, false);
        let err = catch_unwind(AssertUnwindSafe(|| link.deliver(1, INFO, 1u64)))
            .expect_err("strict: a broken link panics");
        assert!(panic_text(err).contains("send to rank 1"));
    }

    // Real multi-process smokes: each spawns its world as child
    // processes re-running this exact test under --exact. One
    // SocketWorld::run per test, placed first.

    #[test]
    fn ping_pong_round_trips_across_processes() {
        let totals =
            SocketWorld::for_test("tests::ping_pong_round_trips_across_processes", 2).run(|rank| {
                let t = Tag::user(1);
                if rank.world_rank() == 0 {
                    rank.send(1, t, 8, 41u64);
                    let (v, info) = rank.recv::<u64>(Src::Rank(1), t);
                    assert_eq!(info.src, 1);
                    v
                } else {
                    let (v, _) = rank.recv::<u64>(Src::Any, t);
                    rank.send(0, t, 8, v + 1);
                    v
                }
            });
        assert_eq!(totals, vec![42, 41]);
    }

    #[test]
    fn collectives_agree_across_processes() {
        let reports =
            SocketWorld::for_test("tests::collectives_agree_across_processes", 5).run(|rank| {
                let world = rank.world_group();
                let sum = rank.allreduce(&world, 8, rank.world_rank() as u64, |a, b| *a += b);
                let all = rank.allgatherv(&world, 8, rank.world_rank());
                let from_root = rank.bcast(&world, 3, 8, (rank.world_rank() == 3).then_some(99u32));
                rank.barrier(&world);
                // Split into parity cells, reduce within each.
                let parity = (rank.world_rank() % 2) as i64;
                let cell = rank.split(&world, Some(parity), rank.world_rank() as i64).unwrap();
                let cell_sum = rank.allreduce(&cell, 8, rank.world_rank() as u64, |a, b| *a += b);
                (sum, all, from_root, cell_sum)
            });
        for (r, (sum, all, from_root, cell_sum)) in reports.into_iter().enumerate() {
            assert_eq!(sum, 10);
            assert_eq!(all, (0..5).collect::<Vec<_>>());
            assert_eq!(from_root, 99);
            assert_eq!(cell_sum, if r % 2 == 0 { 6 } else { 4 });
        }
    }
}

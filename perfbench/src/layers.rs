//! Direct pricing of the layers below the transport, with the workload's
//! own element types and sizes: `native::mailbox` (push, take, and a
//! cross-thread wake), `mpistream::wire` (encode, decode) and
//! `socket::frame` (write, read into and out of memory).

use std::hint::black_box;
use std::io::{self, Cursor, Write};
use std::sync::Arc;
use std::time::Instant;

use mpistream::{Src, StreamMsg, Tag, Wire};
use native::mailbox::{Env, Mailbox};
use socket::frame;

/// Measured repetitions of each micro-benchmark; the reported value is
/// their median.
const REPS: usize = 7;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Mean nanoseconds per call of `f` over `n` calls, median of [`REPS`].
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0); // warm-up: first touch of buffers and code
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for i in 0..n {
                    f(i);
                }
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .collect(),
    )
}

/// One envelope kind of a workload's traffic mix.
#[derive(Clone)]
pub enum EnvKind {
    /// An in-memory stream batch of `n` `u64` elements (native data).
    NativeBatch(usize),
    /// An in-memory `u64` credit (native return path).
    NativeCredit,
    /// A received socket frame's payload of this many bytes.
    Frame(usize),
}

fn make_env(kind: &EnvKind, src: usize, tag: Tag) -> Env {
    let payload: Box<dyn std::any::Any + Send> = match kind {
        EnvKind::NativeBatch(n) => Box::new(StreamMsg::Data(vec![7u64; *n])),
        EnvKind::NativeCredit => Box::new(8u64),
        EnvKind::Frame(len) => Box::new(vec![0u8; *len]),
    };
    Env { src, tag, bytes: 8, payload }
}

/// `(push_ns, take_ns)` per envelope: `n` envelopes of the mix pushed
/// into one mailbox by one thread, then taken back in arrival order
/// with directed `(src, tag)` receives. Uncontended.
pub fn mailbox_push_take(mix: &[EnvKind]) -> (f64, f64) {
    const N: usize = 4096;
    let keys: Vec<(usize, Tag)> =
        (0..N).map(|i| (i % 2, Tag::internal(2, 1, (i % mix.len()) as u32))).collect();
    let mut push = Vec::new();
    let mut take = Vec::new();
    for _ in 0..REPS {
        let mb = Mailbox::new();
        let envs: Vec<Env> = keys
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| make_env(&mix[i % mix.len()], s, t))
            .collect();
        let t = Instant::now();
        for e in envs {
            mb.push(e);
        }
        push.push(t.elapsed().as_nanos() as f64 / N as f64);
        let mut out = Vec::with_capacity(N);
        let t = Instant::now();
        for &(s, tag) in &keys {
            out.push(mb.take(Src::Rank(s), tag));
        }
        take.push(t.elapsed().as_nanos() as f64 / N as f64);
        black_box(out);
    }
    (median(push), median(take))
}

/// Cross-thread push→take wake latencies in nanoseconds: a receiver
/// blocked in `take` is woken by a push carrying the push time; it
/// acknowledges through a second mailbox before the next push, so every
/// sample is one wake of a waiting thread.
pub fn mailbox_handoff(samples: usize) -> Vec<u64> {
    let ping = Arc::new(Mailbox::new());
    let pong = Arc::new(Mailbox::new());
    let tag = Tag::user(1);
    let epoch = Instant::now();
    let receiver = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        std::thread::spawn(move || {
            let mut out = Vec::with_capacity(samples);
            for _ in 0..samples {
                let env = ping.take(Src::Rank(0), tag);
                let woke = epoch.elapsed().as_nanos() as u64;
                let sent = *env.payload.downcast::<u64>().expect("u64 stamp");
                out.push(woke.saturating_sub(sent));
                pong.push(Env { src: 1, tag, bytes: 8, payload: Box::new(0u64) });
            }
            out
        })
    };
    for _ in 0..samples {
        // Give the receiver time to park before the push.
        let t = Instant::now();
        while t.elapsed().as_micros() < 20 {
            std::hint::spin_loop();
        }
        let stamp = epoch.elapsed().as_nanos() as u64;
        ping.push(Env { src: 0, tag, bytes: 8, payload: Box::new(stamp) });
        pong.take(Src::Rank(1), tag);
    }
    receiver.join().expect("handoff receiver")
}

/// Wire-layer price of one stream element carried alone in a data
/// message (the aggregation-1 shape both socket workloads send):
/// `(encode_ns, decode_ns, bytes)` per element.
pub fn wire_per_elem<T: Wire + Clone + Send + 'static>(elem: &T) -> (f64, f64, f64) {
    const N: usize = 2000;
    let msg = StreamMsg::Data(vec![elem.clone()]);
    let bytes = msg.to_frame();
    let enc = ns_per_call(N, |_| {
        black_box(black_box(&msg).to_frame());
    });
    let dec = ns_per_call(N, |_| {
        let m = StreamMsg::<T>::from_frame(black_box(&bytes)).expect("decodes");
        black_box(m);
    });
    (enc, dec, bytes.len() as f64)
}

/// A `Write` that counts `write` calls into memory.
struct CountingSink {
    buf: Vec<u8>,
    calls: u64,
}

impl Write for CountingSink {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        self.buf.extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Frame-layer price of a frame carrying `payload_len` bytes:
/// `(write_ns, read_ns, write_calls_per_frame)`.
pub fn frame_io(payload_len: usize) -> (f64, f64, f64) {
    const N: usize = 2000;
    let payload = vec![0x5Au8; payload_len];
    let tag = Tag::internal(2, 1, 0).0;
    let mut sink = CountingSink { buf: Vec::with_capacity(payload_len + 64), calls: 0 };
    frame::write_frame(&mut sink, tag, 8, &payload).expect("frame writes");
    let calls = sink.calls as f64;
    let write = ns_per_call(N, |_| {
        sink.buf.clear();
        frame::write_frame(&mut sink, tag, 8, black_box(&payload)).expect("frame writes");
    });
    let mut stream = Vec::new();
    for _ in 0..N {
        frame::write_frame(&mut stream, tag, 8, &payload).expect("frame writes");
    }
    let mut cur = Cursor::new(stream);
    let read = ns_per_call(N, |i| {
        if i == 0 {
            cur.set_position(0);
        }
        let f = frame::read_frame(&mut cur).expect("frame reads").expect("not at EOF");
        black_box(f);
    });
    (write, read, calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_write_calls_are_counted_per_frame() {
        let (_, _, calls) = frame_io(16);
        assert_eq!(calls, 4.0);
    }

    #[test]
    fn wire_bytes_match_the_encoded_message() {
        let (_, _, bytes) = wire_per_elem(&(1u64, 2u64));
        // discriminant + u64 length + two u64 fields
        assert_eq!(bytes, 1.0 + 8.0 + 16.0);
    }

    #[test]
    fn handoff_yields_one_sample_per_wake() {
        assert_eq!(mailbox_handoff(50).len(), 50);
    }
}

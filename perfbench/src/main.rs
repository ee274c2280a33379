//! One invocation of the benchmark binary: one world of one workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --trace <0|1> [--micro <0|1>] [--spans <dir>]
//! ```
//!
//! Runs the workload's fixed number of jobs and prints one JSON line:
//! the world's set-up time, every job's time,
//! size, oracle verdict and (traced jobs) per-layer numbers, the raw
//! latency samples, and — with `--micro 1` — the direct prices of the
//! mailbox, wire and frame layers. `perfbench/run.py` runs the binary
//! repeatedly and turns these lines into the benchmark's metrics. A
//! socket world re-executes this binary once per rank with the same
//! arguments; only the launcher prints.

mod layers;
mod traced;
mod workloads;

use std::fmt::Write as _;

use traced::{RankTrace, BLOCKING, TRANSPORT};
use workloads::{RankOut, Settings, Workload, FAIL, MR_MAPPERS, MR_MASTER, PASS};

struct Args {
    workload: Workload,
    settings: Settings,
    micro: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let opt = |flag: &str| get(flag).ok();
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let trace = opt("--trace").is_some_and(|v| v == "1");
    let micro = opt("--micro").is_some_and(|v| v == "1");
    if let Some(dir) = opt("--spans") {
        let _ = traced::SPANS_DIR.set(dir.into());
    }
    Ok(Args { workload, settings: Settings { seed, trace }, micro })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let outs = match w {
        Workload::PipelineNative | Workload::ReplicatedNative => {
            workloads::run_pipeline(w, args.settings)
        }
        Workload::MapreduceSocket => workloads::run_mapreduce(args.settings),
        Workload::EchoSocket => workloads::run_echo(args.settings),
    };
    // Past this point only the launcher runs (socket children exit in
    // their world's run).
    let rss_kb = match w.backend() {
        "native" => workloads::peak_rss_kb(),
        _ => outs.iter().map(|o| o.rss_kb).sum(),
    };
    let mut json = report(w, &outs, rss_kb);
    if args.micro {
        json.push_str(&micro(w));
    }
    json.push('}');
    println!("{json}");
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn list(v: &[u64]) -> String {
    let mut s = String::with_capacity(v.len() * 8);
    s.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

fn escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

/// The rank whose clock times a job end to end.
fn timer_rank(w: Workload) -> usize {
    if w == Workload::MapreduceSocket {
        MR_MASTER
    } else {
        0
    }
}

/// The rank whose receive waits are the consumer's idle time.
fn consumer_rank(w: Workload) -> usize {
    match w {
        Workload::PipelineNative | Workload::ReplicatedNative => 2,
        Workload::MapreduceSocket => MR_MASTER,
        Workload::EchoSocket => 1,
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer numbers of job `j`, from every rank's trace of it.
fn job_layers(w: Workload, outs: &[RankOut], j: usize) -> Vec<(&'static str, f64)> {
    let recs: Vec<&workloads::JobRec> = outs.iter().map(|o| &o.jobs[j]).collect();
    let tr: Vec<&RankTrace> = recs.iter().map(|r| &r.trace).collect();
    let units = recs.iter().map(|r| r.units).max().unwrap_or(0).max(1) as f64;
    let sum = |f: &dyn Fn(&RankTrace) -> u64| tr.iter().map(|t| f(t)).sum::<u64>();
    let sends = sum(&|t| t.count(&["transport.send"]));
    let waits = sum(&|t| t.count(BLOCKING));
    // Channel creation: echo creates its channels once, in set-up;
    // mapreduce creates them inside the app, where the collectives'
    // window is what the benchmark can see; the others per job.
    let create_tr: Vec<&RankTrace> = if w == Workload::EchoSocket {
        outs.iter().map(|o| &o.setup_trace).collect()
    } else {
        tr.clone()
    };
    let coll_s =
        create_tr.iter().map(|t| t.dur(&["transport.coll"])).max().unwrap_or(0) as f64 / 1e9;
    let create_s = if w == Workload::MapreduceSocket {
        create_tr.iter().map(|t| t.coll_last - t.coll_first).max().unwrap_or(0)
    } else {
        create_tr.iter().map(|t| t.dur(&["stream.create"])).max().unwrap_or(0)
    } as f64
        / 1e9;
    let mean = |ranks: &[usize], f: &dyn Fn(usize) -> f64| {
        ranks.iter().map(|&r| f(r)).sum::<f64>() / ranks.len() as f64
    };
    let stall =
        |ranks: &[usize], ops: &[&str]| mean(ranks, &|r| frac(tr[r].dur(ops), recs[r].t_ns));
    let isend_stall = match w {
        Workload::PipelineNative => stall(&[0, 1], &["stream.isend", "stream.terminate"]),
        Workload::EchoSocket => stall(&[0], &["stream.isend"]),
        Workload::MapreduceSocket => stall(&MR_MAPPERS, TRANSPORT),
        Workload::ReplicatedNative => 0.0,
    };
    let c = consumer_rank(w);
    let idle = frac(tr[c].dur(BLOCKING), recs[c].t_ns);
    let commits = sum(&|t| t.commit_ns.len() as u64);
    let (push_stall, views) = if w == Workload::ReplicatedNative {
        (
            stall(&[0, 1], &["replica.push", "replica.finish"]),
            recs.iter().map(|r| r.view).max().unwrap_or(0) as f64,
        )
    } else {
        (0.0, 0.0)
    };
    let map_busy =
        if w == Workload::MapreduceSocket { 1.0 - stall(&MR_MAPPERS, TRANSPORT) } else { 0.0 };
    vec![
        ("transport.send_ns", frac(sum(&|t| t.self_time(&["transport.send"])), sends)),
        ("transport.recv_wait_us", frac(sum(&|t| t.dur(BLOCKING)), waits) / 1e3),
        ("transport.msgs_per_elem", sends as f64 / units),
        ("transport.coll_s", coll_s),
        ("stream.create_s", create_s),
        ("stream.isend_stall_frac", isend_stall),
        ("stream.consumer_idle_frac", idle),
        ("stream.batches_per_elem", sum(&|t| t.data_sends) as f64 / units),
        ("stream.credit_msgs_per_elem", sum(&|t| t.credit_sends) as f64 / units),
        ("replica.commits_per_elem", commits as f64 / units),
        ("replica.repl_bytes_per_elem", sum(&|t| t.commit_bytes) as f64 / units),
        ("replica.push_stall_frac", push_stall),
        ("replica.view_changes", views),
        ("app.map_busy_frac", map_busy),
    ]
}

fn report(w: Workload, outs: &[RankOut], rss_kb: u64) -> String {
    let mut s = String::new();
    let setup = outs.iter().map(|o| o.setup_ns).max().unwrap_or(0) as f64 / 1e9;
    let spawn = outs.iter().map(|o| o.spawn_ns).max().unwrap_or(0) as f64 / 1e9;
    let serial = outs.iter().map(|o| o.serial_ns).max().unwrap_or(0) as f64 / 1e9;
    let _ = write!(
        s,
        "{{\"workload\":\"{}\",\"backend\":\"{}\",\"nprocs\":{},\"setup_s\":{},\"spawn_s\":{},\
         \"peak_rss_mb\":{},\"serial_s\":{},\"jobs\":[",
        w.name(),
        w.backend(),
        outs.len(),
        num(setup),
        num(spawn),
        num(rss_kb as f64 / 1024.0),
        num(serial)
    );
    let njobs = outs.iter().map(|o| o.jobs.len()).min().unwrap_or(0);
    let t = timer_rank(w);
    for j in 0..njobs {
        let recs: Vec<&workloads::JobRec> = outs.iter().map(|o| &o.jobs[j]).collect();
        let ok = recs.iter().all(|r| r.verdict != FAIL) && recs.iter().any(|r| r.verdict == PASS);
        let err: Vec<String> =
            recs.iter().filter(|r| !r.err.is_empty()).map(|r| r.err.clone()).collect();
        let traced = recs[t].traced;
        if j > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"t_s\":{},\"units\":{},\"ok\":{ok},\"err\":\"{}\",\"traced\":{traced}",
            num(recs[t].t_ns as f64 / 1e9),
            recs.iter().map(|r| r.units).max().unwrap_or(0),
            escape(&err.join("; "))
        );
        if traced {
            s.push_str(",\"layers\":{");
            for (i, (k, v)) in job_layers(w, outs, j).into_iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{k}\":{}", num(v));
            }
            s.push('}');
        }
        s.push('}');
    }
    // A rank that recorded more jobs than its peers means the job loops
    // fell out of step: report it as a failed job.
    if outs.iter().any(|o| o.jobs.len() != njobs) {
        let _ = write!(
            s,
            "{}{{\"t_s\":0,\"units\":0,\"ok\":false,\"err\":\"ranks disagree on the job count\",\"traced\":false}}",
            if njobs > 0 { "," } else { "" }
        );
    }
    s.push(']');
    let lat: Vec<u64> = outs.iter().flat_map(|o| o.lat_ns.iter().copied()).collect();
    let commits: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.jobs.iter().flat_map(|j| j.trace.commit_ns.iter().copied()))
        .collect();
    let _ = write!(s, ",\"lat_ns\":{},\"commit_ns\":{}", list(&lat), list(&commits));
    s
}

/// Direct prices of the layers under the transport, with this
/// workload's element types and sizes. The native workloads never
/// touch `wire` or `frame`, so those price at zero there.
fn micro(w: Workload) -> String {
    use layers::EnvKind;
    let (mix, wire) = match w {
        Workload::PipelineNative | Workload::ReplicatedNative => {
            (vec![EnvKind::NativeBatch(8), EnvKind::NativeCredit], None)
        }
        Workload::MapreduceSocket => {
            // A map-output chunk as the mappers build it: every word of
            // the vocabulary with its count, sorted by word.
            let vocab = workloads::mapreduce_config().vocab as u32;
            let chunk: Vec<(u32, u32)> = (0..vocab).map(|w| (w, 8)).collect();
            let wire = layers::wire_per_elem(&chunk);
            (vec![EnvKind::Frame(wire.2 as usize)], Some(wire))
        }
        Workload::EchoSocket => {
            let wire = layers::wire_per_elem(&workloads::echo_request(1, 1));
            (vec![EnvKind::Frame(wire.2 as usize)], Some(wire))
        }
    };
    let (push, take) = layers::mailbox_push_take(&mix);
    let handoff = layers::mailbox_handoff(2000);
    let (enc, dec, bytes) = wire.unwrap_or((0.0, 0.0, 0.0));
    let (fw, fr, calls) = match wire {
        Some((_, _, len)) => layers::frame_io(len as usize),
        None => (0.0, 0.0, 0.0),
    };
    let mut s = String::from(",\"micro\":{");
    let items = [
        ("mailbox.push_ns", push),
        ("mailbox.take_ns", take),
        ("wire.encode_ns_per_elem", enc),
        ("wire.decode_ns_per_elem", dec),
        ("wire.bytes_per_elem", bytes),
        ("frame.write_ns", fw),
        ("frame.read_ns", fr),
        ("frame.write_calls_per_frame", calls),
    ];
    for (i, (k, v)) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{}", num(*v));
    }
    let _ = write!(s, "}},\"handoff_ns\":{}", list(&handoff));
    s
}

#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--artifact <file>]

Run from the repository root. Builds `perfbench/` (a Cargo package of
its own) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the benchmark binary until `--seconds` are spent. Each invocation
launches one world, so each gives one set-up sample, and runs the
workload's fixed number of fixed-size jobs, each checked against its
oracle. Every invocation sits under a watchdog that kills its whole
process group and records a named failure instead of hanging.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` every other job runs through the benchmark's tracing
transport wrapper and the metrics are the per-layer ones; the first
world writes each rank's spans of its last traced job under
`.bench_tmp/spans/<workload>/`. The last line
of standard output is the result object; the lines before it are a
human-readable report (metric, value, unit, oracle verdict, host).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = {
    "pipeline_native": "native",
    "replicated_native": "native",
    "mapreduce_socket": "socket",
    "echo_socket": "socket",
}
# Fewest worlds a run launches, however long they take.
MIN_WORLDS = 3
# Seconds one world may take before the watchdog kills it (a world
# normally finishes within two).
WATCHDOG_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_elems_per_s": "1/s",
    "job_s": "s",
    "lat_p50_us": "us",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not in the result: on a shared
# two-core host the 99th percentile follows OS scheduling, and its
# run-to-run spread is wider than any bound BENCHMARK.json may set.
REPORT_ONLY_UNITS = {"lat_p99_us": "us"}

PER_LAYER_UNITS = {
    "world.spawn_s": "s",
    "transport.coll_s": "s",
    "stream.create_s": "s",
    "transport.send_ns": "ns",
    "transport.recv_wait_us": "us",
    "transport.msgs_per_elem": "msgs/elem",
    "mailbox.push_ns": "ns",
    "mailbox.take_ns": "ns",
    "mailbox.handoff_us": "us",
    "wire.encode_ns_per_elem": "ns/elem",
    "wire.decode_ns_per_elem": "ns/elem",
    "wire.bytes_per_elem": "B/elem",
    "frame.write_ns": "ns",
    "frame.read_ns": "ns",
    "frame.write_calls_per_frame": "calls",
    "stream.isend_stall_frac": "ratio",
    "stream.consumer_idle_frac": "ratio",
    "stream.batches_per_elem": "msgs/elem",
    "stream.credit_msgs_per_elem": "msgs/elem",
    "replica.commit_p50_us": "us",
    "replica.commit_p99_us": "us",
    "replica.commits_per_elem": "count/elem",
    "replica.repl_bytes_per_elem": "B/elem",
    "replica.push_stall_frac": "ratio",
    "replica.view_changes": "count",
    "app.map_busy_frac": "ratio",
    "app.serial_s": "s",
    "trace.overhead_frac": "ratio",
}

# Per-layer counts that must repeat exactly from job to job and run to
# run; a difference fails the run. Every other per-layer metric is
# timing-dependent.
EXACT = [
    "transport.msgs_per_elem",
    "stream.batches_per_elem",
    "stream.credit_msgs_per_elem",
    "wire.bytes_per_elem",
    "frame.write_calls_per_frame",
    "replica.commits_per_elem",
    "replica.view_changes",
]
# Replica heartbeats are sent on a timer, so on a stalled host a job can
# carry more transport messages than its data alone needs.
NOT_EXACT = {"replicated_native": {"transport.msgs_per_elem"}}


def exact_counts(workload):
    return [k for k in EXACT if k not in NOT_EXACT.get(workload, set())]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_revision(root):
    """Git revision when the tree is a repository, and always a hash of
    the sources the benchmark builds (the checkout it runs in may hold
    no git metadata)."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    skip = {"target", "__pycache__", ".bench_build", ".bench_tmp"}
    for top in tops:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    rev = {"tree": h.hexdigest()[:16]}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            rev["git"] = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(root, workload):
    """What a wall-clock number depends on besides the code."""
    aff = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "affinity": ",".join(map(str, aff)),
        "kernel": platform.release(),
        "cpu_model": cpu_model(),
        "backend": WORKLOADS[workload],
        "revision": source_revision(root),
    }


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(root, target),
                       "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def invoke(exe, root, workload, seed, trace, first):
    """One world. Returns `(record, failure)`: the binary's JSON line,
    or a named failure. The first world of a traced run also prices the
    layers directly and writes its spans."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if trace and first:
        cmd += ["--micro", "1", "--spans", spans_dir(workload)]
    env = dict(os.environ)
    # Socket worlds put their rendezvous sockets under the temp dir; keep
    # it inside the checkout, relative so socket paths stay short.
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    env["TMPDIR"] = ".bench_tmp"
    limit = WATCHDOG_S
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"watchdog: {workload} world did not finish within {limit:.0f} s"
    finally:
        # Socket ranks are the launcher's children in its process group:
        # make sure none outlives the invocation.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] if err.strip() else ["no output"]
        return None, f"crash: {workload} world exited with {proc.returncode}: {tail[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"garbled: {workload} world printed no result"


def jobs_of(records, traced):
    return [j for r in records for j in r["jobs"] if j["traced"] == traced and j["ok"]]


def throughput(jobs):
    """Elements per second of the median job: robust to the few jobs a
    busy host stretches, like `job_s`."""
    return stats.median([j["units"] / j["t_s"] for j in jobs])


def spans_dir(workload):
    return os.path.join(".bench_tmp", "spans", workload)


def end_to_end(records):
    """The end-to-end metrics from the untraced jobs of every world."""
    jobs = jobs_of(records, False)
    lat = [x for r in records for x in r["lat_ns"]]
    p99 = stats.percentile(lat, 0.99)
    return {
        "setup_s": stats.median([r["setup_s"] for r in records]),
        "throughput_elems_per_s": throughput(jobs),
        "job_s": stats.median([j["t_s"] for j in jobs]),
        "lat_p50_us": stats.percentile(lat, 0.5) / 1e3,
        "lat_p99_us": None if p99 is None else p99 / 1e3,
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in records]),
    }, {"jobs": len(jobs), "lat_samples": len(lat), "slowest_job_s": max(j["t_s"] for j in jobs)}


def per_layer(records, workload):
    """The per-layer metrics from the traced jobs, the direct layer
    prices, and the exact-count check. Returns `(metrics, mismatched)`."""
    traced, untraced = jobs_of(records, True), jobs_of(records, False)
    m = {}
    for key in traced[0]["layers"]:
        m[key] = stats.median([j["layers"][key] for j in traced])
    micro = next((r for r in records if "micro" in r), None)
    if micro:
        m.update(micro["micro"])
        m["mailbox.handoff_us"] = stats.median(micro["handoff_ns"]) / 1e3
    commits = [x for r in records for x in r["commit_ns"]]
    p50, p99 = stats.percentile(commits, 0.5), stats.percentile(commits, 0.99)
    m["replica.commit_p50_us"] = 0.0 if not commits else (None if p50 is None else p50 / 1e3)
    m["replica.commit_p99_us"] = 0.0 if not commits else (None if p99 is None else p99 / 1e3)
    m["world.spawn_s"] = stats.median([r["spawn_s"] for r in records])
    m["app.serial_s"] = stats.median([r["serial_s"] for r in records])
    m["trace.overhead_frac"] = (stats.median([j["t_s"] for j in traced])
                                / stats.median([j["t_s"] for j in untraced]) - 1)
    mismatched = [k for k in exact_counts(workload) if k in traced[0]["layers"]
                  and len({j["layers"][k] for j in traced}) > 1]
    return m, mismatched


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--artifact", help="also write the full run record to this file")
    a = ap.parse_args()
    root = os.getcwd()

    exe = build(root)
    if exe is None:
        log("perfbench: build failed; run from the repository root")
        sys.exit(3)

    host = host_record(root, a.workload)
    records, failures = [], []
    started = time.monotonic()
    worlds = 0
    while True:
        # Each world gets its own seed, derived from the run's.
        seed = (a.seed * 1000 + worlds) % 2**64
        rec, failure = invoke(exe, root, a.workload, seed, a.trace == 1, worlds == 0)
        worlds += 1
        if failure:
            log(failure)
            failures.append(failure)
            if failure.startswith("watchdog"):
                break
        else:
            records.append(rec)
        elapsed = time.monotonic() - started
        if worlds >= MIN_WORLDS and elapsed * (worlds + 1) / worlds > a.seconds:
            break

    job_errors = [j["err"] or "wrong result" for r in records for j in r["jobs"] if not j["ok"]]
    attempted = sum(len(r["jobs"]) for r in records) + len(failures)
    failed = len(job_errors) + len(failures)
    problems = failures + job_errors
    if a.trace == 0:
        units = END_TO_END_UNITS
        if records:
            metrics, counts = end_to_end(records)
        else:
            metrics, counts = {}, {}
        mismatched = []
    else:
        units = PER_LAYER_UNITS
        traced, untraced = jobs_of(records, True), jobs_of(records, False)
        metrics, mismatched = per_layer(records, a.workload) if traced and untraced else ({}, [])
        counts = {}
        problems += [f"exact count {k} differs between jobs" for k in mismatched]
    missing = [k for k in units if metrics.get(k) is None]
    problems += [f"metric {k} not measured (too few samples)" for k in missing]
    correct = not problems

    print(f"perfbench {a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    shown = dict(units, **(REPORT_ONLY_UNITS if a.trace == 0 else {}))
    for k, unit in shown.items():
        v = metrics.get(k)
        label = ""
        if a.trace == 1:
            label = "  exact" if k in exact_counts(a.workload) else "  timing-dependent"
        if k in REPORT_ONLY_UNITS:
            label = "  (report only)"
        print(f"  {k:32s} {'n/a' if v is None else f'{v:.6g}':>14s} {unit}{label}")
    if counts:
        print(f"  samples: {counts['jobs']} jobs, {counts['lat_samples']} latency samples;"
              f" slowest job {counts['slowest_job_s']:.6g} s")
    if a.trace == 1 and metrics:
        # Tracing overhead: the same worlds' traced jobs against their
        # untraced ones.
        for name, f in [("job_s", lambda js: stats.median([j["t_s"] for j in js])),
                        ("throughput_elems_per_s", throughput)]:
            u, t = f(untraced), f(traced)
            print(f"  tracing overhead: {name} {u:.6g} untraced, {t:.6g} traced ({t / u - 1:+.1%})")
        print(f"  spans of the first world's last traced job: {spans_dir(a.workload)}/rank<r>.jsonl")
    print(f"  fail_ratio {failed}/{attempted}  oracle {'PASS' if correct else 'FAIL'}")
    for p in problems[:10]:
        print(f"  problem: {p}")

    if a.artifact:
        with open(a.artifact, "w") as fh:
            json.dump({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                       "trace": a.trace, "host": host, "correct": correct,
                       "attempted": attempted, "failed": failed, "problems": problems,
                       "metrics": {k: metrics.get(k) for k in shown},
                       "exact": exact_counts(a.workload) if a.trace == 1 else []},
                      fh, indent=1, sort_keys=True)

    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if metrics.get(k) is not None},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

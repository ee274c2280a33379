#!/usr/bin/env bash
# CI entry point: build, full test suite, and a fixed-range chaos smoke
# sweep. Everything runs offline — dependencies are vendored under
# `vendor/` and resolved through the workspace, so no network is needed.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (broken or private intra-doc links are errors) =="
# Catches doc links that a deleted or renamed API leaves behind.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "== format check =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --offline

echo "== perfbench build + tests (a workspace of its own) =="
# perfbench links every backend type through path dependencies but sits
# outside the root workspace, so the build above never compiles it.
# Build it here, and run its Rust tests (tracer, frame write-call count,
# wire byte count, mailbox handoff) and its Python statistics tests.
# See perfbench/README.md.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "== test suite =="
cargo test -q --offline

echo "== chaos smoke (25 seeds, fixed range, parallel sweep) =="
# A deterministic subset of the default 250-seed sweep; the fixed range
# keeps the smoke run reproducible and fast, and SWEEP_JOBS exercises the
# parallel sweep dispatcher (fingerprints are byte-identical at any job
# count). See crates/integration/tests/chaos.rs and DESIGN.md §8, §10.
CHAOS_SEED_START=0 CHAOS_SEEDS=25 SWEEP_JOBS="${SWEEP_JOBS:-4}" \
    cargo test -q --offline -p integration --test chaos

echo "== native backend smoke (quickstart + fig5-small on OS threads) =="
# The same portable programs on the native threaded backend, compared
# against the simulator's per-consumer payload fingerprints. Real threads
# can deadlock rather than fail, so bound each run with a wall-clock
# timeout. See DESIGN.md §11.
timeout 120 cargo run --release --offline -q -p integration \
    --example quickstart_native -- --backend both
timeout 180 cargo test -q --release --offline -p integration \
    --test backend_equivalence

echo "== socket backend smoke (multi-process equivalence over Unix sockets) =="
# The same portable programs again, this time with one OS *process* per
# rank and every payload crossing the Wire codec over Unix-domain
# sockets (DESIGN.md §16). backend_equivalence certifies the socket
# fingerprints against sim and native; recv_deadline_semantics pins the
# half-read-frame and absolute-deadline contracts; the quickstart run
# exercises the launcher + merged wall-clock trace end to end. Process
# worlds can wedge rather than fail, so everything is timeout-bounded.
timeout 300 cargo test -q --release --offline -p socket
timeout 300 cargo test -q --release --offline -p integration \
    --test backend_equivalence socket_
timeout 300 cargo test -q --release --offline -p integration \
    --test recv_deadline_semantics
timeout 120 cargo run --release --offline -q -p integration \
    --example quickstart_native -- --backend socket \
    --trace target/quickstart_socket.trace.json

echo "== replica smoke (VSR failover: sim kills + native + 8-process socket) =="
# The viewstamped-replication subsystem (DESIGN.md §17): protocol unit
# tests, simulator kills at exact element cursors, a native-thread
# abandonment run and the 8-process socket abort/failover test, plus a
# consumer-kill slice of the chaos sweep (primary element-kills, standby
# kills, and the pinned unreplicated terminate-and-account contract).
# Failover paths wedge rather than fail when broken, so everything is
# timeout-bounded. See crates/replica and DESIGN.md §17.
timeout 300 cargo test -q --release --offline -p replica
# The `replicated` filter selects exactly the consumer-kill tests
# (including the *un*replicated terminate-and-account regression).
CHAOS_SEED_START=0 CHAOS_SEEDS=25 SWEEP_JOBS="${SWEEP_JOBS:-4}" \
    timeout 600 cargo test -q --release --offline -p integration \
    --test chaos replicated

echo "== streamprof smoke (chrome traces + golden byte-compare) =="
# fig2 rendered through the streamprof adapters (ASCII Gantt must stay
# byte-identical to the pre-streamprof output) plus Chrome-trace export;
# the golden test byte-compares the sim quickstart trace and structurally
# validates the native one. See DESIGN.md §12.
cargo run --release --offline -q -p bench-harness --bin fig2 -- --chrome-trace \
    > /dev/null
timeout 180 cargo test -q --release --offline -p integration \
    --test streamprof_trace

echo "== schedcheck model checking (bounded exhaustive interleavings) =="
# The native backend's lock-free core — mailbox push/drain, eventcount
# park, deadline receives, batched credit returns, a small tree
# collective — re-compiled against schedcheck's shadow primitives
# (--cfg schedcheck switches the native::sync facade) and explored
# exhaustively up to a preemption bound: every clean model must cover
# >= 1,000 distinct schedules with zero SC201-SC203 violations, and the
# seeded known-bad tests (including PR 6's real lost-wakeup bug,
# reintroduced locally) must be caught with replayable traces. The
# separate target dir keeps the cfg'd build from thrashing the normal
# cache. See DESIGN.md §14.
SCHEDCHECK_PREEMPTIONS=2 RUSTFLAGS='--cfg schedcheck' \
    CARGO_TARGET_DIR=target/schedcheck \
    timeout 600 cargo test -q --release --offline -p schedcheck
SCHEDCHECK_PREEMPTIONS=2 RUSTFLAGS='--cfg schedcheck' \
    CARGO_TARGET_DIR=target/schedcheck \
    timeout 600 cargo test -q --release --offline -p native --test schedcheck_models

echo "== native stress battery (reduced iterations, watchdog-bounded) =="
# The concurrency battery behind the lock-free mailbox and the tree
# collectives: MPSC hammering, lost-wakeup polling races, deadline
# recompute under spurious wakes, a credit-window audit at several ack
# batch sizes, and randomized interleavings. NATIVE_STRESS_ITERS=1 keeps
# CI fast; hang-prone tests abort themselves via an internal watchdog,
# the timeout is the backstop. See DESIGN.md §13.
NATIVE_STRESS_ITERS=1 timeout 300 cargo test -q --release --offline \
    -p native --test native_stress

echo "== native perf smoke (quick gate vs committed baseline) =="
# Wall-clock throughput of the native backend on the bench scenarios
# (incast/pingpong/fanin/coll/stream) against the committed quick-mode
# capture: message and element counts must match exactly, wall time may
# not exceed NATIVE_BENCH_MAX_RATIO (default 4x) of the baseline's, and
# the quick baseline's embedded pre-overhaul capture must show a clear
# incast win (quick-mode bar 1.5x: the small CI incast is spawn-bound).
# The real acceptance bar — full-workload incast >= 3x over the
# pre-overhaul backend — is audited from the committed full artifact
# below, which costs nothing and holds on any host. See DESIGN.md §13.
timeout 300 cargo run --release --offline -q -p bench-harness --bin native_bench -- \
    --quick --check --baseline results/native_quick_baseline.json \
    --out target/BENCH_native_quick.json
cargo run --release --offline -q -p bench-harness --bin native_bench -- \
    --audit results/BENCH_native.json

echo "== engine perf smoke (quick gate vs committed baseline) =="
# Virtual times and message counts must match the committed quick-mode
# capture exactly (the timing model is deterministic — drift means a
# behaviour change); wall time may not exceed ENGINE_BENCH_MAX_RATIO
# (default 3x) of the baseline's. This also gates the streamprof hooks:
# with no Profiled wrapper attached they must cost nothing, so the
# virtual-time capture may not drift. Both this gate and the native one
# above include the agg_incast scenario (tree_reduce over 512 virtual /
# 64 real ranks), so the aggregation operators' timing and message
# counts are pinned by the committed baselines. See DESIGN.md §10, §15.
cargo run --release --offline -q -p bench-harness --bin engine_bench -- \
    --quick --check --baseline results/engine_quick_baseline.json \
    --out target/BENCH_engine_quick.json

echo "== extended-scale fig5 smoke (tree aggregation vs flat incast) =="
# One point of the FIG5_EXTENDED sweep (coarse granularity, 1,024 ranks,
# fixed seed) — enough to prove the aggregated master drain collapses
# versus the flat pipeline without paying for the full 16K sweep. The
# binary prints both drains; the committed 16K artifacts are
# results/fig5_extended.* and fig5_master_drain.*. Time-boxed because a
# weak-scaling point is thread-per-rank on the host; RESULTS_DIR keeps
# the partial sweep away from the committed artifacts. See DESIGN.md §15.
FIG5_EXTENDED=1 MAX_PROCS=1024 RESULTS_DIR=target/ci_results timeout 600 \
    cargo run --release --offline -q -p bench-harness --bin fig5

echo "== ci.sh: all green =="

#!/usr/bin/env bash
# The local CI gauntlet, in dependency order: build everything in release
# mode, check formatting and clippy on the library targets, run the full
# test suite (no test may be ignored), run the domain-aware
# static-analysis gate, build warning-free rustdoc,
# smoke-check the telemetry sampler, the figure bins, the fleet daemon
# and a 1M-chip fleet epoch, and smoke-run the repository benchmark.
#
# No benchmark is timed here, so this script stays deterministic on
# noisy shared machines: `cargo test` checks that every committed
# bench_history/*.jsonl parses. Record and gate real runs with
# `perf_ledger --repeats N --` on quiet hardware.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== cargo build --release" >&2
# --workspace matters: the root Cargo.toml is both workspace root and a
# package, so a bare `cargo build` builds only the root package and the
# member *bins* this script executes (fleetd, fleet_smoke, selfheal-top,
# the sampled bench) would silently stay stale.
cargo build --release --workspace

echo "== cargo fmt --check --all" >&2
cargo fmt --check --all

echo "== cargo clippy (library targets)" >&2
# The workspace's [workspace.lints.clippy] policy on every library; the
# vendored rand and proptest mirror external APIs and are exempt.
# Test, bench and bin targets are not gated yet (ROADMAP item 6).
cargo clippy --workspace --lib --exclude rand --exclude proptest -- -D warnings

echo "== cargo test" >&2
# --workspace: the root package holds the cross-crate tier-1 suites, but
# per-crate tests (fleet resume/protocol, analyzer fixtures, ...) live
# in their own crates and must run too.
cargo test -q --workspace | tee "$SMOKE_DIR/test.log"
# A permanently ignored test is a suite that never runs; none may exist.
if grep -E 'test result:.* [1-9][0-9]* ignored' "$SMOKE_DIR/test.log" >&2; then
    echo "cargo test reports ignored tests; run them or delete them" >&2
    exit 1
fi

echo "== cargo analyzer check" >&2
# Includes the workspace dataflow pass (any deterministic root reaching
# a clock/env/IO/unseeded-RNG sink without a justified trust annotation
# is a finding) and the test-only-pub pass (a library pub fn that only
# tests name is a finding); the gate is zero findings.
cargo analyzer check
# The JSON report end to end: it must parse and agree with the gate.
cargo analyzer check --json | python3 -c '
import json, sys
report = json.load(sys.stdin)
assert report["total"] == 0 and report["findings"] == [], report
print("analyzer report: 0 findings")
'

echo "== cargo analyzer graph (smoke)" >&2
# The graph dump must stay valid JSON and see every workspace crate.
cargo analyzer graph | python3 -c '
import json, sys
g = json.load(sys.stdin)
assert len(g["crates"]) >= 10, g["crates"]
assert g["nodes"] and g["edges"] and g["roots"]
n, e, r, c = (len(g[k]) for k in ("nodes", "edges", "roots", "crates"))
print(f"analyzer graph: {n} nodes, {e} edges, {r} roots across {c} crates")
'

echo "== cargo doc" >&2
# Rustdoc only warns on a stale or private intra-doc link, so a deleted
# item can stay linked from docs unnoticed; here every warning fails.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== telemetry sampler smoke" >&2
# One real bench run with the streaming sampler on: the Prometheus
# status file must parse as valid text exposition (selfheal-top --check
# embeds the in-tree parser and requires selfheal_sample_ts_ns).
SELFHEAL_TELEMETRY_SAMPLE=20ms \
    target/release/telemetry_sampler --json --status "$SMOKE_DIR/status.prom" \
    > /dev/null
target/release/selfheal-top --check "$SMOKE_DIR/status.prom"
# TrapBank::advance_all feeds the kernel counters; the sampled bench
# steps 10k traps 200 times per pass, so the total must be nonzero.
grep -Eq '^selfheal_bti_td_kernel_traps_advanced [1-9]' "$SMOKE_DIR/status.prom" \
    || { echo "sampler status file carries no kernel traps_advanced count" >&2; exit 1; }

echo "== planner probe smoke" >&2
# One run of the planner microbenchmark, so the bin cannot rot; its
# timings are recorded with perf_ledger, not read here.
target/release/planner_probe --json --out "$SMOKE_DIR/planner_probe.json" > /dev/null

echo "== figure bins smoke" >&2
# The paper campaign end to end: every artefact once, then fig5 twice.
# Every run recomputes the campaign, so the two fig5 manifests (kernel
# counters, fpga histograms, testbench samples and all) must agree.
target/release/all_experiments --json --out "$SMOKE_DIR/all_experiments.json" > /dev/null
target/release/fig5 --json --out "$SMOKE_DIR/fig5.a.json" > /dev/null
target/release/fig5 --json --out "$SMOKE_DIR/fig5.b.json" > /dev/null
target/release/manifest_diff "$SMOKE_DIR/fig5.a.json" "$SMOKE_DIR/fig5.b.json" --tolerance 1e-9

echo "== fleet daemon smoke" >&2
# End-to-end service path: fleetd on an ephemeral loopback port with a
# small fleet, an isolated checkpoint store, latency objectives, a flight
# recorder, and a Chrome-trace sink; one request of each type (plus a
# debug-dump and a pipelined batch of 8 predicts) via fleet_smoke
# tracing its own side, the live
# status file re-checked (including mtime freshness, the epoch gauge and
# the slo gauges),
# both trace halves merged into one connected flow graph, and a clean
# shutdown that must leave a final checkpoint behind.
SELFHEAL_TELEMETRY_SAMPLE=50ms \
SELFHEAL_TELEMETRY="trace:$SMOKE_DIR/fleet.daemon.trace.json" \
    target/release/fleetd --chips 256 --shards 4 --workers 2 \
    --epoch-ms 100 --checkpoint-every 0 --cache-dir "$SMOKE_DIR/fleet-cache" \
    --slo 'plan:p99<30s' --slo 'stats:p50<30s' \
    --flight-dump "$SMOKE_DIR/fleet.flight.jsonl" \
    --status "$SMOKE_DIR/fleet.prom" --addr-file "$SMOKE_DIR/fleet.addr" &
FLEETD_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/fleet.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/fleet.addr" ] || { echo "fleetd never published its address" >&2; exit 1; }
# Let a couple of wall-clock epochs land before poking it.
sleep 0.3
target/release/fleet_smoke --connect "$(cat "$SMOKE_DIR/fleet.addr")" \
    --trace "$SMOKE_DIR/fleet.client.trace.json" --shutdown
wait "$FLEETD_PID"
target/release/selfheal-top --check --max-age 60s "$SMOKE_DIR/fleet.prom"
grep -q '^selfheal_slo_plan_p99_ok' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no slo gauges" >&2; exit 1; }
grep -q '^selfheal_fleet_epoch ' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no fleet epoch gauge" >&2; exit 1; }
# How long each epoch clock hold (a tick or a sweep step) held the
# daemon lock, and how long each tick took to catch every shard up.
grep -Eq '^selfheal_fleet_epoch_us_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no epoch lock-hold histogram" >&2; exit 1; }
grep -Eq '^selfheal_fleet_epoch_sweep_us_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no epoch sweep histogram" >&2; exit 1; }
# Where each request's time went: waiting for the lock, then under it.
grep -Eq '^selfheal_fleet_request_queue_us_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no request queue-wait histogram" >&2; exit 1; }
grep -Eq '^selfheal_fleet_request_exec_us_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no request execution histogram" >&2; exit 1; }
# Lock wait and execution per kind: fleet_smoke sends one stats request.
grep -Eq '^selfheal_fleet_request_stats_queue_us_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no stats queue-wait histogram" >&2; exit 1; }
grep -Eq '^selfheal_fleet_request_stats_exec_us_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no stats execution histogram" >&2; exit 1; }
# How many replies each write carried (fleet_smoke pipelines 8 predicts).
grep -Eq '^selfheal_fleet_request_batch_count [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no reply batch histogram" >&2; exit 1; }
# Requests that caught up their own lagging shard (exported from 0).
grep -Eq '^selfheal_fleet_request_catch_ups [0-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "status file carries no request catch-up counter" >&2; exit 1; }
# Fleet epochs step chip ranges, not whole banks: each shard counts the
# traps it stepped, so the live daemon has a kernel line too.
grep -Eq '^selfheal_bti_td_kernel_traps_advanced [1-9]' "$SMOKE_DIR/fleet.prom" \
    || { echo "fleet status file carries no kernel traps_advanced count" >&2; exit 1; }
# A stale status file (dead writer) must now fail the checker.
touch -d '10 minutes ago' "$SMOKE_DIR/fleet.prom"
if target/release/selfheal-top --check --max-age 60s "$SMOKE_DIR/fleet.prom" 2>/dev/null; then
    echo "selfheal-top --check --max-age accepted a stale status file" >&2; exit 1
fi
# The shutdown path dumps the flight ring: every line must be one JSON
# event and the lifecycle records must bracket the requests.
python3 - "$SMOKE_DIR/fleet.flight.jsonl" <<'PY'
import json, sys
kinds = []
with open(sys.argv[1]) as fh:
    for line in fh:
        kinds.append(json.loads(line)["kind"])
assert kinds, "flight dump is empty"
assert "lifecycle" in kinds, f"no lifecycle records in {set(kinds)}"
assert "request" in kinds, f"no request records in {set(kinds)}"
print(f"flight dump: {len(kinds)} parseable event(s)")
PY
# Merge the two trace halves: each request is two arrows, the client's
# fleet.rpc into the daemon and the daemon's fleet.reply back, so each
# name needs at least one id spanning both pids. Neither half may carry
# the fleet.queue hand-off arrow the daemon no longer has.
target/release/trace_merge --out "$SMOKE_DIR/fleet.merged.trace.json" \
    "$SMOKE_DIR/fleet.client.trace.json" "$SMOKE_DIR/fleet.daemon.trace.json"
python3 - "$SMOKE_DIR/fleet.merged.trace.json" \
    "$SMOKE_DIR/fleet.client.trace.json" "$SMOKE_DIR/fleet.daemon.trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
flows = {}
for event in doc["traceEvents"]:
    if event.get("ph") in ("s", "f"):
        flows.setdefault((event["name"], event["id"]), set()).add(event["pid"])
crossed = {name for (name, _), pids in flows.items() if len(pids) > 1}
for name in ("fleet.rpc", "fleet.reply"):
    assert name in crossed, f"no {name} flow spans both processes ({len(flows)} flow id(s))"
for half in sys.argv[2:]:
    events = json.load(open(half))["traceEvents"]
    assert not any(e.get("name") == "fleet.queue" for e in events), f"{half} has a fleet.queue event"
print(f"trace merge: {sum(len(p) > 1 for p in flows.values())} cross-process flow(s) of {len(flows)}")
PY
# A fleet keeps exactly one checkpoint file, overwritten at every save.
CKPTS=$(find "$SMOKE_DIR/fleet-cache" -name '*.ckpt' | wc -l)
[ "$CKPTS" -eq 1 ] || { echo "expected exactly one checkpoint file, found $CKPTS" >&2; exit 1; }
echo "fleet smoke: clean shutdown, one checkpoint file" >&2

echo "== fleet resume smoke" >&2
# Checkpoints end to end: a daemon serves every request type, a kill -9
# mid-flight resumes from its cadence checkpoint (not a fresh fleet),
# and a damaged checkpoint is refused. The smoke's debug-dump request
# persists the flight ring before the kill, so even a SIGKILLed daemon
# leaves a parseable dump behind.
target/release/fleetd --chips 256 --shards 4 --workers 2 \
    --epoch-ms 50 --checkpoint-every 2 --cache-dir "$SMOKE_DIR/resume-cache" \
    --flight-dump "$SMOKE_DIR/resume.flight.jsonl" \
    --addr-file "$SMOKE_DIR/resume.addr" 2> "$SMOKE_DIR/resume.first.log" &
RESUME_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/resume.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/resume.addr" ] || { echo "fleetd never published its address" >&2; exit 1; }
# Enough wall-clock epochs for the checkpoint cadence to fire at least once.
sleep 0.5
target/release/fleet_smoke --connect "$(cat "$SMOKE_DIR/resume.addr")"
kill -9 "$RESUME_PID"
wait "$RESUME_PID" 2>/dev/null || true
grep -q '(resumed: false)' "$SMOKE_DIR/resume.first.log" \
    || { echo "fleetd resumed in a fresh cache directory" >&2; exit 1; }
# SIGKILL runs no hooks; the dump on disk is the one the debug-dump
# request wrote moments before the kill, and it must still parse.
python3 - "$SMOKE_DIR/resume.flight.jsonl" <<'PY'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
assert events, "flight dump is empty after kill -9"
assert all(e["seq"] >= 0 and e["kind"] for e in events)
print(f"flight dump survives kill -9: {len(events)} event(s)")
PY
rm -f "$SMOKE_DIR/resume.addr"
target/release/fleetd --chips 256 --shards 4 --workers 2 \
    --epoch-ms 50 --checkpoint-every 2 --cache-dir "$SMOKE_DIR/resume-cache" \
    --addr-file "$SMOKE_DIR/resume.addr" 2> "$SMOKE_DIR/resume.second.log" &
RESUME_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/resume.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/resume.addr" ] || { echo "fleetd never restarted" >&2; exit 1; }
grep -q '(resumed: true' "$SMOKE_DIR/resume.second.log" \
    || { echo "restarted fleetd did not resume from its checkpoint" >&2; \
         cat "$SMOKE_DIR/resume.second.log" >&2; exit 1; }
# The first cadence save wrote the fleet image, so the resume read the
# trap constants from it instead of re-sampling them.
grep -q '(resumed: true, image: loaded)' "$SMOKE_DIR/resume.second.log" \
    || { echo "restarted fleetd did not load the fleet image" >&2; \
         cat "$SMOKE_DIR/resume.second.log" >&2; exit 1; }
target/release/fleet_smoke --connect "$(cat "$SMOKE_DIR/resume.addr")" --shutdown
wait "$RESUME_PID"
# Cadence saves, the kill -9, the resume and the final save all share
# one checkpoint file.
CKPTS=$(find "$SMOKE_DIR/resume-cache" -name '*.ckpt' | wc -l)
[ "$CKPTS" -eq 1 ] || { echo "resume: expected exactly one checkpoint file, found $CKPTS" >&2; exit 1; }
# A damaged fleet image is refused, never loaded, and costs only speed:
# flip one byte in its middle, and the restarted daemon must still
# resume the checkpoint (re-sampling the constants from the seed), say
# why on stderr, and leave a rewritten image after its final save.
IMAGE=$(find "$SMOKE_DIR/resume-cache" -name '*.img')
[ "$(echo "$IMAGE" | wc -l)" -eq 1 ] && [ -s "$IMAGE" ] \
    || { echo "resume: expected exactly one fleet image, found: $IMAGE" >&2; exit 1; }
python3 - "$IMAGE" <<'PY'
import sys
with open(sys.argv[1], "r+b") as fh:
    data = bytearray(fh.read())
    data[len(data) // 2] ^= 0xFF
    fh.seek(0)
    fh.write(data)
PY
rm -f "$SMOKE_DIR/resume.addr"
target/release/fleetd --chips 256 --shards 4 --workers 2 \
    --epoch-ms 50 --checkpoint-every 2 --cache-dir "$SMOKE_DIR/resume-cache" \
    --addr-file "$SMOKE_DIR/resume.addr" 2> "$SMOKE_DIR/resume.image.log" &
RESUME_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/resume.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/resume.addr" ] || { echo "fleetd never restarted after the image damage" >&2; exit 1; }
grep -q '(resumed: true, image: refused)' "$SMOKE_DIR/resume.image.log" \
    || { echo "fleetd did not resume past a damaged fleet image" >&2; \
         cat "$SMOKE_DIR/resume.image.log" >&2; exit 1; }
grep -q 'fleetd: fleet image refused, re-sampling the trap constants: fleet image ' \
    "$SMOKE_DIR/resume.image.log" \
    || { echo "fleetd did not say why it refused the damaged fleet image" >&2; \
         cat "$SMOKE_DIR/resume.image.log" >&2; exit 1; }
target/release/fleet_smoke --connect "$(cat "$SMOKE_DIR/resume.addr")" --shutdown
wait "$RESUME_PID"
[ -s "$IMAGE" ] || { echo "the final save did not rewrite the refused fleet image" >&2; exit 1; }
# A damaged checkpoint is refused, never resumed: cut the file in half,
# and the restarted daemon must start a fresh fleet, say why on stderr,
# serve, and leave a checkpoint/refused record in its flight dump.
CKPT=$(find "$SMOKE_DIR/resume-cache" -name '*.ckpt')
truncate -s $(( $(stat -c %s "$CKPT") / 2 )) "$CKPT"
rm -f "$SMOKE_DIR/resume.addr"
target/release/fleetd --chips 256 --shards 4 --workers 2 \
    --epoch-ms 50 --checkpoint-every 2 --cache-dir "$SMOKE_DIR/resume-cache" \
    --flight-dump "$SMOKE_DIR/resume.refused.flight.jsonl" \
    --addr-file "$SMOKE_DIR/resume.addr" 2> "$SMOKE_DIR/resume.third.log" &
RESUME_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/resume.addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/resume.addr" ] || { echo "fleetd never restarted after truncation" >&2; exit 1; }
grep -q '(resumed: false)' "$SMOKE_DIR/resume.third.log" \
    || { echo "fleetd resumed from a truncated checkpoint" >&2; \
         cat "$SMOKE_DIR/resume.third.log" >&2; exit 1; }
# The reason reaches stderr too, not only the flight dump.
grep -q 'fleetd: checkpoint refused, starting a fresh fleet: checkpoint unreadable: ' \
    "$SMOKE_DIR/resume.third.log" \
    || { echo "fleetd did not say why it refused the truncated checkpoint" >&2; \
         cat "$SMOKE_DIR/resume.third.log" >&2; exit 1; }
target/release/fleet_smoke --connect "$(cat "$SMOKE_DIR/resume.addr")" --shutdown
wait "$RESUME_PID"
python3 - "$SMOKE_DIR/resume.refused.flight.jsonl" <<'PY'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
refused = [e for e in events if e["kind"] == "checkpoint" and e["name"] == "refused"]
assert refused, f"no checkpoint/refused record among {len(events)} event(s)"
print(f"truncated checkpoint refused: {refused[0]['detail']}")
PY
echo "fleet resume smoke: served all request types, kill -9 resumed from its checkpoint and fleet image, damaged image re-sampled, truncated checkpoint refused" >&2

echo "== fleet epoch smoke" >&2
# One run of the full-resolution fleet epoch bench at 100k and 1M chips,
# so the bin cannot rot; its timings are recorded with perf_ledger, not
# read here.
target/release/fleet_epoch --json --out "$SMOKE_DIR/fleet_epoch.json" > /dev/null

echo "== repository benchmark (smoke)" >&2
# The benchmark is its own package (fleetbench/, outside the workspace):
# its unit tests, then one short round of every workload with every
# correctness check on (stats digest gate, bit-identical replay,
# structural reply checks). This also proves it still builds against
# the current crates.
cargo test -q --manifest-path fleetbench/Cargo.toml
bash fleetbench/run.sh --smoke

echo "ci: all gates green" >&2

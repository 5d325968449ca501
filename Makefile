# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-smoke chaos-smoke trace-smoke sched-smoke prof-smoke server-smoke forensics-smoke session-smoke examples docs clean loc

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# quick hot-path regression check (reduced quotas + small fleet)
bench-smoke:
	BENCH_SMOKE=1 dune exec bench/main.exe -- hotpath obs-overhead

# impairment + retry-engine sanity: CLI selftest, then a reduced chaos grid
chaos-smoke:
	dune exec bin/ra_cli.exe -- chaos --selftest
	BENCH_SMOKE=1 dune exec bench/main.exe -- chaos

# causal-tracing sanity: CLI selftest (Perfetto export, wire neutrality,
# SLO edge cases), then the tracing-overhead gate
trace-smoke:
	dune exec bin/ra_cli.exe -- trace --selftest
	BENCH_SMOKE=1 dune exec bench/main.exe -- trace

# fleet-engine sanity: CLI selftest at 4 shards (sweeps and traced chaos
# sweeps at 2/3/4/7 shards identical to 1 shard, stream-fingerprint
# invariance, deferred delivery, determinism), then the reduced sched
# bench (10k-device engine gate, stream, scaling grid -> BENCH_sched.json)
sched-smoke:
	dune exec bin/ra_cli.exe -- sched --selftest --shards 4
	BENCH_SMOKE=1 dune exec bench/main.exe -- sched

# profiler sanity: CLI selftest (cycle-exact attribution, symbolization,
# shard-invariant merges, folded/JSONL/Perfetto exports), then the
# sampling-overhead + wire-neutrality gates (BENCH_prof.json); also leaves
# profile.folded and profile.perfetto.json behind for artifact upload
prof-smoke:
	dune exec bin/ra_cli.exe -- profile --selftest --folded profile.folded --out profile.perfetto.json
	BENCH_SMOKE=1 dune exec bench/main.exe -- prof

# verifier-as-a-service sanity: CLI selftest (batched-vs-single verdicts,
# Seq-vs-Shards admission determinism, flood goodput + drop attribution,
# shared rejection-reason labels), then the reduced server bench
# (BENCH_server.json: batching speedup, flood goodput and p99 gates)
server-smoke:
	dune exec bin/ra_cli.exe -- serve --selftest
	BENCH_SMOKE=1 dune exec bench/main.exe -- server

# failure-forensics sanity: CLI selftest (capsule JSON round-trips,
# shard-count-invariant capsule streams, byte-identical replay, ranked
# triage, bucket exemplars, capture wire-neutrality), then the reduced
# forensics bench (BENCH_forensics.json: capture-overhead gate + replay
# identity at 10k devices in the full run); leaves the diagnosis report
# and the replayed round's Perfetto trace behind for artifact upload
forensics-smoke:
	dune exec bin/ra_cli.exe -- replay --selftest --diagnosis diagnosis.jsonl --perfetto replay.perfetto.json
	BENCH_SMOKE=1 dune exec bench/main.exe -- forensics

# secure-session sanity: CLI selftest (deterministic transcripts, shard-count
# identity, observability wire-neutrality, loss convergence, and the
# MITM/splice/replay/tamper adversary suite), then the reduced session
# bench (BENCH_session.json: record throughput, handshake amortization,
# convergence under 20% loss)
session-smoke:
	dune exec bin/ra_cli.exe -- session --selftest
	BENCH_SMOKE=1 dune exec bench/main.exe -- session

examples:
	dune exec examples/quickstart.exe
	dune exec examples/dos_battery.exe
	dune exec examples/roaming_adversary.exe
	dune exec examples/iot_fleet.exe
	dune exec examples/secure_update.exe
	dune exec examples/isa_attest.exe
	dune exec examples/interpreted_anchor.exe

clean:
	dune clean

loc:
	@find lib test bench bin examples -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1

# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench smoke examples docs clean loc digests

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# quick end-to-end check of everything the test suite cannot time: the
# paper tables plus the nine reduced bench sections in one run (results
# go to the gitignored BENCH_<section>.smoke.json, never the committed
# BENCH_*.json), then the profile and replay drivers, which leave their
# flame graph, Perfetto traces and diagnosis report behind for artifact
# upload
smoke:
	BENCH_SMOKE=1 dune exec bench/main.exe -- table1 table2 table3 overhead clocks lattice hotpath obs-overhead chaos trace sched prof server forensics session
	dune exec bin/ra_cli.exe -- profile --folded profile.folded --out profile.perfetto.json
	dune exec bin/ra_cli.exe -- replay --diagnosis diagnosis.jsonl --perfetto replay.perfetto.json

# every BENCHMARK.json workload once at full size and the default seed
# (a few seconds each): run.sh reports "correct":true only when no
# operation failed and the simulated outputs hash to the digest pinned in
# bench/e2e/ra_bench.ml. dune runtest checks the smoke-size digests only.
digests:
	@for w in $$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do \
	  line=$$(bash bench/e2e/run.sh --workload $$w --seconds 0.01 | tail -n 1); \
	  echo "$$w: $$line"; \
	  case "$$line" in *'"correct":true'*) ;; *) echo "$$w: digest or operations wrong" >&2; exit 1 ;; esac; \
	done

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

# Exported vals without a caller, in one awk pass over every source
# file: for each word, the first module (path without .ml/.mli) that
# names it, and whether a second module does too. A lib/ .mli val whose
# name no second module names as a whole word has no caller.
define callerless_awk
{ m = FILENAME; sub(/\.mli?$$/, "", m) }
FILENAME ~ /^lib\/.*\.mli$$/ && /^ *val / {
  v = $$0; sub(/^ *val +/, "", v); sub(/[^A-Za-z0-9_].*/, "", v)
  if (v != "") vals[m "." v] = v
}
{
  n = split($$0, w, /[^A-Za-z0-9_]+/)
  for (i = 1; i <= n; i++)
    if (w[i] in home) { if (home[w[i]] != m) shared[w[i]] = 1 }
    else if (w[i] != "") home[w[i]] = m
}
END {
  for (k in vals) if (!(vals[k] in shared)) {
    sub(/.*\//, "", k); print toupper(substr(k, 1, 1)) substr(k, 2)
  }
}
endef
export callerless_awk

# the four sizes ROADMAP tracks, then the exported vals without a caller
loc:
	@echo "lib/ .ml+.mli lines: $$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"
	@echo "lib/ .mli vals:      $$(find lib -name '*.mli' | xargs grep -h '^ *val ' | wc -l)"
	@echo "bin/ra_cli.ml:       $$(wc -l < bin/ra_cli.ml)"
	@echo "bench/main.ml:       $$(wc -l < bench/main.ml)"
	@names=$$(find lib bin bench examples test -name '*.ml' -o -name '*.mli' \
	  | xargs awk "$$callerless_awk" | sort); \
	  echo "caller-less vals:    $$(echo "$$names" | grep -c .) $$(echo $$names)"

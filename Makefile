# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench smoke examples docs clean loc

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

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

# Exported vals without a caller, counted by qualified name in one awk
# pass over every source file. Comments and string literals are blanked
# first, so a doc comment or a message that names a val is no caller. A
# lib/ .mli val M.v (M.Sub.v inside a nested signature) is called when a
# file other than M's own .ml/.mli names it as M.v (after an optional
# Ra_* library prefix), through a module alias (module X = ...M, then
# X.v; or module C = Ra_crypto, then C.M.v), or as a bare v in a file
# that opens M (open M, let open M in, M.( ... )). Module names are
# matched without their library, so a name two libraries share (Trace)
# counts a caller of either as a caller of both.
define callerless_awk
# the line with comments and string literals blanked; depth (comment
# nesting) and str (inside "..." or {|...|}) carry across lines
function code(s,   out, i, n, c, c2, j) {
  out = ""; n = length(s); i = 1
  while (i <= n) {
    c = substr(s, i, 1); c2 = substr(s, i, 2)
    if (str == 1) {
      if (c == "\\") i += 2
      else { if (c == "\"") str = 0; i++ }
    } else if (str == 2) {
      if (c2 == "|}") { str = 0; i += 2 } else i++
    } else if (c2 == "(*") { depth++; i += 2 }
    else if (depth > 0) {
      if (c2 == "*)") { depth--; i += 2 }
      else { if (c == "\"") str = 1; i++ }
    } else if (c == "\"") { str = 1; out = out " "; i++ }
    else if (c2 == "{|") { str = 2; out = out " "; i += 2 }
    else if (c == "'" && substr(s, i + 1, 1) == "\\") {
      j = index(substr(s, i + 3), "'"); out = out " "; i += j + 3
    } else if (c == "'" && substr(s, i + 2, 1) == "'") { out = out " "; i += 3 }
    else { out = out c; i++ }
  }
  return out
}
# a module path without its Ra_* library prefix
function unlib(p) { sub(/^Ra_[a-z]+\./, "", p); return p }
function add_open(f, p) {
  p = unlib(p)
  if (!((f, p) in opened)) { opened[f, p] = 1; opens[f] = opens[f] " " p }
}
FNR == 1 {
  stem = FILENAME; sub(/\.mli?$$/, "", stem); stems[stem] = 1
  depth = 0; str = 0; nsig = 0; open_next = 0
  mod = stem; sub(/.*\//, "", mod); mod = toupper(substr(mod, 1, 1)) substr(mod, 2)
}
{
  s = code($$0)
  if (FILENAME ~ /^lib\/.*\.mli$$/) {
    if (match(s, /^ *module +[A-Z][A-Za-z0-9_']* *: *sig/)) {
      m = substr(s, RSTART, RLENGTH); sub(/^ *module +/, "", m); sub(/[^A-Za-z0-9_'].*/, "", m)
      sigs[++nsig] = m
    } else if (s ~ /^ *end/ && nsig > 0) nsig--
    if (match(s, /^ *val +[a-z_][A-Za-z0-9_']*/)) {
      v = substr(s, RSTART, RLENGTH); sub(/^ *val +/, "", v)
      p = mod; for (k = 1; k <= nsig; k++) p = p "." sigs[k]
      vals[stem, p "." v] = 1
    }
  }
  # module aliases, then every dotted path: open targets, and for each
  # lower-case component the upper-case run before it (M.v, M.Sub.v, v)
  r = s
  while (match(r, /module +[A-Z][A-Za-z0-9_']* *= *[A-Z][A-Za-z0-9_'.]*/)) {
    a = substr(r, RSTART, RLENGTH); x = a; r = substr(r, RSTART + RLENGTH)
    sub(/^module +/, "", x); sub(/[^A-Za-z0-9_'].*/, "", x); sub(/.*= */, "", a)
    alias[stem, x] = unlib(a)
  }
  while (match(s, /[A-Za-z_][A-Za-z0-9_']*(\.[A-Za-z_][A-Za-z0-9_']*)*/)) {
    t = substr(s, RSTART, RLENGTH); after = substr(s, RSTART + RLENGTH, 2)
    s = substr(s, RSTART + RLENGTH)
    if (open_next) { add_open(stem, t); open_next = 0; continue }
    if (t == "open") { open_next = 1; continue }
    if (after == ".(") add_open(stem, t)
    n = split(t, w, ".")
    q = ""
    for (k = 1; k <= n; k++)
      if (w[k] ~ /^[A-Z]/) q = (q == "" ? w[k] : q "." w[k])
      else { refs[stem, q == "" ? w[k] : q "." w[k]] = 1; q = "" }
  }
}
END {
  for (r in refs) {
    split(r, rs, SUBSEP); f = rs[1]; p = rs[2]
    if (p ~ /^[A-Z]/) {
      p = unlib(p); h = p; sub(/\..*/, "", h)
      if ((f, h) in alias) p = unlib(alias[f, h] substr(p, length(h) + 1))
      called[f, p] = 1
    }
    n = split(opens[f], os, " ")
    for (k = 1; k <= n; k++) called[f, os[k] "." p] = 1
  }
  for (k in vals) {
    split(k, ks, SUBSEP); home = ks[1]; p = ks[2]; hit = 0
    for (f in stems) if (f != home && (f, p) in called) { hit = 1; break }
    if (!hit) print p
  }
}
endef
export callerless_awk

# the four sizes ROADMAP tracks, then the exported vals without a
# caller; fails when that list names anything but the one rule item 3 of
# ROADMAP.md will program
loc:
	@echo "lib/ .ml+.mli lines: $$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"
	@echo "lib/ .mli vals:      $$(find lib -name '*.mli' | xargs grep -h '^ *val ' | wc -l)"
	@echo "bin/ra_cli.ml:       $$(wc -l < bin/ra_cli.ml)"
	@echo "bench/main.ml:       $$(wc -l < bench/main.ml)"
	@names=$$(find lib bin bench examples test -name '*.ml' -o -name '*.mli' \
	  | xargs awk "$$callerless_awk" | sort); \
	  echo "caller-less vals:    $$(echo "$$names" | grep -c .) $$(echo $$names)"; \
	  if echo "$$names" | grep -qvx 'Service.rule_protect_service_state\|'; then \
	    echo "exported vals above have no caller: use them or drop them from their .mli" >&2; \
	    exit 1; \
	  fi

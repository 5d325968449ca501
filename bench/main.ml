(* Benchmark & reproduction harness: one section per table/figure of the
   paper. Run with no arguments for everything, or with section names:

     table1 memory-mac table2 roaming lattice campaign window table3
     mpu-scaling overhead clocks auth-cost dos-energy nonce-memory swatt
     realtime figure1 host-crypto hotpath isa sha1-asm obs-overhead chaos
     trace sched prof server forensics session

   Sections print the paper's published value next to the value this
   repository computes/measures, so EXPERIMENTS.md can be regenerated by
   reading the output. Nine sections also write BENCH_<name>.json (set
   BENCH_SMOKE=1 for a quick CI-sized run, written to
   BENCH_<name>.smoke.json instead): hotpath, obs-overhead (as "obs"),
   chaos, trace, sched, prof, server, forensics and session.

   Benches measure; the test suite asserts behaviour. Every host time is
   N repeats on the monotonic clock, reported as median and quartiles;
   simulated numbers (cycles, convergence, capsule counts) are
   deterministic and reported as plain values. *)

module Timing = Ra_mcu.Timing
module Clock = Ra_mcu.Clock
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Energy = Ra_mcu.Energy
module Component = Ra_hwcost.Component
module Synthesis = Ra_hwcost.Synthesis
module C = Ra_crypto

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* ---- measurement: one clock, two estimators, one writer ---- *)

module J = Ra_obs.Json

let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

(* Repeats per estimate, and the shortest timed window: an operation
   faster than the window is timed in batches of back-to-back calls. *)
let repeats = if smoke then 5 else 21
let min_window_ns = if smoke then 1e6 else 1e7

type stats = { n : int; q1 : float; median : float; q3 : float }

let time_ns f =
  let t0 = Monotonic_clock.now () in
  f ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* quantiles interpolated at q * (n + 1), as bench/e2e reports them *)
let stats_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let q p =
    let pos = (p *. float_of_int (n + 1)) -. 1.0 in
    let pos = Float.max 0.0 (Float.min (float_of_int (n - 1)) pos) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  in
  { n; q1 = q 0.25; median = q 0.5; q3 = q 0.75 }

let scale k s = { s with q1 = s.q1 *. k; median = s.median *. k; q3 = s.q3 *. k }

(* Every timed operation is staged: [run ()] prepares one repeat outside
   the timed window (a fresh fleet, say) and returns the thunk to time;
   [fun () () -> op] is the unprepared case. [window run batch] is the
   per-call ns of one repeat. *)
let window run batch =
  let f = run () in
  time_ns (fun () ->
      for _ = 1 to batch do
        f ()
      done)
  /. float_of_int batch

(* calls per timed window: doubled until one window is long enough; the
   calibration windows double as warm-up *)
let calibrate run =
  let rec go batch =
    if batch >= 1 lsl 20 || window run batch *. float_of_int batch >= min_window_ns then
      batch
    else go (2 * batch)
  in
  go 1

(* [sample run]: per-call ns over [repeats] timed windows. An operation
   that fills a window in one call runs unbatched, and its calibration
   call counts as the first repeat (so a [~repeats:1] run of a long sweep
   runs it once). *)
let sample ?(repeats = repeats) run =
  let first = window run 1 in
  if first >= min_window_ns then
    stats_of (first :: List.init (repeats - 1) (fun _ -> window run 1))
  else
    let batch = calibrate run in
    stats_of (List.init repeats (fun _ -> window run batch))

type pair = { a : stats; b : stats; ratio : stats }

(* [paired run_a run_b]: A and B timed in adjacent windows (same thermal
   and frequency state), the order alternating pair by pair to cancel
   first-order drift; [ratio] summarises the per-pair B/A ratios. *)
let paired ?(repeats = repeats) run_a run_b =
  let batch = calibrate run_a in
  ignore (window run_b batch);
  let pairs =
    List.init repeats (fun i ->
        if i land 1 = 0 then
          let a = window run_a batch in
          (a, window run_b batch)
        else
          let b = window run_b batch in
          (window run_a batch, b))
  in
  {
    a = stats_of (List.map fst pairs);
    b = stats_of (List.map snd pairs);
    ratio = stats_of (List.map (fun (a, b) -> b /. a) pairs);
  }

let num x = J.Num x
let int n = J.Num (float_of_int n)

let stats_json s =
  J.Obj [ ("median", num s.median); ("q1", num s.q1); ("q3", num s.q3); ("n", int s.n) ]

let stats_obj rows = J.Obj (List.map (fun (k, s) -> (k, stats_json s)) rows)

let print_ns rows =
  Printf.printf "%-22s %14s %14s %14s %4s\n" "operation" "median ns" "q1" "q3" "n";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-22s %14.1f %14.1f %14.1f %4d\n" name s.median s.q1 s.q3 s.n)
    rows

(* One budget row. Budgets on host times do not apply to smoke runs,
   whose windows are too short to resolve a few percent; a row that does
   not apply prints why and records [pass] as null. *)
let gate ?(applicable = not smoke) ?(why = "smoke run: windows too short to time")
    name value bound =
  let budget, met, rel =
    match bound with
    | `Max b -> (b, value <= b, "<=")
    | `Min b -> (b, value >= b, ">=")
  in
  Printf.printf "gate %s: %.3f (budget %s %.3f) -> %s\n" name value rel budget
    (if not applicable then "not applicable: " ^ why else if met then "PASS" else "FAIL");
  J.Obj
    [
      ("name", J.Str name);
      ("value", num value);
      ("budget", num budget);
      ("applicable", J.Bool applicable);
      ("pass", if applicable then J.Bool met else J.Null);
    ]

let host =
  J.Obj
    [
      ("cores", int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("os", J.Str Sys.os_type);
      ("word_size", int Sys.word_size);
    ]

(* Every section that records machine-readable results writes them
   through here, in one schema: to BENCH_<name>.json, or under
   BENCH_SMOKE to the gitignored BENCH_<name>.smoke.json, so smoke runs
   never overwrite the committed results. *)
let write_bench ?(gates = []) name fields =
  let path = Printf.sprintf "BENCH_%s%s.json" name (if smoke then ".smoke" else "") in
  let doc =
    J.Obj
      ((("bench", J.Str name) :: ("smoke", J.Bool smoke) :: ("host", host) :: fields)
      @ [ ("gates", J.Arr gates) ])
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ---- Table 1 ---- *)

let bench_table1 () =
  section "Table 1: crypto primitive performance on the 24 MHz prover model";
  Printf.printf "%-28s %12s %12s\n" "primitive" "paper (ms)" "model (ms)";
  let row name paper model = Printf.printf "%-28s %12.3f %12.3f\n" name paper model in
  row "SHA1-HMAC fixed" 0.340 Timing.hmac_sha1_fixed_ms;
  row "SHA1-HMAC per 64B block" 0.092 Timing.hmac_sha1_per_block_ms;
  row "AES-128 key expansion" 0.074 Timing.aes128_key_expansion_ms;
  row "AES-128 encrypt / 16B" 0.288 Timing.aes128_encrypt_block_ms;
  row "AES-128 decrypt / 16B" 0.570 Timing.aes128_decrypt_block_ms;
  row "Speck 64/128 key exp." 0.016 Timing.speck64_key_expansion_ms;
  row "Speck 64/128 encrypt / 8B" 0.017 Timing.speck64_encrypt_block_ms;
  row "Speck 64/128 decrypt / 8B" 0.015 Timing.speck64_decrypt_block_ms;
  row "ECDSA secp160r1 sign" 183.464 Timing.ecdsa_sign_ms;
  row "ECDSA secp160r1 verify" 170.907 Timing.ecdsa_verify_ms;
  Printf.printf
    "\n(model = Table 1 constants, exposed by Ra_mcu.Timing and charged to\n\
    \ the simulated device on every protocol action)\n"

let bench_host_crypto () =
  section "Host measurements: the same primitives, real code";
  let key16 = String.make 16 'k' in
  let aes = C.Aes.expand key16 in
  let speck = C.Speck.expand key16 in
  let block64 = String.make 64 'm' in
  let block16 = String.make 16 'm' in
  let block8 = String.make 8 'm' in
  let kp = C.Ecdsa.generate_keypair C.Ec.secp160r1 ~seed:"bench" in
  let signature = C.Ecdsa.sign C.Ec.secp160r1 ~secret:kp.C.Ecdsa.secret "msg" in
  print_ns
    (List.map
       (fun (name, run) -> (name, sample run))
       [
         ("hmac-sha1-64B", fun () () -> ignore (C.Hmac.mac C.Hmac.sha1 ~key:key16 block64));
         ("aes128-keyexp", fun () () -> ignore (C.Aes.expand key16));
         ("aes128-enc-16B", fun () () -> ignore (C.Aes.encrypt_block aes block16));
         ("aes128-dec-16B", fun () () -> ignore (C.Aes.decrypt_block aes block16));
         ("speck64-keyexp", fun () () -> ignore (C.Speck.expand key16));
         ("speck64-enc-8B", fun () () -> ignore (C.Speck.encrypt_block speck block8));
         ("speck64-dec-8B", fun () () -> ignore (C.Speck.decrypt_block speck block8));
         ( "ecdsa-sign",
           fun () () -> ignore (C.Ecdsa.sign C.Ec.secp160r1 ~secret:kp.C.Ecdsa.secret "msg")
         );
         ( "ecdsa-verify",
           fun () () ->
             ignore
               (C.Ecdsa.verify C.Ec.secp160r1 ~public:kp.C.Ecdsa.public ~msg:"msg"
                  signature) );
       ]);
  Printf.printf
    "\n(the host is orders of magnitude faster than a 24 MHz MCU; the paper's\n\
    \ *ordering* -- Speck < AES ~ HMAC << ECDSA -- must and does hold)\n"

(* ---- §3.1 memory MAC ---- *)

let bench_memory_mac () =
  section "S3.1: SHA1-HMAC over the prover's writable memory";
  Printf.printf "%-12s %14s\n" "memory" "model (ms)";
  List.iter
    (fun kb ->
      Printf.printf "%-12s %14.3f\n"
        (Printf.sprintf "%d KB" kb)
        (Timing.memory_mac_ms ~bytes_len:(kb * 1024)))
    [ 16; 64; 128; 256; 512; 1024 ];
  Printf.printf "\npaper: 512 KB -> 754.032 ms; model: %.3f ms (Table 1 constants;\n"
    (Timing.memory_mac_ms ~bytes_len:(512 * 1024));
  Printf.printf "the paper's printed formula swaps the fix/per-block roles -- see DESIGN.md)\n";
  (* cross-check: actually run it on the simulated device *)
  let session = Ra_core.Session.create ~ram_size:(512 * 1024) () in
  Ra_core.Session.advance_time session ~seconds:1.0;
  let cpu = Device.cpu (Ra_core.Session.device session) in
  let before = Cpu.work_cycles cpu in
  (match Ra_core.Session.attest_round session with
  | Some _ -> ()
  | None -> failwith "attestation failed");
  let spent = Int64.sub (Cpu.work_cycles cpu) before in
  Printf.printf "full request handling on the simulated device: %.3f ms of prover work\n"
    (Timing.ms_of_cycles spent)

(* ---- Table 2 ---- *)

let bench_table2 () =
  section "Table 2: DoS mitigation features vs Adv_ext attacks (simulated)";
  let matrix = Ra_core.Experiment.table2 () in
  Printf.printf "%-10s %-10s %-10s %-12s\n" "attack" "nonces" "counter" "timestamps";
  List.iter
    (fun (attack, cells) ->
      Printf.printf "%-10s" (Ra_core.Experiment.attack_name attack);
      List.iter
        (fun (_, mitigated) ->
          Printf.printf " %-10s" (if mitigated then "mitigated" else "-"))
        cells;
      Printf.printf "\n")
    matrix;
  Printf.printf "matches the paper's Table 2: %b\n"
    (matrix = Ra_core.Experiment.expected_table2)

(* ---- §5 roaming ---- *)

let bench_roaming () =
  section "S5: roaming adversary scenarios (three-phase, simulated)";
  List.iter
    (fun o -> Format.printf "%a@." Ra_core.Experiment.pp_roam_outcome o)
    (Ra_core.Experiment.roaming_matrix ())

(* ---- Table 3 ---- *)

let bench_table3 () =
  section "Table 3: hardware cost per component (registers / LUTs)";
  Printf.printf "%-22s %10s %12s %8s\n" "component" "MPU rules" "registers" "LUTs";
  let row (c : Component.t) =
    Printf.printf "%-22s %10d %12d %8d\n" c.Component.component_name
      c.Component.mpu_rules c.Component.direct_registers c.Component.direct_luts
  in
  row Component.siskiyou_peak;
  Printf.printf "%-22s %10d %12s %8s\n" "EA-MPU (TrustLite)" 1 "278+116/r" "417+182/r";
  row Component.attest_key;
  row Component.request_counter;
  row Component.clock_64bit;
  row Component.clock_32bit;
  row Component.sw_clock

(* ---- §6.3 overhead ---- *)

let bench_overhead () =
  section "S6.3: overhead of prover protection vs attestation-only baseline";
  Format.printf "baseline: %a@." Synthesis.pp_totals Synthesis.baseline;
  Printf.printf "(paper: 6038 registers, 15142 LUTs)\n\n";
  let row paper_r paper_l o =
    Format.printf "%a@." Synthesis.pp_overhead o;
    Printf.printf "  paper: +%%reg %.2f, +%%LUT %.2f\n" paper_r paper_l
  in
  row 2.98 1.62 Synthesis.upgrade_64bit_clock;
  row 2.45 1.41 Synthesis.upgrade_32bit_clock;
  row 5.76 3.61 Synthesis.upgrade_sw_clock;
  Printf.printf "\nclock-width ablation (counter rule + n-bit dedicated clock):\n";
  Printf.printf "%-8s %10s %8s %8s\n" "width" "+reg" "%reg" "%LUT";
  List.iter
    (fun width ->
      let o =
        Synthesis.overhead
          ~name:(Printf.sprintf "%d-bit" width)
          [ Component.request_counter; Component.clock_nbit ~width ]
      in
      Printf.printf "%-8d %10d %8.2f %8.2f\n" width o.Synthesis.added_registers
        o.Synthesis.register_pct o.Synthesis.lut_pct)
    [ 16; 24; 32; 40; 48; 56; 64 ]

(* ---- EA-MPU rule-count scaling (Table 3 formulas) ---- *)

let bench_mpu_scaling () =
  section "Table 3: EA-MPU cost as the rule table grows (278+116r / 417+182r)";
  Printf.printf "%-8s %12s %10s %14s\n" "#rules" "registers" "LUTs" "% of baseline";
  List.iter
    (fun rules ->
      let regs = Component.ea_mpu_registers ~rules in
      let luts = Component.ea_mpu_luts ~rules in
      Printf.printf "%-8d %12d %10d %13.1f%%\n" rules regs luts
        (100.0 *. float_of_int regs /. float_of_int Synthesis.baseline.Synthesis.registers))
    [ 1; 2; 3; 4; 5; 6; 8; 12; 16 ];
  Printf.printf
    "\n(each protected component costs one 116-register slot; the full Fig. 1b\n\
     configuration needs 5 rules = %d registers of EA-MPU)\n"
    (Component.ea_mpu_registers ~rules:5)

(* ---- interpreted-core throughput ---- *)

let bench_isa () =
  section "Interpreted MCU core: host execution throughput";
  let memory =
    Ra_mcu.Memory.create
      [
        Ra_mcu.Region.make ~name:"flash" ~base:0 ~size:4096 ~kind:Ra_mcu.Region.Flash;
        Ra_mcu.Region.make ~name:"ram" ~base:0x1000 ~size:4096 ~kind:Ra_mcu.Region.Ram;
      ]
  in
  let program =
    match
      Ra_isa.Asm.assemble ~origin:0
        {|
          mov r1, #0
          mov r2, #200
        loop:
          add r1, #1
          cmp r1, r2
          jnz loop
          halt
        |}
    with
    | Ok p -> p
    | Error e -> Format.kasprintf failwith "asm: %a" Ra_isa.Asm.pp_error e
  in
  Ra_isa.Asm.load memory program;
  let s =
    sample (fun () () ->
        let cpu = Cpu.create memory (Ra_mcu.Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
        let core = Ra_isa.Core.create cpu ~pc:0 ~sp:0x2000 in
        ignore (Ra_isa.Core.run core))
  in
  print_ns [ ("isa-600-insns", s) ];
  Printf.printf "(~%.1f M interpreted insns/s at the median)\n" (604.0 /. s.median *. 1000.0)

(* ---- §6.3 clock arithmetic ---- *)

let bench_clocks () =
  section "S6.3: clock wrap-around / resolution arithmetic";
  let hz = Timing.siskiyou_hz in
  Printf.printf "%-28s %18s %16s\n" "configuration" "wraparound" "resolution";
  let row name width divider =
    let wrap_s = Clock.wraparound_seconds ~hz ~width ~divider_log2:divider in
    let wrap =
      if wrap_s > 3.15e7 then
        Printf.sprintf "%.1f years" (Clock.wraparound_years ~hz ~width ~divider_log2:divider)
      else if wrap_s > 60.0 then Printf.sprintf "%.1f minutes" (wrap_s /. 60.0)
      else Printf.sprintf "%.1f s" wrap_s
    in
    let rez = (2.0 ** float_of_int divider) /. float_of_int hz in
    let rez_str =
      if rez < 1e-3 then Printf.sprintf "%.1f ns" (rez *. 1e9)
      else Printf.sprintf "%.1f ms" (rez *. 1e3)
    in
    Printf.printf "%-28s %18s %16s\n" name wrap rez_str
  in
  row "64 bit, no divider" 64 0;
  row "32 bit, no divider" 32 0;
  row "32 bit, divide by 2^20" 32 20;
  Printf.printf
    "\npaper: 64-bit wraps after 24,372.6 years; 32-bit after ~3 minutes;\n\
     divided 32-bit after ~6 years at 42 ms resolution (exact: 43.7 ms)\n"

(* ---- §4.1 request authentication ---- *)

let bench_auth_cost () =
  section "S4.1: cost for the prover to authenticate one request";
  Printf.printf "%-24s %10s %14s %16s\n" "scheme" "bits" "cold (ms)" "precomputed (ms)";
  List.iter
    (fun scheme ->
      Printf.printf "%-24s %10d %14.3f %16.3f\n"
        (Format.asprintf "%a" Timing.pp_auth_scheme scheme)
        (Timing.auth_scheme_message_bits scheme)
        (Timing.request_auth_ms scheme)
        (Timing.request_auth_ms ~precomputed_key_schedule:true scheme))
    [
      Timing.Auth_hmac_sha1;
      Timing.Auth_aes128_cbc_mac;
      Timing.Auth_speck64_cbc_mac;
      Timing.Auth_ecdsa_verify;
    ];
  Printf.printf
    "\npaper: HMAC 0.430 ms, Speck down to 0.015 ms with precomputed schedule,\n\
     ECC ~170 ms -- authenticating with public-key crypto is itself DoS-grade.\n"

(* ---- DoS energy (E1) ---- *)

let bench_dos_energy () =
  section "DoS energy: battery lifetime under a bogus-request flood";
  let battery = Energy.create () in
  let mac_cycles = Timing.memory_mac_cycles ~bytes_len:(512 * 1024) in
  let per_request = function
    | `Unauthenticated -> Int64.to_float mac_cycles (* full attestation runs *)
    | `Hmac_reject -> Int64.to_float (Timing.request_auth_cycles Timing.Auth_hmac_sha1)
    | `Speck_reject ->
      Int64.to_float
        (Timing.request_auth_cycles ~precomputed_key_schedule:true
           Timing.Auth_speck64_cbc_mac)
  in
  Printf.printf "%-12s %20s %20s %20s\n" "req/s" "no auth (days)" "HMAC reject (days)"
    "Speck reject (days)";
  List.iter
    (fun rate ->
      let life kind =
        Energy.lifetime_seconds battery ~duty_cycles_per_second:(rate *. per_request kind)
        /. 86400.0
      in
      Printf.printf "%-12.1f %20.1f %20.1f %20.1f\n" rate (life `Unauthenticated)
        (life `Hmac_reject) (life `Speck_reject))
    [ 0.1; 1.0; 10.0; 100.0 ];
  (* cross-check against the simulated device: flood 200 bogus requests *)
  let flooded spec =
    let session = Ra_core.Session.create ~spec ~ram_size:(64 * 1024) () in
    let bogus =
      Ra_core.Adversary.forge_request session ~freshness:Ra_core.Message.F_none ()
    in
    Ra_core.Adversary.flood session ~count:200 bogus;
    Energy.consumed_joules (Device.energy (Ra_core.Session.device session))
  in
  let unauth = flooded Ra_core.Architecture.unprotected in
  let auth = flooded Ra_core.Architecture.smart_like in
  Printf.printf
    "\nsimulated: 200 bogus requests on a 64 KB prover consume\n\
    \  unauthenticated prover: %.6f J\n\
    \  HMAC-authenticating prover: %.6f J (%.0fx less)\n"
    unauth auth (unauth /. auth)

(* ---- nonce-history memory ablation (§4.2) ---- *)

let bench_nonce_memory () =
  section "S4.2 ablation: freshness state memory on the prover";
  let spec =
    Ra_core.Architecture.with_policy
      { Ra_core.Architecture.trustlite_base with clock_impl = Device.Clock_none }
      (Ra_core.Freshness.Nonce_history { max_entries = None })
  in
  let session = Ra_core.Session.create ~spec ~ram_size:4096 () in
  Printf.printf "%-12s %22s %22s\n" "requests" "nonce history (bytes)" "counter (bytes)";
  List.iter
    (fun target ->
      let current =
        Ra_core.Freshness.history_length
          (Ra_core.Code_attest.freshness (Ra_core.Session.anchor session))
      in
      for _ = current + 1 to target do
        ignore (Ra_core.Session.attest_round session)
      done;
      Printf.printf "%-12d %22d %22d\n" target
        (Ra_core.Freshness.history_bytes
           (Ra_core.Code_attest.freshness (Ra_core.Session.anchor session)))
        8)
    [ 1; 10; 50; 100; 200 ];
  Printf.printf
    "\n(unbounded growth vs a fixed 8-byte cell -- the paper's reason to rule\n\
     out nonce histories; bounded histories re-admit evicted nonces, see tests)\n"

(* ---- interpreted SHA-1 vs Table 1 ---- *)

let bench_sha1_asm () =
  section "Interpreted SHA-1 (assembly on the simulated core) vs Table 1";
  let memory =
    Ra_mcu.Memory.create
      [
        Ra_mcu.Region.make ~name:"rom_attest" ~base:0x1000 ~size:8192
          ~kind:Ra_mcu.Region.Rom;
        Ra_mcu.Region.make ~name:"ram" ~base:0x10000 ~size:4096 ~kind:Ra_mcu.Region.Ram;
      ]
  in
  let sha = Ra_isa.Sha1_asm.install memory ~origin:0x1000 ~scratch_addr:0x10000 in
  Ra_mcu.Memory.seal_rom memory;
  let cpu =
    Cpu.create memory (Ra_mcu.Ea_mpu.create ~capacity:0) ~clock_hz:Timing.siskiyou_hz
  in
  let d = Ra_isa.Sha1_asm.digest sha cpu "abc" in
  Printf.printf "digest(\"abc\") = %s (matches native: %b)\n"
    (C.Hexutil.to_hex d)
    (d = C.Sha1.digest "abc");
  let per_block = Ra_isa.Sha1_asm.last_run_cycles sha in
  Printf.printf "code size: %d bytes of ROM\n" (Ra_isa.Sha1_asm.code_size_bytes sha);
  Printf.printf "interpreted compression: %Ld cycles/block = %.3f ms at 24 MHz\n"
    per_block (Timing.ms_of_cycles per_block);
  Printf.printf
    "Table 1 (real Siskiyou Peak core): 0.092 ms/block = 2208 cycles\n\
     (our toy load/store ISA needs ~%.1fx the instructions of the real\n\
     core's richer addressing modes -- same order of magnitude)\n"
    (Int64.to_float per_block /. 2208.0)

(* ---- timestamp-window ablation ---- *)

let bench_window () =
  section "Timestamp acceptance window: false rejects vs delay-attack exposure";
  let windows = [ 2L; 5L; 10L; 50L; 200L; 1000L ] in
  Printf.printf "%-12s %16s %16s %16s\n" "window (ms)" "direct link" "LAN (3 hops)"
    "internet (12)";
  let sweep path =
    Ra_core.Ablation.timestamp_window_sweep ~trials:400 ~path ~windows ~seed:42L ()
  in
  let direct = sweep Ra_net.Path.direct in
  let lan = sweep Ra_net.Path.lan in
  let inet = sweep Ra_net.Path.internet in
  List.iteri
    (fun i w ->
      let rate points = 100.0 *. Ra_core.Ablation.false_reject_rate (List.nth points i) in
      Printf.printf "%-12Ld %15.1f%% %15.1f%% %15.1f%%\n" w (rate direct) (rate lan)
        (rate inet))
    windows;
  List.iter
    (fun (name, path) ->
      Printf.printf "recommended window for %-10s %4Ld ms (= exposure to withheld requests)\n"
        name
        (Ra_core.Ablation.recommended_window_ms ~path))
    [ ("direct:", Ra_net.Path.direct); ("LAN:", Ra_net.Path.lan); ("internet:", Ra_net.Path.internet) ];
  Printf.printf
    "\n(the window must cover the path's one-way delay, and every ms of it is\n\
     a ms an intercepted request stays fresh -- the delay-protection knob)\n"

(* ---- deployment campaign (future work 1) ---- *)

let bench_campaign () =
  section "Deployment campaign: 8 provers, 7 days, hostile network";
  let report = Ra_core.Campaign.run Ra_core.Campaign.default_config in
  Format.printf "%a@." Ra_core.Campaign.pp_report report;
  Printf.printf
    "\n(every flood request rejected at MAC-check cost, every replay refused,\n\
     every resident infection flagged on the next sweep -- the protected\n\
     architecture holds up over a simulated week of abuse)\n";
  let unprotected =
    Ra_core.Campaign.run
      { Ra_core.Campaign.default_config with
        Ra_core.Campaign.spec = Ra_core.Architecture.unprotected }
  in
  Printf.printf "\nsame week, unprotected prover:\n";
  Format.printf "%a@." Ra_core.Campaign.pp_report unprotected;
  Printf.printf "DoS amplification: %d bogus requests attested in full\n"
    unprotected.Ra_core.Campaign.flood_requests_attested

(* ---- exhaustive protection lattice (S5/S6.2) ---- *)

let bench_lattice () =
  section "S5/S6.2: exhaustive protection lattice (16 configs x 3 tampers)";
  Printf.printf "%-36s %-42s %s\n" "defences" "observed exposure" "= predicted";
  let all_agree = ref true in
  List.iter
    (fun (config, _predicted, observed, agree) ->
      if not agree then all_agree := false;
      Format.printf "%-36s %-42s %s@."
        (Format.asprintf "%a" Ra_core.Analysis.pp_config config)
        (Format.asprintf "%a" Ra_core.Analysis.pp_exposure observed)
        (if agree then "yes" else "NO"))
    (Ra_core.Analysis.exhaustive_check ());
  Printf.printf
    "\nall 16 lattice points match the paper's case analysis: %b\n\
     (an unlocked EA-MPU loses everything; with lockdown each asset is\n\
     exposed exactly when its own rule is missing)\n"
    !all_agree

(* ---- software-based attestation baseline (S2) ---- *)

let bench_swatt () =
  section "S2 baseline: SWATT-style software attestation vs network jitter";
  let key = String.make 60 'k' in
  let make () =
    let d = Device.create ~ram_size:(16 * 1024) ~key () in
    Device.fill_ram_deterministic d ~seed:5L;
    d
  in
  let params = Ra_core.Swatt.default_params in
  let margin =
    Ra_core.Swatt.detection_margin_ms ~params ~memory_bytes:(16 * 1024)
      ~hz:Timing.siskiyou_hz
  in
  Printf.printf "16 KB prover, 3 accesses/byte; cheater overhead (margin): %.2f ms\n\n" margin;
  Printf.printf "%-14s %12s %14s %14s\n" "jitter (ms)" "slack" "honest" "cheater";
  let honest_ms =
    float_of_int (3 * 16 * 1024 * params.Ra_core.Swatt.cycles_per_access)
    *. 1000.0 /. float_of_int Timing.siskiyou_hz
  in
  List.iter
    (fun jitter ->
      (* the verifier must set slack generously enough for honest+jitter *)
      let slack = (honest_ms +. jitter) /. honest_ms in
      let tolerant = { params with Ra_core.Swatt.slack_factor = slack } in
      let verdict v =
        match v.Ra_core.Swatt.outcome with
        | Ra_core.Swatt.Accepted -> "ACCEPTED"
        | Ra_core.Swatt.Rejected_wrong_checksum -> "rejected"
        | Ra_core.Swatt.Rejected_too_slow -> "rejected"
      in
      let honest =
        Ra_core.Swatt.attest ~params:tolerant ~jitter_ms:jitter ~reference:(make ())
          ~prover:(make ()) "n"
      in
      let cheat_prover = make () in
      Ra_mcu.Memory.write_bytes
        (Device.memory cheat_prover)
        (Device.attested_base cheat_prover)
        "MALWARE!";
      let cheat =
        Ra_core.Swatt.attest ~cheating:true ~params:tolerant ~jitter_ms:0.0
          ~reference:(make ()) ~prover:cheat_prover "n"
      in
      Printf.printf "%-14.2f %12.3f %14s %14s\n" jitter slack (verdict honest)
        (verdict cheat))
    [ 0.0; 0.5 *. margin; 0.9 *. margin; 1.5 *. margin; 3.0 *. margin ];
  Printf.printf
    "\n(once round-trip jitter exceeds the cheater's fixed overhead, any slack\n\
     that accepts honest provers also accepts cheaters -- the paper's reason\n\
     to rule out software-based attestation over a network)\n"

(* ---- real-time co-existence ablation (§3.1) ---- *)

let bench_realtime () =
  section "S3.1 ablation: attestation vs a 10 ms control task (4 ms WCET)";
  let base =
    {
      Ra_core.Realtime.task_period_ms = 10.0;
      task_wcet_ms = 4.0;
      attestation_ms = Timing.memory_mac_ms ~bytes_len:(512 * 1024);
      anchor_mode = Ra_core.Realtime.Non_interruptible;
      horizon_ms = 60_000.0;
      request_times_ms = [];
    }
  in
  Printf.printf "attestation = %.0f ms (512 KB MAC); horizon 60 s\n\n"
    base.Ra_core.Realtime.attestation_ms;
  Printf.printf "%-16s %24s %24s\n" "" "non-interruptible (SMART)" "interruptible (TyTAN)";
  Printf.printf "%-16s %12s %11s %12s %11s\n" "attest period" "miss rate" "latency"
    "miss rate" "latency";
  List.iter
    (fun every ->
      let run mode =
        Ra_core.Realtime.simulate
          {
            base with
            Ra_core.Realtime.anchor_mode = mode;
            request_times_ms =
              Ra_core.Realtime.periodic_requests ~every_ms:every
                ~horizon_ms:base.Ra_core.Realtime.horizon_ms;
          }
      in
      let smart = run Ra_core.Realtime.Non_interruptible in
      let tytan = run Ra_core.Realtime.Interruptible in
      Printf.printf "%-16s %11.1f%% %9.0fms %11.1f%% %9.0fms\n"
        (Printf.sprintf "%.0f s" (every /. 1000.0))
        (100.0 *. Ra_core.Realtime.miss_rate smart)
        smart.Ra_core.Realtime.max_attestation_latency_ms
        (100.0 *. Ra_core.Realtime.miss_rate tytan)
        tytan.Ra_core.Realtime.max_attestation_latency_ms)
    [ 30_000.0; 10_000.0; 5_000.0; 2_000.0 ];
  Printf.printf
    "\n(uninterruptible attestation trades task deadlines for attestation\n\
     latency; the interruptible anchor trades the other way -- the paper's\n\
     reason why neither pure option suits real-time provers)\n"

(* ---- Figure 1 ---- *)

let bench_figure1 () =
  section "Figure 1: the two prototype architectures, as built";
  let describe spec =
    let prover =
      Ra_core.Architecture.build ~ram_size:4096
        ~key_blob:
          (Ra_core.Auth.prover_key_blob ~sym_key:(String.make 20 'k') ~public:None)
        spec
    in
    Printf.printf "\n[%s]\n" spec.Ra_core.Architecture.spec_name;
    Printf.printf "  boot: %s\n"
      (match prover.Ra_core.Architecture.boot_outcome with
      | Ra_mcu.Secure_boot.Booted -> "secure boot OK, EA-MPU locked"
      | Ra_mcu.Secure_boot.Rejected_bad_image _ -> "REJECTED");
    Printf.printf "  clock: %s\n"
      (match Device.clock prover.Ra_core.Architecture.device with
      | None -> "none"
      | Some c ->
        (match Clock.kind c with
        | Clock.Hw_counter -> "dedicated hardware counter register"
        | Clock.Sw_clock -> "Clock_LSB (hw, wraps -> IRQ) + Clock_MSB (Code_clock)"));
    List.iter
      (fun r ->
        Printf.printf "  EA-MPU rule: %-12s base=0x%06x size=%d\n" r.Ra_mcu.Ea_mpu.rule_name
          r.Ra_mcu.Ea_mpu.data_base r.Ra_mcu.Ea_mpu.data_size)
      (Ra_mcu.Ea_mpu.rules (Device.mpu prover.Ra_core.Architecture.device))
  in
  describe Ra_core.Architecture.trustlite_base;
  describe Ra_core.Architecture.trustlite_sw_clock

(* ---- hot-path kernels: seed (boxed Int32) vs current (unboxed int) ---- *)

(* The seed repository's SHA-1 kernel, kept verbatim as the wall-clock
   baseline: boxed Int32 arithmetic, a fresh 80-word Int32 schedule per
   block, byte-at-a-time big-endian loads. Everything the current
   lib/crypto kernel exists to beat. *)
module Legacy_sha1 = struct
  let digest_size = 20
  let block_size = 64

  type ctx = {
    state : int32 array;
    buf : Bytes.t;
    mutable buf_len : int;
    mutable total : int64;
  }

  let init () =
    {
      state =
        [| 0x67452301l; 0xEFCDAB89l; 0x98BADCFEl; 0x10325476l; 0xC3D2E1F0l |];
      buf = Bytes.create block_size;
      buf_len = 0;
      total = 0L;
    }

  let rotl32 x n =
    Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

  let compress state block off =
    let w = Array.make 80 0l in
    for t = 0 to 15 do
      let base = off + (4 * t) in
      let b i = Int32.of_int (Char.code (Bytes.get block (base + i))) in
      w.(t) <-
        Int32.logor
          (Int32.shift_left (b 0) 24)
          (Int32.logor
             (Int32.shift_left (b 1) 16)
             (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    done;
    for t = 16 to 79 do
      w.(t) <-
        rotl32
          (Int32.logxor
             (Int32.logxor w.(t - 3) w.(t - 8))
             (Int32.logxor w.(t - 14) w.(t - 16)))
          1
    done;
    let a = ref state.(0)
    and b = ref state.(1)
    and c = ref state.(2)
    and d = ref state.(3)
    and e = ref state.(4) in
    for t = 0 to 79 do
      let f, k =
        if t < 20 then
          ( Int32.logor (Int32.logand !b !c) (Int32.logand (Int32.lognot !b) !d),
            0x5A827999l )
        else if t < 40 then (Int32.logxor !b (Int32.logxor !c !d), 0x6ED9EBA1l)
        else if t < 60 then
          ( Int32.logor
              (Int32.logand !b !c)
              (Int32.logor (Int32.logand !b !d) (Int32.logand !c !d)),
            0x8F1BBCDCl )
        else (Int32.logxor !b (Int32.logxor !c !d), 0xCA62C1D6l)
      in
      let temp =
        Int32.add (rotl32 !a 5) (Int32.add f (Int32.add !e (Int32.add k w.(t))))
      in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := temp
    done;
    state.(0) <- Int32.add state.(0) !a;
    state.(1) <- Int32.add state.(1) !b;
    state.(2) <- Int32.add state.(2) !c;
    state.(3) <- Int32.add state.(3) !d;
    state.(4) <- Int32.add state.(4) !e

  let feed t s =
    let len = String.length s in
    t.total <- Int64.add t.total (Int64.of_int len);
    let pos = ref 0 in
    if t.buf_len > 0 then begin
      let take = min (block_size - t.buf_len) len in
      Bytes.blit_string s 0 t.buf t.buf_len take;
      t.buf_len <- t.buf_len + take;
      pos := take;
      if t.buf_len = block_size then begin
        compress t.state t.buf 0;
        t.buf_len <- 0
      end
    end;
    while len - !pos >= block_size do
      Bytes.blit_string s !pos t.buf 0 block_size;
      compress t.state t.buf 0;
      pos := !pos + block_size
    done;
    let rest = len - !pos in
    if rest > 0 then begin
      Bytes.blit_string s !pos t.buf t.buf_len rest;
      t.buf_len <- t.buf_len + rest
    end

  let finalize t =
    let bits = Int64.mul t.total 8L in
    Bytes.set t.buf t.buf_len '\x80';
    t.buf_len <- t.buf_len + 1;
    if t.buf_len > block_size - 8 then begin
      Bytes.fill t.buf t.buf_len (block_size - t.buf_len) '\x00';
      compress t.state t.buf 0;
      t.buf_len <- 0
    end;
    Bytes.fill t.buf t.buf_len (block_size - 8 - t.buf_len) '\x00';
    for i = 0 to 7 do
      Bytes.set t.buf
        (block_size - 1 - i)
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
    done;
    compress t.state t.buf 0;
    String.init digest_size (fun i ->
        let word = t.state.(i / 4) in
        let shift = 8 * (3 - (i mod 4)) in
        Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical word shift) 0xFFl)))

  let digest s =
    let t = init () in
    feed t s;
    finalize t

  (* the seed's Hmac.mac: pads re-derived and concatenated per message *)
  let hmac ~key msg =
    let key = if String.length key > block_size then digest key else key in
    let key = key ^ String.make (block_size - String.length key) '\x00' in
    let ipad = C.Hexutil.xor key (String.make block_size '\x36') in
    let opad = C.Hexutil.xor key (String.make block_size '\x5c') in
    digest (opad ^ digest (ipad ^ msg))
end

let bench_hotpath () =
  section "Hot path: seed kernels vs unboxed kernels, fleet sweep";
  let key = String.make 20 'k' in
  let block64 = String.make 64 'm' in
  let big = String.make 4096 'm' in
  (* sanity: the legacy kernel and the new one agree before we race them *)
  assert (Legacy_sha1.digest big = C.Sha1.digest big);
  assert (Legacy_sha1.hmac ~key block64 = C.Hmac.mac C.Hmac.sha1 ~key block64);
  let kc = C.Hmac.key C.Hmac.sha1 ~key in
  let kernels =
    List.map
      (fun (name, run) -> (name, sample run))
      [
        ("sha1-4KiB-seed", fun () () -> ignore (Legacy_sha1.digest big));
        ("sha1-4KiB", fun () () -> ignore (C.Sha1.digest big));
        ("sha256-4KiB", fun () () -> ignore (C.Sha256.digest big));
        ("hmac-sha1-64B-seed", fun () () -> ignore (Legacy_sha1.hmac ~key block64));
        ("hmac-sha1-64B", fun () () -> ignore (C.Hmac.mac C.Hmac.sha1 ~key block64));
        ("hmac-sha1-64B-keyed", fun () () -> ignore (C.Hmac.mac_with kc block64));
      ]
  in
  print_ns kernels;
  let ns name = (List.assoc name kernels).median in
  let hmac_speedup = ns "hmac-sha1-64B-seed" /. ns "hmac-sha1-64B-keyed" in
  Printf.printf
    "\nSHA-1/4KiB: %.2fx the seed kernel's throughput; HMAC-SHA1/64B keyed\n\
     midstate kernel: %.2fx (medians)\n"
    (ns "sha1-4KiB-seed" /. ns "sha1-4KiB")
    hmac_speedup;
  (* fleet sweep: enough hashing work per member that the engine's
     per-member bookkeeping is noise; shard scaling lives in the sched
     section *)
  let members = if smoke then 8 else 16 in
  let ram_kib = if smoke then 256 else 512 in
  let names = List.init members (Printf.sprintf "dev-%02d") in
  let fleet = Ra_core.Fleet.create ~ram_size:(ram_kib * 1024) ~names () in
  Ra_core.Fleet.advance fleet ~seconds:1.0;
  ignore (Ra_core.Fleet.sweep fleet); (* warm-up: first sweep pays session setup *)
  let sweep = sample (fun () () -> ignore (Ra_core.Fleet.sweep fleet)) in
  Printf.printf "\nfleet sweep: %d members, %d KiB RAM each, 1 shard: %.4f s (median of %d)\n"
    members ram_kib (sweep.median /. 1e9) sweep.n;
  write_bench "hotpath"
    [
      ("kernels_ns", stats_obj kernels);
      ("hmac_sha1_64B_speedup_vs_seed", num hmac_speedup);
      ( "fleet_sweep",
        J.Obj
          [
            ("members", int members);
            ("ram_kib", int ram_kib);
            ("sweep_s", stats_json (scale 1e-9 sweep));
          ] );
    ]

(* ---- observability overhead: Ra_obs cost on the PR-1 hot path ---- *)

let bench_obs_overhead () =
  section "Observability: Ra_obs cost on the HMAC-SHA1/64B hot path";
  let key = String.make 20 'k' in
  let block64 = String.make 64 'm' in
  let kc = C.Hmac.key C.Hmac.sha1 ~key in
  let registry = Ra_obs.Registry.create () in
  let counter = Ra_obs.Registry.Counter.get ~registry "bench_ops_total" in
  let labeled () =
    Ra_obs.Registry.Counter.get ~registry
      ~labels:[ ("scheme", "hmac_sha1"); ("result", "ok") ]
      "bench_labeled_total"
  in
  let histogram = Ra_obs.Registry.Histogram.get ~registry "bench_ms" in
  let spans = Ra_obs.Span.create ~registry ~clock:(fun () -> 0.0) () in
  (* the per-verification instrumentation is one precreated-counter
     increment: HMAC with and without it, in adjacent windows *)
  let hmac =
    paired
      (fun () () -> ignore (C.Hmac.mac_with kc block64))
      (fun () () ->
        ignore (C.Hmac.mac_with kc block64);
        Ra_obs.Registry.Counter.inc counter)
  in
  let ops =
    ("hmac-64B-plain", hmac.a) :: ("hmac-64B-counted", hmac.b)
    :: List.map
         (fun (name, run) -> (name, sample run))
         [
           ("counter-inc", fun () () -> Ra_obs.Registry.Counter.inc counter);
           ("counter-get-labeled", fun () () -> ignore (labeled ()));
           ("histogram-observe", fun () () -> Ra_obs.Registry.Histogram.observe histogram 1.5);
           ( "span-enter-exit",
             fun () () -> Ra_obs.Span.with_span spans "bench.span" (fun () -> ()) );
         ]
  in
  print_ns ops;
  Printf.printf
    "\ncounted/plain ratio: median %.4f, IQR [%.4f, %.4f] over %d alternating pairs\n"
    hmac.ratio.median hmac.ratio.q1 hmac.ratio.q3 hmac.ratio.n;
  Printf.printf
    "(labeled get is mutex-guarded -- %.0f ns -- which is why hot paths\n\
     precreate their handles at module init)\n"
    (List.assoc "counter-get-labeled" ops).median;
  let overhead = gate "max_counted_overhead_pct" ((hmac.ratio.median -. 1.0) *. 100.0) (`Max 5.0) in
  write_bench "obs" ~gates:[ overhead ]
    [ ("ops_ns", stats_obj ops); ("counted_over_plain", stats_json hmac.ratio) ]

(* ---- chaos: convergence under an impaired wire ---- *)

let bench_chaos () =
  section "Chaos: retry/backoff convergence over a lossy channel";
  let members = if smoke then 4 else 8 in
  let rounds = if smoke then 5 else 20 in
  let losses = [ 0.0; 0.05; 0.2; 0.4 ] in
  let policies =
    [
      ("no-retry", Ra_core.Retry.no_retry);
      ("impatient", Ra_core.Retry.impatient);
      ("default", Ra_core.Retry.default);
    ]
  in
  let names = List.init members (Printf.sprintf "chaos-%02d") in
  let fleet () = Ra_core.Fleet.create ~ram_size:4096 ~names () in
  let chaos f = Ra_core.Fleet.chaos_sweep ~rounds_per_member:rounds ~losses ~policies f in
  let grid = chaos (fleet ()) in
  let wall =
    sample ~repeats:7 (fun () ->
        let f = fleet () in
        fun () -> ignore (chaos f))
  in
  Printf.printf "%d members x %d rounds per cell, %d cells, %.3f s wall (median of %d)\n\n"
    members rounds (List.length grid) (wall.median /. 1e9) wall.n;
  Printf.printf "%-8s %-10s %12s %14s %10s %10s %10s\n" "loss" "policy" "converged"
    "mean attempts" "p50 (s)" "p90 (s)" "p99 (s)";
  List.iter
    (fun c ->
      Printf.printf "%-8s %-10s %11.1f%% %14.2f %10.3f %10.3f %10.3f\n"
        (Printf.sprintf "%.0f%%" (100.0 *. c.Ra_core.Fleet.c_loss))
        c.Ra_core.Fleet.c_policy
        (Ra_core.Fleet.convergence_pct c)
        c.Ra_core.Fleet.c_mean_attempts c.Ra_core.Fleet.c_p50_s c.Ra_core.Fleet.c_p90_s
        c.Ra_core.Fleet.c_p99_s)
    grid;
  let cell loss policy =
    List.find
      (fun c -> c.Ra_core.Fleet.c_loss = loss && c.Ra_core.Fleet.c_policy = policy)
      grid
  in
  let target = cell 0.2 "default" in
  Printf.printf
    "\n20%% loss: default backoff converges %.1f%%, no-retry %.1f%% -- the retry\n\
     engine closes the gap at %.2f transmissions per round\n"
    (Ra_core.Fleet.convergence_pct target)
    (Ra_core.Fleet.convergence_pct (cell 0.2 "no-retry"))
    target.Ra_core.Fleet.c_mean_attempts;
  let cell_json c =
    J.Obj
      [
        ("loss", num c.Ra_core.Fleet.c_loss);
        ("policy", J.Str c.Ra_core.Fleet.c_policy);
        ("rounds", int c.Ra_core.Fleet.c_rounds);
        ("converged", int c.Ra_core.Fleet.c_converged);
        ("convergence_pct", num (Ra_core.Fleet.convergence_pct c));
        ("mean_attempts", num c.Ra_core.Fleet.c_mean_attempts);
        ("p50_s", num c.Ra_core.Fleet.c_p50_s);
        ("p90_s", num c.Ra_core.Fleet.c_p90_s);
        ("p99_s", num c.Ra_core.Fleet.c_p99_s);
      ]
  in
  write_bench "chaos"
    [
      ("members", int members);
      ("rounds_per_member", int rounds);
      ("grid_s", stats_json (scale 1e-9 wall));
      ("cells", J.Arr (List.map cell_json grid));
    ]

(* ---- causal tracing: flight-recorder cost on the attestation path ---- *)

let bench_trace () =
  section "Causal tracing: flight-recorder overhead on the attestation hot path";
  (* 64 KiB of attested RAM keeps the round HMAC-dominated, which is the
     regime the gate talks about: the memory MAC is the hot path, the
     tracer adds a handful of events per *round*, never per block *)
  let ram_size = 64 * 1024 in
  let make_session () =
    let s = Ra_core.Session.create ~ram_size () in
    Ra_core.Session.advance_time s ~seconds:1.0;
    s
  in
  let plain_session = make_session () in
  let traced_session = make_session () in
  ignore (Ra_core.Session.enable_tracing ~capacity:8 ~device:"bench" traced_session);
  (* micro fixtures: the per-call-site cost of the causal hooks, with and
     without a tracer attached. The enabled fixture recycles its round
     every 1024 instants so memory stays bounded however many calls a
     timed window batches (the amortized seal cost is part of the
     number). *)
  let off_trace = Ra_net.Trace.create (Ra_net.Simtime.create ()) in
  let on_trace = Ra_net.Trace.create (Ra_net.Simtime.create ()) in
  let micro_tracer =
    Ra_obs.Trace.create ~capacity:1 ~max_events:2048 ~device:"micro"
      ~clock:(fun () -> 0.0)
      ()
  in
  Ra_net.Trace.set_tracer on_trace (Some micro_tracer);
  ignore (Ra_obs.Trace.begin_round micro_tracer);
  let micro_ticks = ref 0 in
  let round =
    paired
      (fun () () -> ignore (Ra_core.Session.attest_round_r plain_session))
      (fun () () -> ignore (Ra_core.Session.attest_round_r traced_session))
  in
  let ops =
    List.map
      (fun (name, run) -> (name, sample run))
      [
        ("nop", fun () () -> ());
        ( "causal-instant-off",
          fun () () -> Ra_net.Trace.causal_instant off_trace ~cat:"bench" "bench.tick" );
        ( "causal-instant-on",
          fun () () ->
            Ra_net.Trace.causal_instant on_trace ~cat:"bench" "bench.tick";
            incr micro_ticks;
            if !micro_ticks >= 1024 then begin
              micro_ticks := 0;
              Ra_obs.Trace.end_round micro_tracer ~verdict:"bench" ~attempts:1;
              ignore (Ra_obs.Trace.begin_round micro_tracer)
            end );
      ]
    @ [ ("round-plain", round.a); ("round-traced", round.b) ]
  in
  print_ns ops;
  let ns name = (List.assoc name ops).median in
  (* disabled mode: every causal hook is one option match. Charge the
     measured no-tracer hook cost once per event a traced round records
     (an overestimate: span mirrors count as events but fire no hook when
     tracing is off) against the plain round; with no hook-free build to
     pair against, this gate alone is analytic. *)
  let hooks_per_round =
    match
      Option.map Ra_obs.Trace.rounds (Ra_core.Session.tracing traced_session)
    with
    | Some (_ :: _ as rounds) ->
      let last = List.nth rounds (List.length rounds - 1) in
      List.length last.Ra_obs.Trace.rd_events + last.Ra_obs.Trace.rd_dropped
    | Some [] | None -> failwith "trace: no sealed round in the recorder"
  in
  let hook_off_ns = Float.max 0.0 (ns "causal-instant-off" -. ns "nop") in
  Printf.printf
    "\ntraced/plain round ratio: median %.4f, IQR [%.4f, %.4f] over %d alternating pairs\n\
     disabled: %d no-tracer hooks x %.1f ns per round; live tracer: %.1f ns per event\n\
     (amortized seal included -- events are per protocol step, not per MAC block)\n"
    round.ratio.median round.ratio.q1 round.ratio.q3 round.ratio.n hooks_per_round
    hook_off_ns
    (Float.max 0.0 (ns "causal-instant-on" -. ns "nop"));
  let enabled = gate "max_enabled_overhead_pct" ((round.ratio.median -. 1.0) *. 100.0) (`Max 5.0) in
  let disabled =
    gate "max_disabled_overhead_pct"
      (hook_off_ns *. float_of_int hooks_per_round /. ns "round-plain" *. 100.0)
      (`Max 0.5)
  in
  write_bench "trace" ~gates:[ enabled; disabled ]
    [
      ("ops_ns", stats_obj ops);
      ("traced_over_plain", stats_json round.ratio);
      ("ram_kib", int (ram_size / 1024));
      ("hooks_per_round", int hooks_per_round);
    ]

(* ---- the sharded event engine at fleet scale ---- *)

let bench_sched () =
  section "Scheduler: the sharded event engine at fleet scale";
  let module Fleet = Ra_core.Fleet in
  (* 1. the million-device stream, first in the section so the heap
     high-water mark it records is its own. One live session per shard
     at any moment keeps the heap bounded however large the fleet; the
     XOR fingerprint is the determinism witness. *)
  let stream_members = if smoke then 2_000 else 1_000_000 in
  let stream_shards = 4 in
  let fingerprint = ref "" in
  let stream =
    scale 1e-9
      (sample ~repeats:1 (fun () () ->
           fingerprint :=
             (Fleet.stream_sweep ~ram_size:1024 ~shards:stream_shards
                ~members:stream_members ())
               .Fleet.st_fingerprint))
  in
  let top_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6 in
  Printf.printf
    "streaming sweep: %d members on %d shards in %.1f s (%.0f members/s)\n\
     heap high-water %.0f MB; fingerprint %s\n"
    stream_members stream_shards stream.median
    (float_of_int stream_members /. stream.median)
    top_heap_mb !fingerprint;
  (* 2. a materialised fleet: the fleet-sweep end-to-end path. Tiny
     attested RAM keeps the cost in the machinery under test (staggering,
     the heap, round scheduling), not in hashing. *)
  let members = if smoke then 2_000 else 10_000 in
  let one, four =
    (* scoped, so the fleet is garbage before the scaling grid runs *)
    let fleet =
      Fleet.create ~ram_size:1024 ~names:(List.init members (Printf.sprintf "dev-%05d")) ()
    in
    Fleet.advance fleet ~seconds:1.0;
    ignore (Fleet.sweep fleet); (* warm-up: first sweep pays session setup *)
    let sweep k =
      scale 1e-9
        (sample ~repeats:5 (fun () () -> ignore (Fleet.sweep ~engine:(`Shards k) fleet)))
    in
    let one = sweep 1 in
    (one, sweep 4)
  in
  Printf.printf "\nmaterialised sweep: %d members, 1 KiB attested RAM each\n" members;
  Printf.printf "%-22s %12s %14s\n" "engine" "median s" "members/s";
  List.iter
    (fun (label, s) ->
      Printf.printf "%-22s %12.3f %14.0f\n" label s.median (float_of_int members /. s.median))
    [ ("1 shard", one); ("4 shards", four) ];
  (* 3. scaling: members x shard count on the streaming engine, which
     holds memory bounded at every size; speedup against one shard *)
  let sizes = if smoke then [ 1_000 ] else [ 10_000; 100_000 ] in
  let scaling =
    List.concat_map
      (fun m ->
        List.map
          (fun k ->
            ( m,
              k,
              scale 1e-9
                (sample ~repeats:3 (fun () () ->
                     ignore (Fleet.stream_sweep ~ram_size:1024 ~shards:k ~members:m ()))) ))
          [ 1; 2; 4 ])
      sizes
  in
  let speedup m k =
    let at j = List.find (fun (m', j', _) -> m' = m && j' = j) scaling in
    let _, _, s1 = at 1 and _, _, sk = at k in
    s1.median /. sk.median
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\nscaling curve (baseline: one shard, %d core%s available):\n" cores
    (if cores = 1 then "" else "s");
  Printf.printf "%10s %10s %12s %10s\n" "members" "shards" "median s" "speedup";
  List.iter
    (fun (m, k, s) -> Printf.printf "%10d %10d %12.3f %9.2fx\n" m k s.median (speedup m k))
    scaling;
  (* the 2x-at-4-shards gate: meaningful only where 4 domains can
     actually run in parallel, i.e. on >= 4 cores and at full size *)
  let gate_members = List.fold_left max 0 sizes in
  let speedup_gate =
    gate
      ~applicable:((not smoke) && cores >= 4)
      ~why:
        (if smoke then "smoke run: grid too small to measure scaling"
         else Printf.sprintf "host has %d core(s); the gate needs >= 4" cores)
      "min_speedup_4_shards" (speedup gate_members 4) (`Min 2.0)
  in
  write_bench "sched" ~gates:[ speedup_gate ]
    [
      ( "stream",
        J.Obj
          [
            ("members", int stream_members);
            ("shards", int stream_shards);
            ("seconds", stats_json stream);
            ("members_per_s", num (float_of_int stream_members /. stream.median));
            ("top_heap_mb", num top_heap_mb);
            ("fingerprint", J.Str !fingerprint);
          ] );
      ( "sweep",
        J.Obj
          [
            ("members", int members);
            ("shards1_s", stats_json one);
            ("shards4_s", stats_json four);
          ] );
      ( "scaling",
        J.Arr
          (List.map
             (fun (m, k, s) ->
               J.Obj
                 [
                   ("members", int m);
                   ("shards", int k);
                   ("seconds", stats_json s);
                   ("speedup", num (speedup m k));
                 ])
             scaling) );
    ]

(* ---- cycle-exact profiler: sampling overhead ---- *)

let bench_prof () =
  section "Profiler: PC-sampling overhead on the interpreted SHA-1";
  let make_sha () =
    let memory =
      Ra_mcu.Memory.create
        [
          Ra_mcu.Region.make ~name:"rom_attest" ~base:0x1000 ~size:8192
            ~kind:Ra_mcu.Region.Rom;
          Ra_mcu.Region.make ~name:"ram" ~base:0x10000 ~size:4096
            ~kind:Ra_mcu.Region.Ram;
        ]
    in
    let sha = Ra_isa.Sha1_asm.install memory ~origin:0x1000 ~scratch_addr:0x10000 in
    Ra_mcu.Memory.seal_rom memory;
    let cpu =
      Cpu.create memory (Ra_mcu.Ea_mpu.create ~capacity:0)
        ~clock_hz:Timing.siskiyou_hz
    in
    (memory, sha, cpu)
  in
  let _, plain_sha, plain_cpu = make_sha () in
  let samp_memory, samp_sha, samp_cpu = make_sha () in
  let pc = Ra_obs.Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~memory:samp_memory pc in
  Ra_isa.Sha1_asm.set_sampler samp_sha (Some sampler);
  let msg = String.make 64 'm' in
  let digest = paired
      (fun () () -> ignore (Ra_isa.Sha1_asm.digest plain_sha plain_cpu msg))
      (fun () () -> ignore (Ra_isa.Sha1_asm.digest samp_sha samp_cpu msg))
  in
  Ra_isa.Sampler.flush sampler;
  let ops = [ ("sha1-64B-plain", digest.a); ("sha1-64B-sampled", digest.b) ] in
  print_ns ops;
  Printf.printf
    "\nsampled/plain ratio at the default period (%d cycles): median %.4f, IQR \
     [%.4f, %.4f] over %d alternating pairs\n"
    Ra_isa.Sampler.default_period digest.ratio.median digest.ratio.q1 digest.ratio.q3
    digest.ratio.n;
  let overhead =
    gate "max_sampling_overhead_pct" ((digest.ratio.median -. 1.0) *. 100.0) (`Max 5.0)
  in
  write_bench "prof" ~gates:[ overhead ]
    [
      ("ops_ns", stats_obj ops);
      ("sampled_over_plain", stats_json digest.ratio);
      ("period_cycles", int Ra_isa.Sampler.default_period);
    ]

let bench_server () =
  section "Verifier-as-a-service: batched verification and DoS-aware admission";
  let module Server = Ra_core.Server in
  let module Verifier = Ra_core.Verifier in
  let module Verdict = Ra_core.Verdict in
  let module Admission = Ra_core.Admission in
  let sym_key = "K_attest_0123456789." in
  (* -- 1. batched vs per-report key derivation, wall clock ------------- *)
  (* a small reference image keeps the per-report hash short, so the two
     pad compressions the midstate cache amortizes away dominate *)
  let image = String.make 16 '\xc3' in
  let vcfg =
    Verifier.Config.v ~sym_key ~reference_image:image
      ~time:(Ra_net.Simtime.create ()) ()
  in
  let verifier =
    match Verifier.of_config vcfg with Ok v -> v | Error m -> failwith m
  in
  let batch_size = 64 in
  let keyed = Ra_core.Auth.keyed sym_key in
  let resps =
    Array.init batch_size (fun i ->
        let resp0 =
          {
            Ra_core.Message.echo_challenge = "";
            echo_freshness = Ra_core.Message.F_counter (Int64.of_int (i + 1));
            report = "";
          }
        in
        let report =
          Ra_core.Auth.response_report_keyed ~keyed
            ~body:(Ra_core.Message.response_body resp0)
            ~memory_image:image
        in
        { resp0 with report })
  in
  (* A = one batched call, B = the same 64 reports one by one, so the
     B/A ratio is the batch speedup *)
  let batch =
    paired
      (fun () () -> ignore (Server.Batch.verify verifier resps))
      (fun () () ->
        Array.iter
          (fun r -> ignore (Server.Batch.verify_one ~sym_key ~reference_image:image r))
          resps)
  in
  let per_report = scale (1.0 /. float_of_int batch_size) in
  let ops = [ ("batched", per_report batch.a); ("single", per_report batch.b) ] in
  Printf.printf "batch of %d reports, ns per report:\n" batch_size;
  print_ns ops;
  Printf.printf "batched speedup: median %.2fx, IQR [%.2f, %.2f] over %d alternating pairs\n"
    batch.ratio.median batch.ratio.q1 batch.ratio.q3 batch.ratio.n;
  let speedup_gate = gate "min_batch_speedup" batch.ratio.median (`Min 1.5) in
  (* -- 2. open-loop fleet: no-flood baseline vs 10x Adv_ext flood ------ *)
  let devices = if smoke then 2_000 else 100_000 in
  let shards = if smoke then 4 else 8 in
  let rate = 0.1 and horizon = if smoke then 10.0 else 20.0 in
  let cfg =
    {
      (Server.default_config vcfg) with
      Server.sc_admission =
        { Admission.default_config with device_rate = 1.0; device_burst = 4.0 };
    }
  in
  let traffic =
    {
      Server.Load.default_traffic with
      Server.Load.tr_devices = devices;
      tr_rate = rate;
      tr_horizon_s = horizon;
      tr_seed = 2016L;
    }
  in
  (* 10x the authenticated aggregate, spread over forged-report sources *)
  let flood_sources = if smoke then 20 else 100 in
  let flood_aggregate = 10.0 *. (float_of_int devices *. rate) in
  let flood_traffic =
    {
      traffic with
      Server.Load.tr_flood_sources = flood_sources;
      tr_flood_rate = flood_aggregate /. float_of_int flood_sources;
    }
  in
  (* the reports are simulated and deterministic; only wall time varies *)
  let load traffic =
    let report = ref None in
    let wall =
      sample ~repeats:3 (fun () () ->
          report := Some (fst (Server.Load.run ~engine:(`Shards shards) cfg traffic)))
    in
    (Option.get !report, scale 1e-9 wall)
  in
  let base, base_wall = load traffic in
  let flood, flood_wall = load flood_traffic in
  print_string (Server.Load.render base);
  print_string (Server.Load.render flood);
  let drops reason =
    Option.value ~default:0 (List.assoc_opt reason flood.Server.Load.rp_breakdown)
  in
  let sustained_rps = float_of_int base.Server.Load.rp_trusted /. base_wall.median in
  Printf.printf
    "wall: no-flood %.2f s, flood %.2f s (medians of %d); sustained %.0f verified \
     reports/s (%d devices, %d shards)\n"
    base_wall.median flood_wall.median base_wall.n sustained_rps devices shards;
  write_bench "server" ~gates:[ speedup_gate ]
    [
      ("batch_size", int batch_size);
      ("ns_per_report", stats_obj ops);
      ("batch_speedup", stats_json batch.ratio);
      ("devices", int devices);
      ("shards", int shards);
      ("requests_base", int base.Server.Load.rp_requests);
      ("trusted_base", int base.Server.Load.rp_trusted);
      ("goodput_base_rps", num base.Server.Load.rp_goodput_rps);
      ("p50_ms", num base.Server.Load.rp_p50_ms);
      ("p99_ms", num base.Server.Load.rp_p99_ms);
      ("requests_flood", int flood.Server.Load.rp_requests);
      ("trusted_flood", int flood.Server.Load.rp_trusted);
      ( "flood_admission_drops",
        int (drops Verdict.Reason.Rate_limited + drops Verdict.Reason.Queue_full) );
      ("flood_timeout_drops", int (drops Verdict.Reason.Timed_out));
      ("sustained_wall_rps", num sustained_rps);
      ("base_wall_s", stats_json base_wall);
      ("flood_wall_s", stats_json flood_wall);
    ]

(* ---- forensics: capture overhead and replay cost ---- *)

let bench_forensics () =
  section "Forensics: capture overhead and replay cost";
  let module Fleet = Ra_core.Fleet in
  let members = if smoke then 200 else 10_000 in
  let loss = 0.2 in
  let names = List.init members (Printf.sprintf "dev-%05d") in
  let make_fleet ~capture () =
    let f = Fleet.create ~ram_size:1024 ~names () in
    if capture then ignore (Fleet.enable_forensics f);
    f
  in
  (* capture is out-of-band bookkeeping, so its cost must vanish next to
     the attestation rounds. A 1% effect on a second-scale sweep is
     inside the paired ratio's spread on a shared host, so the ratio is
     recorded and the gate is analytic, like the tracing bench's
     disabled-mode gate: the sampled per-round capture quantum and
     per-capsule digest cost, charged against the median sweep. Both
     charges are upper bounds — every round pays the hook even though
     discarded candidates skip the digest, and the digest charge assumes
     a 2 KiB wire window where chaos rounds produce a few hundred bytes.
     The micro-ops run FIRST, before any 10k-member fleet has bloated
     the major heap (minor collections against a huge live heap would
     inflate a ~15 ns allocating thunk by orders of magnitude). *)
  let probe_session = Ra_core.Session.create ~ram_size:1024 () in
  let probe_channel = Ra_core.Session.channel probe_session in
  let probe_recorder : int Ra_obs.Recorder.t =
    Ra_obs.Recorder.create ~capacity:4
  in
  Ra_obs.Recorder.push probe_recorder 1;
  let sink = ref (0, 0.0, None, 0) in
  let wire = String.make 2048 'w' in
  let ops =
    List.map
      (fun (name, run) -> (name, sample run))
      [
        ( "capture-hook",
          fun () () ->
            (* what the per-round hook does: read the transcript
               position, look up the latest trace round, build a
               candidate record *)
            let tl = Ra_net.Channel.transcript_length probe_channel in
            sink :=
              ( tl,
                float_of_int tl,
                Ra_obs.Recorder.latest probe_recorder,
                Ra_net.Channel.transcript_length probe_channel ) );
        ("capsule-digest", fun () () -> ignore (Ra_crypto.Sha1.digest wire));
      ]
  in
  ignore !sink;
  let ns name = (List.assoc name ops).median in
  (* a FRESH fleet per repeat (creation outside the timed window, heap
     compacted before it) keeps every repeat's workload and GC state
     identical: a long-lived fleet would accumulate transcripts across
     sweeps and drift nonlinearly *)
  let sweep f =
    ignore
      (Fleet.chaos_sweep ~seed:2016L ~rounds_per_member:1 ~losses:[ loss ]
         ~policies:[ ("default", Ra_core.Retry.default) ]
         f)
  in
  let fresh ~capture () =
    let f = make_fleet ~capture () in
    Gc.full_major ();
    fun () -> sweep f
  in
  let ab = paired ~repeats:5 (fresh ~capture:false) (fresh ~capture:true) in
  let sweep_s = scale 1e-9 ab.a in
  let f = make_fleet ~capture:true () in
  sweep f;
  let caps = Fleet.capsules f in
  let capture_work_ns =
    (float_of_int members *. ns "capture-hook")
    +. (float_of_int (List.length caps) *. ns "capsule-digest")
  in
  print_ns ops;
  Printf.printf
    "\n%d members, %.0f%% loss: sweep %.3f s (median of %d); capture work %.0f \
     ns/round hook x %d rounds + %.0f ns/digest x %d capsules = %.2f ms\n\
     captured/plain sweep ratio: median %.4f, IQR [%.4f, %.4f]\n"
    members (100.0 *. loss) sweep_s.median sweep_s.n (ns "capture-hook") members
    (ns "capsule-digest") (List.length caps) (capture_work_ns /. 1e6) ab.ratio.median
    ab.ratio.q1 ab.ratio.q3;
  let overhead =
    gate "max_capture_overhead_pct" (capture_work_ns /. ab.a.median *. 100.0) (`Max 1.0)
  in
  (* replay cost: re-execute every capsule of the last captured sweep *)
  let replay =
    scale 1e-9
      (sample ~repeats:3 (fun () () ->
           List.iter (fun c -> ignore (Fleet.replay_capsule f c)) caps))
  in
  Printf.printf "replayed %d capsules in %.3f s (median of %d)\n" (List.length caps)
    replay.median replay.n;
  write_bench "forensics" ~gates:[ overhead ]
    [
      ("members", int members);
      ("loss", num loss);
      ("ops_ns", stats_obj ops);
      ("sweep_s", stats_json sweep_s);
      ("captured_over_plain", stats_json ab.ratio);
      ("capsules", int (List.length caps));
      ("replay_s", stats_json replay);
    ]

let bench_session () =
  section "Secure sessions: record layer and handshake amortization";
  let module SS = Ra_core.Secure_session in
  let module Session = Ra_core.Session in
  (* -- 1. record-layer symmetric cost (the amortized steady state) ------ *)
  (* what one streamed record costs in host crypto: CTR + CMAC to seal,
     CMAC verify + CTR to open, over a record the size the session
     actually seals (an inner attestation request, ~64 bytes) *)
  let key = Ra_crypto.Aes.expand (String.make 16 'k') in
  let cipher = Ra_crypto.Block_mode.aes key in
  let cmac = Ra_crypto.Cmac.derive key in
  let body = String.make 64 'r' in
  let nonce = String.make 8 '\x01' in
  let ct = Ra_crypto.Block_mode.ctr_crypt cipher ~nonce body in
  let tag = Ra_crypto.Cmac.mac cmac ct in
  let ops =
    List.map
      (fun (name, run) -> (name, sample run))
      [
        ( "seal",
          fun () () ->
            let ct = Ra_crypto.Block_mode.ctr_crypt cipher ~nonce body in
            ignore (Ra_crypto.Cmac.mac cmac ct) );
        ( "open",
          fun () () ->
            ignore (Ra_crypto.Cmac.verify cmac ~msg:ct ~tag);
            ignore (Ra_crypto.Block_mode.ctr_crypt cipher ~nonce ct) );
      ]
  in
  print_ns ops;
  let records_per_s =
    1e9 /. ((List.assoc "seal" ops).median +. (List.assoc "open" ops).median)
  in
  Printf.printf "record layer (64 B body): %.0f records/s per core at the medians\n"
    records_per_s;
  (* -- 2. handshake cost in anchor cycles, and what streaming saves ----- *)
  let ram = if smoke then 4096 else 65536 in
  let records = if smoke then 8 else 32 in
  let cycles_of s = Ra_mcu.Cpu.work_cycles (Ra_mcu.Device.cpu (Session.device s)) in
  let pump s =
    let rec go k =
      if k > 0 then begin
        let a = Session.deliver_next_to_prover s in
        let b = Session.deliver_next_to_verifier s in
        if a || b then go (k - 1)
      end
    in
    go 1000
  in
  let s = Session.create ~ram_size:ram () in
  Session.advance_time s ~seconds:1.0;
  let profile = Session.enable_profiling s in
  let _responder = SS.listen s in
  let initiator = SS.connect s in
  let c0 = cycles_of s in
  SS.handshake_send initiator;
  pump s;
  let handshake_cycles = Int64.sub (cycles_of s) c0 in
  (* the handshake's anchor work, phase by phase, from the profiler —
     snapshotted before any record streams *)
  let phase_cycles =
    List.fold_left
      (fun acc ps ->
        let c = try List.assoc ps.Ra_obs.Profiler.ps_phase acc with Not_found -> 0L in
        (ps.Ra_obs.Profiler.ps_phase, Int64.add c ps.Ra_obs.Profiler.ps_cycles)
        :: List.remove_assoc ps.Ra_obs.Profiler.ps_phase acc)
      []
      (Ra_obs.Profiler.Phases.samples profile.Ra_obs.Profiler.phases)
  in
  let c1 = cycles_of s in
  for _ = 1 to records do
    ignore (SS.request_round initiator);
    pump s
  done;
  let record_cycles =
    Int64.div (Int64.sub (cycles_of s) c1) (Int64.of_int records)
  in
  (* one-shot comparison: a fresh world paying auth + freshness + MAC
     every round *)
  let s1 = Session.create ~ram_size:ram () in
  Session.advance_time s1 ~seconds:1.0;
  let b0 = cycles_of s1 in
  ignore (Session.attest_round_r s1);
  let oneshot_cycles = Int64.sub (cycles_of s1) b0 in
  let phases = List.sort compare phase_cycles in
  Printf.printf
    "%d KiB attested RAM: handshake %Ld anchor cycles, then %Ld cycles per \
     streamed record vs %Ld per one-shot round\nhandshake anchor phases: %s\n"
    (ram / 1024) handshake_cycles record_cycles oneshot_cycles
    (String.concat ", " (List.map (fun (p, c) -> Printf.sprintf "%s=%Ld" p c) phases));
  let cycles c = num (Int64.to_float c) in
  write_bench "session"
    [
      ("record_body_bytes", int (String.length body));
      ("ops_ns", stats_obj ops);
      ("records_per_s", num records_per_s);
      ("attested_ram_bytes", int ram);
      ("handshake_anchor_cycles", cycles handshake_cycles);
      ("streamed_record_cycles", cycles record_cycles);
      ("oneshot_round_cycles", cycles oneshot_cycles);
      ("handshake_phases", J.Obj (List.map (fun (p, c) -> (p, cycles c)) phases));
    ]

let sections =
  [
    ("table1", bench_table1);
    ("memory-mac", bench_memory_mac);
    ("table2", bench_table2);
    ("roaming", bench_roaming);
    ("lattice", bench_lattice);
    ("campaign", bench_campaign);
    ("window", bench_window);
    ("table3", bench_table3);
    ("mpu-scaling", bench_mpu_scaling);
    ("overhead", bench_overhead);
    ("clocks", bench_clocks);
    ("auth-cost", bench_auth_cost);
    ("dos-energy", bench_dos_energy);
    ("nonce-memory", bench_nonce_memory);
    ("swatt", bench_swatt);
    ("realtime", bench_realtime);
    ("figure1", bench_figure1);
    ("host-crypto", bench_host_crypto);
    ("hotpath", bench_hotpath);
    ("isa", bench_isa);
    ("sha1-asm", bench_sha1_asm);
    ("obs-overhead", bench_obs_overhead);
    ("chaos", bench_chaos);
    ("trace", bench_trace);
    ("sched", bench_sched);
    ("prof", bench_prof);
    ("server", bench_server);
    ("forensics", bench_forensics);
    ("session", bench_session);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as picked) ->
    List.iter
      (fun name ->
        match List.assoc_opt name sections with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown section %s; available: %s\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
      picked
  | [ _ ] | [] -> List.iter (fun (_, f) -> f ()) sections

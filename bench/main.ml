(* Benchmark & reproduction harness: one section per table/figure of the
   paper. Run with no arguments for everything, or with section names:

     table1 memory-mac table2 roaming lattice campaign window table3
     mpu-scaling overhead clocks auth-cost dos-energy nonce-memory swatt
     realtime figure1 bechamel hotpath isa sha1-asm obs-overhead chaos
     trace sched prof server forensics

   The "hotpath" section races the seed repository's boxed-Int32 kernels
   against the current unboxed ones, times a fleet sweep, and writes
   BENCH_hotpath.json (set BENCH_SMOKE=1 for a quick CI-sized run,
   written to BENCH_hotpath.smoke.json instead).

   Sections print the paper's published value next to the value this
   repository computes/measures, so EXPERIMENTS.md can be regenerated by
   reading the output. *)

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

(* ---- Bechamel helper: ns/run for a list of named thunks ---- *)

let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

(* Every section that records machine-readable results writes them
   through here: to BENCH_<name>.json, or under BENCH_SMOKE to the
   gitignored BENCH_<name>.smoke.json, so smoke runs never overwrite the
   committed results. [body] prints the fields, each ending in ",\n";
   the "smoke" key closes the object. *)
let write_bench name body =
  let path = Printf.sprintf "BENCH_%s%s.json" name (if smoke then ".smoke" else "") in
  let oc = open_out path in
  output_string oc "{\n";
  body oc;
  Printf.fprintf oc "  \"smoke\": %b\n}\n" smoke;
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let measure_ns ?(quota = if smoke then 0.05 else 0.25) tests =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let grouped =
    Test.make_grouped ~name:"bench"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let analyzed = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) ->
        let short =
          match String.index_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name
        in
        (short, ns) :: acc
      | Some [] | None -> acc)
    analyzed []

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

let bench_bechamel () =
  section "Host measurements (Bechamel): the same primitives, real code";
  let key16 = String.make 16 'k' in
  let aes = C.Aes.expand key16 in
  let speck = C.Speck.expand key16 in
  let block64 = String.make 64 'm' in
  let block16 = String.make 16 'm' in
  let block8 = String.make 8 'm' in
  let kp = C.Ecdsa.generate_keypair C.Ec.secp160r1 ~seed:"bench" in
  let signature = C.Ecdsa.sign C.Ec.secp160r1 ~secret:kp.C.Ecdsa.secret "msg" in
  let results =
    measure_ns
      [
        ("hmac-sha1-64B", fun () -> ignore (C.Hmac.mac C.Hmac.sha1 ~key:key16 block64));
        ("aes128-keyexp", fun () -> ignore (C.Aes.expand key16));
        ("aes128-enc-16B", fun () -> ignore (C.Aes.encrypt_block aes block16));
        ("aes128-dec-16B", fun () -> ignore (C.Aes.decrypt_block aes block16));
        ("speck64-keyexp", fun () -> ignore (C.Speck.expand key16));
        ("speck64-enc-8B", fun () -> ignore (C.Speck.encrypt_block speck block8));
        ("speck64-dec-8B", fun () -> ignore (C.Speck.decrypt_block speck block8));
        ( "ecdsa-sign",
          fun () -> ignore (C.Ecdsa.sign C.Ec.secp160r1 ~secret:kp.C.Ecdsa.secret "msg")
        );
        ( "ecdsa-verify",
          fun () ->
            ignore
              (C.Ecdsa.verify C.Ec.secp160r1 ~public:kp.C.Ecdsa.public ~msg:"msg"
                 signature) );
      ]
  in
  Printf.printf "%-18s %14s\n" "primitive" "host (us/op)";
  List.iter
    (fun (name, ns) -> Printf.printf "%-18s %14.3f\n" name (ns /. 1_000.0))
    (List.sort compare results);
  Printf.printf
    "\n(the host is orders of magnitude faster than a 24 MHz MCU; the paper's\n\
    \ *ordering* -- Speck < AES <= HMAC << ECDSA -- must and does hold)\n"

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
  section "Interpreted MCU core: host execution throughput (Bechamel)";
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
  let results =
    measure_ns
      [
        ( "isa-600-insns",
          fun () ->
            let cpu =
              Cpu.create memory (Ra_mcu.Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000
            in
            let core = Ra_isa.Core.create cpu ~pc:0 ~sp:0x2000 in
            ignore (Ra_isa.Core.run core) );
      ]
  in
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-16s %10.1f us/run  (~%.1f M interpreted insns/s)\n" name
        (ns /. 1000.0)
        (604.0 /. ns *. 1000.0))
    results

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

let wall_seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let bench_hotpath () =
  section "Hot path: seed kernels vs unboxed kernels, fleet sweep";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced quotas and fleet size)\n";
  let key = String.make 20 'k' in
  let block64 = String.make 64 'm' in
  let big = String.make 4096 'm' in
  (* sanity: the legacy kernel and the new one agree before we race them *)
  assert (Legacy_sha1.digest big = C.Sha1.digest big);
  assert (Legacy_sha1.hmac ~key block64 = C.Hmac.mac C.Hmac.sha1 ~key block64);
  let kc = C.Hmac.key C.Hmac.sha1 ~key in
  let kernels =
    measure_ns
      [
        ("sha1-4KiB-seed", fun () -> ignore (Legacy_sha1.digest big));
        ("sha1-4KiB", fun () -> ignore (C.Sha1.digest big));
        ("sha256-4KiB", fun () -> ignore (C.Sha256.digest big));
        ("hmac-sha1-64B-seed", fun () -> ignore (Legacy_sha1.hmac ~key block64));
        ("hmac-sha1-64B", fun () -> ignore (C.Hmac.mac C.Hmac.sha1 ~key block64));
        ("hmac-sha1-64B-keyed", fun () -> ignore (C.Hmac.mac_with kc block64));
      ]
  in
  let ns name =
    match List.assoc_opt name kernels with
    | Some ns -> ns
    | None -> failwith ("hotpath: no measurement for " ^ name)
  in
  Printf.printf "%-22s %14s %14s\n" "kernel" "ns/op" "vs seed";
  let seed_of = function
    | "sha1-4KiB" -> Some "sha1-4KiB-seed"
    | "hmac-sha1-64B" | "hmac-sha1-64B-keyed" -> Some "hmac-sha1-64B-seed"
    | _ -> None
  in
  List.iter
    (fun (name, v) ->
      match seed_of name with
      | Some seed_name ->
        Printf.printf "%-22s %14.1f %13.2fx\n" name v (ns seed_name /. v)
      | None -> Printf.printf "%-22s %14.1f %14s\n" name v "-")
    (List.sort compare kernels);
  let hmac_speedup = ns "hmac-sha1-64B-seed" /. ns "hmac-sha1-64B-keyed" in
  Printf.printf
    "\nHMAC-SHA1/64B: keyed midstate kernel is %.2fx the seed kernel's throughput\n"
    hmac_speedup;
  (* fleet sweep: enough hashing work per member that the engine's
     per-member bookkeeping is noise; shard scaling lives in the sched
     section *)
  let members = if smoke then 8 else 16 in
  let ram_kib = if smoke then 256 else 512 in
  let sweeps = if smoke then 2 else 4 in
  let names = List.init members (Printf.sprintf "dev-%02d") in
  let fleet = Ra_core.Fleet.create ~ram_size:(ram_kib * 1024) ~names () in
  Ra_core.Fleet.advance fleet ~seconds:1.0;
  ignore (Ra_core.Fleet.sweep fleet); (* warm-up: first sweep pays session setup *)
  let seq_s =
    wall_seconds (fun () ->
        for _ = 1 to sweeps do
          ignore (Ra_core.Fleet.sweep fleet)
        done)
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "\nfleet sweep: %d members, %d KiB RAM each, %d sweeps at 1 shard: %.4f s (%d \
     core%s available)\n"
    members ram_kib sweeps seq_s cores
    (if cores = 1 then "" else "s");
  (* machine-readable trajectory for future PRs *)
  write_bench "hotpath" (fun oc ->
  Printf.fprintf oc "  \"kernels_ns_per_op\": {\n";
  let n = List.length kernels in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %.1f%s\n" name v (if i < n - 1 then "," else ""))
    (List.sort compare kernels);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"hmac_sha1_64B_speedup_vs_seed\": %.2f,\n" hmac_speedup;
  Printf.fprintf oc
    "  \"fleet_sweep\": {\n    \"members\": %d,\n    \"ram_kib\": %d,\n    \
     \"sweeps\": %d,\n    \"cores\": %d,\n    \"sequential_s\": %.4f\n  },\n"
    members ram_kib sweeps cores seq_s)

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
  let results =
    measure_ns
      [
        ("hmac-64B-plain", fun () -> ignore (C.Hmac.mac_with kc block64));
        ( "hmac-64B-counted",
          fun () ->
            ignore (C.Hmac.mac_with kc block64);
            Ra_obs.Registry.Counter.inc counter );
        ("counter-inc", fun () -> Ra_obs.Registry.Counter.inc counter);
        ("counter-get-labeled", fun () -> ignore (labeled ()));
        ("histogram-observe", fun () -> Ra_obs.Registry.Histogram.observe histogram 1.5);
        ( "span-enter-exit",
          fun () -> Ra_obs.Span.with_span spans "bench.span" (fun () -> ()) );
      ]
  in
  let ns name =
    match List.assoc_opt name results with
    | Some v -> v
    | None -> failwith ("obs-overhead: no measurement for " ^ name)
  in
  Printf.printf "%-22s %14s\n" "operation" "ns/op";
  List.iter
    (fun (name, v) -> Printf.printf "%-22s %14.1f\n" name v)
    (List.sort compare results);
  let plain = ns "hmac-64B-plain" in
  (* the per-verification instrumentation added in this PR is exactly one
     precreated-counter increment: gate on its direct cost *)
  let inc_pct = ns "counter-inc" /. plain *. 100.0 in
  (* the counted-vs-plain difference is drift-dominated when measured as
     two long windows: CPU frequency wander between them dwarfs a
     sub-1% effect. Measure the two sides in adjacent small chunks (same
     thermal state), alternate which side goes first (cancels
     first-order drift within a pair), and take the median of the
     per-pair ratios (robust to GC pauses hitting a chunk). *)
  let batches = if smoke then 24 else 48 in
  let iters = if smoke then 400 else 2000 in
  let chunk_plain () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (C.Hmac.mac_with kc block64)
    done;
    Unix.gettimeofday () -. t0
  in
  let chunk_counted () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (C.Hmac.mac_with kc block64);
      Ra_obs.Registry.Counter.inc counter
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (chunk_plain ());
  ignore (chunk_counted ());
  let ratios = Array.make batches 0.0 in
  for i = 0 to batches - 1 do
    let p, c =
      if i land 1 = 0 then
        let p = chunk_plain () in
        (p, chunk_counted ())
      else
        let c = chunk_counted () in
        (chunk_plain (), c)
    in
    ratios.(i) <- c /. p
  done;
  Array.sort compare ratios;
  let median_ratio =
    (ratios.((batches / 2) - 1) +. ratios.(batches / 2)) /. 2.0
  in
  let diff_pct = (median_ratio -. 1.0) *. 100.0 in
  let budget_pct = 5.0 in
  let pass = inc_pct < budget_pct in
  Printf.printf
    "\nper-op instrumentation (one atomic counter inc): %.2f%% of the\n\
     HMAC-SHA1/64B keyed hot path (budget %.0f%%) -> %s\n"
    inc_pct budget_pct
    (if pass then "PASS" else "FAIL");
  Printf.printf
    "measured counted-minus-plain difference: %.2f%% (median of %d \
     alternating-order chunk-pair ratios)\n"
    diff_pct batches;
  Printf.printf
    "(labeled get is mutex-guarded -- %.0f ns -- which is why hot paths\n\
     precreate their handles at module init)\n"
    (ns "counter-get-labeled");
  write_bench "obs" (fun oc ->
  Printf.fprintf oc "  \"ops_ns_per_op\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %.1f%s\n" name v (if i < n - 1 then "," else ""))
    (List.sort compare results);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"hotpath_overhead_pct\": %.2f,\n" inc_pct;
  Printf.fprintf oc "  \"counted_minus_plain_pct\": %.2f,\n" diff_pct;
  Printf.fprintf oc "  \"budget_pct\": %.1f,\n" budget_pct;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

(* ---- chaos: convergence under an impaired wire ---- *)

let bench_chaos () =
  section "Chaos: retry/backoff convergence over a lossy channel";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced fleet and round count)\n";
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
  let fleet = Ra_core.Fleet.create ~ram_size:4096 ~names () in
  let wall = wall_seconds (fun () ->
      ignore
        (Ra_core.Fleet.chaos_sweep ~rounds_per_member:rounds ~losses ~policies fleet))
  in
  let grid = Ra_core.Fleet.last_chaos fleet in
  Printf.printf "%d members x %d rounds per cell, %d cells, %.2f s wall\n\n" members
    rounds (List.length grid) wall;
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
  let pass = Ra_core.Fleet.convergence_pct target >= 99.0 in
  Printf.printf
    "\nacceptance: 20%% loss under default backoff converges %.1f%% (target >= 99%%) \
     -> %s\n"
    (Ra_core.Fleet.convergence_pct target)
    (if pass then "PASS" else "FAIL");
  Printf.printf
    "(no-retry at the same loss converges %.1f%% -- the retry engine is what\n\
     closes the gap, at %.2f transmissions per round)\n"
    (Ra_core.Fleet.convergence_pct (cell 0.2 "no-retry"))
    target.Ra_core.Fleet.c_mean_attempts;
  write_bench "chaos" (fun oc ->
  Printf.fprintf oc
    "  \"members\": %d,\n  \"rounds_per_member\": %d,\n  \"wall_s\": %.3f,\n\
    \  \"cells\": [\n"
    members rounds wall;
  let n = List.length grid in
  List.iteri
    (fun i c ->
      Printf.fprintf oc
        "    { \"loss\": %.2f, \"policy\": \"%s\", \"rounds\": %d, \"converged\": %d, \
         \"convergence_pct\": %.2f, \"mean_attempts\": %.3f, \"p50_s\": %.4f, \
         \"p90_s\": %.4f, \"p99_s\": %.4f }%s\n"
        c.Ra_core.Fleet.c_loss c.Ra_core.Fleet.c_policy c.Ra_core.Fleet.c_rounds
        c.Ra_core.Fleet.c_converged
        (Ra_core.Fleet.convergence_pct c)
        c.Ra_core.Fleet.c_mean_attempts c.Ra_core.Fleet.c_p50_s c.Ra_core.Fleet.c_p90_s
        c.Ra_core.Fleet.c_p99_s
        (if i < n - 1 then "," else ""))
    grid;
  Printf.fprintf oc "  ],\n  \"target_convergence_pct\": 99.0,\n  \"pass\": %b,\n" pass)

(* ---- causal tracing: flight-recorder cost on the attestation path ---- *)

let bench_trace () =
  section "Causal tracing: flight-recorder overhead on the attestation hot path";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced quotas)\n";
  let key = String.make 20 'k' in
  let block64 = String.make 64 'm' in
  let kc = C.Hmac.key C.Hmac.sha1 ~key in
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
     every 1024 instants so memory stays bounded under bechamel's
     iteration count (the amortized seal cost is part of the number). *)
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
  let results =
    measure_ns
      [
        ("nop", fun () -> ());
        ("hmac-64B-plain", fun () -> ignore (C.Hmac.mac_with kc block64));
        ( "causal-instant-off",
          fun () -> Ra_net.Trace.causal_instant off_trace ~cat:"bench" "bench.tick" );
        ( "causal-instant-on",
          fun () ->
            Ra_net.Trace.causal_instant on_trace ~cat:"bench" "bench.tick";
            incr micro_ticks;
            if !micro_ticks >= 1024 then begin
              micro_ticks := 0;
              Ra_obs.Trace.end_round micro_tracer ~verdict:"bench" ~attempts:1;
              ignore (Ra_obs.Trace.begin_round micro_tracer)
            end );
        ( "round-plain",
          fun () -> ignore (Ra_core.Session.attest_round_r plain_session) );
        ( "round-traced",
          fun () -> ignore (Ra_core.Session.attest_round_r traced_session) );
      ]
  in
  let ns name =
    match List.assoc_opt name results with
    | Some v -> v
    | None -> failwith ("trace: no measurement for " ^ name)
  in
  Printf.printf "%-22s %14s\n" "operation" "ns/op";
  List.iter
    (fun (name, v) -> Printf.printf "%-22s %14.1f\n" name v)
    (List.sort compare results);
  let round_plain = ns "round-plain" in
  let round_traced = ns "round-traced" in
  let enabled_pct = (round_traced -. round_plain) /. round_plain *. 100.0 in
  let enabled_budget = 5.0 in
  let enabled_pass = enabled_pct <= enabled_budget in
  (* disabled mode: every causal hook is one option match. Charge the
     measured no-tracer hook cost once per event a traced round records
     (an overestimate: span mirrors count as events but fire no hook when
     tracing is off) against the plain round. *)
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
  let disabled_pct =
    hook_off_ns *. float_of_int hooks_per_round /. round_plain *. 100.0
  in
  let disabled_budget = 0.5 in
  let disabled_pass = disabled_pct <= disabled_budget in
  let pass = enabled_pass && disabled_pass in
  Printf.printf
    "\ntracing enabled: attestation round %.2f%% slower than untraced\n\
     (budget %.1f%%) -> %s\n"
    enabled_pct enabled_budget
    (if enabled_pass then "PASS" else "FAIL");
  Printf.printf
    "tracing disabled: %d no-tracer hooks x %.1f ns = %.4f%% of the round\n\
     (budget %.1f%%) -> %s\n"
    hooks_per_round hook_off_ns disabled_pct disabled_budget
    (if disabled_pass then "PASS" else "FAIL");
  Printf.printf
    "(per-event record cost with a live tracer: %.1f ns, amortized seal\n\
     included -- events are per protocol step, not per MAC block)\n"
    (Float.max 0.0 (ns "causal-instant-on" -. ns "nop"));
  write_bench "trace" (fun oc ->
  Printf.fprintf oc "  \"ops_ns_per_op\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %.1f%s\n" name v (if i < n - 1 then "," else ""))
    (List.sort compare results);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"ram_kib\": %d,\n" (ram_size / 1024);
  Printf.fprintf oc "  \"enabled_overhead_pct\": %.2f,\n" enabled_pct;
  Printf.fprintf oc "  \"enabled_budget_pct\": %.1f,\n" enabled_budget;
  Printf.fprintf oc "  \"hooks_per_round\": %d,\n" hooks_per_round;
  Printf.fprintf oc "  \"disabled_hook_ns\": %.1f,\n" hook_off_ns;
  Printf.fprintf oc "  \"disabled_overhead_pct\": %.4f,\n" disabled_pct;
  Printf.fprintf oc "  \"disabled_budget_pct\": %.1f,\n" disabled_budget;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

(* ---- deterministic event-queue scheduler: 10k-device sweep gate ---- *)

let bench_sched () =
  section "Scheduler: the sharded event engine at fleet scale";
  if smoke then
    Printf.printf "(BENCH_SMOKE set: reduced quotas; the 10k-device gate always runs)\n";
  (* the gate: a 10k-member sweep must complete through the engine with
     one scheduler event per member slot. Tiny attested RAM keeps the
     cost in the machinery under test (staggering, the heap, round
     scheduling), not in hashing. Equivalence across shard counts and
     against the sequential oracle is the test suite's job. *)
  let members = 10_000 in
  let names = List.init members (Printf.sprintf "dev-%05d") in
  let make () =
    let f = Ra_core.Fleet.create ~ram_size:1024 ~names () in
    Ra_core.Fleet.advance f ~seconds:1.0;
    f
  in
  let fired_counter =
    Ra_obs.Registry.Counter.get ~labels:[ ("kind", "fired") ] "ra_sched_events_total"
  in
  let timed_sweep shards =
    let f = make () in
    let before = Ra_obs.Registry.Counter.value fired_counter in
    let s =
      wall_seconds (fun () -> ignore (Ra_core.Fleet.sweep ~engine:(`Shards shards) f))
    in
    (s, Ra_obs.Registry.Counter.value fired_counter - before)
  in
  let one_s, events_fired = timed_sweep 1 in
  let shards_s, _ = timed_sweep 4 in
  Printf.printf "%d members, 1 KiB attested RAM each\n\n" members;
  Printf.printf "%-22s %12s %14s\n" "engine" "seconds" "members/s";
  List.iter
    (fun (label, s) ->
      Printf.printf "%-22s %12.3f %14.0f\n" label s (float_of_int members /. s))
    [ ("1 shard", one_s); ("4 shards", shards_s) ];
  let one_event_per_member = events_fired = members in
  Printf.printf "\nevents fired at 1 shard: %d (one per member slot: %b)\n" events_fired
    one_event_per_member;
  (* streaming sweep: the million-device shape. One live session per
     shard at any moment, so peak heap stays bounded however large the
     fleet; the XOR fingerprint is the determinism witness. Runs before
     the scaling grid so the recorded heap high-water mark reflects the
     stream, not a 100k materialised fleet. *)
  let stream_members = if smoke then 2_000 else 1_000_000 in
  let stream_shards = 4 in
  let stream_report = ref None in
  let stream_s =
    wall_seconds (fun () ->
        stream_report :=
          Some
            (Ra_core.Fleet.stream_sweep ~ram_size:1024 ~shards:stream_shards
               ~members:stream_members ()))
  in
  let stream_report = Option.get !stream_report in
  let top_heap_mb =
    float_of_int (Gc.stat ()).Gc.top_heap_words *. 8.0 /. 1e6
  in
  (* shard-count invariance at a size where re-running is cheap *)
  let inv_members = if smoke then 500 else 20_000 in
  let inv_fp k =
    (Ra_core.Fleet.stream_sweep ~ram_size:1024 ~shards:k ~members:inv_members ())
      .Ra_core.Fleet.st_fingerprint
  in
  let inv_base = inv_fp 1 in
  let stream_invariant = List.for_all (fun k -> inv_fp k = inv_base) [ 2; 4 ] in
  Printf.printf
    "\nstreaming sweep: %d members on %d shards in %.1f s (%.0f members/s)\n\
     heap high-water %.0f MB; fingerprint %s\n\
     fingerprint invariant across 1/2/4 shards at %d members: %b\n"
    stream_members stream_shards stream_s
    (float_of_int stream_members /. stream_s)
    top_heap_mb stream_report.Ra_core.Fleet.st_fingerprint inv_members
    stream_invariant;
  (* scaling curve: members x shard count, all on the persistent pool,
     speedup against one shard at the same size *)
  let scaling_sizes = if smoke then [ 1_000 ] else [ 10_000; 100_000 ] in
  let shard_grid = [ 1; 2; 4 ] in
  let scaling =
    List.map
      (fun m ->
        let names = List.init m (Printf.sprintf "dev-%06d") in
        let f = Ra_core.Fleet.create ~ram_size:1024 ~names () in
        Ra_core.Fleet.advance f ~seconds:1.0;
        ignore (Ra_core.Fleet.sweep f);
        (* warm *)
        let times =
          List.map
            (fun k ->
              ( k,
                wall_seconds (fun () ->
                    ignore (Ra_core.Fleet.sweep ~engine:(`Shards k) f)) ))
            shard_grid
        in
        let base_s = List.assoc 1 times in
        let points = List.map (fun (k, s) -> (k, s, base_s /. s)) times in
        (m, base_s, points))
      scaling_sizes
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "\nscaling curve (baseline: one shard, %d core%s available):\n"
    cores
    (if cores = 1 then "" else "s");
  if cores = 1 then
    Printf.printf "(single-core host: shards can only show dispatch overhead)\n";
  Printf.printf "%10s %10s %12s %10s\n" "members" "shards" "seconds" "speedup";
  List.iter
    (fun (m, _, points) ->
      List.iter
        (fun (k, s, sp) -> Printf.printf "%10d %10d %12.3f %9.2fx\n" m k s sp)
        points)
    scaling;
  (* the 2x-at-4-shards gate: meaningful only where 4 domains can
     actually run in parallel, i.e. on >= 4 cores and at full quotas
     (CI runners qualify; this repo's single-core dev hosts do not) *)
  let gate_members, gate_speedup =
    let m, _, points = List.nth scaling (List.length scaling - 1) in
    let _, _, sp = List.find (fun (k, _, _) -> k = 4) points in
    (m, sp)
  in
  let gate_applicable = (not smoke) && cores >= 4 && gate_members >= 100_000 in
  let gate_reason =
    if smoke then "smoke run: quotas too small to measure scaling"
    else if cores < 4 then
      Printf.sprintf "host has %d core(s); the gate needs >= 4" cores
    else if gate_members < 100_000 then "scaling grid tops out below 100k members"
    else ">= 4 cores and a >= 100k-member grid point"
  in
  let gate_pass = (not gate_applicable) || gate_speedup >= 2.0 in
  Printf.printf
    "\nspeedup gate (>= 2.0x at 4 shards, %d members): %s (%s; measured %.2fx)\n"
    gate_members
    (if not gate_applicable then "not applicable"
     else if gate_pass then "PASS"
     else "FAIL")
    gate_reason gate_speedup;
  let pass = one_event_per_member && stream_invariant && gate_pass in
  Printf.printf "\nacceptance: engine gate, stream invariance, speedup gate -> %s\n"
    (if pass then "PASS" else "FAIL");
  write_bench "sched" (fun oc ->
  Printf.fprintf oc
    "  \"members\": %d,\n  \"shards1_s\": %.4f,\n  \"shards4_s\": %.4f,\n\
    \  \"events_fired\": %d,\n"
    members one_s shards_s events_fired;
  Printf.fprintf oc "  \"scaling\": [\n";
  let n_sc = List.length scaling in
  List.iteri
    (fun i (m, base_s, points) ->
      Printf.fprintf oc "    { \"members\": %d, \"shards1_s\": %.4f, \"shards\": [\n"
        m base_s;
      let n_p = List.length points in
      List.iteri
        (fun j (k, s, sp) ->
          Printf.fprintf oc
            "      { \"shards\": %d, \"seconds\": %.4f, \"speedup\": %.2f }%s\n" k
            s sp
            (if j < n_p - 1 then "," else ""))
        points;
      Printf.fprintf oc "    ] }%s\n" (if i < n_sc - 1 then "," else ""))
    scaling;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"stream\": {\n    \"members\": %d,\n    \"shards\": %d,\n    \
     \"seconds\": %.1f,\n    \"members_per_s\": %.0f,\n    \
     \"top_heap_mb\": %.0f,\n    \"fingerprint\": \"%s\",\n    \
     \"invariant_members\": %d,\n    \"shard_invariant\": %b\n  },\n"
    stream_members stream_shards stream_s
    (float_of_int stream_members /. stream_s)
    top_heap_mb stream_report.Ra_core.Fleet.st_fingerprint inv_members
    stream_invariant;
  Printf.fprintf oc
    "  \"speedup_gate\": {\n    \"threshold\": 2.0,\n    \"members\": %d,\n    \
     \"shards\": 4,\n    \"cores\": %d,\n    \"applicable\": %b,\n    \
     \"reason\": \"%s\",\n    \"measured_speedup\": %.2f,\n    \"pass\": %b\n  \
     },\n"
    gate_members cores gate_applicable gate_reason gate_speedup gate_pass;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

(* ---- cycle-exact profiler: sampling overhead + neutrality gates ---- *)

let bench_prof () =
  section "Profiler: PC-sampling overhead, symbolization and wire-neutrality";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced quotas)\n";
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
  (* correctness before timing: the sampled digest is the plain digest *)
  let digests_equal =
    String.equal
      (Ra_isa.Sha1_asm.digest plain_sha plain_cpu msg)
      (Ra_isa.Sha1_asm.digest samp_sha samp_cpu msg)
  in
  (* A sequential A-then-B measurement is biased by CPU frequency drift
     between the two windows, which can dwarf a 5% budget. Measure the
     two sides in adjacent small chunks (same thermal state), alternate
     which side goes first (cancels first-order drift within a pair),
     and take the median of the per-pair ratios (robust to GC pauses and
     scheduler preemption hitting a chunk). *)
  let batches = if smoke then 24 else 48 in
  let iters = if smoke then 8 else 12 in
  let chunk_plain () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Ra_isa.Sha1_asm.digest plain_sha plain_cpu msg)
    done;
    Unix.gettimeofday () -. t0
  in
  let chunk_sampled () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Ra_isa.Sha1_asm.digest samp_sha samp_cpu msg)
    done;
    Unix.gettimeofday () -. t0
  in
  (* warm-up both sides before measuring *)
  ignore (chunk_plain ());
  ignore (chunk_sampled ());
  let ratios = Array.make batches 0.0 in
  let best_plain = ref infinity in
  for i = 0 to batches - 1 do
    let p, s =
      if i land 1 = 0 then
        let p = chunk_plain () in
        (p, chunk_sampled ())
      else
        let s = chunk_sampled () in
        (chunk_plain (), s)
    in
    best_plain := Float.min !best_plain p;
    ratios.(i) <- s /. p
  done;
  Array.sort compare ratios;
  let median_ratio =
    (ratios.((batches / 2) - 1) +. ratios.(batches / 2)) /. 2.0
  in
  Ra_isa.Sampler.flush sampler;
  let plain_ns = !best_plain /. float_of_int iters *. 1e9 in
  let sampled_ns = plain_ns *. median_ratio in
  let results =
    [ ("sha1-64B-plain", plain_ns); ("sha1-64B-sampled", sampled_ns) ]
  in
  Printf.printf "%-22s %14s\n" "operation" "ns/op (median-ratio estimate)";
  List.iter (fun (name, v) -> Printf.printf "%-22s %14.1f\n" name v) results;
  let overhead_pct = (median_ratio -. 1.0) *. 100.0 in
  let overhead_budget = 5.0 in
  let overhead_pass = overhead_pct <= overhead_budget in
  Printf.printf
    "\nsampling at the default period (%d cycles): interpreted digest %.2f%% \
     slower\n(budget %.1f%%) -> %s\n"
    Ra_isa.Sampler.default_period overhead_pct overhead_budget
    (if overhead_pass then "PASS" else "FAIL");
  (* symbolization: the flame graph must attribute >= 90% of the
     interpreted cycles to named frames, not raw 0x addresses *)
  let total_cycles = Ra_obs.Profiler.Pc.cycles pc in
  let symbolized_pct =
    if Int64.equal total_cycles 0L then 0.0
    else
      100.0
      *. Int64.to_float
           (Ra_obs.Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
                not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x")))
      /. Int64.to_float total_cycles
  in
  let symbolized_budget = 90.0 in
  let symbolized_pass = symbolized_pct >= symbolized_budget in
  Printf.printf
    "symbolized: %.1f%% of %Ld attributed cycles (budget >= %.0f%%) -> %s\n"
    symbolized_pct total_cycles symbolized_budget
    (if symbolized_pass then "PASS" else "FAIL");
  (* neutrality: profiling is out-of-band observation — a lossy retry
     round must leave byte-identical wire transcripts either way *)
  let transcript_of profiled =
    let s = Ra_core.Session.create ~ram_size:4096 () in
    if profiled then ignore (Ra_core.Session.enable_profiling s);
    Ra_core.Session.advance_time s ~seconds:1.0;
    Ra_core.Session.set_impairment s
      (Some
         (Ra_net.Impairment.create
            ~to_prover:(Ra_net.Impairment.lossy 0.3)
            ~to_verifier:(Ra_net.Impairment.lossy 0.3)
            ~seed:42L ()));
    let r = Ra_core.Session.attest_round_r s in
    ( r.Ra_core.Session.r_verdict,
      r.Ra_core.Session.r_attempts,
      List.map
        (fun e -> e.Ra_net.Channel.payload)
        (Ra_net.Channel.transcript (Ra_core.Session.channel s)) )
  in
  let neutral = transcript_of true = transcript_of false in
  Printf.printf "wire-neutral: transcripts byte-identical with profiling %s\n"
    (if neutral then "on/off -> PASS" else "on/off DIFFER -> FAIL");
  let pass = digests_equal && overhead_pass && symbolized_pass && neutral in
  write_bench "prof" (fun oc ->
  Printf.fprintf oc "  \"ops_ns_per_op\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %.1f%s\n" name v (if i < n - 1 then "," else ""))
    (List.sort compare results);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"period_cycles\": %d,\n" Ra_isa.Sampler.default_period;
  Printf.fprintf oc "  \"digests_equal\": %b,\n" digests_equal;
  Printf.fprintf oc "  \"sampling_overhead_pct\": %.2f,\n" overhead_pct;
  Printf.fprintf oc "  \"sampling_budget_pct\": %.1f,\n" overhead_budget;
  Printf.fprintf oc "  \"symbolized_pct\": %.1f,\n" symbolized_pct;
  Printf.fprintf oc "  \"symbolized_budget_pct\": %.1f,\n" symbolized_budget;
  Printf.fprintf oc "  \"attributed_cycles\": %Ld,\n" total_cycles;
  Printf.fprintf oc "  \"wire_neutral\": %b,\n" neutral;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

let bench_server () =
  section "Verifier-as-a-service: batched verification and DoS-aware admission";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced fleet)\n";
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
  let reps = if smoke then 20 else 60 in
  let chunk_single () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Array.iter
        (fun r ->
          ignore (Server.Batch.verify_one ~sym_key ~reference_image:image r))
        resps
    done;
    Unix.gettimeofday () -. t0
  in
  let chunk_batched () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Server.Batch.verify verifier resps)
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (chunk_single ());
  ignore (chunk_batched ());
  let pairs = if smoke then 15 else 31 in
  let ratios = Array.make pairs 0.0 in
  let best_batched = ref infinity in
  for i = 0 to pairs - 1 do
    let s, b =
      if i land 1 = 0 then
        let s = chunk_single () in
        (s, chunk_batched ())
      else
        let b = chunk_batched () in
        (chunk_single (), b)
    in
    if b < !best_batched then best_batched := b;
    ratios.(i) <- s /. b
  done;
  Array.sort compare ratios;
  let speedup = ratios.(pairs / 2) in
  let per_report ns_total = ns_total /. float_of_int (reps * batch_size) in
  let batched_ns = per_report (!best_batched *. 1e9) in
  let single_ns = batched_ns *. speedup in
  let speedup_target = 1.5 in
  let speedup_pass = speedup >= speedup_target in
  Printf.printf "batch=%d  single %.0f ns/report, batched %.0f ns/report\n"
    batch_size single_ns batched_ns;
  Printf.printf "batched speedup %.2fx (target >= %.1fx) -> %s\n" speedup
    speedup_target
    (if speedup_pass then "PASS" else "FAIL");
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
  let t0 = Unix.gettimeofday () in
  let base, _ = Server.Load.run ~engine:(`Shards shards) cfg traffic in
  let base_wall = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let flood, _ = Server.Load.run ~engine:(`Shards shards) cfg flood_traffic in
  let flood_wall = Unix.gettimeofday () -. t0 in
  print_string (Server.Load.render base);
  print_string (Server.Load.render flood);
  let drops reason report =
    match List.assoc_opt reason report.Server.Load.rp_breakdown with
    | Some n -> n
    | None -> 0
  in
  let goodput_ratio =
    if base.Server.Load.rp_trusted = 0 then 0.0
    else
      float_of_int flood.Server.Load.rp_trusted
      /. float_of_int base.Server.Load.rp_trusted
  in
  let admission_drops =
    drops Verdict.Reason.Rate_limited flood + drops Verdict.Reason.Queue_full flood
  in
  let timeout_drops = drops Verdict.Reason.Timed_out flood in
  let goodput_pass = goodput_ratio >= 0.9 in
  let attribution_pass = admission_drops > 0 && timeout_drops = 0 in
  (* a quiet batch waits up to the 50 ms linger before draining, so the
     no-flood p99 is linger-bound; the gate checks it stays there *)
  let p99_limit_ms = 100.0 in
  let p99_pass =
    List.for_all
      (fun c -> c.Ra_obs.Slo.ck_ok)
      (Server.Load.slo_watch ~max_p99_ms:p99_limit_ms base)
  in
  Printf.printf
    "flood goodput %.1f%% of baseline (gate >= 90%%) -> %s; drops: admission %d, timeout %d -> %s\n"
    (100.0 *. goodput_ratio)
    (if goodput_pass then "PASS" else "FAIL")
    admission_drops timeout_drops
    (if attribution_pass then "PASS" else "FAIL");
  Printf.printf "no-flood p99 %.2f ms (gate <= %.0f ms) -> %s\n"
    base.Server.Load.rp_p99_ms p99_limit_ms
    (if p99_pass then "PASS" else "FAIL");
  let sustained_rps = float_of_int base.Server.Load.rp_trusted /. base_wall in
  Printf.printf "sustained %.0f verified reports/s wall-clock (%d devices, %d shards)\n"
    sustained_rps devices shards;
  let pass = speedup_pass && goodput_pass && attribution_pass && p99_pass in
  write_bench "server" (fun oc ->
  Printf.fprintf oc "  \"batch_size\": %d,\n" batch_size;
  Printf.fprintf oc "  \"single_ns_per_report\": %.1f,\n" single_ns;
  Printf.fprintf oc "  \"batched_ns_per_report\": %.1f,\n" batched_ns;
  Printf.fprintf oc "  \"batch_speedup\": %.3f,\n" speedup;
  Printf.fprintf oc "  \"batch_speedup_target\": %.1f,\n" speedup_target;
  Printf.fprintf oc "  \"devices\": %d,\n" devices;
  Printf.fprintf oc "  \"shards\": %d,\n" shards;
  Printf.fprintf oc "  \"requests_base\": %d,\n" base.Server.Load.rp_requests;
  Printf.fprintf oc "  \"trusted_base\": %d,\n" base.Server.Load.rp_trusted;
  Printf.fprintf oc "  \"goodput_base_rps\": %.1f,\n" base.Server.Load.rp_goodput_rps;
  Printf.fprintf oc "  \"p50_ms\": %.3f,\n" base.Server.Load.rp_p50_ms;
  Printf.fprintf oc "  \"p99_ms\": %.3f,\n" base.Server.Load.rp_p99_ms;
  Printf.fprintf oc "  \"p99_limit_ms\": %.1f,\n" p99_limit_ms;
  Printf.fprintf oc "  \"requests_flood\": %d,\n" flood.Server.Load.rp_requests;
  Printf.fprintf oc "  \"trusted_flood\": %d,\n" flood.Server.Load.rp_trusted;
  Printf.fprintf oc "  \"goodput_flood_ratio\": %.4f,\n" goodput_ratio;
  Printf.fprintf oc "  \"flood_admission_drops\": %d,\n" admission_drops;
  Printf.fprintf oc "  \"flood_timeout_drops\": %d,\n" timeout_drops;
  Printf.fprintf oc "  \"sustained_wall_rps\": %.0f,\n" sustained_rps;
  Printf.fprintf oc "  \"base_wall_s\": %.2f,\n" base_wall;
  Printf.fprintf oc "  \"flood_wall_s\": %.2f,\n" flood_wall;
  Printf.fprintf oc "  \"batch_speedup_pass\": %b,\n" speedup_pass;
  Printf.fprintf oc "  \"flood_goodput_pass\": %b,\n" goodput_pass;
  Printf.fprintf oc "  \"flood_attribution_pass\": %b,\n" attribution_pass;
  Printf.fprintf oc "  \"p99_pass\": %b,\n" p99_pass;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

(* ---- forensics: capture overhead and byte-identical replay ---- *)

let bench_forensics () =
  section "Forensics: capture overhead and byte-identical replay";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced fleet)\n";
  let module Fleet = Ra_core.Fleet in
  let module Forensics = Ra_obs.Forensics in
  let members = if smoke then 200 else 10_000 in
  let pairs = if smoke then 3 else 5 in
  let loss = 0.2 in
  let names = List.init members (Printf.sprintf "dev-%05d") in
  let make_fleet ~capture () =
    let f = Fleet.create ~ram_size:1024 ~names () in
    if capture then ignore (Fleet.enable_forensics f);
    f
  in
  (* -- 1. capture overhead on the sweep wall-clock --------------------- *)
  (* capture is out-of-band bookkeeping, so its cost must vanish next to
     the attestation rounds. The gate is analytic, in the style of the
     tracing bench's disabled-mode gate: measure the per-round capture
     quantum and the per-capsule digest cost at ns resolution, charge
     them against the measured sweep floor. Both charges are upper
     bounds — every round pays the hook even though discarded
     candidates skip the digest, and the digest charge assumes a 2 KiB
     wire window where chaos rounds produce a few hundred bytes. The
     micro-ops run FIRST, before any 10k-member fleet has bloated the
     major heap (minor collections against a huge live heap would
     inflate a ~15 ns allocating thunk by orders of magnitude). *)
  let probe_session = Ra_core.Session.create ~ram_size:1024 () in
  let probe_channel = Ra_core.Session.channel probe_session in
  let probe_recorder : int Ra_obs.Recorder.t =
    Ra_obs.Recorder.create ~capacity:4
  in
  Ra_obs.Recorder.push probe_recorder 1;
  let sink = ref (0, 0.0, None, 0) in
  let window = String.make 2048 'w' in
  let micro =
    measure_ns
      [
        ( "capture-hook",
          fun () ->
            (* what the per-round hook does: read the transcript
               position, look up the latest trace round, build a
               candidate record *)
            let tl = Ra_net.Channel.transcript_length probe_channel in
            sink :=
              ( tl,
                float_of_int tl,
                Ra_obs.Recorder.latest probe_recorder,
                Ra_net.Channel.transcript_length probe_channel ) );
        ("capsule-digest", fun () -> ignore (Ra_crypto.Sha1.digest window));
      ]
  in
  ignore !sink;
  let micro_ns name =
    match List.assoc_opt name micro with
    | Some v -> v
    | None -> failwith ("forensics: no measurement for " ^ name)
  in
  let policies = [ ("default", Ra_core.Retry.default) ] in
  (* a FRESH fleet per chunk (creation excluded from the timed window,
     heap compacted before it) keeps every chunk's workload and GC
     state identical: a long-lived fleet would accumulate transcripts
     across sweeps and drift nonlinearly. A ~1% effect on a multi-
     second chunk is below this-machine noise for mean/median
     estimators, so the estimate is min-of-chunks per side:
     interference and GC pauses only ever ADD time, so each side's
     minimum converges on its quiet-machine cost. *)
  let sweep ~capture () =
    let f = make_fleet ~capture () in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let (_ : Fleet.chaos_cell list) =
      Fleet.chaos_sweep ~seed:2016L ~rounds_per_member:1 ~losses:[ loss ]
        ~policies f
    in
    Unix.gettimeofday () -. t0
  in
  let sweep_off () = sweep ~capture:false () in
  let sweep_on () = sweep ~capture:true () in
  ignore (sweep_off ());
  ignore (sweep_on ());
  let best_off = ref infinity and best_on = ref infinity in
  for i = 0 to pairs - 1 do
    let off, on =
      if i land 1 = 0 then
        let off = sweep_off () in
        (off, sweep_on ())
      else
        let on = sweep_on () in
        (sweep_off (), on)
    in
    best_off := Float.min !best_off off;
    best_on := Float.min !best_on on
  done;
  let ab_diff_pct = (!best_on /. !best_off -. 1.0) *. 100.0 in
  (* the A/B diff is reported but noise-prone: a <= 1% effect on a
     second-scale chunk is below wall-clock resolution on a shared
     host. The gated figure charges the micro-measured capture work
     (hook per round, digest per capsule) against the sweep floor. *)
  let rounds_total = members in
  let f_counted = make_fleet ~capture:true () in
  let (_ : Fleet.chaos_cell list) =
    Fleet.chaos_sweep ~seed:2016L ~rounds_per_member:1 ~losses:[ loss ]
      ~policies f_counted
  in
  let n_capsules = List.length (Fleet.capsules f_counted) in
  let capture_work_ns =
    (float_of_int rounds_total *. micro_ns "capture-hook")
    +. (float_of_int n_capsules *. micro_ns "capsule-digest")
  in
  let overhead_pct = capture_work_ns /. (!best_off *. 1e9) *. 100.0 in
  let budget_pct = 1.0 in
  let overhead_pass = overhead_pct <= budget_pct in
  Printf.printf
    "%d members, %.0f%% loss: sweep %.3f s; capture work %.0f ns/round hook \
     x %d rounds + %.0f ns/digest x %d capsules = %.2f ms\n"
    members (100.0 *. loss) !best_off (micro_ns "capture-hook") rounds_total
    (micro_ns "capsule-digest") n_capsules (capture_work_ns /. 1e6);
  Printf.printf
    "capture overhead %.3f%% of sweep wall-clock (budget <= %.0f%%) -> %s; \
     A/B min-of-%d-chunks diff %.2f%% (noise-prone, reported only)\n"
    overhead_pct budget_pct
    (if overhead_pass then "PASS" else "FAIL")
    pairs ab_diff_pct;
  (* -- 2. stream identity across shard counts + replay of every capsule - *)
  let stream_of k =
    let f = make_fleet ~capture:true () in
    let (_ : Fleet.chaos_cell list) =
      Fleet.chaos_sweep ~seed:7L ~engine:(`Shards k) ~rounds_per_member:1
        ~losses:[ loss ]
        ~policies:
          [ ("no-retry", Ra_core.Retry.no_retry); ("default", Ra_core.Retry.default) ]
        f
    in
    (f, Forensics.capsules_jsonl (Fleet.capsules f))
  in
  let f1, s1 = stream_of 1 in
  let _, s2 = stream_of 2 in
  let _, s4 = stream_of 4 in
  let stream_pass = String.equal s1 s2 && String.equal s1 s4 in
  let caps = Fleet.capsules f1 in
  let n_failures =
    List.length (List.filter (fun c -> c.Forensics.cap_kind = Forensics.Failure) caps)
  in
  let t0 = Unix.gettimeofday () in
  let replay_pass =
    caps <> []
    && List.for_all
         (fun c ->
           match Fleet.replay_capsule f1 c with
           | Ok rp -> rp.Fleet.rp_match
           | Error _ -> false)
         caps
  in
  let replay_wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "capsule stream at shards 1/2/4: %s; %d capsules (%d failures) captured, \
     all replayed byte-identically in %.3f s -> %s\n"
    (if stream_pass then "byte-identical" else "DIVERGED")
    (List.length caps) n_failures replay_wall
    (if replay_pass then "PASS" else "FAIL");
  let pass = overhead_pass && stream_pass && replay_pass in
  write_bench "forensics" (fun oc ->
  Printf.fprintf oc "  \"members\": %d,\n" members;
  Printf.fprintf oc "  \"loss\": %.2f,\n" loss;
  Printf.fprintf oc "  \"pairs\": %d,\n" pairs;
  Printf.fprintf oc "  \"sweep_s\": %.4f,\n" !best_off;
  Printf.fprintf oc "  \"capture_hook_ns\": %.1f,\n" (micro_ns "capture-hook");
  Printf.fprintf oc "  \"capsule_digest_ns\": %.1f,\n" (micro_ns "capsule-digest");
  Printf.fprintf oc "  \"capture_overhead_pct\": %.3f,\n" overhead_pct;
  Printf.fprintf oc "  \"capture_ab_diff_pct\": %.2f,\n" ab_diff_pct;
  Printf.fprintf oc "  \"budget_pct\": %.1f,\n" budget_pct;
  Printf.fprintf oc "  \"capture_overhead_pass\": %b,\n" overhead_pass;
  Printf.fprintf oc "  \"capsules\": %d,\n" (List.length caps);
  Printf.fprintf oc "  \"failure_capsules\": %d,\n" n_failures;
  Printf.fprintf oc "  \"stream_invariant_pass\": %b,\n" stream_pass;
  Printf.fprintf oc "  \"replay_wall_s\": %.4f,\n" replay_wall;
  Printf.fprintf oc "  \"replay_pass\": %b,\n" replay_pass;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

let bench_session () =
  section "Secure sessions: record layer, handshake amortization, loss convergence";
  if smoke then Printf.printf "(BENCH_SMOKE set: reduced fleet and record counts)\n";
  let module SS = Ra_core.Secure_session in
  let module Session = Ra_core.Session in
  let module Fleet = Ra_core.Fleet in
  let module Channel = Ra_net.Channel in
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
  let micro =
    measure_ns
      [
        ( "seal",
          fun () ->
            let ct = Ra_crypto.Block_mode.ctr_crypt cipher ~nonce body in
            ignore (Ra_crypto.Cmac.mac cmac ct) );
        ( "open",
          fun () ->
            ignore (Ra_crypto.Cmac.verify cmac ~msg:ct ~tag);
            ignore (Ra_crypto.Block_mode.ctr_crypt cipher ~nonce ct) );
      ]
  in
  let micro_ns name =
    match List.assoc_opt name micro with
    | Some v -> v
    | None -> failwith ("session: no measurement for " ^ name)
  in
  let seal_ns = micro_ns "seal" and open_ns = micro_ns "open" in
  let records_per_s = 1e9 /. (seal_ns +. open_ns) in
  Printf.printf
    "record layer (64 B body): seal %.0f ns, open %.0f ns -> %.0f records/s \
     per core\n"
    seal_ns open_ns records_per_s;
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
  let established = SS.established initiator in
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
  let streamed = SS.verdict_count initiator = records in
  (* one-shot comparison: a fresh world paying auth + freshness + MAC
     every round *)
  let s1 = Session.create ~ram_size:ram () in
  Session.advance_time s1 ~seconds:1.0;
  let b0 = cycles_of s1 in
  let r1 = Session.attest_round_r s1 in
  let oneshot_cycles = Int64.sub (cycles_of s1) b0 in
  let oneshot_ok = r1.Session.r_verdict = Ra_core.Verdict.Trusted in
  let amortization_pass =
    established && streamed && oneshot_ok
    && Int64.compare record_cycles oneshot_cycles < 0
  in
  Printf.printf
    "%d KiB attested RAM: handshake %Ld anchor cycles, then %Ld cycles per \
     streamed record vs %Ld per one-shot round -> %s\n"
    (ram / 1024) handshake_cycles record_cycles oneshot_cycles
    (if amortization_pass then "PASS" else "FAIL");
  Printf.printf "handshake anchor phases: %s\n"
    (String.concat ", "
       (List.map
          (fun (p, c) -> Printf.sprintf "%s=%Ld" p c)
          (List.sort compare phase_cycles)));
  (* -- 3. convergence under loss ---------------------------------------- *)
  let members = if smoke then 4 else 8 in
  let rounds = if smoke then 2 else 3 in
  let session_records = 4 in
  let loss = 0.2 in
  let names = List.init members (Printf.sprintf "dev-%03d") in
  let f = Fleet.create ~ram_size:2048 ~names () in
  let t0 = Unix.gettimeofday () in
  let cells =
    Fleet.chaos_sweep ~seed:2016L ~rounds_per_member:rounds
      ~workload:(`Session session_records)
      ~losses:[ loss ]
      ~policies:[ ("default", Ra_core.Retry.default) ]
      f
  in
  let sweep_wall = Unix.gettimeofday () -. t0 in
  let convergence_pct =
    match cells with c :: _ -> Fleet.convergence_pct c | [] -> 0.0
  in
  let convergence_pass = convergence_pct >= 99.0 in
  Printf.printf
    "%d members x %d session rounds (%d records each) at %.0f%% loss: %.1f%% \
     converged in %.3f s -> %s\n"
    members rounds session_records (100.0 *. loss) convergence_pct sweep_wall
    (if convergence_pass then "PASS" else "FAIL");
  let pass = amortization_pass && convergence_pass in
  write_bench "session" (fun oc ->
  Printf.fprintf oc "  \"record_body_bytes\": %d,\n" (String.length body);
  Printf.fprintf oc "  \"seal_ns\": %.1f,\n" seal_ns;
  Printf.fprintf oc "  \"open_ns\": %.1f,\n" open_ns;
  Printf.fprintf oc "  \"records_per_s\": %.0f,\n" records_per_s;
  Printf.fprintf oc "  \"attested_ram_bytes\": %d,\n" ram;
  Printf.fprintf oc "  \"handshake_anchor_cycles\": %Ld,\n" handshake_cycles;
  Printf.fprintf oc "  \"streamed_record_cycles\": %Ld,\n" record_cycles;
  Printf.fprintf oc "  \"oneshot_round_cycles\": %Ld,\n" oneshot_cycles;
  Printf.fprintf oc "  \"handshake_phases\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (p, c) -> Printf.sprintf "\"%s\": %Ld" p c)
          (List.sort compare phase_cycles)));
  Printf.fprintf oc "  \"amortization_pass\": %b,\n" amortization_pass;
  Printf.fprintf oc "  \"members\": %d,\n" members;
  Printf.fprintf oc "  \"rounds_per_member\": %d,\n" rounds;
  Printf.fprintf oc "  \"session_records\": %d,\n" session_records;
  Printf.fprintf oc "  \"loss\": %.2f,\n" loss;
  Printf.fprintf oc "  \"convergence_pct\": %.1f,\n" convergence_pct;
  Printf.fprintf oc "  \"convergence_pass\": %b,\n" convergence_pass;
  Printf.fprintf oc "  \"pass\": %b,\n" pass)

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
    ("bechamel", bench_bechamel);
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

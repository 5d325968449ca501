(* ra_cli: command-line front end for the prover-side attestation
   library.

     ra_cli attest  --spec trustlite-base --rounds 3 --ram-kb 64
     ra_cli attack  --scenario roam-clock --defended
     ra_cli costs
     ra_cli table2

   The heavy lifting lives in the libraries; this binary is argument
   parsing and printing. *)

open Cmdliner
open Ra_core
module Device = Ra_mcu.Device
module Timing = Ra_mcu.Timing
module Energy = Ra_mcu.Energy

let spec_of_name name =
  List.find_opt (fun s -> s.Architecture.spec_name = name) Architecture.all_specs

let spec_names =
  String.concat ", " (List.map (fun s -> s.Architecture.spec_name) Architecture.all_specs)

(* ---- range-checked arguments ---- *)

(* [in_range conv ~ok ~bound] parses like [conv] but refuses values
   failing [ok]; cmdliner reports the option with [bound] and exits
   non-zero. *)
let in_range conv ~ok ~bound =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg (Printf.sprintf "%s is out of range (%s)" s bound))
    | r -> r
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let int_in ~lo ~hi =
  in_range Arg.int ~ok:(fun n -> n >= lo && n <= hi) ~bound:(Printf.sprintf "%d..%d" lo hi)

let int_from lo = in_range Arg.int ~ok:(fun n -> n >= lo) ~bound:(Printf.sprintf ">= %d" lo)
let shard_count = int_in ~lo:1 ~hi:64

(* per-direction loss probabilities: lossless allowed, or strictly lossy *)
let loss_rate = in_range Arg.float ~ok:(fun p -> p >= 0.0 && p < 1.0) ~bound:"[0, 1)"
let lossy_rate = in_range Arg.float ~ok:(fun p -> p > 0.0 && p < 1.0) ~bound:"(0, 1)"

let size_arg ?(names = [ "size" ]) default =
  Arg.(value & opt (int_in ~lo:1 ~hi:1000) default
       & info names ~docv:"N" ~doc:"Fleet size (members, 1..1000).")

let loss_arg ?(range = loss_rate) default doc =
  Arg.(value & opt range default & info [ "loss" ] ~docv:"P" ~doc)

let fleet_names n = List.init n (Printf.sprintf "device-%02d")

let write_file path contents what =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes) — %s\n" path (String.length contents) what

(* ---- attest ---- *)

let run_attest spec_name rounds ram_kb =
  match spec_of_name spec_name with
  | None ->
    Printf.eprintf "unknown spec %s (available: %s)\n" spec_name spec_names;
    1
  | Some spec ->
    let session = Session.create ~spec ~ram_size:(ram_kb * 1024) () in
    Session.advance_time session ~seconds:1.0;
    Printf.printf "spec: %s, attested memory: %d KB\n\n" spec_name ram_kb;
    for i = 1 to rounds do
      Session.advance_time session ~seconds:1.0;
      let r = Session.attest_round_r session in
      Format.printf "round %d: %a (%d attempt%s, %.3f s)@." i Verdict.pp
        r.Session.r_verdict r.Session.r_attempts
        (if r.Session.r_attempts = 1 then "" else "s")
        r.Session.r_elapsed_s
    done;
    let device = Session.device session in
    Printf.printf "\nprover work: %.3f ms, energy: %.6f J\n"
      (Timing.ms_of_cycles (Ra_mcu.Cpu.work_cycles (Device.cpu device)))
      (Energy.consumed_joules (Device.energy device));
    0

let attest_cmd =
  let spec =
    Arg.(value & opt string "trustlite-base" & info [ "spec" ] ~docv:"SPEC"
           ~doc:(Printf.sprintf "Architecture: %s." spec_names))
  in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Rounds to run.") in
  let ram = Arg.(value & opt int 64 & info [ "ram-kb" ] ~docv:"KB" ~doc:"Attested RAM size.") in
  Cmd.v (Cmd.info "attest" ~doc:"Run benign attestation rounds against a prover")
    Term.(const run_attest $ spec $ rounds $ ram)

(* ---- attack ---- *)

let scenarios =
  [
    ("roam-counter", fun defended -> Experiment.roam_counter_rollback ~defended);
    ("roam-clock", fun defended -> Experiment.roam_clock_rollback ~defended);
    ("roam-clock-hw", fun _ -> Experiment.roam_clock_rollback_hw ());
    ("roam-idt", fun defended -> Experiment.roam_idt_freeze ~defended);
    ("roam-key", fun defended -> Experiment.roam_key_extraction ~defended);
    ("roam-lockdown", fun defended -> Experiment.roam_mpu_lockdown ~defended);
  ]

let run_attack scenario defended =
  if scenario = "all" then begin
    List.iter (fun o -> Format.printf "%a@." Experiment.pp_roam_outcome o)
      (Experiment.roaming_matrix ());
    0
  end
  else
    match List.assoc_opt scenario scenarios with
    | Some f ->
      Format.printf "%a@." Experiment.pp_roam_outcome (f defended);
      0
    | None ->
      Printf.eprintf "unknown scenario %s (available: all, %s)\n" scenario
        (String.concat ", " (List.map fst scenarios));
      1

let attack_cmd =
  let scenario =
    Arg.(value & opt string "all" & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Attack scenario (or 'all').")
  in
  let defended =
    Arg.(value & flag & info [ "defended" ] ~doc:"Run with the protection in place.")
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run a roaming-adversary scenario")
    Term.(const run_attack $ scenario $ defended)

(* ---- table2 ---- *)

let run_table2 () =
  let matrix = Experiment.table2 () in
  Printf.printf "%-10s %-10s %-10s %-12s\n" "attack" "nonces" "counter" "timestamps";
  List.iter
    (fun (attack, cells) ->
      Printf.printf "%-10s" (Experiment.attack_name attack);
      List.iter
        (fun (_, ok) -> Printf.printf " %-10s" (if ok then "mitigated" else "-"))
        cells;
      Printf.printf "\n")
    matrix;
  Printf.printf "matches paper: %b\n" (matrix = Experiment.expected_table2);
  0

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2 by simulation")
    Term.(const run_table2 $ const ())

(* ---- costs ---- *)

let run_costs () =
  let open Ra_hwcost in
  Format.printf "baseline: %a@." Synthesis.pp_totals Synthesis.baseline;
  List.iter
    (fun o -> Format.printf "%a@." Synthesis.pp_overhead o)
    [ Synthesis.upgrade_64bit_clock; Synthesis.upgrade_32bit_clock; Synthesis.upgrade_sw_clock ];
  0

let costs_cmd =
  Cmd.v (Cmd.info "costs" ~doc:"Hardware cost of prover protection (Table 3 / §6.3)")
    Term.(const run_costs $ const ())

(* ---- auth-cost ---- *)

let run_auth_cost () =
  Printf.printf "%-24s %14s %16s\n" "scheme" "cold (ms)" "precomputed (ms)";
  List.iter
    (fun scheme ->
      Printf.printf "%-24s %14.3f %16.3f\n"
        (Format.asprintf "%a" Timing.pp_auth_scheme scheme)
        (Timing.request_auth_ms scheme)
        (Timing.request_auth_ms ~precomputed_key_schedule:true scheme))
    [ Timing.Auth_hmac_sha1; Timing.Auth_aes128_cbc_mac; Timing.Auth_speck64_cbc_mac;
      Timing.Auth_ecdsa_verify ];
  0

let auth_cost_cmd =
  Cmd.v (Cmd.info "auth-cost" ~doc:"Request-authentication cost comparison (§4.1)")
    Term.(const run_auth_cost $ const ())

(* ---- fleet ---- *)

let run_fleet n sweeps =
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  for s = 1 to sweeps do
    Fleet.advance fleet ~seconds:10.0;
    let _ = Fleet.sweep fleet in
    Printf.printf "sweep %d done\n" s
  done;
  Printf.printf "%-12s %-12s %s\n" "device" "health" "sweeps";
  List.iter
    (fun (name, health, sweeps) ->
      Format.printf "%-12s %-12s %d@." name
        (Format.asprintf "%a" Fleet.pp_health health)
        sweeps)
    (Fleet.summary fleet);
  0

let fleet_cmd =
  let sweeps = Arg.(value & opt int 2 & info [ "sweeps" ] ~docv:"S" ~doc:"Sweeps to run.") in
  Cmd.v (Cmd.info "fleet" ~doc:"Sweep a fleet of provers (future work 1)")
    Term.(const run_fleet $ size_arg 5 $ sweeps)

(* ---- lattice ---- *)

let run_lattice () =
  let ok = ref 0 in
  List.iter
    (fun (config, _predicted, observed, agree) ->
      if agree then incr ok;
      Format.printf "%-36s %-42s %s@."
        (Format.asprintf "%a" Analysis.pp_config config)
        (Format.asprintf "%a" Analysis.pp_exposure observed)
        (if agree then "ok" else "MISMATCH"))
    (Analysis.exhaustive_check ());
  Printf.printf "%d/16 lattice points agree with the paper's argument\n" !ok;
  if !ok = 16 then 0 else 1

let lattice_cmd =
  Cmd.v (Cmd.info "lattice" ~doc:"Exhaustive protection-lattice check (§5/§6.2)")
    Term.(const run_lattice $ const ())

(* ---- inspect ---- *)

let run_inspect spec_name =
  match spec_of_name spec_name with
  | None ->
    Printf.eprintf "unknown spec %s (available: %s)\n" spec_name spec_names;
    1
  | Some spec ->
    let session = Session.create ~spec ~ram_size:(16 * 1024) () in
    Session.advance_time session ~seconds:5.0;
    let _ = Session.attest_round session in
    print_string (Ra_mcu.Hexdump.device_report (Session.device session));
    Printf.printf "\nfirst 64 bytes of attested RAM:\n%s"
      (Ra_mcu.Hexdump.dump
         (Device.memory (Session.device session))
         ~addr:(Device.attested_base (Session.device session))
         ~len:64);
    0

let inspect_cmd =
  let spec =
    Arg.(value & opt string "trustlite-sw-clock" & info [ "spec" ] ~docv:"SPEC"
           ~doc:(Printf.sprintf "Architecture: %s." spec_names))
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Print a device-state report after one round")
    Term.(const run_inspect $ spec)

(* ---- stats ---- *)

let run_stats n sweeps =
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  for _ = 1 to sweeps do
    Fleet.advance fleet ~seconds:10.0;
    ignore (Fleet.sweep fleet)
  done;
  (* one service round on the first member, so the service counters
     appear in the exposition *)
  ignore
    (Session.service_round
       (Fleet.member_session (List.hd (Fleet.members fleet)))
       Service.Ping);
  print_string (Fleet.render_health (Fleet.health_snapshot fleet));
  print_newline ();
  print_string (Ra_obs.Export.render_prometheus Ra_obs.Registry.default);
  0

let stats_cmd =
  let sweeps = Arg.(value & opt int 2 & info [ "sweeps" ] ~docv:"S" ~doc:"Sweeps to run.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Sweep a small fleet and print its health snapshot and Prometheus metrics")
    Term.(const run_stats $ size_arg 4 $ sweeps)

(* ---- chaos ---- *)

let run_chaos n rounds loss =
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  let losses = if loss > 0.0 then [ 0.0; loss ] else [ 0.0; 0.2 ] in
  let policies = [ ("no-retry", Retry.no_retry); ("default", Retry.default) ] in
  let (_ : Fleet.chaos_cell list) =
    Fleet.chaos_sweep ~rounds_per_member:rounds ~losses ~policies fleet
  in
  print_string (Fleet.render_health (Fleet.health_snapshot fleet));
  0

let chaos_cmd =
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per member per cell.")
  in
  let loss = loss_arg 0.2 "Per-direction loss probability for the lossy cells." in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep loss rates x backoff policies over an impaired fleet")
    Term.(const run_chaos $ size_arg 4 $ rounds $ loss)

(* ---- trace ---- *)

let run_trace n rounds loss out =
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  Fleet.enable_tracing fleet;
  let (_ : Fleet.chaos_cell list) =
    Fleet.chaos_sweep ~rounds_per_member:rounds ~losses:[ loss ]
      ~policies:[ ("default", Retry.default) ]
      fleet
  in
  let recorded = Fleet.recent_rounds fleet in
  Option.iter
    (fun path ->
      write_file path
        (Ra_obs.Export.perfetto_string recorded)
        "load it at ui.perfetto.dev or chrome://tracing")
    out;
  let events = List.fold_left (fun acc r -> acc + List.length r.Ra_obs.Trace.rd_events) 0 recorded in
  Printf.printf "chaos cell: loss=%.0f%% policy=default, %d members x %d rounds\n"
    (100.0 *. loss) n rounds;
  Printf.printf "flight recorder: %d rounds, %d events, %d distinct trace ids\n"
    (List.length recorded) events
    (List.length
       (List.sort_uniq compare
          (List.map (fun r -> (r.Ra_obs.Trace.rd_device, r.Ra_obs.Trace.rd_trace_id)) recorded)));
  List.iter (fun c -> Format.printf "slo: %a@." Ra_obs.Slo.pp_check c) (Fleet.slo_watch fleet);
  0

let trace_cmd =
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Traced rounds per member.")
  in
  let loss = loss_arg 0.2 "Per-direction loss probability for the traced chaos cell." in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace-event JSON here.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record causally-traced chaos rounds and export a Perfetto trace")
    Term.(const run_trace $ size_arg 4 $ rounds $ loss $ out)

(* ---- sched ---- *)

let run_sched n rounds loss shards =
  let names = fleet_names n in
  let member_clock m = Ra_net.Simtime.now (Session.time (Fleet.member_session m)) in
  (* everything observable about a fleet: verdict ledger, member clocks
     and the raw wire transcripts *)
  let fleet_state f =
    ( Fleet.summary f,
      List.map Fleet.member_history (Fleet.members f),
      List.map member_clock (Fleet.members f),
      List.map
        (fun m -> Ra_net.Channel.transcript (Session.channel (Fleet.member_session m)))
        (Fleet.members f) )
  in
  let sweep_with k =
    let f = Fleet.create ~ram_size:4096 ~names () in
    Fleet.advance f ~seconds:1.0;
    let verdicts = Fleet.sweep ~engine:(`Shards k) f in
    (verdicts, fleet_state f)
  in
  let chaos_with k =
    let f = Fleet.create ~ram_size:4096 ~names () in
    Fleet.enable_tracing f;
    let grid =
      Fleet.chaos_sweep ~seed:42L ~engine:(`Shards k) ~rounds_per_member:rounds
        ~losses:[ 0.0; loss ]
        ~policies:[ ("default", Retry.default) ]
        f
    in
    (grid, fleet_state f, Fleet.recent_rounds f)
  in
  let chaos_sh = chaos_with shards in
  let grid, _, _ = chaos_sh in
  Printf.printf "fleet engine: 1 vs %d shard%s, %d members x %d rounds\n\n" shards
    (if shards = 1 then "" else "s")
    n rounds;
  Printf.printf "%-8s %12s %14s %10s %10s\n" "loss" "converged" "mean attempts"
    "p50 (s)" "p99 (s)";
  List.iter
    (fun c ->
      Printf.printf "%-8s %11.1f%% %14.2f %10.3f %10.3f\n"
        (Printf.sprintf "%.0f%%" (100.0 *. c.Fleet.c_loss))
        (Fleet.convergence_pct c) c.Fleet.c_mean_attempts c.Fleet.c_p50_s
        c.Fleet.c_p99_s)
    grid;
  Printf.printf "\nsweep identical across shard counts: %b\n" (sweep_with 1 = sweep_with shards);
  Printf.printf "traced chaos identical across shard counts: %b\n" (chaos_with 1 = chaos_sh);
  0

let sched_cmd =
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per member per cell.")
  in
  let loss = loss_arg 0.2 "Per-direction loss probability for the lossy cell." in
  let shards =
    Arg.(value & opt shard_count 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count for the sharded engine (1..64; contiguous member \
                 ranges, one event timeline per shard on the persistent domain pool).")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Run fleet sweeps on the sharded event engine and compare shard counts")
    Term.(const run_sched $ size_arg ~names:[ "size"; "members" ] 4 $ rounds $ loss $ shards)

(* ---- serve ---- *)

let serve_config ~rate =
  let vcfg =
    Verifier.Config.v ~sym_key:"K_attest_0123456789."
      ~reference_image:(String.make 64 '\xc3')
      ~time:(Ra_net.Simtime.create ()) ()
  in
  {
    (Server.default_config vcfg) with
    Server.sc_admission =
      {
        Admission.default_config with
        (* size the per-device bucket above the offered per-device rate,
           so a well-behaved fleet is never throttled *)
        device_rate = Float.max 1.0 (2.0 *. rate);
        device_burst = Float.max 12.0 (8.0 *. rate);
      };
  }

let run_serve devices rate horizon shards flood_factor bursty =
  let cfg = serve_config ~rate in
  let traffic =
    {
      Server.Load.default_traffic with
      Server.Load.tr_devices = devices;
      tr_rate = rate;
      tr_process = (if bursty then `Bursty else `Poisson);
      tr_horizon_s = horizon;
      tr_seed = 2016L;
    }
  in
  let run traffic =
    let report, _ = Server.Load.run ~engine:(`Shards shards) cfg traffic in
    print_string (Server.Load.render report);
    report
  in
  let base = run traffic in
  if flood_factor > 0.0 then begin
    let sources = max 1 (devices / 20) in
    let aggregate = flood_factor *. (float_of_int devices *. rate) in
    ignore
      (run
         {
           traffic with
           Server.Load.tr_flood_sources = sources;
           tr_flood_rate = aggregate /. float_of_int sources;
         })
  end;
  List.iter
    (fun c -> Format.printf "%a@." Ra_obs.Slo.pp_check c)
    (Server.Load.slo_watch base);
  0

let serve_cmd =
  let devices =
    Arg.(value & opt (int_in ~lo:1 ~hi:200_000) 64 & info [ "devices" ] ~docv:"N"
           ~doc:"Registered report sources (known-class identities, 1..200000).")
  in
  let rate =
    Arg.(value & opt float 0.5 & info [ "rate" ] ~docv:"RPS"
           ~doc:"Per-device reports per simulated second.")
  in
  let horizon =
    Arg.(value & opt float 30.0 & info [ "horizon" ] ~docv:"S"
           ~doc:"Simulated seconds of open-loop traffic.")
  in
  let shards =
    Arg.(value & opt (int_from 1) 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count (independent server instances, >= 1).")
  in
  let flood =
    Arg.(value & opt float 10.0 & info [ "flood" ] ~docv:"X"
           ~doc:"Also run an Adv_ext flood at X times the authenticated \
                 aggregate rate (0 disables the flood run).")
  in
  let bursty =
    Arg.(value & flag & info [ "bursty" ]
           ~doc:"Gilbert-Elliott-bursty arrivals instead of Poisson.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the verifier-as-a-service against open-loop fleet traffic")
    Term.(const run_serve $ devices $ rate $ horizon $ shards $ flood $ bursty)

(* ---- profile ---- *)

let run_prof n rounds loss shards period out folded_out =
  let module Profiler = Ra_obs.Profiler in
  (* in-ISA SHA-1 flame graph: PC-sample the interpreted anchor through
     one full attestation round *)
  let sym_key = "K_attest_0123456789." in
  let device =
    Device.create ~ram_size:2048
      ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
      ~key:(Auth.prover_key_blob ~sym_key ~public:None)
      ()
  in
  Device.fill_ram_deterministic device ~seed:11L;
  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter
  in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1
           ~freshness_kind:Verifier.Fk_counter ~sym_key
           ~time:(Ra_net.Simtime.create ())
           ~reference_image:(Isa_anchor.measure_memory anchor) ())
    with
    | Ok v -> v
    | Error msg -> failwith msg
  in
  let pc = Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~period ~memory:(Device.memory device) pc in
  Ra_isa.Sha1_asm.set_sampler (Isa_anchor.sha anchor) (Some sampler);
  ignore (Isa_anchor.handle_request anchor (Verifier.make_request verifier));
  Ra_isa.Sampler.flush sampler;
  let mac_cycles = Isa_anchor.last_mac_cycles anchor in
  (* fleet run: traced+profiled chaos rounds on the sharded engine, then
     one sharded sweep recording the queue-depth counter track *)
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  Fleet.enable_tracing fleet;
  Fleet.enable_profiling fleet;
  Fleet.advance fleet ~seconds:1.0;
  let (_ : Fleet.chaos_cell list) =
    Fleet.chaos_sweep ~seed:42L ~engine:(`Shards shards)
      ~rounds_per_member:rounds ~losses:[ loss ]
      ~policies:[ ("default", Retry.default) ]
      fleet
  in
  let tracks =
    Array.init shards (fun i ->
        Profiler.Track.create (Printf.sprintf "queue-depth/shard-%d" i))
  in
  let (_ : (string * Verdict.t option) list) =
    Fleet.sweep ~engine:(`Shards shards) ~tracks fleet
  in
  let track = Profiler.Track.merge ~name:"ra_sched_queue_depth" (Array.to_list tracks) in
  let prof = Fleet.profile fleet in
  let symbolized_pct =
    let total = Profiler.Pc.cycles pc in
    if Int64.equal total 0L then 0.0
    else
      100.0
      *. Int64.to_float
           (Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
                not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x")))
      /. Int64.to_float total
  in
  Printf.printf
    "in-ISA SHA-1 anchor: %Ld interpreted mac cycles, %d stacks, %.1f%% symbolized \
     (period %d cycles)\n"
    mac_cycles
    (List.length (Profiler.Pc.rows pc))
    symbolized_pct period;
  let top =
    Profiler.Pc.rows pc
    |> List.sort (fun (_, a, _) (_, b, _) -> Int64.compare b a)
    |> List.filteri (fun i _ -> i < 3)
  in
  List.iter
    (fun (frames, cycles, samples) ->
      Printf.printf "  %-56s %10Ld cycles %5d samples\n"
        (String.concat ";" frames) cycles samples)
    top;
  (* fold the ISA stacks into the fleet profile so one folded file
     carries both views *)
  Profiler.Pc.absorb prof.Profiler.pc pc;
  Printf.printf "\nfleet: %d members x %d rounds at %.0f%% loss, %d shard%s\n" n
    rounds (100.0 *. loss) shards
    (if shards = 1 then "" else "s");
  Printf.printf "%-12s %14s %16s %8s\n" "phase" "cycles" "energy (nJ)" "samples";
  List.iter
    (fun (phase, (cycles, nj, samples)) ->
      Printf.printf "%-12s %14Ld %16.1f %8d\n" phase cycles nj samples)
    (Profiler.Phases.totals prof.Profiler.phases);
  Printf.printf "queue-depth counter track: %d points\n"
    (List.length (Profiler.Track.points track));
  Option.iter
    (fun path -> write_file path (Profiler.folded prof) "feed it to flamegraph.pl")
    folded_out;
  Option.iter
    (fun path ->
      write_file path
        (Ra_obs.Export.perfetto_string ~counters:[ track ]
           ~phases:(Profiler.Phases.samples prof.Profiler.phases)
           (Fleet.recent_rounds fleet))
        "load it at ui.perfetto.dev or chrome://tracing")
    out;
  0

let prof_cmd =
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Profiled rounds per member.")
  in
  let loss = loss_arg 0.2 "Per-direction loss probability for the profiled chaos cell." in
  let shards =
    Arg.(value & opt shard_count 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count (1..64) for the sharded engine and the profile merge.")
  in
  let period =
    Arg.(value & opt (int_from 1) Ra_isa.Sampler.default_period
         & info [ "period" ] ~docv:"CYCLES"
             ~doc:"PC-sampling period in prover CPU cycles (>= 1; deterministic; \
                   never wall time).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace-event JSON (causal rounds, phase \
                 instants, queue-depth counter track) here.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Write flamegraph.pl-compatible folded stacks of the in-ISA \
                 SHA-1 attestation here.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"PC-sample the in-ISA anchor and attribute fleet cycles/energy to phases")
    Term.(
      const run_prof $ size_arg ~names:[ "size"; "members" ] 4 $ rounds $ loss $ shards
      $ period $ out $ folded)

(* ---- replay ---- *)

let run_replay n rounds loss seed diagnosis_out capsules_out perfetto_out =
  let module Forensics = Ra_obs.Forensics in
  let losses = [ 0.0; loss ] in
  let policies = [ ("no-retry", Retry.no_retry); ("default", Retry.default) ] in
  (* one capturing fleet: forensics + tracing + profiling, then the
     failure-provoking sweep *)
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  ignore (Fleet.enable_forensics fleet);
  Fleet.enable_tracing fleet;
  Fleet.enable_profiling fleet;
  let (_ : Fleet.chaos_cell list) =
    Fleet.chaos_sweep ~seed ~rounds_per_member:rounds ~losses ~policies fleet
  in
  let caps = Fleet.capsules fleet in
  let failures_caps =
    List.filter (fun c -> c.Forensics.cap_kind = Forensics.Failure) caps
  in
  let stamped = Fleet.annotate_exemplars fleet in
  let diags = Forensics.triage caps in
  Printf.printf
    "%d members x %d rounds, cells %s; captured %d capsules (%d failures, %d \
     slowest), %d exemplars stamped\n\n"
    n rounds
    (String.concat ", "
       (List.concat_map
          (fun l ->
            List.map
              (fun (p, _) -> Printf.sprintf "%.0f%%/%s" (100.0 *. l) p)
              policies)
          losses))
    (List.length caps) (List.length failures_caps)
    (List.length caps - List.length failures_caps)
    stamped;
  print_string (Forensics.render_diagnosis diags);
  (* replay the first failure capsule (or the latest capsule when the
     sweep happened to converge everywhere) and report the comparison *)
  let target =
    match failures_caps with
    | c :: _ -> Some c
    | [] -> ( match List.rev caps with c :: _ -> Some c | [] -> None)
  in
  let replayed =
    match target with
    | None ->
      print_endline "\nno capsule to replay";
      None
    | Some c -> (
      Printf.printf
        "\nreplaying %s capsule: %s cell=%d (loss=%.0f%% policy=%s) round=%d \
         reason=%s\n"
        (Forensics.kind_label c.Forensics.cap_kind)
        c.Forensics.cap_name c.Forensics.cap_cell
        (100.0 *. c.Forensics.cap_loss)
        c.Forensics.cap_policy c.Forensics.cap_round c.Forensics.cap_reason;
      match Fleet.replay_capsule fleet c with
      | Error msg ->
        Printf.printf "replay failed: %s\n" msg;
        None
      | Ok rp ->
        Format.printf
          "replayed: %a (%d attempt%s, %.3f s) wire digest %s — %s@."
          Verdict.pp rp.Fleet.rp_verdict rp.Fleet.rp_attempts
          (if rp.Fleet.rp_attempts = 1 then "" else "s")
          rp.Fleet.rp_elapsed_s
          (String.sub rp.Fleet.rp_digest 0 12)
          (if rp.Fleet.rp_match then "byte-identical to the capture"
           else "MISMATCH vs capture");
        Some rp)
  in
  Option.iter
    (fun path -> write_file path (Forensics.diagnosis_jsonl diags) "ranked diagnosis JSONL")
    diagnosis_out;
  Option.iter
    (fun path -> write_file path (Forensics.capsules_jsonl caps) "replay capsules JSONL")
    capsules_out;
  Option.iter
    (fun path ->
      let rounds_tr, phases =
        match replayed with
        | Some rp ->
          ( Option.to_list rp.Fleet.rp_round,
            match rp.Fleet.rp_profile with
            | Some p -> Ra_obs.Profiler.Phases.samples p.Ra_obs.Profiler.phases
            | None -> [] )
        | None -> ([], [])
      in
      write_file path
        (Ra_obs.Export.perfetto_string ~counters:[] ~phases rounds_tr)
        "Perfetto trace of the replayed round")
    perfetto_out;
  0

let replay_cmd =
  let rounds =
    Arg.(value & opt (int_from 1) 4 & info [ "rounds" ] ~docv:"R"
           ~doc:"Rounds per member per chaos cell (>= 1).")
  in
  let loss =
    loss_arg ~range:lossy_rate 0.4
      "Per-direction loss probability for the failure-provoking cells."
  in
  let seed =
    Arg.(value & opt int64 31L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos sweep root seed (pinned into every capsule).")
  in
  let diagnosis =
    Arg.(value & opt (some string) None & info [ "diagnosis" ] ~docv:"FILE"
           ~doc:"Write the ranked diagnosis report as JSONL here.")
  in
  let capsules =
    Arg.(value & opt (some string) None & info [ "capsules" ] ~docv:"FILE"
           ~doc:"Write the captured replay capsules as JSONL here.")
  in
  let perfetto =
    Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace of the replayed round here.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Capture failure capsules from a chaos sweep, triage them, and replay \
             one round byte-for-byte")
    Term.(const run_replay $ size_arg 6 $ rounds $ loss $ seed $ diagnosis $ capsules
          $ perfetto)

(* ---- session ---- *)

let run_session n rounds records loss seed =
  let fleet = Fleet.create ~ram_size:4096 ~names:(fleet_names n) () in
  let cells =
    Fleet.chaos_sweep ~seed ~rounds_per_member:rounds ~workload:(`Session records)
      ~losses:[ 0.0; loss ]
      ~policies:[ ("default", Retry.default) ]
      fleet
  in
  Printf.printf
    "%d members x %d session rounds (handshake + %d records + close each)\n\n"
    n rounds records;
  Printf.printf "%-8s %-10s %-12s %-14s %-8s\n" "loss" "policy" "converged"
    "mean sends" "p99 s";
  List.iter
    (fun c ->
      Printf.printf "%-8s %-10s %-12s %-14.2f %-8.2f\n"
        (Printf.sprintf "%.0f%%" (100.0 *. c.Fleet.c_loss))
        c.Fleet.c_policy
        (Printf.sprintf "%d/%d" c.Fleet.c_converged c.Fleet.c_rounds)
        c.Fleet.c_mean_attempts c.Fleet.c_p99_s)
    cells;
  (* one pristine world for the wire story *)
  let s = Session.create ~ram_size:4096 () in
  Session.advance_time s ~seconds:1.0;
  let r = Secure_session.run_r ~records s in
  Printf.printf
    "\nsingle pristine session: %s, %d transmissions, %.3f s, %d wire frames\n"
    (Verdict.label r.Session.r_verdict)
    r.Session.r_attempts r.Session.r_elapsed_s
    (Ra_net.Channel.transcript_length (Session.channel s));
  0

let session_cmd =
  let rounds =
    Arg.(value & opt (int_from 1) 3 & info [ "rounds" ] ~docv:"R"
           ~doc:"Session rounds per member per chaos cell (>= 1).")
  in
  let records =
    Arg.(value & opt (int_from 0) 4 & info [ "records" ] ~docv:"K"
           ~doc:"Streaming attestation records per session (>= 0).")
  in
  let loss =
    loss_arg ~range:lossy_rate 0.2 "Per-direction loss probability for the impaired cell."
  in
  let seed =
    Arg.(value & opt int64 23L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos sweep root seed.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Stream encrypted, replay-windowed attestation records over an \
             attested secure session")
    Term.(const run_session $ size_arg 6 $ rounds $ records $ loss $ seed)

let main =
  Cmd.group
    (Cmd.info "ra_cli" ~version:"1.0.0"
       ~doc:"Prover-side remote attestation: protocol, attacks, and costs")
    [ attest_cmd; attack_cmd; table2_cmd; costs_cmd; auth_cost_cmd; fleet_cmd; lattice_cmd; inspect_cmd; stats_cmd; chaos_cmd; trace_cmd; sched_cmd; serve_cmd; prof_cmd; replay_cmd; session_cmd ]

let () = exit (Cmd.eval' main)

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
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
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
  end

let fleet_cmd =
  let n = Arg.(value & opt int 5 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let sweeps = Arg.(value & opt int 2 & info [ "sweeps" ] ~docv:"S" ~doc:"Sweeps to run.") in
  Cmd.v (Cmd.info "fleet" ~doc:"Sweep a fleet of provers (future work 1)")
    Term.(const run_fleet $ n $ sweeps)

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

let run_stats n sweeps selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    for _ = 1 to sweeps do
      Fleet.advance fleet ~seconds:10.0;
      ignore (Fleet.sweep fleet)
    done;
    (* exercise the service path, including both rejection reasons, on
       the first member so the rejection-breakdown counters are live *)
    let first = Fleet.member_session (List.hd (Fleet.members fleet)) in
    let service_ok = Session.service_round first Service.Ping in
    let svc = Session.service first in
    let scheme = Verifier.scheme (Session.verifier first) in
    let forged =
      Service.make_request ~sym_key:(String.make 20 'x') ~scheme
        ~freshness:(Message.F_counter 99L) Service.Ping
    in
    let bad_auth_seen =
      match Service.handle_r svc forged with
      | Error Verdict.Bad_auth -> true
      | Ok _ | Error _ -> false
    in
    let stale =
      Service.make_request ~sym_key:(Session.sym_key first) ~scheme
        ~freshness:(Message.F_counter 0L) Service.Ping
    in
    let not_fresh_seen =
      match Service.handle_r svc stale with
      | Error (Verdict.Not_fresh _) -> true
      | Ok _ | Error _ -> false
    in
    let snapshot = Fleet.health_snapshot fleet in
    print_string (Fleet.render_health snapshot);
    print_newline ();
    let exposition = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
    print_string exposition;
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      let has family = Ra_net.Trace.contains_substring ~needle:family exposition in
      List.iter
        (fun family -> check ("exposition family " ^ family) (has family))
        [
          "ra_attest_requests_total";
          "ra_auth_verifications_total{";
          "ra_channel_sent_total{";
          "ra_channel_delivered_total{";
          "ra_fleet_sweep_latency_ms_bucket{";
          "ra_fleet_members{";
          "ra_service_invocations_total";
          "ra_service_rejections_total{";
          "ra_verifier_verdicts_total{";
          "ra_span_ms_bucket{";
          "ra_device_cycles{";
        ];
      check "service round acknowledged" service_ok;
      check "bad-auth rejection observed" bad_auth_seen;
      check "not-fresh rejection observed" not_fresh_seen;
      check "metrics JSONL parses"
        (match Ra_obs.Export.parse_jsonl
                 (Ra_obs.Export.metrics_jsonl Ra_obs.Registry.default)
         with
        | Ok (_ :: _) -> true
        | Ok [] | Error _ -> false);
      check "spans JSONL parses"
        (match Ra_obs.Export.parse_jsonl
                 (Ra_obs.Export.spans_jsonl (Ra_net.Trace.spans (Session.trace first)))
         with
        | Ok (_ :: _) -> true
        | Ok [] | Error _ -> false);
      List.iter
        (fun m ->
          check
            (Printf.sprintf "spans balanced on %s" (Fleet.member_name m))
            (Ra_obs.Span.open_count
               (Ra_net.Trace.spans (Session.trace (Fleet.member_session m)))
            = 0))
        (Fleet.members fleet);
      check "trusted verdict count"
        (Ra_obs.Registry.Counter.value
           (Ra_obs.Registry.Counter.get ~labels:[ ("verdict", "trusted") ]
              "ra_verifier_verdicts_total")
        = n * sweeps);
      check "rejection breakdown totals"
        (let s = Service.stats svc in
         Service.rejected s Verdict.Reason.Bad_auth = 1
         && Service.rejected s Verdict.Reason.Not_fresh = 1
         && Service.rejections s = 2);
      match !failures with
      | [] ->
        print_endline "selftest ok";
        0
      | fs ->
        List.iter (fun f -> Printf.eprintf "selftest FAILED: %s\n" f) (List.rev fs);
        1
    end
  end

let stats_cmd =
  let n = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let sweeps = Arg.(value & opt int 2 & info [ "sweeps" ] ~docv:"S" ~doc:"Sweeps to run.") in
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify the exposition, JSONL sinks and counters; non-zero exit on failure.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Sweep a small fleet and print its health snapshot and Prometheus metrics")
    Term.(const run_stats $ n $ sweeps $ selftest)

(* ---- chaos ---- *)

let run_chaos n rounds loss selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    let losses = if loss > 0.0 then [ 0.0; loss ] else [ 0.0; 0.2 ] in
    let policies = [ ("no-retry", Retry.no_retry); ("default", Retry.default) ] in
    let grid = Fleet.chaos_sweep ~rounds_per_member:rounds ~losses ~policies fleet in
    let snapshot = Fleet.health_snapshot fleet in
    print_string (Fleet.render_health snapshot);
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      let exposition = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
      let has family = Ra_net.Trace.contains_substring ~needle:family exposition in
      List.iter
        (fun family -> check ("exposition family " ^ family) (has family))
        [
          "ra_channel_impairments_total{";
          "ra_chaos_rounds_total{";
          "ra_chaos_round_time_ms_bucket{";
          "ra_session_rounds_total{";
        ];
      let cell l p =
        List.find_opt
          (fun c -> c.Fleet.c_loss = l && c.Fleet.c_policy = p)
          grid
      in
      check "pristine wire converges 100%"
        (match cell 0.0 "default" with
        | Some c -> Fleet.convergence_pct c = 100.0 && c.Fleet.c_mean_attempts = 1.0
        | None -> false);
      check "lossy wire converges >= 99% under default backoff"
        (match cell (List.nth losses 1) "default" with
        | Some c -> Fleet.convergence_pct c >= 99.0
        | None -> false);
      check "retry engine actually retries on a lossy wire"
        (match cell (List.nth losses 1) "default" with
        | Some c -> c.Fleet.c_mean_attempts > 1.0
        | None -> false);
      (* verdict JSON round-trips through the obs sink *)
      let verdicts =
        [
          Verdict.Trusted;
          Verdict.Untrusted_state;
          Verdict.Invalid_response;
          Verdict.Bad_auth;
          Verdict.Not_fresh (Verdict.Stale_counter { got = 5L; stored = 9L });
          Verdict.Fault { fault_addr = 0x123; fault_code = "rom_attest" };
          Verdict.Timed_out { attempts = 8; waited_s = 42.5 };
        ]
      in
      check "verdicts round-trip through JSON"
        (List.for_all
           (fun v ->
             match
               Ra_obs.Json.of_string (Ra_obs.Json.to_string (Verdict.to_json v))
             with
             | Ok j -> Verdict.of_json j = Some v
             | Error _ -> false)
           verdicts);
      check "snapshot carries the chaos grid" (snapshot.Fleet.s_chaos = grid);
      match !failures with
      | [] ->
        print_endline "chaos selftest ok";
        0
      | fs ->
        List.iter (fun f -> Printf.eprintf "chaos selftest FAILED: %s\n" f) (List.rev fs);
        1
    end
  end

let chaos_cmd =
  let n = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per member per cell.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the lossy cells.")
  in
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify convergence targets, verdict JSON round-trips and the new \
                 metric families; non-zero exit on failure.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep loss rates x backoff policies over an impaired fleet")
    Term.(const run_chaos $ n $ rounds $ loss $ selftest)

(* ---- trace ---- *)

let run_trace n rounds loss out selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    Fleet.enable_tracing fleet;
    let policies = [ ("default", Retry.default) ] in
    let grid =
      Fleet.chaos_sweep ~rounds_per_member:rounds ~losses:[ loss ] ~policies fleet
    in
    let recorded = Fleet.recent_rounds fleet in
    let perfetto = Ra_obs.Export.perfetto_string recorded in
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc perfetto;
      close_out oc;
      Printf.printf "wrote %s (%d bytes) — load it at ui.perfetto.dev or chrome://tracing\n"
        path (String.length perfetto));
    let events = List.fold_left (fun acc r -> acc + List.length r.Ra_obs.Trace.rd_events) 0 recorded in
    Printf.printf "chaos cell: loss=%.0f%% policy=default, %d members x %d rounds\n"
      (100.0 *. loss) n rounds;
    Printf.printf "flight recorder: %d rounds, %d events, %d distinct trace ids\n"
      (List.length recorded) events
      (List.length
         (List.sort_uniq compare
            (List.map (fun r -> (r.Ra_obs.Trace.rd_device, r.Ra_obs.Trace.rd_trace_id)) recorded)));
    let checks = Fleet.slo_watch fleet in
    List.iter (fun c -> Format.printf "slo: %a@." Ra_obs.Slo.pp_check c) checks;
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      (* --- every recorded round is a well-formed causal tree --- *)
      check "all rounds recorded" (List.length recorded = n * rounds);
      let well_formed (r : Ra_obs.Trace.round) =
        let ids = List.map (fun e -> e.Ra_obs.Trace.ev_id) r.Ra_obs.Trace.rd_events in
        let id_set = List.sort_uniq compare ids in
        List.length id_set = List.length ids
        && (match r.Ra_obs.Trace.rd_events with
           | root :: _ ->
             root.Ra_obs.Trace.ev_id = 0
             && root.Ra_obs.Trace.ev_name = Ra_obs.Trace.root_span_name
             && root.Ra_obs.Trace.ev_parent = None
           | [] -> false)
        && List.for_all
             (fun (e : Ra_obs.Trace.event) ->
               match e.Ra_obs.Trace.ev_parent with
               | None -> e.Ra_obs.Trace.ev_id = 0
               | Some p -> List.mem p ids)
             r.Ra_obs.Trace.rd_events
      in
      check "rounds are well-formed causal trees" (List.for_all well_formed recorded);
      let count_named name r =
        List.length
          (List.filter
             (fun (e : Ra_obs.Trace.event) -> e.Ra_obs.Trace.ev_name = name)
             r.Ra_obs.Trace.rd_events)
      in
      check "one attempt span per transmission"
        (List.for_all
           (fun r -> count_named "retry.attempt" r = r.Ra_obs.Trace.rd_attempts)
           recorded);
      check "every round carries its final verdict"
        (List.for_all (fun r -> count_named "verdict" r = 1) recorded);
      check "impairment events captured"
        (loss = 0.0
        || List.exists (fun r -> count_named "net.drop" r > 0) recorded);
      check "retries causally linked to drops"
        (loss = 0.0
        || List.exists (fun r -> r.Ra_obs.Trace.rd_attempts > 1) recorded);
      (* --- Perfetto export parses; every event rides one trace id --- *)
      (match Ra_obs.Json.of_string perfetto with
      | Error _ -> check "perfetto JSON parses" false
      | Ok j ->
        let evs =
          match Ra_obs.Json.member "traceEvents" j with
          | Some (Ra_obs.Json.Arr evs) -> evs
          | _ -> []
        in
        check "perfetto traceEvents non-empty" (evs <> []);
        check "perfetto events carry tid = args.trace_id"
          (List.for_all
             (fun ev ->
               match Ra_obs.Json.member "ph" ev with
               | Some (Ra_obs.Json.Str "M") -> true (* metadata *)
               | _ -> (
                 match
                   ( Ra_obs.Json.member "tid" ev,
                     Option.bind (Ra_obs.Json.member "args" ev)
                       (Ra_obs.Json.member "trace_id") )
                 with
                 | Some (Ra_obs.Json.Num tid), Some (Ra_obs.Json.Num tr) -> tid = tr
                 | _ -> false))
             evs));
      (* --- JSONL round-trip --- *)
      check "rounds JSONL round-trips"
        (match Ra_obs.Export.parse_jsonl (Ra_obs.Export.rounds_jsonl recorded) with
        | Ok js ->
          List.length js = List.length recorded
          && List.for_all2
               (fun j r -> Ra_obs.Trace.round_of_json j = Some r)
               js recorded
        | Error _ -> false);
      (* --- tracing never touches the wire: byte-identical transcripts --- *)
      let transcript_of traced =
        let s = Session.create ~ram_size:4096 () in
        if traced then ignore (Session.enable_tracing s);
        Session.advance_time s ~seconds:1.0;
        Session.set_impairment s
          (Some
             (Ra_net.Impairment.create
                ~to_prover:(Ra_net.Impairment.lossy 0.3)
                ~to_verifier:(Ra_net.Impairment.lossy 0.3)
                ~seed:42L ()));
        let r = Session.attest_round_r s in
        ( r.Session.r_verdict,
          r.Session.r_attempts,
          List.map
            (fun e -> e.Ra_net.Channel.payload)
            (Ra_net.Channel.transcript (Session.channel s)) )
      in
      check "transcripts byte-identical with tracing on/off"
        (transcript_of true = transcript_of false);
      check "paper model unchanged" (Experiment.table2 () = Experiment.expected_table2);
      (* --- SLO watchdog --- *)
      check "slo watchdog produced checks" (checks <> []);
      check "default objectives met at this loss rate"
        (Ra_obs.Slo.breaches checks = []);
      check "impossible objective breaches"
        (Fleet.slo_watch
           ~policy:{ Fleet.default_slo_policy with slo_max_p99_s = 0.0 }
           fleet
        |> Ra_obs.Slo.breaches <> []);
      check "exact-threshold observation is compliant"
        (let c = List.hd grid in
         (Ra_obs.Slo.evaluate ~scope:"selftest"
            (Ra_obs.Slo.objective ~name:"selftest_exact"
               ~limit:c.Fleet.c_p99_s Ra_obs.Slo.At_most)
            ~observed:c.Fleet.c_p99_s)
           .Ra_obs.Slo.ck_ok);
      let exposition = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
      let has family = Ra_net.Trace.contains_substring ~needle:family exposition in
      List.iter
        (fun family -> check ("exposition family " ^ family) (has family))
        [
          "ra_trace_rounds_total";
          "ra_trace_events_total";
          "ra_slo_evaluations_total{";
          "ra_slo_breaches_total{";
          "ra_slo_margin{";
        ];
      match !failures with
      | [] ->
        print_endline "trace selftest ok";
        0
      | fs ->
        List.iter (fun f -> Printf.eprintf "trace selftest FAILED: %s\n" f) (List.rev fs);
        1
    end
  end

let trace_cmd =
  let n = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Traced rounds per member.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the traced chaos cell.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace-event JSON here.")
  in
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify causal linking, wire-neutrality, Perfetto/JSONL exports \
                 and the SLO watchdog; non-zero exit on failure.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record causally-traced chaos rounds and export a Perfetto trace")
    Term.(const run_trace $ n $ rounds $ loss $ out $ selftest)

(* ---- sched ---- *)

let run_sched n rounds loss shards selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else if shards < 1 || shards > 64 then begin
    Printf.eprintf "shards must be 1..64\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let member_clock m = Ra_net.Simtime.now (Session.time (Fleet.member_session m)) in
    (* everything observable about a fleet: verdict ledger, member
       clocks and the raw wire transcripts — every shard count must
       reproduce all of it byte-for-byte *)
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
    let sweep_one = sweep_with 1 and sweep_sh = sweep_with shards in
    let chaos_one = chaos_with 1 and chaos_sh = chaos_with shards in
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
    Printf.printf "\nsweep identical across shard counts: %b\n" (sweep_one = sweep_sh);
    Printf.printf "traced chaos identical across shard counts: %b\n" (chaos_one = chaos_sh);
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      check "engine deterministic across runs" (chaos_with 1 = chaos_one);
      (* verdicts, ledgers, clocks, transcripts and flight recorders at
         several shard counts, not just the one requested on the command
         line; the sequential oracle comparison is the test suite's job *)
      List.iter
        (fun k ->
          let label what = Printf.sprintf "%s at %d shards identical to 1 shard" what k in
          check (label "sweep") (sweep_with k = sweep_one);
          check (label "traced chaos") (chaos_with k = chaos_one))
        (List.sort_uniq compare [ 2; 3; 7; shards ]);
      (* streaming sweep: fingerprint independent of the shard count *)
      (let fp k =
         (Fleet.stream_sweep ~ram_size:4096 ~shards:k ~members:n ())
           .Fleet.st_fingerprint
       in
       let base = fp 1 in
       check "stream fingerprint invariant across shard counts"
         (List.for_all (fun k -> fp k = base) [ 2; shards ]));
      (* scheduler primitives: tie order is insertion order, past events
         clamp to now instead of rewinding the timeline *)
      let sched = Sched.create () in
      let order = ref [] in
      Sched.at sched ~at:2.0 (fun () -> order := "b" :: !order);
      Sched.at sched ~at:1.0 (fun () ->
          order := "a" :: !order;
          Sched.at sched ~at:0.5 (fun () -> order := "clamped" :: !order));
      ignore (Sched.run sched);
      check "ties and past events fire deterministically"
        (List.rev !order = [ "a"; "clamped"; "b" ] && Sched.now sched = 2.0);
      (* delayed delivery through the queue: the defer hook turns an
         inline Delay impairment into a scheduled delivery event *)
      let time = Ra_net.Simtime.create () in
      let ch = Ra_net.Channel.create time (Ra_net.Trace.create time) in
      let got = ref [] in
      let (_ : string Ra_net.Channel.Endpoint.handle) =
        Ra_net.Channel.Endpoint.attach ch Ra_net.Channel.Prover_side (fun m ->
            got := m :: !got)
      in
      Ra_net.Channel.set_impairment ch
        (Some
           (Ra_net.Impairment.create
              ~to_prover:{ Ra_net.Impairment.pristine with delay = 1.0; delay_s = 0.5 }
              ~seed:5L ()));
      let dsched = Sched.create () in
      Ra_net.Channel.set_defer ch
        (Some
           (fun delay deliver ->
             Sched.after dsched ~delay (fun () ->
                 Ra_net.Simtime.advance_to time (Sched.now dsched);
                 deliver ())));
      Ra_net.Channel.send ch ~src:Ra_net.Channel.Verifier_side "deferred";
      let (_ : bool) = Ra_net.Channel.forward_next ch ~dst:Ra_net.Channel.Prover_side in
      check "delayed delivery lands in the queue, not inline"
        (!got = [] && Sched.pending dsched = 1);
      ignore (Sched.run dsched);
      check "deferred delivery fires at its delay"
        (!got = [ "deferred" ] && Ra_net.Simtime.now time = Sched.now dsched);
      let exposition = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
      let has family = Ra_net.Trace.contains_substring ~needle:family exposition in
      List.iter
        (fun family -> check ("exposition family " ^ family) (has family))
        [
          "ra_sched_events_total{";
          "ra_sched_queue_depth";
          "ra_sched_lag_seconds_bucket{";
        ];
      check "scheduler fired at least one event per member round"
        (Ra_obs.Registry.Counter.value
           (Ra_obs.Registry.Counter.get ~labels:[ ("kind", "fired") ]
              "ra_sched_events_total")
        >= n * rounds);
      check "paper model unchanged" (Experiment.table2 () = Experiment.expected_table2);
      match !failures with
      | [] ->
        print_endline "sched selftest ok";
        0
      | fs ->
        List.iter (fun f -> Printf.eprintf "sched selftest FAILED: %s\n" f) (List.rev fs);
        1
    end
  end

let sched_cmd =
  let n =
    Arg.(
      value
      & opt int 4
      & info [ "size"; "members" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per member per cell.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the lossy cell.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count for the sharded engine (contiguous member ranges, \
                 one event timeline per shard on the persistent domain pool).")
  in
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify that sweeps and traced chaos sweeps (verdicts, ledgers, \
                 transcripts, flight recorders) are identical at 2, 3, 7 and the \
                 requested shard count to 1 shard, streaming fingerprint \
                 shard-invariance, scheduler determinism, deferred delivery and \
                 the ra_sched_* metric families; non-zero exit on failure.")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Run fleet sweeps on the sharded event engine and compare shard counts")
    Term.(const run_sched $ n $ rounds $ loss $ shards $ selftest)

(* ---- serve ---- *)

let serve_sym_key = "K_attest_0123456789."

let serve_config ~rate =
  let vcfg =
    Verifier.Config.v ~sym_key:serve_sym_key
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

let run_serve devices rate horizon shards flood_factor bursty selftest =
  if devices < 1 || devices > 200_000 then begin
    Printf.eprintf "devices must be 1..200000\n";
    1
  end
  else if shards < 1 then begin
    Printf.eprintf "shards must be >= 1\n";
    1
  end
  else begin
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
    let engine = if shards = 1 then `Seq else `Shards shards in
    let base, _ = Server.Load.run ~engine cfg traffic in
    print_string (Server.Load.render base);
    let flood_traffic =
      if flood_factor <= 0.0 then None
      else begin
        let sources = max 1 (devices / 20) in
        let aggregate = flood_factor *. (float_of_int devices *. rate) in
        Some
          {
            traffic with
            Server.Load.tr_flood_sources = sources;
            tr_flood_rate = aggregate /. float_of_int sources;
          }
      end
    in
    let flood =
      Option.map
        (fun ft ->
          let r, _ = Server.Load.run ~engine cfg ft in
          print_string (Server.Load.render r);
          r)
        flood_traffic
    in
    List.iter
      (fun c -> Format.printf "%a@." Ra_obs.Slo.pp_check c)
      (Server.Load.slo_watch base);
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      (* batched and single-report verification agree verdict for verdict *)
      let image = cfg.Server.sc_verifier.Verifier.Config.reference_image in
      let keyed = Auth.keyed serve_sym_key in
      let resps =
        Array.init 16 (fun i ->
            let resp0 =
              {
                Message.echo_challenge = "";
                echo_freshness = Message.F_counter (Int64.of_int (i + 1));
                report = "";
              }
            in
            let report =
              if i mod 4 = 0 then String.make 20 '\xa5'
              else
                Auth.response_report_keyed ~keyed
                  ~body:(Message.response_body resp0)
                  ~memory_image:image
            in
            { resp0 with report })
      in
      let batch_verifier =
        match Verifier.of_config cfg.Server.sc_verifier with
        | Ok v -> v
        | Error m -> failwith m
      in
      let batched = Server.Batch.verify batch_verifier resps in
      check "batch verdicts = single verdicts"
        (Array.for_all2
           (fun b r ->
             b
             = Server.Batch.verify_one ~sym_key:serve_sym_key
                 ~reference_image:image r)
           batched resps);
      (* authenticated admission is deterministic across shard counts *)
      let det_traffic =
        {
          traffic with
          Server.Load.tr_devices = min devices 12;
          tr_horizon_s = Float.min horizon 6.0;
        }
      in
      let per_device outcomes =
        List.filter_map
          (fun o ->
            match o.Server.oc_device with
            | Some d -> Some (d, o.Server.oc_tag, o.Server.oc_result)
            | None -> None)
          outcomes
        |> List.sort compare
      in
      let _, seq =
        Server.Load.run ~engine:`Seq ~record_outcomes:true cfg det_traffic
      in
      let _, sharded =
        Server.Load.run ~engine:(`Shards (max 2 shards)) ~record_outcomes:true
          cfg det_traffic
      in
      check "Seq vs Shards admission determinism"
        (per_device seq = per_device sharded);
      (* flood: goodput holds and drops land on admission, not timeouts *)
      (match flood with
      | None -> check "flood run present (--flood > 0)" false
      | Some f ->
        check "goodput >= 90% of no-flood baseline"
          (float_of_int f.Server.Load.rp_trusted
          >= 0.9 *. float_of_int base.Server.Load.rp_trusted);
        let drops r =
          Option.value
            (List.assoc_opt r f.Server.Load.rp_breakdown)
            ~default:0
        in
        check "flood drops attributed to admission"
          (drops Verdict.Reason.Rate_limited + drops Verdict.Reason.Queue_full > 0);
        check "no verification timeouts under flood"
          (drops Verdict.Reason.Timed_out = 0));
      (* both sides of the wire expose the same rejection-reason labels *)
      let fleet = Fleet.create ~ram_size:4096 ~names:[ "serve-dev" ] () in
      Fleet.advance fleet ~seconds:10.0;
      ignore (Fleet.sweep fleet);
      let first = Fleet.member_session (List.hd (Fleet.members fleet)) in
      let svc = Session.service first in
      let scheme = Verifier.scheme (Session.verifier first) in
      let forged =
        Service.make_request ~sym_key:(String.make 20 'x') ~scheme
          ~freshness:(Message.F_counter 99L) Service.Ping
      in
      ignore (Service.handle_r svc forged);
      let exposition = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
      let has needle = Ra_net.Trace.contains_substring ~needle exposition in
      check "server rejections exposed under shared reason label"
        (has "ra_server_rejections_total{reason=\"rate_limited\"}");
      check "service rejections exposed under shared reason label"
        (has "ra_service_rejections_total{reason=\"bad_auth\"}");
      check "server verdict counter exposed"
        (has "ra_server_verdicts_total{verdict=\"trusted\"}");
      check "reason labels come from Verdict.Reason.label"
        (Verdict.Reason.label Verdict.Reason.Rate_limited = "rate_limited"
        && Verdict.Reason.label Verdict.Reason.Bad_auth = "bad_auth");
      (* the paper-model tables are untouched by the server layer *)
      check "Table 2 matrix unchanged"
        (Experiment.table2 () = Experiment.expected_table2);
      match !failures with
      | [] ->
        print_endline "serve selftest ok";
        0
      | fs ->
        List.iter
          (fun f -> Printf.eprintf "serve selftest FAILED: %s\n" f)
          (List.rev fs);
        1
    end
  end

let serve_cmd =
  let devices =
    Arg.(value & opt int 64 & info [ "devices" ] ~docv:"N"
           ~doc:"Registered report sources (known-class identities).")
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
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count (1 = sequential engine).")
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
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify batched-vs-single verdict agreement, Seq-vs-Shards \
                 admission determinism, flood goodput and drop attribution, \
                 shared rejection-reason labels across \
                 ra_service_/ra_server_rejections_total, and that the paper's \
                 Table 2 matrix is unchanged; non-zero exit on failure.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the verifier-as-a-service against open-loop fleet traffic")
    Term.(
      const run_serve $ devices $ rate $ horizon $ shards $ flood $ bursty
      $ selftest)

(* ---- profile ---- *)

let run_prof n rounds loss shards period out folded_out selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else if shards < 1 || shards > 64 then begin
    Printf.eprintf "shards must be 1..64\n";
    1
  end
  else if period < 1 then begin
    Printf.eprintf "period must be >= 1 cycles\n";
    1
  end
  else begin
    let module Profiler = Ra_obs.Profiler in
    (* --- in-ISA SHA-1 flame graph: PC-sample the interpreted anchor
       through one full attestation round --- *)
    let isa_flame ~period =
      let sym_key = "K_attest_0123456789." in
      let blob = Auth.prover_key_blob ~sym_key ~public:None in
      let device =
        Device.create ~ram_size:2048
          ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
          ~key:blob ()
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
      let attested =
        match Isa_anchor.handle_request anchor (Verifier.make_request verifier) with
        | Ok _ -> true
        | Error _ -> false
      in
      Ra_isa.Sampler.flush sampler;
      (pc, attested, Isa_anchor.last_mac_cycles anchor)
    in
    let symbolized_fraction pc =
      let total = Profiler.Pc.cycles pc in
      if Int64.equal total 0L then 0.0
      else
        Int64.to_float
          (Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
               not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x")))
        /. Int64.to_float total
    in
    (* --- fleet run: traced+profiled chaos rounds on the sharded engine,
       then one sharded sweep recording the queue-depth counter track --- *)
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet_profile () =
      let fleet = Fleet.create ~ram_size:4096 ~names () in
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
      (fleet, Profiler.Track.merge ~name:"ra_sched_queue_depth" (Array.to_list tracks))
    in
    let fleet, track = fleet_profile () in
    let prof = Fleet.profile ~shards fleet in
    let fleet_folded = Profiler.folded prof in
    let fleet_jsonl = Ra_obs.Export.profile_jsonl prof in
    let pc, isa_attested, mac_cycles = isa_flame ~period in
    (* fold the ISA stacks into the fleet profile so one folded file and
       one JSONL stream carry both views *)
    Profiler.Pc.absorb prof.Profiler.pc pc;
    let folded_text = Profiler.folded prof in
    let phases = Profiler.Phases.samples prof.Profiler.phases in
    let perfetto =
      Ra_obs.Export.perfetto_string ~counters:[ track ] ~phases
        (Fleet.recent_rounds fleet)
    in
    Printf.printf
      "in-ISA SHA-1 anchor: %Ld interpreted mac cycles, %d stacks, %.1f%% symbolized \
       (period %d cycles)\n"
      mac_cycles
      (List.length (Profiler.Pc.rows pc))
      (100.0 *. symbolized_fraction pc)
      period;
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
    (match folded_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc folded_text;
      close_out oc;
      Printf.printf "wrote %s (%d bytes) — feed it to flamegraph.pl\n" path
        (String.length folded_text));
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc perfetto;
      close_out oc;
      Printf.printf "wrote %s (%d bytes) — load it at ui.perfetto.dev or chrome://tracing\n"
        path (String.length perfetto));
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      (* --- the ISA flame graph is attested, exact and symbolized --- *)
      check "isa anchor attested under sampling" isa_attested;
      check "isa sampler attributed every interpreted cycle"
        (Int64.equal (Profiler.Pc.cycles pc) mac_cycles);
      check "isa flame graph >= 90% symbolized" (symbolized_fraction pc >= 0.9);
      (let pc2, _, _ = isa_flame ~period in
       check "isa flame graph deterministic across runs"
         (String.equal (Profiler.Pc.folded pc) (Profiler.Pc.folded pc2)));
      (* --- folded stacks parse as "stack cycles" lines --- *)
      let folded_wellformed text =
        String.split_on_char '\n' text
        |> List.filter (fun l -> l <> "")
        |> List.for_all (fun line ->
               match String.rindex_opt line ' ' with
               | None -> false
               | Some i ->
                 let count = String.sub line (i + 1) (String.length line - i - 1) in
                 i > 0
                 && (match Int64.of_string_opt count with
                    | Some c -> Int64.compare c 0L > 0
                    | None -> false))
      in
      check "folded stacks parse as 'stack cycles'"
        (folded_text <> "" && folded_wellformed folded_text);
      (* --- fleet profile merge is shard-invariant and deterministic --- *)
      let merged k =
        let p = Fleet.profile ~shards:k fleet in
        (Profiler.folded p, Ra_obs.Export.profile_jsonl p)
      in
      let base = merged 1 in
      check "fleet profile byte-identical at shard counts 1/2/4"
        (List.for_all (fun k -> merged k = base) [ 2; 4 ]);
      (let fleet2, _ = fleet_profile () in
       let p2 = Fleet.profile ~shards fleet2 in
       check "fleet profile deterministic across runs"
         (String.equal fleet_folded (Profiler.folded p2)
         && String.equal fleet_jsonl (Ra_obs.Export.profile_jsonl p2)));
      (* --- profile JSONL round-trips through the line parser --- *)
      check "profile JSONL parses"
        (match Ra_obs.Export.parse_jsonl fleet_jsonl with
        | Ok js -> js <> []
        | Error _ -> false);
      (* --- Perfetto export parses and carries counter + phase tracks --- *)
      (match Ra_obs.Json.of_string perfetto with
      | Error _ -> check "perfetto JSON parses" false
      | Ok j ->
        let evs =
          match Ra_obs.Json.member "traceEvents" j with
          | Some (Ra_obs.Json.Arr evs) -> evs
          | _ -> []
        in
        let has_ph p =
          List.exists
            (fun ev ->
              match Ra_obs.Json.member "ph" ev with
              | Some (Ra_obs.Json.Str s) -> s = p
              | _ -> false)
            evs
        in
        check "perfetto counter-track events present" (has_ph "C");
        check "perfetto phase instants present"
          (List.exists
             (fun ev ->
               match Ra_obs.Json.member "name" ev with
               | Some (Ra_obs.Json.Str s) ->
                 String.length s > 6 && String.sub s 0 6 = "phase."
               | _ -> false)
             evs));
      (* --- phase attribution covers the round anatomy --- *)
      let totals = Profiler.Phases.totals prof.Profiler.phases in
      check "phase totals include auth/freshness/mac/radio"
        (List.for_all
           (fun p -> List.mem_assoc p totals)
           [ "auth"; "freshness"; "mac"; "radio" ]);
      let retried =
        List.exists
          (fun r -> r.Ra_obs.Trace.rd_attempts > 1)
          (Fleet.recent_rounds fleet)
      in
      check "wait attributed on retried rounds"
        ((not retried) || List.mem_assoc "wait" totals);
      check "no phase samples dropped from the merged ring"
        (Profiler.Phases.dropped prof.Profiler.phases = 0);
      (* --- queue-depth track is non-empty and chronological --- *)
      let pts = Profiler.Track.points track in
      check "queue-depth track recorded" (pts <> []);
      check "queue-depth track chronological"
        (let rec mono = function
           | (a, _) :: ((b, _) :: _ as tl) -> a <= b && mono tl
           | _ -> true
         in
         mono pts);
      (* --- profiling never touches the wire: byte-identical transcripts --- *)
      let transcript_of profiled =
        let s = Session.create ~ram_size:4096 () in
        if profiled then ignore (Session.enable_profiling s);
        Session.advance_time s ~seconds:1.0;
        Session.set_impairment s
          (Some
             (Ra_net.Impairment.create
                ~to_prover:(Ra_net.Impairment.lossy 0.3)
                ~to_verifier:(Ra_net.Impairment.lossy 0.3)
                ~seed:42L ()));
        let r = Session.attest_round_r s in
        ( r.Session.r_verdict,
          r.Session.r_attempts,
          List.map
            (fun e -> e.Ra_net.Channel.payload)
            (Ra_net.Channel.transcript (Session.channel s)) )
      in
      check "transcripts byte-identical with profiling on/off"
        (transcript_of true = transcript_of false);
      (let grid_of profiled =
         let f = Fleet.create ~ram_size:4096 ~names () in
         if profiled then Fleet.enable_profiling f;
         Fleet.chaos_sweep ~seed:7L ~rounds_per_member:2 ~losses:[ loss ]
           ~policies:[ ("default", Retry.default) ]
           f
       in
       check "chaos grid identical with profiling on/off"
         (grid_of true = grid_of false));
      check "paper model unchanged" (Experiment.table2 () = Experiment.expected_table2);
      match !failures with
      | [] ->
        print_endline "profile selftest ok";
        0
      | fs ->
        List.iter
          (fun f -> Printf.eprintf "profile selftest FAILED: %s\n" f)
          (List.rev fs);
        1
    end
  end

let prof_cmd =
  let n =
    Arg.(
      value
      & opt int 4
      & info [ "size"; "members" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Profiled rounds per member.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the profiled chaos cell.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count for the sharded engine and the profile merge.")
  in
  let period =
    Arg.(value & opt int Ra_isa.Sampler.default_period
         & info [ "period" ] ~docv:"CYCLES"
             ~doc:"PC-sampling period in prover CPU cycles (deterministic; \
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
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify cycle-exact attribution, >= 90% symbolization, \
                 wire-neutrality, shard-invariant and run-deterministic \
                 profile merges, and the folded/JSONL/Perfetto exports; \
                 non-zero exit on failure.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"PC-sample the in-ISA anchor and attribute fleet cycles/energy to phases")
    Term.(const run_prof $ n $ rounds $ loss $ shards $ period $ out $ folded $ selftest)

(* ---- replay ---- *)

let run_replay n rounds loss seed diagnosis_out capsules_out perfetto_out selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if rounds < 1 then begin
    Printf.eprintf "rounds must be >= 1\n";
    1
  end
  else if not (loss > 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in (0, 1)\n";
    1
  end
  else begin
    let module Forensics = Ra_obs.Forensics in
    let names = List.init n (Printf.sprintf "device-%02d") in
    let losses = [ 0.0; loss ] in
    let policies = [ ("no-retry", Retry.no_retry); ("default", Retry.default) ] in
    (* one capturing fleet: forensics + tracing + profiling, then the
       failure-provoking sweep *)
    let make_fleet ~capture () =
      let fleet = Fleet.create ~ram_size:4096 ~names () in
      if capture then ignore (Fleet.enable_forensics fleet);
      Fleet.enable_tracing fleet;
      Fleet.enable_profiling fleet;
      fleet
    in
    let sweep ?engine fleet =
      Fleet.chaos_sweep ~seed ?engine ~rounds_per_member:rounds ~losses ~policies
        fleet
    in
    let fleet = make_fleet ~capture:true () in
    let (_ : Fleet.chaos_cell list) = sweep fleet in
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
          Some (c, rp))
    in
    let write path contents what =
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s (%d bytes) — %s\n" path (String.length contents) what
    in
    (match diagnosis_out with
    | None -> ()
    | Some path ->
      write path (Forensics.diagnosis_jsonl diags) "ranked diagnosis JSONL");
    (match capsules_out with
    | None -> ()
    | Some path -> write path (Forensics.capsules_jsonl caps) "replay capsules JSONL");
    (match perfetto_out with
    | None -> ()
    | Some path ->
      let rounds_tr, phases =
        match replayed with
        | Some (_, rp) ->
          ( (match rp.Fleet.rp_round with Some r -> [ r ] | None -> []),
            match rp.Fleet.rp_profile with
            | Some p -> Ra_obs.Profiler.Phases.samples p.Ra_obs.Profiler.phases
            | None -> [] )
        | None -> ([], [])
      in
      write path
        (Ra_obs.Export.perfetto_string ~counters:[] ~phases rounds_tr)
        "Perfetto trace of the replayed round");
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      (* --- capsules survive the JSON wire --- *)
      check "capsules captured" (caps <> []);
      check "failure capsules captured" (failures_caps <> []);
      check "capsule JSON round-trips"
        (List.for_all
           (fun c ->
             match
               Ra_obs.Json.of_string
                 (Ra_obs.Json.to_string (Forensics.capsule_to_json c))
             with
             | Ok j -> Forensics.capsule_of_json j = Some c
             | Error _ -> false)
           caps);
      (* --- the capsule stream is shard-count invariant --- *)
      let stream engine =
        let f = make_fleet ~capture:true () in
        let (_ : Fleet.chaos_cell list) = sweep ~engine f in
        Forensics.capsules_jsonl (Fleet.capsules f)
      in
      let base = Forensics.capsules_jsonl caps in
      check "capsule stream identical across shard counts"
        (List.for_all
           (fun k -> String.equal (stream (`Shards k)) base)
           [ 2; 3; 4 ]);
      (* --- every capsule replays byte-identically --- *)
      check "every capsule replays byte-identically"
        (List.for_all
           (fun c ->
             match Fleet.replay_capsule fleet c with
             | Ok rp -> rp.Fleet.rp_match
             | Error _ -> false)
           caps);
      check "replay carries a causal trace"
        (match replayed with
        | Some (_, rp) -> rp.Fleet.rp_round <> None
        | None -> true);
      (* --- triage accounts for every failure exactly once --- *)
      check "triage counts sum to the failure total"
        (List.fold_left (fun acc d -> acc + d.Forensics.dg_count) 0 diags
        = List.length failures_caps);
      check "triage is ranked by count"
        (let rec desc = function
           | a :: (b :: _ as tl) ->
             a.Forensics.dg_count >= b.Forensics.dg_count && desc tl
           | _ -> true
         in
         desc diags);
      (* --- SLO buckets carry trace-id exemplars --- *)
      check "exemplars stamped" (stamped > 0);
      check "prometheus buckets carry exemplars"
        (Ra_net.Trace.contains_substring ~needle:"# {trace_id="
           (Ra_obs.Export.render_prometheus Ra_obs.Registry.default));
      (* --- capture never touches the wire --- *)
      (let fingerprint capture =
         let f = make_fleet ~capture () in
         let (_ : Fleet.chaos_cell list) = sweep f in
         Fleet.fingerprint f
       in
       check "fleet fingerprint identical with capture on/off"
         (String.equal (fingerprint true) (fingerprint false)));
      check "paper model unchanged" (Experiment.table2 () = Experiment.expected_table2);
      match !failures with
      | [] ->
        print_endline "replay selftest ok";
        0
      | fs ->
        List.iter
          (fun f -> Printf.eprintf "replay selftest FAILED: %s\n" f)
          (List.rev fs);
        1
    end
  end

let replay_cmd =
  let n =
    Arg.(value & opt int 6 & info [ "size" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 4 & info [ "rounds" ] ~docv:"R"
           ~doc:"Rounds per member per chaos cell.")
  in
  let loss =
    Arg.(value & opt float 0.4 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the failure-provoking cells.")
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
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify capsule JSON round-trips, shard-count-invariant capsule \
                 streams, byte-identical replay of every capsule, ranked triage, \
                 bucket exemplars, and capture wire-neutrality; non-zero exit on \
                 failure.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Capture failure capsules from a chaos sweep, triage them, and replay \
             one round byte-for-byte")
    Term.(const run_replay $ n $ rounds $ loss $ seed $ diagnosis $ capsules
          $ perfetto $ selftest)

(* ---- session ---- *)

let run_session n rounds records loss seed selftest =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if rounds < 1 then begin
    Printf.eprintf "rounds must be >= 1\n";
    1
  end
  else if records < 0 then begin
    Printf.eprintf "records must be >= 0\n";
    1
  end
  else if not (loss > 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in (0, 1)\n";
    1
  end
  else begin
    let module SS = Secure_session in
    let module Channel = Ra_net.Channel in
    let names = List.init n (Printf.sprintf "device-%02d") in
    let losses = [ 0.0; loss ] in
    let policies = [ ("default", Retry.default) ] in
    let sweep ?engine ?(observe = false) () =
      let fleet = Fleet.create ~ram_size:4096 ~names () in
      if observe then begin
        ignore (Fleet.enable_forensics fleet);
        Fleet.enable_tracing fleet;
        Fleet.enable_profiling fleet
      end;
      let cells =
        Fleet.chaos_sweep ~seed ?engine ~rounds_per_member:rounds
          ~workload:(`Session records) ~losses ~policies fleet
      in
      (fleet, cells)
    in
    let _fleet, cells = sweep () in
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
    let single () =
      let s = Session.create ~ram_size:4096 () in
      Session.advance_time s ~seconds:1.0;
      let r = SS.run_r ~records s in
      (s, r)
    in
    let s1, r1 = single () in
    Printf.printf
      "\nsingle pristine session: %s, %d transmissions, %.3f s, %d wire frames\n"
      (Verdict.label r1.Session.r_verdict)
      r1.Session.r_attempts r1.Session.r_elapsed_s
      (Channel.transcript_length (Session.channel s1));
    if not selftest then 0
    else begin
      let failures = ref [] in
      let check name ok = if not ok then failures := name :: !failures in
      let payloads s =
        List.map
          (fun e -> e.Channel.payload)
          (Channel.transcript (Session.channel s))
      in
      (* --- deterministic transcripts under the fixed seed --- *)
      let s2, r2 = single () in
      check "single-session transcript deterministic" (payloads s1 = payloads s2);
      check "single-session verdict deterministic"
        (r1.Session.r_verdict = r2.Session.r_verdict
        && r1.Session.r_attempts = r2.Session.r_attempts);
      check "session verdict trusted" (r1.Session.r_verdict = Verdict.Trusted);
      (* --- every shard count produces a byte-identical fleet --- *)
      let fingerprint ?engine ?observe () =
        let f, cs = sweep ?engine ?observe () in
        (Fleet.fingerprint f, cs)
      in
      let fp_seq, cells_seq = fingerprint () in
      let fp_sh, cells_sh = fingerprint ~engine:(`Shards 2) () in
      check "shard counts byte-identical"
        (String.equal fp_seq fp_sh && cells_seq = cells_sh);
      (* --- tracing/profiling/forensics never touch the wire --- *)
      let fp_obs, _ = fingerprint ~observe:true () in
      check "observability wire-neutral" (String.equal fp_seq fp_obs);
      (* --- the lossy cell converges --- *)
      check
        (Printf.sprintf "convergence >= 99%% at %.0f%% loss" (100.0 *. loss))
        (List.exists
           (fun c -> c.Fleet.c_loss > 0.0 && Fleet.convergence_pct c >= 99.0)
           cells);
      (* --- adversary suite: every splice/replay/tamper rejects --- *)
      let fresh () =
        let s = Session.create ~ram_size:4096 () in
        Session.advance_time s ~seconds:1.0;
        s
      in
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
      let establish s =
        let r = SS.listen s in
        let i = SS.connect s in
        SS.handshake_send i;
        pump s;
        (r, i)
      in
      let new_frames s ~pos =
        List.map
          (fun e -> e.Channel.payload)
          (Channel.transcript_from (Session.channel s) ~pos)
      in
      (* MITM rewrites the handshake init: the transcript bind must die *)
      (let s = fresh () in
       let _r = SS.listen s in
       let i = SS.connect s in
       let pos = Channel.transcript_length (Session.channel s) in
       SS.handshake_send i;
       (match new_frames s ~pos with
       | [ init_frame ] ->
         ignore (Channel.drop_next (Session.channel s) ~src:Channel.Verifier_side);
         (match Message.wire_of_bytes init_frame with
         | Some (Message.Hs_init { hs_nonce; hs_req }) ->
           Channel.deliver (Session.channel s) ~dst:Channel.Prover_side
             (Message.wire_to_bytes
                (Message.Hs_init
                   { hs_nonce = String.map (fun _ -> 'x') hs_nonce; hs_req }))
         | _ -> check "mitm: init frame parses" false);
         ignore (Session.deliver_next_to_verifier s);
         check "mitm handshake substitution rejected"
           ((not (SS.established i))
           && (SS.initiator_stats i).SS.s_hs_rejected = 1)
       | _ -> check "mitm: one init flight" false));
      (* records sealed in one session must not open in another *)
      (let sa = fresh () and sb = fresh () in
       ignore (Verifier.session_nonce (Session.verifier sb));
       let _ra, ia = establish sa in
       let rb, _ib = establish sb in
       let pos = Channel.transcript_length (Session.channel sa) in
       ignore (SS.request_round ia);
       match new_frames sa ~pos with
       | [ record ] ->
         let before = Channel.transcript_length (Session.channel sb) in
         Session.deliver_frame_to_prover sb record;
         check "cross-session splice rejected"
           ((SS.responder_stats rb).SS.s_bad_record = 1
           && Channel.transcript_length (Session.channel sb) = before)
       | _ -> check "splice: one record flight" false);
      (* in-window replay and uniform tamper rejection *)
      (let s = fresh () in
       let r, i = establish s in
       let pos = Channel.transcript_length (Session.channel s) in
       ignore (SS.request_round i);
       match new_frames s ~pos with
       | [ record ] -> (
         pump s;
         Session.deliver_frame_to_prover s record;
         check "in-window replay rejected" ((SS.responder_stats r).SS.s_replayed = 1);
         let pos = Channel.transcript_length (Session.channel s) in
         ignore (SS.request_round i);
         match new_frames s ~pos with
         | [ legit ] ->
           ignore (Channel.drop_next (Session.channel s) ~src:Channel.Verifier_side);
           let flip b =
             String.mapi
               (fun k c -> if k = 0 then Char.chr (Char.code c lxor 1) else c)
               b
           in
           (match Message.wire_of_bytes legit with
           | Some (Message.Record rc) ->
             let silent forged =
               let before = Channel.transcript_length (Session.channel s) in
               Channel.deliver (Session.channel s) ~dst:Channel.Prover_side forged;
               Channel.transcript_length (Session.channel s) = before
             in
             check "tampered ciphertext rejected silently"
               (silent
                  (Message.wire_to_bytes
                     (Message.Record { rc with rec_ct = flip rc.rec_ct })));
             check "tampered tag rejected silently"
               (silent
                  (Message.wire_to_bytes
                     (Message.Record { rc with rec_tag = flip rc.rec_tag })));
             check "tamper rejects uniform (one counter, two hits)"
               ((SS.responder_stats r).SS.s_bad_record = 2)
           | _ -> check "tamper: record parses" false);
           let verdicts = SS.verdict_count i in
           Session.deliver_frame_to_prover s legit;
           pump s;
           check "legit record survives forgeries"
             (SS.verdict_count i = verdicts + 1
             && (SS.responder_stats r).SS.s_replayed = 1)
         | _ -> check "tamper: one record flight" false)
       | _ -> check "replay: one record flight" false);
      check "paper model unchanged" (Experiment.table2 () = Experiment.expected_table2);
      match !failures with
      | [] ->
        print_endline "session selftest ok";
        0
      | fs ->
        List.iter (fun f -> Printf.eprintf "session selftest FAILED: %s\n" f) (List.rev fs);
        1
    end
  end

let session_cmd =
  let n =
    Arg.(value & opt int 6 & info [ "size" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R"
           ~doc:"Session rounds per member per chaos cell.")
  in
  let records =
    Arg.(value & opt int 4 & info [ "records" ] ~docv:"K"
           ~doc:"Streaming attestation records per session.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the impaired cell.")
  in
  let seed =
    Arg.(value & opt int64 23L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos sweep root seed.")
  in
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Verify deterministic session transcripts, fleets identical \
                 across shard counts, observability wire-neutrality, >= 99% convergence \
                 under loss, and that MITM substitution, cross-session \
                 splices, replays and tampered records all reject; non-zero \
                 exit on failure.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Stream encrypted, replay-windowed attestation records over an \
             attested secure session")
    Term.(const run_session $ n $ rounds $ records $ loss $ seed $ selftest)

let main =
  Cmd.group
    (Cmd.info "ra_cli" ~version:"1.0.0"
       ~doc:"Prover-side remote attestation: protocol, attacks, and costs")
    [ attest_cmd; attack_cmd; table2_cmd; costs_cmd; auth_cost_cmd; fleet_cmd; lattice_cmd; inspect_cmd; stats_cmd; chaos_cmd; trace_cmd; sched_cmd; serve_cmd; prof_cmd; replay_cmd; session_cmd ]

let () = exit (Cmd.eval' main)

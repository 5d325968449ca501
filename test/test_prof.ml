(* The cycle-exact profiler: PC-sample accumulators and their folded
   export, the ISA sampler's call-stack reconstruction and exact cycle
   attribution, session phase attribution, the shard-invariant fleet
   merge, and the Perfetto counter-track export. *)
open Ra_core
module Profiler = Ra_obs.Profiler
module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region
module Ea_mpu = Ra_mcu.Ea_mpu
module Cpu = Ra_mcu.Cpu
module Device = Ra_mcu.Device
module Timing = Ra_mcu.Timing

(* --- Pc accumulator --- *)

let test_pc_folded_sorted_and_sanitized () =
  let pc = Profiler.Pc.create () in
  Profiler.Pc.add pc ~frames:[ "rom"; "b" ] ~cycles:10L;
  Profiler.Pc.add pc ~frames:[ "rom"; "a" ] ~cycles:1L;
  Profiler.Pc.add pc ~frames:[ "rom"; "b" ] ~cycles:5L;
  (* ';' and ' ' are structural in the folded format: hostile frame
     names must be sanitized, not emitted raw *)
  Profiler.Pc.add pc ~frames:[ "we;ird frame"; "\n"; "" ] ~cycles:2L;
  Alcotest.(check string) "sorted, merged, sanitized"
    "rom;a 1\nrom;b 15\nwe,ird_frame;?;? 2\n"
    (Profiler.Pc.folded pc);
  Alcotest.(check int) "samples" 4 (Profiler.Pc.samples pc);
  Alcotest.(check int64) "cycles" 18L (Profiler.Pc.cycles pc);
  Alcotest.(check int64) "leaf filter" 15L
    (Profiler.Pc.cycles_matching pc ~f:(fun leaf -> leaf = "b"))

let test_pc_absorb_grouping_invariant () =
  let stacks =
    [
      ([ "r"; "f" ], 3L); ([ "r"; "g" ], 7L); ([ "r"; "f" ], 2L);
      ([ "r"; "h"; "i" ], 11L); ([ "r"; "g" ], 1L); ([ "r" ], 4L);
    ]
  in
  let merged groups =
    let dst = Profiler.Pc.create () in
    List.iter
      (fun group ->
        let shard = Profiler.Pc.create () in
        List.iter
          (fun (frames, cycles) -> Profiler.Pc.add shard ~frames ~cycles)
          group;
        Profiler.Pc.absorb dst shard)
      groups;
    Profiler.Pc.folded dst
  in
  let base = merged [ stacks ] in
  let halves =
    merged [ List.filteri (fun i _ -> i < 3) stacks;
             List.filteri (fun i _ -> i >= 3) stacks ]
  in
  let singles = merged (List.map (fun s -> [ s ]) stacks) in
  Alcotest.(check string) "two shards = one" base halves;
  Alcotest.(check string) "one shard per sample = one" base singles

(* --- ISA sampler: call stacks, symbolization, exact attribution --- *)

let sampled_run ~period src =
  let memory =
    Memory.create
      [
        Region.make ~name:"app" ~base:0x0000 ~size:0x1000 ~kind:Region.Flash;
        Region.make ~name:"ram" ~base:0x4000 ~size:0x1000 ~kind:Region.Ram;
      ]
  in
  let program =
    match Ra_isa.Asm.assemble ~origin:0x0000 src with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ra_isa.Asm.pp_error e
  in
  Ra_isa.Asm.load memory program;
  Memory.seal_rom memory;
  let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
  let pc = Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~period ~memory pc in
  Ra_isa.Sampler.add_program sampler program;
  let core = Ra_isa.Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  Ra_isa.Sampler.attach sampler core;
  let state, _ = Ra_isa.Core.run core in
  Ra_isa.Sampler.flush sampler;
  Alcotest.(check bool) "halted" true (state = Ra_isa.Core.Halted);
  (pc, Cpu.work_cycles cpu)

let nested_src =
  {|
  start:
    mov r1, #7
    call outer
    halt
  outer:
    add r1, #1
    call inner
    ret
  inner:
    add r1, r1
    ret
  |}

let test_sampler_symbolized_stacks () =
  let pc, _ = sampled_run ~period:1 nested_src in
  let keys =
    List.map
      (fun (frames, _, _) -> String.concat ";" frames)
      (Profiler.Pc.rows pc)
  in
  Alcotest.(check bool) "top level under region root" true
    (List.mem "app;start" keys);
  Alcotest.(check bool) "call pushes a frame" true
    (List.exists
       (fun k -> k = "app;outer;outer" || k = "app;outer;inner;inner") keys);
  Alcotest.(check bool) "nested call keeps the caller" true
    (List.mem "app;outer;inner;inner" keys);
  Alcotest.(check bool) "everything symbolized" true
    (List.for_all
       (fun k -> not (Ra_net.Trace.contains_substring ~needle:"0x" k))
       keys)

let test_sampler_attribution_exact () =
  (* whatever the period, flush makes attributed cycles equal executed
     cycles exactly — nothing lost to rounding *)
  List.iter
    (fun period ->
      let pc, executed = sampled_run ~period nested_src in
      Alcotest.(check int64)
        (Printf.sprintf "period %d conserves cycles" period)
        executed (Profiler.Pc.cycles pc))
    [ 1; 3; 64; 10_000 ]

let test_sampler_deterministic () =
  let folded () =
    let pc, _ = sampled_run ~period:4 nested_src in
    Profiler.Pc.folded pc
  in
  Alcotest.(check string) "same folded across runs" (folded ()) (folded ())

let test_isa_sha1_flame () =
  let memory =
    Memory.create
      [
        Region.make ~name:"rom_attest" ~base:0x1000 ~size:8192 ~kind:Region.Rom;
        Region.make ~name:"ram" ~base:0x10000 ~size:4096 ~kind:Region.Ram;
      ]
  in
  let sha = Ra_isa.Sha1_asm.install memory ~origin:0x1000 ~scratch_addr:0x10000 in
  Memory.seal_rom memory;
  let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
  let pc = Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~memory pc in
  Ra_isa.Sha1_asm.set_sampler sha (Some sampler);
  let digest = Ra_isa.Sha1_asm.digest sha cpu "abc" in
  Ra_isa.Sampler.flush sampler;
  Alcotest.(check string) "digest still correct under sampling"
    (Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha1.digest "abc"))
    (Ra_crypto.Hexutil.to_hex digest);
  Alcotest.(check int64) "all interpreted cycles attributed"
    (Ra_isa.Sha1_asm.last_run_cycles sha)
    (Profiler.Pc.cycles pc);
  let total = Int64.to_float (Profiler.Pc.cycles pc) in
  let symbolized =
    Int64.to_float
      (Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
           not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x")))
  in
  Alcotest.(check bool) ">= 90% of cycles symbolized" true
    (symbolized /. total >= 0.9);
  Alcotest.(check bool) "stacks root at the ROM region" true
    (List.for_all
       (fun (frames, _, _) -> List.hd frames = "rom_attest")
       (Profiler.Pc.rows pc))

(* --- session phase attribution --- *)

let test_session_phases_and_trace_ids () =
  let s = Session.create ~ram_size:2048 () in
  ignore (Session.enable_tracing s);
  let p = Session.enable_profiling s in
  Session.advance_time s ~seconds:1.0;
  let r = Session.attest_round_r s in
  Alcotest.(check bool) "round converged" true (r.Session.r_verdict = Verdict.Trusted);
  let totals = Profiler.Phases.totals p.Profiler.phases in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " attributed") true
        (List.mem_assoc phase totals))
    [ "auth"; "freshness"; "mac"; "radio" ];
  let mac_cycles, mac_nj, _ = List.assoc "mac" totals in
  Alcotest.(check bool) "mac cycles positive" true (Int64.compare mac_cycles 0L > 0);
  Alcotest.(check bool) "mac energy positive" true (mac_nj > 0.0);
  let samples = Profiler.Phases.samples p.Profiler.phases in
  Alcotest.(check bool) "samples tagged with the device" true
    (List.for_all (fun ps -> ps.Profiler.ps_device = "prover") samples);
  Alcotest.(check bool) "samples carry the round's trace id" true
    (samples <> []
    && List.for_all (fun ps -> ps.Profiler.ps_trace_id <> None) samples)

(* satellite: ring wraparound with tracing and profiling co-enabled *)
let test_phase_ring_wraparound () =
  let s = Session.create ~ram_size:2048 () in
  ignore (Session.enable_tracing s);
  let p = Session.enable_profiling ~capacity:3 s in
  for _ = 1 to 3 do
    Session.advance_time s ~seconds:1.0;
    ignore (Session.attest_round_r s)
  done;
  Alcotest.(check int) "ring holds exactly its capacity" 3
    (Profiler.Phases.length p.Profiler.phases);
  Alcotest.(check bool) "older samples evicted" true
    (Profiler.Phases.dropped p.Profiler.phases > 0);
  (* totals keep counting past the wraparound: one auth per round *)
  let _, _, auth_n = List.assoc "auth" (Profiler.Phases.totals p.Profiler.phases) in
  Alcotest.(check int) "totals unaffected by eviction" 3 auth_n;
  (* the survivors are the newest samples, oldest first *)
  let at = List.map (fun ps -> ps.Profiler.ps_at) (Profiler.Phases.samples p.Profiler.phases) in
  Alcotest.(check bool) "survivors chronological" true
    (List.sort compare at = at)

(* --- fleet profile: byte-identical at every sweep shard count --- *)

let test_fleet_profile_shard_invariant () =
  let names = List.init 5 (Printf.sprintf "dev-%d") in
  let profiled k =
    let fleet = Fleet.create ~ram_size:2048 ~names () in
    Fleet.enable_tracing fleet;
    Fleet.enable_profiling fleet;
    Fleet.advance fleet ~seconds:1.0;
    let tracks = Array.init k (fun _ -> Profiler.Track.create "depth") in
    ignore (Fleet.sweep ~engine:(`Shards k) ~tracks fleet);
    (fleet, tracks.(0))
  in
  let export k =
    let p = Fleet.profile (fst (profiled k)) in
    (Profiler.folded p, Profiler.Phases.samples p.Profiler.phases)
  in
  let fleet, depth = profiled 1 in
  let base = export 1 in
  Alcotest.(check bool) "deterministic across runs" true (export 1 = base);
  let at = List.map fst (Profiler.Track.points depth) in
  Alcotest.(check bool) "queue-depth track recorded, chronological" true
    (at <> [] && List.sort compare at = at);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%d shards byte-identical to 1" k)
        true
        (export k = base))
    [ 2; 3; 5 ];
  let p = Fleet.profile fleet in
  Alcotest.(check int) "no phase samples dropped by the merge" 0
    (Profiler.Phases.dropped p.Profiler.phases);
  let devices =
    List.sort_uniq compare
      (List.map
         (fun ps -> ps.Profiler.ps_device)
         (Profiler.Phases.samples p.Profiler.phases))
  in
  Alcotest.(check (list string)) "every member contributed" (List.sort compare names)
    devices

(* --- counter tracks and their Perfetto export (satellite) --- *)

let test_track_merge_grouping_invariant () =
  let mk points =
    let t = Profiler.Track.create "depth" in
    List.iter (fun (at, v) -> Profiler.Track.push t ~at v) points;
    t
  in
  let a = mk [ (0.0, 1.0); (1.0, 3.0) ] in
  let b = mk [ (0.5, 2.0); (1.0, 4.0) ] in
  let direct = Profiler.Track.merge ~name:"depth" [ a; b ] in
  let nested =
    Profiler.Track.merge ~name:"depth"
      [ Profiler.Track.merge ~name:"x" [ a ]; Profiler.Track.merge ~name:"y" [ b ] ]
  in
  Alcotest.(check bool) "chronological with stable ties" true
    (Profiler.Track.points direct
    = [ (0.0, 1.0); (0.5, 2.0); (1.0, 3.0); (1.0, 4.0) ]);
  Alcotest.(check bool) "grouping-invariant" true
    (Profiler.Track.points direct = Profiler.Track.points nested)

let test_perfetto_counter_track () =
  let track = Profiler.Track.create "ra_sched_queue_depth" in
  Profiler.Track.push track ~at:0.0 1.0;
  Profiler.Track.push track ~at:0.5 2.0;
  let phase =
    {
      Profiler.ps_at = 0.25;
      ps_trace_id = Some 1;
      ps_device = "dev";
      ps_phase = "mac";
      ps_cycles = 10L;
      ps_nj = 5.0;
    }
  in
  let j = Ra_obs.Export.perfetto ~counters:[ track ] ~phases:[ phase ] [] in
  let evs =
    match Ra_obs.Json.member "traceEvents" j with
    | Some (Ra_obs.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let counters =
    List.filter
      (fun ev -> Ra_obs.Json.member "ph" ev = Some (Ra_obs.Json.Str "C"))
      evs
  in
  Alcotest.(check int) "one C event per point" 2 (List.length counters);
  Alcotest.(check bool) "counter events on pid 0 with us timestamps" true
    (List.for_all
       (fun ev ->
         Ra_obs.Json.member "pid" ev = Some (Ra_obs.Json.Num 0.0)
         && Ra_obs.Json.member "name" ev
            = Some (Ra_obs.Json.Str "ra_sched_queue_depth"))
       counters);
  Alcotest.(check bool) "values ride in args.value" true
    (List.map
       (fun ev ->
         Option.bind (Ra_obs.Json.member "args" ev) (Ra_obs.Json.member "value"))
       counters
    = [ Some (Ra_obs.Json.Num 1.0); Some (Ra_obs.Json.Num 2.0) ]);
  Alcotest.(check bool) "phase sample exported as a phase instant" true
    (List.exists
       (fun ev -> Ra_obs.Json.member "name" ev = Some (Ra_obs.Json.Str "phase.mac"))
       evs);
  Alcotest.(check bool) "counters process is named" true
    (List.exists
       (fun ev ->
         Ra_obs.Json.member "ph" ev = Some (Ra_obs.Json.Str "M")
         && Ra_obs.Json.member "pid" ev = Some (Ra_obs.Json.Num 0.0))
       evs)

let tests =
  [
    Alcotest.test_case "pc folded sorted+sanitized" `Quick
      test_pc_folded_sorted_and_sanitized;
    Alcotest.test_case "pc absorb grouping-invariant" `Quick
      test_pc_absorb_grouping_invariant;
    Alcotest.test_case "sampler symbolized stacks" `Quick
      test_sampler_symbolized_stacks;
    Alcotest.test_case "sampler attribution exact" `Quick
      test_sampler_attribution_exact;
    Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
    Alcotest.test_case "in-ISA sha1 flame graph" `Quick test_isa_sha1_flame;
    Alcotest.test_case "session phases + trace ids" `Quick
      test_session_phases_and_trace_ids;
    Alcotest.test_case "phase ring wraparound" `Quick test_phase_ring_wraparound;
    Alcotest.test_case "fleet profile shard-invariant" `Quick
      test_fleet_profile_shard_invariant;
    Alcotest.test_case "track merge grouping-invariant" `Quick
      test_track_merge_grouping_invariant;
    Alcotest.test_case "perfetto counter track" `Quick test_perfetto_counter_track;
  ]

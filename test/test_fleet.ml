open Ra_core
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu

let make () = Fleet.create ~ram_size:2048 ~names:[ "a"; "b"; "c" ] ()

let test_creation () =
  let fleet = make () in
  Alcotest.(check int) "three members" 3 (List.length (Fleet.members fleet));
  Alcotest.(check bool) "unknown before sweep" true
    (Fleet.member_health (Fleet.find fleet "a") = Fleet.Unknown);
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Fleet.create: duplicate member name") (fun () ->
      ignore (Fleet.create ~names:[ "x"; "x" ] ()));
  Alcotest.check_raises "empty rejected" (Invalid_argument "Fleet.create: no members")
    (fun () -> ignore (Fleet.create ~names:[] ()))

let test_sweep_all_healthy () =
  let fleet = make () in
  Fleet.advance fleet ~seconds:1.0;
  let results = Fleet.sweep fleet in
  Alcotest.(check int) "all swept" 3 (List.length results);
  List.iter
    (fun (name, verdict) ->
      Alcotest.(check bool) (name ^ " trusted") true (verdict = Some Verdict.Trusted))
    results;
  Alcotest.(check (list string)) "none compromised" [] (Fleet.compromised fleet)

let test_infection_flagged () =
  let fleet = make () in
  Fleet.advance fleet ~seconds:1.0;
  let victim = Fleet.find fleet "b" in
  let device = Session.device (Fleet.member_session victim) in
  Cpu.store_bytes (Device.cpu device) (Device.attested_base device) "IMPLANT";
  let _ = Fleet.sweep fleet in
  Alcotest.(check (list string)) "victim flagged" [ "b" ] (Fleet.compromised fleet);
  Alcotest.(check bool) "others healthy" true
    (Fleet.member_health (Fleet.find fleet "a") = Fleet.Healthy)

let test_health_recovers () =
  let fleet = make () in
  Fleet.advance fleet ~seconds:1.0;
  let victim = Fleet.find fleet "c" in
  let device = Session.device (Fleet.member_session victim) in
  let original =
    Ra_mcu.Memory.read_bytes (Device.memory device) (Device.attested_base device) 7
  in
  Cpu.store_bytes (Device.cpu device) (Device.attested_base device) "IMPLANT";
  let _ = Fleet.sweep fleet in
  Alcotest.(check bool) "flagged" true (Fleet.member_health victim = Fleet.Compromised);
  (* remediation restores the image; the next sweep clears the flag *)
  Cpu.store_bytes (Device.cpu device) (Device.attested_base device) original;
  Fleet.advance fleet ~seconds:1.0;
  let _ = Fleet.sweep fleet in
  Alcotest.(check bool) "healthy again" true (Fleet.member_health victim = Fleet.Healthy);
  Alcotest.(check int) "two sweeps recorded" 2 (Fleet.sweeps_of victim)

let test_sweeps_are_staggered () =
  let fleet = make () in
  let t0 =
    Ra_net.Simtime.now (Session.time (Fleet.member_session (Fleet.find fleet "a")))
  in
  let _ = Fleet.sweep fleet in
  let t1 =
    Ra_net.Simtime.now (Session.time (Fleet.member_session (Fleet.find fleet "a")))
  in
  (* all members' clocks advanced by the whole sweep's stagger *)
  Alcotest.(check bool) "time advanced across the sweep" true
    (t1 -. t0 >= 3.0 *. Fleet.stagger_seconds -. 1e-6)

let test_summary_shape () =
  let fleet = make () in
  Fleet.advance fleet ~seconds:1.0;
  let _ = Fleet.sweep fleet in
  List.iter
    (fun (name, health, sweeps) ->
      Alcotest.(check bool) (name ^ " healthy") true (health = Fleet.Healthy);
      Alcotest.(check int) (name ^ " one sweep") 1 sweeps)
    (Fleet.summary fleet)

let test_shards_flag_infection () =
  let fleet = make () in
  Fleet.advance fleet ~seconds:1.0;
  let victim = Fleet.find fleet "b" in
  let device = Session.device (Fleet.member_session victim) in
  Cpu.store_bytes (Device.cpu device) (Device.attested_base device) "IMPLANT";
  let results = Fleet.sweep ~engine:(`Shards 2) fleet in
  Alcotest.(check (list string)) "victim flagged" [ "b" ] (Fleet.compromised fleet);
  Alcotest.(check bool) "verdict present for all members" true
    (List.for_all (fun (_, v) -> v <> None) results)

let test_repeated_sweeps_match_oracle () =
  (* repeated sharded sweeps stay in lockstep with the sequential oracle *)
  let names = [ "a"; "b"; "c" ] in
  let fleet = make () and oracle = Fleet_oracle.create ~ram_size:2048 ~names () in
  Fleet.advance fleet ~seconds:1.0;
  Fleet_oracle.advance oracle ~seconds:1.0;
  for _ = 1 to 3 do
    let a = Fleet.sweep ~engine:(`Shards 2) fleet and b = Fleet_oracle.sweep oracle in
    Alcotest.(check bool) "sweep round matches" true (a = b)
  done;
  Alcotest.(check bool) "ledgers, clocks and transcripts still in lockstep" true
    (Fleet_oracle.fleet_state fleet = Fleet_oracle.state oracle)

let test_pool_reuse () =
  let pool = Pool.create () in
  let total = Atomic.make 0 in
  for _ = 1 to 5 do
    Pool.run pool ~helpers:2 (fun () -> Atomic.incr total)
  done;
  (* caller + 2 helpers, five batches *)
  Alcotest.(check int) "every participant ran every batch" 15 (Atomic.get total);
  Alcotest.(check int) "helpers spawned once and kept" 2 (Pool.size pool);
  Pool.shutdown pool;
  Alcotest.(check int) "helpers joined" 0 (Pool.size pool);
  (* a pool is reusable after shutdown *)
  Pool.run pool ~helpers:1 (fun () -> Atomic.incr total);
  Alcotest.(check int) "post-shutdown batch ran" 17 (Atomic.get total);
  Pool.shutdown pool

let test_pool_propagates_exception () =
  let pool = Pool.create () in
  let boom = Failure "boom" in
  Alcotest.check_raises "worker exception re-raised on caller" boom (fun () ->
      Pool.run pool ~helpers:2 (fun () -> raise boom));
  (* the failed batch must not wedge the pool *)
  let ok = Atomic.make 0 in
  Pool.run pool ~helpers:2 (fun () -> Atomic.incr ok);
  Alcotest.(check int) "pool usable after a failed batch" 3 (Atomic.get ok);
  Pool.shutdown pool

let test_stream_matches_materialised () =
  (* the streaming sweep must reproduce a materialised fleet's
     fingerprint: same specs, same names, same staggered operations *)
  let members = 5 in
  let names = List.init members (fun i -> Printf.sprintf "dev-%07d" i) in
  let fleet = Fleet.create ~ram_size:2048 ~names () in
  let (_ : (string * Verdict.t option) list) = Fleet.sweep fleet in
  let report = Fleet.stream_sweep ~ram_size:2048 ~members () in
  Alcotest.(check string)
    "stream fingerprint = materialised fingerprint" (Fleet.fingerprint fleet)
    report.Fleet.st_fingerprint;
  Alcotest.(check int) "all healthy" members report.Fleet.st_healthy

let test_stream_shard_invariant () =
  let oracle = Fleet.stream_sweep ~ram_size:2048 ~members:7 () in
  List.iter
    (fun shards ->
      let r = Fleet.stream_sweep ~ram_size:2048 ~shards ~members:7 () in
      Alcotest.(check string)
        (Printf.sprintf "fingerprint invariant at %d shards" shards)
        oracle.Fleet.st_fingerprint r.Fleet.st_fingerprint;
      Alcotest.(check int)
        (Printf.sprintf "healthy tally invariant at %d shards" shards)
        oracle.Fleet.st_healthy r.Fleet.st_healthy)
    [ 2; 3; 4 ]

(* A materialised member's host heap: its session, device and page
   tables. Every page its genesis wrote (app image, RAM fill, key,
   interrupt register) is the one copy the fleet shares, and the blank
   rest of the memory map is the zero page; the verifier and the prover's
   handlers share one HMAC key context. Owning those pages, a member held
   13,297 B, and with a key context of its own 8,224 B. *)
let test_member_footprint () =
  let fleet = Fleet.create ~ram_size:1024 ~names:(List.init 100 (Printf.sprintf "m%03d")) () in
  let bytes = Obj.reachable_words (Obj.repr fleet) * (Sys.word_size / 8) / 100 in
  if bytes > 7_936 then Alcotest.failf "member holds %d bytes (> 7.75 KiB)" bytes

(* Members share their genesis pages, so malware written into one
   member's RAM must land in a private copy: a two-shard sweep flags that
   member alone, and every other member still holds its genesis bytes. *)
let test_implant_stays_private () =
  let names = List.init 6 (Printf.sprintf "m%d") in
  let fleet = Fleet.create ~ram_size:1024 ~names () in
  Fleet.advance fleet ~seconds:1.0;
  let attested name =
    let device = Session.device (Fleet.member_session (Fleet.find fleet name)) in
    List.map
      (fun (base, len) -> Ra_mcu.Memory.read_bytes (Device.memory device) base len)
      (Device.attested_ranges device)
  in
  let genesis = List.map attested names in
  let victim = Session.device (Fleet.member_session (Fleet.find fleet "m3")) in
  Cpu.store_bytes (Device.cpu victim) (Device.attested_base victim + 100) "IMPLANT";
  let (_ : (string * Verdict.t option) list) = Fleet.sweep ~engine:(`Shards 2) fleet in
  Alcotest.(check (list string)) "victim alone flagged" [ "m3" ] (Fleet.compromised fleet);
  List.iter2
    (fun name before ->
      if name <> "m3" then
        Alcotest.(check bool) (name ^ " attested bytes unchanged") true (attested name = before))
    names genesis;
  Alcotest.(check bool) "victim holds the implant" true (attested "m3" <> List.nth genesis 3)

(* A member's world built after warm-up: its DRBG instantiation, key
   context, boot measurement and RAM image come from the domain's memos,
   so building it allocates only the world itself. Recomputing them cost
   1,942 minor words. *)
let test_member_construction_allocation () =
  let bound = 1750. and builds = 50 in
  let build () = ignore (Sys.opaque_identity (Session.create ~ram_size:1024 ())) in
  for _ = 1 to 3 do
    build ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to builds do
    build ()
  done;
  let per_build = (Gc.minor_words () -. before) /. float_of_int builds in
  if per_build >= bound then
    Alcotest.failf "building a member allocates %.0f minor words (bound %.0f)" per_build bound

(* ECDSA seeds hold the private key and never recur, so they stay out of
   the DRBG memo: four signatures on a domain must not evict the
   verifier's challenge stream that the next world instantiates. When
   they went through the memo, that build allocated 1,758 words. *)
let test_member_construction_after_ecdsa () =
  let bound = 1750. in
  let build () = ignore (Sys.opaque_identity (Session.create ~ram_size:1024 ())) in
  build ();
  let secret = Ra_crypto.Bignum.of_int 0x5eed in
  List.iter
    (fun msg -> ignore (Ra_crypto.Ecdsa.sign Ra_crypto.Ec.secp160r1 ~secret msg))
    [ "m0"; "m1"; "m2"; "m3" ];
  let before = Gc.minor_words () in
  build ();
  let words = Gc.minor_words () -. before in
  if words >= bound then
    Alcotest.failf "building a member after four signatures allocates %.0f minor words (bound %.0f)"
      words bound

(* The heap a member keeps for itself: live words after a full major
   collection, per member of a 200-member fleet, after one warm-up world
   has filled this domain's memos. A member shares its verifier's
   reference image with the RAM-fill memo, keeps no DRBG working context
   or pad block, and holds the page tables and region records of its
   genesis only by reference: its memory is one 12-slot array of the
   pool's records. Owning them, a member held 7,200 B; with full SHA-256
   contexts for its DRBG midstates, 4,315 B; with a record and a list
   cell of its own per region, 3,834 B. The case keeps the name it got
   at a 4,608 B bound. *)
let test_member_unique_heap () =
  let members = 200 in
  ignore (Sys.opaque_identity (Session.create ~ram_size:1024 ()));
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let fleet =
    Fleet.create ~ram_size:1024 ~names:(List.init members (Printf.sprintf "m%03d")) ()
  in
  let bytes = (live () - before) * (Sys.word_size / 8) / members in
  ignore (Sys.opaque_identity fleet);
  if bytes > 3_584 then Alcotest.failf "a member holds %d B of its own (> 3,584 B)" bytes

(* What a member keeps per chaos sweep at 20% loss: its wire frames,
   which the transcript keeps whole, plus at most 40 B per frame (the
   payload string's header and padding, its column slots and their
   growth slack) and 16 B per verdict and per ledger entry (a float and
   a value slot).
   The growth is the mean live-word delta per member and sweep over
   sweeps 2-5, after a full major collection; sweep 1 pays for the
   columns' first slots and the member's first NVRAM write. Kept as
   records, lists and boxed floats, a member grew about 500 B a sweep
   against a budget of about 320 B. *)
let test_member_sweep_growth () =
  let members = 200 and sweeps = 5 in
  let fleet =
    Fleet.create ~ram_size:1024 ~names:(List.init members (Printf.sprintf "m%03d")) ()
  in
  Fleet.advance fleet ~seconds:1.0;
  let sweep i =
    ignore
      (Fleet.chaos_sweep ~seed:(Int64.of_int i) ~rounds_per_member:1 ~losses:[ 0.2 ]
         ~policies:[ ("default", Retry.default) ]
         fleet)
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* frames, frame bytes and log entries over all members *)
  let kept () =
    List.fold_left
      (fun (frames, bytes, entries) m ->
        let s = Fleet.member_session m in
        let wire = Ra_net.Channel.transcript (Session.channel s) in
        ( frames + List.length wire,
          List.fold_left
            (fun acc e -> acc + String.length e.Ra_net.Channel.payload)
            bytes wire,
          entries + List.length (Session.verdicts s) + Fleet.sweeps_of m ))
      (0, 0, 0) (Fleet.members fleet)
  in
  sweep 1;
  let frames0, bytes0, entries0 = kept () in
  let before = live () in
  for i = 2 to sweeps do
    sweep i
  done;
  let after = live () in
  let frames1, bytes1, entries1 = kept () in
  let per_sweep n = float_of_int n /. float_of_int (members * (sweeps - 1)) in
  let growth = per_sweep ((after - before) * (Sys.word_size / 8)) in
  let budget =
    per_sweep ((bytes1 - bytes0) + (40 * (frames1 - frames0)) + (16 * (entries1 - entries0)))
  in
  if growth > budget then
    Alcotest.failf "a member grows %.0f B per sweep (budget %.0f B for %.2f frames of %.0f B)"
      growth budget (per_sweep (frames1 - frames0)) (per_sweep (bytes1 - bytes0))

let tests =
  [
    Alcotest.test_case "creation" `Quick test_creation;
    Alcotest.test_case "sweep all healthy" `Quick test_sweep_all_healthy;
    Alcotest.test_case "infection flagged" `Quick test_infection_flagged;
    Alcotest.test_case "health recovers after remediation" `Quick test_health_recovers;
    Alcotest.test_case "sweeps staggered" `Quick test_sweeps_are_staggered;
    Alcotest.test_case "summary" `Quick test_summary_shape;
    (* the parallel sweep, now the engine at two shards *)
    Alcotest.test_case "sweep_par flags infection" `Quick test_shards_flag_infection;
    Alcotest.test_case "repeated sweeps = oracle" `Quick test_repeated_sweeps_match_oracle;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_propagates_exception;
    Alcotest.test_case "stream = materialised fingerprint" `Quick
      test_stream_matches_materialised;
    Alcotest.test_case "stream shard-count invariant" `Quick test_stream_shard_invariant;
    Alcotest.test_case "member host footprint" `Quick test_member_footprint;
    Alcotest.test_case "implant in a shared page stays private" `Quick
      test_implant_stays_private;
    Alcotest.test_case "member construction allocates < 1,750 minor words" `Quick
      test_member_construction_allocation;
    Alcotest.test_case
      "member construction after four ECDSA instantiations allocates < 1,750 minor words"
      `Quick test_member_construction_after_ecdsa;
    Alcotest.test_case "a member holds <= 4,608 B of its own after create" `Quick
      test_member_unique_heap;
    Alcotest.test_case "a member grows per sweep by its frames and a fixed cost per entry"
      `Quick test_member_sweep_growth;
  ]

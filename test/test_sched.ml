open Ra_core
module Simtime = Ra_net.Simtime
module Trace = Ra_net.Trace
module Channel = Ra_net.Channel
module Impairment = Ra_net.Impairment

(* ---- event queue ------------------------------------------------------ *)

let test_heap_order_and_ties () =
  let sched = Sched.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  Sched.at sched ~at:5.0 (ev "a5");
  Sched.at sched ~at:1.0 (ev "b1");
  Sched.at sched ~at:5.0 (ev "c5");
  Sched.at sched ~at:3.0 (ev "d3");
  Alcotest.(check int) "four pending" 4 (Sched.pending sched);
  Alcotest.(check bool) "earliest is 1.0" true (Sched.next_at sched = Some 1.0);
  let fired = Sched.run sched in
  Alcotest.(check int) "all fired" 4 fired;
  Alcotest.(check (list string)) "time order, insertion order on ties"
    [ "b1"; "d3"; "a5"; "c5" ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 5.0 (Sched.now sched);
  Alcotest.(check int) "fired counter" 4 (Sched.fired sched);
  Alcotest.(check int) "queue drained" 0 (Sched.pending sched)

let test_past_events_clamp_to_now () =
  let sched = Sched.create () in
  let seen = ref [] in
  Sched.at sched ~at:2.0 (fun () ->
      (* "due" one second ago: must fire at now, never rewind the clock *)
      Sched.at sched ~at:1.0 (fun () -> seen := Sched.now sched :: !seen));
  let fired = Sched.run sched in
  Alcotest.(check int) "both fired" 2 fired;
  Alcotest.(check (list (float 0.0))) "clamped to now" [ 2.0 ] !seen

let test_run_until_horizon () =
  let sched = Sched.create () in
  let log = ref [] in
  List.iter (fun at -> Sched.at sched ~at (fun () -> log := at :: !log)) [ 1.0; 2.0; 10.0 ];
  let fired = Sched.run ~until:5.0 sched in
  Alcotest.(check int) "two within horizon" 2 fired;
  Alcotest.(check int) "one beyond it still pending" 1 (Sched.pending sched);
  Alcotest.(check (float 0.0)) "clock at last fired event" 2.0 (Sched.now sched);
  let rest = Sched.run sched in
  Alcotest.(check int) "rest fired" 1 rest;
  Alcotest.(check (float 0.0)) "clock caught up" 10.0 (Sched.now sched)

let test_after_negative_rejected () =
  let sched = Sched.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sched.after: delay must be >= 0") (fun () ->
      Sched.after sched ~delay:(-1.0) (fun () -> ()))

let test_determinism_across_runs () =
  let run () =
    let sched = Sched.create () in
    let log = ref [] in
    let rec chain i at =
      if i < 20 then
        Sched.at sched ~at (fun () ->
            log := (i, Sched.now sched) :: !log;
            chain (i + 1) (at +. (0.1 *. float_of_int (i mod 3))))
    in
    chain 0 0.5;
    Sched.at sched ~at:0.5 (fun () -> log := (100, Sched.now sched) :: !log);
    ignore (Sched.run sched);
    List.rev !log
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let test_fired_events_released () =
  (* once it has fired, a thunk and everything it captured belong to the
     garbage collector, not to the scheduler's heap *)
  let sched = Sched.create () in
  let captured = Weak.create 2 in
  let schedule i =
    let buf = Bytes.make 100_000 'x' in
    Weak.set captured i (Some buf);
    Sched.at sched ~at:(float_of_int i) (fun () -> ignore (Sys.opaque_identity buf))
  in
  schedule 0;
  schedule 1;
  Alcotest.(check int) "both fired" 2 (Sched.run sched);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check (list bool)) "captured buffers collected" [ false; false ]
    [ Weak.check captured 0; Weak.check captured 1 ];
  (* the scheduler itself was live across the collections *)
  Alcotest.(check int) "queue drained" 0 (Sched.pending sched)

(* Random interleavings against a list that pops the minimum (at, seq):
   absolute times on a half-second grid repeat (ties) and fall behind the
   clock (clamped to now), delays include zero, some thunks schedule one
   more event while they fire (into the slot their own firing has just
   freed), [run ~until] stops at a horizon, and runs grow to ~2k pending
   events. Each thunk logs an id handed out in scheduling order, and the
   reference predicts the ids in firing order. *)
type heap_op = At of float | After of float | Chain of float * float | Step | Until of float

let heap_op_gen =
  QCheck.Gen.(
    let grid = map (fun k -> float_of_int k /. 2.0) (int_range 0 60) in
    let delay = map (fun k -> float_of_int k /. 4.0) (int_range 0 8) in
    frequency
      [
        (3, map (fun x -> At x) grid);
        (2, map (fun d -> After d) delay);
        (1, map2 (fun x d -> Chain (x, d)) grid delay);
        (2, return Step);
        (1, map (fun x -> Until x) grid);
      ])

let heap_op_to_string = function
  | At x -> Printf.sprintf "at %g" x
  | After d -> Printf.sprintf "after %g" d
  | Chain (x, d) -> Printf.sprintf "at %g then %g later" x d
  | Step -> "step"
  | Until x -> Printf.sprintf "run until %g" x

let qcheck_heap_matches_list_reference =
  QCheck.Test.make ~name:"sched: heap = list reference" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map heap_op_to_string ops))
       QCheck.Gen.(list_size (int_range 0 5000) heap_op_gen))
    (fun ops ->
      let sched = Sched.create () in
      let log = ref [] and issued = ref 0 in
      let rec thunk spawn =
        let id = !issued in
        incr issued;
        fun () ->
          log := id :: !log;
          Option.iter (fun d -> Sched.after sched ~delay:d (thunk None)) spawn
      in
      (* the reference: pending (at, seq, spawned delay) in firing order;
         a new event goes after every pending one due no later, which
         all have smaller seqs *)
      let pending = ref [] and count = ref 0 and now = ref 0.0 and seq = ref 0 in
      let expected = ref [] in
      let add at spawn =
        let at = Float.max at !now in
        let rec insert = function
          | ((at', _, _) as e) :: rest when at' <= at -> e :: insert rest
          | later -> (at, !seq, spawn) :: later
        in
        pending := insert !pending;
        incr seq;
        incr count
      in
      let pop () =
        match !pending with
        | [] -> false
        | (at, id, spawn) :: rest ->
          pending := rest;
          decr count;
          now := at;
          expected := id :: !expected;
          Option.iter (fun d -> add (at +. d) None) spawn;
          true
      in
      let rec pop_until x n =
        match !pending with
        | (at, _, _) :: _ when at <= x ->
          ignore (pop ());
          pop_until x (n + 1)
        | _ -> n
      in
      List.for_all
        (fun op ->
          (match op with
          | At x ->
            Sched.at sched ~at:x (thunk None);
            add x None;
            true
          | After d ->
            Sched.after sched ~delay:d (thunk None);
            add (!now +. d) None;
            true
          | Chain (x, d) ->
            Sched.at sched ~at:x (thunk (Some d));
            add x (Some d);
            true
          | Step ->
            let stepped = Sched.step sched in
            stepped = pop ()
          | Until x ->
            let fired = Sched.run ~until:x sched in
            fired = pop_until x 0)
          && Sched.pending sched = !count
          && Sched.now sched = !now
          && Sched.next_at sched
             = match !pending with [] -> None | (at, _, _) :: _ -> Some at)
        ops
      && !log = !expected)

(* ---- delayed delivery ------------------------------------------------ *)

let test_channel_defer_hook () =
  (* a Delay impairment advances the channel's clock inline, by less than
     [delay_s], and delivers at once *)
  let time = Simtime.create () in
  let trace = Trace.create time in
  let ch = Channel.create time trace in
  let got = ref [] in
  let (_ : string Channel.Endpoint.handle) =
    Channel.Endpoint.attach ch Channel.Prover_side (fun m -> got := m :: !got)
  in
  Channel.set_impairment ch
    (Some
       (Impairment.create
          ~to_prover:{ Impairment.pristine with delay = 1.0; delay_s = 0.25 }
          ~seed:11L ()));
  let before = Simtime.now time in
  Channel.send ch ~src:Channel.Verifier_side "inline";
  Alcotest.(check bool) "forward consumed the message" true
    (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check (list string)) "inline delivery immediate" [ "inline" ] !got;
  Alcotest.(check bool) "inline delay advanced the clock" true
    (Simtime.now time >= before && Simtime.now time < before +. 0.25)

(* ---- engine equivalence against the sequential oracle ---------------- *)

let names = [ "a"; "b"; "c" ]

(* verdicts, ledgers, clocks, transcripts AND flight recorders, at every
   interesting shard count (1 = one timeline, 2/3 = uneven splits of 3
   members, 4/7 = more shards than members, so some shards own empty
   ranges) *)
let shard_counts = [ 1; 2; 3; 4; 7 ]

let fired () =
  Ra_obs.Registry.Counter.value
    (Ra_obs.Registry.Counter.get ~labels:[ ("kind", "fired") ] "ra_sched_events_total")

let test_sweep_event_per_member_matches_oracle () =
  (* the default engine runs every member's slot as one scheduler event *)
  let f = Fleet.create ~ram_size:1024 ~names () in
  let before = fired () in
  let r = Fleet.sweep f in
  let o = Fleet_oracle.create ~ram_size:1024 ~names () in
  Alcotest.(check bool) "verdicts identical" true (r = Fleet_oracle.sweep o);
  Alcotest.(check bool) "ledgers, clocks and transcripts identical" true
    (Fleet_oracle.fleet_state f = Fleet_oracle.state o);
  Alcotest.(check int) "one event per member" (List.length names) (fired () - before)

let test_sweep_matches_oracle () =
  let o = Fleet_oracle.create ~ram_size:1024 ~names () in
  Fleet_oracle.enable_tracing o;
  let verdicts = Fleet_oracle.sweep o in
  let oracle = (verdicts, Fleet_oracle.state o, Fleet_oracle.recent_rounds o) in
  List.iter
    (fun shards ->
      let f = Fleet.create ~ram_size:1024 ~names () in
      Fleet.enable_tracing f;
      let r = Fleet.sweep ~engine:(`Shards shards) f in
      Alcotest.(check bool)
        (Printf.sprintf "sweep state identical at %d shards" shards)
        true
        ((r, Fleet_oracle.fleet_state f, Fleet.recent_rounds f) = oracle))
    shard_counts

(* one chaos grid on the sharded engine and on the oracle, traced *)
let chaos_pair ?(names = names) ~seed ~rounds ~losses ~policies ~workload ~shards () =
  let f = Fleet.create ~ram_size:1024 ~names () in
  Fleet.enable_tracing f;
  let grid =
    Fleet.chaos_sweep ~seed ~engine:(`Shards shards) ~workload ~rounds_per_member:rounds
      ~losses ~policies f
  in
  let o = Fleet_oracle.create ~ram_size:1024 ~names () in
  Fleet_oracle.enable_tracing o;
  let ogrid =
    Fleet_oracle.chaos_sweep ~seed ~workload ~rounds_per_member:rounds ~losses ~policies o
  in
  ( (grid, Fleet_oracle.fleet_state f, Fleet.recent_rounds f),
    (ogrid, Fleet_oracle.state o, Fleet_oracle.recent_rounds o) )

let check_chaos ~workload () =
  List.iter
    (fun shards ->
      let engine, oracle =
        chaos_pair ~seed:99L ~rounds:3 ~losses:[ 0.0; 0.2 ]
          ~policies:[ ("default", Retry.default) ]
          ~workload ~shards ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s chaos state identical at %d shards"
           (Forensics.workload_label workload) shards)
        true (engine = oracle))
    shard_counts

let test_chaos_attest_matches_oracle () = check_chaos ~workload:`Attest ()
let test_chaos_session_matches_oracle () = check_chaos ~workload:(`Session 2) ()

let prop_engine_equivalent ~name ~workload =
  let gen =
    QCheck.Gen.(
      triple (float_bound_exclusive 0.5) (map Int64.of_int int) (oneofl shard_counts))
  in
  QCheck.Test.make ~count:10 ~name
    (QCheck.make gen ~print:(fun (loss, seed, shards) ->
         Printf.sprintf "loss=%.3f seed=%Ld shards=%d" loss seed shards))
    (fun (loss, seed, shards) ->
      let engine, oracle =
        chaos_pair ~names:[ "p"; "q"; "r" ] ~seed ~rounds:2 ~losses:[ loss ]
          ~policies:[ ("impatient", Retry.impatient) ]
          ~workload ~shards ()
      in
      engine = oracle)

let prop_sharded_engine_equivalent =
  prop_engine_equivalent ~workload:`Attest
    ~name:
      "sharded engine = sequential oracle (verdicts, ledgers, transcripts, clocks, \
       recorders) over random (loss, seed, shards)"

let prop_engines_verdict_equivalent =
  prop_engine_equivalent ~workload:(`Session 1)
    ~name:
      "event engine = sequential oracle over random impairment seeds, secure-session \
       workload"

(* ---- retry bound used for scheduler horizons -------------------------- *)

let test_max_total_s_bounds_round () =
  let p = Retry.impatient in
  let bound = Retry.max_total_s p in
  Alcotest.(check bool) "bound positive" true (bound > 0.0);
  (* a dead wire uses every window in full: the round's simulated waiting
     must stay within the bound *)
  let session = Session.create ~ram_size:1024 () in
  Session.set_impairment session
    (Some
       (Impairment.create
          ~to_prover:(Impairment.lossy 1.0)
          ~to_verifier:(Impairment.lossy 1.0)
          ~seed:3L ()));
  let round = Session.attest_round_r ~policy:p session in
  (match round.Session.r_verdict with
  | Verdict.Timed_out { waited_s; _ } ->
    Alcotest.(check bool) "waited within max_total_s" true (waited_s <= bound)
  | v -> Alcotest.failf "expected Timed_out, got %s" (Verdict.label v));
  Alcotest.(check bool) "bound is tight-ish (not 10x the wait)" true
    (round.Session.r_elapsed_s > 0.5 *. bound)

(* ---- the chaos timeline the digests do not cover ---------------------- *)

(* A chaos sweep's event order and lag histogram, pinned as recorded
   before members went on the timeline by index: 6 members, 3 sweeps of
   2 rounds at 30% loss, one shard. Member clocks diverge after the first
   sweep, so a sweep that started member i+1 from member i's first
   event (which serializes their starts) keeps every verdict, transcript
   and fingerprint but reads 42 in the first lag bucket and a 0.0766 s
   sum. *)
let test_chaos_timeline_pinned () =
  let events kind =
    Ra_obs.Registry.Counter.value
      (Ra_obs.Registry.Counter.get ~labels:[ ("kind", kind) ] "ra_sched_events_total")
  in
  let lag = Ra_obs.Registry.Histogram.get "ra_sched_lag_seconds" in
  let counts () = List.map snd (Ra_obs.Registry.Histogram.buckets lag) in
  let f = Fleet.create ~ram_size:1024 ~names:(List.init 6 (Printf.sprintf "t%d")) () in
  Fleet.advance f ~seconds:1.0;
  let fired = events "fired" and scheduled = events "scheduled" in
  let buckets = counts () in
  let count = Ra_obs.Registry.Histogram.count lag and sum = Ra_obs.Registry.Histogram.sum lag in
  List.iter
    (fun seed ->
      ignore
        (Fleet.chaos_sweep ~seed ~engine:(`Shards 1) ~rounds_per_member:2 ~losses:[ 0.3 ]
           ~policies:[ ("default", Retry.default) ]
           f))
    [ 7L; 8L; 9L ];
  Alcotest.(check int) "events fired" 76 (events "fired" - fired);
  Alcotest.(check int) "events scheduled" 76 (events "scheduled" - scheduled);
  Alcotest.(check (list int)) "lag buckets"
    [ 22; 54; 0; 0; 0; 0; 0; 0; 0; 0 ]
    (List.map2 (fun a b -> b - a) buckets (counts ()));
  Alcotest.(check int) "lag count" 76 (Ra_obs.Registry.Histogram.count lag - count);
  Alcotest.(check (float 1e-9)) "lag sum" 0.12162599999999246
    (Ra_obs.Registry.Histogram.sum lag -. sum)

let tests =
  [
    Alcotest.test_case "heap order and ties" `Quick test_heap_order_and_ties;
    Alcotest.test_case "past events clamp to now" `Quick test_past_events_clamp_to_now;
    Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
    Alcotest.test_case "negative delay rejected" `Quick test_after_negative_rejected;
    Alcotest.test_case "determinism across runs" `Quick test_determinism_across_runs;
    Alcotest.test_case "fired events are released" `Quick test_fired_events_released;
    QCheck_alcotest.to_alcotest qcheck_heap_matches_list_reference;
    Alcotest.test_case "channel defer hook" `Quick test_channel_defer_hook;
    Alcotest.test_case "sweep: events = seq" `Quick
      test_sweep_event_per_member_matches_oracle;
    Alcotest.test_case "chaos: events = seq" `Slow test_chaos_session_matches_oracle;
    Alcotest.test_case "sweep: shards = seq" `Quick test_sweep_matches_oracle;
    Alcotest.test_case "chaos: shards = seq" `Slow test_chaos_attest_matches_oracle;
    QCheck_alcotest.to_alcotest prop_sharded_engine_equivalent;
    QCheck_alcotest.to_alcotest prop_engines_verdict_equivalent;
    Alcotest.test_case "max_total_s bounds a round" `Quick test_max_total_s_bounds_round;
    Alcotest.test_case "chaos timeline pinned (events, lag)" `Quick test_chaos_timeline_pinned;
  ]

open Ra_net

let test_simtime () =
  let t = Simtime.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Simtime.now t);
  Simtime.advance_by t 1.5;
  Simtime.advance_to t 3.0;
  Alcotest.(check (float 0.0)) "advanced" 3.0 (Simtime.now t);
  Alcotest.check_raises "negative delta" (Invalid_argument "Simtime.advance_by: negative delta")
    (fun () -> Simtime.advance_by t (-1.0));
  Alcotest.check_raises "backwards" (Invalid_argument "Simtime.advance_to: target in the past")
    (fun () -> Simtime.advance_to t 2.0)

let test_trace () =
  let time = Simtime.create () in
  let trace = Trace.create time in
  (* a span lands in the process-wide ra_span_ms{span=...} histogram in
     simulated ms, and the trace keeps no list of its own *)
  let hist =
    Ra_obs.Registry.Histogram.get ~labels:[ ("span", "test.net.trace") ] "ra_span_ms"
  in
  let count0 = Ra_obs.Registry.Histogram.count hist in
  let sum0 = Ra_obs.Registry.Histogram.sum hist in
  let v =
    Trace.with_span trace "test.net.trace" (fun () ->
        Simtime.advance_by time 0.25;
        7)
  in
  Alcotest.(check int) "with_span value" 7 v;
  Alcotest.(check int) "one observation" 1 (Ra_obs.Registry.Histogram.count hist - count0);
  Alcotest.(check (float 1e-9)) "simulated ms" 250.0
    (Ra_obs.Registry.Histogram.sum hist -. sum0);
  Alcotest.(check int) "no finished list" 0
    (List.length (Ra_obs.Span.finished (Trace.spans trace)));
  (* the causal hooks record only with a tracer set and a round open;
     causal_span always returns its thunk's value *)
  let hooks tag =
    Trace.causal_instant trace ~cat:"test" ~labels:[ ("k", tag) ] (tag ^ ".instant");
    Trace.causal_span trace ~cat:"test" (tag ^ ".span") (fun () -> String.length tag)
  in
  Alcotest.(check int) "no tracer: value" 3 (hooks "off");
  let tracer = Ra_obs.Trace.create ~device:"d" ~clock:(fun () -> Simtime.now time) () in
  Trace.set_tracer trace (Some tracer);
  Alcotest.(check bool) "tracer set" true
    (match Trace.tracer trace with Some tr -> tr == tracer | None -> false);
  Alcotest.(check int) "no round: value" 6 (hooks "closed");
  ignore (Ra_obs.Trace.begin_round tracer);
  Alcotest.(check int) "open round: value" 2 (hooks "on");
  Ra_obs.Trace.end_round tracer ~verdict:"trusted" ~attempts:1;
  Trace.set_tracer trace None;
  ignore (Ra_obs.Trace.begin_round tracer);
  Alcotest.(check int) "detached: value" 8 (hooks "detached");
  Ra_obs.Trace.end_round tracer ~verdict:"trusted" ~attempts:1;
  let names (rd : Ra_obs.Trace.round) =
    List.sort compare (List.map (fun e -> e.Ra_obs.Trace.ev_name) rd.rd_events)
  in
  match Ra_obs.Trace.rounds tracer with
  | [ on; detached ] ->
    Alcotest.(check (list string)) "only the open round recorded"
      [ Ra_obs.Trace.root_span_name; "on.instant"; "on.span" ]
      (names on);
    Alcotest.(check bool) "instant labels kept" true
      (List.exists
         (fun e -> e.Ra_obs.Trace.ev_labels = [ ("k", "on") ])
         on.rd_events);
    Alcotest.(check (list string)) "nothing once detached"
      [ Ra_obs.Trace.root_span_name ] (names detached)
  | l -> Alcotest.failf "expected 2 sealed rounds, got %d" (List.length l)

(* reference implementation the allocation-free search must agree with:
   the old O(n*m)-allocation [String.sub]-per-position scan *)
let contains_substring_ref ~needle hay =
  let n = String.length needle and h = String.length hay in
  if n = 0 then true
  else if n > h then false
  else begin
    let found = ref false in
    for i = 0 to h - n do
      if (not !found) && String.sub hay i n = needle then found := true
    done;
    !found
  end

let prop_contains_substring =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 6))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 40)))
  in
  (* a 3-letter alphabet makes both hits and near-misses common *)
  QCheck.Test.make ~count:2000
    ~name:"Trace.contains_substring agrees with String.sub reference"
    (QCheck.make gen ~print:(fun (n, h) -> Printf.sprintf "needle=%S hay=%S" n h))
    (fun (needle, hay) ->
      Trace.contains_substring ~needle hay = contains_substring_ref ~needle hay)

let test_contains_substring_edges () =
  let check name expect needle hay =
    Alcotest.(check bool) name expect (Trace.contains_substring ~needle hay)
  in
  check "empty needle" true "" "abc";
  check "empty both" true "" "";
  check "needle longer" false "abc" "ab";
  check "exact" true "abc" "abc";
  check "suffix" true "bc" "abc";
  check "false prefix then match" true "aab" "aaab";
  check "near miss" false "abd" "abcabc"

let make_channel () =
  let time = Simtime.create () in
  let trace = Trace.create time in
  (time, Channel.create time trace)

let test_send_does_not_deliver () =
  let _, ch = make_channel () in
  let got = ref [] in
  ignore (Channel.Endpoint.attach ch Channel.Prover_side (fun m -> got := m :: !got));
  Channel.send ch ~src:Channel.Verifier_side "hello";
  Alcotest.(check int) "nothing delivered" 0 (List.length !got);
  Alcotest.(check int) "on the wire" 1 (List.length (Channel.undelivered ch))

let test_transcript_is_permanent () =
  let _, ch = make_channel () in
  ignore (Channel.Endpoint.attach ch Channel.Prover_side (fun _ -> ()));
  Channel.send ch ~src:Channel.Verifier_side "m1";
  let _ = Channel.forward_next ch ~dst:Channel.Prover_side in
  (* delivered messages stay in the eavesdropper's transcript *)
  Alcotest.(check int) "transcript keeps everything" 1
    (List.length (Channel.transcript ch));
  Alcotest.(check int) "pending drained" 0 (List.length (Channel.undelivered ch))

let test_forward_next_order_and_direction () =
  let _, ch = make_channel () in
  let got = ref [] in
  ignore (Channel.Endpoint.attach ch Channel.Prover_side (fun m -> got := m :: !got));
  Channel.send ch ~src:Channel.Verifier_side "m1";
  Channel.send ch ~src:Channel.Prover_side "resp";
  Channel.send ch ~src:Channel.Verifier_side "m2";
  Alcotest.(check bool) "first forward" true (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check bool) "second forward" true (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check bool) "no more verifier msgs" false
    (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check (list string)) "fifo order, right direction" [ "m2"; "m1" ] !got

let test_drop () =
  let _, ch = make_channel () in
  Channel.send ch ~src:Channel.Verifier_side "m1";
  Alcotest.(check bool) "dropped" true (Channel.drop_next ch ~src:Channel.Verifier_side);
  Alcotest.(check int) "gone from pending" 0 (List.length (Channel.undelivered ch));
  Alcotest.(check int) "still in transcript" 1 (List.length (Channel.transcript ch));
  Alcotest.(check bool) "nothing left" false (Channel.drop_next ch ~src:Channel.Verifier_side)

let test_deliver_without_receiver () =
  let _, ch = make_channel () in
  (* must not raise; records a trace entry instead *)
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Verifier_side "orphan"

let test_replay_from_transcript () =
  let _, ch = make_channel () in
  let count = ref 0 in
  ignore (Channel.Endpoint.attach ch Channel.Prover_side (fun _ -> incr count));
  Channel.send ch ~src:Channel.Verifier_side "req";
  let _ = Channel.forward_next ch ~dst:Channel.Prover_side in
  (* adversary replays from the transcript as many times as it likes *)
  (match Channel.transcript ch with
  | [ sent ] ->
    Channel.deliver ch ~origin:Channel.Replayed ~dst:Channel.Prover_side sent.Channel.payload;
    Channel.deliver ch ~origin:Channel.Replayed ~dst:Channel.Prover_side sent.Channel.payload
  | _ -> Alcotest.fail "expected one transcript entry");
  Alcotest.(check int) "three deliveries total" 3 !count

let test_endpoint_attach_shadows () =
  let _, ch = make_channel () in
  let got = ref [] in
  let tag name m = got := (name, m) :: !got in
  let base = Channel.Endpoint.attach ch Channel.Prover_side (tag "base") in
  Channel.send ch ~src:Channel.Verifier_side "m1";
  ignore (Channel.forward_next ch ~dst:Channel.Prover_side);
  (* a newer handle shadows, not destroys, the existing receiver *)
  let shadow = Channel.Endpoint.attach ch Channel.Prover_side (tag "shadow") in
  Channel.send ch ~src:Channel.Verifier_side "m2";
  ignore (Channel.forward_next ch ~dst:Channel.Prover_side);
  (* detaching the shadow restores the original *)
  Channel.Endpoint.detach shadow;
  Channel.send ch ~src:Channel.Verifier_side "m3";
  ignore (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check (list (pair string string)))
    "stacked receivers"
    [ ("base", "m3"); ("shadow", "m2"); ("base", "m1") ]
    !got;
  Alcotest.(check bool) "shadow detached" false
    (Channel.Endpoint.is_attached shadow);
  Alcotest.(check bool) "base still attached" true
    (Channel.Endpoint.is_attached base);
  Alcotest.(check bool) "side recorded" true
    (Channel.Endpoint.side base = Channel.Prover_side)

let test_endpoint_detach_idempotent () =
  let _, ch = make_channel () in
  let got = ref 0 in
  let a = Channel.Endpoint.attach ch Channel.Prover_side (fun _ -> incr got) in
  let b = Channel.Endpoint.attach ch Channel.Prover_side (fun _ -> ()) in
  Channel.Endpoint.detach b;
  Channel.Endpoint.detach b;
  (* double-detach must not pop the restored receiver underneath *)
  Channel.send ch ~src:Channel.Verifier_side "m";
  ignore (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check int) "original receiver survives double detach" 1 !got;
  Channel.Endpoint.detach a;
  Alcotest.(check bool) "fully detached" false (Channel.Endpoint.is_attached a);
  (* no receiver left: delivery records a trace entry instead of raising *)
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "orphan";
  Alcotest.(check int) "nothing received" 1 !got

let test_endpoint_mid_stack_detach () =
  let _, ch = make_channel () in
  let got = ref [] in
  let tag name m = got := (name, m) :: !got in
  let _a = Channel.Endpoint.attach ch Channel.Prover_side (tag "a") in
  let b = Channel.Endpoint.attach ch Channel.Prover_side (tag "b") in
  let _c = Channel.Endpoint.attach ch Channel.Prover_side (tag "c") in
  (* detaching below the top must not change who receives *)
  Channel.Endpoint.detach b;
  Channel.send ch ~src:Channel.Verifier_side "m";
  ignore (Channel.forward_next ch ~dst:Channel.Prover_side);
  Alcotest.(check (list (pair string string))) "top still receives"
    [ ("c", "m") ] !got

let test_endpoint_self_detach_in_callback () =
  (* the secure-session teardown shape: a handler detaches {e itself}
     while handling a frame. The in-flight frame must not be
     re-dispatched, and every later frame must fall through to the
     handler below — no skipped or double delivery. *)
  let _, ch = make_channel () in
  let got = ref [] in
  let tag name m = got := (name, m) :: !got in
  let _base = Channel.Endpoint.attach ch Channel.Prover_side (tag "base") in
  let top = ref None in
  let top_handle =
    Channel.Endpoint.attach ch Channel.Prover_side (fun m ->
        tag "top" m;
        if m = "bye" then Option.iter Channel.Endpoint.detach !top)
  in
  top := Some top_handle;
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "m1";
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "bye";
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "m2";
  Alcotest.(check (list (pair string string)))
    "each frame delivered exactly once"
    [ ("base", "m2"); ("top", "bye"); ("top", "m1") ]
    !got;
  Alcotest.(check bool) "top detached" false (Channel.Endpoint.is_attached top_handle)

let test_endpoint_attach_in_callback () =
  (* a handler attaching a new receiver mid-delivery: the frame being
     handled stays with its original handler; only subsequent frames see
     the newcomer *)
  let _, ch = make_channel () in
  let got = ref [] in
  let tag name m = got := (name, m) :: !got in
  let _base =
    Channel.Endpoint.attach ch Channel.Prover_side (fun m ->
        tag "base" m;
        if m = "grow" then
          ignore (Channel.Endpoint.attach ch Channel.Prover_side (tag "late")))
  in
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "grow";
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "after";
  Alcotest.(check (list (pair string string)))
    "newcomer sees only later frames"
    [ ("late", "after"); ("base", "grow") ]
    !got

let test_endpoint_detach_below_in_callback () =
  (* the top handler rips out the handler {e below} while a frame is in
     flight; the next frame must reach the (new) next-active handler,
     never the dead closure *)
  let _, ch = make_channel () in
  let got = ref [] in
  let tag name m = got := (name, m) :: !got in
  let _floor = Channel.Endpoint.attach ch Channel.Prover_side (tag "floor") in
  let mid = Channel.Endpoint.attach ch Channel.Prover_side (tag "mid") in
  let top = ref None in
  let top_handle =
    Channel.Endpoint.attach ch Channel.Prover_side (fun m ->
        tag "top" m;
        Channel.Endpoint.detach mid;
        Option.iter Channel.Endpoint.detach !top)
  in
  top := Some top_handle;
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "m1";
  Channel.deliver ch ~origin:Channel.Injected ~dst:Channel.Prover_side "m2";
  Alcotest.(check (list (pair string string)))
    "frame falls through both detached handles"
    [ ("floor", "m2"); ("top", "m1") ]
    !got

(* Deltas of [ra_channel_delivered_total] across [f ()], as
   [forwarded; injected; replayed]. *)
let delivered_by_kind f =
  let value kind =
    Ra_obs.Registry.Counter.value
      (Ra_obs.Registry.Counter.get ~labels:[ ("kind", kind) ] "ra_channel_delivered_total")
  in
  let counts () = List.map value [ "forwarded"; "injected"; "replayed" ] in
  let before = counts () in
  f ();
  List.map2 ( - ) (counts ()) before

(* Every adversarial delivery the attestation core makes carries the
   label of what the adversary sent: a frame recorded off the wire is
   replayed, a frame of its own making is injected. *)
let test_delivery_labels () =
  let open Ra_core in
  let check name expected f =
    Alcotest.(check (list int)) (name ^ ": forwarded, injected, replayed") expected
      (delivered_by_kind f)
  in
  let spec = Architecture.with_policy Architecture.trustlite_base Freshness.Counter in
  let s = Session.create ~spec ~ram_size:1024 () in
  Session.advance_time s ~seconds:1.0;
  check "benign round" [ 2; 0; 0 ] (fun () -> ignore (Session.attest_round s));
  let recorded =
    match Adversary.recorded_requests s with
    | [ req ] -> req
    | _ -> Alcotest.fail "expected one recorded request"
  in
  check "replay" [ 0; 0; 1 ] (fun () -> Adversary.replay s recorded);
  check "inject of a recorded request" [ 0; 0; 1 ] (fun () -> Adversary.inject s recorded);
  let forged = Adversary.forge_request s ~freshness:(Message.F_counter 99L) () in
  check "forged inject" [ 0; 1; 0 ] (fun () -> Adversary.inject s forged);
  check "flood" [ 0; 7; 0 ] (fun () -> Adversary.flood s ~count:7 forged);
  check "table 2" [ 6; 0; 12 ] (fun () -> ignore (Experiment.table2 ()));
  check "roaming matrix" [ 22; 2; 7 ] (fun () -> ignore (Experiment.roaming_matrix ()));
  check "hostile campaign" [ 24; 300; 3 ] (fun () ->
      ignore
        (Campaign.run
           { Campaign.default_config with Campaign.devices = 3; days = 2; sweeps_per_day = 2 }))

(* The transcript's columns live in blocks of 128 frames, the first of
   which doubles from four slots. Whatever the number of blocks, every
   frame reads back as sent, every window folds over exactly its frames,
   and the frames left pending are those a reference queue holds. *)
let prop_transcript_blocks =
  QCheck.Test.make ~name:"transcript = reference across column blocks" ~count:40
    QCheck.(pair (list_of_size Gen.(0 -- 1200) (pair (int_bound 9) small_nat)) (pair small_nat small_nat))
    (fun (ops, (a, b)) ->
      let time = Simtime.create () in
      let ch = Channel.create time (Trace.create time) in
      List.iter
        (fun side -> ignore (Channel.Endpoint.attach ch side ignore))
        [ Channel.Verifier_side; Channel.Prover_side ];
      let rec take src = function
        | [] -> (false, [])
        | (e : string Channel.sent) :: rest when e.Channel.src = src -> (true, rest)
        | e :: rest ->
          let found, rest = take src rest in
          (found, e :: rest)
      in
      let sent = ref [] and pending = ref [] and agree = ref true in
      List.iteri
        (fun i (op, n) ->
          Simtime.advance_by time (float_of_int n *. 1e-3);
          let src = if n land 1 = 0 then Channel.Verifier_side else Channel.Prover_side in
          if op < 6 then begin
            let e = { Channel.sent_at = Simtime.now time; src; payload = string_of_int i } in
            Channel.send ch ~src e.Channel.payload;
            sent := e :: !sent;
            pending := !pending @ [ e ]
          end
          else begin
            let expected, rest = take src !pending in
            pending := rest;
            let got =
              if op < 8 then
                Channel.forward_next ch
                  ~dst:(if src = Channel.Verifier_side then Channel.Prover_side else Channel.Verifier_side)
              else Channel.drop_next ch ~src
            in
            if got <> expected then agree := false
          end)
        ops;
      let sent = List.rev !sent in
      let len = List.length sent in
      let lo = a mod (len + 2) and hi = b mod (len + 2) in
      let window =
        List.filteri (fun i _ -> i >= lo && i < hi) sent
        |> List.map (fun (e : string Channel.sent) -> (e.Channel.sent_at, e.Channel.src, e.Channel.payload))
      in
      !agree
      && Channel.transcript_length ch = len
      && Channel.transcript ch = sent
      && Channel.transcript_from ch ~pos:lo = List.filteri (fun i _ -> i >= lo) sent
      && Channel.fold_range ch ~lo ~hi (fun acc at src p -> (at, src, p) :: acc) [] = List.rev window
      && Channel.undelivered ch = !pending)

let tests =
  [
    Alcotest.test_case "simtime" `Quick test_simtime;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "send does not deliver" `Quick test_send_does_not_deliver;
    Alcotest.test_case "transcript is permanent" `Quick test_transcript_is_permanent;
    Alcotest.test_case "forward order/direction" `Quick
      test_forward_next_order_and_direction;
    Alcotest.test_case "drop" `Quick test_drop;
    Alcotest.test_case "deliver without receiver" `Quick test_deliver_without_receiver;
    Alcotest.test_case "replay from transcript" `Quick test_replay_from_transcript;
    Alcotest.test_case "contains_substring edges" `Quick
      test_contains_substring_edges;
    QCheck_alcotest.to_alcotest prop_contains_substring;
    Alcotest.test_case "endpoint attach shadows" `Quick
      test_endpoint_attach_shadows;
    Alcotest.test_case "endpoint detach idempotent" `Quick
      test_endpoint_detach_idempotent;
    Alcotest.test_case "endpoint mid-stack detach" `Quick
      test_endpoint_mid_stack_detach;
    Alcotest.test_case "endpoint self-detach in callback" `Quick
      test_endpoint_self_detach_in_callback;
    Alcotest.test_case "endpoint attach in callback" `Quick
      test_endpoint_attach_in_callback;
    Alcotest.test_case "endpoint detach-below in callback" `Quick
      test_endpoint_detach_below_in_callback;
    Alcotest.test_case "delivery labels of adversarial deliveries" `Quick
      test_delivery_labels;
    QCheck_alcotest.to_alcotest prop_transcript_blocks;
  ]

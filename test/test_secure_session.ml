open Ra_core
module Channel = Ra_net.Channel
module Impairment = Ra_net.Impairment
module SS = Secure_session

(* [advance_time 1.0] steps past the t=0 timestamp-freshness corner
   (first request at device time 0 reads as a replay of itself) so
   pristine-channel tests converge on the first flight, like the fleet's
   1 s stagger does. *)
let make ?sym_key () =
  let s = Session.create ?sym_key ~ram_size:2048 () in
  Session.advance_time s ~seconds:1.0;
  s

let pump s =
  let rec go n =
    if n > 0 then begin
      let a = Session.deliver_next_to_prover s in
      let b = Session.deliver_next_to_verifier s in
      if a || b then go (n - 1)
    end
  in
  go 1000

let establish ?window_bits s =
  let r = SS.listen ?window_bits s in
  let i = SS.connect ?window_bits s in
  SS.handshake_send i;
  pump s;
  (r, i)

(* the wire frames appended since [pos], oldest first *)
let frames_from s ~pos =
  List.map
    (fun e -> e.Channel.payload)
    (Channel.transcript_from (Session.channel s) ~pos)

let wire_len s = Channel.transcript_length (Session.channel s)

(* ---- anti-replay window ----------------------------------------------- *)

let result = Alcotest.testable
    (Fmt.of_to_string (function
      | SS.Window.Fresh -> "fresh"
      | SS.Window.Replayed -> "replayed"
      | SS.Window.Stale -> "stale"))
    ( = )

let test_window_basics () =
  let w = SS.Window.create () in
  Alcotest.(check int) "capacity" 128 (SS.Window.capacity w);
  Alcotest.check result "seq 0 stale" SS.Window.Stale (SS.Window.accept w 0L);
  Alcotest.check result "first accept" SS.Window.Fresh (SS.Window.accept w 1L);
  Alcotest.check result "duplicate" SS.Window.Replayed (SS.Window.accept w 1L);
  Alcotest.check result "check is honest" SS.Window.Replayed (SS.Window.check w 1L);
  Alcotest.check result "ahead" SS.Window.Fresh (SS.Window.accept w 5L);
  Alcotest.check result "reordered" SS.Window.Fresh (SS.Window.accept w 3L);
  Alcotest.check result "reordered dup" SS.Window.Replayed (SS.Window.accept w 3L);
  Alcotest.(check int64) "max tracks highest" 5L (SS.Window.max_seq w)

let test_window_check_nonmutating () =
  let w = SS.Window.create () in
  Alcotest.check result "check fresh" SS.Window.Fresh (SS.Window.check w 7L);
  Alcotest.check result "check again still fresh" SS.Window.Fresh (SS.Window.check w 7L);
  Alcotest.(check int64) "max untouched" 0L (SS.Window.max_seq w);
  Alcotest.check result "accept after checks" SS.Window.Fresh (SS.Window.accept w 7L)

let test_window_slide () =
  let w = SS.Window.create () in
  Alcotest.check result "seed" SS.Window.Fresh (SS.Window.accept w 1L);
  (* a jump far past the window slides it; everything that fell off the
     left edge is stale, in-window holes stay fresh exactly once *)
  Alcotest.check result "jump" SS.Window.Fresh (SS.Window.accept w 1000L);
  Alcotest.check result "left edge out" SS.Window.Stale (SS.Window.check w 872L);
  Alcotest.check result "oldest in-window" SS.Window.Fresh (SS.Window.accept w 873L);
  Alcotest.check result "old mark fell off, not replayed" SS.Window.Stale
    (SS.Window.check w 1L);
  (* sliding zeroed the wrapped blocks: no phantom replay from seq 1's bit *)
  Alcotest.check result "no phantom replay after wrap" SS.Window.Fresh
    (SS.Window.accept w 993L);
  Alcotest.check result "real replay after wrap" SS.Window.Replayed
    (SS.Window.accept w 993L)

let test_window_bad_bits () =
  Alcotest.check_raises "zero bits"
    (Invalid_argument
       "Secure_session.Window.create: bits must be a positive multiple of 32")
    (fun () -> ignore (SS.Window.create ~bits:0 ()));
  Alcotest.check_raises "not a multiple of 32"
    (Invalid_argument
       "Secure_session.Window.create: bits must be a positive multiple of 32")
    (fun () -> ignore (SS.Window.create ~bits:33 ()))

(* the window agrees with the obvious (unbounded-memory) model on any
   accept sequence: Fresh iff unseen and within [capacity] of the max *)
let qcheck_window_matches_model =
  QCheck.Test.make ~name:"secure: window = set+max model" ~count:200
    QCheck.(list_of_size Gen.(1 -- 120) (int_range 1 400))
    (fun seqs ->
      let w = SS.Window.create () in
      let cap = SS.Window.capacity w in
      let seen = Hashtbl.create 64 in
      let max_seen = ref 0 in
      List.for_all
        (fun seq ->
          let expected =
            if seq <= !max_seen && !max_seen - seq >= cap then SS.Window.Stale
            else if Hashtbl.mem seen seq then SS.Window.Replayed
            else SS.Window.Fresh
          in
          let got = SS.Window.accept w (Int64.of_int seq) in
          if got = SS.Window.Fresh then begin
            Hashtbl.replace seen seq ();
            if seq > !max_seen then max_seen := seq
          end;
          got = expected)
        seqs)

(* ---- happy path -------------------------------------------------------- *)

let test_pristine_session_round () =
  let s = make () in
  let r = SS.run_r ~records:3 s in
  (match r.Session.r_verdict with
  | Verdict.Trusted -> ()
  | v -> Alcotest.failf "expected trusted, got %a" Verdict.pp v);
  (* pristine wire: handshake + 3 records + close, one transmission each *)
  Alcotest.(check int) "transmissions" 5 r.Session.r_attempts;
  Alcotest.(check bool) "anchor time elapsed" true (r.Session.r_elapsed_s > 0.0)

let test_zero_records_session () =
  let s = make () in
  let r = SS.run_r ~records:0 s in
  (match r.Session.r_verdict with
  | Verdict.Trusted -> ()
  | v -> Alcotest.failf "expected trusted, got %a" Verdict.pp v);
  Alcotest.(check int) "handshake + close only" 2 r.Session.r_attempts

let test_deterministic_transcripts () =
  let run () =
    let s = make () in
    let r = SS.run_r ~records:2 s in
    (r.Session.r_verdict, r.Session.r_attempts, frames_from s ~pos:0)
  in
  let v1, a1, t1 = run () in
  let v2, a2, t2 = run () in
  Alcotest.(check bool) "verdicts equal" true (v1 = v2);
  Alcotest.(check int) "attempts equal" a1 a2;
  Alcotest.(check (list string)) "wire byte-identical" t1 t2

let test_handshake_and_streaming_by_hand () =
  let s = make () in
  let r, i = establish s in
  Alcotest.(check bool) "established" true (SS.established i);
  Alcotest.(check bool) "responder keys up" true (SS.responder_session_up r);
  Alcotest.(check bool) "hs_fin confirmed" true (SS.confirmed r);
  Alcotest.(check int) "established counted" 1 (SS.initiator_stats i).SS.s_established;
  Alcotest.(check bool) "record sent" true (SS.request_round i);
  pump s;
  Alcotest.(check int) "one verdict" 1 (SS.verdict_count i);
  (match SS.session_verdicts i with
  | [ (_, Verdict.Trusted) ] -> ()
  | _ -> Alcotest.fail "expected one trusted in-session verdict");
  Alcotest.(check int) "responder opened the request" 1
    (SS.responder_stats r).SS.s_accepted;
  Alcotest.(check int) "initiator opened the response" 1
    (SS.initiator_stats i).SS.s_accepted;
  Alcotest.(check bool) "close sent" true (SS.close_begin i);
  pump s;
  Alcotest.(check bool) "close acked" true (SS.close_acked i);
  Alcotest.(check bool) "initiator closed" true (SS.closed i);
  Alcotest.(check bool) "responder tore down" false (SS.responder_session_up r);
  (* amortization: at 4 KiB a streamed record costs the anchor fewer
     cycles than a one-shot round, which re-pays auth and freshness *)
  let cycles s = Ra_mcu.Cpu.work_cycles (Ra_mcu.Device.cpu (Session.device s)) in
  let fresh_4k () =
    let s = Session.create ~ram_size:4096 () in
    Session.advance_time s ~seconds:1.0;
    s
  in
  let s = fresh_4k () in
  let _, i = establish s in
  let c0 = cycles s in
  ignore (SS.request_round i);
  pump s;
  Alcotest.(check int) "4 KiB record verdict" 1 (SS.verdict_count i);
  let record = Int64.sub (cycles s) c0 in
  let s = fresh_4k () in
  let c0 = cycles s in
  let r = Session.attest_round_r s in
  Alcotest.(check bool) "4 KiB one-shot trusted" true
    (r.Session.r_verdict = Verdict.Trusted);
  let oneshot = Int64.sub (cycles s) c0 in
  Alcotest.(check bool)
    (Printf.sprintf "streamed record %Ld < one-shot round %Ld cycles" record oneshot)
    true
    (Int64.compare record oneshot < 0)

let test_implicit_confirmation_without_fin () =
  (* a lost Hs_fin must not wedge the session: the first valid record is
     implicit key confirmation *)
  let s = make () in
  let r = SS.listen s in
  let i = SS.connect s in
  SS.handshake_send i;
  (* forward Hs_init and Hs_resp, then drop the Hs_fin flight *)
  ignore (Session.deliver_next_to_prover s);
  ignore (Session.deliver_next_to_verifier s);
  Alcotest.(check bool) "established" true (SS.established i);
  Alcotest.(check bool) "fin dropped" true
    (Channel.drop_next (Session.channel s) ~src:Channel.Verifier_side);
  Alcotest.(check bool) "not yet confirmed" false (SS.confirmed r);
  ignore (SS.request_round i);
  pump s;
  Alcotest.(check bool) "record confirmed the keys" true (SS.confirmed r);
  Alcotest.(check int) "verdict arrived" 1 (SS.verdict_count i)

(* ---- adversary suite --------------------------------------------------- *)

let test_mitm_init_substitution_rejected () =
  let s = make () in
  let r = SS.listen s in
  let i = SS.connect s in
  let pos = wire_len s in
  SS.handshake_send i;
  let init_frame =
    match frames_from s ~pos with [ f ] -> f | _ -> Alcotest.fail "expected one flight"
  in
  (* the MITM swallows the real Hs_init and forwards one with a replaced
     session nonce — the embedded attestation request is untouched, so
     the anchor still answers; only the transcript hash can catch it *)
  Alcotest.(check bool) "intercepted" true
    (Channel.drop_next (Session.channel s) ~src:Channel.Verifier_side);
  (match Message.wire_of_bytes init_frame with
  | Some (Message.Hs_init { hs_nonce; hs_req }) ->
    let forged = Message.Hs_init { hs_nonce = String.map (fun _ -> 'x') hs_nonce; hs_req } in
    Channel.deliver (Session.channel s) ~dst:Channel.Prover_side
      (Message.wire_to_bytes forged)
  | _ -> Alcotest.fail "expected an Hs_init flight");
  Alcotest.(check bool) "responder answered" true (SS.responder_session_up r);
  ignore (Session.deliver_next_to_verifier s);
  Alcotest.(check bool) "session not established" false (SS.established i);
  Alcotest.(check int) "bind rejected" 1 (SS.initiator_stats i).SS.s_hs_rejected;
  Alcotest.(check bool) "trace names the bind" true
    (Ra_net.Trace.find (Session.trace s) ~substring:"handshake bind rejected" <> [])

let test_cross_session_splice_rejected () =
  (* same K_attest, two distinct sessions (B's verifier burned one extra
     nonce, so its handshake bytes differ): a record sealed in A must not
     open in B — channel keys are per-transcript, not per-device-key *)
  let key = String.make 20 's' in
  let sa = make ~sym_key:key () in
  let sb = make ~sym_key:key () in
  ignore (Verifier.session_nonce (Session.verifier sb));
  let _ra, ia = establish sa in
  let rb, ib = establish sb in
  Alcotest.(check bool) "A established" true (SS.established ia);
  Alcotest.(check bool) "B established" true (SS.established ib);
  let pos = wire_len sa in
  ignore (SS.request_round ia);
  let record_frame =
    match frames_from sa ~pos with [ f ] -> f | _ -> Alcotest.fail "expected one record"
  in
  let before = wire_len sb in
  Session.deliver_frame_to_prover sb record_frame;
  Alcotest.(check int) "B rejects the spliced record" 1
    (SS.responder_stats rb).SS.s_bad_record;
  Alcotest.(check int) "B answered nothing" before (wire_len sb);
  (* B's session is unharmed: its own round still verifies *)
  ignore (SS.request_round ib);
  pump sb;
  Alcotest.(check int) "B still live" 1 (SS.verdict_count ib)

let test_replay_inside_and_outside_window () =
  let s = make () in
  let r, i = establish ~window_bits:32 s in
  let round () =
    let pos = wire_len s in
    ignore (SS.request_round i);
    let frame =
      match frames_from s ~pos with
      | f :: _ -> f
      | [] -> Alcotest.fail "no record frame"
    in
    pump s;
    frame
  in
  let first = round () in
  let second = round () in
  Alcotest.(check int) "two verdicts" 2 (SS.verdict_count i);
  (* replay inside the window: the sequence number's bit is set *)
  Session.deliver_frame_to_prover s second;
  Alcotest.(check int) "in-window replay flagged" 1 (SS.responder_stats r).SS.s_replayed;
  (* push the window past capacity 32, then replay the very first record *)
  for _ = 1 to 32 do
    ignore (round ())
  done;
  Session.deliver_frame_to_prover s first;
  Alcotest.(check int) "out-of-window replay stale" 1 (SS.responder_stats r).SS.s_stale;
  Alcotest.(check int) "no forged accepts" 34 (SS.responder_stats r).SS.s_accepted;
  (* rejects never poison the stream: the next round still verifies *)
  ignore (SS.request_round i);
  pump s;
  Alcotest.(check int) "session still live" 35 (SS.verdict_count i)

let test_tampered_records_reject_uniformly () =
  let s = make () in
  let r, i = establish s in
  let pos = wire_len s in
  ignore (SS.request_round i);
  let legit =
    match frames_from s ~pos with [ f ] -> f | _ -> Alcotest.fail "expected one record"
  in
  Alcotest.(check bool) "held back" true
    (Channel.drop_next (Session.channel s) ~src:Channel.Verifier_side);
  let flip b = String.mapi (fun k c -> if k = 0 then Char.chr (Char.code c lxor 1) else c) b in
  let tampered_ct, tampered_tag =
    match Message.wire_of_bytes legit with
    | Some (Message.Record rc) ->
      ( Message.wire_to_bytes (Message.Record { rc with rec_ct = flip rc.rec_ct }),
        Message.wire_to_bytes (Message.Record { rc with rec_tag = flip rc.rec_tag }) )
    | _ -> Alcotest.fail "expected a record frame"
  in
  let trace = Session.trace s in
  let reaction forged =
    let wire_before = wire_len s in
    let trace_before = List.length (Ra_net.Trace.entries trace) in
    let bad_before = (SS.responder_stats r).SS.s_bad_record in
    Channel.deliver (Session.channel s) ~dst:Channel.Prover_side forged;
    let entries =
      List.filteri
        (fun k _ -> k >= trace_before)
        (List.map (fun e -> e.Ra_net.Trace.label) (Ra_net.Trace.entries trace))
    in
    ( wire_len s - wire_before,
      (SS.responder_stats r).SS.s_bad_record - bad_before,
      entries )
  in
  let sent_ct, count_ct, trace_ct = reaction tampered_ct in
  let sent_tag, count_tag, trace_tag = reaction tampered_tag in
  (* one uniform reject: same counter, same silence, same trace shape —
     no observable distinguishes a bad tag from bad ciphertext *)
  Alcotest.(check int) "ct tamper: silent" 0 sent_ct;
  Alcotest.(check int) "tag tamper: silent" 0 sent_tag;
  Alcotest.(check int) "ct tamper: one bad_record" 1 count_ct;
  Alcotest.(check int) "tag tamper: one bad_record" 1 count_tag;
  Alcotest.(check (list string)) "identical trace reaction" trace_ct trace_tag;
  Alcotest.(check bool) "the uniform line" true
    (List.exists (Ra_net.Trace.contains_substring ~needle:"secure: record rejected") trace_ct);
  (* forgeries never advanced the window: the held-back original still opens *)
  Session.deliver_frame_to_prover s legit;
  pump s;
  Alcotest.(check int) "legit record survives the forgeries" 1 (SS.verdict_count i);
  Alcotest.(check int) "no replay miscount" 0 (SS.responder_stats r).SS.s_replayed

let test_refused_on_untrusted_report () =
  let s = make () in
  let device = Session.device s in
  Ra_mcu.Memory.write_byte
    (Ra_mcu.Device.memory device)
    (Ra_mcu.Device.attested_base device)
    0xEE;
  let r = SS.run_r ~records:3 s in
  (match r.Session.r_verdict with
  | Verdict.Untrusted_state -> ()
  | v -> Alcotest.failf "expected untrusted_state, got %a" Verdict.pp v);
  (* refusal is immediate — no streaming, no retries against bad memory *)
  Alcotest.(check int) "one flight only" 1 r.Session.r_attempts

(* ---- impairment -------------------------------------------------------- *)

let impaired s profile ~seed =
  Session.set_impairment s
    (Some (Impairment.create ~to_prover:profile ~to_verifier:profile ~seed ()))

let test_survives_duplication_and_reorder () =
  let s = make () in
  impaired s
    { Impairment.loss = Impairment.Iid 0.0; duplicate = 0.35; reorder = 0.35;
      corrupt = 0.0; delay = 0.0; delay_s = 0.0 }
    ~seed:11L;
  let r = SS.run_r ~records:5 s in
  (match r.Session.r_verdict with
  | Verdict.Trusted -> ()
  | v -> Alcotest.failf "expected trusted under dup/reorder, got %a" Verdict.pp v)

let test_converges_under_20pct_loss () =
  let s = make () in
  impaired s (Impairment.lossy 0.2) ~seed:3L;
  let r = SS.run_r ~records:4 s in
  (match r.Session.r_verdict with
  | Verdict.Trusted -> ()
  | v -> Alcotest.failf "expected trusted under 20%% loss, got %a" Verdict.pp v);
  Alcotest.(check bool) "losses cost retransmissions" true (r.Session.r_attempts >= 6)

let test_all_frames_lost_times_out () =
  let s = make () in
  impaired s (Impairment.lossy 1.0) ~seed:5L;
  let r = SS.run_r ~policy:Retry.impatient ~records:2 s in
  match r.Session.r_verdict with
  | Verdict.Timed_out { attempts; _ } ->
    Alcotest.(check int) "every attempt transmitted" attempts r.Session.r_attempts
  | v -> Alcotest.failf "expected timed_out on a dead wire, got %a" Verdict.pp v

(* ---- observability is out-of-band -------------------------------------- *)

let test_tracing_profiling_wire_neutral () =
  let bare =
    let s = make () in
    ignore (SS.run_r ~records:3 s);
    frames_from s ~pos:0
  in
  let observed =
    let s = make () in
    ignore (Session.enable_tracing s);
    ignore (Session.enable_profiling s);
    ignore (SS.run_r ~records:3 s);
    frames_from s ~pos:0
  in
  Alcotest.(check (list string)) "transcripts byte-identical" bare observed

(* ---- fleet engine identity --------------------------------------------- *)

let wire_digest sessions =
  Digest.to_hex
    (Digest.string
       (String.concat "@"
          (List.map (fun s -> String.concat "|" (frames_from s ~pos:0)) sessions)))

let qcheck_engines_byte_identical =
  QCheck.Test.make
    ~name:"secure: session transcripts match the sequential oracle at every shard count"
    ~count:3
    QCheck.(
      quad (int_range 1 1000) (int_range 0 3) (int_range 0 2) (oneofl [ 1; 2; 3; 4; 7 ]))
    (fun (seed, loss_decile, records, shards) ->
      let seed = Int64.of_int seed and loss = float_of_int loss_decile /. 10.0 in
      let names = [ "m0"; "m1" ] and workload = `Session records in
      let policies = [ ("default", Retry.default) ] in
      let t = Fleet.create ~ram_size:2048 ~names () in
      let cells =
        Fleet.chaos_sweep ~seed ~rounds_per_member:2 ~engine:(`Shards shards) ~workload
          ~losses:[ loss ] ~policies t
      in
      let o = Fleet_oracle.create ~ram_size:2048 ~names () in
      let ocells =
        Fleet_oracle.chaos_sweep ~seed ~rounds_per_member:2 ~workload ~losses:[ loss ]
          ~policies o
      in
      cells = ocells
      && wire_digest (List.map Fleet.member_session (Fleet.members t))
         = wire_digest (List.map (fun m -> m.Fleet_oracle.session) o))

(* Cross-version pin: one SHA-1 per workload over everything a capturing
   chaos sweep leaves behind — grid, ledgers, member clocks, wire
   transcripts, capsule JSON. The constants were recorded before the
   fleet engines and the two round machines were folded together; the
   same digest must come out at every shard count. *)
let pinned_sweep_digest ~workload ~shards =
  let t = Fleet.create ~ram_size:2048 ~names:[ "m0"; "m1"; "m2" ] () in
  ignore (Fleet.enable_forensics t);
  let cells =
    Fleet.chaos_sweep ~seed:2016L ~rounds_per_member:3 ~engine:(`Shards shards)
      ~workload ~losses:[ 0.0; 0.2 ]
      ~policies:[ ("default", Retry.default) ]
      t
  in
  let ctx = Ra_crypto.Sha1.init () in
  let feed = Ra_crypto.Sha1.feed ctx in
  List.iter
    (fun c ->
      feed
        (Printf.sprintf "cell|%h|%s|%d|%d|%h|%h|%h|%h;" c.Fleet.c_loss c.Fleet.c_policy
           c.Fleet.c_rounds c.Fleet.c_converged c.Fleet.c_mean_attempts c.Fleet.c_p50_s
           c.Fleet.c_p90_s c.Fleet.c_p99_s))
    cells;
  List.iter
    (fun m ->
      let s = Fleet.member_session m in
      feed (Printf.sprintf "member|%s|%h;" (Fleet.member_name m)
              (Ra_net.Simtime.now (Session.time s)));
      List.iter
        (fun (at, v) ->
          feed
            (Printf.sprintf "ledger|%h|%s;" at
               (match v with None -> "-" | Some v -> Verdict.label v)))
        (Fleet.member_history m);
      List.iter
        (fun { Channel.sent_at; src; payload } ->
          feed
            (Printf.sprintf "frame|%h|%s|%d|" sent_at
               (match src with Channel.Verifier_side -> "v" | Channel.Prover_side -> "p")
               (String.length payload));
          feed payload)
        (Channel.transcript (Session.channel s)))
    (Fleet.members t);
  feed (Ra_obs.Forensics.capsules_jsonl (Fleet.capsules t));
  Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha1.finalize ctx)

let test_pinned_sweep_digests () =
  List.iter
    (fun (workload, expected) ->
      List.iter
        (fun shards ->
          Alcotest.(check string)
            (Printf.sprintf "%s at %d shards" (Fleet.workload_label workload) shards)
            expected
            (pinned_sweep_digest ~workload ~shards))
        [ 1; 3 ])
    [ (`Attest, "3731bc6ff805d140414dab17d868c8632e6b8744"); (`Session 3, "8ebf9107044a03fe6346df8d687dfa6dd0ccbc90") ]

let test_chaos_sweep_session_workload () =
  let t = Fleet.create ~ram_size:2048 ~names:[ "a"; "b"; "c" ] () in
  let cells =
    Fleet.chaos_sweep ~seed:42L ~rounds_per_member:2 ~workload:(`Session 3)
      ~losses:[ 0.0; 0.2 ]
      ~policies:[ ("default", Retry.default) ]
      t
  in
  Alcotest.(check int) "two cells" 2 (List.length cells);
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "loss %.1f converges" c.Fleet.c_loss)
        c.Fleet.c_rounds c.Fleet.c_converged)
    cells

let test_workload_labels () =
  Alcotest.(check string) "attest label" "attest" (Fleet.workload_label `Attest);
  Alcotest.(check string) "session label" "session:4" (Fleet.workload_label (`Session 4));
  (match Fleet.workload_of_label "session:4" with
  | Some (`Session 4) -> ()
  | _ -> Alcotest.fail "session:4 should parse");
  (match Fleet.workload_of_label "attest" with
  | Some `Attest -> ()
  | _ -> Alcotest.fail "attest should parse");
  Alcotest.(check bool) "garbage refused" true (Fleet.workload_of_label "session:" = None);
  Alcotest.(check bool) "negative refused" true
    (Fleet.workload_of_label "session:-1" = None)

let tests =
  [
    Alcotest.test_case "window basics" `Quick test_window_basics;
    Alcotest.test_case "window check is non-mutating" `Quick test_window_check_nonmutating;
    Alcotest.test_case "window slides and forgets" `Quick test_window_slide;
    Alcotest.test_case "window rejects bad widths" `Quick test_window_bad_bits;
    QCheck_alcotest.to_alcotest qcheck_window_matches_model;
    Alcotest.test_case "pristine session round" `Quick test_pristine_session_round;
    Alcotest.test_case "zero-record session" `Quick test_zero_records_session;
    Alcotest.test_case "deterministic transcripts" `Quick test_deterministic_transcripts;
    Alcotest.test_case "handshake and streaming by hand" `Quick
      test_handshake_and_streaming_by_hand;
    Alcotest.test_case "lost hs_fin: records confirm" `Quick
      test_implicit_confirmation_without_fin;
    Alcotest.test_case "mitm init substitution rejected" `Quick
      test_mitm_init_substitution_rejected;
    Alcotest.test_case "cross-session splice rejected" `Quick
      test_cross_session_splice_rejected;
    Alcotest.test_case "replay inside and outside window" `Quick
      test_replay_inside_and_outside_window;
    Alcotest.test_case "tampered records reject uniformly" `Quick
      test_tampered_records_reject_uniformly;
    Alcotest.test_case "untrusted report refuses the session" `Quick
      test_refused_on_untrusted_report;
    Alcotest.test_case "survives duplication and reorder" `Quick
      test_survives_duplication_and_reorder;
    Alcotest.test_case "converges under 20% loss" `Quick test_converges_under_20pct_loss;
    Alcotest.test_case "dead wire times out" `Quick test_all_frames_lost_times_out;
    Alcotest.test_case "tracing/profiling wire-neutral" `Quick
      test_tracing_profiling_wire_neutral;
    QCheck_alcotest.to_alcotest qcheck_engines_byte_identical;
    Alcotest.test_case "chaos sweep session workload" `Quick
      test_chaos_sweep_session_workload;
    Alcotest.test_case "workload labels round-trip" `Quick test_workload_labels;
    Alcotest.test_case "pinned chaos sweep digests" `Quick test_pinned_sweep_digests;
  ]

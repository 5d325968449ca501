module Simtime = Ra_net.Simtime
module Trace = Ra_net.Trace
module Channel = Ra_net.Channel
module C = Ra_crypto

(* ---- RFC 6479-style sliding anti-replay window ----------------------- *)

module Window = struct
  (* Block-based bitmap (RFC 6479): one extra 32-bit block beyond the
     requested width, because the block being cleared while the window
     slides is never usable. Capacity is therefore exactly [bits]. *)
  type t = {
    words : int array; (* 32-bit blocks, indexed by seq / 32 mod blocks *)
    mutable w_max : int64; (* highest accepted sequence number; 0 = none *)
  }

  type result = Fresh | Replayed | Stale

  let word_bits = 32

  let create ?(bits = 128) () =
    if bits < word_bits || bits mod word_bits <> 0 then
      invalid_arg "Secure_session.Window.create: bits must be a positive multiple of 32";
    { words = Array.make ((bits / word_bits) + 1) 0; w_max = 0L }

  let capacity t = (Array.length t.words - 1) * word_bits
  let max_seq t = t.w_max

  let index t seq =
    let seq = Int64.to_int seq in
    (seq / word_bits mod Array.length t.words, seq mod word_bits)

  let test t seq =
    let block, bit = index t seq in
    t.words.(block) land (1 lsl bit) <> 0

  let mark t seq =
    let block, bit = index t seq in
    t.words.(block) <- t.words.(block) lor (1 lsl bit)

  (* Non-mutating: the record layer consults the window {e before} the
     MAC check (on the public sequence number — no secret is touched) and
     only marks after the tag verifies, so a forged frame can never
     advance or poison the window. *)
  let check t seq =
    if Int64.compare seq 1L < 0 then Stale (* sequence numbers start at 1 *)
    else if Int64.compare seq t.w_max > 0 then Fresh
    else
      let diff = Int64.to_int (Int64.sub t.w_max seq) in
      if diff >= capacity t then Stale
      else if test t seq then Replayed
      else Fresh

  let accept t seq =
    match check t seq with
    | (Replayed | Stale) as r -> r
    | Fresh ->
      if Int64.compare seq t.w_max > 0 then begin
        (* slide forward: zero every block the window moves over *)
        let cur = Int64.to_int t.w_max / word_bits in
        let tgt = Int64.to_int seq / word_bits in
        let blocks = Array.length t.words in
        let span = min (tgt - cur) blocks in
        for b = cur + 1 to cur + span do
          t.words.(b mod blocks) <- 0
        done;
        t.w_max <- seq
      end;
      mark t seq;
      Fresh
end

(* ---- transcript hash, binding MACs, key schedule ---------------------- *)

let u64_be v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xFFL)))

let lv s = u64_be (Int64.of_int (String.length s)) ^ s

(* The transcript hash covers the exact frame bytes each side saw, so a
   man-in-the-middle that rewrites either handshake flight desynchronizes
   the two hashes and every binding MAC derived from them. *)
let transcript_hash ~init ~resp =
  C.Sha256.digest ("ra/ss1 transcript" ^ lv init ^ lv resp)

let bind_tag ~sym_key ~th = C.Hmac.mac C.Hmac.sha256 ~key:sym_key ("ra/ss1 bind" ^ th)
let fin_tag_of ~fin_key ~th = C.Hmac.mac C.Hmac.sha256 ~key:fin_key ("ra/ss1 fin" ^ th)

type keys = { k_enc : C.Block_mode.cipher; k_mac : C.Cmac.key }

let dir_keys ~prk dir =
  let material info = C.Hkdf.expand ~prk ~info ~length:16 in
  {
    k_enc = C.Block_mode.aes (C.Aes.expand (material ("ra/ss1 " ^ dir ^ " enc")));
    k_mac = C.Cmac.derive (C.Aes.expand (material ("ra/ss1 " ^ dir ^ " mac")));
  }

type peer = {
  p_send : keys;
  p_recv : keys;
  p_fin_key : string;
  p_th : string; (* full transcript hash, both flights *)
  mutable p_seq : int64; (* last sequence number sent *)
  p_window : Window.t; (* receive-side anti-replay window *)
}

(* One HKDF extract over (transcript hash as salt, K_attest as IKM), then
   a labeled expand per direction and per use — initiator-to-responder
   and responder-to-initiator never share a key, so a record can never be
   reflected back to its sender. *)
let derive_peer ~sym_key ~th role =
  let prk = C.Hkdf.extract ~salt:th ~ikm:sym_key () in
  let i2r = dir_keys ~prk "i2r" and r2i = dir_keys ~prk "r2i" in
  let fin_key = C.Hkdf.expand ~prk ~info:"ra/ss1 fin key" ~length:16 in
  let p_send, p_recv =
    match role with `Initiator -> (i2r, r2i) | `Responder -> (r2i, i2r)
  in
  { p_send; p_recv; p_fin_key = fin_key; p_th = th; p_seq = 0L;
    p_window = Window.create () }

(* ---- record layer ----------------------------------------------------- *)

let rec_mac_body ~seq ct = "ra/ss1 rec" ^ u64_be seq ^ lv ct

let seal peer inner =
  let seq = Int64.add peer.p_seq 1L in
  peer.p_seq <- seq;
  (* CTR nonce = big-endian sequence number; sequences are unique per
     direction and directions have distinct keys, so nonces never repeat
     under one key *)
  let ct = C.Block_mode.ctr_crypt peer.p_send.k_enc ~nonce:(u64_be seq) inner in
  let tag = C.Cmac.mac peer.p_send.k_mac (rec_mac_body ~seq ct) in
  Message.Record { rec_seq = seq; rec_ct = ct; rec_tag = tag }

(* inner plaintext framing: one discriminator byte *)
let inner_msg w = "M" ^ Message.wire_to_bytes w
let inner_close = "C"
let inner_close_ack = "A"

type opened = Msg of Message.wire | Close | Close_ack
type open_error = Bad_record | Replayed | Stale

(* Encrypt-then-MAC open. Order is fixed: window check on the public
   sequence number (no crypto touched for replays), CMAC verify {e before}
   any decryption, window mark only after the tag holds, then CTR
   decrypt — which is total, there is no padding to fail on — and the
   inner parse. Every failure past the window check collapses into the
   single [Bad_record]: a tampered tag, a tampered ciphertext and a
   garbled inner frame are indistinguishable to anyone watching the
   prover, so the reject channel has no padding-oracle shape. *)
let open_record peer ~seq ~ct ~tag =
  match Window.check peer.p_window seq with
  | Window.Replayed -> Error Replayed
  | Window.Stale -> Error Stale
  | Window.Fresh ->
    if not (C.Cmac.verify peer.p_recv.k_mac ~msg:(rec_mac_body ~seq ct) ~tag) then
      Error Bad_record
    else begin
      ignore (Window.accept peer.p_window seq);
      let pt = C.Block_mode.ctr_crypt peer.p_recv.k_enc ~nonce:(u64_be seq) ct in
      if String.length pt = 0 then Error Bad_record
      else
        match pt.[0] with
        | 'M' -> (
          match Message.wire_of_bytes (String.sub pt 1 (String.length pt - 1)) with
          | Some w -> Ok (Msg w)
          | None -> Error Bad_record)
        | 'C' when String.length pt = 1 -> Ok Close
        | 'A' when String.length pt = 1 -> Ok Close_ack
        | _ -> Error Bad_record
    end

(* ---- metrics (handles precreated at module init) ---------------------- *)

module M = struct
  open Ra_obs.Registry

  let hs result = Counter.get ~labels:[ ("result", result) ] "ra_secure_handshakes_total"
  let hs_established = hs "established"
  let hs_refused = hs "refused"
  let hs_rejected = hs "rejected"

  let record result = Counter.get ~labels:[ ("result", result) ] "ra_secure_records_total"
  let rec_accepted = record "accepted"
  let rec_bad = record "bad_record"
  let rec_replayed = record "replayed"
  let rec_stale = record "stale"

  let count_round = Session.Machine.verdict_counter "ra_secure_rounds_total"
end

type stats = {
  mutable s_established : int;
  mutable s_hs_rejected : int; (* bind / report / fin verification failures *)
  mutable s_refused : int; (* handshake report said untrusted: session refused *)
  mutable s_accepted : int; (* records opened successfully *)
  mutable s_bad_record : int; (* the uniform decrypt-side reject *)
  mutable s_replayed : int; (* window hit: sequence number already seen *)
  mutable s_stale : int; (* sequence number fell off the window's left edge *)
}

let stats_zero () =
  { s_established = 0; s_hs_rejected = 0; s_refused = 0; s_accepted = 0;
    s_bad_record = 0; s_replayed = 0; s_stale = 0 }

(* The one place a record rejection is turned into observable behavior;
   both endpoints route through it, so tampered-tag and tampered-payload
   rejects are literally the same code path. *)
let count_open_error stats trace = function
  | Bad_record ->
    stats.s_bad_record <- stats.s_bad_record + 1;
    Ra_obs.Registry.Counter.inc M.rec_bad;
    Trace.causal_instant trace ~cat:"secure"
      ~labels:[ ("reason", Verdict.Reason.label Verdict.Reason.Bad_record) ]
      "secure.record_reject"
  | Replayed ->
    stats.s_replayed <- stats.s_replayed + 1;
    Ra_obs.Registry.Counter.inc M.rec_replayed;
    Trace.causal_instant trace ~cat:"secure"
      ~labels:[ ("reason", "replayed") ]
      "secure.record_reject"
  | Stale ->
    stats.s_stale <- stats.s_stale + 1;
    Ra_obs.Registry.Counter.inc M.rec_stale;
    Trace.causal_instant trace ~cat:"secure"
      ~labels:[ ("reason", "stale") ]
      "secure.record_reject"

(* ---- responder (prover side) ------------------------------------------ *)

type responder = {
  r_session : Session.t;
  r_stats : stats;
  r_drbg : C.Drbg.t;
  mutable r_handle : string Channel.Endpoint.handle option;
  mutable r_peer : peer option;
  mutable r_confirmed : bool; (* Hs_fin verified (records also confirm) *)
  mutable r_closed : bool;
}

let responder_stats r = r.r_stats
let confirmed r = r.r_confirmed
let responder_session_up r = r.r_peer <> None

let teardown_responder r =
  (match r.r_handle with Some h -> Channel.Endpoint.detach h | None -> ());
  r.r_handle <- None;
  r.r_peer <- None

let listen session =
  let r =
    {
      r_session = session;
      r_stats = stats_zero ();
      (* seeded from the shared key: deterministic under seed, and fleet
         members diverge through their impairment seeds, not here *)
      r_drbg =
        C.Drbg.create ~personalization:"secure-session responder"
          ~seed:(Session.sym_key session) ();
      r_handle = None;
      r_peer = None;
      r_confirmed = false;
      r_closed = false;
    }
  in
  let trace = Session.trace session in
  let sym_key = Session.sym_key session in
  let handle =
    Channel.Endpoint.attach (Session.channel session) Channel.Prover_side (fun frame ->
        Session.prover_radio session ~bytes:(String.length frame);
        match Message.wire_of_bytes frame with
        | None -> ()
        | Some (Message.Hs_init { hs_nonce = _; hs_req }) -> (
          (* A fresh handshake, or an initiator retry. The embedded
             request goes through the {e full} one-shot anchor path —
             request authentication plus strict freshness — so a replayed
             Hs_init dies in the anchor's freshness cell, before any
             session state exists. *)
          match
            Session.prover_step session ~cat:"secure" ~ok:"attested" "secure.hs.attest"
              (fun () ->
                Code_attest.handle_request (Session.anchor session) hs_req)
          with
          | Error _ -> ()
          | Ok report ->
            let hs_rnonce = C.Drbg.generate r.r_drbg 16 in
            (* bind covers the response core (report + nonce) so the
               initiator authenticates the report before trusting it;
               the full hash — bind included — keys the channel *)
            let core =
              Message.wire_to_bytes
                (Message.Hs_resp { hs_rnonce; hs_report = report; hs_bind = "" })
            in
            let th_core = transcript_hash ~init:frame ~resp:core in
            let hs_bind = bind_tag ~sym_key ~th:th_core in
            let full = Message.Hs_resp { hs_rnonce; hs_report = report; hs_bind } in
            let th = transcript_hash ~init:frame ~resp:(Message.wire_to_bytes full) in
            r.r_peer <- Some (derive_peer ~sym_key ~th `Responder);
            r.r_confirmed <- false;
            r.r_closed <- false;
            Session.prover_send session full)
        | Some (Message.Hs_fin { fin_tag }) -> (
          match r.r_peer with
          | None -> ()
          | Some peer ->
            if C.Hexutil.equal_ct (fin_tag_of ~fin_key:peer.p_fin_key ~th:peer.p_th) fin_tag
            then r.r_confirmed <- true
            else begin
              r.r_stats.s_hs_rejected <- r.r_stats.s_hs_rejected + 1;
              Ra_obs.Registry.Counter.inc M.hs_rejected;
              r.r_peer <- None
            end)
        | Some (Message.Record { rec_seq; rec_ct; rec_tag }) -> (
          match r.r_peer with
          | None -> ()
          | Some peer -> (
            match open_record peer ~seq:rec_seq ~ct:rec_ct ~tag:rec_tag with
            | Error e -> count_open_error r.r_stats trace e
            | Ok opened -> (
              r.r_stats.s_accepted <- r.r_stats.s_accepted + 1;
              Ra_obs.Registry.Counter.inc M.rec_accepted;
              (* a valid record is implicit key confirmation: a lost
                 Hs_fin never wedges the session *)
              r.r_confirmed <- true;
              match opened with
              | Msg (Message.Request req) -> (
                match
                  Session.prover_step session ~cat:"secure" ~ok:"attested"
                    "secure.record.attest" (fun () ->
                      Code_attest.handle_channel_request (Session.anchor session) req)
                with
                | Ok resp ->
                  Session.prover_send session
                    (seal peer (inner_msg (Message.Response resp)))
                | Error _ -> ())
              | Close ->
                (* acknowledge, then detach — from {e inside} this very
                   receive callback: the endpoint re-entrancy contract
                   (frame never re-dispatched, later frames fall through
                   to the handler below) is what makes this teardown
                   shape safe *)
                Session.prover_send session (seal peer inner_close_ack);
                r.r_closed <- true;
                teardown_responder r
              | Close_ack | Msg _ -> ())))
        | Some
            ( Message.Request _ | Message.Response _ | Message.Sync_request _
            | Message.Sync_response _ | Message.Service_request _
            | Message.Service_ack _ | Message.Hs_resp _ ) ->
          ())
  in
  r.r_handle <- Some handle;
  r

(* ---- initiator (verifier side) ---------------------------------------- *)

type istate =
  | Connecting of { init_frame : string; hs_req : Message.attreq }
  | Established of peer
  | Refused of Verdict.t (* report failed: fail fast, no retry *)
  | Closed

type initiator = {
  i_session : Session.t;
  i_stats : stats;
  i_pending : (string, Message.attreq) Hashtbl.t; (* challenge -> request *)
  mutable i_handle : string Channel.Endpoint.handle option;
  mutable i_state : istate;
  i_verdicts : Verdict.t Verdict.Log.t;
  mutable i_close_acked : bool;
}

let initiator_stats i = i.i_stats
let verdict_count i = Verdict.Log.length i.i_verdicts
let session_verdicts i = Verdict.Log.to_list i.i_verdicts
let established i = match i.i_state with Established _ -> true | _ -> false
let closed i = match i.i_state with Closed -> true | _ -> false
let close_acked i = i.i_close_acked

let handshake_send i =
  let verifier = Session.verifier i.i_session in
  let hs_req = Verifier.make_request verifier in
  let hs_nonce = Verifier.session_nonce verifier in
  let frame = Message.wire_to_bytes (Message.Hs_init { hs_nonce; hs_req }) in
  i.i_state <- Connecting { init_frame = frame; hs_req };
  Channel.send (Session.channel i.i_session) ~src:Channel.Verifier_side frame

let teardown_initiator i =
  (match i.i_handle with Some h -> Channel.Endpoint.detach h | None -> ());
  i.i_handle <- None;
  match i.i_state with
  | Established _ | Connecting _ -> i.i_state <- Closed
  | Refused _ | Closed -> ()

let connect session =
  let i =
    {
      i_session = session;
      i_stats = stats_zero ();
      i_pending = Hashtbl.create 8;
      i_handle = None;
      i_state = Closed;
      i_verdicts = Verdict.Log.create ();
      i_close_acked = false;
    }
  in
  let trace = Session.trace session in
  let sym_key = Session.sym_key session in
  let verifier = Session.verifier session in
  let handle =
    Channel.Endpoint.attach (Session.channel session) Channel.Verifier_side (fun frame ->
        match Message.wire_of_bytes frame with
        | None -> ()
        | Some (Message.Hs_resp { hs_rnonce; hs_report; hs_bind }) -> (
          match i.i_state with
          | Connecting { init_frame; hs_req } ->
            (* recompute the bind over {e our} view of the transcript: a
               substituted or cross-attempt Hs_init/Hs_resp desyncs the
               hashes and dies here *)
            let core =
              Message.wire_to_bytes
                (Message.Hs_resp { hs_rnonce; hs_report; hs_bind = "" })
            in
            let th_core = transcript_hash ~init:init_frame ~resp:core in
            if not (C.Hexutil.equal_ct (bind_tag ~sym_key ~th:th_core) hs_bind) then begin
              i.i_stats.s_hs_rejected <- i.i_stats.s_hs_rejected + 1;
              Ra_obs.Registry.Counter.inc M.hs_rejected
            end
            else (
              match Verifier.check_response verifier ~request:hs_req hs_report with
              | Verdict.Trusted ->
                let th = transcript_hash ~init:init_frame ~resp:frame in
                let peer = derive_peer ~sym_key ~th `Initiator in
                i.i_state <- Established peer;
                i.i_stats.s_established <- i.i_stats.s_established + 1;
                Ra_obs.Registry.Counter.inc M.hs_established;
                Trace.causal_instant trace ~cat:"secure" "secure.established";
                Channel.send (Session.channel session) ~src:Channel.Verifier_side
                  (Message.wire_to_bytes
                     (Message.Hs_fin
                        { fin_tag = fin_tag_of ~fin_key:peer.p_fin_key ~th }))
              | Verdict.Untrusted_state ->
                (* authentic report, wrong memory: retrying cannot help,
                   so the session is refused outright *)
                i.i_state <- Refused Verdict.Untrusted_state;
                i.i_stats.s_refused <- i.i_stats.s_refused + 1;
                Ra_obs.Registry.Counter.inc M.hs_refused
              | _ ->
                (* echo mismatch — usually a response to an earlier
                   retry attempt; reject and keep waiting *)
                i.i_stats.s_hs_rejected <- i.i_stats.s_hs_rejected + 1;
                Ra_obs.Registry.Counter.inc M.hs_rejected)
          | Established _ | Refused _ | Closed -> ())
        | Some (Message.Record { rec_seq; rec_ct; rec_tag }) -> (
          match i.i_state with
          | Established peer -> (
            match open_record peer ~seq:rec_seq ~ct:rec_ct ~tag:rec_tag with
            | Error e -> count_open_error i.i_stats trace e
            | Ok opened -> (
              i.i_stats.s_accepted <- i.i_stats.s_accepted + 1;
              Ra_obs.Registry.Counter.inc M.rec_accepted;
              match opened with
              | Msg (Message.Response resp) -> (
                match Hashtbl.find_opt i.i_pending resp.Message.echo_challenge with
                | None -> ()
                | Some req ->
                  Hashtbl.remove i.i_pending resp.Message.echo_challenge;
                  let verdict =
                    Trace.causal_span trace ~cat:"secure" "secure.check" (fun () ->
                        Verifier.check_response verifier ~request:req resp)
                  in
                  Verdict.Log.add i.i_verdicts (Simtime.now (Session.time session)) verdict;
                  Trace.causal_instant trace ~cat:"secure"
                    ~labels:[ ("verdict", Verdict.label verdict) ]
                    "secure.verdict")
              | Close_ack ->
                i.i_close_acked <- true;
                teardown_initiator i
              | Close | Msg _ -> ()))
          | Connecting _ | Refused _ | Closed -> ())
        | Some
            ( Message.Request _ | Message.Response _ | Message.Sync_request _
            | Message.Sync_response _ | Message.Service_request _
            | Message.Service_ack _ | Message.Hs_init _ | Message.Hs_fin _ ) ->
          ())
  in
  i.i_handle <- Some handle;
  i

let request_round i =
  match i.i_state with
  | Established peer ->
    let req = Verifier.make_session_request (Session.verifier i.i_session) in
    Hashtbl.replace i.i_pending req.Message.challenge req;
    Channel.send (Session.channel i.i_session) ~src:Channel.Verifier_side
      (Message.wire_to_bytes (seal peer (inner_msg (Message.Request req))));
    true
  | Connecting _ | Refused _ | Closed -> false

let close_begin i =
  match i.i_state with
  | Established peer ->
    Channel.send (Session.channel i.i_session) ~src:Channel.Verifier_side
      (Message.wire_to_bytes (seal peer inner_close));
    true
  | Connecting _ | Refused _ | Closed -> false

(* ---- the session round machine ---------------------------------------- *)

(* Fixed jitter seed, one stream per round — unlike [Session]'s
   per-session retry PRNG; per-member divergence comes from impairment
   seeds. *)
let jitter_seed = 0x5EC5E551L

(* Handshake phase, one phase per streamed record, then a best-effort
   close — each phase is [Session.Machine.phase], so retry, reply
   windows, waits and tracing are the one-shot round's own machinery.
   The callbacks close over this round's endpoints; the machine record
   holds everything else. *)
let round_begin ?(policy = Retry.default) ?(records = 4) t =
  if records < 0 then invalid_arg "Secure_session.round_begin: records < 0";
  let m =
    Session.Machine.start ~policy ~prng:(C.Prng.create jitter_seed) ~root:"secure.session" t
  in
  (* the machine reads a phase label only with a tracer, which it took
     when the round started *)
  let traced = Option.is_some (Session.tracing t) in
  let responder = listen t in
  let initiator = connect t in
  (* r_attempts counts transmissions across all phases *)
  let sends = ref 0 in
  let flight send _ =
    incr sends;
    send ()
  in
  let finish verdict =
    teardown_initiator initiator;
    teardown_responder responder;
    Session.Machine.finish m ~count:M.count_round ~attempts:!sends verdict
  in
  let timed_out _ =
    finish
      (Verdict.Timed_out { attempts = !sends; waited_s = Session.Machine.elapsed m })
  in
  (* close is best-effort: one flight, pump, done — a lost close frame
     must not wedge a session whose verdict is already decided, and
     [finish] force-detaches both endpoints regardless *)
  let close verdict =
    if close_begin initiator then begin
      incr sends;
      Session.Machine.pump m (fun _ -> initiator.i_close_acked)
    end;
    finish verdict
  in
  let rec stream r =
    if r > records then close Verdict.Trusted
    else begin
      let before = verdict_count initiator in
      Session.Machine.phase m
        ~phase:(if traced then Printf.sprintf "record %d/%d" r records else "")
        ~send:(flight (fun () -> ignore (request_round initiator)))
        ~done_:(fun _ -> verdict_count initiator > before)
        ~give_up:timed_out
        ~next:(fun _ ->
          match Verdict.Log.last initiator.i_verdicts with
          | Verdict.Trusted -> stream (r + 1)
          | v ->
            (* a non-trusted in-session verdict decides the whole round:
               the session's device state is what it is *)
            close v)
    end
  in
  Session.Machine.phase m ~phase:"handshake"
    ~send:(flight (fun () -> handshake_send initiator))
    ~done_:(fun _ -> match initiator.i_state with Connecting _ -> false | _ -> true)
    ~give_up:timed_out
    ~next:(fun m ->
      match initiator.i_state with
      | Refused v -> finish v
      | Established _ -> stream 1
      | Connecting _ | Closed -> timed_out m)

let run ?policy ?records t = Session.drive_round (round_begin ?policy ?records t)

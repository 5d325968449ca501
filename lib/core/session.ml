module Simtime = Ra_net.Simtime
module Trace = Ra_net.Trace
module Channel = Ra_net.Channel
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu

type t = {
  time : Simtime.t;
  trace : Trace.t;
  channel : string Channel.t;
  verifier : Verifier.t;
  prover : Architecture.prover;
  clock_sync : Clock_sync.t option;
  service : Service.t;
  sym_key : string;
  pending : (string, Message.attreq) Hashtbl.t; (* challenge -> request *)
  verdicts : Verdict.t Verdict.Log.t;
  retry_prng : Ra_crypto.Prng.t; (* jitter draws for the retry engine *)
  mutable sync_counter : int64;
  mutable sync_acks : int;
  mutable service_counter : int64;
  mutable service_request : Service.request option; (* the open round's *)
  mutable service_acks : int;
  mutable profiler : Ra_obs.Profiler.t option;
  mutable profile_device : string;
  mutable in_flight : bool; (* a retry round is awaiting its verdict *)
  mutable round_challenges : string list; (* sent by the open round *)
}

let default_sym_key = "K_attest_0123456789." (* 20 bytes *)

let freshness_kind_of_policy = function
  | Freshness.No_freshness -> Verifier.Fk_none
  | Freshness.Nonce_history _ -> Verifier.Fk_nonce
  | Freshness.Counter -> Verifier.Fk_counter
  | Freshness.Timestamp _ -> Verifier.Fk_timestamp

(* Phase attribution is out-of-band: one option match when profiling is
   off, and nothing here ever writes device or wire state. *)
let profile_phase t phase ~cycles ~nj =
  match t.profiler with
  | None -> ()
  | Some p ->
    let trace_id = Option.bind (Trace.tracer t.trace) Ra_obs.Trace.current_trace_id in
    Ra_obs.Profiler.Phases.record p.Ra_obs.Profiler.phases
      {
        Ra_obs.Profiler.ps_at = Simtime.now t.time;
        ps_trace_id = trace_id;
        ps_device = t.profile_device;
        ps_phase = phase;
        ps_cycles = cycles;
        ps_nj = nj;
      }

let prover_radio t ~bytes =
  let energy = Device.energy t.prover.Architecture.device in
  Ra_mcu.Energy.consume_radio energy ~bytes;
  match t.profiler with
  | None -> ()
  | Some _ ->
    profile_phase t "radio" ~cycles:0L
      ~nj:(float_of_int bytes *. Ra_mcu.Energy.radio_uj_per_byte energy *. 1e3)

let prover_send t wire =
  let frame = Message.wire_to_bytes wire in
  prover_radio t ~bytes:(String.length frame);
  Channel.send t.channel ~src:Channel.Prover_side frame

let prover_step t ~cat ~ok ?reply name handle =
  Trace.causal_span t.trace ~cat name (fun () ->
      let cpu = Device.cpu t.prover.Architecture.device in
      let before = Cpu.elapsed_seconds cpu in
      (* the span closes after Simtime catches up with the consumed
         cycles, so its duration equals the handler's simulated work *)
      let span = Ra_obs.Span.enter (Trace.spans t.trace) name in
      let result = handle () in
      Simtime.advance_by t.time (Cpu.elapsed_seconds cpu -. before);
      let label = match result with Ok _ -> ok | Error v -> Verdict.label v in
      Ra_obs.Span.exit (Trace.spans t.trace) ~labels:[ ("result", label) ] span;
      (match reply with
      | None -> ()
      | Some reply ->
        Trace.causal_instant t.trace ~cat ~labels:[ ("result", label) ] "prover.result";
        Result.iter (fun v -> prover_send t (reply v)) result);
      result)

let create ?(spec = Architecture.trustlite_base) ?(sym_key = default_sym_key)
    ?(ram_seed = 42L) ?ram_size () =
  let time = Simtime.create () in
  let trace = Trace.create time in
  let channel = Channel.create time trace in
  (* The verifier needs its ECDSA public key inside the prover's blob, so
     build the verifier first with a placeholder reference image. *)
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ?scheme:spec.Architecture.scheme
           ~freshness_kind:(freshness_kind_of_policy spec.Architecture.policy)
           ~sym_key ~time ())
    with
    | Ok v -> v
    | Error msg -> invalid_arg ("Session.create: " ^ msg)
  in
  let prover =
    Architecture.build ~ram_seed ?ram_size
      ~key_blob:(Verifier.prover_key_blob verifier)
      spec
  in
  (* a pristine RAM measures as the RAM-fill memo's image: the verifier
     holds that string, not a copy per world *)
  let image = Code_attest.measure_memory prover.Architecture.device in
  let pristine = Device.pristine_ram prover.Architecture.device ~seed:ram_seed in
  Verifier.set_reference_image verifier (if String.equal image pristine then pristine else image);
  let clock_sync =
    match Ra_mcu.Device.clock prover.Architecture.device with
    | Some _ -> Some (Clock_sync.install prover.Architecture.device)
    | None -> None
  in
  let service =
    Service.install prover.Architecture.device ~scheme:spec.Architecture.scheme
      ~policy:Freshness.Counter
  in
  (* the world is built: its pages become this domain's shared genesis,
     and a later write copies only the page it changes *)
  Ra_mcu.Memory.share (Device.memory prover.Architecture.device);
  let t =
    {
      time;
      trace;
      channel;
      verifier;
      prover;
      clock_sync;
      service;
      sym_key;
      pending = Hashtbl.create 8;
      verdicts = Verdict.Log.create ();
      retry_prng = Ra_crypto.Prng.create 0x5e551017L;
      sync_counter = 0L;
      sync_acks = 0;
      service_counter = 0L;
      service_request = None;
      service_acks = 0;
      profiler = None;
      profile_device = "prover";
      in_flight = false;
      round_challenges = [];
    }
  in
  (* Prover side: parse the frame (total parser -- malformed input is
     dropped, the radio cost is still paid), run the trust anchor, keep
     wall time in lock-step with consumed device cycles, answer on the
     wire. *)
  let (_ : string Channel.Endpoint.handle) =
    Channel.Endpoint.attach channel Channel.Prover_side (fun frame ->
      (* the radio burns energy on every received frame, bogus or not;
         the encoding is canonical, so a parsed frame's length is also
         its value's wire size *)
      prover_radio t ~bytes:(String.length frame);
      match Message.wire_of_bytes frame with
      | None -> ()
      | Some wire ->
      match wire with
      | Message.Request req ->
        ignore
          (prover_step t ~cat:"prover" ~ok:"attested" "prover.attest"
             ~reply:(fun resp -> Message.Response resp)
             (fun () -> Code_attest.handle_request prover.Architecture.anchor req))
      | Message.Sync_request _ as sync_req ->
        Option.iter
          (fun sync ->
            ignore
              (prover_step t ~cat:"prover" ~ok:"synced" "prover.sync" ~reply:Fun.id
                 (fun () -> Clock_sync.handle sync sync_req)))
          t.clock_sync
      | Message.Service_request _ as svc_frame ->
        Option.iter
          (fun svc_req ->
            ignore
              (prover_step t ~cat:"prover" ~ok:"executed" "prover.service"
                 ~reply:Fun.id
                 (fun () -> Service.handle t.service svc_req)))
          (Service.request_of_wire svc_frame)
      | Message.Sync_response _ | Message.Response _ | Message.Service_ack _
      | Message.Hs_init _ | Message.Hs_resp _ | Message.Hs_fin _
      | Message.Record _ ->
        (* session frames are handled by the Secure_session endpoint
           attached above this one; reaching here means no session is
           listening *)
        ())
  in
  let (_ : string Channel.Endpoint.handle) =
    Channel.Endpoint.attach channel Channel.Verifier_side (fun frame ->
      match Message.wire_of_bytes frame with
      | None -> ()
      | Some wire ->
      match wire with
      | Message.Response resp ->
        (match Hashtbl.find_opt t.pending resp.Message.echo_challenge with
        | None -> ()
        | Some req ->
          Hashtbl.remove t.pending resp.Message.echo_challenge;
          let verdict =
            Trace.causal_span trace ~cat:"verifier" "verifier.check" (fun () ->
                Verifier.check_response verifier ~request:req resp)
          in
          Verdict.Log.add t.verdicts (Simtime.now time) verdict;
          Trace.causal_instant trace ~cat:"verifier"
            ~labels:[ ("verdict", Verdict.label verdict) ]
            "verifier.verdict")
      | Message.Sync_response _ as ack ->
        if Clock_sync.check_sync_ack ~sym_key:t.sym_key ~counter:t.sync_counter ack then
          t.sync_acks <- t.sync_acks + 1
      | Message.Service_ack _ as ack ->
        (match t.service_request with
        | Some req when Service.check_ack ~sym_key:t.sym_key req ack ->
          t.service_request <- None;
          t.service_acks <- t.service_acks + 1
        | Some _ | None -> ())
      | Message.Request _ | Message.Sync_request _ | Message.Service_request _
      | Message.Hs_init _ | Message.Hs_resp _ | Message.Hs_fin _
      | Message.Record _ ->
        ())
  in
  (* Permanent out-of-band observers over the anchor's CPU-clocked spans
     and the CPU's idle advances. Both the causal-trace mirror and the
     profiler phase attribution live behind one dispatcher installed
     here, so enabling tracing and profiling compose in either order.
     Each costs one option match when its consumer is off. *)
  let cpu = Device.cpu prover.Architecture.device in
  let energy = Device.energy prover.Architecture.device in
  let hz = float_of_int (Cpu.clock_hz cpu) in
  let nj_per_cycle = Ra_mcu.Energy.active_nj_per_cycle energy in
  let sleep_uw = Ra_mcu.Energy.sleep_microwatt energy in
  (* CPU-clocked sub-step spans (anchor.auth, anchor.freshness, anchor.mac
     and the service ones) mirror into the causal timeline as instants at
     the current simulated time carrying the work as a cpu_ms label —
     their clock is prover CPU work, not Simtime, and mixing the two
     timebases as span bounds would skew the timeline. *)
  let mirror cat (f : Ra_obs.Span.finished) =
    match Trace.tracer t.trace with
    | None -> ()
    | Some tracer ->
      Ra_obs.Trace.instant tracer ~cat
        ~labels:
          (("cpu_ms", Printf.sprintf "%.4f" (Ra_obs.Span.duration_ms f))
          :: f.Ra_obs.Span.f_labels)
        f.Ra_obs.Span.f_name
  in
  Ra_obs.Span.on_finish (Code_attest.spans prover.Architecture.anchor) (fun f ->
      mirror "prover" f;
      match t.profiler with
      | None -> ()
      | Some _ ->
        (* f_start/f_stop are Cpu.elapsed_seconds values (= cycles / hz),
           so the rounding recovers the exact integer cycle count. *)
        let cycles =
          Int64.of_float
            (Float.round ((f.Ra_obs.Span.f_stop -. f.Ra_obs.Span.f_start) *. hz))
        in
        let phase =
          let n = f.Ra_obs.Span.f_name in
          if String.length n > 7 && String.sub n 0 7 = "anchor." then
            String.sub n 7 (String.length n - 7)
          else n
        in
        profile_phase t phase ~cycles ~nj:(Int64.to_float cycles *. nj_per_cycle));
  Ra_obs.Span.on_finish (Service.spans service) (mirror "service");
  (* Channel wait: idle cycles spent inside a retry round (reply windows,
     backoff) are the paper's "device waits on the radio" share. Idle
     advances outside a round — fleet stagger, inter-round gaps — are not
     attributed. *)
  Cpu.on_advance cpu (fun _ delta kind ->
      match (kind, t.profiler) with
      | Cpu.Idle, Some _ when t.in_flight ->
        let seconds = Int64.to_float delta /. hz in
        profile_phase t "wait" ~cycles:delta ~nj:(seconds *. sleep_uw *. 1e3)
      | _ -> ());
  t

let time t = t.time
let trace t = t.trace
let channel t = t.channel
let verifier t = t.verifier
let anchor t = t.prover.Architecture.anchor
let device t = t.prover.Architecture.device
let service t = t.service
let sym_key t = t.sym_key
let verdicts t = Verdict.Log.to_list t.verdicts

let send_request t =
  let req = Verifier.make_request t.verifier in
  Hashtbl.replace t.pending req.Message.challenge req;
  Channel.send t.channel ~src:Channel.Verifier_side
    (Message.wire_to_bytes (Message.Request req));
  req

let deliver_frame_to_prover t ~origin frame =
  Channel.deliver t.channel ~origin ~dst:Channel.Prover_side frame

let deliver_to_prover t ~origin req =
  deliver_frame_to_prover t ~origin (Message.wire_to_bytes (Message.Request req))

let deliver_next_to_prover t = Channel.forward_next t.channel ~dst:Channel.Prover_side

let deliver_next_to_verifier t =
  Channel.forward_next t.channel ~dst:Channel.Verifier_side

(* A one-shot round under the registry span [name]: [send] puts one
   request on the wire, the prover handles the next frame, then the
   prover->verifier direction drains until [count] moves or the wire is
   empty — under a DoS flood a benign reply queues behind the attacker's
   junk. True when [count] moved. *)
let one_shot t ?labels name ~count send =
  Trace.with_span t.trace ?labels name (fun () ->
      let before = count () in
      send ();
      let _ = deliver_next_to_prover t in
      let rec drain () =
        if count () = before && deliver_next_to_verifier t then drain ()
      in
      drain ();
      count () > before)

let attest_round t =
  if one_shot t "attest.round" ~count:(fun () -> Verdict.Log.length t.verdicts) (fun () ->
         ignore (send_request t))
  then Some (Verdict.Log.last t.verdicts)
  else None

let sync_round t =
  one_shot t "sync.round" ~count:(fun () -> t.sync_acks) (fun () ->
      t.sync_counter <- Int64.add t.sync_counter 1L;
      Channel.send t.channel ~src:Channel.Verifier_side
        (Message.wire_to_bytes
           (Clock_sync.make_sync_request ~sym_key:t.sym_key ~time:t.time
              ~counter:t.sync_counter)))

let service_round t command =
  let acked =
    one_shot t
      ~labels:[ ("command", Service.command_name command) ]
      "service.round"
      ~count:(fun () -> t.service_acks)
      (fun () ->
        t.service_counter <- Int64.add t.service_counter 1L;
        let req =
          Service.make_request ~sym_key:t.sym_key ~scheme:(Verifier.scheme t.verifier)
            ~freshness:(Message.F_counter t.service_counter)
            command
        in
        t.service_request <- Some req;
        Channel.send t.channel ~src:Channel.Verifier_side
          (Message.wire_to_bytes (Service.request_to_wire req)))
  in
  t.service_request <- None;
  acked

let prover_wall_ms t =
  match t.clock_sync with None -> 0L | Some sync -> Clock_sync.now_ms sync

let advance_time t ~seconds =
  Simtime.advance_by t.time seconds;
  Device.idle t.prover.Architecture.device ~seconds

(* ---- impaired channel + retry engine ---- *)

let set_impairment t imp =
  match imp with
  | None -> Channel.set_impairment t.channel None
  | Some _ -> Channel.set_impairment t.channel ~mangle:Channel.mangle_string imp

type round = { r_verdict : Verdict.t; r_attempts : int; r_elapsed_s : float }


(* ---- causal tracing -------------------------------------------------- *)

let tracing t = Trace.tracer t.trace

let enable_tracing ?capacity ?max_events ?(device = "prover") t =
  let tracer =
    Ra_obs.Trace.create ?capacity ?max_events ~device
      ~clock:(fun () -> Simtime.now t.time)
      ()
  in
  Trace.set_tracer t.trace (Some tracer);
  (* The CPU-clocked sub-step spans are mirrored into the causal timeline
     by the permanent dispatcher installed at [create]; nothing to hook
     here. *)
  tracer

let disable_tracing t = Trace.set_tracer t.trace None

(* ---- cycle/energy phase profiling ------------------------------------ *)

let profiling t = t.profiler

let enable_profiling ?capacity ?(device = "prover") t =
  let p = Ra_obs.Profiler.create ?capacity () in
  t.profile_device <- device;
  t.profiler <- Some p;
  p

(* The round is a resumable machine: it runs until it either has a
   verdict or needs simulated time to pass, and in the latter case it
   yields a [Round_wait] instead of advancing the clock itself. The
   sequential driver ([drive_round]) resumes immediately; the fleet's
   event engine enqueues the resume at [now + wait_s]. [resume] performs
   the [advance_time] itself, so both drivers execute literally the same
   sequence of operations on the session. *)
type step =
  | Round_done of round
  | Round_wait of { wait_s : float; resume : unit -> step }

module Machine = struct
  type session = t

  (* per-verdict round counters, precreated: one atomic add per round *)
  let verdict_counter name =
    let handles =
      List.map
        (fun v -> (v, Ra_obs.Registry.Counter.get ~labels:[ ("verdict", v) ] name))
        [
          "trusted";
          "untrusted_state";
          "invalid_response";
          "bad_auth";
          "not_fresh";
          "fault";
          "timed_out";
        ]
    in
    fun verdict ->
      Ra_obs.Registry.Counter.inc (List.assoc (Verdict.label verdict) handles)

  (* The causal-trace side of a round, built only when a tracer is
     attached: the current phase's label and the attempt and backoff
     spans open across a wait. *)
  type traced = {
    tracer : Ra_obs.Trace.t;
    mutable phase : string;
    mutable attempt_sp : Ra_obs.Trace.span option;
    mutable backoff_sp : Ra_obs.Trace.span option;
  }

  (* A round's whole state is this record: a waiting round holds only it,
     its root span and the resume closure of its open wait. The round
     started when the root span opened. The current phase's callbacks
     take the record, so a caller's callbacks can be top-level functions
     that read [mark] and [attempt]. *)
  type t = {
    session : session;
    policy : Retry.policy;
    prng : Ra_crypto.Prng.t;
    root : Ra_obs.Span.span;
    traced : traced option;
    mutable mark : int; (* the caller's own: the attest round's verdicts before it *)
    mutable send : t -> unit;
    mutable done_ : t -> bool;
    mutable give_up : t -> step;
    mutable next : t -> step;
    mutable attempt : int;
    mutable rest : float; (* the open wait's seconds *)
    mutable wait : int; (* the open wait's number, or minus the last one's *)
  }

  let no_phase (_ : t) = invalid_arg "Session.Machine: no phase"

  let start ~policy ~prng ~root (session : session) =
    Retry.validate policy;
    session.in_flight <- true;
    let traced =
      match Trace.tracer session.trace with
      | None -> None
      | Some tracer ->
        ignore (Ra_obs.Trace.begin_round tracer);
        Some { tracer; phase = ""; attempt_sp = None; backoff_sp = None }
    in
    (* the machine spans suspensions, so the root span is opened and
       closed by hand *)
    let root = Ra_obs.Span.enter (Trace.spans session.trace) root in
    {
      session;
      policy;
      prng;
      root;
      traced;
      mark = 0;
      send = no_phase;
      done_ = no_phase;
      give_up = no_phase;
      next = no_phase;
      attempt = 0;
      rest = 0.0;
      wait = 0;
    }

  let elapsed m = Simtime.now m.session.time -. Ra_obs.Span.start m.root

  let finish m ~count ~attempts verdict =
    let t = m.session in
    t.in_flight <- false;
    count verdict;
    (match m.traced with
    | Some { tracer; _ } ->
      (* the final verdict instant hangs off the round root, after the
         last attempt span has closed *)
      Trace.causal_instant t.trace ~cat:"verdict"
        ~labels:[ ("verdict", Verdict.label verdict) ]
        "verdict";
      Ra_obs.Trace.end_round tracer ~verdict:(Verdict.label verdict) ~attempts
    | None -> ());
    let r = { r_verdict = verdict; r_attempts = attempts; r_elapsed_s = elapsed m } in
    Ra_obs.Span.exit (Trace.spans t.trace) m.root;
    Round_done r

  (* Pump both directions until [done_] holds or the wire goes quiet.
     In-flight traffic is always processed — the reply window only
     governs how long the device idles once nothing is moving. A step cap
     keeps this total under pathological impairments (reorder
     probability 1 ping-pongs two messages forever). *)
  let rec pump_from m done_ steps =
    if not (done_ m) then begin
      let fwd = deliver_next_to_prover m.session in
      let back = deliver_next_to_verifier m.session in
      if (not (done_ m)) && (fwd || back) && steps < 100_000 then pump_from m done_ (steps + 1)
    end

  let pump m done_ = pump_from m done_ 0

  let close ?labels tr = function
    | Some sp -> Ra_obs.Trace.finish_span tr.tracer ?labels sp
    | None -> ()

  (* The function a wait's resume closure calls, defined below: reached
     through this cell, so the closure captures only the record and the
     wait's number. *)
  let resume_wait : (t -> int -> step) ref = ref (fun _ _ -> assert false)

  let rec attempt m n =
    let t = m.session in
    m.attempt <- n;
    (* A fresh flight per attempt — never a byte-identical
       retransmission. The freshness counter/timestamp (or record
       sequence number) advances with every attempt, so a replay of any
       earlier transmission stays rejectable and the prover's cell is
       monotone across the whole retry schedule. *)
    (match m.traced with
    | None -> ()
    | Some tr ->
      tr.attempt_sp <-
        Some
          (Ra_obs.Trace.span tr.tracer ~cat:"retry"
             ~labels:[ ("attempt", string_of_int n); ("phase", tr.phase) ]
             "retry.attempt"));
    m.send m;
    let window = Retry.timeout_s m.policy ~attempt:n ~u:(Ra_crypto.Prng.float m.prng 1.0) in
    let deadline = Simtime.deadline t.time ~after:window in
    pump m m.done_;
    if m.done_ m then begin
      Option.iter (fun tr -> close ~labels:[ ("outcome", "done") ] tr tr.attempt_sp) m.traced;
      m.next m
    end
    else begin
      (* wire is quiet: the device idles away the rest of the reply
         window (battery drains while it waits) *)
      let rest = Simtime.remaining t.time deadline in
      if rest > 0.0 then begin
        (match m.traced with
        | None -> ()
        | Some tr ->
          tr.backoff_sp <-
            Some
              (Ra_obs.Trace.span tr.tracer ~cat:"retry"
                 ~labels:
                   [ ("attempt", string_of_int n); ("wait_s", Printf.sprintf "%.6f" rest) ]
                 "retry.backoff"));
        m.rest <- rest;
        let k = 1 + abs m.wait in
        m.wait <- k;
        Round_wait { wait_s = rest; resume = (fun () -> !resume_wait m k) }
      end
      else attempt_over m
    end

  and attempt_over m =
    Option.iter (fun tr -> close ~labels:[ ("outcome", "timeout") ] tr tr.attempt_sp) m.traced;
    if m.attempt < m.policy.Retry.max_attempts then attempt m (m.attempt + 1) else m.give_up m

  (* Wait [k] is over: only its own resume continues the round, once. *)
  let () =
    resume_wait :=
      fun m k ->
        if m.wait <> k then invalid_arg "Session.Machine: resume of a wait that is not open";
        m.wait <- -k;
        advance_time m.session ~seconds:m.rest;
        Option.iter (fun tr -> close tr tr.backoff_sp) m.traced;
        attempt_over m

  let phase m ~phase ~send ~done_ ~give_up ~next =
    (match m.traced with Some tr -> tr.phase <- phase | None -> ());
    m.send <- send;
    m.done_ <- done_;
    m.give_up <- give_up;
    m.next <- next;
    attempt m 1
end

(* A round's challenges retire when it finishes: a response that arrives
   later is ignored like any unknown one, and an attempt whose response
   was lost keeps no entry. *)
let retire_challenges t =
  List.iter (Hashtbl.remove t.pending) t.round_challenges;
  t.round_challenges <- []

let count_round = Machine.verdict_counter "ra_session_rounds_total"

(* The attest round's phase: top-level callbacks over the machine, whose
   [mark] holds the verdict count the round started from, so a round
   builds no closure until it waits. *)
let attest_send (m : Machine.t) =
  let t = m.Machine.session in
  t.round_challenges <- (send_request t).Message.challenge :: t.round_challenges

let attest_done (m : Machine.t) = Verdict.Log.length m.Machine.session.verdicts > m.Machine.mark

let attest_give_up (m : Machine.t) =
  let n = m.Machine.attempt in
  retire_challenges m.Machine.session;
  Machine.finish m ~count:count_round ~attempts:n
    (Verdict.Timed_out { attempts = n; waited_s = Machine.elapsed m })

let attest_next (m : Machine.t) =
  let t = m.Machine.session in
  retire_challenges t;
  Machine.finish m ~count:count_round ~attempts:m.Machine.attempt (Verdict.Log.last t.verdicts)

let round_begin ?(policy = Retry.default) t =
  let m = Machine.start ~policy ~prng:t.retry_prng ~root:"attest.round" t in
  m.Machine.mark <- Verdict.Log.length t.verdicts;
  Machine.phase m ~phase:"attest" ~send:attest_send ~done_:attest_done ~give_up:attest_give_up
    ~next:attest_next

let rec drive_round = function
  | Round_done r -> r
  | Round_wait { wait_s = _; resume } -> drive_round (resume ())

let attest_round_r ?policy t = drive_round (round_begin ?policy t)

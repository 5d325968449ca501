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
  mutable verdicts : (float * Verdict.t) list; (* newest first *)
  mutable verdict_count : int; (* = List.length verdicts, O(1) *)
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
      verdicts = [];
      verdict_count = 0;
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
          t.verdicts <- (Simtime.now time, verdict) :: t.verdicts;
          t.verdict_count <- t.verdict_count + 1;
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
let verdicts t = List.rev t.verdicts

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
  if one_shot t "attest.round" ~count:(fun () -> t.verdict_count) (fun () ->
         ignore (send_request t))
  then Some (snd (List.hd t.verdicts))
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

  type t = {
    session : session;
    policy : Retry.policy;
    prng : Ra_crypto.Prng.t;
    started : float;
    tracer : Ra_obs.Trace.t option;
    root : Ra_obs.Span.span;
    count : Verdict.t -> unit;
  }

  let start ~policy ~prng ~root ~count (session : session) =
    Retry.validate policy;
    session.in_flight <- true;
    let started = Simtime.now session.time in
    let tracer = Trace.tracer session.trace in
    Option.iter (fun tr -> ignore (Ra_obs.Trace.begin_round tr)) tracer;
    (* the machine spans suspensions, so the root span is opened and
       closed by hand *)
    let root = Ra_obs.Span.enter (Trace.spans session.trace) root in
    { session; policy; prng; started; tracer; root; count }

  let elapsed m = Simtime.now m.session.time -. m.started

  let finish m ~attempts verdict =
    let t = m.session in
    t.in_flight <- false;
    m.count verdict;
    (match m.tracer with
    | Some tr ->
      (* the final verdict instant hangs off the round root, after the
         last attempt span has closed *)
      Trace.causal_instant t.trace ~cat:"verdict"
        ~labels:[ ("verdict", Verdict.label verdict) ]
        "verdict";
      Ra_obs.Trace.end_round tr ~verdict:(Verdict.label verdict) ~attempts
    | None -> ());
    let r = { r_verdict = verdict; r_attempts = attempts; r_elapsed_s = elapsed m } in
    Ra_obs.Span.exit (Trace.spans t.trace) m.root;
    Round_done r

  (* Pump both directions until [done_] holds or the wire goes quiet.
     In-flight traffic is always processed — the reply window only
     governs how long the device idles once nothing is moving. A step cap
     keeps this total under pathological impairments (reorder
     probability 1 ping-pongs two messages forever). *)
  let pump m done_ =
    let t = m.session in
    let rec go steps =
      if not (done_ ()) then begin
        let fwd = deliver_next_to_prover t in
        let back = deliver_next_to_verifier t in
        if (not (done_ ())) && (fwd || back) && steps < 100_000 then go (steps + 1)
      end
    in
    go 0

  let span m labels name =
    Option.map
      (fun tr -> (tr, Ra_obs.Trace.span tr ~cat:"retry" ~labels:(labels ()) name))
      m.tracer

  let close ?labels sp =
    Option.iter (fun (tr, sp) -> Ra_obs.Trace.finish_span tr ?labels sp) sp

  let phase m ~phase ~send ~done_ ~give_up ~next =
    let t = m.session in
    let rec attempt n =
      (* A fresh flight per attempt — never a byte-identical
         retransmission. The freshness counter/timestamp (or record
         sequence number) advances with every attempt, so a replay of
         any earlier transmission stays rejectable and the prover's cell
         is monotone across the whole retry schedule. *)
      let attempt_sp =
        span m
          (fun () -> [ ("attempt", string_of_int n); ("phase", phase) ])
          "retry.attempt"
      in
      send ();
      let window =
        Retry.timeout_s m.policy ~attempt:n ~u:(Ra_crypto.Prng.float m.prng 1.0)
      in
      let deadline = Simtime.deadline t.time ~after:window in
      pump m done_;
      if done_ () then begin
        close ~labels:[ ("outcome", "done") ] attempt_sp;
        next n
      end
      else begin
        (* wire is quiet: the device idles away the rest of the reply
           window (battery drains while it waits) *)
        let rest = Simtime.remaining t.time deadline in
        if rest > 0.0 then begin
          let backoff_sp =
            span m
              (fun () ->
                [ ("attempt", string_of_int n); ("wait_s", Printf.sprintf "%.6f" rest) ])
              "retry.backoff"
          in
          Round_wait
            {
              wait_s = rest;
              resume =
                (fun () ->
                  advance_time t ~seconds:rest;
                  close backoff_sp;
                  attempt_over n attempt_sp);
            }
        end
        else attempt_over n attempt_sp
      end
    and attempt_over n attempt_sp =
      close ~labels:[ ("outcome", "timeout") ] attempt_sp;
      if n < m.policy.Retry.max_attempts then attempt (n + 1) else give_up n
    in
    attempt 1
end

(* A round's challenges retire when it finishes: a response that arrives
   later is ignored like any unknown one, and an attempt whose response
   was lost keeps no entry. *)
let retire_challenges t =
  List.iter (Hashtbl.remove t.pending) t.round_challenges;
  t.round_challenges <- []

let count_round = Machine.verdict_counter "ra_session_rounds_total"

let round_begin ?(policy = Retry.default) t =
  let m =
    Machine.start ~policy ~prng:t.retry_prng ~root:"attest.round" ~count:count_round t
  in
  let before = t.verdict_count in
  Machine.phase m ~phase:"attest"
    ~send:(fun () ->
      t.round_challenges <- (send_request t).Message.challenge :: t.round_challenges)
    ~done_:(fun () -> t.verdict_count > before)
    ~give_up:(fun n ->
      retire_challenges t;
      Machine.finish m ~attempts:n
        (Verdict.Timed_out { attempts = n; waited_s = Machine.elapsed m }))
    ~next:(fun n ->
      retire_challenges t;
      Machine.finish m ~attempts:n (snd (List.hd t.verdicts)))

let rec drive_round = function
  | Round_done r -> r
  | Round_wait { wait_s = _; resume } -> drive_round (resume ())

let attest_round_r ?policy t = drive_round (round_begin ?policy t)

(* The four end-to-end workloads, each driven through the libraries'
   public API on one domain.

   An end-to-end run is a sequence of chunks. A chunk builds a fresh
   world (timed as set-up), warms it up, then times a fixed number of
   operations; fresh worlds keep each chunk's heap and per-op cost
   independent of how many chunks fit in the run. A traced run drives
   the same path by hand through {!Measure.layer}, alternating untraced
   and traced blocks, so per-layer budgets and tracing overhead come from
   one loop. *)

module Session = Ra_core.Session
module SS = Ra_core.Secure_session
module Fleet = Ra_core.Fleet
module Server = Ra_core.Server
module Load = Ra_core.Server.Load
module Verdict = Ra_core.Verdict
module Message = Ra_core.Message
module Channel = Ra_net.Channel
module Impairment = Ra_net.Impairment
module Arrival = Ra_net.Arrival
module Prng = Ra_crypto.Prng
module Span = Ra_obs.Span
module M = Measure

type size = Full | Smoke

(* One chunk of an end-to-end run. *)
type chunk = {
  setup_s : float array;  (** one sample per world built *)
  samples_us : float array;
      (** host µs per op: one sample per op where each op is its own call,
          else one per sub-run (sub-run seconds / ops) *)
  ops : int;
  timed_s : float;
  failed : int;
  digest : string;  (** hex SHA-1 of the simulated outputs; chunk 0 only *)
  gc : M.gc_words;  (** allocation during the timed ops *)
  net : M.counters;  (** registry deltas during the timed ops *)
  facts : (string * float) list;  (** per-layer counts the chunk observed *)
}

(* What a traced run adds on top of one untraced chunk. *)
type traced = {
  layers : (string * float) list;
  spans : Span.t option;  (** the first traced block, for export *)
  t_ops : int;  (** ops driven by hand, traced or not *)
  t_failed : int;
}

type t = {
  name : string;
  op : string;  (** what one operation is, for the printed report *)
  chunk : size -> seed:int64 -> index:int -> chunk;
  traced : size -> seed:int64 -> deadline:float -> e2e:chunk -> traced;
}

let seed_at seed i = Int64.add seed (Int64.of_int i)
let per n x = if n = 0 then 0.0 else x /. float_of_int n
let us s = s *. 1e6

let digest_with f =
  let ctx = Ra_crypto.Sha1.init () in
  f (Ra_crypto.Sha1.feed ctx);
  Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha1.finalize ctx)

let feed_transcript feed ch =
  List.iter
    (fun (s : string Channel.sent) ->
      feed
        (Printf.sprintf "%h|%s|%d|" s.Channel.sent_at
           (match s.Channel.src with
           | Channel.Verifier_side -> "v"
           | Channel.Prover_side -> "p")
           (String.length s.Channel.payload));
      feed s.Channel.payload)
    (Channel.transcript ch)

(* Build a world [reps] times, timing each build, and keep the last: some
   worlds take well under a millisecond, so one sample would be noise. *)
let build ~reps make =
  let samples = Array.make reps 0.0 in
  let rec go i =
    let w, dt = M.time make in
    samples.(i) <- dt;
    if i + 1 < reps then go (i + 1) else w
  in
  let w = go 0 in
  (w, samples)

(* Time [ops] calls of [op i] one by one, with registry and GC deltas
   around the whole loop. *)
let timed_ops ops op =
  let samples = Array.make ops 0.0 in
  let g0 = M.gc_words () and c0 = M.counters () in
  let t_start = M.now () in
  let results =
    Array.init ops (fun i ->
        let t0 = M.now () in
        let r = op i in
        samples.(i) <- us (M.now () -. t0);
        r)
  in
  let timed_s = M.now () -. t_start in
  let gc = M.gc_delta g0 (M.gc_words ()) and net = M.counters_delta c0 (M.counters ()) in
  (results, samples, timed_s, gc, net)

type blocks = {
  tracing : (string * float) list;  (** coverage and overhead *)
  totals : M.span_totals;  (** over every traced block *)
  traced_ops : int;
  all_ops : int;
  untraced_us : float;  (** median per-op µs of the untraced blocks *)
  first : Span.t option;
}

(* Run [block] (given an optional span context, returning its op count)
   untraced and traced in alternating order until [deadline], at least
   [min_pairs] times each. *)
let alternate ~min_pairs ~deadline block =
  let untraced = ref [] and traced = ref [] in
  let totals = M.new_totals () in
  let traced_ops = ref 0 and all_ops = ref 0 and traced_s = ref 0.0 and first = ref None in
  let run trace =
    let ctx = if trace then Some (M.span_ctx ()) else None in
    let n, dt = M.time (fun () -> block ctx) in
    all_ops := !all_ops + n;
    let per_op = us (per n dt) in
    match ctx with
    | None -> untraced := per_op :: !untraced
    | Some sp ->
      traced := per_op :: !traced;
      M.absorb totals sp;
      traced_ops := !traced_ops + n;
      traced_s := !traced_s +. dt;
      if Option.is_none !first then first := Some sp
  in
  let i = ref 0 in
  while !i < min_pairs || M.now () < deadline do
    if !i land 1 = 0 then begin
      run false;
      run true
    end
    else begin
      run true;
      run false
    end;
    incr i
  done;
  let untraced_us = M.median (Array.of_list !untraced) in
  let traced_us = M.median (Array.of_list !traced) in
  {
    tracing =
      [
        ("trace.coverage_pct", 100.0 *. totals.M.roots /. !traced_s);
        ("trace.overhead_pct", 100.0 *. ((traced_us /. untraced_us) -. 1.0));
      ];
    totals;
    traced_ops = !traced_ops;
    all_ops = !all_ops;
    untraced_us;
    first = !first;
  }

(* Self time per traced op of each named span, as a metric. *)
let layer_us b names =
  List.map
    (fun (metric, span) -> (metric, us (per b.traced_ops (M.self_s b.totals span))))
    names

let min_pairs = function Full -> 3 | Smoke -> 1

(* Per-call host µs of a kernel; smoke runs take far fewer samples. *)
let kernel size ~per_batch f =
  match size with
  | Full -> us (M.per_call ~per_batch f)
  | Smoke -> us (M.per_call ~batches:3 ~per_batch:(max 1 (per_batch / 20)) f)

(* Codec cost per frame over frames the workload itself put on the wire. *)
let codec size frames =
  let frames = Array.of_list frames in
  let wires = Array.map (fun f -> Option.get (Message.wire_of_bytes f)) frames in
  let n = Array.length frames in
  let each a f () = Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) a in
  [
    ("codec.encode_us", per n (kernel size ~per_batch:20 (each wires Message.wire_to_bytes)));
    ("codec.decode_us", per n (kernel size ~per_batch:20 (each frames Message.wire_of_bytes)));
  ]

let payloads ?(limit = max_int) ch =
  List.filteri (fun i _ -> i < limit)
    (List.map (fun (s : string Channel.sent) -> s.Channel.payload) (Channel.transcript ch))

(* A device's attested memory read straight from its memory map, and the
   HMAC over that image under the session key. *)
let device_layers size s ~hmac_metric =
  let dev = Session.device s in
  let mem = Ra_mcu.Device.memory dev in
  let ranges = Ra_mcu.Device.attested_ranges dev in
  let read () = List.map (fun (base, len) -> Ra_mcu.Memory.read_bytes mem base len) ranges in
  let image = String.concat "" (read ()) in
  let kc = Ra_crypto.Hmac.key Ra_crypto.Hmac.sha1 ~key:(Session.sym_key s) in
  [
    ("mcu.read_attested_us", kernel size ~per_batch:50 read);
    (hmac_metric, kernel size ~per_batch:20 (fun () -> Ra_crypto.Hmac.mac_with kc image));
  ]

(* ---- attest-64k --------------------------------------------------------- *)

(* The §3.1 memory-MAC path: closed-loop one-shot rounds on a pristine
   wire against one 64 KiB prover. *)

let attest_world ~seed =
  let s = Session.create ~ram_size:65536 ~ram_seed:seed () in
  Session.advance_time s ~seconds:1.0;
  s

let attest_chunk size ~seed ~index =
  let warm, ops = match size with Full -> (50, 2000) | Smoke -> (4, 40) in
  let s, setup_s = build ~reps:5 (fun () -> attest_world ~seed:(seed_at seed index)) in
  for _ = 1 to warm do
    ignore (Session.attest_round_r s)
  done;
  let rounds, samples, timed_s, gc, net =
    timed_ops ops (fun _ -> Session.attest_round_r s)
  in
  let failed =
    Array.fold_left
      (fun acc (r : Session.round) ->
        if r.Session.r_verdict = Verdict.Trusted && r.Session.r_attempts = 1 then acc
        else acc + 1)
      0 rounds
  in
  let attempts = Array.fold_left (fun acc r -> acc + r.Session.r_attempts) 0 rounds in
  let digest =
    if index > 0 then ""
    else
      digest_with (fun feed ->
          Array.iter
            (fun (r : Session.round) ->
              feed
                (Printf.sprintf "%s/%d/%h;" (Verdict.label r.Session.r_verdict)
                   r.Session.r_attempts r.Session.r_elapsed_s))
            rounds;
          feed_transcript feed (Session.channel s))
  in
  {
    setup_s;
    samples_us = samples;
    ops;
    timed_s;
    failed;
    digest;
    gc;
    net;
    facts = [ ("session.attempts_per_round", per ops (float_of_int attempts)) ];
  }

(* One round by hand: the verifier's request, the prover's anchor run,
   the verifier's check. *)
let attest_traced size ~seed ~deadline ~e2e:_ =
  let s = attest_world ~seed in
  let block_ops = match size with Full -> 200 | Smoke -> 10 in
  let block ctx =
    for _ = 1 to block_ops do
      ignore (M.layer ctx "session.send_request" (fun () -> Session.send_request s));
      ignore (M.layer ctx "session.prover" (fun () -> Session.deliver_next_to_prover s));
      ignore (M.layer ctx "session.verifier" (fun () -> Session.deliver_next_to_verifier s))
    done;
    block_ops
  in
  let b = alternate ~min_pairs:(min_pairs size) ~deadline block in
  (* every hand-driven round must have added exactly one Trusted verdict *)
  let verdicts = Session.verdicts s in
  let t_failed =
    List.length (List.filter (fun (_, v) -> v <> Verdict.Trusted) verdicts)
    + abs (b.all_ops - List.length verdicts)
  in
  let layers =
    b.tracing
    @ layer_us b
        [
          ("session.send_request_us", "session.send_request");
          ("session.prover_us", "session.prover");
          ("session.verifier_us", "session.verifier");
        ]
    @ device_layers size s ~hmac_metric:"crypto.hmac_sha1_64k_us"
    @ codec size (payloads ~limit:400 (Session.channel s))
  in
  { layers; spans = b.first; t_ops = b.all_ops; t_failed }

(* ---- fleet-2k-loss20 --------------------------------------------------- *)

(* A 2,000-device chaos sweep at 20% loss per direction: the only path
   where the event engine, the retry machine's waits and the channel's
   impairment carry real work. Crypto is small at 1 KiB. *)

let fleet_loss = 0.2
let sweeps_per_chunk = 3

let fleet_world members =
  let names = List.init members (Printf.sprintf "dev-%05d") in
  let f = Fleet.create ~ram_size:1024 ~names () in
  Fleet.advance f ~seconds:1.0;
  f

let fleet_chunk size ~seed ~index =
  let members = match size with Full -> 2_000 | Smoke -> 40 in
  let f, setup_s = build ~reps:1 (fun () -> fleet_world members) in
  let policies = [ ("default", Ra_core.Retry.default) ] in
  let sweeps, samples, timed_s, gc, net =
    timed_ops sweeps_per_chunk (fun j ->
        let cells =
          Fleet.chaos_sweep ~engine:(`Shards 1)
            ~seed:(seed_at seed ((index * sweeps_per_chunk) + j))
            ~rounds_per_member:1 ~losses:[ fleet_loss ] ~policies f
        in
        (* a wrong verdict, as opposed to a round that timed out on the
           lossy wire, is the only failure this workload can have *)
        (cells, List.length (Fleet.compromised f)))
  in
  let ops = members * sweeps_per_chunk in
  let cells = List.concat_map fst (Array.to_list sweeps) in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let rounds = sum (fun c -> float_of_int c.Fleet.c_rounds) in
  let failed =
    Array.fold_left (fun acc (_, bad) -> acc + bad) 0 sweeps
    + (ops - int_of_float rounds)
  in
  let digest =
    if index > 0 then ""
    else
      digest_with (fun feed ->
          List.iter
            (fun (c : Fleet.chaos_cell) ->
              feed
                (Printf.sprintf "%d/%d/%h/%h/%h;" c.Fleet.c_rounds c.Fleet.c_converged
                   c.Fleet.c_mean_attempts c.Fleet.c_p50_s c.Fleet.c_p99_s))
            cells;
          feed (Fleet.fingerprint f))
  in
  {
    setup_s;
    samples_us = Array.map (fun s -> s /. float_of_int members) samples;
    ops;
    timed_s;
    failed;
    digest;
    gc;
    net;
    facts =
      [
        ( "session.attempts_per_round",
          per ops (sum (fun c -> c.Fleet.c_mean_attempts *. float_of_int c.Fleet.c_rounds)) );
        ( "fleet.unconverged_pct",
          100.0 *. per ops (sum (fun c -> float_of_int (c.Fleet.c_rounds - c.Fleet.c_converged)))
        );
      ];
  }

(* The bare round machine over a second fleet's member sessions with the
   same impairment and stagger as the chaos sweep, without the engine:
   what every member-round costs before scheduling. *)
let fleet_traced size ~seed ~deadline ~e2e =
  let members = match size with Full -> 1_000 | Smoke -> 20 in
  let f = fleet_world members in
  let sessions = Array.of_list (List.map Fleet.member_session (Fleet.members f)) in
  let profile = Impairment.lossy fleet_loss in
  let blocks = ref 0 and wrong = ref 0 in
  let block ctx =
    let root = seed_at seed !blocks in
    incr blocks;
    Array.iteri
      (fun i s ->
        M.layer ctx "net.impairment" (fun () ->
            Session.set_impairment s
              (Some
                 (Impairment.create ~to_prover:profile ~to_verifier:profile
                    ~seed:(Impairment.derive_seed ~root ~index:i) ())));
        M.layer ctx "session.stagger" (fun () ->
            Session.advance_time s ~seconds:Fleet.stagger_seconds);
        let rec drive = function
          | Session.Round_done r -> r
          | Session.Round_wait { resume; _ } -> drive (M.layer ctx "session.resume" resume)
        in
        let r =
          drive (M.layer ctx "session.round_begin" (fun () -> Session.round_begin s))
        in
        (match r.Session.r_verdict with
        | Verdict.Trusted | Verdict.Timed_out _ -> ()
        | _ -> incr wrong);
        M.layer ctx "net.impairment" (fun () -> Session.set_impairment s None))
      sessions;
    members
  in
  let b = alternate ~min_pairs:(min_pairs size) ~deadline block in
  let layers =
    b.tracing
    @ layer_us b
        [
          ("session.round_begin_us", "session.round_begin");
          ("session.resume_us", "session.resume");
        ]
    @ [
        ("engine.bare_round_us", b.untraced_us);
        ("engine.overhead_pct", 100.0 *. (1.0 -. (b.untraced_us /. M.median e2e.samples_us)));
      ]
    @ device_layers size sessions.(0) ~hmac_metric:"crypto.hmac_sha1_1k_us"
    @ codec size
        (List.concat_map
           (fun s -> payloads ~limit:20 (Session.channel s))
           (Array.to_list (Array.sub sessions 0 (min 20 members))))
  in
  { layers; spans = b.first; t_ops = b.all_ops; t_failed = !wrong }

(* ---- server-flood --------------------------------------------------------- *)

(* The verifier side of the DoS asymmetry: open-loop Poisson reports from
   registered devices plus an Adv_ext flood of forged reports at ten
   times their aggregate rate. Admission must turn the flood away before
   any crypto; the authentic share meets batched HMAC over short reports. *)

let sym_key = "K_attest_0123456789."
let device_rate = 0.5
let horizon_s = 10.0

let server_shape = function Full -> (10_000, 100) | Smoke -> (200, 2)

let server_config ~seed =
  let image = Prng.bytes (Prng.create seed) 64 in
  let vcfg =
    Ra_core.Verifier.Config.v ~sym_key ~reference_image:image
      ~time:(Ra_net.Simtime.create ()) ()
  in
  {
    (Server.default_config vcfg) with
    Server.sc_admission =
      { Ra_core.Admission.default_config with device_rate = 1.0; device_burst = 4.0 };
  }

let traffic size ~seed ~horizon =
  let devices, sources = server_shape size in
  {
    Load.default_traffic with
    Load.tr_devices = devices;
    tr_rate = device_rate;
    tr_horizon_s = horizon;
    tr_seed = seed;
    tr_flood_sources = sources;
    tr_flood_rate = 10.0 *. float_of_int devices *. device_rate /. float_of_int sources;
  }

let device_name i = Printf.sprintf "dev-%06d" i

(* A server with every device registered: the construction Load.run
   performs before the first arrival. *)
let build_server ?record_outcomes cfg ~sched ~devices =
  let server =
    match Server.create ?record_outcomes ~sched cfg with Ok s -> s | Error m -> failwith m
  in
  for i = 0 to devices - 1 do
    Server.register_device server (device_name i)
  done;
  server

(* A forged report is accepted, or an authentic one fails verification.
   Authentic reports shed by admission (rate limit, full queue, deadline)
   are the policy working as configured, counted separately. *)
let is_wrong (o : Server.outcome) =
  match (o.Server.oc_device, o.Server.oc_result) with
  | None, Ok () -> true
  | None, Error _ | Some _, Ok () -> false
  | Some _, Error r -> (
    match r with
    | Verdict.Reason.Rate_limited | Queue_full | Timed_out | Not_fresh -> false
    | Untrusted_state | Invalid_response | Bad_auth | Fault | Malformed | Bad_record -> true)

let server_chunk size ~seed ~index =
  let seed = seed_at seed index in
  let devices, _ = server_shape size in
  let cfg, setup_s =
    build ~reps:5 (fun () ->
        let cfg = server_config ~seed in
        ignore (build_server cfg ~sched:(Ra_core.Sched.create ()) ~devices);
        cfg)
  in
  let tr = traffic size ~seed ~horizon:horizon_s in
  let runs, samples, timed_s, gc, net =
    timed_ops 1 (fun _ -> Load.run ~record_outcomes:true cfg tr)
  in
  let report, outcomes = runs.(0) in
  let ops = report.Load.rp_requests in
  let authentic = List.filter (fun o -> o.Server.oc_device <> None) outcomes in
  let shed = List.filter (fun o -> Result.is_error o.Server.oc_result) authentic in
  let failed =
    List.length (List.filter is_wrong outcomes) + abs (ops - List.length outcomes)
  in
  let digest =
    if index > 0 then ""
    else
      digest_with (fun feed ->
          feed
            (Printf.sprintf "%d/%d/%h/%h/%d/%d/%h;" ops report.Load.rp_trusted
               report.Load.rp_p50_ms report.Load.rp_p99_ms report.Load.rp_max_queue
               report.Load.rp_batches report.Load.rp_avg_batch);
          List.iter
            (fun (r, n) -> feed (Printf.sprintf "%s=%d;" (Verdict.Reason.label r) n))
            report.Load.rp_breakdown;
          List.iter
            (fun (o : Server.outcome) ->
              feed
                (Printf.sprintf "%s/%d/%h/%h/%s;"
                   (Option.value o.Server.oc_device ~default:"-")
                   o.Server.oc_tag o.Server.oc_arrived o.Server.oc_done
                   (match o.Server.oc_result with
                   | Ok () -> "ok"
                   | Error r -> Verdict.Reason.label r)))
            outcomes)
  in
  {
    setup_s;
    samples_us = Array.map (fun s -> s /. float_of_int ops) samples;
    ops;
    timed_s;
    failed;
    digest;
    gc;
    net;
    facts =
      [
        ( "server.verified_pct",
          100.0
          *. per ops (report.Load.rp_avg_batch *. float_of_int report.Load.rp_batches) );
        ("server.avg_batch", report.Load.rp_avg_batch);
        ("server.max_queue", float_of_int report.Load.rp_max_queue);
        ( "server.authentic_shed_pct",
          100.0 *. per (List.length authentic) (float_of_int (List.length shed)) );
      ];
  }

(* One report's wire frame, built the way the load generator builds it:
   authentic reports MAC the reference image, forged ones carry junk. *)
let report_frame ~keyed ~image ~junk counter =
  let resp0 =
    { Message.echo_challenge = ""; echo_freshness = Message.F_counter counter; report = "" }
  in
  let report =
    match junk with
    | None ->
      Ra_core.Auth.response_report_keyed ~keyed ~body:(Message.response_body resp0)
        ~memory_image:image
    | Some prng -> Prng.bytes prng 20
  in
  Message.wire_to_bytes (Message.Response { resp0 with report })

(* The load generator by hand over the server's public API: one arrival
   chain per source on a Sched timeline. Each fired event is a root span
   labelled by whether it was an arrival (frame built and submitted) or
   the server's own batch drain. [keep] sees every frame submitted. *)
let hand_load ctx cfg (tr : Load.traffic) ~keep =
  let sched = Ra_core.Sched.create () in
  let server =
    M.layer ctx "server.setup" (fun () ->
        build_server ~record_outcomes:true cfg ~sched ~devices:tr.Load.tr_devices)
  in
  let vcfg = cfg.Server.sc_verifier in
  let keyed = Ra_core.Auth.keyed vcfg.Ra_core.Verifier.Config.sym_key in
  let image = vcfg.Ra_core.Verifier.Config.reference_image in
  let requests = ref 0 and arrival = ref false in
  let source i =
    let legit = i < tr.Load.tr_devices in
    let rate = if legit then tr.Load.tr_rate else tr.Load.tr_flood_rate in
    let arrivals =
      Arrival.create
        ~seed:(Impairment.derive_seed ~root:tr.Load.tr_seed ~index:i)
        (Arrival.Poisson { rate })
    in
    let junk =
      if legit then None
      else
        Some
          (Prng.create
             (Impairment.derive_seed ~root:(Int64.add tr.Load.tr_seed 0x5eed_f00dL) ~index:i))
    in
    let device = if legit then Some (device_name i) else None in
    let counter = ref 0L in
    let rec arm () =
      let at = Arrival.next arrivals in
      if at < tr.Load.tr_horizon_s then
        Ra_core.Sched.at sched ~at (fun () ->
            arrival := true;
            incr requests;
            counter := Int64.succ !counter;
            let frame =
              M.layer ctx "load.frame" (fun () -> report_frame ~keyed ~image ~junk !counter)
            in
            keep frame;
            M.layer ctx "server.submit" (fun () ->
                Server.submit server
                  { Server.rq_device = device; rq_tag = !requests; rq_frame = frame });
            arm ())
    in
    arm ()
  in
  M.layer ctx "load.setup" (fun () ->
      for i = 0 to tr.Load.tr_devices + tr.Load.tr_flood_sources - 1 do
        source i
      done);
  let step () =
    arrival := false;
    match ctx with
    | None -> Ra_core.Sched.step sched
    | Some sp ->
      let s = Span.enter sp "sched.step" in
      let fired = Ra_core.Sched.step sched in
      Span.exit sp ~labels:[ ("event", if !arrival then "arrival" else "drain") ] s;
      fired
  in
  while step () do
    ()
  done;
  M.layer ctx "server.flush" (fun () -> Server.flush server);
  (!requests, server)

let server_traced size ~seed ~deadline ~e2e:_ =
  let cfg = server_config ~seed in
  let horizon = match size with Full -> 2.0 | Smoke -> 1.0 in
  let tr = traffic size ~seed ~horizon in
  let frames = ref [] and kept = ref 0 and servers = ref [] in
  let keep frame =
    if !kept < 2000 then begin
      frames := frame :: !frames;
      incr kept
    end
  in
  let block ctx =
    let n, server = hand_load ctx cfg tr ~keep in
    servers := server :: !servers;
    n
  in
  let b = alternate ~min_pairs:(min_pairs size) ~deadline block in
  let wrong =
    List.fold_left
      (fun acc s -> acc + List.length (List.filter is_wrong (Server.outcomes s)))
      0 !servers
  in
  servers := [];
  (* kernels on the workload's own reports *)
  let vcfg = cfg.Server.sc_verifier in
  let keyed = Ra_core.Auth.keyed sym_key in
  let image = vcfg.Ra_core.Verifier.Config.reference_image in
  let resps =
    Array.init 64 (fun i ->
        match
          Message.wire_of_bytes
            (report_frame ~keyed ~image ~junk:None (Int64.of_int (i + 1)))
        with
        | Some (Message.Response r) -> r
        | _ -> failwith "server-flood: report frame did not parse")
  in
  let verifier =
    match Ra_core.Verifier.of_config vcfg with Ok v -> v | Error m -> failwith m
  in
  let junk = Prng.create seed in
  let forged =
    Array.init 256 (fun i ->
        report_frame ~keyed ~image ~junk:(Some junk) (Int64.of_int (i + 1)))
  in
  let probe = build_server cfg ~sched:(Ra_core.Sched.create ()) ~devices:0 in
  let next = ref 0 in
  let submit_forged () =
    next := (!next + 1) land 255;
    Server.submit probe { Server.rq_device = None; rq_tag = !next; rq_frame = forged.(!next) }
  in
  let arrivals = Arrival.create ~seed (Arrival.Poisson { rate = device_rate }) in
  let one = resps.(0) in
  let layers =
    b.tracing
    @ layer_us b
        [
          ("server.submit_us", "server.submit");
          ("server.drain_us", "sched.step{event=drain}");
          ("load.frame_us", "load.frame");
          ("engine.step_us", "sched.step{event=arrival}");
        ]
    @ [
        ("server.submit_forged_us", kernel size ~per_batch:2000 submit_forged);
        ( "server.verify_batched_us",
          kernel size ~per_batch:20 (fun () -> Server.Batch.verify verifier resps) /. 64.0 );
        ( "server.verify_one_us",
          kernel size ~per_batch:1000 (fun () ->
              Server.Batch.verify_one ~sym_key ~reference_image:image one) );
        ( "net.arrival_next_ns",
          1e3 *. kernel size ~per_batch:20_000 (fun () -> Arrival.next arrivals) );
      ]
    @ codec size !frames
  in
  { layers; spans = b.first; t_ops = b.all_ops; t_failed = wrong }

(* ---- session-stream ------------------------------------------------------- *)

(* Streaming attestation inside one attested secure session: each record
   is an AES-CTR + CMAC sealed request and response, so the block-cipher
   kernels carry this path and no other. *)

let pump ?ctx s =
  let rec go () =
    let a = M.layer ctx "ss.prover" (fun () -> Session.deliver_next_to_prover s) in
    let b = M.layer ctx "ss.verifier" (fun () -> Session.deliver_next_to_verifier s) in
    if a || b then go ()
  in
  go ()

let stream_world ~seed =
  let s = Session.create ~ram_size:1024 ~ram_seed:seed () in
  Session.advance_time s ~seconds:1.0;
  let responder = SS.listen s in
  let initiator = SS.connect s in
  SS.handshake_send initiator;
  pump s;
  if not (SS.established initiator) then failwith "session-stream: handshake failed";
  (s, responder, initiator)

(* One streamed record: a sealed request, then the wire pumped until quiet.
   [false] unless exactly one new verdict landed. *)
let record ?ctx s ini =
  let before = SS.verdict_count ini in
  let sent = M.layer ctx "ss.request_round" (fun () -> SS.request_round ini) in
  pump ?ctx s;
  sent && SS.verdict_count ini = before + 1

let untrusted ini =
  List.length (List.filter (fun (_, v) -> v <> Verdict.Trusted) (SS.session_verdicts ini))

let stream_chunk size ~seed ~index =
  let warm, ops = match size with Full -> (50, 8000) | Smoke -> (4, 160) in
  let (s, _responder, ini), setup_s =
    build ~reps:5 (fun () -> stream_world ~seed:(seed_at seed index))
  in
  for _ = 1 to warm do
    ignore (record s ini)
  done;
  let ok, samples, timed_s, gc, net = timed_ops ops (fun _ -> record s ini) in
  let failed =
    Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 ok + untrusted ini
  in
  let digest =
    if index > 0 then ""
    else
      digest_with (fun feed ->
          List.iter
            (fun (at, v) -> feed (Printf.sprintf "%h/%s;" at (Verdict.label v)))
            (SS.session_verdicts ini);
          feed_transcript feed (Session.channel s))
  in
  { setup_s; samples_us = samples; ops; timed_s; failed; digest; gc; net; facts = [] }

let stream_traced size ~seed ~deadline ~e2e:_ =
  let s, _responder, ini = stream_world ~seed in
  let block_ops = match size with Full -> 500 | Smoke -> 20 in
  let lost = ref 0 in
  let block ctx =
    for _ = 1 to block_ops do
      if not (record ?ctx s ini) then incr lost
    done;
    block_ops
  in
  let b = alternate ~min_pairs:(min_pairs size) ~deadline block in
  let window = SS.Window.create () in
  let seq = ref 0L in
  let layers =
    b.tracing
    @ layer_us b
        [
          ("ss.request_round_us", "ss.request_round");
          ("ss.prover_us", "ss.prover");
          ("ss.verifier_us", "ss.verifier");
        ]
    @ [
        ( "ss.window_accept_ns",
          1e3
          *. kernel size ~per_batch:20_000 (fun () ->
                 seq := Int64.succ !seq;
                 SS.Window.accept window !seq) );
      ]
    @ device_layers size s ~hmac_metric:"crypto.hmac_sha1_1k_us"
    @ codec size (payloads ~limit:400 (Session.channel s))
  in
  { layers; spans = b.first; t_ops = b.all_ops; t_failed = !lost + untrusted ini }

let all =
  [
    { name = "attest-64k"; op = "round"; chunk = attest_chunk; traced = attest_traced };
    {
      name = "fleet-2k-loss20";
      op = "member-round";
      chunk = fleet_chunk;
      traced = fleet_traced;
    };
    { name = "server-flood"; op = "request"; chunk = server_chunk; traced = server_traced };
    { name = "session-stream"; op = "record"; chunk = stream_chunk; traced = stream_traced };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Kernel timings every traced run reports, on seeded buffers. A workload
   that has the real input (its attested image) reports its own value,
   which takes precedence. *)
let crypto_kernels size ~seed =
  let prng = Prng.create seed in
  let kc = Ra_crypto.Hmac.key Ra_crypto.Hmac.sha1 ~key:(Prng.bytes prng 20) in
  let b64k = Prng.bytes prng 65536 and b1k = Prng.bytes prng 1024 in
  let body = Prng.bytes prng 64 and nonce = Prng.bytes prng 8 in
  let key = Ra_crypto.Aes.expand (Prng.bytes prng 16) in
  let cipher = Ra_crypto.Block_mode.aes key and cmac = Ra_crypto.Cmac.derive key in
  [
    ("crypto.hmac_sha1_64k_us", kernel size ~per_batch:5 (fun () -> Ra_crypto.Hmac.mac_with kc b64k));
    ("crypto.hmac_sha1_1k_us", kernel size ~per_batch:200 (fun () -> Ra_crypto.Hmac.mac_with kc b1k));
    ( "crypto.aes_ctr_64B_us",
      kernel size ~per_batch:50 (fun () -> Ra_crypto.Block_mode.ctr_crypt cipher ~nonce body) );
    ("crypto.cmac_64B_us", kernel size ~per_batch:50 (fun () -> Ra_crypto.Cmac.mac cmac body));
  ]

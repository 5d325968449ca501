module Impairment = Ra_net.Impairment
module Arrival = Ra_net.Arrival
module Channel = Ra_net.Channel
module Registry = Ra_obs.Registry
module Slo = Ra_obs.Slo
module Prng = Ra_crypto.Prng

type config = {
  sc_verifier : Verifier.Config.t;
  sc_admission : Admission.config;
  sc_batch : int;
  sc_linger_s : float;
  sc_block_s : float;
  sc_deadline_s : float;
}

let default_config verifier =
  {
    sc_verifier = verifier;
    sc_admission = Admission.default_config;
    sc_batch = 64;
    sc_linger_s = 0.05;
    sc_block_s = 1e-6;
    sc_deadline_s = 2.0;
  }

type request = { rq_device : string option; rq_tag : int; rq_frame : string }

type outcome = {
  oc_device : string option;
  oc_tag : int;
  oc_arrived : float;
  oc_done : float;
  oc_result : (unit, Verdict.reason) result;
}

type pending = {
  p_device : string option;
  p_tag : int;
  p_arrived : float;
  p_resp : Message.attresp;
}

type t = {
  cfg : config;
  sched : Sched.t;
  verifier : Verifier.t;
  admission : pending Admission.t;
  counters : (string, int64) Hashtbl.t; (* last counter accepted as Trusted *)
  record : bool;
  mutable chunk : outcome array; (* the newest chunk of the outcome log *)
  mutable fill : int; (* outcomes in [chunk] *)
  mutable full : outcome array list; (* the log's older chunks, newest first *)
  mutable listed : outcome list; (* [outcomes]' list, older than every chunk *)
  mutable requests : int;
  mutable admitted : int;
  mutable trusted : int;
  mutable untrusted : int;
  tally : Verdict.Tally.t;
  mutable batches : int;
  mutable batched_reports : int;
  mutable max_queue : int;
  mutable latencies_rev : float list;
  mutable busy_until : float; (* the single verification unit frees up here *)
  mutable flush_armed : bool;
}

module Batch = struct
  (* SHA-1 compressions one batched report check costs. Inner hash:
     midstate already past the ipad block, so ceil((body+image+9)/64)
     blocks remain over the padded tail; outer finalization from the opad
     midstate is one more. *)
  let report_blocks ~body_len ~image_len = (body_len + image_len + 73 + 63) / 64

  (* ipad + opad compressions a per-report key derivation repays *)
  let key_blocks = 2

  let verify_one ~sym_key ~reference_image resp =
    let body = Message.response_body resp in
    (* its own key context, not [Auth.keyed]'s memoized one: this is the
       server that pays the pad compressions for every report *)
    let keyed = Ra_crypto.Hmac.key Ra_crypto.Hmac.sha1 ~key:sym_key in
    let expected =
      Auth.response_report_keyed ~keyed ~body ~memory_image:reference_image
    in
    if Ra_crypto.Hexutil.equal_ct expected resp.Message.report then Verdict.Trusted
    else Verdict.Untrusted_state

  let verify verifier resps = Verifier.check_reports verifier resps
end

let create ?(record_outcomes = false) ~sched cfg =
  if cfg.sc_batch < 1 then Error "Server.create: batch must be >= 1"
  else if cfg.sc_linger_s < 0.0 then Error "Server.create: linger must be >= 0"
  else if cfg.sc_block_s <= 0.0 then Error "Server.create: block time must be > 0"
  else if cfg.sc_deadline_s <= 0.0 then Error "Server.create: deadline must be > 0"
  else
    match Verifier.of_config cfg.sc_verifier with
    | Error _ as e -> e
    | Ok verifier -> (
      match Admission.create ~config:cfg.sc_admission () with
      | exception Invalid_argument msg -> Error msg
      | admission ->
        Ok
          {
            cfg;
            sched;
            verifier;
            admission;
            counters = Hashtbl.create 64;
            record = record_outcomes;
            chunk = [||];
            fill = 0;
            full = [];
            listed = [];
            requests = 0;
            admitted = 0;
            trusted = 0;
            untrusted = 0;
            tally = Verdict.Tally.create ();
            batches = 0;
            batched_reports = 0;
            max_queue = 0;
            latencies_rev = [];
            busy_until = 0.0;
            flush_armed = false;
          })

let register_device t identity = Admission.register t.admission identity

(* The outcome log. A recorded flood keeps one outcome per forged
   report, so the log adds to a record and its time box only one pointer
   in a fixed-size chunk: no list cell until [outcomes] asks, and every
   rejection for a reason shares one [Error] value. The first outcome
   recorded allocates the first chunk, so an unrecorded server holds
   none. *)
let chunk_size = 1024

let blank =
  { oc_device = None; oc_tag = 0; oc_arrived = 0.0; oc_done = 0.0; oc_result = Ok () }

let errors = Array.of_list (List.map (fun r -> Error r) Verdict.Reason.all)

let note t ~device ~tag ~arrived ~done_ result =
  if t.record then begin
    if t.fill = Array.length t.chunk then begin
      if t.fill > 0 then t.full <- t.chunk :: t.full;
      t.chunk <- Array.make chunk_size blank;
      t.fill <- 0
    end;
    t.chunk.(t.fill) <-
      {
        oc_device = device;
        oc_tag = tag;
        oc_arrived = arrived;
        oc_done = done_;
        oc_result = result;
      };
    t.fill <- t.fill + 1
  end

let reject t ~device ~tag ~arrived ~done_ reason =
  Verdict.Tally.add t.tally reason;
  note t ~device ~tag ~arrived ~done_ errors.(Verdict.Reason.index reason)

(* counter-freshness triage: cheap, before any admission or crypto, in the
   prover's serial order. Only a Trusted verdict advances the stored
   counter, so a flood replaying or inventing counters cannot lock a
   legitimate device out. *)
let stale t ~identity resp =
  match (identity, resp.Message.echo_freshness) with
  | Some id, Message.F_counter c -> (
    match Hashtbl.find_opt t.counters id with
    | Some stored -> not (Freshness.counter_newer ~stored c)
    | None -> false)
  | _ -> false

let flush t =
  let now = Sched.now t.sched in
  let start = Float.max now t.busy_until in
  let rec drain acc n =
    if n = 0 then List.rev acc
    else
      match Admission.take t.admission with
      | None -> List.rev acc
      | Some p -> drain (p :: acc) (n - 1)
  in
  let items = drain [] t.cfg.sc_batch in
  if items <> [] then begin
    let fresh, expired =
      List.partition (fun p -> start -. p.p_arrived < t.cfg.sc_deadline_s) items
    in
    List.iter
      (fun p ->
        reject t ~device:p.p_device ~tag:p.p_tag ~arrived:p.p_arrived ~done_:start
          Verdict.Reason.Timed_out)
      expired;
    if fresh <> [] then begin
      let arr = Array.of_list fresh in
      let verdicts = Batch.verify (t.verifier) (Array.map (fun p -> p.p_resp) arr) in
      let image_len = String.length t.cfg.sc_verifier.Verifier.Config.reference_image in
      let blocks =
        Array.fold_left
          (fun acc p ->
            acc
            + Batch.report_blocks
                ~body_len:(String.length (Message.response_body p.p_resp))
                ~image_len)
          0 arr
      in
      let finish = start +. (float_of_int blocks *. t.cfg.sc_block_s) in
      t.busy_until <- finish;
      t.batches <- t.batches + 1;
      t.batched_reports <- t.batched_reports + Array.length arr;
      Array.iteri
        (fun i p ->
          match verdicts.(i) with
          | Verdict.Trusted ->
            t.trusted <- t.trusted + 1;
            t.latencies_rev <- ((finish -. p.p_arrived) *. 1000.0) :: t.latencies_rev;
            (match (p.p_device, p.p_resp.Message.echo_freshness) with
            | Some id, Message.F_counter c -> Hashtbl.replace t.counters id c
            | _ -> ());
            note t ~device:p.p_device ~tag:p.p_tag ~arrived:p.p_arrived
              ~done_:finish (Ok ())
          | v ->
            if v = Verdict.Untrusted_state then t.untrusted <- t.untrusted + 1;
            let reason =
              Option.value (Verdict.reason_of v)
                ~default:Verdict.Reason.Untrusted_state
            in
            reject t ~device:p.p_device ~tag:p.p_tag ~arrived:p.p_arrived
              ~done_:finish reason)
        arr
    end
  end

let rec arm_flush t =
  if (not t.flush_armed) && Admission.depth t.admission > 0 then begin
    t.flush_armed <- true;
    let now = Sched.now t.sched in
    let at =
      if Admission.depth t.admission >= t.cfg.sc_batch then
        Float.max now t.busy_until
      else now +. t.cfg.sc_linger_s
    in
    Sched.at t.sched ~at (fun () ->
        t.flush_armed <- false;
        flush t;
        arm_flush t)
  end

let submit t rq =
  let now = Sched.now t.sched in
  t.requests <- t.requests + 1;
  match Message.wire_of_bytes rq.rq_frame with
  | Some (Message.Response resp) ->
    if stale t ~identity:rq.rq_device resp then
      reject t ~device:rq.rq_device ~tag:rq.rq_tag ~arrived:now ~done_:now
        Verdict.Reason.Not_fresh
    else begin
      let p =
        { p_device = rq.rq_device; p_tag = rq.rq_tag; p_arrived = now; p_resp = resp }
      in
      (match Admission.offer t.admission ~identity:rq.rq_device ~now p with
      | Admission.Admitted ->
        t.admitted <- t.admitted + 1;
        t.max_queue <- max t.max_queue (Admission.depth t.admission);
        arm_flush t
      | Admission.Rejected reason ->
        reject t ~device:rq.rq_device ~tag:rq.rq_tag ~arrived:now ~done_:now reason);
      (* a known-class offer at a full queue may have displaced unknowns *)
      List.iter
        (fun e ->
          reject t ~device:e.p_device ~tag:e.p_tag ~arrived:e.p_arrived ~done_:now
            Verdict.Reason.Queue_full)
        (Admission.evicted t.admission)
    end
  | Some _ | None ->
    reject t ~device:rq.rq_device ~tag:rq.rq_tag ~arrived:now ~done_:now
      Verdict.Reason.Malformed

type stats = {
  sv_requests : int;
  sv_admitted : int;
  sv_trusted : int;
  sv_breakdown : (Verdict.reason * int) list;
  sv_batches : int;
  sv_batched_reports : int;
  sv_max_queue : int;
  sv_latencies_ms : float list;
}

let stats t =
  {
    sv_requests = t.requests;
    sv_admitted = t.admitted;
    sv_trusted = t.trusted;
    sv_breakdown = Verdict.Tally.to_list t.tally;
    sv_batches = t.batches;
    sv_batched_reports = t.batched_reports;
    sv_max_queue = t.max_queue;
    sv_latencies_ms = List.rev t.latencies_rev;
  }

(* Empty the log onto [acc]: cons its outcomes from the newest chunk back
   to the oldest, so the result is chronological and no list is reversed
   or copied. The log lets go of its chunks first, so each one is garbage
   once it has been read. *)
let unchunk t acc =
  let cons_chunk acc c n =
    let acc = ref acc in
    for i = n - 1 downto 0 do
      acc := c.(i) :: !acc
    done;
    !acc
  in
  let newest = t.chunk and fill = t.fill and full = t.full in
  t.chunk <- [||];
  t.fill <- 0;
  t.full <- [];
  List.fold_left (fun acc c -> cons_chunk acc c chunk_size) (cons_chunk acc newest fill) full

let outcomes t =
  if t.fill > 0 then t.listed <- t.listed @ unchunk t [];
  t.listed

let publish ?registry t =
  let inc ?labels name by =
    if by > 0 then Registry.Counter.inc ~by (Registry.Counter.get ?registry ?labels name)
  in
  inc "ra_server_requests_total" t.requests;
  List.iter
    (fun (r, n) ->
      inc ~labels:[ ("reason", Verdict.Reason.label r) ] "ra_server_rejections_total" n)
    (Verdict.Tally.to_list t.tally);
  inc ~labels:[ ("verdict", "trusted") ] "ra_server_verdicts_total" t.trusted;
  inc
    ~labels:[ ("verdict", "untrusted_state") ]
    "ra_server_verdicts_total" t.untrusted;
  let h = Registry.Histogram.get ?registry "ra_server_latency_ms" in
  List.iter (Registry.Histogram.observe h) (List.rev t.latencies_rev);
  Registry.Gauge.set
    (Registry.Gauge.get ?registry "ra_server_queue_depth_max")
    (float_of_int t.max_queue)

module Load = struct
  type traffic = {
    tr_devices : int;
    tr_rate : float;
    tr_process : [ `Poisson | `Bursty ];
    tr_horizon_s : float;
    tr_seed : int64;
    tr_flood_sources : int;
    tr_flood_rate : float;
    tr_impairment : Impairment.profile option;
  }

  let default_traffic =
    {
      tr_devices = 64;
      tr_rate = 0.5;
      tr_process = `Poisson;
      tr_horizon_s = 30.0;
      tr_seed = 7L;
      tr_flood_sources = 0;
      tr_flood_rate = 0.0;
      tr_impairment = None;
    }

  type report = {
    rp_devices : int;
    rp_shards : int;
    rp_requests : int;
    rp_trusted : int;
    rp_breakdown : (Verdict.reason * int) list;
    rp_goodput_rps : float;
    rp_p50_ms : float;
    rp_p99_ms : float;
    rp_max_queue : int;
    rp_batches : int;
    rp_avg_batch : float;
  }

  let device_name i = Printf.sprintf "dev-%06d" i

  (* distinct per-purpose seed roots so the arrival stream, the wire
     impairment and the flood's junk bytes draw from unrelated PRNGs *)
  let arrival_root seed = seed
  let impair_root seed = Int64.lognot seed
  let junk_root seed = Int64.add seed 0x5eed_f00dL

  (* One shard's server on the shard's timeline, with sources [lo, hi)
     armed on it. The linger chain drains the queue before the timeline
     runs dry: a report is admitted only by [submit], which arms a flush
     whenever the queue is non-empty, and every flush re-arms while
     reports remain. *)
  let serve cfg traffic ~record_outcomes sched ~lo ~hi =
    let server =
      match create ~record_outcomes ~sched cfg with
      | Ok s -> s
      | Error msg -> invalid_arg ("Server.Load.run: " ^ msg)
    in
    let keyed = Auth.keyed cfg.sc_verifier.Verifier.Config.sym_key in
    let image = cfg.sc_verifier.Verifier.Config.reference_image in
    let horizon = traffic.tr_horizon_s in
    for i = lo to hi - 1 do
      if i < traffic.tr_devices then register_device server (device_name i)
    done;
    let source i =
      let legit = i < traffic.tr_devices in
      let process =
        if legit then
          match traffic.tr_process with
          | `Poisson -> Arrival.Poisson { rate = traffic.tr_rate }
          | `Bursty -> Arrival.bursty ~rate:traffic.tr_rate ()
        else Arrival.Poisson { rate = traffic.tr_flood_rate }
      in
      let arrivals =
        Arrival.create
          ~seed:(Impairment.derive_seed ~root:(arrival_root traffic.tr_seed) ~index:i)
          process
      in
      let imp =
        Option.map
          (fun profile ->
            Impairment.create ~to_verifier:profile
              ~seed:
                (Impairment.derive_seed ~root:(impair_root traffic.tr_seed) ~index:i)
              ())
          traffic.tr_impairment
      in
      let junk =
        if legit then None
        else
          Some
            (Prng.create
               (Impairment.derive_seed ~root:(junk_root traffic.tr_seed) ~index:i))
      in
      let device = if legit then Some (device_name i) else None in
      let counter = ref 0L in
      let tag = ref 0 in
      let next_frame () =
        counter := Int64.add !counter 1L;
        let resp0 =
          {
            Message.echo_challenge = "";
            echo_freshness = Message.F_counter !counter;
            report = "";
          }
        in
        let report =
          match junk with
          | None ->
            Auth.response_report_keyed ~keyed
              ~body:(Message.response_body resp0)
              ~memory_image:image
          | Some prng -> Prng.bytes prng 20
        in
        Message.wire_to_bytes (Message.Response { resp0 with report })
      in
      let deliver frame =
        let tag = !tag in
        let submit_now frame = submit server { rq_device = device; rq_tag = tag; rq_frame = frame } in
        match imp with
        | None -> submit_now frame
        | Some imp -> (
          match Impairment.decide imp ~dir:Impairment.To_verifier with
          | Impairment.Pass | Impairment.Reorder -> submit_now frame
          | Impairment.Drop -> ()
          | Impairment.Duplicate ->
            submit_now frame;
            submit_now frame
          | Impairment.Corrupt { salt } ->
            submit_now (Channel.mangle_string frame ~salt)
          | Impairment.Delay d ->
            Sched.at sched ~at:(Sched.now sched +. d) (fun () -> submit_now frame))
      in
      (* lazy chaining: each arrival event schedules the next, so the heap
         holds one event per live source, not the whole horizon *)
      let rec arm () =
        let at = Arrival.next arrivals in
        if at < horizon then
          Sched.at sched ~at (fun () ->
              incr tag;
              deliver (next_frame ());
              arm ())
      in
      arm ()
    in
    for i = lo to hi - 1 do
      source i
    done;
    server

  let run ?(engine = `Shards 1) ?(record_outcomes = false) cfg traffic =
    if traffic.tr_devices < 0 || traffic.tr_flood_sources < 0 then
      invalid_arg "Server.Load.run: negative source count";
    let (`Shards shards) = engine in
    let servers =
      Shard.run ~who:"Server.Load.run" ~shards
        ~members:(traffic.tr_devices + traffic.tr_flood_sources)
        (fun ~shard:_ _ sched ~lo ~hi -> serve cfg traffic ~record_outcomes sched ~lo ~hi)
    in
    let per_shard = Array.map stats servers in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per_shard in
    let counts = Array.make Verdict.Reason.count 0 in
    Array.iter
      (fun s ->
        List.iter
          (fun (r, n) ->
            let i = Verdict.Reason.index r in
            counts.(i) <- counts.(i) + n)
          s.sv_breakdown)
      per_shard;
    let breakdown =
      List.filter_map
        (fun r ->
          let n = counts.(Verdict.Reason.index r) in
          if n > 0 then Some (r, n) else None)
        Verdict.Reason.all
    in
    let latencies =
      Array.of_list (List.concat_map (fun s -> s.sv_latencies_ms) (Array.to_list per_shard))
    in
    Array.sort Float.compare latencies;
    let trusted = sum (fun s -> s.sv_trusted) in
    let batches = sum (fun s -> s.sv_batches) in
    let batched = sum (fun s -> s.sv_batched_reports) in
    Array.iter (fun s -> publish s) servers;
    let report =
      {
        rp_devices = traffic.tr_devices;
        rp_shards = shards;
        rp_requests = sum (fun s -> s.sv_requests);
        rp_trusted = trusted;
        rp_breakdown = breakdown;
        rp_goodput_rps =
          (if traffic.tr_horizon_s > 0.0 then
             float_of_int trusted /. traffic.tr_horizon_s
           else 0.0);
        rp_p50_ms = Shard.percentile latencies 0.50;
        rp_p99_ms = Shard.percentile latencies 0.99;
        rp_max_queue =
          Array.fold_left (fun acc s -> max acc s.sv_max_queue) 0 per_shard;
        rp_batches = batches;
        rp_avg_batch =
          (if batches > 0 then float_of_int batched /. float_of_int batches else 0.0);
      }
    in
    (* one list across the shards, in shard order; the servers are
       dropped, so their logs are consumed in place *)
    let outcome_log = Array.fold_right unchunk servers [] in
    (report, outcome_log)

  let slo_watch ?(max_p99_ms = 250.0) ?(min_goodput_rps = 0.0) rp =
    [
      Slo.evaluate ~scope:"server"
        (Slo.objective ~unit:"ms" ~name:"server_p99_latency" ~limit:max_p99_ms
           Slo.At_most)
        ~observed:rp.rp_p99_ms;
      Slo.evaluate ~scope:"server"
        (Slo.objective ~unit:"rps" ~name:"server_goodput" ~limit:min_goodput_rps
           Slo.At_least)
        ~observed:rp.rp_goodput_rps;
    ]

  let render rp =
    let b = Buffer.create 256 in
    Printf.bprintf b
      "server: %d devices over %d shard%s — %d requests, %d trusted (%.1f rps goodput)\n"
      rp.rp_devices rp.rp_shards
      (if rp.rp_shards = 1 then "" else "s")
      rp.rp_requests rp.rp_trusted rp.rp_goodput_rps;
    Printf.bprintf b
      "  latency p50 %.2f ms, p99 %.2f ms; %d batches (avg %.1f reports), max queue %d\n"
      rp.rp_p50_ms rp.rp_p99_ms rp.rp_batches rp.rp_avg_batch rp.rp_max_queue;
    (match rp.rp_breakdown with
    | [] -> Buffer.add_string b "  rejections: none\n"
    | bd ->
      Buffer.add_string b "  rejections:";
      List.iter
        (fun (r, n) -> Printf.bprintf b " %s=%d" (Verdict.Reason.label r) n)
        bd;
      Buffer.add_char b '\n');
    Buffer.contents b
end

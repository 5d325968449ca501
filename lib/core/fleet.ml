type health = Healthy | Compromised | Unresponsive | Unknown

type member = {
  name : string;
  session : Session.t;
  mutable health : health;
  history : Verdict.t option Verdict.Log.t; (* one entry per sweep *)
}

type chaos_cell = {
  c_loss : float;
  c_policy : string;
  c_rounds : int;
  c_converged : int;
  c_mean_attempts : float;
  c_p50_s : float;
  c_p90_s : float;
  c_p99_s : float;
}

type t = {
  members : member list;
  index : (string, member) Hashtbl.t; (* name -> member, O(1) find *)
  spec : Architecture.spec; (* every member's world recipe *)
  ram_size : int option;
  mutable last_chaos : chaos_cell list; (* most recent chaos_sweep grid *)
  mutable forensics : Forensics.t option; (* capsule ring when capturing *)
}

let member_name m = m.name
let member_session m = m.session
let member_health m = m.health
let sweeps_of m = Verdict.Log.length m.history
let member_history m = Verdict.Log.to_list m.history

let sweep_latency_buckets =
  [| 1.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 750.0; 1000.0; 2500.0 |]

(* created once at module init; shard arenas merge into it *)
let sweep_latency =
  Ra_obs.Registry.Histogram.get ~buckets:sweep_latency_buckets
    "ra_fleet_sweep_latency_ms"

(* wider than the sweep buckets: backed-off rounds take tens of seconds *)
let chaos_latency_buckets =
  [|
    1.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0; 2500.0; 5000.0;
    10000.0; 30000.0; 60000.0; 120000.0;
  |]

(* chaos round metrics, created once; shard arenas merge into them *)
module Mc = struct
  let round r =
    Ra_obs.Registry.Counter.get ~labels:[ ("result", r) ] "ra_chaos_rounds_total"

  let converged = round "converged"
  let timed_out = round "timed_out"

  let time =
    Ra_obs.Registry.Histogram.get ~buckets:chaos_latency_buckets
      "ra_chaos_round_time_ms"
end

(* Where sweep and chaos rounds report their observations: the shard
   engine gives each shard an {!Ra_obs.Arena} sink, so the per-round hot
   path touches only domain-local memory, and the coordinator merges
   arenas in shard order — same totals, same registry families,
   deterministic merge. *)
type obs = {
  o_sweep_ms : float -> unit;
  o_chaos_ms : float -> unit;
  o_converged : unit -> unit;
  o_timed_out : unit -> unit;
}

let arena_obs arena =
  let module A = Ra_obs.Arena in
  let sweep_ms = A.Histogram.make arena sweep_latency in
  let chaos_ms = A.Histogram.make arena Mc.time in
  let converged = A.Counter.make arena Mc.converged in
  let timed_out = A.Counter.make arena Mc.timed_out in
  {
    o_sweep_ms = A.Histogram.observe sweep_ms;
    o_chaos_ms = A.Histogram.observe chaos_ms;
    o_converged = (fun () -> A.Counter.inc converged);
    o_timed_out = (fun () -> A.Counter.inc timed_out);
  }

let stagger_seconds = 1.0

let new_member ~spec ?ram_size name =
  { name; session = Session.create ~spec ?ram_size (); health = Unknown;
    history = Verdict.Log.create () }

let create ?(spec = Architecture.trustlite_base) ?ram_size ~names () =
  if names = [] then invalid_arg "Fleet.create: no members";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then invalid_arg "Fleet.create: duplicate member name";
      Hashtbl.replace seen n ())
    names;
  let members = List.map (new_member ~spec ?ram_size) names in
  let index = Hashtbl.create (List.length members) in
  List.iter (fun m -> Hashtbl.replace index m.name m) members;
  { members; index; spec; ram_size; last_chaos = []; forensics = None }

let members t = t.members

let find t name =
  match Hashtbl.find_opt t.index name with
  | Some m -> m
  | None -> raise Not_found

let advance t ~seconds =
  List.iter (fun m -> Session.advance_time m.session ~seconds) t.members

(* ---- forensic capture plumbing ---- *)

(* The wire frames in [\[lo, hi)] of a session's transcript, each as its
   contribution to a digest — shared between the whole-transcript
   [session_digest] and the per-round [window_digest], so a replayed
   round window can be checked against a capture made by either. *)
let feed_frames ctx session ~lo ~hi =
  Ra_net.Channel.fold_range (Session.channel session) ~lo ~hi
    (fun () sent_at src payload ->
      Ra_crypto.Sha1.feed ctx
        (Printf.sprintf "|%h|%s|%d|" sent_at
           (match src with
           | Ra_net.Channel.Verifier_side -> "v"
           | Ra_net.Channel.Prover_side -> "p")
           (String.length payload));
      Ra_crypto.Sha1.feed ctx payload)
    ()

(* Hex SHA-1 over the transcript entries in [\[tstart, tend)] — the wire
   activity of exactly one round, byte-for-byte. *)
let window_digest session ~tstart ~tend =
  let ctx = Ra_crypto.Sha1.init () in
  feed_frames ctx session ~lo:tstart ~hi:tend;
  Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha1.finalize ctx)

(* The replay-target guard a capsule carries: a fleet with a different
   spec or RAM size would re-execute a different world. *)
let config_digest t =
  let ctx = Ra_crypto.Sha1.init () in
  Ra_crypto.Sha1.feed ctx t.spec.Architecture.spec_name;
  Ra_crypto.Sha1.feed ctx
    (match t.ram_size with None -> "|-" | Some n -> Printf.sprintf "|%d" n);
  Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha1.finalize ctx)

let enable_forensics ?capacity t =
  match t.forensics with
  | Some f -> f
  | None ->
    let f = Forensics.create ?capacity () in
    t.forensics <- Some f;
    f

let capsules t = match t.forensics with None -> [] | Some f -> Forensics.capsules f

let classify_verdict = function
  | Verdict.Trusted -> Healthy
  | Verdict.Untrusted_state | Verdict.Invalid_response | Verdict.Fault _ -> Compromised
  | Verdict.Timed_out _ | Verdict.Bad_auth | Verdict.Not_fresh _ -> Unresponsive

let classify = function
  | Some Verdict.Trusted -> Healthy
  | Some v -> classify_verdict v
  | None -> Unresponsive

let sweep_member obs m =
  let time = Session.time m.session in
  let before = Ra_net.Simtime.now time in
  let verdict = Session.attest_round m.session in
  let after = Ra_net.Simtime.now time in
  obs.o_sweep_ms ((after -. before) *. 1000.0);
  m.health <- classify verdict;
  Verdict.Log.add m.history after verdict;
  verdict

(* Index-based stagger offsets. Member i (0-based, of n) is swept after
   i+1 stagger steps and ends the sweep with n steps total; the offsets
   are computed by one multiplication instead of accumulating [+. stagger]
   per step, so a 10k-member sweep is O(n) session operations, not O(n²),
   and member clocks carry no accumulated rounding drift — every shard
   count places member i's round at the {e same} float, bit for bit.
   (With the 1 s default stagger both forms are exact integers, so the
   switch is also bit-compatible with the old unit-step accumulation.) *)
let pre_offset i = float_of_int (i + 1) *. stagger_seconds
let post_offset ~n i = (float_of_int n *. stagger_seconds) -. pre_offset i

(* One member's share of a sweep, run as its event at [pre_offset i]:
   advance its private clock to its staggered slot, attest, then advance
   it past everyone else's slots so the whole fleet exits the sweep at
   the same clock. Touches only the member's own world. The lag probe
   sits between round and fast-forward: the lead over the timeline is
   the round's own simulated work, not the bookkeeping jump to the
   sweep's end. *)
let sweep_slot obs sched ~n i m =
  Session.advance_time m.session ~seconds:(pre_offset i);
  let verdict = sweep_member obs m in
  Sched.observe_lag sched ~member_now:(Ra_net.Simtime.now (Session.time m.session));
  Session.advance_time m.session ~seconds:(post_offset ~n i);
  verdict

(* Every fleet engine is {!Shard.run}: shard bodies touch no shared
   mutable state except their disjoint slices of per-member results, so
   callers read results back in member order. *)
let sweep ?(engine = `Shards 1) ?tracks t =
  let (`Shards shards) = engine in
  let members = Array.of_list t.members in
  let n = Array.length members in
  let results = Array.make n None in
  Shard.run ~who:"Fleet.sweep" ?tracks ~shards ~members:n
    (fun ~shard:_ arena sched ~lo ~hi ->
      let obs = arena_obs arena in
      for i = lo to hi - 1 do
        Sched.at sched ~at:(pre_offset i) (fun () ->
            results.(i) <- Some (sweep_slot obs sched ~n i members.(i)))
      done)
  |> ignore;
  List.mapi
    (fun i m ->
      match results.(i) with Some verdict -> (m.name, verdict) | None -> assert false)
    t.members

(* ---- chaos sweeps: convergence under an impaired wire ---- *)

(* history entries keep the closed-loop verdict where one exists so the
   pre-chaos ledger format (and the fingerprint's tag set) is unchanged;
   each of the three is one constant [Some] that every entry shares *)
let ledger_verdict = function
  | Verdict.Trusted -> Some Verdict.Trusted
  | Verdict.Untrusted_state -> Some Verdict.Untrusted_state
  | Verdict.Invalid_response -> Some Verdict.Invalid_response
  | Verdict.Bad_auth | Verdict.Not_fresh _ | Verdict.Fault _ | Verdict.Timed_out _ ->
    None

(* What one chaos "round" executes: the classic one-shot retry round, or
   one full secure-session lifecycle (handshake + [n] streamed records +
   close). Both yield a [Session.round], so every consumer downstream —
   tallies, ledgers, capsules — is workload-agnostic. *)
type workload = Forensics.workload

let workload_round_begin ~workload ~policy session =
  match workload with
  | `Attest -> Session.round_begin ~policy session
  | `Session records -> Secure_session.round_begin ~policy ~records session

let chaos_profile loss =
  if loss <= 0.0 then Ra_net.Impairment.pristine else Ra_net.Impairment.lossy loss

(* One shard's share of one (loss, policy) cell: what every member round
   in it reads, built once, and the shard's tallies, which the
   coordinator sums in shard order. The converged rounds' durations go
   into an unboxed column that the merge sorts, so their order within a
   shard is free. *)
type chaos_run = {
  cr_workload : workload;
  cr_obs : obs;
  cr_sched : Sched.t;
  cr_profile : Ra_net.Impairment.profile;
  cr_policy : Retry.policy;
  cr_rounds : int;
  cr_root : int64; (* member i's impairment seed is [derive_seed ~root ~index:i] *)
  cr_capture : (int -> round:int -> at:float -> tstart:int -> Session.round -> unit) option;
  mutable cr_converged : int;
  mutable cr_attempts : int;
  cr_durations : float array; (* the first [cr_converged] are set *)
}

let chaos_run ~workload obs sched ~profile ~policy ~rounds ~root ?capture ~members () =
  {
    cr_workload = workload;
    cr_obs = obs;
    cr_sched = sched;
    cr_profile = profile;
    cr_policy = policy;
    cr_rounds = rounds;
    cr_root = root;
    cr_capture = capture;
    cr_converged = 0;
    cr_attempts = 0;
    cr_durations = Array.create_float (members * rounds);
  }

(* One completed round's bookkeeping: metrics, the shard's tallies, and
   the member's health ledger. [at] is the member's clock at round
   start. *)
let chaos_record run m ~at (r : Session.round) =
  run.cr_obs.o_chaos_ms (r.Session.r_elapsed_s *. 1000.0);
  run.cr_attempts <- run.cr_attempts + r.Session.r_attempts;
  (match r.Session.r_verdict with
  | Verdict.Timed_out _ -> run.cr_obs.o_timed_out ()
  | _ ->
    run.cr_obs.o_converged ();
    run.cr_durations.(run.cr_converged) <- r.Session.r_elapsed_s;
    run.cr_converged <- run.cr_converged + 1);
  m.health <- classify_verdict r.Session.r_verdict;
  Verdict.Log.add m.history (at +. r.Session.r_elapsed_s) (ledger_verdict r.Session.r_verdict)

(* A member's state in one cell, built by its first event. A waiting
   member holds this record, its round's machine and the event that
   wakes it. *)
type chaos_member = {
  cm_run : chaos_run;
  cm_index : int;
  cm_member : member;
  mutable cm_left : int; (* rounds left, the current one included *)
  mutable cm_at : float; (* the current round's start on the member's clock *)
  mutable cm_tstart : int; (* the current round's first transcript position *)
  mutable cm_resume : unit -> Session.step; (* the open wait's *)
}

let member_now m = Ra_net.Simtime.now (Session.time m.session)
let no_wait () = invalid_arg "Fleet: no open wait"

(* A member's rounds in one cell on its shard's timeline: [rounds]
   rounds of the cell's workload, each [stagger_seconds] after the
   previous one ended (same advances as [sweep], so timestamp freshness
   behaves identically), then the wire goes back to pristine. Every
   [Round_wait] of the round machine becomes an event at the member's
   own clock plus the wait; a member's event keys are strictly
   increasing and the heap pops the globally earliest, so the shared
   timeline is monotone and round work from thousands of members
   interleaves in deterministic (time, insertion) order. [resume]
   performs the [advance_time] itself, so the member sees the same
   operations whatever else shares its timeline. Touches only the
   member's own world. The functions are top-level, so a member's events
   capture only its state record. *)
let rec chaos_round cm =
  let session = cm.cm_member.session in
  Session.advance_time session ~seconds:stagger_seconds;
  cm.cm_at <- member_now cm.cm_member;
  cm.cm_tstart <- Ra_net.Channel.transcript_length (Session.channel session);
  let run = cm.cm_run in
  chaos_drive cm
    (workload_round_begin ~workload:run.cr_workload ~policy:run.cr_policy session);
  Sched.observe_lag run.cr_sched ~member_now:(member_now cm.cm_member)

and chaos_drive cm = function
  | Session.Round_done r ->
    let run = cm.cm_run and m = cm.cm_member in
    chaos_record run m ~at:cm.cm_at r;
    (match run.cr_capture with
    | None -> ()
    | Some f ->
      f cm.cm_index ~round:(run.cr_rounds - cm.cm_left + 1) ~at:cm.cm_at ~tstart:cm.cm_tstart r);
    if cm.cm_left > 1 then begin
      cm.cm_left <- cm.cm_left - 1;
      Sched.at run.cr_sched ~at:(member_now m +. stagger_seconds) (fun () -> chaos_round cm)
    end
    else Session.set_impairment m.session None
  | Session.Round_wait { wait_s; resume } ->
    cm.cm_resume <- resume;
    Sched.at cm.cm_run.cr_sched
      ~at:(member_now cm.cm_member +. wait_s)
      (fun () -> chaos_wake cm)

and chaos_wake cm =
  let resume = cm.cm_resume in
  cm.cm_resume <- no_wait;
  chaos_drive cm (resume ());
  Sched.observe_lag cm.cm_run.cr_sched ~member_now:(member_now cm.cm_member)

(* Member [index]'s first event in a cell: install its private seeded
   impairment, build its state and start its first round. Nothing of it
   exists before the event fires: the cell schedules every member before
   any runs, so state built then would outlive minor collections and be
   promoted, while a member whose rounds end within their first event
   leaves it all in the minor heap. *)
let chaos_start run ~index m =
  Session.set_impairment m.session
    (Some
       (Ra_net.Impairment.create ~to_prover:run.cr_profile ~to_verifier:run.cr_profile
          ~seed:(Ra_net.Impairment.derive_seed ~root:run.cr_root ~index)
          ()));
  chaos_round
    {
      cm_run = run;
      cm_index = index;
      cm_member = m;
      cm_left = run.cr_rounds;
      cm_at = 0.0;
      cm_tstart = 0;
      cm_resume = no_wait;
    }

(* A grid whose loss rates all lie in [0, 1]; a NaN is outside too. *)
let check_losses losses =
  match List.find_opt (fun l -> not (l >= 0.0 && l <= 1.0)) losses with
  | Some l -> Error (Printf.sprintf "loss %g outside [0, 1]" l)
  | None -> Ok ()

(* A capturing sweep's last step for a kept capsule, on the coordinator:
   the digest of its transcript window [tstart, tend), read from the
   member's own session. The transcript is complete, so the window is
   still there after the member's later rounds. *)
let finish members ((c : Forensics.capsule), tstart, tend) =
  let session = members.(c.Forensics.cap_member).session in
  { c with cap_wire_digest = window_digest session ~tstart ~tend }

let chaos_sweep ?(seed = 0xC4A05L) ?(rounds_per_member = 10) ?(engine = `Shards 1)
    ?(workload = `Attest) ~losses ~policies t =
  let (`Shards shards) = engine in
  if losses = [] then invalid_arg "Fleet.chaos_sweep: no loss rates";
  if policies = [] then invalid_arg "Fleet.chaos_sweep: no policies";
  if rounds_per_member < 1 then invalid_arg "Fleet.chaos_sweep: rounds_per_member < 1";
  (match workload with
  | `Session n when n < 0 -> invalid_arg "Fleet.chaos_sweep: negative session records"
  | `Session _ | `Attest -> ());
  List.iter (fun (_, p) -> Retry.validate p) policies;
  Result.iter_error (fun msg -> invalid_arg ("Fleet.chaos_sweep: " ^ msg)) (check_losses losses);
  let members = Array.of_list t.members in
  let n = Array.length members in
  let seeder = Ra_crypto.Prng.create seed in
  let cells =
    List.concat_map
      (fun loss -> List.map (fun (name, policy) -> (loss, name, policy)) policies)
      losses
  in
  let prior = Array.map sweeps_of members in
  let config = config_digest t in
  let run_cell cell_idx (loss, policy_name, policy) =
    (* one root draw per cell; member i's impairment seed is the pure
       function [Impairment.derive_seed ~root ~index:i] of it, so the
       schedule member i experiences is identical however the cell is
       partitioned — at any shard count *)
    let root = Ra_crypto.Prng.next_int64 seeder in
    let seed_of i = Ra_net.Impairment.derive_seed ~root ~index:i in
    let profile = chaos_profile loss in
    (* Capture keeps, per member, its failure capsules (newest first) and
       its slowest converged round so far, each with its transcript
       window. The per-round hook runs on the member's own domain and
       touches only that member's slots and session, so capture is safe
       under every engine and changes nothing on the wire; a discarded
       candidate never pays for a digest. The dominant phase is read
       here, while the member's profile ring still holds the round: its
       later rounds may evict the samples before the cell merges. *)
    let capture =
      Option.map (fun ring -> (ring, Array.make n [], Array.make n None)) t.forensics
    in
    let hook =
      Option.map
        (fun (_, fails, slow) i ~round ~at ~tstart (r : Session.round) ->
          let m = members.(i) in
          let held kind =
            let trace_id =
              match Session.tracing m.session with
              | None -> None
              | Some tr ->
                Option.map
                  (fun rd -> rd.Ra_obs.Trace.rd_trace_id)
                  (Ra_obs.Recorder.latest (Ra_obs.Trace.recorder tr))
            in
            let phase =
              match (Session.profiling m.session, trace_id) with
              | Some p, Some id ->
                Forensics.dominant_phase
                  (Ra_obs.Profiler.Phases.samples p.Ra_obs.Profiler.phases)
                  ~trace_id:id
              | (Some _ | None), _ -> None
            in
            ( {
                Forensics.cap_kind = kind;
                cap_member = i;
                cap_name = m.name;
                cap_sweep_seed = seed;
                cap_losses = losses;
                cap_policies = policies;
                cap_rounds_per_member = rounds_per_member;
                cap_cell = cell_idx;
                cap_loss = loss;
                cap_policy = policy_name;
                cap_round = round;
                cap_workload = workload;
                cap_imp_seed = seed_of i;
                cap_prior_sweeps = prior.(i);
                cap_started_at = at;
                cap_elapsed_s = r.Session.r_elapsed_s;
                cap_attempts = r.Session.r_attempts;
                cap_verdict = r.Session.r_verdict;
                cap_trace_id = trace_id;
                cap_phase = phase;
                cap_wire_digest = "";
                cap_config = config;
              },
              tstart,
              Ra_net.Channel.transcript_length (Session.channel m.session) )
          in
          match (r.Session.r_verdict, slow.(i)) with
          | Verdict.Trusted, Some ((s : Forensics.capsule), _, _)
            when s.cap_elapsed_s >= r.Session.r_elapsed_s ->
            (* the strictly slowest converged round; the first wins ties *)
            ()
          | Verdict.Trusted, _ -> slow.(i) <- Some (held Forensics.Slowest)
          | _ -> fails.(i) <- held Forensics.Failure :: fails.(i))
        capture
    in
    (* each member goes on its shard's timeline as a closure of its
       index over the shard's one start function, at the instant and in
       the order it always had *)
    let runs =
      Shard.run ~who:"Fleet.chaos_sweep" ~shards ~members:n
        (fun ~shard:_ arena sched ~lo ~hi ->
          let run =
            chaos_run ~workload (arena_obs arena) sched ~profile ~policy
              ~rounds:rounds_per_member ~root ?capture:hook ~members:(hi - lo) ()
          in
          let start i = chaos_start run ~index:i members.(i) in
          for i = lo to hi - 1 do
            Sched.at sched ~at:(member_now members.(i) +. stagger_seconds) (fun () -> start i)
          done;
          run)
    in
    (* merge the kept capsules into the ring — coordinator only, member
       order, so the capsule stream is identical at every shard count:
       every failure, then one cell-wide slowest converged round (the
       latency exemplar; strictly greater wins, so ties keep the
       earliest member) *)
    Option.iter
      (fun (ring, fails, slow) ->
        let keep h = Forensics.capture ring (finish members h) in
        Array.iter (fun held -> List.iter keep (List.rev held)) fails;
        let slowest =
          Array.fold_left
            (fun best held ->
              match (held, best) with
              | Some ((c : Forensics.capsule), _, _), Some ((b : Forensics.capsule), _, _)
                when c.cap_elapsed_s <= b.cap_elapsed_s ->
                best
              | Some _, _ -> held
              | None, _ -> best)
            None slow
        in
        Option.iter keep slowest)
      capture;
    let total = n * rounds_per_member in
    let converged = Array.fold_left (fun acc r -> acc + r.cr_converged) 0 runs in
    let attempts = Array.fold_left (fun acc r -> acc + r.cr_attempts) 0 runs in
    let durations = Array.create_float converged in
    ignore
      (Array.fold_left
         (fun pos r ->
           Array.blit r.cr_durations 0 durations pos r.cr_converged;
           pos + r.cr_converged)
         0 runs);
    Array.sort Float.compare durations;
    {
      c_loss = loss;
      c_policy = policy_name;
      c_rounds = total;
      c_converged = converged;
      c_mean_attempts = float_of_int attempts /. float_of_int total;
      c_p50_s = Shard.percentile durations 0.50;
      c_p90_s = Shard.percentile durations 0.90;
      c_p99_s = Shard.percentile durations 0.99;
    }
  in
  let grid = List.mapi run_cell cells in
  t.last_chaos <- grid;
  grid

(* ---- capsule replay: re-execute exactly one captured round ---- *)

type replay = {
  rp_verdict : Verdict.t;
  rp_attempts : int;
  rp_elapsed_s : float;
  rp_started_at : float;
  rp_digest : string;
  rp_match : bool;
  rp_round : Ra_obs.Trace.round option;
  rp_profile : Ra_obs.Profiler.t option;
}

(* A capsule pins (sweep seed, grid, member index, cell, round), and the
   whole pipeline under it is deterministic: [Session.create] builds a
   bit-identical world from the spec, the retry PRNG is fixed per
   session, and the impairment schedule is the pure function of
   (seed, cell, member index) the capsule re-derives. So replay =
   re-execute the member's full history up to the captured round from a
   fresh session — every PRNG draw happens in the same order — then run
   the captured round with tracing and profiling forced on. *)
let replay_capsule t (cap : Forensics.capsule) =
  let n_cells = List.length cap.cap_losses * List.length cap.cap_policies in
  if cap.cap_config <> config_digest t then
    Error "capsule was captured on a different fleet configuration"
  else if cap.cap_prior_sweeps <> 0 then
    Error "member had pre-sweep history; fresh-session replay is unsound"
  else if cap.cap_cell < 0 || cap.cap_cell >= n_cells then
    Error "capsule cell index is outside its own loss x policy grid"
  else if cap.cap_round < 1 || cap.cap_round > cap.cap_rounds_per_member then
    Error "capsule round index is outside rounds_per_member"
  else if cap.cap_member < 0 then Error "negative member index"
  else
    match check_losses cap.cap_losses with
    | Error msg -> Error ("capsule " ^ msg)
    | Ok () -> (
    match List.iter (fun (_, p) -> Retry.validate p) cap.cap_policies with
    | exception Invalid_argument msg -> Error ("capsule retry policy: " ^ msg)
    | () ->
      let cells =
        List.concat_map
          (fun loss -> List.map (fun (_, policy) -> (loss, policy)) cap.cap_policies)
          cap.cap_losses
      in
      let seeder = Ra_crypto.Prng.create cap.cap_sweep_seed in
      let roots =
        Array.init (cap.cap_cell + 1) (fun _ -> Ra_crypto.Prng.next_int64 seeder)
      in
      let target_seed =
        Ra_net.Impairment.derive_seed ~root:roots.(cap.cap_cell)
          ~index:cap.cap_member
      in
      if target_seed <> cap.cap_imp_seed then
        Error
          "impairment seed mismatch: capsule position does not re-derive its \
           recorded seed"
      else begin
        let m = new_member ~spec:t.spec ?ram_size:t.ram_size cap.cap_name in
        let session = m.session in
        let cells = Array.of_list cells in
        (* the sweep's own member round driver on a private timeline; its
           metrics land in a scratch arena that is never flushed, so a
           replay leaves the registry untouched *)
        let run_cell ?capture ci ~rounds =
          let loss, policy = cells.(ci) in
          let arena = Ra_obs.Arena.create () in
          let sched = Sched.create ~metrics:(Sched.arena_metrics arena) () in
          let run =
            chaos_run ~workload:cap.cap_workload (arena_obs arena) sched
              ~profile:(chaos_profile loss) ~policy ~rounds ~root:roots.(ci) ?capture
              ~members:1 ()
          in
          Sched.at sched
            ~at:(member_now m +. stagger_seconds)
            (fun () -> chaos_start run ~index:cap.cap_member m);
          let (_ : int) = Sched.run sched in
          ()
        in
        (* fast-forward: the member's rounds in every cell before the
           captured one — the identical operation sequence the sweep ran,
           so every PRNG draw (retry jitter, impairment schedule) lines up *)
        for ci = 0 to cap.cap_cell - 1 do
          run_cell ci ~rounds:cap.cap_rounds_per_member
        done;
        (* then the captured cell up to the captured round, with full
           observability forced on just before that round starts
           (out-of-band by invariant: neither touches wire or PRNGs) *)
        let observed = ref None and captured = ref None in
        let observe () =
          observed :=
            Some
              ( Session.enable_tracing ~device:cap.cap_name session,
                Session.enable_profiling ~device:cap.cap_name session )
        in
        if cap.cap_round = 1 then observe ();
        run_cell cap.cap_cell ~rounds:cap.cap_round
          ~capture:(fun _ ~round ~at ~tstart r ->
            if round = cap.cap_round - 1 then observe ()
            else if round = cap.cap_round then begin
              let tend = Ra_net.Channel.transcript_length (Session.channel session) in
              captured := Some (at, r, window_digest session ~tstart ~tend)
            end);
        let tracer, profiler = Option.get !observed in
        let at, r, digest = Option.get !captured in
        let rp_match =
          String.equal digest cap.cap_wire_digest
          && r.Session.r_verdict = cap.cap_verdict
          && r.Session.r_attempts = cap.cap_attempts
          && r.Session.r_elapsed_s = cap.cap_elapsed_s
          && at = cap.cap_started_at
        in
        Ok
          {
            rp_verdict = r.Session.r_verdict;
            rp_attempts = r.Session.r_attempts;
            rp_elapsed_s = r.Session.r_elapsed_s;
            rp_started_at = at;
            rp_digest = digest;
            rp_match;
            rp_round =
              Ra_obs.Recorder.latest (Ra_obs.Trace.recorder tracer);
            rp_profile = Some profiler;
          }
      end)

let annotate_exemplars t =
  match t.forensics with
  | None -> 0
  | Some f ->
    Forensics.annotate_exemplars ~histogram:Mc.time (Forensics.capsules f)

let last_chaos t = t.last_chaos

let convergence_pct cell =
  100.0 *. float_of_int cell.c_converged /. float_of_int cell.c_rounds

(* ---- streaming sweeps: million-device fleets in bounded memory ---- *)

(* A 1M-member [t] holds a million materialised members, each the
   [member_resident_bytes] row of BENCH_hotpath.json. The streaming sweep
   holds ONE live session per shard at a time: create member i's world,
   run it through [sweep_slot] like any swept member, fold the outcome
   into per-shard tallies and an order-independent fingerprint,
   drop the world. The fingerprint XORs per-member SHA-1 digests, so it
   is invariant under any partition of the member range — the checkable
   analogue of the materialised engines' byte-identity. *)

(* byte-stable: Verdict.label yields exactly the historical tag set
   ("trusted", "untrusted_state", "invalid_response") for every verdict a
   benign sweep can produce *)
let verdict_tag = function
  | None -> "|none|"
  | Some v -> "|" ^ Verdict.label v ^ "|"

(* Everything observable about one swept member's world: name, verdict,
   final private clock, and the full wire transcript (timestamps,
   directions, raw frames). Two runs agree on this digest only if the
   member saw byte-identical traffic and time. *)
let session_digest ~name ~verdict session =
  let ctx = Ra_crypto.Sha1.init () in
  Ra_crypto.Sha1.feed ctx name;
  Ra_crypto.Sha1.feed ctx (verdict_tag verdict);
  Ra_crypto.Sha1.feed ctx
    (Printf.sprintf "%h" (Ra_net.Simtime.now (Session.time session)));
  feed_frames ctx session ~lo:0
    ~hi:(Ra_net.Channel.transcript_length (Session.channel session));
  Ra_crypto.Sha1.finalize ctx

let zero_digest = String.make Ra_crypto.Sha1.digest_size '\000'

let last_verdict m =
  if Verdict.Log.length m.history = 0 then None else Verdict.Log.last m.history

(* XOR of per-member digests over a materialised fleet — comparable
   against [stream_sweep]'s fingerprint when both ran the same sweep. *)
let fingerprint t =
  Ra_crypto.Hexutil.to_hex
    (List.fold_left
       (fun acc m ->
         Ra_crypto.Hexutil.xor acc
           (session_digest ~name:m.name ~verdict:(last_verdict m) m.session))
       zero_digest t.members)

type stream_report = {
  st_members : int;
  st_shards : int;
  st_healthy : int;
  st_compromised : int;
  st_unresponsive : int;
  st_fingerprint : string;
}

let stream_name i = Printf.sprintf "dev-%07d" i

let stream_sweep ?(spec = Architecture.trustlite_base) ?ram_size ?(shards = 1) ~members
    () =
  if members < 1 then invalid_arg "Fleet.stream_sweep: members < 1";
  if shards < 1 then invalid_arg "Fleet.stream_sweep: shards must be >= 1";
  (* per-shard tallies merged by sums and XOR — both order-independent,
     so the report is a pure function of (spec, members), not of the
     shard count or domain schedule *)
  let healthy = Array.make shards 0 in
  let compromised = Array.make shards 0 in
  let unresponsive = Array.make shards 0 in
  let fingers = Array.make shards zero_digest in
  Shard.run ~who:"Fleet.stream_sweep" ~shards ~members
    (fun ~shard:s arena sched ~lo ~hi ->
      let obs = arena_obs arena in
      (* member i's event creates its world, runs the sweep slot, folds
         the outcome in and only then schedules member i+1 — the queue
         never holds more than one member *)
      let rec slot i =
        if i < hi then
          Sched.at sched ~at:(pre_offset i) (fun () ->
              let m = new_member ~spec ?ram_size (stream_name i) in
              let verdict = sweep_slot obs sched ~n:members i m in
              (match m.health with
              | Healthy -> healthy.(s) <- healthy.(s) + 1
              | Compromised -> compromised.(s) <- compromised.(s) + 1
              | Unresponsive | Unknown -> unresponsive.(s) <- unresponsive.(s) + 1);
              fingers.(s) <-
                Ra_crypto.Hexutil.xor fingers.(s)
                  (session_digest ~name:m.name ~verdict m.session);
              slot (i + 1))
      in
      slot lo)
  |> ignore;
  let sum a = Array.fold_left ( + ) 0 a in
  {
    st_members = members;
    st_shards = shards;
    st_healthy = sum healthy;
    st_compromised = sum compromised;
    st_unresponsive = sum unresponsive;
    st_fingerprint =
      Ra_crypto.Hexutil.to_hex (Array.fold_left Ra_crypto.Hexutil.xor zero_digest fingers);
  }

(* ---- causal tracing: per-member flight recorders ---- *)

let enable_tracing ?capacity ?max_events t =
  List.iter
    (fun m ->
      ignore
        (Session.enable_tracing ?capacity ?max_events ~device:m.name m.session))
    t.members

let recent_rounds t =
  List.concat_map
    (fun m ->
      match Session.tracing m.session with
      | None -> []
      | Some tracer -> Ra_obs.Trace.rounds tracer)
    t.members

(* ---- cycle/energy profiling: per-member profiles, member-order merge ---- *)

let enable_profiling ?capacity t =
  List.iter
    (fun m ->
      ignore (Session.enable_profiling ?capacity ~device:m.name m.session))
    t.members

(* Fleet-wide profile: the member profiles absorbed in member-index order
   into one accumulator, whose ring is sized to the surviving sample
   count so the merge never evicts. *)
let profile t =
  let member_profiles = List.filter_map (fun m -> Session.profiling m.session) t.members in
  let total_samples =
    List.fold_left
      (fun acc p -> acc + Ra_obs.Profiler.Phases.length p.Ra_obs.Profiler.phases)
      0 member_profiles
  in
  let merged = Ra_obs.Profiler.create ~capacity:(max 1 total_samples) () in
  List.iter (Ra_obs.Profiler.absorb merged) member_profiles;
  merged

(* ---- SLO watchdog over chaos cells and member ledgers ---- *)

type slo_policy = {
  slo_min_convergence_pct : float;
  slo_max_p99_s : float;
  slo_max_rejection_pct : float;
}

let default_slo_policy =
  { slo_min_convergence_pct = 99.0; slo_max_p99_s = 60.0; slo_max_rejection_pct = 1.0 }

let slo_watch ?(policy = default_slo_policy) t =
  let open Ra_obs in
  let convergence =
    Slo.objective ~unit:"%" ~name:"chaos_convergence"
      ~limit:policy.slo_min_convergence_pct Slo.At_least
  in
  let p99 =
    Slo.objective ~unit:"s" ~name:"chaos_p99_latency" ~limit:policy.slo_max_p99_s
      Slo.At_most
  in
  let rejection =
    Slo.objective ~unit:"%" ~name:"fleet_rejection_rate"
      ~limit:policy.slo_max_rejection_pct Slo.At_most
  in
  let cell_checks =
    List.concat_map
      (fun c ->
        let scope =
          Printf.sprintf "loss=%.0f%% policy=%s" (100.0 *. c.c_loss) c.c_policy
        in
        let conv = Slo.evaluate ~scope convergence ~observed:(convergence_pct c) in
        (* p99 over converged rounds only; a cell where nothing converged
           has no latency distribution to judge (convergence already
           flags it) *)
        if c.c_converged > 0 then
          [ conv; Slo.evaluate ~scope p99 ~observed:c.c_p99_s ]
        else [ conv ])
      t.last_chaos
  in
  let total, rejected =
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun (total, rejected) (_, verdict) ->
            match verdict with
            | Some Verdict.Trusted -> (total + 1, rejected)
            | Some _ | None -> (total + 1, rejected + 1))
          acc (member_history m))
      (0, 0) t.members
  in
  let ledger_checks =
    (* an empty ledger (no sweeps yet) yields no checks rather than a
       vacuous 0% pass *)
    if total = 0 then []
    else
      [
        Slo.evaluate ~scope:"fleet"
          rejection
          ~observed:(100.0 *. float_of_int rejected /. float_of_int total);
      ]
  in
  cell_checks @ ledger_checks

let summary t = List.map (fun m -> (m.name, m.health, sweeps_of m)) t.members

let compromised t =
  List.filter_map
    (fun m -> match m.health with
      | Compromised -> Some m.name
      | Healthy | Unresponsive | Unknown -> None)
    t.members

let pp_health fmt = function
  | Healthy -> Format.pp_print_string fmt "healthy"
  | Compromised -> Format.pp_print_string fmt "COMPROMISED"
  | Unresponsive -> Format.pp_print_string fmt "unresponsive"
  | Unknown -> Format.pp_print_string fmt "unknown"

let health_label = function
  | Healthy -> "healthy"
  | Compromised -> "compromised"
  | Unresponsive -> "unresponsive"
  | Unknown -> "unknown"

type member_report = {
  r_name : string;
  r_health : health;
  r_sweeps : int;
  r_history : (float * Verdict.t option) list; (* chronological *)
  r_service_stats : Service.stats;
  r_anchor_stats : Code_attest.stats;
}

type snapshot = {
  s_members : member_report list;
  s_healthy : int;
  s_compromised : int;
  s_unresponsive : int;
  s_unknown : int;
  s_sweep_latency_p50_ms : float;
  s_sweep_latency_p90_ms : float;
  s_sweep_latency_p99_ms : float;
  s_chaos : chaos_cell list;
  s_slo : Ra_obs.Slo.check list;
}

let count_health members h =
  List.length (List.filter (fun m -> m.health = h) members)

let health_snapshot ?(registry = Ra_obs.Registry.default) t =
  let reports =
    List.map
      (fun m ->
        Ra_mcu.Device.observe_gauges ~registry
          ~labels:[ ("device", m.name) ]
          (Session.device m.session);
        {
          r_name = m.name;
          r_health = m.health;
          r_sweeps = sweeps_of m;
          r_history = member_history m;
          r_service_stats = Service.stats (Session.service m.session);
          r_anchor_stats = Code_attest.stats (Session.anchor m.session);
        })
      t.members
  in
  let set_members h n =
    Ra_obs.Registry.Gauge.set
      (Ra_obs.Registry.Gauge.get ~registry
         ~labels:[ ("health", health_label h) ]
         "ra_fleet_members")
      (float_of_int n)
  in
  let healthy = count_health t.members Healthy in
  let comp = count_health t.members Compromised in
  let unresp = count_health t.members Unresponsive in
  let unknown = count_health t.members Unknown in
  set_members Healthy healthy;
  set_members Compromised comp;
  set_members Unresponsive unresp;
  set_members Unknown unknown;
  {
    s_members = reports;
    s_healthy = healthy;
    s_compromised = comp;
    s_unresponsive = unresp;
    s_unknown = unknown;
    s_sweep_latency_p50_ms = Ra_obs.Registry.Histogram.percentile sweep_latency 50.0;
    s_sweep_latency_p90_ms = Ra_obs.Registry.Histogram.percentile sweep_latency 90.0;
    s_sweep_latency_p99_ms = Ra_obs.Registry.Histogram.percentile sweep_latency 99.0;
    s_chaos = t.last_chaos;
    s_slo = slo_watch t;
  }

let pp_verdict_opt fmt = function
  | None -> Format.pp_print_string fmt "no response"
  | Some v -> Verdict.pp fmt v

let render_health snapshot =
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "fleet: %d healthy, %d compromised, %d unresponsive, %d unknown@."
    snapshot.s_healthy snapshot.s_compromised snapshot.s_unresponsive
    snapshot.s_unknown;
  (* the percentiles are nan when no plain sweep ever fed the histogram
     (e.g. a chaos-only run) — skip the line rather than print nan *)
  if Float.is_finite snapshot.s_sweep_latency_p50_ms then
    Format.fprintf fmt
      "sweep latency: p50 <= %.0f ms, p90 <= %.0f ms, p99 <= %.0f ms@."
      snapshot.s_sweep_latency_p50_ms snapshot.s_sweep_latency_p90_ms
      snapshot.s_sweep_latency_p99_ms;
  if snapshot.s_chaos <> [] then begin
    Format.fprintf fmt "chaos sweep (loss x policy -> convergence):@.";
    List.iter
      (fun c ->
        Format.fprintf fmt
          "  loss=%4.0f%% policy=%-10s %5.1f%% converged (%d/%d) mean attempts %.2f \
           p50 %.3f s p90 %.3f s p99 %.3f s@."
          (100.0 *. c.c_loss) c.c_policy (convergence_pct c) c.c_converged c.c_rounds
          c.c_mean_attempts c.c_p50_s c.c_p90_s c.c_p99_s)
      snapshot.s_chaos
  end;
  if snapshot.s_slo <> [] then begin
    let breaches = Ra_obs.Slo.breaches snapshot.s_slo in
    if breaches = [] then
      Format.fprintf fmt "slo: all %d objectives met@."
        (List.length snapshot.s_slo)
    else
      List.iter
        (fun c -> Format.fprintf fmt "  slo: %a@." Ra_obs.Slo.pp_check c)
        breaches
  end;
  List.iter
    (fun r ->
      let last =
        match List.rev r.r_history with
        | [] -> Format.asprintf "never swept"
        | (at, v) :: _ -> Format.asprintf "last %a at %.1f s" pp_verdict_opt v at
      in
      Format.fprintf fmt
        "  %-12s %-12s sweeps=%-3d attested=%d/%d svc ok=%d bad_auth=%d \
         not_fresh=%d fault=%d (%s)@."
        r.r_name
        (health_label r.r_health)
        r.r_sweeps r.r_anchor_stats.Code_attest.attestations_performed
        r.r_anchor_stats.Code_attest.requests_seen r.r_service_stats.Service.invocations
        (Service.rejected r.r_service_stats Verdict.Reason.Bad_auth)
        (Service.rejected r.r_service_stats Verdict.Reason.Not_fresh)
        (Service.rejected r.r_service_stats Verdict.Reason.Fault)
        last)
    snapshot.s_members;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

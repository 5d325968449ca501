(* Sequential reference fold for the fleet engine.

   The plain sweep and the chaos sweep written as straight-line loops over
   independent member sessions, through the public Session /
   Secure_session / Impairment / Prng API only: no scheduler, no shards,
   no arenas. Every engine-equivalence test compares [Fleet]'s sharded
   event engine against this fold, so what it defines — stagger offsets,
   positional impairment seeding, ledger entries, grid statistics — is
   the contract the engine must reproduce bit for bit. *)

open Ra_core
module Simtime = Ra_net.Simtime
module Impairment = Ra_net.Impairment

type member = {
  name : string;
  session : Session.t;
  mutable health : Fleet.health;
  mutable sweeps : int;
  mutable history : (float * Verdict.t option) list; (* newest first *)
}

type t = member list

let create ?spec ?ram_size ~names () =
  List.map
    (fun name ->
      {
        name;
        session = Session.create ?spec ?ram_size ();
        health = Fleet.Unknown;
        sweeps = 0;
        history = [];
      })
    names

let advance t ~seconds = List.iter (fun m -> Session.advance_time m.session ~seconds) t

let enable_tracing t =
  List.iter (fun m -> ignore (Session.enable_tracing ~device:m.name m.session)) t

let now m = Simtime.now (Session.time m.session)

(* member i of n attests [(i+1) * stagger] into the sweep and leaves it
   at [n * stagger] *)
let sweep t =
  let n = List.length t in
  let stagger = Fleet.stagger_seconds in
  List.mapi
    (fun i m ->
      let pre = float_of_int (i + 1) *. stagger in
      Session.advance_time m.session ~seconds:pre;
      let verdict = Session.attest_round m.session in
      m.health <-
        (match verdict with
        | Some v -> Fleet.classify_verdict v
        | None -> Fleet.Unresponsive);
      m.sweeps <- m.sweeps + 1;
      m.history <- (now m, verdict) :: m.history;
      Session.advance_time m.session ~seconds:((float_of_int n *. stagger) -. pre);
      (m.name, verdict))
    t

(* nearest-rank percentile over a sorted sample; 0 when empty *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* ledgers keep only closed-loop verdicts *)
let ledger_verdict = function
  | (Verdict.Trusted | Verdict.Untrusted_state | Verdict.Invalid_response) as v -> Some v
  | Verdict.Bad_auth | Verdict.Not_fresh _ | Verdict.Fault _ | Verdict.Timed_out _ -> None

let round ~workload ~policy session =
  Session.drive_round
    (match workload with
    | `Attest -> Session.round_begin ~policy session
    | `Session records -> Secure_session.round_begin ~policy ~records session)

(* One cell per (loss, policy), losses outermost. Each cell draws one
   root from [seed]; member i's impairment seed is
   [Impairment.derive_seed ~root ~index:i]. *)
let chaos_sweep ?(seed = 0xC4A05L) ?(rounds_per_member = 10) ?(workload = `Attest)
    ~losses ~policies t =
  let seeder = Ra_crypto.Prng.create seed in
  let cells =
    List.concat_map
      (fun loss -> List.map (fun (name, p) -> (loss, name, p)) policies)
      losses
  in
  List.map
    (fun (loss, policy_name, policy) ->
      let root = Ra_crypto.Prng.next_int64 seeder in
      let profile = if loss <= 0.0 then Impairment.pristine else Impairment.lossy loss in
      let converged = ref 0 and attempts = ref 0 and durations = ref [] in
      List.iteri
        (fun i m ->
          Session.set_impairment m.session
            (Some
               (Impairment.create ~to_prover:profile ~to_verifier:profile
                  ~seed:(Impairment.derive_seed ~root ~index:i) ()));
          for _ = 1 to rounds_per_member do
            Session.advance_time m.session ~seconds:Fleet.stagger_seconds;
            let at = now m in
            let r = round ~workload ~policy m.session in
            attempts := !attempts + r.Session.r_attempts;
            (match r.Session.r_verdict with
            | Verdict.Timed_out _ -> ()
            | _ ->
              incr converged;
              durations := r.Session.r_elapsed_s :: !durations);
            m.health <- Fleet.classify_verdict r.Session.r_verdict;
            m.sweeps <- m.sweeps + 1;
            m.history <-
              (at +. r.Session.r_elapsed_s, ledger_verdict r.Session.r_verdict) :: m.history
          done;
          Session.set_impairment m.session None)
        t;
      let total = List.length t * rounds_per_member in
      let sorted = Array.of_list !durations in
      Array.sort compare sorted;
      {
        Fleet.c_loss = loss;
        c_policy = policy_name;
        c_rounds = total;
        c_converged = !converged;
        c_mean_attempts = float_of_int !attempts /. float_of_int total;
        c_p50_s = percentile sorted 50.0;
        c_p90_s = percentile sorted 90.0;
        c_p99_s = percentile sorted 99.0;
      })
    cells

(* The observable state of a fleet — (name, health, sweeps) summary,
   chronological ledgers, member clocks, wire transcripts — in the same
   shape for the oracle and for a [Fleet.t]. *)
let state t =
  ( List.map (fun m -> (m.name, m.health, m.sweeps)) t,
    List.map (fun m -> List.rev m.history) t,
    List.map now t,
    List.map (fun m -> Ra_net.Channel.transcript (Session.channel m.session)) t )

let fleet_state f =
  let sessions = List.map Fleet.member_session (Fleet.members f) in
  ( Fleet.summary f,
    List.map Fleet.member_history (Fleet.members f),
    List.map (fun s -> Simtime.now (Session.time s)) sessions,
    List.map (fun s -> Ra_net.Channel.transcript (Session.channel s)) sessions )

(* sealed flight-recorder rounds, member order then oldest first *)
let recent_rounds t =
  List.concat_map
    (fun m ->
      match Session.tracing m.session with
      | None -> []
      | Some tracer -> Ra_obs.Trace.rounds tracer)
    t

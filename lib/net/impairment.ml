module Prng = Ra_crypto.Prng

type loss_model =
  | Iid of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

type profile = {
  loss : loss_model;
  duplicate : float;
  reorder : float;
  corrupt : float;
  delay : float;
  delay_s : float;
}

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Impairment: %s probability %g outside [0,1]" what p)

let check_profile p =
  (match p.loss with
  | Iid r -> check_prob "loss" r
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
    check_prob "good->bad" p_good_to_bad;
    check_prob "bad->good" p_bad_to_good;
    check_prob "loss (good)" loss_good;
    check_prob "loss (bad)" loss_bad);
  check_prob "duplicate" p.duplicate;
  check_prob "reorder" p.reorder;
  check_prob "corrupt" p.corrupt;
  check_prob "delay" p.delay;
  if p.delay_s < 0.0 then invalid_arg "Impairment: negative delay_s"

let pristine =
  { loss = Iid 0.0; duplicate = 0.0; reorder = 0.0; corrupt = 0.0; delay = 0.0;
    delay_s = 0.0 }

let lossy rate =
  check_prob "loss" rate;
  { pristine with loss = Iid rate }

(* Bad state loses half its messages and lasts 5 messages on average
   (p_bad_to_good = 1/5); choose p_good_to_bad so the stationary share of
   Bad, pi_b = p_gb / (p_gb + p_bg), gives pi_b * 0.5 = rate. *)
let bursty rate =
  if not (rate >= 0.0 && rate <= 0.5) then
    invalid_arg "Impairment.bursty: long-run rate outside [0, 0.5]";
  let loss_bad = 0.5 and p_bad_to_good = 0.2 in
  let pi_b = rate /. loss_bad in
  let p_good_to_bad =
    if pi_b >= 1.0 then 1.0 else p_bad_to_good *. pi_b /. (1.0 -. pi_b)
  in
  {
    pristine with
    loss = Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good = 0.0; loss_bad };
  }

let noisy =
  {
    loss = Iid 0.10;
    duplicate = 0.05;
    reorder = 0.05;
    corrupt = 0.02;
    delay = 0.10;
    delay_s = 0.25;
  }

type direction = To_prover | To_verifier

type action =
  | Pass
  | Drop
  | Duplicate
  | Reorder
  | Corrupt of { salt : int }
  | Delay of float

type ge_state = Good | Bad

type lane = {
  lane_profile : profile;
  lane_prng : Prng.t;
  mutable lane_ge : ge_state;
}

type t = { to_prover : lane; to_verifier : lane }

let direction_label = function To_prover -> "to_prover" | To_verifier -> "to_verifier"

(* counter handles precreated at module init: decide is on the benign
   forwarding path of every impaired campaign message *)
module M = struct
  let kinds = [ "drop"; "duplicate"; "reorder"; "corrupt"; "delay" ]

  let table dir =
    List.map
      (fun kind ->
        ( kind,
          Ra_obs.Registry.Counter.get
            ~labels:[ ("kind", kind); ("dir", direction_label dir) ]
            "ra_channel_impairments_total" ))
      kinds

  let to_prover = table To_prover
  let to_verifier = table To_verifier

  let count dir kind =
    let table = match dir with To_prover -> to_prover | To_verifier -> to_verifier in
    Ra_obs.Registry.Counter.inc (List.assoc kind table)
end

(* Positional seed derivation: member [index]'s impairment seed is a pure
   function of (root, index) — one SplitMix64 step at offset index, never
   a draw from a shared sequential stream. Whatever partition of the
   member range runs where (one domain, four shards, a streaming sweep
   that never materialises the fleet), member i sees the same wire. *)
let splitmix_gamma = 0x9E3779B97F4A7C15L (* Prng's SplitMix64 increment *)

let derive_seed ~root ~index =
  if index < 0 then invalid_arg "Impairment.derive_seed: negative index";
  Prng.next_int64
    (Prng.create (Int64.add root (Int64.mul (Int64.of_int index) splitmix_gamma)))

let lane profile prng = { lane_profile = profile; lane_prng = prng; lane_ge = Good }

let create ?(to_prover = pristine) ?(to_verifier = pristine) ~seed () =
  check_profile to_prover;
  check_profile to_verifier;
  let root = Prng.create seed in
  let p1 = Prng.split root in
  let p2 = Prng.split root in
  { to_prover = lane to_prover p1; to_verifier = lane to_verifier p2 }

let profile t dir =
  (match dir with To_prover -> t.to_prover | To_verifier -> t.to_verifier).lane_profile

let roll lane p = p > 0.0 && Prng.float lane.lane_prng 1.0 < p

let lost lane =
  match lane.lane_profile.loss with
  | Iid rate -> roll lane rate
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
    (* advance the chain once per message, then draw from the new state *)
    (match lane.lane_ge with
    | Good -> if roll lane p_good_to_bad then lane.lane_ge <- Bad
    | Bad -> if roll lane p_bad_to_good then lane.lane_ge <- Good);
    roll lane (match lane.lane_ge with Good -> loss_good | Bad -> loss_bad)

let decide t ~dir =
  let lane = match dir with To_prover -> t.to_prover | To_verifier -> t.to_verifier in
  let p = lane.lane_profile in
  let action =
    if lost lane then Drop
    else if roll lane p.corrupt then
      Corrupt { salt = Prng.int lane.lane_prng 0x3FFFFFFF }
    else if roll lane p.duplicate then Duplicate
    else if roll lane p.reorder then Reorder
    else if roll lane p.delay then Delay (Prng.float lane.lane_prng p.delay_s)
    else Pass
  in
  (match action with
  | Pass -> ()
  | Drop -> M.count dir "drop"
  | Duplicate -> M.count dir "duplicate"
  | Reorder -> M.count dir "reorder"
  | Corrupt _ -> M.count dir "corrupt"
  | Delay _ -> M.count dir "delay");
  action

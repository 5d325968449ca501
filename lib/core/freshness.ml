module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Clock = Ra_mcu.Clock

type policy =
  | No_freshness
  | Nonce_history of { max_entries : int option }
  | Counter
  | Timestamp of { window_ms : int64 }

type reject = Verdict.freshness_reject =
  | Missing_field
  | Wrong_field
  | Replayed_nonce
  | Stale_counter of { got : int64; stored : int64 }
  | Stale_or_reordered_timestamp of { got : int64; last : int64 }
  | Delayed_timestamp of { got : int64; now : int64; window : int64 }
  | Future_timestamp of { got : int64; now : int64; window : int64 }

type state = {
  device : Device.t;
  policy : policy;
  cell_addr : int;
  now_ms_fn : (unit -> int64) option;
  mutable nonces : string list; (* newest first *)
  mutable nonce_count : int;
}

let init ?cell_addr ?now_ms_fn device policy =
  (match policy with
  | Timestamp _ when Device.clock device = None && now_ms_fn = None ->
    invalid_arg "Freshness.init: timestamp policy requires a clock"
  | Timestamp _ | No_freshness | Nonce_history _ | Counter -> ());
  let cell_addr =
    match cell_addr with Some a -> a | None -> Device.counter_addr device
  in
  { device; policy; cell_addr; now_ms_fn; nonces = []; nonce_count = 0 }

let policy t = t.policy

let prover_now_ms t =
  match t.now_ms_fn with
  | Some f -> f ()
  | None ->
    (match Device.clock t.device with
    | None -> 0L
    | Some clock -> Int64.of_float (Clock.seconds clock *. 1000.0))

let cell_addr t = t.cell_addr
let load_cell t = Cpu.load_u64 (Device.cpu t.device) (cell_addr t)
let store_cell t v = Cpu.store_u64 (Device.cpu t.device) (cell_addr t) v

let check_nonce t max_entries nonce =
  if List.mem nonce t.nonces then Error Replayed_nonce
  else begin
    t.nonces <- nonce :: t.nonces;
    t.nonce_count <- t.nonce_count + 1;
    (match max_entries with
    | Some cap when t.nonce_count > cap ->
      (* bounded non-volatile memory: evict the oldest entry *)
      (match List.rev t.nonces with
      | [] -> ()
      | _oldest :: rest_oldest_first ->
        t.nonces <- List.rev rest_oldest_first;
        t.nonce_count <- t.nonce_count - 1)
    | Some _ | None -> ());
    Ok ()
  end

(* Serial-number acceptance (RFC 1982 style). The 8-byte cell is a point
   on a 2^64 circle; [c] is fresh iff it lies in the forward half-window
   of the stored value, i.e. the wrapped difference [c - stored] is in
   [1, 2^63 - 1] — exactly a positive signed Int64. An unsigned
   strictly-greater check looks equivalent until the cell nears the top
   of the range: once an Adv_roam rollback (or 2^64 honest requests)
   parks the cell at all-ones, no counter is ever "greater" again and
   the prover is bricked — a permanent availability loss the paper's
   §3.1 argument exists to prevent. Under serial arithmetic the
   verifier's natural wrap to 0, 1, 2, ... keeps being accepted, while
   any replay of a pre-wrap transmission sits in the backward
   half-window and stays rejected. *)
let counter_newer ~stored c = Int64.compare (Int64.sub c stored) 0L > 0

let check_counter t c =
  let stored = load_cell t in
  if counter_newer ~stored c then begin
    store_cell t c;
    Ok ()
  end
  else Error (Stale_counter { got = c; stored })

let check_timestamp t window ts =
  let now = prover_now_ms t in
  let last = load_cell t in
  if Int64.compare ts last <= 0 then
    Error (Stale_or_reordered_timestamp { got = ts; last })
  else if Int64.compare (Int64.sub now ts) window > 0 then
    Error (Delayed_timestamp { got = ts; now; window })
  else if Int64.compare (Int64.sub ts now) window > 0 then
    Error (Future_timestamp { got = ts; now; window })
  else begin
    store_cell t ts;
    Ok ()
  end

let policy_label = function
  | No_freshness -> "no_freshness"
  | Nonce_history _ -> "nonce_history"
  | Counter -> "counter"
  | Timestamp _ -> "timestamp"

let reject_label = Verdict.freshness_label

let check_counter_name = "ra_freshness_checks_total"

(* ok-path handles precreated per policy (hot path); the reject arms are
   rare, so those handles are looked up on demand *)
let ok_counters =
  List.map
    (fun p ->
      ( p,
        Ra_obs.Registry.Counter.get
          ~labels:[ ("policy", p); ("result", "ok") ]
          check_counter_name ))
    [ "no_freshness"; "nonce_history"; "counter"; "timestamp" ]

let count_check policy outcome =
  match outcome with
  | Ok () -> Ra_obs.Registry.Counter.inc (List.assoc (policy_label policy) ok_counters)
  | Error r ->
    Ra_obs.Registry.Counter.inc
      (Ra_obs.Registry.Counter.get
         ~labels:[ ("policy", policy_label policy); ("result", reject_label r) ]
         check_counter_name)

let check_and_update t field =
  let outcome =
    match (t.policy, field) with
    | No_freshness, _ -> Ok ()
    | Nonce_history { max_entries }, Message.F_nonce n -> check_nonce t max_entries n
    | Counter, Message.F_counter c -> check_counter t c
    | Timestamp { window_ms }, Message.F_timestamp ts -> check_timestamp t window_ms ts
    | (Nonce_history _ | Counter | Timestamp _), Message.F_none -> Error Missing_field
    | ( (Nonce_history _ | Counter | Timestamp _),
        (Message.F_nonce _ | Message.F_counter _ | Message.F_timestamp _) ) ->
      Error Wrong_field
  in
  count_check t.policy outcome;
  outcome

let history_bytes t = List.fold_left (fun acc n -> acc + String.length n) 0 t.nonces
let history_length t = t.nonce_count

let pp_reject = Verdict.pp_freshness_reject
let current_cell = load_cell

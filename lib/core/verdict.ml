module Json = Ra_obs.Json

type freshness_reject =
  | Missing_field
  | Wrong_field
  | Replayed_nonce
  | Stale_counter of { got : int64; stored : int64 }
  | Stale_or_reordered_timestamp of { got : int64; last : int64 }
  | Delayed_timestamp of { got : int64; now : int64; window : int64 }
  | Future_timestamp of { got : int64; now : int64; window : int64 }

type t =
  | Trusted
  | Untrusted_state
  | Invalid_response
  | Bad_auth
  | Not_fresh of freshness_reject
  | Fault of { fault_addr : int; fault_code : string }
  | Timed_out of { attempts : int; waited_s : float }

let accepted = function
  | Trusted -> true
  | Untrusted_state | Invalid_response | Bad_auth | Not_fresh _ | Fault _
  | Timed_out _ ->
    false

(* ---- payload-free rejection vocabulary ---- *)

module Reason = struct
  type t =
    | Untrusted_state
    | Invalid_response
    | Bad_auth
    | Not_fresh
    | Fault
    | Timed_out
    | Malformed
    | Rate_limited
    | Queue_full
    | Bad_record

  let all =
    [
      Untrusted_state; Invalid_response; Bad_auth; Not_fresh; Fault; Timed_out;
      Malformed; Rate_limited; Queue_full; Bad_record;
    ]

  let count = List.length all

  let index = function
    | Untrusted_state -> 0
    | Invalid_response -> 1
    | Bad_auth -> 2
    | Not_fresh -> 3
    | Fault -> 4
    | Timed_out -> 5
    | Malformed -> 6
    | Rate_limited -> 7
    | Queue_full -> 8
    | Bad_record -> 9

  let label = function
    | Untrusted_state -> "untrusted_state"
    | Invalid_response -> "invalid_response"
    | Bad_auth -> "bad_auth"
    | Not_fresh -> "not_fresh"
    | Fault -> "fault"
    | Timed_out -> "timed_out"
    | Malformed -> "malformed"
    | Rate_limited -> "rate_limited"
    | Queue_full -> "queue_full"
    | Bad_record -> "bad_record"
end

type reason = Reason.t

let reason_of = function
  | Trusted -> None
  | Untrusted_state -> Some Reason.Untrusted_state
  | Invalid_response -> Some Reason.Invalid_response
  | Bad_auth -> Some Reason.Bad_auth
  | Not_fresh _ -> Some Reason.Not_fresh
  | Fault _ -> Some Reason.Fault
  | Timed_out _ -> Some Reason.Timed_out

module Tally = struct
  type t = int array (* indexed by Reason.index *)

  let create () = Array.make Reason.count 0
  let add t r = t.(Reason.index r) <- t.(Reason.index r) + 1
  let get t r = t.(Reason.index r)

  let to_list t =
    List.filter_map
      (fun r ->
        let n = get t r in
        if n = 0 then None else Some (r, n))
      Reason.all
end

let label v = match reason_of v with None -> "trusted" | Some r -> Reason.label r

let freshness_label = function
  | Missing_field -> "missing_field"
  | Wrong_field -> "wrong_field"
  | Replayed_nonce -> "replayed_nonce"
  | Stale_counter _ -> "stale_counter"
  | Stale_or_reordered_timestamp _ -> "stale_or_reordered_timestamp"
  | Delayed_timestamp _ -> "delayed_timestamp"
  | Future_timestamp _ -> "future_timestamp"

let pp_freshness_reject fmt = function
  | Missing_field -> Format.pp_print_string fmt "missing freshness field"
  | Wrong_field -> Format.pp_print_string fmt "freshness field of wrong kind"
  | Replayed_nonce -> Format.pp_print_string fmt "replayed nonce"
  | Stale_counter { got; stored } ->
    Format.fprintf fmt "stale counter (got %Ld, stored %Ld)" got stored
  | Stale_or_reordered_timestamp { got; last } ->
    Format.fprintf fmt "stale/reordered timestamp (got %Ld, last %Ld)" got last
  | Delayed_timestamp { got; now; window } ->
    Format.fprintf fmt "delayed timestamp (got %Ld, prover now %Ld, window %Ld)" got now
      window
  | Future_timestamp { got; now; window } ->
    Format.fprintf fmt "future timestamp (got %Ld, prover now %Ld, window %Ld)" got now
      window

let pp fmt = function
  | Trusted -> Format.pp_print_string fmt "trusted"
  | Untrusted_state -> Format.pp_print_string fmt "untrusted state"
  | Invalid_response -> Format.pp_print_string fmt "invalid response"
  | Bad_auth -> Format.pp_print_string fmt "authentication failed"
  | Not_fresh r -> Format.fprintf fmt "not fresh: %a" pp_freshness_reject r
  | Fault { fault_addr; fault_code } ->
    Format.fprintf fmt "denied access at 0x%06x (context %s)" fault_addr fault_code
  | Timed_out { attempts; waited_s } ->
    Format.fprintf fmt "timed out after %d attempt%s (%.3f s waited)" attempts
      (if attempts = 1 then "" else "s")
      waited_s

(* ---- obs JSON sink ---- *)

let i64 v = Json.Str (Int64.to_string v)

let freshness_to_json r =
  let fields =
    match r with
    | Missing_field | Wrong_field | Replayed_nonce -> []
    | Stale_counter { got; stored } -> [ ("got", i64 got); ("stored", i64 stored) ]
    | Stale_or_reordered_timestamp { got; last } ->
      [ ("got", i64 got); ("last", i64 last) ]
    | Delayed_timestamp { got; now; window } | Future_timestamp { got; now; window } ->
      [ ("got", i64 got); ("now", i64 now); ("window", i64 window) ]
  in
  Json.Obj (("kind", Json.Str (freshness_label r)) :: fields)

let to_json v =
  let fields =
    match v with
    | Trusted | Untrusted_state | Invalid_response | Bad_auth -> []
    | Not_fresh r -> [ ("reject", freshness_to_json r) ]
    | Fault { fault_addr; fault_code } ->
      [ ("addr", Json.Num (float_of_int fault_addr)); ("code", Json.Str fault_code) ]
    | Timed_out { attempts; waited_s } ->
      [ ("attempts", Json.Num (float_of_int attempts)); ("waited_s", Json.Num waited_s) ]
  in
  Json.Obj (("verdict", Json.Str (label v)) :: fields)

let ( let* ) = Option.bind

let member_i64 name j =
  let* f = Json.member name j in
  let* s = Json.as_string f in
  Int64.of_string_opt s

let freshness_of_json j =
  let* kind = Json.member "kind" j in
  let* kind = Json.as_string kind in
  match kind with
  | "missing_field" -> Some Missing_field
  | "wrong_field" -> Some Wrong_field
  | "replayed_nonce" -> Some Replayed_nonce
  | "stale_counter" ->
    let* got = member_i64 "got" j in
    let* stored = member_i64 "stored" j in
    Some (Stale_counter { got; stored })
  | "stale_or_reordered_timestamp" ->
    let* got = member_i64 "got" j in
    let* last = member_i64 "last" j in
    Some (Stale_or_reordered_timestamp { got; last })
  | "delayed_timestamp" | "future_timestamp" ->
    let* got = member_i64 "got" j in
    let* now = member_i64 "now" j in
    let* window = member_i64 "window" j in
    Some
      (if kind = "delayed_timestamp" then Delayed_timestamp { got; now; window }
       else Future_timestamp { got; now; window })
  | _ -> None

let of_json j =
  let* v = Json.member "verdict" j in
  let* v = Json.as_string v in
  match v with
  | "trusted" -> Some Trusted
  | "untrusted_state" -> Some Untrusted_state
  | "invalid_response" -> Some Invalid_response
  | "bad_auth" -> Some Bad_auth
  | "not_fresh" ->
    let* r = Json.member "reject" j in
    let* r = freshness_of_json r in
    Some (Not_fresh r)
  | "fault" ->
    let* addr = Json.member "addr" j in
    let* addr = Json.as_float addr in
    let* code = Json.member "code" j in
    let* code = Json.as_string code in
    Some (Fault { fault_addr = int_of_float addr; fault_code = code })
  | "timed_out" ->
    let* attempts = Json.member "attempts" j in
    let* attempts = Json.as_float attempts in
    let* waited = Json.member "waited_s" j in
    let* waited = Json.as_float waited in
    Some (Timed_out { attempts = int_of_float attempts; waited_s = waited })
  | _ -> None

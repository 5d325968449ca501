(* Reference codec for [Message].

   The wire format written the plain way: every field is its own string,
   a frame is their concatenation with [^], and the parser is a cursor
   that cuts a [String.sub] per field and folds u64s a byte at a time.
   [Message] writes frames into one presized buffer and parses with
   direct int64 loads; the codec properties in [test_message.ml] hold it
   to this encoder byte for byte and to this parser result for result.

   One deliberate difference from the concatenating codec this replaced:
   a length field whose u64 has its top bit set is refused here. That
   parser converted the length with [Int64.to_int], which drops the top
   bit, so 2^63 + n read as n and two different frames parsed to the
   same value. *)

open Ra_core.Message

let u64_be v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xFFL)))

let lv s = u64_be (Int64.of_int (String.length s)) ^ s

let freshness_bytes = function
  | F_none -> "F0"
  | F_nonce n -> "F1" ^ lv n
  | F_counter c -> "F2" ^ u64_be c
  | F_timestamp t -> "F3" ^ u64_be t

let request_body ~challenge ~freshness = "REQ" ^ lv challenge ^ freshness_bytes freshness

let response_body r = "RSP" ^ lv r.echo_challenge ^ freshness_bytes r.echo_freshness

let tag_bytes = function
  | Tag_none -> "T0"
  | Tag_hmac_sha1 s -> "T1" ^ lv s
  | Tag_aes_cbc_mac s -> "T2" ^ lv s
  | Tag_speck_cbc_mac s -> "T3" ^ lv s
  | Tag_ecdsa s -> "T4" ^ lv s

let attreq_fields r = lv r.challenge ^ freshness_bytes r.freshness ^ tag_bytes r.tag

let attresp_fields r =
  lv r.echo_challenge ^ freshness_bytes r.echo_freshness ^ lv r.report

let wire_to_bytes = function
  | Request r -> "Q" ^ attreq_fields r
  | Response r -> "P" ^ attresp_fields r
  | Sync_request { verifier_time_ms; sync_counter; sync_tag } ->
    "S" ^ u64_be verifier_time_ms ^ u64_be sync_counter ^ lv sync_tag
  | Sync_response { acked_counter; ack_tag } -> "A" ^ u64_be acked_counter ^ lv ack_tag
  | Service_request { command_name; payload; service_freshness; service_tag } ->
    "V" ^ lv command_name ^ lv payload
    ^ freshness_bytes service_freshness
    ^ tag_bytes service_tag
  | Service_ack { acked_command; ack_report } -> "K" ^ lv acked_command ^ lv ack_report
  | Hs_init { hs_nonce; hs_req } -> "H" ^ lv hs_nonce ^ attreq_fields hs_req
  | Hs_resp { hs_rnonce; hs_report; hs_bind } ->
    "E" ^ lv hs_rnonce ^ attresp_fields hs_report ^ lv hs_bind
  | Hs_fin { fin_tag } -> "F" ^ lv fin_tag
  | Record { rec_seq; rec_ct; rec_tag } -> "R" ^ u64_be rec_seq ^ lv rec_ct ^ lv rec_tag

exception Malformed

type cursor = { data : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.data then raise Malformed

let take c n =
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let take_u64 c =
  let s = take c 8 in
  let v = ref 0L in
  String.iter
    (fun ch -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code ch)))
    s;
  !v

let take_lv c =
  let len64 = take_u64 c in
  if Int64.compare len64 0L < 0 then raise Malformed;
  let len = Int64.to_int len64 in
  if len < 0 || len > String.length c.data then raise Malformed;
  take c len

let take_freshness c =
  match take c 2 with
  | "F0" -> F_none
  | "F1" -> F_nonce (take_lv c)
  | "F2" -> F_counter (take_u64 c)
  | "F3" -> F_timestamp (take_u64 c)
  | _ -> raise Malformed

let take_tag c =
  match take c 2 with
  | "T0" -> Tag_none
  | "T1" -> Tag_hmac_sha1 (take_lv c)
  | "T2" -> Tag_aes_cbc_mac (take_lv c)
  | "T3" -> Tag_speck_cbc_mac (take_lv c)
  | "T4" -> Tag_ecdsa (take_lv c)
  | _ -> raise Malformed

let take_attreq c =
  let challenge = take_lv c in
  let freshness = take_freshness c in
  let tag = take_tag c in
  { challenge; freshness; tag }

let take_attresp c =
  let echo_challenge = take_lv c in
  let echo_freshness = take_freshness c in
  let report = take_lv c in
  { echo_challenge; echo_freshness; report }

let wire_of_bytes data =
  let c = { data; pos = 0 } in
  try
    let wire =
      match take c 1 with
      | "Q" -> Request (take_attreq c)
      | "P" -> Response (take_attresp c)
      | "S" ->
        let verifier_time_ms = take_u64 c in
        let sync_counter = take_u64 c in
        let sync_tag = take_lv c in
        Sync_request { verifier_time_ms; sync_counter; sync_tag }
      | "A" ->
        let acked_counter = take_u64 c in
        let ack_tag = take_lv c in
        Sync_response { acked_counter; ack_tag }
      | "V" ->
        let command_name = take_lv c in
        let payload = take_lv c in
        let service_freshness = take_freshness c in
        let service_tag = take_tag c in
        Service_request { command_name; payload; service_freshness; service_tag }
      | "K" ->
        let acked_command = take_lv c in
        let ack_report = take_lv c in
        Service_ack { acked_command; ack_report }
      | "H" ->
        let hs_nonce = take_lv c in
        let hs_req = take_attreq c in
        Hs_init { hs_nonce; hs_req }
      | "E" ->
        let hs_rnonce = take_lv c in
        let hs_report = take_attresp c in
        let hs_bind = take_lv c in
        Hs_resp { hs_rnonce; hs_report; hs_bind }
      | "F" -> Hs_fin { fin_tag = take_lv c }
      | "R" ->
        let rec_seq = take_u64 c in
        let rec_ct = take_lv c in
        let rec_tag = take_lv c in
        Record { rec_seq; rec_ct; rec_tag }
      | _ -> raise Malformed
    in
    if c.pos <> String.length data then None (* trailing garbage *) else Some wire
  with Malformed -> None

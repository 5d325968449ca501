type freshness_field =
  | F_none
  | F_nonce of string
  | F_counter of int64
  | F_timestamp of int64

type auth_tag =
  | Tag_none
  | Tag_hmac_sha1 of string
  | Tag_aes_cbc_mac of string
  | Tag_speck_cbc_mac of string
  | Tag_ecdsa of string

type attreq = {
  challenge : string;
  freshness : freshness_field;
  tag : auth_tag;
}

type attresp = {
  echo_challenge : string;
  echo_freshness : freshness_field;
  report : string;
}

type wire =
  | Request of attreq
  | Response of attresp
  | Sync_request of { verifier_time_ms : int64; sync_counter : int64; sync_tag : string }
  | Sync_response of { acked_counter : int64; ack_tag : string }
  | Service_request of {
      command_name : string;
      payload : string;
      service_freshness : freshness_field;
      service_tag : auth_tag;
    }
  | Service_ack of { acked_command : string; ack_report : string }
  | Hs_init of { hs_nonce : string; hs_req : attreq }
  | Hs_resp of { hs_rnonce : string; hs_report : attresp; hs_bind : string }
  | Hs_fin of { fin_tag : string }
  | Record of { rec_seq : int64; rec_ct : string; rec_tag : string }

(* --- encoder: each frame or body is written into one buffer of exactly
   its size; every [put_*] writes at [pos] and returns the next position *)

let lv_size s = 8 + String.length s

let freshness_size = function
  | F_none -> 2
  | F_nonce n -> 2 + lv_size n
  | F_counter _ | F_timestamp _ -> 10

let tag_size = function
  | Tag_none -> 2
  | Tag_hmac_sha1 s | Tag_aes_cbc_mac s | Tag_speck_cbc_mac s | Tag_ecdsa s -> 2 + lv_size s

let attreq_size r = lv_size r.challenge + freshness_size r.freshness + tag_size r.tag

let attresp_size r =
  lv_size r.echo_challenge + freshness_size r.echo_freshness + lv_size r.report

let frame_size = function
  | Request r -> 1 + attreq_size r
  | Response r -> 1 + attresp_size r
  | Sync_request { sync_tag; _ } -> 17 + lv_size sync_tag
  | Sync_response { ack_tag; _ } -> 9 + lv_size ack_tag
  | Service_request { command_name; payload; service_freshness; service_tag } ->
    1 + lv_size command_name + lv_size payload + freshness_size service_freshness
    + tag_size service_tag
  | Service_ack { acked_command; ack_report } ->
    1 + lv_size acked_command + lv_size ack_report
  | Hs_init { hs_nonce; hs_req } -> 1 + lv_size hs_nonce + attreq_size hs_req
  | Hs_resp { hs_rnonce; hs_report; hs_bind } ->
    1 + lv_size hs_rnonce + attresp_size hs_report + lv_size hs_bind
  | Hs_fin { fin_tag } -> 1 + lv_size fin_tag
  | Record { rec_ct; rec_tag; _ } -> 9 + lv_size rec_ct + lv_size rec_tag

let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

let put2 b pos c0 c1 = put_char b (put_char b pos c0) c1

let put_u64 b pos v =
  Bytes.set_int64_be b pos v;
  pos + 8

let put_lv b pos s =
  let n = String.length s in
  Bytes.set_int64_be b pos (Int64.of_int n);
  Bytes.blit_string s 0 b (pos + 8) n;
  pos + 8 + n

let put_freshness b pos = function
  | F_none -> put2 b pos 'F' '0'
  | F_nonce n -> put_lv b (put2 b pos 'F' '1') n
  | F_counter c -> put_u64 b (put2 b pos 'F' '2') c
  | F_timestamp t -> put_u64 b (put2 b pos 'F' '3') t

let put_tag b pos = function
  | Tag_none -> put2 b pos 'T' '0'
  | Tag_hmac_sha1 s -> put_lv b (put2 b pos 'T' '1') s
  | Tag_aes_cbc_mac s -> put_lv b (put2 b pos 'T' '2') s
  | Tag_speck_cbc_mac s -> put_lv b (put2 b pos 'T' '3') s
  | Tag_ecdsa s -> put_lv b (put2 b pos 'T' '4') s

let put_attreq b pos r =
  put_tag b (put_freshness b (put_lv b pos r.challenge) r.freshness) r.tag

let put_attresp b pos r =
  put_lv b (put_freshness b (put_lv b pos r.echo_challenge) r.echo_freshness) r.report

(* the writers must fill the buffer the size functions allotted *)
let finish b pos =
  assert (pos = Bytes.length b);
  Bytes.unsafe_to_string b

let freshness_bytes f =
  let b = Bytes.create (freshness_size f) in
  finish b (put_freshness b 0 f)

(* ["REQ"]/["RSP"] || lv challenge || freshness *)
let body prefix challenge freshness =
  let b = Bytes.create (3 + lv_size challenge + freshness_size freshness) in
  Bytes.blit_string prefix 0 b 0 3;
  finish b (put_freshness b (put_lv b 3 challenge) freshness)

let request_body ~challenge ~freshness = body "REQ" challenge freshness
let response_body r = body "RSP" r.echo_challenge r.echo_freshness

let put_wire b = function
  | Request r -> put_attreq b (put_char b 0 'Q') r
  | Response r -> put_attresp b (put_char b 0 'P') r
  | Sync_request { verifier_time_ms; sync_counter; sync_tag } ->
    put_lv b (put_u64 b (put_u64 b (put_char b 0 'S') verifier_time_ms) sync_counter) sync_tag
  | Sync_response { acked_counter; ack_tag } ->
    put_lv b (put_u64 b (put_char b 0 'A') acked_counter) ack_tag
  | Service_request { command_name; payload; service_freshness; service_tag } ->
    let pos = put_lv b (put_lv b (put_char b 0 'V') command_name) payload in
    put_tag b (put_freshness b pos service_freshness) service_tag
  | Service_ack { acked_command; ack_report } ->
    put_lv b (put_lv b (put_char b 0 'K') acked_command) ack_report
  | Hs_init { hs_nonce; hs_req } -> put_attreq b (put_lv b (put_char b 0 'H') hs_nonce) hs_req
  | Hs_resp { hs_rnonce; hs_report; hs_bind } ->
    put_lv b (put_attresp b (put_lv b (put_char b 0 'E') hs_rnonce) hs_report) hs_bind
  | Hs_fin { fin_tag } -> put_lv b (put_char b 0 'F') fin_tag
  | Record { rec_seq; rec_ct; rec_tag } ->
    put_lv b (put_lv b (put_u64 b (put_char b 0 'R') rec_seq) rec_ct) rec_tag

let wire_to_bytes w =
  let b = Bytes.create (frame_size w) in
  finish b (put_wire b w)

(* --- total parser: a cursor over the frame; any violation aborts --- *)

exception Malformed

type cursor = { data : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.data then raise Malformed

let take c n =
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let take_char c =
  need c 1;
  let ch = String.unsafe_get c.data c.pos in
  c.pos <- c.pos + 1;
  ch

let take_u64 c =
  need c 8;
  let v = String.get_int64_be c.data c.pos in
  c.pos <- c.pos + 8;
  v

(* a length is an unsigned 64-bit count: one with the top bit set is
   beyond any frame, so it is refused before [Int64.to_int] could drop
   that bit and read it as a small length *)
let take_lv c =
  let len = take_u64 c in
  if len < 0L || len > Int64.of_int (String.length c.data) then raise Malformed;
  take c (Int64.to_int len)

(* a two-char discriminator: [lead] then the variant digit *)
let take_kind c lead =
  need c 2;
  if String.unsafe_get c.data c.pos <> lead then raise Malformed;
  let digit = String.unsafe_get c.data (c.pos + 1) in
  c.pos <- c.pos + 2;
  digit

let take_freshness c =
  match take_kind c 'F' with
  | '0' -> F_none
  | '1' -> F_nonce (take_lv c)
  | '2' -> F_counter (take_u64 c)
  | '3' -> F_timestamp (take_u64 c)
  | _ -> raise Malformed

let take_tag c =
  match take_kind c 'T' with
  | '0' -> Tag_none
  | '1' -> Tag_hmac_sha1 (take_lv c)
  | '2' -> Tag_aes_cbc_mac (take_lv c)
  | '3' -> Tag_speck_cbc_mac (take_lv c)
  | '4' -> Tag_ecdsa (take_lv c)
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
      match take_char c with
      | 'Q' -> Request (take_attreq c)
      | 'P' -> Response (take_attresp c)
      | 'S' ->
        let verifier_time_ms = take_u64 c in
        let sync_counter = take_u64 c in
        let sync_tag = take_lv c in
        Sync_request { verifier_time_ms; sync_counter; sync_tag }
      | 'A' ->
        let acked_counter = take_u64 c in
        let ack_tag = take_lv c in
        Sync_response { acked_counter; ack_tag }
      | 'V' ->
        let command_name = take_lv c in
        let payload = take_lv c in
        let service_freshness = take_freshness c in
        let service_tag = take_tag c in
        Service_request { command_name; payload; service_freshness; service_tag }
      | 'K' ->
        let acked_command = take_lv c in
        let ack_report = take_lv c in
        Service_ack { acked_command; ack_report }
      | 'H' ->
        let hs_nonce = take_lv c in
        let hs_req = take_attreq c in
        Hs_init { hs_nonce; hs_req }
      | 'E' ->
        let hs_rnonce = take_lv c in
        let hs_report = take_attresp c in
        let hs_bind = take_lv c in
        Hs_resp { hs_rnonce; hs_report; hs_bind }
      | 'F' -> Hs_fin { fin_tag = take_lv c }
      | 'R' ->
        let rec_seq = take_u64 c in
        let rec_ct = take_lv c in
        let rec_tag = take_lv c in
        Record { rec_seq; rec_ct; rec_tag }
      | _ -> raise Malformed
    in
    if c.pos <> String.length data then None (* trailing garbage *) else Some wire
  with Malformed -> None

let pp_freshness fmt = function
  | F_none -> Format.pp_print_string fmt "none"
  | F_nonce n -> Format.fprintf fmt "nonce=%s" (Ra_crypto.Hexutil.to_hex n)
  | F_counter c -> Format.fprintf fmt "counter=%Ld" c
  | F_timestamp t -> Format.fprintf fmt "timestamp=%Ldms" t

let pp_tag fmt = function
  | Tag_none -> Format.pp_print_string fmt "unauthenticated"
  | Tag_hmac_sha1 _ -> Format.pp_print_string fmt "hmac-sha1"
  | Tag_aes_cbc_mac _ -> Format.pp_print_string fmt "aes-cbc-mac"
  | Tag_speck_cbc_mac _ -> Format.pp_print_string fmt "speck-cbc-mac"
  | Tag_ecdsa _ -> Format.pp_print_string fmt "ecdsa"

let pp_attreq fmt r =
  Format.fprintf fmt "attreq{%a, %a}" pp_freshness r.freshness pp_tag r.tag

let pp_wire fmt = function
  | Request r -> pp_attreq fmt r
  | Response _ -> Format.pp_print_string fmt "attresp"
  | Sync_request { verifier_time_ms; sync_counter; _ } ->
    Format.fprintf fmt "sync_req{t=%Ldms, c=%Ld}" verifier_time_ms sync_counter
  | Sync_response { acked_counter; _ } ->
    Format.fprintf fmt "sync_resp{c=%Ld}" acked_counter
  | Service_request { command_name; _ } -> Format.fprintf fmt "svc_req{%s}" command_name
  | Service_ack { acked_command; _ } -> Format.fprintf fmt "svc_ack{%s}" acked_command
  | Hs_init { hs_req; _ } -> Format.fprintf fmt "hs_init{%a}" pp_attreq hs_req
  | Hs_resp _ -> Format.pp_print_string fmt "hs_resp"
  | Hs_fin _ -> Format.pp_print_string fmt "hs_fin"
  | Record { rec_seq; rec_ct; _ } ->
    Format.fprintf fmt "record{seq=%Ld, %dB}" rec_seq (String.length rec_ct)

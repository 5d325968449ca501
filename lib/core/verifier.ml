module C = Ra_crypto
module Timing = Ra_mcu.Timing
module Simtime = Ra_net.Simtime

type freshness_kind = Fk_none | Fk_nonce | Fk_counter | Fk_timestamp

type t = {
  scheme : Timing.auth_scheme option;
  freshness_kind : freshness_kind;
  sym_key : string;
  keyed : C.Hmac.key_ctx; (* K_attest ipad/opad midstates, derived once *)
  ecdsa : C.Ecdsa.keypair option;
  time : Simtime.t;
  drbg : C.Drbg.t;
  mutable counter : int64;
  mutable reference_image : string;
}

module Config = struct
  type t = {
    scheme : Timing.auth_scheme option;
    freshness_kind : freshness_kind;
    sym_key : string;
    time : Simtime.t;
    reference_image : string;
  }

  let v ?scheme ?(freshness_kind = Fk_nonce) ?(reference_image = "") ~sym_key ~time
      () =
    { scheme; freshness_kind; sym_key; time; reference_image }
end

let of_config (cfg : Config.t) =
  if String.length cfg.Config.sym_key <> Auth.k_attest_len then
    Error
      (Printf.sprintf "sym_key must be %d bytes (got %d)" Auth.k_attest_len
         (String.length cfg.Config.sym_key))
  else begin
    let ecdsa =
      match cfg.Config.scheme with
      | Some Timing.Auth_ecdsa_verify ->
        Some (C.Ecdsa.generate_keypair C.Ec.secp160r1 ~seed:"verifier")
      | Some
          ( Timing.Auth_hmac_sha1 | Timing.Auth_aes128_cbc_mac
          | Timing.Auth_speck64_cbc_mac )
      | None ->
        None
    in
    Ok
      {
        scheme = cfg.Config.scheme;
        freshness_kind = cfg.Config.freshness_kind;
        sym_key = cfg.Config.sym_key;
        keyed = Auth.keyed cfg.Config.sym_key;
        ecdsa;
        time = cfg.Config.time;
        drbg =
          C.Drbg.create ~personalization:"verifier-challenges"
            ~seed:cfg.Config.sym_key ();
        counter = 0L;
        reference_image = cfg.Config.reference_image;
      }
  end

let prover_key_blob t =
  Auth.prover_key_blob ~sym_key:t.sym_key
    ~public:(Option.map (fun kp -> kp.C.Ecdsa.public) t.ecdsa)

let scheme t = t.scheme
let next_counter_value t = Int64.add t.counter 1L

let now_ms t = Int64.of_float (Simtime.now t.time *. 1000.0)

let make_freshness t =
  match t.freshness_kind with
  | Fk_none -> Message.F_none
  | Fk_nonce -> Message.F_nonce (C.Drbg.generate t.drbg 16)
  | Fk_counter ->
    t.counter <- Int64.add t.counter 1L;
    Message.F_counter t.counter
  | Fk_timestamp -> Message.F_timestamp (now_ms t)

(* verdict/request counters precreated at module init *)
module M = struct
  let requests = Ra_obs.Registry.Counter.get "ra_verifier_requests_total"

  let verdict v =
    Ra_obs.Registry.Counter.get ~labels:[ ("verdict", v) ] "ra_verifier_verdicts_total"

  let trusted = verdict "trusted"
  let untrusted_state = verdict "untrusted_state"
  let invalid_response = verdict "invalid_response"
end

let make_request t =
  Ra_obs.Registry.Counter.inc M.requests;
  let challenge = C.Drbg.generate t.drbg 16 in
  let freshness = make_freshness t in
  let body = Message.request_body ~challenge ~freshness in
  let tag =
    match t.scheme with
    | None -> Message.Tag_none
    | Some scheme ->
      let secret =
        match t.ecdsa with
        | Some kp -> Auth.Vs_ecdsa kp
        | None -> Auth.Vs_symmetric t.sym_key
      in
      Auth.tag_request scheme secret ~body
  in
  { Message.challenge; freshness; tag }

(* In-session request: the secure channel supplies authenticity and
   freshness (record CMAC + anti-replay window), so the inner request
   carries neither a tag nor a freshness field — per-round freshness is
   the challenge echo. *)
let make_session_request t =
  Ra_obs.Registry.Counter.inc M.requests;
  {
    Message.challenge = C.Drbg.generate t.drbg 16;
    freshness = Message.F_none;
    tag = Message.Tag_none;
  }

let session_nonce t = C.Drbg.generate t.drbg 16

let counted counter verdict =
  Ra_obs.Registry.Counter.inc counter;
  verdict

(* the report MAC alone, against the precomputed midstates, no echo
   matching: the open-loop (server-side) check and the closed-loop
   check's last step *)
let check_report t (resp : Message.attresp) =
  let body = Message.response_body resp in
  let expected =
    Auth.response_report_keyed ~keyed:t.keyed ~body ~memory_image:t.reference_image
  in
  if C.Hexutil.equal_ct expected resp.Message.report then
    counted M.trusted Verdict.Trusted
  else counted M.untrusted_state Verdict.Untrusted_state

let check_response t ~request (resp : Message.attresp) =
  if
    resp.Message.echo_challenge <> request.Message.challenge
    || resp.Message.echo_freshness <> request.Message.freshness
  then counted M.invalid_response Verdict.Invalid_response
  else check_report t resp

(* one key context — [t.keyed] — serves the whole batch; the per-report
   work is the report MAC itself *)
let check_reports t resps = Array.map (check_report t) resps

let set_reference_image t image = t.reference_image <- image

module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Timing = Ra_mcu.Timing

type stats = {
  requests_seen : int;
  requests_rejected : int;
  attestations_performed : int;
}

type t = {
  device : Device.t;
  scheme : Timing.auth_scheme option;
  freshness : Freshness.state;
  precomputed_key_schedule : bool;
  spans : Ra_obs.Span.t;
  mutable stats : stats;
}

(* outcome counters precreated at module init: one atomic add per request *)
module M = struct
  let result r =
    Ra_obs.Registry.Counter.get ~labels:[ ("result", r) ] "ra_attest_requests_total"

  let attested = result "attested"
  let bad_auth = result "bad_auth"
  let not_fresh = result "not_fresh"
  let fault = result "fault"

  (* the anchor rejects with Bad_auth, Not_fresh or Fault only *)
  let rejected = function
    | Verdict.Bad_auth -> bad_auth
    | Verdict.Not_fresh _ -> not_fresh
    | _ -> fault
end

(* Modeled instruction cost of the bookkeeping around the crypto
   (parsing, comparisons, the freshness branch). Negligible next to the
   Table 1 costs, but not zero. *)
let bookkeeping_cycles = 200L

let install device ~scheme ~policy ?(precomputed_key_schedule = false) () =
  let cpu = Device.cpu device in
  {
    device;
    scheme;
    freshness = Freshness.init device policy;
    precomputed_key_schedule;
    spans = Ra_obs.Span.create ~clock:(fun () -> Cpu.elapsed_seconds cpu) ();
    stats = { requests_seen = 0; requests_rejected = 0; attestations_performed = 0 };
  }

let freshness t = t.freshness
let stats t = t.stats
let spans t = t.spans

let cpu t = Device.cpu t.device

(* ---- the defence sequence every prover handler runs ---- *)

let key_blob device =
  Cpu.load_bytes (Device.cpu device) (Device.key_addr device) (Device.key_len device)

let authenticate device ~precomputed_key_schedule scheme ~body tag =
  match scheme with
  | None -> Ok () (* unauthenticated baseline: trust anything *)
  | Some scheme ->
    Cpu.consume_cycles (Device.cpu device)
      (Timing.request_auth_cycles ~precomputed_key_schedule scheme);
    if Auth.verify_request scheme ~key_blob:(key_blob device) ~body tag then Ok ()
    else Error Verdict.Bad_auth

let protected device body =
  try Cpu.with_context (Device.cpu device) Device.region_attest body
  with Cpu.Protection_fault { fault_addr; fault_code; _ } ->
    Error (Verdict.Fault { fault_addr; fault_code })

(* The attested ranges back to back in [buf], each read through the MPU. *)
let read_attested_into device buf =
  let cpu = Device.cpu device in
  ignore
    (List.fold_left
       (fun pos (base, len) ->
         Cpu.load_into cpu base buf ~pos ~len;
         pos + len)
       0 (Device.attested_ranges device))

(* The buffer [attest] reads the image into and MACs in place: one per
   domain, of exactly the last image's length, so the anchors of a fleet
   retain no image each and no two shard domains share one. *)
let image_key = Domain.DLS.new_key (fun () -> Bytes.empty)

let image_buffer len =
  let buf = Domain.DLS.get image_key in
  if Bytes.length buf = len then buf
  else begin
    let buf = Bytes.create len in
    Domain.DLS.set image_key buf;
    buf
  end

let measure_memory device =
  Cpu.with_context (Device.cpu device) Device.region_attest (fun () ->
      let image = Bytes.create (Device.attested_total_len device) in
      read_attested_into device image;
      Bytes.unsafe_to_string image)

let attest t (req : Message.attreq) =
  let len = Device.attested_total_len t.device in
  Cpu.consume_cycles (cpu t) (Timing.memory_mac_cycles ~bytes_len:len);
  let image = image_buffer len in
  read_attested_into t.device image;
  let resp =
    {
      Message.echo_challenge = req.challenge;
      echo_freshness = req.freshness;
      report = "";
    }
  in
  let body = Message.response_body resp in
  let key = Auth.blob_sym_key (key_blob t.device) in
  (* the string view of the domain's buffer must not outlive this MAC *)
  let report =
    Auth.response_report_keyed ~keyed:(Auth.keyed key) ~body
      ~memory_image:(Bytes.unsafe_to_string image)
  in
  { resp with Message.report }

let bump_seen t = t.stats <- { t.stats with requests_seen = t.stats.requests_seen + 1 }

let bump_rejected t =
  t.stats <- { t.stats with requests_rejected = t.stats.requests_rejected + 1 }

let bump_attested t =
  t.stats <-
    { t.stats with attestations_performed = t.stats.attestations_performed + 1 }

(* [protected], with every outcome counted in the stats and in
   [ra_attest_requests_total]. *)
let guarded t body =
  bump_seen t;
  let result = protected t.device body in
  (match result with
  | Ok _ ->
    Ra_obs.Registry.Counter.inc M.attested;
    bump_attested t
  | Error v ->
    Ra_obs.Registry.Counter.inc (M.rejected v);
    bump_rejected t);
  result

let handle_request t (req : Message.attreq) =
  guarded t (fun () ->
      Cpu.consume_cycles (cpu t) bookkeeping_cycles;
      match
        Ra_obs.Span.with_span t.spans "anchor.auth" (fun () ->
            authenticate t.device ~precomputed_key_schedule:t.precomputed_key_schedule
              t.scheme
              ~body:(Message.request_body ~challenge:req.challenge ~freshness:req.freshness)
              req.tag)
      with
      | Error e -> Error e
      | Ok () ->
        (match
           Ra_obs.Span.with_span t.spans "anchor.freshness" (fun () ->
               Freshness.check_and_update t.freshness req.Message.freshness)
         with
        | Error e -> Error (Verdict.Not_fresh e)
        | Ok () -> Ok (Ra_obs.Span.with_span t.spans "anchor.mac" (fun () -> attest t req))))

(* The channel-authenticated path: a request arriving inside an
   established secure session already carries channel-level authenticity
   (CMAC over the record) and freshness (the anti-replay window), so the
   anchor skips its own auth tag and strict-counter checks — which would
   reject legitimately reordered in-session requests — and goes straight
   to the measured MAC sweep. Bookkeeping and memory-MAC cycle charges,
   the protected execution context and the [anchor.mac] span are
   identical to the one-shot path. *)
let handle_channel_request t req =
  guarded t (fun () ->
      Cpu.consume_cycles (cpu t) bookkeeping_cycles;
      Ok (Ra_obs.Span.with_span t.spans "anchor.mac" (fun () -> attest t req)))

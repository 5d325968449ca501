open Ra_core

let test_request_body_unambiguous () =
  (* distinct (challenge, freshness) pairs must serialize distinctly —
     otherwise a MAC over the body could be transplanted *)
  let b1 = Message.request_body ~challenge:"ab" ~freshness:Message.F_none in
  let b2 = Message.request_body ~challenge:"a" ~freshness:Message.F_none in
  let b3 = Message.request_body ~challenge:"ab" ~freshness:(Message.F_counter 1L) in
  Alcotest.(check bool) "challenge length framed" true (b1 <> b2);
  Alcotest.(check bool) "freshness framed" true (b1 <> b3)

let test_freshness_encoding () =
  Alcotest.(check bool) "counter vs timestamp tagged" true
    (Message.freshness_bytes (Message.F_counter 5L)
    <> Message.freshness_bytes (Message.F_timestamp 5L));
  Alcotest.(check bool) "nonce value encoded" true
    (Message.freshness_bytes (Message.F_nonce "a")
    <> Message.freshness_bytes (Message.F_nonce "b"))

let test_wire_size () =
  let req =
    Message.Request { challenge = "0123456789abcdef"; freshness = Message.F_counter 1L; tag = Message.Tag_none }
  in
  let size w = String.length (Message.wire_to_bytes w) in
  Alcotest.(check bool) "positive" true (size req > 0);
  let req_hmac =
    Message.Request
      {
        challenge = "0123456789abcdef";
        freshness = Message.F_counter 1L;
        tag = Message.Tag_hmac_sha1 (String.make 20 't');
      }
  in
  Alcotest.(check bool) "tag adds size" true
    (size req_hmac > size req)

(* ---- wire serialization ---- *)

(* u64 fields take every bit pattern: small values, the sign edges and
   uniform 64-bit draws *)
let u64_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map Int64.of_int small_nat);
        (1, oneofl [ 0L; 255L; 256L; -1L; Int64.max_int; Int64.min_int ]);
        (3, ui64);
      ])

let freshness_gen =
  QCheck.Gen.(
    oneof
      [
        return Message.F_none;
        map (fun s -> Message.F_nonce s) (string_size (int_range 0 32));
        map (fun c -> Message.F_counter c) u64_gen;
        map (fun t -> Message.F_timestamp t) u64_gen;
      ])

let tag_gen =
  QCheck.Gen.(
    oneof
      [
        return Message.Tag_none;
        map (fun s -> Message.Tag_hmac_sha1 s) (string_size (return 20));
        map (fun s -> Message.Tag_aes_cbc_mac s) (string_size (return 16));
        map (fun s -> Message.Tag_speck_cbc_mac s) (string_size (return 8));
        map (fun s -> Message.Tag_ecdsa s) (string_size (return 42));
      ])

let wire_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun challenge freshness tag -> Message.Request { challenge; freshness; tag })
          (string_size (int_range 0 32))
          freshness_gen tag_gen;
        map3
          (fun echo_challenge echo_freshness report ->
            Message.Response { echo_challenge; echo_freshness; report })
          (string_size (int_range 0 32))
          freshness_gen
          (string_size (return 20));
        map3
          (fun t c tag ->
            Message.Sync_request { verifier_time_ms = t; sync_counter = c; sync_tag = tag })
          u64_gen u64_gen
          (string_size (return 20));
        map2
          (fun c tag -> Message.Sync_response { acked_counter = c; ack_tag = tag })
          u64_gen
          (string_size (return 20));
        map3
          (fun name payload (freshness, tag) ->
            Message.Service_request
              { command_name = name; payload; service_freshness = freshness;
                service_tag = tag })
          (string_size (int_range 0 16))
          (string_size (int_range 0 64))
          (pair freshness_gen tag_gen);
        map2
          (fun name report -> Message.Service_ack { acked_command = name; ack_report = report })
          (string_size (int_range 0 16))
          (string_size (return 20));
        map3
          (fun hs_nonce challenge (freshness, tag) ->
            Message.Hs_init { hs_nonce; hs_req = { challenge; freshness; tag } })
          (string_size (int_range 0 32))
          (string_size (int_range 0 32))
          (pair freshness_gen tag_gen);
        map3
          (fun hs_rnonce (echo_challenge, echo_freshness) (report, hs_bind) ->
            Message.Hs_resp
              { hs_rnonce;
                hs_report = { echo_challenge; echo_freshness; report };
                hs_bind })
          (string_size (int_range 0 32))
          (pair (string_size (int_range 0 32)) freshness_gen)
          (pair (string_size (return 20)) (string_size (return 32)));
        map (fun fin_tag -> Message.Hs_fin { fin_tag }) (string_size (return 32));
        map3
          (fun seq ct tag -> Message.Record { rec_seq = seq; rec_ct = ct; rec_tag = tag })
          u64_gen
          (string_size (int_range 0 300))
          (string_size (return 16));
      ])

let wire_arb = QCheck.make ~print:(Format.asprintf "%a" Message.pp_wire) wire_gen

let qcheck_wire_roundtrip =
  QCheck.Test.make ~name:"message: wire_of_bytes . wire_to_bytes = id" ~count:300
    wire_arb (fun w -> Message.wire_of_bytes (Message.wire_to_bytes w) = Some w)

(* every frame that differs from a valid one in one byte: each position
   XORed with a drawn mask, and each position set to 0x80, which puts the
   top bit into any length or u64 field it lands on *)
let single_byte_mutations frame mask =
  List.concat
    (List.init (String.length frame) (fun i ->
         let flip = Bytes.of_string frame and top = Bytes.of_string frame in
         Bytes.set flip i (Char.chr (Char.code frame.[i] lxor mask));
         Bytes.set top i '\x80';
         [ Bytes.to_string flip; Bytes.to_string top ]))

let mutated_arb =
  QCheck.make
    ~print:(fun (w, mask) -> Format.asprintf "%a, mask %d" Message.pp_wire w mask)
    QCheck.Gen.(pair wire_gen (int_range 1 255))

let canonical b =
  match Message.wire_of_bytes b with None -> true | Some w -> Message.wire_to_bytes w = b

let qcheck_canonical_encoding =
  QCheck.Test.make ~name:"message: canonical encoding" ~count:300 mutated_arb
    (fun (w, mask) ->
      let frame = Message.wire_to_bytes w in
      canonical frame && List.for_all canonical (single_byte_mutations frame mask))

(* ---- the codec against the concatenating reference in wire_oracle.ml ---- *)

let qcheck_encoder_matches_oracle =
  QCheck.Test.make ~name:"message: encoder = oracle" ~count:500
    QCheck.(pair wire_arb (make Gen.(pair (string_size (int_range 0 40)) freshness_gen)))
    (fun (w, (challenge, freshness)) ->
      let resp =
        { Message.echo_challenge = challenge; echo_freshness = freshness; report = "r" }
      in
      Message.wire_to_bytes w = Wire_oracle.wire_to_bytes w
      && Message.request_body ~challenge ~freshness
         = Wire_oracle.request_body ~challenge ~freshness
      && Message.response_body resp = Wire_oracle.response_body resp
      && Message.freshness_bytes freshness = Wire_oracle.freshness_bytes freshness)

let same_parse b = Message.wire_of_bytes b = Wire_oracle.wire_of_bytes b

let qcheck_decoder_matches_oracle_frames =
  QCheck.Test.make ~name:"message: mutants parse = oracle" ~count:300 mutated_arb
    (fun (w, mask) ->
      let frame = Message.wire_to_bytes w in
      List.for_all same_parse
        (List.init (String.length frame + 1) (fun n -> String.sub frame 0 n))
      && List.for_all same_parse (single_byte_mutations frame mask))

(* garbage behind a valid discriminator gets past the first byte *)
let qcheck_decoder_matches_oracle_garbage =
  QCheck.Test.make ~name:"message: garbage parses = oracle" ~count:1000
    QCheck.(
      pair
        (make Gen.(oneofl [ ""; "Q"; "P"; "S"; "A"; "V"; "K"; "H"; "E"; "F"; "R" ]))
        (string_of_size Gen.(0 -- 200)))
    (fun (lead, rest) -> same_parse (lead ^ rest))

let test_length_top_bit_refused () =
  let frame =
    Message.wire_to_bytes
      (Message.Response { echo_challenge = "c"; echo_freshness = Message.F_none; report = "r" })
  in
  Alcotest.(check bool) "clean frame parses" true (Message.wire_of_bytes frame <> None);
  (* the challenge length is bytes 1..8; 2^63 + 1 must not read as 1 *)
  let b = Bytes.of_string frame in
  Bytes.set b 1 '\x80';
  Alcotest.(check bool) "length 2^63 + 1 refused" true
    (Message.wire_of_bytes (Bytes.to_string b) = None)

let qcheck_truncation_rejected =
  QCheck.Test.make ~name:"message: truncated frames rejected" ~count:300
    QCheck.(pair wire_arb (int_range 0 1000))
    (fun (w, cut) ->
      let bytes = Message.wire_to_bytes w in
      let cut = cut mod String.length bytes in
      Message.wire_of_bytes (String.sub bytes 0 cut) = None)

let qcheck_garbage_never_raises =
  QCheck.Test.make ~name:"message: parser is total on garbage" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Message.wire_of_bytes s with Some _ -> true | None -> true)

let test_trailing_garbage_rejected () =
  let bytes =
    Message.wire_to_bytes
      (Message.Request { challenge = "c"; freshness = Message.F_none; tag = Message.Tag_none })
  in
  Alcotest.(check bool) "clean frame parses" true (Message.wire_of_bytes bytes <> None);
  Alcotest.(check bool) "trailing byte rejected" true
    (Message.wire_of_bytes (bytes ^ "x") = None)

let qcheck_body_injective_challenge =
  QCheck.Test.make ~name:"message: body injective in challenge" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 30)) (string_of_size Gen.(0 -- 30)))
    (fun (c1, c2) ->
      QCheck.assume (c1 <> c2);
      Message.request_body ~challenge:c1 ~freshness:Message.F_none
      <> Message.request_body ~challenge:c2 ~freshness:Message.F_none)

let qcheck_body_injective_counter =
  QCheck.Test.make ~name:"message: body injective in counter" ~count:200
    QCheck.(pair (map Int64.of_int small_int) (map Int64.of_int small_int))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      Message.request_body ~challenge:"c" ~freshness:(Message.F_counter a)
      <> Message.request_body ~challenge:"c" ~freshness:(Message.F_counter b))

let tests =
  [
    Alcotest.test_case "request body framing" `Quick test_request_body_unambiguous;
    Alcotest.test_case "freshness encoding" `Quick test_freshness_encoding;
    Alcotest.test_case "wire size" `Quick test_wire_size;
    Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage_rejected;
    Alcotest.test_case "length top bit refused" `Quick test_length_top_bit_refused;
    QCheck_alcotest.to_alcotest qcheck_wire_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_canonical_encoding;
    QCheck_alcotest.to_alcotest qcheck_encoder_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_decoder_matches_oracle_frames;
    QCheck_alcotest.to_alcotest qcheck_decoder_matches_oracle_garbage;
    QCheck_alcotest.to_alcotest qcheck_truncation_rejected;
    QCheck_alcotest.to_alcotest qcheck_garbage_never_raises;
    QCheck_alcotest.to_alcotest qcheck_body_injective_challenge;
    QCheck_alcotest.to_alcotest qcheck_body_injective_counter;
  ]

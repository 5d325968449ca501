(* HMAC-DRBG and SplitMix64 determinism / stream properties. *)
open Ra_crypto

let test_drbg_deterministic () =
  let d1 = Drbg.create ~seed:"seed" () in
  let d2 = Drbg.create ~seed:"seed" () in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate d1 32)
    (Drbg.generate d2 32);
  let d3 = Drbg.create ~seed:"other" () in
  Alcotest.(check bool) "different seed, different stream" true
    (Drbg.generate d3 32 <> Drbg.generate (Drbg.create ~seed:"seed" ()) 32)

let test_drbg_personalization () =
  let a = Drbg.create ~personalization:"a" ~seed:"s" () in
  let b = Drbg.create ~personalization:"b" ~seed:"s" () in
  Alcotest.(check bool) "personalization separates streams" true
    (Drbg.generate a 16 <> Drbg.generate b 16)

let test_drbg_advances () =
  let d = Drbg.create ~seed:"s" () in
  let x = Drbg.generate d 16 in
  let y = Drbg.generate d 16 in
  Alcotest.(check bool) "consecutive outputs differ" true (x <> y)

let test_drbg_reseed () =
  let d1 = Drbg.create ~seed:"s" () in
  let d2 = Drbg.create ~seed:"s" () in
  Drbg.reseed d1 "entropy";
  Alcotest.(check bool) "reseed changes stream" true
    (Drbg.generate d1 16 <> Drbg.generate d2 16)

let test_drbg_lengths () =
  let d = Drbg.create ~seed:"s" () in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "%d bytes" n) n
        (String.length (Drbg.generate d n)))
    [ 1; 16; 31; 32; 33; 100 ]

(* Pinned outputs: the HMAC-DRBG stream is part of every verifier's
   challenge sequence, so a change to any of these moves wire
   transcripts and fleet fingerprints. *)
let test_drbg_known_answers () =
  let hex = Hexutil.to_hex in
  Alcotest.(check string) "seed, 32 bytes"
    "945418b8333283ae441104ff0af8ab77c755914dbcd4971f9db434098d72cc5f"
    (hex (Drbg.generate (Drbg.create ~seed:"seed" ()) 32));
  let d = Drbg.create ~personalization:"p" ~seed:"entropy-input" () in
  Alcotest.(check string) "personalized, 16 bytes" "77b6d4194781921c9fadbb9063676a7e"
    (hex (Drbg.generate d 16));
  Alcotest.(check string) "then 40 bytes"
    "2c6ba50489cea75ff43defa7dd4532a31c3b54dae027c9ef8e8f034c56cfe32aaf8f0d27385a3e99"
    (hex (Drbg.generate d 40));
  Drbg.reseed d "more";
  Alcotest.(check string) "reseeded, 33 bytes"
    "a3a7a1068a8584dcae63d0c9095249319074458d8152fae683191b12b333ac76a9"
    (hex (Drbg.generate d 33));
  let v = Ra_core.Session.verifier (Ra_core.Session.create ()) in
  Alcotest.(check string) "first challenge of a default session"
    "a99d79a9a982000bc8a21b267a60b672"
    (hex (Ra_core.Verifier.make_request v).Ra_core.Message.challenge)

let test_drbg_rejected_generate () =
  let d = Drbg.create ~seed:"s" () and twin = Drbg.create ~seed:"s" () in
  Alcotest.check_raises "negative length" (Invalid_argument "Drbg.generate") (fun () ->
      ignore (Drbg.generate d (-1)));
  Alcotest.(check string) "stream unchanged" (Drbg.generate twin 16) (Drbg.generate d 16)

(* each step: reseed when given entropy, then draw 0-100 bytes *)
let qcheck_drbg_oracle =
  QCheck.Test.make ~name:"drbg = oracle: seeds, personalizations, reseeds" ~count:200
    QCheck.(
      triple (string_of_size Gen.(0 -- 200))
        (option (string_of_size Gen.(0 -- 100)))
        (small_list (pair (int_bound 100) (option (string_of_size Gen.(0 -- 100))))))
    (fun (seed, personalization, steps) ->
      let d = Drbg.create ?personalization ~seed () in
      let o = Drbg_oracle.create ?personalization ~seed () in
      List.for_all
        (fun (n, entropy) ->
          Option.iter
            (fun e ->
              Drbg.reseed d e;
              Drbg_oracle.reseed o e)
            entropy;
          Drbg.generate d n = Drbg_oracle.generate o n)
        steps)

(* A draw's HMACs run in contexts the DRBG owns, so a 16-byte draw
   allocates its result, four words, and nothing else. Building a keyed
   HMAC context per K change and copying midstates per MAC cost 909. *)
let test_drbg_draw_allocation () =
  let d = Drbg.create ~seed:"s" () in
  ignore (Drbg.generate d 16);
  let draws = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Drbg.generate d 16)
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  if per_draw >= 16. then
    Alcotest.failf "a 16-byte draw allocated %.1f minor words (bound 16)" per_draw

let test_prng_deterministic () =
  let p1 = Prng.create 7L and p2 = Prng.create 7L in
  Alcotest.(check bool) "same stream" true
    (List.init 10 (fun _ -> Prng.next_int64 p1)
    = List.init 10 (fun _ -> Prng.next_int64 p2))

let test_prng_split () =
  let p = Prng.create 7L in
  let q = Prng.split p in
  Alcotest.(check bool) "split stream differs" true
    (Prng.next_int64 p <> Prng.next_int64 q)

let test_prng_bytes_known_answer () =
  (* byte i is the low byte of the i-th draw; server-flood's forged
     reports are these bytes, and no digest reads them *)
  Alcotest.(check string) "seed 7, 32 bytes"
    "d71c02cbda11f6fe6169eb2c4e30e6f8afc735f82fcd9dff30e9ba5f471d78ac"
    (Hexutil.to_hex (Prng.bytes (Prng.create 7L) 32))

let qcheck_prng_int_bounds =
  QCheck.Test.make ~name:"prng: int respects bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let qcheck_prng_float_bounds =
  QCheck.Test.make ~name:"prng: float respects bounds" ~count:500 QCheck.int64
    (fun seed ->
      let p = Prng.create seed in
      let v = Prng.float p 3.5 in
      v >= 0.0 && v < 3.5)

let qcheck_prng_bytes_len =
  QCheck.Test.make ~name:"prng: bytes length" ~count:100
    QCheck.(pair int64 (int_range 0 100))
    (fun (seed, n) -> String.length (Prng.bytes (Prng.create seed) n) = n)

let tests =
  [
    Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
    Alcotest.test_case "drbg personalization" `Quick test_drbg_personalization;
    Alcotest.test_case "drbg advances" `Quick test_drbg_advances;
    Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed;
    Alcotest.test_case "drbg lengths" `Quick test_drbg_lengths;
    Alcotest.test_case "drbg known answers" `Quick test_drbg_known_answers;
    Alcotest.test_case "drbg: a rejected generate leaves the stream" `Quick
      test_drbg_rejected_generate;
    QCheck_alcotest.to_alcotest qcheck_drbg_oracle;
    Alcotest.test_case "drbg: a 16-byte draw allocates only its output" `Quick
      test_drbg_draw_allocation;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split" `Quick test_prng_split;
    Alcotest.test_case "prng bytes known answer" `Quick test_prng_bytes_known_answer;
    QCheck_alcotest.to_alcotest qcheck_prng_int_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_float_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_bytes_len;
  ]

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
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split" `Quick test_prng_split;
    Alcotest.test_case "prng bytes known answer" `Quick test_prng_bytes_known_answer;
    QCheck_alcotest.to_alcotest qcheck_prng_int_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_float_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_bytes_len;
  ]

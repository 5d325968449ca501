(* SHA-1 / SHA-256 against FIPS 180 vectors, plus streaming-equivalence
   properties and differential tests against the previous kernels. *)
open Ra_crypto

let hex = Hexutil.to_hex
let check = Alcotest.(check string)

let test_sha1_vectors () =
  check "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (hex (Sha1.digest ""));
  check "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (hex (Sha1.digest "abc"));
  check "two blocks" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex (Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (hex (Sha1.digest (String.make 1_000_000 'a')))

let test_sha1_boundary_lengths () =
  (* padding boundary cases: 55, 56, 63, 64, 65 bytes *)
  let lengths = [ 0; 1; 55; 56; 63; 64; 65; 127; 128 ] in
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let t = Sha1.init () in
      Sha1.feed t s;
      check (Printf.sprintf "len %d streaming = one-shot" n) (hex (Sha1.digest s))
        (hex (Sha1.finalize t)))
    lengths

let test_sha256_vectors () =
  check "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest ""));
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest "abc"));
  check "two blocks" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_digest_sizes () =
  Alcotest.(check int) "sha1 size" 20 (String.length (Sha1.digest "x"));
  Alcotest.(check int) "sha256 size" 32 (String.length (Sha256.digest "x"));
  Alcotest.(check int) "sha1 block" 64 Sha1.block_size;
  Alcotest.(check int) "sha256 block" 64 Sha256.block_size

let qcheck_sha1_streaming =
  QCheck.Test.make ~name:"sha1: arbitrary split streaming = one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let t = Sha1.init () in
      Sha1.feed t (String.sub s 0 cut);
      Sha1.feed t (String.sub s cut (String.length s - cut));
      Sha1.finalize t = Sha1.digest s)

let qcheck_sha256_streaming =
  QCheck.Test.make ~name:"sha256: arbitrary split streaming = one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let t = Sha256.init () in
      Sha256.feed t (String.sub s 0 cut);
      Sha256.feed t (String.sub s cut (String.length s - cut));
      Sha256.finalize t = Sha256.digest s)

let test_copy_independence () =
  (* forking a midstate must leave both contexts correct and independent *)
  let t = Sha1.init () in
  Sha1.feed t "abcdbcdecdefdefgefghfghighijhijk";
  let t' = Sha1.copy t in
  Sha1.feed t "ijkljklmklmnlmnomnopnopq";
  Sha1.feed t' "ijkljklmklmnlmnomnopnopq";
  check "sha1 copy: original" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex (Sha1.finalize t));
  check "sha1 copy: fork" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex (Sha1.finalize t'));
  let u = Sha256.init () in
  Sha256.feed u "ab";
  let u' = Sha256.copy u in
  Sha256.feed u' "c";
  check "sha256 fork diverges from original" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.finalize u'));
  check "sha256 original unaffected by fork"
    (hex (Sha256.digest "ab"))
    (hex (Sha256.finalize u))

let qcheck_feed_bytes_window =
  QCheck.Test.make ~name:"sha1/sha256: feed_bytes window = digest of sub" ~count:100
    QCheck.(triple (string_of_size Gen.(0 -- 300)) (int_range 0 300) (int_range 0 300))
    (fun (s, a, b) ->
      let pos = min a (String.length s) in
      let len = min b (String.length s - pos) in
      let sub = String.sub s pos len in
      let by = Bytes.of_string s in
      let t1 = Sha1.init () in
      Sha1.feed_bytes t1 by ~pos ~len;
      let t256 = Sha256.init () in
      Sha256.feed_bytes t256 by ~pos ~len;
      Sha1.finalize t1 = Sha1.digest sub && Sha256.finalize t256 = Sha256.digest sub)

let qcheck_digest_bytes =
  QCheck.Test.make ~name:"digest_bytes = digest" ~count:100
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      Sha1.digest_bytes (Bytes.of_string s) = Sha1.digest s
      && Sha256.digest_bytes (Bytes.of_string s) = Sha256.digest s)

let qcheck_sha1_distinct =
  QCheck.Test.make ~name:"sha1: flipping a byte changes the digest" ~count:100
    QCheck.(string_of_size Gen.(1 -- 100))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Sha1.digest (Bytes.to_string b) <> Sha1.digest s)

(* ---- the straight-line kernels against the reference kernels in
   test/oracle/: the seed SHA-1 and the tail-recursive SHA-256 ---- *)

module type Kernel = sig
  type ctx

  val init : unit -> ctx
  val copy : ctx -> ctx
  val feed : ctx -> string -> unit
  val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
  val finalize : ctx -> string
  val digest : string -> string
end

(* [s] cut at the given offsets, clipped to its length, in order *)
let pieces s cuts =
  let cuts = List.sort_uniq compare (List.map (fun c -> min c (String.length s)) cuts) in
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

(* a prefix that ends mid-block, and two continuations *)
let fork_inputs =
  QCheck.(
    triple
      (string_of_size Gen.(map2 (fun q r -> (64 * q) + r) (0 -- 16) (1 -- 63)))
      (string_of_size Gen.(0 -- 1024))
      (string_of_size Gen.(0 -- 1024)))

(* kernel [K], called [name], digest for digest against [oracle] *)
let oracle_tests name (module K : Kernel) oracle =
  let splits =
    QCheck.Test.make ~name:(name ^ " = oracle: 0-5 KiB, multi-way splits") ~count:200
      QCheck.(pair (string_of_size Gen.(0 -- 5120)) (small_list (int_bound 5120)))
      (fun (s, cuts) ->
        let t = K.init () in
        List.iter (K.feed t) (pieces s cuts);
        K.finalize t = oracle s)
  in
  (* the window starts at an odd offset, so every word load is unaligned *)
  let odd_pos =
    QCheck.Test.make ~name:(name ^ " = oracle: feed_bytes at odd pos") ~count:200
      QCheck.(triple (string_of_size Gen.(0 -- 5120)) (int_bound 31) (int_bound 5120))
      (fun (s, k, cut) ->
        let pos = (2 * k) + 1 in
        let b = Bytes.of_string (String.make pos '\xa5' ^ s) in
        let cut = min cut (String.length s) in
        let t = K.init () in
        K.feed_bytes t b ~pos ~len:cut;
        K.feed_bytes t b ~pos:(pos + cut) ~len:(String.length s - cut);
        K.finalize t = oracle s)
  in
  (* a fork taken mid-block, then fed interleaved with its original *)
  let copy =
    QCheck.Test.make ~name:(name ^ " = oracle: copy forks mid-block") ~count:200 fork_inputs
      (fun (prefix, a, b) ->
        let t = K.init () in
        K.feed t prefix;
        let fork = K.copy t in
        let half = String.length a / 2 in
        K.feed t (String.sub a 0 half);
        K.feed fork b;
        K.feed t (String.sub a half (String.length a - half));
        K.finalize t = oracle (prefix ^ a) && K.finalize fork = oracle (prefix ^ b))
  in
  let big () =
    let rng = Random.State.make [| 64 |] in
    let s = String.init 65536 (fun _ -> Char.chr (Random.State.int rng 256)) in
    check "64 KiB" (hex (oracle s)) (hex (K.digest s))
  in
  [
    QCheck_alcotest.to_alcotest splits;
    QCheck_alcotest.to_alcotest odd_pos;
    QCheck_alcotest.to_alcotest copy;
    Alcotest.test_case (name ^ " = oracle: 64 KiB") `Quick big;
  ]

(* The round variables stay unboxed, so compressing allocates nothing.
   One boxed variable would cost about three words a round: some 240k
   words over these 1,024 blocks. *)
let test_sha1_blocks_allocate_nothing () =
  let blocks = Bytes.make (1024 * Sha1.block_size) 'b' in
  let t = Sha1.init () in
  Sha1.feed_bytes t blocks ~pos:0 ~len:Sha1.block_size;
  let before = Gc.minor_words () in
  Sha1.feed_bytes t blocks ~pos:0 ~len:(Bytes.length blocks);
  let words = Gc.minor_words () -. before in
  if words >= 64. then
    Alcotest.failf "1,024 blocks allocated %.0f minor words (bound 64)" words

(* [midstate] saves a one-block context as eight bare words and
   [resume] continues them in a context that has hashed something else,
   as the DRBG does with its pads; the fork finalizes into a longer
   buffer, whose tail must stay, and is then [reset] and reused. A
   context at any other length has no bare midstate. *)
let qcheck_sha256_resume_reset =
  QCheck.Test.make ~name:"sha256 = oracle: resume forks and reset" ~count:200
    QCheck.(
      quad (string_of_size (Gen.return 64)) (string_of_size Gen.(0 -- 1024))
        (string_of_size Gen.(0 -- 1024)) (int_range 0 200))
    (fun (block, a, b, other) ->
      let t = Sha256.init () in
      Sha256.feed t block;
      let h = Array.make 8 0 in
      Sha256.midstate t h;
      let fork = Sha256.init () in
      Sha256.feed fork b;
      Sha256.resume fork h;
      Sha256.feed fork b;
      Sha256.feed t a;
      let out = Bytes.make 40 '\xee' in
      Sha256.finalize_into fork out;
      Sha256.reset fork;
      Sha256.feed fork a;
      let elsewhere = Sha256.init () in
      Sha256.feed elsewhere (String.make (if other = 64 then 65 else other) 'x');
      Sha256.finalize t = Sha256_oracle.digest (block ^ a)
      && Bytes.sub_string out 0 32 = Sha256_oracle.digest (block ^ b)
      && Bytes.sub_string out 32 8 = String.make 8 '\xee'
      && Sha256.finalize fork = Sha256_oracle.digest a
      &&
      match Sha256.midstate elsewhere h with
      | () -> false
      | exception Invalid_argument _ -> true)

(* Blocks fed one call at a time, as HMAC feeds them: the byte count is
   an [int] and the round variables stay unboxed, so nothing allocates.
   A boxed [int64] count costs three words a call, 3,072 here. *)
let test_sha256_blocks_allocate_nothing () =
  let block = Bytes.make Sha256.block_size 'b' in
  let t = Sha256.init () in
  Sha256.feed_bytes t block ~pos:0 ~len:Sha256.block_size;
  let before = Gc.minor_words () in
  for _ = 1 to 1024 do
    Sha256.feed_bytes t block ~pos:0 ~len:Sha256.block_size
  done;
  let words = Gc.minor_words () -. before in
  if words >= 64. then
    Alcotest.failf "1,024 blocks allocated %.0f minor words (bound 64)" words

let tests =
  [
    Alcotest.test_case "sha1 FIPS vectors" `Quick test_sha1_vectors;
    Alcotest.test_case "sha1 padding boundaries" `Quick test_sha1_boundary_lengths;
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "digest sizes" `Quick test_digest_sizes;
    Alcotest.test_case "copy independence" `Quick test_copy_independence;
    QCheck_alcotest.to_alcotest qcheck_feed_bytes_window;
    QCheck_alcotest.to_alcotest qcheck_digest_bytes;
    QCheck_alcotest.to_alcotest qcheck_sha1_streaming;
    QCheck_alcotest.to_alcotest qcheck_sha256_streaming;
    QCheck_alcotest.to_alcotest qcheck_sha1_distinct;
  ]
  @ oracle_tests "sha1" (module Sha1) Sha1_oracle.digest
  @ [
      Alcotest.test_case "sha1: full blocks allocate nothing" `Quick
        test_sha1_blocks_allocate_nothing;
    ]
  @ oracle_tests "sha256" (module Sha256) Sha256_oracle.digest
  @ [
      QCheck_alcotest.to_alcotest qcheck_sha256_resume_reset;
      Alcotest.test_case "sha256: full blocks allocate nothing" `Quick
        test_sha256_blocks_allocate_nothing;
    ]

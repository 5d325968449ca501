(* Quickstart: build a TrustLite-style prover, run one benign attestation
   round, and show what it cost the device.

   Run with: dune exec examples/quickstart.exe *)

open Ra_core
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Energy = Ra_mcu.Energy

let () =
  (* A session wires together: simulated time, a Dolev-Yao channel, a
     verifier, and a prover booted from the given architecture spec. The
     default spec is Figure 1a: HMAC-authenticated requests, timestamp
     freshness, a 64-bit hardware clock, EA-MPU rules installed by secure
     boot and locked. *)
  let session = Session.create ~ram_size:(64 * 1024) () in
  Session.advance_time session ~seconds:1.0;
  (* The causal tracer seals each round's events (channel, prover,
     verifier) into a bounded ring; it never touches the wire. *)
  let tracer = Session.enable_tracing session in

  Printf.printf "== quickstart: one benign attestation round ==\n";
  let round = Session.attest_round_r session in
  Format.printf "verifier verdict: %a (attempt %d, %.3f s)@." Verdict.pp
    round.Session.r_verdict round.Session.r_attempts round.Session.r_elapsed_s;

  let device = Session.device session in
  Printf.printf "prover work: %.3f ms of CPU time at 24 MHz\n"
    (Ra_mcu.Timing.ms_of_cycles (Cpu.work_cycles (Device.cpu device)));
  Printf.printf "energy consumed: %.6f J\n"
    (Energy.consumed_joules (Device.energy device));

  (* Now infect the prover: malware modifies attested RAM and stays
     resident. The next round must flag the device. *)
  Printf.printf "\n== after infecting the prover's RAM ==\n";
  Cpu.store_bytes (Device.cpu device) (Device.attested_base device) "MALWARE";
  Session.advance_time session ~seconds:1.0;
  let round = Session.attest_round_r session in
  Format.printf "verifier verdict: %a@." Verdict.pp round.Session.r_verdict;

  Printf.printf "\n== causal trace ==\n";
  List.iter
    (fun (rd : Ra_obs.Trace.round) ->
      Printf.printf "round %d: %s after %d attempt(s)\n" rd.rd_trace_id rd.rd_verdict
        rd.rd_attempts;
      List.iter
        (fun (e : Ra_obs.Trace.event) ->
          let labels = List.map (fun (k, v) -> k ^ "=" ^ v) e.ev_labels in
          Printf.printf "  [%9.4f s] %-9s %s\n" e.ev_start e.ev_cat
            (String.concat " " (e.ev_name :: labels)))
        rd.rd_events)
    (Ra_obs.Trace.rounds tracer)

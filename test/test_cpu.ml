open Ra_mcu

let make () =
  let memory =
    Memory.create
      [
        Region.make ~name:"ram" ~base:0x1000 ~size:0x100 ~kind:Region.Ram;
        Region.make ~name:"secret" ~base:0x2000 ~size:0x10 ~kind:Region.Ram;
      ]
  in
  let mpu = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program mpu
    {
      Ea_mpu.rule_name = "secret";
      data_base = 0x2000;
      data_size = 0x10;
      read_by = Ea_mpu.Code_in [ "trusted" ];
      write_by = Ea_mpu.Nobody;
    };
  Cpu.create memory mpu ~clock_hz:24_000_000

let test_context_switching () =
  let cpu = make () in
  Alcotest.(check string) "initial" "untrusted" (Cpu.context cpu);
  let inner = Cpu.with_context cpu "trusted" (fun () -> Cpu.context cpu) in
  Alcotest.(check string) "inside" "trusted" inner;
  Alcotest.(check string) "restored" "untrusted" (Cpu.context cpu)

let test_context_restored_on_exception () =
  let cpu = make () in
  (try Cpu.with_context cpu "trusted" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check string) "restored after raise" "untrusted" (Cpu.context cpu)

let test_mediated_access () =
  let cpu = make () in
  Cpu.store_byte cpu 0x1000 7;
  Alcotest.(check int) "open ram" 7 (Cpu.load_byte cpu 0x1000);
  (* untrusted read of the secret faults and is recorded *)
  (try
     ignore (Cpu.load_byte cpu 0x2000);
     Alcotest.fail "expected fault"
   with Cpu.Protection_fault f ->
     Alcotest.(check string) "fault context" "untrusted" f.Cpu.fault_code;
     Alcotest.(check int) "fault addr" 0x2000 f.Cpu.fault_addr);
  Alcotest.(check int) "fault recorded" 1 (List.length (Cpu.faults cpu));
  (* trusted read succeeds *)
  let v = Cpu.with_context cpu "trusted" (fun () -> Cpu.load_byte cpu 0x2000) in
  Alcotest.(check int) "trusted read" 0 v

let test_cycle_accounting () =
  let cpu = make () in
  Cpu.consume_cycles cpu 1000L;
  Cpu.idle_cycles cpu 500L;
  Alcotest.(check int64) "total" 1500L (Cpu.cycles cpu);
  Alcotest.(check int64) "work only" 1000L (Cpu.work_cycles cpu);
  Alcotest.check_raises "negative work" (Invalid_argument "Cpu: negative cycle advance")
    (fun () -> Cpu.consume_cycles cpu (-1L))

let test_elapsed_seconds () =
  let cpu = make () in
  Cpu.idle_seconds cpu 2.0;
  Alcotest.(check (float 1e-6)) "two seconds" 2.0 (Cpu.elapsed_seconds cpu)

let test_listeners () =
  let cpu = make () in
  let events = ref [] in
  Cpu.on_advance cpu (fun _ n kind -> events := (n, kind) :: !events);
  Cpu.consume_cycles cpu 10L;
  Cpu.idle_cycles cpu 20L;
  Alcotest.(check int) "two events" 2 (List.length !events);
  (match !events with
  | [ (20L, Cpu.Idle); (10L, Cpu.Work) ] -> ()
  | _ -> Alcotest.fail "unexpected event sequence")

let test_zero_length_access () =
  let cpu = make () in
  Alcotest.(check string) "empty load" "" (Cpu.load_bytes cpu 0x2000 0);
  (* zero-length store of protected memory is a no-op, not a fault *)
  Cpu.store_bytes cpu 0x2000 "";
  Alcotest.(check int) "no faults" 0 (List.length (Cpu.faults cpu))

let test_load_into () =
  let cpu = make () in
  Cpu.store_bytes cpu 0x1010 "abcdef";
  let buf = Bytes.make 10 '.' in
  Cpu.load_into cpu 0x1010 buf ~pos:2 ~len:6;
  Alcotest.(check string) "window filled" "..abcdef.." (Bytes.to_string buf);
  (* a denied read faults as load_bytes does, before any byte moves *)
  let fault f = match f () with _ -> None | exception Cpu.Protection_fault e -> Some e in
  let buf = Bytes.make 0x10 '.' in
  let denied = fault (fun () -> Cpu.load_into cpu 0x2000 buf ~pos:0 ~len:0x10) in
  Alcotest.(check bool) "same fault as load_bytes" true
    (denied <> None && denied = fault (fun () -> Cpu.load_bytes cpu 0x2000 0x10));
  Alcotest.(check string) "nothing copied" (String.make 0x10 '.') (Bytes.to_string buf);
  Alcotest.(check int) "both recorded" 2 (List.length (Cpu.faults cpu));
  Cpu.load_into cpu 0x2000 buf ~pos:0 ~len:0;
  Alcotest.(check int) "empty load is no fault" 2 (List.length (Cpu.faults cpu))

let tests =
  [
    Alcotest.test_case "context switching" `Quick test_context_switching;
    Alcotest.test_case "context restored on exception" `Quick
      test_context_restored_on_exception;
    Alcotest.test_case "mediated access" `Quick test_mediated_access;
    Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
    Alcotest.test_case "elapsed seconds" `Quick test_elapsed_seconds;
    Alcotest.test_case "advance listeners" `Quick test_listeners;
    Alcotest.test_case "zero-length access" `Quick test_zero_length_access;
    Alcotest.test_case "load_into" `Quick test_load_into;
  ]

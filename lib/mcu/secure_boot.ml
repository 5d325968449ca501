type image = { image_name : string; code : string }

type config = {
  reference_digest : string;
  protection_rules : Ea_mpu.rule list;
  lock_mpu : bool;
  enable_interrupts : bool;
}

type outcome =
  | Booted
  | Rejected_bad_image of { expected : string; measured : string }

(* SHA-256 by the exact bytes measured, compared in full: every world
   of a fleet installs the same app image, so its reference digest and
   its boot measurement are one entry here, and an image that differs
   from every earlier input in any byte misses and is hashed. *)
let sha256 =
  Ra_crypto.Memo.per_domain ~capacity:4 ~equal:String.equal Ra_crypto.Sha256.digest

let digest_image image = sha256 image.code

let install_image memory ~region image =
  let r = Memory.region_named memory region in
  if String.length image.code > r.Region.size then
    invalid_arg "Secure_boot.install_image: image larger than region";
  Memory.write_bytes memory r.Region.base image.code

let measure_region memory ~region ~image_len =
  let r = Memory.region_named memory region in
  sha256 (Memory.read_bytes memory r.Region.base image_len)

let boot cpu interrupt config ~region ~image_len =
  Cpu.with_context cpu "rom_boot" (fun () ->
      let measured = measure_region (Cpu.memory cpu) ~region ~image_len in
      if not (Ra_crypto.Hexutil.equal_ct measured config.reference_digest) then
        Rejected_bad_image { expected = config.reference_digest; measured }
      else begin
        let mpu = Cpu.mpu cpu in
        List.iter (Ea_mpu.program mpu) config.protection_rules;
        if config.lock_mpu then Ea_mpu.lock mpu;
        (match interrupt with
        | Some intr when config.enable_interrupts -> Interrupt.enable_all_raw intr
        | Some _ | None -> ());
        Booted
      end)

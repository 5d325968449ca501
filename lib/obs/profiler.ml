(* Deterministic profile accumulators. See profiler.mli for the contract;
   the short version is: no wall clocks, no hash-order exports, and every
   merge is a plain sum — so profiles replay bit-for-bit under a seed and
   shard-merge byte-identically at every shard count. *)

let clean_frame s =
  if s = "" then "?"
  else begin
    let needs_fix = ref false in
    String.iter
      (fun c -> if c = ';' || c = ' ' || Char.code c < 0x20 then needs_fix := true)
      s;
    if not !needs_fix then s
    else
      String.map
        (fun c ->
          if c = ';' then ','
          else if c = ' ' then '_'
          else if Char.code c < 0x20 then '?'
          else c)
        s
  end

module Pc = struct
  (* cycles are an unboxed native int internally (63-bit is ample for
     cycle counts) so the per-sample bump never allocates; the external
     API stays int64 *)
  type cell = { frames : string list; mutable cycles : int; mutable samples : int }
  type t = { tbl : (string, cell) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 64 }

  let key_of frames = String.concat ";" frames

  let add t ~frames ~cycles =
    let frames = List.map clean_frame frames in
    let key = key_of frames in
    let cycles = Int64.to_int cycles in
    (match Hashtbl.find_opt t.tbl key with
    | Some c ->
      c.cycles <- c.cycles + cycles;
      c.samples <- c.samples + 1
    | None -> Hashtbl.replace t.tbl key { frames; cycles; samples = 1 })

  let absorb dst src =
    Hashtbl.iter
      (fun key c ->
        if c.samples > 0 then
          match Hashtbl.find_opt dst.tbl key with
          | Some d ->
            d.cycles <- d.cycles + c.cycles;
            d.samples <- d.samples + c.samples
          | None ->
            Hashtbl.replace dst.tbl key
              { frames = c.frames; cycles = c.cycles; samples = c.samples })
      src.tbl

  let samples t = Hashtbl.fold (fun _ c acc -> acc + c.samples) t.tbl 0

  let cycles t =
    Int64.of_int (Hashtbl.fold (fun _ c acc -> acc + c.cycles) t.tbl 0)

  let rows t =
    Hashtbl.fold
      (fun key c acc -> if c.samples > 0 then (key, c) :: acc else acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (_, c) -> (c.frames, Int64.of_int c.cycles, c.samples))

  let folded t =
    let buf = Buffer.create 256 in
    Hashtbl.fold
      (fun key c acc -> if c.samples > 0 then (key, c.cycles) :: acc else acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (key, cycles) ->
           Buffer.add_string buf key;
           Buffer.add_char buf ' ';
           Buffer.add_string buf (string_of_int cycles);
           Buffer.add_char buf '\n');
    Buffer.contents buf

  (* Hot-path memoization: [handle] resolves a stack to its cell once,
     so a sampler can bump the same stack repeatedly without rebuilding
     the frame list, the folded key, or the hash lookup per sample. A
     handle's cell starts at zero and only becomes visible through a
     bump, so an unused handle never pollutes the export. *)
  type handle = cell

  let handle t ~frames =
    let frames = List.map clean_frame frames in
    let key = key_of frames in
    match Hashtbl.find_opt t.tbl key with
    | Some c -> c
    | None ->
      let c = { frames; cycles = 0; samples = 0 } in
      Hashtbl.replace t.tbl key c;
      c

  let bump (c : handle) ~cycles =
    c.cycles <- c.cycles + cycles;
    c.samples <- c.samples + 1

  let cycles_matching t ~f =
    Hashtbl.fold
      (fun _ c acc ->
        let leaf =
          match List.rev c.frames with [] -> "" | leaf :: _ -> leaf
        in
        if f leaf then acc + c.cycles else acc)
      t.tbl 0
    |> Int64.of_int
end

type phase_sample = {
  ps_at : float;
  ps_trace_id : int option;
  ps_device : string;
  ps_phase : string;
  ps_cycles : int64;
  ps_nj : float;
}

module Phases = struct
  type total = { mutable t_cycles : int64; mutable t_nj : float; mutable t_n : int }

  type t = {
    totals : (string, total) Hashtbl.t;
    ring : phase_sample Recorder.t;
  }

  let create ?(capacity = 1024) () =
    { totals = Hashtbl.create 8; ring = Recorder.create ~capacity }

  let bump t ~phase ~cycles ~nj ~n =
    match Hashtbl.find_opt t.totals phase with
    | Some tot ->
      tot.t_cycles <- Int64.add tot.t_cycles cycles;
      tot.t_nj <- tot.t_nj +. nj;
      tot.t_n <- tot.t_n + n
    | None ->
      Hashtbl.replace t.totals phase { t_cycles = cycles; t_nj = nj; t_n = n }

  let record t ps =
    bump t ~phase:ps.ps_phase ~cycles:ps.ps_cycles ~nj:ps.ps_nj ~n:1;
    Recorder.push t.ring ps

  let samples t = Recorder.to_list t.ring
  let length t = Recorder.length t.ring
  let dropped t = Recorder.evicted t.ring

  let totals t =
    Hashtbl.fold
      (fun phase tot acc -> (phase, (tot.t_cycles, tot.t_nj, tot.t_n)) :: acc)
      t.totals []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let absorb dst src =
    Hashtbl.iter
      (fun phase tot ->
        bump dst ~phase ~cycles:tot.t_cycles ~nj:tot.t_nj ~n:tot.t_n)
      src.totals;
    Recorder.iter src.ring (fun ps -> Recorder.push dst.ring ps)
end

module Track = struct
  type t = { tk_name : string; mutable rev_points : (float * float) list }

  let create name = { tk_name = name; rev_points = [] }
  let name t = t.tk_name
  let push t ~at v = t.rev_points <- (at, v) :: t.rev_points
  let points t = List.rev t.rev_points

  let merge ~name tracks =
    let all = List.concat_map points tracks in
    let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) all in
    { tk_name = name; rev_points = List.rev sorted }
end

type t = { pc : Pc.t; phases : Phases.t }

let create ?capacity () = { pc = Pc.create (); phases = Phases.create ?capacity () }

let absorb dst src =
  Pc.absorb dst.pc src.pc;
  Phases.absorb dst.phases src.phases

let folded t = Pc.folded t.pc

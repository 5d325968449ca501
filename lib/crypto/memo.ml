let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* One table per memo and domain: the cached entries, most recently
   used first, at most [capacity] of them. *)
let per_domain ~capacity ~equal f =
  if capacity < 1 then invalid_arg "Memo.per_domain";
  let slot = Domain.DLS.new_key (fun () -> ref []) in
  fun k ->
    let entries = Domain.DLS.get slot in
    match !entries with
    | (k', v) :: _ when equal k k' -> v
    | l ->
      (match List.find_opt (fun (k', _) -> equal k k') l with
      | Some ((_, v) as hit) ->
        entries := hit :: List.filter (fun e -> e != hit) l;
        v
      | None ->
        let v = f k in
        entries := (k, v) :: take (capacity - 1) !entries;
        v)

(* Persistent domain pool.

   `Domain.spawn` is not cheap: a fresh OS thread, a fresh minor heap,
   and a round of runtime handshakes per domain, paid again on every
   sweep. BENCH_hotpath.json showed the old spawn-per-sweep parallel
   engines *losing* to sequential (0.89x at 2 domains, 0.76x at 4) —
   per-sweep setup dominated the useful work. The pool spawns helper
   domains once, parks them on a condition variable, and reuses them for
   every subsequent batch: steady-state dispatch is one mutex
   lock/broadcast, no spawns.

   A batch runs the same thunk on the caller plus [helpers] pool
   domains; work distribution happens inside the thunk (the callers all
   pull indices from a shared [Atomic] counter, exactly as the old
   spawn-per-sweep engines did). [run] returns only after every
   participant finished; the first exception any participant raised is
   re-raised on the caller.

   One batch at a time per pool: batches from the fleet engines are
   strictly sequential (cells of a chaos grid, sweeps of a bench loop),
   so the pool deliberately has no job queue — [run] from two domains at
   once is a programming error and raises. *)

type t = {
  mutex : Mutex.t;
  work : Condition.t; (* workers park here between batches *)
  idle : Condition.t; (* the caller parks here until the batch drains *)
  mutable job : (unit -> unit) option; (* the current batch's thunk *)
  mutable to_start : int; (* workers that must still pick up the batch *)
  mutable active : int; (* workers currently inside the thunk *)
  mutable busy : bool; (* a batch is in flight *)
  mutable failure : exn option; (* first worker exception of the batch *)
  mutable workers : unit Domain.t list; (* persistent helper domains *)
  mutable stop : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    job = None;
    to_start = 0;
    active = 0;
    busy = false;
    failure = None;
    workers = [];
    stop = false;
  }

let size t =
  Mutex.lock t.mutex;
  let n = List.length t.workers in
  Mutex.unlock t.mutex;
  n

let rec worker_loop t =
  Mutex.lock t.mutex;
  while (not t.stop) && t.to_start = 0 do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.to_start <- t.to_start - 1;
    t.active <- t.active + 1;
    let job = match t.job with Some j -> j | None -> assert false in
    Mutex.unlock t.mutex;
    let result = try Ok (job ()) with e -> Error e in
    Mutex.lock t.mutex;
    (match result with
    | Ok () -> ()
    | Error e -> if t.failure = None then t.failure <- Some e);
    t.active <- t.active - 1;
    if t.to_start = 0 && t.active = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.mutex;
    worker_loop t
  end

(* Grow to at least [helpers] parked domains. Called with the batch not
   yet published, so new workers park immediately. *)
let ensure t helpers =
  let missing = helpers - List.length t.workers in
  if missing > 0 then
    for _ = 1 to missing do
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    done

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers;
  (* drop the flag once the old helpers are gone, so a later [run] can
     spawn fresh ones instead of watching them exit immediately *)
  Mutex.lock t.mutex;
  t.stop <- false;
  Mutex.unlock t.mutex

(* Helper domains beyond this point stop buying anything on any machine
   this code meets; it also keeps a runaway shard count from exhausting
   the runtime's 128-domain budget. *)
let max_helpers = 63

let run t ~helpers job =
  let helpers = min (max 0 helpers) max_helpers in
  if helpers = 0 then job ()
  else begin
    Mutex.lock t.mutex;
    if t.busy then begin
      Mutex.unlock t.mutex;
      invalid_arg "Ra_core.Pool.run: pool already running a batch"
    end;
    t.busy <- true;
    ensure t helpers;
    t.job <- Some job;
    t.failure <- None;
    t.to_start <- helpers;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* the caller is a participant, not just a dispatcher *)
    let mine = try Ok (job ()) with e -> Error e in
    Mutex.lock t.mutex;
    while t.to_start > 0 || t.active > 0 do
      Condition.wait t.idle t.mutex
    done;
    t.job <- None;
    t.busy <- false;
    let theirs = t.failure in
    t.failure <- None;
    Mutex.unlock t.mutex;
    match (mine, theirs) with
    | Error e, _ -> raise e
    | Ok (), Some e -> raise e
    | Ok (), None -> ()
  end

(* The process-wide pool the fleet engines share. Domains spawn on first
   parallel use and are joined at exit so the runtime shuts down clean. *)
let shared_pool = lazy (
  let t = create () in
  at_exit (fun () -> shutdown t);
  t)

let shared () = Lazy.force shared_pool

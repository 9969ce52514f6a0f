(* Work pool over Domain.spawn.

   Jobs go through a mutex/condition-protected queue; each worker domain
   pulls the next job, runs it, and stores the result (or the exception)
   in a slot indexed by submission order.  [results]/[map] therefore
   return rows in submission order no matter which domain ran which job,
   which is what keeps parallel experiment sweeps bit-identical to the
   sequential run. *)

let env_var = "DRACONIS_JOBS"

(* The OCaml 5 runtime supports at most 128 live domains; past that,
   Domain.spawn fails outright.  Leave headroom for the coordinating
   domain and any LP-shard team, and reject the rest up front: a job
   count in the hundreds is always a typo or oversubscription, never a
   useful configuration. *)
let max_jobs = 64

(* An invalid value is a configuration error, not a preference: silently
   falling back to the default would run the sweep with the wrong
   parallelism and bury the typo (same contract as DRACONIS_SHARDS). *)
let env_jobs () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some raw -> (
    match int_of_string_opt (String.trim raw) with
    | Some n when n >= 1 && n <= max_jobs -> Some n
    | Some n ->
      invalid_arg
        (Printf.sprintf
           "Pool: %s=%d out of range [1, %d] (the OCaml 5 runtime supports at \
            most 128 domains per process)"
           env_var n max_jobs)
    | None ->
      invalid_arg
        (Printf.sprintf "Pool: %s=%S is not an integer" env_var raw))

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let current_jobs = ref (-1)

let jobs () =
  if !current_jobs < 1 then current_jobs := default_jobs ();
  !current_jobs

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  if n > max_jobs then
    invalid_arg
      (Printf.sprintf
         "Pool.set_jobs: %d exceeds the cap of %d worker domains (the runtime supports \
          at most 128 domains per process; more workers than that only oversubscribes)"
         n max_jobs);
  current_jobs := n

type 'a cell = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a t = {
  jobs : int;
  mutex : Mutex.t;
  todo : (int * (unit -> 'a)) Queue.t;
  work_or_close : Condition.t;
  job_done : Condition.t;
  mutable cells : 'a cell array;
  mutable submitted : int;
  mutable completed : int;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let create ?jobs:j () =
  let j = match j with Some j -> max 1 (min max_jobs j) | None -> jobs () in
  {
    jobs = j;
    mutex = Mutex.create ();
    todo = Queue.create ();
    work_or_close = Condition.create ();
    job_done = Condition.create ();
    cells = Array.make 16 Pending;
    submitted = 0;
    completed = 0;
    closed = false;
    domains = [];
  }

let run_job t index job =
  let cell =
    match job () with
    | v -> Done v
    | exception exn -> Failed (exn, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.mutex;
  t.cells.(index) <- cell;
  t.completed <- t.completed + 1;
  Condition.signal t.job_done;
  Mutex.unlock t.mutex

let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.todo && not t.closed do
      Condition.wait t.work_or_close t.mutex
    done;
    match Queue.take_opt t.todo with
    | None ->
      (* Closed and drained. *)
      Mutex.unlock t.mutex
    | Some (index, job) ->
      Mutex.unlock t.mutex;
      run_job t index job;
      loop ()
  in
  loop ()

(* Workers store results through [t.cells] under the mutex, so growing
   the array must also happen under the mutex or a concurrent store
   could land in the superseded array. *)
let grow_cells t index =
  if index >= Array.length t.cells then begin
    let bigger = Array.make (2 * Array.length t.cells) Pending in
    Array.blit t.cells 0 bigger 0 index;
    t.cells <- bigger
  end

let submit t job =
  if t.closed then invalid_arg "Pool.submit: pool already closed";
  let index = t.submitted in
  t.submitted <- index + 1;
  if t.jobs <= 1 then begin
    (* Sequential mode runs in the submitting domain, at submission
       time: no domains, no interleaving, the reference behaviour. *)
    grow_cells t index;
    run_job t index job
  end
  else begin
    Mutex.lock t.mutex;
    grow_cells t index;
    Queue.add (index, job) t.todo;
    Condition.signal t.work_or_close;
    Mutex.unlock t.mutex;
    if List.length t.domains < min t.jobs t.submitted then
      t.domains <- Domain.spawn (worker t) :: t.domains
  end

let results t =
  if not t.closed then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.work_or_close;
    while t.completed < t.submitted do
      Condition.wait t.job_done t.mutex
    done;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end;
  for i = 0 to t.submitted - 1 do
    match t.cells.(i) with
    | Failed (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | Done _ | Pending -> ()
  done;
  List.init t.submitted (fun i ->
      match t.cells.(i) with
      | Done v -> v
      | Failed _ | Pending -> assert false)

let map ?jobs fns =
  let t = create ?jobs () in
  List.iter (submit t) fns;
  results t

(* -- persistent worker team ------------------------------------------------ *)

(* The experiment pool above spawns domains per sweep and joins them at
   [results] — fine for a dozen long jobs, hopeless for a sharded
   simulation that needs its logical processes run in parallel at every
   barrier window (thousands of windows per run).  A [Team] keeps its
   domains alive across batches: [run] publishes a batch under an epoch
   counter, every lane seeds its own Chase-Lev deque with a strided
   slice of the batch and pops it LIFO, foraging through randomized
   steals from the other lanes once its own deque runs dry.  The
   caller's own domain participates as lane 0, so a team of [size] uses
   [size - 1] spawned domains. *)
module Team = struct
  type lane = {
    deque : (unit -> unit) Ws_deque.t;
    mutable rng : int;  (* xorshift state; lane-local, victim choice only *)
  }

  type t = {
    size : int;
    lanes : lane array;
    mutex : Mutex.t;
    start : Condition.t;  (* a new batch was published, or shutdown *)
    finished : Condition.t;  (* the current batch fully completed *)
    remaining : int Atomic.t;  (* thunks of the current batch not yet run *)
    mutable epoch : int;
    mutable batch : (unit -> unit) array;
    mutable failure : (exn * Printexc.raw_backtrace) option;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  (* Victim choice only ever affects which idle lane runs which thunk,
     never the outcome (window thunks are independent by the lookahead
     contract), so a throwaway xorshift per lane is plenty. *)
  let next_rand lane =
    let x = lane.rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    let x = x land max_int in
    lane.rng <- (if x = 0 then 0x9e3779b9 else x);
    lane.rng

  (* Thunks run outside the lock; the first exception is kept (by order
     of discovery) and re-raised by [run] after the barrier, so a failed
     window never leaves helpers mid-batch.  The last lane to finish a
     thunk broadcasts the barrier — under the mutex, so the caller
     cannot miss the wakeup between its counter check and its wait. *)
  let exec t thunk =
    (try thunk ()
     with exn ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.mutex;
       if t.failure = None then t.failure <- Some (exn, bt);
       Mutex.unlock t.mutex);
    if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end

  (* Each lane owns the strided slice [li, li + size, li + 2*size, ...]
     of the batch and seeds it into its {e own} deque — pushes stay
     owner-only even while late lanes from the previous window are still
     foraging.  Seeding back-to-front makes the owner's LIFO pops visit
     its slice in batch order. *)
  let seed t li batch =
    let lane = t.lanes.(li) in
    let n = Array.length batch in
    let last = li + (n - 1 - li) / t.size * t.size in
    let i = ref last in
    while !i >= li do
      Ws_deque.push lane.deque batch.(!i);
      i := !i - t.size
    done

  (* One randomized pass over the other lanes.  [`Busy] distinguishes a
     lost CAS (victim still looked nonempty — scan again) from a clean
     all-empty pass (stop foraging): a lane must never park while a
     sibling's deque still holds work, but also must not spin once the
     window is drained down to thunks already in flight. *)
  let scan_once t li =
    let n = t.size in
    let r = next_rand t.lanes.(li) in
    let rec go o busy =
      if o >= n then if busy then `Busy else `Empty
      else begin
        let v = (r + o) mod n in
        if v = li then go (o + 1) busy
        else
          match Ws_deque.steal t.lanes.(v).deque with
          | Some thunk -> `Got thunk
          | None -> go (o + 1) (busy || Ws_deque.size t.lanes.(v).deque > 0)
      end
    in
    go 0 false

  let work t li =
    let lane = t.lanes.(li) in
    let rec own () =
      match Ws_deque.pop lane.deque with
      | Some thunk ->
        exec t thunk;
        own ()
      | None -> forage ()
    and forage () =
      match scan_once t li with
      | `Got thunk ->
        exec t thunk;
        own ()
      | `Busy ->
        Domain.cpu_relax ();
        forage ()
      | `Empty -> ()
    in
    own ()

  let helper t li () =
    let rec wait_for_batch seen =
      Mutex.lock t.mutex;
      while t.epoch = seen && not t.stop do
        Condition.wait t.start t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        let epoch = t.epoch in
        let batch = t.batch in
        Mutex.unlock t.mutex;
        seed t li batch;
        work t li;
        wait_for_batch epoch
      end
    in
    wait_for_batch 0

  let create ~size =
    if size < 1 then invalid_arg "Pool.Team.create: size must be >= 1";
    if size > max_jobs then
      invalid_arg
        (Printf.sprintf "Pool.Team.create: size %d exceeds the cap of %d worker domains"
           size max_jobs);
    let t =
      {
        size;
        lanes =
          Array.init size (fun i ->
              { deque = Ws_deque.create (); rng = (i * 0x9e3779b9) lor 1 });
        mutex = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        remaining = Atomic.make 0;
        epoch = 0;
        batch = [||];
        failure = None;
        stop = false;
        domains = [];
      }
    in
    t.domains <- List.init (size - 1) (fun i -> Domain.spawn (helper t (i + 1)));
    t

  let size t = t.size

  let run t thunks =
    if Array.length thunks > 0 then begin
      Mutex.lock t.mutex;
      if t.stop then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.Team.run: team already shut down"
      end;
      t.batch <- thunks;
      t.failure <- None;
      Atomic.set t.remaining (Array.length thunks);
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.start;
      Mutex.unlock t.mutex;
      seed t 0 thunks;
      work t 0;
      Mutex.lock t.mutex;
      while Atomic.get t.remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      let failure = t.failure in
      (* Leave nothing for a late-waking helper to find. *)
      t.batch <- [||];
      Mutex.unlock t.mutex;
      match failure with
      | None -> ()
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    end

  let shutdown t =
    Mutex.lock t.mutex;
    if not t.stop then begin
      t.stop <- true;
      Condition.broadcast t.start;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.domains;
      t.domains <- []
    end
    else Mutex.unlock t.mutex
end

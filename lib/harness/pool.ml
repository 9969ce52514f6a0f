(* Domain pool: one executor for every parallel batch in the harness.

   A [Team] keeps its helper domains alive across batches, and the
   calling domain works as one more lane.  [Team.run] publishes a batch
   and every lane claims the next unrun thunk from one shared cursor, so
   whichever lane is awake takes the work: no thunk waits for a lane
   that has not woken yet.  [map] is one [Team.run] over a sweep's
   closures, each storing its result at its own index, which is what
   keeps parallel experiment sweeps bit-identical to the sequential
   run. *)

let env_var = "DRACONIS_JOBS"

(* The OCaml 5 runtime supports at most 128 live domains; past that,
   Domain.spawn fails outright.  Leave headroom for the coordinating
   domain and any LP-shard team, and reject the rest up front: a job
   count in the hundreds is always a typo or oversubscription, never a
   useful configuration. *)
let max_jobs = 64

(* An invalid value is a configuration error, not a preference: silently
   falling back to the default would run the sweep with the wrong
   parallelism and bury the typo. *)
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

(* The one range check for a worker count, wherever it comes from. *)
let check_jobs what n =
  if n < 1 || n > max_jobs then
    invalid_arg
      (Printf.sprintf
         "%s: %d worker domains out of range [1, %d] (the runtime supports at most \
          128 domains per process; more workers than that only oversubscribes)"
         what n max_jobs)

let set_jobs n =
  check_jobs "Pool.set_jobs" n;
  current_jobs := n

module Team = struct
  (* The claim cursor packs the batch's epoch above the index of its
     next unclaimed thunk, and a lane claims with a compare-and-set
     against the epoch it read with the batch.  A lane still claiming
     from a finished batch therefore fails against the next batch's
     cursor instead of taking one of its thunks.  Epochs wrap after
     2^30 batches; a lane would have to stall between reading the
     cursor and its compare-and-set for that many batches to confuse
     two of them. *)
  let index_bits = 32
  let index_mask = (1 lsl index_bits) - 1
  let epoch_mask = (1 lsl 30) - 1

  type t = {
    size : int;
    mutex : Mutex.t;
    start : Condition.t;  (* a new batch was published, or shutdown *)
    finished : Condition.t;  (* the current batch fully completed *)
    cursor : int Atomic.t;
    remaining : int Atomic.t;  (* thunks of the current batch not yet run *)
    mutable epoch : int;
    mutable batch : (unit -> unit) array;
    mutable failure : (int * exn * Printexc.raw_backtrace) option;
        (* the lowest-index thunk of the batch that raised so far *)
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  (* Thunks run outside the lock.  The last lane to finish a thunk
     broadcasts the barrier, under the mutex, so the caller cannot miss
     the wakeup between its counter check and its wait. *)
  let exec t batch i =
    (try batch.(i) ()
     with exn ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.mutex;
       (match t.failure with
       | Some (first, _, _) when first < i -> ()
       | Some _ | None -> t.failure <- Some (i, exn, bt));
       Mutex.unlock t.mutex);
    if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end

  (* Claim and run thunks of [batch], published under [epoch], until its
     cursor is exhausted or has moved on to a later batch. *)
  let work t epoch batch =
    let tag = epoch lsl index_bits in
    let n = Array.length batch in
    let rec claim () =
      let c = Atomic.get t.cursor in
      let i = c land index_mask in
      if c - i = tag && i < n then begin
        if Atomic.compare_and_set t.cursor c (c + 1) then exec t batch i;
        claim ()
      end
    in
    claim ()

  let helper t () =
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
        work t epoch batch;
        wait_for_batch epoch
      end
    in
    wait_for_batch 0

  let create ~size =
    check_jobs "Pool.Team.create" size;
    let t =
      {
        size;
        mutex = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        cursor = Atomic.make 0;
        remaining = Atomic.make 0;
        epoch = 0;
        batch = [||];
        failure = None;
        stop = false;
        domains = [];
      }
    in
    t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (helper t));
    t

  let size t = t.size

  let run t thunks =
    let n = Array.length thunks in
    if n > index_mask then invalid_arg "Pool.Team.run: batch too large";
    if n > 0 then begin
      Mutex.lock t.mutex;
      if t.stop then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.Team.run: team already shut down"
      end;
      let epoch = (t.epoch + 1) land epoch_mask in
      t.epoch <- epoch;
      t.batch <- thunks;
      Atomic.set t.remaining n;
      Atomic.set t.cursor (epoch lsl index_bits);
      Condition.broadcast t.start;
      Mutex.unlock t.mutex;
      work t epoch thunks;
      Mutex.lock t.mutex;
      while Atomic.get t.remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      let failure = t.failure in
      (* Keep no closure of the batch alive past it. *)
      t.batch <- [||];
      t.failure <- None;
      Mutex.unlock t.mutex;
      match failure with
      | None -> ()
      | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
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

let map ?jobs:j fns =
  let j = match j with Some j -> j | None -> jobs () in
  check_jobs "Pool.map" j;
  let fns = Array.of_list fns in
  let n = Array.length fns in
  let results = Array.make n None in
  let team = Team.create ~size:(max 1 (min j n)) in
  Fun.protect
    ~finally:(fun () -> Team.shutdown team)
    (fun () ->
      Team.run team (Array.init n (fun i () -> results.(i) <- Some (fns.(i) ()))));
  List.init n (fun i -> Option.get results.(i))

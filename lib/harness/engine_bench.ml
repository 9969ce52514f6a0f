open Draconis_sim
open Draconis_stats

(* Self-propagating event storm: each fired event schedules its
   successor, so schedule/step/release churn through the engine's pooled
   nodes at steady state.  The delay mix: mostly near-future ticks in the
   wheel's low levels, a mid band that exercises cascading, and a far
   tail of 33-101 ms.  The far tail sits inside the wheel's 2^30-tick
   span, so it cascades down from the top level and never reaches the
   side tier (the calendar tests cover that); the delays stay fixed
   because BENCH_engine.json pins the counts they produce.  Every 8th
   event also parks a no-op victim in a small ring and cancels the
   victim it evicts, so the cancel path and the generation-counter guard
   see traffic too.

   All randomness comes from one seeded splitmix stream drawn inside the
   handlers, so every count below is a deterministic function of the
   seed and the engine's event order. *)

type measurement = {
  scheduled : int;
  cancels : int;
  executed : int;
  wall_s : float;
  words_per_event : float;
}

let ring_size = 128

let storm ~total ~seed =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let scheduled = ref 0 in
  let cancels = ref 0 in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  (* The ring needs a handle to start from; burn one dummy event. *)
  let dummy = Engine.schedule engine ~after:1 ignore in
  incr scheduled;
  let ring = Array.make ring_size dummy in
  let ring_pos = ref 0 in
  let delay () =
    let r = Rng.int rng 100 in
    if r < 90 then 1 + Rng.int rng 50_000 (* near: wheel levels 0-1 *)
    else if r < 98 then 1 + Rng.int rng (1 lsl 22) (* mid: cascades *)
    else (1 lsl 25) + Rng.int rng (1 lsl 26) (* far: top level *)
  in
  let rec fire () =
    if !scheduled < total then begin
      ignore (Engine.schedule engine ~after:(delay ()) fire);
      incr scheduled;
      if !scheduled land 7 = 0 && !scheduled < total then begin
        let victim = Engine.schedule engine ~after:(1 + Rng.int rng 10_000) ignore in
        incr scheduled;
        let slot = !ring_pos land (ring_size - 1) in
        (* The evicted handle may already have fired; the generation
           counter makes the stale cancel a no-op. *)
        Engine.cancel engine ring.(slot);
        incr cancels;
        ring.(slot) <- victim;
        incr ring_pos
      end
    end
  in
  (* Enough concurrent chains to hold a standing population in the tens
     of thousands — the regime of a simulated cluster, where the heap
     pays ~15 comparison levels per operation. *)
  let chains = max 16 (total / 64) in
  for _ = 1 to chains do
    ignore (Engine.schedule engine ~after:(delay ()) fire);
    incr scheduled
  done;
  Engine.run engine;
  let wall_s = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. minor0 in
  let executed = Engine.executed engine in
  {
    scheduled = !scheduled;
    cancels = !cancels;
    executed;
    wall_s;
    words_per_event = words /. float_of_int (max 1 executed);
  }

let outcome (m : measurement) : Runner.outcome =
  (* A calendar storm has no scheduling-latency semantics, so the
     latency block is marked absent ([has_latency = false] serializes it
     as null) instead of shipping zeros that draconis-trace would then
     treat as a baseline to regress against.  The wall-clock events/sec
     rides along as an informational field compare never checks. *)
  {
    system = "engine-wheel";
    load_tps = 0.0;
    sched_p50 = 0;
    sched_p99 = 0;
    sched_mean = 0.0;
    decisions_per_sec = 0.0;
    submitted = m.scheduled;
    started = m.executed;
    completed = m.executed;
    timeouts = 0;
    rejected = m.cancels;
    recirc_fraction = 0.0;
    recirc_drops = 0;
    swaps = 0;
    recirculations = 0;
    repair_flags = 0;
    events = m.executed;
    events_per_sec =
      (if m.wall_s > 0.0 then float_of_int m.executed /. m.wall_s else 0.0);
    drained = true;
    has_latency = false;
    phases = [];
  }

(* -- sharded storm --------------------------------------------------------

   The same self-propagating event core, driven through Lp/Sync instead
   of one engine: a fixed 4-LP partition (so every worker count runs the
   exact same workload) where each LP runs its own chains and every 64th
   event hops to the next LP's inbox ([Lp.post]).  Sweeping the worker
   count and asserting identical executed counts, final clocks and
   cross-posts pins down the barrier protocol's determinism contract;
   the events/sec column reports how the window overhead scales. *)

let shard_lp_count = 4
let shard_lookahead = 10_000

type shard_measurement = {
  workers : int;
  sh_executed : int;
  clocks : Time.t array; (* final clock per LP *)
  posted : int;
  windows : int;
  sh_wall_s : float;
}

let shard_storm ~workers ~total ~seed =
  let lps = Array.init shard_lp_count (fun i -> Lp.create ~id:i ~seed ()) in
  let scheduled = Array.make shard_lp_count 0 in
  let seqs = Array.make shard_lp_count 0 in
  let per_lp = total / shard_lp_count in
  (* [fire i] only ever runs on LP [i]'s domain: locally scheduled
     successors stay on LP [i], and a cross-post hands the closure for
     the *next* LP to that LP's inbox, at least one lookahead ahead. *)
  let rec fire i () =
    if scheduled.(i) < per_lp then begin
      let lp = lps.(i) in
      let engine = Lp.engine lp in
      let delay = 1 + Rng.int (Lp.rng lp) 50_000 in
      scheduled.(i) <- scheduled.(i) + 1;
      if scheduled.(i) land 63 = 0 then begin
        let j = (i + 1) mod shard_lp_count in
        seqs.(i) <- seqs.(i) + 1;
        Lp.post lps.(j)
          ~at:(Engine.now engine + shard_lookahead + delay)
          ~src:i ~seq:seqs.(i) (fire j)
      end
      else ignore (Engine.schedule engine ~after:delay (fire i))
    end
  in
  Array.iteri
    (fun i lp ->
      for _ = 1 to 8 do
        scheduled.(i) <- scheduled.(i) + 1;
        ignore
          (Engine.schedule (Lp.engine lp)
             ~after:(1 + Rng.int (Lp.rng lp) 50_000)
             (fire i))
      done)
    lps;
  let sync = Sync.create ~lookahead:shard_lookahead lps in
  let t0 = Unix.gettimeofday () in
  (* More lanes than LPs would only park helpers at the batch barrier. *)
  let team = Pool.Team.create ~size:(min workers shard_lp_count) in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () -> Sync.run ~executor:(Pool.Team.run team) sync);
  let sh_wall_s = Unix.gettimeofday () -. t0 in
  {
    workers;
    sh_executed = Sync.executed sync;
    clocks = Array.map (fun lp -> Engine.now (Lp.engine lp)) lps;
    posted = Array.fold_left (fun acc lp -> acc + Lp.posted lp) 0 lps;
    windows = Sync.windows sync;
    sh_wall_s;
  }

let shard_outcome (m : shard_measurement) : Runner.outcome =
  {
    system = Printf.sprintf "engine-sharded-s%d" m.workers;
    load_tps = 0.0;
    sched_p50 = 0;
    sched_p99 = 0;
    sched_mean = 0.0;
    decisions_per_sec = 0.0;
    submitted = m.sh_executed;
    started = m.sh_executed;
    completed = m.sh_executed;
    timeouts = 0;
    rejected = 0;
    recirc_fraction = 0.0;
    recirc_drops = 0;
    swaps = 0;
    recirculations = 0;
    repair_flags = 0;
    events = m.sh_executed;
    events_per_sec =
      (if m.sh_wall_s > 0.0 then float_of_int m.sh_executed /. m.sh_wall_s else 0.0);
    drained = true;
    has_latency = false;
    phases = [];
  }

let run_sharded ~quick ~seed =
  let total = if quick then 100_000 else 1_000_000 in
  let worker_counts = List.sort_uniq compare [ 1; 2; Shard.shards () ] in
  let runs = List.map (fun w -> shard_storm ~workers:w ~total ~seed) worker_counts in
  let reference = List.hd runs in
  List.iter
    (fun m ->
      if m.sh_executed <> reference.sh_executed then
        failwith
          (Printf.sprintf
             "engine-bench: sharded storm executed %d events with %d workers, %d \
              with %d"
             m.sh_executed m.workers reference.sh_executed reference.workers);
      if m.clocks <> reference.clocks then
        failwith
          (Printf.sprintf
             "engine-bench: sharded storm final clocks diverge at %d workers"
             m.workers);
      if m.posted <> reference.posted then
        failwith
          (Printf.sprintf
             "engine-bench: sharded storm cross-posts diverge (%d at %d workers, %d \
              at %d)"
             m.posted m.workers reference.posted reference.workers);
      if m.windows <> reference.windows then
        failwith
          (Printf.sprintf
             "engine-bench: sharded storm window counts diverge at %d workers"
             m.workers))
    runs;
  let table =
    Table.create
      ~columns:[ "workers"; "events"; "windows"; "cross-posts"; "wall s"; "events/sec" ]
  in
  List.iter
    (fun m ->
      Table.add_row table
        [
          string_of_int m.workers;
          string_of_int m.sh_executed;
          string_of_int m.windows;
          string_of_int m.posted;
          Printf.sprintf "%.3f" m.sh_wall_s;
          Printf.sprintf "%.0f"
            (if m.sh_wall_s > 0.0 then float_of_int m.sh_executed /. m.sh_wall_s
             else 0.0);
        ])
    runs;
  Table.print
    ~title:
      (Printf.sprintf "engine-bench: sharded storm (%d LPs, worker-count sweep)"
         shard_lp_count)
    table;
  Report.add_outcomes (List.map shard_outcome runs)

let run ?(quick = false) () =
  let total = if quick then 200_000 else 2_000_000 in
  let seed = 42 in
  (* Warm up once so the measured run does not pay one-time costs (code,
     branch predictors). *)
  ignore (storm ~total:(total / 20) ~seed);
  let m = storm ~total ~seed in
  Printf.printf
    "engine-bench: wheel calendar storm: %d events in %.3f s (%.0f events/sec), \
     %.2f minor words/event\n%!"
    m.executed m.wall_s
    (if m.wall_s > 0.0 then float_of_int m.executed /. m.wall_s else 0.0)
    m.words_per_event;
  Report.add_outcomes [ outcome m ];
  run_sharded ~quick ~seed

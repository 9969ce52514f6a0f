open Draconis_sim

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
  Report.add_outcomes [ outcome m ]

(* Property tests pinning the Engine's wheel calendar to a heap oracle:
   a small reference scheduler, defined here and used nowhere else, that
   orders events with a plain binary heap.  The wheel must execute the
   exact same events, in the same order, at the same virtual times —
   including cancels, nested scheduling, the simulation's own delays,
   every level's window edge, the side tier (behind the cursor and
   beyond the span), and the sequence-counter renumbering path. *)

open Draconis_sim

(* The operations the workloads below drive, so each one runs unchanged
   against the engine and against the oracle. *)
module type SCHED = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> Time.t
  val executed : t -> int
  val schedule : t -> after:Time.t -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val next_at : t -> Time.t option
  val run : ?until:Time.t -> t -> unit
end

module Wheel_engine : SCHED = struct
  type t = Engine.t
  type handle = Engine.handle

  let create = Engine.create
  let now = Engine.now
  let executed = Engine.executed
  let schedule = Engine.schedule
  let cancel = Engine.cancel
  let next_at = Engine.next_at
  let run ?until t = Engine.run ?until t
end

(* The oracle: an [Int_heap] on packed [(at, seq)] keys, the handle is
   the event's sequence number, and a cancel just records it in a set
   that the pop consults.  The sequence field is wide enough for every
   workload here, so unlike the engine the oracle never renumbers — the
   renumbering crossing below is checked against an order that never
   went through it. *)
module Heap_oracle : SCHED = struct
  let seq_bits = 24

  type t = {
    heap : (unit -> unit) Int_heap.t;
    cancelled : (int, unit) Hashtbl.t;
    mutable now : Time.t;
    mutable seq : int;
    mutable executed : int;
  }

  type handle = int

  let create () =
    {
      heap = Int_heap.create ();
      cancelled = Hashtbl.create 64;
      now = 0;
      seq = 0;
      executed = 0;
    }

  let now t = t.now
  let executed t = t.executed

  let schedule t ~after fn =
    assert (after >= 0 && t.seq < 1 lsl seq_bits);
    let seq = t.seq in
    t.seq <- seq + 1;
    Int_heap.push t.heap (((t.now + after) lsl seq_bits) lor seq) fn;
    seq

  (* Cancelling a handle that already fired leaves a stale entry no pop
     will ever match: sequence numbers are never reused. *)
  let cancel t h = Hashtbl.replace t.cancelled h ()

  (* Cancelled entries stay queued until popped, as on the engine. *)
  let next_at t =
    match Int_heap.peek_key t.heap with
    | exception Not_found -> None
    | key -> Some (key asr seq_bits)

  let run ?until t =
    let limit = Option.value until ~default:max_int in
    let rec loop () =
      match Int_heap.peek_key t.heap with
      | exception Not_found -> ()
      | key when key asr seq_bits > limit -> ()
      | _ ->
        let key, fn = Int_heap.pop t.heap in
        let seq = key land ((1 lsl seq_bits) - 1) in
        t.now <- key asr seq_bits;
        if Hashtbl.mem t.cancelled seq then Hashtbl.remove t.cancelled seq
        else begin
          t.executed <- t.executed + 1;
          fn ()
        end;
        loop ()
    in
    loop ();
    (* Every event at or before the horizon has run: the clock reaches it. *)
    match until with Some limit when t.now < limit -> t.now <- limit | _ -> ()
end

(* The simulation's own delays: pipeline admission, recirculation, a
   host-switch hop of 1.5 us +/- 150 ns, the 4 us no-op retry, the 200 us
   executor watchdog and the longest service time. *)
let sim_delays = [| 400; 600; 1_350; 1_500; 1_650; 4_000; 200_000; 500_000 |]

(* Every level's window width, and the span, +/- 1 tick. *)
let edge_delays =
  Array.of_list
    (List.concat_map
       (fun l ->
         let w = 1 lsl (Engine.slot_bits * l) in
         [ w - 1; w; w + 1 ])
       (List.init Engine.levels (fun l -> l + 1)))

(* One randomized workload, fully determined by [seed]: the execution
   log is (event id, virtual time) in firing order.  All rng draws
   happen either before the run or inside handlers; since both
   schedulers must execute handlers in the same order, the draw streams
   coincide and the two runs see byte-identical schedules. *)
let exec_log (module S : SCHED) ~seed ~n =
  let sched = S.create () in
  let rng = Rng.create ~seed in
  let log = ref [] in
  let note i () = log := (i, S.now sched) :: !log in
  let delay () =
    match Rng.int rng 12 with
    | 0 -> Rng.int rng 5 (* near-ties at the same instants *)
    | 1 | 2 -> 1 + Rng.int rng 100
    | 3 -> Engine.span + Rng.int rng Engine.span (* beyond the span: side tier *)
    | 4 | 5 -> sim_delays.(Rng.int rng (Array.length sim_delays))
    | 6 -> edge_delays.(Rng.int rng (Array.length edge_delays))
    | 7 ->
      (* Up to the next aligned edge of a level's window, +/- 1 tick. *)
      let w = 1 lsl (Engine.slot_bits * (1 + Rng.int rng Engine.levels)) in
      w - (S.now sched mod w) + Rng.int rng 3 - 1
    | _ -> 1 + Rng.int rng 100_000
  in
  let cancelable = ref [] in
  for i = 0 to n - 1 do
    let h =
      if i mod 7 = 0 then
        (* Nested: this handler schedules a child with a fresh draw. *)
        S.schedule sched ~after:(delay ()) (fun () ->
            note i ();
            ignore (S.schedule sched ~after:(1 + delay ()) (note (n + i))))
      else S.schedule sched ~after:(delay ()) (note i)
    in
    if Rng.int rng 4 = 0 then cancelable := h :: !cancelable
  done;
  List.iteri (fun j h -> if j mod 2 = 0 then S.cancel sched h) !cancelable;
  (* Stop mid-horizon and peek, then schedule closer than anything still
     queued: the peek moved the wheel's cursor to the next event, so
     these land behind it (the side tier). *)
  S.run ~until:50_000 sched;
  let peeked = S.next_at sched in
  for i = 2 * n to (2 * n) + 19 do
    ignore (S.schedule sched ~after:(1 + Rng.int rng 50) (note i))
  done;
  S.run sched;
  (List.rev !log, peeked, S.executed sched, S.now sched)

let prop_calendars_agree =
  QCheck.Test.make ~name:"heap and wheel calendars execute identical orders"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      exec_log (module Heap_oracle) ~seed ~n:400
      = exec_log (module Wheel_engine) ~seed ~n:400)

(* Enough schedule/cancel churn to overflow the engine's 21-bit sequence
   counter while ties are pending, forcing the renumbering path; FIFO
   order of the ties must survive it, and a handle issued before it must
   still cancel its own event after it. *)
let renumber_log (module S : SCHED) =
  let sched = S.create () in
  let order = ref [] in
  let at_tie k = S.schedule sched ~after:1_000_000 (fun () -> order := k :: !order) in
  ignore (at_tie 1);
  let early = at_tie 0 in
  ignore (at_tie 2);
  let churn = (1 lsl 21) + 100_000 in
  for _ = 1 to churn / 500 do
    let hs = List.init 500 (fun _ -> S.schedule sched ~after:10 ignore) in
    List.iter (S.cancel sched) hs;
    S.run ~until:(S.now sched + 10) sched
  done;
  S.cancel sched early;
  ignore (at_tie 3);
  ignore (at_tie 4);
  S.run sched;
  (List.rev !order, S.executed sched, S.now sched)

let test_renumber_crossing () =
  let heap = renumber_log (module Heap_oracle) in
  let wheel = renumber_log (module Wheel_engine) in
  let order, _, _ = wheel in
  Alcotest.(check (list int)) "FIFO ties survive renumbering" [ 1; 2; 3; 4 ] order;
  let pp = Alcotest.(triple (list int) int int) in
  Alcotest.check pp "wheel agrees with the heap oracle across renumbering" heap wheel

(* A handle outlives its event: once the event has fired (or its
   cancelled entry was consumed), its node is recycled for a newer event,
   and the stale handle must neither cancel nor report on that event. *)
let test_stale_handle_recycled () =
  let e = Engine.create () in
  let fired = ref [] in
  let note k () = fired := k :: !fired in
  let old_fired = Engine.schedule e ~after:1 (note 0) in
  let old_cancelled = Engine.schedule e ~after:1 (note 1) in
  Engine.cancel e old_cancelled;
  Engine.run e;
  Alcotest.(check bool) "cancelled before its node recycles" true
    (Engine.cancelled e old_cancelled);
  (* More new events than the pool held, so both nodes are reused
     whatever the free-list order. *)
  let fresh = List.init 1_000 (fun k -> Engine.schedule e ~after:5 (note (10 + k))) in
  Engine.cancel e old_fired;
  Engine.cancel e old_cancelled;
  Alcotest.(check bool) "a recycled node forgets the old cancel" false
    (Engine.cancelled e old_cancelled);
  List.iter
    (fun h -> Alcotest.(check bool) "new event not cancelled" false (Engine.cancelled e h))
    fresh;
  Engine.run e;
  Alcotest.(check (list int)) "every new event fires"
    (0 :: List.init 1_000 (fun k -> 10 + k))
    (List.rev !fired)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_calendars_agree;
    Alcotest.test_case "renumbering crossing, both calendars" `Quick
      test_renumber_crossing;
    Alcotest.test_case "stale handle on a recycled node cancels nothing" `Quick
      test_stale_handle_recycled;
  ]

open Draconis_sim
open Draconis_stats

type t = {
  label : string;
  capacity : int;
  mutable events : Event.t array;
  mutable len : int;
  mutable dropped : int;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  histograms : (string, Sampler.t) Hashtbl.t;
  series : (string, (Time.t * int) list ref) Hashtbl.t;
  mutable attribution : string option;
  mutable int_telemetry : string option;
}

let default_capacity = 1 lsl 20

let create ?(capacity = default_capacity) ~label () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be positive";
  {
    label;
    capacity;
    events = [||];
    len = 0;
    dropped = 0;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    series = Hashtbl.create 16;
    attribution = None;
    int_telemetry = None;
  }

let label t = t.label
let event_count t = t.len
let dropped t = t.dropped
let set_attribution t json = t.attribution <- Some json
let attribution t = t.attribution
let set_int_telemetry t json = t.int_telemetry <- Some json
let int_telemetry t = t.int_telemetry

(* Timestamp of the first stored event; [max_int] for an empty buffer so
   empty recorders sort after populated ones with equal labels/counts. *)
let first_event_at t = if t.len > 0 then t.events.(0).Event.at else max_int

(* Grow-on-demand up to [capacity]; past capacity the newest events are
   counted instead of stored, so what remains is a valid (balanced up to
   the truncation point, time-ordered) prefix of the run. *)
let push t event =
  if t.len >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    if t.len >= Array.length t.events then begin
      let next = max 1024 (min t.capacity (2 * max 1 (Array.length t.events))) in
      let bigger = Array.make next Event.dummy in
      Array.blit t.events 0 bigger 0 t.len;
      t.events <- bigger
    end;
    t.events.(t.len) <- event;
    t.len <- t.len + 1
  end

let events t = List.init t.len (fun i -> t.events.(i))

let iter_events t f =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

(* -- registry -------------------------------------------------------------- *)

let add t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters name (ref n)

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let observe t name v =
  let sampler =
    match Hashtbl.find_opt t.histograms name with
    | Some s -> s
    | None ->
      let s = Sampler.create () in
      Hashtbl.replace t.histograms name s;
      s
  in
  Sampler.record sampler v

let sorted_assoc tbl value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_assoc t.counters ( ! )
let gauges t = sorted_assoc t.gauges ( ! )
let histograms t = sorted_assoc t.histograms Fun.id
let series t = sorted_assoc t.series (fun points -> List.rev !points)

(* -- typed emission -------------------------------------------------------- *)

let span_begin t ~at ~track name =
  push t { Event.at; track; name; phase = Event.Span_begin }

let span_end t ~at ~track name =
  push t { Event.at; track; name; phase = Event.Span_end }

let instant t ~at ~track name =
  push t { Event.at; track; name; phase = Event.Instant }

let counter_event t ~at ~track name v =
  push t { Event.at; track; name; phase = Event.Counter v }

let sample t ~at name v =
  (match Hashtbl.find_opt t.series name with
  | Some points -> points := (at, v) :: !points
  | None -> Hashtbl.replace t.series name (ref [ (at, v) ]));
  counter_event t ~at ~track:name name v

(* -- ambient (domain-local) recorder -------------------------------------- *)

(* Installation is domain-local: each Harness.Pool worker domain carries
   its own slot, so parallel runs record into disjoint recorders with no
   locking on the emit path.  The disabled path is one DLS read and a
   match. *)
let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key
let active () = Domain.DLS.get key <> None

let with_recorder t f =
  let previous = Domain.DLS.get key in
  Domain.DLS.set key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key previous) f

let record name v =
  match current () with None -> () | Some t -> observe t name v

let begin_span ~at ~track name =
  match current () with None -> () | Some t -> span_begin t ~at ~track name

let end_span ~at ~track name =
  match current () with None -> () | Some t -> span_end t ~at ~track name

let mark ~at ~track name =
  match current () with None -> () | Some t -> instant t ~at ~track name

let probe_sample ~at name v =
  match current () with None -> () | Some t -> sample t ~at name v

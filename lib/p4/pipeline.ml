open Draconis_sim
open Draconis_net
module Obs = Draconis_obs

type ('wire, 'pkt) output = Emit of Addr.t * 'wire | Recirculate of 'pkt | Drop
type ('wire, 'pkt) program = Packet_ctx.t -> 'pkt -> ('wire, 'pkt) output list

type config = {
  pipeline_latency : Time.t;
  packet_slot : Time.t;
  recirc_latency : Time.t;
  recirc_slot : Time.t;
  recirc_queue_limit : int;
}

let default_config =
  {
    pipeline_latency = Time.ns 400;
    packet_slot = Time.ns 1;
    recirc_latency = Time.ns 600;
    recirc_slot = Time.ns 100;
    recirc_queue_limit = 64;
  }

type ('wire, 'pkt) t = {
  engine : Engine.t;
  fabric : 'wire Fabric.t;
  config : config;
  mutable program : ('wire, 'pkt) program;
  (* The one packet context, reset at the start of every traversal:
     traversals never overlap, and no program keeps its context. *)
  ctx : Packet_ctx.t;
  mutable ingress_free_at : Time.t;
  mutable recirc_free_at : Time.t;
  (* Bumped by [flush_in_flight]; packets scheduled under an older epoch
     vanish when their closure fires (a fail-over standby never sees the
     dead switch's in-flight or recirculating packets). *)
  mutable epoch : int;
  mutable processed : int;
  mutable recirculated : int;
  mutable recirc_dropped : int;
  mutable flushed : int;
}

(* Output scans, top-level so a traversal allocates no closure. *)
let rec has_recirc = function
  | [] -> false
  | Recirculate _ :: _ -> true
  | (Emit _ | Drop) :: rest -> has_recirc rest

let rec count_emits n = function
  | [] -> n
  | Emit _ :: rest -> count_emits (n + 1) rest
  | (Recirculate _ | Drop) :: rest -> count_emits n rest

let rec admit ?int_ t pkt =
  let now = Engine.now t.engine in
  let start = Int.max now t.ingress_free_at in
  t.ingress_free_at <- start + t.config.packet_slot;
  let exit_time = start + t.config.pipeline_latency in
  let epoch = t.epoch in
  ignore
    (Engine.schedule_at t.engine ~at:exit_time (fun () ->
         if epoch = t.epoch then traverse ?int_ t pkt
         else begin
           Option.iter Obs.Int_telemetry.drop_stack int_;
           t.flushed <- t.flushed + 1
         end))

and traverse ?int_ t pkt =
  t.processed <- t.processed + 1;
  Packet_ctx.reset t.ctx;
  let outputs = t.program t.ctx pkt in
  (* The program's queue/bank accesses wrote the values they already
     hold into the context; the committed stamp rides whichever outputs
     continue the packet's chain.  A [match], not [Option.map]: a
     closure here would cost every traversal an allocation. *)
  let int_ =
    match int_ with
    | None -> None
    | Some stack ->
      let f = t.ctx.telemetry in
      Some
        (Obs.Int_telemetry.commit_traversal ~at:(Engine.now t.engine) ~stage:f.stage
           ~level:f.level ~occupancy:f.occupancy ~bank:f.bank ~probe:f.probe stack)
  in
  (* The stamp stack follows the chain: recirculated packets inherit it;
     otherwise the traversal is terminal and the stack leaves on the last
     emitted message (or drains at the switch when nothing is emitted,
     e.g. a repair application). *)
  let recirc = has_recirc outputs in
  let carrier = if recirc then 0 else count_emits 0 outputs in
  if (not recirc) && carrier = 0 then Option.iter Obs.Int_telemetry.deliver_stack int_;
  dispatch ?int_ t ~carrier ~seen:0 outputs

(* Act on the outputs in order; the [carrier]-th emit (counting from 1;
   0 = none) takes the stamp stack. *)
and dispatch ?int_ t ~carrier ~seen = function
  | [] -> ()
  | Drop :: rest -> dispatch ?int_ t ~carrier ~seen rest
  | Emit (dst, wire) :: rest ->
    let seen = seen + 1 in
    let stack = if seen = carrier then int_ else None in
    Fabric.send t.fabric ?int_:stack ~src:Addr.Switch ~dst wire;
    dispatch ?int_ t ~carrier ~seen rest
  | Recirculate out_pkt :: rest ->
    recirculate ?int_ t out_pkt;
    dispatch ?int_ t ~carrier ~seen rest

and recirculate ?int_ t pkt =
  (* The loop-back port serves at [recirc_slot] intervals with a bounded
     queue; overflow means the switch cannot recirculate and drops. *)
  let now = Engine.now t.engine in
  let backlog =
    if t.recirc_free_at <= now then 0
    else (t.recirc_free_at - now) / Int.max 1 t.config.recirc_slot
  in
  if backlog >= t.config.recirc_queue_limit then begin
    Option.iter Obs.Int_telemetry.drop_stack int_;
    t.recirc_dropped <- t.recirc_dropped + 1;
    Obs.Recorder.mark ~at:now ~track:"pipeline" "recirc drop"
  end
  else begin
    t.recirculated <- t.recirculated + 1;
    let start = Int.max now t.recirc_free_at in
    t.recirc_free_at <- start + t.config.recirc_slot;
    let reentry = start + t.config.recirc_latency in
    let epoch = t.epoch in
    ignore
      (Engine.schedule_at t.engine ~at:reentry (fun () ->
           if epoch = t.epoch then admit ?int_ t pkt
           else begin
             Option.iter Obs.Int_telemetry.drop_stack int_;
             t.flushed <- t.flushed + 1
           end))
  end

(* A packet entering the switch carries a stamp stack only while an INT
   collector is installed. *)
let arrival_stack ~sent_at =
  match Obs.Int_telemetry.current_collector () with
  | None -> None
  | Some _ -> Some (Obs.Int_telemetry.ingress_stack ~sent_at)

let attach ?(config = default_config) ?on_ingress fabric ~wrap program =
  let t =
    {
      engine = Fabric.engine fabric;
      fabric;
      config;
      program;
      ctx = Packet_ctx.create ();
      ingress_free_at = 0;
      recirc_free_at = 0;
      epoch = 0;
      processed = 0;
      recirculated = 0;
      recirc_dropped = 0;
      flushed = 0;
    }
  in
  Fabric.register fabric Addr.Switch (fun env ->
      (match on_ingress with
      | None -> ()
      | Some f -> f env.Fabric.payload);
      admit ?int_:(arrival_stack ~sent_at:env.Fabric.sent_at) t (wrap env.Fabric.payload));
  t

let set_program t program = t.program <- program

let flush_in_flight t =
  let now = Engine.now t.engine in
  Obs.Recorder.mark ~at:now ~track:"pipeline" "flush (fail-over)";
  t.epoch <- t.epoch + 1;
  (* The standby's ports start idle. *)
  t.ingress_free_at <- now;
  t.recirc_free_at <- now

let inject t pkt = admit ?int_:(arrival_stack ~sent_at:(Engine.now t.engine)) t pkt

let context t = t.ctx
let processed t = t.processed
let recirculated t = t.recirculated
let recirc_dropped t = t.recirc_dropped
let flushed t = t.flushed

let recirculation_fraction t =
  if t.processed = 0 then 0.0
  else float_of_int t.recirculated /. float_of_int t.processed

open Draconis_sim
open Draconis_stats

(* -- stamp format ---------------------------------------------------------- *)

type stage =
  | Ingress
  | Submission
  | Request
  | Completion
  | Swap
  | Resubmit
  | Repair_add
  | Repair_retrieve
  | Prio_scan
  | Pifo_probe
  | Pifo_scan
  | Pifo_claim
  | Forward

let stage_to_string = function
  | Ingress -> "ingress"
  | Submission -> "submission"
  | Request -> "request"
  | Completion -> "completion"
  | Swap -> "swap"
  | Resubmit -> "resubmit"
  | Repair_add -> "repair-add"
  | Repair_retrieve -> "repair-retrieve"
  | Prio_scan -> "prio-scan"
  | Pifo_probe -> "pifo-probe"
  | Pifo_scan -> "pifo-scan"
  | Pifo_claim -> "pifo-claim"
  | Forward -> "forward"

type probe_outcome = No_probe | Probe_hit | Probe_miss | Claim_won | Claim_lost

type stamp = {
  stage : stage;
  at : Time.t;
  hop : int;
  level : int;
  occupancy : int;
  bank : int;
  probe : probe_outcome;
}

(* Newest-first so appending a hop shares the tail: when a traversal fans
   out (repair recirculation plus an acknowledgement), both continuations
   extend the same immutable prefix without copying. *)
type stack = { stamps : stamp list; depth : int; hops : int; lost : int }

let stack_depth s = s.depth
let stack_lost s = s.lost
let stack_stamps s = List.rev s.stamps

(* -- configuration --------------------------------------------------------- *)

let default_budget = 4
let max_budget = 64
let enabled_flag = ref false
let budget_ref = ref default_budget

let enabled () = !enabled_flag
let budget () = !budget_ref

let set_budget n =
  if n < 1 || n > max_budget then
    invalid_arg
      (Printf.sprintf "Int_telemetry.set_budget: header budget must be in 1..%d, got %d"
         max_budget n)
  else budget_ref := n

let enable ?budget () =
  Option.iter set_budget budget;
  enabled_flag := true

let disable () = enabled_flag := false

(* -- stamp stacks ------------------------------------------------------------ *)

let ingress_stack ~sent_at =
  {
    stamps =
      [ { stage = Ingress; at = sent_at; hop = 0; level = -1; occupancy = -1; bank = -1;
          probe = No_probe } ];
    depth = 1;
    hops = 0;
    lost = 0;
  }

let commit_traversal ~at ~stage ~level ~occupancy ~bank ~probe stack =
  if stack.depth >= !budget_ref then
    { stack with hops = stack.hops + 1; lost = stack.lost + 1 }
  else
    {
      stamps =
        { stage; at; hop = stack.hops; level; occupancy; bank; probe } :: stack.stamps;
      depth = stack.depth + 1;
      hops = stack.hops + 1;
      lost = stack.lost;
    }

(* -- host-side collector --------------------------------------------------- *)

module Collector = struct
  let default_window = Time.us 100
  let depth_max = 1 lsl 20

  type bucket = { mutable b_count : int; mutable b_max : int; b_hist : Histogram.t }

  type queue_series = {
    buckets : (int, bucket) Hashtbl.t;
    overall : Histogram.t;
    mutable q_samples : int;
    mutable q_max : int;
  }

  type bank_stats = {
    mutable bk_stamps : int;
    mutable probe_hit : int;
    mutable probe_miss : int;
    mutable claim_won : int;
    mutable claim_lost : int;
  }

  type stage_stats = { mutable s_count : int; s_lat : Histogram.t }

  type t = {
    window : Time.t;
    queues : (int, queue_series) Hashtbl.t;
    banks : (int, bank_stats) Hashtbl.t;
    stages : (stage, stage_stats) Hashtbl.t;
    chains : (string, int ref) Hashtbl.t;
    mutable stacks : int;
    mutable dropped_stacks : int;
    mutable stamps : int;
    mutable lost : int;
  }

  let create ?(window = default_window) () =
    if window <= 0 then invalid_arg "Int_telemetry.Collector.create: window must be positive";
    {
      window;
      queues = Hashtbl.create 8;
      banks = Hashtbl.create 16;
      stages = Hashtbl.create 16;
      chains = Hashtbl.create 32;
      stacks = 0;
      dropped_stacks = 0;
      stamps = 0;
      lost = 0;
    }

  let queue_of t level =
    match Hashtbl.find_opt t.queues level with
    | Some q -> q
    | None ->
      let q =
        { buckets = Hashtbl.create 32;
          overall = Histogram.create ~max_value:depth_max ();
          q_samples = 0; q_max = 0 }
      in
      Hashtbl.replace t.queues level q;
      q

  let bank_of t bank =
    match Hashtbl.find_opt t.banks bank with
    | Some b -> b
    | None ->
      let b = { bk_stamps = 0; probe_hit = 0; probe_miss = 0; claim_won = 0; claim_lost = 0 } in
      Hashtbl.replace t.banks bank b;
      b

  let stage_of t stage =
    match Hashtbl.find_opt t.stages stage with
    | Some s -> s
    | None ->
      let s = { s_count = 0; s_lat = Histogram.create ~max_value:(Time.ms 100) () } in
      Hashtbl.replace t.stages stage s;
      s

  let record_depth t ~level ~at occupancy =
    let q = queue_of t level in
    let idx = at / t.window in
    let b =
      match Hashtbl.find_opt q.buckets idx with
      | Some b -> b
      | None ->
        let b = { b_count = 0; b_max = 0; b_hist = Histogram.create ~max_value:depth_max () } in
        Hashtbl.replace q.buckets idx b;
        b
    in
    b.b_count <- b.b_count + 1;
    if occupancy > b.b_max then b.b_max <- occupancy;
    Histogram.record b.b_hist occupancy;
    Histogram.record q.overall occupancy;
    q.q_samples <- q.q_samples + 1;
    if occupancy > q.q_max then q.q_max <- occupancy

  let deliver t (s : stack) =
    t.stacks <- t.stacks + 1;
    t.lost <- t.lost + s.lost;
    t.stamps <- t.stamps + s.depth;
    let ordered = List.rev s.stamps in
    let prev = ref None in
    List.iter
      (fun stamp ->
        let s = stage_of t stamp.stage in
        s.s_count <- s.s_count + 1;
        (match !prev with
        | Some at when stamp.at >= at -> Histogram.record s.s_lat (stamp.at - at)
        | Some _ | None -> ());
        prev := Some stamp.at;
        if stamp.occupancy >= 0 then
          record_depth t ~level:stamp.level ~at:stamp.at stamp.occupancy;
        if stamp.bank >= 0 then begin
          let b = bank_of t stamp.bank in
          b.bk_stamps <- b.bk_stamps + 1;
          match stamp.probe with
          | No_probe -> ()
          | Probe_hit -> b.probe_hit <- b.probe_hit + 1
          | Probe_miss -> b.probe_miss <- b.probe_miss + 1
          | Claim_won -> b.claim_won <- b.claim_won + 1
          | Claim_lost -> b.claim_lost <- b.claim_lost + 1
        end)
      ordered;
    let chain = String.concat ">" (List.map (fun s -> stage_to_string s.stage) ordered) in
    (match Hashtbl.find_opt t.chains chain with
    | Some r -> incr r
    | None -> Hashtbl.replace t.chains chain (ref 1))

  let drop t (s : stack) =
    t.dropped_stacks <- t.dropped_stacks + 1;
    t.lost <- t.lost + s.lost

  let stacks t = t.stacks
  let dropped_stacks t = t.dropped_stacks
  let stamps t = t.stamps
  let lost t = t.lost

  let depth_percentile t ~level p =
    match Hashtbl.find_opt t.queues level with
    | Some q when q.q_samples > 0 -> Some (Histogram.percentile q.overall p)
    | Some _ | None -> None

  let chains t =
    Hashtbl.fold (fun chain r acc -> (chain, !r) :: acc) t.chains []
    |> List.sort (fun (ca, na) (cb, nb) ->
           match compare nb na with 0 -> String.compare ca cb | c -> c)

  let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

  (* One counter sample per (queue, window bucket): the bucket's p99
     depth, timestamped at the bucket start so Chrome renders the series
     as a stepped counter track. *)
  let emit_series t f =
    List.iter
      (fun level ->
        let q = Hashtbl.find t.queues level in
        let name =
          if level >= 0 then Printf.sprintf "int.depth.q%d" level else "int.depth.pifo"
        in
        List.iter
          (fun idx ->
            let b = Hashtbl.find q.buckets idx in
            if b.b_count > 0 then
              f ~at:(idx * t.window) ~name (Histogram.percentile b.b_hist 99.0))
          (sorted_keys q.buckets))
      (sorted_keys t.queues)

  let hist_json h =
    if Histogram.count h = 0 then "{\"count\":0}"
    else
      Printf.sprintf "{\"count\":%d,\"p50\":%d,\"p99\":%d,\"max\":%d}" (Histogram.count h)
        (Histogram.percentile h 50.0)
        (Histogram.percentile h 99.0)
        (Histogram.max_recorded h)

  (* The [int] section of the draconis-obs/4 dump.  Per-queue [samples]
     and [max] are redundant with the bucketed series on purpose:
     [draconis-trace int] re-derives them offline and fails loudly on a
     mismatch (the occupancy re-check). *)
  let to_json t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"budget\":%d,\"window_ns\":%d,\"stacks\":%d,\"dropped_stacks\":%d,\
          \"stamps\":%d,\"lost\":%d"
         !budget_ref t.window t.stacks t.dropped_stacks t.stamps t.lost);
    let stage_keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) t.stages []
      |> List.sort (fun a b -> String.compare (stage_to_string a) (stage_to_string b))
    in
    Buffer.add_string buf ",\"stages\":{";
    List.iteri
      (fun i stage ->
        let s = Hashtbl.find t.stages stage in
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":{\"count\":%d,\"to_stage_ns\":%s}" (stage_to_string stage)
             s.s_count (hist_json s.s_lat)))
      stage_keys;
    Buffer.add_string buf "},\"queues\":{";
    List.iteri
      (fun i level ->
        let q = Hashtbl.find t.queues level in
        if i > 0 then Buffer.add_char buf ',';
        let name = if level >= 0 then string_of_int level else "pifo" in
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":{\"samples\":%d,\"max\":%d,\"overall\":%s,\"series\":["
             name q.q_samples q.q_max (hist_json q.overall));
        List.iteri
          (fun j idx ->
            let b = Hashtbl.find q.buckets idx in
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "[%d,%d,%d,%d,%d]" (idx * t.window) b.b_count
                 (Histogram.percentile b.b_hist 50.0)
                 (Histogram.percentile b.b_hist 99.0)
                 b.b_max))
          (sorted_keys q.buckets);
        Buffer.add_string buf "]}")
      (sorted_keys t.queues);
    Buffer.add_string buf "},\"banks\":{";
    List.iteri
      (fun i bank ->
        let b = Hashtbl.find t.banks bank in
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf
             "\"%d\":{\"stamps\":%d,\"probe_hit\":%d,\"probe_miss\":%d,\"claim_won\":%d,\
              \"claim_lost\":%d}"
             bank b.bk_stamps b.probe_hit b.probe_miss b.claim_won b.claim_lost))
      (sorted_keys t.banks);
    Buffer.add_string buf "},\"chains\":[";
    List.iteri
      (fun i (chain, n) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "{\"chain\":\"%s\",\"count\":%d}" chain n))
      (chains t);
    Buffer.add_string buf "]}";
    Buffer.contents buf
end

(* -- ambient collector ----------------------------------------------------- *)

let collector_key : Collector.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_collector () = Domain.DLS.get collector_key

let with_collector c f =
  let previous = Domain.DLS.get collector_key in
  Domain.DLS.set collector_key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set collector_key previous) f

let deliver_stack stack =
  match current_collector () with None -> () | Some c -> Collector.deliver c stack

let drop_stack stack =
  match current_collector () with None -> () | Some c -> Collector.drop c stack

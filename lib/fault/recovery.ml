open Draconis_sim
open Draconis_stats
open Draconis

type report = {
  system : string;
  failovers : int;
  queued_lost : int;
  recovery : Time.t option;
  timeouts : int;
  resubmitted : int;
  abandoned : int;
  submitted : int;
  completed : int;
  unstarted : int;
  availability : float;
}

let default_bucket = Time.us 100

let measure ?(bucket = default_bucket) ~metrics ~injector ~until () =
  let target = Injector.target injector in
  let sum count = Array.fold_left (fun acc c -> acc + count c) 0 target.Target.clients in
  let resubmitted = sum Client.resubmitted and abandoned = sum Client.abandoned in
  let decisions = Metrics.decisions metrics in
  let recovery =
    match Injector.first_failover injector with
    | None -> None
    | Some at -> (
      match Meter.first_after decisions ~after:at with
      | None -> None
      | Some first -> Some (first - at))
  in
  let availability =
    if until <= 0 then 0.0
    else begin
      let buckets = (until + bucket - 1) / bucket in
      let occupied =
        Array.fold_left
          (fun acc (b, _) -> if b * bucket < until then acc + 1 else acc)
          0
          (Meter.timeline decisions ~bucket)
      in
      float_of_int occupied /. float_of_int buckets
    end
  in
  {
    system = target.Target.name;
    failovers = List.length (Injector.failovers injector);
    queued_lost = Injector.queued_lost injector;
    recovery;
    timeouts = resubmitted + abandoned;
    resubmitted;
    abandoned;
    submitted = Metrics.submitted metrics;
    completed = Metrics.completed metrics;
    unstarted = Metrics.unstarted metrics;
    availability;
  }

let pp fmt r =
  Format.fprintf fmt
    "@[<v>%s:@;\
     <1 2>failovers        %d (%d queued task(s) lost)@;\
     <1 2>recovery         %s@;\
     <1 2>timeouts         %d (%d resubmitted, %d abandoned)@;\
     <1 2>tasks            %d submitted, %d completed, %d unstarted@;\
     <1 2>availability     %.1f%%@]"
    r.system r.failovers r.queued_lost
    (match r.recovery with
    | None -> "-"
    | Some t -> Format.asprintf "%a" Time.pp t)
    r.timeouts r.resubmitted r.abandoned r.submitted r.completed r.unstarted
    (100.0 *. r.availability)

open Draconis_sim
open Draconis_proto

type spec = {
  rate_tps : float;
  batch : int;
  duration : Dist.t;
  fn_id : int;
  tprops_of : Rng.t -> Task.tprops;
  horizon : Time.t;
}

let uniform_spec ~rate_tps ~duration ~horizon =
  {
    rate_tps;
    batch = 1;
    duration;
    fn_id = Task.Fn.busy_loop;
    tprops_of = (fun _ -> Task.No_props);
    horizon;
  }

let make_job rng spec =
  List.init spec.batch (fun tid ->
      Task.make ~uid:0 ~jid:0 ~tid ~tprops:(spec.tprops_of rng) ~fn_id:spec.fn_id
        ~fn_par:(spec.duration rng) ())

let drive engine rng spec ~submit =
  if spec.rate_tps <= 0.0 then invalid_arg "Arrival.drive: rate must be positive";
  if spec.batch < 1 then invalid_arg "Arrival.drive: batch must be >= 1";
  let job_rate = spec.rate_tps /. float_of_int spec.batch in
  let mean_gap_ns = 1e9 /. job_rate in
  let interarrival () =
    let u = 1.0 -. Rng.float rng in
    Int.max 1 (int_of_float (Float.round (-.mean_gap_ns *. log u)))
  in
  let rec arrive () =
    if Engine.now engine <= spec.horizon then begin
      submit (make_job rng spec);
      ignore (Engine.schedule engine ~after:(interarrival ()) arrive)
    end
  in
  ignore (Engine.schedule engine ~after:(interarrival ()) arrive)

let expected_tasks spec = spec.rate_tps *. Time.to_s spec.horizon

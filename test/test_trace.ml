(* Tests for the event-mark channel: components mark cold-path
   occurrences (drops, fail-overs, crashes, fault windows) on the
   ambient Obs.Recorder, which costs nothing until a recorder is
   installed and stays private to the installing domain. *)

open Draconis_sim
open Draconis_proto
open Draconis
open Draconis_fault
module Obs = Draconis_obs

(* [(track, name)] of every instant mark in [recorder], in order. *)
let marks recorder =
  List.filter_map
    (fun (e : Obs.Event.t) ->
      match e.phase with Obs.Event.Instant -> Some (e.track, e.name) | _ -> None)
    (Obs.Recorder.events recorder)

let test_disabled_by_default () =
  Alcotest.(check bool) "no recorder installed" false (Obs.Recorder.active ());
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Obs.Recorder.mark ~at:i ~track:"host" "x"
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "disabled marks allocate nothing" true (words < 100.0)

let test_cluster_emits_traces () =
  let recorder = Obs.Recorder.create ~label:"faulted" () in
  Obs.Recorder.with_recorder recorder (fun () ->
      let cluster =
        Cluster.create
          {
            Cluster.default_config with
            workers = 2;
            executors_per_worker = 2;
            clients = 1;
            client_timeout = Some (Time.ms 1);
          }
      in
      Cluster.start cluster;
      ignore
        (Injector.arm
           (Plan.of_string "crash@300us:node=0,down=1ms; failover@2ms")
           (Target.of_cluster cluster));
      ignore
        (Client.submit_job (Cluster.client cluster 0)
           (List.init 8 (fun tid ->
                Task.make ~uid:0 ~jid:0 ~tid ~fn_id:Task.Fn.busy_loop
                  ~fn_par:(Time.us 200) ())));
      Cluster.run cluster ~until:(Time.ms 4));
  let marks = marks recorder in
  let has track name = List.mem (track, name) marks in
  Alcotest.(check bool) "injector marks the crash" true (has "fault" "crash node 0 (down 1000 us)");
  Alcotest.(check bool) "injector marks the restart" true (has "fault" "restart node 0");
  Alcotest.(check bool) "executor crash marked" true (has "exec 0:0" "crash");
  Alcotest.(check bool) "executor restart marked" true (has "exec 0:0" "restart");
  Alcotest.(check bool) "pipeline flush marked" true (has "pipeline" "flush (fail-over)");
  Alcotest.(check bool) "fail-over marked" true
    (List.exists
       (fun (track, name) ->
         track = "fault" && Astring.String.is_prefix ~affix:"failover" name)
       marks);
  let rec monotone = function
    | (a : Obs.Event.t) :: (b :: _ as rest) -> a.at <= b.at && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps ordered" true
    (monotone (Obs.Recorder.events recorder))

let test_dump_format () =
  let recorder = Obs.Recorder.create ~label:"pp" () in
  Obs.Recorder.with_recorder recorder (fun () ->
      Obs.Recorder.mark ~at:(Time.us 3) ~track:"pipeline" "hello");
  let out = Format.asprintf "%a" Obs.Event.pp (List.hd (Obs.Recorder.events recorder)) in
  Alcotest.(check string) "time, phase, track and name" "[3.00us] i pipeline/hello" out

let test_domain_isolation () =
  let recorder = Obs.Recorder.create ~label:"main" () in
  Obs.Recorder.with_recorder recorder (fun () ->
      Obs.Recorder.mark ~at:1 ~track:"host" "main";
      let spawned =
        Domain.spawn (fun () ->
            (* The ambient slot is domain-local: a fresh domain starts
               with no recorder, and nothing it marks reaches ours. *)
            let started_off = not (Obs.Recorder.active ()) in
            Obs.Recorder.mark ~at:2 ~track:"host" "other";
            started_off)
      in
      Alcotest.(check bool) "fresh domain has no recorder" true (Domain.join spawned));
  Alcotest.(check (list (pair string string))) "main recorder unaffected"
    [ ("host", "main") ] (marks recorder)

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "per-domain isolation" `Quick test_domain_isolation;
    Alcotest.test_case "cluster emits traces" `Quick test_cluster_emits_traces;
    Alcotest.test_case "dump format" `Quick test_dump_format;
  ]

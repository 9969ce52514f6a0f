(* Tests for the statistics library: Sampler, Histogram, Meter, Table. *)

open Draconis_stats

(* -- Sampler ---------------------------------------------------------------- *)

let test_sampler_basic () =
  let s = Sampler.create () in
  List.iter (Sampler.record s) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "count" 5 (Sampler.count s);
  Alcotest.(check int) "min" 1 (Sampler.min s);
  Alcotest.(check int) "max" 9 (Sampler.max s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Sampler.mean s);
  Alcotest.(check int) "p0" 1 (Sampler.percentile s 0.0);
  Alcotest.(check int) "p50" 5 (Sampler.percentile s 50.0);
  Alcotest.(check int) "p100" 9 (Sampler.percentile s 100.0)

let test_sampler_empty_raises () =
  let s = Sampler.create () in
  Alcotest.check_raises "percentile on empty"
    (Invalid_argument "Sampler.percentile: no samples") (fun () ->
      ignore (Sampler.percentile s 50.0))

let test_sampler_bad_percentile () =
  let s = Sampler.create () in
  Sampler.record s 1;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Sampler.percentile: p out of range") (fun () ->
      ignore (Sampler.percentile s 101.0));
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Sampler.percentile: p out of range") (fun () ->
      ignore (Sampler.percentile s Float.nan))

let test_sampler_percentile_edges () =
  (* Ranks that round to the ends must stay in bounds on large samples. *)
  let s = Sampler.create () in
  for i = 1 to 100_000 do
    Sampler.record s i
  done;
  Alcotest.(check int) "p100" 100_000 (Sampler.percentile s 100.0);
  Alcotest.(check int) "p99.9999" 100_000 (Sampler.percentile s 99.9999);
  Alcotest.(check int) "p0" 1 (Sampler.percentile s 0.0);
  Alcotest.(check int) "p0.00001" 1 (Sampler.percentile s 0.00001)

let test_sampler_cache_invalidation () =
  let s = Sampler.create () in
  Sampler.record s 10;
  Alcotest.(check int) "first" 10 (Sampler.percentile s 50.0);
  Sampler.record s 0;
  Alcotest.(check int) "min updates after new record" 0 (Sampler.min s)

let test_sampler_merge () =
  let a = Sampler.create () and b = Sampler.create () in
  Sampler.record a 1;
  Sampler.record b 2;
  let m = Sampler.merge a b in
  Alcotest.(check int) "merged count" 2 (Sampler.count m);
  Alcotest.(check int) "merged max" 2 (Sampler.max m)

let test_sampler_cdf () =
  let s = Sampler.create () in
  for i = 1 to 100 do
    Sampler.record s i
  done;
  let cdf = Sampler.cdf s ~points:4 in
  Alcotest.(check int) "cdf points" 4 (Array.length cdf);
  let _, last_frac = cdf.(3) in
  Alcotest.(check (float 1e-9)) "cdf reaches 1" 1.0 last_frac

let test_sampler_clear () =
  let s = Sampler.create () in
  Sampler.record s 1;
  Sampler.clear s;
  Alcotest.(check int) "cleared" 0 (Sampler.count s)

let prop_sampler_percentile_member =
  QCheck.Test.make ~name:"sampler percentile is always a recorded sample" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) int) (int_range 0 100))
    (fun (samples, p) ->
      let s = Sampler.create () in
      List.iter (Sampler.record s) samples;
      List.mem (Sampler.percentile s (float_of_int p)) samples)

let prop_sampler_monotone =
  QCheck.Test.make ~name:"sampler percentiles are monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) int)
    (fun samples ->
      let s = Sampler.create () in
      List.iter (Sampler.record s) samples;
      let prev = ref min_int in
      List.for_all
        (fun p ->
          let v = Sampler.percentile s (float_of_int p) in
          let ok = v >= !prev in
          prev := v;
          ok)
        [ 0; 25; 50; 75; 90; 99; 100 ])

(* Sizes around powers of two give the merge sort a ragged last run;
   around 1024 and 2048 they end on, before or after a 1,024-slot
   chunk's boundary, and 4097 grows the chunk spine.  The merged copy,
   the mean and a sampler cleared and refilled read every chunk. *)
let prop_sampler_sorted =
  QCheck.Test.make ~name:"sampler sorted matches List.sort" ~count:300
    (QCheck.make ~print:QCheck.Print.(list int)
       QCheck.Gen.(
         oneofl
           [ 0; 1; 2; 3; 7; 8; 9; 15; 16; 17; 63; 64; 65; 1023; 1024; 1025; 2047; 2048;
             2049; 4097 ]
         >>= fun n ->
         (* A narrow range forces duplicates; the full range mixes signs. *)
         oneofl [ int_range (-8) 8; int ] >>= fun value -> list_repeat n value))
    (fun samples ->
      let s = Sampler.create () in
      List.iter (Sampler.record s) samples;
      let expected = List.sort compare samples in
      let sorted_ok = Array.to_list (Sampler.sorted s) = expected in
      let merged_ok =
        Array.to_list (Sampler.sorted (Sampler.merge s s))
        = List.sort compare (samples @ samples)
      in
      let mean_ok =
        samples = []
        || Sampler.mean s
           = List.fold_left (fun acc v -> acc +. float_of_int v) 0.0 samples
             /. float_of_int (List.length samples)
      in
      Sampler.clear s;
      List.iter (Sampler.record s) samples;
      sorted_ok && merged_ok && mean_ok && Array.to_list (Sampler.sorted s) = expected)

(* -- Histogram --------------------------------------------------------------- *)

let test_histogram_small_exact () =
  let h = Histogram.create ~max_value:1_000_000 () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  (* Values below sub_buckets are exact. *)
  Alcotest.(check int) "p0 exact" 1 (Histogram.percentile h 0.0);
  Alcotest.(check int) "p100 exact" 5 (Histogram.percentile h 100.0)

let test_histogram_bounded_error () =
  let h = Histogram.create ~max_value:10_000_000 () in
  for _ = 1 to 1_000 do
    Histogram.record h 123_456
  done;
  let p50 = Histogram.percentile h 50.0 in
  let err = abs_float (float_of_int p50 -. 123_456.) /. 123_456. in
  Alcotest.(check bool) "relative error < 10%" true (err < 0.10)

let test_histogram_overflow () =
  let h = Histogram.create ~max_value:1_000 () in
  Histogram.record h 5_000;
  Alcotest.(check int) "overflow counted" 1 (Histogram.overflows h);
  Alcotest.(check int) "max recorded raw" 5_000 (Histogram.max_recorded h)

let test_histogram_mean_clear () =
  let h = Histogram.create ~max_value:1_000 () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  Alcotest.(check (float 1e-9)) "mean" 20.0 (Histogram.mean h);
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h)

let prop_histogram_quantile_error =
  QCheck.Test.make ~name:"histogram p50 within bounded relative error" ~count:100
    QCheck.(int_range 1 50_000_000)
    (fun v ->
      let h = Histogram.create ~max_value:100_000_000 () in
      for _ = 1 to 100 do
        Histogram.record h v
      done;
      let p50 = float_of_int (Histogram.percentile h 50.0) in
      abs_float (p50 -. float_of_int v) /. float_of_int v < 0.10)

(* -- Meter -------------------------------------------------------------------- *)

let test_meter_rate () =
  let m = Meter.create () in
  for i = 1 to 11 do
    Meter.mark m ~now:(i * 100_000_000)
  done;
  Alcotest.(check int) "total" 11 (Meter.total m);
  (* 11 marks over 1 simulated second (span first..last). *)
  Alcotest.(check (float 0.5)) "rate over window" 11.0
    (Meter.rate_over m ~duration:1_000_000_000)

let test_meter_timeline () =
  let m = Meter.create () in
  List.iter (fun now -> Meter.mark m ~now) [ 100; 1_100; 100; 999; 1_500; 100 ];
  Alcotest.(check int) "total" 6 (Meter.total m);
  let timeline = Meter.timeline m ~bucket:1_000 in
  Alcotest.(check int) "two buckets" 2 (Array.length timeline);
  Alcotest.(check (pair int int)) "bucket 0" (0, 4) timeline.(0);
  Alcotest.(check (pair int int)) "bucket 1" (1, 2) timeline.(1);
  Alcotest.(check (option int)) "first at or after 1000" (Some 1_100)
    (Meter.first_after m ~after:1_000)

(* The meter as it was kept before it stored one word per mark: a list
   of (time, weight) pairs, newest first.  Every query of [Meter] must
   agree with it. *)
module List_meter = struct
  type t = {
    mutable total : int;
    mutable first : int option;
    mutable last : int;
    mutable marks : (int * int) list;
  }

  let create () = { total = 0; first = None; last = 0; marks = [] }

  let mark t ~now =
    t.total <- t.total + 1;
    (match t.first with None -> t.first <- Some now | Some _ -> ());
    t.last <- now;
    t.marks <- (now, 1) :: t.marks

  let rate_per_sec t =
    match t.first with
    | None -> 0.0
    | Some first ->
      let span = t.last - first in
      if span <= 0 then 0.0 else float_of_int t.total /. (float_of_int span /. 1e9)

  let first_after t ~after =
    List.fold_left
      (fun best (time, _) ->
        if time < after then best
        else
          match best with
          | Some b when b <= time -> best
          | Some _ | None -> Some time)
      None t.marks

  let timeline t ~bucket =
    match t.first with
    | None -> [||]
    | Some _ ->
      let marks = Array.of_list t.marks in
      let key (time, _) = time / bucket in
      Array.stable_sort (fun a b -> Int.compare (key a) (key b)) marks;
      let rec sum i acc =
        if i < 0 then acc
        else
          let b = key marks.(i) and w = snd marks.(i) in
          match acc with
          | (b', w') :: rest when b' = b -> sum (i - 1) ((b, w + w') :: rest)
          | _ -> sum (i - 1) ((b, w) :: acc)
      in
      Array.of_list (sum (Array.length marks - 1) [])

  let clear t =
    t.total <- 0;
    t.first <- None;
    t.last <- 0;
    t.marks <- []
end

type meter_op = Mark of int | Clear

let prop_meter_matches_list =
  let time =
    QCheck.Gen.(
      frequency
        [ (6, int_range 0 5_000); (1, int_range (-50) 0); (1, int_range 0 max_int) ])
  in
  let op = QCheck.Gen.(frequency [ (30, map (fun t -> Mark t) time); (1, return Clear) ]) in
  QCheck.Test.make ~name:"meter matches the list meter it replaced" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (function Mark t -> Printf.sprintf "mark %d" t | Clear -> "clear"))
       QCheck.Gen.(list_size (int_range 0 2_500) op))
    (fun ops ->
      let m = Meter.create () and r = List_meter.create () in
      List.iter
        (function
          | Mark now ->
            Meter.mark m ~now;
            List_meter.mark r ~now
          | Clear ->
            Meter.clear m;
            List_meter.clear r)
        ops;
      Meter.total m = r.total
      && Float.equal (Meter.rate_per_sec m) (List_meter.rate_per_sec r)
      && Float.equal
           (Meter.rate_over m ~duration:1_000_000)
           (float_of_int r.total /. (float_of_int 1_000_000 /. 1e9))
      && List.for_all
           (fun after -> Meter.first_after m ~after = List_meter.first_after r ~after)
           [ min_int; -1; 0; 1; 100; 2_500; 4_999; 5_000; 5_001; max_int ]
      && List.for_all
           (fun bucket -> Meter.timeline m ~bucket = List_meter.timeline r ~bucket)
           [ 1; 7; 100; 1_000; 1 lsl 40 ])

let test_meter_empty () =
  let m = Meter.create () in
  Alcotest.(check (float 0.0)) "empty rate" 0.0 (Meter.rate_per_sec m);
  Alcotest.(check int) "empty timeline" 0 (Array.length (Meter.timeline m ~bucket:10))

(* -- Table --------------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "contains header" true
    (Astring.String.is_infix ~affix:"name" out);
  Alcotest.(check int) "row count" 2 (Table.row_count t)

let test_table_pads_rows () =
  let t = Table.create ~columns:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  Table.add_row t [ "x"; "y"; "z"; "extra" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "truncated extra" false
    (Astring.String.is_infix ~affix:"extra" rendered)

let test_table_csv () =
  let t = Table.create ~columns:[ "a"; "b" ] in
  Table.add_row t [ "plain"; "with,comma" ];
  Table.add_row t [ "with\"quote"; "x" ];
  Table.add_row t [ "line\nbreak"; "carriage\rreturn" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "header line" true
    (Astring.String.is_prefix ~affix:"a,b\n" csv);
  Alcotest.(check bool) "comma field quoted" true
    (Astring.String.is_infix ~affix:"\"with,comma\"" csv);
  Alcotest.(check bool) "quote doubled" true
    (Astring.String.is_infix ~affix:"\"with\"\"quote\"" csv);
  (* RFC 4180: both CR and LF force quoting. *)
  Alcotest.(check bool) "newline field quoted" true
    (Astring.String.is_infix ~affix:"\"line\nbreak\"" csv);
  Alcotest.(check bool) "carriage-return field quoted" true
    (Astring.String.is_infix ~affix:"\"carriage\rreturn\"" csv)

let suite =
  [
    Alcotest.test_case "sampler basics" `Quick test_sampler_basic;
    Alcotest.test_case "sampler empty raises" `Quick test_sampler_empty_raises;
    Alcotest.test_case "sampler bad percentile" `Quick test_sampler_bad_percentile;
    Alcotest.test_case "sampler percentile edges" `Quick test_sampler_percentile_edges;
    Alcotest.test_case "sampler cache invalidation" `Quick test_sampler_cache_invalidation;
    Alcotest.test_case "sampler merge" `Quick test_sampler_merge;
    Alcotest.test_case "sampler cdf" `Quick test_sampler_cdf;
    Alcotest.test_case "sampler clear" `Quick test_sampler_clear;
    QCheck_alcotest.to_alcotest prop_sampler_percentile_member;
    QCheck_alcotest.to_alcotest prop_sampler_monotone;
    Alcotest.test_case "histogram exact small values" `Quick test_histogram_small_exact;
    Alcotest.test_case "histogram bounded error" `Quick test_histogram_bounded_error;
    Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow;
    Alcotest.test_case "histogram mean and clear" `Quick test_histogram_mean_clear;
    QCheck_alcotest.to_alcotest prop_histogram_quantile_error;
    Alcotest.test_case "meter rate" `Quick test_meter_rate;
    Alcotest.test_case "meter timeline" `Quick test_meter_timeline;
    QCheck_alcotest.to_alcotest prop_meter_matches_list;
    Alcotest.test_case "meter empty" `Quick test_meter_empty;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads/truncates rows" `Quick test_table_pads_rows;
    Alcotest.test_case "table csv export" `Quick test_table_csv;
    QCheck_alcotest.to_alcotest prop_sampler_sorted;
  ]

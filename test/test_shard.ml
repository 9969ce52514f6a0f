(* Tests for the building blocks of parallel-in-run sharding: the Lp
   inbox and the Sync conservative-window protocol.  The contract of the
   real sharded cluster — identical outcomes in both of its layouts,
   faulted or not — lives in test_sharded_cluster.ml. *)

open Draconis_sim

(* -- Lp inbox safety ------------------------------------------------------- *)

let test_lp_post_floor_violation () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  Lp.set_floor lp 100;
  (try
     Lp.post lp ~at:100 ~src:0 ~seq:1 ignore;
     Alcotest.fail "expected lookahead violation"
   with Invalid_argument _ -> ());
  Lp.post lp ~at:101 ~src:0 ~seq:2 ignore;
  Alcotest.(check int) "accepted post pending" 1 (Lp.inbox_length lp)

(* Injection order must follow the (at, src, seq) stamp, not the post
   (domain-schedule) order. *)
let test_injection_sorted_by_stamp () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  let order = ref [] in
  let mark n () = order := n :: !order in
  Lp.post lp ~at:50 ~src:9 ~seq:1 (mark 3);
  Lp.post lp ~at:50 ~src:2 ~seq:7 (mark 2);
  Lp.post lp ~at:40 ~src:9 ~seq:2 (mark 1);
  Lp.post lp ~at:50 ~src:9 ~seq:9 (mark 4);
  Lp.inject lp ~upto:100;
  Engine.run (Lp.engine lp);
  Alcotest.(check (list int)) "stamp order" [ 1; 2; 3; 4 ] (List.rev !order)

(* Random stamped posts, each made before the window that injects it,
   run in (at, src, seq) order across ten windows.  A post not yet due
   must survive each window's compaction, and the 80-300 posts push the
   inbox well past its initial capacity. *)
let prop_inbox_windows =
  let window = 100 and windows = 10 in
  let post_gen =
    (* (at, src, window it is posted in): posted no later than the
       window whose horizon covers [at]. *)
    QCheck.Gen.(
      int_range 1 (window * windows) >>= fun at ->
      pair (int_range 0 7) (int_range 0 ((at - 1) / window)) >|= fun (src, w) ->
      (at, src, w))
  in
  QCheck.Test.make ~name:"Lp inbox injects random posts in stamp order" ~count:100
    QCheck.(make Gen.(list_size (int_range 80 300) post_gen))
    (fun posts ->
      let lp = Lp.create ~id:0 ~seed:1 () in
      let seqs = Array.make 8 0 in
      (* Per-source monotone seq numbers, in post order. *)
      let posts =
        List.map
          (fun (at, src, w) ->
            seqs.(src) <- seqs.(src) + 1;
            (at, src, seqs.(src), w))
          posts
      in
      let ran = ref [] in
      let pending = ref 0 in
      for w = 0 to windows - 1 do
        let upto = (w + 1) * window in
        List.iter
          (fun (at, src, seq, pw) ->
            if pw = w then begin
              incr pending;
              Lp.post lp ~at ~src ~seq (fun () -> ran := (at, src, seq) :: !ran)
            end)
          posts;
        Lp.inject lp ~upto;
        Lp.set_floor lp upto;
        Engine.run ~until:upto (Lp.engine lp);
        let later = List.filter (fun (at, _, _, pw) -> pw <= w && at > upto) posts in
        if Lp.inbox_length lp <> List.length later then
          QCheck.Test.fail_reportf "window %d: %d left in the inbox, %d not yet due" w
            (Lp.inbox_length lp) (List.length later)
      done;
      let expected = List.sort compare (List.map (fun (at, src, seq, _) -> (at, src, seq)) posts) in
      List.rev !ran = expected
      && Lp.injected lp = List.length posts
      && Lp.posted lp = !pending)

(* -- Sync across a seq-counter renumber ------------------------------------ *)

(* Mirror test_pool's FIFO-ties-across-renumber, but with the churn
   driven through barrier windows and a cross-LP message landing at the
   same instant as the direct ties: the packed-key renumber must neither
   reorder ties nor disturb inbox injection. *)
let test_sync_ties_survive_renumber () =
  let lp0 = Lp.create ~id:0 ~seed:1 () in
  let lp1 = Lp.create ~id:1 ~seed:1 () in
  let sync = Sync.create ~lookahead:100 [| lp0; lp1 |] in
  let e0 = Lp.engine lp0 in
  let target = 3_000_000 in
  let order = ref [] in
  let mark n () = order := n :: !order in
  ignore (Engine.schedule e0 ~after:target (mark 1));
  ignore (Engine.schedule e0 ~after:target (mark 2));
  (* Churn > 2^21 schedule+cancel pairs in drained batches, advancing
     the clocks through Sync windows (10ns per batch, far short of the
     ties' timestamp). *)
  let churn = (1 lsl 21) + 100_000 in
  for _ = 1 to churn / 500 do
    let hs = List.init 500 (fun _ -> Engine.schedule e0 ~after:10 ignore) in
    List.iter (Engine.cancel e0) hs;
    Sync.run ~until:(Engine.now e0 + 10) sync
  done;
  (* Two more direct ties after the renumber... *)
  ignore (Engine.schedule e0 ~after:(target - Engine.now e0) (mark 3));
  ignore (Engine.schedule e0 ~after:(target - Engine.now e0) (mark 4));
  (* ...and a cross-LP message arriving at the same instant. *)
  let e1 = Lp.engine lp1 in
  ignore
    (Engine.schedule e1 ~after:10 (fun () -> Lp.post lp0 ~at:target ~src:1 ~seq:1 (mark 5)));
  Sync.run sync;
  Alcotest.(check (list int)) "ties + injection in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Alcotest.(check int) "cross-post injected" 1 (Lp.injected lp0);
  Alcotest.(check bool) "drained" true (Sync.drained sync)

let suite =
  [
    Alcotest.test_case "Lp.post rejects stamps below the floor" `Quick
      test_lp_post_floor_violation;
    Alcotest.test_case "injection sorts by (at, src, seq)" `Quick
      test_injection_sorted_by_stamp;
    QCheck_alcotest.to_alcotest prop_inbox_windows;
    Alcotest.test_case "ties + injection survive renumber" `Slow
      test_sync_ties_survive_renumber;
  ]

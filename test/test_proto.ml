(* Tests for the wire protocol: task metadata and the binary codec,
   including round-trip property tests over all message shapes. *)

open Draconis_net
open Draconis_proto

(* -- Task -------------------------------------------------------------------- *)

let test_task_accessors () =
  let t =
    Task.make ~uid:1 ~jid:2 ~tid:3 ~tprops:(Task.Priority 2) ~fn_id:Task.Fn.busy_loop
      ~fn_par:100 ()
  in
  Alcotest.(check int) "priority" 2 (Task.priority_level t);
  Alcotest.(check int) "default resources" 0 (Task.required_resources t);
  Alcotest.(check (list int)) "default locality" [] (Task.locality_nodes t);
  let r = Task.make ~uid:1 ~jid:2 ~tid:4 ~tprops:(Task.Resources 5) ~fn_id:0 ~fn_par:0 () in
  Alcotest.(check int) "resources" 5 (Task.required_resources r);
  Alcotest.(check int) "priority defaults to 1" 1 (Task.priority_level r);
  let l =
    Task.make ~uid:1 ~jid:2 ~tid:5 ~tprops:(Task.Locality [ 7; 8 ]) ~fn_id:0 ~fn_par:0 ()
  in
  Alcotest.(check (list int)) "locality" [ 7; 8 ] (Task.locality_nodes l)

let test_task_id_compare () =
  let id a b c : Task.id = { uid = a; jid = b; tid = c } in
  Alcotest.(check bool) "equal" true (Task.equal_id (id 1 2 3) (id 1 2 3));
  Alcotest.(check bool) "tid differs" false (Task.equal_id (id 1 2 3) (id 1 2 4));
  Alcotest.(check bool) "ordering" true (Task.compare_id (id 1 2 3) (id 1 2 4) < 0)

(* -- Task.Tbl ------------------------------------------------------------------ *)

type tbl_op =
  | Add of Task.id * int
  | Replace of Task.id * int
  | Remove of Task.id
  | Find of Task.id

let print_id (id : Task.id) = Printf.sprintf "%d.%d.%d" id.uid id.jid id.tid

let print_tbl_op = function
  | Add (id, v) -> Printf.sprintf "add %s %d" (print_id id) v
  | Replace (id, v) -> Printf.sprintf "replace %s %d" (print_id id) v
  | Remove id -> "remove " ^ print_id id
  | Find id -> "find " ^ print_id id

(* Ids from a small pool, so operations keep hitting bound keys.  A
   field is [k], [k lsl 32] or [k lsl 47] for k in 0..3: the last two
   are 0 in their low 32 bits, so ids that differ only in the high bits
   of a field are drawn too. *)
let tbl_op_gen =
  QCheck.Gen.(
    let field = map2 (fun k shift -> k lsl shift) (int_range 0 3) (oneofl [ 0; 32; 47 ]) in
    let id = map3 (fun uid jid tid -> { Task.uid; jid; tid }) field field field in
    oneof
      [
        map2 (fun id v -> Add (id, v)) id small_nat;
        map2 (fun id v -> Replace (id, v)) id small_nat;
        map (fun id -> Remove id) id;
        map (fun id -> Find id) id;
      ])

let prop_task_tbl_model =
  QCheck.Test.make ~name:"Task.Tbl matches a polymorphic Hashtbl" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_tbl_op ops))
       QCheck.Gen.(list_size (int_range 0 200) tbl_op_gen))
    (fun ops ->
      let tbl = Task.Tbl.create 4 and model = Hashtbl.create 4 in
      List.for_all
        (fun op ->
          let id =
            match op with
            | Add (id, v) ->
              Task.Tbl.add tbl id v;
              Hashtbl.add model id v;
              id
            | Replace (id, v) ->
              Task.Tbl.replace tbl id v;
              Hashtbl.replace model id v;
              id
            | Remove id ->
              Task.Tbl.remove tbl id;
              Hashtbl.remove model id;
              id
            | Find id -> id
          in
          Task.Tbl.find_opt tbl id = Hashtbl.find_opt model id
          && Task.Tbl.mem tbl id = Hashtbl.mem model id
          && Task.Tbl.find_all tbl id = Hashtbl.find_all model id
          && Task.Tbl.length tbl = Hashtbl.length model)
        ops
      &&
      let bindings fold t = List.sort compare (fold (fun k v acc -> (k, v) :: acc) t []) in
      bindings Task.Tbl.fold tbl = bindings Hashtbl.fold model)

(* [Hashtbl.Make] picks a bucket by the hash's low bits: ids that differ
   only in the high bits of any one field must still spread. *)
let test_task_hash_spreads_fields () =
  let with_field field k : Task.id =
    let v = k lsl 32 in
    match field with
    | `Uid -> { uid = v; jid = 0; tid = 0 }
    | `Jid -> { uid = 0; jid = v; tid = 0 }
    | `Tid -> { uid = 0; jid = 0; tid = v }
  in
  List.iter
    (fun (name, field) ->
      let buckets = Hashtbl.create 256 in
      for k = 0 to 255 do
        Hashtbl.replace buckets (Task.hash_id (with_field field k) land 255) ()
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: 256 ids over 256 buckets hit %d" name (Hashtbl.length buckets))
        true
        (Hashtbl.length buckets >= 128))
    [ ("uid", `Uid); ("jid", `Jid); ("tid", `Tid) ]

(* -- generators ---------------------------------------------------------------- *)

let tprops_gen =
  QCheck.Gen.(
    oneof
      [
        return Task.No_props;
        map (fun r -> Task.Resources r) (int_range 0 0xFFFFFFFF);
        map (fun nodes -> Task.Locality nodes) (list_size (int_range 0 4) (int_range 0 0xFFFF));
        map (fun p -> Task.Priority p) (int_range 1 255);
        map (fun d -> Task.Deadline d) (int_range 0 0xFFFFFFFF);
        map (fun id -> Task.Tenant id) (int_range 0 0xFFFFFFFF);
      ])

let task_gen =
  QCheck.Gen.(
    map
      (fun (uid, jid, tid, fn_id, fn_par, tprops) ->
        Task.make ~uid ~jid ~tid ~tprops ~fn_id ~fn_par ())
      (tup6 (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF)
         (int_range 0 0xFFFF)
         (int_range 0 (1 lsl 48))
         tprops_gen))

let addr_gen =
  QCheck.Gen.(
    oneof [ return Addr.Switch; map (fun h -> Addr.Host h) (int_range 0 0xFFFE) ])

let info_gen =
  QCheck.Gen.(
    map
      (fun (node, port, rsrc) ->
        {
          Message.exec_addr = Addr.Host node;
          exec_port = port;
          exec_rsrc = rsrc;
          exec_node = node;
        })
      (tup3 (int_range 0 0xFFFE) (int_range 0 0xFFFF) (int_range 0 0xFFFFFFFF)))

let message_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (client, uid, jid, tasks) -> Message.Job_submission { client; uid; jid; tasks })
          (tup4 addr_gen (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF)
             (list_size (int_range 0 10) task_gen));
        map (fun (uid, jid) -> Message.Job_ack { uid; jid })
          (tup2 (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF));
        map
          (fun (uid, jid, tasks) -> Message.Queue_full { uid; jid; tasks })
          (tup3 (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF)
             (list_size (int_range 0 10) task_gen));
        map
          (fun (info, rtrv_prio) -> Message.Task_request { info; rtrv_prio })
          (tup2 info_gen (int_range 1 12));
        map
          (fun (task, client, port) -> Message.Task_assignment { task; client; port })
          (tup3 task_gen addr_gen (int_range 0 0xFFFF));
        map (fun port -> Message.Noop_assignment { port }) (int_range 0 0xFFFF);
        map
          (fun (task, client, info, rtrv_prio) ->
            Message.Task_completion { task_id = task.Task.id; client; info; rtrv_prio })
          (tup4 task_gen addr_gen info_gen (int_range 1 12));
      ])

let message_equal (a : Message.t) (b : Message.t) =
  (* Structural equality is fine: messages are pure data. *)
  a = b

(* -- codec tests ----------------------------------------------------------------- *)

let roundtrip msg =
  match Codec.decode (Codec.encode msg) with
  | Ok decoded -> message_equal msg decoded
  | Error _ -> false

let test_codec_simple_roundtrips () =
  let task = Task.make ~uid:1 ~jid:2 ~tid:3 ~fn_id:1 ~fn_par:500_000 () in
  let info =
    { Message.exec_addr = Addr.Host 4; exec_port = 7; exec_rsrc = 3; exec_node = 4 }
  in
  List.iter
    (fun msg -> Alcotest.(check bool) "roundtrip" true (roundtrip msg))
    [
      Message.Job_submission { client = Addr.Host 11; uid = 1; jid = 2; tasks = [ task ] };
      Message.Job_ack { uid = 1; jid = 2 };
      Message.Queue_full { uid = 1; jid = 2; tasks = [ task; task ] };
      Message.Task_request { info; rtrv_prio = 1 };
      Message.Task_assignment { task; client = Addr.Host 11; port = 7 };
      Message.Noop_assignment { port = 9 };
      Message.Task_completion
        { task_id = task.Task.id; client = Addr.Host 11; info; rtrv_prio = 1 };
    ]

let test_codec_sizes () =
  let task = Task.make ~uid:1 ~jid:2 ~tid:3 ~fn_id:1 ~fn_par:1 () in
  let msg =
    Message.Job_submission { client = Addr.Host 1; uid = 1; jid = 1; tasks = [ task; task ] }
  in
  Alcotest.(check int) "encoded_size matches" (Bytes.length (Codec.encode msg))
    (Codec.encoded_size msg);
  Alcotest.(check int) "task_info is 32 bytes" 32 Codec.task_info_size;
  Alcotest.(check bool) "max tasks fits MTU" true
    (13 + (Codec.max_tasks_per_packet * Codec.task_info_size) <= Codec.mtu_payload)

let test_codec_mtu_guard () =
  let tasks =
    List.init (Codec.max_tasks_per_packet + 1) (fun tid ->
        Task.make ~uid:0 ~jid:0 ~tid ~fn_id:0 ~fn_par:0 ())
  in
  match Codec.encode (Message.Job_submission { client = Addr.Host 0; uid = 0; jid = 0; tasks }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-MTU submission must be rejected"

let test_codec_locality_limit () =
  let task =
    Task.make ~uid:0 ~jid:0 ~tid:0 ~tprops:(Task.Locality [ 1; 2; 3; 4; 5 ]) ~fn_id:0
      ~fn_par:0 ()
  in
  match Codec.encode (Message.Task_assignment { task; client = Addr.Host 0; port = 0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "5 locality nodes must be rejected"

let test_codec_decode_errors () =
  (match Codec.decode (Bytes.create 0) with
  | Error Codec.Truncated -> ()
  | _ -> Alcotest.fail "empty buffer");
  (match Codec.decode (Bytes.make 1 '\xee') with
  | Error (Codec.Bad_opcode 0xee) -> ()
  | _ -> Alcotest.fail "bad opcode");
  (* opcode 2 (job_ack) but only 3 bytes *)
  (match Codec.decode (Bytes.make 3 '\x02') with
  | Error Codec.Truncated -> ()
  | _ -> Alcotest.fail "truncated body");
  Alcotest.(check string) "error printer" "bad opcode 9"
    (Format.asprintf "%a" Codec.pp_error (Codec.Bad_opcode 9))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trips every message" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) message_gen)
    roundtrip

(* A wire image of a valid message with 1-4 bytes overwritten: it gets
   past the opcode and length checks that stop most random noise. *)
let mutated_frame_gen =
  QCheck.Gen.(
    message_gen >>= fun msg ->
    let frame = Codec.encode msg in
    let len = Bytes.length frame in
    list_size (int_range 1 4) (pair (int_range 0 (len - 1)) (int_range 0 255))
    >|= fun edits ->
    List.iter (fun (off, v) -> Bytes.set_uint8 frame off v) edits;
    Bytes.to_string frame)

let hex s =
  String.concat " " (List.of_seq (Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (String.to_seq s)))

(* Decoding raw bytes never raises, and whatever it accepts is a message
   the encoder accepts too. *)
let prop_codec_never_crashes_on_noise =
  QCheck.Test.make ~name:"decode never raises on random bytes" ~count:1000
    (QCheck.make ~print:hex
       QCheck.Gen.(
         oneof [ string_size ~gen:char (int_range 0 64); mutated_frame_gen ]))
    (fun s ->
      match Codec.decode (Bytes.of_string s) with
      | Error _ -> true
      | Ok msg -> (
        match Codec.encode msg with
        | _ -> true
        | exception Invalid_argument e ->
          QCheck.Test.fail_reportf "decoded %a, which encode rejects: %s" Message.pp msg e))

(* The encoder's field limits, each broken in an otherwise valid
   Task_assignment image: TPROPS at byte 5 + 22, fn_par at 5 + 14. *)
let test_codec_decode_holds_encode_limits () =
  let task = Task.make ~uid:1 ~jid:2 ~tid:3 ~fn_id:1 ~fn_par:10 () in
  let frame tprops =
    Codec.encode
      (Message.Task_assignment
         { task = { task with tprops }; client = Addr.Host 3; port = 0 })
  in
  let with_u64 b off v =
    let b = Bytes.copy b in
    Bytes.set_int64_be b off (Int64.of_int v);
    b
  in
  let tprops_value = 5 + 22 + 1 and fn_par = 5 + 14 in
  List.iter
    (fun (name, b, field) ->
      match Codec.decode b with
      | Error (Codec.Bad_field f) -> Alcotest.(check string) name field f
      | Ok msg -> Alcotest.failf "%s: decoded %a" name Message.pp msg
      | Error e -> Alcotest.failf "%s: %a" name Codec.pp_error e)
    [
      ("priority 0", with_u64 (frame (Task.Priority 1)) tprops_value 0, "priority");
      ("priority 256", with_u64 (frame (Task.Priority 1)) tprops_value 256, "priority");
      ( "resources all ones",
        with_u64 (frame (Task.Resources 1)) tprops_value (-1),
        "resource bitmap" );
      ("deadline 2^32", with_u64 (frame (Task.Deadline 1)) tprops_value (1 lsl 32), "deadline");
      ("tenant 2^32", with_u64 (frame (Task.Tenant 1)) tprops_value (1 lsl 32), "tenant id");
      ("fn_par -5", with_u64 (frame Task.No_props) fn_par (-5), "fn_par");
    ];
  (* A task count past the MTU, in a buffer long enough to hold it. *)
  let big = Bytes.make (13 + (Codec.task_info_size * 46)) '\000' in
  Bytes.set_uint8 big 0 1;
  Bytes.set_uint16_be big 11 46;
  match Codec.decode big with
  | Error (Codec.Bad_field "task count") -> ()
  | _ -> Alcotest.fail "an over-MTU task count must be refused"

(* -- Entry packing ----------------------------------------------------------------- *)

let entry_gen =
  QCheck.Gen.(
    map
      (fun (task, host, skip) ->
        Draconis.Entry.make ~skip ~task ~client:(Addr.Host host) ())
      (tup3 task_gen (int_range 0 0xFFFE) (int_range 0 1_000)))

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"entry packs and unpacks through register words" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Draconis.Entry.pp) entry_gen)
    (fun entry ->
      let words = Draconis.Entry.to_words entry in
      Array.length words = Draconis.Entry.word_count
      && Draconis.Entry.equal entry (Draconis.Entry.of_words words))

let test_entry_word_bounds () =
  let task = Task.make ~uid:(1 lsl 40) ~jid:0 ~tid:0 ~fn_id:0 ~fn_par:0 () in
  let entry = Draconis.Entry.make ~task ~client:(Addr.Host 0) () in
  match Draconis.Entry.to_words entry with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "uid beyond 32 bits must be rejected"

let suite =
  [
    Alcotest.test_case "task accessors" `Quick test_task_accessors;
    Alcotest.test_case "task id comparison" `Quick test_task_id_compare;
    Alcotest.test_case "codec simple roundtrips" `Quick test_codec_simple_roundtrips;
    Alcotest.test_case "codec sizes" `Quick test_codec_sizes;
    Alcotest.test_case "codec MTU guard" `Quick test_codec_mtu_guard;
    Alcotest.test_case "codec locality limit" `Quick test_codec_locality_limit;
    Alcotest.test_case "codec decode errors" `Quick test_codec_decode_errors;
    Alcotest.test_case "codec decode holds encode's limits" `Quick
      test_codec_decode_holds_encode_limits;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_never_crashes_on_noise;
    QCheck_alcotest.to_alcotest prop_entry_roundtrip;
    Alcotest.test_case "entry rejects out-of-width fields" `Quick test_entry_word_bounds;
    QCheck_alcotest.to_alcotest prop_task_tbl_model;
    Alcotest.test_case "task id hash spreads every field" `Quick
      test_task_hash_spreads_fields;
  ]

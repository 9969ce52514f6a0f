open Draconis_net

type error = Truncated | Bad_opcode of int | Bad_field of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated packet"
  | Bad_opcode op -> Format.fprintf fmt "bad opcode %d" op
  | Bad_field f -> Format.fprintf fmt "bad field: %s" f

let task_info_size = 32
let max_locality_nodes = 4
let mtu_payload = 1458
let max_tasks_per_packet = (mtu_payload - 13) / task_info_size

exception Decode of error

let switch_wire_addr = 0xFFFF

let addr_to_wire = function
  | Addr.Switch -> switch_wire_addr
  | Addr.Host i ->
    if i < 0 || i >= switch_wire_addr then
      invalid_arg "Codec: host id out of 16-bit range";
    i

let addr_of_wire w =
  if w = switch_wire_addr then Addr.Switch
  else if w >= 0 && w < switch_wire_addr then Addr.Host w
  else raise (Decode (Bad_field "address"))

let check_u16 name v =
  if v < 0 || v > 0xFFFF then invalid_arg ("Codec: " ^ name ^ " out of u16 range")

let check_u32 name v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg ("Codec: " ^ name ^ " out of u32 range")

(* -- writers ------------------------------------------------------------ *)

let put_u8 b off v = Bytes.set_uint8 b off v
let put_u16 b off v = Bytes.set_uint16_be b off v
let put_u32 b off v = Bytes.set_int32_be b off (Int32.of_int (v land 0xFFFFFFFF))
let put_u64 b off v = Bytes.set_int64_be b off (Int64.of_int v)

let get_u8 b off = Bytes.get_uint8 b off
let get_u16 b off = Bytes.get_uint16_be b off
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

(* -- TASK_INFO ----------------------------------------------------------- *)

let put_tprops b off = function
  | Task.No_props ->
    put_u8 b off 0;
    put_u64 b (off + 1) 0
  | Task.Resources bitmap ->
    check_u32 "resource bitmap" bitmap;
    put_u8 b off 1;
    put_u64 b (off + 1) bitmap
  | Task.Locality nodes ->
    let n = List.length nodes in
    if n > max_locality_nodes then
      invalid_arg "Codec: too many locality nodes for TPROPS";
    (* node count rides the tag byte's high nibble so the 8-byte payload
       holds four full 16-bit node ids *)
    put_u8 b off (2 lor (n lsl 4));
    put_u64 b (off + 1) 0;
    List.iteri
      (fun i node ->
        check_u16 "locality node id" node;
        put_u16 b (off + 1 + (2 * i)) node)
      nodes
  | Task.Priority p ->
    if p < 1 || p > 0xFF then invalid_arg "Codec: priority out of range";
    put_u8 b off 3;
    put_u64 b (off + 1) p
  | Task.Deadline d ->
    check_u32 "deadline" d;
    put_u8 b off 4;
    put_u64 b (off + 1) d
  | Task.Tenant id ->
    check_u32 "tenant id" id;
    put_u8 b off 5;
    put_u64 b (off + 1) id

(* Decoded values are held to the encoder's own limits, so every message
   [decode] accepts re-encodes. *)
let get_bounded b off name ~lo ~hi =
  let v = get_u64 b off in
  if v < lo || v > hi then raise (Decode (Bad_field name));
  v

let get_tprops b off =
  let tag_byte = get_u8 b off in
  match tag_byte land 0x0F with
  | 0 -> Task.No_props
  | 1 -> Task.Resources (get_bounded b (off + 1) "resource bitmap" ~lo:0 ~hi:0xFFFFFFFF)
  | 2 ->
    let n = (tag_byte lsr 4) land 0x0F in
    if n > max_locality_nodes then raise (Decode (Bad_field "locality count"));
    Task.Locality (List.init n (fun i -> get_u16 b (off + 1 + (2 * i))))
  | 3 -> Task.Priority (get_bounded b (off + 1) "priority" ~lo:1 ~hi:0xFF)
  | 4 -> Task.Deadline (get_bounded b (off + 1) "deadline" ~lo:0 ~hi:0xFFFFFFFF)
  | 5 -> Task.Tenant (get_bounded b (off + 1) "tenant id" ~lo:0 ~hi:0xFFFFFFFF)
  | _ -> raise (Decode (Bad_field "tprops tag"))

let put_task b off (t : Task.t) =
  check_u32 "uid" t.id.uid;
  check_u32 "jid" t.id.jid;
  check_u32 "tid" t.id.tid;
  check_u16 "fn_id" t.fn_id;
  if t.fn_par < 0 then invalid_arg "Codec: negative fn_par";
  put_u32 b off t.id.uid;
  put_u32 b (off + 4) t.id.jid;
  put_u32 b (off + 8) t.id.tid;
  put_u16 b (off + 12) t.fn_id;
  put_u64 b (off + 14) t.fn_par;
  put_tprops b (off + 22) t.tprops;
  put_u8 b (off + 31) 0

let get_task b off : Task.t =
  {
    id = { uid = get_u32 b off; jid = get_u32 b (off + 4); tid = get_u32 b (off + 8) };
    fn_id = get_u16 b (off + 12);
    fn_par = get_bounded b (off + 14) "fn_par" ~lo:0 ~hi:max_int;
    tprops = get_tprops b (off + 22);
  }

(* -- messages ------------------------------------------------------------ *)

let encoded_size (msg : Message.t) =
  match msg with
  | Job_submission { tasks; _ } -> 13 + (task_info_size * List.length tasks)
  | Job_ack _ -> 9
  | Queue_full { tasks; _ } -> 11 + (task_info_size * List.length tasks)
  | Task_request _ -> 12
  | Task_assignment _ -> 5 + task_info_size
  | Noop_assignment _ -> 3
  | Task_completion _ -> 26
  | Param_fetch _ -> 17
  | Param_data _ -> 19

let encode (msg : Message.t) =
  let size = encoded_size msg in
  if size > mtu_payload then
    invalid_arg
      (Printf.sprintf "Codec.encode: %d bytes exceeds MTU payload %d" size
         mtu_payload);
  let b = Bytes.make size '\000' in
  put_u8 b 0 (Message.opcode msg);
  (match msg with
  | Job_submission { client; uid; jid; tasks } ->
    check_u32 "uid" uid;
    check_u32 "jid" jid;
    put_u16 b 1 (addr_to_wire client);
    put_u32 b 3 uid;
    put_u32 b 7 jid;
    put_u16 b 11 (List.length tasks);
    List.iteri (fun i t -> put_task b (13 + (task_info_size * i)) t) tasks
  | Job_ack { uid; jid } ->
    put_u32 b 1 uid;
    put_u32 b 5 jid
  | Queue_full { uid; jid; tasks } ->
    put_u32 b 1 uid;
    put_u32 b 5 jid;
    put_u16 b 9 (List.length tasks);
    List.iteri (fun i t -> put_task b (11 + (task_info_size * i)) t) tasks
  | Task_request { info; rtrv_prio } ->
    put_u16 b 1 (addr_to_wire info.exec_addr);
    put_u16 b 3 info.exec_port;
    put_u32 b 5 info.exec_rsrc;
    put_u16 b 9 info.exec_node;
    put_u8 b 11 rtrv_prio
  | Task_assignment { task; client; port } ->
    put_u16 b 1 (addr_to_wire client);
    put_u16 b 3 port;
    put_task b 5 task
  | Noop_assignment { port } -> put_u16 b 1 port
  | Task_completion { task_id; client; info; rtrv_prio } ->
    put_u32 b 1 task_id.uid;
    put_u32 b 5 task_id.jid;
    put_u32 b 9 task_id.tid;
    put_u16 b 13 (addr_to_wire client);
    put_u16 b 15 (addr_to_wire info.exec_addr);
    put_u16 b 17 info.exec_port;
    put_u32 b 19 info.exec_rsrc;
    put_u16 b 23 info.exec_node;
    put_u8 b 25 rtrv_prio
  | Param_fetch { task_id; node; port } ->
    put_u32 b 1 task_id.uid;
    put_u32 b 5 task_id.jid;
    put_u32 b 9 task_id.tid;
    put_u16 b 13 node;
    put_u16 b 15 port
  | Param_data { task_id; port; size } ->
    put_u32 b 1 task_id.uid;
    put_u32 b 5 task_id.jid;
    put_u32 b 9 task_id.tid;
    put_u16 b 13 port;
    put_u32 b 15 size);
  b

let need b n = if Bytes.length b < n then raise (Decode Truncated)

(* A task list the encoder would refuse as over-MTU is refused here too. *)
let get_task_count b off ~header =
  let n = get_u16 b off in
  if header + (task_info_size * n) > mtu_payload then
    raise (Decode (Bad_field "task count"));
  n

let decode_exn b : Message.t =
  need b 1;
  match get_u8 b 0 with
  | 1 ->
    need b 13;
    let client = addr_of_wire (get_u16 b 1) in
    let uid = get_u32 b 3 and jid = get_u32 b 7 in
    let n = get_task_count b 11 ~header:13 in
    need b (13 + (task_info_size * n));
    let tasks = List.init n (fun i -> get_task b (13 + (task_info_size * i))) in
    Job_submission { client; uid; jid; tasks }
  | 2 ->
    need b 9;
    Job_ack { uid = get_u32 b 1; jid = get_u32 b 5 }
  | 3 ->
    need b 11;
    let uid = get_u32 b 1 and jid = get_u32 b 5 in
    let n = get_task_count b 9 ~header:11 in
    need b (11 + (task_info_size * n));
    let tasks = List.init n (fun i -> get_task b (11 + (task_info_size * i))) in
    Queue_full { uid; jid; tasks }
  | 4 ->
    need b 12;
    Task_request
      {
        info =
          {
            exec_addr = addr_of_wire (get_u16 b 1);
            exec_port = get_u16 b 3;
            exec_rsrc = get_u32 b 5;
            exec_node = get_u16 b 9;
          };
        rtrv_prio = get_u8 b 11;
      }
  | 5 ->
    need b (5 + task_info_size);
    let client = addr_of_wire (get_u16 b 1) in
    Task_assignment { task = get_task b 5; client; port = get_u16 b 3 }
  | 6 ->
    need b 3;
    Noop_assignment { port = get_u16 b 1 }
  | 7 ->
    need b 26;
    Task_completion
      {
        task_id = { uid = get_u32 b 1; jid = get_u32 b 5; tid = get_u32 b 9 };
        client = addr_of_wire (get_u16 b 13);
        info =
          {
            exec_addr = addr_of_wire (get_u16 b 15);
            exec_port = get_u16 b 17;
            exec_rsrc = get_u32 b 19;
            exec_node = get_u16 b 23;
          };
        rtrv_prio = get_u8 b 25;
      }
  | 8 ->
    need b 17;
    Param_fetch
      {
        task_id = { uid = get_u32 b 1; jid = get_u32 b 5; tid = get_u32 b 9 };
        node = get_u16 b 13;
        port = get_u16 b 15;
      }
  | 9 ->
    need b 19;
    Param_data
      {
        task_id = { uid = get_u32 b 1; jid = get_u32 b 5; tid = get_u32 b 9 };
        port = get_u16 b 13;
        size = get_u32 b 15;
      }
  | op -> raise (Decode (Bad_opcode op))

let decode b =
  match decode_exn b with
  | msg -> Ok msg
  | exception Decode e -> Error e
  | exception Invalid_argument _ -> Error Truncated

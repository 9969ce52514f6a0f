open Draconis_sim

type prop =
  | P_none
  | P_prio of int
  | P_rsrc of int
  | P_deadline of int
  | P_tenant of int

type t =
  | Submit of {
      at : Time.t;
      client : int;
      uid : int;
      jid : int;
      count : int;
      prop : prop;
    }
  | Request of { at : Time.t; executor : int; prio : int }
  | Loss of { at : Time.t; duration : Time.t; loss : float }
  | Partition of { at : Time.t; hosts : int list; duration : Time.t }
  | Straggler of { at : Time.t; executor : int; factor : float; duration : Time.t }

let at = function
  | Submit { at; _ }
  | Request { at; _ }
  | Loss { at; _ }
  | Partition { at; _ }
  | Straggler { at; _ } ->
    at

let with_at op at =
  match op with
  | Submit s -> Submit { s with at }
  | Request r -> Request { r with at }
  | Loss l -> Loss { l with at }
  | Partition p -> Partition { p with at }
  | Straggler s -> Straggler { s with at }

(* Loss and partitions remove packets in flight, which relaxes the
   end-to-end conservation invariant; stragglers only delay completions
   and relax nothing. *)
let is_lossy = function
  | Loss _ | Partition _ -> true
  | Submit _ | Request _ | Straggler _ -> false

(* -- replay-line serialization --------------------------------------------- *)

(* One op per line: `kind key=value key=value ...`, all times in ns.
   The format round-trips exactly so a shrunk reproducer can be replayed
   byte-for-byte (`draconis-fuzz replay FILE`). *)

let float_to_string f = Printf.sprintf "%g" f

let prop_to_string = function
  | P_none -> ""
  | P_prio p -> Printf.sprintf " prio=%d" p
  | P_rsrc r -> Printf.sprintf " rsrc=%d" r
  | P_deadline d -> Printf.sprintf " deadline=%d" d
  | P_tenant t -> Printf.sprintf " tenant=%d" t

let to_string = function
  | Submit { at; client; uid; jid; count; prop } ->
    Printf.sprintf "submit at=%d client=%d uid=%d jid=%d count=%d%s" at client uid
      jid count (prop_to_string prop)
  | Request { at; executor; prio } ->
    Printf.sprintf "request at=%d executor=%d prio=%d" at executor prio
  | Loss { at; duration; loss } ->
    Printf.sprintf "loss at=%d dur=%d p=%s" at duration (float_to_string loss)
  | Partition { at; hosts; duration } ->
    Printf.sprintf "partition at=%d hosts=%s dur=%d" at
      (String.concat "+" (List.map string_of_int hosts))
      duration
  | Straggler { at; executor; factor; duration } ->
    Printf.sprintf "straggler at=%d executor=%d factor=%s dur=%d" at executor
      (float_to_string factor) duration

let pp fmt t = Format.pp_print_string fmt (to_string t)

let parse_fields line fields =
  List.filter_map
    (fun tok ->
      if tok = "" then None
      else
        match String.index_opt tok '=' with
        | None ->
          invalid_arg
            (Printf.sprintf "Op.of_string: %S: bad field %S (want key=value)" line tok)
        | Some i ->
          Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
    fields

let take line fields key =
  match List.assoc_opt key !fields with
  | None -> invalid_arg (Printf.sprintf "Op.of_string: %S: missing field %S" line key)
  | Some v ->
    fields := List.remove_assoc key !fields;
    v

let take_opt fields key =
  match List.assoc_opt key !fields with
  | None -> None
  | Some v ->
    fields := List.remove_assoc key !fields;
    Some v

let int_of line s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Op.of_string: %S: bad integer %S" line s)

let float_of line s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Op.of_string: %S: bad number %S" line s)

let of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [] | [ "" ] -> invalid_arg "Op.of_string: empty line"
  | kind :: rest ->
    let fields = ref (parse_fields line rest) in
    let op =
      match kind with
      | "submit" ->
        let at = int_of line (take line fields "at") in
        let client = int_of line (take line fields "client") in
        let uid = int_of line (take line fields "uid") in
        let jid = int_of line (take line fields "jid") in
        let count = int_of line (take line fields "count") in
        let prop =
          let candidates =
            List.filter_map
              (fun (key, wrap) ->
                Option.map (fun v -> (key, wrap (int_of line v))) (take_opt fields key))
              [
                ("prio", fun p -> P_prio p);
                ("rsrc", fun r -> P_rsrc r);
                ("deadline", fun d -> P_deadline d);
                ("tenant", fun t -> P_tenant t);
              ]
          in
          match candidates with
          | [] -> P_none
          | [ (_, prop) ] -> prop
          | picked ->
            invalid_arg
              (Printf.sprintf "Op.of_string: %S: conflicting task properties (%s)"
                 line
                 (String.concat ", " (List.map fst picked)))
        in
        Submit { at; client; uid; jid; count; prop }
      | "request" ->
        let at = int_of line (take line fields "at") in
        let executor = int_of line (take line fields "executor") in
        let prio = int_of line (take line fields "prio") in
        Request { at; executor; prio }
      | "loss" ->
        let at = int_of line (take line fields "at") in
        let duration = int_of line (take line fields "dur") in
        let loss = float_of line (take line fields "p") in
        Loss { at; duration; loss }
      | "partition" ->
        let at = int_of line (take line fields "at") in
        let hosts =
          List.map (int_of line) (String.split_on_char '+' (take line fields "hosts"))
        in
        let duration = int_of line (take line fields "dur") in
        Partition { at; hosts; duration }
      | "straggler" ->
        let at = int_of line (take line fields "at") in
        let executor = int_of line (take line fields "executor") in
        let factor = float_of line (take line fields "factor") in
        let duration = int_of line (take line fields "dur") in
        Straggler { at; executor; factor; duration }
      | other ->
        invalid_arg
          (Printf.sprintf
             "Op.of_string: unknown op kind %S (want \
              submit/request/loss/partition/straggler)"
             other)
    in
    (match !fields with
    | [] -> ()
    | (key, _) :: _ ->
      invalid_arg (Printf.sprintf "Op.of_string: %S: unknown field %S" line key));
    op

let validate op =
  let nonneg what v =
    if v < 0 then invalid_arg (Printf.sprintf "Op.validate: negative %s" what)
  in
  nonneg "time" (at op);
  match op with
  | Submit { client; uid; jid; count; prop; _ } ->
    nonneg "client" client;
    nonneg "uid" uid;
    nonneg "jid" jid;
    if count < 1 then invalid_arg "Op.validate: submit count must be >= 1";
    (match prop with
    | P_none -> ()
    (* Priorities beyond the policy's level count are legitimate
       adversarial input (the switch clamps them to the lowest level);
       only values the TPROPS wire field cannot carry are rejected. *)
    | P_prio p -> if p < 1 || p > 0xFF then invalid_arg "Op.validate: prio range"
    | P_rsrc r -> if r < 1 then invalid_arg "Op.validate: rsrc must be >= 1"
    (* Deadlines/tenants up to the full u32 TPROPS field are legal
       adversarial input: huge deadlines hit the rank clamp and
       out-of-range tenants hit the weight-table clamp. *)
    | P_deadline d ->
      if d < 0 || d > 0xFFFFFFFF then invalid_arg "Op.validate: deadline range"
    | P_tenant t ->
      if t < 0 || t > 0xFFFFFFFF then invalid_arg "Op.validate: tenant range")
  | Request { executor; prio; _ } ->
    nonneg "executor" executor;
    nonneg "prio" prio
  | Loss { duration; loss; _ } ->
    if duration <= 0 then invalid_arg "Op.validate: loss duration must be positive";
    if loss < 0.0 || loss > 1.0 || Float.is_nan loss then
      invalid_arg "Op.validate: loss outside [0,1]"
  | Partition { hosts; duration; _ } ->
    if hosts = [] then invalid_arg "Op.validate: empty partition host list";
    List.iter (nonneg "partition host") hosts;
    if duration <= 0 then invalid_arg "Op.validate: partition duration must be positive"
  | Straggler { executor; factor; duration; _ } ->
    nonneg "executor" executor;
    if factor < 1.0 || Float.is_nan factor then
      invalid_arg "Op.validate: straggler factor must be >= 1.0";
    if duration <= 0 then invalid_arg "Op.validate: straggler duration must be positive"

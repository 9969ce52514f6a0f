type bucket = { b_at : int; b_count : int; b_p50 : int; b_p99 : int; b_max : int }

type queue = {
  qname : string;
  samples : int;
  qmax : int;
  overall_p50 : int;
  overall_p99 : int;
  series : bucket list;
}

type bank = {
  bname : string;
  bk_stamps : int;
  probe_hit : int;
  probe_miss : int;
  claim_won : int;
  claim_lost : int;
}

type stage_row = { sname : string; s_count : int; s_p50 : int; s_p99 : int; s_max : int }

type section = {
  budget : int;
  window_ns : int;
  stacks : int;
  dropped_stacks : int;
  stamps : int;
  lost : int;
  stages : stage_row list;
  queues : queue list;
  banks : bank list;
  chains : (string * int) list;
}

type run = { label : string; int_ : section option }

(* -- extraction ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let number name json ~default =
  match Json.member name json with
  | Some v -> ( match Json.to_number v with Some f -> f | None -> default)
  | None -> default

let int_field name json ~default =
  int_of_float (number name json ~default:(float_of_int default))

let string_field name json ~default =
  match Json.member name json with
  | Some v -> Option.value (Json.to_string v) ~default
  | None -> default

let obj_fields name json =
  match Json.member name json with Some (Json.Obj fields) -> fields | _ -> []

let hist_fields name json =
  let v = Option.value (Json.member name json) ~default:(Json.Obj []) in
  (int_field "p50" v ~default:0, int_field "p99" v ~default:0, int_field "max" v ~default:0)

let parse_bucket v =
  match v with
  | Json.List [ a; b; c; d; e ] ->
    let n x = match Json.to_number x with Some f -> int_of_float f | None -> 0 in
    Some { b_at = n a; b_count = n b; b_p50 = n c; b_p99 = n d; b_max = n e }
  | _ -> None

let parse_queue (name, v) =
  let p50, p99, _ = hist_fields "overall" v in
  {
    qname = name;
    samples = int_field "samples" v ~default:0;
    qmax = int_field "max" v ~default:0;
    overall_p50 = p50;
    overall_p99 = p99;
    series =
      (match Json.member "series" v with
      | Some (Json.List buckets) -> List.filter_map parse_bucket buckets
      | _ -> []);
  }

let parse_bank (name, v) =
  {
    bname = name;
    bk_stamps = int_field "stamps" v ~default:0;
    probe_hit = int_field "probe_hit" v ~default:0;
    probe_miss = int_field "probe_miss" v ~default:0;
    claim_won = int_field "claim_won" v ~default:0;
    claim_lost = int_field "claim_lost" v ~default:0;
  }

let parse_stage (name, v) =
  let p50, p99, mx = hist_fields "to_stage_ns" v in
  { sname = name; s_count = int_field "count" v ~default:0; s_p50 = p50; s_p99 = p99;
    s_max = mx }

let parse_section v =
  {
    budget = int_field "budget" v ~default:0;
    window_ns = int_field "window_ns" v ~default:0;
    stacks = int_field "stacks" v ~default:0;
    dropped_stacks = int_field "dropped_stacks" v ~default:0;
    stamps = int_field "stamps" v ~default:0;
    lost = int_field "lost" v ~default:0;
    stages = List.map parse_stage (obj_fields "stages" v);
    queues = List.map parse_queue (obj_fields "queues" v);
    banks = List.map parse_bank (obj_fields "banks" v);
    chains =
      (match Json.member "chains" v with
      | Some (Json.List entries) ->
        List.map
          (fun e ->
            (string_field "chain" e ~default:"?", int_field "count" e ~default:0))
          entries
      | _ -> []);
  }

let parse_run v =
  {
    label = string_field "label" v ~default:"?";
    int_ = Option.map parse_section (Json.member "int" v);
  }

let load ~path =
  let* json = Json.parse_file path in
  let schema = string_field "schema" json ~default:"" in
  if schema <> "draconis-obs/3" && schema <> "draconis-obs/4" then
    Error
      (Printf.sprintf
         "%s: expected a draconis-obs/3 or /4 metrics export (with an \"int\" \
          section), got schema %S"
         path schema)
  else
    match Json.member "runs" json with
    | Some (Json.List runs) -> Ok (List.map parse_run runs)
    | _ -> Error (Printf.sprintf "%s: missing \"runs\" array" path)

(* -- offline re-check ------------------------------------------------------ *)

(* The dump carries per-queue totals redundantly with the bucketed
   series; re-deriving them proves the depth time series is internally
   consistent (the occupancy re-check).  Returns human-readable failure
   descriptions; empty = pass. *)
let recheck section =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let stage_total = List.fold_left (fun acc s -> acc + s.s_count) 0 section.stages in
  if section.stamps > 0 && stage_total <> section.stamps then
    fail "stage counts sum to %d, section claims %d stamps" stage_total section.stamps;
  List.iter
    (fun q ->
      let derived = List.fold_left (fun acc b -> acc + b.b_count) 0 q.series in
      if derived <> q.samples then
        fail "queue %s: series buckets hold %d samples, section claims %d" q.qname
          derived q.samples;
      let derived_max = List.fold_left (fun acc b -> max acc b.b_max) 0 q.series in
      if derived_max <> q.qmax then
        fail "queue %s: series max is %d, section claims %d" q.qname derived_max q.qmax;
      List.iter
        (fun b ->
          if not (b.b_p50 <= b.b_p99 && b.b_p99 <= b.b_max) then
            fail "queue %s: bucket at %dns has non-monotone depth quantiles (%d/%d/%d)"
              q.qname b.b_at b.b_p50 b.b_p99 b.b_max)
        q.series;
      if q.overall_p99 > q.qmax then
        fail "queue %s: overall p99 %d exceeds max %d" q.qname q.overall_p99 q.qmax)
    section.queues;
  List.rev !failures

(* -- rendering ------------------------------------------------------------- *)

let heat_chars = " .:-=+*#%@"

let heat_strip q =
  if q.series = [] || q.qmax = 0 then ""
  else begin
    (* Downsample to at most 64 cells, folding by max so spikes stay
       visible. *)
    let cells = 64 in
    let buckets = Array.of_list q.series in
    let n = Array.length buckets in
    let group = (n + cells - 1) / cells in
    let strip = Buffer.create cells in
    let i = ref 0 in
    while !i < n do
      let hi = min n (!i + group) in
      let m = ref 0 in
      for j = !i to hi - 1 do
        if buckets.(j).b_p99 > !m then m := buckets.(j).b_p99
      done;
      let idx = !m * (String.length heat_chars - 1) / max 1 q.qmax in
      Buffer.add_char strip heat_chars.[min (String.length heat_chars - 1) idx];
      i := hi
    done;
    Buffer.contents strip
  end

let us ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e3)

let render_text ?(top = 10) runs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "== %s ==\n" r.label);
      match r.int_ with
      | None -> Buffer.add_string buf "no INT telemetry recorded for this run\n\n"
      | Some s ->
        let checks = recheck s in
        Buffer.add_string buf
          (Printf.sprintf
             "budget %d, window %s us; %d stacks delivered (%d dropped in flight), %d \
              stamps, %d lost to the header budget\n"
             s.budget
             (us s.window_ns)
             s.stacks s.dropped_stacks s.stamps s.lost);
        Buffer.add_string buf
          (if checks = [] then "occupancy re-check: ok\n"
           else "occupancy re-check: FAILED\n");
        List.iter (fun c -> Buffer.add_string buf ("  !! " ^ c ^ "\n")) checks;
        if s.queues <> [] then begin
          Buffer.add_string buf "queue depth over time (p99 per window):\n";
          List.iter
            (fun q ->
              Buffer.add_string buf
                (Printf.sprintf "  q%-5s |%s| p50 %d p99 %d max %d (%d samples)\n"
                   q.qname (heat_strip q) q.overall_p50 q.overall_p99 q.qmax q.samples))
            s.queues
        end;
        if s.stages <> [] then begin
          let table =
            Draconis_stats.Table.create
              ~columns:[ "stage"; "stamps"; "hop p50 (us)"; "hop p99 (us)"; "hop max (us)" ]
          in
          List.iter
            (fun st ->
              Draconis_stats.Table.add_row table
                [ st.sname; string_of_int st.s_count; us st.s_p50; us st.s_p99;
                  us st.s_max ])
            s.stages;
          Buffer.add_string buf (Draconis_stats.Table.render table)
        end;
        if s.banks <> [] then begin
          let probes =
            List.fold_left (fun acc b -> acc + b.probe_hit + b.probe_miss) 0 s.banks
          in
          let claims =
            List.fold_left (fun acc b -> acc + b.claim_won + b.claim_lost) 0 s.banks
          in
          Buffer.add_string buf
            (Printf.sprintf "rank-store banks: %d active, %d probes, %d claims\n"
               (List.length s.banks) probes claims)
        end;
        if s.chains <> [] then begin
          Buffer.add_string buf (Printf.sprintf "top %d recirculation chains:\n" top);
          List.iteri
            (fun i (chain, n) ->
              if i < top then
                Buffer.add_string buf (Printf.sprintf "  %6dx %s\n" n chain))
            s.chains
        end;
        Buffer.add_char buf '\n')
    runs;
  Buffer.contents buf

let escape = Chrome_trace.escape

let section_json s =
  let checks = recheck s in
  Printf.sprintf
    "{\"budget\":%d,\"window_ns\":%d,\"stacks\":%d,\"dropped_stacks\":%d,\"stamps\":%d,\
     \"lost\":%d,\"recheck_ok\":%b,\"queues\":{%s},\"chains\":[%s]}"
    s.budget s.window_ns s.stacks s.dropped_stacks s.stamps s.lost (checks = [])
    (String.concat ","
       (List.map
          (fun q ->
            Printf.sprintf "\"%s\":{\"samples\":%d,\"p50\":%d,\"p99\":%d,\"max\":%d}"
              (escape q.qname) q.samples q.overall_p50 q.overall_p99 q.qmax)
          s.queues))
    (String.concat ","
       (List.map
          (fun (chain, n) ->
            Printf.sprintf "{\"chain\":\"%s\",\"count\":%d}" (escape chain) n)
          s.chains))

let render_json runs =
  Printf.sprintf "{\n  \"schema\": \"draconis-trace-int/1\",\n  \"runs\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf "    {\"label\":\"%s\"%s}" (escape r.label)
              (match r.int_ with None -> "" | Some s -> ",\"int\":" ^ section_json s))
          runs))

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_csv runs =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "label,queue,time_ns,count,depth_p50,depth_p99,depth_max\n";
  List.iter
    (fun r ->
      match r.int_ with
      | None -> ()
      | Some s ->
        List.iter
          (fun q ->
            List.iter
              (fun b ->
                Buffer.add_string buf
                  (Printf.sprintf "%s,%s,%d,%d,%d,%d,%d\n" (csv_escape r.label)
                     (csv_escape q.qname) b.b_at b.b_count b.b_p50 b.b_p99 b.b_max))
              q.series)
          s.queues)
    runs;
  Buffer.contents buf

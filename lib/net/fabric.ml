open Draconis_sim
module Obs = Draconis_obs

type 'msg envelope = {
  src : Addr.t;
  dst : Addr.t;
  sent_at : Time.t;
  payload : 'msg;
  (* INT stamp stack riding this message; drained into the ambient
     collector when (and only when) the message actually lands, so
     telemetry loss mirrors packet loss. *)
  int_ : Obs.Int_telemetry.stack option;
}

type config = {
  host_to_switch : Time.t;
  jitter : Time.t;
  loss : float;
  detour_fraction : float;
  detour_extra : Time.t;
}

let default_config =
  {
    host_to_switch = Time.ns 1_500;
    jitter = Time.ns 150;
    loss = 0.0;
    detour_fraction = 0.0;
    detour_extra = 0;
  }

type fault = Loss of float | Cut of int list
type window = { start : Time.t; stop : Time.t; fault : fault }

(* Sharded routing context, shared by the per-LP instances of a
   [router].  Every send stamps its delivery into the destination LP's
   inbox with [(arrival, entity, seq)], drawing latency jitter and loss
   from the {e sender entity}'s own stream — so neither the LP
   partitioning nor the domain schedule can shift a draw or reorder two
   same-time deliveries.  Fault windows are pure data over simulated
   time, so every LP agrees on them without shared mutable state. *)
type 'msg shard = {
  s_lookahead : Time.t;
  lps : Lp.t array;
  switch_lp : int;
  lp_of_host : int array;  (* host id -> LP index *)
  eid_rng : Rng.t array;  (* entity id (switch 0, host h -> h+1) -> stream *)
  eid_seq : int array;  (* entity id -> monotone mailbox-stamp counter *)
  instances : 'msg t option array;  (* per-LP instance, same index as [lps] *)
}

and 'msg t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  (* [Some (ctx, lp_index)] on a per-LP instance of a sharded router;
     [None] on the classic single-engine fabric. *)
  shard : ('msg shard * int) option;
  (* Dense dispatch: host handlers indexed by id, the switch in its own
     slot — one bounds check and an array read per delivery instead of a
     Hashtbl probe. *)
  mutable host_handlers : ('msg envelope -> unit) option array;
  mutable switch_handler : ('msg envelope -> unit) option;
  (* Timed loss and cut windows ([set_windows]), checked on every send;
     every instance of a router holds the same value. *)
  mutable windows : window array;
  (* Precomputed: no configured loss and no fault window — the common
     case, where [send] skips every drop branch with a single flag
     test. *)
  mutable lossless : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable partition_dropped : int;
  mutable undeliverable : int;
}

let check_probability ~what p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg (Printf.sprintf "Fabric: %s must be in [0,1]" what)

let recompute_lossless t =
  t.lossless <- t.config.loss = 0.0 && Array.length t.windows = 0

(* The config checks [create] and [router] share; [fn] names the
   caller in the message. *)
let check_config ~fn config =
  check_probability ~what:"loss" config.loss;
  check_probability ~what:"detour_fraction" config.detour_fraction;
  let non_negative what v =
    if v < 0 then invalid_arg (Printf.sprintf "%s: %s must be non-negative" fn what)
  in
  non_negative "host_to_switch" config.host_to_switch;
  non_negative "jitter" config.jitter;
  non_negative "detour_extra" config.detour_extra

let create ?(config = default_config) engine rng =
  check_config ~fn:"Fabric.create" config;
  let t =
    { engine; rng; config; shard = None; host_handlers = Array.make 64 None;
      switch_handler = None; windows = [||]; lossless = false; sent = 0;
      delivered = 0; lost = 0; partition_dropped = 0; undeliverable = 0 }
  in
  recompute_lossless t;
  t

let engine t = t.engine

let register t addr handler =
  match addr with
  | Addr.Switch -> t.switch_handler <- Some handler
  | Addr.Host h ->
    if h < 0 then invalid_arg "Fabric.register: negative host id";
    let len = Array.length t.host_handlers in
    if h >= len then begin
      let len' = ref (2 * len) in
      while h >= !len' do
        len' := 2 * !len'
      done;
      let grown = Array.make !len' None in
      Array.blit t.host_handlers 0 grown 0 len;
      t.host_handlers <- grown
    end;
    t.host_handlers.(h) <- Some handler

let handler_of t = function
  | Addr.Switch -> t.switch_handler
  | Addr.Host h ->
    if h >= 0 && h < Array.length t.host_handlers then
      Array.unsafe_get t.host_handlers h
    else None

let set_windows t ws =
  List.iter
    (fun w ->
      if w.stop < w.start then invalid_arg "Fabric.set_windows: window ends before it starts";
      match w.fault with
      | Loss p -> check_probability ~what:"window loss" p
      | Cut hosts ->
        if List.exists (fun h -> h < 0) hosts then
          invalid_arg "Fabric.set_windows: negative host id")
    ws;
  let windows = Array.of_list ws in
  let apply t =
    t.windows <- windows;
    recompute_lossless t
  in
  match t.shard with
  | None -> apply t
  | Some (s, _) -> Array.iter (Option.iter apply) s.instances

(* Deterministic membership in the detour set: hash the host id into
   [0,1) and compare with the configured fraction. *)
let detoured t host =
  t.config.detour_fraction > 0.0
  &&
  let h = host * 0x9E3779B97F4A7C1 in
  let h = (h lxor (h lsr 31)) land 0xFFFFFF in
  float_of_int h /. float_of_int 0x1000000 < t.config.detour_fraction

let detour_of t addr =
  match addr with
  | Addr.Host h when detoured t h -> t.config.detour_extra
  | Addr.Host _ | Addr.Switch -> 0

let base_latency t src dst =
  (* Host-to-host traffic traverses the switch: two hops.  Detoured
     hosts pay the longer path to the ancestor switch on each hop that
     touches them (§3.2). *)
  let hops =
    match (src, dst) with
    | Addr.Switch, Addr.Switch -> 0
    | Addr.Switch, Addr.Host _ | Addr.Host _, Addr.Switch -> t.config.host_to_switch
    | Addr.Host _, Addr.Host _ -> 2 * t.config.host_to_switch
  in
  if t.config.detour_fraction = 0.0 then hops
  else hops + detour_of t src + detour_of t dst

let latency_sample t src dst =
  let jitter = if t.config.jitter > 0 then Rng.int t.rng (t.config.jitter + 1) else 0 in
  base_latency t src dst + jitter

(* Is host [h] inside an active cut window?  Top-level and closure-free,
   like the loss scan below: the sharded send path runs them on every
   packet. *)
let rec cut_host ws i ~now h =
  i < Array.length ws
  && ((let w = Array.unsafe_get ws i in
       now >= w.start && now < w.stop
       && match w.fault with Cut hosts -> List.mem h hosts | Loss _ -> false)
     || cut_host ws (i + 1) ~now h)

(* The switch is never cut: its failure is modeled by fail-over. *)
let cut_off ws ~now = function Addr.Switch -> false | Addr.Host h -> cut_host ws 0 ~now h

let rec window_loss ws i ~now p =
  if i = Array.length ws then p
  else
    let w = Array.unsafe_get ws i in
    match w.fault with
    | Loss q when now >= w.start && now < w.stop -> window_loss ws (i + 1) ~now (Float.max p q)
    | Loss _ | Cut _ -> window_loss ws (i + 1) ~now p

type drop = Cut_off | Lost
type verdict = Deliver | Drop of drop

(* The one drop rule, shared by the classic and the sharded send path: a
   packet to or from a cut host drops without a draw; any other packet
   drops with probability max(active window losses, configured loss).
   Windows compose by max among themselves and with the configured loss.
   The evaluation order (cut check, loss draw) is load-bearing for
   reproducibility of seeded runs. *)
let verdict t rng ~now src dst =
  let ws = t.windows in
  if Array.length ws > 0 && (cut_off ws ~now src || cut_off ws ~now dst) then Drop Cut_off
  else
    let p = t.config.loss in
    let p = if Array.length ws = 0 then p else window_loss ws 0 ~now p in
    if p > 0.0 && Rng.float rng < p then Drop Lost else Deliver

(* A message lands on instance [t], on either send path: its handler
   runs and its INT stack drains into the ambient collector, or, with no
   handler, the message is counted, its stack dropped and the drop
   marked. *)
let arrive t env =
  match handler_of t env.dst with
  | Some handler ->
    t.delivered <- t.delivered + 1;
    Option.iter Obs.Int_telemetry.deliver_stack env.int_;
    handler env
  | None ->
    t.undeliverable <- t.undeliverable + 1;
    Option.iter Obs.Int_telemetry.drop_stack env.int_;
    Obs.Recorder.mark ~at:(Engine.now t.engine) ~track:"fabric" "drop: no handler"

(* The sender's instance [t] drops a message at [now], on either send
   path: counted, its INT stack dropped, the drop marked. *)
let drop t int_ ~now d =
  Option.iter Obs.Int_telemetry.drop_stack int_;
  match d with
  | Cut_off ->
    t.partition_dropped <- t.partition_dropped + 1;
    Obs.Recorder.mark ~at:now ~track:"fabric" "drop: partition"
  | Lost ->
    t.lost <- t.lost + 1;
    Obs.Recorder.mark ~at:now ~track:"fabric" "drop: loss"

(* The delivery closures below capture only the instance and the
   envelope (which carries [dst]): one event per message is the one
   allocation besides the envelope that the engine's thunk API forces. *)
let deliver t ?int_ ~src ~dst ~now payload =
  let env = { src; dst; sent_at = now; payload; int_ } in
  let delay = latency_sample t src dst in
  ignore (Engine.schedule t.engine ~after:delay (fun () -> arrive t env))

(* Drop decisions, off the lossless fast path. *)
let send_lossy t ?int_ ~src ~dst ~now payload =
  match verdict t t.rng ~now src dst with
  | Deliver -> deliver t ?int_ ~src ~dst ~now payload
  | Drop d -> drop t int_ ~now d

(* -- sharded send path --------------------------------------------------- *)

let entity_id = function Addr.Switch -> 0 | Addr.Host h -> h + 1

let check_entity s addr what =
  let e = entity_id addr in
  if e >= Array.length s.eid_seq then
    invalid_arg
      (Printf.sprintf "Fabric.send: %s %s outside the routed host range [0, %d)"
         what (Addr.to_string addr)
         (Array.length s.eid_seq - 1));
  e

let lp_of_addr s = function
  | Addr.Switch -> s.switch_lp
  | Addr.Host h -> s.lp_of_host.(h)

(* The classic path's drop rule and draw order — cut check, loss draw,
   jitter draw — but every draw comes from the sender entity's own
   stream, and the windows are pure data over simulated time, so the
   draw sequence is identical in either LP layout.  Arrivals and drops
   go through the classic path's [arrive] and [drop]: their ambient
   marks and INT stacks reach a recorder or collector installed on the
   domain that runs the LP, which is why an observed run keeps its
   windows inline. *)
let send_sharded t (s, _) ?int_ ~src ~dst payload =
  let now = Engine.now t.engine in
  let se = check_entity s src "src" in
  ignore (check_entity s dst "dst");
  let rng = s.eid_rng.(se) in
  match verdict t rng ~now src dst with
  | Drop d -> drop t int_ ~now d
  | Deliver ->
    let jitter = if t.config.jitter > 0 then Rng.int rng (t.config.jitter + 1) else 0 in
    let latency = base_latency t src dst + jitter in
    (* [base_latency] is at least one host<->switch hop for any
       src <> dst pair, which is exactly the lookahead — the guard only
       fires if the latency model drifts out from under the contract. *)
    if latency < s.s_lookahead then
      invalid_arg
        (Printf.sprintf
           "Fabric.send: sharded latency %d below the lookahead %d (conservative \
            window violation)"
           latency s.s_lookahead);
    let seq = s.eid_seq.(se) in
    s.eid_seq.(se) <- seq + 1;
    let dlp = lp_of_addr s dst in
    let inst =
      match s.instances.(dlp) with
      | None -> assert false (* filled before the router is returned *)
      | Some inst -> inst
    in
    let env = { src; dst; sent_at = now; payload; int_ } in
    Lp.post s.lps.(dlp) ~at:(now + latency) ~src:se ~seq (fun () -> arrive inst env)

let send t ?int_ ~src ~dst payload =
  if Addr.equal src dst then invalid_arg "Fabric.send: src = dst";
  t.sent <- t.sent + 1;
  match t.shard with
  | Some ctx -> send_sharded t ctx ?int_ ~src ~dst payload
  | None ->
    let now = Engine.now t.engine in
    if t.lossless then deliver t ?int_ ~src ~dst ~now payload
    else send_lossy t ?int_ ~src ~dst ~now payload

let sent t = t.sent
let delivered t = t.delivered
let lost t = t.lost
let partition_dropped t = t.partition_dropped
let undeliverable t = t.undeliverable

(* The slowest guarantee the latency model makes is the fastest link:
   one host<->switch hop with zero jitter.  Everything else (second hop,
   jitter, detours) only adds. *)
let lookahead config =
  if config.host_to_switch <= 0 then
    invalid_arg
      "Fabric.lookahead: host_to_switch must be positive for conservative \
       synchronization";
  config.host_to_switch

(* -- sharded router ------------------------------------------------------- *)

(* Per-entity stream seed: splitmix-style (seed, entity) mix, so a
   stream depends only on the model entity, never on the LP it happens
   to be grouped onto (the same contract as Lp's own seeding). *)
let mix seed eid =
  let h = ref (seed lxor ((eid + 1) * 0x9E3779B97F4A7C1)) in
  h := (!h lxor (!h lsr 30)) * 0xBF58476D1CE4E5B;
  h := (!h lxor (!h lsr 27)) * 0x94D049BB133111E;
  (!h lxor (!h lsr 31)) land max_int

let router ?(config = default_config) ~lps ~switch_lp ~lp_of_host ~hosts ~seed () =
  check_config ~fn:"Fabric.router" config;
  let la = lookahead config in
  let n = Array.length lps in
  if n = 0 then invalid_arg "Fabric.router: no LPs";
  if switch_lp < 0 || switch_lp >= n then
    invalid_arg (Printf.sprintf "Fabric.router: switch_lp %d outside [0, %d)" switch_lp n);
  if hosts < 0 then invalid_arg "Fabric.router: negative host count";
  let map = Array.init hosts lp_of_host in
  Array.iteri
    (fun h l ->
      if l < 0 || l >= n then
        invalid_arg
          (Printf.sprintf "Fabric.router: host %d mapped to LP %d outside [0, %d)" h l n))
    map;
  let s =
    {
      s_lookahead = la;
      lps;
      switch_lp;
      lp_of_host = map;
      eid_rng = Array.init (hosts + 1) (fun e -> Rng.create ~seed:(mix seed e));
      eid_seq = Array.make (hosts + 1) 0;
      instances = Array.make n None;
    }
  in
  Array.mapi
    (fun i lp ->
      let inst =
        {
          engine = Lp.engine lp;
          rng = Lp.rng lp;
          config;
          shard = Some (s, i);
          host_handlers = Array.make (Int.max 64 hosts) None;
          switch_handler = None;
          windows = [||];
          lossless = true;
          sent = 0;
          delivered = 0;
          lost = 0;
          partition_dropped = 0;
          undeliverable = 0;
        }
      in
      s.instances.(i) <- Some inst;
      inst)
    lps

let router_defer t ~src ~at fn =
  match t.shard with
  | None -> invalid_arg "Fabric.router_defer: not a sharded router instance"
  | Some (s, _) ->
    let se = check_entity s src "src" in
    let seq = s.eid_seq.(se) in
    s.eid_seq.(se) <- seq + 1;
    Lp.post s.lps.(s.switch_lp) ~at:(at + s.s_lookahead) ~src:se ~seq fn

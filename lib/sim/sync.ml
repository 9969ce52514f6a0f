type t = {
  lps : Lp.t array;
  lookahead : Time.t;
  mutable windows : int;
  (* The current window's horizon, read by [thunks] when they run. *)
  mutable horizon : Time.t;
  (* One per LP, built once: run the LP's engine up to [horizon]. *)
  mutable thunks : (unit -> unit) array;
}

type executor = (unit -> unit) array -> unit

let sequential thunks = Array.iter (fun f -> f ()) thunks

let create ~lookahead lps =
  if lookahead <= 0 then invalid_arg "Sync.create: lookahead must be positive";
  if Array.length lps = 0 then invalid_arg "Sync.create: no logical processes";
  let seen = Hashtbl.create (Array.length lps) in
  Array.iter
    (fun lp ->
      let id = Lp.id lp in
      if Hashtbl.mem seen id then
        invalid_arg (Printf.sprintf "Sync.create: duplicate LP id %d" id);
      Hashtbl.add seen id ())
    lps;
  let t = { lps = Array.copy lps; lookahead; windows = 0; horizon = 0; thunks = [||] } in
  t.thunks <-
    Array.map (fun lp () -> Engine.run ~until:t.horizon (Lp.engine lp)) t.lps;
  t

let lookahead t = t.lookahead
let lps t = Array.copy t.lps
let windows t = t.windows

let executed t =
  Array.fold_left (fun acc lp -> acc + Engine.executed (Lp.engine lp)) 0 t.lps

let drained t =
  Array.for_all
    (fun lp -> Engine.pending (Lp.engine lp) = 0 && Lp.inbox_length lp = 0)
    t.lps

(* Global floor: the earliest instant any LP still owes work at. *)
let floor t =
  let floor = ref None in
  for i = 0 to Array.length t.lps - 1 do
    match (Lp.next_at t.lps.(i), !floor) with
    | Some a, Some b when b <= a -> ()
    | (Some _ as next), _ -> floor := next
    | None, _ -> ()
  done;
  !floor

let run ?until ?(executor = sequential) t =
  (* Everything at or before [u] has run; park every clock at [u],
     matching Engine.run's horizon semantics. *)
  let finish_at u =
    Array.iter (fun lp -> Engine.run ~until:u (Lp.engine lp)) t.lps
  in
  let rec loop () =
    match floor t with
    | None -> Option.iter finish_at until
    | Some f -> (
      match until with
      | Some u when f > u -> finish_at u
      | _ ->
        (* Events strictly below [f + lookahead] are safe: any message
           produced inside this window is stamped at least [lookahead]
           past its send time, hence at or beyond the horizon. *)
        let horizon =
          let h = f + t.lookahead - 1 in
          match until with Some u -> min h u | None -> h
        in
        for i = 0 to Array.length t.lps - 1 do
          Lp.inject t.lps.(i) ~upto:horizon
        done;
        for i = 0 to Array.length t.lps - 1 do
          Lp.set_floor t.lps.(i) horizon
        done;
        t.horizon <- horizon;
        executor t.thunks;
        t.windows <- t.windows + 1;
        loop ())
  in
  loop ()

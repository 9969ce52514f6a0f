(* -- shard-count knob (mirrors Pool's jobs knob) ------------------------- *)

let env_var = "DRACONIS_SHARDS"
let max_shards = Pool.max_jobs

(* Invalid values fail loudly rather than silently running unsharded —
   the same contract as Pool's DRACONIS_JOBS knob. *)
let env_shards () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 && n <= max_shards -> Some n
    | Some n ->
      invalid_arg
        (Printf.sprintf "Shard: %s=%d out of range [1, %d]" env_var n max_shards)
    | None -> invalid_arg (Printf.sprintf "Shard: %s=%S is not an integer" env_var v))

let override = ref None

let shards () =
  match !override with
  | Some n -> n
  | None -> ( match env_shards () with Some n -> n | None -> 1)

let set_shards n =
  if n < 1 || n > max_shards then
    invalid_arg
      (Printf.sprintf
         "Shard.set_shards: %d out of range [1, %d] (the OCaml 5 runtime caps \
          live domains; see Pool.max_jobs)"
         n max_shards);
  override := Some n

(* [None] (nothing requested anywhere) lets call sites that treat
   sharding as opt-in — the real cluster figures — stay on the legacy
   single-engine path unless the user actually asked for shards. *)
let requested () =
  match !override with Some n -> Some n | None -> env_shards ()

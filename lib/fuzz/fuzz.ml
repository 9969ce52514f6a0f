(* Campaign driver: sweep seeds, aggregate per-invariant counters,
   shrink failures into replayable artifacts. *)

type failure = {
  seed : int;
  invariant : string;
  detail : string;
  trace : string list;
  shrunk : Schedule.t;
  shrink_executions : int;
  artifact : string option;
}

type campaign = {
  seeds : int list;
  ops : int;
  bug : Exec.bug option;
  sharded : bool;
  checks : (string * int) list;  (** evaluations per invariant, summed *)
  failures : failure list;
}

let default_ops = 40
let default_shrink_budget = 500

(* Shrinking predicate: the same invariant must fire again, so the
   minimizer cannot drift onto a different bug while deleting ops.
   The sharded legs are expensive, so they only re-run when the
   invariant being chased needs them. *)
let fails_same ?bug invariant s =
  let sharded = String.equal invariant "sharded-consistency" in
  let report = Exec.run_checked ?bug ~sharded s in
  List.exists (fun v -> v.Checker.invariant = invariant) report.Checker.violations

let artifact_path dir seed = Filename.concat dir (Printf.sprintf "seed-%d.fuzz" seed)

let run_campaign ?bug ?(ops = default_ops) ?(shrink_budget = default_shrink_budget)
    ?artifacts ?(sharded = false) ~seeds () =
  let totals = Hashtbl.create 16 in
  List.iter (fun inv -> Hashtbl.replace totals inv 0) Checker.invariants;
  let failures = ref [] in
  List.iter
    (fun seed ->
      let schedule = Gen.schedule ~ops ~seed () in
      let report = Exec.run_checked ?bug ~sharded schedule in
      List.iter
        (fun (inv, n) -> Hashtbl.replace totals inv (Hashtbl.find totals inv + n))
        report.Checker.checks;
      match report.Checker.violations with
      | [] -> ()
      | first :: _ ->
        let { Shrink.schedule = shrunk; executions } =
          Shrink.minimize ~budget:shrink_budget
            ~fails:(fails_same ?bug first.Checker.invariant)
            schedule
        in
        let artifact =
          Option.map
            (fun dir ->
              let path = artifact_path dir seed in
              Schedule.save shrunk path;
              path)
            artifacts
        in
        failures :=
          {
            seed;
            invariant = first.Checker.invariant;
            detail = first.Checker.detail;
            trace = first.Checker.trace;
            shrunk;
            shrink_executions = executions;
            artifact;
          }
          :: !failures)
    seeds;
  {
    seeds;
    ops;
    bug;
    sharded;
    checks = List.map (fun inv -> (inv, Hashtbl.find totals inv)) Checker.invariants;
    failures = List.rev !failures;
  }

let ok campaign = campaign.failures = []

(** Invariants whose evaluation counter stayed at zero — a sweep meant
    to exercise everything treats a non-empty answer as failure. *)
let unexercised campaign =
  List.filter_map (fun (inv, n) -> if n = 0 then Some inv else None) campaign.checks

(* -- reports --------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json campaign =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"draconis-fuzz/1\",\n";
  add "  \"seeds\": %d,\n" (List.length campaign.seeds);
  add "  \"ops\": %d,\n" campaign.ops;
  add "  \"bug\": %s,\n"
    (match campaign.bug with
    | None -> "null"
    | Some b -> Printf.sprintf "%S" (Exec.bug_to_string b));
  add "  \"sharded\": %b,\n" campaign.sharded;
  add "  \"checks\": {";
  List.iteri
    (fun i (inv, n) -> add "%s\"%s\": %d" (if i = 0 then "" else ", ") inv n)
    campaign.checks;
  add "},\n";
  add "  \"violations\": %d,\n" (List.length campaign.failures);
  add "  \"failures\": [";
  List.iteri
    (fun i f ->
      add "%s\n    {\"seed\": %d, \"invariant\": \"%s\", \"detail\": \"%s\", \
           \"shrunk_ops\": %d, \"shrink_executions\": %d, \"artifact\": %s}"
        (if i = 0 then "" else ",")
        f.seed (json_escape f.invariant) (json_escape f.detail)
        (List.length f.shrunk.Schedule.ops)
        f.shrink_executions
        (match f.artifact with
        | None -> "null"
        | Some p -> Printf.sprintf "\"%s\"" (json_escape p)))
    campaign.failures;
  if campaign.failures <> [] then add "\n  ";
  add "]\n}\n";
  Buffer.contents buf

let render_text campaign =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "draconis-fuzz: %d seed(s), %d op(s) each%s%s\n"
    (List.length campaign.seeds)
    campaign.ops
    (if campaign.sharded then ", sharded smoke on" else "")
    (match campaign.bug with
    | None -> ""
    | Some b -> Printf.sprintf ", injected bug: %s" (Exec.bug_to_string b));
  add "invariant evaluations:\n";
  List.iter (fun (inv, n) -> add "  %-24s %d\n" inv n) campaign.checks;
  (match unexercised campaign with
  | [] -> ()
  | missing -> add "UNEXERCISED: %s\n" (String.concat ", " missing));
  (match campaign.failures with
  | [] -> add "no invariant violations\n"
  | failures ->
    add "%d failing seed(s):\n" (List.length failures);
    List.iter
      (fun f ->
        add "  seed %d: %s — %s\n" f.seed f.invariant f.detail;
        add "    shrunk to %d op(s) in %d execution(s)%s\n"
          (List.length f.shrunk.Schedule.ops)
          f.shrink_executions
          (match f.artifact with
          | None -> ""
          | Some p -> Printf.sprintf ", artifact: %s" p);
        List.iter (fun line -> add "      | %s\n" line) f.trace)
      failures);
  Buffer.contents buf

let render_report (schedule : Schedule.t) (report : Checker.report) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "schedule: seed=%d capacity=%d policy=%s ops=%d%s\n" schedule.seed
    schedule.capacity
    (Schedule.policy_to_string schedule.policy)
    (List.length schedule.ops)
    (if report.Checker.strict then "" else " (conservation relaxed: lossy run)");
  List.iter (fun (inv, n) -> add "  %-24s %d\n" inv n) report.Checker.checks;
  (match report.Checker.fired with
  | [] -> add "no invariant violations\n"
  | fired ->
    add "%d violation(s):\n" (List.fold_left (fun acc (_, n) -> acc + n) 0 fired);
    List.iter
      (fun (inv, n) ->
        add "  %-24s %d%s\n" inv n
          (if n > Checker.kept_per_invariant then
             Printf.sprintf " (first %d shown)" Checker.kept_per_invariant
           else ""))
      fired;
    List.iter
      (fun v ->
        add "  %s — %s\n" v.Checker.invariant v.Checker.detail;
        List.iter (fun line -> add "    | %s\n" line) v.Checker.trace)
      report.Checker.violations);
  Buffer.contents buf

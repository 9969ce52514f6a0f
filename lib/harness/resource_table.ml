open Draconis_p4
open Draconis_stats

(* Structurally place the real register allocation of the switch
   program onto the profile's stages. *)
let places_structurally profile ~levels ~entries =
  let engine = Draconis_sim.Engine.create () in
  let policy =
    if levels = 1 then Draconis.Policy.Fcfs else Draconis.Policy.Priority { levels }
  in
  let program =
    Draconis.Switch_program.create ~engine ~metrics:(Draconis.Metrics.create engine)
      ~policy ~queue_capacity:entries ()
  in
  Layout.fits (Layout.of_profile profile) (Draconis.Switch_program.registers program)

let run ?quick:_ () =
  let table =
    Table.create
      ~columns:
        [ "switch"; "priority levels"; "max tasks/level"; "fits paper config?";
          "places structurally?" ]
  in
  List.iter
    (fun profile ->
      List.iter
        (fun levels ->
          if levels <= Resources.max_priority_levels profile then begin
            let entries = Resources.max_queue_entries profile ~priority_levels:levels in
            (* Paper claims: 164K-task FCFS queue + up to 4 levels on
               Tofino 1; 1M tasks + up to 12 levels on Tofino 2. *)
            let paper_ok =
              match profile.Resources.name with
              | "Tofino 1" ->
                Resources.fits profile ~queue_entries:164_000 ~priority_levels:1
                && Resources.max_priority_levels profile >= 4
              | _ ->
                Resources.fits profile ~queue_entries:1_000_000 ~priority_levels:1
                && Resources.max_priority_levels profile >= 12
            in
            Table.add_row table
              [
                profile.Resources.name;
                string_of_int levels;
                string_of_int entries;
                Exp_common.yn paper_ok;
                Exp_common.yn (places_structurally profile ~levels ~entries);
              ]
          end)
        [ 1; 4; 12 ])
    [ Resources.tofino1; Resources.tofino2 ];
  Table.add_row table
    [ "Tofino 1"; "max"; string_of_int (Resources.max_priority_levels Resources.tofino1);
      "(level capacity)" ];
  Table.add_row table
    [ "Tofino 2"; "max"; string_of_int (Resources.max_priority_levels Resources.tofino2);
      "(level capacity)" ];
  Table.print ~title:"Sec 7: switch resource estimates" table

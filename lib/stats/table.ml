type t = { columns : string list; mutable rows : string list list }

let create ~columns = { columns; rows = [] }

let add_row t cells =
  let width = List.length t.columns in
  let n = List.length cells in
  let cells =
    if n = width then cells
    else if n < width then cells @ List.init (width - n) (fun _ -> "")
    else List.filteri (fun i _ -> i < width) cells
  in
  t.rows <- t.rows @ [ cells ]

let row_count t = List.length t.rows

let render t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 1024 in
  let render_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  render_row t.columns;
  List.iteri (fun i w -> if i > 0 then Buffer.add_string buf "  ";
               Buffer.add_string buf (String.make w '-')) (Array.to_list widths);
  Buffer.add_char buf '\n';
  List.iter render_row t.rows;
  Buffer.contents buf

(* RFC 4180: quote fields containing a separator, quote, or line break
   (CR or LF), doubling embedded quotes. *)
let csv_field field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let to_csv t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map csv_field row));
      Buffer.add_char buf '\n')
    (t.columns :: t.rows);
  Buffer.contents buf

let csv_dir = ref None
let set_csv_dir dir = csv_dir := dir

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    (String.lowercase_ascii title)

let print ~title t =
  Printf.printf "\n== %s ==\n%s%!" title (render t);
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (slug title ^ ".csv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_csv t))

let us ns = Printf.sprintf "%.2f" (float_of_int ns /. 1e3)
let ktps r = Printf.sprintf "%.1fk" (r /. 1e3)

(* Fixed-width tables: what an experiment reports for the text renderer. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string;  (* printed verbatim under the table *)
}

let make ?(notes = "") ~title ~header rows = { title; header; rows; notes }

let hrule widths =
  print_string "+";
  List.iter (fun w -> print_string (String.make (w + 2) '-' ^ "+")) widths;
  print_newline ()

let row widths cells =
  print_string "|";
  List.iter2 (fun w c -> Printf.printf " %-*s |" w c) widths cells;
  print_newline ()

let print t =
  Printf.printf "\n== %s ==\n" t.title;
  let all = t.header :: t.rows in
  let widths =
    List.mapi
      (fun i _ -> List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) 0 all)
      t.header
  in
  hrule widths;
  row widths t.header;
  hrule widths;
  List.iter (row widths) t.rows;
  hrule widths;
  print_string t.notes

let fint n = string_of_int n
let ffloat f = Printf.sprintf "%.2f" f
let fratio f = Printf.sprintf "%.2fx" f
let fprob p = Printf.sprintf "%.4f" p
let fbool b = if b then "yes" else "NO"

(* The hand-written verdict reference.

   One line per expected race field:

     WORKLOAD | UNIT | race|benign | FIELD LABEL

   and [WORKLOAD | UNIT | none |] for a unit that must report no race
   at all.  Blank lines and lines starting with '#' are ignored.  A
   unit's expected verdict is the set of (field, kind) pairs listed for
   it; a unit that is not listed has no reference, which the benchmark
   treats as a failed verdict. *)

type kind = Race | Benign

let kind_label = function Race -> "race" | Benign -> "benign"

type t = {
  entries : ((string * string) * (string * kind) list) list;
      (** (workload, unit) -> sorted fields, in first-seen unit order *)
}

let parse text =
  let lines = String.split_on_char '\n' text in
  let tbl = Hashtbl.create 64 and order = ref [] and none = Hashtbl.create 8 in
  let err n msg = Error (Printf.sprintf "line %d: %s" n msg) in
  let rec go n = function
    | [] -> Ok ()
    | line :: rest -> (
        let l = String.trim line in
        if l = "" || l.[0] = '#' then go (n + 1) rest
        else
          match List.map String.trim (String.split_on_char '|' l) with
          | [ w; u; k; f ] -> (
              if w = "" || u = "" then err n "empty workload or unit"
              else
                let key = (w, u) in
                let known = Hashtbl.mem tbl key in
                if not known then order := key :: !order;
                let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
                match k with
                | "none" ->
                    if f <> "" then err n "a 'none' line takes no field"
                    else if known then err n ("unit listed twice: " ^ u)
                    else begin
                      Hashtbl.replace tbl key [];
                      Hashtbl.replace none key ();
                      go (n + 1) rest
                    end
                | "race" | "benign" ->
                    let kind = if k = "race" then Race else Benign in
                    if f = "" then err n "missing field label"
                    else if Hashtbl.mem none key then
                      err n ("unit already declared 'none': " ^ u)
                    else if List.mem_assoc f prev then
                      err n ("field listed twice: " ^ f)
                    else begin
                      Hashtbl.replace tbl key ((f, kind) :: prev);
                      go (n + 1) rest
                    end
                | other -> err n (Printf.sprintf "unknown kind %S" other))
          | _ -> err n "expected 'WORKLOAD | UNIT | KIND | FIELD'")
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () ->
      Ok
        {
          entries =
            List.rev_map
              (fun key -> (key, List.sort compare (Hashtbl.find tbl key)))
              !order;
        }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match parse text with
      | Ok t -> Ok t
      | Error msg -> Error (path ^ ": " ^ msg))
  | exception Sys_error msg -> Error msg

let expected t ~workload ~unit = List.assoc_opt (workload, unit) t.entries

let units t ~workload =
  List.filter_map
    (fun ((w, u), _) -> if w = workload then Some u else None)
    t.entries

(* An observed verdict is judged as a set: order and duplicates of the
   observations do not matter. *)
let matches t ~workload ~unit observed =
  match expected t ~workload ~unit with
  | None -> false
  | Some exp -> List.sort_uniq compare observed = exp

(* Every observed (field, kind) is one the unit may report. *)
let within t ~workload ~unit observed =
  match expected t ~workload ~unit with
  | None -> false
  | Some exp -> List.for_all (fun f -> List.mem f exp) observed

(* Metric names, units and the one-line JSON result the benchmark
   prints last on standard output. *)

type t = { name : string; unit : string }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A name starts with a letter or digit and is at most 64 letters,
   digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit is 1 to 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* Every name valid and used once; every unit valid.  Returns the first
   problem found. *)
let check_catalog (ms : t list) =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc m ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          if not (valid_name m.name) then Error ("invalid metric name " ^ m.name)
          else if not (valid_unit m.unit) then
            Error (Printf.sprintf "invalid unit %S for %s" m.unit m.name)
          else if Hashtbl.mem seen m.name then Error ("duplicate metric " ^ m.name)
          else begin
            Hashtbl.add seen m.name ();
            Ok ()
          end)
    (Ok ()) ms

(* A JSON number for a measured value: all significant digits, and a
   non-finite value (a division the benchmark failed to guard) is
   refused rather than printed as something JSON cannot carry. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Metric.json_number: non-finite value"

(* The result line.  [values] must hold exactly the catalog's metrics. *)
let result_line ~correct ~attempted ~failed ~(catalog : t list) values =
  let missing =
    List.filter (fun m -> not (List.mem_assoc m.name values)) catalog
  in
  let extra =
    List.filter (fun (n, _) -> not (List.exists (fun m -> m.name = n) catalog)) values
  in
  (match (missing, extra) with
  | m :: _, _ -> invalid_arg ("Metric.result_line: missing metric " ^ m.name)
  | [], (n, _) :: _ -> invalid_arg ("Metric.result_line: unknown metric " ^ n)
  | [], [] -> ());
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name
             (json_number (List.assoc m.name values))
             m.unit)
         catalog)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed body

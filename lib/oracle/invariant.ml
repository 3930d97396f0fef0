module SM = Map.Make (String)

type t =
  | Order of { before : string; after : string }
  | Atomic of { fields : string list }

(* Labels are arbitrary program strings (source field names, keys).
   The single-line formats use [<] and [,] as separators, so those —
   plus backslash and the line-breaking characters — are \xNN-escaped;
   everything else (spaces included) passes through verbatim. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' | '\t' | '\n' | '\r' | ',' | '<' ->
          Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '\\' then
      let hex c = match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
      (* Two hex digits exactly: [int_of_string] alone would also take
         "1_" (digit separators) as 1. *)
      if i + 3 < n && s.[i + 1] = 'x' && hex s.[i + 2] && hex s.[i + 3] then begin
        Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ String.sub s (i + 2) 2)));
        go (i + 4)
      end
      else Error (Printf.sprintf "bad escape in label %S" s)
    else (
      Buffer.add_char buf s.[i];
      go (i + 1))
  in
  go 0

let label = function
  | Order { before; after } ->
      Printf.sprintf "order %s < %s" (escape before) (escape after)
  | Atomic { fields } ->
      Printf.sprintf "atomic %s" (String.concat ", " (List.map escape fields))

let compare a b =
  match (a, b) with
  | Order x, Order y -> (
      match String.compare x.before y.before with
      | 0 -> String.compare x.after y.after
      | c -> c)
  | Order _, Atomic _ -> -1
  | Atomic _, Order _ -> 1
  | Atomic x, Atomic y -> List.compare String.compare x.fields y.fields

let infer entries =
  let stores =
    List.filter_map
      (function
        | Px86.Trace.Store s -> (
            match s.Px86.Event.label with
            | Some l -> Some (l, s)
            | None -> None)
        | _ -> None)
      entries
  in
  (* Per label: [first, last] commit index and the set of cache lines
     touched.  Commit order is the list order {!Px86.Trace.entries}
     guarantees. *)
  let _, spans, lines =
    List.fold_left
      (fun (i, spans, lines) (l, s) ->
        let spans =
          SM.update l
            (function None -> Some (i, i) | Some (f, _) -> Some (f, i))
            spans
        in
        let touched =
          Px86.Addr.lines_covering s.Px86.Event.addr s.Px86.Event.size
        in
        let lines =
          SM.update l
            (function
              | None -> Some touched
              | Some old ->
                  Some
                    (List.sort_uniq Stdlib.compare
                       (List.rev_append touched old)))
            lines
        in
        (i + 1, spans, lines))
      (0, SM.empty, SM.empty) stores
  in
  let labels = SM.bindings spans in
  (* Ordering: every committed store to [a] precedes every committed
     store to [b].  Quadratic in distinct labels, which are few (they
     are source-level field names). *)
  let orders =
    List.concat_map
      (fun (a, (_, last_a)) ->
        List.filter_map
          (fun (b, (first_b, _)) ->
            if a <> b && last_a < first_b then
              Some (Order { before = a; after = b })
            else None)
          labels)
      labels
  in
  (* Atomicity: labels confined to a single cache line, grouped by that
     line; groups of >= 2 persist as a unit. *)
  let by_line = Hashtbl.create 8 in
  SM.iter
    (fun l -> function
      | [ line ] ->
          Hashtbl.replace by_line line
            (l :: (try Hashtbl.find by_line line with Not_found -> []))
      | _ -> ())
    lines;
  let atomics =
    Hashtbl.fold
      (fun _line members acc ->
        match List.sort String.compare members with
        | _ :: _ :: _ as fields -> Atomic { fields } :: acc
        | _ -> acc)
      by_line []
  in
  List.sort_uniq compare (orders @ atomics)

let to_lines invs =
  String.concat "" (List.map (fun i -> label i ^ "\n") invs)

let of_lines text =
  let parse_label s =
    match unescape (String.trim s) with
    | Ok l when l <> "" -> Ok l
    | Ok _ -> Error "empty label"
    | Error e -> Error e
  in
  let parse_line ln line =
    if String.length line >= 6 && String.sub line 0 6 = "order " then
      let body = String.sub line 6 (String.length line - 6) in
      match String.split_on_char '<' body with
      | [ before; after ] -> (
          match (parse_label before, parse_label after) with
          | Ok before, Ok after -> Ok (Some (Order { before; after }))
          | Error e, _ | _, Error e ->
              Error (Printf.sprintf "line %d: %s" ln e))
      | _ -> Error (Printf.sprintf "line %d: malformed order invariant" ln)
    else if String.length line >= 7 && String.sub line 0 7 = "atomic " then
      let body = String.sub line 7 (String.length line - 7) in
      let fields = String.split_on_char ',' body in
      let rec all acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
            match parse_label f with
            | Ok l -> all (l :: acc) rest
            | Error e -> Error (Printf.sprintf "line %d: %s" ln e))
      in
      match all [] fields with
      | Ok (_ :: _ :: _ as fields) -> Ok (Some (Atomic { fields }))
      | Ok _ -> Error (Printf.sprintf "line %d: atomic needs >= 2 fields" ln)
      | Error e -> Error e
    else Error (Printf.sprintf "line %d: unknown invariant %S" ln line)
  in
  let rec go acc ln = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc (ln + 1) rest
        else (
          match parse_line ln line with
          | Ok (Some inv) -> go (inv :: acc) (ln + 1) rest
          | Ok None -> go acc (ln + 1) rest
          | Error e -> Error e)
  in
  go [] 1 (String.split_on_char '\n' text)

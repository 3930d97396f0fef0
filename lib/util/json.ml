type value = [ `S of string | `I of int | `B of bool | `F of float | `Null ]
type t = [ value | `A of t list | `O of (string * t) list ]

let max_depth = 64

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)

let add_string buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s !start (i - !start);
        start := i + 1;
        Buffer.add_string buf
          (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | '\t' -> "\\t"
          | '\b' -> "\\b"
          | '\012' -> "\\f"
          | c -> Printf.sprintf "\\u%04x" (Char.code c))
    | _ -> ()
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* %.17g round-trips every finite float through float_of_string; no
   emitter writes non-finite numbers. *)
let rec add buf (v : t) =
  match v with
  | `S s -> add_string buf s
  | `I n -> Buffer.add_string buf (string_of_int n)
  | `B b -> Buffer.add_string buf (if b then "true" else "false")
  | `F f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | `Null -> Buffer.add_string buf "null"
  | `A vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        vs;
      Buffer.add_char buf ']'
  | `O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        kvs;
      Buffer.add_char buf '}'

let encode v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let encode_obj fields = encode (`O (fields :> (string * t) list))

(* ------------------------------------------------------------------ *)
(* Decoding: recursive descent over the RFC 8259 grammar                *)

exception Bad of int * string

let add_utf8 buf cp =
  let byte b = Buffer.add_char buf (Char.chr b) in
  if cp < 0x80 then byte cp
  else if cp < 0x800 then begin
    byte (0xc0 lor (cp lsr 6));
    byte (0x80 lor (cp land 0x3f))
  end
  else if cp < 0x10000 then begin
    byte (0xe0 lor (cp lsr 12));
    byte (0x80 lor ((cp lsr 6) land 0x3f));
    byte (0x80 lor (cp land 0x3f))
  end
  else begin
    byte (0xf0 lor (cp lsr 18));
    byte (0x80 lor ((cp lsr 12) land 0x3f));
    byte (0x80 lor ((cp lsr 6) land 0x3f));
    byte (0x80 lor (cp land 0x3f))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word (v : t) =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail (Printf.sprintf "bad \\u escape %S" (String.sub s !pos 4))
    in
    let cp = ref 0 in
    for i = 0 to 3 do
      cp := (!cp * 16) + digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !cp
  in
  (* A \u escape; astral codepoints arrive as surrogate pairs, and an
     unpaired surrogate is an error. *)
  let unicode buf =
    let cp = hex4 () in
    if cp < 0xd800 || cp > 0xdfff then add_utf8 buf cp
    else if cp >= 0xdc00 then
      fail (Printf.sprintf "unpaired low surrogate \\u%04X" cp)
    else if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
      fail (Printf.sprintf "unpaired high surrogate \\u%04X" cp)
    else begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xdc00 || lo > 0xdfff then
        fail
          (Printf.sprintf "high surrogate \\u%04X followed by non-low \\u%04X"
             cp lo);
      add_utf8 buf (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop start =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          Buffer.add_substring buf s start (!pos - start);
          incr pos
      | '\\' ->
          Buffer.add_substring buf s start (!pos - start);
          incr pos;
          let plain c =
            Buffer.add_char buf c;
            incr pos
          in
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> plain c
          | Some 'n' -> plain '\n'
          | Some 'r' -> plain '\r'
          | Some 't' -> plain '\t'
          | Some 'b' -> plain '\b'
          | Some 'f' -> plain '\012'
          | Some 'u' ->
              incr pos;
              unicode buf
          | Some c -> fail (Printf.sprintf "bad escape \\%c" c)
          | None -> fail "unterminated escape");
          loop !pos
      | c when Char.code c < 0x20 ->
          fail (Printf.sprintf "control character %C in string" c)
      | _ ->
          incr pos;
          loop start
    in
    loop !pos;
    Buffer.contents buf
  in
  let digits () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected digit"
  in
  (* -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let number () : t =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt tok else None with
    | Some i -> `I i
    | None -> `F (float_of_string tok)
  in
  (* The members of an array or object at nesting [depth]: [elem]
     parses one, [close] ends the container. *)
  let elements depth close elem =
    if depth > max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    incr pos;
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec loop acc =
        let acc = elem () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            loop acc
        | Some c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      loop []
  in
  let rec value depth : t =
    skip_ws ();
    match peek () with
    | Some '{' ->
        `O
          (elements depth '}' (fun () ->
               skip_ws ();
               let k = string_lit () in
               skip_ws ();
               expect ':';
               (k, value (depth + 1))))
    | Some '[' -> `A (elements depth ']' (fun () -> value (depth + 1)))
    | Some '"' -> `S (string_lit ())
    | Some 't' -> literal "true" (`B true)
    | Some 'f' -> literal "false" (`B false)
    | Some 'n' -> literal "null" `Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = value 1 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let flat (v : t) =
  match v with
  | `O kvs ->
      let rec scalars acc = function
        | [] -> Ok (List.rev acc)
        | (k, ((`S _ | `I _ | `B _ | `F _ | `Null) as x)) :: rest ->
            scalars ((k, x) :: acc) rest
        | (k, (`A _ | `O _)) :: _ ->
            Error (Printf.sprintf "field %S: nested value in a flat object" k)
      in
      scalars [] kvs
  | _ -> Error "offset 0: expected an object"

let decode_obj s = Result.bind (parse s) flat

(* ------------------------------------------------------------------ *)
(* JSONL                                                                *)

let of_jsonl decode s =
  let n = String.length s in
  let blank line =
    String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) line
  in
  let rec go lineno start acc =
    if start >= n then
      match acc with
      | [] -> Error (Printf.sprintf "offset 0: empty input (%d byte(s))" n)
      | _ -> Ok (List.rev acc)
    else
      let stop = Option.value ~default:n (String.index_from_opt s start '\n') in
      let line = String.sub s start (stop - start) in
      if blank line then go (lineno + 1) (stop + 1) acc
      else
        match Result.bind (parse line) decode with
        | Ok x -> go (lineno + 1) (stop + 1) (x :: acc)
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
  in
  go 1 0 []

(* Unit and property tests for the utility library: vector clocks,
   the deterministic RNG, table rendering, and the JSON codec. *)

module Clockvec = Yashme_util.Clockvec
module Json = Yashme_util.Json
module Rng = Yashme_util.Rng
module Pretty = Yashme_util.Pretty

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Clockvec unit tests                                                  *)

let test_empty () =
  check_int "empty get" 0 (Clockvec.get Clockvec.empty 3);
  check "empty leq itself" true (Clockvec.leq Clockvec.empty Clockvec.empty);
  check "empty equals of_list []" true (Clockvec.equal Clockvec.empty (Clockvec.of_list []))

let test_set_get () =
  let cv = Clockvec.set Clockvec.empty 2 5 in
  check_int "set then get" 5 (Clockvec.get cv 2);
  check_int "other component zero" 0 (Clockvec.get cv 1);
  let cv0 = Clockvec.set cv 2 0 in
  check "setting zero removes" true (Clockvec.equal cv0 Clockvec.empty)

let test_set_negative () =
  Alcotest.check_raises "negative clock" (Invalid_argument "Clockvec.set: negative clock")
    (fun () -> ignore (Clockvec.set Clockvec.empty 0 (-1)))

let test_tick () =
  let cv = Clockvec.tick (Clockvec.tick Clockvec.empty 1) 1 in
  check_int "tick twice" 2 (Clockvec.get cv 1)

let test_join () =
  let a = Clockvec.of_list [ (0, 3); (1, 1) ] in
  let b = Clockvec.of_list [ (1, 4); (2, 2) ] in
  let j = Clockvec.join a b in
  check_int "join keeps max (0)" 3 (Clockvec.get j 0);
  check_int "join keeps max (1)" 4 (Clockvec.get j 1);
  check_int "join keeps max (2)" 2 (Clockvec.get j 2)

let test_orders () =
  let a = Clockvec.of_list [ (0, 1) ] in
  let b = Clockvec.of_list [ (0, 2); (1, 1) ] in
  let c = Clockvec.of_list [ (1, 5) ] in
  check "a leq b" true (Clockvec.leq a b);
  check "b not leq a" false (Clockvec.leq b a);
  check "a lt b" true (Clockvec.lt a b);
  check "a not lt a" false (Clockvec.lt a a);
  check "a concurrent c" true (Clockvec.concurrent a c);
  check "a not concurrent b" false (Clockvec.concurrent a b)

let test_to_list_sorted () =
  let cv = Clockvec.of_list [ (5, 1); (0, 2); (3, 9) ] in
  Alcotest.(check (list (pair int int)))
    "sorted bindings" [ (0, 2); (3, 9); (5, 1) ] (Clockvec.to_list cv)

let test_pp () =
  let cv = Clockvec.of_list [ (0, 2); (1, 7) ] in
  Alcotest.(check string) "rendering" "<0:2, 1:7>" (Format.asprintf "%a" Clockvec.pp cv)

(* ------------------------------------------------------------------ *)
(* Clockvec properties                                                  *)

let cv_gen =
  QCheck.Gen.(
    map Clockvec.of_list
      (list_size (int_bound 6) (pair (int_bound 4) (int_bound 20))))

let cv_arb = QCheck.make ~print:(Format.asprintf "%a" Clockvec.pp) cv_gen

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:200 (QCheck.pair cv_arb cv_arb)
    (fun (a, b) -> Clockvec.equal (Clockvec.join a b) (Clockvec.join b a))

let prop_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:200
    (QCheck.triple cv_arb cv_arb cv_arb) (fun (a, b, c) ->
      Clockvec.equal
        (Clockvec.join a (Clockvec.join b c))
        (Clockvec.join (Clockvec.join a b) c))

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:200 cv_arb (fun a ->
      Clockvec.equal (Clockvec.join a a) a)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:200 (QCheck.pair cv_arb cv_arb)
    (fun (a, b) ->
      let j = Clockvec.join a b in
      Clockvec.leq a j && Clockvec.leq b j)

let prop_leq_antisymmetric =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:200 (QCheck.pair cv_arb cv_arb)
    (fun (a, b) -> (not (Clockvec.leq a b && Clockvec.leq b a)) || Clockvec.equal a b)

let prop_tick_increases =
  QCheck.Test.make ~name:"tick strictly increases" ~count:200
    (QCheck.pair cv_arb QCheck.(int_bound 4)) (fun (a, tid) ->
      Clockvec.lt a (Clockvec.tick a tid))

(* Differential: the dense-array clock vector against the Int-map
   representation it replaced, kept here as a test-only reference. *)
module Ref_clockvec = struct
  module Imap = Map.Make (Int)

  let get cv tid = match Imap.find_opt tid cv with Some c -> c | None -> 0
  let set cv tid clk = if clk = 0 then Imap.remove tid cv else Imap.add tid clk cv
  let join a b = Imap.union (fun _ x y -> Some (max x y)) a b
  let leq a b = Imap.for_all (fun tid c -> c <= get b tid) a
  let equal a b = Imap.equal Int.equal a b
end

type cv_op = Cv_set of int * int * int | Cv_tick of int * int | Cv_join of int * int

let prop_matches_map_model =
  QCheck.Test.make ~name:"dense clock vector matches the map model" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 40)
           (frequency
              [
                ( 3,
                  map3
                    (fun i tid clk -> Cv_set (i, tid, clk))
                    (int_bound 3) (int_bound 5) (int_bound 6) );
                (3, map2 (fun i tid -> Cv_tick (i, tid)) (int_bound 3) (int_bound 5));
                (2, map2 (fun i j -> Cv_join (i, j)) (int_bound 3) (int_bound 3));
              ])))
    (fun ops ->
      let dense = Array.make 4 Clockvec.empty and model = Array.make 4 Ref_clockvec.Imap.empty in
      List.iter
        (function
          | Cv_set (i, tid, clk) ->
              dense.(i) <- Clockvec.set dense.(i) tid clk;
              model.(i) <- Ref_clockvec.set model.(i) tid clk
          | Cv_tick (i, tid) ->
              dense.(i) <- Clockvec.tick dense.(i) tid;
              model.(i) <- Ref_clockvec.set model.(i) tid (Ref_clockvec.get model.(i) tid + 1)
          | Cv_join (i, j) ->
              dense.(i) <- Clockvec.join dense.(i) dense.(j);
              model.(i) <- Ref_clockvec.join model.(i) model.(j))
        ops;
      let pairs = List.concat_map (fun i -> List.init 4 (fun j -> (i, j))) [ 0; 1; 2; 3 ] in
      Array.for_all2
        (fun d m -> Clockvec.to_list d = Ref_clockvec.Imap.bindings m)
        dense model
      && List.for_all
           (fun (i, j) ->
             Clockvec.leq dense.(i) dense.(j) = Ref_clockvec.leq model.(i) model.(j)
             && Clockvec.equal dense.(i) dense.(j) = Ref_clockvec.equal model.(i) model.(j)
             && List.for_all
                  (fun tid -> Clockvec.get dense.(i) tid = Ref_clockvec.get model.(i) tid)
                  [ 0; 1; 2; 3; 4; 5; 6 ])
           pairs)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    check "float in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  check_int "copies agree" (Rng.int a 100) (Rng.int b 100)

let test_rng_split_differs () =
  let a = Rng.create 4 in
  let b = Rng.split a in
  let sa = List.init 10 (fun _ -> Rng.int a 1000) in
  let sb = List.init 10 (fun _ -> Rng.int b 1000) in
  check "split streams differ" true (sa <> sb)

let test_rng_pick () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    check "pick from list" true (List.mem (Rng.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r ([] : int list)))

let test_rng_shuffle_permutation () =
  let r = Rng.create 6 in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let ys = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_rng_bad_bound () =
  let r = Rng.create 8 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* ------------------------------------------------------------------ *)
(* Pretty                                                               *)

let test_pad () =
  Alcotest.(check string) "pads" "ab  " (Pretty.pad 4 "ab");
  Alcotest.(check string) "no truncation" "abcdef" (Pretty.pad 3 "abcdef")

let test_hex () =
  Alcotest.(check string) "hex64" "0x00000000deadbeef" (Pretty.hex64 0xdeadbeefL)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table () =
  let t = Pretty.table ~header:[ "a"; "bb" ] [ [ "ccc"; "d" ] ] in
  check "has rule line" true (String.contains t '-');
  check "contains header" true (contains ~needle:"bb" t);
  check "contains cell" true (contains ~needle:"ccc" t);
  Alcotest.(check int) "three lines" 3 (List.length (String.split_on_char '\n' t))

(* ------------------------------------------------------------------ *)
(* JSON: one grammar, pinned by one table                               *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [Flat]: a flat object, accepted by [parse] and [decode_obj].
   [Json]: valid JSON that is not a flat object ([decode_obj] rejects).
   [Bad]: malformed; both reject with an ["offset N: "] error. *)
type verdict = Flat | Json | Bad

let grammar_table =
  [
    (* well-formed *)
    ({|{}|}, Flat);
    ({| {"s":"x\u0041\n\/","i":-3,"f":1.5e-3,"b":false,"n":null} |}, Flat);
    ({|{"big":1.7976931348623157e+308,"z":-0,"e":2E5}|}, Flat);
    ({|{"pair":"\ud83d\ude00"}|}, Flat);
    ({|[]|}, Json);
    ({|null|}, Json);
    ({|-1.5e3|}, Json);
    ({|"\ud800\udc00"|}, Json);
    ({|{"a":[1,true,"x\u0041"]}|}, Json);
    ({|{"a":{"b":1}}|}, Json);
    ({|{"a":[1]}|}, Json);
    (* malformed *)
    ("", Bad);
    ("  \n ", Bad);
    ("{", Bad);
    ("[1,]", Bad);
    ({|{"a":}|}, Bad);
    ({|{"a" 1}|}, Bad);
    ({|"unterminated|}, Bad);
    ({|{"a":"oops|}, Bad);
    ({|{"a":1} trailing|}, Bad);
    ({|{"a":1} x|}, Bad);
    ("nulll", Bad);
    ("[1 2]", Bad);
    ({|{"bad\x":1}|}, Bad);
    ({|{"a":yes}|}, Bad);
    ({|{"a":01}|}, Bad);
    ({|{"a":-}|}, Bad);
    ({|{"a":1e}|}, Bad);
    ({|{"a":"\u12"}|}, Bad);
    ({|{"a":"\u00g1"}|}, Bad);
    ({|{"a":"\udc00"}|}, Bad);
    ({|{"a":"\ud800A"}|}, Bad);
    ({|{"a":"\ud800"}|}, Bad);
    (* the inputs the corpus decoder and the trace linter used to
       disagree on *)
    ({|{"n":0x10}|}, Bad);
    ({|{"n":1_000}|}, Bad);
    ({|{"n":+5}|}, Bad);
    ({|{"n":1.}|}, Bad);
    ("{\"s\":\"a\x01b\"}", Bad);
    ({|"\ud800"|}, Bad);
  ]

let test_json_rejects_malformed () =
  List.iter
    (fun (s, verdict) ->
      (match (Json.parse s, verdict) with
      | Ok _, (Flat | Json) -> ()
      | Error e, Bad ->
          check (Printf.sprintf "parse %S: positioned error" s) true
            (starts_with "offset " e)
      | Ok _, Bad -> Alcotest.failf "parse accepted malformed %S" s
      | Error e, _ -> Alcotest.failf "parse rejected %S: %s" s e);
      match (Json.decode_obj s, verdict) with
      | Ok _, Flat | Error _, (Json | Bad) -> ()
      | Ok _, _ -> Alcotest.failf "decode_obj accepted %S" s
      | Error e, Flat -> Alcotest.failf "decode_obj rejected %S: %s" s e)
    grammar_table

let test_json_numbers () =
  let num s = Json.parse s in
  check "int token is `I" true (num "42" = Ok (`I 42));
  check "max_int is `I" true (num (string_of_int max_int) = Ok (`I max_int));
  check "past max_int is `F" true
    (num "4611686018427387904" = Ok (`F 4611686018427387904.));
  check "fraction is `F" true (num "2.0" = Ok (`F 2.));
  check "exponent is `F" true (num "1e2" = Ok (`F 100.))

let test_json_nesting_bound () =
  let nest n = String.make n '[' ^ String.make n ']' in
  check "max_depth levels accepted" true
    (Result.is_ok (Json.parse (nest Json.max_depth)));
  let deep = 1_000_000 in
  match Json.parse (String.make deep '[') with
  | Ok _ -> Alcotest.fail "accepted unbounded nesting"
  | Error e ->
      Alcotest.(check string)
        "positioned at the first level past the bound"
        (Printf.sprintf "offset %d: nesting deeper than %d" Json.max_depth
           Json.max_depth)
        e

(* JSONL errors carry physical line numbers: blank lines are skipped
   but still counted. *)
let test_jsonl_physical_lines () =
  let trace =
    "{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"dur\":2}\n\n\n{\"name\":garbage\n"
  in
  (match Json.of_jsonl (fun v -> Ok v) trace with
  | Ok _ -> Alcotest.fail "garbage line accepted"
  | Error e -> check ("syntax error on line 4: " ^ e) true (starts_with "line 4: offset " e));
  (match Json.of_jsonl (fun _ -> Error "no \"bench\" field") "\n\n{}\n" with
  | Ok _ -> Alcotest.fail "decoder error dropped"
  | Error e ->
      Alcotest.(check string) "decoder error on line 3" "line 3: no \"bench\" field" e);
  (match Json.of_jsonl (fun v -> Ok v) "1\r\n\n[2]\n" with
  | Ok vs -> check "CRLF and blank lines tolerated" true (vs = [ `I 1; `A [ `I 2 ] ])
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Json.of_jsonl (fun v -> Ok v) s with
      | Ok _ -> Alcotest.failf "empty input %S accepted" s
      | Error e -> check ("empty input positioned: " ^ e) true (starts_with "offset 0: " e))
    [ ""; "\n\n"; " \t\r\n" ]

(* parse (encode v) = v over nested values with finite floats.  The
   documented exception: an integral float that %.17g renders without
   an exponent reads back as [`I]. *)
let rec integral_floats_as_ints (v : Json.t) : Json.t =
  match v with
  | `F f when Float.is_integer f && Float.abs f < 1e17 -> `I (int_of_float f)
  | `A vs -> `A (List.map integral_floats_as_ints vs)
  | `O kvs -> `O (List.map (fun (k, v) -> (k, integral_floats_as_ints v)) kvs)
  | v -> v

let json_gen : Json.t QCheck.Gen.t =
  QCheck.Gen.(
    let str = string_size ~gen:char (int_bound 8) in
    let scalar : Json.t t =
      oneof
        [
          map (fun s -> `S s) str;
          map (fun i -> `I i) int;
          map (fun b -> `B b) bool;
          map (fun f -> `F (if Float.is_finite f then f else 0.5)) float;
          map (fun i -> `F (float_of_int i)) small_signed_int;
          return `Null;
        ]
    in
    sized_size (int_bound 4)
      (fix (fun self n ->
           if n = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun vs -> `A vs) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map (fun kvs -> `O kvs)
                     (list_size (int_bound 4) (pair str (self (n - 1)))) );
               ])))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (encode v) = v" ~count:500
    (QCheck.make ~print:Json.encode json_gen) (fun v ->
      Json.parse (Json.encode v) = Ok (integral_floats_as_ints v))

let () =
  Alcotest.run "util"
    [
      ( "clockvec",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "set negative" `Quick test_set_negative;
          Alcotest.test_case "tick" `Quick test_tick;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "orders" `Quick test_orders;
          Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "clockvec-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_join_commutative;
            prop_join_associative;
            prop_join_idempotent;
            prop_join_upper_bound;
            prop_leq_antisymmetric;
            prop_tick_increases;
            prop_matches_map_model;
          ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_differs;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bad bound" `Quick test_rng_bad_bound;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "pad" `Quick test_pad;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "table" `Quick test_table;
        ] );
      ( "json",
        [
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "number classes" `Quick test_json_numbers;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
          Alcotest.test_case "jsonl physical line numbers" `Quick
            test_jsonl_physical_lines;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
    ]

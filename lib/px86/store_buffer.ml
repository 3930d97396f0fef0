type entry =
  | Store of Event.store
  | Flush of Event.flush
  | Sfence of Event.fence

type t = entry Ring.t

(* Fills vacated ring slots; never visible through the interface. *)
let vacant =
  Sfence
    { Event.ktid = -1; klclk = 0; kcv = Yashme_util.Clockvec.empty; kkind = Event.Sfence }

let create () = Ring.create vacant
let is_empty = Ring.is_empty
let length = Ring.length
let push = Ring.push
let entries = Ring.to_list

let kind_of_entry = function
  | Store _ -> Reorder.Write
  | Flush { kind = Event.Clflush; _ } -> Reorder.Clflush_k
  | Flush { kind = Event.Clwb; _ } -> Reorder.Clflushopt
  | Sfence _ -> Reorder.Sfence_k

let line_of_entry = function
  | Store s -> Some (Addr.line s.addr)
  | Flush f -> Some (Addr.line f.faddr)
  | Sfence _ -> None

(* Entry [e] may leave the buffer before an older entry [d] only when
   Table 1 does not require d-before-e order. *)
let may_overtake ~older:d ~newer:e =
  let same_line =
    match line_of_entry d, line_of_entry e with
    | Some a, Some b -> a = b
    | _ -> false
  in
  not (Reorder.required ~earlier:(kind_of_entry d) ~later:(kind_of_entry e) ~same_line)

let evictable t =
  let overtakes_all i =
    let e = Ring.get t i in
    let rec ok j = j >= i || (may_overtake ~older:(Ring.get t j) ~newer:e && ok (j + 1)) in
    ok 0
  in
  (* Newest first, so the list comes out in ascending index order. *)
  let rec scan i acc =
    if i < 0 then acc else scan (i - 1) (if overtakes_all i then i :: acc else acc)
  in
  scan (Ring.length t - 1) []

let take = Ring.remove

type forwarding = Covered of Event.store | Partial | Miss

(* Newest matching store wins; scan newest-first. *)
let rec forward_from t addr size i =
  if i < 0 then Miss
  else
    match Ring.get t i with
    | Store s ->
        if Event.store_covers s addr size then Covered s
        else if Event.store_overlaps s addr size then Partial
        else forward_from t addr size (i - 1)
    | Flush _ | Sfence _ -> forward_from t addr size (i - 1)

let forward t ~addr ~size = forward_from t addr size (Ring.length t - 1)

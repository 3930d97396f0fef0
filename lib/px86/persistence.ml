type line_state = {
  mutable stores : Event.store list; (* newest first *)
  mutable cut_lb : int;
}

type t = {
  lines : (int, line_state) Hashtbl.t;
  durable_nt : (int, unit) Hashtbl.t;  (* seq of individually durable stores *)
  mutable log : Event.store list;  (* every committed store once, newest first *)
}

let create () = { lines = Hashtbl.create 64; durable_nt = Hashtbl.create 16; log = [] }

let mark_durable t (s : Event.store) = Hashtbl.replace t.durable_nt s.Event.seq ()
let is_durable_nt t (s : Event.store) = Hashtbl.mem t.durable_nt s.Event.seq

let get_line t line =
  match Hashtbl.find t.lines line with
  | ls -> ls
  | exception Not_found ->
      let ls = { stores = []; cut_lb = 0 } in
      Hashtbl.add t.lines line ls;
      ls

let commit_store t (s : Event.store) =
  t.log <- s :: t.log;
  (* A store may straddle a line boundary; register it on every line it
     touches so flushes of either line cover it. *)
  let last = Addr.line (s.addr + s.size - 1) in
  for line = Addr.line s.addr to last do
    let ls = get_line t line in
    ls.stores <- s :: ls.stores
  done

let flush_line t ~line ~seq =
  let ls = get_line t line in
  if seq > ls.cut_lb then ls.cut_lb <- seq

let line_stores_newest_first t line =
  match Hashtbl.find t.lines line with ls -> ls.stores | exception Not_found -> []

let line_stores t line = List.rev (line_stores_newest_first t line)

let cut_lb t line =
  match Hashtbl.find t.lines line with ls -> ls.cut_lb | exception Not_found -> 0

let lines t = Hashtbl.fold (fun line _ acc -> line :: acc) t.lines [] |> List.sort compare

let iter_committed t f = List.iter f (List.rev t.log)

(* Covering stores all live on the line of [addr] (they touch that line
   by definition), so every search below walks that one list in place,
   newest first.  The walks are top-level functions: a local closure
   over [addr]/[size] would be allocated on every load. *)

let rec newest_covering_in addr size = function
  | [] -> None
  | (s : Event.store) :: rest ->
      if Event.store_covers s addr size then Some s else newest_covering_in addr size rest

let newest_covering t ~addr ~size =
  newest_covering_in addr size (line_stores_newest_first t (Addr.line addr))

let rec latest_in t addr size cut = function
  | [] -> None
  | (s : Event.store) :: rest ->
      if Event.store_covers s addr size && (s.seq <= cut || is_durable_nt t s) then Some s
      else latest_in t addr size cut rest

let latest_at_or_below t ~addr ~size ~cut =
  latest_in t addr size cut (line_stores_newest_first t (Addr.line addr))

let candidates t ~addr ~size =
  let lb = cut_lb t (Addr.line addr) in
  let rec split acc = function
    | [] -> acc (* no definitely-durable base *)
    | (s : Event.store) :: rest ->
        if not (Event.store_covers s addr size) then split acc rest
        else if s.seq <= lb || is_durable_nt t s then s :: acc
          (* s is the base; older stores are overwritten durably *)
        else split (s :: acc) rest
  in
  split [] (line_stores_newest_first t (Addr.line addr))

let durable_seqs t =
  if Hashtbl.length t.durable_nt = 0 then [||]
  else begin
    let a = Array.of_seq (Hashtbl.to_seq_keys t.durable_nt) in
    Array.sort compare a;
    a
  end

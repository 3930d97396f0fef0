type t = Event.flush Ring.t

(* Fills vacated ring slots; never visible through the interface. *)
let vacant =
  { Event.fseq = -1; ftid = -1; flclk = 0; fcv = Yashme_util.Clockvec.empty; faddr = 0;
    kind = Event.Clwb }

let create () = Ring.create vacant
let is_empty = Ring.is_empty
let add = Ring.push

let drain t f =
  (* Pops exactly the entries present at the call: entries [f] adds stay
     buffered. *)
  for _ = 1 to Ring.length t do
    f (Ring.remove t 0)
  done

let pending = Ring.to_list

(* Dense representation: component [tid] lives at index [tid], and the
   array never ends in a zero, so structurally equal arrays are equal
   clock vectors.  Thread ids are small and dense (spawn order), so the
   array is as short as the thread count.  Values are never mutated after
   construction. *)
type t = int array

let empty = [||]
let get cv tid = if tid >= 0 && tid < Array.length cv then cv.(tid) else 0

(* Drop trailing zero components. *)
let trim cv =
  let rec last i = if i >= 0 && cv.(i) = 0 then last (i - 1) else i in
  let n = last (Array.length cv - 1) + 1 in
  if n = Array.length cv then cv else Array.sub cv 0 n

let set cv tid clk =
  if clk < 0 then invalid_arg "Clockvec.set: negative clock"
  else if tid < 0 then invalid_arg "Clockvec.set: negative thread id"
  else if get cv tid = clk then cv
  else if clk = 0 then begin
    let cv' = Array.copy cv in
    cv'.(tid) <- 0;
    trim cv'
  end
  else begin
    let cv' = Array.make (max (Array.length cv) (tid + 1)) 0 in
    Array.blit cv 0 cv' 0 (Array.length cv);
    cv'.(tid) <- clk;
    cv'
  end

let tick cv tid = set cv tid (get cv tid + 1)

let leq a b =
  let rec from i = i >= Array.length a || (a.(i) <= get b i && from (i + 1)) in
  from 0

(* When one side dominates, the join is that side itself: no allocation
   on the common path where a clock only catches up. *)
let join a b =
  if leq a b then b
  else if leq b a then a
  else
    Array.init (max (Array.length a) (Array.length b)) (fun i -> max (get a i) (get b i))

let equal a b =
  Array.length a = Array.length b
  &&
  let rec from i = i >= Array.length a || (a.(i) = b.(i) && from (i + 1)) in
  from 0

let lt a b = leq a b && not (equal a b)
let concurrent a b = (not (leq a b)) && not (leq b a)

let of_list assoc =
  List.fold_left (fun cv (tid, clk) -> set cv tid clk) empty assoc

let to_list cv =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (if cv.(i) = 0 then acc else (i, cv.(i)) :: acc)
  in
  collect (Array.length cv - 1) []

let pp ppf cv =
  let pp_entry ppf (tid, clk) = Format.fprintf ppf "%d:%d" tid clk in
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    (to_list cv)

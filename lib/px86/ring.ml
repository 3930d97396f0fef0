type 'a t = {
  dummy : 'a;
  mutable buf : 'a array;  (* length 0 or a power of two *)
  mutable head : int;  (* slot of the oldest element *)
  mutable len : int;
}

let create dummy = { dummy; buf = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let slot t i = (t.head + i) land (Array.length t.buf - 1)

let grow t =
  let cap = max 4 (2 * Array.length t.buf) in
  let buf = Array.make cap t.dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.(slot t i)
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.(slot t t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  t.buf.(slot t i)

let remove t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.remove: index out of range";
  let x = t.buf.(slot t i) in
  (* Shift the older elements up by one, then drop the oldest slot. *)
  for j = i downto 1 do
    t.buf.(slot t j) <- t.buf.(slot t (j - 1))
  done;
  t.buf.(t.head) <- t.dummy;
  t.head <- slot t 1;
  t.len <- t.len - 1;
  x

let rec collect t i acc = if i < 0 then acc else collect t (i - 1) (get t i :: acc)
let to_list t = collect t (t.len - 1) []

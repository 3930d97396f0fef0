(** Shared formatting helpers for race reports and benchmark tables. *)

(** [hex64 v] renders [v] as [0x%016Lx]. *)
val hex64 : int64 -> string

(** [pad width s] right-pads [s] with spaces to at least [width]. *)
val pad : int -> string -> string

(** [rule width] is a horizontal rule of dashes. *)
val rule : int -> string

(** [columns rows] pads every cell to its column's width and joins each
    row's cells with two spaces (no rule; trailing padding kept).
    [rows] is non-empty and all rows have the same length. *)
val columns : string list list -> string list

(** [table ~header rows] renders an aligned plain-text table. *)
val table : header:string list -> string list list -> string

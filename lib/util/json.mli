(** The one JSON codec: every file Yashme writes or reads as JSON —
    witness corpora, run ledgers, soak manifests, coverage, attribution
    and bench rows, scaling rows, traces — goes through this module.

    The encoder is deterministic (field order preserved, fixed number
    rendering), so equal values always encode to equal bytes.  The
    reader is one recursive-descent parser over the RFC 8259 grammar;
    every error it returns is positioned (["offset N: ..."], and
    ["line N: ..."] in front of that for {!of_jsonl}). *)

(** A scalar: the field type of every flat record (corpus witnesses,
    ledger entries, manifests, coverage/attribution/bench rows). *)
type value = [ `S of string | `I of int | `B of bool | `F of float | `Null ]

(** Any JSON value; [`A] is an array, [`O] an object (member order kept,
    duplicate keys kept). *)
type t = [ value | `A of t list | `O of (string * t) list ]

(** Deepest array/object nesting {!parse} accepts (emitted files nest
    at most 3 deep).  Deeper input is an ["offset N: nesting deeper
    than ..."] error, so hostile input cannot exhaust the stack. *)
val max_depth : int

(** Render a value on one line, without whitespace.  Floats print as
    [%.17g], which round-trips every finite float; non-finite floats
    have no JSON form and must not be encoded. *)
val encode : t -> string

(** [encode] of a flat object; field order is preserved verbatim. *)
val encode_obj : (string * value) list -> string

(** Parse one JSON text (RFC 8259: any value, surrounded by optional
    whitespace).  A number token without fraction or exponent that
    fits an [int] is [`I]; every other number is [`F] (so an integral
    float encoded by {!encode} reads back as [`I]).  Strings must be
    valid: no raw control characters, no unpaired surrogate escapes. *)
val parse : string -> (t, string) result

(** The members of an object whose values are all scalars; anything
    else is an error. *)
val flat : t -> ((string * value) list, string) result

(** [parse] then {!flat}. *)
val decode_obj : string -> ((string * value) list, string) result

(** Read JSONL: one JSON text per physical line, each passed to
    [decode].  Blank lines are skipped but still counted, so errors —
    syntax errors and [decode]'s own — are prefixed with the physical
    ["line N: "].  Input with no non-blank line is an error. *)
val of_jsonl : (t -> ('a, string) result) -> string -> ('a list, string) result

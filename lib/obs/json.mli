(** The toolchain's one JSON reader and writer (no third-party
    dependency): every JSON document it writes comes from {!to_text},
    and every one it reads goes through {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val max_depth : int
(** Arrays and objects nested deeper than this (512) are refused. *)

val parse : string -> (t, string) result
(** Strict parse of a complete document (rejects trailing input).
    Accepts exactly the JSON grammar: numbers as JSON spells them (no
    [+1], [01], [1.] or [.5]), [\uXXXX] escapes with four hex digits
    (decoded to UTF-8), and no raw control characters in strings.
    Nesting beyond {!max_depth} is an [Error], found before the reader
    descends any further, so rejecting a megabyte of ['['] costs
    microseconds.  Never raises. *)

val to_text : t -> string
(** Compact text, object keys in the given order.  Strings escape
    the double quote, backslash and newline as two-character
    sequences and other bytes
    below 0x20 as [\u00XX]; every other byte passes through raw.
    Finite numbers print with [%.17g] (integral values below 1e15 as
    integers), so [parse (to_text v) = Ok v]; non-finite numbers
    print as [null]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_number : t -> float option

(* The one JSON reader and writer in the toolchain (which deliberately
   has no third-party JSON dependency): the wire protocol, the journal,
   the calibration store, the decision log, Chrome traces and the
   BENCH files all go through [to_text], and everything that reads JSON
   back goes through [parse].  [parse] accepts exactly the JSON grammar,
   so whatever [to_text] writes reads back as the same value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

(* Deeper input is refused rather than recursed into: a 1 MiB frame of
   '[' would otherwise hold the single-threaded daemon for a second.
   Every document the toolchain writes nests fewer than ten levels. *)
let max_depth = 512

(* The reader indexes [s] directly; [pos] is the next unread byte.
   Error texts and offsets are part of the interface (the CLI prints
   them), so each check fails at the offset the grammar names. *)
type state = { s : string; len : int; mutable pos : int }

let fail st fmt =
  Printf.ksprintf
    (fun m -> raise (Fail (Printf.sprintf "at offset %d: %s" st.pos m)))
    fmt

let skip_ws st =
  let s = st.s and len = st.len in
  let i = ref st.pos in
  while
    !i < len
    && match String.unsafe_get s !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  st.pos <- !i

(* The next byte, or NUL at the end: callers only compare it with
   punctuation, so a NUL in the input reads as the error it is. *)
let peek st = if st.pos < st.len then String.unsafe_get st.s st.pos else '\000'

let expect st c =
  if st.pos >= st.len then fail st "expected %C, got end of input" c
  else
    let x = String.unsafe_get st.s st.pos in
    if x = c then st.pos <- st.pos + 1 else fail st "expected %C, got %C" c x

let literal st word value =
  let n = String.length word in
  let rec same i =
    i = n || (String.unsafe_get st.s (st.pos + i) = word.[i] && same (i + 1))
  in
  if st.pos + n <= st.len && same 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal"

(* Encode a Unicode scalar value as UTF-8 bytes. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* Index of the first byte at or after [i] that ends a plain run: the
   closing quote, a backslash or a control character ([len] if none). *)
let rec run_end s len i =
  if i >= len then len
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> run_end s len (i + 1)

(* The escape whose backslash is at [st.pos - 1], except the three
   that stand for their own second byte (see [parse_string]). *)
let add_escape st buf c =
  match c with
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
      if st.pos + 4 > st.len then fail st "truncated \\u escape";
      let hex = String.sub st.s st.pos 4 in
      if not (String.for_all is_hex hex) then fail st "bad \\u escape %S" hex;
      add_utf8 buf (int_of_string ("0x" ^ hex));
      st.pos <- st.pos + 4
  | c -> fail st "bad escape \\%C" c

(* A string without escapes is one [String.sub]; with escapes, the
   plain runs between them are copied whole.  The escaped quote,
   backslash and slash decode to their own second byte, so that byte
   starts the next run. *)
let parse_string st =
  expect st '"';
  let s = st.s and len = st.len in
  let start = st.pos in
  let stop = run_end s len start in
  st.pos <- stop;
  if stop >= len then fail st "unterminated string";
  match String.unsafe_get s stop with
  | '"' ->
      st.pos <- stop + 1;
      String.sub s start (stop - start)
  | '\\' ->
      let buf = Buffer.create (min (len - start) 256) in
      Buffer.add_substring buf s start (stop - start);
      let rec go () =
        (* st.pos is at a backslash *)
        st.pos <- st.pos + 1;
        if st.pos >= len then fail st "unterminated escape";
        let c = String.unsafe_get s st.pos in
        st.pos <- st.pos + 1;
        let from =
          match c with
          | '"' | '\\' | '/' -> st.pos - 1
          | c ->
              add_escape st buf c;
              st.pos
        in
        let stop = run_end s len st.pos in
        Buffer.add_substring buf s from (stop - from);
        st.pos <- stop;
        if stop >= len then fail st "unterminated string";
        match String.unsafe_get s stop with
        | '"' -> st.pos <- stop + 1
        | '\\' -> go ()
        | _ -> fail st "unescaped control character"
      in
      go ();
      Buffer.contents buf
  | _ -> fail st "unescaped control character"

(* The JSON number grammar: optional minus, then 0 or digits without a
   leading zero, then optional .digits, then optional e[+-]digits.  A
   plain integer of at most 15 digits is below 2^53, so summing its
   digits gives exactly the double [float_of_string] would. *)
let parse_number st =
  let s = st.s and len = st.len in
  let at i = if i < len then String.unsafe_get s i else '\000' in
  let digits from =
    let i = ref from in
    while match at !i with '0' .. '9' -> true | _ -> false do
      incr i
    done;
    st.pos <- !i;
    if !i = from then fail st "bad number"
  in
  let start = st.pos in
  let int_start = if at start = '-' then start + 1 else start in
  if at int_start = '0' then st.pos <- int_start + 1 else digits int_start;
  let int_end = st.pos in
  if at st.pos = '.' then digits (st.pos + 1);
  (match at st.pos with
  | 'e' | 'E' ->
      let from = st.pos + 1 in
      digits (match at from with '+' | '-' -> from + 1 | _ -> from)
  | _ -> ());
  if st.pos = int_end && int_end - int_start <= 15 then begin
    let n = ref 0 in
    for k = int_start to int_end - 1 do
      n := (!n * 10) + (Char.code (String.unsafe_get s k) - 48)
    done;
    let f = float_of_int !n in
    Num (if int_start > start then -.f else f)
  end
  else Num (float_of_string (String.sub s start (st.pos - start)))

let rec parse_value st depth =
  skip_ws st;
  if st.pos >= st.len then fail st "unexpected end of input";
  match String.unsafe_get st.s st.pos with
  | '{' ->
      if depth >= max_depth then fail st "nesting deeper than %d" max_depth;
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          skip_ws st;
          let c = peek st in
          if c = ',' then begin
            st.pos <- st.pos + 1;
            members ((key, v) :: acc)
          end
          else if c = '}' then begin
            st.pos <- st.pos + 1;
            List.rev ((key, v) :: acc)
          end
          else fail st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | '[' ->
      if depth >= max_depth then fail st "nesting deeper than %d" max_depth;
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          let c = peek st in
          if c = ',' then begin
            st.pos <- st.pos + 1;
            elements (v :: acc)
          end
          else if c = ']' then begin
            st.pos <- st.pos + 1;
            List.rev (v :: acc)
          end
          else fail st "expected ',' or ']'"
        in
        Arr (elements [])
      end
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | _ -> parse_number st

let parse text =
  let st = { s = text; len = String.length text; pos = 0 } in
  match parse_value st 0 with
  | v ->
      skip_ws st;
      if st.pos <> st.len then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Fail m -> Error m

(* Not [List.assoc_opt], whose polymorphic compare is a C call per
   field: a decoder looks up every field it reads, and most keys
   differ from the one sought in length already. *)
let member key = function
  | Obj fields ->
      let n = String.length key in
      let rec find = function
        | [] -> None
        | (k, v) :: rest ->
            if String.length k = n && String.equal k key then Some v
            else find rest
      in
      find fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_number = function Num f -> Some f | _ -> None

(* --- writing ----------------------------------------------------------- *)

let hex_digit = "0123456789abcdef"

(* Quote, backslash and newline get their short escapes, every other
   byte below 0x20 becomes \u00XX, and all remaining bytes (UTF-8
   included) pass through raw. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digit.[Char.code c lsr 4];
          Buffer.add_char buf hex_digit.[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

(* The primitive behind Printf's %g, without Printf's per-call format
   interpretation: the same bytes, at a fraction of the cost. *)
external format_float : string -> float -> string = "caml_format_float"

(* %.17g round-trips every finite double; integral values below 1e15
   take the (equal, cheaper) string_of_int path, except -0. *)
let add_number buf x =
  if Float.is_integer x && Float.abs x < 1e15 && not (Float.sign_bit x && x = 0.)
  then Buffer.add_string buf (string_of_int (int_of_float x))
  else if Float.is_finite x then Buffer.add_string buf (format_float "%.17g" x)
  else Buffer.add_string buf "null"

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_number buf x
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_value buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          add_value buf v)
        fields;
      Buffer.add_char buf '}'

let to_text v =
  let buf = Buffer.create 256 in
  add_value buf v;
  Buffer.contents buf

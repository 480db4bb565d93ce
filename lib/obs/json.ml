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

type state = { s : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf
    (fun m -> raise (Fail (Printf.sprintf "at offset %d: %s" st.pos m)))
    fmt

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st "expected %C, got %C" c x
  | None -> fail st "expected %C, got end of input" c

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
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

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.s then
                  fail st "truncated \\u escape";
                let hex = String.sub st.s st.pos 4 in
                if not (String.for_all is_hex hex) then
                  fail st "bad \\u escape %S" hex;
                add_utf8 buf (int_of_string ("0x" ^ hex));
                st.pos <- st.pos + 4
            | c -> fail st "bad escape \\%C" c);
            go ())
    | Some c when c < ' ' -> fail st "unescaped control character"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

(* The JSON number grammar: optional minus, then 0 or digits without a
   leading zero, then optional .digits, then optional e[+-]digits. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      advance st
    done;
    if st.pos = from then fail st "bad number"
  in
  if peek st = Some '-' then advance st;
  if peek st = Some '0' then advance st else digits ();
  if peek st = Some '.' then begin
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      digits ()
  | _ -> ());
  Num (float_of_string (String.sub st.s start (st.pos - start)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Arr (elements [])
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse text =
  let st = { s = text; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length text then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Fail m -> Error m

let member key = function
  | Obj fields -> List.assoc_opt key fields
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

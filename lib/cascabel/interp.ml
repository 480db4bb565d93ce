open Minic.Ast

type buf = { data : Kernels.Matrix.buf; off : int; len : int; tag : int }

type value = VInt of int | VFloat of float | VBuf of buf | VStr of string | VUnit

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let value_to_string = function
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%g" f
  | VBuf b -> Printf.sprintf "<buffer %d: %d doubles>" b.tag b.len
  | VStr s -> Printf.sprintf "%S" s
  | VUnit -> "void"

type hooks = {
  on_execute : exec_annot -> func -> value list -> value option;
  on_buffer_access : buf -> unit;
}

let no_hooks =
  { on_execute = (fun _ _ _ -> None); on_buffer_access = (fun _ -> ()) }

(* Calls nest at most this deep. Without a bound, runaway recursion
   grows the stack until the process dies instead of failing the run. *)
let max_call_depth = 10_000

(* --- compiled code ---------------------------------------------------- *)

(* Every function is compiled once into closures over a frame: a flat
   array holding its parameters and then one slot per local
   declaration. Name resolution and literal parsing happen at compile
   time. *)
type frame = value array

type control = Normal | Returned of value | Broke | Continued

type fn = {
  fn_func : func;
  fn_params : ctype array;
  mutable fn_slots : int;  (** frame size *)
  mutable fn_body : frame -> control;
}

type t = {
  funcs : (string, fn) Hashtbl.t;
  foreign : (string, fn list) Hashtbl.t;
      (** functions from other units, compiled on their first call *)
  global_slots : (string, int) Hashtbl.t;
  globals : value array;
  hooks : hooks;
  out : Buffer.t;
  mutable fuel : int;
  mutable next_tag : int;
  mutable rng : int;
  mutable depth : int;
}

let out_of_fuel () = fail "interpreter fuel exhausted (runaway loop?)"

let[@inline] tick t =
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then out_of_fuel ()

let alloc t n =
  if n < 0 then fail "negative allocation size";
  t.next_tag <- t.next_tag + 1;
  { data = Kernels.Matrix.create_buf n; off = 0; len = n; tag = t.next_tag }

let buf_of_bigarray data =
  { data; off = 0; len = Bigarray.Array1.dim data; tag = 0 }

(* A global slot holds this until its definition has run; physical
   equality tells it apart from any program value. *)
let unbound = VStr "<unbound>"

(* --- coercions ------------------------------------------------------- *)

let as_int = function
  | VInt n -> n
  | VFloat f -> int_of_float f
  | v -> fail "expected an integer, got %s" (value_to_string v)

let as_float = function
  | VInt n -> float_of_int n
  | VFloat f -> f
  | v -> fail "expected a number, got %s" (value_to_string v)

let truthy = function
  | VInt n -> n <> 0
  | VFloat f -> f <> 0.0
  | VBuf _ | VStr _ -> true
  | VUnit -> fail "void value in condition"

let default_of_type = function
  | Void -> VUnit
  | Float | Double -> VFloat 0.0
  | Pointer _ | Array _ -> VUnit (* uninitialized pointer *)
  | _ -> VInt 0

(* coerce an argument/initializer to a declared type *)
let coerce ty v =
  match (ty, v) with
  | (Float | Double), VInt n -> VFloat (float_of_int n)
  | (Char | Short | Int | Long | Unsigned _), VFloat f -> VInt (int_of_float f)
  | _ -> v

let shift_buf b n =
  let off = b.off + n in
  { b with off; len = b.len - n }

let buf_get t b i =
  t.hooks.on_buffer_access b;
  let idx = b.off + i in
  if i < 0 || i >= b.len || idx >= Bigarray.Array1.dim b.data then
    fail "buffer read out of bounds (index %d of %d)" i b.len;
  b.data.{idx}

let buf_set t b i v =
  t.hooks.on_buffer_access b;
  let idx = b.off + i in
  if i < 0 || i >= b.len || idx >= Bigarray.Array1.dim b.data then
    fail "buffer write out of bounds (index %d of %d)" i b.len;
  b.data.{idx} <- v

(* --- literals ---------------------------------------------------------- *)

let int_literal s =
  let stop = ref (String.length s) in
  (* strip suffixes *)
  while
    !stop > 0
    && (match Char.lowercase_ascii s.[!stop - 1] with
       | 'u' | 'l' -> true
       | _ -> false)
  do
    decr stop
  done;
  match int_of_string_opt (String.sub s 0 !stop) with
  | Some n -> n
  | None -> fail "integer literal %s is out of range" s

let float_literal s =
  let n = String.length s in
  let body =
    if n > 0 && (s.[n - 1] = 'f' || s.[n - 1] = 'F') then String.sub s 0 (n - 1)
    else s
  in
  match float_of_string_opt body with
  | Some f -> f
  | None -> fail "malformed floating literal %s" s

let char_literal = function
  | "\\n" -> Char.code '\n'
  | "\\t" -> Char.code '\t'
  | "\\0" -> 0
  | "\\\\" -> Char.code '\\'
  | s when String.length s = 1 -> Char.code s.[0]
  | s -> fail "unsupported character literal '%s'" s

(* --- operators ------------------------------------------------------- *)

let int_binary op x y =
  match op with
  | Add -> VInt (x + y)
  | Sub -> VInt (x - y)
  | Mul -> VInt (x * y)
  | Div -> if y = 0 then fail "integer division by zero" else VInt (x / y)
  | Mod -> if y = 0 then fail "modulo by zero" else VInt (x mod y)
  | Shl -> VInt (x lsl y)
  | Shr -> VInt (x asr y)
  | Bit_and -> VInt (x land y)
  | Bit_or -> VInt (x lor y)
  | Bit_xor -> VInt (x lxor y)
  | Eq -> VInt (if x = y then 1 else 0)
  | Neq -> VInt (if x <> y then 1 else 0)
  | Lt -> VInt (if x < y then 1 else 0)
  | Gt -> VInt (if x > y then 1 else 0)
  | Le -> VInt (if x <= y then 1 else 0)
  | Ge -> VInt (if x >= y then 1 else 0)
  | And | Or -> assert false

let float_binary op x y =
  match op with
  | Add -> VFloat (x +. y)
  | Sub -> VFloat (x -. y)
  | Mul -> VFloat (x *. y)
  | Div -> VFloat (x /. y)
  | Eq -> VInt (if x = y then 1 else 0)
  | Neq -> VInt (if x <> y then 1 else 0)
  | Lt -> VInt (if x < y then 1 else 0)
  | Gt -> VInt (if x > y then 1 else 0)
  | Le -> VInt (if x <= y then 1 else 0)
  | Ge -> VInt (if x >= y then 1 else 0)
  | Mod -> VFloat (Float.rem x y)
  | _ -> fail "unsupported float operation"

(* A binary operator on evaluated operands ([And]/[Or] short-circuit
   and never get here). *)
let binary op va vb =
  match (op, va, vb) with
  | _, VInt x, VInt y -> int_binary op x y
  | _, VFloat x, VFloat y -> float_binary op x y
  (* pointer arithmetic *)
  | Add, VBuf buf, VInt n | Add, VInt n, VBuf buf -> VBuf (shift_buf buf n)
  | Sub, VBuf buf, VInt n -> VBuf (shift_buf buf (-n))
  | Sub, VBuf x, VBuf y when x.tag = y.tag -> VInt (x.off - y.off)
  | (Eq | Neq | Lt | Gt | Le | Ge), VBuf x, VBuf y when x.tag = y.tag ->
      let cmp =
        match op with
        | Eq -> x.off = y.off
        | Neq -> x.off <> y.off
        | Lt -> x.off < y.off
        | Gt -> x.off > y.off
        | Le -> x.off <= y.off
        | Ge -> x.off >= y.off
        | _ -> assert false
      in
      VInt (if cmp then 1 else 0)
  | Eq, VBuf x, VBuf y -> VInt (if x.tag = y.tag then 1 else 0)
  | Neq, VBuf x, VBuf y -> VInt (if x.tag <> y.tag then 1 else 0)
  | _, (VInt _ | VFloat _), (VInt _ | VFloat _) ->
      float_binary op (as_float va) (as_float vb)
  | _ ->
      fail "unsupported operands %s and %s" (value_to_string va)
        (value_to_string vb)

(* The arithmetic of compound assignments and increments. *)
let apply_binop op a b =
  match (op, a, b) with
  | Add, VBuf buf, VInt n -> VBuf (shift_buf buf n)
  | _, VInt x, VInt y -> (
      match op with
      | Add | Sub | Mul | Div | Mod | Shl | Shr | Bit_and | Bit_or | Bit_xor ->
          int_binary op x y
      | _ -> fail "unsupported compound operator")
  | _, (VInt _ | VFloat _), (VInt _ | VFloat _) -> (
      let x = as_float a and y = as_float b in
      match op with
      | Add -> VFloat (x +. y)
      | Sub -> VFloat (x -. y)
      | Mul -> VFloat (x *. y)
      | Div -> VFloat (x /. y)
      | _ -> fail "unsupported compound operator")
  | _ -> fail "unsupported compound operands"

let compound_op o =
  match o with
  | "+" -> Add
  | "-" -> Sub
  | "*" -> Mul
  | "/" -> Div
  | "%" -> Mod
  | "&" -> Bit_and
  | "|" -> Bit_or
  | "^" -> Bit_xor
  | "<<" -> Shl
  | ">>" -> Shr
  | _ -> fail "unsupported compound assignment %s=" o

(* --- printf ----------------------------------------------------------- *)

let run_printf t fmt args =
  let args = ref args in
  let next () =
    match !args with
    | [] -> fail "printf: not enough arguments for format %S" fmt
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (* scan flags/width/precision then the conversion *)
      let j = ref (!i + 1) in
      while
        !j < n
        && (match fmt.[!j] with
           | '0' .. '9' | '.' | '-' | '+' | ' ' | '#' | 'l' -> true
           | _ -> false)
      do
        incr j
      done;
      if !j >= n then fail "printf: dangling %% in %S" fmt;
      let spec = String.sub fmt !i (!j - !i + 1) in
      let conv = fmt.[!j] in
      let cleaned =
        (* drop 'l' length modifiers; OCaml formats don't use them *)
        String.concat "" (String.split_on_char 'l' spec)
      in
      (match conv with
      | 'd' | 'i' ->
          let spec = String.map (fun c -> if c = 'i' then 'd' else c) cleaned in
          Buffer.add_string t.out
            (Printf.sprintf (Scanf.format_from_string spec "%d") (as_int (next ())))
      | 'u' ->
          let spec = String.map (fun c -> if c = 'u' then 'd' else c) cleaned in
          Buffer.add_string t.out
            (Printf.sprintf (Scanf.format_from_string spec "%d") (as_int (next ())))
      | 'f' | 'e' | 'g' ->
          (* No NaN's sign: C leaves the sign of an arithmetic result's
             NaN to the compiler. *)
          let x = as_float (next ()) in
          Buffer.add_string t.out
            (Printf.sprintf
               (Scanf.format_from_string cleaned
                  (match conv with
                  | 'f' -> "%f"
                  | 'e' -> "%e"
                  | _ -> "%g"))
               (if Float.is_nan x then Float.abs x else x))
      | 's' -> (
          match next () with
          | VStr s -> Buffer.add_string t.out s
          | v -> Buffer.add_string t.out (value_to_string v))
      | 'c' -> Buffer.add_char t.out (Char.chr (as_int (next ()) land 0xFF))
      | '%' -> Buffer.add_char t.out '%'
      | c -> fail "printf: unsupported conversion %%%c" c);
      i := !j + 1
    end
    else begin
      (* interpret the usual escapes that the lexer kept verbatim *)
      if fmt.[!i] = '\\' && !i + 1 < n then begin
        (match fmt.[!i + 1] with
        | 'n' -> Buffer.add_char t.out '\n'
        | 't' -> Buffer.add_char t.out '\t'
        | 'r' -> Buffer.add_char t.out '\r'
        | '\\' -> Buffer.add_char t.out '\\'
        | '"' -> Buffer.add_char t.out '"'
        | c ->
            Buffer.add_char t.out '\\';
            Buffer.add_char t.out c);
        i := !i + 2
      end
      else begin
        Buffer.add_char t.out fmt.[!i];
        incr i
      end
    end
  done

(* --- builtins ----------------------------------------------------------- *)

(* [m * n] as an element count, refusing products that overflow. *)
let extent m n =
  if n <> 0 && m > max_int / n then
    fail "blas_dgemm: extent %d x %d overflows" m n;
  m * n

let blas_dgemm ~m ~n ~k a b c =
  if m < 0 || n < 0 || k < 0 then
    fail "blas_dgemm: negative extent (m=%d, n=%d, k=%d)" m n k;
  let fits name (x : buf) need =
    if x.off < 0 || need > x.len || x.off + need > Bigarray.Array1.dim x.data
    then
      fail "blas_dgemm: %s needs %d doubles, its buffer has %d" name need
        (max 0 (min x.len (Bigarray.Array1.dim x.data - x.off)))
  in
  let a_need = extent m k and b_need = extent k n and c_need = extent m n in
  fits "A" a a_need;
  fits "B" b b_need;
  fits "C" c c_need;
  (* The packed kernel reads A and B panels while writing C, so the
     regions may share a buffer only when they are disjoint. *)
  let overlaps name (x : buf) need =
    if
      x.data == c.data && need > 0 && c_need > 0
      && x.off < c.off + c_need
      && c.off < x.off + need
    then fail "blas_dgemm: C overlaps %s" name
  in
  overlaps "A" a a_need;
  overlaps "B" b b_need;
  Kernels.Gemm_kernel.gemm ~trans_b:false ~m ~n ~k ~alpha:1.0 ~beta:1.0
    ~a:a.data ~aoff:a.off ~lda:k ~b:b.data ~boff:b.off ~ldb:n ~c:c.data
    ~coff:c.off ~ldc:n ()

let builtin_names =
  [ "malloc"; "calloc"; "free"; "printf"; "sqrt"; "fabs"; "fmax"; "fmin";
    "pow"; "exp"; "log"; "abs"; "rand_double"; "assert_true"; "blas_dgemm" ]

let call_builtin t name argv =
  match (name, argv) with
  | "malloc", [ v ] -> Some (VBuf (alloc t (as_int v / 8)))
  | "calloc", [ n; sz ] -> Some (VBuf (alloc t (as_int n * as_int sz / 8)))
  | "free", [ _ ] -> Some VUnit
  | "printf", VStr fmt :: rest ->
      run_printf t fmt rest;
      Some (VInt 0)
  | "sqrt", [ v ] -> Some (VFloat (sqrt (as_float v)))
  | "fabs", [ v ] -> Some (VFloat (Float.abs (as_float v)))
  | "fmax", [ a; b ] -> Some (VFloat (Float.max_num (as_float a) (as_float b)))
  | "fmin", [ a; b ] -> Some (VFloat (Float.min_num (as_float a) (as_float b)))
  | "pow", [ a; b ] -> Some (VFloat (Float.pow (as_float a) (as_float b)))
  | "exp", [ v ] -> Some (VFloat (exp (as_float v)))
  | "log", [ v ] -> Some (VFloat (log (as_float v)))
  | "abs", [ v ] -> Some (VInt (abs (as_int v)))
  | "rand_double", [] ->
      t.rng <- ((t.rng * 1103515245) + 12345) land 0x3FFFFFFF;
      Some (VFloat (float_of_int t.rng /. 1073741824.0))
  | "assert_true", [ v ] ->
      if truthy v then Some (VInt 0) else fail "assert_true failed"
  | "blas_dgemm", [ m; n; k; VBuf a; VBuf b; VBuf c ] ->
      let m = as_int m and n = as_int n and k = as_int k in
      t.hooks.on_buffer_access a;
      t.hooks.on_buffer_access b;
      t.hooks.on_buffer_access c;
      blas_dgemm ~m ~n ~k a b c;
      Some VUnit
  | _ -> None

(* --- calls ---------------------------------------------------------------- *)

let invoke t fn argv =
  tick t;
  let f = fn.fn_func in
  (match f.f_body with
  | None -> fail "call to prototype %S (no body)" f.f_name
  | Some _ -> ());
  let arity = Array.length fn.fn_params in
  if List.length argv <> arity then
    fail "%s expects %d arguments, got %d" f.f_name arity (List.length argv);
  if t.depth >= max_call_depth then fail "call depth exceeded";
  let frame = Array.make fn.fn_slots VUnit in
  List.iteri (fun i v -> frame.(i) <- coerce fn.fn_params.(i) v) argv;
  t.depth <- t.depth + 1;
  match fn.fn_body frame with
  | exception e ->
      t.depth <- t.depth - 1;
      raise e
  | ctrl -> (
      t.depth <- t.depth - 1;
      match ctrl with
      | Returned v -> coerce f.f_return v
      | Normal -> VUnit
      | Broke | Continued -> fail "break/continue outside a loop in %s" f.f_name)

(* --- compilation ------------------------------------------------------------ *)

module Scope = Map.Make (String)

(* Per-function compile state: the next free frame slot. *)
type cx = { mutable next_slot : int }

let new_slot cx =
  let s = cx.next_slot in
  cx.next_slot <- s + 1;
  s

type var = Local of int | Global of int | Unbound

let resolve t scope name =
  match Scope.find_opt name scope with
  | Some s -> Local s
  | None -> (
      match Hashtbl.find_opt t.global_slots name with
      | Some g -> Global g
      | None -> Unbound)

(* Readers and writers of a variable cell. *)
let var_get t scope name : frame -> value =
  match resolve t scope name with
  | Local s -> fun f -> f.(s)
  | Global g ->
      let gs = t.globals in
      fun _ ->
        let v = gs.(g) in
        if v == unbound then fail "unbound variable %S" name else v
  | Unbound -> fun _ -> fail "unbound variable %S" name

let var_set t scope name : frame -> value -> unit =
  match resolve t scope name with
  | Local s -> fun f v -> f.(s) <- v
  | Global g ->
      let gs = t.globals in
      fun _ v ->
        if gs.(g) == unbound then fail "unbound variable %S" name;
        gs.(g) <- v
  | Unbound -> fun _ _ -> fail "unbound variable %S" name

(* Evaluate argument closures left to right. *)
let eval_args (cargs : (frame -> value) array) f =
  let n = Array.length cargs in
  let rec go i =
    if i = n then []
    else
      let v = cargs.(i) f in
      v :: go (i + 1)
  in
  go 0

let sizeof = function
  | Char -> VInt 1
  | Short -> VInt 2
  | Int | Float | Unsigned _ -> VInt 4
  | _ -> VInt 8

(* The value of a literal or [sizeof], fixed at compile time. A
   malformed literal raises [Runtime_error]. *)
let const_value = function
  | Int_lit s -> Some (VInt (int_literal s))
  | Float_lit s -> Some (VFloat (float_literal s))
  | Char_lit s -> Some (VInt (char_literal s))
  | String_lit s -> Some (VStr s)
  | Sizeof_type ty -> Some (sizeof ty)
  | Sizeof_expr _ -> Some (VInt 8)
  | _ -> None

(* Run statements in order until one leaves the block. *)
let seq (codes : (frame -> control) array) : frame -> control =
  match codes with
  | [||] -> fun _ -> Normal
  | [| a |] -> a
  | [| a; b |] -> fun f -> ( match a f with Normal -> b f | c -> c)
  | _ ->
      let n = Array.length codes in
      fun f ->
        let rec go i =
          if i = n then Normal
          else match codes.(i) f with Normal -> go (i + 1) | c -> c
        in
        go 0

(* Leaves that cannot fail — a local variable, a literal — are read
   in place by the closure of the node that uses them, saving a
   closure call. Their fuel tick stays: one per leaf, in order. *)
type operand = Slot of int | Const of value | Code of (frame -> value)

let code t = function
  | Slot s ->
      fun f ->
        tick t;
        f.(s)
  | Const v ->
      fun _ ->
        tick t;
        v
  | Code c -> c

(* A node with two operands: its own tick, each operand in order, then
   [fn] on their values. *)
let binop t oa ob fn =
  match (oa, ob) with
  | Slot sa, Const vb ->
      fun f ->
        tick t;
        tick t;
        let va = f.(sa) in
        tick t;
        fn va vb
  | Slot sa, Slot sb ->
      fun f ->
        tick t;
        tick t;
        let va = f.(sa) in
        tick t;
        fn va f.(sb)
  | Const va, Slot sb ->
      fun f ->
        tick t;
        tick t;
        tick t;
        fn va f.(sb)
  | Code ca, Const vb ->
      fun f ->
        tick t;
        let va = ca f in
        tick t;
        fn va vb
  | Const va, Code cb ->
      fun f ->
        tick t;
        tick t;
        fn va (cb f)
  | Slot sa, Code cb ->
      fun f ->
        tick t;
        tick t;
        let va = f.(sa) in
        fn va (cb f)
  | _ ->
      let ca = code t oa and cb = code t ob in
      fun f ->
        tick t;
        let va = ca f in
        let vb = cb f in
        fn va vb

let rec cexpr t scope e : frame -> value =
  match e with
  | Int_lit _ | Float_lit _ | Char_lit _ | String_lit _ | Sizeof_type _
  | Sizeof_expr _ -> (
      match Option.get (const_value e) with
      | v ->
          fun _ ->
            tick t;
            v
      (* a malformed literal fails only when it is evaluated *)
      | exception (Runtime_error _ as err) ->
          fun _ ->
            tick t;
            raise err)
  | Ident name -> (
      match resolve t scope name with
      | Local s ->
          fun f ->
            tick t;
            f.(s)
      | Global g ->
          let gs = t.globals in
          fun _ ->
            tick t;
            let v = gs.(g) in
            if v == unbound then fail "unbound variable %S" name else v
      | Unbound ->
          fun _ ->
            tick t;
            fail "unbound variable %S" name)
  | Call (Ident fname, args) -> ccall t scope fname args
  | Call (f, _) ->
      let shown = Minic.Printer.expr_to_string f in
      fun _ ->
        tick t;
        fail "only direct calls are supported (found %s)" shown
  | Index (b, i) -> (
      let get bv iv =
        match bv with
        | VBuf buf -> VFloat (buf_get t buf iv)
        | v -> fail "indexing a non-pointer %s" (value_to_string v)
      in
      (* the hottest node in array loops: both leaves read in place *)
      match (operand t scope b, operand t scope i) with
      | Slot sb, Slot si ->
          fun f ->
            tick t;
            tick t;
            let bv = f.(sb) in
            tick t;
            get bv (as_int f.(si))
      | ob, oi -> binop t ob oi (fun bv iv -> get bv (as_int iv)))
  | Member _ | Arrow _ ->
      fun _ ->
        tick t;
        fail "struct access is not interpreted"
  | Unary (Deref, e) ->
      let ce = cexpr t scope e in
      fun f ->
        tick t;
        (match ce f with
        | VBuf b -> VFloat (buf_get t b 0)
        | v -> fail "dereferencing non-pointer %s" (value_to_string v))
  | Unary (Addr, Index (b, i)) ->
      let cb = cexpr t scope b in
      let ci = cexpr t scope i in
      fun f ->
        tick t;
        let bv = cb f in
        let iv = as_int (ci f) in
        (match bv with
        | VBuf buf -> VBuf (shift_buf buf iv)
        | v -> fail "taking address into non-pointer %s" (value_to_string v))
  | Unary (Addr, Ident name) ->
      let get = var_get t scope name in
      fun f ->
        tick t;
        (match get f with
        | VBuf b -> VBuf b
        | v -> fail "cannot take the address of %s" (value_to_string v))
  | Unary (Addr, _) ->
      fun _ ->
        tick t;
        fail "unsupported address-of expression"
  | Unary (Neg, e) ->
      let ce = cexpr t scope e in
      fun f ->
        tick t;
        (match ce f with
        | VInt n -> VInt (-n)
        | VFloat x -> VFloat (-.x)
        | v -> fail "negating %s" (value_to_string v))
  | Unary (Pos, e) ->
      let ce = cexpr t scope e in
      fun f ->
        tick t;
        ce f
  | Unary (Not, _) | Binary ((And | Or), _, _) ->
      let cb = cbool t scope e in
      fun f -> VInt (if cb f then 1 else 0)
  | Unary (Bit_not, e) ->
      let ce = cexpr t scope e in
      fun f ->
        tick t;
        VInt (lnot (as_int (ce f)))
  | Unary (Pre_inc, lv) -> cincr t scope lv 1 ~post:false
  | Unary (Pre_dec, lv) -> cincr t scope lv (-1) ~post:false
  | Post_inc lv -> cincr t scope lv 1 ~post:true
  | Post_dec lv -> cincr t scope lv (-1) ~post:true
  | Binary (op, a, b) ->
      binop t (operand t scope a) (operand t scope b) (binary op)
  | Assign (op, lhs, rhs) -> cassign t scope op lhs rhs
  | Ternary (c, th, el) ->
      let cc = cbool t scope c in
      let cth = cexpr t scope th in
      let cel = cexpr t scope el in
      fun f ->
        tick t;
        if cc f then cth f else cel f
  | Cast (ty, e) -> (
      let ce = cexpr t scope e in
      match ty with
      | Float | Double ->
          fun f ->
            tick t;
            VFloat (as_float (ce f))
      | Char | Short | Int | Long | Unsigned _ ->
          fun f ->
            tick t;
            VInt (as_int (ce f))
      | _ ->
          fun f ->
            tick t;
            ce f)
  | Comma (a, b) ->
      let ca = cexpr t scope a in
      let cb = cexpr t scope b in
      fun f ->
        tick t;
        ignore (ca f);
        cb f

and operand t scope e =
  match e with
  | Ident name -> (
      match resolve t scope name with
      | Local s -> Slot s
      | Global _ | Unbound -> Code (cexpr t scope e))
  | _ -> (
      match const_value e with
      | Some v -> Const v
      | None | (exception Runtime_error _) -> Code (cexpr t scope e))

(* [truthy] of an expression; [&&], [||] and [!] short-circuit. *)
and cbool t scope e : frame -> bool =
  match e with
  | Binary (And, a, b) ->
      let ca = cbool t scope a and cb = cbool t scope b in
      fun f ->
        tick t;
        ca f && cb f
  | Binary (Or, a, b) ->
      let ca = cbool t scope a and cb = cbool t scope b in
      fun f ->
        tick t;
        ca f || cb f
  | Unary (Not, a) ->
      let ca = cbool t scope a in
      fun f ->
        tick t;
        not (ca f)
  | _ ->
      let ce = cexpr t scope e in
      fun f -> truthy (ce f)

(* The right-hand side is evaluated before any part of the target. *)
and cassign t scope op lhs rhs =
  let crhs = cexpr t scope rhs in
  (* [combine] maps (current value, rhs value) to the stored value;
     [None] is plain assignment, which never reads the target. *)
  let combine =
    Option.map
      (fun o ->
        match compound_op o with
        | bop -> apply_binop bop
        | exception (Runtime_error _ as e) -> fun _ _ -> raise e)
      op
  in
  let store_cell buf iv r =
    let v =
      match combine with
      | None -> r
      | Some c -> c (VFloat (buf_get t buf iv)) r
    in
    let x = as_float v in
    buf_set t buf iv x;
    match v with VFloat _ -> v | _ -> VFloat x
  in
  match lhs with
  | Ident name -> (
      let set = var_set t scope name in
      match (resolve t scope name, combine) with
      | Local s, None ->
          fun f ->
            tick t;
            let v = crhs f in
            f.(s) <- v;
            v
      | _, None ->
          fun f ->
            tick t;
            let v = crhs f in
            set f v;
            v
      | Local s, Some c ->
          fun f ->
            tick t;
            let r = crhs f in
            let v = c f.(s) r in
            f.(s) <- v;
            v
      | _, Some c ->
          let get = var_get t scope name in
          fun f ->
            tick t;
            let r = crhs f in
            let v = c (get f) r in
            set f v;
            v)
  | Index (b, i) -> (
      let store bv iv r =
        match bv with
        | VBuf buf -> store_cell buf iv r
        | v -> fail "assigning into non-pointer %s" (value_to_string v)
      in
      match (operand t scope b, operand t scope i) with
      | Slot sb, Slot si ->
          fun f ->
            tick t;
            let r = crhs f in
            tick t;
            let bv = f.(sb) in
            tick t;
            store bv (as_int f.(si)) r
      | ob, oi ->
          let cb = code t ob and ci = code t oi in
          fun f ->
            tick t;
            let r = crhs f in
            let bv = cb f in
            store bv (as_int (ci f)) r)
  | Unary (Deref, e) ->
      let ce = cexpr t scope e in
      fun f ->
        tick t;
        let r = crhs f in
        (match ce f with
        | VBuf buf -> store_cell buf 0 r
        | v -> fail "assigning through non-pointer %s" (value_to_string v))
  | _ ->
      fun f ->
        tick t;
        ignore (crhs f);
        fail "unsupported assignment target"

and cincr t scope lv delta ~post =
  let one = VInt delta in
  let step old =
    match old with VInt n -> VInt (n + delta) | _ -> apply_binop Add old one
  in
  match lv with
  | Ident name -> (
      match resolve t scope name with
      | Local s ->
          fun f ->
            tick t;
            let old = f.(s) in
            let nv = step old in
            f.(s) <- nv;
            if post then old else nv
      | Global _ | Unbound ->
          let get = var_get t scope name in
          let set = var_set t scope name in
          fun f ->
            tick t;
            let old = get f in
            let nv = step old in
            set f nv;
            if post then old else nv)
  | Index (b, i) ->
      let cb = cexpr t scope b in
      let ci = cexpr t scope i in
      fun f ->
        tick t;
        let bv = cb f in
        let iv = as_int (ci f) in
        (match bv with
        | VBuf buf ->
            let old = VFloat (buf_get t buf iv) in
            let nv = step old in
            buf_set t buf iv (as_float nv);
            if post then old else nv
        | v -> fail "incrementing into non-pointer %s" (value_to_string v))
  | _ ->
      fun _ ->
        tick t;
        fail "unsupported increment target"

(* Builtins win when their argument pattern matches; otherwise the
   call falls through to a user function of the same name. *)
and ccall t scope fname args =
  let cargs = Array.of_list (List.map (cexpr t scope) args) in
  let user = Hashtbl.find_opt t.funcs fname in
  let call_user argv =
    match user with
    | Some fn -> invoke t fn argv
    | None -> fail "call to unknown function %S" fname
  in
  if List.mem fname builtin_names then fun f ->
    tick t;
    let argv = eval_args cargs f in
    match call_builtin t fname argv with
    | Some v -> v
    | None -> call_user argv
  else fun f ->
    tick t;
    call_user (eval_args cargs f)

(* --- statements ---------------------------------------------------------- *)

and cblock t cx scope stmts =
  let _, codes =
    List.fold_left
      (fun (scope, acc) s ->
        let scope, c = cstmt t cx scope s in
        (scope, c :: acc))
      (scope, []) stmts
  in
  seq (Array.of_list (List.rev codes))

(* A declaration's initializer sees the scope before its own name. *)
and cdecl t scope d : frame -> value =
  match d.d_init with
  | Some e ->
      let ce = cexpr t scope e in
      let ty = d.d_type in
      fun f -> coerce ty (ce f)
  | None -> (
      (* Local fixed-size double arrays allocate a buffer. *)
      match d.d_type with
      | Array (Double, Some size) | Array (Float, Some size) ->
          let cs = cexpr t scope size in
          fun f -> VBuf (alloc t (as_int (cs f)))
      | Array (Array ((Double | Float), Some inner), Some outer) ->
          let co = cexpr t scope outer in
          let ci = cexpr t scope inner in
          fun f ->
            let rows = as_int (co f) in
            VBuf (alloc t (rows * as_int (ci f)))
      | ty ->
          let v = default_of_type ty in
          fun _ -> v)

and cdecls t cx scope decls =
  let scope, inits =
    List.fold_left
      (fun (scope, acc) d ->
        let init = cdecl t scope d in
        let s = new_slot cx in
        (Scope.add d.d_name s scope, (s, init) :: acc))
      (scope, []) decls
  in
  let inits = Array.of_list (List.rev inits) in
  (scope, fun f -> Array.iter (fun (s, init) -> f.(s) <- init f) inits)

(* Returns the scope that follows the statement: only declarations
   extend it. *)
and cstmt t cx scope s : int Scope.t * (frame -> control) =
  let sub s = snd (cstmt t cx scope s) in
  match s with
  | Expr_stmt None ->
      ( scope,
        fun _ ->
          tick t;
          Normal )
  | Expr_stmt (Some e) ->
      let ce = cexpr t scope e in
      ( scope,
        fun f ->
          tick t;
          ignore (ce f);
          Normal )
  | Decl_stmt decls ->
      let scope, run = cdecls t cx scope decls in
      ( scope,
        fun f ->
          tick t;
          run f;
          Normal )
  | Block stmts ->
      let body = cblock t cx scope stmts in
      ( scope,
        fun f ->
          tick t;
          body f )
  | If (c, th, el) -> (
      let cc = cbool t scope c in
      let cth = sub th in
      match el with
      | None ->
          ( scope,
            fun f ->
              tick t;
              if cc f then cth f else Normal )
      | Some el ->
          let cel = sub el in
          ( scope,
            fun f ->
              tick t;
              if cc f then cth f else cel f ))
  | While (c, body) ->
      let cc = cbool t scope c in
      let cbody = sub body in
      ( scope,
        fun f ->
          tick t;
          let rec loop () =
            if cc f then
              match cbody f with
              | Normal | Continued -> loop ()
              | Broke -> Normal
              | Returned _ as r -> r
            else Normal
          in
          loop () )
  | Do_while (body, c) ->
      let cc = cbool t scope c in
      let cbody = sub body in
      ( scope,
        fun f ->
          tick t;
          let rec loop () =
            match cbody f with
            | Normal | Continued -> if cc f then loop () else Normal
            | Broke -> Normal
            | Returned _ as r -> r
          in
          loop () )
  | For (init, cond, step, body) ->
      let inner, cinit =
        match init with
        | Some (For_decl decls) -> cdecls t cx scope decls
        | Some (For_expr e) ->
            let ce = cexpr t scope e in
            (scope, fun f -> ignore (ce f))
        | None -> (scope, fun _ -> ())
      in
      let ccond = Option.map (cbool t inner) cond in
      let cstep = Option.map (cexpr t inner) step in
      let cbody = snd (cstmt t cx inner body) in
      ( scope,
        fun f ->
          tick t;
          cinit f;
          let rec loop () =
            let go = match ccond with None -> true | Some c -> c f in
            if not go then Normal
            else
              match cbody f with
              | Normal | Continued ->
                  (match cstep with Some e -> ignore (e f) | None -> ());
                  loop ()
              | Broke -> Normal
              | Returned _ as r -> r
          in
          loop () )
  | Return None ->
      ( scope,
        fun _ ->
          tick t;
          Returned VUnit )
  | Return (Some e) ->
      let ce = cexpr t scope e in
      ( scope,
        fun f ->
          tick t;
          Returned (ce f) )
  | Break ->
      ( scope,
        fun _ ->
          tick t;
          Broke )
  | Continue ->
      ( scope,
        fun _ ->
          tick t;
          Continued )
  | Pragma_stmt (Execute_pragma annot, stmt) -> (scope, cexecute t scope annot stmt)
  | Pragma_stmt (Task_pragma _, stmt) ->
      let scope, c = cstmt t cx scope stmt in
      ( scope,
        fun f ->
          tick t;
          c f )

and cexecute t scope annot stmt =
  match stmt with
  | Expr_stmt (Some (Call (Ident fname, args))) ->
      let cargs = Array.of_list (List.map (cexpr t scope) args) in
      let target = Hashtbl.find_opt t.funcs fname in
      fun f ->
        tick t;
        let argv = eval_args cargs f in
        (match target with
        | None -> fail "execute pragma on unknown function %S" fname
        | Some fn -> (
            match t.hooks.on_execute annot fn.fn_func argv with
            | Some _ -> Normal
            | None ->
                ignore (invoke t fn argv);
                Normal))
  | _ ->
      fun _ ->
        tick t;
        fail "execute pragma must precede a plain function call"

let new_fn (f : func) =
  {
    fn_func = f;
    fn_params = Array.of_list (List.map (fun p -> p.p_type) f.f_params);
    fn_slots = 0;
    fn_body = (fun _ -> Normal);
  }

(* Parameters take the first slots; the body is a block nested in
   their scope, so a local may shadow a parameter. *)
let compile_fn t fn =
  let f = fn.fn_func in
  let cx = { next_slot = 0 } in
  let scope =
    List.fold_left
      (fun scope p -> Scope.add p.p_name (new_slot cx) scope)
      Scope.empty f.f_params
  in
  let body = cblock t cx scope (Option.value ~default:[] f.f_body) in
  fn.fn_body <- body;
  fn.fn_slots <- cx.next_slot

(* --- construction ---------------------------------------------------------- *)

(* "#define NAME value" becomes a global constant when value is a
   literal — enough for the paper's "#define N 8192" style. *)
let define_constant line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | [ "#define"; name; value ] -> (
      match int_of_string_opt value with
      | Some n -> Some (name, VInt n)
      | None -> Option.map (fun f -> (name, VFloat f)) (float_of_string_opt value))
  | _ -> None

let create ?(hooks = no_hooks) ?(fuel = 200_000_000) unit_ =
  let funcs = Hashtbl.create 16 in
  List.iter
    (function
      | Func f when f.f_body <> None -> Hashtbl.replace funcs f.f_name (new_fn f)
      | _ -> ())
    unit_;
  (* Every global name gets its slot up front, so a function may use a
     global defined later in the file. *)
  let global_slots = Hashtbl.create 16 in
  let add_global name =
    if not (Hashtbl.mem global_slots name) then
      Hashtbl.add global_slots name (Hashtbl.length global_slots)
  in
  List.iter
    (function
      | Define line -> Option.iter (fun (n, _) -> add_global n) (define_constant line)
      | Global decls -> List.iter (fun d -> add_global d.d_name) decls
      | _ -> ())
    unit_;
  let t =
    {
      funcs;
      foreign = Hashtbl.create 4;
      global_slots;
      globals = Array.make (Hashtbl.length global_slots) unbound;
      hooks;
      out = Buffer.create 256;
      fuel;
      next_tag = 0;
      rng = 20110516;
      depth = 0;
    }
  in
  Hashtbl.iter (fun _ fn -> compile_fn t fn) funcs;
  List.iter
    (function
      | Define line ->
          Option.iter
            (fun (name, v) -> t.globals.(Hashtbl.find global_slots name) <- v)
            (define_constant line)
      | Global decls ->
          List.iter
            (fun d ->
              let init = cdecl t Scope.empty d in
              t.globals.(Hashtbl.find global_slots d.d_name) <- init [||])
            decls
      | _ -> ())
    unit_;
  t

(* The compiled form of a function value: this unit's own, or one
   from another unit (a repository variant), compiled once. *)
let fn_of t (f : func) =
  match Hashtbl.find_opt t.funcs f.f_name with
  | Some fn when fn.fn_func == f -> fn
  | _ -> (
      let known = Option.value ~default:[] (Hashtbl.find_opt t.foreign f.f_name) in
      match List.find_opt (fun fn -> fn.fn_func == f) known with
      | Some fn -> fn
      | None ->
          let fn = new_fn f in
          compile_fn t fn;
          Hashtbl.replace t.foreign f.f_name (fn :: known);
          fn)

let call_function t f argv = invoke t (fn_of t f) argv

let call t fname argv =
  match call_builtin t fname argv with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt t.funcs fname with
      | Some fn -> invoke t fn argv
      | None -> fail "call to unknown function %S" fname)

let run_main t =
  match Hashtbl.find_opt t.funcs "main" with
  | None -> Error "program has no main function"
  | Some fn -> (
      match invoke t fn [] with
      | VInt n -> Ok n
      | VUnit -> Ok 0
      | v -> Error ("main returned " ^ value_to_string v)
      | exception Runtime_error msg -> Error msg)

let output t = Buffer.contents t.out
let add_output t s = Buffer.add_string t.out s

let global_int t name =
  match Hashtbl.find_opt t.global_slots name with
  | Some g -> ( match t.globals.(g) with VInt n -> Some n | _ -> None)
  | None -> None

open Minic.Ast

type source = { file : string; contents : string }
type slot = Slot_buf | Slot_long | Slot_double
type entry_site = { es_site : Codegen.execute_site; es_slots : slot list }

type t = {
  program_name : string;
  program_unit : Minic.Ast.unit_;
  kernels_unit : Minic.Ast.unit_;
  sources : source list;
  native_variants : (string * string) list;
  all_wrappers : (string * string) list;
  entry : (entry_site array, string) result;
  plan : Compile_plan.t;
}

let header_file = "cascabel_rt.h"
let runtime_file = "cascabel_rt.c"

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let wrapper_symbol v_name = "cascabel_call_" ^ sanitize v_name

(* ------------------------------------------------------------------ *)
(* The exported runtime C API and the serial standalone runtime.       *)

(* The interpreter's builtins where C's differ, for the header and the
   kernels prelude alike: [abs] on its one integer type, C99's [fmin]
   and [fmax] spelled out as OCaml's [Float.min_num] and [max_num] (the
   compiler may fold or inline the libm calls with either zero of a
   tie), and printf's doubles without a NaN's sign, which C leaves to
   the compiler. *)
let builtins_text =
  {|__attribute__((unused)) static long cascabel_abs(long x)
{
  return x < 0 ? -x : x;
}

__attribute__((unused)) static double cascabel_fmin(double x, double y)
{
  if (y > x || (!__builtin_signbit(y) && __builtin_signbit(x)))
    return x != x ? y : x;
  return y != y ? x : y;
}

__attribute__((unused)) static double cascabel_fmax(double x, double y)
{
  if (y > x || (!__builtin_signbit(y) && __builtin_signbit(x)))
    return y != y ? x : y;
  return x != x ? y : x;
}

__attribute__((unused)) static double cascabel_unsigned_nan(double x)
{
  return x != x ? __builtin_fabs(x) : x;
}

#define abs(x) cascabel_abs(x)
#define fmin(x, y) cascabel_fmin(x, y)
#define fmax(x, y) cascabel_fmax(x, y)
|}

(* [malloc] is mapped to [calloc] because the interpreter's [malloc]
   zero-fills; keeping that semantics is part of the bit-identity
   contract between the interpreter and compiled code. [rand_double]
   reproduces the interpreter's LCG (same constants, same seed). *)
let header_text =
  {|/* Cascabel runtime C API (generated by cascabelc --emit-c).
 *
 * The standalone build compiles against this header: the generated
 * program plus cascabel_rt.c, a serial runtime with immediate
 * execution.  The kernels shared object the OCaml engine dlopens does
 * not include it; its own prelude declares prototypes only, and its
 * cascabel_main reaches the engine through a host table.
 */
#ifndef CASCABEL_RT_H
#define CASCABEL_RT_H

#include <stdio.h>
#include <stdlib.h>
#include <math.h>

/* The interpreter's malloc zero-fills; compiled code must agree. */
#define malloc(n) calloc(1, (n))

|}
  ^ builtins_text
  ^ {|
typedef void (*cascabel_task_fn)(void **argv);

void cascabel_init(const char *platform);
void cascabel_shutdown(void);
void cascabel_register_variant(const char *interface_, const char *name,
                               const char *arch, cascabel_task_fn fn);
long cascabel_register(void *data);
long cascabel_register_distributed(void *data, const char *kind, ...);
void *cascabel_data_ptr(long handle);
void cascabel_submit(const char *interface_, const char *group, int argc,
                     void **argv);
void cascabel_wait_all(void);

double rand_double(void);
void assert_true(long cond);

/* C[m x n] += A[m x k] * B[k x n], row-major (cascabel_rt.c). */
void blas_dgemm(long m, long n, long k, const double *A, const double *B,
                double *C);

#endif /* CASCABEL_RT_H */
|}

let runtime_text =
  {|/* Serial standalone Cascabel runtime (generated).
 *
 * The reference semantics: every submit runs the selected variant
 * immediately on the calling thread, so a standalone build of the
 * generated program is bit-identical to the interpreted run.  Host
 * ("cpu") variants win variant selection, matching the paper's rule
 * that programs must always compile for a Master PU.
 */
#include "cascabel_rt.h"

#define CASCABEL_MAX_VARIANTS 256
#define CASCABEL_MAX_HANDLES 4096

static struct {
  const char *interface_;
  const char *name;
  const char *arch;
  cascabel_task_fn fn;
} cascabel_variants[CASCABEL_MAX_VARIANTS];
static int cascabel_variant_count = 0;

static void *cascabel_handles[CASCABEL_MAX_HANDLES];
static int cascabel_handle_count = 0;

void cascabel_init(const char *platform)
{
  (void)platform;
  cascabel_variant_count = 0;
  cascabel_handle_count = 0;
}

void cascabel_shutdown(void) {}

void cascabel_register_variant(const char *interface_, const char *name,
                               const char *arch, cascabel_task_fn fn)
{
  if (cascabel_variant_count >= CASCABEL_MAX_VARIANTS) {
    fprintf(stderr, "cascabel_rt: variant registry full\n");
    exit(1);
  }
  cascabel_variants[cascabel_variant_count].interface_ = interface_;
  cascabel_variants[cascabel_variant_count].name = name;
  cascabel_variants[cascabel_variant_count].arch = arch;
  cascabel_variants[cascabel_variant_count].fn = fn;
  cascabel_variant_count++;
}

long cascabel_register(void *data)
{
  if (cascabel_handle_count >= CASCABEL_MAX_HANDLES) {
    fprintf(stderr, "cascabel_rt: handle registry full\n");
    exit(1);
  }
  cascabel_handles[cascabel_handle_count] = data;
  return (long)cascabel_handle_count++;
}

long cascabel_register_distributed(void *data, const char *kind, ...)
{
  /* Serial execution: the distribution is a no-op, the whole
   * allocation backs the handle. */
  (void)kind;
  return cascabel_register(data);
}

void *cascabel_data_ptr(long handle)
{
  if (handle < 0 || handle >= (long)cascabel_handle_count) {
    fprintf(stderr, "cascabel_rt: bad handle %ld\n", handle);
    exit(1);
  }
  return cascabel_handles[handle];
}

static int cascabel_iface_eq(const char *a, const char *b)
{
  while (*a && *a == *b) {
    a++;
    b++;
  }
  return *a == *b;
}

void cascabel_submit(const char *interface_, const char *group, int argc,
                     void **argv)
{
  int i, pick = -1;
  (void)group;
  (void)argc;
  for (i = 0; i < cascabel_variant_count; i++) {
    if (!cascabel_iface_eq(cascabel_variants[i].interface_, interface_))
      continue;
    if (pick < 0) pick = i;
    if (cascabel_iface_eq(cascabel_variants[i].arch, "cpu")) {
      pick = i;
      break;
    }
  }
  if (pick < 0) {
    fprintf(stderr, "cascabel_rt: no variant registered for %s\n",
            interface_);
    exit(1);
  }
  cascabel_variants[pick].fn(argv);
}

void cascabel_wait_all(void) {}

/* The interpreter's deterministic LCG, same constants and seed. */
static long cascabel_rng = 20110516;

double rand_double(void)
{
  cascabel_rng = (cascabel_rng * 1103515245 + 12345) & 0x3FFFFFFF;
  return (double)cascabel_rng / 1073741824.0;
}

void assert_true(long cond)
{
  if (!cond) {
    fprintf(stderr, "assert_true failed\n");
    exit(1);
  }
}

/* The blas_dgemm library kernel as a plain reference loop, kept small
 * so it compiles fast.  The engine never calls it: there the kernel is
 * the host's packed DGEMM, whose k-blocked, FMA-enabled sums agree with
 * this loop's only to rounding. */
void blas_dgemm(long m, long n, long k, const double *A, const double *B,
                double *C)
{
  long i, j, l;
  for (i = 0; i < m; i++)
    for (j = 0; j < n; j++) {
      double acc = 0.0;
      for (l = 0; l < k; l++)
        acc += A[i * k + l] * B[l * n + j];
      C[i * n + j] += acc;
    }
}
|}

(* The kernels translation unit's prelude: prototypes only, no system
   headers, so the one [cc] run per build stays short. Every runtime
   call, allocation and printf of the unit goes through the host table
   [cascabel_host], which the engine binds when it dlopens the object;
   even [vsnprintf] comes from there: a library that references no
   libc symbol links faster. The table's layout is mirrored by
   [struct cascabel_host] in the runtime's capi_stubs.c. *)
let kernels_prelude =
  {|/* Cascabel kernels library (generated by cascabelc).
 *
 * The compiled task variants, one fixed-ABI wrapper
 * cascabel_call_<variant> per variant, the functions they call and,
 * when the program's main compiles, main itself as cascabel_main.  The
 * engine dlopens the shared object built from this file and binds
 * cascabel_host; every runtime call goes through that table.
 * Prototypes only: no system headers.
 */
double sqrt(double);
double fabs(double);
double pow(double, double);
double exp(double);
double log(double);

|}
  ^ builtins_text
  ^ {|
struct cascabel_host {
  void *(*alloc)(long bytes);
  void (*free)(void *p);
  void (*out)(const char *s, long len);
  void (*submit)(int site, int argc, void **argv);
  void (*wait_all)(void);
  void (*blas_dgemm)(long m, long n, long k, const double *A,
                     const double *B, double *C);
  int (*vsnprintf)(char *s, unsigned long n, const char *fmt,
                   __builtin_va_list ap);
};

const struct cascabel_host *cascabel_host;

/* The library kernel is the host's checked, packed DGEMM. */
#define blas_dgemm(m, n, k, A, B, C) \
  cascabel_host->blas_dgemm(m, n, k, A, B, C)
#define cascabel_host_alloc(bytes) cascabel_host->alloc(bytes)
#define cascabel_host_free(p) cascabel_host->free(p)
#define cascabel_host_submit(site, argc, argv) \
  cascabel_host->submit(site, argc, argv)
#define cascabel_host_wait_all() cascabel_host->wait_all()

__attribute__((unused)) static int cascabel_host_printf(const char *fmt, ...)
{
  char small[256];
  __builtin_va_list ap;
  int n;
  __builtin_va_start(ap, fmt);
  n = cascabel_host->vsnprintf(small, sizeof small, fmt, ap);
  __builtin_va_end(ap);
  if (n < 0) return 0;
  if (n < (int)sizeof small) {
    cascabel_host->out(small, n);
  } else {
    char big[n + 1];
    __builtin_va_start(ap, fmt);
    cascabel_host->vsnprintf(big, sizeof big, fmt, ap);
    __builtin_va_end(ap);
    cascabel_host->out(big, n);
  }
  return 0;
}
|}

let entry_symbol = "cascabel_main"

(* ------------------------------------------------------------------ *)
(* Selections and signatures                                           *)

let kept_variants (out : Codegen.output) =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun (sel : Preselect.selection) -> sel.Preselect.kept)
    out.Codegen.selections
  |> List.filter (fun (v : Repository.variant) ->
         if Hashtbl.mem seen v.v_name then false
         else begin
           Hashtbl.add seen v.v_name ();
           true
         end)

(* Variants of one interface share a signature (enforced at
   registration), so any kept variant describes the submit site. *)
let signature_of (out : Codegen.output) interface =
  List.find_opt
    (fun (sel : Preselect.selection) -> sel.sel_interface = interface)
    out.Codegen.selections
  |> Option.map (fun (sel : Preselect.selection) ->
         match (sel.chosen, sel.kept) with
         | Some v, _ -> v.Repository.v_func.f_params
         | None, v :: _ -> v.Repository.v_func.f_params
         | None, [] -> [])

(* ------------------------------------------------------------------ *)
(* Argument slots: how one parameter travels through void *argv[].     *)

let slot_of_type = function
  | Pointer _ | Array _ -> Ok Slot_buf
  | Int | Long | Char | Short | Unsigned _ -> Ok Slot_long
  | Float | Double -> Ok Slot_double
  | t ->
      Error
        (Printf.sprintf "unsupported parameter type %s in a task signature"
           (Minic.Printer.type_to_string t))

let argv_slot i = Index (Ident "argv", Int_lit (string_of_int i))

(* The wrapper-side cast recovering a parameter from its slot. *)
let unpack_expr i (p : param) =
  let slot = argv_slot i in
  let deref ty = Unary (Deref, Cast (Pointer ty, slot)) in
  match p.p_type with
  | Pointer t -> Cast (Pointer t, slot)
  | Array (t, _) -> Cast (Pointer t, slot)
  | Long -> deref Long
  | (Int | Char | Short) as t -> Cast (t, deref Long)
  | Unsigned t -> Cast (Unsigned t, deref Long)
  | Double -> deref Double
  | Float -> Cast (Float, deref Double)
  | _ -> assert false

let wrapper_func (v : Repository.variant) =
  {
    f_name = wrapper_symbol v.v_name;
    f_return = Void;
    f_params = [ { p_name = "argv"; p_type = Pointer (Pointer Void) } ];
    f_body =
      Some
        [
          Expr_stmt
            (Some
               (Call
                  ( Ident v.v_func.f_name,
                    List.mapi unpack_expr v.v_func.f_params )));
        ];
    f_task = None;
  }

(* ------------------------------------------------------------------ *)
(* What a function's C does and reads                                  *)

let rec decls_of_stmt acc = function
  | Decl_stmt ds -> List.rev_append ds acc
  | Block ss -> List.fold_left decls_of_stmt acc ss
  | If (_, a, b) ->
      let acc = decls_of_stmt acc a in
      Option.fold ~none:acc ~some:(decls_of_stmt acc) b
  | While (_, s) | Do_while (s, _) | Pragma_stmt (_, s) -> decls_of_stmt acc s
  | For (init, _, _, s) ->
      let acc =
        match init with Some (For_decl ds) -> List.rev_append ds acc | _ -> acc
      in
      decls_of_stmt acc s
  | Expr_stmt _ | Return _ | Break | Continue -> acc

let locals_of (f : func) =
  Option.fold ~none:[] ~some:(List.fold_left decls_of_stmt []) f.f_body

type scan = {
  idents : string list;  (** value identifiers read or written *)
  calls : (string * bool) list;
      (** called functions, innermost first; [true] when the call sits
          inside a larger expression *)
  obstacle : string option;
      (** why the body leaves the checked subset (the first construct
          found), said of the function: "uses ..." or "takes ..." *)
  writes : bool;  (** stores through a pointer *)
}

(* The scratch locals of a lowered main's packed submits. *)
let scratch name = String.starts_with ~prefix:"__cascabel_" name

(* C leaves the order of two side effects in one expression, or of a
   side effect and a read, unspecified; the interpreter goes left to
   right. So an assignment, [++] or [--] must be a whole full
   expression ([top]: a statement, an initializer, a condition, a [for]
   init or step, a returned value), and a call inside a larger
   expression must be pure (the compile rule checks that). The right
   side of a top-level assignment to a variable counts as top level:
   the store follows the call.

   A [float] literal ([0.1f]) is a double to the interpreter and a
   float to C. The interpreter takes the address only of an element
   ([&a[i]]) or of a pointer, which it returns unchanged, where C
   would give its address; a scalar's address is an error to it. So
   only [&a[i]] and the lowered submits' [&__cascabel_] slots pass. *)
let scan_func (f : func) =
  let idents = ref [] and calls = ref [] in
  let obstacle = ref None and writes = ref false in
  let unlike why = if !obstacle = None then obstacle := Some why in
  let unsized () = unlike "uses a construct C would size or call differently" in
  let store = function Ident _ -> () | _ -> writes := true in
  let rec expr ~top e =
    let sub = expr ~top:false in
    match e with
    | Float_lit l
      when String.ends_with ~suffix:"f" l || String.ends_with ~suffix:"F" l ->
        unlike ("uses the float literal " ^ l)
    | Int_lit _ | Float_lit _ | Char_lit _ | String_lit _ | Sizeof_type _ -> ()
    | Unary (Addr, a) -> (
        match a with
        | Index _ -> sub a
        | Ident n when scratch n -> sub a
        | _ -> unlike ("takes the address of " ^ Minic.Printer.expr_to_string a))
    | Ident n -> idents := n :: !idents
    | Call (Ident fn, args) ->
        calls := (fn, not top) :: !calls;
        List.iter sub args
    | Comma (a, b) ->
        expr ~top a;
        expr ~top b
    | Assign (_, (Ident _ as a), (Call _ as b)) when top ->
        sub a;
        expr ~top b
    | Assign (_, a, b) ->
        if not top then unsized ();
        store a;
        sub a;
        sub b
    | Unary ((Pre_inc | Pre_dec), a) | Post_inc a | Post_dec a ->
        if not top then unsized ();
        store a;
        sub a
    | Call _ | Member _ | Arrow _ | Sizeof_expr _ ->
        (* The interpreter sizes every expression at 8 bytes and has no
           struct or function pointer. *)
        unsized ()
    | Unary (_, a) | Cast (_, a) -> sub a
    | Index (a, b) | Binary (_, a, b) ->
        sub a;
        sub b
    | Ternary (a, b, c) ->
        sub a;
        sub b;
        sub c
  in
  let full e = expr ~top:true e in
  let rec stmt = function
    | Expr_stmt e -> Option.iter full e
    | Decl_stmt ds -> List.iter (fun d -> Option.iter full d.d_init) ds
    | Block ss -> List.iter stmt ss
    | If (c, a, b) ->
        full c;
        stmt a;
        Option.iter stmt b
    | While (c, s) | Do_while (s, c) ->
        full c;
        stmt s
    | For (init, c, st, s) ->
        (match init with
        | Some (For_expr e) -> full e
        | Some (For_decl ds) ->
            List.iter (fun d -> Option.iter full d.d_init) ds
        | None -> ());
        Option.iter full c;
        Option.iter full st;
        stmt s
    | Return e -> Option.iter full e
    | Break | Continue -> ()
    | Pragma_stmt (_, s) -> stmt s
  in
  Option.iter (List.iter stmt) f.f_body;
  { idents = !idents; calls = !calls; obstacle = !obstacle; writes = !writes }

(* ------------------------------------------------------------------ *)
(* Program lowering: packed argv submits + wrapper function pointers.  *)

let lower_register_variant ~wrappers args =
  match args with
  | [ _; String_lit name; _ ] as orig -> (
      match List.assoc_opt name wrappers with
      | Some sym -> Ok (orig @ [ Ident sym ])
      | None ->
          Error (Printf.sprintf "no wrapper for registered variant %S" name))
  | _ -> Error "cascabel_register_variant has unexpected arguments"

let argv_name site = Printf.sprintf "__cascabel_argv%d" site

let lower_submit ~signature ~site iface group args =
  let n = List.length args in
  if n <> List.length signature then
    Error
      (Printf.sprintf
         "execute site %d for %S passes %d arguments but the variant \
          signature has %d parameters"
         site iface n (List.length signature))
  else begin
    let argv_name = argv_name site in
    let errors = ref [] in
    let scalar_decls = ref [] in
    let packs = ref [] in
    List.iteri
      (fun i (arg, (p : param)) ->
        match slot_of_type p.p_type with
        | Error e -> errors := e :: !errors
        | Ok Slot_buf ->
            packs :=
              Expr_stmt
                (Some
                   (Assign
                      ( None,
                        Index (Ident argv_name, Int_lit (string_of_int i)),
                        Call (Ident "cascabel_data_ptr", [ arg ]) )))
              :: !packs
        | Ok (Slot_long | Slot_double) ->
            let sname = Printf.sprintf "__cascabel_a%d_%d" site i in
            let sty =
              match slot_of_type p.p_type with
              | Ok Slot_long -> Long
              | _ -> Double
            in
            scalar_decls :=
              Decl_stmt [ { d_name = sname; d_type = sty; d_init = None } ]
              :: !scalar_decls;
            packs :=
              Expr_stmt
                (Some
                   (Assign
                      ( None,
                        Index (Ident argv_name, Int_lit (string_of_int i)),
                        Unary (Addr, Ident sname) )))
              :: Expr_stmt (Some (Assign (None, Ident sname, arg)))
              :: !packs)
      (List.combine args signature);
    if !errors <> [] then Error (String.concat "; " (List.rev !errors))
    else
      let slots =
        List.map (fun (p : param) -> Result.get_ok (slot_of_type p.p_type))
          signature
      in
      Ok
        ( Block
           (Decl_stmt
              [
                {
                  d_name = argv_name;
                  d_type =
                    Array (Pointer Void, Some (Int_lit (string_of_int n)));
                  d_init = None;
                };
              ]
            :: List.rev !scalar_decls
           @ List.rev !packs
           @ [
               Expr_stmt
                 (Some
                    (Call
                       ( Ident "cascabel_submit",
                         [
                           String_lit iface;
                           String_lit group;
                           Int_lit (string_of_int n);
                           Ident argv_name;
                         ] )));
             ]),
          slots )
  end

(* Returns the lowered unit and, per execute site in order, its number,
   interface, group and argument slots. *)
let lower_program (out : Codegen.output) ~wrappers =
  let errors = ref [] in
  let site = ref 0 in
  let sites = ref [] in
  (* The mini-C registration call carries the distribution size as an
     advisory symbol that may name a *callee* parameter (e.g. [m] in
     [A:BLOCK:m]) — not a name in scope at the call site. The serial
     C runtime ignores distributions entirely, so the size argument
     is dropped rather than emitted as a dangling identifier. *)
  let lower_decl d =
    match d.d_init with
    | Some (Call (Ident "cascabel_register_distributed", data :: kind :: _))
      ->
        {
          d with
          d_init =
            Some
              (Call (Ident "cascabel_register_distributed", [ data; kind ]));
        }
    | _ -> d
  in
  let rec stmt s =
    match s with
    | Decl_stmt ds -> Decl_stmt (List.map lower_decl ds)
    | Expr_stmt
        (Some (Call (Ident "cascabel_register_variant", args))) -> (
        match lower_register_variant ~wrappers args with
        | Ok args' ->
            Expr_stmt (Some (Call (Ident "cascabel_register_variant", args')))
        | Error e ->
            errors := e :: !errors;
            s)
    | Expr_stmt
        (Some
           (Call
              ( Ident "cascabel_submit",
                String_lit iface :: String_lit group :: args ))) -> (
        incr site;
        match signature_of out iface with
        | None ->
            errors :=
              Printf.sprintf "no selection for interface %S" iface :: !errors;
            s
        | Some signature -> (
            match lower_submit ~signature ~site:!site iface group args with
            | Ok (s', slots) ->
                sites := (!site, iface, group, slots) :: !sites;
                s'
            | Error e ->
                errors := e :: !errors;
                s))
    | Block ss -> Block (List.map stmt ss)
    | If (c, a, b) -> If (c, stmt a, Option.map stmt b)
    | While (c, s) -> While (c, stmt s)
    | Do_while (s, c) -> Do_while (stmt s, c)
    | For (i, c, st, s) -> For (i, c, st, stmt s)
    | Pragma_stmt (p, s) -> Pragma_stmt (p, stmt s)
    | Expr_stmt _ | Return _ | Break | Continue -> s
  in
  let lowered =
    List.map
      (function
        | Func ({ f_body = Some body; _ } as f) ->
            Func { f with f_body = Some (List.map stmt body) }
        | top -> top)
      out.Codegen.gen_unit
  in
  if !errors <> [] then Error (String.concat "\n" (List.rev !errors))
  else Ok (lowered, List.rev !sites)

(* Wrapper prototypes go before the first function so main's
   register_variant calls see them; definitions go last so they can
   call any variant regardless of its position. *)
let splice_wrappers unit_ wrapper_funcs =
  let protos =
    List.map (fun f -> Func { f with f_body = None }) wrapper_funcs
  in
  let defs = List.map (fun f -> Func f) wrapper_funcs in
  let rec insert = function
    | Func _ :: _ as rest -> protos @ rest
    | top :: rest -> top :: insert rest
    | [] -> protos
  in
  insert unit_ @ defs

(* ------------------------------------------------------------------ *)
(* Lowering to the host table                                          *)

let handle_type = Named "cascabel_handle_t"

(* A printf format for C, mirroring the interpreter's printf: [%d],
   [%i] and [%u] print the argument as a signed integer, [%f], [%e]
   and [%g] as a double without a NaN's sign, [%c] its low byte; [l]
   modifiers are dropped. Each argument is cast to what its conversion
   reads, as the interpreter coerces it. Escapes other than the five the
   interpreter expands, and conversions it does not know, keep the
   function interpreted. *)
let entry_printf fmt args =
  let n = String.length fmt in
  let out = Buffer.create n in
  let rec go i args acc =
    if i >= n then
      (* Arguments past the format are evaluated, then ignored. *)
      Ok (Buffer.contents out, List.rev_append acc args)
    else
      match fmt.[i] with
      | '\\' when i + 1 < n ->
          if String.contains "ntr\\\"" fmt.[i + 1] then begin
            Buffer.add_string out (String.sub fmt i 2);
            go (i + 2) args acc
          end
          else Error (Printf.sprintf "printf escape \\%c" fmt.[i + 1])
      | '\\' -> Error "printf format ends in a backslash"
      | '%' when i + 1 >= n ->
          Buffer.add_string out "%%";
          go (i + 1) args acc
      | '%' -> (
          let j = ref (i + 1) in
          while !j < n && String.contains "0123456789.-+ #l" fmt.[!j] do
            incr j
          done;
          if !j >= n then Error "printf format ends inside a conversion"
          else
            let flags =
              String.concat ""
                (String.split_on_char 'l' (String.sub fmt (i + 1) (!j - i - 1)))
            in
            let conv = fmt.[!j] in
            let take ~wrap spec ty =
              match args with
              | [] -> Error "printf has fewer arguments than conversions"
              | a :: rest ->
                  Buffer.add_string out ("%" ^ flags ^ spec);
                  go (!j + 1) rest (wrap (Cast (ty, a)) :: acc)
            in
            match conv with
            | 'd' | 'i' | 'u' -> take "ld" Long ~wrap:Fun.id
            | 'f' | 'e' | 'g' ->
                take (String.make 1 conv) Double ~wrap:(fun a ->
                    Call (Ident "cascabel_unsigned_nan", [ a ]))
            | 'c' -> take "c" Int ~wrap:Fun.id
            | '%' ->
                Buffer.add_string out "%%";
                go (!j + 1) args acc
            | c -> Error (Printf.sprintf "printf conversion %%%c" c))
      | c ->
          Buffer.add_char out c;
          go (i + 1) args acc
  in
  go 0 args []

let rec map_expr f e =
  let m = map_expr f in
  f
    (match e with
    | Call (g, args) -> Call (m g, List.map m args)
    | Index (a, b) -> Index (m a, m b)
    | Binary (op, a, b) -> Binary (op, m a, m b)
    | Comma (a, b) -> Comma (m a, m b)
    | Assign (op, a, b) -> Assign (op, m a, m b)
    | Member (a, n) -> Member (m a, n)
    | Arrow (a, n) -> Arrow (m a, n)
    | Unary (op, a) -> Unary (op, m a)
    | Post_inc a -> Post_inc (m a)
    | Post_dec a -> Post_dec (m a)
    | Cast (t, a) -> Cast (t, m a)
    | Sizeof_expr a -> Sizeof_expr (m a)
    | Ternary (a, b, c) -> Ternary (m a, m b, m c)
    | Int_lit _ | Float_lit _ | Char_lit _ | String_lit _ | Ident _
    | Sizeof_type _ ->
        e)

(* A function as the kernels unit compiles it: runtime calls, the
   allocators and printf go to the host table, registrations vanish, a
   handle is its data pointer and each packed submit names its execute
   site by index. [main] becomes the entry [int cascabel_main(void)]. *)
let lower_host ~site_of_argv (f : func) =
  let errors = ref [] in
  let call name args = Call (Ident name, args) in
  let expr =
    map_expr (function
      | Call (Ident "cascabel_register", [ x ])
      | Call (Ident "cascabel_register_distributed", x :: _)
      | Call (Ident "cascabel_data_ptr", [ x ]) ->
          x
      | Call (Ident "cascabel_submit", [ _; _; argc; (Ident argv as a) ]) as e
        -> (
          match site_of_argv argv with
          | Some site ->
              call "cascabel_host_submit"
                [ Int_lit (string_of_int site); argc; a ]
          | None ->
              errors := "a submit names no execute site" :: !errors;
              e)
      | Call (Ident "cascabel_wait_all", []) -> call "cascabel_host_wait_all" []
      | Call (Ident "malloc", [ x ]) -> call "cascabel_host_alloc" [ x ]
      | Call (Ident "calloc", [ n; sz ]) ->
          call "cascabel_host_alloc" [ Binary (Mul, n, sz) ]
      | Call (Ident "free", [ x ]) -> call "cascabel_host_free" [ x ]
      | Call (Ident "printf", String_lit fmt :: args) as e -> (
          match entry_printf fmt args with
          | Ok (fmt, args) ->
              call "cascabel_host_printf" (String_lit fmt :: args)
          | Error why ->
              errors := why :: !errors;
              e)
      | Call (Ident "printf", _) as e ->
          errors := "printf without a literal format" :: !errors;
          e
      | e -> e)
  in
  let is_main = f.f_name = "main" in
  let decl d =
    {
      d with
      d_type = (if d.d_type = handle_type then Pointer Double else d.d_type);
      d_init = Option.map expr d.d_init;
    }
  in
  let rec stmts ss = List.concat_map stmt ss
  and one s = match stmt s with [ s ] -> s | ss -> Block ss
  and stmt = function
    | Expr_stmt
        (Some
          (Call
            ( Ident
                ( "cascabel_init" | "cascabel_shutdown"
                | "cascabel_register_variant" ),
              _ ))) ->
        []
    | Expr_stmt e -> [ Expr_stmt (Option.map expr e) ]
    | Decl_stmt ds -> [ Decl_stmt (List.map decl ds) ]
    | Block ss -> [ Block (stmts ss) ]
    | If (c, a, b) -> [ If (expr c, one a, Option.map one b) ]
    | While (c, s) -> [ While (expr c, one s) ]
    | Do_while (s, c) -> [ Do_while (one s, expr c) ]
    | For (init, c, st, s) ->
        let init =
          Option.map
            (function
              | For_expr e -> For_expr (expr e)
              | For_decl ds -> For_decl (List.map decl ds))
            init
        in
        [ For (init, Option.map expr c, Option.map expr st, one s) ]
    | Return e when is_main ->
        [ Return (Some (Option.fold ~none:(Int_lit "0") ~some:expr e)) ]
    | Return e -> [ Return (Option.map expr e) ]
    | Pragma_stmt (p, s) -> [ Pragma_stmt (p, one s) ]
    | (Break | Continue) as s -> [ s ]
  in
  let body = stmts (Option.value ~default:[] f.f_body) in
  match !errors with
  | [] when is_main ->
      Ok
        {
          f_name = entry_symbol;
          f_return = Int;
          f_params = [];
          f_body =
            Some
              (match List.rev body with
              | Return _ :: _ -> body
              | _ -> body @ [ Return (Some (Int_lit "0")) ]);
          f_task = None;
        }
  | [] -> Ok { f with f_body = Some body; f_task = None }
  | why :: _ -> Error why

(* ------------------------------------------------------------------ *)
(* The compile rule: does running a function's C match the interpreter *)
(* bit for bit?                                                        *)

(* Math builtins whose C doubles match the interpreter's OCaml floats
   (both are IEEE binary64 operations; [abs], [fmin] and [fmax] are the
   prelude's), and the shim of printf's double arguments. *)
let pure_builtins =
  [ "sqrt"; "fabs"; "fmax"; "fmin"; "pow"; "exp"; "log"; "abs";
    "cascabel_unsigned_nan" ]

(* What compiled code may call besides unit functions that compile: the
   math builtins, the library kernel and the host shims the runtime
   calls, the allocators and printf became. [rand_double] and
   [assert_true] are missing on purpose: the LCG state and a failed
   assertion belong to the interpreter. *)
let builtins =
  pure_builtins
  @ [ "blas_dgemm"; "cascabel_host_alloc"; "cascabel_host_free";
      "cascabel_host_printf"; "cascabel_host_submit"; "cascabel_host_wait_all" ]

(* Types whose C values match the interpreter's: [int] and [long] are
   its integers (while they do not overflow), [double] its floats, and
   every pointer is a view into a double buffer. *)
let value_types = [ Int; Long; Double; Pointer Double ]

let param_ok = function
  | Array (Double, _) -> true
  | t -> List.mem t value_types

(* [compile_rule ~defines funcs name] says why the lowered function
   [name] of [funcs] cannot run compiled, or [None]. A function
   compiles when its body has no obstacle (see [scan_func]), its
   parameters and locals have [value_types], every name it reads is
   one of them or a [#define] constant the interpreter knows, and it
   calls only [builtins] and unit functions that compile and return no
   pointer, pure ones only inside a larger expression. No function on
   a call cycle compiles: the interpreter bounds the call depth, C
   does not. *)
let compile_rule ~defines (funcs : (string * (func, string) result) list) =
  let memo = Hashtbl.create 16 in
  let rec why stack name =
    match Hashtbl.find_opt memo name with
    | Some r -> r
    | None ->
        let r =
          match List.assoc name funcs with
          | Error e -> Some e
          | Ok f -> check (name :: stack) name f
        in
        Hashtbl.replace memo name r;
        r
  and check stack name f =
    let sc = scan_func f in
    let locals = locals_of f in
    let known n =
      List.exists (fun (p : param) -> p.p_name = n) f.f_params
      || List.exists (fun d -> d.d_name = n) locals
      || List.mem n defines
    in
    let typed d = scratch d.d_name || List.mem d.d_type value_types in
    let callable (c, nested) =
      if List.mem c builtins then (not nested) || List.mem c pure_builtins
      else
        match List.assoc_opt c funcs with
        | Some (Ok g) ->
            (not (List.mem c stack))
            && List.mem g.f_return [ Void; Int; Long; Double ]
            && why stack c = None
            && ((not nested) || pure c)
        | _ -> false
    in
    let untyped (p : param) = not (param_ok p.p_type) in
    match List.find_opt untyped f.f_params with
    | Some p ->
        Some
          (Printf.sprintf "%s takes %s %s" name
             (Minic.Printer.type_to_string p.p_type) p.p_name)
    | None when List.length f.f_params > 64 ->
        Some (name ^ " takes more than 64 parameters")
    | None when sc.obstacle <> None ->
        Some (name ^ " " ^ Option.get sc.obstacle)
    | None -> (
        match List.find_opt (fun d -> not (typed d)) locals with
        | Some d ->
            Some
              (Printf.sprintf "%s declares %s %s" name
                 (Minic.Printer.type_to_string d.d_type) d.d_name)
        | None -> (
            match List.find_opt (fun n -> not (known n)) sc.idents with
            | Some n ->
                Some
                  (Printf.sprintf "%s reads %s, not a local or #define" name n)
            | None ->
                List.find_opt (fun c -> not (callable c)) (List.rev sc.calls)
                |> Option.map (fun (c, _) -> name ^ " calls " ^ c)))
  (* Stores through no pointer and calls only pure functions; asked only
     of functions that compile, so of no call cycle. *)
  and pure c =
    List.mem c pure_builtins
    ||
    match List.assoc_opt c funcs with
    | Some (Ok g) ->
        let sc = scan_func g in
        (not sc.writes) && List.for_all (fun (d, _) -> pure d) sc.calls
    | _ -> false
  in
  why []

(* The compiled main, or why main stays interpreted: one [entry_site] per
   execute site, indexed as the lowered submits name them. *)
let entry_of (out : Codegen.output) ~why ~lowered_sites lowered =
  let find_main unit_ =
    List.find_map
      (function
        | Func ({ f_name = "main"; f_body = Some _; _ } as f) -> Some f
        | _ -> None)
      unit_
  in
  let lines_up =
    List.length lowered_sites = List.length out.Codegen.sites
    && List.for_all2
         (fun (x : Codegen.execute_site) (_, iface, group, _) ->
           x.x_interface = iface && x.x_group = group)
         out.Codegen.sites lowered_sites
  in
  match find_main lowered with
  | None -> Error "the program has no main"
  | Some _ when not lines_up ->
      Error "execute sites do not line up with the translation"
  | Some main when main.f_params <> [] -> Error "main takes parameters"
  | Some main when not (List.mem main.f_return [ Int; Void ]) ->
      Error ("main returns " ^ Minic.Printer.type_to_string main.f_return)
  | Some _ -> (
      match why "main" with
      | Some reason -> Error reason
      | None ->
          Ok
            (Array.of_list
               (List.map2
                  (fun es_site (_, _, _, es_slots) -> { es_site; es_slots })
                  out.Codegen.sites lowered_sites)))

(* ------------------------------------------------------------------ *)
(* Kernels translation unit: what compiles, wrappers, the entry.       *)

(* [roots] and every unit function they reach, in unit order, each
   declared before any is defined; then the wrappers. *)
let kernels_unit (out : Codegen.output) funcs ~roots wrapper_funcs =
  let included = Hashtbl.create 8 in
  let rec add name =
    match List.assoc_opt name funcs with
    | Some (Ok f) when not (Hashtbl.mem included name) ->
        Hashtbl.replace included name f;
        List.iter (fun (c, _) -> add c) (scan_func f).calls
    | _ -> ()
  in
  List.iter add roots;
  let defs =
    List.filter_map
      (fun (name, _) ->
        let f = Hashtbl.find_opt included name in
        Hashtbl.remove included name;
        f)
      funcs
  in
  let statics =
    List.filter
      (function
        | Define _ | Typedef _ | Global _ -> true
        | Include _ | Func _ -> false)
      out.Codegen.gen_unit
  in
  statics
  @ List.map (fun f -> Func { f with f_body = None }) defs
  @ List.map (fun f -> Func f) defs
  @ List.map (fun f -> Func f) wrapper_funcs

(* ------------------------------------------------------------------ *)

let makefile_text ~program_name (plan : Compile_plan.t) =
  let sh = plan.Compile_plan.shared in
  String.concat "\n"
    [
      "# generated by cascabelc --emit-c";
      "# `all` builds the standalone executable (serial runtime);";
      "# `native` builds the kernels shared object the engine dlopens.";
      "CC ?= cc";
      "CFLAGS ?= -O3 -ffp-contract=off";
      "";
      Printf.sprintf "all: %s.exe native" program_name;
      "";
      Printf.sprintf "%s.exe: %s.c %s %s" program_name program_name
        runtime_file header_file;
      Printf.sprintf "\t$(CC) $(CFLAGS) -I. -o $@ %s.c %s -lm" program_name
        runtime_file;
      "";
      Printf.sprintf "native: %s" sh.so_output;
      "";
      Printf.sprintf "%s: %s" sh.so_output sh.so_input;
      Printf.sprintf "\t%s %s -I. -o $@ %s" sh.so_compiler
        (String.concat " " sh.so_flags)
        sh.so_input;
      "";
      "clean:";
      Printf.sprintf "\trm -f %s.exe %s" program_name sh.so_output;
      "";
    ]

let kernels_file t = t.plan.Compile_plan.shared.so_input

let emit ?(program_name = "cascabel_out") (out : Codegen.output) =
  let variants = kept_variants out in
  let wrappers =
    List.map
      (fun (v : Repository.variant) -> (v.v_name, wrapper_symbol v.v_name))
      variants
  in
  match lower_program out ~wrappers with
  | Error e -> Error e
  | Ok (lowered, lowered_sites) ->
      let program_unit =
        splice_wrappers lowered (List.map wrapper_func variants)
      in
      let defines =
        List.filter_map
          (function
            | Define line -> Option.map fst (Interp.define_constant line)
            | _ -> None)
          out.Codegen.gen_unit
      in
      let site_of_argv name =
        List.find_index
          (fun (site, _, _, _) -> argv_name site = name)
          lowered_sites
      in
      let funcs =
        List.filter_map
          (function
            | Func ({ f_body = Some _; _ } as f) ->
                Some (f.f_name, lower_host ~site_of_argv f)
            | _ -> None)
          lowered
      in
      let why = compile_rule ~defines funcs in
      let entry = entry_of out ~why ~lowered_sites lowered in
      let compiled =
        List.filter
          (fun (v : Repository.variant) ->
            List.mem_assoc v.v_func.f_name funcs && why v.v_func.f_name = None)
          variants
      in
      let kernels =
        kernels_unit out funcs
          ~roots:
            (List.map (fun (v : Repository.variant) -> v.v_func.f_name) compiled
            @ if Result.is_ok entry then [ "main" ] else [])
          (List.map wrapper_func compiled)
      in
      let plan = out.Codegen.plan in
      let sources =
        [
          { file = header_file; contents = header_text };
          { file = runtime_file; contents = runtime_text };
          {
            file = program_name ^ ".c";
            contents = Minic.Printer.unit_to_string program_unit;
          };
          {
            file = plan.Compile_plan.shared.so_input;
            contents =
              kernels_prelude ^ "\n" ^ Minic.Printer.unit_to_string kernels;
          };
          { file = "Makefile"; contents = makefile_text ~program_name plan };
        ]
      in
      Ok
        {
          program_name;
          program_unit;
          kernels_unit = kernels;
          sources;
          native_variants =
            List.map
              (fun (v : Repository.variant) ->
                (v.v_name, wrapper_symbol v.v_name))
              compiled;
          all_wrappers = wrappers;
          entry;
          plan;
        }

let rec mkdirs dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_dir t ~dir =
  match mkdirs dir with
  | () ->
      List.iter
        (fun s ->
          let oc = open_out (Filename.concat dir s.file) in
          output_string oc s.contents;
          close_out oc)
        t.sources;
      Ok (List.map (fun s -> s.file) t.sources)
  | exception Sys_error e -> Error e

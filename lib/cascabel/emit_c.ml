open Minic.Ast

type source = { file : string; contents : string }

type t = {
  program_name : string;
  program_unit : Minic.Ast.unit_;
  kernels_unit : Minic.Ast.unit_;
  sources : source list;
  native_variants : (string * string) list;
  all_wrappers : (string * string) list;
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

(* [malloc] is mapped to [calloc] because the interpreter's [malloc]
   zero-fills; keeping that semantics is part of the bit-identity
   contract between the interpreter and compiled code. [rand_double]
   reproduces the interpreter's LCG (same constants, same seed). *)
let header_text =
  {|/* Cascabel runtime C API (generated by cascabelc --emit-c).
 *
 * Generated programs and kernel libraries compile against this
 * header.  Two runtimes implement it: cascabel_rt.c (serial,
 * standalone, immediate execution) for self-contained executables,
 * and the OCaml engine (scheduling, telemetry, faults, calibration)
 * which loads only the kernels shared object and dispatches through
 * the cascabel_call_* wrappers.
 */
#ifndef CASCABEL_RT_H
#define CASCABEL_RT_H

#include <stdio.h>
#include <stdlib.h>
#include <math.h>

/* The interpreter's malloc zero-fills; compiled code must agree. */
#define malloc(n) calloc(1, (n))

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

/* C[m x n] += A[m x k] * B[k x n], row-major: a plain reference for
 * the blas_dgemm library kernel, kept small so it compiles fast.  The
 * OCaml engine never calls it: it runs blas_dgemm-bodied variants on
 * its packed kernel in process, whose k-blocked, FMA-enabled sums agree
 * with this loop's only to rounding. */
__attribute__((noinline, unused)) static void
blas_dgemm(long m, long n, long k, const double *A, const double *B,
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
|}

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

type slot = Slot_buf | Slot_long | Slot_double

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
(* Native dispatchability: is running the C translation of a variant   *)
(* guaranteed to match the interpreter bit for bit?                    *)

(* Math builtins whose C doubles match the interpreter's OCaml floats
   (both are IEEE binary64 operations); allocation is allowed because
   the header maps malloc to calloc (zero-fill, like the interpreter).
   printf (output goes to the interpreter's buffer), rand_double
   (shared LCG state with the main program) and assert_true (failure
   must abort the interpreted run, not the process) stay interpreted. *)
let native_builtins =
  [ "sqrt"; "fabs"; "fmax"; "fmin"; "pow"; "exp"; "log"; "abs";
    "malloc"; "calloc"; "free" ]

let define_name line =
  (* "#define NAME ..." or "#define NAME(...)". *)
  let rest =
    let prefix = "#define" in
    if String.length line >= String.length prefix then
      String.trim
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
    else ""
  in
  let n = String.length rest in
  let rec stop i =
    if i >= n then i
    else
      match rest.[i] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> stop (i + 1)
      | _ -> i
  in
  String.sub rest 0 (stop 0)

let rec decl_names_of_stmt acc = function
  | Decl_stmt ds -> List.fold_left (fun a d -> d.d_name :: a) acc ds
  | Block ss -> List.fold_left decl_names_of_stmt acc ss
  | If (_, a, b) ->
      let acc = decl_names_of_stmt acc a in
      Option.fold ~none:acc ~some:(decl_names_of_stmt acc) b
  | While (_, s) | Do_while (s, _) | Pragma_stmt (_, s) ->
      decl_names_of_stmt acc s
  | For (init, _, _, s) ->
      let acc =
        match init with
        | Some (For_decl ds) ->
            List.fold_left (fun a d -> d.d_name :: a) acc ds
        | _ -> acc
      in
      decl_names_of_stmt acc s
  | Expr_stmt _ | Return _ | Break | Continue -> acc

(* Collect value identifiers and called function names; [clean]
   flips to false on constructs outside the checkable subset. *)
let scan_func (f : func) =
  let idents = ref [] in
  let calls = ref [] in
  let clean = ref true in
  let rec expr = function
    | Int_lit _ | Float_lit _ | Char_lit _ | String_lit _ -> ()
    | Ident n -> idents := n :: !idents
    | Call (Ident fn, args) ->
        calls := fn :: !calls;
        List.iter expr args
    | Call (e, args) ->
        clean := false;
        expr e;
        List.iter expr args
    | Index (a, b) | Binary (_, a, b) | Comma (a, b) ->
        expr a;
        expr b
    | Member (e, _) | Arrow (e, _) ->
        clean := false;
        expr e
    | Unary (_, e) | Post_inc e | Post_dec e | Cast (_, e) | Sizeof_expr e ->
        expr e
    | Assign (_, a, b) ->
        expr a;
        expr b
    | Ternary (a, b, c) ->
        expr a;
        expr b;
        expr c
    | Sizeof_type _ -> ()
  in
  let rec stmt = function
    | Expr_stmt e -> Option.iter expr e
    | Decl_stmt ds -> List.iter (fun d -> Option.iter expr d.d_init) ds
    | Block ss -> List.iter stmt ss
    | If (c, a, b) ->
        expr c;
        stmt a;
        Option.iter stmt b
    | While (c, s) | Do_while (s, c) ->
        expr c;
        stmt s
    | For (init, c, st, s) ->
        (match init with
        | Some (For_expr e) -> expr e
        | Some (For_decl ds) ->
            List.iter (fun d -> Option.iter expr d.d_init) ds
        | None -> ());
        Option.iter expr c;
        Option.iter expr st;
        stmt s
    | Return e -> Option.iter expr e
    | Break | Continue -> ()
    | Pragma_stmt (_, s) -> stmt s
  in
  Option.iter (List.iter stmt) f.f_body;
  (!idents, !calls, !clean)

let native_dispatchable ~defines (v : Repository.variant) =
  let f = v.v_func in
  let param_ok (p : param) =
    match p.p_type with
    | Pointer Double | Array (Double, _) | Int | Long | Double -> true
    | _ -> false
  in
  List.length f.f_params <= 64
  && List.for_all param_ok f.f_params
  && f.f_body <> None
  &&
  let idents, calls, clean = scan_func f in
  let locals =
    Option.fold ~none:[] ~some:(List.fold_left decl_names_of_stmt []) f.f_body
  in
  let known n =
    List.exists (fun (p : param) -> p.p_name = n) f.f_params
    || List.mem n locals || List.mem n defines
  in
  clean
  && List.for_all (fun c -> List.mem c native_builtins) calls
  && List.for_all known idents

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

let lower_submit ~signature ~site iface group args =
  let n = List.length args in
  if n <> List.length signature then
    Error
      (Printf.sprintf
         "execute site %d for %S passes %d arguments but the variant \
          signature has %d parameters"
         site iface n (List.length signature))
  else begin
    let argv_name = Printf.sprintf "__cascabel_argv%d" site in
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
      Ok
        (Block
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
             ]))
  end

let lower_program (out : Codegen.output) ~wrappers =
  let errors = ref [] in
  let site = ref 0 in
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
            | Ok s' -> s'
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
  else Ok lowered

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
(* Kernels translation unit: variants, their helpers, wrappers.        *)

let kernels_unit (out : Codegen.output) variants wrapper_funcs =
  let unit_funcs =
    List.filter_map
      (function
        | Func ({ f_body = Some _; f_name; _ } as f) when f_name <> "main" ->
            Some (f.f_name, f)
        | _ -> None)
      out.Codegen.gen_unit
  in
  (* Transitive closure over called helpers so the shared object is
     self-contained under RTLD_NOW. *)
  let included = Hashtbl.create 8 in
  List.iter
    (fun (v : Repository.variant) ->
      Hashtbl.replace included v.v_func.f_name ())
    variants;
  let rec close () =
    let added = ref false in
    List.iter
      (fun (name, f) ->
        if Hashtbl.mem included name then
          let _, calls, _ = scan_func f in
          List.iter
            (fun c ->
              if
                (not (Hashtbl.mem included c))
                && List.mem_assoc c unit_funcs
              then begin
                Hashtbl.replace included c ();
                added := true
              end)
            calls)
      unit_funcs;
    if !added then close ()
  in
  close ();
  let funcs =
    List.filter_map
      (fun top ->
        match top with
        | Func ({ f_body = Some _; f_name; _ } as f)
          when f_name <> "main" && Hashtbl.mem included f_name ->
            Some { f with f_task = None }
        | _ -> None)
      out.Codegen.gen_unit
  in
  let statics =
    List.filter
      (function
        | Define _ | Typedef _ | Global _ -> true
        | Include _ | Func _ -> false)
      out.Codegen.gen_unit
  in
  (Include "#include \"cascabel_rt.h\"" :: statics)
  @ List.map (fun f -> Func { f with f_body = None }) funcs
  @ List.map (fun f -> Func f) funcs
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
      Printf.sprintf "%s: %s %s" sh.so_output sh.so_input header_file;
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
  | Ok lowered ->
      let wrapper_funcs = List.map wrapper_func variants in
      let program_unit = splice_wrappers lowered wrapper_funcs in
      let kernels = kernels_unit out variants wrapper_funcs in
      let defines =
        List.filter_map
          (function
            | Define line ->
                let n = define_name line in
                if n = "" then None else Some n
            | _ -> None)
          out.Codegen.gen_unit
      in
      let native_variants =
        List.filter_map
          (fun (v : Repository.variant) ->
            if native_dispatchable ~defines v then
              Some (v.v_name, wrapper_symbol v.v_name)
            else None)
          variants
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
            contents = Minic.Printer.unit_to_string kernels;
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
          native_variants;
          all_wrappers = wrappers;
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

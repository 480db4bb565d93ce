(** Native C emission (the backend behind [cascabelc run --native]).

    Lowers a {!Codegen.output} — whose generated source still uses
    the variadic mini-C runtime calls — to {e real, compilable C}:

    - [cascabel_rt.h]: the exported runtime C API every generated
      file compiles against;
    - [cascabel_rt.c]: a minimal serial standalone runtime (variant
      registry, immediate submit) so the emitted program also links
      into a self-contained executable;
    - [<prog>.c]: the full program, with every execute site lowered
      to packed [void *argv\[\]] submissions and every
      [cascabel_register_variant] call carrying its wrapper function
      pointer;
    - [<prog>_kernels.c]: what compiles (see below): those variants,
      one fixed-ABI wrapper [void cascabel_call_<variant>(void **argv)]
      each, the unit functions they call and, when [main] compiles,
      [main] itself as the entry [int cascabel_main(void)] — the
      translation unit {!Native} compiles to the shared object that
      {!Taskrt.Capi} dlopens. It does not include [cascabel_rt.h]: a
      prelude of prototypes keeps its one [cc] run short;
    - [Makefile]: buildable rules for both artifacts.

    The emitted [.c] files stay inside the mini-C subset, so they
    re-parse with {!Minic.Parser} — the emission tests lean on that.

    Every runtime call of the kernels unit goes through the host table
    [cascabel_host] that {!Taskrt.Capi.load} binds: [malloc]/[calloc]
    allocate through the host so execute sites can name their
    buffers, [free] is a no-op as in the interpreter, [printf] formats
    with [vsnprintf] into the run's stdout (a NaN without its sign, as
    the interpreter prints it), each packed submit names its execute
    site by index, [cascabel_wait_all] drains the engine, and
    [blas_dgemm] is the interpreter's checked kernel. Registrations
    vanish: a handle is its data pointer. Compiled code has no fuel
    bound and no bounds checks of its own.

    One rule decides what compiles, for variants, their helpers and
    [main] alike: a function compiles when its body is clean (no
    [sizeof] of an expression, struct or function pointer, and no
    assignment, [++] or [--] inside a larger expression, whose order C
    leaves unspecified); its
    parameters and locals are [int], [long], [double] or [double *];
    every name it reads is one of them or a [#define] constant that
    {!Interp.define_constant} reads; it calls only the math builtins,
    [blas_dgemm], [printf] with a literal format the host reproduces,
    the allocators, the runtime calls, and unit functions that compile
    and return no pointer — pure ones only, inside a larger
    expression; and it is on no recursive call cycle (the interpreter
    bounds the call depth, C does not). [main] must also take no
    parameters and return [int] or [void]. [rand_double],
    [assert_true] and globals keep a function interpreted. The
    standalone program compiles every kept variant. *)

type source = { file : string; contents : string }

(** How one argument travels through a packed [void *argv\[\]]: a
    buffer's data pointer, or the address of a [long] or [double]. *)
type slot = Slot_buf | Slot_long | Slot_double

type entry_site = {
  es_site : Codegen.execute_site;
  es_slots : slot list;  (** one per argument, from the variant signature *)
}

type t = {
  program_name : string;
  program_unit : Minic.Ast.unit_;  (** lowered full program *)
  kernels_unit : Minic.Ast.unit_;
      (** compiled variants, their helpers, wrappers and the entry *)
  sources : source list;  (** header, runtime, program, kernels, Makefile *)
  native_variants : (string * string) list;
      (** compiled variant name -> wrapper symbol *)
  all_wrappers : (string * string) list;
      (** every kept variant name -> wrapper symbol *)
  entry : (entry_site array, string) result;
      (** [Ok sites] when the kernels unit defines {!entry_symbol}; its
          submit for site [i] of [sites] passes [i]. [Error reason]
          says why [main] stays interpreted. *)
  plan : Compile_plan.t;
}

val entry_symbol : string
(** ["cascabel_main"]. *)

val wrapper_symbol : string -> string
(** [cascabel_call_<variant>], non-identifier characters mangled. *)

val emit : ?program_name:string -> Codegen.output -> (t, string) result
(** Lower a translation. [program_name] must match the one given to
    {!Codegen.translate} (default ["cascabel_out"]). Fails when an
    execute site's argument list cannot be matched against the
    selected variant signature. *)

val kernels_file : t -> string
(** File name of the kernels translation unit ([plan.shared.so_input]). *)

val header_file : string
(** ["cascabel_rt.h"]. *)

val write_dir : t -> dir:string -> (string list, string) result
(** Write every source into [dir] (created if missing); returns the
    file names written, in order. *)

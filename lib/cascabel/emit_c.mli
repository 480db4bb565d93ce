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
    - [<prog>_kernels.c]: the kept task variants plus one
      fixed-ABI wrapper [void cascabel_call_<variant>(void **argv)]
      per variant and, when [main] qualifies, [main] itself as the
      entry [int cascabel_main(const struct cascabel_host *host)] —
      the translation unit {!Native} compiles to the shared object
      that {!Taskrt.Capi} dlopens. It does not include
      [cascabel_rt.h]: a prelude of prototypes keeps its one [cc] run
      short, and [blas_dgemm] there is the host's packed kernel;
    - [Makefile]: buildable rules for both artifacts.

    The emitted [.c] files stay inside the mini-C subset, so they
    re-parse with {!Minic.Parser} — the emission tests lean on that.

    The entry's runtime calls go through the host table
    [struct cascabel_host] the engine passes in ({!Taskrt.Capi.run_main}):
    [malloc]/[calloc] allocate through the host so execute sites can
    name their buffers, [free] is a no-op as in the interpreter,
    [printf] formats with [vsnprintf] into the run's stdout, each
    packed submit names its execute site by index, and
    [cascabel_wait_all] drains the engine. Registrations vanish: a
    handle is its data pointer. A compiled [main] has no fuel bound
    and no bounds checks, the same trust as a compiled variant.

    [main] compiles only when its C meaning matches the interpreter's:
    no parameters; an [int] or [void] result; locals of type [int],
    [long], [double], [double *] or a runtime handle; no globals; and
    calls only to [printf] (with a literal format the host can
    reproduce), the allocators, the math builtins, [blas_dgemm], the
    runtime calls and native-dispatchable unit functions that return
    no pointer. Anything else, [rand_double] and [assert_true]
    included, keeps the interpreted [main].

    A variant is {e native-dispatchable} only when its semantics under
    C provably match the interpreter's value model: every parameter
    is [double*], [int], [long] or [double], and the body only
    touches parameters, locals, [#define] constants and pure math
    builtins. Anything else (e.g. [printf], [rand_double], globals,
    helper calls, [float] parameters) still compiles into the shared
    object for standalone use, but the runnable falls back to the
    interpreter for it. *)

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
  kernels_unit : Minic.Ast.unit_;  (** variants + wrappers only *)
  sources : source list;  (** header, runtime, program, kernels, Makefile *)
  native_variants : (string * string) list;
      (** dispatchable variant name -> wrapper symbol *)
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

(** Driving the compilation plan through the host toolchain.

    Takes an {!Emit_c} result, compiles the kernels translation unit
    into the plan's shared object ([cc -O3 -shared -fPIC
    -ffp-contract=off], one [cc] run), dlopens it via {!Taskrt.Capi}
    (which binds its host table), and resolves one wrapper symbol per
    compiled variant and, when the unit carries the program's [main],
    the entry {!Emit_c.entry_symbol}. {!Runnable} then runs [main]
    through the entry, dispatches codelet implementations through the
    wrappers, and falls back to the interpreter per variant when a
    symbol (or the whole toolchain) is missing. Compiled code has no
    fuel bound and no bounds checks of its own.

    Telemetry: the compile and dlopen steps record [compile] and
    [dlopen] spans under the [native] category. *)

type t

type outcome =
  | Loaded of t
  | No_toolchain of string
      (** no usable C compiler on PATH — callers should skip
          gracefully (exit code 3 in [cascabelc]) *)
  | Compile_error of string
      (** the toolchain exists but compilation or dlopen failed
          (exit code 4 in [cascabelc]) *)

val build : ?cc:string -> ?dir:string -> Emit_c.t -> outcome
(** Compile and load the kernels shared object. [cc] overrides the
    compiler (default: the plan's host compiler, then [cc]); [dir]
    keeps the build artifacts in the given directory instead of a
    temporary one that {!close} removes. *)

val fn_for : t -> string -> Taskrt.Capi.fn option
(** Loaded wrapper for a variant name; [None] means the caller must
    interpret (unsupported variant, or symbol missing). *)

val entry : t -> (Taskrt.Capi.fn * Emit_c.entry_site array, string) result
(** The compiled [main] and its execute sites, or why [main] runs
    interpreted (see {!Emit_c.t.entry}). *)

val native_count : t -> int
(** Number of variants with a loaded compiled wrapper. *)

val dir : t -> string
val so_path : t -> string

val close : t -> unit
(** dlclose and, for temporary build dirs, remove the artifacts. *)

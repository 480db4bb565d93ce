(** Mini-C interpreter.

    Gives Cascabel executable semantics for the C subset: the serial
    input program can be {e run} (the "single" baseline of Figure 5),
    and task implementation variants can be executed as codelet
    bodies on the runtime's data buffers, whatever C the programmer
    wrote — no lookup table of known kernels.

    Value model: [int]/[long] are OCaml ints, [float]/[double] are
    OCaml floats, and all pointers are {e views into double buffers}
    (offset + length). [malloc]/[calloc] allocate double buffers;
    pointer arithmetic shifts views; out-of-bounds access raises.
    Strings exist for [printf]. Structs are not interpreted.

    Builtins: [malloc], [calloc], [free], [printf], [sqrt], [fabs],
    [fmax], [fmin] (C99's: a NaN argument counts as missing), [pow],
    [exp], [log], [abs] (on the one integer type), [rand_double]
    (deterministic LCG), [assert_true], and the library kernel
    [blas_dgemm(m, n, k, A, B, C)] ({!blas_dgemm}); [on_buffer_access]
    sees its three buffers before the kernel runs.

    Execution: {!create} compiles every function once into closures.
    Variables become slots of a per-call frame array and literals are
    parsed once. Each
    expression node, statement and call still costs one unit of fuel.
    Calls nest at most 10 000 deep.

    Hooks let an embedder intercept execute-annotated call sites
    (to submit runtime tasks instead of calling directly) and observe
    buffer accesses from serial code (to flush pending tasks). *)

type buf = {
  data : Kernels.Matrix.buf;
  off : int;
  len : int;  (** visible elements from [off] *)
  tag : int;  (** allocation identity, stable across pointer shifts *)
}

type value = VInt of int | VFloat of float | VBuf of buf | VStr of string | VUnit

val value_to_string : value -> string

exception Runtime_error of string

type hooks = {
  on_execute :
    Minic.Ast.exec_annot -> Minic.Ast.func -> value list -> value option;
      (** Intercept an execute-annotated call; [None] falls through
          to a direct (serial) call. *)
  on_buffer_access : buf -> unit;
      (** Called before serial code reads or writes a buffer
          element. *)
}

val no_hooks : hooks

type t

val create : ?hooks:hooks -> ?fuel:int -> Minic.Ast.unit_ -> t
(** Compiles the unit's functions and prepares globals. [fuel] bounds
    interpreted expressions, statements and calls (default 200
    million) so runaway loops fail fast. A malformed literal, such as
    an integer literal out of range, fails only when it is evaluated.
    @raise Runtime_error when a global's initializer fails. *)

val call : t -> string -> value list -> value
(** Call a function by name.
    @raise Runtime_error on any dynamic error. *)

val call_function : t -> Minic.Ast.func -> value list -> value
(** Call a function value directly (used for task variants). A
    function from another unit is compiled on its first call; its own
    calls resolve in this interpreter's unit. *)

val run_main : t -> (int, string) result
(** Run [main(void)]; the [int] is its return value (0 when main
    returns void or nothing). Errors are returned, not raised. *)

val output : t -> string
(** Everything [printf]ed so far. *)

val add_output : t -> string -> unit
(** Append to {!output}: what a compiled [main] prints. *)

val blas_dgemm : m:int -> n:int -> k:int -> buf -> buf -> buf -> unit
(** [blas_dgemm ~m ~n ~k a b c]: C\[m x n\] += A\[m x k\] * B\[k x n\],
    row-major, on {!Kernels.Gemm_kernel.gemm} in process. Each extent
    is checked against its buffer's visible length (interior pointers
    included) and C may not overlap A or B, before anything is written.
    Compiled code's [blas_dgemm] comes here too, with the views it was
    handed.
    @raise Runtime_error when a check fails. *)

val define_constant : string -> (string * value) option
(** The constant a [#define NAME value] line binds, when [value] is one
    integer or floating literal; any other [#define] binds nothing. *)

val global_int : t -> string -> int option
(** Value of a global integer variable or [#define] constant. *)

val alloc : t -> int -> buf
(** Allocate a fresh zeroed buffer of [n] doubles (embedder use). *)

val buf_of_bigarray : Kernels.Matrix.buf -> buf
(** Wrap existing storage (shared, not copied) — this aliasing is how
    the runtime's data handles and interpreter buffers see each
    other's writes. *)

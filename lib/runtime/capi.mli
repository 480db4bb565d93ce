(** Dynamic loading of generated kernel libraries (the native
    backend's dispatch layer).

    {!Cascabel.Emit_c} compiles every kept task variant into a shared
    object exposing one wrapper per variant with the fixed ABI

    {[ void cascabel_call_<variant>(void **argv); ]}

    This module dlopens such an artifact and calls wrappers by
    packing one [void*] slot per parameter: the Bigarray data pointer
    for buffers, the address of a scratch [long]/[double] for
    scalars. The generated wrapper casts the slots back to the
    variant's real signature, so no foreign-function library is
    needed.

    Calls release the OCaml runtime lock — the kernel must only touch
    the memory its arguments point to.

    A library may also export a compiled program entry

    {[ int cascabel_main(const struct cascabel_host *host); ]}

    whose runtime calls come back to OCaml through the host table
    [host] ({!run_main}). *)

type library
type fn

type arg =
  | Buf of Kernels.Matrix.buf  (** passed as its data pointer *)
  | Int of int  (** passed as [long*] scratch *)
  | Float of float  (** passed as [double*] scratch *)

val load : string -> (library, string) result
(** [load path] dlopens a shared object ([RTLD_NOW | RTLD_LOCAL]). *)

val sym : library -> string -> fn option
(** Resolve a wrapper symbol; [None] when the library does not export
    it (the caller falls back to the interpreter). *)

val call : fn -> arg array -> unit
(** Invoke a wrapper with packed arguments (at most 64).
    @raise Invalid_argument on a null function or too many args. *)

val close : library -> unit
(** dlclose. Any [fn] from this library is invalid afterwards. *)

(** {1 Compiled program entries} *)

type host = {
  alloc : int -> int;
      (** bytes -> address of that many zeroed bytes, rounded down to
          doubles; the callee keeps the storage alive *)
  out : string -> unit;  (** text the program printed *)
  submit : int -> int array -> unit;
      (** execute site index, the addresses in its packed [argv] *)
  wait_all : unit -> unit;
  dgemm : int -> int -> int -> int -> int -> int -> unit;
      (** [m n k a b c]: C\[m x n\] += A\[m x k\] * B\[k x n\],
          row-major, the matrices given by address *)
}
(** The C side's [struct cascabel_host] table forwards [alloc], [out],
    [submit], [wait_all] and [blas_dgemm] to these closures; its
    [free] is a no-op and its [vsnprintf] is libc's. *)

val run_main : fn -> host -> int
(** Run an entry with the runtime lock held and return its result. An
    exception a callback raises unwinds the entry (its C frames are
    left with [longjmp]) and is re-raised here; the storage [alloc]
    handed out belongs to the caller, so nothing leaks.
    @raise Invalid_argument on a null function. *)

val address : Kernels.Matrix.buf -> int
(** The data pointer of a buffer. *)

val view : int -> int -> Kernels.Matrix.buf
(** [view addr n]: the [n] doubles at [addr], shared, not copied. The
    caller keeps the memory alive while the view is used. *)

val peek_long : int -> int
(** The [long] at an address. *)

val peek_double : int -> float
(** The [double] at an address. *)

(** Dynamic loading of generated kernel libraries (the native
    backend's dispatch layer).

    {!Cascabel.Emit_c} compiles every compiled task variant into a
    shared object exposing one wrapper per variant with the fixed ABI

    {[ void cascabel_call_<variant>(void **argv); ]}

    and, when the program's [main] compiles, the entry

    {[ int cascabel_main(void); ]}

    This module dlopens such an artifact and calls wrappers by
    packing one [void*] slot per parameter: the Bigarray data pointer
    for buffers, the address of a scratch [long]/[double] for
    scalars. The generated wrapper casts the slots back to the
    variant's real signature, so no foreign-function library is
    needed.

    The library's runtime calls (allocation, output, execute sites,
    waits, [blas_dgemm]) come back to OCaml through a C host table,
    [struct cascabel_host], that the library exports as
    [cascabel_host]; {!load} binds it once. Each {!call} and
    {!run_main} names the {!host} whose closures those calls reach for
    its duration. Library code runs with the OCaml runtime lock held,
    on the calling domain. *)

type library
type fn

type arg =
  | Buf of Kernels.Matrix.buf  (** passed as its data pointer *)
  | Int of int  (** passed as [long*] scratch *)
  | Float of float  (** passed as [double*] scratch *)

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
(** The C table forwards [alloc], [out], [submit], [wait_all] and
    [blas_dgemm] to these closures; its [free] is a no-op and its
    [vsnprintf] is libc's. *)

val load : string -> (library, string) result
(** [load path] dlopens a shared object ([RTLD_NOW | RTLD_LOCAL]) and,
    when it exports [cascabel_host], points that at the host table. *)

val sym : library -> string -> fn option
(** Resolve a wrapper symbol; [None] when the library does not export
    it (the caller falls back to the interpreter). *)

val call : host -> fn -> arg array -> unit
(** Invoke a wrapper with packed arguments (at most 64), its runtime
    calls going to [host]. An exception a callback raises unwinds the
    wrapper (its C frames are left with [longjmp]) and is re-raised
    here.
    @raise Invalid_argument on a null function or too many args. *)

val run_main : host -> fn -> int
(** Run an entry as {!call} runs a wrapper and return its result. The
    storage [alloc] handed out belongs to the caller, so an unwound
    entry leaks nothing.
    @raise Invalid_argument on a null function. *)

val close : library -> unit
(** dlclose. Any [fn] from this library is invalid afterwards. *)

val address : Kernels.Matrix.buf -> int
(** The data pointer of a buffer. *)

val peek_long : int -> int
(** The [long] at an address. *)

val peek_double : int -> float
(** The [double] at an address. *)

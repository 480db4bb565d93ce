(** Codelets: multi-implementation computational tasks.

    A codelet bundles, under one task interface, one implementation
    per architecture class ("the same functionality and function
    signature for all implementations" — paper §IV-A). The scheduler
    picks the implementation matching the worker it places the task
    on; the cost model consumes the codelet's FLOP estimate.

    Architecture classes are the strings of
    {!Machine_config.arch_class_of_pu}: ["cpu"], ["gpu"], or any
    custom accelerator architecture (e.g. ["spe"]). *)

type access = R | W | RW

val access_to_string : access -> string

type impl = {
  impl_arch : string;
  run : ?pool:Kernels.Domain_pool.t -> Data.handle list -> unit;
      (** functional execution on the handles, in buffer order; the
          engine passes its {!Kernels.Domain_pool.t} (if any) so
          multi-core implementations spread across real domains *)
}

type t = {
  cl_name : string;
  impls : impl list;
  flops : Data.handle list -> float;
      (** work estimate given the task's handles *)
}

val create :
  name:string -> ?flops:(Data.handle list -> float) -> impl list -> t
(** [flops] defaults to a byte-proportional estimate (1 FLOP per
    element of the first handle). The implementation list must be
    non-empty with distinct architectures. *)

val cpu_impl : (?pool:Kernels.Domain_pool.t -> Data.handle list -> unit) -> impl
val gpu_impl : (?pool:Kernels.Domain_pool.t -> Data.handle list -> unit) -> impl
val impl_for : t -> string -> impl option
val supports : t -> string -> bool

val widen : Machine_config.t -> t -> t
(** The codelet with its cpu implementation cloned to every
    architecture class the machine has (e.g. Cell SPEs), so a task
    graph can use the whole machine. *)

val check_disjoint :
  string -> string * Data.handle -> (string * Data.handle) list -> unit
(** [check_disjoint name (label, written) reads] raises
    [Invalid_argument "name: label overlaps r"] when [written]
    shares storage with a read handle [r] ({!Data.overlaps}).  In-place
    codelets call it before computing. *)

(** {1 Prebuilt codelets} *)

val dgemm : t
(** [handles = [a; b; c]]: [c := a*b + c] on CPU and GPU, FLOPs
    [2mnk], computed in place on the handles' {!Data.view}s. The GPU
    implementation runs the same packed kernel (the simulated CuBLAS
    — bit-identical results, device-speed timing).  Raises
    [Invalid_argument] when [c] overlaps [a] or [b]. *)

val vector_add : t
(** [handles = [a; b]]: [a := a + b] — the paper's vecadd task. *)

val noop : name:string -> flops:float -> archs:string list -> t
(** A do-nothing codelet with a fixed cost, for scheduler tests and
    synthetic workloads. *)

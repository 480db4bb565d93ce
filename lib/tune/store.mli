(** The calibration store: measured per-(codelet, PU, size-bucket)
    execution-time models plus the tuned GEMM blocking, persisted as
    [CALIB_<pdl-hash>.json] next to the [BENCH_*.json] files.

    This is the StarPU-dmda idea made explicit: the scheduler starts
    from the PDL's declared [DGEMM_THROUGHPUT] figures and replaces
    them with learned models as observations accumulate.  The store is
    keyed by {!Pdl.Codec.descriptor_hash} so calibration taken on one
    zoo platform is never applied to another.

    Buckets are one per octave of the task's flop count
    ([floor(log2 flops)]).  A bucket with at least {!min_samples}
    observations answers queries with its measured rate; otherwise a
    power-law fit over the qualifying buckets extrapolates; with no
    qualifying data {!estimate} returns [None] and the caller falls
    back to declared speeds. *)

type t

type gemm_cfg = {
  g_mc : int;
  g_kc : int;
  g_nc : int;
  g_micro : string;  (** {!Kernels.Gemm_kernel.micro_to_string} *)
  g_gflops : float;  (** measured winner throughput, for reports *)
}

val version : int
(** Store format version; files with any other version are ignored. *)

val min_samples : int
(** Observations a bucket needs before the scheduler trusts it (K=3). *)

val create : pdl_hash:string -> platform:string -> unit -> t
(** An empty (cold) store. *)

val pdl_hash : t -> string
val platform : t -> string

val filename : pdl_hash:string -> string
(** [CALIB_<hash>.json]. *)

val path : ?dir:string -> t -> string

(** {1 Bucketing} *)

val bucket_of_flops : float -> int
(** [floor(log2 flops)], clamped to 0 below one flop; unbounded above
    (unlike {!Obs.Histogram.bucket_of}, which clamps near 3.6e9 —
    tile flop counts reach 1e13). *)

val bucket_bounds : int -> float * float
(** Half-open flops range [2^i, 2^(i+1)) of bucket [i]. *)

(** {1 Observation and estimation} *)

val observe :
  t -> codelet:string -> pu:string -> flops:float -> seconds:float -> unit
(** Record one completed execution.  Non-positive [flops] or
    [seconds] are ignored. *)

val samples : t -> codelet:string -> pu:string -> flops:float -> int
(** Observations in the bucket [flops] falls in. *)

val total_samples : t -> int

val estimate : t -> codelet:string -> pu:string -> flops:float -> float option
(** Predicted execution seconds, or [None] when no qualifying bucket
    (>= {!min_samples} observations) exists for this (codelet, PU). *)

(** {1 GEMM autotuning record} *)

val gemm_config : t -> gemm_cfg option
val set_gemm_config : t -> gemm_cfg -> unit

(** {1 Persistence} *)

val dirty : t -> bool
(** Observations or config changes not yet saved. *)

val to_json_string : t -> string
(** The store as one compact JSON document. *)

val save : ?dir:string -> t -> unit
(** Atomic write (temp file + rename) of {!to_json_string} to
    {!path}. *)

val load : ?dir:string -> pdl_hash:string -> platform:string -> unit -> t * string option
(** Load the store for a platform. A missing file yields a cold store
    and no warning; a corrupt, truncated, mismatched-hash or
    wrong-version file yields a cold store {e and} a warning message —
    never an exception. *)

(** BLIS-style packed, cache-blocked DGEMM on raw {!Matrix.buf} views.

    [gemm] computes [C := alpha * A * op(B) + beta * C] where [op] is
    the identity or (with [trans_b]) transposition, on row-major
    sub-views described by a (buffer, offset, leading dimension)
    triple each.  It is the single compute engine behind
    {!Blas.dgemm_packed}, {!Blas.dgemm}, and the blocked {!Lapack}
    factorizations.

    Blocking: C row panels of {!mc} rows x reduction slices of {!kc} x
    B column slices of {!nc}; within a block, A is packed into MR-row
    micro-panels and B into NR-column micro-panels (zero-padded to
    full tiles, MR x NR the {!micro_tile} of the selected
    micro-kernel), and a register-blocked C micro-kernel does the
    arithmetic.  Packing buffers are per-domain and reused across
    calls — no allocation on the hot path after warm-up.

    With [?pool], MC row panels are distributed over the pool.  Each
    domain owns its C rows and every row's summation order is
    independent of the panel-to-domain assignment, so pooled and
    sequential runs are bit-for-bit identical. *)

val mc : int
(** Default cache-block rows of C (A-panel height, L2-resident). *)

val kc : int
(** Default cache-block reduction depth (packed panel width, L1/L2). *)

val nc : int
(** Default cache-block columns of C (B-panel width, L3-resident). *)

(** {1 Micro-kernels and runtime-configurable blocking}

    The MC/KC/NC cache blocks and the micro-kernel are a
    process-global parameter so the autotuner ([Tune.Gemm_tune],
    [bench tune]) can install the measured winner for the host
    platform before any compute runs.  Single-writer: set it at
    startup; concurrent GEMM calls snapshot it once per call.

    The micro-kernel is chosen from the CPU flags, not by the user:
    {!default_blocking} takes {!Avx512} when the CPU reports
    [avx512f] (probed once at start-up with
    [__builtin_cpu_supports]), {!Avx2} otherwise, and
    {!set_blocking} refuses a micro-kernel the CPU cannot run.

    Bit-identity: {!Avx512} and {!Avx2} compute every element of C
    with the same operation chain (per KC slice, an accumulator from
    0 updated as [fma a b acc] in ascending reduction order, then
    [c := fma alpha acc (beta * c)]), so they agree bit for bit under
    any MC/NC.  Changing [bkc] regroups the sum, and {!Portable} rounds
    each multiply-add twice, so either changes results (by about one
    ulp per accumulation). *)

type micro =
  | Avx512
      (** 16 x 8 register tile, explicit AVX-512F intrinsics
          (dgemm_stubs.c); only on CPUs that report [avx512f] *)
  | Avx2
      (** 4 x 8 register tile, the C loop built with -mavx2 -mfma; the
          kernel of AVX2-only hosts *)
  | Portable  (** plain-OCaml macro-kernel with the {!Avx2} loop structure *)

val micro_to_string : micro -> string
val micro_of_string : string -> micro option

val micro_tile : micro -> int * int
(** [(mr, nr)], the register tile a micro-kernel's packed panels are
    laid out for. *)

val micro_supported : micro -> bool
(** Whether this CPU can run the micro-kernel. *)

val supported_micros : unit -> micro list
(** The micro-kernels {!micro_supported} accepts, fastest first. *)

type blocking = { bmc : int; bkc : int; bnc : int; bmicro : micro }

val default_blocking : unit -> blocking
(** [{bmc = mc; bkc = kc; bnc = nc; bmicro}] with [bmicro] the first
    of {!supported_micros}: {!Avx512} where the CPU has it, else
    {!Avx2}. *)

val set_blocking : blocking -> unit
(** Install a blocking for all subsequent {!gemm} calls.
    @raise Invalid_argument when a block size is not positive or the
    CPU cannot run the micro-kernel. *)

val current_blocking : unit -> blocking
val reset_blocking : unit -> unit

val as_avx2_host : (unit -> 'a) -> 'a
(** [as_avx2_host f] runs [f] as if the CPU-flag probe had not found
    [avx512f], from that host's {!default_blocking} (for tests of the
    AVX2-only-host paths), then restores the probed flags and the
    blocking installed before. *)

val gemm :
  ?pool:Domain_pool.t ->
  trans_b:bool ->
  m:int ->
  n:int ->
  k:int ->
  alpha:float ->
  beta:float ->
  a:Matrix.buf ->
  aoff:int ->
  lda:int ->
  b:Matrix.buf ->
  boff:int ->
  ldb:int ->
  c:Matrix.buf ->
  coff:int ->
  ldc:int ->
  unit ->
  unit
(** [gemm ~trans_b ~m ~n ~k ~alpha ~beta ~a ~aoff ~lda ~b ~boff ~ldb
    ~c ~coff ~ldc ()]: A is [m x k] at [a.{aoff + i*lda + l}], B is
    [k x n] at [b.{boff + l*ldb + j}] (or, with [trans_b], [n x k]
    read transposed at [b.{boff + j*ldb + l}]), C is [m x n] at
    [c.{coff + i*ldc + j}].  [k <= 0] or [alpha = 0.] degenerates to
    scaling C by [beta].  The A/B/C views may alias the same buffer as
    long as the C region is disjoint from the A and B regions (A/B
    panels are packed before any write to C within a block). *)

(** Double-precision BLAS-like kernels.

    These are the task implementation variants of the case study: the
    serial input program calls {!dgemm} ("a highly optimized BLAS
    library" in the paper — here the packed, cache-blocked
    {!Gemm_kernel}), and the generated programs run the same kernel
    per tile on CPU workers and (simulated) GPU workers.

    Three DGEMM variants coexist:
    - {!dgemm_naive} — triple loop, the accuracy reference;
    - {!dgemm_blocked} — cache-blocked ikj over raw storage, no
      packing (the previous default, kept for ablation);
    - {!dgemm} — BLIS-style packed panels + register-blocked
      micro-kernel ({!Gemm_kernel}), the fast path.

    Accuracy contract: blocked and packed each match the naive kernel
    up to summation-order rounding ({!Matrix.approx_equal}); within
    any single variant, pooled and sequential runs are bit-for-bit
    identical.

    Every hot kernel takes an optional [?pool]: a {!Domain_pool.t}
    over which independent row panels (or index ranges) are shared.
    Unless noted otherwise, pooled runs are {e bit-identical} to
    sequential ones — parallelism only ever splits work whose
    per-element summation order does not change.

    Conventions follow BLAS: [dgemm ~alpha a b ~beta c] computes
    [c := alpha * a*b + beta * c] in place. *)

val dgemm_naive :
  ?alpha:float -> ?beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit
(** Triple loop, reference implementation. *)

val dgemm_blocked :
  ?alpha:float ->
  ?beta:float ->
  ?block:int ->
  ?pool:Domain_pool.t ->
  Matrix.t ->
  Matrix.t ->
  Matrix.t ->
  unit
(** Cache-blocked (default block 64) with an ikj inner order, directly
    on the row-major storage — no packing or register blocking.  With
    [pool], row panels of [block] rows run in parallel; results are
    bit-identical to the sequential run. *)

val dgemm :
  ?alpha:float ->
  ?beta:float ->
  ?pool:Domain_pool.t ->
  Matrix.t ->
  Matrix.t ->
  Matrix.t ->
  unit
(** The DGEMM entry point: BLIS-style packed, cache-blocked
    ({!Gemm_kernel}): MC/KC/NC blocking, contiguous per-domain packing
    buffers, register-blocked micro-kernel.  With [pool], MC row
    panels run in parallel; bit-identical to the sequential run. *)

val dgemv :
  ?alpha:float -> ?beta:float -> ?pool:Domain_pool.t -> Matrix.t ->
  float array -> float array -> unit
(** [y := alpha*A*x + beta*y].  Pooled over rows for large matrices
    (>= 64k elements); bit-identical to sequential. *)

val daxpy : ?pool:Domain_pool.t -> float -> float array -> float array -> unit
(** [y := a*x + y].  Pooled over index ranges for large vectors
    (>= 64k elements); bit-identical to sequential. *)

val ddot : ?pool:Domain_pool.t -> float array -> float array -> float
(** Pooled runs reduce fixed-size chunk partials in chunk order:
    deterministic for every domain count, but the rounding may differ
    from the sequential left-to-right sum. *)

val dscal : float -> float array -> unit
val dnrm2 : float array -> float

val vector_add : ?pool:Domain_pool.t -> float array -> float array -> unit
(** [a := a + b] — the paper's vecadd task example. *)

val matrix_add : ?pool:Domain_pool.t -> Matrix.t -> Matrix.t -> unit
(** [a := a + b] elementwise on matrix storage; pooled chunking as
    {!daxpy}, bit-identical to sequential. *)

val flops_dgemm : int -> int -> int -> float
(** FLOP count of [m x k] times [k x n]: [2*m*n*k]. *)

(** LAPACK-flavoured kernels for the tiled Cholesky factorization.

    These four operations are the classic task types of a tiled
    Cholesky (POTRF / TRSM / SYRK / GEMM-update); the runtime's
    dependency tracking sequences them automatically when submitted
    tile by tile. Only the lower triangle is referenced/produced.

    Each kernel has one implementation, on strided views: a
    [rows x cols] operand at [buf.{off + i*ld + j}], as
    {!Gemm_kernel.gemm} takes them.  The [_view] entry points compute
    in place on such views (a task runtime passes tiles of a
    registered matrix without copying them); the {!Matrix.t} entry
    points call them with offset 0 and [ld = cols].  A view that does
    not fit its buffer raises [Invalid_argument]; the written view
    must not overlap a read one. *)

exception Not_positive_definite of int
(** Raised by {!dpotrf} with the failing pivot index. *)

val dpotrf : ?pool:Domain_pool.t -> Matrix.t -> unit
(** In-place lower-triangular Cholesky of a square matrix:
    [A = L * L^T], [L] stored in the lower triangle (the strict upper
    triangle is zeroed).  Blocked right-looking algorithm: unblocked
    diagonal-block factor, panel solve, trailing update through the
    packed {!Gemm_kernel}.  The diagonal block (at most 64 wide) is
    factored in C, right-looking along rows, yet each element keeps
    the chain of the left-looking loop it replaced: its products
    subtracted for ascending columns, then its division or square
    root, each rounded on its own.  The first pivot [<= 0] raises
    with its index (a NaN pivot does not raise; it spreads), and
    leaves the view's contents unspecified.  With [pool], panel rows
    and trailing block rows run in parallel, gated behind a
    minimum-work threshold so small panels never pay parallel_for
    overhead; pooled runs are bit-identical to sequential ones. *)

val dtrsm_rlt : ?pool:Domain_pool.t -> l:Matrix.t -> Matrix.t -> unit
(** [dtrsm_rlt ~l b] solves [X * l^T = b] in place ([b := X]) with
    [l] lower triangular — the panel update of tiled Cholesky.
    Blocked: packed-GEMM updates between small per-row triangular
    solves.  Rows of [b] are independent; pooled runs are
    bit-identical (same work gating as {!dpotrf}). *)

val dsyrk_ln : ?pool:Domain_pool.t -> a:Matrix.t -> Matrix.t -> unit
(** [dsyrk_ln ~a c] performs the symmetric rank-k update
    [c := c - a * a^T] on the lower triangle of [c] (the upper
    triangle is mirrored to keep the tile symmetric), through the
    packed {!Gemm_kernel} on block rows.  Pooled runs are
    bit-identical. *)

val dgemm_nt : ?pool:Domain_pool.t -> a:Matrix.t -> b:Matrix.t -> Matrix.t -> unit
(** [dgemm_nt ~a ~b c] computes [c := c - a * b^T] through the packed
    {!Gemm_kernel}.  Pooled runs are bit-identical. *)

val dpotrf_view :
  ?pool:Domain_pool.t -> n:int -> a:Matrix.buf -> aoff:int -> lda:int ->
  unit -> unit
(** {!dpotrf} on the [n x n] view at [aoff]; only the view's strict
    upper triangle is zeroed. *)

val dtrsm_rlt_view :
  ?pool:Domain_pool.t -> m:int -> n:int -> l:Matrix.buf -> loff:int ->
  ldl:int -> b:Matrix.buf -> boff:int -> ldb:int -> unit -> unit
(** {!dtrsm_rlt} with [l] the [n x n] view at [loff] and [b] the
    [m x n] view at [boff]. *)

val dsyrk_ln_view :
  ?pool:Domain_pool.t -> n:int -> k:int -> a:Matrix.buf -> aoff:int ->
  lda:int -> c:Matrix.buf -> coff:int -> ldc:int -> unit -> unit
(** {!dsyrk_ln} with [a] the [n x k] view at [aoff] and [c] the
    [n x n] view at [coff]. *)

val dgemm_nt_view :
  ?pool:Domain_pool.t -> m:int -> n:int -> k:int -> a:Matrix.buf ->
  aoff:int -> lda:int -> b:Matrix.buf -> boff:int -> ldb:int ->
  c:Matrix.buf -> coff:int -> ldc:int -> unit -> unit
(** {!dgemm_nt} with [a] [m x k], [b] [n x k] and [c] [m x n]. *)

val solve_rows :
  ?pool:Domain_pool.t -> x:Matrix.buf -> xoff:int -> ldx:int -> l:Matrix.buf ->
  loff:int -> ldl:int -> j0:int -> j1:int -> lo:int -> hi:int -> unit ->
  unit
(** The triangular solve inside {!dpotrf} and {!dtrsm_rlt}: for rows
    [lo <= r < hi] of the view [x] at [xoff] (leading dimension
    [ldx]), solve columns [j0 <= j < j1] of [X * L^T = B] in place
    against the lower-triangular diagonal block of the view [l]
    (rows and columns [j0, j1)), columns before [j0] already applied.
    Element [x[r][j]] is [(x[r][j] - x[r][j0]*l[j][j0] - ... -
    x[r][j-1]*l[j][j-1]) / l[j][j]], each subtraction rounded in that
    order, whatever the pool.  [x] and [l] may share a buffer if the
    solved region and the diagonal block are disjoint.  Unchecked:
    callers pass views that fit their buffers. *)

val random_spd : ?seed:int -> int -> Matrix.t
(** A well-conditioned symmetric positive-definite matrix:
    [M*M^T + n*I] for a random [M].  Only the lower triangle of
    [M*M^T] is computed; the upper one is its mirror. *)

val cholesky_residual : a:Matrix.t -> l:Matrix.t -> float
(** [max |(L*L^T - A)_ij|] over the lower triangle, for verification;
    only the lower triangle of [l] is used. *)

val flops_potrf : int -> float
(** [n^3 / 3]. *)

val flops_trsm : int -> int -> float
(** [m] rows solved against an [n x n] triangle: [m * n^2]. *)

val flops_syrk : int -> int -> float
(** rank-[k] update of an [n x n] tile: [n^2 * k]. *)

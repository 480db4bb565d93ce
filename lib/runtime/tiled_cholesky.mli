(** Tiled Cholesky factorization as a dependency-rich task graph.

    DGEMM (the paper's kernel) is embarrassingly parallel; Cholesky is
    the canonical counterpoint: its POTRF/TRSM/SYRK/GEMM tiles form a
    DAG whose critical path exercises the runtime's implicit
    dependency tracking — exactly the workload class StarPU was built
    for, and the natural next kernel for a PDL-parameterized runtime.

    Tasks per [t x t] tile grid: [t] POTRF, [t(t-1)/2] TRSM,
    [t(t-1)/2] SYRK and [t(t-1)(t-2)/6] GEMM updates, sequenced purely
    by their data accesses (no explicit dependencies are declared).

    Both entry points submit onto an engine the caller created and
    wait for it, as {!Tiled_dgemm}'s do; dynamic-resource events are
    scheduled with {!Engine.at} before the call. *)

val run_on : ?tiles:int -> Engine.t -> Kernels.Matrix.t -> Engine.stats
(** Factor a symmetric positive-definite matrix in place ([tiles]
    defaults to 4): the tile tasks read only its lower triangle, and
    on return it holds the lower factor [l], with [l * l^T ~ a] and
    the strict upper triangle zeroed.  Returns the engine's cumulative
    stats.  Nothing is copied or allocated for the matrix; a caller
    that needs [a] afterwards factors a {!Kernels.Matrix.copy}.
    @raise Engine.Stuck as {!Engine.wait_all} does.
    @raise Kernels.Lapack.Not_positive_definite as the kernels do;
    [a] then holds a partial factorization. *)

val model_on : ?tiles:int -> Engine.t -> n:int -> Engine.stats
(** Timing model only ([tiles] defaults to 8): virtual handles, so
    the tasks are timed but no kernel runs. *)

val flops : int -> float
(** Total FLOPs of an [n x n] Cholesky: [n^3 / 3]. *)

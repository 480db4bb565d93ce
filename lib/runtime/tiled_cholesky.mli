(** Tiled Cholesky factorization as a dependency-rich task graph.

    DGEMM (the paper's kernel) is embarrassingly parallel; Cholesky is
    the canonical counterpoint: its POTRF/TRSM/SYRK/GEMM tiles form a
    DAG whose critical path exercises the runtime's implicit
    dependency tracking — exactly the workload class StarPU was built
    for, and the natural next kernel for a PDL-parameterized runtime.

    Tasks per [t x t] tile grid: [t] POTRF, [t(t-1)/2] TRSM,
    [t(t-1)/2] SYRK and [t(t-1)(t-2)/6] GEMM updates, sequenced purely
    by their data accesses (no explicit dependencies are declared). *)

type result = {
  l : Kernels.Matrix.t option;  (** lower factor; [None] in model runs *)
  stats : Engine.stats;
  gflops_effective : float;
}

val run :
  ?policy:Engine.policy ->
  ?tiles:int ->
  ?configure:(Engine.t -> unit) ->
  ?pool:Kernels.Domain_pool.t ->
  ?faults:Fault.t ->
  Machine_config.t ->
  Kernels.Matrix.t ->
  result
(** Factor a symmetric positive-definite matrix (not modified; a copy
    is factored, in place by the tile tasks, and returned). Kernels
    execute for real; the result satisfies
    [l * l^T ~ a]. [configure] runs on the engine after submission
    and before execution — the place to schedule dynamic-resource
    events ({!Engine.at}). [pool] is forwarded to {!Engine.create}
    so the tile kernels run on real domains; [faults] injects a
    deterministic failure schedule.
    @raise Kernels.Lapack.Not_positive_definite as the kernels do. *)

val run_on :
  ?tiles:int -> Engine.t -> Kernels.Matrix.t -> Kernels.Matrix.t * Engine.stats
(** Submit the factorization onto an {e existing} engine and wait for
    it (the task service's entry point; see {!Tiled_dgemm.run_on}).
    Returns the lower factor and the engine's cumulative stats.
    @raise Engine.Stuck as {!Engine.wait_all} does.
    @raise Kernels.Lapack.Not_positive_definite as the kernels do. *)

val run_model :
  ?policy:Engine.policy -> ?tiles:int -> ?configure:(Engine.t -> unit) ->
  ?faults:Fault.t -> Machine_config.t -> n:int -> result
(** Timing model only (virtual handles, no kernel execution). *)

val flops : int -> float
(** Total FLOPs of an [n x n] Cholesky: [n^3 / 3]. *)

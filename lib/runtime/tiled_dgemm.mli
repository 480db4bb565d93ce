(** The case study's computation as a task graph (paper §IV-D).

    [C := A*B] is partitioned StarPU-style: [C] into a [tiles x tiles]
    grid, [A] into row strips, [B] into column strips, and one
    {!Codelet.dgemm} task per [C] tile reading strip [i] of [A] and
    strip [j] of [B]. With [tiles = 1] the graph is the single-task
    serial program.

    Two entry points:
    - {!run} registers real matrices, executes kernels, and returns
      both the result and the engine statistics — used by tests and
      examples at small sizes.  [a] and [b] are registered as they
      are (the tasks only read them) and every task computes in place
      on its tiles' {!Data.view}s, so no tile is copied;
    - {!run_model} uses virtual handles (no buffers, no kernel
      execution) so the 8192-size Figure 5 experiment simulates in
      milliseconds. *)

type result = {
  c : Kernels.Matrix.t option;  (** [None] for model-only runs *)
  stats : Engine.stats;
  gflops_effective : float;
      (** problem FLOPs divided by makespan, in GFLOP/s *)
}

val run :
  ?policy:Engine.policy ->
  ?tiles:int ->
  ?group:string ->
  ?pool:Kernels.Domain_pool.t ->
  ?faults:Fault.t ->
  ?tune:Tune.Store.t ->
  Machine_config.t ->
  a:Kernels.Matrix.t ->
  b:Kernels.Matrix.t ->
  result
(** [pool] is forwarded to {!Engine.create} so the per-tile dgemm
    kernels run on real domains; [faults] and [tune] likewise
    (transient failures drop the attempt's kernel, so the result
    stays bit-identical to a fault-free run as long as every task
    eventually completes).
    @raise Invalid_argument on shape mismatch or [tiles] exceeding
    the matrix dimensions. *)

val run_on :
  ?tiles:int ->
  ?group:string ->
  Engine.t ->
  a:Kernels.Matrix.t ->
  b:Kernels.Matrix.t ->
  Kernels.Matrix.t * Engine.stats
(** Submit the same task graph onto an {e existing} engine and wait
    for it: the task service's entry point, where one long-lived
    engine per (tenant, PU shard) carries many jobs and virtual time
    accumulates across them. Returns the product (the matrix the
    tasks wrote in place) and the engine's cumulative stats; read
    {!Engine.now} around the call for the per-job makespan.
    @raise Engine.Stuck as {!Engine.wait_all} does. *)

val run_model :
  ?policy:Engine.policy ->
  ?tiles:int ->
  ?group:string ->
  ?faults:Fault.t ->
  ?tune:Tune.Store.t ->
  ?true_gflops:(string * float) list ->
  Machine_config.t ->
  n:int ->
  result
(** Square [n x n] DGEMM, timing model only.  [tune]/[true_gflops]
    drive the calibration benchmarks: learned models on a platform
    whose declared speeds are deliberately wrong. *)

val speedup : baseline:result -> result -> float
(** Ratio of makespans. *)

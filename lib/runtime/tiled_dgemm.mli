(** The case study's computation as a task graph (paper §IV-D).

    [C := A*B] is partitioned StarPU-style: [C] into a [tiles x tiles]
    grid, [A] into row strips, [B] into column strips, and one
    {!Codelet.dgemm} task per [C] tile reading strip [i] of [A] and
    strip [j] of [B]. With [tiles = 1] the graph is the single-task
    serial program.

    Both entry points submit the graph onto an engine the caller
    created ({!Engine.create} sets the policy, pool, faults and cost
    models) and wait for it; the engine's virtual time accumulates
    across calls, so read {!Engine.now} around a call for its
    makespan. {!Engine.gflops} turns the stats of a fresh engine
    into the effective rate. *)

val run_on :
  ?tiles:int ->
  ?group:string ->
  Engine.t ->
  a:Kernels.Matrix.t ->
  b:Kernels.Matrix.t ->
  c:Kernels.Matrix.t ->
  Engine.stats
(** [C := C + A*B] on real matrices ([tiles] defaults to 4): [a],
    [b] and [c] are registered as they are, and every task computes
    in place on its tiles' {!Data.view}s, so no tile is copied and
    nothing is allocated for the product: a caller wanting [A*B]
    passes a zeroed [c].  Returns the engine's cumulative stats.
    [group] restricts every task to that execution group.
    @raise Invalid_argument on shape mismatch or [tiles] exceeding
    the matrix dimensions.
    @raise Engine.Stuck as {!Engine.wait_all} does. *)

val model_on :
  ?tiles:int -> ?group:string -> Engine.t -> n:int -> Engine.stats
(** Square [n x n] DGEMM over virtual handles ([tiles] defaults to
    8): the tasks are timed but no kernel runs, so the 8192-size
    Figure 5 experiment simulates in milliseconds. *)

(** Executable semantics for translated programs.

    Where {!Codegen} emits the output {e source}, this module {e runs}
    the translation: it interprets the annotated program with
    {!Interp}, intercepting every execute-annotated call site and
    turning it into runtime task submissions on the simulated machine
    of the target PDL descriptor. Task bodies execute through the
    interpreter on the runtime's buffers, so any C the programmer
    wrote runs — on whichever worker the scheduler picked.

    Decomposition: a [BLOCK]-distributed pointer parameter is treated
    as a row-major matrix whose row count is the value of the
    annotation's size argument (e.g. [A:BLOCK:m] with parameter
    [int m]); it is split into row blocks, one task per block, and
    the size parameter is rewritten to the block's row count for each
    sub-call. Undistributed pointers pass whole (typically read-only,
    like [B] in DGEMM). [CYCLIC]/[BLOCKCYCLIC] currently decompose
    like [BLOCK] (contiguous blocks, round-robin placement is the
    scheduler's job) — a documented prototype restriction.

    Synchronization follows StarPU's acquire model: submissions are
    asynchronous; when {e serial} code touches a buffer involved in
    pending tasks, the runtime drains before the access. *)

type report = {
  exit_code : int;
  stdout : string;
  stats : Taskrt.Engine.stats;
  tasks_submitted : int;
  per_site_blocks : (string * int) list;
      (** interface -> blocks per submission *)
  failover_log : string list;
      (** one line per PDL-driven failover: which task was re-targeted
          to which variant under which degraded platform view *)
  calibration : Taskrt.Engine.cal_stat list;
      (** per-codelet estimate sources when a calibration store was
          attached (model hits / static fallbacks / explorations) *)
  native_tasks : int;
      (** task executions dispatched through loaded native kernels or
          in-process library kernels *)
  native_fallbacks : int;
      (** task executions that fell back to the interpreter while a
          native library was attached (unsupported variant or missing
          symbol) *)
}

val run :
  ?policy:Taskrt.Engine.policy ->
  ?blocks:int ->
  ?fuel:int ->
  ?trace:string ->
  ?faults:Taskrt.Fault.t ->
  ?tune:Tune.Store.t ->
  ?native:Native.t ->
  repo:Repository.t ->
  platform:Pdl_model.Machine.platform ->
  Minic.Ast.unit_ ->
  (report, string) result
(** Interpret the program's [main] against the platform. [trace]
    writes a Chrome trace of the execution to a file. [blocks]
    overrides the decomposition width (default: number of workers
    eligible for the site's execution group). The repository must
    already contain (or the unit must define) every referenced task.
    Selection follows {!Preselect}.

    [faults] injects a deterministic {!Taskrt.Fault} schedule. On top
    of the engine's retry/quarantine machinery, [run] installs a
    PDL-driven failover handler: when a task is stranded (e.g. its
    execution group's PUs all crashed), a degraded platform view is
    derived with {!Pdl.View.drop_pu} for every fully-offline PU,
    pre-selection is re-run against it, and the surviving repository
    variants take over — with the group restriction lifted. Each such
    event is recorded in [failover_log].

    [tune] attaches a calibration store (see {!Taskrt.Engine.create}):
    Heft placements consult the learned per-(codelet, PU, size-bucket)
    models, every completed task feeds its measured span back, and
    cold variants are sampled at the engine's default exploration
    rate. The caller persists the store afterwards.

    [native] attaches a loaded kernels library (see {!Native.build}):
    a variant whose body is one [blas_dgemm] call (see
    {!Interp.library_call}) runs the packed kernel in process; task
    bodies whose variant has a resolved wrapper symbol run as compiled
    machine code; every other variant falls back to the interpreter,
    counted in [native_fallbacks] and in the [native_fallbacks]
    telemetry counter. Scheduling, telemetry, faults and calibration
    are unchanged — only the codelet body's executor differs, and its
    outputs are bit-identical.

    A malformed program literal or any other interpreter error is
    returned as [Error]. *)

val run_serial : ?fuel:int -> Minic.Ast.unit_ -> (int * string, string) result
(** The untranslated baseline: interpret the program with execute
    pragmas as plain calls ("single" in Figure 5). Returns exit code
    and stdout. *)

(** Executable semantics for translated programs.

    Where {!Codegen} emits the output {e source}, this module {e runs}
    the translation: it interprets the annotated program with
    {!Interp}, intercepting every execute-annotated call site and
    turning it into runtime task submissions on the simulated machine
    of the target PDL descriptor. Task bodies execute through the
    interpreter on the runtime's buffers, so any C the programmer
    wrote runs — on whichever worker the scheduler picked. With a
    native library that carries [main] (see [run]'s [native]), [main]
    runs compiled and its execute sites come back here through a host
    table.

    Tasks run in place, as a StarPU task gets pointers into the
    program's registered arrays: each pointer argument is a view of its
    block of the program's own buffer, bounded by that block, and
    nothing is copied in or written back. The access modes declared in
    the task annotation order the tasks; they do not filter writes. A
    body that writes a [read]-declared parameter changes the program's
    buffer, as the serial program would.

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
      (** task executions dispatched through loaded compiled wrappers *)
  native_fallbacks : int;
      (** task executions that fell back to the interpreter while a
          native library was attached (unsupported variant or missing
          symbol) *)
  native_main : bool;
      (** whether [main] ran as the library's compiled entry *)
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
(** Run the program's [main] against the platform. [trace]
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

    [native] attaches a loaded kernels library (see {!Native.build}).
    When the library carries the program's [main] ({!Native.entry}),
    [main] runs as that compiled entry instead of through the
    interpreter, inside a [native_main] span, and [native_main] is
    set. Its allocations are interpreter buffers, its output goes to
    [stdout], and each execute site comes back through the same
    submission path as an interpreted one, so an interior pointer or an
    unknown group fails with the same [Error] text. The compiled [main]
    waits for its tasks after every execute site, where the interpreted
    one waits only when serial code touches a pending buffer; two
    independent sites in a row can therefore overlap in the simulated
    schedule only when [main] is interpreted. [fuel] does not bound
    compiled code, and it has no bounds checks of its own; its
    [blas_dgemm] resolves the three matrices against [main]'s
    allocations and runs {!Interp.blas_dgemm}, so a bad extent or an
    overlap fails with the interpreter's text.

    Task bodies whose variant has a resolved wrapper symbol run as
    compiled machine code on the same views, counted in [native_tasks]
    with a [native_exec] span; their [blas_dgemm] calls resolve against
    the task's argument views and run {!Interp.blas_dgemm}. Every other
    variant falls back to the interpreter, counted in
    [native_fallbacks] and in the [native_fallbacks] telemetry counter.
    One {!Taskrt.Capi.host} serves the compiled [main] and every
    compiled task of a run. Scheduling, telemetry, faults and
    calibration are unchanged, and stdout is byte for byte that of the
    interpreted run.

    A malformed program literal or any other interpreter error is
    returned as [Error]. *)

val run_serial : ?fuel:int -> Minic.Ast.unit_ -> (int * string, string) result
(** The untranslated baseline: interpret the program with execute
    pragmas as plain calls ("single" in Figure 5). Returns exit code
    and stdout. *)

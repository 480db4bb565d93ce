(** The multi-tenant task service behind [cascabeld]: admission
    control, fair dispatch, coalescing, deadlines and graceful drain,
    multiplexing jobs onto per-(tenant, shard) {!Taskrt.Engine}
    instances.

    {b Isolation by construction.} Each tenant gets its own engines
    over the PU shards ({!Shard.split}), carrying the tenant's own
    {!Taskrt.Fault} model, retry budget, quarantine view and RNG — a
    crashing, fault-injected tenant cannot perturb another tenant's
    schedules or results, which stay bit-identical to an unloaded run.

    {b Fairness.} Dispatch is deficit round robin: every pass grants
    each backlogged tenant [quantum * weight] flops of credit; a job
    runs once the tenant's deficit covers its flops estimate, so a
    flood of cheap jobs from one tenant cannot starve another.

    {b Job buffers.} The service owns the matrices its dense jobs
    compute on, and a warm service allocates none per job.  Three
    buffers, reused by every tenant and shard: a DGEMM job fills two
    with its inputs A and B by the seeded LCG, zeroes the third and
    accumulates C = A*B into it; a Cholesky job draws its source [M]
    into the first, synthesizes the lower triangle of
    [M*M^T + n*I] into the second ({!Kernels.Lapack.random_spd_lower})
    and factors it there.  Each job hands out exact-length [n x n]
    views and overwrites everything it reads, so its DONE bytes never
    depend on an earlier job.  A buffer grows, once, to the largest
    job it has served, and never past the admission cap
    {!Protocol.max_n}: the resident total is at most
    {!max_buffer_bytes}, 96 MiB, the inputs and output of one
    largest DGEMM.  Fresh buffers per job set off one to three major
    collections per job on the serve-heavy mix.

    The module is single-threaded by design (the daemon's event loop
    serializes calls); the wall clock is injectable for deterministic
    tests. *)

type t

val create :
  ?policy:Taskrt.Engine.policy ->
  ?shards:int ->
  ?queue_cap:int ->
  ?quantum:float ->
  ?tune:Tune.Store.t ->
  ?now:(unit -> float) ->
  ?slo_ms:float ->
  ?slo_objective:float ->
  ?slo_window_s:float ->
  ?journal:Journal.t ->
  ?dedup_cap:int ->
  Taskrt.Machine_config.t ->
  t
(** [shards] (default 2) sub-machines, [queue_cap] (default 16)
    pending jobs per tenant before {!submit} answers [Overloaded],
    [quantum] (default 1e6) flops of DRR credit per pass and unit
    weight. [now] defaults to [Unix.gettimeofday]; tests inject a fake
    clock.  [slo_ms] sets the default per-tenant latency target a job
    must meet (in addition to finishing Ok) to count as SLO-good;
    omitted means any Ok finish is good.  [slo_objective] (default
    0.99) and [slo_window_s] (default 300) parameterize the rolling
    {!Obs.Slo} window behind burn rates.  [journal] is the write-ahead
    log: every admission appends an accept record {e before} ACCEPTED
    is emitted, every terminal outcome a completion record before
    DONE, so a crash between the two re-runs the job on {!restore}
    instead of losing it.  [dedup_cap] (default
    {!default_dedup_cap}) bounds the remembered {e completed}
    idempotency keys (pending keys are never evicted).
    @raise Invalid_argument on a non-positive cap, quantum or target. *)

val configure_tenant :
  t ->
  name:string ->
  ?weight:float ->
  ?queue_cap:int ->
  ?faults:Taskrt.Fault.t ->
  ?slo_ms:float ->
  unit ->
  unit
(** Create or reconfigure a tenant. Unknown tenants are otherwise
    auto-registered on first {!submit} with weight 1 and the service
    default cap. [faults] applies to engines created {e after} the
    call; timed events are scoped per shard to the workers it holds.
    [slo_ms] overrides the service-default latency target.
    @raise Invalid_argument on non-positive weight, cap or target. *)

val submit :
  t ->
  tenant:string ->
  ?deadline_ms:float ->
  ?idem:string ->
  ?trace:string ->
  Protocol.job ->
  Protocol.reply
(** [Accepted {id; credit; trace}] (credit = remaining queue slots, the
    backpressure signal), [Overloaded] with a retry hint when the
    tenant's queue is full, [Draining] after {!drain} began, or a
    [bad-request] [Error] when the job violates the admission caps of
    {!Protocol.validate_job} (an unbounded job would exhaust memory
    or stall dispatch for every tenant).  [trace] is the client's
    trace context ({!Obs.Trace_ctx.to_string} format): if it parses it
    is adopted and echoed verbatim in ACCEPTED and DONE; otherwise
    (or when absent) the service mints a fresh context, so every
    accepted job carries exactly one flow id through queue, engine,
    and kernel spans.

    [idem] is the client's idempotency key ({!Protocol.valid_idem};
    an invalid key is a [bad-request]).  A resubmission carrying a
    known (tenant, key) never enqueues a second copy: while the
    original is pending it answers [Accepted] with the original id;
    after completion it answers [Accepted] and queues the cached
    [Done] for re-delivery via {!take_replays}.  The dedup check runs
    even while draining, so a retry of owned work replays its outcome
    instead of drawing [Draining]. *)

val take_replays : t -> Protocol.reply list
(** Drain the cached [Done] replies owed to retried idempotent
    submissions, in retry order.  The daemon sends these through the
    same path as fresh completion frames. *)

val default_dedup_cap : int
(** 512 completed idempotency keys. *)

val restore : t -> Journal.recovery -> unit
(** Adopt a journal {!Journal.recover} plan: advance the id counter
    past every journaled id, seed the dedup window with completed
    (tenant, key, DONE) triples (a plan recovered with
    [~window:dedup_cap] leaves the same window as an unbounded one), and re-enqueue unfinished jobs in
    their original acceptance order — bypassing the tenant cap (they
    were admitted under it before the crash) and without re-appending
    journal records.  Deadlines rebase on the restore clock.  Call
    once, before serving traffic. *)

val run_until_idle : t -> Protocol.reply list
(** Dispatch DRR passes until every queue is empty; returns the
    [Done] replies in completion order. Jobs whose deadline expired
    while queued complete as [Jtimeout] without running; queued
    duplicates of a job that just succeeded complete as coalesced
    copies of its result (same tenant only). *)

val drain : t -> ?budget_ms:float -> unit -> Protocol.reply list * Protocol.reply
(** Stop admitting (subsequent {!submit}s answer [Draining]), keep
    dispatching while the wall-clock budget lasts, then cancel
    whatever is still queued. Returns the [Done] replies plus the
    final [Drained] summary. [budget_ms = 0] cancels everything;
    omitted means unbounded. *)

val is_draining : t -> bool
val has_work : t -> bool
val completed : t -> int
(** Jobs that reached a terminal [ok] or [failed] state. *)

val stats : t -> Protocol.tenant_row list
(** One row per tenant in registration order. *)

val quarantined : t -> tenant:string -> string list
(** The tenant's own quarantine view: workers its engines took
    offline. Another tenant's crashes never appear here. *)

val trace_cap : int
(** 4096: the task events, and apart from them the fault events, that
    {!tenant_traces} keeps per tenant. *)

val tenant_traces :
  t ->
  (string * Taskrt.Engine.trace_event list * Taskrt.Engine.fault_event list)
  list
(** Per-tenant execution and fault events, for
    {!Taskrt.Trace_export.events}: the newest {!trace_cap} task events
    and the newest {!trace_cap} fault events of each tenant, grouped by
    shard and in completion order within a shard. Every job's events
    are moved out of its engine when the job ends, failed jobs
    included, so they outlive an engine restarted after a failure. *)

val engines : t -> tenant:string -> Taskrt.Engine.t list
(** The tenant's shard engines created so far, in shard order (tests:
    between jobs none of them holds an event). *)

val shard_configs : t -> Taskrt.Machine_config.t array
(** The PU shards the service runs over (tests, logs). *)

val max_buffer_bytes : int
(** [3 * Protocol.max_n * Protocol.max_n * 8] bytes (96 MiB): the
    bound on {!buffer_bytes}. *)

val buffer_bytes : t -> int
(** Bytes the job buffers hold now.  Each growth of a buffer counts
    once in the [serve_buffer_alloc] counter. *)

val fill_buffers : t -> float -> unit
(** Overwrite every job buffer with the value (tests: fill them with
    NaN between jobs, and no result may change). *)

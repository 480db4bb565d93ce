(** The task engine: StarPU-equivalent scheduling and data management
    over the simulated machine.

    Usage mirrors StarPU:

    {[
      let cfg = Machine_config.of_platform_exn platform in
      let rt = Engine.create cfg in
      let ha = Engine.register rt (Data.register_matrix a) in
      Engine.submit rt Codelet.dgemm [ (ha, R); (hb, R); (hc, RW) ];
      let stats = Engine.wait_all rt in
      Printf.printf "took %gs\n" stats.makespan
    ]}

    Tasks are ordered by {e sequential consistency} on their data
    (StarPU's implicit dependencies): a task depends on the previous
    writer of everything it accesses, and writers also wait for
    earlier readers.

    Scheduling policies:
    - {!Eager}: a shared ready-queue; any idle compatible worker
      takes the oldest task. No cost model (StarPU's [eager]).
    - {!Heft}: heterogeneous earliest-finish-time — each ready task
      goes to the worker minimizing estimated completion, counting
      pending transfers and queued work (StarPU's [dmda] family).
    - {!Locality_ws}: tasks are placed where their data already
      lives; idle workers steal from the rear of the longest queue
      (locality-aware work stealing).
    - {!Random_place}: uniformly random compatible worker — the
      baseline ablation.

    {b Re-entrancy.} An engine instance is self-contained: the RNG,
    task tables, PU health/quarantine state and fault bookkeeping all
    live in {!type-t}, so any number of engines (e.g. one per tenant and
    PU shard in the task service) coexist without influencing each
    other's schedules or results. The only cross-engine mutable state
    is the {!Data} handle-id allocator (atomic, order-insensitive)
    and the {!Obs} telemetry registries (cumulative counters only —
    never read back by scheduling decisions). *)

type policy = Eager | Heft | Locality_ws | Random_place

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type t

val create :
  ?policy:policy ->
  ?pool:Kernels.Domain_pool.t ->
  ?faults:Fault.t ->
  ?tune:Tune.Store.t ->
  ?explore_eps:float ->
  ?true_gflops:(string * float) list ->
  ?label:string ->
  Machine_config.t ->
  t
(** Every task is charged a 20 µs dispatch overhead. A task whose
    handles are all virtual ({!Data.register_virtual}) is timed but
    its implementation never runs, which is how model-only runs reach
    sizes too large to compute; every other task, handle-less ones
    included, runs its implementation for real as it completes.
    [pool] is handed to every codelet implementation the engine
    runs, so multi-core kernels spread across real OCaml domains.
    [faults] installs a deterministic {!Fault} model: transient
    failures roll per attempt, and the spec's timed
    crash/slowdown/recover events are scheduled into the simulation.

    [tune] attaches a calibration store (StarPU dmda style): {!Heft}
    consults its learned per-(codelet, PU, size-bucket) model instead
    of declared gflops wherever the model has enough samples, every
    completed task feeds its measured compute span back, and with
    probability [explore_eps] (default 0.05) a ready task is placed on
    a cold (codelet, PU) pairing so unmeasured variants still get
    sampled. Exploration and random placement draw from an RNG seeded
    with a constant, so runs stay deterministic.

    [true_gflops] overrides, per worker name or PDL PU id, the rate
    tasks are {e charged} at — the declared [w_gflops] still drives
    the static scheduling estimate. This models a descriptor whose
    declared speeds are wrong (the calibration benchmarks' skewed
    platform).

    [label] tags this engine's {!Obs.Decision} records (the serving
    stack passes ["tenant/shardN"]); default [""].
    @raise Invalid_argument when a fault event or [true_gflops] entry
    names a PU that matches no worker, or a rate is not positive. *)

val machine : t -> Machine_config.t
val policy : t -> policy

val now : t -> float
(** Current virtual time. Starts at 0 and advances across repeated
    {!wait_all} calls and {!rebase}s; the trace, the fault log and
    {!at} use this timeline. *)

val rebase : t -> unit
(** [rebase t] moves the origin of the simulation's clock to the
    current time, so {!elapsed} restarts from 0 while {!now}, the
    trace and the fault log go on counting from the engine's
    creation. Timed events still pending (fault-plan entries,
    readmissions, {!at}) keep their place on that timeline. A
    long-lived engine (the task service runs one per tenant and
    shard) rebases before each job, so the job is simulated in the
    same floating-point times, and reports the same makespan, whatever
    the engine ran before. Does nothing while tasks are in flight. *)

val elapsed : t -> float
(** Virtual seconds since the last effective {!rebase} (since
    creation if none). *)

val tune_store : t -> Tune.Store.t option
(** The calibration store handed to {!create}, if any. *)

type cal_stat = {
  cs_codelet : string;
  cs_model_hits : int;  (** Heft placements priced by the learned model *)
  cs_static_fallbacks : int;  (** placements priced by declared gflops *)
  cs_explorations : int;  (** epsilon-greedy cold-pairing picks *)
}

val calibration : t -> cal_stat list
(** Per-codelet estimate-source counters, sorted by codelet name.
    Empty unless the engine was created with [?tune] and ran under
    {!Heft}. *)

val submit :
  ?group:string -> t -> Codelet.t -> (Data.handle * Codelet.access) list ->
  unit
(** Queue a task. [group] restricts placement to workers whose PU
    carries that [LogicGroupAttribute] (the paper's execution
    groups).
    @raise Invalid_argument when no worker (in the group) has an
    implementation, when a handle is partitioned, or when the task
    mixes virtual and storage-backed handles. *)

val submit_id :
  ?group:string -> t -> Codelet.t -> (Data.handle * Codelet.access) list ->
  int
(** Like {!submit} but returns the task id — the key used by
    {!declare_dep}, {!type-stranded} and {!type-fault_event}. Ids count up
    from 0 in submission order. *)

val declare_dep : t -> task:int -> depends_on:int -> unit
(** Add an explicit (StarPU [task_declare_deps]-style) edge on top of
    the implicit sequential-consistency ones: [task] will not start
    before [depends_on] finished. Unlike implicit edges, explicit
    ones can form cycles — {!wait_all} then reports the cycle via
    {!Stuck}.
    @raise Invalid_argument if either id is unknown/finished or
    [task] was already dispatched. *)

type worker_stat = {
  ws_worker : Machine_config.worker;
  busy_s : float;  (** compute + transfer time attributed *)
  online_s : float;  (** virtual seconds the worker was online *)
  tasks_run : int;
  ws_health : health;  (** PU health at the end of the run *)
}

and health = Healthy | Suspect | Quarantined
(** The PU health state machine: a transient failure marks a worker
    [Suspect]; [quarantine_after] failures take it offline
    ([Quarantined]); {!Fault.t}[.readmit_after] re-admits it as
    [Suspect] with a clean slate. A crash quarantines immediately and
    permanently (only a [recover] event brings it back). *)

val health_to_string : health -> string

type stats = {
  makespan : float;  (** virtual seconds from 0 to last completion *)
  tasks : int;
  bytes_transferred : float;
  worker_stats : worker_stat array;
  sim_events : int;
  failures_injected : int;  (** transient failures rolled *)
  retries : int;  (** retry attempts scheduled *)
  reassigned : int;  (** in-flight tasks moved off a crashed PU *)
  failovers : int;  (** stranded tasks re-targeted by the handler *)
  abandoned : int;  (** tasks that ran out of retry budget *)
  quarantined : string list;  (** workers quarantined at the end *)
}

type stuck_task = {
  st_id : int;
  st_codelet : string;
  st_state : string;  (** pending | ready | failed | ... *)
  st_unmet_deps : int list;  (** unfinished tasks it still waits on *)
}

exception Stuck of stuck_task list
(** Raised by {!wait_all} when the simulation drained with tasks left
    over: a dependency cycle ({!declare_dep}), every capable worker
    offline, or a task abandoned after its retry budget. Carries one
    entry per unfinished task, in id order. *)

val stuck_to_string : stuck_task list -> string
(** Human-readable rendering (also installed as the
    [Printexc] printer for {!Stuck}). *)

val wait_all : t -> stats
(** Run the simulation until every submitted task completed. May be
    called repeatedly; virtual time keeps advancing.

    Table invariant: once the simulation drains, the per-handle
    dependency tables (last writer, current readers) drop every
    finished task and keep tasks in any other state, failed ones
    included. A finished task can no longer gate a later submission,
    so schedules are unchanged, and a long-lived engine holds no
    finished task, nor the data its handles reference.
    @raise Stuck when tasks cannot make progress. *)

val gflops : flops:float -> stats -> float
(** [flops] divided by the makespan, in GFLOP/s; [0.] when nothing
    ran. The effective rate of a task graph run on a fresh engine. *)

(** {1 Dynamic resources}

    The paper's §VI future work: "how platform descriptors could be
    utilized for supporting highly dynamic run-time schedulers" when
    "dynamically changing system resources" make static descriptors
    stale. These primitives change the machine {e during} a run:
    workers can go offline (hot-unplug, failure), come back, or change
    speed (DVFS/thermal throttling). Queued tasks of an offline worker
    are redistributed by the active policy; a running task always
    completes — unless the worker {e crashes} (see {!Fault}), in which
    case its in-flight task is reassigned. *)

val set_offline : t -> worker:string -> unit
(** Stop a worker (by {!Machine_config.worker} name) from accepting
    tasks; its queue is re-dispatched.
    @raise Invalid_argument on unknown names. *)

val set_online : t -> worker:string -> unit
val is_online : t -> worker:string -> bool

val worker_health : t -> worker:string -> health
(** @raise Invalid_argument on unknown names. *)

val quarantined_workers : t -> string list
(** Names of currently quarantined workers, in machine order. *)

val set_gflops : t -> worker:string -> float -> unit
(** Change a worker's modeled throughput (a DVFS event). Affects
    tasks dispatched from now on; the HEFT availability estimate of
    in-flight work is rescaled so placement decisions see the new
    speed immediately. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Schedule a reconfiguration at a virtual time (before or between
    [wait_all] runs). Beware: if every worker a pending task could
    use goes offline, {!wait_all} reports the stuck tasks. *)

(** {1 Fault tolerance}

    With {!create}[ ?faults], tasks can fail transiently (the
    attempt's kernel is never run, so no state is corrupted) and PUs
    can crash mid-run. Failed tasks are retried with exponential
    backoff in virtual time, excluding the worker that failed them
    while another capable one exists; repeated failures drive the
    {!health} state machine and quarantine the PU. When no eligible
    worker remains for a task, the {!on_stranded} handler may supply
    a replacement codelet/group — Cascabel uses this to re-run
    preselection against a degraded PDL platform view so alternate
    implementation variants take over. *)

type stranded = {
  sd_id : int;  (** task id (see {!submit_id}) *)
  sd_codelet : Codelet.t;
  sd_group : string option;
  sd_attempt : int;
}

val on_stranded : t -> (stranded -> (Codelet.t * string option) option) -> unit
(** Install the failover handler, called when a ready task has no
    online eligible worker left. Returning [Some (codelet, group)]
    re-targets the task (clearing its exclusions) and re-dispatches
    it; [None] leaves it parked for {!set_online}/recovery. At most
    two failovers are attempted per task. *)

type fault_event = {
  f_time : float;  (** virtual time *)
  f_kind : string;
      (** transient | retry | abandon | crash | reassign | suspect |
          quarantine | readmit | slowdown | recover | failover *)
  f_worker : string;  (** [""] when no worker is involved *)
  f_task : int;  (** [-1] when no task is involved *)
  f_detail : string;
}

val fault_log : t -> fault_event list
(** Every fault-layer decision in virtual-time order; feeds the
    dedicated "faults" lane of {!Trace_export}. *)

type trace_event = {
  tr_task : int;  (** task id (see {!submit_id}) *)
  tr_codelet : string;
  tr_worker : string;
  tr_start : float;  (** dispatch time *)
  tr_compute_start : float;  (** after transfers *)
  tr_end : float;
  tr_bytes_in : float;
}

val trace : t -> trace_event list
(** Completed-task records in completion order. *)

val take_events : t -> trace_event list * fault_event list
(** [(trace t, fault_log t)], after which the engine forgets both:
    later calls of {!trace}, {!fault_log} and [take_events] see only
    what happened since. Without it an engine keeps every event of its
    life; a long-lived engine (the task service runs one per tenant
    and shard) takes them after every job to keep its memory
    bounded. *)

val utilization : stats -> float
(** Mean busy fraction in [0, 1], averaged over the workers that
    were ever online during the run — a unit that stayed offline
    throughout does not dilute the figure. *)

(** The newest task and fault events of one tenant's shard engines,
    in memory that stops growing at a fixed number of events.

    The service takes every job's events out of its engine
    ({!Taskrt.Engine.take_events}) and adds them here, so a long-lived
    engine holds none between jobs. A task event is stored as 64 bytes
    of unboxed fields outside the OCaml heap, with its codelet and
    worker names interned; the oldest events are overwritten once
    [cap] are held. *)

type t

val create : cap:int -> t
(** An empty ring keeping the newest [cap] task events and, apart from
    them, the newest [cap] fault events. Storage grows with use up to
    that size. *)

val add :
  t ->
  shard:int ->
  Taskrt.Engine.trace_event list * Taskrt.Engine.fault_event list ->
  unit
(** Append events taken from shard [shard]'s engine, each list in the
    order the engine recorded it. *)

val contents :
  t -> Taskrt.Engine.trace_event list * Taskrt.Engine.fault_event list
(** The kept events grouped by shard, shards in ascending order, each
    shard's events in the order they were added. Until the ring wraps,
    and while no shard's engine was replaced, that is the concatenation
    of each shard engine's {!Taskrt.Engine.trace} and
    {!Taskrt.Engine.fault_log}. *)

(** Execution-trace export.

    StarPU emits Paje traces for post-mortem analysis; taskrt's
    equivalent turns {!Engine.trace} events into Chrome trace events
    (virtual time, pid 0, microseconds), which
    {!Obs.Export.to_chrome_json} writes next to the wall-clock spans
    so Perfetto shows both processes side by side. *)

val events :
  (string * Engine.trace_event list * Engine.fault_event list) list ->
  Obs.Json.t list
(** [events [(lane, trace, faults); ...]]: one lane per worker of
    every engine, each engine's lanes on their own thread ids, named
    ["lane/worker"] (or just ["worker"] when [lane] is [""], the
    single-engine case) — a multi-tenant serve run passes the tenant,
    so tenants stay visually separate.  Each task is a complete
    (["X"]) event, preceded by a transfer event when it moved bytes;
    a non-empty [faults] (see {!Engine.fault_log}) adds a ["faults"]
    lane of instant events — crashes, retries, quarantines,
    failovers — after that engine's worker lanes. *)

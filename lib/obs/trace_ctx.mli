(** Request-scoped trace context: a (trace id, parent span id) pair of
    splitmix64-generated 64-bit ids, propagated from the serving
    client through admission, queueing, dispatch, and codelet
    execution.  Spans tagged with the context's {!flow_id} are linked
    by {!Export.to_chrome_json} into one Perfetto flow, so a job reads as
    a single arrow chain across lanes. *)

type t = { trace_id : int64; span_id : int64 }

val make : unit -> t
(** A fresh context with new trace and span ids. *)

val child : t -> t
(** Same trace id, fresh span id — one causal hop down. *)

val to_string : t -> string
(** ["%016x-%016x"] hex rendering, the wire format of the protocol
    [trace] field. *)

val of_string : string -> t option
(** Parses [to_string] output; also accepts a bare 16-hex-digit trace
    id (span id 0).  [None] on anything else — callers treat an
    unparseable client-supplied trace as a bad request. *)

val flow_id : t -> int
(** The trace id folded to a positive int, used as the Perfetto flow
    event [id].  Never 0 (0 means "no flow" in {!Span}). *)

val set_seed : int64 -> unit
(** Reset the id stream (tests want deterministic ids). *)

val current : unit -> t option
(** The ambient context of the calling domain, if one is installed. *)

val set_current : t option -> unit

val with_current : t -> (unit -> 'a) -> 'a
(** Runs [f] with [t] installed as the calling domain's ambient
    context, restoring the previous one on exit (exceptions
    included). *)

val current_flow : unit -> int
(** [flow_id] of the ambient context, or 0 when none is installed —
    exactly the [?flow] argument recording sites pass to {!Span}. *)

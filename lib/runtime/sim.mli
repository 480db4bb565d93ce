(** Discrete-event simulation core.

    The runtime executes task graphs against a {e simulated} machine:
    virtual time advances through an event queue, and contended
    facilities (worker pipelines, interconnect links) are modeled as
    {!resource}s that serialize use. This is the substitution for the
    paper's physical testbed (see DESIGN.md §3): scheduling decisions,
    data transfers and compute times all happen in virtual time, while
    kernel {e results} can still be computed for real by the engine.

    Events scheduled at equal times fire in insertion order. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedule a callback [delay] seconds from now (>= 0). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** @raise Invalid_argument when [time] is in the past. *)

val run : t -> unit
(** Drain the event queue, advancing virtual time. *)

val events_processed : t -> int

val rebase : t -> float -> unit
(** [rebase t by] subtracts [by] from the clock and from the time of
    every pending event, which keep their relative order. *)

(** {1 Serially reusable resources} *)

type resource

val resource : string -> resource
(** A fresh resource, free from time 0. *)

val resource_name : resource -> string
val busy_until : resource -> float

val rebase_resource : resource -> float -> unit
(** [rebase_resource r by] moves [r]'s busy horizon [by] seconds
    earlier, for a clock rebased with {!rebase}. *)

val acquire : resource -> at:float -> duration:float -> float * float
(** [acquire r ~at ~duration] books the earliest slot of [duration]
    seconds starting no earlier than [at]; returns [(start, finish)]
    and marks the resource busy until [finish]. *)

val peek : resource -> at:float -> duration:float -> float * float
(** Like {!acquire} without booking — used for cost estimates. *)

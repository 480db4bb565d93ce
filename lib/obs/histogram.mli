(** Log-bucketed latency histograms with p50/p95/p99 estimates.

    Geometric buckets, four per power of two: quantiles are exact to
    within one bucket (~9% relative error), count/sum/min/max are
    exact.  Instances are single-writer (no atomics on the observe
    path); use one per domain and {!merge} at read time when several
    domains observe concurrently. *)

type t

val create : ?name:string -> unit -> t
(** A fresh, unregistered histogram (e.g. for one-shot
    aggregation). *)

val observe : t -> float -> unit
(** Record a value in seconds (always records — gate on
    {!Config.on} at the call site for hot paths). *)

val name : t -> string
val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t q] for [q] in [0, 100]: the bucket-resolution
    estimate of the q-th percentile, clamped into the observed
    [min, max] range.  0 when empty. *)

(** {1 Bucket introspection}

    The calibration feeder ({!Tune.Store}) serializes observed
    distributions bucket by bucket, so the log-bucket scheme itself is
    part of the public contract. *)

val bucket_of : float -> int
(** The bucket index a value lands in (clamped to the histogram
    range). *)

val bucket_bounds : int -> float * float
(** Half-open geometric bounds [lo, hi) of a bucket index; inverse of
    {!bucket_of} up to the clamped extremes. *)

val bucket_count : t -> int -> int
(** Samples recorded in one bucket.
    @raise Invalid_argument out of range. *)

val nonzero_buckets : t -> (int * int) list
(** [(bucket index, count)] for every non-empty bucket, ascending. *)

val merge : into:t -> t -> unit

val reset : t -> unit

(** {1 Named registry}

    Histograms the sinks ({!Export}) report: per-codelet execution
    latency and friends. *)

val get_or_make : string -> t
(** The registered histogram under [name], creating it on first use. *)

val observe_named : string -> float -> unit
(** [observe] on [get_or_make name], gated on {!Config.on}. *)

val all : unit -> t list
(** Every registered histogram, sorted by name. *)

val reset_all : unit -> unit

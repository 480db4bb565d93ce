(** Telemetry sinks: Chrome/Perfetto trace JSON, Prometheus-style
    exposition, human-readable summary. *)

val to_chrome_json : Json.t list -> string
(** A complete [{"traceEvents": [...]}] document — open in Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or
    [chrome://tracing].  It holds the given virtual-time events (pid
    0, see {!Taskrt.Trace_export.events}) followed by every recorded
    wall-clock span (pid 1): per-domain [thread_name] metadata, one
    ["X"] (complete) event per span, ["i"] (instant) markers, and
    [s]/[t]/[f] flow events chaining every span that shares a non-zero
    {!Span.event.ev_flow} (one request = one connected arrow chain). *)

val write_chrome : string -> Json.t list -> unit
(** [write_chrome path events] writes {!to_chrome_json} to [path]. *)

val prometheus : unit -> string
(** Text exposition with [# HELP]/[# TYPE] headers: every registered
    counter as [obs_<name>_total], every registered histogram as a
    summary with p50/p95/p99 quantiles, [_sum] and [_count], plus
    per-domain span-ring losses ([obs_span_ring_dropped]) and the SLO
    families ([obs_slo_good_total], [obs_slo_bad_total],
    [obs_slo_objective], [obs_slo_burn_rate], labelled by SLO name).
    Label values are escaped per the text-format spec (backslash,
    double quote, newline). *)

val label_escape : string -> string
(** Prometheus label-value escaping: backslash, double quote, and
    newline become two-character escape sequences. *)

val summary : unit -> string
(** Human-readable tables: counters, latency histograms
    (count/mean/p50/p95/p99/max), SLO burn rates, scheduler-decision
    counts, and per-domain ring occupancy (with overwrite losses). *)

val reset_all : unit -> unit
(** Zero counters, histograms, and SLO windows, clear the decision
    log, and drop recorded spans — a fresh measurement window. *)

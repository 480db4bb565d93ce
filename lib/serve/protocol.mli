(** The cascabeld wire protocol: typed requests and replies, their
    JSON codec, and the length-prefixed socket framing.

    Two transports share the same JSON payloads:
    - {b binary} (Unix socket): each message is a 4-byte big-endian
      payload length followed by the payload, capped at {!max_frame};
    - {b text} (stdio, cram tests): one JSON document per line.

    Decoding never raises and never hangs on partial input: malformed
    payloads become structured {!error} values the daemon echoes back,
    and {!deframe} reports truncation ([Need]) separately from
    corruption ([Corrupt]). *)

val version : int
(** Protocol version, currently [1]. Every message carries it as
    field ["v"]; a mismatch yields a [Version] error, never a
    best-effort parse. *)

val max_frame : int
(** Maximum payload bytes in a binary frame (1 MiB). *)

type job =
  | Dgemm of { n : int; tiles : int; seed : int }
  | Cholesky of { n : int; tiles : int; seed : int }
  | Graph of { width : int; depth : int; task_flops : float }
      (** a synthetic [width x depth] task grid, for load generation *)

(** {2 Admission caps}

    The daemon materialises dense matrices and task graphs
    in-process, so job parameters bound both its memory footprint and
    its dispatch latency (DRR credit accrues in quantum-sized steps).
    {!validate_job} enforces these caps; the codec applies it, and
    {!Service.submit} re-applies it for direct API callers, so an
    over-sized request draws a structured [bad-request] instead of
    exhausting memory or wedging the dispatch loop. *)

val max_n : int
(** dense matrix order cap (dgemm, cholesky) *)

val max_tiles : int
(** tile-count cap per dimension (also bounded by [n]) *)

val max_graph_dim : int
(** graph width and depth cap *)

val max_graph_tasks : int
(** graph width * depth cap *)

val max_task_flops : float
(** per-task virtual flops cap *)

val max_job_cost : float
(** cap on {!job_cost}, the DRR scheduling currency *)

val job_cost : job -> float
(** Flops estimate: [2n^3] for dgemm, [n^3/3] for Cholesky,
    [width * depth * task_flops] for a graph. *)

val validate_job : job -> (unit, string) result
(** [Ok ()] iff every parameter is positive and within the caps
    above. The error string is human-readable and becomes the
    [bad-request] reason. *)

val max_idem_len : int
(** Idempotency-key length cap (64). *)

val valid_idem : string -> bool
(** A key is 1..{!max_idem_len} characters from [A-Za-z0-9._:-]; the
    codec refuses anything else as a [bad-request] so hostile keys
    cannot bloat the journal or smuggle structure into log lines. *)

type request =
  | Submit of {
      tenant : string;
      job : job;
      deadline_ms : float option;
      idem : string option;
          (** client-chosen idempotency key: a resubmission carrying
              the same (tenant, key) — after a lost connection or a
              daemon restart — replays the original outcome (the
              cached DONE, or an ACCEPTED with the original id while
              the job is still pending) instead of running the job
              twice.  Absent (pre-durability clients) keeps today's
              at-most-once-per-frame semantics; a present but
              malformed key draws a [bad-request]. *)
      trace : string option;
          (** client-supplied trace context in {!Obs.Trace_ctx.to_string}
              format (16 hex digits, optionally ["-"] and 16 more); the
              daemon mints one when absent and echoes it in
              ACCEPTED/DONE either way.  An unparseable value is a
              [bad-request]; an absent field (pre-trace clients) still
              decodes. *)
    }
  | Run  (** dispatch until all queues are empty (text mode's clock) *)
  | Stats
  | Drain of { budget_ms : float option }
  | Ping

type err_code =
  | Parse  (** payload is not valid JSON *)
  | Version  (** missing or unsupported ["v"] *)
  | Bad_request  (** well-formed JSON, invalid request *)

val err_code_to_string : err_code -> string
val err_code_of_string : string -> err_code option

type job_status =
  | Jok of {
      makespan_s : float;  (** virtual seconds this job occupied its shard *)
      checksum : string;  (** hex digest of the result matrix *)
      tasks : int;
      coalesced : bool;  (** satisfied by another identical job's run *)
      shard : int;
    }
  | Jfailed of string
  | Jtimeout  (** deadline expired while queued; the job never ran *)
  | Jcancelled  (** drain budget exhausted before the job could run *)

type tenant_row = {
  tr_tenant : string;
  tr_submitted : int;
  tr_completed : int;
  tr_rejected : int;
  tr_timeouts : int;
  tr_cancelled : int;
  tr_failed : int;
  tr_coalesced : int;
  tr_queue : int;
  tr_cap : int;
  tr_weight : float;
  tr_busy_vs : float;  (** virtual seconds of shard time consumed *)
  tr_quarantined : string list;  (** this tenant's view only *)
  tr_slo_ms : float option;
      (** latency target; [None] means the SLO counts deadline hits only *)
  tr_slo_good : int;  (** rolling-window events within the objective *)
  tr_slo_bad : int;  (** rolling-window events violating it *)
  tr_burn_rate : float;
      (** error-budget burn rate over the rolling window; 1.0 = burning
          exactly the budget the objective affords.  The SLO block is
          absent in pre-trace frames and defaults to zeros on decode. *)
}

type reply =
  | Accepted of { id : int; credit : int; trace : string option }
      (** [credit] is the tenant's remaining queue capacity — the
          backpressure signal a well-behaved client throttles on;
          [trace] echoes (or mints) the job's trace context *)
  | Overloaded of { tenant : string; queue : int; cap : int; retry_ms : float }
  | Draining  (** submissions refused: the daemon is shutting down *)
  | Done of {
      id : int;
      tenant : string;
      latency_ms : float;
      status : job_status;
      trace : string option;  (** echo of the job's trace context *)
    }
  | Stats_reply of tenant_row list
  | Idle of { completed : int }  (** reply to [Run] *)
  | Drained of { completed : int; cancelled : int }
  | Pong
  | Error of { code : err_code; reason : string }

type error = { e_code : err_code; e_reason : string }

val request_to_string : request -> string
(** One-line JSON, no trailing newline. Floats are printed with 17
    significant digits so decode is the exact inverse. *)

val request_of_string : string -> (request, error) result

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, error) result
(** The codec under the [_string] forms, which are {!Obs.Json.to_text}
    and {!Obs.Json.parse} around these.  The journal nests the JSON
    value in its records, so a journaled frame is validated by the same
    decoder as a frame off the wire. *)

val reply_to_string : reply -> string
val reply_of_string : string -> (reply, string) result
val reply_to_json : reply -> Obs.Json.t
val reply_of_json : Obs.Json.t -> (reply, string) result

val json_string : string -> string
(** Quote and escape a string as a JSON literal: the escaping of
    every frame, as {!Obs.Json.to_text} writes it. *)

val frame : string -> string
(** Prefix a payload with its 4-byte big-endian length.
    @raise Invalid_argument beyond {!max_frame}. *)

type deframe =
  | Frame of string * int  (** payload and total bytes consumed *)
  | Need  (** incomplete; feed more bytes *)
  | Corrupt of string  (** unrecoverable framing error; close the peer *)

val deframe : Bytes.t -> off:int -> len:int -> deframe
(** Try to extract one frame from [len] buffered bytes at [off].
    Never raises on garbage: an impossible length is [Corrupt], a
    short buffer is [Need]. *)

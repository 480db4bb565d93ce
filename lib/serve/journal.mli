(** The cascabeld job journal: an append-only, CRC-framed JSONL
    write-ahead log.

    {2 On-disk format}

    One record per line:

    {v <crc32: 8 lowercase hex> <payload JSON>\n v}

    The CRC-32 (IEEE 802.3 polynomial, as in zlib) covers exactly the
    payload bytes.  Payloads nest the wire codec's own messages, so
    replay validation {e is} protocol validation: a hand-edited
    journal cannot smuggle an over-cap job past admission.  Format v2,
    the only one written:

    {v
{"r":"accept","id":N,"req":{...SUBMIT...}}
{"r":"done","idem":K,"reply":{...DONE...}}     (no "idem" when keyless)
{"r":"next","id":N}                            (job ids continue past N)
    v}

    Format v1 held the SUBMIT and DONE frames as JSON strings
    (["req":"{\"v\":1,...}"]); the reader still accepts those records,
    so a v1 journal replays.  The upgrade is one-way: a daemon that
    predates v2 reads a v2 journal's first record as undecodable and
    recovers nothing from it.

    {2 Crash tolerance}

    The only corruption an append-only log accumulates is a torn
    tail.  {!replay} and {!recover} accept the longest valid prefix
    and stop at the first framing, CRC or decode failure; they never
    raise on arbitrary bytes, and a job whose completion record
    survives in the prefix is never resurrected as pending.

    {2 Compaction}

    A restart that finds more history than live state rewrites the
    journal ({!compaction_due}, {!compact}): a next-id record, the
    dedup window's keyed completions oldest first, then the pending
    accepts in acceptance order.  Recovering the rewritten journal
    yields the same pending jobs, window and next id as recovering the
    original.  The rewrite goes to [<journal>.compact], is fsynced,
    renamed over the journal, and the directory fsynced; a crash at
    any point leaves either the whole old journal or the whole new
    one, under every {!durability}.  A side file a crash left behind
    is removed by {!open_append}. *)

val crc32 : string -> int
(** CRC-32 (IEEE) of a byte string, in [0, 0xFFFFFFFF].  Sliced by 8 in
    C; appends and replay both use it. *)

type accepted = {
  a_id : int;  (** daemon-assigned job id *)
  a_tenant : string;
  a_job : Protocol.job;
  a_deadline_ms : float option;
  a_idem : string option;
  a_trace : string option;
}

type entry =
  | Accept of accepted
  | Complete of { c_idem : string option; c_reply : Protocol.reply }
      (** [c_reply] is always [Protocol.Done _]; the decoder rejects
          anything else. *)
  | Next_id of int
      (** job ids continue past this one: the first record of a
          compacted journal, which may hold none of the newest ids *)

val entry_to_line : entry -> string
(** The full journal line including the trailing newline. *)

val entry_of_line : string -> (entry, string) result
(** Inverse of {!entry_to_line} minus the newline.  Never raises;
    framing, CRC and decode failures are [Error] with a reason. *)

(** {2 Writer} *)

type durability =
  | Buffer  (** OS + stdlib buffering; fastest, loses the most on crash *)
  | Flush  (** flush to the kernel after every record (default) *)
  | Fsync  (** flush + [fsync] after every record; survives power loss *)

val durability_of_string : string -> durability option
val durability_to_string : durability -> string

type t

val open_append : ?durability:durability -> string -> t
(** Open (creating if needed) for appending.  Defaults to {!Flush}.
    A [<path>.compact] side file left by an interrupted {!compact} is
    removed.  An unterminated torn tail left by a crash mid-write is
    truncated first — appending after it would glue the next record onto the
    torn bytes and hide every later record from {!replay}.  Call
    {!recover} {e before} this: recovery reads the torn tail's valid
    prefix; this drops the rest.
    @raise Sys_error if the path is not writable. *)

val path : t -> string
val appended : t -> int
(** Records appended through this handle (excludes pre-existing ones). *)

val append : t -> entry -> unit
val sync : t -> unit
val close : t -> unit

(** {2 Replay}

    {!replay} and {!recover} share one streaming reader: it reads the
    journal a line at a time, decodes and validates every record of
    the valid prefix once, and never holds the file or its list of
    lines.  A last line without its newline is the torn tail and is
    not decoded. *)

val replay : string -> entry list * bool
(** All entries in the valid prefix, in append order, and whether the
    file was torn (truncated tail, CRC mismatch, or any undecodable
    record — everything after the first bad record is ignored).  A
    missing file is [([], false)]: an empty journal is not a torn
    one.  Holds every entry; a restart wants {!recover}. *)

type recovery = {
  r_pending : accepted list;
      (** accepted but not completed, in acceptance order — the jobs a
          restarted daemon must re-run *)
  r_completed : (string * string * Protocol.reply) list;
      (** [(tenant, idem_key, done_reply)] for the newest completed
          jobs that carried an idempotency key, oldest first, at most
          the [window] given to {!recover} — seeds the dedup window so
          a client retrying across the restart gets the cached DONE *)
  r_next_id : int;  (** highest job id seen; allocate from [r_next_id + 1] *)
  r_entries : int;  (** valid records read *)
  r_torn : bool;
}

val empty_recovery : recovery

val recover : ?window:int -> string -> recovery
(** The valid prefix folded into a restart plan, as it is read.
    [window] (default: unbounded) is how many keyed completions the
    caller's dedup window holds: [cascabeld] passes its service's
    [dedup_cap], and recovery keeps only the newest [window] of them.
    Memory is then bounded by the pending jobs, [window] completions
    and one line, whatever the journal's length.  A job accepted more
    than once while pending keeps its first acceptance; pending jobs
    come back in acceptance order, each once.  Never raises. *)

(** {2 Compaction} *)

val compaction_due : recovery -> bool
(** Whether a restart should {!compact}: the journal was torn, or its
    records outnumber twice the records a compaction keeps plus 1024.
    The rule is fixed; the floor keeps a young journal from being
    rewritten at every start. *)

type compaction = {
  records_before : int;  (** valid records read by {!recover} *)
  bytes_before : int;  (** the journal's size before the rewrite *)
  records_after : int;
  bytes_after : int;
}

val compact : string -> recovery -> (compaction, string) result
(** Rewrite the journal at the path to the live state [recovery] holds
    (the plan {!recover} just read from it), through the side file
    described above.  Call it before {!open_append}.  On [Error] the
    journal is untouched and the side file removed; the caller can
    carry on with the old journal. *)

(* The cascabeld wire protocol.

   Frames are length-prefixed on sockets (4-byte big-endian payload
   length, then the payload) and newline-delimited in text mode
   (stdio, the scripting client); the payload is one JSON object in
   either case, always carrying the protocol version.  Decoding is
   total: malformed input yields a structured [error] value, never an
   exception, so a misbehaving client cannot take the daemon down. *)

let version = 1
let max_frame = 1 lsl 20

type job =
  | Dgemm of { n : int; tiles : int; seed : int }
  | Cholesky of { n : int; tiles : int; seed : int }
  | Graph of { width : int; depth : int; task_flops : float }

(* Admission caps.  The daemon materialises dense matrices and task
   graphs in-process, so job parameters bound both its memory (an
   uncapped n would OOM in Matrix.random) and its dispatch latency
   (DRR credit accrues in quantum-sized steps, so cost / quantum
   passes elapse before a job runs).  Requests beyond these caps are
   refused at admission with a structured [bad-request]. *)

let max_n = 2048
let max_tiles = 64
let max_graph_dim = 1024
let max_graph_tasks = 65536
let max_task_flops = 1e9
let max_job_cost = 1e12

let cube n = float_of_int n *. float_of_int n *. float_of_int n

let job_cost = function
  | Dgemm { n; _ } -> 2.0 *. cube n
  | Cholesky { n; _ } -> cube n /. 3.0
  | Graph { width; depth; task_flops } ->
      float_of_int width *. float_of_int depth *. task_flops

let validate_job job =
  let reject fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt in
  let check_dense kind n tiles =
    if n < 1 || n > max_n then reject "%s n must be in [1, %d]" kind max_n
    else if tiles < 1 || tiles > n || tiles > max_tiles then
      reject "%s tiles must be in [1, min n %d]" kind max_tiles
    else Ok ()
  in
  let cost_ok () =
    let c = job_cost job in
    if c <= max_job_cost then Ok ()
    else reject "job cost %.3g flops exceeds the %.3g cap" c max_job_cost
  in
  match job with
  | Dgemm { n; tiles; _ } ->
      Result.bind (check_dense "dgemm" n tiles) cost_ok
  | Cholesky { n; tiles; _ } ->
      Result.bind (check_dense "cholesky" n tiles) cost_ok
  | Graph { width; depth; task_flops } ->
      if width < 1 || width > max_graph_dim || depth < 1
         || depth > max_graph_dim then
        reject "graph width and depth must be in [1, %d]" max_graph_dim
      else if width * depth > max_graph_tasks then
        reject "graph width * depth must be <= %d tasks" max_graph_tasks
      else if
        not (Float.is_finite task_flops)
        || task_flops <= 0.0 || task_flops > max_task_flops
      then reject "graph task_flops must be in (0, %.3g]" max_task_flops
      else cost_ok ()

(* Idempotency keys.  A client that resubmits after a lost connection
   or a daemon restart tags the SUBMIT with a key; the daemon's dedup
   window then replays the original outcome instead of running the
   job twice.  Keys are bounded and restricted to a tame alphabet so
   a hostile key cannot bloat the journal or smuggle structure into
   log lines; anything else is a structured [bad-request]. *)

let max_idem_len = 64

let valid_idem s =
  let n = String.length s in
  n >= 1 && n <= max_idem_len
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
         | _ -> false)
       s

type request =
  | Submit of {
      tenant : string;
      job : job;
      deadline_ms : float option;
      idem : string option;
          (** client-chosen idempotency key; a resubmission with the
              same (tenant, key) replays the original outcome instead
              of running the job again.  Absent = today's semantics. *)
      trace : string option;
          (** client-supplied trace context, [Obs.Trace_ctx.to_string]
              format; the daemon mints one when absent and echoes it in
              ACCEPTED/DONE either way *)
    }
  | Run
  | Stats
  | Drain of { budget_ms : float option }
  | Ping

type err_code = Parse | Version | Bad_request

let err_code_to_string = function
  | Parse -> "parse"
  | Version -> "version"
  | Bad_request -> "bad-request"

let err_code_of_string = function
  | "parse" -> Some Parse
  | "version" -> Some Version
  | "bad-request" -> Some Bad_request
  | _ -> None

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
  (* SLO block — absent in pre-trace frames, so decoding defaults them. *)
  tr_slo_ms : float option;  (** latency target; [None] = deadline-only SLO *)
  tr_slo_good : int;  (** rolling-window events within the objective *)
  tr_slo_bad : int;  (** rolling-window events violating it *)
  tr_burn_rate : float;  (** error-budget burn rate; 1.0 = at budget *)
}

type reply =
  | Accepted of { id : int; credit : int; trace : string option }
  | Overloaded of { tenant : string; queue : int; cap : int; retry_ms : float }
  | Draining
  | Done of {
      id : int;
      tenant : string;
      latency_ms : float;
      status : job_status;
      trace : string option;  (** echo of the job's trace context *)
    }
  | Stats_reply of tenant_row list
  | Idle of { completed : int }
  | Drained of { completed : int; cancelled : int }
  | Pong
  | Error of { code : err_code; reason : string }

(* --- JSON emission ---------------------------------------------------- *)

module J = Obs.Json

(* Field order is part of the wire format: a key-less, trace-less
   submit stays byte-identical to what pre-durability clients emitted. *)
let int i = J.Num (float_of_int i)
let opt name f = function None -> [] | Some x -> [ (name, f x) ]
let opt_str name v = opt name (fun s -> J.Str s) v
let opt_num name v = opt name (fun x -> J.Num x) v
let json_string s = J.to_text (J.Str s)

let job_to_json = function
  | Dgemm { n; tiles; seed } ->
      J.Obj
        [ ("kind", J.Str "dgemm"); ("n", int n); ("tiles", int tiles);
          ("seed", int seed) ]
  | Cholesky { n; tiles; seed } ->
      J.Obj
        [ ("kind", J.Str "cholesky"); ("n", int n); ("tiles", int tiles);
          ("seed", int seed) ]
  | Graph { width; depth; task_flops } ->
      J.Obj
        [ ("kind", J.Str "graph"); ("width", int width); ("depth", int depth);
          ("task_flops", J.Num task_flops) ]

let request_to_json r =
  let op name fields =
    J.Obj (("v", int version) :: ("op", J.Str name) :: fields)
  in
  match r with
  | Submit { tenant; job; deadline_ms; idem; trace } ->
      op "submit"
        ([ ("tenant", J.Str tenant); ("job", job_to_json job) ]
        @ opt_num "deadline_ms" deadline_ms
        @ opt_str "idem" idem @ opt_str "trace" trace)
  | Run -> op "run" []
  | Stats -> op "stats" []
  | Drain { budget_ms } -> op "drain" (opt_num "budget_ms" budget_ms)
  | Ping -> op "ping" []

let request_to_string r = J.to_text (request_to_json r)

let status_fields = function
  | Jok { makespan_s; checksum; tasks; coalesced; shard } ->
      [ ("status", J.Str "ok"); ("makespan_s", J.Num makespan_s);
        ("checksum", J.Str checksum); ("tasks", int tasks);
        ("coalesced", J.Bool coalesced); ("shard", int shard) ]
  | Jfailed reason -> [ ("status", J.Str "failed"); ("reason", J.Str reason) ]
  | Jtimeout -> [ ("status", J.Str "timeout") ]
  | Jcancelled -> [ ("status", J.Str "cancelled") ]

let tenant_row_to_json r =
  J.Obj
    ([ ("tenant", J.Str r.tr_tenant); ("submitted", int r.tr_submitted);
       ("completed", int r.tr_completed); ("rejected", int r.tr_rejected);
       ("timeouts", int r.tr_timeouts); ("cancelled", int r.tr_cancelled);
       ("failed", int r.tr_failed); ("coalesced", int r.tr_coalesced);
       ("queue", int r.tr_queue); ("cap", int r.tr_cap);
       ("weight", J.Num r.tr_weight); ("busy_vs", J.Num r.tr_busy_vs);
       ("quarantined", J.Arr (List.map (fun q -> J.Str q) r.tr_quarantined)) ]
    @ opt_num "slo_ms" r.tr_slo_ms
    @ [ ("slo_good", int r.tr_slo_good); ("slo_bad", int r.tr_slo_bad);
        ("burn_rate", J.Num r.tr_burn_rate) ])

let reply_to_json r =
  let re name fields =
    J.Obj (("v", int version) :: ("re", J.Str name) :: fields)
  in
  match r with
  | Accepted { id; credit; trace } ->
      re "accepted"
        ([ ("id", int id); ("credit", int credit) ] @ opt_str "trace" trace)
  | Overloaded { tenant; queue; cap; retry_ms } ->
      re "overloaded"
        [ ("tenant", J.Str tenant); ("queue", int queue); ("cap", int cap);
          ("retry_ms", J.Num retry_ms) ]
  | Draining -> re "draining" []
  | Done { id; tenant; latency_ms; status; trace } ->
      re "done"
        ([ ("id", int id); ("tenant", J.Str tenant);
           ("latency_ms", J.Num latency_ms) ]
        @ opt_str "trace" trace @ status_fields status)
  | Stats_reply rows ->
      re "stats" [ ("tenants", J.Arr (List.map tenant_row_to_json rows)) ]
  | Idle { completed } -> re "idle" [ ("completed", int completed) ]
  | Drained { completed; cancelled } ->
      re "drained" [ ("completed", int completed); ("cancelled", int cancelled) ]
  | Pong -> re "pong" []
  | Error { code; reason } ->
      re "error"
        [ ("code", J.Str (err_code_to_string code)); ("reason", J.Str reason) ]

let reply_to_string r = J.to_text (reply_to_json r)

(* --- JSON decoding ---------------------------------------------------- *)

type error = { e_code : err_code; e_reason : string }

let err code fmt =
  Printf.ksprintf (fun s -> Stdlib.Error { e_code = code; e_reason = s }) fmt

let mem k o = J.member k o
let get_str k o = Option.bind (mem k o) J.to_string
let get_num k o = Option.bind (mem k o) J.to_number

let get_int k o =
  match get_num k o with
  | Some f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let check_version o k =
  match get_int "v" o with
  | None -> err Parse "missing protocol version field \"v\""
  | Some v when v <> version ->
      err Version "unsupported protocol version %d (this daemon speaks %d)" v
        version
  | Some _ -> k ()

let job_of_json o =
  let structural =
    match get_str "kind" o with
    | Some ("dgemm" | "cholesky") -> (
        let kind = Option.get (get_str "kind" o) in
        match (get_int "n" o, get_int "tiles" o, get_int "seed" o) with
        | Some n, Some tiles, Some seed ->
            Ok
              (if kind = "dgemm" then Dgemm { n; tiles; seed }
               else Cholesky { n; tiles; seed })
        | _ ->
            Error (Printf.sprintf "%s job needs integer n, tiles, seed" kind))
    | Some "graph" -> (
        match (get_int "width" o, get_int "depth" o, get_num "task_flops" o)
        with
        | Some width, Some depth, Some task_flops ->
            Ok (Graph { width; depth; task_flops })
        | _ -> Error "graph job needs width, depth, task_flops")
    | Some k -> Error (Printf.sprintf "unknown job kind %S" k)
    | None -> Error "job needs a \"kind\" field"
  in
  Result.bind structural (fun job ->
      match validate_job job with
      | Ok () -> Ok job
      | Error e -> Error e)

let request_of_json o =
  check_version o (fun () ->
      match get_str "op" o with
      | Some "submit" -> (
          match (get_str "tenant" o, mem "job" o) with
          | Some tenant, Some jo when tenant <> "" -> (
              match job_of_json jo with
              | Ok job ->
                  let deadline_ms = get_num "deadline_ms" o in
                  if
                    match deadline_ms with
                    | Some d -> not (Float.is_finite d) || d < 0.0
                    | None -> false
                  then err Bad_request "deadline_ms must be finite and >= 0"
                  else (
                    (* Backward compat: frames without "idem" or
                       "trace" (any pre-durability client) decode
                       to None; present-but-malformed values are
                       structured refusals, never disconnects. *)
                    let idem_checked =
                      match mem "idem" o with
                      | None -> Ok None
                      | Some v -> (
                          match J.to_string v with
                          | Some k when valid_idem k -> Ok (Some k)
                          | _ ->
                              Stdlib.Error
                                (Printf.sprintf
                                   "idem must be 1-%d characters from \
                                    [A-Za-z0-9._:-]"
                                   max_idem_len))
                    in
                    match idem_checked with
                    | Stdlib.Error reason -> err Bad_request "%s" reason
                    | Ok idem -> (
                        match mem "trace" o with
                        | None ->
                            Ok
                              (Submit
                                 { tenant; job; deadline_ms; idem;
                                   trace = None })
                        | Some t -> (
                            match Option.bind (J.to_string t)
                                    Obs.Trace_ctx.of_string
                            with
                            | Some _ ->
                                Ok (Submit
                                      { tenant; job; deadline_ms; idem;
                                        trace = J.to_string t })
                            | None ->
                                err Bad_request
                                  "trace must be 16 hex digits, optionally \
                                   \"-\" and 16 more (trace id[-span id])")))
              | Error e -> err Bad_request "%s" e)
          | _ -> err Bad_request "submit needs a non-empty tenant and a job")
      | Some "run" -> Ok Run
      | Some "stats" -> Ok Stats
      | Some "drain" -> (
          match mem "budget_ms" o with
          | None -> Ok (Drain { budget_ms = None })
          | Some b -> (
              match J.to_number b with
              | Some f when Float.is_finite f && f >= 0.0 ->
                  Ok (Drain { budget_ms = Some f })
              | _ -> err Bad_request "budget_ms must be finite and >= 0"))
      | Some "ping" -> Ok Ping
      | Some op -> err Bad_request "unknown op %S" op
      | None -> err Bad_request "request needs an \"op\" field")

let request_of_string s =
  match J.parse s with
  | Error e -> err Parse "payload is not valid JSON: %s" e
  | Ok o -> request_of_json o

let status_of_json o =
  match get_str "status" o with
  | Some "ok" -> (
      match
        ( get_num "makespan_s" o,
          get_str "checksum" o,
          get_int "tasks" o,
          mem "coalesced" o,
          get_int "shard" o )
      with
      | Some makespan_s, Some checksum, Some tasks, Some coalesced, Some shard
        -> (
          match coalesced with
          | J.Bool coalesced ->
              Ok (Jok { makespan_s; checksum; tasks; coalesced; shard })
          | _ -> Error "coalesced must be a boolean")
      | _ -> Error "ok status needs makespan_s, checksum, tasks, coalesced, shard"
      )
  | Some "failed" -> (
      match get_str "reason" o with
      | Some reason -> Ok (Jfailed reason)
      | None -> Error "failed status needs a reason")
  | Some "timeout" -> Ok Jtimeout
  | Some "cancelled" -> Ok Jcancelled
  | Some s -> Error (Printf.sprintf "unknown job status %S" s)
  | None -> Error "done reply needs a status"

let tenant_row_of_json o =
  let istr = get_str and inum = get_num and iint = get_int in
  match
    ( istr "tenant" o,
      ( iint "submitted" o, iint "completed" o, iint "rejected" o,
        iint "timeouts" o, iint "cancelled" o, iint "failed" o,
        iint "coalesced" o ),
      (iint "queue" o, iint "cap" o, inum "weight" o, inum "busy_vs" o),
      Option.bind (mem "quarantined" o) J.to_list )
  with
  | ( Some tr_tenant,
      ( Some tr_submitted, Some tr_completed, Some tr_rejected,
        Some tr_timeouts, Some tr_cancelled, Some tr_failed, Some tr_coalesced
      ),
      (Some tr_queue, Some tr_cap, Some tr_weight, Some tr_busy_vs),
      Some quarantined )
    when List.for_all (fun q -> J.to_string q <> None) quarantined ->
      (* The SLO block is absent in pre-trace frames: default it so old
         daemons' stats still decode. *)
      Ok
        {
          tr_tenant; tr_submitted; tr_completed; tr_rejected; tr_timeouts;
          tr_cancelled; tr_failed; tr_coalesced; tr_queue; tr_cap; tr_weight;
          tr_busy_vs;
          tr_quarantined = List.filter_map J.to_string quarantined;
          tr_slo_ms = inum "slo_ms" o;
          tr_slo_good = Option.value ~default:0 (iint "slo_good" o);
          tr_slo_bad = Option.value ~default:0 (iint "slo_bad" o);
          tr_burn_rate = Option.value ~default:0.0 (inum "burn_rate" o);
        }
  | _ -> Error "malformed tenant row"

let reply_of_json o =
  let fail fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt in
  match get_int "v" o with
  | None -> fail "missing protocol version field \"v\""
  | Some v when v <> version -> fail "unsupported protocol version %d" v
  | Some _ -> (
      match get_str "re" o with
      | Some "accepted" -> (
          match (get_int "id" o, get_int "credit" o) with
          | Some id, Some credit ->
              Ok (Accepted { id; credit; trace = get_str "trace" o })
          | _ -> fail "accepted needs id and credit")
      | Some "overloaded" -> (
          match
            ( get_str "tenant" o, get_int "queue" o, get_int "cap" o,
              get_num "retry_ms" o )
          with
          | Some tenant, Some queue, Some cap, Some retry_ms ->
              Ok (Overloaded { tenant; queue; cap; retry_ms })
          | _ -> fail "overloaded needs tenant, queue, cap, retry_ms")
      | Some "draining" -> Ok Draining
      | Some "done" -> (
          match
            (get_int "id" o, get_str "tenant" o, get_num "latency_ms" o)
          with
          | Some id, Some tenant, Some latency_ms -> (
              match status_of_json o with
              | Ok status ->
                  Ok (Done { id; tenant; latency_ms; status;
                             trace = get_str "trace" o })
              | Error e -> Error e)
          | _ -> fail "done needs id, tenant, latency_ms")
      | Some "stats" -> (
          match Option.bind (mem "tenants" o) J.to_list with
          | None -> fail "stats needs a tenants array"
          | Some rows ->
              let rec go acc = function
                | [] -> Ok (Stats_reply (List.rev acc))
                | r :: rest -> (
                    match tenant_row_of_json r with
                    | Ok row -> go (row :: acc) rest
                    | Error e -> Error e)
              in
              go [] rows)
      | Some "idle" -> (
          match get_int "completed" o with
          | Some completed -> Ok (Idle { completed })
          | None -> fail "idle needs completed")
      | Some "drained" -> (
          match (get_int "completed" o, get_int "cancelled" o) with
          | Some completed, Some cancelled ->
              Ok (Drained { completed; cancelled })
          | _ -> fail "drained needs completed and cancelled")
      | Some "pong" -> Ok Pong
      | Some "error" -> (
          match (get_str "code" o, get_str "reason" o) with
          | Some code, Some reason -> (
              match err_code_of_string code with
              | Some code -> Ok (Error { code; reason })
              | None -> fail "unknown error code %S" code)
          | _ -> fail "error needs code and reason")
      | Some re -> fail "unknown reply kind %S" re
      | None -> fail "reply needs a \"re\" field")

let reply_of_string s =
  match J.parse s with
  | Error e -> Stdlib.Error ("payload is not valid JSON: " ^ e)
  | Ok o -> reply_of_json o

(* --- framing ----------------------------------------------------------- *)

let frame payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg
      (Printf.sprintf "Protocol.frame: payload of %d bytes exceeds max %d" n
         max_frame);
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

type deframe =
  | Frame of string * int  (** payload and total bytes consumed *)
  | Need  (** incomplete; feed more bytes *)
  | Corrupt of string  (** unrecoverable framing error; close the peer *)

let deframe b ~off ~len =
  if len < 4 then Need
  else begin
    let u8 i = Char.code (Bytes.get b (off + i)) in
    let n = (u8 0 lsl 24) lor (u8 1 lsl 16) lor (u8 2 lsl 8) lor u8 3 in
    if n > max_frame then
      Corrupt
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
           max_frame)
    else if len < 4 + n then Need
    else Frame (Bytes.sub_string b (off + 4) n, 4 + n)
  end

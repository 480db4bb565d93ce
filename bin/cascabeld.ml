(* cascabeld — the multi-tenant task service daemon.

     cascabeld serve --zoo xeon-2gpu --socket /tmp/cascabel.sock
     cascabeld serve --zoo xeon-2gpu --stdio          # deterministic text mode
     cascabeld serve ... --faults a:'transient=0.5,quarantine=2' \
                         --weight a:0.5 --cap a:4
     cascabeld client --socket /tmp/cascabel.sock     # scripted JSON session

   The daemon accepts JSON requests (see README "Task service"),
   multiplexes them onto per-(tenant, PU shard) engines, and drains
   gracefully on SIGTERM: admission stops, in-flight work finishes
   within --budget-ms, and the calibration store, trace and metrics
   are persisted.

   Durability (README "Durability & crash recovery"):

     cascabeld serve ... --journal /var/cascabel.wal --durability fsync
     cascabeld serve ... --journal /var/cascabel.wal --supervise
     cascabeld client ... --retry 5 --idem req

   With --journal every acceptance and completion is logged before
   its reply leaves; on restart the unfinished suffix replays through
   the deterministic engine. --supervise forks a worker and restarts
   it with jittered exponential backoff when it dies abnormally.

   Exit codes: 0 clean drain; 1 bad usage, I/O error, or restart
   budget exhausted; 2 aborted by a fatal signal (journal intact,
   observability state persisted); 3 this platform cannot create
   Unix domain sockets (a graceful skip for CI environments without
   them). *)

open Cmdliner
module P = Serve.Protocol

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

let load_platform path zoo =
  match (path, zoo) with
  | Some path, None -> (
      match Pdl.Codec.load_file path with
      | Ok pf -> Ok pf
      | Error msgs -> Error (String.concat "\n" msgs))
  | None, Some name -> (
      match Pdl_hwprobe.Zoo.find name with
      | Some pf -> Ok pf
      | None ->
          Error
            (Printf.sprintf "unknown zoo platform %S (available: %s)" name
               (String.concat ", " (List.map fst Pdl_hwprobe.Zoo.all))))
  | _ -> Error "provide --pdl FILE or --zoo NAME"

(* "tenant:value" pairs for --weight, --cap and --faults *)
let split_tenant_opt what s =
  match String.index_opt s ':' with
  | Some i when i > 0 ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ ->
      or_die
        (Error (Printf.sprintf "--%s expects TENANT:VALUE, got %S" what s))

let pdl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pdl" ] ~docv:"FILE" ~doc:"Target PDL descriptor file.")

let zoo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "zoo" ] ~docv:"NAME" ~doc:"Predefined target platform.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket to bind.")

let stdio_arg =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:"Serve one JSON request per stdin line (deterministic test mode).")

let shards_arg =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"N" ~doc:"PU shards (engines per tenant).")

let policy_arg =
  Arg.(
    value & opt string "heft"
    & info [ "policy" ] ~docv:"NAME"
        ~doc:"Scheduling policy: eager, heft, locality-ws, random.")

let queue_cap_arg =
  Arg.(
    value & opt int 16
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Default pending jobs per tenant before OVERLOADED.")

let quantum_arg =
  Arg.(
    value & opt float 1e6
    & info [ "quantum" ] ~docv:"FLOPS"
        ~doc:"Deficit-round-robin credit per pass and unit weight.")

let weight_arg =
  Arg.(
    value & opt_all string []
    & info [ "weight" ] ~docv:"TENANT:W" ~doc:"Tenant fair-share weight.")

let cap_arg =
  Arg.(
    value & opt_all string []
    & info [ "cap" ] ~docv:"TENANT:N" ~doc:"Tenant queue capacity override.")

let faults_arg =
  Arg.(
    value & opt_all string []
    & info [ "faults" ] ~docv:"TENANT:SPEC"
        ~doc:
          "Fault model injected into one tenant's engines only (the \
           Fault spec grammar, e.g. 'a:transient=0.3,quarantine=2').")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:"Drain budget: wall-clock time to finish in-flight work.")

let tune_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tune-dir" ] ~docv:"DIR"
        ~doc:"Load/flush the calibration store (CALIB_<hash>.json) here.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Write a per-tenant Chrome trace on drain: the newest %d task \
              events per tenant."
             Serve.Service.trace_cap))

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a Prometheus metric dump on drain.")

let decisions_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "decisions" ] ~docv:"FILE"
        ~doc:
          "Write the scheduler decision log (one JSONL record per \
           placement: chosen PU, per-PU estimates, estimate source, \
           queue wait, estimate-vs-actual error) on drain.")

let slo_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slo-ms" ] ~docv:"MS"
        ~doc:
          "Default per-tenant latency target: a job counts SLO-good only \
           when it finishes Ok within MS milliseconds. Burn rates show \
           up in STATS replies and the Prometheus dump.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead log: append every job acceptance and completion \
           (CRC-framed JSONL) and, on startup, replay unfinished jobs \
           through the deterministic engine. A start that finds more \
           history than live state first rewrites the journal to its \
           pending jobs and dedup window (journal format v2, which \
           daemons older than v2 cannot read).")

let durability_arg =
  Arg.(
    value & opt string "flush"
    & info [ "durability" ] ~docv:"LEVEL"
        ~doc:
          "Journal write discipline: $(b,buffer) (fastest, loses the \
           most on a crash), $(b,flush) (default: to the kernel after \
           every record), $(b,fsync) (to stable storage before the \
           reply leaves).")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout-s" ] ~docv:"S"
        ~doc:
          "Reap a connection silent this long, unless the daemon owes \
           it a reply or a completion frame.")

let read_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "read-deadline-s" ] ~docv:"S"
        ~doc:
          "Disconnect a peer that holds a partial frame open this long \
           (slowloris protection).")

let pid_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pid-file" ] ~docv:"FILE"
        ~doc:
          "Write the serving process id here on startup (each \
           supervised incarnation rewrites it).")

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Fork the daemon under a supervisor that restarts it with \
           jittered exponential backoff when it dies abnormally \
           (each restart recovers the journal, whose size follows the \
           live state once compacted). Requires --socket.")

let max_restarts_arg =
  Arg.(
    value & opt int 5
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:"Supervisor restart budget before giving up (exit 1).")

let restart_backoff_arg =
  Arg.(
    value & opt float 50.0
    & info [ "restart-backoff-ms" ] ~docv:"MS"
        ~doc:"Base supervisor backoff; doubles per restart, plus jitter.")

let sockets_unsupported = function
  | Unix.EAFNOSUPPORT | Unix.EPROTONOSUPPORT | Unix.ENOSYS | Unix.EPERM
  | Unix.EACCES ->
      true
  | _ -> false

(* The supervisor: fork the worker, wait, restart on abnormal death
   with jittered exponential backoff.  A clean drain (0), a usage or
   I/O error (1), and a no-sockets skip (3) all end the supervision —
   restarting would re-fail identically.  Signal death (SIGKILL from
   chaos, OOM) and the fatal-signal abort (2) are what the restart
   budget is for.  SIGTERM/SIGINT forward to the worker so a drain of
   the supervisor drains the daemon. *)
let supervise_loop ~max_restarts ~backoff_ms run_worker =
  let rng = Random.State.make [| 0x5ca1ab1e |] in
  let child = ref (-1) in
  let want_stop = ref false in
  let forward signal =
    Sys.Signal_handle
      (fun _ ->
        want_stop := true;
        if !child > 0 then
          try Unix.kill !child signal with Unix.Unix_error _ -> ())
  in
  (try ignore (Sys.signal Sys.sigterm (forward Sys.sigterm))
   with Invalid_argument _ | Sys_error _ -> ());
  (try ignore (Sys.signal Sys.sigint (forward Sys.sigint))
   with Invalid_argument _ | Sys_error _ -> ());
  let rec wait pid =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
    | _, status -> status
  in
  let sleep_s s =
    try ignore (Unix.select [] [] [] s) with Unix.Unix_error _ -> ()
  in
  let rec loop restarts =
    match Unix.fork () with
    | 0 ->
        let code =
          try run_worker ()
          with e ->
            Printf.eprintf "# worker: uncaught %s\n%!" (Printexc.to_string e);
            1
        in
        flush stdout;
        flush stderr;
        (* _exit: the at_exit chain belongs to the supervisor's state,
           not this fork's *)
        Unix._exit code
    | pid -> (
        child := pid;
        match wait pid with
        | Unix.WEXITED ((0 | 1 | 3) as code) -> code
        | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
            if !want_stop then 0
            else if restarts >= max_restarts then begin
              Printf.eprintf
                "# supervisor: worker died %d times; restart budget \
                 exhausted\n\
                 %!"
                (restarts + 1);
              1
            end
            else begin
              let base = backoff_ms *. (2.0 ** float_of_int restarts) in
              let delay_ms =
                Float.min 5000.0 (base +. Random.State.float rng (0.5 *. base))
              in
              Printf.eprintf
                "# supervisor: worker died; restart %d/%d in %.0f ms\n%!"
                (restarts + 1) max_restarts delay_ms;
              sleep_s (delay_ms /. 1000.0);
              if !want_stop then 0 else loop (restarts + 1)
            end)
  in
  loop 0

let serve pdl zoo socket stdio shards policy queue_cap quantum weights caps
    faults budget_ms tune_dir trace_out metrics_out decisions_out slo_ms
    journal_path durability idle_timeout_s read_deadline_s pid_file supervise
    max_restarts restart_backoff_ms =
  let platform = or_die (load_platform pdl zoo) in
  let policy =
    match Taskrt.Engine.policy_of_string policy with
    | Some p -> p
    | None -> or_die (Error (Printf.sprintf "unknown policy %S" policy))
  in
  let durability =
    match Serve.Journal.durability_of_string durability with
    | Some d -> d
    | None ->
        or_die
          (Error
             (Printf.sprintf
                "--durability %s: expected buffer, flush or fsync" durability))
  in
  if supervise && (stdio || socket = None) then
    or_die (Error "--supervise requires --socket");
  let run_worker () =
    let cfg = or_die (Taskrt.Machine_config.of_platform platform) in
    if trace_out <> None || metrics_out <> None || decisions_out <> None then
      Obs.Config.set_enabled true;
    let tune =
      Option.map
        (fun dir ->
          let hash = Pdl.Codec.descriptor_hash platform in
          let store, warning =
            Tune.Store.load ~dir ~pdl_hash:hash
              ~platform:platform.Pdl_model.Machine.pf_name ()
          in
          Option.iter (Printf.eprintf "# warning: %s\n%!") warning;
          store)
        tune_dir
    in
    (* recover BEFORE opening for append, so the plan reflects exactly
       the bytes the previous incarnation left behind; only the keyed
       completions the service's dedup window can hold are kept.  A
       journal with more history than live state is rewritten to that
       plan, so the next start reads the live state only. *)
    let dedup_cap = Serve.Service.default_dedup_cap in
    let recovery, journal =
      match journal_path with
      | None -> (Serve.Journal.empty_recovery, None)
      | Some path ->
          let r = Serve.Journal.recover ~window:dedup_cap path in
          (if Serve.Journal.compaction_due r then
             match Serve.Journal.compact path r with
             | Ok c ->
                 Printf.eprintf
                   "# journal: compacted %d records (%d bytes) to %d (%d \
                    bytes)\n%!"
                   c.records_before c.bytes_before c.records_after
                   c.bytes_after
             | Error e ->
                 Printf.eprintf
                   "# warning: journal compaction failed (%s); appending to \
                    the journal as it is\n%!"
                   e);
          (r, Some (Serve.Journal.open_append ~durability path))
    in
    let svc =
      Serve.Service.create ~policy ~shards ~queue_cap ~quantum ?tune ?slo_ms
        ?journal ~dedup_cap cfg
    in
    List.iter
      (fun s ->
        let name, w = split_tenant_opt "weight" s in
        match float_of_string_opt w with
        | Some w when w > 0.0 ->
            Serve.Service.configure_tenant svc ~name ~weight:w ()
        | _ -> or_die (Error (Printf.sprintf "--weight %s: bad weight" s)))
      weights;
    List.iter
      (fun s ->
        let name, c = split_tenant_opt "cap" s in
        match int_of_string_opt c with
        | Some c when c > 0 ->
            Serve.Service.configure_tenant svc ~name ~queue_cap:c ()
        | _ -> or_die (Error (Printf.sprintf "--cap %s: bad capacity" s)))
      caps;
    List.iter
      (fun s ->
        let name, spec = split_tenant_opt "faults" s in
        let f = or_die (Taskrt.Fault.parse spec) in
        Serve.Service.configure_tenant svc ~name ~faults:f ())
      faults;
    Serve.Service.restore svc recovery;
    if recovery.Serve.Journal.r_entries > 0 then
      Printf.eprintf
        "# journal: replayed %d records, %d jobs pending%s\n%!"
        recovery.Serve.Journal.r_entries
        (List.length recovery.Serve.Journal.r_pending)
        (if recovery.Serve.Journal.r_torn then " (torn tail discarded)"
         else "");
    Option.iter
      (fun p ->
        let oc = open_out p in
        output_string oc (string_of_int (Unix.getpid ()));
        output_char oc '\n';
        close_out oc)
      pid_file;
    let config =
      {
        Serve.Server.budget_ms;
        tune;
        tune_dir;
        trace_out;
        metrics_out;
        decisions_out;
        journal;
        idle_timeout_s;
        read_deadline_s;
      }
    in
    match (socket, stdio) with
    | Some path, false -> (
        try
          match Serve.Server.run_socket ~config ~path svc with
          | Serve.Server.Completed -> 0
          | Serve.Server.Aborted -> 2
        with Unix.Unix_error (e, _, _) when sockets_unsupported e ->
          Printf.eprintf
            "# notice: Unix domain sockets unavailable here (%s); skipping\n"
            (Unix.error_message e);
          3)
    | None, true ->
        Serve.Server.run_stdio ~config svc;
        0
    | _ -> or_die (Error "provide exactly one of --socket PATH or --stdio")
  in
  if supervise then
    supervise_loop ~max_restarts ~backoff_ms:restart_backoff_ms run_worker
  else run_worker ()

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the task service (binary socket or stdio text mode).")
    Term.(
      const serve $ pdl_arg $ zoo_arg $ socket_arg $ stdio_arg $ shards_arg
      $ policy_arg $ queue_cap_arg $ quantum_arg $ weight_arg $ cap_arg
      $ faults_arg $ budget_arg $ tune_dir_arg $ trace_arg $ metrics_arg
      $ decisions_arg $ slo_ms_arg $ journal_arg $ durability_arg
      $ idle_timeout_arg $ read_deadline_arg $ pid_file_arg $ supervise_arg
      $ max_restarts_arg $ restart_backoff_arg)

(* --- the scripted client ----------------------------------------------- *)

let raw_arg =
  Arg.(
    value & flag
    & info [ "raw" ]
        ~doc:
          "Send stdin lines as frame payloads verbatim (no client-side \
           validation) — for protocol robustness tests.")

(* One request per stdin line; every daemon frame is printed as a JSON
   line.  Replies are read until the request's direct answer arrives
   (asynchronous job-completion frames are printed along the way), so
   a single-client session transcript is deterministic. *)
let is_done = function P.Done _ -> true | _ -> false

let pipeline_arg =
  Arg.(
    value & flag
    & info [ "pipeline" ]
        ~doc:
          "Send every stdin line in one burst before reading replies — \
           fills a tenant queue faster than the daemon drains it \
           (overload tests).")

let hangup_arg =
  Arg.(
    value & flag
    & info [ "hangup" ]
        ~doc:
          "Send every stdin line in one burst, then disconnect without \
           reading any reply — a misbehaving peer for daemon \
           robustness tests (the daemon must survive the broken pipe).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Poll a running daemon once: send STATS, print one \
           human-readable line per tenant (completion counts, queue \
           depth, and the rolling SLO window with its burn rate), and \
           exit. Ignores stdin.")

let trace_ids_arg =
  Arg.(
    value & flag
    & info [ "trace-ids" ]
        ~doc:
          "Mint a fresh trace context for every submit that does not \
           already carry one, so ACCEPTED/DONE frames and the daemon's \
           Perfetto trace correlate per request.")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Reconnect with exponential backoff when the daemon drops or \
           refuses the connection, up to N attempts per request. Only \
           idempotent requests are resubmitted after a drop: submits \
           carrying an idempotency key (see --idem), and \
           PING/STATS/RUN. A keyless submit is never blindly retried — \
           the daemon may already own it.")

let backoff_ms_arg =
  Arg.(
    value & opt float 50.0
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:"Base reconnect backoff; doubles per attempt.")

let idem_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "idem" ] ~docv:"PREFIX"
        ~doc:
          "Attach an idempotency key PREFIX-<n> (n = the submit's \
           position on stdin) to every submit that does not already \
           carry one, making the whole session safe to resubmit across \
           reconnects and daemon restarts.")

let print_stats_row (r : P.tenant_row) =
  Printf.printf
    "%s: completed=%d queue=%d/%d slo_ms=%s window_good=%d window_bad=%d \
     burn_rate=%.2f\n"
    r.P.tr_tenant r.P.tr_completed r.P.tr_queue r.P.tr_cap
    (match r.P.tr_slo_ms with
    | None -> "-"
    | Some ms -> Printf.sprintf "%g" ms)
    r.P.tr_slo_good r.P.tr_slo_bad r.P.tr_burn_rate

let client socket raw pipeline hangup stats trace_ids retry backoff_ms
    idem_prefix =
  (* a daemon draining mid-session must surface as EOF / EPIPE, not
     kill the client with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sleep_s s =
    try ignore (Unix.select [] [] [] s) with Unix.Unix_error _ -> ()
  in
  (* Connect, riding out a daemon that is down for a supervised
     restart: ENOENT (socket unlinked) and ECONNREFUSED (corpse
     socket) both mean "not up yet", worth the backoff; anything else
     is a real error. *)
  let connect_once () =
    try Ok (Serve.Server.client_connect socket)
    with Unix.Unix_error (e, _, _) -> Error e
  in
  let connect_retrying () =
    let rec go attempt =
      match connect_once () with
      | Ok fd -> Ok fd
      | Error e
        when attempt < retry
             && (e = Unix.ECONNREFUSED || e = Unix.ENOENT
               || e = Unix.ECONNRESET) ->
          sleep_s (backoff_ms *. (2.0 ** float_of_int attempt) /. 1000.0);
          go (attempt + 1)
      | Error e -> Error e
    in
    go 0
  in
  let fd =
    match connect_retrying () with
    | Ok fd -> ref fd
    | Error e ->
        if sockets_unsupported e then begin
          Printf.eprintf
            "# notice: Unix domain sockets unavailable here (%s); skipping\n"
            (Unix.error_message e);
          exit 3
        end
        else
          or_die
            (Error
               (Printf.sprintf "cannot connect to %s: %s" socket
                  (Unix.error_message e)))
  in
  let print_reply r = print_endline (P.reply_to_string r) in
  if stats then begin
    (try Serve.Server.client_send !fd P.Stats
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    (match Serve.Server.client_recv !fd with
    | exception End_of_file -> ()
    | P.Stats_reply rows -> List.iter print_stats_row rows
    | r -> print_reply r);
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    flush stdout;
    exit 0
  end;
  (* true iff the request's direct (non-Done) answer arrived; false
     means the connection died first *)
  let rec read_until_direct () =
    match Serve.Server.client_recv !fd with
    | exception End_of_file -> false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        false
    | r ->
        print_reply r;
        if is_done r then read_until_direct () else true
  in
  let attach_trace = function
    | P.Submit { tenant; job; deadline_ms; idem; trace = None } ->
        P.Submit
          {
            tenant;
            job;
            deadline_ms;
            idem;
            trace = Some (Obs.Trace_ctx.to_string (Obs.Trace_ctx.make ()));
          }
    | req -> req
  in
  let attach_idem n = function
    | P.Submit { tenant; job; deadline_ms; idem = None; trace } ->
        let key =
          Option.map (fun p -> Printf.sprintf "%s-%d" p n) idem_prefix
        in
        P.Submit { tenant; job; deadline_ms; idem = key; trace }
    | req -> req
  in
  (* (payload, safe-to-resubmit).  Resubmission safety is semantic: a
     submit is resubmittable iff it carries an idempotency key (the
     daemon dedups it); the read-only requests always are.  Raw lines
     and keyless submits are not — the daemon may already own the
     original, and a blind resend would run it twice. *)
  let payload_of n line =
    if raw then (line, false)
    else
      match P.request_of_string line with
      | Ok req ->
          let req = if idem_prefix <> None then attach_idem n req else req in
          let req = if trace_ids then attach_trace req else req in
          let idempotent =
            match req with
            | P.Submit { idem; _ } -> idem <> None
            | P.Run | P.Stats | P.Ping -> true
            | P.Drain _ -> false
          in
          (P.request_to_string req, idempotent)
      | Error e ->
          or_die (Error (Printf.sprintf "bad request line: %s" e.P.e_reason))
  in
  let reconnect () =
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    match connect_retrying () with
    | Ok nfd ->
        fd := nfd;
        true
    | Error _ -> false
  in
  (if pipeline || hangup then begin
     let lines = ref [] in
     (try
        while true do
          let line = String.trim (input_line stdin) in
          if line <> "" then lines := line :: !lines
        done
      with End_of_file -> ());
     (* !lines holds stdin in reverse order; re-number after rev *)
     let payloads =
       List.rev !lines |> List.mapi (fun i l -> fst (payload_of (i + 1) l))
     in
     (try
        Serve.Server.client_send_blob !fd
          (String.concat "" (List.map P.frame payloads))
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
     if not hangup then begin
       let expected = List.length payloads in
       let direct = ref 0 in
       (try
          while !direct < expected do
            let r = Serve.Server.client_recv !fd in
            print_reply r;
            if not (is_done r) then incr direct
          done
        with
       | End_of_file
       | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
       -> ())
     end
   end
   else
     try
       let n = ref 0 in
       let rec loop () =
         match input_line stdin with
         | exception End_of_file -> ()
         | line when String.trim line = "" -> loop ()
         | line ->
             incr n;
             let payload, idempotent = payload_of !n (String.trim line) in
             let rec attempt budget =
               let sent =
                 try
                   Serve.Server.client_send_raw !fd payload;
                   true
                 with
                 | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                   false
               in
               let answered = sent && read_until_direct () in
               if answered then ()
               else if budget > 0 && idempotent then begin
                 (* unacknowledged idempotent request: reconnect and
                    resubmit — the daemon's dedup window makes the
                    retry observable-once *)
                 if reconnect () then attempt (budget - 1)
                 else raise End_of_file
               end
               else raise End_of_file
             in
             attempt retry;
             flush stdout;
             loop ()
       in
       loop ()
     with End_of_file -> ());
  (try Unix.close !fd with Unix.Unix_error _ -> ());
  flush stdout;
  0

let client_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to connect to.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Scripted JSON session against a running daemon.")
    Term.(
      const client $ client_socket_arg $ raw_arg $ pipeline_arg $ hangup_arg
      $ stats_arg $ trace_ids_arg $ retry_arg $ backoff_ms_arg $ idem_arg)

let () =
  let info =
    Cmd.info "cascabeld" ~version:"1.0"
      ~doc:"Multi-tenant task service over PDL-described machines."
  in
  exit (Cmd.eval' (Cmd.group info [ serve_cmd; client_cmd ]))

module P = Protocol

type config = {
  budget_ms : float option;
  tune : Tune.Store.t option;
  tune_dir : string option;
  trace_out : string option;
  metrics_out : string option;
  decisions_out : string option;
  journal : Journal.t option;
  idle_timeout_s : float option;
  read_deadline_s : float option;
}

let default_config =
  {
    budget_ms = None;
    tune = None;
    tune_dir = None;
    trace_out = None;
    metrics_out = None;
    decisions_out = None;
    journal = None;
    idle_timeout_s = None;
    read_deadline_s = None;
  }

type outcome = Completed | Aborted

(* Persist everything worth keeping across daemon restarts: the
   calibration store (so the next run schedules with today's measured
   costs), the per-tenant Perfetto trace, the scheduler decision log,
   and the final metric dump. *)
let flush_state config svc =
  (match (config.tune, config.tune_dir) with
  | Some store, Some dir -> Tune.Store.save ~dir store
  | Some store, None -> Tune.Store.save store
  | None, _ -> ());
  Option.iter
    (fun path ->
      Obs.Export.write_chrome path
        (Taskrt.Trace_export.events (Service.tenant_traces svc)))
    config.trace_out;
  Option.iter (fun path -> Obs.Decision.write_jsonl path) config.decisions_out;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Obs.Export.prometheus ());
      close_out oc)
    config.metrics_out;
  (* last: once the journal handle closes, the recorded accepts and
     completions above are what a restart recovers from *)
  Option.iter Journal.close config.journal

(* --- text mode: one JSON document per line on stdin/stdout ------------- *)

let run_stdio ?(config = default_config) svc =
  let out r =
    print_string (P.reply_to_string r);
    print_newline ()
  in
  let drain () =
    let dones, final = Service.drain svc ?budget_ms:config.budget_ms () in
    List.iter out dones;
    out final
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> drain ()
    | line when String.trim line = "" -> loop ()
    | line -> (
        match P.request_of_string (String.trim line) with
        | Error e ->
            out (P.Error { code = e.P.e_code; reason = e.P.e_reason });
            loop ()
        | Ok (P.Submit { tenant; job; deadline_ms; idem; trace }) ->
            out (Service.submit svc ~tenant ?deadline_ms ?idem ?trace job);
            (* a dedup hit owes the retrier its cached DONE *)
            List.iter out (Service.take_replays svc);
            loop ()
        | Ok P.Run ->
            List.iter out (Service.run_until_idle svc);
            out (P.Idle { completed = Service.completed svc });
            loop ()
        | Ok P.Stats ->
            out (P.Stats_reply (Service.stats svc));
            loop ()
        | Ok P.Ping ->
            out P.Pong;
            loop ()
        | Ok (P.Drain { budget_ms }) ->
            let dones, final = Service.drain svc ?budget_ms () in
            List.iter out dones;
            out final)
  in
  loop ();
  flush stdout;
  flush_state config svc

(* --- socket mode ------------------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  mutable c_buf : Bytes.t;  (* inbound: partial frames *)
  mutable c_len : int;
  mutable c_out : Bytes.t;  (* outbound: replies awaiting delivery *)
  mutable c_out_off : int;
  mutable c_out_len : int;
  mutable c_last_active : float;  (* last byte read from the peer *)
  mutable c_frame_start : float;  (* when the buffered partial frame began;
                                     0.0 = no partial frame pending *)
}

(* A client this far behind on reading its replies is wedged or
   hostile; rather than buffer without bound (or block the event loop
   on its socket), the daemon cuts it loose. *)
let max_conn_out = 4 * P.max_frame

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

type state = {
  svc : Service.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  routes : (int, Unix.file_descr) Hashtbl.t;  (* job id -> submitter *)
  mutable stop : bool;
  mutable drained : bool;
  mutable crashed : bool;  (* fatal signal: skip drain, still persist *)
}

let close_conn st fd =
  if Hashtbl.mem st.conns fd then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Hashtbl.remove st.conns fd;
    (* drop the dead client's reply routes: the kernel recycles fd
       numbers, and a stale route would deliver this tenant's Done
       frames to whoever connects next *)
    let stale =
      Hashtbl.fold
        (fun id dst acc -> if dst = fd then id :: acc else acc)
        st.routes []
    in
    List.iter (Hashtbl.remove st.routes) stale
  end

(* Push buffered output to a non-blocking socket; false means the
   peer is gone and the connection must be closed. A full kernel
   buffer is not an error — the remainder waits for select's write
   set. *)
let rec flush_conn conn =
  if conn.c_out_len = 0 then begin
    conn.c_out_off <- 0;
    true
  end
  else
    match Unix.write conn.c_fd conn.c_out conn.c_out_off conn.c_out_len with
    | n ->
        conn.c_out_off <- conn.c_out_off + n;
        conn.c_out_len <- conn.c_out_len - n;
        flush_conn conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn conn
    | exception Unix.Unix_error _ -> false

let send st fd reply =
  match Hashtbl.find_opt st.conns fd with
  | None -> ()
  | Some conn ->
      let payload = P.frame (P.reply_to_string reply) in
      let len = String.length payload in
      if conn.c_out_len + len > max_conn_out then close_conn st fd
      else begin
        let need = conn.c_out_len + len in
        if Bytes.length conn.c_out - conn.c_out_off < need then begin
          let nb =
            Bytes.create (max need (2 * max 1 (Bytes.length conn.c_out)))
          in
          Bytes.blit conn.c_out conn.c_out_off nb 0 conn.c_out_len;
          conn.c_out <- nb;
          conn.c_out_off <- 0
        end;
        Bytes.blit_string payload 0 conn.c_out
          (conn.c_out_off + conn.c_out_len) len;
        conn.c_out_len <- need;
        if not (flush_conn conn) then close_conn st fd
      end

(* Completion replies go back to whichever connection submitted the
   job; a reply whose submitter disconnected is dropped. *)
let route_done st r =
  match r with
  | P.Done { id; _ } -> (
      match Hashtbl.find_opt st.routes id with
      | Some fd ->
          Hashtbl.remove st.routes id;
          if Hashtbl.mem st.conns fd then send st fd r
      | None -> ())
  | _ -> ()

let dispatch st =
  if Service.has_work st.svc then
    List.iter (route_done st) (Service.run_until_idle st.svc)

let handle_payload config st fd payload =
  match P.request_of_string payload with
  | Error e -> send st fd (P.Error { code = e.P.e_code; reason = e.P.e_reason })
  | Ok (P.Submit { tenant; job; deadline_ms; idem; trace }) ->
      let reply = Service.submit st.svc ~tenant ?deadline_ms ?idem ?trace job in
      let replays = Service.take_replays st.svc in
      (match reply with
      | P.Accepted { id; _ } when replays = [] && Hashtbl.mem st.conns fd ->
          (* route the eventual DONE to the submitter — unless this was
             a dedup-complete hit, whose cached DONE goes out below, or
             the submitter already hung up (its fd may be recycled) *)
          Hashtbl.replace st.routes id fd
      | _ -> ());
      send st fd reply;
      List.iter (send st fd) replays
  | Ok P.Run ->
      dispatch st;
      send st fd (P.Idle { completed = Service.completed st.svc })
  | Ok P.Stats -> send st fd (P.Stats_reply (Service.stats st.svc))
  | Ok P.Ping -> send st fd P.Pong
  | Ok (P.Drain { budget_ms }) ->
      let dones, final = Service.drain st.svc ?budget_ms () in
      List.iter (route_done st) dones;
      send st fd final;
      st.drained <- true;
      st.stop <- true;
      ignore config

let read_conn config st conn =
  let tmp = Bytes.create 4096 in
  match Unix.read conn.c_fd tmp 0 4096 with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn st conn.c_fd
  | 0 -> close_conn st conn.c_fd
  | n ->
      let now = Unix.gettimeofday () in
      conn.c_last_active <- now;
      if conn.c_len = 0 then conn.c_frame_start <- now;
      let need = conn.c_len + n in
      if Bytes.length conn.c_buf < need then begin
        let nb = Bytes.create (max need (2 * Bytes.length conn.c_buf)) in
        Bytes.blit conn.c_buf 0 nb 0 conn.c_len;
        conn.c_buf <- nb
      end;
      Bytes.blit tmp 0 conn.c_buf conn.c_len n;
      conn.c_len <- need;
      let rec frames () =
        match P.deframe conn.c_buf ~off:0 ~len:conn.c_len with
        | P.Need -> ()
        | P.Corrupt reason ->
            send st conn.c_fd (P.Error { code = P.Parse; reason });
            close_conn st conn.c_fd
        | P.Frame (payload, used) ->
            Bytes.blit conn.c_buf used conn.c_buf 0 (conn.c_len - used);
            conn.c_len <- conn.c_len - used;
            (* the partial-frame clock restarts with whatever remains *)
            conn.c_frame_start <- now;
            handle_payload config st conn.c_fd payload;
            (* A failed reply write closes the connection, but every
               frame already read was sent before the peer hung up:
               handle them all (their replies are dropped). *)
            frames ()
      in
      frames ()

let fd_routed st fd =
  Hashtbl.fold (fun _ dst acc -> acc || dst = fd) st.routes false

(* Slowloris protection, two clocks per connection:
   - read deadline: a peer sitting on a half-sent frame past
     [read_deadline_s] is feeding bytes slower than any real client
     and is cut;
   - idle reap: a peer that has sent nothing for [idle_timeout_s] is
     cut, but only when the daemon owes it nothing — no buffered
     output and no pending job routed to it (a submit-and-wait client
     is idle by design until its DONE arrives). *)
let reap st ~now ~idle_timeout_s ~read_deadline_s =
  let victims =
    Hashtbl.fold
      (fun fd c acc ->
        let stalled_frame =
          match read_deadline_s with
          | Some d -> c.c_len > 0 && now -. c.c_frame_start > d
          | None -> false
        in
        let idle =
          match idle_timeout_s with
          | Some d ->
              now -. c.c_last_active > d
              && c.c_len = 0 && c.c_out_len = 0
              && not (fd_routed st fd)
          | None -> false
        in
        if stalled_frame || idle then fd :: acc else acc)
      st.conns []
  in
  List.iter (close_conn st) victims

(* After drain, lagging clients get a bounded window to take delivery
   of their final frames (Done / Drained); whoever still is not
   reading when it closes loses them, not the daemon. *)
let final_flush st ~deadline =
  let pending () =
    Hashtbl.fold
      (fun fd c acc -> if c.c_out_len > 0 then fd :: acc else acc)
      st.conns []
  in
  let rec go () =
    match pending () with
    | [] -> ()
    | fds when Unix.gettimeofday () < deadline -> (
        match Unix.select [] fds [] 0.1 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | _, writable, _ ->
            List.iter
              (fun fd ->
                match Hashtbl.find_opt st.conns fd with
                | Some conn ->
                    if not (flush_conn conn) then close_conn st fd
                | None -> ())
              writable;
            go ())
    | _ -> ()
  in
  go ()

(* A SIGKILLed daemon leaves its socket file behind; the restarted
   worker must reclaim it, but only when no live daemon owns it — a
   connect probe distinguishes the two (a live listener accepts or at
   least does not refuse; a corpse's socket refuses). *)
let bind_reclaiming srv path =
  try Unix.bind srv (Unix.ADDR_UNIX path)
  with Unix.Unix_error (Unix.EADDRINUSE, _, _) as e ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let stale =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> false
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if stale then begin
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind srv (Unix.ADDR_UNIX path)
    end
    else raise e

let run_socket ?(config = default_config) ~path svc =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try bind_reclaiming srv path
   with e ->
     Unix.close srv;
     raise e);
  Unix.listen srv 16;
  (* A peer that disconnects mid-reply must surface as EPIPE on the
     write, not as a process-killing SIGPIPE (absent on platforms
     without the signal, hence the try). *)
  let old_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let st =
    { svc; conns = Hashtbl.create 8; routes = Hashtbl.create 64;
      stop = false; drained = false; crashed = false }
  in
  let on_term = Sys.Signal_handle (fun _ -> st.stop <- true) in
  let old_term = Sys.signal Sys.sigterm on_term in
  let old_int = Sys.signal Sys.sigint on_term in
  (* fatal-but-catchable signals: no drain (the journal re-runs what
     is pending), but the loop still exits to persist observability
     state — decisions, SLO counters, metrics — for the post-mortem *)
  let on_fatal =
    Sys.Signal_handle
      (fun _ ->
        st.crashed <- true;
        st.stop <- true)
  in
  let set_fatal s =
    try Some (Sys.signal s on_fatal)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let old_quit = set_fatal Sys.sigquit in
  let old_hup = set_fatal Sys.sighup in
  while not st.stop do
    let fds =
      srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) st.conns []
    in
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if c.c_out_len > 0 then fd :: acc else acc)
        st.conns []
    in
    match Unix.select fds wfds [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt st.conns fd with
            | Some conn -> if not (flush_conn conn) then close_conn st fd
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if st.stop then ()
            else if fd = srv then begin
              match Unix.accept srv with
              | exception
                  Unix.Unix_error
                    ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                      | Unix.ECONNABORTED ),
                      _, _ ) ->
                  ()
              | cfd, _ ->
                  Unix.set_nonblock cfd;
                  let now = Unix.gettimeofday () in
                  Hashtbl.replace st.conns cfd
                    { c_fd = cfd; c_buf = Bytes.create 4096; c_len = 0;
                      c_out = Bytes.create 4096; c_out_off = 0; c_out_len = 0;
                      c_last_active = now; c_frame_start = now }
            end
            else
              match Hashtbl.find_opt st.conns fd with
              | Some conn -> read_conn config st conn
              | None -> ())
          ready;
        if not st.stop then begin
          dispatch st;
          if config.idle_timeout_s <> None || config.read_deadline_s <> None
          then
            reap st ~now:(Unix.gettimeofday ())
              ~idle_timeout_s:config.idle_timeout_s
              ~read_deadline_s:config.read_deadline_s
        end
  done;
  (* graceful shutdown: stop admitting, finish or cancel in-flight
     work within the budget, persist state, release the socket.  On
     the fatal-signal path there is no drain — pending jobs stay in
     the journal for the next incarnation to replay — but persistence
     still runs. *)
  if (not st.drained) && not st.crashed then begin
    let dones, _final = Service.drain svc ?budget_ms:config.budget_ms () in
    List.iter (route_done st) dones
  end;
  if not st.crashed then final_flush st ~deadline:(Unix.gettimeofday () +. 2.0);
  flush_state config svc;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    st.conns;
  Hashtbl.reset st.conns;
  Unix.close srv;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  Option.iter (Sys.set_signal Sys.sigquit) old_quit;
  Option.iter (Sys.set_signal Sys.sighup) old_hup;
  Option.iter (Sys.set_signal Sys.sigpipe) old_pipe;
  if st.crashed then Aborted else Completed

(* --- a minimal blocking client (scripted sessions, tests, bench) ------- *)

let rec read_exact fd b off len =
  if len > 0 then begin
    let n = Unix.read fd b off len in
    if n = 0 then raise End_of_file;
    read_exact fd b (off + n) (len - n)
  end

let client_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let client_send_blob fd bytes =
  write_all fd (Bytes.of_string bytes) 0 (String.length bytes)

let client_send_raw fd payload = client_send_blob fd (P.frame payload)

let client_send fd req = client_send_raw fd (P.request_to_string req)

let client_recv fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let u8 i = Char.code (Bytes.get hdr i) in
  let n = (u8 0 lsl 24) lor (u8 1 lsl 16) lor (u8 2 lsl 8) lor u8 3 in
  if n > P.max_frame then failwith "cascabeld client: oversized reply frame";
  let body = Bytes.create n in
  read_exact fd body 0 n;
  match P.reply_of_string (Bytes.to_string body) with
  | Ok r -> r
  | Error e -> failwith ("cascabeld client: bad reply: " ^ e)

(* The load generator: one process, one thread, a fixed set of Unix
   socket connections to the daemon, driven by select(2).

   Every submit expects exactly one direct answer on its connection
   (ACCEPTED, or a refusal), in send order; a DONE completes every
   request waiting on its job id.  An idempotent resubmission of a
   completed key is answered by ACCEPTED with the original id followed
   by the cached DONE (counted in [replays]); one of a still-pending
   key shares the original's DONE. *)

module P = Serve.Protocol

type outcome =
  | Pending
  | Ok of { checksum : string; tasks : int; coalesced : bool }
  | Failed of string

type req = {
  conn : int;
  tenant : string;
  job : P.job;
  idem : string option;
  resubmit : bool;
  due : float;  (* when the request was due to be sent *)
  mutable sent : float;
  mutable done_at : float;
  mutable daemon_ms : float;  (* DONE's latency_ms: admission to completion *)
  mutable outcome : outcome;
}

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  direct : req Queue.t;  (* submits awaiting their direct answer *)
  mutable inflight : int;
}

type t = {
  conns : conn array;
  waiting : (int, req) Hashtbl.t;  (* job id -> requests its DONE completes *)
  seen_done : (int, unit) Hashtbl.t;
  mutable replays : int;  (* DONEs re-delivered for an id already done *)
  mutable bytes : int;  (* frame bytes, both directions *)
  mutable unmatched : int;  (* frames that answer no request *)
  mutable finished : int;  (* requests answered, with a DONE or a refusal *)
  mutable sent : req list;  (* newest first *)
}

let connect ~socket n =
  {
    conns =
      Array.init n (fun _ ->
          {
            fd = Serve.Server.client_connect socket;
            buf = Bytes.create 65536;
            len = 0;
            direct = Queue.create ();
            inflight = 0;
          });
    waiting = Hashtbl.create 4096;
    seen_done = Hashtbl.create 4096;
    replays = 0;
    bytes = 0;
    unmatched = 0;
    finished = 0;
    sent = [];
  }

let close t = Array.iter (fun c -> Unix.close c.fd) t.conns
let inflight t = Array.fold_left (fun n c -> n + c.inflight) 0 t.conns

let request ~conn ~due ?idem ?(resubmit = false) tenant job =
  {
    conn;
    tenant;
    job;
    idem;
    resubmit;
    due;
    sent = nan;
    done_at = nan;
    daemon_ms = nan;
    outcome = Pending;
  }

let submit_frame r =
  P.frame
    (P.request_to_string
       (P.Submit
          { tenant = r.tenant; job = r.job; deadline_ms = None; idem = r.idem; trace = None }))

let send t r =
  let c = t.conns.(r.conn) in
  let frame = submit_frame r in
  r.sent <- Stats.now ();
  Serve.Server.client_send_blob c.fd frame;
  t.bytes <- t.bytes + String.length frame;
  Queue.add r c.direct;
  c.inflight <- c.inflight + 1;
  t.sent <- r :: t.sent

let finish t r outcome now =
  r.outcome <- outcome;
  r.done_at <- now;
  t.finished <- t.finished + 1;
  let c = t.conns.(r.conn) in
  c.inflight <- c.inflight - 1

let handle t c payload now =
  match P.reply_of_string payload with
  | Ok (P.Accepted { id; _ }) -> (
      match Queue.take_opt c.direct with
      | Some r -> Hashtbl.add t.waiting id r
      | None -> t.unmatched <- t.unmatched + 1)
  | Ok ((P.Overloaded _ | P.Draining | P.Error _) as rep) -> (
      match Queue.take_opt c.direct with
      | Some r -> finish t r (Failed (P.reply_to_string rep)) now
      | None -> t.unmatched <- t.unmatched + 1)
  | Ok (P.Done { id; latency_ms; status; _ }) ->
      if Hashtbl.mem t.seen_done id then t.replays <- t.replays + 1
      else Hashtbl.add t.seen_done id ();
      let rs = Hashtbl.find_all t.waiting id in
      if rs = [] then t.unmatched <- t.unmatched + 1;
      List.iter (fun _ -> Hashtbl.remove t.waiting id) rs;
      let outcome =
        match status with
        | P.Jok { checksum; tasks; coalesced; _ } ->
            Ok { checksum; tasks; coalesced }
        | P.Jfailed m -> Failed ("failed: " ^ m)
        | P.Jtimeout -> Failed "timeout"
        | P.Jcancelled -> Failed "cancelled"
      in
      List.iter
        (fun r ->
          r.daemon_ms <- latency_ms;
          finish t r outcome now)
        rs
  | Ok _ | Error _ -> t.unmatched <- t.unmatched + 1

let chunk = Bytes.create 65536

let read_conn t c now =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "cascabeld closed a load-generator connection"
  | n ->
      t.bytes <- t.bytes + n;
      if Bytes.length c.buf < c.len + n then begin
        let nb = Bytes.create (2 * (c.len + n)) in
        Bytes.blit c.buf 0 nb 0 c.len;
        c.buf <- nb
      end;
      Bytes.blit chunk 0 c.buf c.len n;
      c.len <- c.len + n;
      let rec frames off =
        match P.deframe c.buf ~off ~len:(c.len - off) with
        | P.Frame (payload, used) ->
            handle t c payload now;
            frames (off + used)
        | P.Need -> off
        | P.Corrupt m -> failwith ("corrupt reply frame: " ^ m)
      in
      let off = frames 0 in
      Bytes.blit c.buf off c.buf 0 (c.len - off);
      c.len <- c.len - off

(* Wait up to [timeout] seconds for replies and process them.  Replies
   read in one batch share one receive time, so decoding earlier frames
   is not charged to later ones. *)
let pump t timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | [], _, _ -> ()
  | ready, _, _ ->
      let now = Stats.now () in
      Array.iter (fun c -> if List.mem c.fd ready then read_conn t c now) t.conns

(* A select timeout wakes the generator 50-100 us late (timer slack),
   which an open loop would charge to the daemon; the last stretch before
   a send is polled instead. *)
let spin_s = 0.0002

(* Open loop: Poisson arrivals at [rate] per second until [until];
   [next ~due] makes the request due at [due].  A request is sent as
   soon as it is due, whatever is still outstanding. *)
let open_loop t ~rng ~rate ~until ~next =
  let due = ref (Stats.now ()) in
  let out = ref [] in
  while !due < until do
    let now = Stats.now () in
    if !due <= now then begin
      let r = next ~due:!due in
      send t r;
      out := r :: !out;
      due := !due -. (log (1.0 -. Random.State.float rng 1.0) /. rate)
    end
    else pump t (!due -. now -. spin_s)
  done;
  List.rev !out

(* Closed loop: [depth] requests outstanding per connection until
   [until]; [next ~conn ~due] makes the next request for [conn].
   [at = (n, f)] calls [f] once [n] of its requests have completed. *)
let closed_loop ?at t ~depth ~until ~next =
  let out = ref [] and at = ref at and finished0 = t.finished in
  while Stats.now () < until do
    Array.iteri
      (fun i c ->
        while c.inflight < depth do
          let r = next ~conn:i ~due:(Stats.now ()) in
          send t r;
          out := r :: !out
        done)
      t.conns;
    pump t (until -. Stats.now ());
    match !at with
    | Some (n, f) when t.finished - finished0 >= n ->
        at := None;
        f ()
    | _ -> ()
  done;
  List.rev !out

(* Collect the answers still owed, for at most [timeout] seconds. *)
let settle t ~timeout =
  let t_end = Stats.now () +. timeout in
  while inflight t > 0 && Stats.now () < t_end do
    pump t (t_end -. Stats.now ())
  done

let cpu_seconds () =
  let tm = Unix.times () in
  tm.Unix.tms_utime +. tm.Unix.tms_stime

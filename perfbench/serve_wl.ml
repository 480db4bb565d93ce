(* The three serving workloads: seeded traffic against a real
   [cascabeld serve] over its Unix socket.

   serve-small    open loop, Poisson 1000 jobs/s, 4 tenants, small mixed
                  jobs; then a saturation phase for throughput.  The data
                  plane (select, framing, JSON, DRR, engine bookkeeping)
                  dominates.
   serve-heavy    closed loop, 2 callers with one job outstanding each,
                  large DGEMM and Cholesky jobs.  Kernels and the engine
                  dominate; a data-plane change should not move it.
   serve-durable  serve-small's traffic with the write-ahead journal on
                  (flush durability), idempotency keys, 5% resubmissions
                  of completed keys, and 100k journal records recovered at
                  start-up.  The journal works here and idles in
                  serve-small. *)

module P = Serve.Protocol
module SJ = Serve.Journal
module Svc = Serve.Service

type kind = Small | Heavy | Durable

let name = function
  | Small -> "serve-small"
  | Heavy -> "serve-heavy"
  | Durable -> "serve-durable"

let rate = 1000.0 (* open-loop arrivals per second *)
let saturation_depth = 16 (* outstanding jobs per connection *)
let saturation_share = 0.5 (* of the measured seconds, open-loop kinds *)
let resubmit_share = 0.05
let resubmit_back = 64 (* resubmit the key sent this many requests earlier *)
let journal_records = 100_000
let queue_cap = 64
let sample_checks = 200
let settle_s = 30.0
let starts = 5 (* set-up time is their median *)
let incarnations = 2 (* daemons sharing an untraced run's measured seconds *)
let rss_jobs_per_s = 20.0 (* serve-heavy completes 45-60 jobs/s *)

(* Two connections; tenants are pinned to one connection each. *)
let tenants kind conn =
  match kind with
  | Heavy -> [| Printf.sprintf "h%d" conn |]
  | Small | Durable -> [| Printf.sprintf "t%d" conn; Printf.sprintf "t%d" (conn + 2) |]

let job_of kind rng =
  let seed () = Random.State.int rng 1_000_000 in
  match kind with
  | Small | Durable -> (
      match Random.State.int rng 3 with
      | 0 -> P.Dgemm { n = 32; tiles = 2; seed = seed () }
      | 1 ->
          (* distinct graphs: identical queued jobs would coalesce, and
             how many do depends on timing *)
          P.Graph
            { width = 8; depth = 8; task_flops = 1e6 +. float_of_int (seed () mod 1000) }
      | _ -> P.Cholesky { n = 64; tiles = 4; seed = seed () })
  | Heavy ->
      if Random.State.float rng 1.0 < 0.8 then
        P.Dgemm { n = 256; tiles = 2; seed = seed () }
      else P.Cholesky { n = 512; tiles = 4; seed = seed () }

let dgemm_n = function Small | Durable -> 32 | Heavy -> 256
let cholesky_n = function Small | Durable -> 64 | Heavy -> 512

(* --- request streams --------------------------------------------------- *)

(* One seeded stream per connection, so the requests each connection
   sends depend on the seed alone, not on how replies interleave. *)
type stream = {
  rng : Random.State.t;
  mutable k : int;
  past : (int, string * P.job * string option) Hashtbl.t;
}

type gen = {
  arrivals : Random.State.t;
  next : conn:int -> due:float -> Loadgen.req;
}

let gen kind ~seed ~phase =
  let streams =
    Array.init 2 (fun conn ->
        {
          rng = Random.State.make [| seed; phase; conn |];
          k = 0;
          past = Hashtbl.create 1024;
        })
  in
  let next ~conn ~due =
    let s = streams.(conn) in
    s.k <- s.k + 1;
    let resubmit =
      kind = Durable && s.k > resubmit_back
      && Random.State.float s.rng 1.0 < resubmit_share
    in
    let ((tenant, job, idem) as spec) =
      if resubmit then Hashtbl.find s.past (s.k - resubmit_back)
      else
        let ts = tenants kind conn in
        let tenant = ts.(Random.State.int s.rng (Array.length ts)) in
        let job = job_of kind s.rng in
        let idem =
          if kind = Durable then
            Some (Printf.sprintf "s%d-p%d-c%d-%d" seed phase conn s.k)
          else None
        in
        (tenant, job, idem)
    in
    Hashtbl.replace s.past s.k spec;
    Loadgen.request ~conn ~due ?idem ~resubmit tenant job
  in
  { arrivals = Random.State.make [| seed; phase; 0xa77 |]; next }

(* The workload's own loop: open-loop arrivals, or closed-loop callers.
   Returns its requests, answered, and the loop's start and end.  [at]
   hooks the closed loop only (see [Loadgen.closed_loop]). *)
let main_loop ?at kind t g ~seconds =
  let t0 = Stats.now () in
  let until = t0 +. seconds in
  let reqs =
    match kind with
    | Heavy -> Loadgen.closed_loop ?at t ~depth:1 ~until ~next:g.next
    | Small | Durable ->
        Loadgen.open_loop t ~rng:g.arrivals ~rate ~until ~next:(fun ~due ->
            g.next ~conn:(Random.State.int g.arrivals 2) ~due)
  in
  let t1 = Stats.now () in
  Loadgen.settle t ~timeout:settle_s;
  (reqs, t0, t1)

let warmup_s seconds = Float.min 1.0 (seconds /. 8.0)

(* --- set-up ------------------------------------------------------------ *)

let machine () =
  let platform = Result.get_ok (Pdl.Codec.load_file Daemon.platform) in
  Result.get_ok (Taskrt.Machine_config.of_platform platform)

let service ?journal cfg =
  Svc.create ~policy:Taskrt.Engine.Heft ~shards:2 ~queue_cap ?journal cfg

let run_one svc job =
  match Svc.submit svc ~tenant:"ref" job with
  | P.Accepted _ -> (
      match Svc.run_until_idle svc with
      | [ P.Done { status = P.Jok { checksum; tasks; _ } as status; _ } ] ->
          Some (checksum, tasks, status)
      | _ -> None)
  | _ -> None

(* A journal of [journal_records] accept/complete pairs with keys, as a
   long-lived daemon leaves behind.  The DONEs are real: 64 distinct
   small jobs run in process, cycled. *)
let preseed ~cfg ~seed path =
  let rng = Random.State.make [| seed; 0x10 |] in
  let svc = service cfg in
  let pool =
    Array.init 64 (fun _ ->
        let job = job_of Small rng in
        match run_one svc job with
        | Some (_, _, status) -> (job, status)
        | None -> failwith "preseed job failed in process")
  in
  let j = SJ.open_append ~durability:SJ.Buffer path in
  for i = 1 to journal_records / 2 do
    let job, status = pool.(i mod Array.length pool) in
    let tenant = Printf.sprintf "t%d" (i mod 4)
    and idem = Some (Printf.sprintf "pre-%d" i)
    and trace = Some (Printf.sprintf "%016x" i) in
    SJ.append j
      (SJ.Accept
         {
           a_id = i;
           a_tenant = tenant;
           a_job = job;
           a_deadline_ms = None;
           a_idem = idem;
           a_trace = trace;
         });
    SJ.append j
      (SJ.Complete
         {
           c_idem = idem;
           c_reply = P.Done { id = i; tenant; latency_ms = 0.5; status; trace };
         })
  done;
  SJ.close j

(* --- output checks ----------------------------------------------------- *)

(* Identical jobs must report identical results (this covers coalesced
   copies and replayed DONEs), and a seeded sample of the distinct jobs,
   re-run through an in-process Service, must match bit for bit. *)
let check_outputs ~cfg ~seed reqs =
  let by_job = Hashtbl.create 1024 in
  let consistent =
    List.for_all
      (fun (r : Loadgen.req) ->
        match r.outcome with
        | Loadgen.Ok { checksum; tasks; _ } -> (
            match Hashtbl.find_opt by_job r.job with
            | Some v -> v = (checksum, tasks)
            | None ->
                Hashtbl.add by_job r.job (checksum, tasks);
                true)
        | _ -> true)
      reqs
  in
  let distinct = Array.of_seq (Hashtbl.to_seq by_job) in
  Array.sort compare distinct;
  let rng = Random.State.make [| seed; 0xc4ec |] in
  for i = Array.length distinct - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = distinct.(i) in
    distinct.(i) <- distinct.(j);
    distinct.(j) <- x
  done;
  let svc = service cfg in
  let sample = Array.sub distinct 0 (min sample_checks (Array.length distinct)) in
  let matched =
    Array.for_all
      (fun (job, (checksum, tasks)) ->
        match run_one svc job with
        | Some (c, k, _) -> c = checksum && k = tasks
        | None -> false)
      sample
  in
  if not consistent then prerr_endline "check: identical jobs disagree";
  if not matched then prerr_endline "check: a DONE differs from the in-process run";
  consistent && matched && Array.length sample > 0

let failures (t : Loadgen.t) reqs =
  t.Loadgen.unmatched
  + List.length
      (List.filter
         (fun (r : Loadgen.req) ->
           match r.outcome with Loadgen.Ok _ -> false | _ -> true)
         reqs)

let ok_reqs reqs =
  List.filter
    (fun (r : Loadgen.req) ->
      match r.outcome with Loadgen.Ok _ -> true | _ -> false)
    reqs

(* Open loop: from the due time, which charges a stalled generator's
   backlog to the system; closed loop: due = send time. *)
let latencies_ms reqs =
  Stats.sorted
    (List.map
       (fun (r : Loadgen.req) -> (r.done_at -. r.due) *. 1000.0)
       (ok_reqs reqs))

let sum_by f xs = Stats.sum (List.map f xs)

let completed_between reqs t0 t1 =
  List.length
    (List.filter
       (fun (r : Loadgen.req) -> r.done_at >= t0 && r.done_at < t1)
       (ok_reqs reqs))

let lag_metrics kind reqs =
  match kind with
  | Heavy -> []
  | Small | Durable ->
      let lags =
        List.map (fun (r : Loadgen.req) -> (r.sent -. r.due) *. 1000.0) reqs
      in
      let late = List.length (List.filter (fun l -> l > 1.0) lags) in
      [
        Metric.v "loadgen.lag_p99_ms" "ms" (Stats.percentile (Stats.sorted lags) 99.0);
        Metric.v "loadgen.late_frac" "frac"
          (float_of_int late /. float_of_int (max 1 (List.length lags)));
      ]

(* --- the untraced run: end-to-end metrics ------------------------------ *)

let daemon_args kind dir =
  [ "--queue-cap"; string_of_int queue_cap ]
  @
  match kind with
  | Durable ->
      [ "--journal"; Filename.concat dir "journal.wal"; "--durability"; "flush" ]
  | Small | Heavy -> []

let prepare kind ~seed =
  let dir = Metric.scratch (name kind) in
  let cfg = machine () in
  if kind = Durable then preseed ~cfg ~seed (Filename.concat dir "journal.wal");
  (dir, cfg, Filename.concat dir "d.sock")

(* One daemon's share of an untraced run: warm-up, the workload's loop,
   the memory reading, and on open-loop kinds the saturation phase. *)
type part = {
  t : Loadgen.t;
  measured : Loadgen.req list;  (* the latency loop's requests *)
  rss_mb : float;
  completed : int;  (* jobs completed in the throughput window *)
  window : float;  (* its length, seconds *)
}

let part kind ~seed ~index ~socket ~seconds d =
  let t = Loadgen.connect ~socket 2 in
  let g = gen kind ~seed ~phase:index in
  ignore (main_loop kind t g ~seconds:(warmup_s seconds));
  let loop_s =
    match kind with Heavy -> seconds | _ -> seconds *. (1.0 -. saturation_share)
  in
  (* The daemon's memory grows with the jobs it has run, so it is read
     after a fixed amount of work: the open loop's seeded arrivals, or
     [rss_jobs_per_s * seconds] closed-loop jobs. *)
  let rss_mb = ref nan in
  let read_rss () = rss_mb := Daemon.vm_hwm_mb d.Daemon.pid in
  let measured, t0, t1 =
    main_loop kind t g ~seconds:loop_s
      ~at:(int_of_float (rss_jobs_per_s *. seconds), read_rss)
  in
  if Float.is_nan !rss_mb then read_rss ();
  let completed, window =
    match kind with
    | Heavy -> (completed_between measured t0 t1, t1 -. t0)
    | Small | Durable ->
        let s0 = Stats.now () in
        let until = s0 +. (seconds *. saturation_share) in
        let sat = Loadgen.closed_loop t ~depth:saturation_depth ~until ~next:g.next in
        let s1 = Stats.now () in
        Loadgen.settle t ~timeout:settle_s;
        (* completions in the window, open-loop stragglers included *)
        (completed_between (measured @ sat) s0 s1, s1 -. s0)
  in
  Loadgen.close t;
  Daemon.stop d;
  { t; measured; rss_mb = !rss_mb; completed; window }

(* Five daemon starts give set-up time; the last [incarnations] of them
   each serve an equal share of the measured seconds.  Splitting the run
   averages out how fast one daemon process happens to be, and bounds
   the memory a daemon accumulates. *)
let untraced kind ~seed ~seconds =
  let dir, cfg, socket = prepare kind ~seed in
  let setups = ref [] in
  let start () =
    let d, s = Daemon.start ~socket (daemon_args kind dir) in
    setups := s :: !setups;
    d
  in
  for _ = 1 to starts - incarnations do
    Daemon.stop (start ())
  done;
  let parts =
    List.init incarnations (fun index ->
        part kind ~seed ~index ~socket
          ~seconds:(seconds /. float_of_int incarnations)
          (start ()))
  in
  let all = List.concat_map (fun p -> p.t.Loadgen.sent) parts in
  let lat = latencies_ms (List.concat_map (fun p -> p.measured) parts) in
  let sum f = sum_by f parts in
  {
    Metric.correct = check_outputs ~cfg ~seed all;
    attempted = List.length all;
    failed = List.fold_left (fun n p -> n + failures p.t p.t.Loadgen.sent) 0 parts;
    metrics =
      [
        Metric.v "setup_s" "s" (Stats.median (Stats.sorted !setups));
        Metric.v "latency_p50_ms" "ms" (Stats.median lat);
        Metric.v "throughput_jobs_per_s" "1/s"
          (sum (fun p -> float_of_int p.completed) /. sum (fun p -> p.window));
        Metric.v "peak_rss_mb" "MB" (sum (fun p -> p.rss_mb) /. float_of_int incarnations);
        Metric.v "latency.samples" "count" (float_of_int (Array.length lat));
        Metric.v "latency.p90_ms" "ms" (Stats.percentile lat 90.0);
        Metric.v "latency.p99_ms" "ms" (Stats.percentile lat 99.0);
      ]
      @ lag_metrics kind (List.concat_map (fun p -> p.measured) parts);
  }

(* --- the traced run: per-layer metrics --------------------------------- *)

(* The in-process replay of a request sequence through the public calls
   the daemon makes per frame, each timed: deframe + decode, submit,
   encode + frame of the answers, run_until_idle, encode of the DONEs. *)
type replay = {
  jobs : int;  (* DONEs produced *)
  requests : int;
  wall : float;
  decode : float;
  submit : float;
  encode : float;
  replies : int;
  dispatch : float;
  exec : float;  (* task bodies: the engine's exec_* histograms *)
}

let exec_seconds () =
  List.fold_left
    (fun acc h ->
      if String.starts_with ~prefix:"exec_" (Obs.Histogram.name h) then
        acc +. Obs.Histogram.sum h
      else acc)
    0.0 (Obs.Histogram.all ())

let replay kind ~cfg ~dir ~budget reqs =
  let journal =
    match kind with
    | Durable ->
        Some (SJ.open_append ~durability:SJ.Flush (Filename.concat dir "replay.wal"))
    | Small | Heavy -> None
  in
  let svc = service ?journal cfg in
  let frames = List.map Loadgen.submit_frame reqs in
  Obs.Config.set_enabled true;
  Obs.Export.reset_all ();
  let z =
    {
      jobs = 0;
      requests = 0;
      wall = 0.0;
      decode = 0.0;
      submit = 0.0;
      encode = 0.0;
      replies = 0;
      dispatch = 0.0;
      exec = 0.0;
    }
  in
  let encode_all replies =
    List.iter
      (fun r -> ignore (Sys.opaque_identity (P.frame (P.reply_to_string r))))
      replies
  in
  let start = Stats.now () in
  let rec go acc = function
    | frame :: rest when Stats.now () -. start < budget ->
        let b = Bytes.unsafe_of_string frame in
        let t0 = Stats.now () in
        let req =
          match P.deframe b ~off:0 ~len:(Bytes.length b) with
          | P.Frame (payload, _) -> P.request_of_string payload
          | _ -> failwith "replay: bad frame"
        in
        let t1 = Stats.now () in
        let answers =
          match req with
          | Ok (P.Submit { tenant; job; deadline_ms; idem; trace }) ->
              let a = Svc.submit svc ~tenant ?deadline_ms ?idem ?trace job in
              a :: Svc.take_replays svc
          | _ -> failwith "replay: bad request"
        in
        let t2 = Stats.now () in
        encode_all answers;
        let t3 = Stats.now () in
        let dones = Svc.run_until_idle svc in
        let t4 = Stats.now () in
        encode_all dones;
        let t5 = Stats.now () in
        go
          {
            acc with
            jobs = acc.jobs + List.length dones;
            requests = acc.requests + 1;
            decode = acc.decode +. (t1 -. t0);
            submit = acc.submit +. (t2 -. t1);
            encode = acc.encode +. (t3 -. t2) +. (t5 -. t4);
            replies = acc.replies + List.length answers + List.length dones;
            dispatch = acc.dispatch +. (t4 -. t3);
          }
          rest
    | _ -> acc
  in
  let r = go z frames in
  let r = { r with wall = Stats.now () -. start; exec = exec_seconds () } in
  Obs.Config.set_enabled false;
  Obs.Export.reset_all ();
  Option.iter SJ.close journal;
  r

(* Sum of the task-body seconds in the daemon's --metrics dump. *)
let prom_exec_seconds path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.fold_left
       (fun acc l ->
         match String.split_on_char ' ' l with
         | [ k; v ]
           when String.starts_with ~prefix:"obs_exec_" k
                && String.ends_with ~suffix:"_seconds_sum" k ->
             acc +. float_of_string v
         | _ -> acc)
       0.0

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let traced kind ~seed ~seconds =
  let dir, cfg, socket = prepare kind ~seed in
  let args = daemon_args kind dir in
  let half = seconds /. 2.0 in
  (* A: the untraced daemon; B: the same traffic shape with the daemon's
     own telemetry on (--metrics), which is what the layers are read
     from.  The p50 ratio of B over A is the tracing overhead. *)
  let run_part ~index args =
    part kind ~seed ~index ~socket ~seconds:half (fst (Daemon.start ~socket args))
  in
  let a = run_part ~index:1 args in
  let jpath = Filename.concat dir "journal.wal" in
  let j0 = file_size jpath in
  let prom = Filename.concat dir "metrics.prom" in
  let c0 = Loadgen.cpu_seconds () and w0 = Stats.now () in
  let b = run_part ~index:2 (args @ [ "--metrics"; prom ]) in
  let b_cpu = (Loadgen.cpu_seconds () -. c0) /. (Stats.now () -. w0) in
  let j1 = file_size jpath in
  let b_all = b.t.Loadgen.sent in
  let rp = replay kind ~cfg ~dir ~budget:half b.measured in
  let oks = ok_reqs b.measured in
  let fresh = List.filter (fun (r : Loadgen.req) -> not r.resubmit) oks in
  let jobs = float_of_int (max 1 rp.jobs) in
  let client_ms (r : Loadgen.req) = (r.done_at -. r.sent) *. 1000.0 in
  let l_sum = sum_by client_ms fresh in
  let d_mean = Stats.mean (List.map (fun (r : Loadgen.req) -> r.daemon_ms) fresh) in
  let l_mean = l_sum /. float_of_int (max 1 (List.length fresh)) in
  let dispatch_ms = rp.dispatch *. 1000.0 /. jobs in
  let tasks =
    Stats.mean
      (List.filter_map
         (fun (r : Loadgen.req) ->
           match r.outcome with
           | Loadgen.Ok { tasks; _ } -> Some (float_of_int tasks)
           | _ -> None)
         oks)
  in
  let coalesced =
    List.length
      (List.filter
         (fun (r : Loadgen.req) ->
           match r.outcome with Loadgen.Ok { coalesced; _ } -> coalesced | _ -> false)
         oks)
  in
  let p50 p = Stats.median (latencies_ms p.measured) in
  let covered = rp.decode +. rp.submit +. rp.encode +. rp.dispatch in
  let journal_metrics =
    match kind with
    | Small | Heavy -> []
    | Durable ->
        let recover_s, records =
          let r, s = Stats.time (fun () -> SJ.recover jpath) in
          (s, r.SJ.r_entries)
        in
        (* direct probe: re-append the records the replay journaled *)
        let entries, _ = SJ.replay (Filename.concat dir "replay.wal") in
        let probe = SJ.open_append ~durability:SJ.Flush (Filename.concat dir "probe.wal") in
        let appends =
          List.map (fun e -> snd (Stats.time (fun () -> SJ.append probe e)) *. 1e6) entries
        in
        SJ.close probe;
        let ap = Stats.sorted appends in
        [
          Metric.v "journal.bytes_per_job" "B"
            (float_of_int (j1 - j0) /. float_of_int (max 1 (List.length b_all)));
          Metric.v "journal.recover_records_per_s" "1/s"
            (float_of_int records /. recover_s);
          Metric.v "journal.recover_us_per_record" "us"
            (recover_s *. 1e6 /. float_of_int (max 1 records));
          Metric.v "journal.append_us_p50" "us" (Stats.percentile ap 50.0);
          Metric.v "journal.append_us_p99" "us" (Stats.percentile ap 99.0);
        ]
  in
  let all = a.t.Loadgen.sent @ b_all in
  {
    Metric.correct = check_outputs ~cfg ~seed all;
    attempted = List.length all;
    failed = failures a.t a.t.Loadgen.sent + failures b.t b_all;
    metrics =
      [
        Metric.v "pdl.load_ms" "ms" (Metric.pdl_load_ms ());
        Metric.v "kernels.dgemm_gflops" "GFLOP/s" (Metric.dgemm_gflops (dgemm_n kind));
        Metric.v "kernels.potrf_gflops" "GFLOP/s" (Metric.potrf_gflops (cholesky_n kind));
        Metric.v "engine.tasks_per_job" "count" tasks;
        Metric.v "engine.exec_ms_per_job" "ms" (rp.exec *. 1000.0 /. jobs);
        Metric.v "engine.overhead_ms_per_job" "ms"
          ((rp.dispatch -. rp.exec) *. 1000.0 /. jobs);
        Metric.v "engine.exec_frac" "frac" (rp.exec /. rp.dispatch);
        Metric.v "server.transport_frac" "frac"
          ((l_sum -. sum_by (fun (r : Loadgen.req) -> r.daemon_ms) fresh) /. l_sum);
        Metric.v "service.queue_frac" "frac"
          (Float.max 0.0 (d_mean -. dispatch_ms) /. l_mean);
        Metric.v "service.coalesced_frac" "frac"
          (float_of_int coalesced /. float_of_int (max 1 (List.length oks)));
        Metric.v "service.dedup_hits" "count" (float_of_int b.t.Loadgen.replays);
        Metric.v "service.submit_frac" "frac" (rp.submit /. rp.wall);
        Metric.v "protocol.replay_frac" "frac" ((rp.decode +. rp.encode) /. rp.wall);
        Metric.v "protocol.bytes_per_job" "B"
          (float_of_int b.t.Loadgen.bytes /. float_of_int (max 1 (List.length b_all)));
        Metric.v "loadgen.cpu_frac" "frac" b_cpu;
        Metric.v "trace.unattributed_frac" "frac" (1.0 -. (covered /. rp.wall));
        Metric.v "obs.tracing_overhead_pct" "%" (100.0 *. ((p50 b /. p50 a) -. 1.0));
        (* supporting numbers, printed only *)
        Metric.v "protocol.decode_us" "us"
          (rp.decode *. 1e6 /. float_of_int (max 1 rp.requests));
        Metric.v "protocol.encode_us" "us"
          (rp.encode *. 1e6 /. float_of_int (max 1 rp.replies));
        Metric.v "service.submit_us" "us"
          (rp.submit *. 1e6 /. float_of_int (max 1 rp.requests));
        Metric.v "service.dispatch_ms_per_job" "ms" dispatch_ms;
        Metric.v "service.done_latency_p50_ms" "ms"
          (Stats.median
             (Stats.sorted (List.map (fun (r : Loadgen.req) -> r.daemon_ms) fresh)));
        Metric.v "server.client_latency_mean_ms" "ms" l_mean;
        Metric.v "server.daemon_latency_mean_ms" "ms" d_mean;
        Metric.v "daemon.exec_ms_per_job" "ms"
          (prom_exec_seconds prom *. 1000.0
          /. float_of_int (max 1 (Hashtbl.length b.t.Loadgen.seen_done)));
        Metric.v "replay.jobs" "count" (float_of_int rp.jobs);
        Metric.v "replay.inprocess_ms_per_job" "ms" (rp.wall *. 1000.0 /. jobs);
      ]
      @ lag_metrics kind b.measured
      @ journal_metrics;
  }

let run kind ~seed ~seconds ~trace =
  if trace then traced kind ~seed ~seconds else untraced kind ~seed ~seconds

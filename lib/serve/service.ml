module P = Protocol
module MC = Taskrt.Machine_config
module Engine = Taskrt.Engine
module Fault = Taskrt.Fault
module Matrix = Kernels.Matrix
module Lapack = Kernels.Lapack
module BA1 = Bigarray.Array1

type pending = {
  p_id : int;
  p_job : P.job;
  p_submitted : float;  (* wall-clock seconds from the injected clock *)
  p_deadline_ms : float option;
  p_cost : float;  (* flops estimate; the DRR currency *)
  p_idem : string option;  (* client idempotency key, if any *)
  p_trace : Obs.Trace_ctx.t;  (* minted at admission unless supplied *)
  p_trace_str : string;  (* echoed verbatim in ACCEPTED/DONE *)
  p_admit_ns : int;  (* Span.start at admission; 0 when telemetry off *)
}

(* What a retried idempotency key replays: the original ACCEPTED while
   the job is queued, the cached DONE once it finished. *)
type idem_state =
  | Ipending of int * string  (* original id, echoed trace string *)
  | Idone of P.reply  (* always [P.Done _] *)

type tenant = {
  t_name : string;
  mutable t_weight : float;
  mutable t_cap : int;
  mutable t_faults : Fault.t option;
  t_queue : pending Queue.t;
  mutable t_deficit : float;
  t_engines : Engine.t option array;  (* lazy, one per shard *)
  mutable t_next_shard : int;
  t_trace : Trace_ring.t;  (* every job's engine events, newest kept *)
  mutable t_submitted : int;
  mutable t_completed : int;
  mutable t_rejected : int;
  mutable t_timeouts : int;
  mutable t_cancelled : int;
  mutable t_failed : int;
  mutable t_coalesced : int;
  mutable t_busy_vs : float;
  mutable t_slo_ms : float option;  (* latency target; None = deadline-only *)
  t_slo : Obs.Slo.t;
  c_submitted : Obs.Counter.t;
  c_completed : Obs.Counter.t;
  c_rejected : Obs.Counter.t;
  (* telemetry names, built once per tenant rather than per job *)
  n_queue_span : string;
  n_job_span : string;
  n_latency_hist : string;
}

type t = {
  shard_cfgs : MC.t array;
  policy : Engine.policy;
  tune : Tune.Store.t option;
  now : unit -> float;
  quantum : float;
  default_cap : int;
  default_slo_ms : float option;
  slo_objective : float;
  slo_window_s : float;
  tenants : (string, tenant) Hashtbl.t;
  mutable order : string list;  (* DRR visiting order = registration order *)
  mutable draining : bool;
  mutable next_id : int;
  mutable total_completed : int;
  journal : Journal.t option;  (* WAL: accept on admit, done on finish *)
  dedup_cap : int;  (* completed idempotency keys remembered *)
  idem : (string, idem_state) Hashtbl.t;  (* "tenant\x00key" -> state *)
  idem_done : (string * idem_state) Queue.t;
      (* completed keys in completion order, each with the state it set *)
  replays : P.reply Queue.t;  (* cached DONEs owed to retried clients *)
  buffers : Matrix.buf array;
      (* the dense jobs' matrices, each grown to the largest job yet *)
}

let default_dedup_cap = 512
(* Task events kept per tenant, as many as Obs.Decision's ring keeps
   placement records: at 64 bytes each, 256 KiB per tenant. *)
let trace_cap = 4096

(* A DGEMM job takes slots 0, 1, 2 (A, B, C), a Cholesky job 0 and 1
   (its source M and the matrix it factors); see service.mli. *)
let buffer_slots = 3
let max_buffer_bytes = buffer_slots * P.max_n * P.max_n * 8

let c_buffer_alloc =
  Obs.Counter.make ~help:"job-buffer growth allocations" "serve_buffer_alloc"

let create ?(policy = Engine.Heft) ?(shards = 2) ?(queue_cap = 16)
    ?(quantum = 1e6) ?tune ?(now = Unix.gettimeofday) ?slo_ms
    ?(slo_objective = 0.99) ?(slo_window_s = 300.0) ?journal
    ?(dedup_cap = default_dedup_cap) cfg =
  if queue_cap < 1 then invalid_arg "Service.create: queue_cap must be >= 1";
  if quantum <= 0.0 then invalid_arg "Service.create: quantum must be > 0";
  if dedup_cap < 1 then invalid_arg "Service.create: dedup_cap must be >= 1";
  (match slo_ms with
  | Some m when m <= 0.0 -> invalid_arg "Service.create: slo_ms must be > 0"
  | _ -> ());
  {
    shard_cfgs = Shard.split cfg ~shards;
    policy;
    tune;
    now;
    quantum;
    default_cap = queue_cap;
    default_slo_ms = slo_ms;
    slo_objective;
    slo_window_s;
    tenants = Hashtbl.create 8;
    order = [];
    draining = false;
    next_id = 0;
    total_completed = 0;
    journal;
    dedup_cap;
    idem = Hashtbl.create 64;
    idem_done = Queue.create ();
    replays = Queue.create ();
    buffers = Array.init buffer_slots (fun _ -> Matrix.alloc_buf 0);
  }

(* keys are protocol-validated to [A-Za-z0-9._:-], so NUL cannot occur
   in either half and the join is unambiguous *)
let idem_key tenant k = tenant ^ "\x00" ^ k

let idem_complete t tenant_name k reply =
  let key = idem_key tenant_name k in
  let state = Idone reply in
  Hashtbl.replace t.idem key state;
  Queue.add (key, state) t.idem_done;
  while Queue.length t.idem_done > t.dedup_cap do
    let old, old_state = Queue.pop t.idem_done in
    (* evict only the completion this entry recorded: a pending entry,
       or a newer completion of the same key, stays.  So the window
       holds exactly the keys whose newest completion is among the last
       [dedup_cap], however long the history replayed into it. *)
    match Hashtbl.find_opt t.idem old with
    | Some cur when cur == old_state -> Hashtbl.remove t.idem old
    | _ -> ()
  done

let shard_configs t = t.shard_cfgs

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
      let c suffix =
        Obs.Counter.make
          ~help:(Printf.sprintf "task service: %s jobs of tenant %s" suffix name)
          (Printf.sprintf "serve_%s_%s" suffix name)
      in
      let ten =
        {
          t_name = name;
          t_weight = 1.0;
          t_cap = t.default_cap;
          t_faults = None;
          t_queue = Queue.create ();
          t_deficit = 0.0;
          t_engines = Array.make (Array.length t.shard_cfgs) None;
          t_next_shard = 0;
          t_trace = Trace_ring.create ~cap:trace_cap;
          t_submitted = 0;
          t_completed = 0;
          t_rejected = 0;
          t_timeouts = 0;
          t_cancelled = 0;
          t_failed = 0;
          t_coalesced = 0;
          t_busy_vs = 0.0;
          t_slo_ms = t.default_slo_ms;
          t_slo =
            Obs.Slo.get_or_make ~objective:t.slo_objective
              ~window_s:t.slo_window_s
              ("serve:" ^ name);
          c_submitted = c "submitted";
          c_completed = c "completed";
          c_rejected = c "rejected";
          n_queue_span = "queue:" ^ name;
          n_job_span = "job:" ^ name;
          n_latency_hist = "serve_latency_s_" ^ name;
        }
      in
      Hashtbl.add t.tenants name ten;
      t.order <- t.order @ [ name ];
      ten

let configure_tenant t ~name ?weight ?queue_cap ?faults ?slo_ms () =
  let ten = tenant t name in
  Option.iter
    (fun w ->
      if w <= 0.0 then
        invalid_arg "Service.configure_tenant: weight must be > 0";
      ten.t_weight <- w)
    weight;
  Option.iter
    (fun c ->
      if c < 1 then
        invalid_arg "Service.configure_tenant: queue_cap must be >= 1";
      ten.t_cap <- c)
    queue_cap;
  Option.iter
    (fun m ->
      if m <= 0.0 then
        invalid_arg "Service.configure_tenant: slo_ms must be > 0";
      ten.t_slo_ms <- Some m)
    slo_ms;
  match faults with None -> () | Some f -> ten.t_faults <- Some f

(* --- job execution ----------------------------------------------------- *)

let job_tasks = function
  | P.Dgemm { tiles; _ } -> tiles * tiles
  | P.Cholesky { tiles = t; _ } -> t + (t * (t - 1)) + (t * (t - 1) * (t - 2) / 6)
  | P.Graph { width; depth; _ } -> width * depth

(* A tenant's fault model applies to each of its shard engines, but a
   timed event naming a PU outside the shard would be rejected by
   Engine.create — scope the event list down to the shard's workers. *)
let faults_for_shard faults (cfg : MC.t) =
  match faults with
  | None -> None
  | Some f ->
      let names =
        Array.to_list cfg.MC.workers |> List.map (fun w -> w.MC.w_name)
      in
      let keep = function
        | Fault.Crash { pu; _ } | Fault.Slowdown { pu; _ }
        | Fault.Recover { pu; _ } ->
            List.mem pu names
      in
      Some { f with Fault.events = List.filter keep f.Fault.events }

let engine_for t ten shard =
  match ten.t_engines.(shard) with
  | Some e -> e
  | None ->
      let cfg = t.shard_cfgs.(shard) in
      let e =
        Engine.create ~policy:t.policy
          ?faults:(faults_for_shard ten.t_faults cfg)
          ?tune:t.tune
          ~label:(Printf.sprintf "%s/shard%d" ten.t_name shard)
          cfg
      in
      ten.t_engines.(shard) <- Some e;
      e

let hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* Input synthesis gets its own span on the job's flow, so a trace
   tells it apart from the engine's own overhead. *)
let synth f =
  let sp = Obs.Span.start () in
  let x = f () in
  Obs.Span.record ~cat:"serve" ~name:"synth"
    ~flow:(Obs.Trace_ctx.current_flow ()) sp;
  x

(* Slot [i] as an [n x n] matrix of exactly [n * n] elements
   (checksums and view checks read the buffer's length), its contents
   unspecified: every job overwrites what it reads. *)
let job_matrix t i n =
  if BA1.dim t.buffers.(i) < n * n then begin
    t.buffers.(i) <- Matrix.alloc_buf (n * n);
    Obs.Counter.incr c_buffer_alloc
  end;
  { Matrix.rows = n; cols = n; data = BA1.sub t.buffers.(i) 0 (n * n) }

let buffer_bytes t =
  Array.fold_left (fun acc b -> acc + (8 * BA1.dim b)) 0 t.buffers

let fill_buffers t x = Array.iter (fun b -> BA1.fill b x) t.buffers

let execute t ten shard job =
  let e = engine_for t ten shard in
  (* From a clock origin of 0, so makespan_s is a function of the job
     alone, not of the engine's history. *)
  Engine.rebase e;
  let t0 = Engine.elapsed e in
  let checksum =
    match job with
    | P.Dgemm { n; tiles; seed } ->
        let a = job_matrix t 0 n and b = job_matrix t 1 n in
        let c = job_matrix t 2 n in
        synth (fun () ->
            Matrix.fill_random ~seed a;
            Matrix.fill_random ~seed:(seed + 1) b;
            BA1.fill c.data 0.0);
        ignore (Taskrt.Tiled_dgemm.run_on ~tiles e ~a ~b ~c);
        hex (Matrix.checksum c)
    | P.Cholesky { n; tiles; seed } ->
        let src = job_matrix t 0 n and a = job_matrix t 1 n in
        synth (fun () -> Lapack.random_spd_lower ~seed ~src a);
        ignore (Taskrt.Tiled_cholesky.run_on ~tiles e a);
        hex (Matrix.checksum a)
    | P.Graph { width; depth; task_flops } ->
        let archs =
          Array.to_list t.shard_cfgs.(shard).MC.workers
          |> List.map (fun w -> w.MC.w_arch)
          |> List.sort_uniq compare
        in
        let cl = Taskrt.Codelet.noop ~name:"stage" ~flops:task_flops ~archs in
        let prev = Array.make width (-1) in
        for _d = 0 to depth - 1 do
          for w = 0 to width - 1 do
            let id = Engine.submit_id e cl [] in
            if prev.(w) >= 0 then
              Engine.declare_dep e ~task:id ~depends_on:prev.(w);
            prev.(w) <- id
          done
        done;
        ignore (Engine.wait_all e);
        hex (float_of_int (width * depth) *. task_flops)
  in
  let makespan_s = Engine.elapsed e -. t0 in
  ten.t_busy_vs <- ten.t_busy_vs +. makespan_s;
  P.Jok
    { makespan_s; checksum; tasks = job_tasks job; coalesced = false; shard }

(* The job's engine events move to the tenant's ring whatever the
   outcome, so the engine holds none between jobs. *)
let run_job t ten job =
  let shard = ten.t_next_shard in
  ten.t_next_shard <- (shard + 1) mod Array.length t.shard_cfgs;
  let status, reset =
    try (execute t ten shard job, false) with
    | Engine.Stuck st -> (P.Jfailed (Engine.stuck_to_string st), true)
    | Out_of_memory ->
        (* admission caps make this unlikely, but an allocation failure
           must fail the one job, not the daemon *)
        (P.Jfailed "out of memory", true)
    | Stack_overflow -> (P.Jfailed "stack overflow", true)
    | Lapack.Not_positive_definite i ->
        let msg = Printf.sprintf "matrix not positive definite (minor %d)" i in
        (P.Jfailed msg, false)
    | Invalid_argument m -> (P.Jfailed m, false)
  in
  Option.iter
    (fun e -> Trace_ring.add ten.t_trace ~shard (Engine.take_events e))
    ten.t_engines.(shard);
  (* the engine may still hold unfinishable tasks or half-built state;
     restart the shard executor rather than poisoning every later job
     on it *)
  if reset then ten.t_engines.(shard) <- None;
  status

(* --- admission --------------------------------------------------------- *)

let admit t name ?deadline_ms ?idem ?trace job =
  let ten = tenant t name in
  let queue = Queue.length ten.t_queue in
  if queue >= ten.t_cap then begin
    ten.t_rejected <- ten.t_rejected + 1;
    Obs.Counter.incr ten.c_rejected;
    (* a deterministic hint: one queue-drain's worth of patience *)
    P.Overloaded
      {
        tenant = name;
        queue;
        cap = ten.t_cap;
        retry_ms = 50.0 *. float_of_int queue;
      }
  end
  else begin
    t.next_id <- t.next_id + 1;
    (* Adopt the client's trace context when it parses; mint a fresh
       one otherwise so every job is traceable.  The echoed string is
       the client's verbatim when supplied (correlation must survive
       canonicalization differences). *)
    let ctx, ctx_str =
      match Option.bind trace Obs.Trace_ctx.of_string with
      | Some c -> (c, Option.get trace)
      | None ->
          let c = Obs.Trace_ctx.make () in
          (c, Obs.Trace_ctx.to_string c)
    in
    let p =
      {
        p_id = t.next_id;
        p_job = job;
        p_submitted = t.now ();
        p_deadline_ms = deadline_ms;
        p_cost = P.job_cost job;
        p_idem = idem;
        p_trace = ctx;
        p_trace_str = ctx_str;
        p_admit_ns = Obs.Span.start ();
      }
    in
    Queue.add p ten.t_queue;
    ten.t_submitted <- ten.t_submitted + 1;
    Obs.Counter.incr ten.c_submitted;
    (* WAL before the reply leaves: once the client sees ACCEPTED the
       job must survive a crash *)
    (match t.journal with
    | Some j ->
        Journal.append j
          (Journal.Accept
             {
               a_id = p.p_id;
               a_tenant = name;
               a_job = job;
               a_deadline_ms = deadline_ms;
               a_idem = idem;
               a_trace = Some ctx_str;
             })
    | None -> ());
    (match idem with
    | Some k ->
        Hashtbl.replace t.idem (idem_key name k) (Ipending (p.p_id, ctx_str))
    | None -> ());
    P.Accepted
      {
        id = p.p_id;
        credit = ten.t_cap - Queue.length ten.t_queue;
        trace = Some ctx_str;
      }
  end

let tenant_credit ten = max 0 (ten.t_cap - Queue.length ten.t_queue)

let submit t ~tenant:name ?deadline_ms ?idem ?trace job =
  match idem with
  | Some k when not (P.valid_idem k) ->
      P.Error
        {
          code = P.Bad_request;
          reason =
            Printf.sprintf "idem must be 1-%d characters from [A-Za-z0-9._:-]"
              P.max_idem_len;
        }
  | _ -> (
      (* Dedup before the draining check: a retry of work the daemon
         already owns should replay its outcome even mid-drain. *)
      match
        Option.bind idem (fun k -> Hashtbl.find_opt t.idem (idem_key name k))
      with
      | Some (Idone (P.Done { id; trace = tr; _ } as cached)) ->
          (* replay discipline: answer the retry with ACCEPTED carrying
             the original id, then re-deliver the cached DONE as the
             usual asynchronous frame (see [take_replays]) — a
             retrying client needs no special read path *)
          Queue.add cached t.replays;
          P.Accepted { id; credit = tenant_credit (tenant t name); trace = tr }
      | Some (Idone _) | Some (Ipending _) as hit ->
          let id, tr =
            match hit with
            | Some (Ipending (id, tr)) -> (id, Some tr)
            | _ -> (0, None)
          in
          P.Accepted { id; credit = tenant_credit (tenant t name); trace = tr }
      | None ->
          if t.draining then P.Draining
          else (
            match P.validate_job job with
            | Error reason ->
                (* refuse before touching any queue: an unbounded job
                   would OOM the daemon or stall the DRR for every
                   tenant *)
                P.Error { code = P.Bad_request; reason }
            | Ok () -> admit t name ?deadline_ms ?idem ?trace job))

let take_replays t =
  let out = List.of_seq (Queue.to_seq t.replays) in
  Queue.clear t.replays;
  out

(* --- dispatch: deficit round robin ------------------------------------- *)

let latency_ms t p = (t.now () -. p.p_submitted) *. 1000.0

let expired t p =
  match p.p_deadline_ms with
  | None -> false
  | Some d -> latency_ms t p > d

let finish t ten emit p status =
  let lat = latency_ms t p in
  (match status with
  | P.Jok { coalesced; _ } ->
      ten.t_completed <- ten.t_completed + 1;
      if coalesced then ten.t_coalesced <- ten.t_coalesced + 1;
      t.total_completed <- t.total_completed + 1;
      Obs.Counter.incr ten.c_completed;
      Obs.Histogram.observe_named ten.n_latency_hist (lat /. 1000.0)
  | P.Jfailed _ ->
      ten.t_failed <- ten.t_failed + 1;
      t.total_completed <- t.total_completed + 1
  | P.Jtimeout -> ten.t_timeouts <- ten.t_timeouts + 1
  | P.Jcancelled -> ten.t_cancelled <- ten.t_cancelled + 1);
  (* SLO: a job is good iff it finished Ok within the tenant's latency
     target (no target = any Ok counts); failures, timeouts, and
     drain cancellations all burn budget. *)
  let good =
    match status with
    | P.Jok _ -> (
        match ten.t_slo_ms with None -> true | Some target -> lat <= target)
    | P.Jfailed _ | P.Jtimeout | P.Jcancelled -> false
  in
  Obs.Slo.observe ten.t_slo ~now:(t.now ()) ~good;
  let reply =
    P.Done
      { id = p.p_id; tenant = ten.t_name; latency_ms = lat; status;
        trace = Some p.p_trace_str }
  in
  (* journal the completion before the reply leaves, so a crash after
     DONE can never re-run the job on replay *)
  (match t.journal with
  | Some j ->
      Journal.append j (Journal.Complete { c_idem = p.p_idem; c_reply = reply })
  | None -> ());
  (match p.p_idem with
  | Some k -> idem_complete t ten.t_name k reply
  | None -> ());
  emit reply

(* Complete every queued job identical to [job] with the result it
   just produced: same-tenant coalescing (a cross-tenant match would
   leak one tenant's fault environment into another's results). *)
let coalesce t ten emit job status =
  match status with
  | P.Jok { makespan_s; checksum; tasks; coalesced = _; shard } ->
      let matched = ref [] and keep = Queue.create () in
      Queue.iter
        (fun p ->
          if p.p_job = job then matched := p :: !matched else Queue.add p keep)
        ten.t_queue;
      Queue.clear ten.t_queue;
      Queue.transfer keep ten.t_queue;
      List.iter
        (fun p ->
          finish t ten emit p
            (P.Jok { makespan_s; checksum; tasks; coalesced = true; shard }))
        (List.rev !matched)
  | _ -> ()

(* One DRR pass: every tenant's deficit grows by [quantum * weight];
   it runs queued jobs while the deficit covers their cost.  Returns
   whether any job reached a terminal state this pass; a pass with no
   progress means no head job is affordable yet, and the caller
   fast-forwards the credit accrual instead of spinning. *)
let dispatch_round t emit =
  let progressed = ref false in
  List.iter
    (fun name ->
      let ten = Hashtbl.find t.tenants name in
      if not (Queue.is_empty ten.t_queue) then begin
        ten.t_deficit <- ten.t_deficit +. (t.quantum *. ten.t_weight);
        let continue_ = ref true in
        while !continue_ && not (Queue.is_empty ten.t_queue) do
          let p = Queue.peek ten.t_queue in
          if expired t p then begin
            ignore (Queue.pop ten.t_queue);
            finish t ten emit p P.Jtimeout;
            progressed := true
          end
          else if p.p_cost <= ten.t_deficit then begin
            ignore (Queue.pop ten.t_queue);
            ten.t_deficit <- ten.t_deficit -. p.p_cost;
            (* queue span: admission -> dispatch, on the job's flow;
               its arguments are formatted only while telemetry is on *)
            let flow = Obs.Trace_ctx.flow_id p.p_trace in
            let args =
              if Obs.Config.on () then
                Printf.sprintf "id=%d trace=%s" p.p_id p.p_trace_str
              else ""
            in
            Obs.Span.record ~cat:"serve" ~name:ten.n_queue_span ~args
              ~flow p.p_admit_ns;
            (* run under the ambient context so engine/kernel spans
               below pick up the same flow without plumbing *)
            let sp = Obs.Span.start () in
            let status =
              Obs.Trace_ctx.with_current p.p_trace (fun () ->
                  run_job t ten p.p_job)
            in
            Obs.Span.record ~cat:"serve" ~name:ten.n_job_span ~args
              ~flow sp;
            finish t ten emit p status;
            coalesce t ten emit p.p_job status;
            progressed := true
          end
          else continue_ := false
        done;
        if Queue.is_empty ten.t_queue then ten.t_deficit <- 0.0
      end)
    t.order;
  !progressed

let has_work t =
  Hashtbl.fold (fun _ ten acc -> acc || not (Queue.is_empty ten.t_queue))
    t.tenants false

(* A pass that dispatched nothing means every backlogged tenant's
   head job still out-costs its deficit.  Credit accrues one quantum
   per pass, so waiting it out takes cost / quantum passes — and once
   the gap exceeds the float ulp at the deficit's magnitude, adding a
   quantum stops changing it at all and no number of passes helps.
   Instead, grant every backlogged tenant the [k] whole passes of
   credit after which the nearest head job becomes affordable: the
   same deficits plain DRR would reach, in O(tenants) time, with a
   direct top-up as the precision backstop. *)
let fast_forward t =
  let best = ref None in
  List.iter
    (fun name ->
      let ten = Hashtbl.find t.tenants name in
      match Queue.peek_opt ten.t_queue with
      | None -> ()
      | Some p ->
          let rounds =
            Float.max 1.0
              (Float.ceil
                 ((p.p_cost -. ten.t_deficit) /. (t.quantum *. ten.t_weight)))
          in
          (match !best with
          | Some (r0, _) when r0 <= rounds -> ()
          | _ -> best := Some (rounds, ten)))
    t.order;
  match !best with
  | None -> ()
  | Some (k, lead) ->
      List.iter
        (fun name ->
          let ten = Hashtbl.find t.tenants name in
          if not (Queue.is_empty ten.t_queue) then begin
            let d = ten.t_deficit +. (k *. t.quantum *. ten.t_weight) in
            if Float.is_finite d then ten.t_deficit <- d
          end)
        t.order;
      (* progress guarantee even when the accrual rounds to nothing *)
      (match Queue.peek_opt lead.t_queue with
      | Some p when lead.t_deficit < p.p_cost -> lead.t_deficit <- p.p_cost
      | _ -> ())

let run_until_idle t =
  let out = ref [] in
  let emit r = out := r :: !out in
  while has_work t do
    if not (dispatch_round t emit) then fast_forward t
  done;
  List.rev !out

let completed t = t.total_completed
let is_draining t = t.draining

(* --- crash recovery ----------------------------------------------------- *)

(* Re-enqueue journaled-but-unfinished jobs.  Deliberately NOT via
   [admit]: records are not re-appended to the journal (they are
   already in it), and the tenant cap is not re-checked (every job
   here was admitted under the cap before the crash; dropping one now
   would break the ACCEPTED-implies-runs contract).  Deadlines rebase
   on the restore clock — the original submission instant died with
   the old process, and cancelling a recovered job for time spent
   crashed would punish the client for the daemon's failure. *)
let restore t (r : Journal.recovery) =
  t.next_id <- max t.next_id r.Journal.r_next_id;
  List.iter
    (fun (tn, k, reply) ->
      match reply with P.Done _ -> idem_complete t tn k reply | _ -> ())
    r.Journal.r_completed;
  List.iter
    (fun (a : Journal.accepted) ->
      let ten = tenant t a.Journal.a_tenant in
      let ctx, ctx_str =
        match Option.bind a.Journal.a_trace Obs.Trace_ctx.of_string with
        | Some c -> (c, Option.get a.Journal.a_trace)
        | None ->
            let c = Obs.Trace_ctx.make () in
            (c, Obs.Trace_ctx.to_string c)
      in
      let p =
        {
          p_id = a.Journal.a_id;
          p_job = a.Journal.a_job;
          p_submitted = t.now ();
          p_deadline_ms = a.Journal.a_deadline_ms;
          p_cost = P.job_cost a.Journal.a_job;
          p_idem = a.Journal.a_idem;
          p_trace = ctx;
          p_trace_str = ctx_str;
          p_admit_ns = Obs.Span.start ();
        }
      in
      Queue.add p ten.t_queue;
      ten.t_submitted <- ten.t_submitted + 1;
      Obs.Counter.incr ten.c_submitted;
      match a.Journal.a_idem with
      | Some k ->
          Hashtbl.replace t.idem
            (idem_key a.Journal.a_tenant k)
            (Ipending (a.Journal.a_id, ctx_str))
      | None -> ())
    r.Journal.r_pending

(* --- drain ------------------------------------------------------------- *)

let drain t ?budget_ms () =
  t.draining <- true;
  let start = t.now () in
  let before = t.total_completed in
  let out = ref [] in
  let emit r = out := r :: !out in
  let within_budget () =
    match budget_ms with
    | None -> true
    | Some b -> (t.now () -. start) *. 1000.0 < b
  in
  while has_work t && within_budget () do
    if not (dispatch_round t emit) then fast_forward t
  done;
  let cancelled = ref 0 in
  List.iter
    (fun name ->
      let ten = Hashtbl.find t.tenants name in
      while not (Queue.is_empty ten.t_queue) do
        let p = Queue.pop ten.t_queue in
        incr cancelled;
        finish t ten emit p P.Jcancelled
      done)
    t.order;
  ( List.rev !out,
    P.Drained
      { completed = t.total_completed - before; cancelled = !cancelled } )

(* --- introspection ----------------------------------------------------- *)

let tenant_engines ten = Array.to_list ten.t_engines |> List.filter_map Fun.id

let tenant_quarantined ten =
  tenant_engines ten
  |> List.concat_map Engine.quarantined_workers
  |> List.sort_uniq compare

let stats t =
  let now = t.now () in
  List.map
    (fun name ->
      let ten = Hashtbl.find t.tenants name in
      {
        P.tr_tenant = name;
        tr_submitted = ten.t_submitted;
        tr_completed = ten.t_completed;
        tr_rejected = ten.t_rejected;
        tr_timeouts = ten.t_timeouts;
        tr_cancelled = ten.t_cancelled;
        tr_failed = ten.t_failed;
        tr_coalesced = ten.t_coalesced;
        tr_queue = Queue.length ten.t_queue;
        tr_cap = ten.t_cap;
        tr_weight = ten.t_weight;
        tr_busy_vs = ten.t_busy_vs;
        tr_quarantined = tenant_quarantined ten;
        tr_slo_ms = ten.t_slo_ms;
        tr_slo_good = fst (Obs.Slo.window_counts ~now ten.t_slo);
        tr_slo_bad = snd (Obs.Slo.window_counts ~now ten.t_slo);
        tr_burn_rate = Obs.Slo.burn_rate ~now ten.t_slo;
      })
    t.order

let quarantined t ~tenant:name =
  match Hashtbl.find_opt t.tenants name with
  | None -> []
  | Some ten -> tenant_quarantined ten

let engines t ~tenant:name =
  match Hashtbl.find_opt t.tenants name with
  | None -> []
  | Some ten -> tenant_engines ten

let tenant_traces t =
  List.map
    (fun name ->
      let events, faults =
        Trace_ring.contents (Hashtbl.find t.tenants name).t_trace
      in
      (name, events, faults))
    t.order

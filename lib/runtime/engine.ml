type policy = Eager | Heft | Locality_ws | Random_place

let policy_to_string = function
  | Eager -> "eager"
  | Heft -> "heft"
  | Locality_ws -> "ws"
  | Random_place -> "random"

let policy_of_string = function
  | "eager" -> Some Eager
  | "heft" | "dmda" -> Some Heft
  | "ws" | "locality" -> Some Locality_ws
  | "random" -> Some Random_place
  | _ -> None

(* Telemetry (no-ops while Obs.Config is off).  The engine runs on a
   single domain, so its spans share one trace lane; kernel-execution
   spans carry the mapped PU and LogicGroup from the PDL descriptor
   plus the virtual timestamp as args, tying the wall-clock timeline
   back to the simulated one. *)
let c_submit = Obs.Counter.make ~help:"tasks submitted" "eng_submitted"

let c_ready =
  Obs.Counter.make ~help:"tasks whose dependencies cleared" "eng_ready"

let c_dispatch =
  Obs.Counter.make ~help:"dispatch decisions taken" "eng_dispatched"

let c_steal = Obs.Counter.make ~help:"successful work steals" "eng_steals"

let c_exec =
  Obs.Counter.make ~help:"kernel implementations run on the host"
    "eng_kernels_run"

let c_fault =
  Obs.Counter.make ~help:"transient task failures injected"
    "eng_faults_injected"

let c_retry = Obs.Counter.make ~help:"task retries scheduled" "eng_retries"

let c_quarantine =
  Obs.Counter.make ~help:"workers quarantined after repeated failures"
    "eng_quarantines"

let c_failover =
  Obs.Counter.make ~help:"stranded tasks re-targeted via failover"
    "eng_failovers"

(* Handle, task and node ids key the engine's tables: an int table
   hashes and compares them directly, where [Hashtbl]'s polymorphic
   functions go through [caml_hash] and [compare_val] on every
   lookup. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let rec mem_int x = function [] -> false | y :: l -> Int.equal x y || mem_int x l

type task_state = Pending | Ready | Running | Finished | Failed

let task_state_to_string = function
  | Pending -> "pending"
  | Ready -> "ready"
  | Running -> "running"
  | Finished -> "finished"
  | Failed -> "failed"

type task = {
  t_id : int;
  mutable codelet : Codelet.t;  (** mutable: failover swaps the variant set *)
  buffers : (Data.handle * Codelet.access) list;
  priced_only : bool;
      (** every handle is virtual: the task is timed, its kernel never runs *)
  mutable t_group : string option;  (** mutable: failover may lift it *)
  mutable deps_remaining : int;
  mutable dependents : task list;
  mutable state : task_state;
  mutable attempt : int;  (** attempts started; stale completions compare it *)
  mutable excluded : int list;  (** worker ids this task must avoid *)
  mutable failovers : int;
  mutable dispatched_once : bool;
  mutable d_token : int;
      (** completion token of the latest Obs.Decision record for this
          task; -1 when none (non-HEFT policy or telemetry off) *)
}

type health = Healthy | Suspect | Quarantined

let health_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"

(* Per-codelet counters for the dmda-style estimate source: how many
   HEFT placements used a learned model, fell back to declared
   gflops, or were epsilon-greedy exploration picks. *)
type cal_counts = {
  mutable cc_hits : int;
  mutable cc_static : int;
  mutable cc_explore : int;
}

type cal_stat = {
  cs_codelet : string;
  cs_model_hits : int;
  cs_static_fallbacks : int;
  cs_explorations : int;
}

type worker_state = {
  w : Machine_config.worker;
  queue : task Deque.t;  (** per-worker deque (heft / ws / random) *)
  mutable idle : bool;
  mutable online : bool;  (** dynamic resources: offline workers take no tasks *)
  mutable gflops : float;  (** current throughput (DVFS may change it) *)
  mutable true_gflops : float;
      (** throughput tasks are actually charged at; differs from
          [gflops] when [?true_gflops] models a wrong descriptor *)
  mutable free_estimate : float;  (** HEFT bookkeeping *)
  mutable busy_s : float;
  mutable tasks_run : int;
  mutable online_s : float;  (** accumulated online time (closed spans) *)
  mutable online_since : float;  (** start of the current online span *)
  mutable health : health;
  mutable failures : int;  (** transient failures attributed to this worker *)
  mutable crashed : bool;  (** permanent: recover=PU@T is the only way back *)
  mutable running : task option;
}

type trace_event = {
  tr_task : int;
  tr_codelet : string;
  tr_worker : string;
  tr_start : float;
  tr_compute_start : float;
  tr_end : float;
  tr_bytes_in : float;
}

type fault_event = {
  f_time : float;  (** virtual time *)
  f_kind : string;
      (** transient | retry | abandon | crash | reassign | suspect
          | quarantine | readmit | slowdown | recover | failover *)
  f_worker : string;  (** [""] when no worker is involved *)
  f_task : int;  (** [-1] when no task is involved *)
  f_detail : string;
}

type stranded = {
  sd_id : int;
  sd_codelet : Codelet.t;
  sd_group : string option;
  sd_attempt : int;
}

type t = {
  sim : Sim.t;
  mutable epoch : float;
      (** virtual time of the sim clock's origin; exported times
          (trace, fault log, {!now}) add it *)
  cfg : Machine_config.t;
  pol : policy;
  label : string;  (** decision-log tag, e.g. "tenant/shard0"; "" standalone *)
  domain_pool : Kernels.Domain_pool.t option;
      (** real multicore substrate handed to kernel implementations *)
  workers : worker_state array;
  link_resources : (Sim.resource * Machine_config.link) Itbl.t;
  pool : task Deque.t;  (** Eager's shared ready-queue *)
  last_writer : task Itbl.t;
  readers : task list Itbl.t;
  task_index : task Itbl.t;  (** unfinished tasks by id *)
  faults : Fault.t option;
  tune : Tune.Store.t option;  (** learned cost models (dmda-style) *)
  explore_eps : float;  (** epsilon-greedy exploration rate under Heft *)
  cal : (string, cal_counts) Hashtbl.t;  (** per-codelet estimate sources *)
  retry_budget : int;
  backoff_s : float;
  quarantine_after : int;
  readmit_after : float option;
  mutable stranded_handler : (stranded -> (Codelet.t * string option) option) option;
  mutable next_task : int;
  mutable live_tasks : int;
  mutable total_tasks : int;
  mutable bytes_transferred : float;
  mutable n_injected : int;
  mutable n_retries : int;
  mutable n_reassigned : int;
  mutable n_failovers : int;
  mutable n_abandoned : int;
  mutable fault_events : fault_event list;
  mutable events : trace_event list;
  mutable rng : int;
  eft : float array;
      (** HEFT's last placement loop, by worker index: each eligible
          worker's EFT and estimate; the decision log reads these *)
  est : float array;
  from_model : bool array;
  eligible : bool array;
}

let policy t = t.pol
let machine t = t.cfg
let now t = t.epoch +. Sim.now t.sim
let elapsed t = Sim.now t.sim

(* With no task in flight every worker is free now, whatever HEFT had
   estimated: an estimate that ran past the last completion (by an
   ulp of rounding, say) is dropped, as a fresh engine has none. *)
let rebase t =
  let by = Sim.now t.sim in
  if t.live_tasks = 0 && by <> 0.0 then begin
    t.epoch <- t.epoch +. by;
    Sim.rebase t.sim by;
    Itbl.iter (fun _ (res, _) -> Sim.rebase_resource res by) t.link_resources;
    Array.iter
      (fun ws ->
        ws.free_estimate <- 0.0;
        ws.online_since <- ws.online_since -. by)
      t.workers
  end

let tune_store t = t.tune

let calibration t =
  Hashtbl.fold
    (fun name c acc ->
      {
        cs_codelet = name;
        cs_model_hits = c.cc_hits;
        cs_static_fallbacks = c.cc_static;
        cs_explorations = c.cc_explore;
      }
      :: acc)
    t.cal []
  |> List.sort (fun a b -> compare a.cs_codelet b.cs_codelet)

let next_random t bound =
  (* xorshift-ish LCG, seeded with 1 at create: deterministic *)
  t.rng <- ((t.rng * 1103515245) + 12345) land 0x3FFFFFFF;
  t.rng mod bound

(* --- eligibility ---------------------------------------------------- *)

(* Can [ws]'s architecture run the task, within its group? *)
let capable ws (task : task) =
  Codelet.supports task.codelet ws.w.Machine_config.w_arch
  &&
  match task.t_group with
  | None -> true
  | Some g -> List.exists (String.equal g) ws.w.Machine_config.w_groups

let worker_eligible ws (task : task) =
  ws.online
  && (not (mem_int ws.w.Machine_config.w_id task.excluded))
  && capable ws task

let eligible_workers t task =
  Array.to_list t.workers |> List.filter (fun ws -> worker_eligible ws task)

(* Submission-time capability check ignores the online flag: a worker
   may come back before the task becomes ready. *)
let statically_eligible t task =
  Array.exists (fun ws -> capable ws task) t.workers

(* Retry-time variant of the above: is there any capable worker left
   once exclusions and permanent crashes are respected?  (Temporarily
   offline or quarantined-with-readmission workers count: they may
   come back.) *)
let has_unexcluded_candidate t (task : task) =
  Array.exists
    (fun ws ->
      (not ws.crashed)
      && (not (mem_int ws.w.Machine_config.w_id task.excluded))
      && capable ws task)
    t.workers

(* --- fault bookkeeping ----------------------------------------------- *)

let record_fault t ~kind ?(worker = "") ?(task = -1) detail =
  t.fault_events <-
    { f_time = now t; f_kind = kind; f_worker = worker; f_task = task;
      f_detail = detail }
    :: t.fault_events;
  if Obs.Config.on () then
    Obs.Span.instant ~cat:"fault" ~name:kind
      ~args:
        (Printf.sprintf "%s%svt=%.6f%s%s"
           (if worker = "" then "" else worker ^ " ")
           (if task >= 0 then Printf.sprintf "t%d " task else "")
           (now t)
           (if detail = "" then "" else " ")
           detail)
      ()

let fault_roll t (task : task) ~attempt =
  match t.faults with
  | None -> false
  | Some f ->
      t.n_injected < f.Fault.max_transient
      && Fault.roll f ~task:task.t_id ~attempt

(* Exclude the failing worker from the task's next placement — unless
   that would strand the task with no capable worker at all, in which
   case the exclusion list is cleared and the task may retry anywhere
   (the worker might only be transiently unlucky). *)
let exclude_worker t (task : task) ws =
  task.excluded <- ws.w.Machine_config.w_id :: task.excluded;
  if not (has_unexcluded_candidate t task) then task.excluded <- []

let apply_gflops t ws gflops =
  (* Keep the HEFT availability estimate consistent with the new
     rate: work still in flight finishes proportionally sooner (or
     later) than priced at the old speed. *)
  let now = Sim.now t.sim in
  if ws.free_estimate > now then
    ws.free_estimate <- now +. ((ws.free_estimate -. now) *. ws.gflops /. gflops);
  (* DVFS scales the real machine too: the charged speed keeps its
     ratio to the declared one. *)
  ws.true_gflops <- ws.true_gflops *. (gflops /. ws.gflops);
  ws.gflops <- gflops

(* --- time modeling --------------------------------------------------- *)

(* Runtime cost charged per task before its transfers start: 20 µs.
   The product 20 *. 1e-6 is one ulp below the literal 20e-6, and the
   pinned virtual times (cram tables, example output) carry its bits. *)
let dispatch_overhead_s = 20.0 *. 1e-6

let task_flops (task : task) =
  task.codelet.Codelet.flops (List.map fst task.buffers)

(* Time the task will actually take on this worker (what the
   simulation charges). *)
let compute_time ws (task : task) = task_flops task /. (ws.true_gflops *. 1e9)

let cal_counts_for t (task : task) =
  let name = task.codelet.Codelet.cl_name in
  match Hashtbl.find_opt t.cal name with
  | Some c -> c
  | None ->
      let c = { cc_hits = 0; cc_static = 0; cc_explore = 0 } in
      Hashtbl.replace t.cal name c;
      c

let link_time (l : Machine_config.link) bytes =
  (l.l_latency_us *. 1e-6) +. (bytes /. (l.l_bandwidth_mbps *. 1e6))

(* Moving a handle to node [dst] takes up to two hops from a node
   where it is valid (main memory if it is valid there, else the first
   node listed): that node's link, then [dst]'s; main memory has no
   link.  [link_of] is the hop's link, if any. *)
let src_of (h : Data.handle) =
  if Data.is_valid_at h Data.main_memory then Data.main_memory
  else match Data.valid_nodes h with n :: _ -> n | [] -> Data.main_memory

let link_of t node =
  if node = Data.main_memory then None
  else Itbl.find_opt t.link_resources node

(* When [bytes] starting at [time] are over [node]'s link, as
   [Sim.peek] prices it, without allocating. *)
let[@inline] peek_hop t node time bytes =
  if node = Data.main_memory then time
  else
    match Itbl.find t.link_resources node with
    | exception Not_found -> time
    | res, l -> Float.max time (Sim.busy_until res) +. link_time l bytes

(* Estimated (not booked) time at which the task's inputs can be at
   node [dst], starting from [at]; a loop with a float accumulator, so
   that the placement loop allocates nothing per worker. *)
let estimate_transfers t dst buffers ~at =
  let time = ref at and rest = ref buffers in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | (h, _) :: tl ->
        rest := tl;
        if not (Data.is_valid_at h dst) then begin
          let bytes = Data.bytes h in
          time := peek_hop t dst (peek_hop t (src_of h) !time bytes) bytes
        end
  done;
  !time

(* Booked version: occupies the links, validates each moved handle at
   [dst]; returns (completion time, bytes moved). *)
let book_transfers t dst buffers ~at =
  List.fold_left
    (fun (time, bytes_total) (h, _access) ->
      if Data.is_valid_at h dst then (time, bytes_total)
      else
        match (link_of t (src_of h), link_of t dst) with
        | None, None -> (time, bytes_total)
        | src_link, dst_link ->
            let bytes = Data.bytes h in
            let hop time = function
              | None -> time
              | Some (res, l) ->
                  snd (Sim.acquire res ~at:time ~duration:(link_time l bytes))
            in
            let time = hop (hop time src_link) dst_link in
            Data.add_valid h dst;
            (time, bytes_total +. bytes))
    (at, 0.0) buffers

(* --- scheduling ------------------------------------------------------ *)

let rec worker_kick t ws =
  if ws.idle && ws.online then begin
    match next_task_for t ws with
    | None -> ()
    | Some task -> start_task t ws task
  end

and next_task_for t ws =
  (* Own queue first; then the shared pool (eager); then steal. *)
  match Deque.pop_front ws.queue with
  | Some task -> Some task
  | None -> (
      match take_from_pool t ws with
      | Some task -> Some task
      | None -> if t.pol = Locality_ws then steal t ws else None)

and take_from_pool t ws =
  (* The pool may hold tasks this worker cannot run; take the oldest
     eligible one.  The deque stops at the first hit (O(1) on
     homogeneous machines) instead of rotating the whole queue. *)
  Deque.take_first t.pool ~f:(fun task -> worker_eligible ws task)

and steal t ws =
  (* Steal from the rear of the longest eligible queue. *)
  let victim = ref None in
  Array.iter
    (fun other ->
      if other != ws && Deque.length other.queue > 0 then
        match !victim with
        | Some v when Deque.length v.queue >= Deque.length other.queue -> ()
        | _ -> victim := Some other)
    t.workers;
  match !victim with
  | None -> None
  | Some v -> (
      (* The most recently enqueued eligible task; the victim's queue
         order is untouched otherwise. *)
      match Deque.steal v.queue ~f:(fun task -> worker_eligible ws task) with
      | Some task as stolen ->
          Obs.Counter.incr c_steal;
          if Obs.Config.on () then
            Obs.Span.instant ~cat:"engine" ~name:"steal"
              ~args:
                (Printf.sprintf "t%d %s<-%s vt=%.6f" task.t_id
                   ws.w.Machine_config.w_name v.w.Machine_config.w_name
                   (now t))
              ();
          stolen
      | None -> None)

and start_task t ws task =
  ws.idle <- false;
  task.state <- Running;
  task.attempt <- task.attempt + 1;
  ws.running <- Some task;
  let attempt = task.attempt in
  let dispatched = Sim.now t.sim in
  let after_overhead = dispatched +. dispatch_overhead_s in
  let transfers_done, bytes_in =
    book_transfers t ws.w.Machine_config.w_node task.buffers ~at:after_overhead
  in
  let finish = transfers_done +. compute_time ws task in
  t.bytes_transferred <- t.bytes_transferred +. bytes_in;
  Sim.schedule_at t.sim ~time:finish (fun () ->
      complete_task t ws task ~attempt ~dispatched ~compute_start:transfers_done
        ~bytes_in)

and complete_task t ws task ~attempt ~dispatched ~compute_start ~bytes_in =
  (* A crash mid-run bumps [task.attempt] when reassigning the task,
     so the completion the dead worker had in flight arrives stale
     and is dropped here. *)
  if task.attempt <> attempt || task.state <> Running then ()
  else if fault_roll t task ~attempt then fail_task t ws task ~attempt ~dispatched
  else begin
    let now = Sim.now t.sim in
    ws.running <- None;
    (* Functional execution happens at completion so that writes land
       in dependency order (the sim completes tasks in time order). *)
    if not task.priced_only then begin
      match Codelet.impl_for task.codelet ws.w.Machine_config.w_arch with
      | Some impl ->
          let sp = Obs.Span.start () in
          impl.Codelet.run ?pool:t.domain_pool (List.map fst task.buffers);
          if sp <> 0 then begin
            let t1 = Obs.Clock.now_ns () in
            Obs.Span.record_interval ~cat:"engine"
              ~name:("exec:" ^ task.codelet.Codelet.cl_name)
              ~args:
                (Printf.sprintf "t%d pu=%s group=%s vt=%.6f" task.t_id
                   ws.w.Machine_config.w_name
                   (match task.t_group with Some g -> g | None -> "-")
                   (t.epoch +. now))
              ~flow:(Obs.Trace_ctx.current_flow ())
              sp t1;
            Obs.Histogram.observe_named
              ("exec_" ^ task.codelet.Codelet.cl_name)
              (Obs.Clock.to_s (t1 - sp));
            Obs.Counter.incr c_exec
          end
      | None -> assert false (* eligibility checked at placement *)
    end;
    (* Coherence: writes leave this node with the only valid copy. *)
    List.iter
      (fun (h, access) ->
        match access with
        | Codelet.R -> ()
        | Codelet.W | Codelet.RW -> Data.write_at h ws.w.Machine_config.w_node)
      task.buffers;
    (* Feed the calibration store with the charged compute span — the
       dmda-style measurement loop closes here. *)
    (match t.tune with
    | Some store ->
        Tune.Store.observe store ~codelet:task.codelet.Codelet.cl_name
          ~pu:ws.w.Machine_config.w_pu ~flops:(task_flops task)
          ~seconds:(now -. compute_start)
    | None -> ());
    (* Back-fill the placement decision with queue wait and the
       measured (virtual) compute seconds. *)
    if task.d_token >= 0 then begin
      Obs.Decision.complete task.d_token ~dispatched:(t.epoch +. dispatched)
        ~actual_s:(now -. compute_start);
      task.d_token <- -1
    end;
    task.state <- Finished;
    Itbl.remove t.task_index task.t_id;
    ws.busy_s <- ws.busy_s +. (now -. dispatched);
    ws.tasks_run <- ws.tasks_run + 1;
    t.live_tasks <- t.live_tasks - 1;
    t.events <-
      {
        tr_task = task.t_id;
        tr_codelet = task.codelet.Codelet.cl_name;
        tr_worker = ws.w.Machine_config.w_name;
        tr_start = t.epoch +. dispatched;
        tr_compute_start = t.epoch +. compute_start;
        tr_end = t.epoch +. now;
        tr_bytes_in = bytes_in;
      }
      :: t.events;
    List.iter
      (fun dep ->
        dep.deps_remaining <- dep.deps_remaining - 1;
        if dep.deps_remaining = 0 && dep.state = Pending then begin
          dep.state <- Ready;
          Obs.Counter.incr c_ready;
          dispatch t dep
        end)
      task.dependents;
    ws.idle <- true;
    worker_kick t ws
  end

and fail_task t ws task ~attempt ~dispatched =
  (* A transient fault: the attempt's kernel never ran, so no state
     was corrupted; the time was still spent. *)
  let now = Sim.now t.sim in
  t.n_injected <- t.n_injected + 1;
  Obs.Counter.incr c_fault;
  task.state <- Failed;
  ws.running <- None;
  ws.idle <- true;
  ws.busy_s <- ws.busy_s +. (now -. dispatched);
  record_fault t ~kind:"transient" ~worker:ws.w.Machine_config.w_name
    ~task:task.t_id
    (Printf.sprintf "attempt=%d" attempt);
  note_failure t ws;
  if attempt <= t.retry_budget then begin
    exclude_worker t task ws;
    let backoff = t.backoff_s *. (2.0 ** float_of_int (attempt - 1)) in
    t.n_retries <- t.n_retries + 1;
    Obs.Counter.incr c_retry;
    record_fault t ~kind:"retry" ~task:task.t_id
      (Printf.sprintf "attempt=%d backoff=%g" attempt backoff);
    Sim.schedule t.sim ~delay:backoff (fun () ->
        (* The task may have been rescued by a failover meanwhile. *)
        if task.state = Failed then begin
          task.state <- Ready;
          dispatch t task
        end)
  end
  else begin
    t.n_abandoned <- t.n_abandoned + 1;
    record_fault t ~kind:"abandon" ~task:task.t_id
      (Printf.sprintf "attempts=%d" attempt)
  end;
  if ws.online then worker_kick t ws

and note_failure t ws =
  ws.failures <- ws.failures + 1;
  (match ws.health with
  | Healthy ->
      ws.health <- Suspect;
      record_fault t ~kind:"suspect" ~worker:ws.w.Machine_config.w_name
        (Printf.sprintf "failures=%d" ws.failures)
  | Suspect | Quarantined -> ());
  if
    ws.health <> Quarantined
    && t.quarantine_after > 0
    && ws.failures >= t.quarantine_after
  then quarantine t ws

and quarantine t ws =
  ws.health <- Quarantined;
  Obs.Counter.incr c_quarantine;
  record_fault t ~kind:"quarantine" ~worker:ws.w.Machine_config.w_name
    (Printf.sprintf "failures=%d" ws.failures);
  take_offline t ws;
  rescue_pool t;
  match t.readmit_after with
  | Some d when not ws.crashed ->
      Sim.schedule t.sim ~delay:d (fun () -> readmit t ws)
  | _ -> ()

and readmit t ws =
  (* Second chance for a quarantined (not crashed) worker: back online
     as Suspect with a clean failure count — one more failure streak
     re-quarantines it. *)
  if ws.health = Quarantined && (not ws.crashed) && not ws.online then begin
    ws.health <- Suspect;
    ws.failures <- 0;
    ws.online <- true;
    ws.online_since <- Sim.now t.sim;
    record_fault t ~kind:"readmit" ~worker:ws.w.Machine_config.w_name "";
    worker_kick t ws
  end

and crash_worker t ws =
  if not ws.crashed then begin
    ws.crashed <- true;
    ws.health <- Quarantined;
    Obs.Counter.incr c_quarantine;
    record_fault t ~kind:"crash" ~worker:ws.w.Machine_config.w_name "";
    take_offline t ws;
    (match ws.running with
    | Some task when task.state = Running ->
        ws.running <- None;
        ws.idle <- true;
        (* Invalidate the in-flight completion and run it elsewhere. *)
        task.attempt <- task.attempt + 1;
        task.state <- Ready;
        exclude_worker t task ws;
        t.n_reassigned <- t.n_reassigned + 1;
        record_fault t ~kind:"reassign" ~worker:ws.w.Machine_config.w_name
          ~task:task.t_id "";
        dispatch t task
    | _ -> ());
    rescue_pool t
  end

and recover_worker t ws =
  if not ws.online then begin
    ws.crashed <- false;
    ws.health <- Suspect;
    ws.failures <- 0;
    ws.online <- true;
    ws.online_since <- Sim.now t.sim;
    record_fault t ~kind:"recover" ~worker:ws.w.Machine_config.w_name "";
    worker_kick t ws
  end

and slowdown_worker t ws factor =
  let gflops = ws.gflops *. factor in
  record_fault t ~kind:"slowdown" ~worker:ws.w.Machine_config.w_name
    (Printf.sprintf "factor=%g" factor);
  apply_gflops t ws gflops

and take_offline t ws =
  if ws.online then begin
    ws.online <- false;
    ws.online_s <- ws.online_s +. (Sim.now t.sim -. ws.online_since);
    ws.free_estimate <- 0.0;
    (* Redistribute its queued tasks through the active policy. *)
    let orphans = Deque.to_list ws.queue in
    Deque.clear ws.queue;
    List.iter (dispatch t) orphans
  end

and rescue_pool t =
  (* After a PU loss, parked pool tasks may have lost their last
     eligible worker; give each a failover chance. *)
  if t.stranded_handler <> None then
    List.iter
      (fun task -> if eligible_workers t task = [] then strand t task)
      (Deque.to_list t.pool)

and strand t task =
  (* No online eligible worker exists for this task.  Ask the failover
     handler (Cascabel re-runs preselection against a degraded PDL
     view) for a replacement codelet/group. *)
  match t.stranded_handler with
  | None -> ()
  | Some handler ->
      if task.failovers < 2 then begin
        match
          handler
            {
              sd_id = task.t_id;
              sd_codelet = task.codelet;
              sd_group = task.t_group;
              sd_attempt = task.attempt;
            }
        with
        | None -> ()
        | Some (codelet, group) ->
            task.failovers <- task.failovers + 1;
            (* It may be parked in the shared pool; pull it out. *)
            ignore (Deque.take_first t.pool ~f:(fun x -> x == task));
            task.codelet <- codelet;
            task.t_group <- group;
            task.excluded <- [];
            t.n_failovers <- t.n_failovers + 1;
            Obs.Counter.incr c_failover;
            record_fault t ~kind:"failover" ~task:task.t_id
              (Printf.sprintf "codelet=%s group=%s" codelet.Codelet.cl_name
                 (match group with Some g -> g | None -> "-"));
            dispatch t task
      end

(* HEFT placement, one loop over [t.workers] in array order: each
   eligible worker's EFT (its queue's estimated end, then the inputs'
   transfers, then the estimate, then the dispatch overhead) lands in
   [t.eft]; the first worker with the least EFT wins, an incumbent
   keeping its place when [best_eft <= eft] (so a NaN EFT displaces
   it).  The task's flops are evaluated once.  Books the winner's
   [free_estimate]; [None] when no worker is eligible. *)
and heft_place t task =
  let now = Sim.now t.sim in
  let flops = task_flops task in
  let cl_name = task.codelet.Codelet.cl_name in
  let best = ref (-1) and n_eligible = ref 0 in
  for i = 0 to Array.length t.workers - 1 do
    let ws = t.workers.(i) in
    let ok = worker_eligible ws task in
    t.eligible.(i) <- ok;
    if ok then begin
      incr n_eligible;
      (* Time the scheduler believes the task takes: the learned
         per-(codelet, PU, size-bucket) model when it has enough
         samples (StarPU dmda), the declared-gflops estimate
         otherwise. *)
      let model =
        match t.tune with
        | None -> None
        | Some store ->
            Tune.Store.estimate store ~codelet:cl_name
              ~pu:ws.w.Machine_config.w_pu ~flops
      in
      let est =
        match model with Some s -> s | None -> flops /. (ws.gflops *. 1e9)
      in
      let data_ready =
        estimate_transfers t ws.w.Machine_config.w_node task.buffers
          ~at:(Float.max now ws.free_estimate)
      in
      let eft = data_ready +. est +. dispatch_overhead_s in
      t.eft.(i) <- eft;
      t.est.(i) <- est;
      t.from_model.(i) <- model <> None;
      if !best < 0 || not (t.eft.(!best) <= eft) then best := i
    end
  done;
  (* Epsilon-greedy: with probability [explore_eps], place on a cold
     (codelet, PU) pairing — one whose size bucket has not reached
     min_samples yet — so variants the model has never seen still get
     measured and can take over. *)
  let explored =
    match t.tune with
    | Some store
      when t.explore_eps > 0.0 && !n_eligible > 0
           && next_random t 1_000_000 < int_of_float (t.explore_eps *. 1e6) -> (
        let cold = ref [] in
        for i = Array.length t.workers - 1 downto 0 do
          if
            t.eligible.(i)
            && Tune.Store.samples store ~codelet:cl_name
                 ~pu:t.workers.(i).w.Machine_config.w_pu ~flops
               < Tune.Store.min_samples
          then cold := i :: !cold
        done;
        match !cold with
        | [] -> -1
        | cold -> List.nth cold (next_random t (List.length cold)))
    | _ -> -1
  in
  let chosen = if explored >= 0 then explored else !best in
  if chosen < 0 then None
  else begin
    let ws = t.workers.(chosen) in
    let source =
      if explored >= 0 then Obs.Decision.Exploration
      else if t.from_model.(chosen) then Obs.Decision.Calibrated
      else Obs.Decision.Static
    in
    if t.tune <> None then begin
      let c = cal_counts_for t task in
      match source with
      | Obs.Decision.Exploration -> c.cc_explore <- c.cc_explore + 1
      | Obs.Decision.Calibrated -> c.cc_hits <- c.cc_hits + 1
      | Obs.Decision.Static -> c.cc_static <- c.cc_static + 1
    end;
    (* Decision log: the chosen PU, every candidate's EFT as this loop
       computed it, and the estimate's provenance; completion
       back-fills queue wait and the measured time. *)
    if Obs.Config.on () then begin
      let estimates = ref [] in
      for i = Array.length t.workers - 1 downto 0 do
        if t.eligible.(i) then
          estimates :=
            (t.workers.(i).w.Machine_config.w_name, t.epoch +. t.eft.(i))
            :: !estimates
      done;
      task.d_token <-
        Obs.Decision.record ~tag:t.label ~task:task.t_id ~codelet:cl_name
          ~pu:ws.w.Machine_config.w_name ~source ~est_s:t.est.(chosen)
          ~eft_s:(t.epoch +. t.eft.(chosen))
          ~estimates:!estimates ~vt:(t.epoch +. now)
    end;
    ws.free_estimate <- t.eft.(chosen);
    Some ws
  end

and dispatch t task =
  Obs.Counter.incr c_dispatch;
  task.dispatched_once <- true;
  if Obs.Config.on () then
    Obs.Span.instant ~cat:"engine" ~name:"dispatch"
      ~args:
        (Printf.sprintf "t%d %s vt=%.6f" task.t_id (policy_to_string t.pol)
           (now t))
      ();
  match t.pol with
  | Eager ->
      Deque.push_back t.pool task;
      (* Wake one idle eligible worker. *)
      let woken = ref false in
      Array.iter
        (fun ws ->
          if (not !woken) && ws.idle && worker_eligible ws task then begin
            woken := true;
            worker_kick t ws
          end)
        t.workers;
      if
        (not !woken) && t.stranded_handler <> None
        && eligible_workers t task = []
      then strand t task
  | Heft -> (
      match heft_place t task with
      | None ->
          (* Every candidate is offline. *)
          Deque.push_back t.pool task;
          strand t task
      | Some ws ->
          Deque.push_back ws.queue task;
          worker_kick t ws)
  | Locality_ws ->
      (* Place where most input bytes already live; break ties by
         shortest queue. *)
      let score ws =
        let node = ws.w.Machine_config.w_node in
        List.fold_left
          (fun acc (h, _) ->
            if Data.is_valid_at h node then acc +. Data.bytes h else acc)
          0.0 task.buffers
      in
      let best = ref None in
      List.iter
        (fun ws ->
          let s = score ws and q = Deque.length ws.queue in
          match !best with
          | Some (_, bs, bq) when bs > s || (bs = s && bq <= q) -> ()
          | _ -> best := Some (ws, s, q))
        (eligible_workers t task);
      (match !best with
      | None ->
          Deque.push_back t.pool task;
          strand t task
      | Some (ws, _, _) ->
          Deque.push_back ws.queue task;
          worker_kick t ws;
          (* An idle thief may pick it up immediately. *)
          Array.iter (fun other -> worker_kick t other) t.workers)
  | Random_place -> (
      match eligible_workers t task with
      | [] ->
          Deque.push_back t.pool task;
          strand t task
      | candidates ->
          let ws = List.nth candidates (next_random t (List.length candidates)) in
          Deque.push_back ws.queue task;
          worker_kick t ws)

(* --- construction ----------------------------------------------------- *)

let workers_of_pu t pu =
  Array.to_list t.workers
  |> List.filter (fun ws ->
         ws.w.Machine_config.w_pu = pu || ws.w.Machine_config.w_name = pu)

let install_fault_events t (f : Fault.t) =
  let pu_of = function
    | Fault.Crash { pu; _ } | Fault.Slowdown { pu; _ } | Fault.Recover { pu; _ }
      ->
        pu
  in
  List.iter
    (fun ev ->
      if workers_of_pu t (pu_of ev) = [] then
        invalid_arg
          (Printf.sprintf "Engine.create: fault event names unknown PU %S"
             (pu_of ev)))
    f.Fault.events;
  List.iter
    (function
      | Fault.Crash { pu; at } ->
          Sim.schedule_at t.sim ~time:at (fun () ->
              List.iter (fun ws -> crash_worker t ws) (workers_of_pu t pu))
      | Fault.Slowdown { pu; at; factor } ->
          Sim.schedule_at t.sim ~time:at (fun () ->
              List.iter
                (fun ws -> slowdown_worker t ws factor)
                (workers_of_pu t pu))
      | Fault.Recover { pu; at } ->
          Sim.schedule_at t.sim ~time:at (fun () ->
              List.iter (fun ws -> recover_worker t ws) (workers_of_pu t pu)))
    f.Fault.events

let create ?(policy = Eager) ?pool ?faults ?tune ?(explore_eps = 0.05)
    ?(true_gflops = []) ?(label = "") cfg =
  List.iter
    (fun (name, g) ->
      if g <= 0.0 then
        invalid_arg "Engine.create: non-positive true_gflops rate";
      if
        not
          (Array.exists
             (fun (w : Machine_config.worker) ->
               w.Machine_config.w_name = name || w.Machine_config.w_pu = name)
             cfg.Machine_config.workers)
      then
        invalid_arg
          (Printf.sprintf "Engine.create: true_gflops names unknown PU %S"
             name))
    true_gflops;
  let charged_rate (w : Machine_config.worker) =
    match
      List.find_opt
        (fun (name, _) ->
          w.Machine_config.w_name = name || w.Machine_config.w_pu = name)
        true_gflops
    with
    | Some (_, g) -> g
    | None -> w.Machine_config.w_gflops
  in
  let link_resources = Itbl.create 8 in
  List.iter
    (fun (l : Machine_config.link) ->
      Itbl.replace link_resources l.l_node (Sim.resource l.l_name, l))
    cfg.Machine_config.links;
  let fcfg = Option.value faults ~default:Fault.none in
  let t =
    {
      sim = Sim.create ();
      epoch = 0.0;
      cfg;
      pol = policy;
      label;
      domain_pool = pool;
      workers =
        Array.map
          (fun w ->
            {
              w;
              queue = Deque.create ();
              idle = true;
              online = true;
              gflops = w.Machine_config.w_gflops;
              true_gflops = charged_rate w;
              free_estimate = 0.0;
              busy_s = 0.0;
              tasks_run = 0;
              online_s = 0.0;
              online_since = 0.0;
              health = Healthy;
              failures = 0;
              crashed = false;
              running = None;
            })
          cfg.Machine_config.workers;
      link_resources;
      pool = Deque.create ();
      last_writer = Itbl.create 64;
      readers = Itbl.create 64;
      task_index = Itbl.create 64;
      faults;
      tune;
      explore_eps;
      cal = Hashtbl.create 8;
      retry_budget = fcfg.Fault.retries;
      backoff_s = fcfg.Fault.backoff_s;
      quarantine_after = fcfg.Fault.quarantine_after;
      readmit_after = fcfg.Fault.readmit_after;
      stranded_handler = None;
      next_task = 0;
      live_tasks = 0;
      total_tasks = 0;
      bytes_transferred = 0.0;
      n_injected = 0;
      n_retries = 0;
      n_reassigned = 0;
      n_failovers = 0;
      n_abandoned = 0;
      fault_events = [];
      events = [];
      rng = 1;
      eft = Array.make (Array.length cfg.Machine_config.workers) 0.0;
      est = Array.make (Array.length cfg.Machine_config.workers) 0.0;
      from_model = Array.make (Array.length cfg.Machine_config.workers) false;
      eligible = Array.make (Array.length cfg.Machine_config.workers) false;
    }
  in
  Option.iter (install_fault_events t) faults;
  t

let on_stranded t handler = t.stranded_handler <- Some handler

(* --- submission ------------------------------------------------------ *)

let add_dep task dep_on =
  if dep_on.state <> Finished && not (List.memq task dep_on.dependents) then begin
    dep_on.dependents <- task :: dep_on.dependents;
    task.deps_remaining <- task.deps_remaining + 1
  end

let submit_id ?group t codelet buffers =
  List.iter
    (fun (h, _) ->
      if Data.is_partitioned h then
        invalid_arg
          (Printf.sprintf
             "Engine.submit: handle %S is partitioned; submit its children"
             (Data.name h)))
    buffers;
  let priced_only =
    match buffers with
    | [] -> false
    | (h0, _) :: _ ->
        let virt = Data.is_virtual h0 in
        List.iter
          (fun (h, _) ->
            if Data.is_virtual h <> virt then
              invalid_arg
                (Printf.sprintf
                   "Engine.submit: handle %S is %svirtual, unlike %S: a \
                    task's handles are all virtual or none"
                   (Data.name h)
                   (if virt then "not " else "")
                   (Data.name h0)))
          buffers;
        virt
  in
  let task =
    {
      t_id = t.next_task;
      codelet;
      buffers;
      priced_only;
      t_group = group;
      deps_remaining = 0;
      dependents = [];
      state = Pending;
      attempt = 0;
      excluded = [];
      failovers = 0;
      dispatched_once = false;
      d_token = -1;
    }
  in
  t.next_task <- t.next_task + 1;
  if not (statically_eligible t task) then
    invalid_arg
      (Printf.sprintf
         "Engine.submit: no worker%s implements codelet %S"
         (match group with
         | Some g -> Printf.sprintf " in group %S" g
         | None -> "")
         codelet.Codelet.cl_name);
  (* Sequential consistency on each handle. *)
  List.iter
    (fun (h, access) ->
      let hid = Data.id h in
      let reads = access = Codelet.R || access = Codelet.RW in
      let writes = access = Codelet.W || access = Codelet.RW in
      if reads then
        Option.iter (add_dep task) (Itbl.find_opt t.last_writer hid);
      if writes then begin
        Option.iter (add_dep task) (Itbl.find_opt t.last_writer hid);
        List.iter (add_dep task)
          (Option.value ~default:[] (Itbl.find_opt t.readers hid));
        Itbl.replace t.last_writer hid task;
        Itbl.replace t.readers hid []
      end
      else
        Itbl.replace t.readers hid
          (task :: Option.value ~default:[] (Itbl.find_opt t.readers hid)))
    buffers;
  t.live_tasks <- t.live_tasks + 1;
  t.total_tasks <- t.total_tasks + 1;
  Itbl.replace t.task_index task.t_id task;
  Obs.Counter.incr c_submit;
  if Obs.Config.on () then
    Obs.Span.instant ~cat:"engine" ~name:"submit"
      ~args:
        (Printf.sprintf "t%d %s deps=%d" task.t_id codelet.Codelet.cl_name
           task.deps_remaining)
      ();
  if task.deps_remaining = 0 then begin
    task.state <- Ready;
    Obs.Counter.incr c_ready;
    (* Defer dispatch into the simulation so submission order does
       not leak into virtual time.  The state check lets declare_dep
       retract readiness between submission and the deferred hop. *)
    Sim.schedule t.sim ~delay:0.0 (fun () ->
        if task.state = Ready && not task.dispatched_once then dispatch t task)
  end;
  task.t_id

let submit ?group t codelet buffers = ignore (submit_id ?group t codelet buffers)

let declare_dep t ~task ~depends_on =
  if task = depends_on then invalid_arg "Engine.declare_dep: self-dependency";
  let find id =
    match Itbl.find_opt t.task_index id with
    | Some tk -> tk
    | None ->
        invalid_arg
          (Printf.sprintf "Engine.declare_dep: unknown or finished task %d" id)
  in
  let tk = find task in
  let dep = find depends_on in
  if tk.dispatched_once || tk.state = Running then
    invalid_arg
      (Printf.sprintf "Engine.declare_dep: task %d already dispatched" task);
  add_dep tk dep;
  if tk.state = Ready && tk.deps_remaining > 0 then tk.state <- Pending

(* --- dynamic resources ------------------------------------------------ *)

let find_worker t name =
  match
    Array.to_list t.workers
    |> List.find_opt (fun ws -> ws.w.Machine_config.w_name = name)
  with
  | Some ws -> ws
  | None -> invalid_arg (Printf.sprintf "Engine: unknown worker %S" name)

let set_offline t ~worker = take_offline t (find_worker t worker)

let set_online t ~worker =
  let ws = find_worker t worker in
  if not ws.online then begin
    ws.online <- true;
    ws.online_since <- Sim.now t.sim;
    (* Reconsider parked work. *)
    worker_kick t ws
  end

let is_online t ~worker = (find_worker t worker).online

let worker_health t ~worker = (find_worker t worker).health

let quarantined_workers t =
  Array.to_list t.workers
  |> List.filter_map (fun ws ->
         if ws.health = Quarantined then Some ws.w.Machine_config.w_name
         else None)

let set_gflops t ~worker gflops =
  if gflops <= 0.0 then invalid_arg "Engine.set_gflops: non-positive rate";
  apply_gflops t (find_worker t worker) gflops

let at t ~time f =
  Sim.schedule_at t.sim ~time:(time -. t.epoch) (fun () -> f ())

let fault_log t = List.rev t.fault_events

(* --- completion ------------------------------------------------------ *)

type worker_stat = {
  ws_worker : Machine_config.worker;
  busy_s : float;
  online_s : float;
  tasks_run : int;
  ws_health : health;
}

type stats = {
  makespan : float;
  tasks : int;
  bytes_transferred : float;
  worker_stats : worker_stat array;
  sim_events : int;
  failures_injected : int;
  retries : int;
  reassigned : int;
  failovers : int;
  abandoned : int;
  quarantined : string list;
}

type stuck_task = {
  st_id : int;
  st_codelet : string;
  st_state : string;
  st_unmet_deps : int list;
}

exception Stuck of stuck_task list

let stuck_to_string stuck =
  Printf.sprintf "Engine.wait_all: %d task(s) stuck: %s" (List.length stuck)
    (String.concat "; "
       (List.map
          (fun st ->
            Printf.sprintf "t%d(%s,%s%s)" st.st_id st.st_codelet st.st_state
              (match st.st_unmet_deps with
              | [] -> ""
              | deps ->
                  ",waiting on "
                  ^ String.concat "+"
                      (List.map (fun d -> "t" ^ string_of_int d) deps)))
          stuck))

let () =
  Printexc.register_printer (function
    | Stuck stuck -> Some (stuck_to_string stuck)
    | _ -> None)

(* [add_dep] ignores finished tasks, so dropping them from the
   dependency tables changes no schedule; keeping them would hold
   every finished task, and through its handles every job's
   matrices, for the engine's whole life. *)
let forget_finished t =
  if t.live_tasks = 0 then begin
    (* every task submitted so far has finished *)
    Itbl.clear t.last_writer;
    Itbl.clear t.readers
  end
  else begin
    let live tk = tk.state <> Finished in
    Itbl.filter_map_inplace
      (fun _ tk -> if live tk then Some tk else None)
      t.last_writer;
    Itbl.filter_map_inplace
      (fun _ tks -> match List.filter live tks with [] -> None | l -> Some l)
      t.readers
  end

let wait_all t =
  Sim.run t.sim;
  forget_finished t;
  if t.live_tasks <> 0 then begin
    let live = Itbl.fold (fun _ tk acc -> tk :: acc) t.task_index [] in
    let live = List.sort (fun a b -> compare a.t_id b.t_id) live in
    raise
      (Stuck
         (List.map
            (fun tk ->
              {
                st_id = tk.t_id;
                st_codelet = tk.codelet.Codelet.cl_name;
                st_state = task_state_to_string tk.state;
                st_unmet_deps =
                  List.filter_map
                    (fun dep ->
                      if dep != tk && List.memq tk dep.dependents then
                        Some dep.t_id
                      else None)
                    live;
              })
            live))
  end;
  {
    makespan = now t;
    tasks = t.total_tasks;
    bytes_transferred = t.bytes_transferred;
    worker_stats =
      (let now = Sim.now t.sim in
       Array.map
         (fun ws ->
           {
             ws_worker = ws.w;
             busy_s = ws.busy_s;
             online_s =
               (ws.online_s
               +. if ws.online then now -. ws.online_since else 0.0);
             tasks_run = ws.tasks_run;
             ws_health = ws.health;
           })
         t.workers);
    sim_events = Sim.events_processed t.sim;
    failures_injected = t.n_injected;
    retries = t.n_retries;
    reassigned = t.n_reassigned;
    failovers = t.n_failovers;
    abandoned = t.n_abandoned;
    quarantined = quarantined_workers t;
  }

let gflops ~flops stats =
  if stats.makespan > 0.0 then flops /. stats.makespan /. 1e9 else 0.0

let trace t = List.rev t.events

let take_events t =
  let taken = (List.rev t.events, List.rev t.fault_events) in
  t.events <- [];
  t.fault_events <- [];
  taken

let utilization stats =
  (* Average only over workers that were ever online: counting
     permanently-offline units dilutes the figure with capacity the
     schedule never had. *)
  let ever_online =
    Array.fold_left
      (fun acc ws -> if ws.online_s > 0.0 then acc + 1 else acc)
      0 stats.worker_stats
  in
  if stats.makespan <= 0.0 || ever_online = 0 then 0.0
  else
    Array.fold_left (fun acc ws -> acc +. ws.busy_s) 0.0 stats.worker_stats
    /. (stats.makespan *. float_of_int ever_online)

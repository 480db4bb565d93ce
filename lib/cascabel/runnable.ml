module Engine = Taskrt.Engine
module Data = Taskrt.Data
module Codelet = Taskrt.Codelet
module Machine_config = Taskrt.Machine_config
module Capi = Taskrt.Capi
module Matrix = Kernels.Matrix
open Minic.Ast

let c_native_exec =
  Obs.Counter.make ~help:"tasks dispatched through loaded native kernels"
    "native_exec"

let c_native_fallbacks =
  Obs.Counter.make
    ~help:"tasks interpreted because no native symbol was available"
    "native_fallbacks"

type report = {
  exit_code : int;
  stdout : string;
  stats : Engine.stats;
  tasks_submitted : int;
  per_site_blocks : (string * int) list;
  failover_log : string list;
  calibration : Engine.cal_stat list;
  native_tasks : int;
  native_fallbacks : int;
  native_main : bool;
}

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* Per-allocation runtime state: the registered handle for an
   interpreter buffer, and the row count it was registered with. *)
type tracked = { tr_handle : Data.handle; tr_rows : int }

(* What a failover needs to rebuild a task's codelet against a
   degraded platform: the interface plus the parameter spec the
   original submission used. *)
type task_meta = {
  mi_interface : string;
  mi_handles_spec : (string * [ `Pointer | `Scalar of Interp.value ]) list;
  mi_work : float;
}

type ctx = {
  engine : Engine.t;
  interp : Interp.t;
  repo : Repository.t;
  platform : Pdl_model.Machine.platform;
  cfg : Machine_config.t;
  tune : Tune.Store.t option;
  native : Native.t option;
  mutable native_tasks : int;
  mutable native_fallbacks : int;
  blocks_override : int option;
  handles : (int, tracked) Hashtbl.t;  (** interp buffer tag -> state *)
  mutable dirty : bool;  (** tasks submitted since the last drain *)
  mutable submitted : int;
  mutable site_blocks : (string * int) list;
  selections : (string, Preselect.selection) Hashtbl.t;
  task_meta : (int, task_meta) Hashtbl.t;  (** engine task id -> site info *)
  mutable failover_log : string list;
  mutable views : (int, Interp.buf) Hashtbl.t;
      (** address -> buffer: what the running compiled code was handed
          or allocated, for its host calls *)
  host : Capi.host Lazy.t;  (** the run's host table closures *)
}

let drain ctx =
  if ctx.dirty then begin
    let sp = Obs.Span.start () in
    ignore (Engine.wait_all ctx.engine);
    Obs.Span.record ~cat:"cascabel" ~name:"drain"
      ~flow:(Obs.Trace_ctx.current_flow ()) sp;
    Hashtbl.iter
      (fun _ tr ->
        if Data.is_partitioned tr.tr_handle then Data.unpartition tr.tr_handle)
      ctx.handles;
    ctx.dirty <- false
  end

(* Register (or re-shape) the handle for an interpreter buffer. A
   whole allocation is required: Cascabel registers what the program
   malloc'ed, not interior pointers. *)
let tracked_for ctx (b : Interp.buf) ~rows =
  if b.off <> 0 || b.len <> Bigarray.Array1.dim b.data then
    abort
      "execute arguments must be whole allocations (got an interior pointer)";
  (match Hashtbl.find_opt ctx.handles b.tag with
  | Some tr when tr.tr_rows <> rows ->
      (* Re-registration with a different shape: drain and drop. *)
      drain ctx;
      Hashtbl.remove ctx.handles b.tag
  | Some tr when Data.is_partitioned tr.tr_handle ->
      (* Shape agrees but a previous execute still holds partitions:
         drain so the new partition sees settled data. *)
      drain ctx
  | _ -> ());
  match Hashtbl.find_opt ctx.handles b.tag with
  | Some tr -> tr
  | None ->
      if rows < 1 || b.len mod rows <> 0 then
        abort "distribution rows %d do not divide buffer length %d" rows b.len;
      let handle =
        Data.register_matrix
          ~name:(Printf.sprintf "buf%d" b.tag)
          { Matrix.rows; cols = b.len / rows; data = b.data }
      in
      let tr = { tr_handle = handle; tr_rows = rows } in
      Hashtbl.replace ctx.handles b.tag tr;
      tr

(* A pointer argument is its handle's rows in place. Runnable only
   row-partitions full-width matrices, so the block is contiguous. The
   sub-array copies nothing and keeps the block's own bounds: an index
   before or past the block still fails in the interpreter. *)
let rows_in_place h =
  let buf, off, ld = Data.view h in
  let rows, cols = Data.dims h in
  assert (ld = cols);
  Interp.buf_of_bigarray (Bigarray.Array1.sub buf off (rows * cols))

(* How a variant's body runs, chosen once per variant: through its
   dlopened wrapper, or through the interpreter. *)
type body = Compiled of Capi.fn | Interpreted

(* The codelet implementation. The body runs on the program's own
   buffers, as a StarPU task gets pointers into them: nothing is copied
   in or written back. Compiled C is pinned by -ffp-contract=off to the
   interpreter's strict IEEE evaluation order, so both bodies give the
   same bits. A compiled body's host calls resolve addresses against its
   argument views. Compiled tasks record a [native_exec] span, the others
   a [variant:<f>] span; either nests inside the engine's [exec:*] span
   (same domain), so the trace shows the body's time within each task. *)
let run_task ctx (v : Repository.variant) body handles_spec handles =
  let hs = ref handles in
  let argv =
    List.map
      (fun (_, kind) ->
        match kind with
        | `Pointer ->
            let h = List.hd !hs in
            hs := List.tl !hs;
            Interp.VBuf (rows_in_place h)
        | `Scalar value -> value)
      handles_spec
  in
  let sp = Obs.Span.start () in
  let flow = Obs.Trace_ctx.current_flow () in
  match body with
  | Compiled fn ->
      let views = Hashtbl.create 4 in
      let args =
        List.map
          (function
            | Interp.VBuf b ->
                Hashtbl.replace views (Capi.address b.Interp.data) b;
                Capi.Buf b.Interp.data
            | Interp.VInt n -> Capi.Int n
            | Interp.VFloat x -> Capi.Float x
            | _ -> abort "native task arguments must be numbers")
          argv
      in
      let outer = ctx.views in
      ctx.views <- views;
      Fun.protect
        ~finally:(fun () -> ctx.views <- outer)
        (fun () -> Capi.call (Lazy.force ctx.host) fn (Array.of_list args));
      Obs.Span.record ~cat:"native" ~name:"native_exec" ~args:v.v_func.f_name
        ~flow sp
  | Interpreted ->
      ignore (Interp.call_function ctx.interp v.v_func argv);
      Obs.Span.record ~cat:"cascabel" ~name:("variant:" ^ v.v_func.f_name) ~flow
        sp

(* Measurement-driven preselection: price a variant as the fastest
   learned estimate for (interface, PU) over the PUs whose arch class
   the variant targets.  The store keys observations by codelet name —
   the interface — so per-variant data exists exactly where variants
   map to distinct architecture classes.  Priced at a fixed
   representative size (1 Mflop): estimates scale near-linearly, so
   the ordering is what matters. *)
let preselect_flops = 1e6

let measured_hook ctx interface =
  Option.map
    (fun store (v : Repository.variant) ->
      let archs =
        List.map (fun (t : Targets.t) -> t.Targets.arch_class) v.v_targets
        |> List.sort_uniq compare
      in
      Array.to_list ctx.cfg.Machine_config.workers
      |> List.filter_map (fun (w : Machine_config.worker) ->
             if List.mem w.Machine_config.w_arch archs then
               Tune.Store.estimate store ~codelet:interface
                 ~pu:w.Machine_config.w_pu ~flops:preselect_flops
             else None)
      |> function
      | [] -> None
      | xs -> Some (List.fold_left Float.min infinity xs))
    ctx.tune

let codelet_for ctx (sel : Preselect.selection) ~interface ~handles_spec
    ~work_elements =
  (* arch class -> variant; later kept variants override (they are
     the more specific ones per pre-selection tie-breaking). *)
  let by_arch = Hashtbl.create 4 in
  List.iter
    (fun (v : Repository.variant) ->
      List.iter
        (fun (t : Targets.t) -> Hashtbl.replace by_arch t.arch_class v)
        v.v_targets)
    sel.Preselect.kept;
  let impls =
    Hashtbl.fold
      (fun arch v acc ->
        let compiled nt = Native.fn_for nt v.Repository.v_name in
        let body =
          match Option.bind ctx.native compiled with
          | Some fn -> Compiled fn
          | None -> Interpreted
        in
        {
          Codelet.impl_arch = arch;
          run =
            (fun ?pool:_ handles ->
              (match body with
              | Compiled _ ->
                  ctx.native_tasks <- ctx.native_tasks + 1;
                  Obs.Counter.incr c_native_exec
              | Interpreted when ctx.native <> None ->
                  ctx.native_fallbacks <- ctx.native_fallbacks + 1;
                  Obs.Counter.incr c_native_fallbacks
              | Interpreted -> ());
              run_task ctx v body handles_spec handles);
        }
        :: acc)
      by_arch []
  in
  Codelet.create ~name:interface ~flops:(fun _ -> work_elements) impls

(* PDL-driven failover (the paper's multiple logical control-views,
   exercised at runtime): when quarantines/crashes strand a task with
   no eligible worker, derive a degraded platform view dropping every
   fully-offline PU, re-run pre-selection for the task's interface
   against it, and hand the engine a codelet built from the surviving
   variants — with the group restriction lifted, since the original
   LogicGroup may be exactly what died. *)
let failover ctx (sd : Engine.stranded) =
  match Hashtbl.find_opt ctx.task_meta sd.Engine.sd_id with
  | None -> None
  | Some meta -> (
      (* PUs whose expanded workers are all offline. *)
      let all_off = Hashtbl.create 8 in
      Array.iter
        (fun (w : Machine_config.worker) ->
          let online = Engine.is_online ctx.engine ~worker:w.w_name in
          let prev =
            Option.value ~default:true (Hashtbl.find_opt all_off w.w_pu)
          in
          Hashtbl.replace all_off w.w_pu (prev && not online))
        ctx.cfg.Machine_config.workers;
      let dead_pus =
        Hashtbl.fold (fun pu off acc -> if off then pu :: acc else acc) all_off []
        |> List.sort compare
      in
      if dead_pus = [] then None
      else
        let view =
          Pdl.View.compose "degraded" (List.map Pdl.View.drop_pu dead_pus)
        in
        match Pdl.View.apply view ctx.platform with
        | Error _ -> None (* dropping the PUs breaks platform invariants *)
        | Ok degraded -> (
            match
              Preselect.select_interface
                ?measured:(measured_hook ctx meta.mi_interface)
                ctx.repo degraded meta.mi_interface
            with
            | Error _ -> None
            | Ok sel -> (
                match sel.Preselect.chosen with
                | None -> None
                | Some v ->
                    let codelet =
                      codelet_for ctx sel ~interface:meta.mi_interface
                        ~handles_spec:meta.mi_handles_spec
                        ~work_elements:meta.mi_work
                    in
                    let changes = Pdl.Diff.diff ctx.platform degraded in
                    ctx.failover_log <-
                      ctx.failover_log
                      @ [
                          Printf.sprintf
                            "t%d %s: variant %s on degraded view without %s \
                             (%d platform changes)"
                            sd.Engine.sd_id meta.mi_interface
                            v.Repository.v_name
                            (String.concat ", " dead_pus)
                            (List.length changes);
                        ];
                    Some (codelet, None))))

(* A scalar argument in its parameter's type, as a call coerces it. A
   compiled wrapper reads the slot in that type: an [int] literal
   passed for a [double] must travel as a double. *)
let scalar_arg (p : param) v =
  match (p.p_type, v) with
  | (Float | Double), Interp.VInt n -> Interp.VFloat (float_of_int n)
  | (Char | Short | Int | Long | Unsigned _), Interp.VFloat x ->
      Interp.VInt (int_of_float x)
  | _ -> v

(* Handle one execute-annotated call. *)
let on_execute ctx (annot : exec_annot) (f : func) argv =
  let interface = annot.ea_interface in
  let sel =
    match Hashtbl.find_opt ctx.selections interface with
    | Some sel -> sel
    | None -> (
        match
          Preselect.select_interface
            ?measured:(measured_hook ctx interface)
            ctx.repo ctx.platform interface
        with
        | Ok sel ->
            Hashtbl.replace ctx.selections interface sel;
            sel
        | Error e -> abort "%s" e)
  in
  let group = annot.ea_group in
  if not (List.mem group (Pdl_model.Machine.groups ctx.platform)) then
    abort
      "execution group %S is not a LogicGroupAttribute of platform %S"
      group ctx.platform.Pdl_model.Machine.pf_name;
  let group_workers = Machine_config.workers_in_group ctx.cfg group in
  if group_workers = [] then
    abort "execution group %S maps to no runtime worker" group;
  if List.length argv <> List.length f.f_params then
    abort "%s expects %d arguments" f.f_name (List.length f.f_params);
  (* Scalar environment for dist-size lookups. *)
  let scalar_env =
    List.filter_map
      (fun (p, v) ->
        match v with
        | Interp.VInt n -> Some (p.p_name, n)
        | _ -> None)
      (List.combine f.f_params argv)
  in
  (* A distribution size resolves to: an integer literal, a callee
     scalar parameter, or a global constant (#define N). *)
  let dist_rows (d : dist_spec) =
    match d.ds_size with
    | None -> abort "distribution on %S needs a size argument" d.ds_param
    | Some sz -> (
        match int_of_string_opt sz with
        | Some n -> n
        | None -> (
            match List.assoc_opt sz scalar_env with
            | Some n -> n
            | None -> (
                match Interp.global_int ctx.interp sz with
                | Some n -> n
                | None ->
                    abort "distribution size %S is not an integer parameter"
                      sz)))
  in
  (* Partition each distributed pointer argument. *)
  let distributed =
    List.filter_map
      (fun (d : dist_spec) ->
        match
          List.find_opt (fun (p, _) -> p.p_name = d.ds_param)
            (List.combine f.f_params argv)
        with
        | Some (p, Interp.VBuf b) -> Some (p.p_name, d, b)
        | Some _ -> abort "distributed parameter %S is not a pointer" d.ds_param
        | None -> abort "distribution names unknown parameter %S" d.ds_param)
      annot.ea_dists
  in
  let rows_of_dists =
    List.map (fun (_, d, _) -> dist_rows d) distributed
  in
  let common_rows =
    match rows_of_dists with
    | [] -> 1
    | r :: rest ->
        if List.for_all (( = ) r) rest then r
        else abort "distributed parameters disagree on row counts"
  in
  (* Decomposing a call is only sound when every distribution size
     names a callee parameter: then each sub-call can be told its
     block's row count. Otherwise the call runs as one whole task. *)
  let can_decompose =
    distributed <> []
    && List.for_all
         (fun (_, (d : dist_spec), _) ->
           match d.ds_size with
           | Some sz -> List.mem_assoc sz scalar_env
           | None -> false)
         distributed
  in
  let blocks =
    if not can_decompose then 1
    else
      let requested =
        Option.value ~default:(List.length group_workers) ctx.blocks_override
      in
      max 1 (min requested common_rows)
  in
  (* Track + partition. *)
  let tracked =
    List.map
      (fun (pname, d, b) -> (pname, d, tracked_for ctx b ~rows:(dist_rows d)))
      distributed
  in
  let partitions =
    List.map
      (fun (pname, _, tr) ->
        let parts =
          if blocks = 1 then [| tr.tr_handle |]
          else Data.partition_rows tr.tr_handle blocks
        in
        (pname, parts))
      tracked
  in
  let chosen_variant =
    match sel.Preselect.chosen with
    | Some v -> v
    | None -> abort "no variant chosen for %S" interface
  in
  (* Submit one task per block. *)
  let dist_size_params =
    List.filter_map
      (fun (_, d, _) ->
        match d.ds_size with
        | Some sz when int_of_string_opt sz = None -> Some sz
        | _ -> None)
      distributed
  in
  for block = 0 to blocks - 1 do
    (* Parameter spec for this block: pointers map to handles,
       scalars carry their values (dist sizes rewritten to the
       block's rows). *)
    let handles = ref [] in
    let handles_spec =
      List.map2
        (fun p v ->
          match v with
          | Interp.VBuf b ->
              let h =
                match List.assoc_opt p.p_name partitions with
                | Some parts -> parts.(block)
                | None ->
                    (* undistributed pointers pass whole *)
                    (tracked_for ctx b ~rows:1).tr_handle
              in
              handles := (h, p.p_name) :: !handles;
              (p.p_name, `Pointer)
          | Interp.VInt n when List.mem p.p_name dist_size_params ->
              (* The size parameter is rewritten to this block's row
                 count, taken from the common partition. *)
              let block_rows =
                match partitions with
                | (_, parts) :: _ -> fst (Data.dims parts.(block))
                | [] -> n
              in
              (p.p_name, `Scalar (Interp.VInt block_rows))
          | v -> (p.p_name, `Scalar (scalar_arg p v)))
        f.f_params argv
    in
    let buffers =
      List.map
        (fun (h, pname) ->
          let access =
            match Repository.access_of chosen_variant pname with
            | Some Read | None -> Codelet.R
            | Some Write -> Codelet.W
            | Some Readwrite -> Codelet.RW
          in
          (h, access))
        (List.rev !handles)
    in
    let work_elements =
      List.fold_left (fun acc (h, _) -> acc +. Data.bytes h /. 8.0) 0.0 buffers
    in
    let codelet =
      codelet_for ctx sel ~interface ~handles_spec ~work_elements
    in
    let task_id =
      try Engine.submit_id ~group ctx.engine codelet buffers
      with Invalid_argument msg -> abort "%s" msg
    in
    Hashtbl.replace ctx.task_meta task_id
      {
        mi_interface = interface;
        mi_handles_spec = handles_spec;
        mi_work = work_elements;
      };
    ctx.submitted <- ctx.submitted + 1
  done;
  if Obs.Config.on () then
    Obs.Span.instant ~cat:"cascabel" ~name:"execute"
      ~args:(Printf.sprintf "%s group=%s blocks=%d" interface group blocks)
      ();
  ctx.dirty <- true;
  ctx.site_blocks <- ctx.site_blocks @ [ (interface, blocks) ];
  Some Interp.VUnit

(* The view of the buffer at an address the running compiled code was
   handed or allocated, or of a pointer into one, shifted as the
   interpreter shifts it. *)
let buf_at ctx what addr =
  match Hashtbl.find_opt ctx.views addr with
  | Some b -> b
  | None -> (
      let inside base (b : Interp.buf) found =
        if addr > base && addr <= base + (8 * b.len) then
          let off = (addr - base) / 8 in
          Some { b with Interp.off; len = b.len - off }
        else found
      in
      match Hashtbl.fold inside ctx.views None with
      | Some b -> b
      | None -> abort "%s %#x is not an allocation" what addr)

(* The host table of one run: what compiled code calls back. The
   compiled [main]'s allocations are interpreter buffers keyed by data
   address, so a submit maps each pointer back to the buffer it points
   into and goes through [on_execute] like an interpreted execute site.
   An interior pointer is an interior view, which [on_execute] refuses
   as it does for the interpreter. The generated code waits after every
   submit, so main never reads a buffer with tasks pending. [blas_dgemm]
   resolves its matrices the same way and takes the interpreter's
   checked kernel. *)
let host_of ctx unit_ (sites : Emit_c.entry_site array) =
  (* As in the interpreter, the last definition of a name wins. *)
  let callee (x : Codegen.execute_site) =
    match
      List.fold_left
        (fun found top ->
          match top with
          | Func f when f.f_name = x.x_function && f.f_body <> None -> Some f
          | _ -> found)
        None unit_
    with
    | Some f -> f
    | None -> abort "execute pragma on unknown function %S" x.x_function
  in
  {
    Capi.alloc =
      (fun bytes ->
        let b = Interp.alloc ctx.interp (bytes / 8) in
        let addr = Capi.address b.data in
        Hashtbl.replace ctx.views addr b;
        addr);
    out = Interp.add_output ctx.interp;
    submit =
      (fun site addrs ->
        let { Emit_c.es_site = x; es_slots } = sites.(site) in
        let argv =
          List.mapi
            (fun i slot ->
              match slot with
              | Emit_c.Slot_buf ->
                  Interp.VBuf (buf_at ctx "execute argument" addrs.(i))
              | Slot_long -> Interp.VInt (Capi.peek_long addrs.(i))
              | Slot_double -> Interp.VFloat (Capi.peek_double addrs.(i)))
            es_slots
        in
        let annot =
          {
            ea_interface = x.x_interface;
            ea_group = x.x_group;
            ea_dists = x.x_dists;
          }
        in
        ignore (on_execute ctx annot (callee x) argv));
    wait_all = (fun () -> drain ctx);
    dgemm =
      (fun m n k a b c ->
        let arg = buf_at ctx "blas_dgemm argument" in
        Interp.blas_dgemm ~m ~n ~k (arg a) (arg b) (arg c));
  }

(* The compiled [main], inside a [native_main] span. *)
let run_entry ctx fn =
  let sp = Obs.Span.start () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.record ~cat:"native" ~name:"native_main"
        ~flow:(Obs.Trace_ctx.current_flow ()) sp)
    (fun () -> Capi.run_main (Lazy.force ctx.host) fn)

let run ?policy ?blocks ?fuel ?trace ?faults ?tune ?native ~repo
    ~platform unit_ =
  match Machine_config.of_platform platform with
  | Error e -> Error e
  | Ok cfg -> (
      try
        (match Repository.register_unit repo unit_ with
        | Ok _ -> ()
        | Error _ -> ());
        let engine = Engine.create ?policy ?faults ?tune cfg in
        let ctx_ref = ref None in
        let hooks =
          {
            Interp.on_execute =
              (fun annot f argv ->
                match !ctx_ref with
                | Some ctx -> on_execute ctx annot f argv
                | None -> None);
            on_buffer_access =
              (fun b ->
                match !ctx_ref with
                | Some ctx ->
                    if ctx.dirty && Hashtbl.mem ctx.handles b.tag then drain ctx
                | None -> ());
          }
        in
        let interp = Interp.create ~hooks ?fuel unit_ in
        let entry =
          Option.bind native (fun nt -> Result.to_option (Native.entry nt))
        in
        let sites = match entry with Some (_, sites) -> sites | None -> [||] in
        let rec ctx =
          {
            engine;
            interp;
            repo;
            platform;
            cfg;
            tune;
            native;
            native_tasks = 0;
            native_fallbacks = 0;
            blocks_override = blocks;
            handles = Hashtbl.create 8;
            dirty = false;
            submitted = 0;
            site_blocks = [];
            selections = Hashtbl.create 4;
            task_meta = Hashtbl.create 16;
            failover_log = [];
            views = Hashtbl.create 8;
            host = lazy (host_of ctx unit_ sites);
          }
        in
        ctx_ref := Some ctx;
        Engine.on_stranded engine (fun sd -> failover ctx sd);
        (* One ambient trace context per run: standalone cascabelc runs
           get a connected flow (drain/variant/native/exec spans) without
           a serving daemon; under cascabeld the service installed the
           job's context already and this scope is never reached. *)
        let run_ctx =
          match Obs.Trace_ctx.current () with
          | Some c -> c
          | None -> Obs.Trace_ctx.make ()
        in
        let run_main () =
          match entry with
          | Some (fn, _) -> Ok (run_entry ctx fn)
          | None -> Interp.run_main interp
        in
        match Obs.Trace_ctx.with_current run_ctx run_main with
        | Error msg -> Error msg
        | exception Abort msg -> Error msg
        | exception Engine.Stuck stuck -> Error (Engine.stuck_to_string stuck)
        | Ok code -> (
            match
              Obs.Trace_ctx.with_current run_ctx (fun () ->
                  Engine.wait_all engine)
            with
            | stats ->
                Option.iter
                  (fun path ->
                    (* One file, two processes: virtual timeline (pid 0)
                       plus any wall-clock telemetry spans (pid 1), and
                       the fault lane when anything went wrong. *)
                    Obs.Export.write_chrome path
                      (Taskrt.Trace_export.events
                         [ ("", Engine.trace engine, Engine.fault_log engine) ]))
                  trace;
                Ok
                  {
                    exit_code = code;
                    stdout = Interp.output interp;
                    stats;
                    tasks_submitted = ctx.submitted;
                    per_site_blocks = ctx.site_blocks;
                    failover_log = ctx.failover_log;
                    calibration = Engine.calibration engine;
                    native_tasks = ctx.native_tasks;
                    native_fallbacks = ctx.native_fallbacks;
                    native_main = Option.is_some entry;
                  }
            | exception Failure msg -> Error msg
            | exception Engine.Stuck stuck ->
                Error (Engine.stuck_to_string stuck))
      with Interp.Runtime_error msg -> Error msg)

let run_serial ?fuel unit_ =
  match Interp.create ?fuel unit_ with
  | exception Interp.Runtime_error msg -> Error msg
  | interp -> (
      match Interp.run_main interp with
      | Ok code -> Ok (code, Interp.output interp)
      | Error msg -> Error msg)

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
}

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* Per-allocation runtime state: the registered handle for an
   interpreter buffer, and whether it is currently partitioned for
   in-flight tasks. *)
type tracked = {
  tr_handle : Data.handle;
  tr_rows : int;
  tr_cols : int;
}

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
      let cols = b.len / rows in
      let handle =
        Data.register_matrix
          ~name:(Printf.sprintf "buf%d" b.tag)
          { Matrix.rows; cols; data = b.data }
      in
      let tr = { tr_handle = handle; tr_rows = rows; tr_cols = cols } in
      Hashtbl.replace ctx.handles b.tag tr;
      tr

(* The codelet implementation: read the task's buffers, interpret the
   variant's body, write back what the annotation says is written. *)
let run_variant ctx (v : Repository.variant) handles_spec handles =
  let param_values =
    List.map2
      (fun (pname, kind) handle_opt ->
        match (kind, handle_opt) with
        | `Pointer, Some h ->
            let m = Data.read_matrix h in
            ( pname,
              Interp.VBuf (Interp.buf_of_bigarray m.Matrix.data),
              Some (h, m) )
        | `Scalar v, None -> (pname, v, None)
        | _ -> assert false)
      handles_spec
      (let hs = ref handles in
       List.map
         (fun (_, kind) ->
           match kind with
           | `Pointer ->
               let h = List.hd !hs in
               hs := List.tl !hs;
               Some h
           | `Scalar _ -> None)
         handles_spec)
  in
  let argv = List.map (fun (_, v, _) -> v) param_values in
  (* The variant span nests inside the engine's [exec:*] span (same
     domain): the trace shows interpreter time within each task. *)
  let sp = Obs.Span.start () in
  let _ = Interp.call_function ctx.interp v.v_func argv in
  Obs.Span.record ~cat:"cascabel" ~name:("variant:" ^ v.v_func.f_name)
    ~flow:(Obs.Trace_ctx.current_flow ()) sp;
  (* write back written buffers *)
  List.iter
    (fun (pname, value, hm) ->
      match (hm, value) with
      | Some (h, m), Interp.VBuf _ -> (
          match Repository.access_of v pname with
          | Some (Write | Readwrite) -> Data.write_matrix h m
          | _ -> ())
      | _ -> ())
    param_values

(* How a task body runs natively: through the variant's dlopened
   wrapper, or — for a variant whose body is one library-kernel call —
   through that kernel in process. *)
type native_body =
  | Compiled of Capi.fn
  | Library of (Interp.value list -> unit)

let native_body ctx (v : Repository.variant) =
  Option.bind ctx.native (fun nt ->
      match Interp.library_call v.v_func with
      | Some run -> Some (Library run)
      | None -> Option.map (fun fn -> Compiled fn) (Native.fn_for nt v.v_name))

(* The native codelet implementation: same data flow as
   [run_variant], but the body runs as machine code instead of through
   the interpreter. The matrices are read and written through the exact
   same {!Data.read_matrix}/{!Data.write_matrix} path, so the two
   executors see identical buffers — bit-identity then only depends on
   the kernel arithmetic: a library variant runs the very kernel its
   interpreted body calls, and compiled C is pinned by -ffp-contract=off
   to the interpreter's strict IEEE evaluation order. *)
let run_variant_native (v : Repository.variant) body handles_spec handles =
  let hs = ref handles in
  let slots =
    List.map
      (fun (pname, kind) ->
        match kind with
        | `Pointer ->
            let h = List.hd !hs in
            hs := List.tl !hs;
            (pname, `Buf (h, Data.read_matrix h))
        | `Scalar value -> (pname, `Scalar value))
      handles_spec
  in
  let sp = Obs.Span.start () in
  (match body with
  | Compiled fn ->
      Capi.call fn
        (List.map
           (fun (_, slot) ->
             match slot with
             | `Buf (_, (m : Matrix.t)) -> Capi.Buf m.Matrix.data
             | `Scalar (Interp.VInt n) -> Capi.Int n
             | `Scalar (Interp.VFloat x) -> Capi.Float x
             | `Scalar _ -> abort "native task arguments must be numbers")
           slots
        |> Array.of_list)
  | Library run ->
      run
        (List.map
           (fun (_, slot) ->
             match slot with
             | `Buf (_, (m : Matrix.t)) ->
                 Interp.VBuf (Interp.buf_of_bigarray m.Matrix.data)
             | `Scalar value -> value)
           slots));
  Obs.Span.record ~cat:"native" ~name:"native_exec" ~args:v.v_func.f_name
    ~flow:(Obs.Trace_ctx.current_flow ()) sp;
  List.iter
    (fun (pname, slot) ->
      match slot with
      | `Buf (h, m) -> (
          match Repository.access_of v pname with
          | Some (Write | Readwrite) -> Data.write_matrix h m
          | _ -> ())
      | `Scalar _ -> ())
    slots

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
        let body = native_body ctx v in
        {
          Codelet.impl_arch = arch;
          run =
            (fun ?pool:_ handles ->
              match body with
              | Some body ->
                  ctx.native_tasks <- ctx.native_tasks + 1;
                  Obs.Counter.incr c_native_exec;
                  run_variant_native v body handles_spec handles
              | None ->
                  if ctx.native <> None then begin
                    ctx.native_fallbacks <- ctx.native_fallbacks + 1;
                    Obs.Counter.incr c_native_fallbacks
                  end;
                  run_variant ctx v handles_spec handles);
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
  (* Whole handles for undistributed pointers. *)
  let whole_handle pname b =
    ignore pname;
    (tracked_for ctx b ~rows:1).tr_handle
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
          | Interp.VBuf b -> (
              match List.assoc_opt p.p_name partitions with
              | Some parts ->
                  let h = parts.(block) in
                  handles := (h, p.p_name) :: !handles;
                  (p.p_name, `Pointer)
              | None ->
                  let h = whole_handle p.p_name b in
                  handles := (h, p.p_name) :: !handles;
                  (p.p_name, `Pointer))
          | Interp.VInt n when List.mem p.p_name dist_size_params ->
              (* The size parameter is rewritten to this block's row
                 count, taken from the common partition. *)
              let block_rows =
                match partitions with
                | (_, parts) :: _ -> fst (Data.dims parts.(block))
                | [] -> n
              in
              (p.p_name, `Scalar (Interp.VInt block_rows))
          | v -> (p.p_name, `Scalar v))
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
        let ctx =
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
        match Obs.Trace_ctx.with_current run_ctx (fun () ->
                  Interp.run_main interp) with
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

(* cascabelc — the Cascabel source-to-source compiler CLI.

     cascabelc translate input.c --pdl machine.pdl     # emit output source
     cascabelc translate input.c --zoo xeon-2gpu --makefile
     cascabelc run input.c --zoo xeon-2gpu --policy heft
     cascabelc run input.c --serial                    # the untranslated baseline
     cascabelc run input.c --zoo xeon-2gpu --native    # compiled kernels (dlopen)
     cascabelc run input.c --zoo xeon-2gpu --emit-c out/   # dump C + Makefile
     cascabelc report input.c --zoo xeon-2gpu          # pre-selection report

   Exit codes for --native: 3 when no C toolchain is on PATH (a
   graceful skip), 4 when the toolchain fails to compile or load the
   generated kernels. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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

let parse_source path =
  match Minic.Parser.parse (read_file path) with
  | Ok u -> Ok u
  | Error e -> Error (path ^ ": " ^ Minic.Parser.error_to_string e)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

let input_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT.c" ~doc:"Annotated serial input program.")

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

let repo_arg =
  Arg.(
    value & opt_all string []
    & info [ "repo" ] ~docv:"FILE.c"
        ~doc:
          "Additional source files whose task variants populate the \
           repository (may repeat).")

let build_repo repo_files =
  let repo = Cascabel.Repository.create () in
  List.iter
    (fun path ->
      let u = or_die (parse_source path) in
      match Cascabel.Repository.register_unit repo u with
      | Ok _ -> ()
      | Error e ->
          prerr_endline (path ^ ": " ^ e);
          exit 1)
    repo_files;
  repo

let translate_cmd =
  let makefile =
    Arg.(value & flag & info [ "makefile" ] ~doc:"Print the compilation plan.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o" ] ~docv:"FILE" ~doc:"Write generated source to FILE.")
  in
  let run input pdl zoo repo_files makefile output =
    let platform = or_die (load_platform pdl zoo) in
    let unit_ = or_die (parse_source input) in
    let repo = build_repo repo_files in
    match Cascabel.Codegen.translate ~repo ~platform unit_ with
    | Error msgs ->
        List.iter prerr_endline msgs;
        1
    | Ok out ->
        (match output with
        | Some path ->
            let oc = open_out path in
            output_string oc out.gen_source;
            close_out oc
        | None -> print_string out.gen_source);
        if makefile then begin
          print_newline ();
          print_string out.makefile
        end;
        0
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:
         "Translate an annotated serial program for a target platform \
          (paper Figure 4 flow).")
    Term.(
      const run $ input_arg $ pdl_arg $ zoo_arg $ repo_arg $ makefile $ output)

let report_cmd =
  let run input pdl zoo repo_files =
    let platform = or_die (load_platform pdl zoo) in
    let unit_ = or_die (parse_source input) in
    let repo = build_repo repo_files in
    (match Cascabel.Repository.register_unit repo unit_ with
    | Ok _ -> ()
    | Error e ->
        prerr_endline e;
        exit 1);
    (match Cascabel.Preselect.select repo platform with
    | Ok selections ->
        print_string (Cascabel.Preselect.report selections);
        let s = Cascabel.Preselect.stats selections in
        Printf.printf "%d variants: %d kept, %d pruned\n" s.total s.kept_count
          s.pruned_count;
        (* Static mapping for every execute site of the input. *)
        let mappings =
          List.filter_map
            (fun ((annot : Minic.Ast.exec_annot), _) ->
              match
                List.find_opt
                  (fun (sel : Cascabel.Preselect.selection) ->
                    sel.sel_interface = annot.ea_interface)
                  selections
              with
              | None -> None
              | Some sel -> (
                  match
                    Cascabel.Mapping.map_site sel platform
                      ~group:annot.ea_group
                  with
                  | Ok m -> Some m
                  | Error e ->
                      prerr_endline e;
                      None))
            (Minic.Parser.executes unit_)
        in
        if mappings <> [] then begin
          print_newline ();
          print_string (Cascabel.Mapping.report mappings)
        end
    | Error e -> prerr_endline e);
    0
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Show the static pre-selection verdicts.")
    Term.(const run $ input_arg $ pdl_arg $ zoo_arg $ repo_arg)

let run_cmd =
  let serial =
    Arg.(
      value & flag
      & info [ "serial" ]
          ~doc:"Interpret the untranslated program (the 'single' baseline).")
  in
  let policy =
    Arg.(
      value & opt string "heft"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Scheduling policy: eager | heft | ws | random.")
  in
  let blocks =
    Arg.(
      value
      & opt (some int) None
      & info [ "blocks" ] ~docv:"N" ~doc:"Decomposition width per execute.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print runtime statistics.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome/Perfetto trace of the run: the virtual \
             timeline plus wall-clock telemetry spans.")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print Prometheus-style telemetry counters and latency \
             quantiles to stderr after the run.")
  in
  let decisions_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "decisions" ] ~docv:"FILE"
          ~doc:
            "Write the scheduler decision log as JSONL: one record per \
             placement with the chosen PU, per-PU finish-time estimates, \
             the estimate source (calibrated | static | exploration), and \
             — once the task completes — queue wait and \
             estimate-vs-actual relative error.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault schedule, e.g. \
             'seed=7,transient=0.2,retries=5,crash=gpu0@0.01'. Keys: seed, \
             transient, max-transient, retries, backoff, quarantine, \
             readmit, crash=PU\\@T, slow=PU\\@TxF, recover=PU\\@T.")
  in
  let tune_flag =
    Arg.(
      value & flag
      & info [ "tune" ]
          ~doc:
            "Load the platform's calibration store \
             (CALIB_<descriptor-hash>.json), schedule with its learned \
             per-(codelet, PU, size) cost models where they have enough \
             samples, feed observed task spans back, and save the store on \
             exit.")
  in
  let tune_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "tune-dir" ] ~docv:"DIR"
          ~doc:"Directory holding the calibration store (default: cwd).")
  in
  let native_flag =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Emit real C for the kept task variants, compile them with the \
             host toolchain into a shared object, and dispatch task bodies \
             through the loaded symbols (interpreter fallback per variant). \
             Exit code 3 means no toolchain was found; 4 means the compile \
             or dlopen failed.")
  in
  let emit_c_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-c" ] ~docv:"DIR"
          ~doc:
            "Write the generated C sources (program, kernels, runtime API, \
             serial runtime) and Makefile to DIR without executing \
             anything.")
  in
  let cc_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cc" ] ~docv:"CMD"
          ~doc:
            "C compiler for --native (default: the compilation plan's host \
             compiler, then cc).")
  in
  let run input pdl zoo repo_files serial policy blocks stats_flag trace_out
      metrics decisions_out faults_spec tune_flag tune_dir native emit_c_dir
      cc =
    let unit_ = or_die (parse_source input) in
    (* Telemetry costs one branch per probe when off; turn it on only
       when a sink was requested. *)
    if trace_out <> None || metrics || decisions_out <> None then
      Obs.Config.set_enabled true;
    if serial then begin
      match Cascabel.Runnable.run_serial unit_ with
      | Ok (code, out) ->
          print_string out;
          code
      | Error e ->
          prerr_endline e;
          1
    end
    else begin
      let platform = or_die (load_platform pdl zoo) in
      let policy =
        match Taskrt.Engine.policy_of_string policy with
        | Some p -> p
        | None ->
            prerr_endline "unknown policy (eager | heft | ws | random)";
            exit 1
      in
      let repo = build_repo repo_files in
      (* The native backend and --emit-c both start from a full
         translation of the program for the target platform. *)
      let emitted =
        if emit_c_dir = None && not native then None
        else begin
          match Cascabel.Codegen.translate ~repo ~platform unit_ with
          | Error msgs ->
              List.iter prerr_endline msgs;
              exit 1
          | Ok out -> (
              match Cascabel.Emit_c.emit out with
              | Error e ->
                  prerr_endline ("emit-c: " ^ e);
                  exit 1
              | Ok em -> Some em)
        end
      in
      match (emit_c_dir, emitted) with
      | Some dir, Some em -> (
          match Cascabel.Emit_c.write_dir em ~dir with
          | Ok files ->
              List.iter
                (fun f -> Printf.printf "wrote %s\n" (Filename.concat dir f))
                files;
              0
          | Error e ->
              prerr_endline e;
              1)
      | _ ->
      let native_lib =
        match emitted with
        | None -> None
        | Some em -> (
            match Cascabel.Native.build ?cc em with
            | Cascabel.Native.Loaded t -> Some t
            | Cascabel.Native.No_toolchain msg ->
                Printf.eprintf "# native: %s; skipping\n" msg;
                exit 3
            | Cascabel.Native.Compile_error msg ->
                Printf.eprintf "# native: %s\n" msg;
                exit 4)
      in
      let finish code =
        Option.iter Cascabel.Native.close native_lib;
        code
      in
      let faults =
        Option.map
          (fun spec -> or_die (Taskrt.Fault.parse spec))
          faults_spec
      in
      let tune =
        if not tune_flag then None
        else begin
          let hash = Pdl.Codec.descriptor_hash platform in
          let store, warning =
            Tune.Store.load ~dir:tune_dir ~pdl_hash:hash
              ~platform:platform.Pdl_model.Machine.pf_name ()
          in
          Option.iter (Printf.eprintf "# warning: %s\n") warning;
          (* Tuned GEMM blocking rides in the same store; install it
             so Blas.dgemm picks it up transparently. *)
          ignore (Tune.Gemm_tune.apply store);
          Some (store, Tune.Store.total_samples store)
        end
      in
      match
        Cascabel.Runnable.run ~policy ?blocks ?trace:trace_out ?faults
          ?tune:(Option.map fst tune) ?native:native_lib ~repo ~platform
          unit_
      with
      | Ok r ->
          print_string r.stdout;
          if stats_flag then begin
            Printf.eprintf
              "# %d tasks on %S in %.6f virtual seconds (%.1f%% utilization)\n"
              r.stats.tasks platform.Pdl_model.Machine.pf_name
              r.stats.makespan
              (100.0 *. Taskrt.Engine.utilization r.stats);
            Array.iter
              (fun ws ->
                Printf.eprintf "#   %-12s %3d tasks, busy %.6fs\n"
                  ws.Taskrt.Engine.ws_worker.Taskrt.Machine_config.w_name
                  ws.Taskrt.Engine.tasks_run ws.Taskrt.Engine.busy_s)
              r.stats.worker_stats;
            Option.iter
              (fun nt ->
                Printf.eprintf
                  "# native: %d variants loaded from %s; %d tasks native, \
                   %d interpreted fallbacks\n"
                  (Cascabel.Native.native_count nt)
                  (Filename.basename (Cascabel.Native.so_path nt))
                  r.native_tasks r.native_fallbacks;
                Printf.eprintf "# native main: %s\n"
                  (match Cascabel.Native.entry nt with
                  | Ok _ when r.native_main -> "compiled"
                  | Ok _ -> "interpreted"
                  | Error why -> Printf.sprintf "interpreted (%s)" why))
              native_lib;
            if faults <> None then begin
              Printf.eprintf
                "# faults: %d transient, %d retries, %d reassigned, %d \
                 failovers, %d abandoned\n"
                r.stats.failures_injected r.stats.retries r.stats.reassigned
                r.stats.failovers r.stats.abandoned;
              if r.stats.quarantined <> [] then
                Printf.eprintf "# quarantined: %s\n"
                  (String.concat ", " r.stats.quarantined);
              List.iter (Printf.eprintf "# failover: %s\n") r.failover_log
            end;
            match tune with
            | Some (store, preloaded) ->
                Printf.eprintf
                  "# calibration: store %s, %d samples loaded, %d now\n"
                  (Tune.Store.filename
                     ~pdl_hash:(Tune.Store.pdl_hash store))
                  preloaded
                  (Tune.Store.total_samples store);
                List.iter
                  (fun (cs : Taskrt.Engine.cal_stat) ->
                    Printf.eprintf
                      "#   %-12s %d model hits, %d static fallbacks, %d \
                       exploration picks\n"
                      cs.Taskrt.Engine.cs_codelet
                      cs.Taskrt.Engine.cs_model_hits
                      cs.Taskrt.Engine.cs_static_fallbacks
                      cs.Taskrt.Engine.cs_explorations)
                  r.calibration
            | None -> ()
          end;
          Option.iter
            (fun (store, _) -> Tune.Store.save ~dir:tune_dir store)
            tune;
          if metrics then prerr_string (Obs.Export.prometheus ());
          Option.iter (fun path -> Obs.Decision.write_jsonl path) decisions_out;
          finish r.exit_code
      | Error e ->
          prerr_endline e;
          finish 1
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute an annotated program on the simulated machine of a PDL \
          descriptor.")
    Term.(
      const run $ input_arg $ pdl_arg $ zoo_arg $ repo_arg $ serial $ policy
      $ blocks $ stats_flag $ trace_arg $ metrics_flag $ decisions_arg
      $ faults_arg $ tune_flag $ tune_dir_arg $ native_flag $ emit_c_arg
      $ cc_arg)

let () =
  let info =
    Cmd.info "cascabelc" ~version:"1.0"
      ~doc:
        "Cascabel: source-to-source compilation of task-annotated C for \
         heterogeneous many-core platforms, parameterized by PDL \
         descriptors."
  in
  exit (Cmd.eval' (Cmd.group info [ translate_cmd; report_cmd; run_cmd ]))

(* Tiled Cholesky on a PDL-described machine, with dynamic resource
   events (the paper's §VI future work) and trace export.

   A dependency-rich task DAG (POTRF/TRSM/SYRK/GEMM) is scheduled on
   the two-GPU testbed; mid-run, one GPU fails and later a thermal
   event halves the other's throughput. The runtime redistributes and
   the factorization still verifies.

     dune exec examples/cholesky_dynamic.exe *)

module Engine = Taskrt.Engine
module MC = Taskrt.Machine_config

let () =
  let cfg = MC.of_platform_exn Pdl_hwprobe.Zoo.xeon_2gpu in
  let n = 64 in
  let a = Kernels.Lapack.random_spd ~seed:42 n in

  (* --- 1. a healthy run ------------------------------------------ *)
  let rt = Engine.create ~policy:Engine.Heft cfg in
  let l = Kernels.Matrix.copy a in
  let healthy = Taskrt.Tiled_cholesky.run_on ~tiles:8 rt l in
  Printf.printf "healthy run: %d tasks in %.6f virtual s, residual %.2e\n"
    healthy.Engine.tasks healthy.Engine.makespan
    (Kernels.Lapack.cholesky_residual ~a ~l);

  (* --- 2. same run with failures injected ------------------------- *)
  let rt = Engine.create ~policy:Engine.Heft cfg in
  Engine.at rt ~time:(healthy.Engine.makespan /. 4.0) (fun () ->
      Engine.set_offline rt ~worker:"gpu0");
  Engine.at rt ~time:(healthy.Engine.makespan /. 2.0) (fun () ->
      Engine.set_gflops rt ~worker:"gpu1" 35.0);
  let l = Kernels.Matrix.copy a in
  let disturbed = Taskrt.Tiled_cholesky.run_on ~tiles:8 rt l in
  Printf.printf
    "with gpu0 failure + gpu1 throttled: %.6f virtual s (%.2fx slower), \
     residual %.2e\n"
    disturbed.Engine.makespan
    (disturbed.Engine.makespan /. healthy.Engine.makespan)
    (Kernels.Lapack.cholesky_residual ~a ~l);

  (* --- 3. per-worker accounting ----------------------------------- *)
  print_endline "\nper-worker task counts (disturbed run):";
  Array.iter
    (fun ws ->
      Printf.printf "  %-12s %4d tasks, busy %.6f s\n"
        ws.Engine.ws_worker.MC.w_name ws.Engine.tasks_run ws.Engine.busy_s)
    disturbed.Engine.worker_stats;

  (* --- 4. DAG-shape comparison: the model at scale ----------------- *)
  print_endline "\nCholesky 8192 (timing model), smp vs 2gpu:";
  List.iter
    (fun (name, cfg_name) ->
      let n = 8192 in
      let rt =
        Engine.create ~policy:Engine.Heft
          (MC.of_platform_exn (Option.get (Pdl_hwprobe.Zoo.find cfg_name)))
      in
      let s = Taskrt.Tiled_cholesky.model_on ~tiles:16 rt ~n in
      Printf.printf "  %-14s %8.2f s  %8.1f GFLOP/s\n" name s.Engine.makespan
        (Engine.gflops ~flops:(Taskrt.Tiled_cholesky.flops n) s))
    [ ("xeon-x5550-smp", "xeon-x5550-smp"); ("xeon-2gpu", "xeon-2gpu") ];

  (* --- 5. trace export --------------------------------------------- *)
  let rt = Engine.create ~policy:Engine.Heft cfg in
  let ha = Taskrt.Data.register_matrix (Kernels.Matrix.copy a) in
  let grid = Taskrt.Data.partition_tiles ha ~rows:4 ~cols:4 in
  let open Taskrt.Codelet in
  Engine.submit rt
    (noop ~name:"potrf" ~flops:1e8 ~archs:[ "cpu" ])
    [ (grid.(0).(0), RW) ];
  Engine.submit rt
    (noop ~name:"trsm" ~flops:1e8 ~archs:[ "cpu"; "gpu" ])
    [ (grid.(0).(0), R); (grid.(1).(0), RW) ];
  let _ = Engine.wait_all rt in
  let path = Filename.temp_file "cholesky" ".trace.json" in
  Obs.Export.write_chrome path
    (Taskrt.Trace_export.events [ ("", Engine.trace rt, []) ]);
  Printf.printf "\nchrome trace written to %s (load in chrome://tracing)\n"
    path

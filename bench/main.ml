(* Benchmark harness: regenerates every experimental result of the
   paper plus the ablations DESIGN.md calls out.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe fig5       # one experiment
     dune exec bench/main.exe micro      # Bechamel microbenchmarks

   Experiment ids (see DESIGN.md §4 and EXPERIMENTS.md):
     fig5    Figure 5  — DGEMM speedups single / starpu / starpu+2gpus
     sweep   ABL-SIZE  — matrix-size sweep, GPU offload crossover
     sched   ABL-SCHED — scheduler ablation on the heterogeneous target
     tile    ABL-TILE  — tile-count sensitivity
     presel  ABL-PRESEL— static pre-selection pruning across the zoo
     chol    ABL-CHOL  — tiled Cholesky (dependency-rich DAG)
     eng     engine scheduling hot paths (real wall-clock)
     par     real multicore kernels vs the domain pool (BENCH_par.json)
     kern    DGEMM kernel variants naive/blocked/packed (BENCH_kern.json)
     faults  fault injection: retry, quarantine, failover (BENCH_faults.json)
     tune    calibrated cost models + GEMM autotuning (BENCH_tune.json)
     cc      native executor: interpreted vs pooled vs compiled (BENCH_cc.json)
     smoke   deterministic end-to-end pass for the cram test
     micro   Bechamel microbenchmarks of the toolchain itself *)

module MC = Taskrt.Machine_config
module TD = Taskrt.Tiled_dgemm
module Engine = Taskrt.Engine

let line = String.make 72 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line
let cfg_of name = MC.of_platform_exn (Option.get (Pdl_hwprobe.Zoo.find name))

(* ------------------------------------------------------------------ *)
(* FIG5: the paper's Figure 5                                          *)

let fig5 () =
  header
    "FIG5  DGEMM 8192x8192 speedup over the single-threaded input (paper \
     Figure 5)";
  let n = 8192 in
  let single =
    TD.run_model ~policy:Engine.Eager ~tiles:1 (cfg_of "xeon-single") ~n
  in
  let rows =
    [
      ("single", single);
      ( "starpu",
        TD.run_model ~policy:Engine.Eager ~tiles:8 (cfg_of "xeon-x5550-smp")
          ~n );
      ( "starpu+2gpus",
        TD.run_model ~policy:Engine.Heft ~tiles:8 (cfg_of "xeon-2gpu") ~n );
    ]
  in
  Printf.printf "%-14s %12s %10s %12s %8s\n" "version" "time [s]" "speedup"
    "GFLOP/s" "tasks";
  List.iter
    (fun (name, (r : TD.result)) ->
      Printf.printf "%-14s %12.2f %9.2fx %12.1f %8d\n" name
        r.stats.Engine.makespan
        (TD.speedup ~baseline:single r)
        r.gflops_effective r.stats.Engine.tasks)
    rows;
  print_newline ();
  print_endline
    "paper (Figure 5): single = 1x, starpu ~= 6-7x, starpu+2gpus ~= 20-25x";
  print_endline
    "shape check: starpu in [6,8], starpu+2gpus in [15,30], ordering holds."

(* ------------------------------------------------------------------ *)
(* ABL-SIZE: size sweep — where does GPU offload start to pay?        *)

let sweep () =
  header
    "ABL-SIZE  DGEMM size sweep: smp vs +2gpus (HEFT), transfer-bound \
     crossover";
  Printf.printf "%-8s %13s %13s %13s %8s %12s\n" "n" "smp [s]" "+2gpus [s]"
    "gpus-only [s]" "ratio" "moved [MB]";
  List.iter
    (fun n ->
      let tiles = min 8 n in
      let smp =
        TD.run_model ~policy:Engine.Eager ~tiles (cfg_of "xeon-x5550-smp") ~n
      in
      let gpu =
        TD.run_model ~policy:Engine.Heft ~tiles (cfg_of "xeon-2gpu") ~n
      in
      (* Forced offload (the execution group contains only the GPUs)
         exposes the raw transfer-bound crossover that HEFT otherwise
         dodges by keeping small problems on the CPUs. *)
      let gpu_only =
        TD.run_model ~policy:Engine.Heft ~tiles ~group:"gpus"
          (cfg_of "xeon-2gpu") ~n
      in
      Printf.printf "%-8d %13.6f %13.6f %13.6f %7.2fx %12.1f\n" n
        smp.stats.Engine.makespan gpu.stats.Engine.makespan
        gpu_only.stats.Engine.makespan
        (smp.stats.Engine.makespan /. gpu.stats.Engine.makespan)
        (gpu.stats.Engine.bytes_transferred /. 1e6))
    [ 256; 512; 1024; 2048; 4096; 8192 ];
  print_newline ();
  print_endline
    "expected shape: gpus-only loses to smp at small n (PCIe dominates) \
     and wins at large n — the offload crossover; the combined machine \
     under HEFT never loses because it declines to offload small \
     problems, and its advantage grows with n."

(* ------------------------------------------------------------------ *)
(* ABL-SCHED: scheduler ablation                                        *)

let sched () =
  header "ABL-SCHED  scheduling policies on the heterogeneous target (8192)";
  let n = 8192 in
  Printf.printf "%-10s %12s %12s %14s %12s\n" "policy" "time [s]" "util [%]"
    "bytes [MB]" "gpu tasks";
  List.iter
    (fun policy ->
      let r = TD.run_model ~policy ~tiles:8 (cfg_of "xeon-2gpu") ~n in
      let gpu_tasks =
        Array.fold_left
          (fun acc ws ->
            if ws.Engine.ws_worker.MC.w_arch = "gpu" then
              acc + ws.Engine.tasks_run
            else acc)
          0 r.stats.Engine.worker_stats
      in
      Printf.printf "%-10s %12.2f %12.1f %14.1f %12d\n"
        (Engine.policy_to_string policy)
        r.stats.Engine.makespan
        (100.0 *. Engine.utilization r.stats)
        (r.stats.Engine.bytes_transferred /. 1e6)
        gpu_tasks)
    [ Engine.Eager; Engine.Heft; Engine.Locality_ws; Engine.Random_place ];
  print_newline ();
  print_endline
    "expected shape: heft fastest (routes work to fast GPUs); random \
     slowest.";
  print_endline "\ncontrol on the homogeneous smp target:";
  List.iter
    (fun policy ->
      let r = TD.run_model ~policy ~tiles:8 (cfg_of "xeon-x5550-smp") ~n in
      Printf.printf "  %-10s %12.2f s\n"
        (Engine.policy_to_string policy)
        r.stats.Engine.makespan)
    [ Engine.Eager; Engine.Heft; Engine.Locality_ws; Engine.Random_place ]

(* ------------------------------------------------------------------ *)
(* ABL-TILE: tile-count sensitivity                                     *)

let tile () =
  header "ABL-TILE  tile-count sensitivity (8192, xeon-2gpu, HEFT)";
  Printf.printf "%-8s %8s %12s %12s %14s\n" "tiles" "tasks" "time [s]"
    "util [%]" "bytes [MB]";
  List.iter
    (fun tiles ->
      let r =
        TD.run_model ~policy:Engine.Heft ~tiles (cfg_of "xeon-2gpu") ~n:8192
      in
      Printf.printf "%-8d %8d %12.2f %12.1f %14.1f\n" tiles
        r.stats.Engine.tasks r.stats.Engine.makespan
        (100.0 *. Engine.utilization r.stats)
        (r.stats.Engine.bytes_transferred /. 1e6))
    [ 1; 2; 4; 8; 16; 32 ];
  print_newline ();
  print_endline
    "expected shape: tiles=1 serializes on one device; very fine tiles \
     pay transfer volume/overhead; the sweet spot sits in between."

(* ------------------------------------------------------------------ *)
(* ABL-PRESEL: pre-selection pruning across the zoo                     *)

let presel_variants =
  {|#pragma cascabel task : x86 : Idgemm : dgemm_seq : (A: read, B: read, C: readwrite)
void dgemm_seq(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : smp : Idgemm : dgemm_smp : (A: read, B: read, C: readwrite)
void dgemm_smp(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : Cuda : Idgemm : dgemm_cublas : (A: read, B: read, C: readwrite)
void dgemm_cublas(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : OpenCL : Idgemm : dgemm_clblas : (A: read, B: read, C: readwrite)
void dgemm_clblas(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : CellSDK : Idgemm : dgemm_cell : (A: read, B: read, C: readwrite)
void dgemm_cell(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : Master[Worker{ARCHITECTURE=gpu},Worker{ARCHITECTURE=gpu}] : Idgemm : dgemm_2gpu : (A: read, B: read, C: readwrite)
void dgemm_2gpu(double *A, double *B, double *C, int m, int n) { }
|}

let presel () =
  header
    "ABL-PRESEL  static pre-selection across the platform zoo (6 DGEMM \
     variants)";
  let unit_ =
    match Minic.Parser.parse presel_variants with
    | Ok u -> u
    | Error e -> failwith (Minic.Parser.error_to_string e)
  in
  Printf.printf "%-18s %6s %8s   %s\n" "platform" "kept" "pruned" "chosen";
  List.iter
    (fun (name, platform) ->
      let repo = Cascabel.Repository.create () in
      (match Cascabel.Repository.register_unit repo unit_ with
      | Ok _ -> ()
      | Error e -> failwith e);
      match Cascabel.Preselect.select repo platform with
      | Ok selections ->
          let stats = Cascabel.Preselect.stats selections in
          let chosen =
            List.filter_map
              (fun (s : Cascabel.Preselect.selection) ->
                Option.map (fun v -> v.Cascabel.Repository.v_name) s.chosen)
              selections
          in
          Printf.printf "%-18s %6d %8d   %s\n" name stats.kept_count
            stats.pruned_count
            (String.concat "," chosen)
      | Error e -> Printf.printf "%-18s error: %s\n" name e)
    Pdl_hwprobe.Zoo.all;
  print_newline ();
  print_endline
    "expected shape: cpu-only platforms keep only fallback(+smp); gpu \
     platforms add gpu variants (dual-gpu pattern only with two gpus); \
     the Cell blade keeps the CellSDK variant."

(* ------------------------------------------------------------------ *)
(* ABL-CHOL: dependency-rich DAG vs embarrassingly parallel            *)

let chol () =
  header
    "ABL-CHOL  tiled Cholesky 8192 (dependency DAG) across targets and \
     policies";
  Printf.printf "%-18s %-8s %10s %12s %12s\n" "platform" "policy" "tasks"
    "time [s]" "GFLOP/s";
  List.iter
    (fun (pf, policy) ->
      let r =
        Taskrt.Tiled_cholesky.run_model ~policy ~tiles:16 (cfg_of pf) ~n:8192
      in
      Printf.printf "%-18s %-8s %10d %12.2f %12.1f\n" pf
        (Engine.policy_to_string policy)
        r.stats.Engine.tasks r.stats.Engine.makespan r.gflops_effective)
    [
      ("xeon-single", Engine.Eager);
      ("xeon-x5550-smp", Engine.Eager);
      ("xeon-x5550-smp", Engine.Heft);
      ("xeon-2gpu", Engine.Eager);
      ("xeon-2gpu", Engine.Heft);
    ];
  print_newline ();
  print_endline
    "expected shape: speedups are smaller than DGEMM's at equal sizes — \
     the DAG critical path (POTRF chain) limits parallelism; the GPUs \
     still help on the TRSM/SYRK/GEMM bulk."

(* ------------------------------------------------------------------ *)
(* ENG: engine scheduling hot paths (real wall-clock, not virtual)     *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [n] independent tiny tasks through Eager's shared ready-queue: the
   pool fills while all workers are busy, so every completion kick
   re-scans it. *)
let eng_wide ?faults n =
  let cfg = cfg_of "xeon-2gpu" in
  let rt =
    Engine.create ~policy:Engine.Eager ~execute_kernels:false ?faults cfg
  in
  let cl = Taskrt.Codelet.noop ~name:"tiny" ~flops:1e6 ~archs:[ "cpu"; "gpu" ] in
  for _ = 1 to n do
    let h = Taskrt.Data.register_virtual ~rows:1 ~cols:8 () in
    Engine.submit rt cl [ (h, Taskrt.Codelet.RW) ]
  done;
  Engine.wait_all rt

(* [n] tasks whose input lives on gpu0's node: locality placement
   parks them all on one queue; the nine other workers drain it
   entirely through the steal path. *)
let eng_steal n =
  let cfg = cfg_of "xeon-2gpu" in
  let gpu0_node =
    (Array.to_list cfg.MC.workers
    |> List.find (fun w -> w.MC.w_name = "gpu0"))
      .MC.w_node
  in
  let rt = Engine.create ~policy:Engine.Locality_ws ~execute_kernels:false cfg in
  let cl = Taskrt.Codelet.noop ~name:"tiny" ~flops:1e6 ~archs:[ "cpu"; "gpu" ] in
  let hot = Taskrt.Data.register_virtual ~rows:1000 ~cols:1000 () in
  Taskrt.Data.write_at hot gpu0_node;
  for _ = 1 to n do
    let h = Taskrt.Data.register_virtual ~rows:1 ~cols:8 () in
    Engine.submit rt cl [ (hot, Taskrt.Codelet.R); (h, Taskrt.Codelet.RW) ]
  done;
  Engine.wait_all rt

(* [n]-task dependency chain: one ready task at a time. *)
let eng_chain n =
  let cfg = cfg_of "xeon-2gpu" in
  let rt = Engine.create ~policy:Engine.Eager ~execute_kernels:false cfg in
  let cl = Taskrt.Codelet.noop ~name:"tiny" ~flops:1e6 ~archs:[ "cpu"; "gpu" ] in
  let h = Taskrt.Data.register_virtual ~rows:1 ~cols:8 () in
  for _ = 1 to n do
    Engine.submit rt cl [ (h, Taskrt.Codelet.RW) ]
  done;
  Engine.wait_all rt

let eng () =
  header "ENG  engine scheduling micro-bench (10k tasks, real seconds)";
  Printf.printf "%-28s %10s %12s %12s\n" "workload" "tasks" "wall [s]"
    "tasks/ms";
  List.iter
    (fun (name, n, f) ->
      let stats, dt = wall (fun () -> f n) in
      Printf.printf "%-28s %10d %12.3f %12.1f\n" name stats.Engine.tasks dt
        (float_of_int n /. (dt *. 1e3)))
    [
      ("wide/eager-pool", 10_000, fun n -> eng_wide n);
      ("steal/locality-ws", 10_000, eng_steal);
      ("chain/eager", 10_000, eng_chain);
    ]

(* ------------------------------------------------------------------ *)
(* PAR: real multicore kernel scaling (domain pool, wall-clock)        *)

module DP = Kernels.Domain_pool
module Blas = Kernels.Blas
module Lapack = Kernels.Lapack
module Matrix = Kernels.Matrix

type par_row = {
  pr_kernel : string;
  pr_n : int;
  pr_domains : int;
  pr_seq_s : float;
  pr_wall_s : float;
  pr_gflops : float;
  pr_max_abs_diff : float;
}

let par_json path rows ~overhead_pct =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"par\",\n";
  Printf.fprintf oc "  \"recommended_domains\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"telemetry_overhead_pct\": %.2f,\n" overhead_pct;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"kernel\": %S, \"n\": %d, \"domains\": %d, \"seq_s\": %.6f, \
         \"wall_s\": %.6f, \"gflops\": %.3f, \"speedup\": %.3f, \
         \"max_abs_diff\": %g}%s\n"
        r.pr_kernel r.pr_n r.pr_domains r.pr_seq_s r.pr_wall_s r.pr_gflops
        (r.pr_seq_s /. r.pr_wall_s)
        r.pr_max_abs_diff
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* Best-of-[reps] timing: a single run can swing by 25% on a shared
   container (page faults, first-touch of packing buffers), which is
   noise the 1.2x cholesky regression guard below must not trip on. *)
let wall_min ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let r, dt = wall f in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let par_reps = 3

(* Wall-clock cost of the telemetry probes themselves: best-of-3
   packed DGEMM with telemetry off vs on.  Recorded in the BENCH json
   so probe-placement regressions show up in the artifacts; [kern]
   additionally guards the figure at 3%. *)
let telemetry_overhead_pct ?(n = 1024) () =
  let was_on = Obs.Config.on () in
  let a = Matrix.random ~seed:11 n n and b = Matrix.random ~seed:12 n n in
  let c = Matrix.create n n in
  let run () =
    Bigarray.Array1.fill c.Matrix.data 0.0;
    Blas.dgemm_packed a b c
  in
  let once enabled =
    Obs.Config.set_enabled enabled;
    let t0 = Unix.gettimeofday () in
    run ();
    Unix.gettimeofday () -. t0
  in
  (* Interleave off/on pairs so slow drift of the shared host (other
     tenants, thermal) hits both sides equally; the min over rounds
     then compares the best quiet window of each. *)
  ignore (once false);
  let off = ref infinity and on_ = ref infinity in
  for _ = 1 to 5 do
    off := Float.min !off (once false);
    on_ := Float.min !on_ (once true)
  done;
  Obs.Config.set_enabled was_on;
  100.0 *. (!on_ -. !off) /. !off

(* One kernel at one size: sequential reference, then one pooled run
   per domain count, verifying the pooled result is bit-identical. *)
let par_kernel ~kernel ~n ~domains ~flops ~seq ~pooled =
  let reference, seq_s = wall_min ~reps:par_reps seq in
  let seq_gflops = flops /. seq_s /. 1e9 in
  Printf.printf "%-10s %6d %9s %12.3f %12.1f %9s %14s\n" kernel n "seq" seq_s
    seq_gflops "" "";
  List.map
    (fun d ->
      (* Pool spawn/join stays outside the timed region: we are
         measuring kernel scaling, not domain startup. *)
      let result, wall_s =
        DP.with_pool ~num_domains:d (fun pool ->
            wall_min ~reps:par_reps (fun () -> pooled pool))
      in
      let diff = Matrix.max_abs_diff reference result in
      Printf.printf "%-10s %6d %9d %12.3f %12.1f %8.2fx %14g\n" kernel n d
        wall_s (flops /. wall_s /. 1e9) (seq_s /. wall_s) diff;
      {
        pr_kernel = kernel;
        pr_n = n;
        pr_domains = d;
        pr_seq_s = seq_s;
        pr_wall_s = wall_s;
        pr_gflops = flops /. wall_s /. 1e9;
        pr_max_abs_diff = diff;
      })
    domains

let par ?(sizes = [ 256; 512; 1024; 2048 ]) ?(domains = [ 1; 2; 4 ]) () =
  header
    "PAR  real multicore kernels: sequential vs domain pool (wall seconds)";
  Printf.printf "host: OCaml runtime recommends %d domain(s)\n\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-10s %6s %9s %12s %12s %9s %14s\n" "kernel" "n" "domains"
    "wall [s]" "GFLOP/s" "speedup" "max|diff|";
  let rows =
    List.concat_map
      (fun n ->
        let a = Matrix.random ~seed:1 n n and b = Matrix.random ~seed:2 n n in
        (* Output buffers are preallocated and reused across reps: a
           fresh 32 MB bigarray per run drags major-GC barriers into
           the timed region (every collection stops the world across
           all domains, parked pool workers included), and we are
           measuring kernel scaling, not allocator pacing. *)
        let c_seq = Matrix.create n n and c_par = Matrix.create n n in
        let zero dst = Bigarray.Array1.fill dst.Matrix.data 0.0 in
        let dgemm_rows =
          par_kernel ~kernel:"dgemm" ~n ~domains
            ~flops:(Blas.flops_dgemm n n n)
            ~seq:(fun () ->
              (* beta defaults to 1.0: reused buffers must be re-zeroed
                 or reps accumulate. *)
              zero c_seq;
              Blas.dgemm a b c_seq;
              c_seq)
            ~pooled:(fun pool ->
              zero c_par;
              Blas.dgemm ~pool a b c_par;
              c_par)
        in
        let spd = Lapack.random_spd ~seed:3 n in
        let m_seq = Matrix.create n n and m_par = Matrix.create n n in
        let reset dst = Bigarray.Array1.blit spd.Matrix.data dst.Matrix.data in
        let chol_rows =
          par_kernel ~kernel:"cholesky" ~n ~domains ~flops:(Lapack.flops_potrf n)
            ~seq:(fun () ->
              reset m_seq;
              Lapack.dpotrf m_seq;
              m_seq)
            ~pooled:(fun pool ->
              reset m_par;
              Lapack.dpotrf ~pool m_par;
              m_par)
        in
        dgemm_rows @ chol_rows)
      sizes
  in
  let bad = List.filter (fun r -> r.pr_max_abs_diff <> 0.0) rows in
  Printf.printf "\npooled == sequential bit-for-bit: %s\n"
    (if bad = [] then "yes (all rows)"
     else Printf.sprintf "NO (%d rows differ)" (List.length bad));
  (* Regression guard: the work- and oversubscription-gated Lapack
     panel updates must keep pooled Cholesky from ever losing badly to
     sequential again (the seed showed 0.19x at n=2048 with 4 domains
     on one core). *)
  let slow_chol =
    List.filter
      (fun r -> r.pr_kernel = "cholesky" && r.pr_wall_s > 1.2 *. r.pr_seq_s)
      rows
  in
  Printf.printf "pooled cholesky never > 1.2x slower than sequential: %s\n"
    (if slow_chol = [] then "yes (all rows)"
     else Printf.sprintf "NO (%d rows slower)" (List.length slow_chol));
  let overhead_pct = telemetry_overhead_pct () in
  Printf.printf "telemetry overhead (packed dgemm 1024, on vs off): %+.2f%%\n"
    overhead_pct;
  par_json "BENCH_par.json" rows ~overhead_pct;
  print_endline "wrote BENCH_par.json";
  if bad <> [] || slow_chol <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* KERN: DGEMM kernel variants (naive / blocked / packed)              *)

type kern_row = {
  kn_variant : string;
  kn_n : int;
  kn_wall_s : float;
  kn_gflops : float;
}

let kern_json path rows ratios ~overhead_pct =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"kern\",\n";
  Printf.fprintf oc "  \"telemetry_overhead_pct\": %.2f,\n" overhead_pct;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"variant\": %S, \"n\": %d, \"wall_s\": %.6f, \"gflops\": \
         %.3f}%s\n"
        r.kn_variant r.kn_n r.kn_wall_s r.kn_gflops
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"packed_over_blocked\": [\n";
  List.iteri
    (fun i (n, ratio) ->
      Printf.fprintf oc "    {\"n\": %d, \"ratio\": %.2f}%s\n" n ratio
        (if i = List.length ratios - 1 then "" else ","))
    ratios;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* Single-domain throughput of the three DGEMM variants.  The naive
   kernel is only run up to n = 512 (a 2048-cubed naive run costs a
   minute and teaches nothing new). *)
let kern ?(sizes = [ 256; 512; 1024; 2048 ]) () =
  header "KERN  DGEMM kernel variants, single domain (wall seconds)";
  Printf.printf "%-8s %10s %12s %12s %18s\n" "n" "variant" "wall [s]"
    "GFLOP/s" "packed/blocked";
  let mismatches = ref 0 in
  let rows, ratios =
    List.fold_left
      (fun (rows, ratios) n ->
        let a = Matrix.random ~seed:1 n n and b = Matrix.random ~seed:2 n n in
        let flops = Blas.flops_dgemm n n n in
        let time variant f =
          let c = Matrix.create n n in
          let (), dt = wall (fun () -> f a b c) in
          let row =
            {
              kn_variant = variant;
              kn_n = n;
              kn_wall_s = dt;
              kn_gflops = flops /. dt /. 1e9;
            }
          in
          Printf.printf "%-8d %10s %12.3f %12.2f\n" n variant dt row.kn_gflops;
          (row, c)
        in
        let naive_rows =
          if n <= 512 then
            [ fst (time "naive" (fun a b c -> Blas.dgemm_naive a b c)) ]
          else []
        in
        let blocked, c_blocked =
          time "blocked" (fun a b c -> Blas.dgemm_blocked a b c)
        in
        let packed, c_packed =
          time "packed" (fun a b c -> Blas.dgemm_packed a b c)
        in
        if not (Matrix.approx_equal c_blocked c_packed) then begin
          Printf.printf "n=%d: packed result DIVERGES from blocked\n" n;
          incr mismatches
        end;
        let ratio = packed.kn_gflops /. blocked.kn_gflops in
        Printf.printf "%-8s %10s %12s %12s %17.1fx\n" "" "" "" "" ratio;
        (rows @ naive_rows @ [ blocked; packed ], ratios @ [ (n, ratio) ]))
      ([], []) sizes
  in
  Printf.printf "\npacked ~= blocked everywhere (approx_equal): %s\n"
    (if !mismatches = 0 then "yes" else "NO");
  (* With telemetry on (--trace), also push the packed kernel through
     a 4-domain pool so the trace shows distinct per-domain lanes next
     to the single-domain variant runs. *)
  if Obs.Config.on () then
    DP.with_pool ~num_domains:4 (fun pool ->
        let n = 512 in
        let a = Matrix.random ~seed:7 n n and b = Matrix.random ~seed:8 n n in
        let c = Matrix.create n n in
        Blas.dgemm ~pool a b c);
  let overhead_pct = telemetry_overhead_pct () in
  Printf.printf "telemetry overhead (packed dgemm 1024, on vs off): %+.2f%%\n"
    overhead_pct;
  let overhead_bad = overhead_pct > 3.0 in
  if overhead_bad then
    Printf.printf "telemetry overhead guard (<= 3%%): NO (%.2f%%)\n"
      overhead_pct;
  kern_json "BENCH_kern.json" rows ratios ~overhead_pct;
  print_endline "wrote BENCH_kern.json";
  if !mismatches > 0 || overhead_bad then exit 1

(* Deterministic sub-second coverage of the packed kernel for the cram
   test: correctness across micro-tile edge shapes and the pooled
   bitwise-identity contract — no wall-clock output. *)
let kern_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  List.iter
    (fun (m, k, n) ->
      let a = Matrix.random ~seed:1 m k and b = Matrix.random ~seed:2 k n in
      let c1 = Matrix.random ~seed:3 m n in
      let c2 = Matrix.copy c1 and c3 = Matrix.copy c1 in
      Blas.dgemm_naive ~alpha:1.5 ~beta:(-0.5) a b c1;
      Blas.dgemm_packed ~alpha:1.5 ~beta:(-0.5) a b c2;
      Blas.dgemm_blocked ~alpha:1.5 ~beta:(-0.5) a b c3;
      check
        (Printf.sprintf "kern: packed ~= naive (%dx%dx%d)" m k n)
        (Matrix.approx_equal c1 c2);
      check
        (Printf.sprintf "kern: blocked ~= naive (%dx%dx%d)" m k n)
        (Matrix.approx_equal c1 c3))
    [ (1, 1, 1); (3, 5, 2); (7, 3, 9); (96, 64, 32); (130, 257, 139) ];
  List.iter
    (fun d ->
      DP.with_pool ~num_domains:d (fun pool ->
          let m = 300 in
          (* several MC row panels, so the pool genuinely splits *)
          let a = Matrix.random ~seed:4 m m and b = Matrix.random ~seed:5 m m in
          let c1 = Matrix.create m m and c2 = Matrix.create m m in
          Blas.dgemm_packed a b c1;
          Blas.dgemm_packed ~pool a b c2;
          check
            (Printf.sprintf "kern: packed pooled == sequential (%d domains)" d)
            (Matrix.max_abs_diff c1 c2 = 0.0)))
    [ 1; 2; 4 ];
  print_endline "kern: all checks passed"

(* ------------------------------------------------------------------ *)
(* SMOKE: tiny deterministic end-to-end pass for the cram test         *)

let smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  (* The pool machinery itself. *)
  DP.with_pool ~num_domains:4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      DP.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      check "domain_pool: every index visited exactly once"
        (Array.for_all (fun h -> h = 1) hits);
      (* Real kernels, pooled vs sequential, bit-identical. *)
      let m = 96 in
      let a = Matrix.random ~seed:1 m m and b = Matrix.random ~seed:2 m m in
      let c_seq = Matrix.create m m and c_par = Matrix.create m m in
      Blas.dgemm a b c_seq;
      Blas.dgemm ~pool a b c_par;
      check "dgemm: pooled == sequential (bitwise)"
        (Matrix.max_abs_diff c_seq c_par = 0.0);
      let c_naive = Matrix.create m m in
      Blas.dgemm_naive a b c_naive;
      check "dgemm: packed ~= naive" (Matrix.approx_equal c_seq c_naive);
      let c_blocked = Matrix.create m m in
      Blas.dgemm_blocked a b c_blocked;
      check "dgemm: blocked ~= naive" (Matrix.approx_equal c_blocked c_naive);
      let spd = Lapack.random_spd ~seed:3 m in
      let l_seq = Matrix.copy spd and l_par = Matrix.copy spd in
      Lapack.dpotrf l_seq;
      Lapack.dpotrf ~pool l_par;
      check "cholesky: pooled == sequential (bitwise)"
        (Matrix.max_abs_diff l_seq l_par = 0.0);
      check "cholesky: residual small"
        (Lapack.cholesky_residual ~a:spd ~l:l_seq < 1e-6);
      (* Every scheduling policy end-to-end with pooled kernels. *)
      let cfg = cfg_of "xeon-2gpu" in
      let expect = Matrix.create m m in
      Blas.dgemm a b expect;
      List.iter
        (fun policy ->
          let r = TD.run ~policy ~tiles:2 ~pool cfg ~a ~b in
          check
            (Printf.sprintf "sched %s: tiled dgemm correct (%d tasks)"
               (Engine.policy_to_string policy)
               r.TD.stats.Engine.tasks)
            (r.TD.stats.Engine.tasks = 4
            && Matrix.approx_equal (Option.get r.TD.c) expect))
        [ Engine.Eager; Engine.Heft; Engine.Locality_ws; Engine.Random_place ];
      let chol =
        Taskrt.Tiled_cholesky.run ~policy:Engine.Heft ~tiles:2 ~pool cfg spd
      in
      check "sched heft: tiled cholesky residual small"
        (Lapack.cholesky_residual ~a:spd ~l:(Option.get chol.Taskrt.Tiled_cholesky.l)
        < 1e-6));
  print_endline "smoke: all checks passed"

(* ------------------------------------------------------------------ *)
(* OBS: wall-clock telemetry demo and its deterministic smoke mode     *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Shared workload: pooled packed kernels (per-domain trace lanes,
   pack/micro-kernel phases) plus a simulated engine run with real
   kernels (exec spans tagged with the mapped PU and LogicGroup). *)
let obs_workload () =
  DP.with_pool ~num_domains:4 (fun pool ->
      let n = 300 in
      let a = Matrix.random ~seed:1 n n and b = Matrix.random ~seed:2 n n in
      let c = Matrix.create n n in
      Blas.dgemm ~pool a b c;
      let spd = Lapack.random_spd ~seed:3 128 in
      let l = Matrix.copy spd in
      Lapack.dpotrf ~pool l);
  let m = 96 in
  let a = Matrix.random ~seed:4 m m and b = Matrix.random ~seed:5 m m in
  ignore (TD.run ~policy:Engine.Heft ~tiles:2 (cfg_of "xeon-2gpu") ~a ~b)

let obs_exp () =
  header "OBS  wall-clock telemetry: spans, counters, latency quantiles";
  let was_on = Obs.Config.on () in
  Obs.Config.set_enabled true;
  Obs.Export.reset_all ();
  obs_workload ();
  print_string (Obs.Export.summary ());
  print_endline
    "\n(re-run with --trace obs.json for the Perfetto timeline, --metrics \
     for the Prometheus exposition)";
  Obs.Config.set_enabled was_on

let obs_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  (* Disabled telemetry must record nothing. *)
  Obs.Config.set_enabled false;
  Obs.Export.reset_all ();
  let m = 96 in
  let a = Matrix.random ~seed:1 m m and b = Matrix.random ~seed:2 m m in
  let c = Matrix.create m m in
  Blas.dgemm a b c;
  check "obs: disabled probes record nothing"
    (Obs.Span.events () = []
    && List.for_all (fun cnt -> Obs.Counter.value cnt = 0) (Obs.Counter.all ()));
  Obs.Config.set_enabled true;
  Obs.Export.reset_all ();
  obs_workload ();
  let events = Obs.Span.events () in
  let has name =
    List.exists (fun (e : Obs.Span.event) -> e.ev_name = name) events
  in
  check "obs: gemm pack/micro-kernel spans recorded"
    (has "pack_a" && has "pack_b" && has "micro_kernel");
  check "obs: cholesky panel/trailing spans recorded"
    (has "panel_factor" && has "trailing_update");
  check "obs: pool chunk spans recorded" (has "chunk");
  check "obs: distinct per-domain lanes (>= 2)"
    (List.length (Obs.Span.domains ()) >= 2);
  let exec_args =
    List.filter_map
      (fun (e : Obs.Span.event) ->
        if has_sub e.ev_name "exec:" then Some e.ev_args else None)
      events
  in
  check "obs: engine exec spans tagged with PU and group"
    (exec_args <> []
    && List.for_all
         (fun args -> has_sub args "pu=" && has_sub args "group=")
         exec_args);
  check "obs: pool chunk counter counted"
    (List.exists
       (fun cnt ->
         Obs.Counter.name cnt = "pool_chunks" && Obs.Counter.value cnt > 0)
       (Obs.Counter.all ()));
  check "obs: per-codelet latency quantiles ordered"
    (let hs =
       List.filter (fun h -> Obs.Histogram.count h > 0) (Obs.Histogram.all ())
     in
     hs <> []
     && List.for_all
          (fun h ->
            let p50 = Obs.Histogram.percentile h 50.0
            and p95 = Obs.Histogram.percentile h 95.0
            and p99 = Obs.Histogram.percentile h 99.0 in
            p50 <= p95 && p95 <= p99
            && p99 <= Obs.Histogram.max_value h +. 1e-12)
          hs);
  Obs.Export.write_chrome "obs_trace.json";
  (match Obs.Json.parse (read_file "obs_trace.json") with
  | Error e ->
      Printf.printf "obs_trace.json: %s\n" e;
      check "obs: trace file parses as JSON" false
  | Ok doc ->
      check "obs: trace file parses as JSON" true;
      let evs =
        Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list
      in
      check "obs: traceEvents is a non-empty array"
        (match evs with Some (_ :: _) -> true | _ -> false));
  let prom = Obs.Export.prometheus () in
  check "obs: prometheus exposition non-empty"
    (String.length prom > 0 && has_sub prom "# TYPE");
  check "obs: summary mentions span rings"
    (has_sub (Obs.Export.summary ()) "span rings");
  Obs.Config.set_enabled false;
  print_endline "obs: all checks passed"

(* ------------------------------------------------------------------ *)
(* FAULTS: fault injection, retry, quarantine, PDL-driven failover     *)

module Fault = Taskrt.Fault

let total_run (stats : Engine.stats) =
  Array.fold_left (fun acc ws -> acc + ws.Engine.tasks_run) 0 stats.worker_stats

(* Crash gpu0 halfway through a heterogeneous HEFT run with a 30%
   transient rate on top.  Failed attempts never execute their
   kernel, so the faulty result must be bit-identical to the clean
   one — this is the headline robustness claim. *)
let faults_crash_scenario ~n ~tiles =
  let cfg = cfg_of "xeon-2gpu" in
  let a = Matrix.random ~seed:41 n n and b = Matrix.random ~seed:42 n n in
  let clean = TD.run ~policy:Engine.Heft ~tiles cfg ~a ~b in
  let mid = clean.TD.stats.Engine.makespan /. 2.0 in
  let faults =
    {
      Fault.none with
      Fault.seed = 7;
      transient_rate = 0.3;
      retries = 12;
      quarantine_after = 0;
      events = [ Fault.Crash { pu = "gpu0"; at = mid } ];
    }
  in
  let faulty = TD.run ~policy:Engine.Heft ~tiles ~faults cfg ~a ~b in
  let diff =
    Matrix.max_abs_diff (Option.get clean.TD.c) (Option.get faulty.TD.c)
  in
  (clean, faulty, diff)

(* Virtual makespan as a function of the transient rate (model runs,
   so arbitrarily large problems simulate in milliseconds). *)
let faults_rate_sweep () =
  List.map
    (fun rate ->
      let faults =
        {
          Fault.none with
          Fault.seed = 11;
          transient_rate = rate;
          retries = 20;
          quarantine_after = 0;
        }
      in
      let r =
        TD.run_model ~policy:Engine.Heft ~tiles:8 ~faults (cfg_of "xeon-2gpu")
          ~n:2048
      in
      (rate, r))
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

(* The fault layer must be pay-for-what-you-use: a zero-rate,
   zero-event spec must not perturb the virtual schedule at all... *)
let faults_virtual_overhead_pct () =
  let run faults =
    (TD.run_model ~policy:Engine.Heft ~tiles:8 ?faults (cfg_of "xeon-2gpu")
       ~n:2048)
      .TD.stats.Engine.makespan
  in
  let base = run None and guarded = run (Some Fault.none) in
  100.0 *. Float.abs (guarded -. base) /. base

(* ... and must stay under 2% wall-clock on the scheduling hot path.
   Run-to-run swing of [eng_wide] on a shared single-core host is up
   to ~10% — far above the effect being guarded — and the noise is
   bursty, so comparing the global minima of two separated sample
   sets still misattributes a burst to one arm.  Instead each round
   measures both arms back to back (order alternating) and yields one
   paired ratio; a single quiet round is then enough, and contention
   noise can only inflate the estimate, never deflate it. *)
let faults_wall_overhead_pct () =
  let once faults =
    let _, dt = wall (fun () -> eng_wide ?faults 20_000) in
    dt
  in
  ignore (once None);
  ignore (once (Some Fault.none));
  let best = ref infinity in
  for round = 1 to 7 do
    let off, on_ =
      if round mod 2 = 0 then
        let off = once None in
        (off, once (Some Fault.none))
      else
        let on_ = once (Some Fault.none) in
        (once None, on_)
    in
    best := Float.min !best (100.0 *. (on_ -. off) /. off)
  done;
  !best

let faults_json path ~clean ~faulty ~diff ~sweep ~virtual_overhead_pct
    ~wall_overhead_pct =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"faults\",\n";
  Printf.fprintf oc "  \"virtual_overhead_pct\": %.4f,\n" virtual_overhead_pct;
  Printf.fprintf oc "  \"wall_overhead_pct\": %.2f,\n" wall_overhead_pct;
  let cs = (clean : TD.result).TD.stats and fs = (faulty : TD.result).TD.stats in
  Printf.fprintf oc
    "  \"crash_scenario\": {\"tasks\": %d, \"clean_makespan_s\": %.6f, \
     \"faulty_makespan_s\": %.6f, \"failures_injected\": %d, \"retries\": \
     %d, \"reassigned\": %d, \"abandoned\": %d, \"quarantined\": [%s], \
     \"max_abs_diff\": %g},\n"
    fs.Engine.tasks cs.Engine.makespan fs.Engine.makespan
    fs.Engine.failures_injected fs.Engine.retries fs.Engine.reassigned
    fs.Engine.abandoned
    (String.concat ", "
       (List.map (Printf.sprintf "%S") fs.Engine.quarantined))
    diff;
  Printf.fprintf oc "  \"rate_sweep\": [\n";
  List.iteri
    (fun i (rate, (r : TD.result)) ->
      Printf.fprintf oc
        "    {\"rate\": %.2f, \"makespan_s\": %.6f, \"failures\": %d, \
         \"retries\": %d}%s\n"
        rate r.TD.stats.Engine.makespan r.TD.stats.Engine.failures_injected
        r.TD.stats.Engine.retries
        (if i = 4 then "" else ","))
    sweep;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let faults_exp () =
  header
    "FAULTS  crash + transient injection: retry, quarantine, bit-identical \
     results";
  let violations = ref 0 in
  let guard name ok =
    Printf.printf "%-56s %s\n" name (if ok then "ok" else "VIOLATION");
    if not ok then incr violations
  in
  let clean, faulty, diff = faults_crash_scenario ~n:192 ~tiles:6 in
  let cs = clean.TD.stats and fs = faulty.TD.stats in
  Printf.printf
    "crash gpu0 @ %.6fs + 30%% transients on %d tasks:\n\
    \  makespan %.6fs -> %.6fs, %d failures, %d retries, %d reassigned\n\
    \  quarantined: %s\n"
    (cs.Engine.makespan /. 2.0)
    fs.Engine.tasks cs.Engine.makespan fs.Engine.makespan
    fs.Engine.failures_injected fs.Engine.retries fs.Engine.reassigned
    (String.concat ", " fs.Engine.quarantined);
  guard "all tasks completed despite the faults"
    (total_run fs = fs.Engine.tasks && fs.Engine.abandoned = 0);
  guard "faulty result bit-identical to clean run" (diff = 0.0);
  guard ">= 10 transient failures injected" (fs.Engine.failures_injected >= 10);
  guard "crashed gpu ends the run quarantined"
    (List.mem "gpu0" fs.Engine.quarantined);
  let sweep = faults_rate_sweep () in
  Printf.printf "\n%-8s %14s %10s %10s\n" "rate" "makespan [s]" "failures"
    "retries";
  List.iter
    (fun (rate, (r : TD.result)) ->
      Printf.printf "%-8.2f %14.6f %10d %10d\n" rate
        r.TD.stats.Engine.makespan r.TD.stats.Engine.failures_injected
        r.TD.stats.Engine.retries)
    sweep;
  (match sweep with
  | (_, r0) :: rest ->
      guard "makespan grows monotonically with the rate"
        (List.for_all
           (fun (_, (r : TD.result)) ->
             r.TD.stats.Engine.makespan
             >= r0.TD.stats.Engine.makespan -. 1e-12)
           rest)
  | [] -> ());
  let virtual_overhead_pct = faults_virtual_overhead_pct () in
  let wall_overhead_pct = faults_wall_overhead_pct () in
  Printf.printf "\nzero-fault overhead: %.4f%% virtual, %.2f%% wall (20k \
                 tasks, best of 7)\n"
    virtual_overhead_pct wall_overhead_pct;
  guard "zero-fault virtual makespan within 2%" (virtual_overhead_pct <= 2.0);
  guard "zero-fault wall overhead within 2%" (wall_overhead_pct <= 2.0);
  faults_json "BENCH_faults.json" ~clean ~faulty ~diff ~sweep
    ~virtual_overhead_pct ~wall_overhead_pct;
  print_endline "wrote BENCH_faults.json";
  if !violations > 0 then exit 1

(* A task pinned to the gpus group whose gpus all crash: the runtime
   re-runs Cascabel pre-selection against the degraded PDL view and
   the x86 variant takes over on the cpus. *)
let faults_failover_program =
  {|#define N 64

#pragma cascabel task : x86 : Iscale : scale_seq : (A: readwrite)
void scale(double *A, int n)
{
  for (int i = 0; i < n; i++)
    A[i] = A[i] * 2.0 + 1.0;
}

#pragma cascabel task : Cuda : Iscale : scale_gpu : (A: readwrite)
void scale_cuda(double *A, int n)
{
  for (int i = 0; i < n; i++)
    A[i] = A[i] * 2.0 + 1.0;
}

int main(void)
{
  double *A = malloc(N * sizeof(double));
  for (int i = 0; i < N; i++)
    A[i] = i;
  #pragma cascabel execute Iscale : gpus (A:BLOCK:n)
  scale(A, N);
  double sum = 0.0;
  for (int i = 0; i < N; i++)
    sum += A[i];
  printf("sum=%g\n", sum);
  return 0;
}
|}

let faults_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  (* Spec grammar round-trips. *)
  (match Fault.parse "seed=7,transient=0.2,retries=5,crash=gpu0@0.5" with
  | Error _ -> check "faults: spec parses and round-trips" false
  | Ok f ->
      check "faults: spec parses and round-trips"
        (Fault.parse (Fault.to_string f) = Ok f));
  (* Transient failures retry to completion (virtual time). *)
  let cfg = cfg_of "xeon-x5550-smp" in
  (let faults =
     { Fault.none with Fault.transient_rate = 1.0; max_transient = 2; retries = 5 }
   in
   let rt = Engine.create ~policy:Engine.Eager ~faults cfg in
   let cl = Taskrt.Codelet.noop ~name:"unit" ~flops:9.5e9 ~archs:[ "cpu" ] in
   let h = Taskrt.Data.register_matrix (Matrix.create 1 1) in
   Engine.submit rt cl [ (h, Taskrt.Codelet.RW) ];
   let stats = Engine.wait_all rt in
   check "faults: transient retries complete the task"
     (total_run stats = 1
     && stats.Engine.failures_injected = 2
     && stats.Engine.retries = 2));
  (* A mid-run crash reassigns the in-flight task. *)
  (let faults =
     {
       Fault.none with
       Fault.events = [ Fault.Crash { pu = "cpu-cores#0"; at = 0.5 } ];
     }
   in
   let rt = Engine.create ~policy:Engine.Eager ~faults cfg in
   let cl = Taskrt.Codelet.noop ~name:"unit" ~flops:9.5e9 ~archs:[ "cpu" ] in
   for _ = 1 to 8 do
     let h = Taskrt.Data.register_matrix (Matrix.create 1 1) in
     Engine.submit rt cl [ (h, Taskrt.Codelet.RW) ]
   done;
   let stats = Engine.wait_all rt in
   check "faults: crash mid-run reassigns and completes"
     (total_run stats = 8
     && stats.Engine.reassigned = 1
     && List.mem "cpu-cores#0" stats.Engine.quarantined));
  (* The headline claim at smoke size. *)
  (let _, faulty, diff = faults_crash_scenario ~n:96 ~tiles:4 in
   check "faults: dgemm bit-identical under crash + transients"
     (total_run faulty.TD.stats = faulty.TD.stats.Engine.tasks
     && faulty.TD.stats.Engine.failures_injected >= 1
     && diff = 0.0));
  (* An exhausted retry budget surfaces as a structured error. *)
  (let faults = { Fault.none with Fault.transient_rate = 1.0; retries = 0 } in
   let rt = Engine.create ~faults cfg in
   let cl = Taskrt.Codelet.noop ~name:"doomed" ~flops:1e9 ~archs:[ "cpu" ] in
   let h = Taskrt.Data.register_matrix (Matrix.create 1 1) in
   Engine.submit rt cl [ (h, Taskrt.Codelet.RW) ];
   match Engine.wait_all rt with
   | _ -> check "faults: exhausted budget reported stuck" false
   | exception Engine.Stuck [ st ] ->
       check "faults: exhausted budget reported stuck"
         (st.Engine.st_state = "failed")
   | exception Engine.Stuck _ ->
       check "faults: exhausted budget reported stuck" false);
  (* Zero-rate layer changes nothing, bit for bit. *)
  check "faults: zero-rate layer is bit-identical"
    (let run faults =
       (TD.run_model ~policy:Engine.Heft ~tiles:4 ?faults
          (cfg_of "xeon-2gpu") ~n:256)
         .TD.stats.Engine.makespan
     in
     run None = run (Some Fault.none));
  (* PDL-driven failover: both gpus crash before the pinned tasks can
     finish; pre-selection re-runs on the degraded platform view and
     the cpu variant completes the program. *)
  (let faults =
     {
       Fault.none with
       Fault.events =
         [
           Fault.Crash { pu = "gpu0"; at = 1e-6 };
           Fault.Crash { pu = "gpu1"; at = 2e-6 };
         ];
     }
   in
   let repo = Cascabel.Repository.create () in
   let unit_ =
     match Minic.Parser.parse faults_failover_program with
     | Ok u -> u
     | Error e ->
         prerr_endline (Minic.Parser.error_to_string e);
         exit 1
   in
   match
     Cascabel.Runnable.run ~policy:Engine.Heft ~faults
       ~trace:"faults_trace.json" ~repo
       ~platform:(Option.get (Pdl_hwprobe.Zoo.find "xeon-2gpu"))
       unit_
   with
   | Error e ->
       Printf.printf "failover run failed: %s\n" e;
       check "faults: gpu crash fails over to cpu variant" false
   | Ok r ->
       check "faults: gpu crash fails over to cpu variant"
         (r.Cascabel.Runnable.exit_code = 0
         && r.Cascabel.Runnable.stdout = "sum=4096\n");
       check "faults: failover recorded in the report log"
         (r.Cascabel.Runnable.failover_log <> []
         && List.for_all
              (fun l -> has_sub l "degraded")
              r.Cascabel.Runnable.failover_log);
       check "faults: crashed gpus quarantined"
         (List.mem "gpu0" r.Cascabel.Runnable.stats.Engine.quarantined
         && List.mem "gpu1" r.Cascabel.Runnable.stats.Engine.quarantined);
       let trace = read_file "faults_trace.json" in
       check "faults: trace carries the fault lane"
         (has_sub trace "\"faults\"" && has_sub trace "\"crash\""));
  print_endline "faults: all checks passed"

(* ------------------------------------------------------------------ *)
(* TUNE: measurement-driven cost models + GEMM block autotuning        *)

module GT = Tune.Gemm_tune
module GK = Kernels.Gemm_kernel

(* A deliberately mis-declared platform: the descriptor still
   advertises the GPUs' full DGEMM_THROUGHPUT, but the charged rate is
   [tune_skew] times lower — the situation dmda-style calibration
   exists for. *)
let tune_skew = 4.0

let tune_true_gflops cfg =
  Array.to_list cfg.MC.workers
  |> List.filter_map (fun (w : MC.worker) ->
         if w.MC.w_arch = "gpu" then
           Some (w.MC.w_name, w.MC.w_gflops /. tune_skew)
         else None)

(* Static HEFT trusts the (wrong) declared speeds; calibrated HEFT
   schedules with the models learned from [passes] prior runs feeding
   the store.  Everything is virtual time, so the comparison is exact
   and deterministic. *)
let tune_sched ~n ~tiles ~passes =
  let platform = Option.get (Pdl_hwprobe.Zoo.find "xeon-2gpu") in
  let cfg = MC.of_platform_exn platform in
  let true_gflops = tune_true_gflops cfg in
  let hash = Pdl.Codec.descriptor_hash platform in
  let static =
    (TD.run_model ~policy:Engine.Heft ~tiles ~true_gflops cfg ~n).TD.stats
      .Engine.makespan
  in
  let store = Tune.Store.create ~pdl_hash:hash ~platform:"xeon-2gpu" () in
  for _ = 1 to passes do
    ignore
      (TD.run_model ~policy:Engine.Heft ~tiles ~true_gflops ~tune:store cfg
         ~n)
  done;
  let learned =
    (TD.run_model ~policy:Engine.Heft ~tiles ~true_gflops ~tune:store cfg ~n)
      .TD.stats.Engine.makespan
  in
  (static, learned, store)

let tune_json path ~hash ~static_s ~learned_s ~improvement_pct ~samples
    ~sched_ok (g : GT.result) =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"tune\",\n";
  Printf.fprintf oc "  \"pdl_hash\": %S,\n" hash;
  Printf.fprintf oc
    "  \"sched\": {\"platform\": \"xeon-2gpu\", \"skew\": %.1f, \
     \"static_makespan_s\": %.6f, \"learned_makespan_s\": %.6f, \
     \"improvement_pct\": %.1f, \"samples\": %d, \"guard_ok\": %b},\n"
    tune_skew static_s learned_s improvement_pct samples sched_ok;
  Printf.fprintf oc
    "  \"gemm\": {\n    \"best\": %S,\n    \"best_gflops\": %.2f,\n    \
     \"guard_ratio\": %.2f,\n    \"guard_ok\": %b,\n    \"sizes\": [\n"
    (GT.blocking_to_string g.best)
    g.best_gflops GT.guard_ratio g.guard_ok;
  let pairs = List.combine g.baseline g.winner in
  List.iteri
    (fun i ((n, base_s), (_, win_s)) ->
      Printf.fprintf oc
        "      {\"n\": %d, \"baseline_s\": %.6f, \"winner_s\": %.6f, \
         \"ratio\": %.3f}%s\n"
        n base_s win_s (win_s /. base_s)
        (if i = List.length pairs - 1 then "" else ","))
    pairs;
  Printf.fprintf oc "    ]\n  }\n}\n";
  close_out oc

let tune () =
  header "TUNE  measurement-driven cost models (dmda) + GEMM autotuning";
  (* (a) Scheduling: learned time models vs wrong declared speeds. *)
  let n = 8192 and tiles = 8 and passes = 3 in
  Printf.printf
    "dgemm %d, %dx%d tiles on xeon-2gpu with GPUs actually %.0fx slower \
     than declared\n\n"
    n tiles tiles tune_skew;
  let static_s, learned_s, store = tune_sched ~n ~tiles ~passes in
  let improvement_pct = 100.0 *. (1.0 -. (learned_s /. static_s)) in
  let sched_ok = learned_s <= static_s *. 0.95 in
  Printf.printf "%-28s %12s\n" "scheduler" "makespan [s]";
  Printf.printf "%-28s %12.3f\n" "heft/static (declared)" static_s;
  Printf.printf "%-28s %12.3f\n" "heft/calibrated (learned)" learned_s;
  Printf.printf "improvement %.1f%% (guard >= 5%%): %s   [%d samples]\n"
    improvement_pct
    (if sched_ok then "yes" else "NO")
    (Tune.Store.total_samples store);
  (* (b) GEMM blocking autotuning on the real packed kernel. *)
  print_newline ();
  let g : GT.result = GT.search () in
  let sizes = GT.default_sizes in
  Printf.printf "%-32s" "blocking (finalists)";
  List.iter (fun n -> Printf.printf " %10s" (Printf.sprintf "n=%d [s]" n)) sizes;
  print_newline ();
  List.iter
    (fun (t : GT.timing) ->
      Printf.printf "%-32s" (GT.blocking_to_string t.t_blocking);
      List.iter (fun (_, s) -> Printf.printf " %10.3f" s) t.t_secs;
      print_newline ())
    g.table;
  Printf.printf
    "\nwinner %s, %.1f GFLOP/s at n=%d; guard (<= %.2fx default per size): \
     %s\n"
    (GT.blocking_to_string g.best)
    g.best_gflops
    (List.fold_left max 0 sizes)
    GT.guard_ratio
    (if g.guard_ok then "yes" else "NO");
  let hash = Tune.Store.pdl_hash store in
  tune_json "BENCH_tune.json" ~hash ~static_s ~learned_s ~improvement_pct
    ~samples:(Tune.Store.total_samples store) ~sched_ok g;
  print_endline "wrote BENCH_tune.json";
  if not (sched_ok && g.guard_ok) then exit 1

(* Deterministic coverage of the whole calibration path for the cram
   test: no wall-clock numbers in the output. *)
let tune_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  (* Learned models beat wrong declared speeds — virtual, exact. *)
  let static_s, learned_s, store = tune_sched ~n:8192 ~tiles:8 ~passes:3 in
  check "tune: calibrated heft beats static on skewed target"
    (learned_s < static_s);
  check "tune: improvement meets the 5% guard"
    (learned_s <= static_s *. 0.95);
  check "tune: store collected samples" (Tune.Store.total_samples store > 0);
  (* Reruns of the same experiment are bit-identical. *)
  let s2, l2, _ = tune_sched ~n:8192 ~tiles:8 ~passes:3 in
  check "tune: cold rerun bit-identical (static, learned)"
    (s2 = static_s && l2 = learned_s);
  (* Persistence round-trip in a temp dir; corruption never crashes. *)
  let dir = Filename.temp_file "tune_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Tune.Store.save ~dir store;
  let loaded, warn =
    Tune.Store.load ~dir
      ~pdl_hash:(Tune.Store.pdl_hash store)
      ~platform:(Tune.Store.platform store)
      ()
  in
  check "tune: store round-trips without warning"
    (warn = None
    && Tune.Store.to_json_string loaded = Tune.Store.to_json_string store);
  let store_path = Tune.Store.path ~dir store in
  let oc = open_out store_path in
  output_string oc "{ \"version\": 1, \"cells\": [ trunca";
  close_out oc;
  let cold, warn2 =
    Tune.Store.load ~dir
      ~pdl_hash:(Tune.Store.pdl_hash store)
      ~platform:(Tune.Store.platform store)
      ()
  in
  check "tune: corrupt store ignored with a warning"
    (warn2 <> None && Tune.Store.total_samples cold = 0);
  let alt_hash = "deadbeefdeadbeef" in
  let alt = Filename.concat dir (Tune.Store.filename ~pdl_hash:alt_hash) in
  let oc = open_out alt in
  output_string oc (Tune.Store.to_json_string store);
  close_out oc;
  let cold2, warn3 =
    Tune.Store.load ~dir ~pdl_hash:alt_hash ~platform:"other" ()
  in
  check "tune: hash-mismatched store ignored with a warning"
    (warn3 <> None && Tune.Store.total_samples cold2 = 0);
  Sys.remove store_path;
  Sys.remove alt;
  Unix.rmdir dir;
  (* Warm-store execution is bit-identical to a cold run: placement
     may differ, results must not. *)
  (let a = Matrix.random ~seed:11 96 96 and b = Matrix.random ~seed:12 96 96 in
   let cfg = cfg_of "xeon-2gpu" in
   let cold_c =
     Option.get (TD.run ~policy:Engine.Heft ~tiles:2 cfg ~a ~b).TD.c
   in
   let wstore = Tune.Store.create ~pdl_hash:"smoke" ~platform:"xeon-2gpu" () in
   ignore (TD.run ~policy:Engine.Heft ~tiles:2 ~tune:wstore cfg ~a ~b);
   let warm_c =
     Option.get (TD.run ~policy:Engine.Heft ~tiles:2 ~tune:wstore cfg ~a ~b).TD.c
   in
   check "tune: warm-store dgemm bit-identical to cold"
     (Matrix.max_abs_diff cold_c warm_c = 0.0));
  (* The GEMM search machinery, pinned to one candidate so the
     outcome is deterministic. *)
  let g : GT.result =
    GT.search ~sizes:[ 96 ] ~screen_size:96 ~reps:1
      ~candidates:[ GK.default_blocking ] ()
  in
  check "tune: single-candidate search keeps the default"
    (g.best = GK.default_blocking && g.guard_ok);
  Tune.Store.set_gemm_config store
    (GT.cfg_of_blocking ~gflops:g.best_gflops g.best);
  check "tune: stored blocking applies" (GT.apply store);
  check "tune: applied blocking is current"
    (GK.current_blocking () = GK.default_blocking);
  (* A non-default blocking and the portable micro-kernel still
     compute the right answer through Blas.dgemm_packed. *)
  (let a = Matrix.random ~seed:21 130 257
   and b = Matrix.random ~seed:22 257 139 in
   let c1 = Matrix.random ~seed:23 130 139 in
   let c2 = Matrix.copy c1 and c3 = Matrix.copy c1 in
   Blas.dgemm_naive ~alpha:1.5 ~beta:(-0.5) a b c1;
   GK.set_blocking { GK.bmc = 96; bkc = 72; bnc = 120; bmicro = GK.Avx2 };
   Blas.dgemm_packed ~alpha:1.5 ~beta:(-0.5) a b c2;
   GK.set_blocking { GK.bmc = 96; bkc = 72; bnc = 120; bmicro = GK.Portable };
   Blas.dgemm_packed ~alpha:1.5 ~beta:(-0.5) a b c3;
   GK.reset_blocking ();
   check "tune: odd blocking ~= naive (130x257x139)"
     (Matrix.approx_equal c1 c2);
   check "tune: portable micro-kernel ~= naive" (Matrix.approx_equal c1 c3));
  print_endline "tune: all checks passed"

(* ------------------------------------------------------------------ *)
(* CC: the native executor — interpreted vs pooled kernels vs compiled *)

(* The paper's case study, examples/programs/dgemm.c (embedded at
   build time), at size [n]: one annotated source, three executors.
   The interpreted and compiled columns run the exact same translated
   program through Runnable; only the codelet body's executor differs.
   Both variants call the blas_dgemm library kernel, so the interpreted
   column runs it from the interpreter and the compiled one in process
   from the native dispatch. The pooled column is the hand-built
   Tiled_dgemm task graph over the same packed kernel on a domain
   pool, the reference for what the library achieves. *)
let cc_program ~n =
  let src = Dgemm_source.text and sub = "#define N 32" in
  let ls = String.length sub in
  let rec find i =
    if i + ls > String.length src then failwith ("dgemm.c has no " ^ sub)
    else if String.sub src i ls = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i
  ^ Printf.sprintf "#define N %d" n
  ^ String.sub src (i + ls) (String.length src - i - ls)

(* Parse, translate and lower the driver for xeon-2gpu. *)
let cc_emitted ~n =
  let platform = Option.get (Pdl_hwprobe.Zoo.find "xeon-2gpu") in
  let repo = Cascabel.Repository.create () in
  let unit_ =
    match Minic.Parser.parse (cc_program ~n) with
    | Ok u -> u
    | Error e ->
        prerr_endline (Minic.Parser.error_to_string e);
        exit 1
  in
  let out =
    match Cascabel.Codegen.translate ~repo ~platform unit_ with
    | Ok o -> o
    | Error msgs ->
        List.iter prerr_endline msgs;
        exit 1
  in
  match Cascabel.Emit_c.emit out with
  | Ok em -> (repo, platform, unit_, em)
  | Error e ->
      prerr_endline ("emit-c: " ^ e);
      exit 1

let cc_run ?native ~repo ~platform unit_ =
  wall (fun () ->
      match
        Cascabel.Runnable.run ~policy:Engine.Heft ~fuel:max_int ?native ~repo
          ~platform unit_
      with
      | Ok r -> r
      | Error e ->
          prerr_endline e;
          exit 1)

(* The pooled-kernel reference: same fill as the driver, real packed
   kernels through the tiled task graph on a 4-domain pool. *)
let cc_pool_seconds ~n =
  let a = Matrix.create n n and b = Matrix.create n n in
  for i = 0 to (n * n) - 1 do
    Bigarray.Array1.set a.Matrix.data i (1.0 +. float_of_int (i mod 9));
    Bigarray.Array1.set b.Matrix.data i (0.5 *. float_of_int (i mod 11))
  done;
  let cfg = cfg_of "xeon-2gpu" in
  DP.with_pool ~num_domains:4 (fun pool ->
      snd
        (wall (fun () ->
             TD.run ~policy:Engine.Heft ~tiles:4 ~pool cfg ~a ~b)))

(* Timed runs per executor and size; the executors take turns so a
   slow minute on the host hits all three alike. *)
let cc_samples = 7

(* Median and spread, (q3 - q1) / median, of a sample list. *)
let cc_stats xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let med = a.(n / 2) in
  (med, (a.(3 * n / 4) -. a.(n / 4)) /. med)

type cc_row = {
  cc_n : int;
  cc_interp : float * float;  (** median, spread *)
  cc_pool : float * float;
  cc_native : float * float;
  cc_ratio : float;  (** compiled / pooled, medians *)
  cc_native_tasks : int;
  cc_identical : bool;
}

(* The guard: in the paper's pipeline, the translated program runs at
   library speed, within 1.5x of the pooled kernel at n >= 1024. *)
let cc_guard_max = 1.5

let cc_host () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines
      |> List.find (String.starts_with ~prefix:"model name")
      |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
    with _ -> "unknown"
  in
  Printf.sprintf "{\"nproc\": %d, \"cpu\": %S}"
    (Domain.recommended_domain_count ())
    cpu

let cc_json path rows ~guard_n ~guard_ratio ~guard_ok =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"cc\",\n";
  Printf.fprintf oc "  \"platform\": \"xeon-2gpu\",\n";
  Printf.fprintf oc "  \"host\": %s,\n" (cc_host ());
  Printf.fprintf oc "  \"samples\": %d,\n" cc_samples;
  Printf.fprintf oc
    "  \"guard\": {\"n\": %d, \"max_ratio\": %.1f, \"ratio\": %.2f, \"ok\": \
     %b},\n"
    guard_n cc_guard_max guard_ratio guard_ok;
  Printf.fprintf oc "  \"sizes\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"n\": %d, \"interpreted_s\": %.6f, \"pooled_s\": %.6f, \
         \"compiled_s\": %.6f, \"spread\": {\"interpreted\": %.3f, \
         \"pooled\": %.3f, \"compiled\": %.3f}, \"ratio\": %.2f, \
         \"native_tasks\": %d, \"bit_identical\": %b}%s\n"
        r.cc_n (fst r.cc_interp) (fst r.cc_pool) (fst r.cc_native)
        (snd r.cc_interp) (snd r.cc_pool) (snd r.cc_native) r.cc_ratio
        r.cc_native_tasks r.cc_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let cc ?(sizes = [ 256; 512; 1024 ]) () =
  header
    "CC  native executor: interpreted vs pooled kernels vs compiled (wall \
     seconds, medians)";
  (* Toolchain probe first — no cc on PATH is a graceful skip, the
     same contract as cascabelc's exit code 3. *)
  let _, _, _, em0 = cc_emitted ~n:32 in
  match Cascabel.Native.build em0 with
  | Cascabel.Native.No_toolchain msg ->
      Printf.printf "no C toolchain (%s); skipping the CC experiment\n" msg
  | Cascabel.Native.Compile_error msg ->
      Printf.eprintf "native compile failed: %s\n" msg;
      exit 1
  | Cascabel.Native.Loaded probe ->
      Cascabel.Native.close probe;
      Printf.printf "%-8s %12s %12s %12s %15s %11s\n" "n" "interp [s]"
        "pooled [s]" "compiled [s]" "compiled/pool" "identical";
      let rows =
        List.map
          (fun n ->
            let repo, platform, unit_, em = cc_emitted ~n in
            let native =
              match Cascabel.Native.build em with
              | Cascabel.Native.Loaded t -> t
              | Cascabel.Native.No_toolchain msg
              | Cascabel.Native.Compile_error msg ->
                  prerr_endline ("native build failed: " ^ msg);
                  exit 1
            in
            let samples =
              List.init cc_samples (fun _ ->
                  let ri, interp_s = cc_run ~repo ~platform unit_ in
                  let rn, native_s = cc_run ~native ~repo ~platform unit_ in
                  let pool_s = cc_pool_seconds ~n in
                  (ri, rn, interp_s, native_s, pool_s))
            in
            Cascabel.Native.close native;
            let _, rn, _, _, _ = List.hd samples in
            let identical =
              List.for_all
                (fun (ri, rn, _, _, _) ->
                  ri.Cascabel.Runnable.stdout = rn.Cascabel.Runnable.stdout
                  && rn.Cascabel.Runnable.native_fallbacks = 0)
                samples
            in
            let col f = cc_stats (List.map f samples) in
            let interp = col (fun (_, _, s, _, _) -> s)
            and native_ = col (fun (_, _, _, s, _) -> s)
            and pool = col (fun (_, _, _, _, s) -> s) in
            let ratio = fst native_ /. fst pool in
            Printf.printf "%-8d %12.3f %12.3f %12.3f %14.2fx %11s\n" n
              (fst interp) (fst pool) (fst native_) ratio
              (if identical then "yes" else "NO");
            {
              cc_n = n;
              cc_interp = interp;
              cc_pool = pool;
              cc_native = native_;
              cc_ratio = ratio;
              cc_native_tasks = rn.Cascabel.Runnable.native_tasks;
              cc_identical = identical;
            })
          sizes
      in
      let guard_row =
        List.fold_left (fun acc r -> if r.cc_n > acc.cc_n then r else acc)
          (List.hd rows) rows
      in
      let all_identical = List.for_all (fun r -> r.cc_identical) rows in
      let guard_ok =
        guard_row.cc_ratio <= cc_guard_max
        && guard_row.cc_n >= 1024 && all_identical
      in
      Printf.printf
        "\ncompiled <= %.1fx pooled at n=%d: %s (%.2fx); bit-identical \
         stdout on every size: %s\n"
        cc_guard_max guard_row.cc_n
        (if guard_row.cc_ratio <= cc_guard_max then "yes" else "NO")
        guard_row.cc_ratio
        (if all_identical then "yes" else "NO");
      cc_json "BENCH_cc.json" rows ~guard_n:guard_row.cc_n
        ~guard_ratio:guard_row.cc_ratio ~guard_ok;
      print_endline "wrote BENCH_cc.json";
      if not guard_ok then exit 1

(* A variant that calls a helper function is still emitted (with its
   transitive closure) for the standalone build, but is not
   native-dispatchable — the runnable must fall back per task. *)
let cc_fallback_program =
  {|#define N 64

double twice(double x) { return 2.0 * x; }

#pragma cascabel task : x86
    : Iscale
    : scale_cpu
    : (A: readwrite)
void scale(double *A, int n)
{
  for (int i = 0; i < n * n; i++)
    A[i] = twice(A[i]);
}

int main(void)
{
  double *A = malloc(N * N * sizeof(double));
  for (int i = 0; i < N * N; i++)
    A[i] = 1.0 * i;
  #pragma cascabel execute Iscale : executionset01 (A:BLOCK:n)
  scale(A, N);
  double sum = 0.0;
  for (int i = 0; i < N * N; i++)
    sum += A[i];
  printf("sum=%.3f\n", sum);
  return 0;
}
|}

(* Deterministic coverage of the whole native path for the cram test:
   emission invariants, the no-toolchain and compile-error outcomes,
   and — disjunctively, so the output is byte-stable with or without a
   real cc on PATH — compiled-vs-interpreted bit-identity and the
   per-variant fallback. *)
let cc_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  let repo, platform, unit_, em = cc_emitted ~n:48 in
  (* Emission invariants. *)
  (* Both variants are library calls, dispatched in process under
     --native rather than through the shared object. *)
  let variants =
    List.filter_map
      (function
        | Minic.Ast.Func ({ f_task = Some _; _ } as f) -> Some f | _ -> None)
      unit_
  in
  check "cc: both kept variants have wrappers"
    (List.length em.Cascabel.Emit_c.all_wrappers = 2
    && List.length variants = 2
    && List.for_all (fun f -> Cascabel.Interp.library_call f <> None) variants
    );
  let source_of em f =
    match
      List.find_opt
        (fun s -> s.Cascabel.Emit_c.file = f)
        em.Cascabel.Emit_c.sources
    with
    | Some s -> s.Cascabel.Emit_c.contents
    | None ->
        Printf.printf "missing emitted source %s\n" f;
        exit 1
  in
  let source f = source_of em f in
  let count_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let c = ref 0 in
    for i = 0 to hl - nl do
      if String.sub hay i nl = needle then incr c
    done;
    !c
  in
  let program_c = source "cascabel_out.c" in
  let kernels_c = source (Cascabel.Emit_c.kernels_file em) in
  check "cc: emitted program re-parses as mini-C"
    (match Minic.Parser.parse program_c with Ok _ -> true | Error _ -> false);
  check "cc: emitted kernels re-parse as mini-C"
    (match Minic.Parser.parse kernels_c with Ok _ -> true | Error _ -> false);
  check "cc: one packed submit per execute site"
    (count_sub program_c "cascabel_submit(" = 1);
  check "cc: every register_variant carries its wrapper"
    (count_sub program_c "cascabel_register_variant(" = 2
    && count_sub program_c ", cascabel_call_" = 2);
  check "cc: makefile has the shared-object rule"
    (count_sub (source "Makefile") "native:" = 1);
  (* Toolchain-failure outcomes, forced via the cc override — these
     never depend on the host toolchain. *)
  check "cc: missing compiler reported as no-toolchain"
    (match Cascabel.Native.build ~cc:"cascabel-no-such-cc" em with
    | Cascabel.Native.No_toolchain _ -> true
    | _ -> false);
  check "cc: failing compiler reported as compile error"
    (match Cascabel.Native.build ~cc:"false" em with
    | Cascabel.Native.Compile_error _ -> true
    | _ -> false);
  (* The real-toolchain contracts, vacuously true when cc is absent so
     the cram output stays byte-stable. *)
  let toolchain = Cascabel.Native.build em in
  (match toolchain with
  | Cascabel.Native.Compile_error msg ->
      Printf.printf "native compile failed: %s\n" msg;
      exit 1
  | _ -> ());
  let loaded =
    match toolchain with Cascabel.Native.Loaded t -> Some t | _ -> None
  in
  let ri, _ = cc_run ~repo ~platform unit_ in
  let rn = Option.map (fun t -> fst (cc_run ~native:t ~repo ~platform unit_)) loaded in
  check "cc: compiled stdout bit-identical to interpreter"
    (match rn with
    | None -> true
    | Some rn -> rn.Cascabel.Runnable.stdout = ri.Cascabel.Runnable.stdout);
  check "cc: every task ran native, zero fallbacks"
    (match rn with
    | None -> true
    | Some rn ->
        rn.Cascabel.Runnable.native_tasks > 0
        && rn.Cascabel.Runnable.native_fallbacks = 0);
  Option.iter Cascabel.Native.close loaded;
  (* The fallback path: helper-calling variant interprets per task,
     same answer. *)
  let fb_unit =
    match Minic.Parser.parse cc_fallback_program with
    | Ok u -> u
    | Error e ->
        prerr_endline (Minic.Parser.error_to_string e);
        exit 1
  in
  let fb_repo = Cascabel.Repository.create () in
  let fb_em =
    match Cascabel.Codegen.translate ~repo:fb_repo ~platform fb_unit with
    | Error msgs ->
        List.iter prerr_endline msgs;
        exit 1
    | Ok out -> (
        match Cascabel.Emit_c.emit out with
        | Ok em -> em
        | Error e ->
            prerr_endline e;
            exit 1)
  in
  check "cc: helper-calling variant is not dispatchable"
    (fb_em.Cascabel.Emit_c.native_variants = []
    && List.length fb_em.Cascabel.Emit_c.all_wrappers = 1);
  check "cc: helper closure emitted into the kernels unit"
    (count_sub (source_of fb_em (Cascabel.Emit_c.kernels_file fb_em)) "double twice(double x)"
    >= 1);
  (let fbi, _ = cc_run ~repo:fb_repo ~platform fb_unit in
   match Cascabel.Native.build fb_em with
   | Cascabel.Native.Loaded t ->
       let fbn, _ = cc_run ~native:t ~repo:fb_repo ~platform fb_unit in
       Cascabel.Native.close t;
       check "cc: fallback run bit-identical, all tasks interpreted"
         (fbn.Cascabel.Runnable.stdout = fbi.Cascabel.Runnable.stdout
         && fbn.Cascabel.Runnable.native_tasks = 0
         && fbn.Cascabel.Runnable.native_fallbacks > 0)
   | _ ->
       (* no toolchain: the contract is vacuous, keep the line. *)
       check "cc: fallback run bit-identical, all tasks interpreted" true);
  print_endline "cc: all checks passed"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)

let micro () =
  header "MICRO  toolchain microbenchmarks (Bechamel)";
  let open Bechamel in
  let listing1 =
    Pdl.Codec.to_string (Option.get (Pdl_hwprobe.Zoo.find "xeon-2gpu"))
  in
  let pattern = Pdl.Pattern.parse "Master[Worker{ARCHITECTURE=gpu}]" in
  let platform = Option.get (Pdl_hwprobe.Zoo.find "xeon-2gpu") in
  let xml = Pdl_xml.Decode.element_of_string_exn listing1 in
  let a128 = Kernels.Matrix.random ~seed:1 128 128 in
  let b128 = Kernels.Matrix.random ~seed:2 128 128 in
  let dgemm_src =
    {|#pragma cascabel task : x86 : I : v : (A: read)
void f(double *A, int n) { for (int i = 0; i < n; i++) A[i] += 1.0; }
int main(void) { return 0; }
|}
  in
  let tests =
    [
      Test.make ~name:"xml_parse_pdl"
        (Staged.stage (fun () ->
             ignore (Pdl_xml.Decode.element_of_string_exn listing1)));
      Test.make ~name:"schema_validate"
        (Staged.stage (fun () -> ignore (Pdl.Pdl_schema.validate xml)));
      Test.make ~name:"codec_decode"
        (Staged.stage (fun () -> ignore (Pdl.Codec.of_string listing1)));
      Test.make ~name:"pattern_match"
        (Staged.stage (fun () -> ignore (Pdl.Pattern.matches pattern platform)));
      Test.make ~name:"machine_config"
        (Staged.stage (fun () -> ignore (MC.of_platform platform)));
      Test.make ~name:"minic_parse"
        (Staged.stage (fun () -> ignore (Minic.Parser.parse dgemm_src)));
      Test.make ~name:"dgemm_128_blocked"
        (Staged.stage (fun () ->
             let c = Kernels.Matrix.create 128 128 in
             Kernels.Blas.dgemm_blocked a128 b128 c));
      Test.make ~name:"dgemm_128_packed"
        (Staged.stage (fun () ->
             let c = Kernels.Matrix.create 128 128 in
             Kernels.Blas.dgemm_packed a128 b128 c));
      Test.make ~name:"sim_fig5_model"
        (Staged.stage (fun () ->
             ignore
               (TD.run_model ~policy:Engine.Heft ~tiles:8 (cfg_of "xeon-2gpu")
                  ~n:8192)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Printf.printf "%-28s %14s\n" "benchmark" "ns/run";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %14.1f\n" name est
          | _ -> Printf.printf "%-28s %14s\n" name "?")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* SERVE: the multi-tenant task service (cascabeld)                    *)

module SP = Serve.Protocol
module SSvc = Serve.Service

let serve_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  let cfg = cfg_of "xeon-2gpu" in
  let wnames (c : MC.t) =
    Array.to_list c.MC.workers |> List.map (fun w -> w.MC.w_name)
  in
  (* PU sharding: a disjoint, complete cover of the machine. *)
  let sh = Serve.Shard.split cfg ~shards:2 in
  check "serve: shards cover every worker exactly once"
    (List.sort compare (List.concat_map wnames (Array.to_list sh))
    = List.sort compare (wnames cfg));
  check "serve: shard count clamps to worker count"
    (Array.length (Serve.Shard.split cfg ~shards:64)
    = Array.length cfg.MC.workers);
  (* Admission control: bounded queue, decreasing credit, OVERLOADED. *)
  let clock = ref 0.0 in
  let now () = !clock in
  let svc = SSvc.create ~shards:2 ~queue_cap:3 ~now cfg in
  let job seed = SP.Dgemm { n = 32; tiles = 2; seed } in
  let credits =
    List.map
      (fun _ ->
        match SSvc.submit svc ~tenant:"a" (job 7) with
        | SP.Accepted { credit; _ } -> credit
        | _ -> -1)
      [ (); (); () ]
  in
  check "serve: admission hands out decreasing credit" (credits = [ 2; 1; 0 ]);
  check "serve: full queue answers OVERLOADED"
    (match SSvc.submit svc ~tenant:"a" (job 7) with
    | SP.Overloaded { queue = 3; cap = 3; _ } -> true
    | _ -> false);
  (* Identical queued jobs coalesce onto one execution. *)
  let dones = SSvc.run_until_idle svc in
  let oks =
    List.filter_map
      (function
        | SP.Done { status = SP.Jok { checksum; coalesced; _ }; _ } ->
            Some (checksum, coalesced)
        | _ -> None)
      dones
  in
  check "serve: identical jobs coalesce onto one run"
    (List.length oks = 3
    && List.map snd oks = [ false; true; true ]
    && List.sort_uniq compare (List.map fst oks) |> List.length = 1);
  (* Deficit round robin: a flood cannot starve the other tenant.
     Distinct flops per job, or coalescing would merge them. *)
  let gjob i = SP.Graph { width = 2; depth = 2; task_flops = 1e6 +. float_of_int i } in
  let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
  for i = 1 to 6 do
    ignore (SSvc.submit svc ~tenant:"a" (gjob i))
  done;
  for i = 7 to 8 do
    ignore (SSvc.submit svc ~tenant:"b" (gjob i))
  done;
  let order =
    List.filter_map
      (function SP.Done { tenant; _ } -> Some tenant | _ -> None)
      (SSvc.run_until_idle svc)
  in
  check "serve: equal weights alternate tenants"
    (match order with
    | "a" :: "b" :: "a" :: "b" :: rest ->
        List.for_all (String.equal "a") rest
    | _ -> false);
  let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
  SSvc.configure_tenant svc ~name:"b" ~weight:2.0 ();
  for i = 1 to 6 do
    ignore (SSvc.submit svc ~tenant:"a" (gjob i))
  done;
  for i = 7 to 8 do
    ignore (SSvc.submit svc ~tenant:"b" (gjob i))
  done;
  let order =
    List.filter_map
      (function SP.Done { tenant; _ } -> Some tenant | _ -> None)
      (SSvc.run_until_idle svc)
  in
  check "serve: a double-weight tenant finishes twice as often"
    (List.filteri (fun i _ -> i < 3) order
     |> List.filter (String.equal "b")
     |> List.length = 2);
  (* Deadlines: a job whose deadline passed while queued never runs. *)
  let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
  ignore (SSvc.submit svc ~tenant:"c" ~deadline_ms:10.0 (job 9));
  clock := !clock +. 0.020;
  check "serve: expired deadline completes as timeout"
    (match SSvc.run_until_idle svc with
    | [ SP.Done { status = SP.Jtimeout; _ } ] -> true
    | _ -> false);
  (* Per-tenant fault isolation: tenant a's crashes stay a's. *)
  let crash =
    { Fault.none with Fault.events = [ Fault.Crash { pu = "gpu0"; at = 1e-6 } ] }
  in
  let b_checksums ~with_a () =
    let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
    if with_a then SSvc.configure_tenant svc ~name:"a" ~faults:crash ();
    for i = 1 to 3 do
      if with_a then
        ignore (SSvc.submit svc ~tenant:"a" (SP.Dgemm { n = 64; tiles = 4; seed = 100 + i }));
      ignore (SSvc.submit svc ~tenant:"b" (SP.Dgemm { n = 64; tiles = 4; seed = 200 + i }))
    done;
    let sums =
      List.filter_map
        (function
          | SP.Done { tenant = "b"; status = SP.Jok { checksum; _ }; _ } ->
              Some checksum
          | _ -> None)
        (SSvc.run_until_idle svc)
    in
    (sums, SSvc.quarantined svc ~tenant:"a", SSvc.quarantined svc ~tenant:"b")
  in
  let contended, quar_a, quar_b = b_checksums ~with_a:true () in
  let alone, _, _ = b_checksums ~with_a:false () in
  check "serve: tenant b bit-identical under tenant a crashes"
    (contended = alone && List.length contended = 3);
  check "serve: the crash quarantines a PU for tenant a only"
    (quar_a = [ "gpu0" ] && quar_b = []);
  (* Graceful drain: budget 0 cancels, admission answers DRAINING. *)
  let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
  for i = 1 to 3 do
    ignore (SSvc.submit svc ~tenant:"d" (gjob i))
  done;
  let dones, final = SSvc.drain svc ~budget_ms:0.0 () in
  check "serve: zero-budget drain cancels queued jobs"
    (List.for_all
       (function SP.Done { status = SP.Jcancelled; _ } -> true | _ -> false)
       dones
    && final = SP.Drained { completed = 0; cancelled = 3 });
  check "serve: draining service refuses new work"
    (SSvc.submit svc ~tenant:"d" (gjob 9) = SP.Draining);
  (* Wire protocol: encode/decode inverses, structured errors. *)
  let reqs =
    [
      SP.Submit
        { tenant = "a"; job = job 3; deadline_ms = Some 12.5; idem = None;
          trace = None };
      SP.Submit
        {
          tenant = "b\"x";
          job = SP.Graph { width = 3; depth = 2; task_flops = 0.1 +. 0.2 };
          deadline_ms = None;
          idem = Some "req-7.retry_1:a";
          trace = Some "00000000deadbeef-0000000000000001";
        };
      SP.Run; SP.Stats; SP.Drain { budget_ms = Some 0.0 }; SP.Ping;
    ]
  in
  check "serve: requests round-trip through JSON"
    (List.for_all
       (fun r -> SP.request_of_string (SP.request_to_string r) = Ok r)
       reqs);
  let replies =
    [
      SP.Accepted
        { id = 7; credit = 3; trace = Some "00000000deadbeef-00000000000000aa" };
      SP.Overloaded { tenant = "a"; queue = 4; cap = 4; retry_ms = 200.0 };
      SP.Done
        {
          id = 9;
          tenant = "b";
          latency_ms = 1.5;
          status =
            SP.Jok
              {
                makespan_s = 0.25;
                checksum = "00ff";
                tasks = 4;
                coalesced = true;
                shard = 1;
              };
          trace = None;
        };
      SP.Stats_reply
        [
          {
            SP.tr_tenant = "a"; tr_submitted = 5; tr_completed = 4;
            tr_rejected = 1; tr_timeouts = 0; tr_cancelled = 0; tr_failed = 0;
            tr_coalesced = 2; tr_queue = 1; tr_cap = 8; tr_weight = 1.5;
            tr_busy_vs = 0.75; tr_quarantined = [ "gpu0" ];
            tr_slo_ms = Some 25.0; tr_slo_good = 4; tr_slo_bad = 1;
            tr_burn_rate = 20.0;
          };
        ];
      SP.Error { code = SP.Version; reason = "nope" };
    ]
  in
  check "serve: replies round-trip through JSON"
    (List.for_all
       (fun r -> SP.reply_of_string (SP.reply_to_string r) = Ok r)
       replies);
  let framed = SP.frame "{\"v\":1,\"op\":\"ping\"}" in
  let buf = Bytes.of_string framed in
  check "serve: framing round-trips"
    (SP.deframe buf ~off:0 ~len:(Bytes.length buf)
    = SP.Frame ("{\"v\":1,\"op\":\"ping\"}", Bytes.length buf));
  check "serve: a truncated frame asks for more bytes"
    (SP.deframe buf ~off:0 ~len:(Bytes.length buf - 1) = SP.Need
    && SP.deframe buf ~off:0 ~len:2 = SP.Need);
  check "serve: an absurd frame length is corrupt, not a hang"
    (match
       SP.deframe (Bytes.of_string "\xFF\xFF\xFF\xFF") ~off:0 ~len:4
     with
    | SP.Corrupt _ -> true
    | _ -> false);
  check "serve: garbage payload yields a structured parse error"
    (match SP.request_of_string "{not json" with
    | Error { SP.e_code = SP.Parse; _ } -> true
    | _ -> false);
  check "serve: a version mismatch is refused"
    (match SP.request_of_string "{\"v\":99,\"op\":\"ping\"}" with
    | Error { SP.e_code = SP.Version; _ } -> true
    | _ -> false);
  (* Engine re-entrancy: interleaving engines changes nothing. *)
  let pair interleave =
    let e0 = Engine.create ~policy:Engine.Heft sh.(0)
    and e1 = Engine.create ~policy:Engine.Heft sh.(1) in
    let a = Matrix.random ~seed:31 64 64 and b = Matrix.random ~seed:32 64 64 in
    let go e = fst (TD.run_on ~tiles:4 e ~a ~b) in
    let cs =
      if interleave then
        let c0 = go e0 in
        let c1 = go e1 in
        let c0' = go e0 in
        let c1' = go e1 in
        [ c0; c0'; c1; c1' ]
      else
        let c0 = go e0 in
        let c0' = go e0 in
        let c1 = go e1 in
        let c1' = go e1 in
        [ c0; c0'; c1; c1' ]
    in
    List.map Matrix.checksum cs
  in
  check "serve: interleaved engines match sequential runs (bitwise)"
    (pair true = pair false);
  (* Observability: request-scoped tracing, decision logs, SLO burn. *)
  let contains s sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  Obs.Config.set_enabled true;
  Obs.Export.reset_all ();
  let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
  let ctx = "00000000cab5f00d-0000000000000001" in
  let acc_trace =
    match SSvc.submit svc ~tenant:"t" ~trace:ctx (job 11) with
    | SP.Accepted { trace; _ } -> trace
    | _ -> None
  in
  let done_traces =
    List.filter_map
      (function SP.Done { trace; _ } -> trace | _ -> None)
      (SSvc.run_until_idle svc)
  in
  check "serve: ACCEPTED and DONE echo the client trace id"
    (acc_trace = Some ctx && done_traces = [ ctx ]);
  check "serve: scheduler decisions name a PU and a source"
    (Obs.Decision.count () > 0
    && List.for_all
         (fun (d : Obs.Decision.record) ->
           d.Obs.Decision.d_pu <> ""
           && List.mem_assoc d.Obs.Decision.d_pu d.Obs.Decision.d_estimates)
         (Obs.Decision.records ()));
  let jsonl = Obs.Decision.to_jsonl () in
  check "serve: decision JSONL carries estimates and a source"
    (String.length jsonl > 0
    && contains jsonl "\"source\"" && contains jsonl "\"estimates\"");
  let doc = Obs.Export.to_chrome_json () in
  check "serve: wall trace passes the trace-event schema check"
    (Obs.Trace_check.validate_string doc = Ok ());
  check "serve: the traced job renders a connected flow chain"
    (contains doc "\"ph\":\"s\"" && contains doc "\"ph\":\"f\"");
  (* SLO window: one Ok finish, one expired deadline -> 50% bad. *)
  let svc = SSvc.create ~shards:1 ~queue_cap:16 ~now cfg in
  ignore (SSvc.submit svc ~tenant:"s" (job 12));
  ignore (SSvc.run_until_idle svc);
  ignore (SSvc.submit svc ~tenant:"s" ~deadline_ms:1.0 (job 13));
  clock := !clock +. 0.010;
  ignore (SSvc.run_until_idle svc);
  let row = List.find (fun r -> r.SP.tr_tenant = "s") (SSvc.stats svc) in
  check "serve: STATS carries the SLO window and burn rate"
    (row.SP.tr_slo_good = 1 && row.SP.tr_slo_bad = 1
    && row.SP.tr_burn_rate > 1.0);
  check "serve: burn rate reaches the Prometheus exposition"
    (contains (Obs.Export.prometheus ()) "obs_slo_burn_rate{slo=\"serve:s\"}");
  check "serve: a pre-trace submit still decodes"
    (match
       SP.request_of_string
         "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7}}"
     with
    | Ok (SP.Submit { trace = None; _ }) -> true
    | _ -> false);
  Obs.Export.reset_all ();
  Obs.Config.set_enabled false;
  print_endline "serve smoke: all checks passed"

let percentile_exact sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (q /. 100.0 *. float_of_int n)) - 1 |> max 0))

let serve_json path ~jobs ~base ~cont ~rejected ~throughput ~factor ~floor_ms
    ~limit_ms ~ok ~tracing_overhead_pct ~overhead_limit_pct ~overhead_ok =
  let pcts a =
    Printf.sprintf
      "{\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}"
      (percentile_exact a 50.0) (percentile_exact a 95.0)
      (percentile_exact a 99.0)
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"serve\",\n";
  Printf.fprintf oc "  \"jobs_per_phase\": %d,\n" jobs;
  Printf.fprintf oc "  \"baseline\": %s,\n" (pcts base);
  Printf.fprintf oc "  \"contended\": %s,\n" (pcts cont);
  Printf.fprintf oc "  \"rejected\": %d,\n" rejected;
  Printf.fprintf oc "  \"throughput_jobs_per_s\": %.1f,\n" throughput;
  Printf.fprintf oc
    "  \"isolation_guard\": {\"factor\": %.1f, \"floor_ms\": %.1f, \
     \"limit_ms\": %.3f, \"ok\": %b},\n"
    factor floor_ms limit_ms ok;
  Printf.fprintf oc "  \"tracing_overhead_pct\": %.2f,\n" tracing_overhead_pct;
  Printf.fprintf oc
    "  \"tracing_guard\": {\"limit_pct\": %.1f, \"ok\": %b}\n"
    overhead_limit_pct overhead_ok;
  Printf.fprintf oc "}\n";
  close_out oc

let serve_bench () =
  header
    "SERVE  multi-tenant task service: tenant-b latency with and without a \
     flooding tenant (BENCH_serve.json)";
  let cfg = cfg_of "xeon-2gpu" in
  let job seed = SP.Dgemm { n = 48; tiles = 2; seed } in
  let jobs = 40 in
  (* Closed loop: submit one tenant-b job, dispatch, read its latency
     from the Done reply.  The contended phase floods tenant a past
     its queue cap before every b submission. *)
  let phase ~flood =
    let svc = SSvc.create ~shards:2 ~queue_cap:8 cfg in
    let lat = ref [] and rejected = ref 0 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to jobs do
      if flood then
        for j = 1 to 12 do
          match SSvc.submit svc ~tenant:"a" (job ((1000 * i) + j)) with
          | SP.Overloaded _ -> incr rejected
          | _ -> ()
        done;
      ignore (SSvc.submit svc ~tenant:"b" (job i));
      List.iter
        (function
          | SP.Done { tenant = "b"; latency_ms; _ } ->
              lat := latency_ms :: !lat
          | _ -> ())
        (SSvc.run_until_idle svc)
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let a = Array.of_list !lat in
    Array.sort compare a;
    (a, !rejected, float_of_int (SSvc.completed svc) /. wall)
  in
  let base, _, _ = phase ~flood:false in
  let cont, rejected, throughput = phase ~flood:true in
  (* Tracing overhead: the same closed loop with telemetry off vs on
     (spans, flow events, decision log, SLO windows).  Off and on runs
     are measured back to back in pairs, so ambient machine noise is
     correlated within a pair; the reported overhead is the best of
     five pair ratios. *)
  let traced_wall ~on =
    Obs.Config.set_enabled on;
    Obs.Export.reset_all ();
    let svc = SSvc.create ~shards:2 ~queue_cap:8 cfg in
    let t0 = Unix.gettimeofday () in
    for i = 1 to 15 do
      ignore
        (SSvc.submit svc ~tenant:"b"
           ~trace:(Printf.sprintf "%016x-0000000000000001" i)
           (SP.Dgemm { n = 256; tiles = 2; seed = i }));
      ignore (SSvc.run_until_idle svc)
    done;
    let wall = Unix.gettimeofday () -. t0 in
    Obs.Export.reset_all ();
    Obs.Config.set_enabled false;
    wall
  in
  ignore (traced_wall ~on:false);
  ignore (traced_wall ~on:true);
  let best_ratio = ref infinity in
  for _ = 1 to 5 do
    let off = traced_wall ~on:false in
    let on = traced_wall ~on:true in
    best_ratio := Float.min !best_ratio (on /. off)
  done;
  let tracing_overhead_pct =
    Float.max 0.0 (100.0 *. (!best_ratio -. 1.0))
  in
  let overhead_limit_pct = 3.0 in
  let overhead_ok = tracing_overhead_pct <= overhead_limit_pct in
  let factor = 10.0 and floor_ms = 2.0 in
  let base_p95 = percentile_exact base 95.0
  and cont_p95 = percentile_exact cont 95.0 in
  let limit_ms = factor *. Float.max base_p95 floor_ms in
  let ok = cont_p95 <= limit_ms in
  Printf.printf "%-12s %10s %10s %10s\n" "phase" "p50 [ms]" "p95 [ms]"
    "p99 [ms]";
  List.iter
    (fun (name, a) ->
      Printf.printf "%-12s %10.3f %10.3f %10.3f\n" name
        (percentile_exact a 50.0) (percentile_exact a 95.0)
        (percentile_exact a 99.0))
    [ ("baseline", base); ("contended", cont) ];
  Printf.printf
    "flooding tenant rejected %d submissions; %.1f jobs/s under contention\n"
    rejected throughput;
  Printf.printf "isolation guard: contended p95 %.3f ms <= %.3f ms: %s\n"
    cont_p95 limit_ms
    (if ok then "ok" else "VIOLATED");
  Printf.printf "tracing guard: overhead %.2f%% <= %.1f%%: %s\n"
    tracing_overhead_pct overhead_limit_pct
    (if overhead_ok then "ok" else "VIOLATED");
  serve_json "BENCH_serve.json" ~jobs ~base ~cont ~rejected ~throughput
    ~factor ~floor_ms ~limit_ms ~ok ~tracing_overhead_pct ~overhead_limit_pct
    ~overhead_ok;
  print_endline "wrote BENCH_serve.json";
  if rejected = 0 then begin
    print_endline "expected the flooding tenant to be rejected at least once";
    exit 1
  end;
  if not ok || not overhead_ok then exit 1

(* ------------------------------------------------------------------ *)
(* CHAOS: crash-durable serving.  A deterministic seeded harness
   composes the engine's fault model (30 % transient PU failures)
   with process chaos simulated at the journal boundary: the daemon
   "dies" mid-burst by abandoning its entire in-memory state, keeping
   only the write-ahead log — sometimes with a torn tail, exactly the
   bytes a SIGKILL mid-write leaves — and a fresh incarnation
   recovers, replays the unfinished jobs, and serves the client's
   blanket resubmission of every idempotent request.  The real
   SIGKILL-a-supervised-daemon path over a Unix socket lives in
   test/serve/check_chaos.sh; this is its deterministic, socket-free
   core plus the journaling-overhead guard. *)

module SJ = Serve.Journal

type chaos_tally = {
  mutable ct_replayed : int;  (* jobs re-enqueued from the journal *)
  mutable ct_deduped : int;  (* resubmissions answered from the dedup window *)
  mutable ct_torn : int;  (* trials whose journal lost a tail *)
}

let chaos_faults seed =
  {
    Fault.none with
    Fault.seed;
    transient_rate = 0.3;
    retries = 8;
    quarantine_after = 0;
  }

(* One crash/replay trial.  Returns (exactly_once, bit_identical):
   every key drew at least one DONE, every DONE for a key carries the
   same checksum, and that checksum equals the fault-free reference
   run's. *)
let chaos_trial ~seed ~jobs tally =
  let cfg = cfg_of "xeon-2gpu" in
  let keys = List.init jobs (fun i -> Printf.sprintf "job-%d.%d" seed i) in
  let job_of i = SP.Dgemm { n = 32; tiles = 2; seed = (1000 * seed) + i } in
  (* Fault-free reference: same jobs, no journal, no faults, no crash. *)
  let reference =
    let svc = SSvc.create ~shards:2 ~queue_cap:(2 * jobs) cfg in
    let ids =
      List.mapi
        (fun i k ->
          match SSvc.submit svc ~tenant:"t" ~idem:k (job_of i) with
          | SP.Accepted { id; _ } -> (id, k)
          | _ -> (-1, k))
        keys
    in
    List.filter_map
      (function
        | SP.Done { id; status = SP.Jok { checksum; _ }; _ } ->
            Option.map (fun k -> (k, checksum)) (List.assoc_opt id ids)
        | _ -> None)
      (SSvc.run_until_idle svc)
  in
  let rng = Random.State.make [| 0xc4a05; seed |] in
  let path = Filename.temp_file "chaos" ".journal" in
  let key_of_id = Hashtbl.create 64 in
  let observed = Hashtbl.create 64 in (* key -> checksum list *)
  let note_done = function
    | SP.Done { id; status = SP.Jok { checksum; _ }; _ } -> (
        match Hashtbl.find_opt key_of_id id with
        | Some k ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt observed k)
            in
            Hashtbl.replace observed k (checksum :: prev)
        | None -> ())
    | _ -> ()
  in
  let submit_noting svc i k =
    match SSvc.submit svc ~tenant:"t" ~idem:k (job_of i) with
    | SP.Accepted { id; _ } ->
        if Hashtbl.mem key_of_id id then
          tally.ct_deduped <- tally.ct_deduped + 1
        else Hashtbl.replace key_of_id id k
    | _ -> ()
  in
  (* Incarnation 1: complete a seeded prefix, accept (journal, don't
     run) a further slice, then die mid-burst. *)
  let cut = 2 + Random.State.int rng (jobs - 2) in
  let ran = 1 + Random.State.int rng (cut - 1) in
  let j1 = SJ.open_append path in
  let svc1 = SSvc.create ~shards:2 ~queue_cap:(2 * jobs) ~journal:j1 cfg in
  SSvc.configure_tenant svc1 ~name:"t" ~faults:(chaos_faults seed) ();
  List.iteri (fun i k -> if i < ran then submit_noting svc1 i k) keys;
  List.iter note_done (SSvc.run_until_idle svc1);
  List.iteri (fun i k -> if i >= ran && i < cut then submit_noting svc1 i k) keys;
  (* SIGKILL: svc1 evaporates; only the journal bytes survive.  Close
     stands in for the flush each Flush-durability append already
     performed, then a coin-flip tears the tail — the mid-write chop a
     real kill can leave. *)
  SJ.close j1;
  if Random.State.bool rng then begin
    let sz = (Unix.stat path).Unix.st_size in
    let chop = 1 + Random.State.int rng 24 in
    if sz > chop then begin
      Unix.truncate path (sz - chop);
      tally.ct_torn <- tally.ct_torn + 1
    end
  end;
  (* Incarnation 2: recover, replay, then the reconnected client
     resubmits every request it cannot prove was acknowledged — all of
     them — and submits the tail of the burst it never sent. *)
  let plan = SJ.recover path in
  tally.ct_replayed <- tally.ct_replayed + List.length plan.SJ.r_pending;
  let j2 = SJ.open_append path in
  let svc2 = SSvc.create ~shards:2 ~queue_cap:(2 * jobs) ~journal:j2 cfg in
  SSvc.configure_tenant svc2 ~name:"t" ~faults:(chaos_faults seed) ();
  SSvc.restore svc2 plan;
  List.iteri
    (fun i k ->
      submit_noting svc2 i k;
      List.iter note_done (SSvc.take_replays svc2))
    keys;
  List.iter note_done (SSvc.run_until_idle svc2);
  SJ.close j2;
  Sys.remove path;
  let exactly_once =
    List.for_all
      (fun k ->
        match Hashtbl.find_opt observed k with
        | Some (c :: rest) -> List.for_all (String.equal c) rest
        | _ -> false)
      keys
  in
  let bit_identical =
    List.for_all
      (fun k ->
        match (Hashtbl.find_opt observed k, List.assoc_opt k reference) with
        | Some (c :: _), Some r -> c = r
        | _ -> false)
      keys
  in
  (exactly_once, bit_identical)

(* Zero-chaos journaling overhead: the same closed loop with and
   without a Flush-durability journal, measured back to back in pairs
   (ambient noise is correlated within a pair); report the best of
   five pair ratios, as the serve bench does for tracing. *)
let chaos_overhead () =
  let cfg = cfg_of "xeon-2gpu" in
  let burst journal =
    let svc =
      match journal with
      | None -> SSvc.create ~shards:2 ~queue_cap:64 cfg
      | Some j -> SSvc.create ~shards:2 ~queue_cap:64 ~journal:j cfg
    in
    let t0 = Unix.gettimeofday () in
    for i = 1 to 15 do
      ignore
        (SSvc.submit svc ~tenant:"b"
           ~idem:(Printf.sprintf "oh-%d" i)
           (SP.Dgemm { n = 256; tiles = 2; seed = i }));
      ignore (SSvc.run_until_idle svc)
    done;
    Unix.gettimeofday () -. t0
  in
  let journaled () =
    let path = Filename.temp_file "chaos-oh" ".journal" in
    let j = SJ.open_append path in
    let w = burst (Some j) in
    SJ.close j;
    Sys.remove path;
    w
  in
  ignore (burst None);
  ignore (journaled ());
  let best = ref infinity in
  for _ = 1 to 5 do
    let off = burst None in
    let on = journaled () in
    best := Float.min !best (on /. off)
  done;
  Float.max 0.0 (100.0 *. (!best -. 1.0))

let chaos_json path ~trials ~jobs ~replayed ~deduped ~torn ~exactly_once
    ~bit_identical ~overhead_pct ~overhead_limit_pct ~overhead_ok =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"chaos\",\n";
  Printf.fprintf oc "  \"trials\": %d,\n" trials;
  Printf.fprintf oc "  \"jobs_per_trial\": %d,\n" jobs;
  Printf.fprintf oc
    "  \"fault_model\": \"transient=0.3,retries=8,quarantine=0 + seeded \
     crash mid-burst + torn tails + blanket resubmission\",\n";
  Printf.fprintf oc "  \"jobs_replayed_from_journal\": %d,\n" replayed;
  Printf.fprintf oc "  \"resubmissions_deduped\": %d,\n" deduped;
  Printf.fprintf oc "  \"torn_tails\": %d,\n" torn;
  Printf.fprintf oc "  \"exactly_once_guard\": {\"ok\": %b},\n" exactly_once;
  Printf.fprintf oc "  \"bit_identical_guard\": {\"ok\": %b},\n" bit_identical;
  Printf.fprintf oc "  \"journal_overhead_pct\": %.2f,\n" overhead_pct;
  Printf.fprintf oc
    "  \"overhead_guard\": {\"limit_pct\": %.1f, \"ok\": %b}\n"
    overhead_limit_pct overhead_ok;
  Printf.fprintf oc "}\n";
  close_out oc

let chaos_bench () =
  header
    "CHAOS  crash-durable serving: seeded crash/replay under transient PU \
     faults, idempotent resubmission, journaling overhead (BENCH_chaos.json)";
  let trials = 5 and jobs = 24 in
  let tally = { ct_replayed = 0; ct_deduped = 0; ct_torn = 0 } in
  let results =
    List.init trials (fun s -> chaos_trial ~seed:(s + 1) ~jobs tally)
  in
  let exactly_once = List.for_all fst results in
  let bit_identical = List.for_all snd results in
  Printf.printf
    "%d trials x %d jobs: %d replayed from the journal, %d resubmissions \
     deduped, %d torn tails\n"
    trials jobs tally.ct_replayed tally.ct_deduped tally.ct_torn;
  Printf.printf "exactly-once guard: every key drew one distinct DONE: %s\n"
    (if exactly_once then "ok" else "VIOLATED");
  Printf.printf "bit-identity guard: checksums match the fault-free run: %s\n"
    (if bit_identical then "ok" else "VIOLATED");
  let overhead_pct = chaos_overhead () in
  let overhead_limit_pct = 2.0 in
  let overhead_ok = overhead_pct <= overhead_limit_pct in
  Printf.printf "journal overhead (zero chaos): %.2f%% <= %.1f%%: %s\n"
    overhead_pct overhead_limit_pct
    (if overhead_ok then "ok" else "VIOLATED");
  chaos_json "BENCH_chaos.json" ~trials ~jobs ~replayed:tally.ct_replayed
    ~deduped:tally.ct_deduped ~torn:tally.ct_torn ~exactly_once
    ~bit_identical ~overhead_pct ~overhead_limit_pct ~overhead_ok;
  print_endline "wrote BENCH_chaos.json";
  if not (exactly_once && bit_identical && overhead_ok) then exit 1

let chaos_smoke () =
  let check name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then exit 1
  in
  let cfg = cfg_of "xeon-2gpu" in
  let job seed = SP.Dgemm { n = 32; tiles = 2; seed } in
  (* Journal line codec: entries round-trip, bit flips are caught. *)
  let acc =
    {
      SJ.a_id = 3;
      a_tenant = "t";
      a_job = job 1;
      a_deadline_ms = Some 5.0;
      a_idem = Some "k-1";
      a_trace = Some "00000000cab5f00d-0000000000000003";
    }
  in
  let done_reply =
    SP.Done
      {
        id = 3;
        tenant = "t";
        latency_ms = 1.25;
        status =
          SP.Jok
            {
              makespan_s = 0.5; checksum = "ab12"; tasks = 4;
              coalesced = false; shard = 0;
            };
        trace = None;
      }
  in
  let entries =
    [ SJ.Accept acc; SJ.Complete { c_idem = Some "k-1"; c_reply = done_reply } ]
  in
  check "chaos: journal entries survive the line codec"
    (List.for_all
       (fun e ->
         let line = SJ.entry_to_line e in
         SJ.entry_of_line (String.sub line 0 (String.length line - 1))
         = Ok e)
       entries);
  check "chaos: a flipped journal byte is caught by the CRC"
    (let line = SJ.entry_to_line (SJ.Accept acc) in
     let b = Bytes.of_string (String.sub line 0 (String.length line - 1)) in
     Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 1));
     match SJ.entry_of_line (Bytes.to_string b) with
     | Error _ -> true
     | Ok _ -> false);
  (* Crash mid-burst: the accepted-but-unfinished job replays through
     a fresh incarnation bit-identically; the completed one is served
     from the dedup window, not re-run. *)
  let path = Filename.temp_file "chaos-smoke" ".journal" in
  let j1 = SJ.open_append path in
  let clock = ref 0.0 in
  let now () = !clock in
  let svc1 = SSvc.create ~shards:1 ~queue_cap:8 ~now ~journal:j1 cfg in
  ignore (SSvc.submit svc1 ~tenant:"t" ~idem:"done-key" (job 7));
  let first_sum =
    match SSvc.run_until_idle svc1 with
    | [ SP.Done { status = SP.Jok { checksum; _ }; _ } ] -> checksum
    | _ -> "?"
  in
  ignore (SSvc.submit svc1 ~tenant:"t" ~idem:"lost-key" (job 8));
  SJ.close j1;
  (* svc1 is never drained: this is the crash. *)
  let plan = SJ.recover path in
  check "chaos: recovery splits pending from completed"
    (List.length plan.SJ.r_pending = 1
    && List.length plan.SJ.r_completed = 1
    && (List.hd plan.SJ.r_pending).SJ.a_idem = Some "lost-key"
    && not plan.SJ.r_torn);
  let j2 = SJ.open_append path in
  let svc2 = SSvc.create ~shards:1 ~queue_cap:8 ~now ~journal:j2 cfg in
  SSvc.restore svc2 plan;
  let replay_sums =
    List.filter_map
      (function
        | SP.Done { status = SP.Jok { checksum; _ }; _ } -> Some checksum
        | _ -> None)
      (SSvc.run_until_idle svc2)
  in
  let reference =
    let svc = SSvc.create ~shards:1 ~queue_cap:8 ~now cfg in
    ignore (SSvc.submit svc ~tenant:"t" (job 8));
    List.filter_map
      (function
        | SP.Done { status = SP.Jok { checksum; _ }; _ } -> Some checksum
        | _ -> None)
      (SSvc.run_until_idle svc)
  in
  check "chaos: replay completes the lost job bit-identically"
    (replay_sums = reference && List.length replay_sums = 1);
  check "chaos: a completed job is never re-run after replay"
    (SSvc.completed svc2 = 1);
  let resub = SSvc.submit svc2 ~tenant:"t" ~idem:"done-key" (job 7) in
  let replays = SSvc.take_replays svc2 in
  check "chaos: resubmitting a finished key replays the cached DONE"
    (match (resub, replays) with
    | ( SP.Accepted _,
        [ SP.Done { status = SP.Jok { checksum; _ }; _ } ] ) ->
        checksum = first_sum && SSvc.completed svc2 = 1
    | _ -> false);
  SJ.close j2;
  (* A torn tail — half the last record chopped, as a kill mid-write
     leaves — replays to the longest valid prefix, never raises, and
     the chopped job is recovered by the client's resubmission. *)
  let sz = (Unix.stat path).Unix.st_size in
  Unix.truncate path (sz - 7);
  let torn = SJ.recover path in
  check "chaos: a torn tail yields the longest valid prefix"
    (torn.SJ.r_torn && torn.SJ.r_entries >= 2);
  Sys.remove path;
  (* Chaos composition: 30 % transient PU faults on top of crash and
     replay change nothing observable. *)
  let trial = { ct_replayed = 0; ct_deduped = 0; ct_torn = 0 } in
  let exactly_once, bit_identical = chaos_trial ~seed:42 ~jobs:12 trial in
  check "chaos: crash + 30% transient faults keep exactly-once"
    (exactly_once && trial.ct_replayed > 0);
  check "chaos: chaotic checksums match the fault-free run" bit_identical;
  print_endline "chaos smoke: all checks passed"

(* ------------------------------------------------------------------ *)

let all =
  [
    ("fig5", fig5); ("sweep", sweep); ("sched", sched); ("tile", tile);
    ("presel", presel); ("chol", chol); ("eng", eng);
    ("par", fun () -> par ()); ("kern", fun () -> kern ()); ("obs", obs_exp);
    ("faults", faults_exp); ("tune", tune); ("cc", fun () -> cc ());
    ("serve", serve_bench); ("chaos", chaos_bench); ("smoke", smoke);
    ("micro", micro);
  ]

let parse_ints what s =
  String.split_on_char ',' s
  |> List.map (fun x ->
         match int_of_string_opt (String.trim x) with
         | Some v when v > 0 -> v
         | _ ->
             Printf.eprintf "bad %s list %S (want e.g. 256,512)\n" what s;
             exit 1)

let () =
  (* --trace FILE / --metrics apply to any experiment: strip them
     from argv before dispatch, enable telemetry for the run, and
     emit the requested sinks afterwards. *)
  let trace_out = ref None and metrics = ref false in
  let rec strip = function
    | [] -> []
    | "--trace" :: path :: rest ->
        trace_out := Some path;
        strip rest
    | "--metrics" :: rest ->
        metrics := true;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip (Array.to_list Sys.argv) in
  if !trace_out <> None || !metrics then Obs.Config.set_enabled true;
  (match args with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) all
  | [ _; "par"; sizes ] -> par ~sizes:(parse_ints "size" sizes) ()
  | [ _; "par"; sizes; domains ] ->
      par ~sizes:(parse_ints "size" sizes)
        ~domains:(parse_ints "domain" domains) ()
  | [ _; "kern"; "smoke" ] -> kern_smoke ()
  | [ _; "kern"; sizes ] -> kern ~sizes:(parse_ints "size" sizes) ()
  | [ _; "obs"; "smoke" ] -> obs_smoke ()
  | [ _; "faults"; "smoke" ] -> faults_smoke ()
  | [ _; "tune"; "smoke" ] -> tune_smoke ()
  | [ _; "cc"; "smoke" ] -> cc_smoke ()
  | [ _; "serve"; "smoke" ] -> serve_smoke ()
  | [ _; "chaos"; "smoke" ] -> chaos_smoke ()
  | [ _; "cc"; sizes ] -> cc ~sizes:(parse_ints "size" sizes) ()
  | [ _; name ] -> (
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " (List.map fst all));
          exit 1)
  | _ ->
      prerr_endline
        "usage: main.exe [--trace FILE] [--metrics] \
         [fig5|sweep|sched|tile|presel|chol|eng|par [sizes [domains]]|kern \
         [sizes|smoke]|obs [smoke]|faults [smoke]|tune [smoke]|cc \
         [sizes|smoke]|serve [smoke]|chaos [smoke]|smoke|micro]";
      exit 1);
  Option.iter
    (fun path ->
      Obs.Export.write_chrome path;
      Printf.eprintf "wrote telemetry trace %s\n" path)
    !trace_out;
  if !metrics then print_string (Obs.Export.prometheus ())

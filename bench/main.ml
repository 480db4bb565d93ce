(* Benchmark harness: regenerates every experimental result of the
   paper plus the ablations DESIGN.md calls out.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe fig5       # one experiment
     dune exec bench/main.exe micro      # Bechamel microbenchmarks

   The experiment ids are the table [all] at the end of this file (see
   DESIGN.md §4 and EXPERIMENTS.md); an unknown id prints the list.
   The correctness checks live in the unit suites under test/. *)

module MC = Taskrt.Machine_config
module TD = Taskrt.Tiled_dgemm
module Engine = Taskrt.Engine
module GK = Kernels.Gemm_kernel

let line = String.make 72 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line
let cfg_of name = MC.of_platform_exn (Option.get (Pdl_hwprobe.Zoo.find name))

(* BENCH_*.json writer: one top-level member per line, and one line
   per element of a top-level array, so diffs stay one row per line. *)
module J = Obs.Json

let num x = J.Num x
let int i = J.Num (float_of_int i)
let str s = J.Str s

let write_json path members =
  let member (k, v) =
    let body =
      match v with
      | J.Arr (_ :: _ as items) ->
          "[\n    "
          ^ String.concat ",\n    " (List.map J.to_text items)
          ^ "\n  ]"
      | v -> J.to_text v
    in
    "  " ^ J.to_text (J.Str k) ^ ": " ^ body
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ("{\n" ^ String.concat ",\n" (List.map member members) ^ "\n}\n"))

(* ------------------------------------------------------------------ *)
(* FIG5: the paper's Figure 5                                          *)

let fig5 () =
  header
    "FIG5  DGEMM 8192x8192 speedup over the single-threaded input (paper \
     Figure 5)";
  let n = 8192 in
  let model ~policy ~tiles pf =
    TD.model_on ~tiles (Engine.create ~policy (cfg_of pf)) ~n
  in
  let single = model ~policy:Engine.Eager ~tiles:1 "xeon-single" in
  let rows =
    [
      ("single", single);
      ("starpu", model ~policy:Engine.Eager ~tiles:8 "xeon-x5550-smp");
      ("starpu+2gpus", model ~policy:Engine.Heft ~tiles:8 "xeon-2gpu");
    ]
  in
  Printf.printf "%-14s %12s %10s %12s %8s\n" "version" "time [s]" "speedup"
    "GFLOP/s" "tasks";
  List.iter
    (fun (name, (s : Engine.stats)) ->
      Printf.printf "%-14s %12.2f %9.2fx %12.1f %8d\n" name s.makespan
        (single.makespan /. s.makespan)
        (Engine.gflops ~flops:(Kernels.Blas.flops_dgemm n n n) s)
        s.tasks)
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
      let model ?group ~policy pf =
        TD.model_on ~tiles ?group (Engine.create ~policy (cfg_of pf)) ~n
      in
      let smp = model ~policy:Engine.Eager "xeon-x5550-smp" in
      let gpu = model ~policy:Engine.Heft "xeon-2gpu" in
      (* Forced offload (the execution group contains only the GPUs)
         exposes the raw transfer-bound crossover that HEFT otherwise
         dodges by keeping small problems on the CPUs. *)
      let gpu_only = model ~policy:Engine.Heft ~group:"gpus" "xeon-2gpu" in
      Printf.printf "%-8d %13.6f %13.6f %13.6f %7.2fx %12.1f\n" n
        smp.Engine.makespan gpu.Engine.makespan gpu_only.Engine.makespan
        (smp.Engine.makespan /. gpu.Engine.makespan)
        (gpu.Engine.bytes_transferred /. 1e6))
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
      let r =
        TD.model_on ~tiles:8 (Engine.create ~policy (cfg_of "xeon-2gpu")) ~n
      in
      let gpu_tasks =
        Array.fold_left
          (fun acc ws ->
            if ws.Engine.ws_worker.MC.w_arch = "gpu" then
              acc + ws.Engine.tasks_run
            else acc)
          0 r.Engine.worker_stats
      in
      Printf.printf "%-10s %12.2f %12.1f %14.1f %12d\n"
        (Engine.policy_to_string policy)
        r.Engine.makespan
        (100.0 *. Engine.utilization r)
        (r.Engine.bytes_transferred /. 1e6)
        gpu_tasks)
    [ Engine.Eager; Engine.Heft; Engine.Locality_ws; Engine.Random_place ];
  print_newline ();
  print_endline
    "expected shape: heft fastest (routes work to fast GPUs); random \
     slowest.";
  print_endline "\ncontrol on the homogeneous smp target:";
  List.iter
    (fun policy ->
      let r =
        TD.model_on ~tiles:8
          (Engine.create ~policy (cfg_of "xeon-x5550-smp"))
          ~n
      in
      Printf.printf "  %-10s %12.2f s\n"
        (Engine.policy_to_string policy)
        r.Engine.makespan)
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
        TD.model_on ~tiles
          (Engine.create ~policy:Engine.Heft (cfg_of "xeon-2gpu"))
          ~n:8192
      in
      Printf.printf "%-8d %8d %12.2f %12.1f %14.1f\n" tiles r.Engine.tasks
        r.Engine.makespan
        (100.0 *. Engine.utilization r)
        (r.Engine.bytes_transferred /. 1e6))
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
      let n = 8192 in
      let r =
        Taskrt.Tiled_cholesky.model_on ~tiles:16
          (Engine.create ~policy (cfg_of pf))
          ~n
      in
      Printf.printf "%-18s %-8s %10d %12.2f %12.1f\n" pf
        (Engine.policy_to_string policy)
        r.Engine.tasks r.Engine.makespan
        (Engine.gflops ~flops:(Taskrt.Tiled_cholesky.flops n) r))
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

(* Median and spread, (q3 - q1) / median, of a sample list. *)
let median_spread xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let med = a.(n / 2) in
  (med, (a.(3 * n / 4) -. a.(n / 4)) /. med)

(* The machine a BENCH file was measured on. *)
let host_json () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines
      |> List.find (String.starts_with ~prefix:"model name")
      |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
    with _ -> "unknown"
  in
  J.Obj
    [ ("nproc", int (Domain.recommended_domain_count ())); ("cpu", str cpu) ]

(* Wall-clock cost of a feature, in percent: [off ()] and [on ()] each
   time one run without and with it.  Run-to-run swing on a shared
   host is up to ~10% -- far above the effects guarded here -- and the
   noise is bursty, so comparing the minima of two separated sample
   sets still misattributes a burst to one arm.  Instead each round
   times both arms back to back, in alternating order, and yields one
   paired ratio; the best round is reported, so a single quiet round
   is enough. *)
let paired_overhead_pct ~rounds ~off ~on =
  ignore (off ());
  ignore (on ());
  let best = ref infinity in
  for round = 1 to rounds do
    let t_off, t_on =
      if round mod 2 = 0 then
        let t_off = off () in
        (t_off, on ())
      else
        let t_on = on () in
        (off (), t_on)
    in
    best := Float.min !best (100.0 *. (t_on -. t_off) /. t_off)
  done;
  !best

(* [n] independent tiny tasks through Eager's shared ready-queue: the
   pool fills while all workers are busy, so every completion kick
   re-scans it. *)
let eng_wide ?faults n =
  let cfg = cfg_of "xeon-2gpu" in
  let rt = Engine.create ~policy:Engine.Eager ?faults cfg in
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
  let rt = Engine.create ~policy:Engine.Locality_ws cfg in
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
  let rt = Engine.create ~policy:Engine.Eager cfg in
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
  pr_spread : float;  (** of the pooled run's [par_reps] samples *)
  pr_gflops : float;
  pr_max_abs_diff : float;
}

let par_reps = 5

let par_json path rows ~overhead_pct =
  write_json path
    [ ("experiment", str "par"); ("host", host_json ());
      ("samples", int par_reps);
      ("recommended_domains", int (Domain.recommended_domain_count ()));
      ("telemetry_overhead_pct", num overhead_pct);
      ("rows",
       J.Arr
         (List.map
            (fun r ->
              J.Obj
                [ ("kernel", str r.pr_kernel); ("n", int r.pr_n);
                  ("domains", int r.pr_domains); ("seq_s", num r.pr_seq_s);
                  ("wall_s", num r.pr_wall_s); ("spread", num r.pr_spread);
                  ("gflops", num r.pr_gflops);
                  ("speedup", num (r.pr_seq_s /. r.pr_wall_s));
                  ("max_abs_diff", num r.pr_max_abs_diff) ])
            rows)) ]

(* Best-of-[reps] timing and the spread of the [reps] samples: a
   single run can swing by 25% on a shared container (page faults,
   first-touch of packing buffers), which is noise the 1.2x cholesky
   regression guard below must not trip on. *)
let wall_min ~reps f =
  let samples = List.init reps (fun _ -> wall f) in
  let times = List.map snd samples in
  ( fst (List.hd samples),
    List.fold_left Float.min infinity times,
    snd (median_spread times) )

(* Wall-clock cost of the telemetry probes themselves: packed DGEMM
   1024 with telemetry off vs on, five paired rounds.  Recorded in the
   BENCH json so probe-placement regressions show up in the artifacts;
   [kern] additionally guards the figure at 3%. *)
let telemetry_overhead_pct () =
  let was_on = Obs.Config.on () and n = 1024 in
  let a = Matrix.random ~seed:11 n n and b = Matrix.random ~seed:12 n n in
  let c = Matrix.create n n in
  let timed enabled () =
    Obs.Config.set_enabled enabled;
    Bigarray.Array1.fill c.Matrix.data 0.0;
    snd (wall (fun () -> Blas.dgemm a b c))
  in
  let pct = paired_overhead_pct ~rounds:5 ~off:(timed false) ~on:(timed true) in
  Obs.Config.set_enabled was_on;
  pct

(* One kernel at one size: sequential reference, then one pooled run
   per domain count, verifying the pooled result is bit-identical. *)
let par_kernel ~kernel ~n ~domains ~flops ~seq ~pooled =
  let reference, seq_s, _ = wall_min ~reps:par_reps seq in
  let seq_gflops = flops /. seq_s /. 1e9 in
  Printf.printf "%-10s %6d %9s %12.3f %12.1f %9s %14s\n" kernel n "seq" seq_s
    seq_gflops "" "";
  List.map
    (fun d ->
      (* Pool spawn/join stays outside the timed region: we are
         measuring kernel scaling, not domain startup. *)
      let result, wall_s, spread =
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
        pr_spread = spread;
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
  kn_micro : string;  (** packed rows: the micro-kernel; [""] otherwise *)
  kn_n : int;
  kn_wall_s : float;  (** median of [kern_samples] *)
  kn_spread : float;
  kn_gflops : float;
}

(* Timed runs per variant and size; the reported figure is their
   median. *)
let kern_samples = 5

let kern_json path rows ratios shares ~overhead_pct =
  write_json path
    [ ("experiment", str "kern"); ("host", host_json ());
      ("samples", int kern_samples);
      ("telemetry_overhead_pct", num overhead_pct);
      ("rows",
       J.Arr
         (List.map
            (fun r ->
              J.Obj
                ([ ("variant", str r.kn_variant) ]
                @ (if r.kn_micro = "" then [] else [ ("micro", str r.kn_micro) ])
                @ [ ("n", int r.kn_n); ("wall_s", num r.kn_wall_s);
                    ("spread", num r.kn_spread); ("gflops", num r.kn_gflops) ]))
            rows));
      ("packed_over_blocked",
       J.Arr
         (List.map
            (fun (n, ratio) -> J.Obj [ ("n", int n); ("ratio", num ratio) ])
            ratios));
      ("pack_share_128",
       J.Arr
         (List.map
            (fun (micro, (share, spread)) ->
              J.Obj
                [ ("micro", str micro); ("share", num share);
                  ("spread", num spread) ])
            shares)) ]

let with_micro bmicro f =
  GK.set_blocking { (GK.default_blocking ()) with bmicro };
  Fun.protect ~finally:GK.reset_blocking f

(* Share of one packed 128^3 call spent packing A and B, from the
   call's own pack_a / pack_b spans (telemetry on) over its wall
   time; median and spread of [kern_samples] calls after a warm-up. *)
let pack_share_128 bmicro =
  let n = 128 in
  let a = Matrix.random ~seed:1 n n and b = Matrix.random ~seed:2 n n in
  let c = Matrix.create n n in
  let was_on = Obs.Config.on () in
  Obs.Config.set_enabled true;
  let share () =
    Obs.Span.clear ();
    let (), dt = wall (fun () -> Blas.dgemm a b c) in
    let packing =
      List.fold_left
        (fun acc (e : Obs.Span.event) ->
          if e.ev_cat = "gemm" && (e.ev_name = "pack_a" || e.ev_name = "pack_b")
          then acc + (e.ev_t1 - e.ev_t0)
          else acc)
        0 (Obs.Span.events ())
    in
    Obs.Clock.to_s packing /. dt
  in
  let r =
    with_micro bmicro (fun () ->
        ignore (share ());
        median_spread (List.init kern_samples (fun _ -> share ())))
  in
  Obs.Span.clear ();
  Obs.Config.set_enabled was_on;
  r

(* Single-domain throughput of the three DGEMM variants, the packed
   one with every micro-kernel this CPU runs.  The naive kernel is
   only run up to n = 512 (a 2048-cubed naive run costs a minute and
   teaches nothing new). *)
let kern ?(sizes = [ 256; 512; 1024; 2048 ]) () =
  header "KERN  DGEMM kernel variants, single domain (wall seconds)";
  let micros = GK.supported_micros () in
  let default_micro = (GK.default_blocking ()).GK.bmicro in
  Printf.printf "micro-kernels this CPU runs: %s; median of %d runs\n\n"
    (String.concat ", " (List.map GK.micro_to_string micros))
    kern_samples;
  Printf.printf "%-8s %18s %12s %8s %12s %18s\n" "n" "variant" "wall [s]"
    "spread" "GFLOP/s" "packed/blocked";
  let mismatches = ref 0 in
  let rows, ratios =
    List.fold_left
      (fun (rows, ratios) n ->
        let a = Matrix.random ~seed:1 n n and b = Matrix.random ~seed:2 n n in
        let flops = Blas.flops_dgemm n n n in
        let time ?(micro = "") variant f =
          let c = Matrix.create n n in
          let walls =
            List.init kern_samples (fun _ ->
                Bigarray.Array1.fill c.Matrix.data 0.0;
                snd (wall (fun () -> f a b c)))
          in
          let med, spread = median_spread walls in
          let row =
            {
              kn_variant = variant;
              kn_micro = micro;
              kn_n = n;
              kn_wall_s = med;
              kn_spread = spread;
              kn_gflops = flops /. med /. 1e9;
            }
          in
          Printf.printf "%-8d %18s %12.4f %8.2f %12.2f\n" n
            (if micro = "" then variant else variant ^ "/" ^ micro)
            med spread row.kn_gflops;
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
        let packed =
          List.map
            (fun bmicro ->
              let micro = GK.micro_to_string bmicro in
              let row, c =
                with_micro bmicro (fun () ->
                    time ~micro "packed" (fun a b c -> Blas.dgemm a b c))
              in
              if not (Matrix.approx_equal c_blocked c) then begin
                Printf.printf "n=%d: packed/%s result DIVERGES from blocked\n" n
                  micro;
                incr mismatches
              end;
              (bmicro, row))
            micros
        in
        let ratio =
          (List.assoc default_micro packed).kn_gflops /. blocked.kn_gflops
        in
        Printf.printf "%-8s %18s %12s %8s %12s %17.1fx\n" "" "" "" "" "" ratio;
        ( rows @ naive_rows @ (blocked :: List.map snd packed),
          ratios @ [ (n, ratio) ] ))
      ([], []) sizes
  in
  Printf.printf "\npacked ~= blocked everywhere (approx_equal): %s\n"
    (if !mismatches = 0 then "yes" else "NO");
  let shares =
    List.map
      (fun m -> (GK.micro_to_string m, pack_share_128 m))
      micros
  in
  List.iter
    (fun (m, (share, spread)) ->
      Printf.printf "packing share of a 128^3 call, %s: %.2f (spread %.2f)\n"
        m share spread)
    shares;
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
  kern_json "BENCH_kern.json" rows ratios shares ~overhead_pct;
  print_endline "wrote BENCH_kern.json";
  if !mismatches > 0 || overhead_bad then exit 1

(* ------------------------------------------------------------------ *)
(* OBS: wall-clock telemetry demo                                     *)

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
  let rt = Engine.create ~policy:Engine.Heft (cfg_of "xeon-2gpu") in
  ignore (TD.run_on ~tiles:2 rt ~a ~b)

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
  let clean_c, clean =
    TD.run_on ~tiles (Engine.create ~policy:Engine.Heft cfg) ~a ~b
  in
  let mid = clean.Engine.makespan /. 2.0 in
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
  let faulty_c, faulty =
    TD.run_on ~tiles (Engine.create ~policy:Engine.Heft ~faults cfg) ~a ~b
  in
  (clean, faulty, Matrix.max_abs_diff clean_c faulty_c)

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
      let rt =
        Engine.create ~policy:Engine.Heft ~faults (cfg_of "xeon-2gpu")
      in
      (rate, TD.model_on ~tiles:8 rt ~n:2048))
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

(* The fault layer must be pay-for-what-you-use: a zero-rate,
   zero-event spec must not perturb the virtual schedule at all... *)
let faults_virtual_overhead_pct () =
  let run faults =
    let rt = Engine.create ~policy:Engine.Heft ?faults (cfg_of "xeon-2gpu") in
    (TD.model_on ~tiles:8 rt ~n:2048).Engine.makespan
  in
  let base = run None and guarded = run (Some Fault.none) in
  100.0 *. Float.abs (guarded -. base) /. base

(* ... and must stay under 2% wall-clock on the scheduling hot path
   (seven paired rounds of [eng_wide]). *)
let faults_wall_overhead_pct () =
  let timed faults () = snd (wall (fun () -> eng_wide ?faults 20_000)) in
  paired_overhead_pct ~rounds:7 ~off:(timed None) ~on:(timed (Some Fault.none))

let faults_json path ~clean:(cs : Engine.stats) ~faulty:(fs : Engine.stats)
    ~diff ~sweep ~virtual_overhead_pct ~wall_overhead_pct =
  write_json path
    [ ("experiment", str "faults");
      ("virtual_overhead_pct", num virtual_overhead_pct);
      ("wall_overhead_pct", num wall_overhead_pct);
      ("crash_scenario",
       J.Obj
         [ ("tasks", int fs.Engine.tasks);
           ("clean_makespan_s", num cs.Engine.makespan);
           ("faulty_makespan_s", num fs.Engine.makespan);
           ("failures_injected", int fs.Engine.failures_injected);
           ("retries", int fs.Engine.retries);
           ("reassigned", int fs.Engine.reassigned);
           ("abandoned", int fs.Engine.abandoned);
           ("quarantined", J.Arr (List.map str fs.Engine.quarantined));
           ("max_abs_diff", num diff) ]);
      ("rate_sweep",
       J.Arr
         (List.map
            (fun (rate, (r : Engine.stats)) ->
              J.Obj
                [ ("rate", num rate);
                  ("makespan_s", num r.makespan);
                  ("failures", int r.failures_injected);
                  ("retries", int r.retries) ])
            sweep)) ]

let faults_exp () =
  header
    "FAULTS  crash + transient injection: retry, quarantine, bit-identical \
     results";
  let violations = ref 0 in
  let guard name ok =
    Printf.printf "%-56s %s\n" name (if ok then "ok" else "VIOLATION");
    if not ok then incr violations
  in
  let cs, fs, diff = faults_crash_scenario ~n:192 ~tiles:6 in
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
    (fun (rate, (r : Engine.stats)) ->
      Printf.printf "%-8.2f %14.6f %10d %10d\n" rate r.makespan
        r.failures_injected r.retries)
    sweep;
  (match sweep with
  | (_, r0) :: rest ->
      guard "makespan grows monotonically with the rate"
        (List.for_all
           (fun (_, (r : Engine.stats)) ->
             r.makespan >= r0.Engine.makespan -. 1e-12)
           rest)
  | [] -> ());
  let virtual_overhead_pct = faults_virtual_overhead_pct () in
  let wall_overhead_pct = faults_wall_overhead_pct () in
  Printf.printf "\nzero-fault overhead: %.4f%% virtual, %.2f%% wall (20k \
                 tasks, best of 7)\n"
    virtual_overhead_pct wall_overhead_pct;
  guard "zero-fault virtual makespan within 2%" (virtual_overhead_pct <= 2.0);
  guard "zero-fault wall overhead within 2%" (wall_overhead_pct <= 2.0);
  faults_json "BENCH_faults.json" ~clean:cs ~faulty:fs ~diff ~sweep
    ~virtual_overhead_pct ~wall_overhead_pct;
  print_endline "wrote BENCH_faults.json";
  if !violations > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* TUNE: measurement-driven cost models + GEMM block autotuning        *)

module GT = Tune.Gemm_tune

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
  let makespan ?tune () =
    let rt = Engine.create ~policy:Engine.Heft ?tune ~true_gflops cfg in
    (TD.model_on ~tiles rt ~n).Engine.makespan
  in
  let static = makespan () in
  let store = Tune.Store.create ~pdl_hash:hash ~platform:"xeon-2gpu" () in
  for _ = 1 to passes do
    ignore (makespan ~tune:store ())
  done;
  let learned = makespan ~tune:store () in
  (static, learned, store)

let tune_json path ~hash ~static_s ~learned_s ~improvement_pct ~samples
    ~sched_ok (g : GT.result) =
  write_json path
    [ ("experiment", str "tune"); ("pdl_hash", str hash);
      ("sched",
       J.Obj
         [ ("platform", str "xeon-2gpu"); ("skew", num tune_skew);
           ("static_makespan_s", num static_s);
           ("learned_makespan_s", num learned_s);
           ("improvement_pct", num improvement_pct); ("samples", int samples);
           ("guard_ok", J.Bool sched_ok) ]);
      ("gemm",
       J.Obj
         [ ("best", str (GT.blocking_to_string g.best));
           ("best_gflops", num g.best_gflops);
           ("guard_ratio", num GT.guard_ratio); ("guard_ok", J.Bool g.guard_ok);
           ("sizes",
            J.Arr
              (List.map2
                 (fun (n, base_s) (_, win_s) ->
                   J.Obj
                     [ ("n", int n); ("baseline_s", num base_s);
                       ("winner_s", num win_s);
                       ("ratio", num (win_s /. base_s)) ])
                 g.baseline g.winner)) ]) ]

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

(* ------------------------------------------------------------------ *)
(* CC: the native executor — interpreted vs pooled kernels vs compiled *)

(* The paper's case study, examples/programs/dgemm.c (embedded at
   build time), at size [n]: one annotated source, three executors.
   The interpreted and compiled columns run the exact same translated
   program through Runnable. The compiled column runs main (the fill
   and checksum loops) as the kernels library's compiled entry, the
   interpreted one in the interpreter. Both variants call the
   blas_dgemm library kernel, which both columns reach in process. The
   pooled column is the hand-built
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
             TD.run_on ~tiles:4 (Engine.create ~policy:Engine.Heft ~pool cfg)
               ~a ~b)))

(* Timed runs per executor and size; the executors take turns so a
   slow minute on the host hits all three alike. *)
let cc_samples = 7

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

let cc_json path rows ~guard_n ~guard_ratio ~guard_ok =
  write_json path
    [ ("experiment", str "cc"); ("platform", str "xeon-2gpu");
      ("host", host_json ()); ("samples", int cc_samples);
      ("guard",
       J.Obj
         [ ("n", int guard_n); ("max_ratio", num cc_guard_max);
           ("ratio", num guard_ratio); ("ok", J.Bool guard_ok) ]);
      ("sizes",
       J.Arr
         (List.map
            (fun r ->
              J.Obj
                [ ("n", int r.cc_n); ("interpreted_s", num (fst r.cc_interp));
                  ("pooled_s", num (fst r.cc_pool));
                  ("compiled_s", num (fst r.cc_native));
                  ("spread",
                   J.Obj
                     [ ("interpreted", num (snd r.cc_interp));
                       ("pooled", num (snd r.cc_pool));
                       ("compiled", num (snd r.cc_native)) ]);
                  ("ratio", num r.cc_ratio);
                  ("native_tasks", int r.cc_native_tasks);
                  ("bit_identical", J.Bool r.cc_identical) ])
            rows)) ]

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
            let col f = median_spread (List.map f samples) in
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
             Kernels.Blas.dgemm a128 b128 c));
      Test.make ~name:"sim_fig5_model"
        (Staged.stage (fun () ->
             ignore
               (TD.model_on ~tiles:8
                  (Engine.create ~policy:Engine.Heft (cfg_of "xeon-2gpu"))
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

(* State that must not grow with history (recovery's peak heap, a
   serving tenant's live heap) may exceed its size at a tenth of the
   history by this factor plus [heap_slack_mib]: GC pacing and the
   work in flight, not history. *)
let heap_slack_factor = 1.25
let heap_slack_mib = 2.0
let within_heap_slack ~small large =
  large <= (small *. heap_slack_factor) +. heap_slack_mib

let percentile_exact sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (q /. 100.0 *. float_of_int n)) - 1 |> max 0))

let serve_json path ~jobs ~base ~cont ~rejected ~throughput ~factor ~floor_ms
    ~limit_ms ~ok ~tracing_overhead_pct ~overhead_limit_pct ~overhead_ok
    ~state =
  let pcts a =
    J.Obj
      [ ("p50_ms", num (percentile_exact a 50.0));
        ("p95_ms", num (percentile_exact a 95.0));
        ("max_ms", num (percentile_exact a 100.0)) ]
  in
  write_json path
    [ ("experiment", str "serve"); ("host", host_json ());
      ("jobs_per_phase", int jobs);
      (* samples and spread of the baseline phase's latencies *)
      ("samples", int jobs);
      ("spread", num (snd (median_spread (Array.to_list base))));
      ("baseline", pcts base); ("contended", pcts cont);
      ("rejected", int rejected); ("throughput_jobs_per_s", num throughput);
      ("isolation_guard",
       J.Obj
         [ ("factor", num factor); ("floor_ms", num floor_ms);
           ("limit_ms", num limit_ms); ("ok", J.Bool ok) ]);
      ("tracing_overhead_pct", num tracing_overhead_pct);
      ("tracing_guard",
       J.Obj
         [ ("limit_pct", num overhead_limit_pct); ("ok", J.Bool overhead_ok) ]);
      ("state_guard", state) ]

(* Live heap of a service whose one tenant has run [short] and then
   [long] Graph 8x8 jobs, one at a time, in MiB: what a long-lived
   daemon keeps per finished job (engine events, say) shows as growth
   between the two. The trace rings sit outside this heap, at a fixed
   size once full. *)
let serve_state_guard ~short ~long =
  let svc = SSvc.create ~shards:2 (cfg_of "xeon-2gpu") in
  let job = SP.Graph { width = 8; depth = 8; task_flops = 1e6 } in
  let run n =
    for _ = 1 to n do
      ignore (SSvc.submit svc ~tenant:"a" job);
      ignore (SSvc.run_until_idle svc)
    done;
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let small = run short in
  let large = run (long - short) in
  let ok = within_heap_slack ~small large in
  Printf.printf
    "state guard: live heap %.2f MiB after %d jobs vs %.2f MiB after %d \
     (<= x%.2f + %.0f MiB): %s\n"
    large long small short heap_slack_factor heap_slack_mib
    (if ok then "ok" else "VIOLATED");
  ( J.Obj
      [ ("jobs", int long); ("live_heap_mib", num large);
        ("jobs_at_tenth", int short); ("live_heap_mib_at_tenth", num small);
        ("slack_factor", num heap_slack_factor);
        ("slack_mib", num heap_slack_mib); ("ok", J.Bool ok) ],
    ok )

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
     (spans, flow events, decision log, SLO windows), five paired
     rounds. *)
  let traced_wall ~on () =
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
  let tracing_overhead_pct =
    paired_overhead_pct ~rounds:5 ~off:(traced_wall ~on:false)
      ~on:(traced_wall ~on:true)
  in
  let overhead_limit_pct = 3.0 in
  let overhead_ok = tracing_overhead_pct <= overhead_limit_pct in
  let factor = 10.0 and floor_ms = 2.0 in
  let base_p95 = percentile_exact base 95.0
  and cont_p95 = percentile_exact cont 95.0 in
  let limit_ms = factor *. Float.max base_p95 floor_ms in
  let ok = cont_p95 <= limit_ms in
  Printf.printf "%-12s %10s %10s %10s\n" "phase" "p50 [ms]" "p95 [ms]"
    "max [ms]";
  List.iter
    (fun (name, a) ->
      Printf.printf "%-12s %10.3f %10.3f %10.3f\n" name
        (percentile_exact a 50.0) (percentile_exact a 95.0)
        (percentile_exact a 100.0))
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
  let state, state_ok = serve_state_guard ~short:300 ~long:3000 in
  serve_json "BENCH_serve.json" ~jobs ~base ~cont ~rejected ~throughput
    ~factor ~floor_ms ~limit_ms ~ok ~tracing_overhead_pct ~overhead_limit_pct
    ~overhead_ok ~state;
  print_endline "wrote BENCH_serve.json";
  if rejected = 0 then begin
    print_endline "expected the flooding tenant to be rejected at least once";
    exit 1
  end;
  if not (ok && overhead_ok && state_ok) then exit 1

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
   without a Flush-durability journal, five paired rounds. *)
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
  paired_overhead_pct ~rounds:5 ~off:(fun () -> burst None) ~on:journaled

(* Recovery at scale: a journal shaped like perfbench serve-durable's
   preseed, accept and keyed completion pairs of small jobs with a bare
   trace id each. *)
let recovery_journal records =
  let path = Filename.temp_file "chaos-rec" ".journal" in
  let j = SJ.open_append ~durability:SJ.Buffer path in
  for i = 1 to records / 2 do
    let tenant = Printf.sprintf "t%d" (i mod 4)
    and idem = Some (Printf.sprintf "pre-%d" i)
    and trace = Some (Printf.sprintf "%016x" i) in
    let job =
      match i mod 3 with
      | 0 -> SP.Dgemm { n = 32; tiles = 2; seed = i }
      | 1 -> SP.Cholesky { n = 64; tiles = 4; seed = i }
      | _ -> SP.Graph { width = 8; depth = 8; task_flops = 1e6 }
    in
    let status =
      SP.Jok
        {
          makespan_s = float_of_int (1 + (i mod 97)) /. 7e4;
          checksum =
            Printf.sprintf "%016x" (i * 0x9e3779b1 land 0xffff_ffff_ffff);
          tasks = 4 + (i mod 29);
          coalesced = i mod 5 = 0;
          shard = i mod 2;
        }
    in
    SJ.append j
      (SJ.Accept
         { a_id = i; a_tenant = tenant; a_job = job; a_deadline_ms = None;
           a_idem = idem; a_trace = trace });
    SJ.append j
      (SJ.Complete
         { c_idem = idem;
           c_reply =
             SP.Done { id = i; tenant; latency_ms = 0.5; status; trace } })
  done;
  SJ.close j;
  path

(* The largest major heap seen while [f] runs, in MiB: sampled at the
   end of every major cycle and once more when [f] returns. *)
let peak_heap_mib f =
  Gc.full_major ();
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  sample ();
  let alarm = Gc.create_alarm sample in
  let r = f () in
  sample ();
  Gc.delete_alarm alarm;
  (r, float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.0)

type recovery_row = {
  rr_records : int;
  rr_samples : int;
  rr_us_per_record : float;
  rr_spread : float;
  rr_heap_small_mib : float;  (* peak heap recovering a tenth as many *)
  rr_heap_mib : float;
  rr_stages : (string * float) list;  (* us per record *)
}

(* Per-stage cost of decoding the journal's records, each stage timed
   over every record: the CRC, the outer record JSON, the embedded
   SUBMIT/DONE JSON, the protocol's field handling on top of that
   parse, and the whole [entry_of_line]. *)
let recovery_stages path =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> Array.of_list
  in
  let n = float_of_int (Array.length lines) in
  let payloads =
    Array.map (fun l -> String.sub l 9 (String.length l - 9)) lines
  in
  let embedded =
    Array.map
      (fun p ->
        match J.parse p with
        | Ok o -> (
            match (J.member "req" o, J.member "reply" o) with
            | Some (J.Str s), _ -> `Req s
            | _, Some (J.Str s) -> `Reply s
            | _ -> `None)
        | Error _ -> `None)
      payloads
  in
  (* the quickest of three passes: a stage is a few hundred ms *)
  let per f xs =
    List.init 3 (fun _ ->
        snd
          (wall (fun () ->
               Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs)))
    |> List.fold_left Float.min infinity
    |> fun s -> s *. 1e6 /. n
  in
  let inner = function `Req s | `Reply s -> J.parse s | `None -> Error "" in
  let protocol = function
    | `Req s -> Result.is_ok (SP.request_of_string s)
    | `Reply s -> Result.is_ok (SP.reply_of_string s)
    | `None -> false
  in
  let inner_us = per inner embedded in
  [ ("crc", per SJ.crc32 payloads);
    ("outer_json", per J.parse payloads);
    ("inner_json", inner_us);
    ("protocol_fields", per protocol embedded -. inner_us);
    ("entry_of_line", per SJ.entry_of_line lines) ]

let recovery_row ~records ~samples =
  let small = recovery_journal (records / 10) in
  let path = recovery_journal records in
  let window = SSvc.default_dedup_cap in
  let recover p () = SJ.recover ~window p in
  let _, heap_small = peak_heap_mib (recover small) in
  let r, heap = peak_heap_mib (recover path) in
  let times =
    List.init samples (fun _ ->
        snd (wall (recover path)) *. 1e6 /. float_of_int records)
  in
  let us_per_record, spread = median_spread times in
  let stages = recovery_stages path in
  Sys.remove small;
  Sys.remove path;
  if r.SJ.r_entries <> records then
    failwith
      (Printf.sprintf "recovered %d of %d records" r.SJ.r_entries records);
  {
    rr_records = records;
    rr_samples = samples;
    rr_us_per_record = us_per_record;
    rr_spread = spread;
    rr_heap_small_mib = heap_small;
    rr_heap_mib = heap;
    rr_stages = stages;
  }

let chaos_json path ~trials ~jobs ~replayed ~deduped ~torn ~exactly_once
    ~bit_identical ~overhead_pct ~overhead_limit_pct ~overhead_ok ~recovery
    ~heap_ok =
  write_json path
    [ ("experiment", str "chaos"); ("host", host_json ());
      (* samples and spread of the recovery row's timing *)
      ("samples", int recovery.rr_samples);
      ("spread", num recovery.rr_spread); ("trials", int trials);
      ("jobs_per_trial", int jobs);
      ("fault_model",
       str
         "transient=0.3,retries=8,quarantine=0 + seeded crash mid-burst + \
          torn tails + blanket resubmission");
      ("jobs_replayed_from_journal", int replayed);
      ("resubmissions_deduped", int deduped); ("torn_tails", int torn);
      ("exactly_once_guard", J.Obj [ ("ok", J.Bool exactly_once) ]);
      ("bit_identical_guard", J.Obj [ ("ok", J.Bool bit_identical) ]);
      ("journal_overhead_pct", num overhead_pct);
      ("overhead_guard",
       J.Obj
         [ ("limit_pct", num overhead_limit_pct); ("ok", J.Bool overhead_ok) ]);
      ("recovery",
       J.Obj
         [ ("records", int recovery.rr_records);
           ("window", int SSvc.default_dedup_cap);
           ("us_per_record", num recovery.rr_us_per_record);
           ("stages_us_per_record",
            J.Obj (List.map (fun (k, v) -> (k, num v)) recovery.rr_stages)) ]);
      ("recovery_heap_guard",
       J.Obj
         [ ("peak_heap_mib_at_tenth", num recovery.rr_heap_small_mib);
           ("peak_heap_mib", num recovery.rr_heap_mib);
           ("slack_factor", num heap_slack_factor);
           ("slack_mib", num heap_slack_mib); ("ok", J.Bool heap_ok) ]) ]

let chaos_bench () =
  header
    "CHAOS  crash-durable serving: seeded crash/replay under transient PU \
     faults, idempotent resubmission, journaling overhead, recovery at \
     100k records (BENCH_chaos.json)";
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
  let recovery = recovery_row ~records:100_000 ~samples:5 in
  Printf.printf
    "recovery: %d records in %.2f us/record (median of %d, spread %.2f)\n"
    recovery.rr_records recovery.rr_us_per_record recovery.rr_samples
    recovery.rr_spread;
  List.iter
    (fun (stage, us) -> Printf.printf "  %-16s %6.2f us/record\n" stage us)
    recovery.rr_stages;
  let heap_ok =
    within_heap_slack ~small:recovery.rr_heap_small_mib recovery.rr_heap_mib
  in
  Printf.printf
    "recovery heap guard: %.1f MiB at %d records vs %.1f MiB at %d \
     (<= x%.2f + %.0f MiB): %s\n"
    recovery.rr_heap_mib recovery.rr_records recovery.rr_heap_small_mib
    (recovery.rr_records / 10) heap_slack_factor heap_slack_mib
    (if heap_ok then "ok" else "VIOLATED");
  chaos_json "BENCH_chaos.json" ~trials ~jobs ~replayed:tally.ct_replayed
    ~deduped:tally.ct_deduped ~torn:tally.ct_torn ~exactly_once
    ~bit_identical ~overhead_pct ~overhead_limit_pct ~overhead_ok ~recovery
    ~heap_ok;
  print_endline "wrote BENCH_chaos.json";
  if not (exactly_once && bit_identical && overhead_ok && heap_ok) then exit 1

(* ------------------------------------------------------------------ *)

let parse_ints what s =
  String.split_on_char ',' s
  |> List.map (fun x ->
         match int_of_string_opt (String.trim x) with
         | Some v when v > 0 -> v
         | _ ->
             Printf.eprintf "bad %s list %S (want e.g. 256,512)\n" what s;
             exit 1)

(* Raised by an entry given arguments it does not take; carries the
   argument syntax it does take. *)
exception Usage of string

let no_args f = function [] -> f () | _ -> raise (Usage "")

let sizes_arg (f : ?sizes:int list -> unit -> unit) = function
  | [] -> f ()
  | [ sizes ] -> f ~sizes:(parse_ints "size" sizes) ()
  | _ -> raise (Usage "[sizes]")

(* The experiments, in the order a bare run executes them.  Each entry
   parses its own arguments. *)
let all =
  [
    ("fig5", no_args fig5); ("sweep", no_args sweep); ("sched", no_args sched);
    ("tile", no_args tile); ("presel", no_args presel); ("chol", no_args chol);
    ("eng", no_args eng);
    ( "par",
      function
      | [] -> par ()
      | [ sizes ] -> par ~sizes:(parse_ints "size" sizes) ()
      | [ sizes; domains ] ->
          par ~sizes:(parse_ints "size" sizes)
            ~domains:(parse_ints "domain" domains) ()
      | _ -> raise (Usage "[sizes [domains]]") );
    ("kern", sizes_arg kern); ("obs", no_args obs_exp);
    ("faults", no_args faults_exp); ("tune", no_args tune);
    ("cc", sizes_arg cc); ("serve", no_args serve_bench);
    ("chaos", no_args chaos_bench); ("micro", no_args micro);
  ]

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
  let args = List.tl (strip (Array.to_list Sys.argv)) in
  if !trace_out <> None || !metrics then Obs.Config.set_enabled true;
  (match args with
  | [] -> List.iter (fun (_, run) -> run []) all
  | id :: rest -> (
      match List.assoc_opt id all with
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" id
            (String.concat ", " (List.map fst all));
          exit 1
      | Some run -> (
          try run rest
          with Usage syntax ->
            Printf.eprintf "usage: main.exe [--trace FILE] [--metrics] %s%s\n"
              id
              (if syntax = "" then "" else " " ^ syntax);
            exit 1)));
  Option.iter
    (fun path ->
      Obs.Export.write_chrome path [];
      Printf.eprintf "wrote telemetry trace %s\n" path)
    !trace_out;
  if !metrics then print_string (Obs.Export.prometheus ())

(* The paper's case study, end to end (§IV-D / Figure 5).

   A serial task-annotated DGEMM program is translated — parameterized
   only by the target PDL descriptor — into programs for (a) an
   8-core SMP and (b) the same machine with two GPUs, then executed
   on the simulated runtime. Functional correctness is checked at a
   small size; the Figure 5 speedups are then reproduced at the
   paper's size (8192) with the timing model.

     dune exec examples/gpgpu_dgemm.exe *)

let input_program =
  {|#define N 48

#pragma cascabel task : x86 : Idgemm : dgemm_blas : (A: read, B: read, C: readwrite)
void dgemm(double *A, double *B, double *C, int m, int n)
{
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      double acc = 0.0;
      for (int k = 0; k < n; k++)
        acc += A[i * n + k] * B[k * n + j];
      C[i * n + j] += acc;
    }
  }
}

#pragma cascabel task : Cuda : Idgemm : dgemm_cublas : (A: read, B: read, C: readwrite)
void dgemm_gpu(double *A, double *B, double *C, int m, int n)
{
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      double acc = 0.0;
      for (int k = 0; k < n; k++)
        acc += A[i * n + k] * B[k * n + j];
      C[i * n + j] += acc;
    }
  }
}

int main(void)
{
  double *A = malloc(N * N * sizeof(double));
  double *B = malloc(N * N * sizeof(double));
  double *C = malloc(N * N * sizeof(double));
  for (int i = 0; i < N * N; i++) {
    A[i] = 1.0 + i % 9;
    B[i] = 0.5 * (i % 11);
    C[i] = 0.0;
  }
  #pragma cascabel execute Idgemm : executionset01 (A:BLOCK:m, C:BLOCK:m)
  dgemm(A, B, C, N, N);
  double checksum = 0.0;
  for (int i = 0; i < N * N; i++)
    checksum += C[i];
  printf("checksum=%.3f\n", checksum);
  return 0;
}
|}

let () =
  let unit_ =
    match Minic.Parser.parse input_program with
    | Ok u -> u
    | Error e ->
        prerr_endline (Minic.Parser.error_to_string e);
        exit 1
  in

  (* --- 1. the serial baseline ("single") ------------------------- *)
  let serial_code, serial_out =
    match Cascabel.Runnable.run_serial unit_ with
    | Ok r -> r
    | Error e ->
        prerr_endline e;
        exit 1
  in
  Printf.printf "serial run: exit %d, %s" serial_code serial_out;

  (* --- 2. translate for two PDL descriptors, no source edits ----- *)
  let translate name platform =
    let repo = Cascabel.Repository.create () in
    match Cascabel.Codegen.translate ~repo ~platform unit_ with
    | Ok out ->
        Printf.printf "\n=== translation for %s ===\n" name;
        print_string (Cascabel.Preselect.report out.selections);
        Printf.printf "compilers: %s\n"
          (String.concat ", "
             (List.map
                (fun s -> s.Cascabel.Compile_plan.s_compiler)
                out.plan.Cascabel.Compile_plan.steps))
    | Error msgs -> List.iter prerr_endline msgs
  in
  translate "xeon-x5550-smp" Pdl_hwprobe.Zoo.xeon_x5550_smp;
  translate "xeon-2gpu" Pdl_hwprobe.Zoo.xeon_2gpu;

  (* --- 3. execute both translations; results must equal serial --- *)
  let run name platform =
    let repo = Cascabel.Repository.create () in
    match
      Cascabel.Runnable.run ~policy:Taskrt.Engine.Heft ~repo ~platform unit_
    with
    | Ok r ->
        Printf.printf "%-16s %s (%d tasks, %.6f virtual s)%s\n" name
          (String.trim r.stdout) r.stats.tasks r.stats.makespan
          (if r.stdout = serial_out then "  [matches serial]"
           else "  [MISMATCH]")
    | Error e -> Printf.printf "%-16s failed: %s\n" name e
  in
  print_newline ();
  run "starpu" Pdl_hwprobe.Zoo.xeon_x5550_smp;
  run "starpu+2gpus" Pdl_hwprobe.Zoo.xeon_2gpu;

  (* --- 4. Figure 5 at the paper's size (timing model) ------------ *)
  print_endline "\n=== Figure 5 (DGEMM 8192x8192, timing model) ===";
  let n = 8192 in
  let model name platform ~tiles ~policy =
    let cfg = Taskrt.Machine_config.of_platform_exn platform in
    let rt = Taskrt.Engine.create ~policy cfg in
    (name, Taskrt.Tiled_dgemm.model_on ~tiles rt ~n)
  in
  let single =
    model "single" Pdl_hwprobe.Zoo.single_core ~tiles:1
      ~policy:Taskrt.Engine.Eager
  in
  let smp =
    model "starpu" Pdl_hwprobe.Zoo.xeon_x5550_smp ~tiles:8
      ~policy:Taskrt.Engine.Eager
  in
  let gpu =
    model "starpu+2gpus" Pdl_hwprobe.Zoo.xeon_2gpu ~tiles:8
      ~policy:Taskrt.Engine.Heft
  in
  List.iter
    (fun (name, (s : Taskrt.Engine.stats)) ->
      Printf.printf "%-14s %8.2f s   speedup %5.2fx   %7.1f GFLOP/s\n" name
        s.makespan
        ((snd single).makespan /. s.makespan)
        (Taskrt.Engine.gflops ~flops:(Kernels.Blas.flops_dgemm n n n) s))
    [ single; smp; gpu ]

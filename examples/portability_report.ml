(* Performance-portability report: the paper motivates PDL as a step
   "towards support of performance-portability guarantees for
   well-defined classes of target environments" (§II). This example
   generates such a report: for each zoo platform it checks which task
   variants apply (pattern pre-selection), derives analytic
   performance bounds from the descriptor alone, and cross-checks them
   against the simulated runtime.

     dune exec examples/portability_report.exe *)

module MC = Taskrt.Machine_config
module Engine = Taskrt.Engine

let variants_src =
  {|#pragma cascabel task : x86 : Idgemm : dgemm_seq : (A: read, B: read, C: readwrite)
void dgemm_seq(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : smp : Idgemm : dgemm_smp : (A: read, B: read, C: readwrite)
void dgemm_smp(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : Cuda : Idgemm : dgemm_cublas : (A: read, B: read, C: readwrite)
void dgemm_cublas(double *A, double *B, double *C, int m, int n) { }

#pragma cascabel task : CellSDK : Idgemm : dgemm_cell : (A: read, B: read, C: readwrite)
void dgemm_cell(double *A, double *B, double *C, int m, int n) { }
|}

let () =
  let n = 8192 in
  let unit_ =
    match Minic.Parser.parse variants_src with
    | Ok u -> u
    | Error e -> failwith (Minic.Parser.error_to_string e)
  in
  Printf.printf
    "DGEMM %dx%d performance-portability report (4 task variants)\n\n" n n;
  Printf.printf "%-18s %-14s %10s %12s %12s %10s\n" "platform" "chosen"
    "bound [s]" "sim [s]" "sim GF/s" "sim/bound";
  List.iter
    (fun (name, platform) ->
      let repo = Cascabel.Repository.create () in
      (match Cascabel.Repository.register_unit repo unit_ with
      | Ok _ -> ()
      | Error e -> failwith e);
      match Cascabel.Preselect.select repo platform with
      | Error e -> Printf.printf "%-18s unsupported: %s\n" name e
      | Ok [ sel ] ->
          let chosen =
            match sel.chosen with
            | Some v -> v.Cascabel.Repository.v_name
            | None -> "?"
          in
          let cfg = MC.of_platform_exn platform in
          let bounds = Taskrt.Predict.dgemm_bounds cfg ~n in
          let sim =
            Taskrt.Tiled_dgemm.model_on
              ~tiles:(min 8 (Array.length cfg.workers))
              (Engine.create ~policy:Engine.Heft cfg)
              ~n
          in
          Printf.printf "%-18s %-14s %10.3f %12.3f %12.1f %9.2fx\n" name
            chosen bounds.lower_bound_s sim.Engine.makespan
            (Engine.gflops ~flops:(Kernels.Blas.flops_dgemm n n n) sim)
            (sim.Engine.makespan /. bounds.lower_bound_s)
      | Ok _ -> assert false)
    Pdl_hwprobe.Zoo.all;
  print_newline ();
  print_endline
    "bound: analytic lower bound from the PDL properties alone \
     (work/aggregate-throughput vs link transfer).";
  print_endline
    "sim/bound close to 1 means the descriptor alone predicts the \
     machine well — performance portability is explainable from the \
     PDL.";

  (* Where a platform pattern guards optimized code (paper: "highly
     optimized code ... equipped with additional platform
     requirements"), show the guarantee check. *)
  print_endline "\narchitectural-requirement checks (pattern guards):";
  List.iter
    (fun (req_name, pattern_src) ->
      let pattern = Pdl.Pattern.parse pattern_src in
      let ok_on =
        List.filter_map
          (fun (name, pf) ->
            if Pdl.Pattern.matches pattern pf then Some name else None)
          Pdl_hwprobe.Zoo.all
      in
      Printf.printf "  %-34s %s\n" req_name (String.concat ", " ok_on))
    [
      ("needs >=100 GF/s device", "Worker{DGEMM_THROUGHPUT>=100}");
      ("needs 8-way cpu pool", "Worker{ROLE=cpu-core,quantity>=8}");
      ("needs local-store accelerator", "Hybrid[Worker{ARCHITECTURE=spe}]");
    ]

module Matrix = Kernels.Matrix
module Lapack = Kernels.Lapack

type result = {
  l : Matrix.t option;
  stats : Engine.stats;
  gflops_effective : float;
}

let flops n = float_of_int n *. float_of_int n *. float_of_int n /. 3.0

(* --- codelets ---------------------------------------------------------- *)

(* Each computes in place on its tiles' views; submit_graph passes
   tiles of matching shapes. *)

let potrf_cl =
  Codelet.create ~name:"potrf"
    ~flops:(fun handles ->
      match handles with
      | [ h ] -> Lapack.flops_potrf (fst (Data.dims h))
      | _ -> 0.0)
    (* POTRF stays on the CPU, as in StarPU's Cholesky: tiny kernel,
       poor GPU fit. *)
    [
      Codelet.cpu_impl (fun ?pool handles ->
          match handles with
          | [ h ] ->
              let a, aoff, lda = Data.view h in
              Lapack.dpotrf_view ?pool ~n:(fst (Data.dims h)) ~a ~aoff ~lda ()
          | _ -> invalid_arg "potrf expects [a]");
    ]

let trsm_cl =
  Codelet.create ~name:"trsm"
    ~flops:(fun handles ->
      match handles with
      | [ l; b ] ->
          Lapack.flops_trsm (fst (Data.dims b)) (fst (Data.dims l))
      | _ -> 0.0)
    (let run ?pool handles =
       match handles with
       | [ hl; hb ] ->
           let m, n = Data.dims hb in
           Codelet.check_disjoint "trsm" ("B", hb) [ ("L", hl) ];
           let l, loff, ldl = Data.view hl and b, boff, ldb = Data.view hb in
           Lapack.dtrsm_rlt_view ?pool ~m ~n ~l ~loff ~ldl ~b ~boff ~ldb ()
       | _ -> invalid_arg "trsm expects [l; b]"
     in
     [ Codelet.cpu_impl run; Codelet.gpu_impl run ])

let syrk_cl =
  Codelet.create ~name:"syrk"
    ~flops:(fun handles ->
      match handles with
      | [ a; c ] -> Lapack.flops_syrk (fst (Data.dims c)) (snd (Data.dims a))
      | _ -> 0.0)
    (let run ?pool handles =
       match handles with
       | [ ha; hc ] ->
           let n, k = Data.dims ha in
           Codelet.check_disjoint "syrk" ("C", hc) [ ("A", ha) ];
           let a, aoff, lda = Data.view ha and c, coff, ldc = Data.view hc in
           Lapack.dsyrk_ln_view ?pool ~n ~k ~a ~aoff ~lda ~c ~coff ~ldc ()
       | _ -> invalid_arg "syrk expects [a; c]"
     in
     [ Codelet.cpu_impl run; Codelet.gpu_impl run ])

let gemm_cl =
  Codelet.create ~name:"gemm_nt"
    ~flops:(fun handles ->
      match handles with
      | [ a; b; _ ] ->
          2.0 *. Lapack.flops_syrk (fst (Data.dims a)) (snd (Data.dims b))
      | _ -> 0.0)
    (let run ?pool handles =
       match handles with
       | [ ha; hb; hc ] ->
           let m, k = Data.dims ha and n, _ = Data.dims hb in
           Codelet.check_disjoint "gemm_nt" ("C", hc) [ ("A", ha); ("B", hb) ];
           let a, aoff, lda = Data.view ha
           and b, boff, ldb = Data.view hb
           and c, coff, ldc = Data.view hc in
           Lapack.dgemm_nt_view ?pool ~m ~n ~k ~a ~aoff ~lda ~b ~boff ~ldb ~c
             ~coff ~ldc ()
       | _ -> invalid_arg "gemm_nt expects [a; b; c]"
     in
     [ Codelet.cpu_impl run; Codelet.gpu_impl run ])

(* --- the task graph ----------------------------------------------------- *)

(* Widen a cpu/gpu codelet to every architecture class of the machine
   (POTRF deliberately stays cpu-only). *)
let widen (cfg : Machine_config.t) cl =
  let base_run = (Option.get (Codelet.impl_for cl "cpu")).Codelet.run in
  let archs =
    Array.to_list cfg.Machine_config.workers
    |> List.map (fun (w : Machine_config.worker) -> w.w_arch)
    |> List.sort_uniq compare
  in
  Codelet.create ~name:cl.Codelet.cl_name ~flops:cl.Codelet.flops
    (List.map (fun impl_arch -> { Codelet.impl_arch; run = base_run }) archs)

let submit_graph rt tiles grid =
  let open Codelet in
  let cfg = Engine.machine rt in
  let trsm_cl = widen cfg trsm_cl
  and syrk_cl = widen cfg syrk_cl
  and gemm_cl = widen cfg gemm_cl in
  for k = 0 to tiles - 1 do
    Engine.submit rt potrf_cl [ (grid.(k).(k), RW) ];
    for i = k + 1 to tiles - 1 do
      Engine.submit rt trsm_cl [ (grid.(k).(k), R); (grid.(i).(k), RW) ]
    done;
    for i = k + 1 to tiles - 1 do
      Engine.submit rt syrk_cl [ (grid.(i).(k), R); (grid.(i).(i), RW) ];
      for j = k + 1 to i - 1 do
        Engine.submit rt gemm_cl
          [ (grid.(i).(k), R); (grid.(j).(k), R); (grid.(i).(j), RW) ]
      done
    done
  done

let result ~n l (stats : Engine.stats) =
  {
    l;
    stats;
    gflops_effective =
      (if stats.Engine.makespan > 0.0 then flops n /. stats.Engine.makespan /. 1e9
       else 0.0);
  }

let check_args who ~tiles ~rows ~cols =
  if rows <> cols then invalid_arg ("Tiled_cholesky." ^ who ^ ": not square");
  if tiles < 1 || tiles > rows then
    invalid_arg ("Tiled_cholesky." ^ who ^ ": bad tiles")

(* Submit the graph on [handle] ([configure] runs after submission,
   before execution), wait, and reassemble the matrix. *)
let submit_and_wait ?(configure = ignore) rt ~tiles handle =
  let grid = Data.partition_tiles handle ~rows:tiles ~cols:tiles in
  submit_graph rt tiles grid;
  configure rt;
  let stats = Engine.wait_all rt in
  Data.unpartition handle;
  stats

(* The tasks factor a working copy of [a] in place. *)
let factor ?configure rt ~tiles (a : Matrix.t) =
  let m = Matrix.copy a in
  let stats =
    submit_and_wait ?configure rt ~tiles (Data.register_matrix ~name:"A" m)
  in
  (* only the lower factor is meaningful *)
  Matrix.zero_upper m;
  (m, stats)

let run_on ?(tiles = 4) rt (a : Matrix.t) =
  check_args "run_on" ~tiles ~rows:a.rows ~cols:a.cols;
  factor rt ~tiles a

let run ?policy ?(tiles = 4) ?configure ?pool ?faults cfg (a : Matrix.t) =
  check_args "run" ~tiles ~rows:a.rows ~cols:a.cols;
  let rt = Engine.create ?policy ?pool ?faults cfg in
  let l, stats = factor ?configure rt ~tiles a in
  result ~n:a.rows (Some l) stats

let run_model ?policy ?(tiles = 8) ?configure ?faults cfg ~n =
  check_args "run_model" ~tiles ~rows:n ~cols:n;
  let rt = Engine.create ?policy ~execute_kernels:false ?faults cfg in
  let ha = Data.register_virtual ~name:"A" ~rows:n ~cols:n () in
  result ~n None (submit_and_wait ?configure rt ~tiles ha)

module Matrix = Kernels.Matrix
module Lapack = Kernels.Lapack

type result = {
  l : Matrix.t option;
  stats : Engine.stats;
  gflops_effective : float;
}

let flops n = float_of_int n *. float_of_int n *. float_of_int n /. 3.0

(* --- codelets ---------------------------------------------------------- *)

let with_matrix h f =
  let m = Data.read_matrix h in
  f m;
  Data.write_matrix h m

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
          | [ h ] -> with_matrix h (Lapack.dpotrf ?pool)
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
           let l = Data.read_matrix hl in
           with_matrix hb (fun b -> Lapack.dtrsm_rlt ?pool ~l b)
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
           let a = Data.read_matrix ha in
           with_matrix hc (fun c -> Lapack.dsyrk_ln ?pool ~a c)
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
           let a = Data.read_matrix ha and b = Data.read_matrix hb in
           with_matrix hc (fun c -> Lapack.dgemm_nt ?pool ~a ~b c)
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

let submit_graph rt cfg tiles grid =
  let open Codelet in
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

let finish rt ~n ~ha ~materialize =
  let stats = Engine.wait_all rt in
  Data.unpartition ha;
  let l =
    if not materialize then None
    else begin
      let m = Data.read_matrix ha in
      (* only the lower factor is meaningful *)
      Matrix.zero_upper m;
      Some m
    end
  in
  {
    l;
    stats;
    gflops_effective =
      (if stats.Engine.makespan > 0.0 then flops n /. stats.Engine.makespan /. 1e9
       else 0.0);
  }

let run_on ?(tiles = 4) rt (a : Matrix.t) =
  if a.rows <> a.cols then invalid_arg "Tiled_cholesky.run_on: not square";
  if tiles < 1 || tiles > a.rows then
    invalid_arg "Tiled_cholesky.run_on: bad tiles";
  let ha = Data.register_matrix ~name:"A" (Matrix.copy a) in
  let grid = Data.partition_tiles ha ~rows:tiles ~cols:tiles in
  submit_graph rt (Engine.machine rt) tiles grid;
  let stats = Engine.wait_all rt in
  Data.unpartition ha;
  let m = Data.read_matrix ha in
  Matrix.zero_upper m;
  (m, stats)

let run ?policy ?(tiles = 4) ?(configure = ignore) ?pool ?faults cfg
    (a : Matrix.t) =
  if a.rows <> a.cols then invalid_arg "Tiled_cholesky.run: not square";
  if tiles < 1 || tiles > a.rows then invalid_arg "Tiled_cholesky.run: bad tiles";
  let rt = Engine.create ?policy ?pool ?faults cfg in
  let ha = Data.register_matrix ~name:"A" (Matrix.copy a) in
  let grid = Data.partition_tiles ha ~rows:tiles ~cols:tiles in
  submit_graph rt cfg tiles grid;
  configure rt;
  finish rt ~n:a.rows ~ha ~materialize:true

let run_model ?policy ?(tiles = 8) ?(configure = ignore) ?faults cfg ~n =
  if tiles < 1 || tiles > n then invalid_arg "Tiled_cholesky.run_model: bad tiles";
  let rt = Engine.create ?policy ~execute_kernels:false ?faults cfg in
  let ha = Data.register_virtual ~name:"A" ~rows:n ~cols:n () in
  let grid = Data.partition_tiles ha ~rows:tiles ~cols:tiles in
  submit_graph rt cfg tiles grid;
  configure rt;
  finish rt ~n ~ha ~materialize:false

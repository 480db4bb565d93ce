module Matrix = Kernels.Matrix
module Lapack = Kernels.Lapack

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

(* Submit the graph on [handle], wait, and reassemble the matrix. *)
let submit_and_wait rt ~tiles handle =
  let open Codelet in
  let grid = Data.partition_tiles handle ~rows:tiles ~cols:tiles in
  let cfg = Engine.machine rt in
  (* POTRF deliberately stays cpu-only. *)
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
  done;
  let stats = Engine.wait_all rt in
  Data.unpartition handle;
  stats

let check_args who ~tiles ~rows ~cols =
  if rows <> cols then invalid_arg ("Tiled_cholesky." ^ who ^ ": not square");
  if tiles < 1 || tiles > rows then
    invalid_arg ("Tiled_cholesky." ^ who ^ ": bad tiles")

let run_on ?(tiles = 4) rt (a : Matrix.t) =
  check_args "run_on" ~tiles ~rows:a.rows ~cols:a.cols;
  let stats = submit_and_wait rt ~tiles (Data.register_matrix ~name:"A" a) in
  (* only the lower factor is meaningful *)
  Matrix.zero_upper a;
  stats

let model_on ?(tiles = 8) rt ~n =
  check_args "model_on" ~tiles ~rows:n ~cols:n;
  submit_and_wait rt ~tiles (Data.register_virtual ~name:"A" ~rows:n ~cols:n ())

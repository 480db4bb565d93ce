module Matrix = Kernels.Matrix
module Blas = Kernels.Blas

type access = R | W | RW

let access_to_string = function R -> "R" | W -> "W" | RW -> "RW"

type impl = {
  impl_arch : string;
  run : ?pool:Kernels.Domain_pool.t -> Data.handle list -> unit;
}

type t = {
  cl_name : string;
  impls : impl list;
  flops : Data.handle list -> float;
}

let default_flops = function
  | [] -> 0.0
  | h :: _ ->
      let rows, cols = Data.dims h in
      float_of_int rows *. float_of_int cols

let create ~name ?(flops = default_flops) impls =
  if impls = [] then invalid_arg "Codelet.create: no implementations";
  let archs = List.map (fun i -> i.impl_arch) impls in
  let distinct = List.sort_uniq compare archs in
  if List.length distinct <> List.length archs then
    invalid_arg
      (Printf.sprintf "Codelet.create: duplicate implementation for %S" name);
  { cl_name = name; impls; flops }

let cpu_impl run = { impl_arch = "cpu"; run }
let gpu_impl run = { impl_arch = "gpu"; run }

let impl_for cl arch = List.find_opt (fun i -> i.impl_arch = arch) cl.impls
let supports cl arch = List.exists (fun i -> String.equal i.impl_arch arch) cl.impls

let widen (cfg : Machine_config.t) cl =
  let base_run = (Option.get (impl_for cl "cpu")).run in
  let archs =
    Array.to_list cfg.Machine_config.workers
    |> List.map (fun (w : Machine_config.worker) -> w.w_arch)
    |> List.sort_uniq compare
  in
  create ~name:cl.cl_name ~flops:cl.flops
    (List.map (fun impl_arch -> { impl_arch; run = base_run }) archs)

(* In-place codelets compute on the registered storage: a written
   view overlapping a read one would read elements already
   overwritten, so it is refused, as blas_dgemm refuses it. *)
let check_disjoint name (wlabel, written) reads =
  List.iter
    (fun (rlabel, h) ->
      if Data.overlaps written h then
        invalid_arg (Printf.sprintf "%s: %s overlaps %s" name wlabel rlabel))
    reads

let dgemm_run ?pool handles =
  match handles with
  | [ ha; hb; hc ] ->
      let m, k = Data.dims ha and k', n = Data.dims hb in
      if k <> k' || Data.dims hc <> (m, n) then
        invalid_arg "dgemm codelet: shape mismatch";
      check_disjoint "dgemm" ("C", hc) [ ("A", ha); ("B", hb) ];
      let a, aoff, lda = Data.view ha
      and b, boff, ldb = Data.view hb
      and c, coff, ldc = Data.view hc in
      Kernels.Gemm_kernel.gemm ?pool ~trans_b:false ~m ~n ~k ~alpha:1.0
        ~beta:1.0 ~a ~aoff ~lda ~b ~boff ~ldb ~c ~coff ~ldc ()
  | _ -> invalid_arg "dgemm codelet expects handles [a; b; c]"

let dgemm =
  create ~name:"dgemm"
    ~flops:(fun handles ->
      match handles with
      | [ ha; hb; _ ] ->
          let m, k = Data.dims ha in
          let _, n = Data.dims hb in
          Blas.flops_dgemm m n k
      | _ -> 0.0)
    [ cpu_impl dgemm_run; gpu_impl dgemm_run ]

let vector_add =
  create ~name:"vector_add"
    ~flops:(fun handles ->
      match handles with
      | h :: _ ->
          let r, c = Data.dims h in
          float_of_int (r * c)
      | [] -> 0.0)
    (let run ?pool handles =
       match handles with
       | [ ha; hb ] ->
           let a = Data.read_matrix ha and b = Data.read_matrix hb in
           Blas.matrix_add ?pool a b;
           Data.write_matrix ha a
       | _ -> invalid_arg "vector_add codelet expects handles [a; b]"
     in
     [ cpu_impl run; gpu_impl run ])

let noop ~name ~flops ~archs =
  create ~name
    ~flops:(fun _ -> flops)
    (List.map
       (fun impl_arch -> { impl_arch; run = (fun ?pool:_ _ -> ()) })
       archs)

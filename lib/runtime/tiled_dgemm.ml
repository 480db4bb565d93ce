module Matrix = Kernels.Matrix

type result = {
  c : Matrix.t option;
  stats : Engine.stats;
  gflops_effective : float;
}

(* The generic dgemm codelet carries cpu and gpu implementations; a
   machine may expose further architecture classes (e.g. Cell SPEs).
   Clone the implementation for every class the machine has so model
   runs use the whole machine. *)
let dgemm_codelet (cfg : Machine_config.t) =
  let base_run =
    (Option.get (Codelet.impl_for Codelet.dgemm "cpu")).Codelet.run
  in
  let archs =
    Array.to_list cfg.workers
    |> List.map (fun (w : Machine_config.worker) -> w.w_arch)
    |> List.sort_uniq compare
  in
  Codelet.create ~name:"dgemm" ~flops:Codelet.dgemm.Codelet.flops
    (List.map (fun impl_arch -> { Codelet.impl_arch; run = base_run }) archs)

let submit_graph rt ~codelet ~tiles ?group ~ha ~hb ~hc () =
  let a_strips = Data.partition_rows ha tiles in
  let b_strips =
    (* Column strips of B: a 1 x tiles grid. *)
    Data.partition_tiles hb ~rows:1 ~cols:tiles
  in
  let c_tiles = Data.partition_tiles hc ~rows:tiles ~cols:tiles in
  for i = 0 to tiles - 1 do
    for j = 0 to tiles - 1 do
      Engine.submit ?group rt codelet
        [
          (a_strips.(i), Codelet.R);
          (b_strips.(0).(j), Codelet.R);
          (c_tiles.(i).(j), Codelet.RW);
        ]
    done
  done

let finish ~flops ~hc ~materialize rt =
  let stats = Engine.wait_all rt in
  Data.unpartition hc;
  {
    c = (if materialize then Some (Data.read_matrix hc) else None);
    stats;
    gflops_effective =
      (if stats.Engine.makespan > 0.0 then flops /. stats.Engine.makespan /. 1e9
       else 0.0);
  }

let run_on ?(tiles = 4) ?group rt ~(a : Matrix.t) ~(b : Matrix.t) =
  if a.cols <> b.rows then invalid_arg "Tiled_dgemm.run_on: shape mismatch";
  if tiles < 1 || tiles > a.rows || tiles > b.cols then
    invalid_arg "Tiled_dgemm.run_on: bad tile count";
  let codelet = dgemm_codelet (Engine.machine rt) in
  let ha = Data.register_matrix ~name:"A" (Matrix.copy a) in
  let hb = Data.register_matrix ~name:"B" (Matrix.copy b) in
  let hc = Data.register_matrix ~name:"C" (Matrix.create a.rows b.cols) in
  submit_graph rt ~codelet ~tiles ?group ~ha ~hb ~hc ();
  let stats = Engine.wait_all rt in
  Data.unpartition hc;
  (Data.read_matrix hc, stats)

let run ?policy ?(tiles = 4) ?group ?pool ?faults ?tune cfg
    ~(a : Matrix.t) ~(b : Matrix.t) =
  if a.cols <> b.rows then invalid_arg "Tiled_dgemm.run: shape mismatch";
  if tiles < 1 || tiles > a.rows || tiles > b.cols then
    invalid_arg "Tiled_dgemm.run: bad tile count";
  let rt = Engine.create ?policy ?pool ?faults ?tune cfg in
  let codelet = dgemm_codelet cfg in
  let ha = Data.register_matrix ~name:"A" (Matrix.copy a) in
  let hb = Data.register_matrix ~name:"B" (Matrix.copy b) in
  let hc = Data.register_matrix ~name:"C" (Matrix.create a.rows b.cols) in
  submit_graph rt ~codelet ~tiles ?group ~ha ~hb ~hc ();
  finish ~flops:(Kernels.Blas.flops_dgemm a.rows b.cols a.cols) ~hc
    ~materialize:true rt

let run_model ?policy ?(tiles = 8) ?group ?faults ?tune ?true_gflops cfg ~n =
  if tiles < 1 || tiles > n then invalid_arg "Tiled_dgemm.run_model: bad tiles";
  let rt =
    Engine.create ?policy ~execute_kernels:false ?faults ?tune ?true_gflops cfg
  in
  let codelet = dgemm_codelet cfg in
  let ha = Data.register_virtual ~name:"A" ~rows:n ~cols:n () in
  let hb = Data.register_virtual ~name:"B" ~rows:n ~cols:n () in
  let hc = Data.register_virtual ~name:"C" ~rows:n ~cols:n () in
  submit_graph rt ~codelet ~tiles ?group ~ha ~hb ~hc ();
  finish ~flops:(Kernels.Blas.flops_dgemm n n n) ~hc ~materialize:false rt

let speedup ~baseline result =
  baseline.stats.Engine.makespan /. result.stats.Engine.makespan

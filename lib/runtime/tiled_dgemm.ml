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

let result ~flops c (stats : Engine.stats) =
  {
    c;
    stats;
    gflops_effective =
      (if stats.Engine.makespan > 0.0 then flops /. stats.Engine.makespan /. 1e9
       else 0.0);
  }

(* Submit the graph over the three handles, wait, and reassemble C. *)
let submit_and_wait ?group rt ~tiles ~ha ~hb ~hc =
  let codelet = dgemm_codelet (Engine.machine rt) in
  submit_graph rt ~codelet ~tiles ?group ~ha ~hb ~hc ();
  let stats = Engine.wait_all rt in
  Data.unpartition hc;
  stats

let check_args who ~tiles (a : Matrix.t) (b : Matrix.t) =
  if a.cols <> b.rows then
    invalid_arg ("Tiled_dgemm." ^ who ^ ": shape mismatch");
  if tiles < 1 || tiles > a.rows || tiles > b.cols then
    invalid_arg ("Tiled_dgemm." ^ who ^ ": bad tile count")

(* A and B are only read, so the tasks read them where they are; the
   product lands in place in the registered C. *)
let multiply ?group rt ~tiles (a : Matrix.t) (b : Matrix.t) =
  let c = Matrix.create a.rows b.cols in
  let stats =
    submit_and_wait ?group rt ~tiles
      ~ha:(Data.register_matrix ~name:"A" a)
      ~hb:(Data.register_matrix ~name:"B" b)
      ~hc:(Data.register_matrix ~name:"C" c)
  in
  (c, stats)

let run_on ?(tiles = 4) ?group rt ~a ~b =
  check_args "run_on" ~tiles a b;
  multiply ?group rt ~tiles a b

let run ?policy ?(tiles = 4) ?group ?pool ?faults ?tune cfg ~(a : Matrix.t)
    ~(b : Matrix.t) =
  check_args "run" ~tiles a b;
  let rt = Engine.create ?policy ?pool ?faults ?tune cfg in
  let c, stats = multiply ?group rt ~tiles a b in
  result ~flops:(Kernels.Blas.flops_dgemm a.rows b.cols a.cols) (Some c) stats

let run_model ?policy ?(tiles = 8) ?group ?faults ?tune ?true_gflops cfg ~n =
  if tiles < 1 || tiles > n then invalid_arg "Tiled_dgemm.run_model: bad tiles";
  let rt =
    Engine.create ?policy ~execute_kernels:false ?faults ?tune ?true_gflops cfg
  in
  let virt name = Data.register_virtual ~name ~rows:n ~cols:n () in
  submit_and_wait ?group rt ~tiles ~ha:(virt "A") ~hb:(virt "B") ~hc:(virt "C")
  |> result ~flops:(Kernels.Blas.flops_dgemm n n n) None

let speedup ~baseline result =
  baseline.stats.Engine.makespan /. result.stats.Engine.makespan

module Matrix = Kernels.Matrix

(* Submit the graph over the three handles, wait, and reassemble C. *)
let submit_and_wait ?group rt ~tiles ~ha ~hb ~hc =
  let codelet = Codelet.widen (Engine.machine rt) Codelet.dgemm in
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
  done;
  let stats = Engine.wait_all rt in
  Data.unpartition hc;
  stats

(* A and B are only read, so the tasks read them where they are; the
   product accumulates in place into the caller's C. *)
let run_on ?(tiles = 4) ?group rt ~(a : Matrix.t) ~(b : Matrix.t)
    ~(c : Matrix.t) =
  if a.cols <> b.rows || c.rows <> a.rows || c.cols <> b.cols then
    invalid_arg "Tiled_dgemm.run_on: shape mismatch";
  if tiles < 1 || tiles > a.rows || tiles > b.cols then
    invalid_arg "Tiled_dgemm.run_on: bad tile count";
  submit_and_wait ?group rt ~tiles
    ~ha:(Data.register_matrix ~name:"A" a)
    ~hb:(Data.register_matrix ~name:"B" b)
    ~hc:(Data.register_matrix ~name:"C" c)

let model_on ?(tiles = 8) ?group rt ~n =
  if tiles < 1 || tiles > n then invalid_arg "Tiled_dgemm.model_on: bad tiles";
  let virt name = Data.register_virtual ~name ~rows:n ~cols:n () in
  submit_and_wait ?group rt ~tiles ~ha:(virt "A") ~hb:(virt "B") ~hc:(virt "C")

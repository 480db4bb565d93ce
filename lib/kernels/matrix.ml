module BA1 = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type t = { rows : int; cols : int; data : buf }

external alloc_policy : unit -> bool = "cas_alloc_policy" [@@noalloc]

(* One mallopt pair at start-up (dgemm_stubs.c); see matrix.mli. *)
let resident_buffers = alloc_policy ()

let alloc_buf n : buf = BA1.create Bigarray.float64 Bigarray.c_layout n

let create_buf n =
  let b = alloc_buf n in
  BA1.fill b 0.0;
  b

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = create_buf (rows * cols) }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      BA1.unsafe_set m.data ((i * cols) + j) (f i j)
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

external lcg_fill : buf -> int -> int -> unit = "cas_lcg_fill" [@@noalloc]

(* Element i holds state s_{i+1} of the Numerical Recipes LCG
   s' = (a*s + c) mod 2^32 from s_0 = seed (low 30 bits), mapped to
   [-1, 1) as s * 2^-31 - 1: deterministic across runs and platforms.
   The fill runs in C on sixteen jump-ahead lanes (exact_stubs.c). *)
let random ?(seed = 42) rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.random: negative dimension";
  let d = alloc_buf (rows * cols) in
  lcg_fill d (rows * cols) (seed land 0x3FFFFFFF);
  { rows; cols; data = d }

let get m i j = m.data.{(i * m.cols) + j}
let set m i j v = m.data.{(i * m.cols) + j} <- v

let copy m =
  let c = { m with data = alloc_buf (m.rows * m.cols) } in
  BA1.blit m.data c.data;
  c

let dims m = (m.rows, m.cols)

let of_array ~rows ~cols a =
  if rows < 0 || cols < 0 then
    invalid_arg "Matrix.of_array: negative dimension";
  if Array.length a <> rows * cols then
    invalid_arg "Matrix.of_array: length mismatch";
  let m = { rows; cols; data = alloc_buf (rows * cols) } in
  for i = 0 to (rows * cols) - 1 do
    BA1.unsafe_set m.data i (Array.unsafe_get a i)
  done;
  m

let to_array m =
  Array.init (m.rows * m.cols) (fun i -> BA1.unsafe_get m.data i)

let sub_block m ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || row + rows > m.rows || col + cols > m.cols then
    invalid_arg "Matrix.sub_block: out of bounds";
  let b = { rows; cols; data = alloc_buf (rows * cols) } in
  (* one memcpy per row instead of element-wise get/set *)
  for i = 0 to rows - 1 do
    BA1.blit
      (BA1.sub m.data (((row + i) * m.cols) + col) cols)
      (BA1.sub b.data (i * cols) cols)
  done;
  b

let set_block m ~row ~col b =
  if row < 0 || col < 0 || row + b.rows > m.rows || col + b.cols > m.cols then
    invalid_arg "Matrix.set_block: out of bounds";
  for i = 0 to b.rows - 1 do
    BA1.blit
      (BA1.sub b.data (i * b.cols) b.cols)
      (BA1.sub m.data (((row + i) * m.cols) + col) b.cols)
  done

let zero_upper m =
  for i = 0 to min m.rows (m.cols - 1) - 1 do
    BA1.fill (BA1.sub m.data ((i * m.cols) + i + 1) (m.cols - i - 1)) 0.0
  done

let frobenius m =
  let acc = ref 0.0 in
  for i = 0 to BA1.dim m.data - 1 do
    let x = BA1.unsafe_get m.data i in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix.max_abs_diff: shape mismatch";
  let worst = ref 0.0 in
  for i = 0 to BA1.dim a.data - 1 do
    let d = Float.abs (BA1.unsafe_get a.data i -. BA1.unsafe_get b.data i) in
    if d > !worst then worst := d
  done;
  !worst

let approx_equal ?(tol = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (frobenius a) (frobenius b)) in
  max_abs_diff a b <= tol *. scale

let checksum m =
  let acc = ref 0.0 in
  for i = 0 to BA1.dim m.data - 1 do
    acc := !acc +. BA1.unsafe_get m.data i
  done;
  !acc

let pp ppf m =
  if m.rows * m.cols <= 64 then begin
    Format.fprintf ppf "@[<v>";
    for i = 0 to m.rows - 1 do
      Format.fprintf ppf "[";
      for j = 0 to m.cols - 1 do
        if j > 0 then Format.fprintf ppf " ";
        Format.fprintf ppf "%8.4f" (get m i j)
      done;
      Format.fprintf ppf "]";
      if i < m.rows - 1 then Format.pp_print_cut ppf ()
    done;
    Format.fprintf ppf "@]"
  end
  else
    Format.fprintf ppf "<%dx%d matrix, frobenius %.6g>" m.rows m.cols
      (frobenius m)

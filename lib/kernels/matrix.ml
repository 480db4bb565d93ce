module BA1 = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type t = { rows : int; cols : int; data : buf }

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

(* Numerical Recipes LCG, s' = (a*s + c) mod 2^32; deterministic
   across runs and platforms.  One step keeps a*s + c below 2^53. *)
let lcg_a = 1664525
let lcg_c = 1013904223
let mask32 = 0xFFFFFFFF

(* Four steps at once: s_{i+4} = a4*s_i + c4 with a4 = a^4 and
   c4 = c*(a^3 + a^2 + a + 1), both mod 2^32. *)
let lcg_a4, lcg_c4 =
  let step (a', c') =
    ((a' * lcg_a) land mask32, ((c' * lcg_a) + lcg_c) land mask32)
  in
  step (step (step (step (1, 0))))

(* Element i holds state s_{i+1} mapped to [-1, 1).  Four interleaved
   streams, each advanced by the 4-step constants, break the serial
   multiply chain; a4*s reaches 2^64 and wraps modulo 2^63, which
   leaves the low 32 bits exact.  Multiplying by 2^-31 equals dividing
   by 2^31 bit for bit. *)
let random ?(seed = 42) rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  let len = rows * cols in
  let d = alloc_buf len in
  let next s = ((s * lcg_a) + lcg_c) land mask32 in
  let s0 = ref (next (seed land 0x3FFFFFFF)) in
  let s1 = ref (next !s0) in
  let s2 = ref (next !s1) in
  let s3 = ref (next !s2) in
  let i = ref 0 in
  while !i + 4 <= len do
    BA1.unsafe_set d !i ((float_of_int !s0 *. 0x1p-31) -. 1.0);
    BA1.unsafe_set d (!i + 1) ((float_of_int !s1 *. 0x1p-31) -. 1.0);
    BA1.unsafe_set d (!i + 2) ((float_of_int !s2 *. 0x1p-31) -. 1.0);
    BA1.unsafe_set d (!i + 3) ((float_of_int !s3 *. 0x1p-31) -. 1.0);
    s0 := ((lcg_a4 * !s0) + lcg_c4) land mask32;
    s1 := ((lcg_a4 * !s1) + lcg_c4) land mask32;
    s2 := ((lcg_a4 * !s2) + lcg_c4) land mask32;
    s3 := ((lcg_a4 * !s3) + lcg_c4) land mask32;
    i := !i + 4
  done;
  (* fewer than four left: stream j holds element !i + j *)
  if !i < len then BA1.unsafe_set d !i ((float_of_int !s0 *. 0x1p-31) -. 1.0);
  if !i + 1 < len then
    BA1.unsafe_set d (!i + 1) ((float_of_int !s1 *. 0x1p-31) -. 1.0);
  if !i + 2 < len then
    BA1.unsafe_set d (!i + 2) ((float_of_int !s2 *. 0x1p-31) -. 1.0);
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

module BA1 = Bigarray.Array1

let shape_check (a : Matrix.t) (b : Matrix.t) (c : Matrix.t) =
  if a.cols <> b.rows || c.rows <> a.rows || c.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "dgemm: shape mismatch (%dx%d)*(%dx%d)->(%dx%d)" a.rows
         a.cols b.rows b.cols c.rows c.cols)

let dgemm_naive ?(alpha = 1.0) ?(beta = 1.0) (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) =
  shape_check a b c;
  let m = a.rows and k = a.cols and n = b.cols in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (Matrix.get a i l *. Matrix.get b l j)
      done;
      Matrix.set c i j ((alpha *. !acc) +. (beta *. Matrix.get c i j))
    done
  done

(* One row panel [row_lo, row_hi) of the blocked ikj DGEMM.  The
   arithmetic touching a given row of C depends only on the (ll, jj)
   block walk, which is identical whatever panel the row lands in —
   that is what keeps pooled and sequential runs bit-identical. *)
let dgemm_blocked_panel ~alpha ~beta ~block ~k ~n (ad : Matrix.buf)
    (bd : Matrix.buf) (cd : Matrix.buf) ~row_lo ~row_hi =
  if beta <> 1.0 then
    for i = row_lo * n to (row_hi * n) - 1 do
      BA1.unsafe_set cd i (beta *. BA1.unsafe_get cd i)
    done;
  let ii = ref row_lo in
  while !ii < row_hi do
    let i_hi = min (!ii + block) row_hi in
    let ll = ref 0 in
    while !ll < k do
      let l_hi = min (!ll + block) k in
      let jj = ref 0 in
      while !jj < n do
        let j_hi = min (!jj + block) n in
        for i = !ii to i_hi - 1 do
          let a_row = i * k and c_row = i * n in
          for l = !ll to l_hi - 1 do
            let av = alpha *. BA1.unsafe_get ad (a_row + l) in
            if av <> 0.0 then begin
              let b_row = l * n in
              for j = !jj to j_hi - 1 do
                BA1.unsafe_set cd (c_row + j)
                  (BA1.unsafe_get cd (c_row + j)
                  +. (av *. BA1.unsafe_get bd (b_row + j)))
              done
            end
          done
        done;
        jj := j_hi
      done;
      ll := l_hi
    done;
    ii := i_hi
  done

(* Blocked ikj DGEMM (no packing, no register blocking) — kept as the
   mid-tier variant between [dgemm_naive] and [dgemm].  With
   [pool], row panels of [block] rows are factored out across the
   pool's domains; each panel owns its rows of C outright, so the
   result is bit-identical to the sequential run. *)
let dgemm_blocked ?(alpha = 1.0) ?(beta = 1.0) ?(block = 64) ?pool
    (a : Matrix.t) (b : Matrix.t) (c : Matrix.t) =
  shape_check a b c;
  if block < 1 then invalid_arg "dgemm: block must be positive";
  let m = a.rows and k = a.cols and n = b.cols in
  let ad = a.data and bd = b.data and cd = c.data in
  let panel row_lo row_hi =
    dgemm_blocked_panel ~alpha ~beta ~block ~k ~n ad bd cd ~row_lo ~row_hi
  in
  match pool with
  | Some pool when m > block && Domain_pool.num_domains pool > 1 ->
      let npanels = (m + block - 1) / block in
      Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:npanels (fun p ->
          panel (p * block) (min m ((p + 1) * block)))
  | _ -> panel 0 m

(* Packed, cache-blocked DGEMM — the fast path (see Gemm_kernel). *)
let dgemm ?(alpha = 1.0) ?(beta = 1.0) ?pool (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) =
  shape_check a b c;
  Gemm_kernel.gemm ?pool ~trans_b:false ~m:a.rows ~n:b.cols ~k:a.cols ~alpha
    ~beta ~a:a.data ~aoff:0 ~lda:a.cols ~b:b.data ~boff:0 ~ldb:b.cols
    ~c:c.data ~coff:0 ~ldc:c.cols ()

let dgemv ?(alpha = 1.0) ?(beta = 1.0) ?pool (a : Matrix.t) x y =
  if Array.length x <> a.cols || Array.length y <> a.rows then
    invalid_arg "dgemv: shape mismatch";
  let row i =
    let acc = ref 0.0 in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (BA1.unsafe_get a.data (base + j) *. Array.unsafe_get x j)
    done;
    y.(i) <- (alpha *. !acc) +. (beta *. y.(i))
  in
  match pool with
  | Some pool when a.rows * a.cols >= 65_536 && Domain_pool.num_domains pool > 1
    ->
      Domain_pool.parallel_for pool ~lo:0 ~hi:a.rows row
  | _ ->
      for i = 0 to a.rows - 1 do
        row i
      done

let daxpy ?pool alpha x y =
  if Array.length x <> Array.length y then invalid_arg "daxpy: length mismatch";
  let n = Array.length x in
  let span lo hi =
    for i = lo to hi - 1 do
      Array.unsafe_set y i
        (Array.unsafe_get y i +. (alpha *. Array.unsafe_get x i))
    done
  in
  match pool with
  | Some pool when n >= 65_536 && Domain_pool.num_domains pool > 1 ->
      let chunk = 16_384 in
      let nchunks = (n + chunk - 1) / chunk in
      Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:nchunks (fun c ->
          span (c * chunk) (min n ((c + 1) * chunk)))
  | _ -> span 0 n

(* Pooled ddot reduces fixed 16k-element chunk partials in chunk
   order, so the result is deterministic for every domain count — but
   may differ from the sequential sum by rounding. *)
let ddot ?pool x y =
  if Array.length x <> Array.length y then invalid_arg "ddot: length mismatch";
  let n = Array.length x in
  let span lo hi =
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
    done;
    !acc
  in
  match pool with
  | Some pool when n >= 65_536 && Domain_pool.num_domains pool > 1 ->
      let chunk = 16_384 in
      let nchunks = (n + chunk - 1) / chunk in
      let partial = Array.make nchunks 0.0 in
      Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:nchunks (fun c ->
          partial.(c) <- span (c * chunk) (min n ((c + 1) * chunk)));
      Array.fold_left ( +. ) 0.0 partial
  | _ -> span 0 n

let dscal alpha x =
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set x i (alpha *. Array.unsafe_get x i)
  done

let dnrm2 x = sqrt (ddot x x)
let vector_add ?pool a b = daxpy ?pool 1.0 b a

(* [a := a + b] elementwise over whole matrices; same pooled chunking
   (and bitwise-identity argument) as daxpy, on Bigarray storage. *)
let matrix_add ?pool (a : Matrix.t) (b : Matrix.t) =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "matrix_add: shape mismatch";
  let n = a.rows * a.cols in
  let ad = a.data and bd = b.data in
  let span lo hi =
    for i = lo to hi - 1 do
      BA1.unsafe_set ad i (BA1.unsafe_get ad i +. BA1.unsafe_get bd i)
    done
  in
  match pool with
  | Some pool when n >= 65_536 && Domain_pool.num_domains pool > 1 ->
      let chunk = 16_384 in
      let nchunks = (n + chunk - 1) / chunk in
      Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:nchunks (fun c ->
          span (c * chunk) (min n ((c + 1) * chunk)))
  | _ -> span 0 n

let flops_dgemm m n k = 2.0 *. float_of_int m *. float_of_int n *. float_of_int k

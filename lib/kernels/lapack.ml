module BA1 = Bigarray.Array1

exception Not_positive_definite of int

let square_check name (m : Matrix.t) =
  if m.rows <> m.cols then
    invalid_arg (Printf.sprintf "%s: matrix is %dx%d, not square" name m.rows m.cols)

(* Panel width of the blocked factorizations and block-row height of
   trailing updates (matches Gemm_kernel.mc). *)
let nb = 64
let bmc = 128

(* A pool only pays off past this many flops: below it, one
   parallel_for wakeup costs more than the loop body (the 0.19x pooled
   Cholesky of BENCH_par.json was exactly this overhead, paid once per
   pivot column). *)
let par_work_threshold = 2e6

(* An oversubscribed pool (more domains than the runtime recommends
   for this host) turns every barrier into context switches; the
   factorizations here synchronize twice per panel step, so on such a
   pool they run sequentially instead. *)
let recommended_domains = lazy (Domain.recommended_domain_count ())

(* Row-range parallelism helper: each index owns its output rows, so
   pooled runs stay bit-identical to sequential ones.  [min_rows]
   keeps small trailing panels sequential and [work] (estimated flops)
   gates out loops too cheap to amortize a parallel_for. *)
let maybe_parallel ?pool ~work ~min_rows ~lo ~hi f =
  match pool with
  | Some pool
    when hi - lo >= min_rows
         && work >= par_work_threshold
         && Domain_pool.num_domains pool > 1
         && Domain_pool.num_domains pool <= Lazy.force recommended_domains ->
      Domain_pool.parallel_for pool ~lo ~hi f
  | _ ->
      for i = lo to hi - 1 do
        f i
      done

(* Row-wise triangular solve shared by the panel step of [dpotrf]
   and [dtrsm_rlt]: rows [lo, hi) of [x] (row stride n), columns
   [j0, j1), solve X * L^T = B against the diagonal block of [l]
   (rows j0..j1-1, same stride), earlier columns already applied.
   Four independent rows are interleaved so their dependent
   subtract chains overlap; every element keeps the exact operation
   order of the one-row loop, and the parallel unit is a 4-row
   group, so pooled runs stay bit-identical. *)
let solve_rows ~pool ~(x : Matrix.buf) ~(l : Matrix.buf) ~n ~j0 ~j1 ~lo ~hi =
  let solve1 r =
    let ro = r * n in
    for j = j0 to j1 - 1 do
      let lj = j * n in
      let acc = ref (BA1.unsafe_get x (ro + j)) in
      for t = j0 to j - 1 do
        acc := !acc -. (BA1.unsafe_get x (ro + t) *. BA1.unsafe_get l (lj + t))
      done;
      BA1.unsafe_set x (ro + j) (!acc /. BA1.unsafe_get l (lj + j))
    done
  in
  let solve4 r =
    let o0 = r * n in
    let o1 = o0 + n in
    let o2 = o1 + n in
    let o3 = o2 + n in
    for j = j0 to j1 - 1 do
      let lj = j * n in
      let a0 = ref (BA1.unsafe_get x (o0 + j))
      and a1 = ref (BA1.unsafe_get x (o1 + j))
      and a2 = ref (BA1.unsafe_get x (o2 + j))
      and a3 = ref (BA1.unsafe_get x (o3 + j)) in
      for t = j0 to j - 1 do
        let lv = BA1.unsafe_get l (lj + t) in
        a0 := !a0 -. (BA1.unsafe_get x (o0 + t) *. lv);
        a1 := !a1 -. (BA1.unsafe_get x (o1 + t) *. lv);
        a2 := !a2 -. (BA1.unsafe_get x (o2 + t) *. lv);
        a3 := !a3 -. (BA1.unsafe_get x (o3 + t) *. lv)
      done;
      let d = BA1.unsafe_get l (lj + j) in
      BA1.unsafe_set x (o0 + j) (!a0 /. d);
      BA1.unsafe_set x (o1 + j) (!a1 /. d);
      BA1.unsafe_set x (o2 + j) (!a2 /. d);
      BA1.unsafe_set x (o3 + j) (!a3 /. d)
    done
  in
  let w = j1 - j0 in
  let work = float_of_int (hi - lo) *. float_of_int (w * w) in
  (* min_rows counts 4-row groups here: 8 groups = 32 rows *)
  maybe_parallel ?pool ~work ~min_rows:8 ~lo:0
    ~hi:((hi - lo + 3) / 4)
    (fun g ->
      let r = lo + (4 * g) in
      if r + 4 <= hi then solve4 r
      else
        for r = r to hi - 1 do
          solve1 r
        done)

(* Blocked right-looking Cholesky.  Per NB-wide step: factor the
   diagonal block unblocked, solve the panel below it, then apply the
   trailing update through the packed GEMM (dgemm_nt on block rows).
   The trailing GEMM writes full block rows up to each block's
   diagonal, overshooting into the strict upper triangle of the
   diagonal block; those entries are never read (all reads stay at
   column <= row) and are zeroed at the end.  Parallel units — panel
   rows and trailing block rows — own their output rows outright, so
   pooled runs are bit-identical to sequential ones. *)
let dpotrf ?pool (a : Matrix.t) =
  square_check "dpotrf" a;
  let n = a.rows in
  (* Direct bigarray indexing throughout: cross-module [Matrix.get]
     calls box every float they return, and the resulting minor-GC
     traffic is pure overhead here (each collection stops the world
     across every domain, including parked pool workers). *)
  let ad : Matrix.buf = a.data in
  let k0 = ref 0 in
  while !k0 < n do
    let k1 = min (!k0 + nb) n in
    let w = k1 - !k0 in
    (* diagonal block: unblocked, left-looking within the block (the
       trailing updates of earlier steps already applied history). *)
    let sp = Obs.Span.start () in
    for kk = !k0 to k1 - 1 do
      let pivot = ref ad.{(kk * n) + kk} in
      for l = !k0 to kk - 1 do
        let v = ad.{(kk * n) + l} in
        pivot := !pivot -. (v *. v)
      done;
      if !pivot <= 0.0 then raise (Not_positive_definite kk);
      let lkk = sqrt !pivot in
      ad.{(kk * n) + kk} <- lkk;
      for i = kk + 1 to k1 - 1 do
        let acc = ref ad.{(i * n) + kk} in
        for l = !k0 to kk - 1 do
          acc := !acc -. (ad.{(i * n) + l} *. ad.{(kk * n) + l})
        done;
        ad.{(i * n) + kk} <- !acc /. lkk
      done
    done;
    if k1 >= n then Obs.Span.record ~cat:"chol" ~name:"panel_factor" sp
    else begin
      (* panel solve: rows [k1, n) of columns [k0, k1) against the
         diagonal block's transpose; rows are independent. *)
      let kb = !k0 in
      solve_rows ~pool ~x:ad ~l:ad ~n ~j0:kb ~j1:k1 ~lo:k1 ~hi:n;
      (* The span boundary between "panel_factor" (diagonal block +
         panel solve) and "trailing_update" (blocked GEMM) mirrors the
         classic right-looking split, so a trace shows at a glance
         where each step's time goes. *)
      Obs.Span.record ~cat:"chol" ~name:"panel_factor" sp;
      let sp = Obs.Span.start () in
      (* trailing update: for each block row, the lower-triangle part
         of A[k1:, k1:] -= P * P^T with P the solved panel. *)
      let trailing = n - k1 in
      let nblocks = (trailing + bmc - 1) / bmc in
      let update_work =
        2.0 *. float_of_int trailing *. float_of_int trailing *. float_of_int w
      in
      maybe_parallel ?pool ~work:update_work ~min_rows:2 ~lo:0 ~hi:nblocks
        (fun bi ->
          let r0 = k1 + (bi * bmc) in
          let r_hi = min n (r0 + bmc) in
          Gemm_kernel.gemm ~trans_b:true ~m:(r_hi - r0) ~n:(r_hi - k1) ~k:w
            ~alpha:(-1.0) ~beta:1.0 ~a:ad
            ~aoff:((r0 * n) + kb)
            ~lda:n ~b:ad
            ~boff:((k1 * n) + kb)
            ~ldb:n ~c:ad
            ~coff:((r0 * n) + k1)
            ~ldc:n ());
      Obs.Span.record ~cat:"chol" ~name:"trailing_update" sp
    end;
    k0 := k1
  done;
  (* zero the strict upper triangle so the result is exactly L *)
  Matrix.zero_upper a

(* Blocked solve of X * L^T = B: per NB column block, one packed GEMM
   applies the already-solved columns, then a small per-row triangular
   solve finishes the block.  Rows of B are independent throughout. *)
let dtrsm_rlt ?pool ~(l : Matrix.t) (b : Matrix.t) =
  square_check "dtrsm_rlt" l;
  if b.cols <> l.rows then invalid_arg "dtrsm_rlt: shape mismatch";
  let n = l.rows and m = b.rows in
  let j0 = ref 0 in
  while !j0 < n do
    let j1 = min (!j0 + nb) n in
    let w = j1 - !j0 in
    if !j0 > 0 then
      (* B[:, j0:j1] -= X[:, 0:j0] * L[j0:j1, 0:j0]^T; the A and C
         views alias b.data on disjoint column ranges. *)
      Gemm_kernel.gemm ?pool ~trans_b:true ~m ~n:w ~k:!j0 ~alpha:(-1.0)
        ~beta:1.0 ~a:b.data ~aoff:0 ~lda:n ~b:l.data
        ~boff:(!j0 * n)
        ~ldb:n ~c:b.data ~coff:!j0 ~ldc:n ();
    solve_rows ~pool ~x:b.data ~l:l.data ~n ~j0:!j0 ~j1 ~lo:0 ~hi:m;
    j0 := j1
  done

(* Rank-k update on block rows: each block row bi computes its
   lower-triangle columns [0, r_hi) through the packed GEMM (with the
   same harmless diagonal-block overshoot as dpotrf, overwritten by
   the mirror pass).  Block rows own their output rows: pooled runs
   are bit-identical. *)
let dsyrk_ln ?pool ~(a : Matrix.t) (c : Matrix.t) =
  square_check "dsyrk_ln" c;
  if a.rows <> c.rows then invalid_arg "dsyrk_ln: shape mismatch";
  let n = c.rows and k = a.cols in
  let nblocks = (n + bmc - 1) / bmc in
  let work = float_of_int n *. float_of_int n *. float_of_int k in
  maybe_parallel ?pool ~work ~min_rows:2 ~lo:0 ~hi:nblocks (fun bi ->
      let r0 = bi * bmc in
      let r_hi = min n (r0 + bmc) in
      Gemm_kernel.gemm ~trans_b:true ~m:(r_hi - r0) ~n:r_hi ~k ~alpha:(-1.0)
        ~beta:1.0 ~a:a.data ~aoff:(r0 * k) ~lda:k ~b:a.data ~boff:0 ~ldb:k
        ~c:c.data ~coff:(r0 * c.cols) ~ldc:c.cols ());
  let cd : Matrix.buf = c.data in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      cd.{(j * n) + i} <- cd.{(i * n) + j}
    done
  done

let dgemm_nt ?pool ~(a : Matrix.t) ~(b : Matrix.t) (c : Matrix.t) =
  if a.cols <> b.cols || c.rows <> a.rows || c.cols <> b.rows then
    invalid_arg "dgemm_nt: shape mismatch";
  Gemm_kernel.gemm ?pool ~trans_b:true ~m:c.rows ~n:c.cols ~k:a.cols
    ~alpha:(-1.0) ~beta:1.0 ~a:a.data ~aoff:0 ~lda:a.cols ~b:b.data ~boff:0
    ~ldb:b.cols ~c:c.data ~coff:0 ~ldc:c.cols ()

let random_spd ?(seed = 17) n =
  let m = Matrix.random ~seed n n in
  let a = Matrix.create n n in
  (* a = m * m^T + n*I, through the packed kernel (the naive triple
     loop took a minute at n = 2048 just to set up a benchmark).  Only
     the lower block rows are computed, then mirrored: the micro-kernel
     always runs full padded tiles, so c_ij and c_ji sum the same
     products in the same k order and the mirror is bit-exact. *)
  let ad : Matrix.buf = a.data in
  let r0 = ref 0 in
  while !r0 < n do
    let r_hi = min n (!r0 + bmc) in
    Gemm_kernel.gemm ~trans_b:true ~m:(r_hi - !r0) ~n:r_hi ~k:n ~alpha:1.0
      ~beta:0.0 ~a:m.data ~aoff:(!r0 * n) ~lda:n ~b:m.data ~boff:0 ~ldb:n
      ~c:ad ~coff:(!r0 * n) ~ldc:n ();
    r0 := r_hi
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      BA1.unsafe_set ad ((i * n) + j) (BA1.unsafe_get ad ((j * n) + i))
    done;
    ad.{(i * n) + i} <- ad.{(i * n) + i} +. float_of_int n
  done;
  a

let cholesky_residual ~(a : Matrix.t) ~(l : Matrix.t) =
  square_check "cholesky_residual" a;
  let n = a.rows in
  let ad : Matrix.buf = a.data and ld : Matrix.buf = l.data in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref 0.0 in
      for k = 0 to min i j do
        acc := !acc +. (ld.{(i * n) + k} *. ld.{(j * n) + k})
      done;
      let d = Float.abs (!acc -. ad.{(i * n) + j}) in
      if d > !worst then worst := d
    done
  done;
  !worst

let flops_potrf n = float_of_int (n * n * n) /. 3.0
let flops_trsm m n = float_of_int (m * n * n)
let flops_syrk n k = float_of_int (n * n * k)

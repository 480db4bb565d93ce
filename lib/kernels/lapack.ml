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

(* A strided view [rows x cols] at [off] with leading dimension [ld]
   must lie inside [buf]: the loops below index it unchecked. *)
let view_check name (buf : Matrix.buf) ~off ~ld ~rows ~cols =
  if rows < 0 || cols < 0 || off < 0 || (rows > 1 && ld < cols)
     || (rows > 0 && cols > 0 && off + ((rows - 1) * ld) + cols > BA1.dim buf)
  then
    invalid_arg
      (Printf.sprintf "%s: %dx%d view at offset %d (ld %d) exceeds %d elements"
         name rows cols off ld (BA1.dim buf))

external solve_rows_c :
  Matrix.buf -> int -> int -> Matrix.buf -> int -> int -> int -> int -> int ->
  int -> unit = "cas_solve_rows_bytecode" "cas_solve_rows"
[@@noalloc]

(* [factor_diag a off lda w]: Cholesky of the [w x w] diagonal block
   at [off] in place (exact_stubs.c), [w <= nb]; returns the first
   non-positive pivot's index within the block, or -1. *)
external factor_diag : Matrix.buf -> int -> int -> int -> int
  = "cas_factor_diag"

(* Rows per parallel unit of [solve_rows]; each call also copies the
   diagonal block once. *)
let solve_chunk = 32

(* Row-wise triangular solve shared by the panel step of [dpotrf]
   and [dtrsm_rlt]: rows [lo, hi) of the view [x], columns [j0, j1),
   solve X * L^T = B against the diagonal block of the view [l]
   (rows j0..j1-1), earlier columns already applied.  The C loop
   (exact_stubs.c) keeps each element's subtract-then-divide chain of
   the left-looking dot product, and rows are independent, so pooled
   runs, one call per row chunk, are bit-identical. *)
let solve_rows ?pool ~(x : Matrix.buf) ~xoff ~ldx ~(l : Matrix.buf) ~loff ~ldl
    ~j0 ~j1 ~lo ~hi () =
  let w = j1 - j0 in
  let work = float_of_int (hi - lo) *. float_of_int (w * w) in
  maybe_parallel ?pool ~work ~min_rows:2 ~lo:0
    ~hi:((hi - lo + solve_chunk - 1) / solve_chunk)
    (fun g ->
      let r = lo + (solve_chunk * g) in
      solve_rows_c x xoff ldx l loff ldl j0 j1 r (min hi (r + solve_chunk)))

(* Blocked right-looking Cholesky.  Per NB-wide step: factor the
   diagonal block unblocked (factor_diag), solve the panel below it,
   then apply the trailing update through the packed GEMM (dgemm_nt
   on block rows).  The trailing GEMM writes full block rows up to
   each block's diagonal, overshooting into the strict upper triangle
   of the diagonal block; those entries are never read (all reads
   stay at column <= row) and are zeroed at the end.  Parallel units — panel
   rows and trailing block rows — own their output rows outright, so
   pooled runs are bit-identical to sequential ones. *)
let dpotrf_view ?pool ~n ~(a : Matrix.buf) ~aoff ~lda () =
  view_check "dpotrf" a ~off:aoff ~ld:lda ~rows:n ~cols:n;
  (* Direct bigarray indexing throughout: cross-module [Matrix.get]
     calls box every float they return, and the resulting minor-GC
     traffic is pure overhead here (each collection stops the world
     across every domain, including parked pool workers). *)
  let at i j = aoff + (i * lda) + j in
  let k0 = ref 0 in
  while !k0 < n do
    let k1 = min (!k0 + nb) n in
    let w = k1 - !k0 in
    (* diagonal block: unblocked, in C (the trailing updates of
       earlier steps already applied history). *)
    let sp = Obs.Span.start () in
    let bad = factor_diag a (at !k0 !k0) lda w in
    if bad >= 0 then raise (Not_positive_definite (!k0 + bad));
    if k1 >= n then Obs.Span.record ~cat:"chol" ~name:"panel_factor" sp
    else begin
      (* panel solve: rows [k1, n) of columns [k0, k1) against the
         diagonal block's transpose; rows are independent. *)
      let kb = !k0 in
      solve_rows ?pool ~x:a ~xoff:aoff ~ldx:lda ~l:a ~loff:aoff ~ldl:lda ~j0:kb
        ~j1:k1 ~lo:k1 ~hi:n ();
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
            ~alpha:(-1.0) ~beta:1.0 ~a ~aoff:(at r0 kb) ~lda ~b:a
            ~boff:(at k1 kb) ~ldb:lda ~c:a ~coff:(at r0 k1) ~ldc:lda ());
      Obs.Span.record ~cat:"chol" ~name:"trailing_update" sp
    end;
    k0 := k1
  done;
  (* zero the strict upper triangle so the result is exactly L *)
  for i = 0 to n - 2 do
    BA1.fill (BA1.sub a (at i (i + 1)) (n - i - 1)) 0.0
  done

let dpotrf ?pool (a : Matrix.t) =
  square_check "dpotrf" a;
  dpotrf_view ?pool ~n:a.rows ~a:a.data ~aoff:0 ~lda:a.cols ()

(* Blocked solve of X * L^T = B: per NB column block, one packed GEMM
   applies the already-solved columns, then a small per-row triangular
   solve finishes the block.  Rows of B are independent throughout. *)
let dtrsm_rlt_view ?pool ~m ~n ~(l : Matrix.buf) ~loff ~ldl ~(b : Matrix.buf)
    ~boff ~ldb () =
  view_check "dtrsm_rlt" l ~off:loff ~ld:ldl ~rows:n ~cols:n;
  view_check "dtrsm_rlt" b ~off:boff ~ld:ldb ~rows:m ~cols:n;
  let j0 = ref 0 in
  while !j0 < n do
    let j1 = min (!j0 + nb) n in
    let w = j1 - !j0 in
    if !j0 > 0 then
      (* B[:, j0:j1] -= X[:, 0:j0] * L[j0:j1, 0:j0]^T; the A and C
         views alias b on disjoint column ranges. *)
      Gemm_kernel.gemm ?pool ~trans_b:true ~m ~n:w ~k:!j0 ~alpha:(-1.0)
        ~beta:1.0 ~a:b ~aoff:boff ~lda:ldb ~b:l
        ~boff:(loff + (!j0 * ldl))
        ~ldb:ldl ~c:b ~coff:(boff + !j0) ~ldc:ldb ();
    solve_rows ?pool ~x:b ~xoff:boff ~ldx:ldb ~l ~loff ~ldl ~j0:!j0 ~j1 ~lo:0
      ~hi:m ();
    j0 := j1
  done

let dtrsm_rlt ?pool ~(l : Matrix.t) (b : Matrix.t) =
  square_check "dtrsm_rlt" l;
  if b.cols <> l.rows then invalid_arg "dtrsm_rlt: shape mismatch";
  dtrsm_rlt_view ?pool ~m:b.rows ~n:l.rows ~l:l.data ~loff:0 ~ldl:l.cols
    ~b:b.data ~boff:0 ~ldb:b.cols ()

(* Rank-k update on block rows: each block row bi computes its
   lower-triangle columns [0, r_hi) through the packed GEMM (with the
   same harmless diagonal-block overshoot as dpotrf, overwritten by
   the mirror pass).  Block rows own their output rows: pooled runs
   are bit-identical. *)
let dsyrk_ln_view ?pool ~n ~k ~(a : Matrix.buf) ~aoff ~lda ~(c : Matrix.buf)
    ~coff ~ldc () =
  view_check "dsyrk_ln" a ~off:aoff ~ld:lda ~rows:n ~cols:k;
  view_check "dsyrk_ln" c ~off:coff ~ld:ldc ~rows:n ~cols:n;
  let nblocks = (n + bmc - 1) / bmc in
  let work = float_of_int n *. float_of_int n *. float_of_int k in
  maybe_parallel ?pool ~work ~min_rows:2 ~lo:0 ~hi:nblocks (fun bi ->
      let r0 = bi * bmc in
      let r_hi = min n (r0 + bmc) in
      Gemm_kernel.gemm ~trans_b:true ~m:(r_hi - r0) ~n:r_hi ~k ~alpha:(-1.0)
        ~beta:1.0 ~a ~aoff:(aoff + (r0 * lda)) ~lda ~b:a ~boff:aoff ~ldb:lda
        ~c ~coff:(coff + (r0 * ldc)) ~ldc ());
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      c.{coff + (j * ldc) + i} <- c.{coff + (i * ldc) + j}
    done
  done

let dsyrk_ln ?pool ~(a : Matrix.t) (c : Matrix.t) =
  square_check "dsyrk_ln" c;
  if a.rows <> c.rows then invalid_arg "dsyrk_ln: shape mismatch";
  dsyrk_ln_view ?pool ~n:c.rows ~k:a.cols ~a:a.data ~aoff:0 ~lda:a.cols
    ~c:c.data ~coff:0 ~ldc:c.cols ()

let dgemm_nt_view ?pool ~m ~n ~k ~(a : Matrix.buf) ~aoff ~lda
    ~(b : Matrix.buf) ~boff ~ldb ~(c : Matrix.buf) ~coff ~ldc () =
  view_check "dgemm_nt" a ~off:aoff ~ld:lda ~rows:m ~cols:k;
  view_check "dgemm_nt" b ~off:boff ~ld:ldb ~rows:n ~cols:k;
  view_check "dgemm_nt" c ~off:coff ~ld:ldc ~rows:m ~cols:n;
  Gemm_kernel.gemm ?pool ~trans_b:true ~m ~n ~k ~alpha:(-1.0) ~beta:1.0 ~a
    ~aoff ~lda ~b ~boff ~ldb ~c ~coff ~ldc ()

let dgemm_nt ?pool ~(a : Matrix.t) ~(b : Matrix.t) (c : Matrix.t) =
  if a.cols <> b.cols || c.rows <> a.rows || c.cols <> b.rows then
    invalid_arg "dgemm_nt: shape mismatch";
  dgemm_nt_view ?pool ~m:c.rows ~n:c.cols ~k:a.cols ~a:a.data ~aoff:0
    ~lda:a.cols ~b:b.data ~boff:0 ~ldb:b.cols ~c:c.data ~coff:0 ~ldc:c.cols ()

(* m * m^T + n*I through the packed kernel (the naive triple loop took
   a minute at n = 2048 just to set up a benchmark).  Only the lower
   triangle is computed, then mirrored: block rows of bmc rows cover
   the columns left of their diagonal block, and each diagonal block
   is covered in strips of [spd_strip] rows, each up to its own last
   column.  The micro-kernel always runs full padded tiles and the
   KC slicing does not depend on m or n, so every c_ij sums the same
   products in the same k order whatever the blocking, and the mirror
   is bit-exact.  The first KC slice (beta = 0) still reads C, so the
   output starts zero-filled. *)
let spd_strip = 32

let random_spd ?(seed = 17) n =
  let m = Matrix.random ~seed n n in
  let a = Matrix.create n n in
  let ad : Matrix.buf = a.data in
  (* rows [r0, r1) x columns [c0, c1) of m * m^T *)
  let block ~r0 ~r1 ~c0 ~c1 =
    Gemm_kernel.gemm ~trans_b:true ~m:(r1 - r0) ~n:(c1 - c0) ~k:n ~alpha:1.0
      ~beta:0.0 ~a:m.data ~aoff:(r0 * n) ~lda:n ~b:m.data ~boff:(c0 * n)
      ~ldb:n ~c:ad ~coff:((r0 * n) + c0) ~ldc:n ()
  in
  let r0 = ref 0 in
  while !r0 < n do
    let r_hi = min n (!r0 + bmc) in
    block ~r0:!r0 ~r1:r_hi ~c0:0 ~c1:!r0;
    let s0 = ref !r0 in
    while !s0 < r_hi do
      let s_hi = min r_hi (!s0 + spd_strip) in
      block ~r0:!s0 ~r1:s_hi ~c0:!r0 ~c1:s_hi;
      s0 := s_hi
    done;
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

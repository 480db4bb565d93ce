(* BLIS-style packed, cache-blocked DGEMM, and the lower-triangle
   product A * A^T built from the same pieces.

   Three-level blocking: row panels of MC rows of C are split over KC
   slices of the reduction dimension; for each (MC, KC) block the A
   panel is packed once into a contiguous buffer of MR-row
   micro-panels, and each NC-wide slice of B is packed into NR-column
   micro-panels (both packed by C routines).  A C macro-kernel
   (dgemm_stubs.c) then runs a register-blocked MR x NR tile over the
   packed data: 16 x 8 with AVX-512 where the CPU has it (on long
   reduction slices A vector-loaded, B broadcast and the tile
   transposed on write-out; on short ones B's rows loaded, A
   broadcast), else 4 x 8 with AVX2, bit-identical to each other.

   [syrk_lower] walks the same blocks in the other order, (KC, NC)
   block of B then MC panels, so each B block is packed once for
   every panel below it, and runs the macro-kernel only on the
   micro-tiles that touch the lower triangle.  Every element it
   computes follows the chain [gemm] gives it.

   Packing buffers live in domain-local storage, 64-byte aligned and
   grown on demand, so the hot path performs no allocation after
   warm-up and pooled workers never share a buffer they write.

   Determinism: with ?pool the unit of distribution is the MC row
   panel.  Every arithmetic operation contributing to a row of C —
   the KC slice walk, the packed layouts, the micro-kernel loop —
   depends only on the row's coordinates, never on which domain runs
   the panel, so pooled and sequential runs are bit-for-bit
   identical. *)

module BA1 = Bigarray.Array1

let mc = 128
let kc = 256
let nc = 1024

type micro = Avx512 | Avx2 | Portable

let micro_to_string = function
  | Avx512 -> "avx512"
  | Avx2 -> "avx2"
  | Portable -> "portable"

let micro_of_string = function
  | "avx512" -> Some Avx512
  | "avx2" -> Some Avx2
  | "portable" -> Some Portable
  | _ -> None

let micro_tile = function Avx512 -> (16, 8) | Avx2 | Portable -> (4, 8)

external cpu_has_avx512f : unit -> bool = "cas_cpu_has_avx512f" [@@noalloc]

(* The CPU-flag probe, read once.  [as_avx2_host] lowers it for a
   test; nothing raises it. *)
let host_avx512f = ref (cpu_has_avx512f ())

let micro_supported = function
  | Avx512 -> !host_avx512f
  | Avx2 | Portable -> true

let supported_micros () = List.filter micro_supported [ Avx512; Avx2; Portable ]

type blocking = { bmc : int; bkc : int; bnc : int; bmicro : micro }

let default_blocking () =
  {
    bmc = mc;
    bkc = kc;
    bnc = nc;
    bmicro = (if micro_supported Avx512 then Avx512 else Avx2);
  }

(* Single-writer: the tuner (or CLI startup) sets this before any
   compute; concurrent panel workers only read it. *)
let blocking = ref (default_blocking ())

let set_blocking b =
  if b.bmc <= 0 || b.bkc <= 0 || b.bnc <= 0 then
    invalid_arg "Gemm_kernel.set_blocking: blocks must be positive";
  if not (micro_supported b.bmicro) then
    invalid_arg
      (Printf.sprintf
         "Gemm_kernel.set_blocking: this CPU cannot run the %s micro-kernel"
         (micro_to_string b.bmicro));
  blocking := b

let current_blocking () = !blocking
let reset_blocking () = blocking := default_blocking ()

let as_avx2_host f =
  let flag = !host_avx512f and installed = !blocking in
  host_avx512f := false;
  reset_blocking ();
  Fun.protect
    ~finally:(fun () ->
      host_avx512f := flag;
      blocking := installed)
    f

(* Minimum 2mnk flops before a pool is worth one parallel_for. *)
let par_flop_threshold = 1e6

external macro_avx2 :
  int ->
  int ->
  int ->
  float ->
  float ->
  Matrix.buf ->
  int ->
  Matrix.buf ->
  int ->
  Matrix.buf ->
  int ->
  int ->
  unit = "cas_dgemm_macro_bytecode" "cas_dgemm_macro"
[@@noalloc]

external macro_avx512 :
  int ->
  int ->
  int ->
  float ->
  float ->
  Matrix.buf ->
  int ->
  Matrix.buf ->
  int ->
  Matrix.buf ->
  int ->
  int ->
  unit = "cas_dgemm_macro_avx512_bytecode" "cas_dgemm_macro_avx512"
[@@noalloc]

(* [pack_rows src off ld r0 c0 rows cols mr dst]: rows [r0, r0+rows)
   x cols [c0, c0+cols) of the view into mr-row micro-panels,
   dst.{ir*cols + l*mr + i} = src[r0+ir+i][c0+l], zero-padded to a
   multiple of mr rows.  Packs A, and B read transposed. *)
external pack_rows :
  Matrix.buf -> int -> int -> int -> int -> int -> int -> int -> Matrix.buf ->
  unit = "cas_pack_rows_bytecode" "cas_pack_rows"
[@@noalloc]

(* [pack_cols src off ld r0 c0 rows cols nr dst]: the same block into
   nr-column micro-panels, dst.{jr*rows + l*nr + j} =
   src[r0+l][c0+jr+j], zero-padded to a multiple of nr columns.
   Packs B. *)
external pack_cols :
  Matrix.buf -> int -> int -> int -> int -> int -> int -> int -> Matrix.buf ->
  unit = "cas_pack_cols_bytecode" "cas_pack_cols"
[@@noalloc]

(* Same loop structure and summation order as [dgemm_macro] in
   dgemm_stubs.c, in plain OCaml — the autotuner's portable candidate
   for hosts where the vectorized stub loses, and a reference
   implementation for cross-checking it.  Without FMA its sums round
   differently from the C kernels. *)
let portable_macro mcc ncc kcc alpha beta (ap : Matrix.buf) apoff
    (bp : Matrix.buf) bpoff (c : Matrix.buf) coff ldc =
  let mr, nr = micro_tile Portable in
  let acc = Array.make (mr * nr) 0.0 in
  let jr = ref 0 in
  while !jr < ncc do
    let nrr = min nr (ncc - !jr) in
    let bbase = bpoff + (!jr * kcc) in
    let ir = ref 0 in
    while !ir < mcc do
      let mrr = min mr (mcc - !ir) in
      let abase = apoff + (!ir * kcc) in
      Array.fill acc 0 (mr * nr) 0.0;
      for l = 0 to kcc - 1 do
        let ao = abase + (l * mr) and bo = bbase + (l * nr) in
        for i = 0 to mr - 1 do
          let ai = BA1.unsafe_get ap (ao + i) in
          let row = i * nr in
          for j = 0 to nr - 1 do
            Array.unsafe_set acc (row + j)
              (Array.unsafe_get acc (row + j)
              +. (ai *. BA1.unsafe_get bp (bo + j)))
          done
        done
      done;
      for i = 0 to mrr - 1 do
        let cb = coff + ((!ir + i) * ldc) + !jr in
        for j = 0 to nrr - 1 do
          BA1.unsafe_set c (cb + j)
            ((alpha *. acc.((i * nr) + j)) +. (beta *. BA1.unsafe_get c (cb + j)))
        done
      done;
      ir := !ir + mr
    done;
    jr := !jr + nr
  done

(* [alloc_packed n]: n floats starting on a 64-byte boundary, so no
   vector load of a packed micro-panel straddles two cache lines. *)
external alloc_packed : int -> Matrix.buf = "cas_alloc_packed"

type bufs = { mutable ap : Matrix.buf; mutable bp : Matrix.buf }

let dls : bufs Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { ap = alloc_packed 0; bp = alloc_packed 0 })

(* Telemetry (no-ops while Obs.Config is off).  Spans cover the
   pack-A / pack-B / micro-kernel phases per (MC, KC, NC) block —
   coarse enough that the probes never show up in profiles. *)
let c_pack_alloc =
  Obs.Counter.make ~help:"pack-buffer growth allocations" "gemm_pack_alloc"

let c_pack_reuse =
  Obs.Counter.make ~help:"pack-buffer reuses (warm hit)" "gemm_pack_reuse"

let c_bytes_packed =
  Obs.Counter.make ~help:"bytes blitted into packing buffers"
    "gemm_bytes_packed"

(* Packing overwrites every slot it will read (padding included), so
   grown buffers need not be zeroed. *)
let get_bufs ~ap_len ~bp_len =
  let b = Domain.DLS.get dls in
  let grew = BA1.dim b.ap < ap_len || BA1.dim b.bp < bp_len in
  if BA1.dim b.ap < ap_len then b.ap <- alloc_packed ap_len;
  if BA1.dim b.bp < bp_len then b.bp <- alloc_packed bp_len;
  Obs.Counter.incr (if grew then c_pack_alloc else c_pack_reuse);
  b

(* c[i][j] := beta * c[i][j] for the m x n block at coff. *)
let scale_c ~m ~n ~beta ~(c : Matrix.buf) ~coff ~ldc =
  if beta <> 1.0 then
    for i = 0 to m - 1 do
      let row = coff + (i * ldc) in
      for j = 0 to n - 1 do
        BA1.unsafe_set c (row + j) (beta *. BA1.unsafe_get c (row + j))
      done
    done

let macro_of = function
  | Avx512 -> macro_avx512
  | Avx2 -> macro_avx2
  | Portable -> portable_macro

(* Packing-buffer lengths of a call with [n] columns of op(B) and
   reduction depth [k]: one MC x KC panel of A and one KC x NC block
   of B, padded to whole micro-panels. *)
let pack_lens ~mc ~kc ~nc ~mr ~nr ~n ~k =
  let kc_used = min k kc and nc_used = min n nc in
  ( (mc + mr - 1) / mr * mr * kc_used,
    kc_used * ((nc_used + nr - 1) / nr * nr) )

(* The pool a call of [flops] flops may use, if any. *)
let pool_for ?pool flops =
  match pool with
  | Some pool
    when Domain_pool.num_domains pool > 1 && flops >= par_flop_threshold ->
      Some pool
  | _ -> None

let gemm ?pool ~trans_b ~m ~n ~k ~alpha ~beta ~(a : Matrix.buf) ~aoff ~lda
    ~(b : Matrix.buf) ~boff ~ldb ~(c : Matrix.buf) ~coff ~ldc () =
  if m <= 0 || n <= 0 then ()
  else if k <= 0 || alpha = 0.0 then scale_c ~m ~n ~beta ~c ~coff ~ldc
  else begin
    (* Snapshot the active blocking once so a concurrent set_blocking
       cannot tear a call; the module constants are shadowed on
       purpose. *)
    let { bmc = mc; bkc = kc; bnc = nc; bmicro } = !blocking in
    let run_macro = macro_of bmicro in
    let mr, nr = micro_tile bmicro in
    let ap_len, bp_len = pack_lens ~mc ~kc ~nc ~mr ~nr ~n ~k in
    let panel p =
      let bufs = get_bufs ~ap_len ~bp_len in
      let ic = p * mc in
      let mcc = min mc (m - ic) in
      let pc = ref 0 in
      while !pc < k do
        let kcc = min kc (k - !pc) in
        let sp = Obs.Span.start () in
        pack_rows a aoff lda ic !pc mcc kcc mr bufs.ap;
        Obs.Span.record ~cat:"gemm" ~name:"pack_a" sp;
        Obs.Counter.add c_bytes_packed (8 * mcc * kcc);
        (* beta applies on the first KC slice only; later slices
           accumulate. *)
        let beta' = if !pc = 0 then beta else 1.0 in
        let jc = ref 0 in
        while !jc < n do
          let ncc = min nc (n - !jc) in
          let sp = Obs.Span.start () in
          if trans_b then pack_rows b boff ldb !jc !pc ncc kcc nr bufs.bp
          else pack_cols b boff ldb !pc !jc kcc ncc nr bufs.bp;
          Obs.Span.record ~cat:"gemm" ~name:"pack_b" sp;
          Obs.Counter.add c_bytes_packed (8 * kcc * ncc);
          let sp = Obs.Span.start () in
          run_macro mcc ncc kcc alpha beta' bufs.ap 0 bufs.bp 0 c
            (coff + (ic * ldc) + !jc)
            ldc;
          Obs.Span.record ~cat:"gemm" ~name:"micro_kernel" sp;
          jc := !jc + ncc
        done;
        pc := !pc + kcc
      done
    in
    let npanels = (m + mc - 1) / mc in
    match
      pool_for ?pool (2.0 *. float_of_int m *. float_of_int n *. float_of_int k)
    with
    | Some pool when npanels > 1 ->
        Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:npanels panel
    | _ ->
        for p = 0 to npanels - 1 do
          panel p
        done
  end

(* c[i][j] := beta * c[i][j] on and below the diagonal of the n x n
   block at coff; beta = 0 writes zeros without reading C. *)
let scale_lower ~n ~beta ~(c : Matrix.buf) ~coff ~ldc =
  for i = 0 to n - 1 do
    let row = coff + (i * ldc) in
    if beta = 0.0 then
      Matrix.zero_block c ~off:row ~ld:ldc ~rows:1 ~cols:(i + 1)
    else scale_c ~m:1 ~n:(i + 1) ~beta ~c ~coff:row ~ldc
  done

(* Loop order (KC slice, NC block of B, MC panel of C): each B block
   is packed once, by the calling domain, and the panels below it
   share it read-only, each packing its own A panel into its domain's
   buffer.  B here is A read transposed, so a panel at rows ic needs
   the columns up to its last row only: whole NR panels left of its
   diagonal block in one macro call, then MR-row strips of the
   diagonal block, each up to its own last row.  A strip may write a
   few elements above the diagonal, never below another strip's. *)
let syrk_lower ?pool ~n ~k ~alpha ~beta ~(a : Matrix.buf) ~aoff ~lda
    ~(c : Matrix.buf) ~coff ~ldc () =
  if n <= 0 then ()
  else if k <= 0 || alpha = 0.0 then scale_lower ~n ~beta ~c ~coff ~ldc
  else begin
    let { bmc = mc; bkc = kc; bnc = nc; bmicro } = !blocking in
    let run_macro = macro_of bmicro in
    let mr, nr = micro_tile bmicro in
    let ap_len, bp_len = pack_lens ~mc ~kc ~nc ~mr ~nr ~n ~k in
    let bp = (get_bufs ~ap_len ~bp_len).bp in
    let npanels = (n + mc - 1) / mc in
    let pool =
      pool_for ?pool (float_of_int n *. float_of_int n *. float_of_int k)
    in
    let pc = ref 0 in
    while !pc < k do
      let pc0 = !pc in
      let kcc = min kc (k - pc0) in
      let beta' = if pc0 = 0 then beta else 1.0 in
      let jc = ref 0 in
      while !jc < n do
        let jc0 = !jc in
        let ncc = min nc (n - jc0) in
        let sp = Obs.Span.start () in
        pack_rows a aoff lda jc0 pc0 ncc kcc nr bp;
        Obs.Span.record ~cat:"gemm" ~name:"pack_b" sp;
        Obs.Counter.add c_bytes_packed (8 * kcc * ncc);
        let panel p =
          let ap = (get_bufs ~ap_len ~bp_len:0).ap in
          let ic = p * mc in
          let ie = min n (ic + mc) in
          (* beta = 0: zero each strip's rows up to the strip's last
             row before the first write, so C's old contents are
             never read. *)
          if beta = 0.0 && pc0 = 0 && jc0 = 0 then begin
            let s = ref ic in
            while !s < ie do
              let s_end = min ie (!s + mr) in
              Matrix.zero_block c ~off:(coff + (!s * ldc)) ~ld:ldc
                ~rows:(s_end - !s) ~cols:s_end;
              s := s_end
            done
          end;
          let sp = Obs.Span.start () in
          pack_rows a aoff lda ic pc0 (ie - ic) kcc mr ap;
          Obs.Span.record ~cat:"gemm" ~name:"pack_a" sp;
          Obs.Counter.add c_bytes_packed (8 * (ie - ic) * kcc);
          let sp = Obs.Span.start () in
          (* [jd]: end of the whole NR panels left of column ic *)
          let jd = jc0 + min ncc (max 0 (ic - jc0) / nr * nr) in
          if jd > jc0 then
            run_macro (ie - ic) (jd - jc0) kcc alpha beta' ap 0 bp 0 c
              (coff + (ic * ldc) + jc0)
              ldc;
          let s = ref ic in
          while !s < ie do
            let s_end = min ie (!s + mr) in
            let cols = min s_end (jc0 + ncc) - jd in
            if cols > 0 then
              run_macro (s_end - !s) cols kcc alpha beta' ap
                ((!s - ic) * kcc)
                bp
                ((jd - jc0) * kcc)
                c
                (coff + (!s * ldc) + jd)
                ldc;
            s := s_end
          done;
          Obs.Span.record ~cat:"gemm" ~name:"micro_kernel" sp
        in
        (* panels whose last row reaches column jc0 *)
        let p0 = jc0 / mc in
        (match pool with
        | Some pool when npanels - p0 > 1 ->
            Domain_pool.parallel_for ~chunk:1 pool ~lo:p0 ~hi:npanels panel
        | _ ->
            for p = p0 to npanels - 1 do
              panel p
            done);
        jc := jc0 + ncc
      done;
      pc := pc0 + kcc
    done
  end

(* BLIS-style packed, cache-blocked DGEMM.

   Three-level blocking: row panels of MC rows of C are split over KC
   slices of the reduction dimension; for each (MC, KC) block the A
   panel is packed once into a contiguous buffer of MR-row
   micro-panels, and each NC-wide slice of B is packed into NR-column
   micro-panels (both packed by C routines).  A C micro-kernel
   (dgemm_stubs.c) then runs a register-blocked MR x NR
   rank-1-update loop over the packed data: 16 x 8 with AVX-512 where
   the CPU has it, else 4 x 8 with AVX2, bit-identical to each other.

   Packing buffers live in domain-local storage and are grown on
   demand, so the hot path performs no allocation after warm-up and
   pooled workers never share buffers.

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
  Matrix.buf ->
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
  Matrix.buf ->
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
let portable_macro mcc ncc kcc alpha beta (ap : Matrix.buf) (bp : Matrix.buf)
    (c : Matrix.buf) coff ldc =
  let mr, nr = micro_tile Portable in
  let acc = Array.make (mr * nr) 0.0 in
  let jr = ref 0 in
  while !jr < ncc do
    let nrr = min nr (ncc - !jr) in
    let bbase = !jr * kcc in
    let ir = ref 0 in
    while !ir < mcc do
      let mrr = min mr (mcc - !ir) in
      let abase = !ir * kcc in
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

type bufs = { mutable ap : Matrix.buf; mutable bp : Matrix.buf }

let dls : bufs Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { ap = Matrix.alloc_buf 0; bp = Matrix.alloc_buf 0 })

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
  if BA1.dim b.ap < ap_len then b.ap <- Matrix.alloc_buf ap_len;
  if BA1.dim b.bp < bp_len then b.bp <- Matrix.alloc_buf bp_len;
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

let gemm ?pool ~trans_b ~m ~n ~k ~alpha ~beta ~(a : Matrix.buf) ~aoff ~lda
    ~(b : Matrix.buf) ~boff ~ldb ~(c : Matrix.buf) ~coff ~ldc () =
  if m <= 0 || n <= 0 then ()
  else if k <= 0 || alpha = 0.0 then scale_c ~m ~n ~beta ~c ~coff ~ldc
  else begin
    (* Snapshot the active blocking once so a concurrent set_blocking
       cannot tear a call; the module constants are shadowed on
       purpose. *)
    let { bmc = mc; bkc = kc; bnc = nc; bmicro } = !blocking in
    let run_macro =
      match bmicro with
      | Avx512 -> macro_avx512
      | Avx2 -> macro_avx2
      | Portable -> portable_macro
    in
    let mr, nr = micro_tile bmicro in
    let kc_used = min k kc in
    let nc_used = min n nc in
    let ap_len = (mc + mr - 1) / mr * mr * kc_used in
    let bp_len = kc_used * ((nc_used + nr - 1) / nr * nr) in
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
          run_macro mcc ncc kcc alpha beta' bufs.ap bufs.bp c
            (coff + (ic * ldc) + !jc)
            ldc;
          Obs.Span.record ~cat:"gemm" ~name:"micro_kernel" sp;
          jc := !jc + ncc
        done;
        pc := !pc + kcc
      done
    in
    let npanels = (m + mc - 1) / mc in
    match pool with
    | Some pool
      when npanels > 1
           && Domain_pool.num_domains pool > 1
           && 2.0 *. float_of_int m *. float_of_int n *. float_of_int k
              >= par_flop_threshold ->
        Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:npanels panel
    | _ ->
        for p = 0 to npanels - 1 do
          panel p
        done
  end

/* Packing and macro-kernels for the BLIS-style packed DGEMM
 * (Gemm_kernel), and the allocator policy Matrix sets at start-up.
 *
 * Gemm_kernel packs operand blocks with the two routines below into
 * 64-byte-aligned buffers, then calls a macro-kernel on
 *   ap: mc x kc, micro-panels of MR rows,    ap[ir*kc + l*MR + i]
 *   bp: kc x nc, micro-panels of NR columns, bp[jr*kc + l*NR + j]
 * Both are zero-padded to full MR/NR tiles, so the micro-kernel
 * always runs the full register tile and edge handling is confined
 * to the write-out of C.  The stubs take offsets into ap, bp and C,
 * so a caller runs one micro-panel strip or one tile of C without a
 * Bigarray view.
 *
 * Two macro-kernels, chosen by Gemm_kernel from the CPU flags:
 *   - AVX2, MR x NR = 4 x 8: a rank-1-update loop GCC vectorises
 *     (this file is built with -O3 -mavx2 -mfma);
 *   - AVX-512, 16 x 8: explicit intrinsics.  On long reduction
 *     slices A is vector-loaded (a micro-panel column of 16 rows is
 *     two zmm loads) and B is broadcast, one value per column, so the
 *     16 zmm accumulators hold columns of the C tile and each 8 x 8
 *     half is transposed in registers back to rows on write-out; on
 *     short slices (kc <= 32) B's row is loaded, A broadcast, and the
 *     accumulators hold rows.  Only that function is compiled for
 *     avx512f (a target attribute, not a file-wide flag), so this
 *     object still runs on AVX2-only hosts as long as it is never
 *     called there.
 *
 * Both compute every element of C with the same operation chain:
 * acc = 0, then acc = fma(a_il, b_lj, acc) for l ascending over the
 * KC slice, then c = fma(alpha, acc, beta * c).  The column-oriented
 * tile forms the product as b_lj * a_il, which FMA rounds alike, and
 * the transpose moves values without touching them.  MR, NR, MC and
 * NC only decide which elements share registers, so the two kernels
 * are bit-identical.
 */

#include <immintrin.h>
#include <stdlib.h>
#include <string.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

#define MR 4
#define NR 8

static void micro_kernel(long kc, const double *restrict ap,
                         const double *restrict bp, double *restrict acc)
{
  for (long l = 0; l < kc; l++) {
    const double *a = ap + l * MR;
    const double *b = bp + l * NR;
    for (int i = 0; i < MR; i++) {
      double ai = a[i];
      for (int j = 0; j < NR; j++)
        acc[i * NR + j] += ai * b[j];
    }
  }
}

static void dgemm_macro(long mc, long nc, long kc, double alpha, double beta,
                        const double *restrict ap, const double *restrict bp,
                        double *c, long ldc)
{
  double acc[MR * NR];
  for (long jr = 0; jr < nc; jr += NR) {
    long nrr = nc - jr < NR ? nc - jr : NR;
    const double *bpp = bp + jr * kc;
    for (long ir = 0; ir < mc; ir += MR) {
      long mrr = mc - ir < MR ? mc - ir : MR;
      for (int x = 0; x < MR * NR; x++)
        acc[x] = 0.0;
      micro_kernel(kc, ap + ir * kc, bpp, acc);
      double *cb = c + ir * ldc + jr;
      for (long i = 0; i < mrr; i++)
        for (long j = 0; j < nrr; j++)
          cb[i * ldc + j] = alpha * acc[i * NR + j] + beta * cb[i * ldc + j];
    }
  }
}

#define MR512 16
#define NR512 8

/* Reduction slices up to this length run the row-oriented tile. */
#define ROWS_KC 32

/* The 16 x 8 micro-tile fully unrolled, in one of two orientations
   chosen by the slice length kc; both leave rows 0-7 of the tile in
   c0..c7 and rows 8-15 in d0..d7 for the same write-out.
   - kc <= ROWS_KC, by rows: per l one B row load and 16 A broadcasts,
     accumulator ci (di) holding row i (i + 8).  17 loads feed 16
     FMAs, which the L1 sustains while a short slice's operands sit
     in it, and no transpose is needed.
   - longer slices, by columns: per l A's 16 rows are two vector loads
     and B's 8 values are broadcast, so 10 loads feed 16 FMAs and the
     FMA units, not the load ports, bind.  Accumulator cj (dj) holds
     rows 0-7 (8-15) of column j; each 8 x 8 half is transposed in
     registers to rows, 48 shuffles per tile that a long slice
     amortises and a short one does not.
   On a 2.1 GHz Xeon (AVX-512, one core, packed operands in cache) the
   row tile is 4-29% faster for 16 x 16 blocks with kc <= 32 and for
   128 x 128 ones with kc <= 32, the column tile 13-25% faster for
   128 x 128 blocks with kc >= 48.  fma(a, b, acc) and fma(b, a, acc)
   round alike and the transpose only moves values, so every element
   keeps its chain whichever tile ran. */
__attribute__((target("avx512f")))
static void dgemm_macro_avx512(long mc, long nc, long kc, double alpha,
                               double beta, const double *restrict ap,
                               const double *restrict bp, double *c, long ldc)
{
  const __m512d valpha = _mm512_set1_pd(alpha);
  const __m512d vbeta = _mm512_set1_pd(beta);
  for (long jr = 0; jr < nc; jr += NR512) {
    long nrr = nc - jr < NR512 ? nc - jr : NR512;
    const __mmask8 mask = (__mmask8)((1u << nrr) - 1);
    const double *bpp = bp + jr * kc;
    for (long ir = 0; ir < mc; ir += MR512) {
      long mrr = mc - ir < MR512 ? mc - ir : MR512;
      const double *a = ap + ir * kc;
      const double *b = bpp;
      __m512d c0 = _mm512_setzero_pd(), c1 = c0, c2 = c0, c3 = c0;
      __m512d c4 = c0, c5 = c0, c6 = c0, c7 = c0;
      __m512d d0 = c0, d1 = c0, d2 = c0, d3 = c0;
      __m512d d4 = c0, d5 = c0, d6 = c0, d7 = c0;
      if (kc <= ROWS_KC) {
        for (long l = 0; l < kc; l++) {
          const __m512d bv = _mm512_loadu_pd(b);
#define ROW(i)                                                  \
  do {                                                          \
    c##i = _mm512_fmadd_pd(_mm512_set1_pd(a[i]), bv, c##i);     \
    d##i = _mm512_fmadd_pd(_mm512_set1_pd(a[i + 8]), bv, d##i); \
  } while (0)
          ROW(0); ROW(1); ROW(2); ROW(3); ROW(4); ROW(5); ROW(6); ROW(7);
#undef ROW
          a += MR512;
          b += NR512;
        }
      } else {
        for (long l = 0; l < kc; l++) {
          const __m512d a0 = _mm512_loadu_pd(a);
          const __m512d a1 = _mm512_loadu_pd(a + 8);
#define COL(j)                                  \
  do {                                          \
    const __m512d bj = _mm512_set1_pd(b[j]);    \
    c##j = _mm512_fmadd_pd(a0, bj, c##j);       \
    d##j = _mm512_fmadd_pd(a1, bj, d##j);       \
  } while (0)
          COL(0); COL(1); COL(2); COL(3); COL(4); COL(5); COL(6); COL(7);
#undef COL
          a += MR512;
          b += NR512;
        }
        /* 8 x 8 transpose: r0..r7 hold columns, and come out as rows
           (unpack pairs, then swap 128-bit lanes twice). */
#define TRANSPOSE8(r0, r1, r2, r3, r4, r5, r6, r7)                    \
  do {                                                                \
    __m512d t0 = _mm512_unpacklo_pd(r0, r1);                          \
    __m512d t1 = _mm512_unpackhi_pd(r0, r1);                          \
    __m512d t2 = _mm512_unpacklo_pd(r2, r3);                          \
    __m512d t3 = _mm512_unpackhi_pd(r2, r3);                          \
    __m512d t4 = _mm512_unpacklo_pd(r4, r5);                          \
    __m512d t5 = _mm512_unpackhi_pd(r4, r5);                          \
    __m512d t6 = _mm512_unpacklo_pd(r6, r7);                          \
    __m512d t7 = _mm512_unpackhi_pd(r6, r7);                          \
    __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);                  \
    __m512d u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);                  \
    __m512d u2 = _mm512_shuffle_f64x2(t0, t2, 0xdd);                  \
    __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xdd);                  \
    __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);                  \
    __m512d u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);                  \
    __m512d u6 = _mm512_shuffle_f64x2(t4, t6, 0xdd);                  \
    __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xdd);                  \
    r0 = _mm512_shuffle_f64x2(u0, u4, 0x88);                          \
    r1 = _mm512_shuffle_f64x2(u1, u5, 0x88);                          \
    r2 = _mm512_shuffle_f64x2(u2, u6, 0x88);                          \
    r3 = _mm512_shuffle_f64x2(u3, u7, 0x88);                          \
    r4 = _mm512_shuffle_f64x2(u0, u4, 0xdd);                          \
    r5 = _mm512_shuffle_f64x2(u1, u5, 0xdd);                          \
    r6 = _mm512_shuffle_f64x2(u2, u6, 0xdd);                          \
    r7 = _mm512_shuffle_f64x2(u3, u7, 0xdd);                          \
  } while (0)
        TRANSPOSE8(c0, c1, c2, c3, c4, c5, c6, c7);
        TRANSPOSE8(d0, d1, d2, d3, d4, d5, d6, d7);
#undef TRANSPOSE8
      }
      __m512d acc[MR512] = { c0, c1, c2, c3, c4, c5, c6, c7,
                             d0, d1, d2, d3, d4, d5, d6, d7 };
      double *cb = c + ir * ldc + jr;
      for (long i = 0; i < mrr; i++) {
        double *row = cb + i * ldc;
        __m512d cv = _mm512_maskz_loadu_pd(mask, row);
        cv = _mm512_fmadd_pd(valpha, acc[i], _mm512_mul_pd(vbeta, cv));
        _mm512_mask_storeu_pd(row, mask, cv);
      }
    }
  }
}

CAMLprim value cas_cpu_has_avx512f(value unit)
{
  (void)unit;
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("avx512f"));
}

/* (mc, nc, kc, alpha, beta, ap, apoff, bp, bpoff, c, coff, ldc): the
   offsets address micro-panels inside the packing buffers and the
   tile of C, so callers take sub-blocks without Bigarray views. */
#define MACRO_STUB(name, kernel)                                          \
  CAMLprim value name(value vmc, value vnc, value vkc, value valpha,      \
                      value vbeta, value vap, value vapoff, value vbp,    \
                      value vbpoff, value vc, value vcoff, value vldc)    \
  {                                                                       \
    kernel(Long_val(vmc), Long_val(vnc), Long_val(vkc),                   \
           Double_val(valpha), Double_val(vbeta),                         \
           (const double *)Caml_ba_data_val(vap) + Long_val(vapoff),      \
           (const double *)Caml_ba_data_val(vbp) + Long_val(vbpoff),      \
           (double *)Caml_ba_data_val(vc) + Long_val(vcoff),              \
           Long_val(vldc));                                               \
    return Val_unit;                                                      \
  }                                                                       \
                                                                          \
  CAMLprim value name##_bytecode(value *argv, int argn)                   \
  {                                                                       \
    (void)argn;                                                           \
    return name(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],     \
                argv[6], argv[7], argv[8], argv[9], argv[10], argv[11]);  \
  }

MACRO_STUB(cas_dgemm_macro, dgemm_macro)
MACRO_STUB(cas_dgemm_macro_avx512, dgemm_macro_avx512)

/* d[k*mr + i] = s[i*ld + k] for i, k < 4: one 4 x 4 block of a
   row panel, transposed in registers. */
static inline void transpose4(const double *s, long ld, double *d, long mr)
{
  __m256d r0 = _mm256_loadu_pd(s), r1 = _mm256_loadu_pd(s + ld);
  __m256d r2 = _mm256_loadu_pd(s + 2 * ld), r3 = _mm256_loadu_pd(s + 3 * ld);
  __m256d t0 = _mm256_unpacklo_pd(r0, r1), t1 = _mm256_unpackhi_pd(r0, r1);
  __m256d t2 = _mm256_unpacklo_pd(r2, r3), t3 = _mm256_unpackhi_pd(r2, r3);
  _mm256_storeu_pd(d, _mm256_permute2f128_pd(t0, t2, 0x20));
  _mm256_storeu_pd(d + mr, _mm256_permute2f128_pd(t1, t3, 0x20));
  _mm256_storeu_pd(d + 2 * mr, _mm256_permute2f128_pd(t0, t2, 0x31));
  _mm256_storeu_pd(d + 3 * mr, _mm256_permute2f128_pd(t1, t3, 0x31));
}

/* Transposing row-panel pack (A, and B read transposed): the rows x
   cols block at src/ld goes to dst[ir*cols + l*mr + i] =
   src[ir+i][l], rows past [rows] zero-padded to a multiple of mr. */
static void pack_rows(const double *restrict src, long ld, long rows,
                      long cols, long mr, double *restrict dst)
{
  for (long ir = 0; ir < rows; ir += mr) {
    long m = rows - ir < mr ? rows - ir : mr;
    double *d = dst + ir * cols;
    const double *s = src + ir * ld;
    long l = 0;
    if (m == mr && mr % 4 == 0)
      for (; l + 4 <= cols; l += 4)
        for (long i = 0; i < mr; i += 4)
          transpose4(s + i * ld + l, ld, d + l * mr + i, mr);
    for (; l < cols; l++) {
      for (long i = 0; i < m; i++)
        d[l * mr + i] = s[i * ld + l];
      for (long i = m; i < mr; i++)
        d[l * mr + i] = 0.0;
    }
  }
}

/* Source rows pack_cols copies per pass across all micro-panels. */
#define PACK_ROWS 8

/* Contiguous column-panel pack (B): the rows x cols block at src/ld
   goes to dst[jr*rows + l*nr + j] = src[l][jr+j],
   columns past [cols] zero-padded to a multiple of nr.  It walks
   PACK_ROWS source rows at a time across every micro-panel, so the
   reads stream along rows instead of striding down one panel's
   columns (a page per row at ld = 512); a full panel of the NR the
   micro-kernels use copies its rows with fixed-size moves. */
static void pack_cols(const double *restrict src, long ld, long rows,
                      long cols, long nr, double *restrict dst)
{
  for (long l0 = 0; l0 < rows; l0 += PACK_ROWS) {
    long l1 = rows - l0 < PACK_ROWS ? rows : l0 + PACK_ROWS;
    for (long jr = 0; jr < cols; jr += nr) {
      long n = cols - jr < nr ? cols - jr : nr;
      double *d = dst + jr * rows;
      const double *s = src + jr;
      if (n == NR && nr == NR)
        for (long l = l0; l < l1; l++)
          memcpy(d + l * NR, s + l * ld, sizeof(double) * NR);
      else
        for (long l = l0; l < l1; l++) {
          memcpy(d + l * nr, s + l * ld, sizeof(double) * n);
          memset(d + l * nr + n, 0, sizeof(double) * (nr - n));
        }
    }
  }
}

/* (src, off, ld, r0, c0, rows, cols, tile, dst) */
CAMLprim value cas_pack_rows(value vsrc, value voff, value vld, value vr0,
                             value vc0, value vrows, value vcols, value vmr,
                             value vdst)
{
  long ld = Long_val(vld);
  pack_rows((const double *)Caml_ba_data_val(vsrc) + Long_val(voff)
                + Long_val(vr0) * ld + Long_val(vc0),
            ld, Long_val(vrows), Long_val(vcols), Long_val(vmr),
            (double *)Caml_ba_data_val(vdst));
  return Val_unit;
}

CAMLprim value cas_pack_rows_bytecode(value *argv, int argn)
{
  (void)argn;
  return cas_pack_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7], argv[8]);
}

CAMLprim value cas_pack_cols(value vsrc, value voff, value vld, value vr0,
                             value vc0, value vrows, value vcols, value vnr,
                             value vdst)
{
  long ld = Long_val(vld);
  pack_cols((const double *)Caml_ba_data_val(vsrc) + Long_val(voff)
                + Long_val(vr0) * ld + Long_val(vc0),
            ld, Long_val(vrows), Long_val(vcols), Long_val(vnr),
            (double *)Caml_ba_data_val(vdst));
  return Val_unit;
}

CAMLprim value cas_pack_cols_bytecode(value *argv, int argn)
{
  (void)argn;
  return cas_pack_cols(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7], argv[8]);
}

/* A float64 Bigarray of n elements whose data starts on a 64-byte
   boundary, released by the Bigarray finalizer (free takes
   posix_memalign's memory).  Gemm_kernel packs into these: a
   16-byte-aligned buffer from malloc splits every vector load of a
   packed panel across two cache lines, which cost the AVX-512
   kernel a fifth of its speed. */
CAMLprim value cas_alloc_packed(value vn)
{
  intnat n = Long_val(vn);
  void *p = NULL;
  if (posix_memalign(&p, 64, n > 0 ? n * sizeof(double) : 64) != 0)
    caml_raise_out_of_memory();
  return caml_ba_alloc_dims(CAML_BA_FLOAT64 | CAML_BA_C_LAYOUT
                                | CAML_BA_MANAGED,
                            1, p, n);
}

/* Matrix buffers up to 32 MiB come from the heap, and up to 64 MiB of
   freed heap stays mapped, so a service that allocates and drops
   job-sized buffers reuses resident pages instead of faulting in
   fresh ones.  Fixed values also turn off glibc's sliding mmap
   threshold, which otherwise moves with every freed mmapped block.
   Other libcs keep their defaults; the result says whether both
   settings took. */
#define MMAP_THRESHOLD (32L << 20)
#define TRIM_THRESHOLD (64L << 20)

CAMLprim value cas_alloc_policy(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  int ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
  ok &= mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
  return Val_bool(ok);
#else
  return Val_false;
#endif
}

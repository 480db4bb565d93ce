/* Packing and macro-kernels for the BLIS-style packed DGEMM
 * (Gemm_kernel), and the allocator policy Matrix sets at start-up.
 *
 * Gemm_kernel packs operand blocks with the two routines below,
 * then calls one macro-kernel per (MC, KC, NC) block on
 *   ap: mc x kc, micro-panels of MR rows,    ap[ir*kc + l*MR + i]
 *   bp: kc x nc, micro-panels of NR columns, bp[jr*kc + l*NR + j]
 * Both are zero-padded to full MR/NR tiles, so the micro-kernel
 * always runs the full register tile and edge handling is confined
 * to the write-out of C.
 *
 * Two macro-kernels, chosen by Gemm_kernel from the CPU flags:
 *   - AVX2, MR x NR = 4 x 8: a rank-1-update loop GCC vectorises
 *     (this file is built with -O3 -mavx2 -mfma);
 *   - AVX-512, 16 x 8: explicit intrinsics, one zmm accumulator per
 *     row.  Only that function is compiled for avx512f (a target
 *     attribute, not a file-wide flag), so this object still runs on
 *     AVX2-only hosts as long as it is never called there.
 *
 * Both compute every element of C with the same operation chain:
 * acc = 0, then acc = fma(a_il, b_lj, acc) for l ascending over the
 * KC slice, then c = fma(alpha, acc, beta * c).  MR, NR, MC and NC
 * only decide which elements share registers, so the two kernels are
 * bit-identical.
 */

#include <immintrin.h>
#include <string.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

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

/* The 16 x 8 micro-tile fully unrolled: 16 zmm accumulators, one
   B row load and 16 broadcast FMAs per l.  Partial tiles at the
   edges of C are written through a lane mask. */
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
      __m512d c8 = c0, c9 = c0, c10 = c0, c11 = c0;
      __m512d c12 = c0, c13 = c0, c14 = c0, c15 = c0;
      for (long l = 0; l < kc; l++) {
        const __m512d bv = _mm512_loadu_pd(b);
#define ROW(i) c##i = _mm512_fmadd_pd(_mm512_set1_pd(a[i]), bv, c##i)
        ROW(0); ROW(1); ROW(2); ROW(3); ROW(4); ROW(5); ROW(6); ROW(7);
        ROW(8); ROW(9); ROW(10); ROW(11); ROW(12); ROW(13); ROW(14); ROW(15);
#undef ROW
        a += MR512;
        b += NR512;
      }
      __m512d acc[MR512] = { c0, c1, c2, c3, c4, c5, c6, c7,
                             c8, c9, c10, c11, c12, c13, c14, c15 };
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

CAMLprim value cas_dgemm_macro(value vmc, value vnc, value vkc, value valpha,
                               value vbeta, value vap, value vbp, value vc,
                               value vcoff, value vldc)
{
  dgemm_macro(Long_val(vmc), Long_val(vnc), Long_val(vkc), Double_val(valpha),
              Double_val(vbeta), (const double *)Caml_ba_data_val(vap),
              (const double *)Caml_ba_data_val(vbp),
              (double *)Caml_ba_data_val(vc) + Long_val(vcoff),
              Long_val(vldc));
  return Val_unit;
}

CAMLprim value cas_dgemm_macro_bytecode(value *argv, int argn)
{
  (void)argn;
  return cas_dgemm_macro(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                         argv[6], argv[7], argv[8], argv[9]);
}

CAMLprim value cas_dgemm_macro_avx512(value vmc, value vnc, value vkc,
                                      value valpha, value vbeta, value vap,
                                      value vbp, value vc, value vcoff,
                                      value vldc)
{
  dgemm_macro_avx512(Long_val(vmc), Long_val(vnc), Long_val(vkc),
                     Double_val(valpha), Double_val(vbeta),
                     (const double *)Caml_ba_data_val(vap),
                     (const double *)Caml_ba_data_val(vbp),
                     (double *)Caml_ba_data_val(vc) + Long_val(vcoff),
                     Long_val(vldc));
  return Val_unit;
}

CAMLprim value cas_dgemm_macro_avx512_bytecode(value *argv, int argn)
{
  (void)argn;
  return cas_dgemm_macro_avx512(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], argv[7], argv[8], argv[9]);
}

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

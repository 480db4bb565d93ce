/* Loops whose results are pinned bit for bit by the golden digests:
 * the diagonal-block factor and the row-wise triangular solve of
 * Lapack, and the fill of Matrix.random (with the zero fill of
 * Matrix's view helpers beside it).  Built with
 * -ffp-contract=off and without -mfma, so every multiply and subtract
 * rounds on its own exactly as the OCaml loops they replace did.
 * Each runs several independent elements side by side in vector
 * registers, which changes no element's operation order.
 */

#include <immintrin.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

/* Rows of X solved together, sharing each load of the transposed
   diagonal block. */
#define ROWS 4

/* Solve X * L^T = B in place for rows [lo, hi) of the view x (columns
   [j0, j0+w)), against the w x w diagonal block of the view l at rows
   and columns [j0, j0+w), earlier columns already applied.

   Right-looking: once x[r][t] is final (divided by l[t][t]), it is
   subtracted from every later column j as x[r][j] -= x[r][t] *
   l[j][t].  Each x[r][j] therefore still sees the subtractions for
   t = j0 .. j-1 in ascending order, then the division, the same
   chain as the left-looking dot product; but the inner loop now runs
   along a row, over lt, a transposed copy of the block. */
static void solve_rows(double *x, long ldx, const double *l, long ldl,
                       long w, long lo, long hi)
{
  double lt_stack[64 * 64];
  double *lt = w <= 64 ? lt_stack : malloc(sizeof(double) * w * w);
  if (lt == NULL)
    abort();
  for (long t = 0; t < w; t++)
    for (long j = t; j < w; j++)
      lt[t * w + j] = l[j * ldl + t];
  long r = lo;
  for (; r + ROWS <= hi; r += ROWS) {
    double *restrict x0 = x + r * ldx;
    double *restrict x1 = x0 + ldx;
    double *restrict x2 = x1 + ldx;
    double *restrict x3 = x2 + ldx;
    for (long t = 0; t < w; t++) {
      const double *restrict lrow = lt + t * w;
      double d = lrow[t];
      double v0 = x0[t] / d, v1 = x1[t] / d, v2 = x2[t] / d, v3 = x3[t] / d;
      x0[t] = v0;
      x1[t] = v1;
      x2[t] = v2;
      x3[t] = v3;
      for (long j = t + 1; j < w; j++) {
        double lv = lrow[j];
        x0[j] -= v0 * lv;
        x1[j] -= v1 * lv;
        x2[j] -= v2 * lv;
        x3[j] -= v3 * lv;
      }
    }
  }
  for (; r < hi; r++) {
    double *restrict x0 = x + r * ldx;
    for (long t = 0; t < w; t++) {
      const double *restrict lrow = lt + t * w;
      double v0 = x0[t] / lrow[t];
      x0[t] = v0;
      for (long j = t + 1; j < w; j++)
        x0[j] -= v0 * lrow[j];
    }
  }
  if (lt != lt_stack)
    free(lt);
}

/* (x, xoff, ldx, l, loff, ldl, j0, j1, lo, hi) */
CAMLprim value cas_solve_rows(value vx, value vxoff, value vldx, value vl,
                              value vloff, value vldl, value vj0, value vj1,
                              value vlo, value vhi)
{
  long j0 = Long_val(vj0), ldl = Long_val(vldl);
  solve_rows((double *)Caml_ba_data_val(vx) + Long_val(vxoff) + j0,
             Long_val(vldx),
             (const double *)Caml_ba_data_val(vl) + Long_val(vloff)
                 + j0 * ldl + j0,
             ldl, Long_val(vj1) - j0, Long_val(vlo), Long_val(vhi));
  return Val_unit;
}

CAMLprim value cas_solve_rows_bytecode(value *argv, int argn)
{
  (void)argn;
  return cas_solve_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9]);
}

/* Widest diagonal block factor_diag takes: Lapack's panel width. */
#define DIAG_MAX 64

/* Cholesky of the w x w diagonal block at a (leading dimension lda),
   in place on its lower triangle, the trailing updates of earlier
   panels already applied.  Returns the index of the first pivot that
   is <= 0 (a NaN pivot passes, as it does in a left-looking loop), or
   -1 when the block factors.

   Right-looking: at step kk the column kk below the pivot is divided
   by the pivot's root, copied, and then subtracted from every later
   row i as a[i][j] -= a[i][kk] * a[j][kk] for kk < j <= i, a loop
   along the row.  Each element therefore still sees its subtractions
   for l = 0 .. j-1 in ascending order and then its division (or
   root), the same chain as the left-looking dot products
   a[i][j] - sum_l a[i][l] * a[j][l]. */
static long factor_diag(double *a, long lda, long w)
{
  double col[DIAG_MAX];
  for (long kk = 0; kk < w; kk++) {
    double *rk = a + kk * lda;
    double pivot = rk[kk];
    if (pivot <= 0.0)
      return kk;
    double lkk = sqrt(pivot);
    rk[kk] = lkk;
    for (long i = kk + 1; i < w; i++) {
      double v = a[i * lda + kk] / lkk;
      a[i * lda + kk] = v;
      col[i] = v;
    }
    for (long i = kk + 1; i < w; i++) {
      double *ri = a + i * lda;
      double ci = col[i];
      for (long j = kk + 1; j <= i; j++)
        ri[j] -= ci * col[j];
    }
  }
  return -1;
}

/* (a, off, lda, w) */
CAMLprim value cas_factor_diag(value va, value voff, value vlda, value vw)
{
  long w = Long_val(vw);
  if (w < 0 || w > DIAG_MAX)
    caml_invalid_argument("factor_diag: block wider than 64");
  return Val_long(factor_diag((double *)Caml_ba_data_val(va) + Long_val(voff),
                              Long_val(vlda), w));
}

/* Numerical Recipes LCG, s' = a*s + c mod 2^32. */
#define LCG_A 1664525u
#define LCG_C 1013904223u
#define LANES 16

/* s mapped to [-1, 1) as s * 2^-31 - 1.  Both steps are exact in
   double, so the result equals (s - 2^31) * 2^-31, which is what this
   computes: flipping the top bit and reading the word as signed gives
   s - 2^31, which converts to double exactly (and vectorises, where
   an unsigned conversion would not). */
static inline double unit(uint32_t s)
{
  return (double)(int32_t)(s ^ 0x80000000u) * 0x1p-31;
}

/* Eight converted lanes to d[0..7]. */
static inline void put8(double *d, __m256i s)
{
  const __m256d scale = _mm256_set1_pd(0x1p-31);
  __m256i f = _mm256_xor_si256(s, _mm256_set1_epi32((int)0x80000000u));
  _mm256_storeu_pd(d, _mm256_mul_pd(
                          _mm256_cvtepi32_pd(_mm256_castsi256_si128(f)), scale));
  _mm256_storeu_pd(d + 4, _mm256_mul_pd(_mm256_cvtepi32_pd(
                                            _mm256_extracti128_si256(f, 1)),
                                        scale));
}

/* d[i] = unit(s_{i+1}) for i < len, with s_0 = seed.  Sixteen lanes,
   two ymm of eight, each hold every sixteenth state, advanced by the
   16-step constants a^16 and c*(a^15 + ... + a + 1) mod 2^32
   (vpmulld keeps the low 32 bits of each product). */
static void lcg_fill(double *d, long len, uint32_t seed)
{
  uint32_t s[LANES], a16 = 1, c16 = 0;
  uint32_t prev = seed;
  for (int j = 0; j < LANES; j++) {
    prev = LCG_A * prev + LCG_C;
    s[j] = prev;
    a16 *= LCG_A;
    c16 = LCG_A * c16 + LCG_C;
  }
  const __m256i va = _mm256_set1_epi32((int)a16);
  const __m256i vc = _mm256_set1_epi32((int)c16);
  __m256i lo = _mm256_loadu_si256((const __m256i *)s);
  __m256i hi = _mm256_loadu_si256((const __m256i *)(s + 8));
  long i = 0;
  for (; i + LANES <= len; i += LANES) {
    put8(d + i, lo);
    put8(d + i + 8, hi);
    lo = _mm256_add_epi32(_mm256_mullo_epi32(lo, va), vc);
    hi = _mm256_add_epi32(_mm256_mullo_epi32(hi, va), vc);
  }
  _mm256_storeu_si256((__m256i *)s, lo);
  _mm256_storeu_si256((__m256i *)(s + 8), hi);
  for (int j = 0; i + j < len; j++)
    d[i + j] = unit(s[j]);
}

CAMLprim value cas_lcg_fill(value vd, value vlen, value vseed)
{
  lcg_fill((double *)Caml_ba_data_val(vd), Long_val(vlen),
           (uint32_t)Long_val(vseed));
  return Val_unit;
}

/* (d, off, len): d[off .. off + len) := +0.0, what a fill of a
   Bigarray sub view does, without making the view. */
CAMLprim value cas_zero_range(value vd, value voff, value vlen)
{
  memset((double *)Caml_ba_data_val(vd) + Long_val(voff), 0,
         (size_t)Long_val(vlen) * sizeof(double));
  return Val_unit;
}

/* The paper's case study input: a serial program whose DGEMM call
   is annotated for offload. Translated output programs are built
   for different PDL descriptors without editing this file. As in the
   paper's Figure 5, both variants call a library kernel: blas_dgemm
   computes C[m x n] += A[m x k] * B[k x n]. */
#define N 32

#pragma cascabel task : x86
    : Idgemm
    : dgemm_blas
    : (A: read, B: read, C: readwrite)
void dgemm(double *A, double *B, double *C, int m, int n)
{
  blas_dgemm(m, n, n, A, B, C);
}

#pragma cascabel task : Cuda
    : Idgemm
    : dgemm_cublas
    : (A: read, B: read, C: readwrite)
void dgemm_cublas(double *A, double *B, double *C, int m, int n)
{
  blas_dgemm(m, n, n, A, B, C);
}

int main(void)
{
  double *A = malloc(N * N * sizeof(double));
  double *B = malloc(N * N * sizeof(double));
  double *C = malloc(N * N * sizeof(double));
  for (int i = 0; i < N * N; i++) {
    A[i] = 1.0 + i % 9;
    B[i] = 0.5 * (i % 11);
    C[i] = 0.0;
  }
  #pragma cascabel execute Idgemm
      : executionset01
      (A:BLOCK:m, C:BLOCK:m)
  dgemm(A, B, C, N, N);
  double checksum = 0.0;
  for (int i = 0; i < N * N; i++)
    checksum += C[i];
  printf("checksum=%.3f\n", checksum);
  return 0;
}

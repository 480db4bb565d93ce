/* Dynamic loading of generated kernel libraries.
 *
 * The native backend compiles task variants to a shared object whose
 * entry points all share one fixed ABI:
 *
 *     void cascabel_call_<variant>(void **argv);
 *     int cascabel_main(void);
 *
 * so dispatch needs no libffi: the OCaml side packs one void* per
 * parameter (Bigarray data pointer for buffers, the address of a
 * scratch long/double for scalars) and the generated wrapper casts
 * them back to the variant's real signature.  The library's runtime
 * calls come back here through the host table it exports as
 * cascabel_host, bound when the library is opened.
 */

#include <dlfcn.h>
#include <setjmp.h>
#include <stdarg.h>
#include <stdio.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/callback.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define CAPI_MAX_ARGS 64

/* Matches Capi.arg: Buf (tag 0) | Int (tag 1) | Float (tag 2). */
enum { CAPI_ARG_BUF = 0, CAPI_ARG_INT = 1, CAPI_ARG_FLOAT = 2 };

/* ------------------------------------------------------------------ */
/* The host table.                                                     */
/*                                                                     */
/* The generated kernels unit declares the same table; its runtime     */
/* calls go on to the closures of a Capi.host record: alloc (0),       */
/* out (1), submit (2), wait_all (3), dgemm (4).  The library formats  */
/* printf output with the table's vsnprintf.                           */

struct cascabel_host {
  void *(*alloc)(long bytes);
  void (*free)(void *p);
  void (*out)(const char *s, long len);
  void (*submit)(int site, int argc, void **argv);
  void (*wait_all)(void);
  void (*blas_dgemm)(long m, long n, long k, const double *A,
                     const double *B, double *C);
  int (*vsnprintf)(char *s, unsigned long n, const char *fmt, va_list ap);
};

/* One entry into library code: the host's closures, the exception a
 * callback raised, and where to unwind to.  Entries nest (a callback
 * may run a task that enters the library again) and each domain has
 * its own. */
struct capi_run {
  value host;
  value exn;
  jmp_buf unwind;
  struct capi_run *outer;
};

static __thread struct capi_run *capi_current;

/* A raised exception leaves the library's C frames through longjmp.
 * No OCaml frame is skipped (the callback has returned) and the shims
 * register no local roots, so the runtime's state is intact. */
static value capi_checked(value r)
{
  if (Is_exception_result(r)) {
    caml_modify_generational_global_root(&capi_current->exn,
                                         Extract_exception(r));
    longjmp(capi_current->unwind, 1);
  }
  return r;
}

static void *capi_host_alloc(long bytes)
{
  value f = Field(capi_current->host, 0);
  return (void *)Long_val(capi_checked(caml_callback_exn(f, Val_long(bytes))));
}

static void capi_host_free(void *p) { (void)p; }

static void capi_host_out(const char *s, long len)
{
  value str = caml_alloc_initialized_string(len, s);
  capi_checked(caml_callback_exn(Field(capi_current->host, 1), str));
}

static void capi_host_submit(int site, int argc, void **argv)
{
  value addrs = argc > 0 ? caml_alloc_tuple(argc) : Atom(0);
  /* Immediates in a fresh block: no write barrier needed. */
  for (int i = 0; i < argc; i++)
    Field(addrs, i) = Val_long((intnat)argv[i]);
  capi_checked(caml_callback2_exn(Field(capi_current->host, 2),
                                  Val_int(site), addrs));
}

static void capi_host_wait_all(void)
{
  capi_checked(caml_callback_exn(Field(capi_current->host, 3), Val_unit));
}

static void capi_host_dgemm(long m, long n, long k, const double *A,
                            const double *B, double *C)
{
  value args[6] = { Val_long(m), Val_long(n), Val_long(k),
                    Val_long((intnat)A), Val_long((intnat)B),
                    Val_long((intnat)C) };
  capi_checked(caml_callbackN_exn(Field(capi_current->host, 4), 6, args));
}

static const struct cascabel_host capi_host_table = {
  capi_host_alloc,    capi_host_free,  capi_host_out, capi_host_submit,
  capi_host_wait_all, capi_host_dgemm, vsnprintf,
};

/* Run a wrapper on [argv], or else [entry], in library code with the
 * runtime lock held, under a frame whose callbacks go to [vhost]; an
 * exception a callback raised unwinds the library and is re-raised
 * here. */
static int capi_enter(value vhost, void (*wrapper)(void **), void **argv,
                      int (*entry)(void))
{
  struct capi_run run;
  volatile int rc = 0;
  volatile int unwound = 0;

  run.host = vhost;
  run.exn = Val_unit;
  run.outer = capi_current;
  caml_register_generational_global_root(&run.host);
  caml_register_generational_global_root(&run.exn);
  capi_current = &run;
  if (setjmp(run.unwind) != 0)
    unwound = 1;
  else if (wrapper != NULL)
    wrapper(argv);
  else
    rc = entry();
  capi_current = run.outer;
  value exn = run.exn;
  caml_remove_generational_global_root(&run.host);
  caml_remove_generational_global_root(&run.exn);
  if (unwound) caml_raise(exn);
  return rc;
}

/* ------------------------------------------------------------------ */

CAMLprim value caml_capi_dlopen(value vpath)
{
  CAMLparam1(vpath);
  CAMLlocal1(res);
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlopen failed");
  }
  const struct cascabel_host **table = dlsym(h, "cascabel_host");
  if (table != NULL) *table = &capi_host_table;
  res = caml_copy_int64((int64_t)(intnat)h);
  CAMLreturn(res);
}

CAMLprim value caml_capi_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  CAMLlocal1(res);
  void *h = (void *)(intnat)Int64_val(vhandle);
  void *fn = dlsym(h, String_val(vname));
  /* A missing symbol is an expected outcome (interpreter fallback),
   * not an error: report it as the null function. */
  res = caml_copy_int64((int64_t)(intnat)fn);
  CAMLreturn(res);
}

CAMLprim value caml_capi_dlclose(value vhandle)
{
  CAMLparam1(vhandle);
  void *h = (void *)(intnat)Int64_val(vhandle);
  if (h != NULL) dlclose(h);
  CAMLreturn(Val_unit);
}

CAMLprim value caml_capi_call(value vhost, value vfn, value vargs)
{
  CAMLparam3(vhost, vfn, vargs);
  void (*fn)(void **) = (void (*)(void **))(intnat)Int64_val(vfn);
  int argc = Wosize_val(vargs);
  void *argv[CAPI_MAX_ARGS];
  long scratch_long[CAPI_MAX_ARGS];
  double scratch_double[CAPI_MAX_ARGS];

  if (fn == NULL) caml_invalid_argument("Capi.call: null function");
  if (argc > CAPI_MAX_ARGS)
    caml_invalid_argument("Capi.call: too many arguments");

  for (int i = 0; i < argc; i++) {
    value a = Field(vargs, i);
    switch (Tag_val(a)) {
    case CAPI_ARG_BUF:
      argv[i] = Caml_ba_data_val(Field(a, 0));
      break;
    case CAPI_ARG_INT:
      scratch_long[i] = Long_val(Field(a, 0));
      argv[i] = &scratch_long[i];
      break;
    case CAPI_ARG_FLOAT:
      scratch_double[i] = Double_val(Field(a, 0));
      argv[i] = &scratch_double[i];
      break;
    default:
      caml_invalid_argument("Capi.call: unknown argument tag");
    }
  }
  capi_enter(vhost, fn, argv, NULL);
  CAMLreturn(Val_unit);
}

CAMLprim value caml_capi_run_main(value vhost, value vfn)
{
  CAMLparam2(vhost, vfn);
  int (*entry)(void) = (int (*)(void))(intnat)Int64_val(vfn);
  if (entry == NULL) caml_invalid_argument("Capi.run_main: null function");
  CAMLreturn(Val_int(capi_enter(vhost, NULL, NULL, entry)));
}

CAMLprim value caml_capi_address(value vbuf)
{
  return Val_long((intnat)Caml_ba_data_val(vbuf));
}

CAMLprim value caml_capi_peek_long(value vaddr)
{
  return Val_long(*(long *)Long_val(vaddr));
}

CAMLprim value caml_capi_peek_double(value vaddr)
{
  return caml_copy_double(*(double *)Long_val(vaddr));
}

(* Tests for the Cascabel compiler: targets, repository, static
   pre-selection, the mini-C interpreter, code generation, and
   end-to-end execution of translated programs on the simulated
   heterogeneous runtime. *)

open Cascabel

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let count_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  go 0 0

let parse src =
  match Minic.Parser.parse src with
  | Ok u -> u
  | Error e -> Alcotest.failf "parse: %s" (Minic.Parser.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Example programs                                                    *)

(* The paper's vecadd example, completed into a runnable program. *)
let vecadd_program =
  {|#define N 64

#pragma cascabel task : x86 : Ivecadd : vecadd01 : (A: readwrite, B: read)
void vectoradd(double *A, double *B, int n)
{
  for (int i = 0; i < n; i++)
    A[i] = A[i] + B[i];
}

int main(void)
{
  double *A = malloc(N * sizeof(double));
  double *B = malloc(N * sizeof(double));
  for (int i = 0; i < N; i++) {
    A[i] = i;
    B[i] = 2 * i;
  }
  #pragma cascabel execute Ivecadd : executionset01 (A:BLOCK:n, B:BLOCK:n)
  vectoradd(A, B, N);
  double sum = 0.0;
  for (int i = 0; i < N; i++)
    sum += A[i];
  printf("sum=%g\n", sum);
  return 0;
}
|}

(* The case study: DGEMM with a sequential fallback and a GPU
   variant. m is the distributed row dimension, n the inner/column
   dimension. *)
let dgemm_program =
  {|#define N 24

#pragma cascabel task : x86 : Idgemm : dgemm_seq : (A: read, B: read, C: readwrite)
void dgemm_kernel(double *A, double *B, double *C, int m, int n)
{
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      double acc = 0.0;
      for (int k = 0; k < n; k++)
        acc += A[i * n + k] * B[k * n + j];
      C[i * n + j] += acc;
    }
  }
}

#pragma cascabel task : OpenCL : Idgemm : dgemm_ocl : (A: read, B: read, C: readwrite)
void dgemm_kernel_ocl(double *A, double *B, double *C, int m, int n)
{
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      double acc = 0.0;
      for (int k = 0; k < n; k++)
        acc += A[i * n + k] * B[k * n + j];
      C[i * n + j] += acc;
    }
  }
}

int main(void)
{
  double *A = malloc(N * N * sizeof(double));
  double *B = malloc(N * N * sizeof(double));
  double *C = malloc(N * N * sizeof(double));
  for (int i = 0; i < N * N; i++) {
    A[i] = 1.0 + i % 7;
    B[i] = 2.0 - i % 5;
    C[i] = 0.0;
  }
  #pragma cascabel execute Idgemm : executionset01 (A:BLOCK:m, C:BLOCK:m)
  dgemm_kernel(A, B, C, N, N);
  double checksum = 0.0;
  for (int i = 0; i < N * N; i++)
    checksum += C[i];
  printf("checksum=%.3f\n", checksum);
  return 0;
}
|}

let smp = Pdl_hwprobe.Zoo.xeon_x5550_smp
let gpus = Pdl_hwprobe.Zoo.xeon_2gpu

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)

let targets_tests =
  [
    Alcotest.test_case "builtin names resolve" `Quick (fun () ->
        List.iter
          (fun (name, arch) ->
            match Targets.resolve name with
            | Ok t -> check string_ name arch t.arch_class
            | Error e -> Alcotest.fail e)
          [
            ("x86", "cpu");
            ("OpenCL", "gpu");
            ("Cuda", "gpu");
            ("CellSDK", "spe");
            ("smp", "cpu");
          ]);
    Alcotest.test_case "resolution is case-insensitive" `Quick (fun () ->
        match Targets.resolve "opencl" with
        | Ok t -> check string_ "gpu" "gpu" t.arch_class
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "explicit pattern syntax accepted" `Quick (fun () ->
        match Targets.resolve "Master[Worker{ARCHITECTURE=spe}]" with
        | Ok t ->
            check string_ "arch from pattern" "spe" t.arch_class;
            check bool_ "matches cell" true
              (Pdl.Pattern.matches t.pattern
                 (Pdl.View.apply_exn Pdl.View.flatten Pdl_hwprobe.Zoo.cell_qs20))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "unknown target rejected with hint" `Quick (fun () ->
        match Targets.resolve "vax780" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> check bool_ "mentions known names" true (contains e "x86"));
    Alcotest.test_case "gpu targets require a gpu worker" `Quick (fun () ->
        let t = Result.get_ok (Targets.resolve "Cuda") in
        check bool_ "smp lacks gpu" false (Pdl.Pattern.matches t.pattern smp);
        check bool_ "2gpu has gpu" true (Pdl.Pattern.matches t.pattern gpus));
    Alcotest.test_case "fallback detection" `Quick (fun () ->
        check bool_ "x86 is fallback" true
          (Targets.is_fallback (Result.get_ok (Targets.resolve "x86")));
        check bool_ "cuda is not" false
          (Targets.is_fallback (Result.get_ok (Targets.resolve "Cuda"))));
  ]

(* ------------------------------------------------------------------ *)
(* Repository + preselect                                              *)

let repo_tests =
  [
    Alcotest.test_case "registration from a unit" `Quick (fun () ->
        let repo = Repository.create () in
        (match Repository.register_unit repo (parse dgemm_program) with
        | Ok vs -> check int_ "two variants" 2 (List.length vs)
        | Error e -> Alcotest.fail e);
        check (Alcotest.list string_) "one interface" [ "Idgemm" ]
          (Repository.interfaces repo);
        check bool_ "fallback present" true
          (Repository.has_fallback repo "Idgemm");
        check bool_ "variant lookup" true
          (Repository.find_variant repo "dgemm_ocl" <> None));
    Alcotest.test_case "duplicate variant names rejected" `Quick (fun () ->
        let repo = Repository.create () in
        let u = parse dgemm_program in
        let _ = Repository.register_unit repo u in
        match Repository.register_unit repo u with
        | Ok _ -> Alcotest.fail "expected duplicate error"
        | Error e -> check bool_ "duplicate" true (contains e "duplicate"));
    Alcotest.test_case "signature mismatch rejected" `Quick (fun () ->
        let repo = Repository.create () in
        let bad =
          parse
            {|#pragma cascabel task : x86 : I : v1 : (A: read)
void f(double *A) { }
#pragma cascabel task : OpenCL : I : v2 : (A: read)
void g(double *A, int n) { }
|}
        in
        match Repository.register_unit repo bad with
        | Ok _ -> Alcotest.fail "expected signature error"
        | Error e -> check bool_ "signature" true (contains e "signature"));
    Alcotest.test_case "parameter specs must name parameters" `Quick
      (fun () ->
        let repo = Repository.create () in
        let bad =
          parse
            {|#pragma cascabel task : x86 : I : v1 : (Z: read)
void f(double *A) { }
|}
        in
        match Repository.register_unit repo bad with
        | Ok _ -> Alcotest.fail "expected param error"
        | Error _ -> ());
    Alcotest.test_case "access_of falls back to Read for pointers" `Quick
      (fun () ->
        let repo = Repository.create () in
        let u =
          parse
            {|#pragma cascabel task : x86 : I : v1 : (A: write)
void f(double *A, double *B, int n) { }
|}
        in
        let _ = Repository.register_unit repo u in
        let v = Option.get (Repository.find_variant repo "v1") in
        check bool_ "annotated" true
          (Repository.access_of v "A" = Some Minic.Ast.Write);
        check bool_ "default pointer read" true
          (Repository.access_of v "B" = Some Minic.Ast.Read);
        check bool_ "scalar none" true (Repository.access_of v "n" = None));
    Alcotest.test_case "preselect prunes gpu variant on smp" `Quick (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        match Preselect.select repo smp with
        | Error e -> Alcotest.fail e
        | Ok [ sel ] ->
            check int_ "one kept" 1 (List.length sel.kept);
            check (Alcotest.option string_) "fallback chosen" (Some "dgemm_seq")
              (Option.map (fun v -> v.Repository.v_name) sel.chosen);
            let stats = Preselect.stats [ sel ] in
            check int_ "pruned" 1 stats.pruned_count
        | Ok _ -> Alcotest.fail "expected one selection");
    Alcotest.test_case "preselect keeps and prefers gpu variant on 2gpu"
      `Quick (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        match Preselect.select repo gpus with
        | Error e -> Alcotest.fail e
        | Ok [ sel ] ->
            check int_ "both kept" 2 (List.length sel.kept);
            check (Alcotest.option string_) "gpu chosen" (Some "dgemm_ocl")
              (Option.map (fun v -> v.Repository.v_name) sel.chosen)
        | Ok _ -> Alcotest.fail "expected one selection");
    Alcotest.test_case "missing fallback is an error" `Quick (fun () ->
        let repo = Repository.create () in
        let gpu_only =
          parse
            {|#pragma cascabel task : Cuda : I : v1 : (A: read)
void f(double *A) { }
|}
        in
        let _ = Repository.register_unit repo gpu_only in
        match Preselect.select repo gpus with
        | Ok _ -> Alcotest.fail "expected fallback error"
        | Error e -> check bool_ "fallback" true (contains e "fallback"));
    Alcotest.test_case "report names verdicts" `Quick (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        let sels = Result.get_ok (Preselect.select repo smp) in
        let report = Preselect.report sels in
        check bool_ "chosen marked" true (contains report "[chosen]");
        check bool_ "pruned marked" true (contains report "pruned"));
  ]

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let interp_run src =
  match Runnable.run_serial (parse src) with
  | Ok (code, out) -> (code, out)
  | Error e -> Alcotest.failf "interp: %s" e

let interp_tests =
  [
    Alcotest.test_case "arithmetic and control flow" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                int total = 0;
                for (int i = 1; i <= 10; i++)
                  if (i % 2 == 0) total += i;
                printf("%d\n", total);
                return 0;
              }|}
        in
        check string_ "sum of evens" "30\n" out);
    Alcotest.test_case "pointers and malloc" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                double *p = malloc(4 * sizeof(double));
                for (int i = 0; i < 4; i++) p[i] = i * 1.5;
                double *q = p + 2;
                printf("%g %g\n", q[0], *q + q[1]);
                return 0;
              }|}
        in
        check string_ "pointer arithmetic" "3 7.5\n" out);
    Alcotest.test_case "functions, recursion, coercions" `Quick (fun () ->
        let _, out =
          interp_run
            {|int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
              double half(int x) { return x / 2.0; }
              int main(void) {
                printf("%d %g\n", fib(10), half(7));
                return 0;
              }|}
        in
        check string_ "fib and coercion" "55 3.5\n" out);
    Alcotest.test_case "local arrays, while, compound assign" `Quick
      (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                double acc[4];
                int i = 0;
                while (i < 4) { acc[i] = i * i; i++; }
                double sum = 0.0;
                for (int j = 0; j < 4; j++) sum += acc[j];
                printf("%.1f\n", sum);
                return 0;
              }|}
        in
        check string_ "sum of squares" "14.0\n" out);
    Alcotest.test_case "builtins" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                printf("%g %g %g %d\n", sqrt(16.0), fabs(0.0 - 2.5), fmax(1.0, 3.0), abs(0 - 7));
                return 0;
              }|}
        in
        check string_ "math builtins" "4 2.5 3 7\n" out);
    Alcotest.test_case "exit code from main" `Quick (fun () ->
        let code, _ = interp_run "int main(void) { return 42; }" in
        check int_ "code" 42 code);
    Alcotest.test_case "runtime errors reported" `Quick (fun () ->
        List.iter
          (fun src ->
            match Runnable.run_serial (parse src) with
            | Ok _ -> Alcotest.failf "expected runtime error in %s" src
            | Error _ -> ())
          [
            "int main(void) { int x = 1 / 0; return x; }";
            "int main(void) { double *p = malloc(8); return (int)p[5]; }";
            "int main(void) { return missing(); }";
            "int main(void) { while (1) { } return 0; }";
          ]);
    Alcotest.test_case "pointer difference and comparisons" `Quick
      (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                double *p = malloc(10 * sizeof(double));
                double *q = p + 7;
                printf("%d %d %d\n", (int)(q - p), p < q ? 1 : 0, q == q);
                return 0;
              }|}
        in
        check string_ "diff" "7 1 1\n" out);
    Alcotest.test_case "do-while and comma" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                int i = 0, total = 0;
                do { total += i; i++; } while (i < 5);
                printf("%d\n", total);
                return 0;
              }|}
        in
        check string_ "sum" "10\n" out);
    Alcotest.test_case "global variables and #define constants" `Quick
      (fun () ->
        let _, out =
          interp_run
            {|#define SCALE 3
int counter = 10;
int bump(void) { counter += SCALE; return counter; }
int main(void) {
  bump();
  bump();
  printf("%d\n", counter);
  return 0;
}|}
        in
        check string_ "16" "16\n" out);
    Alcotest.test_case "printf width and precision" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                printf("[%5d] [%-4d] [%8.3f] [%e]\n", 42, 7, 3.14159, 1234.5);
                return 0;
              }|}
        in
        check string_ "formatted" "[   42] [7   ] [   3.142] [1.234500e+03]\n"
          out);
    Alcotest.test_case "pre/post increment on array cells" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                double a[3];
                a[0] = 5.0;
                double x = a[0]++;
                double y = ++a[0];
                printf("%g %g %g\n", x, y, a[0]);
                return 0;
              }|}
        in
        check string_ "values" "5 7 7\n" out);
    Alcotest.test_case "bitwise and shifts" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                int x = 12;
                printf("%d %d %d %d %d\n", x & 10, x | 3, x ^ 5, x << 2, x >> 1);
                return 0;
              }|}
        in
        check string_ "bits" "8 15 9 48 6\n" out);
    Alcotest.test_case "casts truncate and extend" `Quick (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                double d = 7.9;
                int i = (int)d;
                double back = (double)i / 2;
                printf("%d %g\n", i, back);
                return 0;
              }|}
        in
        check string_ "cast" "7 3.5\n" out);
    Alcotest.test_case "serial vecadd program output" `Quick (fun () ->
        (* sum_{i<64} 3i = 3 * 64*63/2 = 6048 *)
        let _, out = interp_run vecadd_program in
        check string_ "sum" "sum=6048\n" out);
    Alcotest.test_case "unbounded recursion stops at the call-depth limit"
      `Quick (fun () ->
        let t0 = Sys.time () in
        let r =
          Runnable.run_serial
            (parse
               {|int f(int n) { return f(n + 1); }
                 int main(void) { return f(0); }|})
        in
        check
          (Alcotest.result (Alcotest.pair int_ string_) string_)
          "depth error" (Error "call depth exceeded") r;
        check bool_ "fails fast" true (Sys.time () -. t0 < 5.0));
    Alcotest.test_case "out-of-range integer literal is an error" `Quick
      (fun () ->
        match
          Runnable.run_serial
            (parse "int main(void) { int x = 99999999999999999999; return x; }")
        with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e ->
            check string_ "message"
              "integer literal 99999999999999999999 is out of range" e);
    Alcotest.test_case "malformed literals fail only when reached" `Quick
      (fun () ->
        let _, out =
          interp_run
            {|int main(void) {
                int x = 1;
                if (x == 0) {
                  int big = 99999999999999999999;
                  int cr = '\r';
                }
                printf("ok\n");
                return 0;
              }|}
        in
        check string_ "dead branch" "ok\n" out);
    Alcotest.test_case "variables resolve by lexical scope" `Quick (fun () ->
        let _, out =
          interp_run
            {|int x = 1;
              int get(void) { return x; }
              int main(void) {
                int x = 2;
                int y = x;
                for (int x = 3; x < 4; x++) y = y * 10 + x;
                { int x = 4; y = y * 10 + x; }
                printf("%d %d %d\n", y, x, get());
                return 0;
              }|}
        in
        check string_ "shadowing" "234 2 1\n" out);
  ]

(* ------------------------------------------------------------------ *)
(* The blas_dgemm library builtin                                      *)

let blas_unit =
  parse
    {|void mm(double *A, double *B, double *C, int m, int n, int k,
              int ao, int bo, int co)
{
  blas_dgemm(m, n, k, A + ao, B + bo, C + co);
}
int main(void) { return 0; }|}

(* Replace the first occurrence of [sub], which must exist. *)
let replace ~sub ~by s =
  let ls = String.length sub in
  let rec find i =
    if i + ls > String.length s then Alcotest.failf "no %S in source" sub
    else if String.sub s i ls = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + ls) (String.length s - i - ls)

let random_buf rng n =
  let b = Kernels.Matrix.create_buf n in
  for i = 0 to n - 1 do
    Bigarray.Array1.set b i (Random.State.float rng 2.0 -. 1.0)
  done;
  b

let copy_buf b =
  let c = Kernels.Matrix.create_buf (Bigarray.Array1.dim b) in
  Bigarray.Array1.blit b c;
  c

let bits_equal x y =
  Bigarray.Array1.dim x = Bigarray.Array1.dim y
  &&
  let ok = ref true in
  for i = 0 to Bigarray.Array1.dim x - 1 do
    if Int64.bits_of_float x.{i} <> Int64.bits_of_float y.{i} then ok := false
  done;
  !ok

(* Call mm through the interpreter; it updates c in place. *)
let interp_mm ~m ~n ~k ~ao ~bo ~co a b c =
  let t = Interp.create blas_unit in
  let buf x = Interp.VBuf (Interp.buf_of_bigarray x) in
  ignore
    (Interp.call t "mm"
       (buf a :: buf b :: buf c
       :: List.map (fun v -> Interp.VInt v) [ m; n; k; ao; bo; co ]))

let blas_matches_kernel =
  let small = QCheck.Gen.int_range 1 21 in
  let gen =
    QCheck.Gen.(
      let* m = small and* n = small in
      let* k =
        oneof
          [ int_range 1 20;
            int_range (Kernels.Gemm_kernel.kc + 1) (Kernels.Gemm_kernel.kc + 9) ]
      in
      let* ao = int_range 0 5 and* bo = int_range 0 5 and* co = int_range 0 5 in
      let* seed = int in
      return (m, n, k, ao, bo, co, seed))
  in
  QCheck.Test.make ~name:"blas_dgemm equals Gemm_kernel.gemm bit for bit"
    ~count:60
    (QCheck.make gen ~print:(fun (m, n, k, ao, bo, co, _) ->
         Printf.sprintf "m=%d n=%d k=%d A+%d B+%d C+%d" m n k ao bo co))
    (fun (m, n, k, ao, bo, co, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_buf rng ((m * k) + ao)
      and b = random_buf rng ((k * n) + bo)
      and c = random_buf rng ((m * n) + co) in
      let got = copy_buf c and want = copy_buf c in
      interp_mm ~m ~n ~k ~ao ~bo ~co a b got;
      Kernels.Gemm_kernel.gemm ~trans_b:false ~m ~n ~k ~alpha:1.0 ~beta:1.0
        ~a ~aoff:ao ~lda:k ~b ~boff:bo ~ldb:n ~c:want ~coff:co ~ldc:n ();
      bits_equal got want)

(* Translate and lower [unit_] for xeon-2gpu. *)
let emit_c unit_ =
  match
    Result.map_error (String.concat "; ")
      (Codegen.translate ~repo:(Repository.create ()) ~platform:gpus unit_)
    |> Fun.flip Result.bind Emit_c.emit
  with
  | Ok em -> em
  | Error e -> Alcotest.failf "translate/emit: %s" e

(* Run [unit_] on xeon-2gpu interpreted, then with the loaded library
   [nt] attached, and close [nt]. *)
let run_both nt unit_ =
  let run ?native () =
    match
      Runnable.run ?native ~repo:(Repository.create ()) ~platform:gpus unit_
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "run: %s" e
  in
  let interpreted = run () and native = run ~native:nt () in
  Native.close nt;
  (interpreted, native)

let library_tests =
  [
    Alcotest.test_case "extents that do not fit are runtime errors" `Quick
      (fun () ->
        let rng = Random.State.make [| 7 |] in
        let a = random_buf rng 12 and b = random_buf rng 12 in
        let c = random_buf rng 9 in
        let before = copy_buf c in
        List.iter
          (fun (what, (m, n, k, ao, bo, co), want) ->
            match interp_mm ~m ~n ~k ~ao ~bo ~co a b c with
            | _ -> Alcotest.failf "%s: expected a runtime error" what
            | exception Interp.Runtime_error e ->
                check string_ what want e)
          [
            ( "A past its end",
              (3, 3, 5, 0, 0, 0),
              "blas_dgemm: A needs 15 doubles, its buffer has 12" );
            ( "B interior pointer",
              (3, 3, 4, 0, 1, 0),
              "blas_dgemm: B needs 12 doubles, its buffer has 11" );
            ( "C interior pointer",
              (3, 3, 4, 0, 0, 2),
              "blas_dgemm: C needs 9 doubles, its buffer has 7" );
            ( "negative extent",
              (-1, 3, 4, 0, 0, 0),
              "blas_dgemm: negative extent (m=-1, n=3, k=4)" );
            ( "overflowing extent",
              (max_int / 2, 3, 4, 0, 0, 0),
              Printf.sprintf "blas_dgemm: extent %d x 4 overflows" (max_int / 2)
            );
          ];
        (* No call wrote anything: the checks run before the kernel. *)
        check bool_ "C unchanged" true (bits_equal before c));
    Alcotest.test_case "C may not overlap A or B" `Quick (fun () ->
        match
          Runnable.run_serial
            (parse
               {|int main(void) {
                   double *A = malloc(16 * sizeof(double));
                   blas_dgemm(2, 2, 2, A, A + 8, A + 2);
                   return 0;
                 }|})
        with
        | Ok _ -> Alcotest.fail "expected an overlap error"
        | Error e -> check string_ "message" "blas_dgemm: C overlaps A" e);
    Alcotest.test_case "a library task copies no matrix data" `Quick
      (fun () ->
        (* Cascabel tasks compute in place on views of the program's
           own buffers: Data.read_matrix/write_matrix, which count every
           byte they copy, never run for dgemm.c (N = 32), interpreted
           or with --native *)
        let unit_ =
          parse
            (In_channel.with_open_bin "../../examples/programs/dgemm.c"
               In_channel.input_all)
        in
        let run ?native () =
          Obs.Config.set_enabled true;
          Obs.Counter.reset_all ();
          let r =
            Runnable.run ?native ~repo:(Repository.create ()) ~platform:gpus
              unit_
          in
          let copied =
            List.find
              (fun c -> Obs.Counter.name c = "data_copy_bytes")
              (Obs.Counter.all ())
            |> Obs.Counter.value
          in
          Obs.Counter.reset_all ();
          Obs.Config.set_enabled false;
          match r with
          | Error e -> Alcotest.failf "run: %s" e
          | Ok r -> (r, copied)
        in
        let r, copied = run () in
        check int_ "one task per PU" 10 r.tasks_submitted;
        check int_ "bytes copied" 0 copied;
        match Native.build (emit_c unit_) with
        | Native.No_toolchain _ -> () (* no cc: nothing to run natively *)
        | Native.Compile_error e -> Alcotest.failf "native build: %s" e
        | Native.Loaded nt ->
            let r, copied =
              Fun.protect
                ~finally:(fun () -> Native.close nt)
                (run ~native:nt)
            in
            check int_ "every task native" 10 r.native_tasks;
            check int_ "bytes copied under --native" 0 copied);
    Alcotest.test_case
      "dgemm.c with a random fill: --native runs every task, bit-identical"
      `Quick (fun () ->
        let src =
          In_channel.with_open_bin "../../examples/programs/dgemm.c"
            In_channel.input_all
          |> replace ~sub:"#define N 32" ~by:"#define N 37"
          |> replace ~sub:"1.0 + i % 9" ~by:"rand_double()"
          |> replace ~sub:"0.5 * (i % 11)" ~by:"rand_double() - 0.5"
          |> replace ~sub:"checksum=%.3f" ~by:"checksum=%.17g"
        in
        let unit_ = parse src in
        let em = emit_c unit_ in
        match Native.build em with
        | Native.No_toolchain _ -> () (* no cc: nothing to compare *)
        | Native.Compile_error e -> Alcotest.failf "native build: %s" e
        | Native.Loaded nt ->
            let interpreted, native = run_both nt unit_ in
            check int_ "every task native" native.tasks_submitted
              native.native_tasks;
            check int_ "no fallbacks" 0 native.native_fallbacks;
            check bool_ "decomposed" true (native.tasks_submitted > 1);
            check string_ "stdout" interpreted.stdout native.stdout);
    Alcotest.test_case "a helper-calling variant runs compiled, bit-identical"
      `Quick (fun () ->
        let unit_ =
          parse
            {|#define N 64
double twice(double x) { return 2.0 * x; }

#pragma cascabel task : x86 : Iscale : scale_cpu : (A: readwrite)
void scale(double *A, int n)
{
  for (int i = 0; i < n * n; i++)
    A[i] = twice(A[i]);
}

int main(void)
{
  double *A = malloc(N * N * sizeof(double));
  for (int i = 0; i < N * N; i++)
    A[i] = 1.0 * i;
  #pragma cascabel execute Iscale : executionset01 (A:BLOCK:n)
  scale(A, N);
  double sum = 0.0;
  for (int i = 0; i < N * N; i++)
    sum += A[i];
  printf("sum=%.3f\n", sum);
  return 0;
}|}
        in
        let em = emit_c unit_ in
        check int_ "one wrapper" 1 (List.length em.all_wrappers);
        check int_ "and compiled" 1 (List.length em.native_variants);
        let kernels =
          List.find (fun s -> s.Emit_c.file = Emit_c.kernels_file em) em.sources
        in
        check bool_ "helper closure emitted" true
          (contains kernels.contents "double twice(double x)");
        match Native.build em with
        | Native.No_toolchain _ -> () (* no cc: nothing to compare *)
        | Native.Compile_error e -> Alcotest.failf "native build: %s" e
        | Native.Loaded nt ->
            let interpreted, native = run_both nt unit_ in
            check int_ "no fallback" 0 native.native_fallbacks;
            check int_ "every task native" native.tasks_submitted
              native.native_tasks;
            check string_ "stdout" interpreted.stdout native.stdout);
    Alcotest.test_case
      "a variant calling an interpreter builtin stays out of the object"
      `Quick (fun () ->
        (* rand_double and assert_true live in the interpreter: a
           variant that calls one cannot load under RTLD_NOW, so it
           must not be compiled into the kernels object at all, or the
           dlopen fails for every variant *)
        let src =
          In_channel.with_open_text "../../examples/programs/vecadd.c"
            In_channel.input_all
          |> replace ~sub:"Y[i] = beta * Y[i];"
               ~by:"Y[i] = beta * Y[i] + 0.0 * rand_double();"
        in
        let unit_ = parse src in
        let em = emit_c unit_ in
        check bool_ "no rand_double in the kernels unit" false
          (contains
             (List.find (fun s -> s.Emit_c.file = Emit_c.kernels_file em)
                em.sources)
               .contents "rand_double");
        check bool_ "scale is not native-dispatchable" false
          (List.mem_assoc "scale_cpu" em.native_variants);
        match Native.build em with
        | Native.No_toolchain _ -> () (* no cc: nothing to compare *)
        | Native.Compile_error e -> Alcotest.failf "native build: %s" e
        | Native.Loaded nt ->
            let interpreted, native = run_both nt unit_ in
            check bool_ "scale fell back" true (native.native_fallbacks > 0);
            check bool_ "axpy still native" true (native.native_tasks > 0);
            check string_ "stdout" interpreted.stdout native.stdout);
  ]

(* ------------------------------------------------------------------ *)
(* Compiled main: the entry in the kernels library                     *)

(* Build [unit_] for xeon-2gpu and hand the loaded library to [k];
   without cc there is nothing to compare. *)
let with_native unit_ k =
  match Native.build (emit_c unit_) with
  | Native.No_toolchain _ -> ()
  | Native.Compile_error e -> Alcotest.failf "native build: %s" e
  | Native.Loaded nt ->
      Fun.protect ~finally:(fun () -> Native.close nt) (fun () -> k nt)

let run_on ?native platform unit_ =
  Runnable.run ?native ~repo:(Repository.create ()) ~platform unit_

let expect_ok what = function
  | Ok (r : Runnable.report) -> r
  | Error e -> Alcotest.failf "%s: %s" what e

let entry_compiled nt =
  match Native.entry nt with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "main stays interpreted: %s" why

(* Both modes fail with the same text, and the process can run a
   compiled main again afterwards. *)
let same_error ?(platform = gpus) unit_ ~mentions ~after =
  with_native unit_ (fun nt ->
      entry_compiled nt;
      match (run_on platform unit_, run_on ~native:nt platform unit_) with
      | Error interpreted, Error native ->
          check string_ "error text" interpreted native;
          check bool_ ("mentions " ^ mentions) true (contains native mentions);
          after nt
      | Ok _, _ -> Alcotest.fail "the interpreted run succeeded"
      | _, Ok _ -> Alcotest.fail "the compiled run succeeded")

(* [src]'s main compiles, and both modes print [want]. *)
let same_output src ~want =
  let unit_ = parse src in
  with_native unit_ (fun nt ->
      entry_compiled nt;
      let interpreted = expect_ok "interpreted" (run_on gpus unit_)
      and native = expect_ok "native" (run_on ~native:nt gpus unit_) in
      check string_ "interpreted" want interpreted.stdout;
      check string_ "native" want native.stdout)

let dgemm_source () =
  In_channel.with_open_bin "../../examples/programs/dgemm.c"
    In_channel.input_all

(* A loop of submits, serial reads and writes between them, every
   printf conversion the host reproduces, an output longer than the
   entry's stack buffer, and a direct blas_dgemm call. *)
let loop_program =
  {|#define N 64
#pragma cascabel task : x86 : Iv : addone_cpu : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}
double half(double x) { return 0.5 * x; }
int main(void)
{
  double *A = malloc(N * sizeof(double));
  double *B = calloc(N, sizeof(double));
  for (int i = 0; i < N; i++) A[i] = i * 0.5;
  for (int k = 0; k < 5; k++) {
    #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
    addone(A, N);
    B[k] = half(A[k] + A[N - 1]);
    printf("k=%d i=%i u=%u a=%.2f b=%g e=%e %c 100%%\n",
           k, k * 3, k - 3, A[k], B[k], B[k], 65 + k);
  }
  blas_dgemm(4, 4, 4, A, A + 16, B + 16);
  free(B);
  double s = 0.0;
  for (int i = 0; i < N; i++) s += sqrt(A[i]) + B[i];
  printf("s=%300.12f|\n", s);
  return 3;
}
|}

let entry_tests =
  [
    Alcotest.test_case "an interior pointer fails alike in both modes" `Quick
      (fun () ->
        same_error
          (parse
             {|#define N 16
#pragma cascabel task : x86 : Iv : v1 : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}
int main(void) {
  double *A = malloc(N * sizeof(double));
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  addone(A + 1, 4);
  return 0;
}
|})
          ~mentions:"interior pointer" ~after:(fun _ ->
            let unit_ = parse (dgemm_source ()) in
            with_native unit_ (fun nt ->
                let r = expect_ok "second run" (run_on ~native:nt gpus unit_) in
                check bool_ "compiled main" true r.native_main;
                check string_ "stdout" "checksum=408625.500\n" r.stdout)));
    Alcotest.test_case "an unknown execution group fails alike in both modes"
      `Quick (fun () ->
        (* Translated for xeon-2gpu, run on xeon-single, which has no
           "gpus" group. *)
        let unit_ =
          parse
            (replace ~sub:": executionset01" ~by:": gpus" (dgemm_source ()))
        in
        same_error
          ~platform:(Option.get (Pdl_hwprobe.Zoo.find "xeon-single"))
          unit_ ~mentions:"\"gpus\" is not a LogicGroupAttribute"
          ~after:(fun nt ->
            let r = expect_ok "second run" (run_on ~native:nt gpus unit_) in
            check bool_ "compiled main" true r.native_main;
            check string_ "stdout" "checksum=408625.500\n" r.stdout));
    Alcotest.test_case "rand_double or assert_true keeps main interpreted"
      `Quick (fun () ->
        List.iter
          (fun (fill, why) ->
            let unit_ =
              parse
                (dgemm_source ()
                |> replace ~sub:"1.0 + i % 9" ~by:fill
                |> replace ~sub:"checksum=%.3f" ~by:"checksum=%.17g")
            in
            with_native unit_ (fun nt ->
                (match Native.entry nt with
                | Ok _ -> Alcotest.fail "main compiled"
                | Error reason -> check string_ "reason" why reason);
                let interpreted = expect_ok "interpreted" (run_on gpus unit_)
                and native =
                  expect_ok "native" (run_on ~native:nt gpus unit_)
                in
                check bool_ "native_main" false native.native_main;
                check int_ "every task native" native.tasks_submitted
                  native.native_tasks;
                check string_ "stdout" interpreted.stdout native.stdout))
          [
            ("rand_double()", "main calls rand_double");
            ("(assert_true(i >= 0), 1.0)", "main calls assert_true");
          ]);
    Alcotest.test_case "an int argument reaches a double parameter as a double"
      `Quick (fun () ->
        (* main stays interpreted (rand_double), so the argument reaches
           the compiled wrapper of scale_cpu from the interpreter *)
        let unit_ =
          parse
            (In_channel.with_open_bin "../../examples/programs/vecadd.c"
               In_channel.input_all
            |> replace ~sub:"scale(Y, N, 0.5);" ~by:"scale(Y, N, 2);"
            |> replace ~sub:"Y[i] = 1.0 + i % 5;"
                 ~by:"Y[i] = 1.0 + i % 5 + 0.0 * rand_double();")
        in
        with_native unit_ (fun nt ->
            let interpreted = expect_ok "interpreted" (run_on gpus unit_)
            and native = expect_ok "native" (run_on ~native:nt gpus unit_) in
            check bool_ "native_main" false native.native_main;
            check int_ "every task native" native.tasks_submitted
              native.native_tasks;
            check string_ "stdout" interpreted.stdout native.stdout));
    Alcotest.test_case "submits in a loop with reads between print alike"
      `Quick (fun () ->
        let unit_ = parse loop_program in
        with_native unit_ (fun nt ->
            entry_compiled nt;
            let interpreted = expect_ok "interpreted" (run_on gpus unit_)
            and native = expect_ok "native" (run_on ~native:nt gpus unit_) in
            check bool_ "native_main" true native.native_main;
            check bool_ "interpreted main" false interpreted.native_main;
            check int_ "exit code" interpreted.exit_code native.exit_code;
            check int_ "tasks" interpreted.tasks_submitted
              native.tasks_submitted;
            check bool_ "long line" true (String.length native.stdout > 300);
            check string_ "stdout" interpreted.stdout native.stdout));
    Alcotest.test_case "a compiled main's blas_dgemm fails as the interpreter's"
      `Quick (fun () ->
        (* the host resolves the three addresses against main's
           allocations and runs the interpreter's checked kernel *)
        List.iter
          (fun (body, want) ->
            same_error
              (parse
                 (Printf.sprintf
                    {|int main(void) {
  double *A = malloc(16 * sizeof(double));
  double *B = malloc(4 * sizeof(double));
  double *C = malloc(4 * sizeof(double));
  %s
  printf("done\n");
  return 0;
}|}
                    body))
              ~mentions:want
              ~after:(fun _ -> ()))
          [
            ("blas_dgemm(2, 2, 2, A, A + 8, A + 2);", "blas_dgemm: C overlaps A");
            ( "blas_dgemm(2, 2, 5, B, C, B);",
              "blas_dgemm: A needs 10 doubles, its buffer has 4" );
          ]);
    Alcotest.test_case "a compiled variant's blas_dgemm sees its block views"
      `Quick (fun () ->
        (* eight row blocks of four doubles: each task's A is its own
           block, as in the interpreter, so the checks see 4 doubles *)
        List.iter
          (fun (call, want) ->
            let unit_ =
              parse
                (Printf.sprintf
                   {|#define N 8
#pragma cascabel task : x86 : Imm : mm_cpu : (A: readwrite)
void mm(double *A, int n)
{
  %s
}
int main(void)
{
  double *A = malloc(N * 4 * sizeof(double));
  #pragma cascabel execute Imm : executionset01 (A:BLOCK:n)
  mm(A, N);
  printf("%%g\n", A[0]);
  return 0;
}|}
                   call)
            in
            let em = emit_c unit_ in
            check bool_ "mm compiles" true
              (List.mem_assoc "mm_cpu" em.native_variants);
            with_native unit_ (fun nt ->
                check bool_ "wrapper loaded" true
                  (Native.fn_for nt "mm_cpu" <> None);
                match (run_on gpus unit_, run_on ~native:nt gpus unit_) with
                | Error interpreted, Error native ->
                    check string_ "interpreted" want interpreted;
                    check string_ "native" want native
                | _ -> Alcotest.fail "expected both runs to fail"))
          [
            ("blas_dgemm(1, 1, 2, A, A + 2, A + 1);", "blas_dgemm: C overlaps A");
            ( "blas_dgemm(2, 1, 3, A, A, A + 3);",
              "blas_dgemm: A needs 6 doubles, its buffer has 4" );
          ]);
    Alcotest.test_case "a #define the interpreter cannot read keeps main interpreted"
      `Quick (fun () ->
        let unit_ =
          parse
            {|#define N 8
#define M (N * 2)
int main(void)
{
  double *A = malloc(M * sizeof(double));
  for (int i = 0; i < N * 2; i++) A[i] = i;
  printf("last=%g\n", A[M - 1]);
  return 0;
}|}
        in
        with_native unit_ (fun nt ->
            (match Native.entry nt with
            | Ok _ -> Alcotest.fail "main compiled"
            | Error why ->
                check string_ "reason" "main reads M, not a local or #define"
                  why);
            match (run_on gpus unit_, run_on ~native:nt gpus unit_) with
            | Error interpreted, Error native ->
                check string_ "interpreted" "unbound variable \"M\"" interpreted;
                check string_ "native" interpreted native
            | _ -> Alcotest.fail "expected both runs to fail"));
    Alcotest.test_case "an unsequenced side effect keeps main interpreted"
      `Quick (fun () ->
        (* C may evaluate printf's arguments, or a sum's operands, in
           any order *)
        List.iter
          (fun (src, why, want) ->
            let unit_ = parse src in
            with_native unit_ (fun nt ->
                (match Native.entry nt with
                | Ok _ -> Alcotest.fail "main compiled"
                | Error reason -> check string_ "reason" why reason);
                let interpreted = expect_ok "interpreted" (run_on gpus unit_)
                and native = expect_ok "native" (run_on ~native:nt gpus unit_) in
                check string_ "interpreted" want interpreted.stdout;
                check string_ "native" interpreted.stdout native.stdout))
          [
            ( {|int main(void)
{
  int k = 0;
  printf("k=%d %d\n", k++, k);
  k++;
  for (int i = 0; i < 2; i++, k += 2) k = k + 1;
  printf("k=%d\n", k);
  return 0;
}|},
              "main uses a construct C would size or call differently",
              "k=0 1\nk=8\n" );
            ( {|double bump(double *A) { A[0] = A[0] + 1.0; return A[0]; }
int main(void)
{
  double *A = malloc(8 * sizeof(double));
  double s = bump(A);
  s = A[0] + bump(A) + s;
  printf("s=%g\n", s);
  return 0;
}|},
              "main calls bump",
              "s=4\n" );
          ]);
    Alcotest.test_case "a float literal keeps main interpreted" `Quick
      (fun () ->
        (* the interpreter reads 0.1f as the double 0.1, C as a float *)
        let unit_ =
          parse
            {|int main(void)
{
  double x = 0.1f;
  printf("x=%.17g\n", x);
  return 0;
}|}
        in
        with_native unit_ (fun nt ->
            (match Native.entry nt with
            | Ok _ -> Alcotest.fail "main compiled"
            | Error why ->
                check string_ "reason" "main uses the float literal 0.1f" why);
            let interpreted = expect_ok "interpreted" (run_on gpus unit_)
            and native = expect_ok "native" (run_on ~native:nt gpus unit_) in
            check string_ "interpreted" "x=0.10000000000000001\n"
              interpreted.stdout;
            check string_ "native" interpreted.stdout native.stdout));
    Alcotest.test_case "the address of a scalar fails alike in both modes"
      `Quick (fun () ->
        let unit_ =
          parse
            {|int main(void)
{
  double x = 1.0;
  double *p = &x;
  printf("x=%g\n", p[0]);
  return 0;
}|}
        in
        with_native unit_ (fun nt ->
            (match Native.entry nt with
            | Ok _ -> Alcotest.fail "main compiled"
            | Error why ->
                check string_ "reason" "main takes the address of x" why);
            match (run_on gpus unit_, run_on ~native:nt gpus unit_) with
            | Error interpreted, Error native ->
                check bool_ "interpreted" true
                  (contains interpreted "cannot take the address of 1");
                check string_ "native" interpreted native
            | _ -> Alcotest.fail "expected both runs to fail"));
    Alcotest.test_case "fmin, fmax and a printed NaN agree in both modes"
      `Quick (fun () ->
        same_output
          {|int main(void)
{
  double nan = sqrt(-1.0);
  double z = 0.0;
  printf("%g %g %g %g\n", fmax(nan, 1.0), fmin(1.0, nan), fmax(sqrt(-1.0), 1.0),
         fmin(nan, -2.0));
  printf("%g %g %g %g\n", fmin(z, -z), fmin(-z, z), fmax(z, -z), fmax(-z, z));
  printf("%g %f %e\n", nan, -nan, (-nan) + 3.0);
  return 0;
}|}
          ~want:"1 1 1 -2\n-0 -0 0 0\nnan nan nan\n");
    Alcotest.test_case "abs keeps a long's value in both modes" `Quick
      (fun () ->
        same_output
          {|int main(void)
{
  long x = 3000000000;
  long y = -x;
  printf("%d %d %d\n", abs(x), abs(y), abs(-7));
  return 0;
}|}
          ~want:"3000000000 3000000000 7\n");
    Alcotest.test_case "a compiled main records a native_main span" `Quick
      (fun () ->
        let unit_ = parse (dgemm_source ()) in
        with_native unit_ (fun nt ->
            Obs.Config.set_enabled true;
            Obs.Export.reset_all ();
            let r = run_on ~native:nt gpus unit_ in
            let spans = Obs.Span.events () in
            Obs.Config.set_enabled false;
            ignore (expect_ok "run" r);
            let named n = List.filter (fun e -> e.Obs.Span.ev_name = n) spans in
            check int_ "one native_main" 1 (List.length (named "native_main"));
            let main = List.hd (named "native_main") in
            check bool_ "the drain nests inside it" true
              (List.for_all
                 (fun (d : Obs.Span.event) ->
                   d.ev_t0 >= main.ev_t0 && d.ev_t1 <= main.ev_t1)
                 (named "drain"))));
  ]

(* ------------------------------------------------------------------ *)
(* Codegen                                                             *)

let translate platform src =
  let repo = Repository.create () in
  match Codegen.translate ~repo ~platform (parse src) with
  | Ok out -> out
  | Error msgs -> Alcotest.failf "translate: %s" (String.concat "; " msgs)

let codegen_tests =
  [
    Alcotest.test_case "generated source re-parses" `Quick (fun () ->
        let out = translate gpus dgemm_program in
        match Minic.Parser.parse out.gen_source with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "generated source does not parse: %s\n%s"
              (Minic.Parser.error_to_string e) out.gen_source);
    Alcotest.test_case "execute sites become runtime calls" `Quick (fun () ->
        let out = translate gpus dgemm_program in
        check bool_ "submit" true (contains out.gen_source "cascabel_submit");
        check bool_ "register distributed" true
          (contains out.gen_source "cascabel_register_distributed");
        check bool_ "wait" true (contains out.gen_source "cascabel_wait_all");
        check bool_ "group in submit" true
          (contains out.gen_source "\"executionset01\"");
        check bool_ "init names platform" true
          (contains out.gen_source "cascabel_init(\"xeon-2gpu\")");
        check bool_ "shutdown" true
          (contains out.gen_source "cascabel_shutdown()");
        check bool_ "no pragmas left" false
          (contains out.gen_source "#pragma cascabel"));
    Alcotest.test_case "pruned variants dropped from output" `Quick
      (fun () ->
        let out = translate smp dgemm_program in
        check bool_ "fallback kept" true
          (contains out.gen_source "dgemm_kernel(");
        check bool_ "gpu variant dropped" false
          (contains out.gen_source "dgemm_kernel_ocl"));
    Alcotest.test_case "kept variants registered in main" `Quick (fun () ->
        let out = translate gpus dgemm_program in
        check bool_ "gpu variant registered" true
          (contains out.gen_source
             "cascabel_register_variant(\"Idgemm\", \"dgemm_ocl\", \"gpu\")"));
    Alcotest.test_case "repository variants can come from other files"
      `Quick (fun () ->
        (* A variant registered separately (the shared repository) is
           included in the output even though this unit never defined
           it. *)
        let repo = Repository.create () in
        let library_unit =
          parse
            {|#pragma cascabel task : Cuda : Idgemm : dgemm_cublas : (A: read, B: read, C: readwrite)
void dgemm_cublas_kernel(double *A, double *B, double *C, int m, int n) { }
|}
        in
        let _ = Repository.register_unit repo library_unit in
        let input =
          parse
            {|#pragma cascabel task : x86 : Idgemm : dgemm_seq : (A: read, B: read, C: readwrite)
void dgemm_kernel(double *A, double *B, double *C, int m, int n) { }
int main(void) {
  double *A = malloc(8);
  #pragma cascabel execute Idgemm : executionset01
  dgemm_kernel(A, A, A, 1, 1);
  return 0;
}
|}
        in
        match Codegen.translate ~repo ~platform:gpus input with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok out ->
            check bool_ "library variant included" true
              (contains out.gen_source "dgemm_cublas_kernel"));
    Alcotest.test_case "makefile derives platform compilers" `Quick
      (fun () ->
        let out_gpu = translate gpus dgemm_program in
        check bool_ "nvcc on gpu platform" true
          (contains out_gpu.makefile "nvcc");
        let out_smp = translate smp dgemm_program in
        check bool_ "no nvcc on smp" false (contains out_smp.makefile "nvcc");
        check bool_ "gcc everywhere" true (contains out_smp.makefile "gcc"));
    Alcotest.test_case "unknown group collected as error" `Quick (fun () ->
        let repo = Repository.create () in
        let bad =
          parse
            {|#pragma cascabel task : x86 : I : v : (A: read)
void f(double *A) { }
int main(void) {
  double *A = malloc(8);
  #pragma cascabel execute I : gondwana
  f(A);
  return 0;
}
|}
        in
        match Codegen.translate ~repo ~platform:smp bad with
        | Ok _ -> Alcotest.fail "expected group error"
        | Error msgs ->
            check bool_ "names group" true
              (List.exists (fun m -> contains m "gondwana") msgs));
    Alcotest.test_case "sites are reported" `Quick (fun () ->
        let out = translate gpus dgemm_program in
        match out.sites with
        | [ site ] ->
            check string_ "interface" "Idgemm" site.x_interface;
            check string_ "group" "executionset01" site.x_group;
            check int_ "dists" 2 (List.length site.x_dists)
        | _ -> Alcotest.fail "expected one site");
  ]

(* ------------------------------------------------------------------ *)
(* Mapping (paper §IV-B)                                               *)

let mapping_tests =
  [
    Alcotest.test_case "heterogeneous group maps each PU to its variant"
      `Quick (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        let sel =
          Result.get_ok (Preselect.select_interface repo gpus "Idgemm")
        in
        match Mapping.map_site sel gpus ~group:"executionset01" with
        | Error e -> Alcotest.fail e
        | Ok m ->
            check int_ "three PUs mapped" 3 (List.length m.m_assignments);
            check int_ "none unmapped" 0 (List.length m.m_unmapped);
            let variant_of id =
              (List.find
                 (fun a -> a.Mapping.a_pu.Pdl_model.Machine.pu_id = id)
                 m.m_assignments)
                .Mapping.a_variant
                .Repository.v_name
            in
            check string_ "cpu pool runs fallback" "dgemm_seq"
              (variant_of "cpu-cores");
            check string_ "gpu0 runs ocl" "dgemm_ocl" (variant_of "gpu0");
            check string_ "gpu1 runs ocl" "dgemm_ocl" (variant_of "gpu1"));
    Alcotest.test_case "transfer paths derived from interconnects" `Quick
      (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        let sel =
          Result.get_ok (Preselect.select_interface repo gpus "Idgemm")
        in
        let m =
          Result.get_ok (Mapping.map_site sel gpus ~group:"gpus")
        in
        List.iter
          (fun a ->
            check
              (Alcotest.list string_)
              ("path to " ^ a.Mapping.a_pu.Pdl_model.Machine.pu_id)
              [ "host"; a.Mapping.a_pu.Pdl_model.Machine.pu_id ]
              a.Mapping.a_path)
          m.m_assignments);
    Alcotest.test_case "cpu-only selection leaves gpus unmapped" `Quick
      (fun () ->
        (* On the smp platform only the fallback is kept; map it onto
           the 2gpu platform's full group and the gpus are unmapped. *)
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        let sel_smp =
          Result.get_ok (Preselect.select_interface repo smp "Idgemm")
        in
        let m =
          Result.get_ok (Mapping.map_site sel_smp gpus ~group:"executionset01")
        in
        check int_ "cpu mapped" 1 (List.length m.m_assignments);
        check int_ "gpus unmapped" 2 (List.length m.m_unmapped));
    Alcotest.test_case "unknown group is an error" `Quick (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        let sel =
          Result.get_ok (Preselect.select_interface repo gpus "Idgemm")
        in
        match Mapping.map_site sel gpus ~group:"atlantis" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> check bool_ "names group" true (contains e "atlantis"));
    Alcotest.test_case "report mentions every assignment" `Quick (fun () ->
        let repo = Repository.create () in
        let _ = Repository.register_unit repo (parse dgemm_program) in
        let sel =
          Result.get_ok (Preselect.select_interface repo gpus "Idgemm")
        in
        let m =
          Result.get_ok (Mapping.map_site sel gpus ~group:"executionset01")
        in
        let r = Mapping.report [ m ] in
        check bool_ "gpu0" true (contains r "gpu0");
        check bool_ "data path" true (contains r "data path");
        check bool_ "quantity" true (contains r "x8"));
    Alcotest.test_case "codegen output carries the mappings" `Quick
      (fun () ->
        let out = translate gpus dgemm_program in
        match out.mappings with
        | [ m ] ->
            check string_ "interface" "Idgemm" m.Mapping.m_interface;
            check int_ "assignments" 3 (List.length m.Mapping.m_assignments)
        | _ -> Alcotest.fail "expected one mapping");
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: translated execution vs serial                          *)

let run_translated ?policy ?blocks platform src =
  let repo = Repository.create () in
  match Runnable.run ?policy ?blocks ~repo ~platform (parse src) with
  | Ok r -> r
  | Error e -> Alcotest.failf "run: %s" e

let e2e_tests =
  [
    Alcotest.test_case "vecadd: translated output equals serial" `Quick
      (fun () ->
        let _, serial_out = interp_run vecadd_program in
        let r = run_translated gpus vecadd_program in
        check string_ "same stdout" serial_out r.stdout;
        check int_ "exit code" 0 r.exit_code;
        check bool_ "decomposed into blocks" true (r.tasks_submitted > 1));
    Alcotest.test_case "dgemm: translated output equals serial on smp"
      `Quick (fun () ->
        let _, serial_out = interp_run dgemm_program in
        let r = run_translated smp dgemm_program in
        check string_ "same stdout" serial_out r.stdout;
        check int_ "8 blocks (one per cpu worker)" 8 r.tasks_submitted);
    Alcotest.test_case "dgemm: translated output equals serial on 2gpu"
      `Quick (fun () ->
        let _, serial_out = interp_run dgemm_program in
        let r = run_translated gpus dgemm_program in
        check string_ "same stdout" serial_out r.stdout);
    Alcotest.test_case "every policy preserves semantics" `Quick (fun () ->
        let _, serial_out = interp_run dgemm_program in
        List.iter
          (fun policy ->
            let r = run_translated ~policy gpus dgemm_program in
            check string_
              (Taskrt.Engine.policy_to_string policy)
              serial_out r.stdout)
          Taskrt.Engine.[ Eager; Heft; Locality_ws; Random_place ]);
    Alcotest.test_case "blocks override controls decomposition" `Quick
      (fun () ->
        let r = run_translated ~blocks:4 smp dgemm_program in
        check int_ "4 tasks" 4 r.tasks_submitted;
        check
          (Alcotest.list (Alcotest.pair string_ int_))
          "per site" [ ("Idgemm", 4) ] r.per_site_blocks);
    Alcotest.test_case "gpu workers actually execute dgemm blocks" `Quick
      (fun () ->
        let r = run_translated ~policy:Taskrt.Engine.Eager gpus dgemm_program in
        let gpu_tasks =
          Array.fold_left
            (fun acc ws ->
              if ws.Taskrt.Engine.ws_worker.Taskrt.Machine_config.w_arch = "gpu"
              then acc + ws.Taskrt.Engine.tasks_run
              else acc)
            0 r.stats.worker_stats
        in
        check bool_ "gpus participated" true (gpu_tasks > 0));
    Alcotest.test_case "serial code sees task results (acquire)" `Quick
      (fun () ->
        (* The final checksum loop reads C after the execute; the
           drain-on-access hook must have flushed the tasks. This is
           implicitly covered by equality with serial output, but
           check the explicit value too: sum over C of A*B. *)
        let _, out = interp_run dgemm_program in
        check bool_ "checksum printed" true (contains out "checksum=");
        let r = run_translated gpus dgemm_program in
        check string_ "translated checksum equal" out r.stdout);
    Alcotest.test_case "chained executes keep sequential consistency"
      `Quick (fun () ->
        let program =
          {|#define N 32
#pragma cascabel task : x86 : Iscale : scale01 : (A: readwrite)
void scale(double *A, int n)
{
  for (int i = 0; i < n; i++)
    A[i] = A[i] * 2.0;
}

int main(void)
{
  double *A = malloc(N * sizeof(double));
  for (int i = 0; i < N; i++) A[i] = 1.0;
  #pragma cascabel execute Iscale : executionset01 (A:BLOCK:n)
  scale(A, N);
  #pragma cascabel execute Iscale : executionset01 (A:BLOCK:n)
  scale(A, N);
  double sum = 0.0;
  for (int i = 0; i < N; i++) sum += A[i];
  printf("%g\n", sum);
  return 0;
}
|}
        in
        let _, serial_out = interp_run program in
        check string_ "serial is 128" "128\n" serial_out;
        let r = run_translated smp program in
        check string_ "translated matches" serial_out r.stdout);
    Alcotest.test_case "group restriction to gpus only" `Quick (fun () ->
        let program =
          {|#define N 16
#pragma cascabel task : x86 : Iv : v_cpu : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}

#pragma cascabel task : Cuda : Iv : v_gpu : (A: readwrite)
void addone_gpu(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}

int main(void)
{
  double *A = malloc(N * sizeof(double));
  #pragma cascabel execute Iv : gpus (A:BLOCK:n)
  addone(A, N);
  printf("%g\n", A[0] + A[N - 1]);
  return 0;
}
|}
        in
        let r = run_translated ~policy:Taskrt.Engine.Eager gpus program in
        check string_ "result" "2\n" r.stdout;
        Array.iter
          (fun ws ->
            if ws.Taskrt.Engine.ws_worker.Taskrt.Machine_config.w_arch = "cpu"
            then
              check int_ "cpu idle" 0 ws.Taskrt.Engine.tasks_run)
          r.stats.worker_stats;
        (* Both gpus crash before their tasks finish: pre-selection
           re-runs against the degraded platform view and the x86
           variant completes the program on the cpus. *)
        let faults =
          {
            Taskrt.Fault.none with
            Taskrt.Fault.events =
              [
                Taskrt.Fault.Crash { pu = "gpu0"; at = 1e-6 };
                Taskrt.Fault.Crash { pu = "gpu1"; at = 2e-6 };
              ];
          }
        in
        let trace = Filename.temp_file "cascabel_failover" ".json" in
        match
          Runnable.run ~policy:Taskrt.Engine.Heft ~faults ~trace
            ~repo:(Repository.create ()) ~platform:gpus (parse program)
        with
        | Error e -> Alcotest.failf "failover run: %s" e
        | Ok r ->
            let json = In_channel.with_open_bin trace In_channel.input_all in
            Sys.remove trace;
            check string_ "cpu variant result" "2\n" r.stdout;
            check bool_ "every failover ran on a degraded view" true
              (r.failover_log <> []
              && List.for_all (fun l -> contains l "degraded") r.failover_log);
            check bool_ "both gpus quarantined" true
              (List.mem "gpu0" r.stats.quarantined
              && List.mem "gpu1" r.stats.quarantined);
            check int_ "two crashes in the trace" 2
              (count_sub json "\"name\":\"crash\"");
            check bool_ "a failover in the trace" true
              (contains json "\"name\":\"failover\"");
            check bool_ "the trace names the crashed pu" true
              (contains json "\"detail\":\"gpu0\""));
    Alcotest.test_case "execute on cpu-only group with gpu-only variant fails"
      `Quick (fun () ->
        let program =
          {|#pragma cascabel task : Cuda : Iv : v_gpu : (A: readwrite)
void addone(double *A, int n) { A[0] += 1.0; }
int main(void) {
  double *A = malloc(8);
  #pragma cascabel execute Iv : cpus (A:BLOCK:n)
  addone(A, 1);
  return 0;
}
|}
        in
        let repo = Repository.create () in
        match Runnable.run ~repo ~platform:gpus (parse program) with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error e -> check bool_ "informative" true (String.length e > 0));
    Alcotest.test_case "interior pointer rejected" `Quick (fun () ->
        let program =
          {|#define N 16
#pragma cascabel task : x86 : Iv : v1 : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}
int main(void) {
  double *A = malloc(N * sizeof(double));
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  addone(A + 2, 4);
  return 0;
}
|}
        in
        let repo = Repository.create () in
        match Runnable.run ~repo ~platform:smp (parse program) with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error e ->
            check bool_ "mentions allocations" true (contains e "allocation"));
    Alcotest.test_case "global dist size runs as one whole task" `Quick
      (fun () ->
        (* Size names the #define, not a parameter: decomposition is
           impossible, so exactly one task runs — still correct. *)
        let program =
          {|#define N 16
#pragma cascabel task : x86 : Iv : v1 : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}
int main(void) {
  double *A = malloc(N * sizeof(double));
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:N)
  addone(A, N);
  printf("%g\n", A[0] + A[15]);
  return 0;
}
|}
        in
        let r = run_translated smp program in
        check int_ "one task" 1 r.tasks_submitted;
        check string_ "correct" "2\n" r.stdout);
    Alcotest.test_case "buffer reshaped between executes" `Quick (fun () ->
        (* The same allocation is used as a 16-row matrix first and a
           4-row matrix second; the runtime must drain and re-register
           between shapes. *)
        let program =
          {|#define N 16
#pragma cascabel task : x86 : Iv : v1 : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}
int main(void) {
  double *A = malloc(N * sizeof(double));
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  addone(A, N);
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  addone(A, 4);
  double sum = 0.0;
  for (int i = 0; i < N; i++) sum += A[i];
  printf("%g\n", sum);
  return 0;
}
|}
        in
        let _, serial_out = interp_run program in
        check string_ "serial 20" "20\n" serial_out;
        let r = run_translated smp program in
        check string_ "translated matches" serial_out r.stdout);
    Alcotest.test_case "two independent buffers pipeline without draining"
      `Quick (fun () ->
        (* Executes on disjoint data should not force a drain between
           them; both complete and the final reads see both. *)
        let program =
          {|#define N 8
#pragma cascabel task : x86 : Iv : v1 : (A: readwrite)
void addone(double *A, int n)
{
  for (int i = 0; i < n; i++) A[i] += 1.0;
}
int main(void) {
  double *A = malloc(N * sizeof(double));
  double *B = malloc(N * sizeof(double));
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  addone(A, N);
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  addone(B, N);
  printf("%g %g\n", A[0], B[0]);
  return 0;
}
|}
        in
        let r = run_translated smp program in
        check string_ "both updated" "1 1\n" r.stdout);
    Alcotest.test_case "paper flow: same program, two PDLs, no edits"
      `Quick (fun () ->
        (* The Figure 5 set-up in miniature: one input program,
           translated for two different descriptors. *)
        let _, serial_out = interp_run dgemm_program in
        let r_smp = run_translated ~policy:Taskrt.Engine.Heft smp dgemm_program in
        let r_gpu = run_translated ~policy:Taskrt.Engine.Heft gpus dgemm_program in
        check string_ "smp correct" serial_out r_smp.stdout;
        check string_ "gpu correct" serial_out r_gpu.stdout;
        (* No speed claim at this tiny size — PCIe transfers dominate
           (the size-sweep bench measures the crossover). Both runs
           must simply have progressed in virtual time. *)
        check bool_ "both advanced time" true
          (r_gpu.stats.makespan > 0.0 && r_smp.stats.makespan > 0.0));
    Alcotest.test_case "in-place task views keep per-task bounds" `Quick
      (fun () ->
        (* A 6x2 matrix in three row blocks of four elements, filled
           with A[i] = i. Each task sees only its own block: the
           variant's extreme in-bounds writes land at its block's edges
           and nowhere else, and one index before or past the block is
           the interpreter's out-of-bounds error. *)
        let program body =
          Printf.sprintf
            {|#pragma cascabel task : x86 : Iv : v1 : (A: readwrite)
void edges(double *A, int n)
{
  %s
}
int main(void) {
  double *A = malloc(12 * sizeof(double));
  for (int i = 0; i < 12; i++) A[i] = 1.0 * i;
  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n)
  edges(A, 6);
  for (int i = 0; i < 12; i++) printf("%%g ", A[i]);
  return 0;
}
|}
            body
        in
        let run body =
          Runnable.run ~blocks:3 ~repo:(Repository.create ()) ~platform:smp
            (parse (program body))
        in
        (match run "A[0] = -1.0; A[n * 2 - 1] = -2.0;" with
        | Error e -> Alcotest.failf "run: %s" e
        | Ok r ->
            check int_ "three tasks" 3 r.tasks_submitted;
            check string_ "only block edges written"
              "-1 1 2 -2 -1 5 6 -2 -1 9 10 -2 " r.stdout);
        List.iter
          (fun (what, body, want) ->
            match run body with
            | Ok _ -> Alcotest.failf "%s: expected a runtime error" what
            | Error e -> check string_ what want e)
          [
            (* only the first block starts with element 0 *)
            ( "one past the block",
              "if (A[0] == 0.0) A[0] = A[n * 2];",
              "buffer read out of bounds (index 4 of 4)" );
            ( "one before the block",
              "if (A[0] != 0.0) A[-1] = 7.0;",
              "buffer write out of bounds (index -1 of 4)" );
          ]);
  ]

(* Property: translated vecadd equals serial for random sizes and
   block counts. *)
let vecadd_src n =
  Printf.sprintf
    {|#define N %d

#pragma cascabel task : x86 : Ivecadd : vecadd01 : (A: readwrite, B: read)
void vectoradd(double *A, double *B, int n)
{
  for (int i = 0; i < n; i++)
    A[i] = A[i] + B[i];
}

int main(void)
{
  double *A = malloc(N * sizeof(double));
  double *B = malloc(N * sizeof(double));
  for (int i = 0; i < N; i++) {
    A[i] = i * 0.5;
    B[i] = i;
  }
  #pragma cascabel execute Ivecadd : executionset01 (A:BLOCK:n, B:BLOCK:n)
  vectoradd(A, B, N);
  double sum = 0.0;
  for (int i = 0; i < N; i++)
    sum += A[i];
  printf("%%.4f\n", sum);
  return 0;
}
|}
    n

let translated_equals_serial =
  QCheck.Test.make ~name:"translated vecadd equals serial interpretation"
    ~count:25
    QCheck.(pair (int_range 1 50) (int_range 1 12))
    (fun (n, blocks) ->
      let src = vecadd_src n in
      let unit_ = Result.get_ok (Minic.Parser.parse src) in
      let serial = Result.get_ok (Runnable.run_serial unit_) in
      let repo = Repository.create () in
      match Runnable.run ~blocks ~repo ~platform:gpus unit_ with
      | Ok r -> r.stdout = snd serial && r.exit_code = fst serial
      | Error e -> QCheck.Test.fail_reportf "run failed: %s" e)

(* Property: Emit_c output re-parses and keeps the structural
   invariants — one wrapper function per kept variant in the kernels
   unit, one packed submit per execute site in the program unit. *)
let emit_src ~variants ~sites ~n =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "#define N %d\n" n);
  for v = 1 to variants do
    let target = if v mod 2 = 0 then "Cuda" else "x86" in
    Buffer.add_string buf
      (Printf.sprintf
         {|
#pragma cascabel task : %s : Iv : variant%02d : (A: readwrite, B: read)
void vadd%d(double *A, double *B, int n)
{
  for (int i = 0; i < n; i++)
    A[i] = A[i] + B[i] + %d.0;
}
|}
         target v v v)
  done;
  Buffer.add_string buf
    "\n\
     int main(void)\n\
     {\n\
    \  double *A = malloc(N * sizeof(double));\n\
    \  double *B = malloc(N * sizeof(double));\n\
    \  for (int i = 0; i < N; i++) {\n\
    \    A[i] = i * 0.5;\n\
    \    B[i] = i;\n\
    \  }\n";
  for _ = 1 to sites do
    Buffer.add_string buf
      "  #pragma cascabel execute Iv : executionset01 (A:BLOCK:n, B:BLOCK:n)\n\
      \  vadd1(A, B, N);\n"
  done;
  Buffer.add_string buf
    "  double sum = 0.0;\n\
    \  for (int i = 0; i < N; i++)\n\
    \    sum += A[i];\n\
    \  printf(\"%.4f\\n\", sum);\n\
    \  return 0;\n\
     }\n";
  Buffer.contents buf

let count_submits (unit_ : Minic.Ast.unit_) =
  let open Minic.Ast in
  let n = ref 0 in
  let rec expr = function
    | Call (Ident "cascabel_submit", args) ->
        incr n;
        List.iter expr args
    | Call (f, args) ->
        expr f;
        List.iter expr args
    | Index (a, b) | Binary (_, a, b) | Comma (a, b) | Assign (_, a, b) ->
        expr a;
        expr b
    | Member (e, _)
    | Arrow (e, _)
    | Unary (_, e)
    | Post_inc e
    | Post_dec e
    | Cast (_, e)
    | Sizeof_expr e ->
        expr e
    | Ternary (a, b, c) ->
        expr a;
        expr b;
        expr c
    | Int_lit _ | Float_lit _ | Char_lit _ | String_lit _ | Ident _
    | Sizeof_type _ ->
        ()
  in
  let decl d = Option.iter expr d.d_init in
  let rec stmt = function
    | Expr_stmt e -> Option.iter expr e
    | Decl_stmt ds -> List.iter decl ds
    | Block ss -> List.iter stmt ss
    | If (c, t, f) ->
        expr c;
        stmt t;
        Option.iter stmt f
    | While (c, b) | Do_while (b, c) ->
        expr c;
        stmt b
    | For (init, cond, step, b) ->
        (match init with
        | Some (For_expr e) -> expr e
        | Some (For_decl ds) -> List.iter decl ds
        | None -> ());
        Option.iter expr cond;
        Option.iter expr step;
        stmt b
    | Return e -> Option.iter expr e
    | Break | Continue -> ()
    | Pragma_stmt (_, s) -> stmt s
  in
  List.iter
    (function
      | Func f -> Option.iter (List.iter stmt) f.f_body
      | _ -> ())
    unit_;
  !n

let emitted_c_invariants =
  QCheck.Test.make
    ~name:"emitted C re-parses: one wrapper per kept variant, one submit per \
           site" ~count:30
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 4 64))
    (fun (variants, sites, n) ->
      let src = emit_src ~variants ~sites ~n in
      let unit_ = Result.get_ok (Minic.Parser.parse src) in
      let repo = Repository.create () in
      match Codegen.translate ~repo ~platform:gpus unit_ with
      | Error es -> QCheck.Test.fail_reportf "translate: %s" (String.concat "; " es)
      | Ok out -> (
          match Emit_c.emit out with
          | Error e -> QCheck.Test.fail_reportf "emit: %s" e
          | Ok em ->
              let kept =
                List.concat_map
                  (fun s -> List.map (fun v -> v.Repository.v_name) s.Preselect.kept)
                  out.selections
                |> List.sort_uniq compare
              in
              (* one wrapper per kept variant, each defined exactly
                 once in the kernels unit *)
              let wrapper_defs =
                List.filter_map
                  (function
                    | Minic.Ast.Func f
                      when String.length f.f_name >= 14
                           && String.sub f.f_name 0 14 = "cascabel_call_" ->
                        Some f.f_name
                    | _ -> None)
                  em.Emit_c.kernels_unit
              in
              let ok_wrappers =
                List.length em.Emit_c.all_wrappers = List.length kept
                && List.sort_uniq compare wrapper_defs = List.sort compare wrapper_defs
                && List.length wrapper_defs = List.length kept
              in
              (* one packed submit per execute site *)
              let ok_submits =
                count_submits em.Emit_c.program_unit = List.length out.sites
                && List.length out.sites = sites
              in
              (* both lowered units stay inside the mini-C subset *)
              let reparses u =
                match Minic.Parser.parse (Minic.Printer.unit_to_string u) with
                | Ok _ -> true
                | Error _ -> false
              in
              let ok_reparse =
                reparses em.Emit_c.program_unit
                && reparses em.Emit_c.kernels_unit
              in
              if not ok_wrappers then
                QCheck.Test.fail_reportf
                  "wrapper invariant: %d wrappers, %d kept, defs [%s]"
                  (List.length em.Emit_c.all_wrappers)
                  (List.length kept)
                  (String.concat ", " wrapper_defs)
              else if not ok_submits then
                QCheck.Test.fail_reportf "submit invariant: %d submits, %d sites"
                  (count_submits em.Emit_c.program_unit)
                  (List.length out.sites)
              else ok_reparse))

(* ------------------------------------------------------------------ *)
(* Oracle: generated programs print alike interpreted and compiled     *)

(* A generated program: [rows] x [cols] matrices X and Y (and a
   [cols] x [cols] M for blas_dgemm), pure helpers h0..hk where each may
   call the ones before it, variants each in its own interface (some
   with a Cuda twin), and the execute sites that run them over BLOCK
   partitions. main prints every element and, when [op_unsequenced],
   then prints two arguments that C may evaluate in either order, which
   keeps main out of the checked subset. *)
type oracle_variant = { ov_body : string; ov_blas : bool; ov_twin : bool }

type oracle_program = {
  op_rows : int;
  op_cols : int;
  op_fill : int * int * int * int;
  op_helpers : string list;
  op_variants : oracle_variant list;
  op_sites : (int * bool * string) list;
      (** variant, whether X and Y swap, the scalar argument *)
  op_unsequenced : bool;
}

(* Double-valued expressions that read at least one runtime value from
   [rt], so the C compiler cannot fold a library call at compile time.
   Integer operands come from [ints] and stay small; indices are
   reduced modulo the block length. *)
let rec oracle_expr ~rt ~ints ~helpers d =
  let open QCheck.Gen in
  let atom = oneofl rt in
  if d = 0 then atom
  else
    let sub = oracle_expr ~rt ~ints ~helpers (d - 1) in
    let lit = oneofl [ "0.5"; "-1.5"; "2.0"; "0.0"; "-0.0"; "3.0"; "0.25" ] in
    let any = oneof [ sub; lit ] in
    let int_ =
      let* a = oneofl ints and* b = int_range 1 9 in
      oneofl
        [ Printf.sprintf "(%s + %d)" a b; Printf.sprintf "(%s - %d)" a b;
          Printf.sprintf "(%s * %d)" a b; Printf.sprintf "(%s %% %d)" a b;
          Printf.sprintf "(%s / %d)" a b; Printf.sprintf "abs(%s - %d)" a b ]
    in
    (* a runtime operand and any other, in either order *)
    let two =
      let* a = sub and* b = any and* flip = bool in
      return (if flip then (b, a) else (a, b))
    in
    frequency
      ([
         (2, atom);
         ( 3,
           let* x, y = two and* op = oneofl [ "+"; "-"; "*"; "/" ] in
           return (Printf.sprintf "(%s %s %s)" x op y) );
         (1, map (Printf.sprintf "(-%s)") sub);
         ( 2,
           let* a = sub and* i = int_ and* op = oneofl [ "+"; "-"; "*" ] in
           return (Printf.sprintf "(%s %s %s)" a op i) );
         ( 2,
           let* f = oneofl [ "sqrt"; "fabs"; "exp"; "log" ] and* a = sub in
           return (Printf.sprintf "%s(%s)" f a) );
         ( 3,
           let* f = oneofl [ "fmin"; "fmax"; "fmin"; "fmax"; "pow" ]
           and* x, y = two in
           return (Printf.sprintf "%s(%s, %s)" f x y) );
         ( 1,
           let* c = sub and* a = any and* b = sub
           and* cmp = oneofl [ "<"; ">"; "==" ] in
           return (Printf.sprintf "(%s %s %s ? %s : %s)" c cmp a b a) );
       ]
      @
      if helpers = 0 then []
      else
        [
          ( 2,
            let* h = int_bound (helpers - 1) and* a = sub and* k = int_ in
            return (Printf.sprintf "h%d(%s, %s)" h a k) );
        ])

let oracle_helper k =
  let open QCheck.Gen in
  let* y = oracle_expr ~rt:[ "x" ] ~ints:[ "k" ] ~helpers:k 2
  and* r = oracle_expr ~rt:[ "x"; "y" ] ~ints:[ "k"; "m" ] ~helpers:k 2
  and* c = int_range 1 5 in
  return
    (Printf.sprintf
       "double h%d(double x, int k)\n{\n  double y = %s;\n  int m = k * %d;\n  return %s;\n}\n"
       k y c r)

let oracle_variant ~helpers =
  let open QCheck.Gen in
  let index =
    let* a = int_range 0 5 and* b = int_range 0 9 in
    return (Printf.sprintf "B[(i * %d + j + %d) %% (n * W)]" a b)
  in
  let* blas = frequencyl [ (1, true); (3, false) ]
  and* twin = bool
  and* j_mul = int_range 1 7
  and* j_add = int_range 0 9
  and* j_mod = int_range 2 11
  and* b1 = index
  and* b2 = index
  and* acc0 = int_range (-5) 5
  and* inner = int_range 0 3 in
  let rt = [ "A[i]"; b1; b2; "s" ] and ints = [ "i"; "j"; "n" ] in
  let* t0 = oracle_expr ~rt ~ints ~helpers 3
  and* t1 = oracle_expr ~rt:("t" :: rt) ~ints:("r" :: ints) ~helpers 2
  and* a = oracle_expr ~rt:("t" :: rt) ~ints ~helpers 3
  and* acc_int =
    oneofl [ "j"; "j - 4"; "i * 3 - n"; "abs(j - i)"; "(i + j) % 5" ]
  in
  let loop =
    Printf.sprintf
      "  for (int i = 0; i < n * W; i++) {\n\
      \    int j = (i * %d + %d) %% %d;\n\
      \    double t = %s;\n\
      \    for (int r = 0; r < %d; r++)\n\
      \      t = %s;\n\
      \    acc = acc + %s;\n\
      \    A[i] = %s;\n\
      \  }\n\
      \  A[0] = A[0] + acc * 0.125;\n"
      j_mul j_add j_mod t0 inner t1 acc_int a
  in
  let body =
    Printf.sprintf "  long acc = %d;\n%s%s" acc0
      (if blas then "  blas_dgemm(n, W, W, B, M, A);\n" else "")
      loop
  in
  return { ov_body = body; ov_blas = blas; ov_twin = twin }

let oracle_source p =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  pr "#define N %d\n#define W %d\n\n" p.op_rows p.op_cols;
  List.iter (pr "%s\n") p.op_helpers;
  List.iteri
    (fun k v ->
      let params =
        if v.ov_blas then "double *A, double *B, double *M, int n, double s"
        else "double *A, double *B, int n, double s"
      and access =
        if v.ov_blas then "A: readwrite, B: read, M: read"
        else "A: readwrite, B: read"
      in
      pr "#pragma cascabel task : x86 : I%d : v%d_cpu : (%s)\nvoid v%d(%s)\n{\n%s}\n\n"
        k k access k params v.ov_body;
      if v.ov_twin then
        pr
          "#pragma cascabel task : Cuda : I%d : v%d_gpu : (%s)\nvoid v%d_gpu(%s)\n{\n%s}\n\n"
          k k access k params v.ov_body)
    p.op_variants;
  let p1, q1, p2, q2 = p.op_fill in
  pr
    "int main(void)\n\
     {\n\
    \  double *X = malloc(N * W * sizeof(double));\n\
    \  double *Y = malloc(N * W * sizeof(double));\n\
    \  double *M = malloc(W * W * sizeof(double));\n\
    \  for (int i = 0; i < N * W; i++) {\n\
    \    X[i] = ((i %% %d) - %d) * 0.5;\n\
    \    Y[i] = ((i %% %d) - %d) * -0.25;\n\
    \  }\n\
    \  for (int i = 0; i < W * W; i++)\n\
    \    M[i] = (i %% 3) - 1.0;\n"
    p1 q1 p2 q2;
  List.iter
    (fun (k, swap, scalar) ->
      let x, y = if swap then ("Y", "X") else ("X", "Y") in
      let v = List.nth p.op_variants k in
      pr "  #pragma cascabel execute I%d : executionset01 (A:BLOCK:n, B:BLOCK:n)\n" k;
      if v.ov_blas then pr "  v%d(%s, %s, M, N, %s);\n" k x y scalar
      else pr "  v%d(%s, %s, N, %s);\n" k x y scalar)
    p.op_sites;
  pr
    "  for (int i = 0; i < N * W; i++)\n\
    \    printf(\"%%.17g %%.17g\\n\", X[i], Y[i]);\n";
  if p.op_unsequenced then pr "  int k = N;\n  printf(\"k=%%d %%d\\n\", k++, k);\n";
  pr "  return 0;\n}\n";
  Buffer.contents b

let oracle_gen =
  let open QCheck.Gen in
  let* rows = int_range 2 8
  and* cols = int_range 1 4
  and* fill =
    let* p1 = int_range 2 7 and* p2 = int_range 2 7 in
    let* q1 = int_bound p1 and* q2 = int_bound p2 in
    return (p1, q1, p2, q2)
  and* nhelpers = int_range 0 3 in
  let rec helpers k acc =
    if k = nhelpers then return (List.rev acc)
    else
      let* h = oracle_helper k in
      helpers (k + 1) (h :: acc)
  in
  let* hs = helpers 0 [] in
  let* variants = list_size (int_range 1 3) (oracle_variant ~helpers:nhelpers) in
  let nv = List.length variants in
  let* sites =
    list_size (int_range 1 4)
      (triple (int_bound (nv - 1)) bool (oneofl [ "0.75"; "-2.0"; "0.0"; "1" ]))
  and* unsequenced = frequencyl [ (1, true); (4, false) ] in
  return
    {
      op_rows = rows;
      op_cols = cols;
      op_fill = fill;
      op_helpers = hs;
      op_variants = variants;
      op_sites = sites;
      op_unsequenced = unsequenced;
    }

let oracle_arb =
  QCheck.make oracle_gen ~print:oracle_source
    ~shrink:(fun p yield ->
      QCheck.Shrink.list_spine p.op_sites (fun op_sites ->
          if op_sites <> [] then yield { p with op_sites }))

(* Interpreted and --native runs of [src] agree in stdout and exit code,
   every variant runs compiled, and main does unless [unsequenced]. *)
let oracle_agrees ~unsequenced src =
  let unit_ = parse src in
  let em = emit_c unit_ in
  match Native.build em with
  | Native.No_toolchain _ -> `No_cc
  | Native.Compile_error e -> `Differs ("native build: " ^ e)
  | Native.Loaded nt -> (
      let main = Native.entry nt in
      let interpreted, native =
        Fun.protect
          ~finally:(fun () -> Native.close nt)
          (fun () -> (run_on gpus unit_, run_on ~native:nt gpus unit_))
      in
      let outcome = function
        | Ok (r : Runnable.report) ->
            Printf.sprintf "exit %d\n%s" r.exit_code r.stdout
        | Error e -> "error: " ^ e
      in
      let fallbacks =
        match native with Ok r -> r.native_fallbacks | Error _ -> 0
      in
      if outcome interpreted <> outcome native then
        `Differs
          (Printf.sprintf "interpreted:\n%s\nnative:\n%s" (outcome interpreted)
             (outcome native))
      else if fallbacks > 0 then
        `Differs (Printf.sprintf "%d interpreted fallbacks" fallbacks)
      else
        match main with
        | Error why when not unsequenced ->
            `Differs ("main stays interpreted: " ^ why)
        | Ok _ when unsequenced -> `Differs "main compiled"
        | _ -> `Same)

let oracle_notice = ref false

let oracle_property =
  QCheck.Test.make
    ~name:"generated programs print alike interpreted and compiled" ~count:30
    oracle_arb (fun p ->
      match oracle_agrees ~unsequenced:p.op_unsequenced (oracle_source p) with
      | `Same -> true
      | `No_cc ->
          if not !oracle_notice then begin
            oracle_notice := true;
            print_endline "oracle: no C toolchain on PATH, skipping"
          end;
          true
      | `Differs why -> QCheck.Test.fail_reportf "%s" why)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cascabel"
    [
      ("targets", targets_tests);
      ("repository", repo_tests);
      ("interp", interp_tests);
      ("library", library_tests @ qt [ blas_matches_kernel ]);
      ("entry", entry_tests);
      ("codegen", codegen_tests);
      ("mapping", mapping_tests);
      ("e2e", e2e_tests);
      ("properties", qt [ translated_equals_serial; emitted_c_invariants ]);
      ("oracle", qt [ oracle_property ]);
    ]

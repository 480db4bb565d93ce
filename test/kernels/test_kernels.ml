(* Tests for the dense-matrix and BLAS kernels. *)

open Kernels

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let float_ tol = Alcotest.float tol

let matrix_tests =
  [
    Alcotest.test_case "create zero-fills" `Quick (fun () ->
        let m = Matrix.create 3 4 in
        check (float_ 0.0) "sum" 0.0 (Matrix.checksum m);
        check (Alcotest.pair int_ int_) "dims" (3, 4) (Matrix.dims m));
    Alcotest.test_case "init / get / set" `Quick (fun () ->
        let m = Matrix.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
        check (float_ 0.0) "get" 12.0 (Matrix.get m 1 2);
        Matrix.set m 1 2 99.0;
        check (float_ 0.0) "set" 99.0 (Matrix.get m 1 2));
    Alcotest.test_case "identity multiplies to itself" `Quick (fun () ->
        let i3 = Matrix.identity 3 in
        let c = Matrix.create 3 3 in
        Blas.dgemm_naive i3 i3 c;
        check bool_ "I*I = I" true (Matrix.approx_equal i3 c));
    Alcotest.test_case "random is deterministic per seed" `Quick (fun () ->
        let a = Matrix.random ~seed:7 5 5 and b = Matrix.random ~seed:7 5 5 in
        check (float_ 0.0) "same" 0.0 (Matrix.max_abs_diff a b);
        let c = Matrix.random ~seed:8 5 5 in
        check bool_ "different seed differs" true
          (Matrix.max_abs_diff a c > 0.0));
    Alcotest.test_case "random entries bounded" `Quick (fun () ->
        let a = Matrix.random ~seed:3 20 20 in
        check bool_ "in [-1,1)" true
          (Array.for_all (fun x -> x >= -1.0 && x < 1.0) (Matrix.to_array a));
        Alcotest.check_raises "negative dimension"
          (Invalid_argument "Matrix.random: negative dimension") (fun () ->
            ignore (Matrix.random 3 (-1))));
    Alcotest.test_case "sub_block / set_block round trip" `Quick (fun () ->
        let m = Matrix.random ~seed:1 8 8 in
        let b = Matrix.sub_block m ~row:2 ~col:4 ~rows:3 ~cols:2 in
        check (float_ 0.0) "corner" (Matrix.get m 2 4) (Matrix.get b 0 0);
        let m2 = Matrix.copy m in
        Matrix.set_block m2 ~row:2 ~col:4 b;
        check (float_ 0.0) "unchanged" 0.0 (Matrix.max_abs_diff m m2));
    Alcotest.test_case "sub_block bounds checked" `Quick (fun () ->
        let m = Matrix.create 4 4 in
        match Matrix.sub_block m ~row:2 ~col:2 ~rows:3 ~cols:1 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "of_array / to_array round trip" `Quick (fun () ->
        let src = Array.init 12 (fun i -> float_of_int i *. 0.25) in
        let m = Matrix.of_array ~rows:3 ~cols:4 src in
        check (Alcotest.pair int_ int_) "dims" (3, 4) (Matrix.dims m);
        check (float_ 0.0) "get" src.(7) (Matrix.get m 1 3);
        src.(0) <- 999.0;
        check (float_ 0.0) "of_array copies" 0.0 (Matrix.get m 0 0);
        let back = Matrix.to_array m in
        check bool_ "round trip" true
          (Array.for_all2 ( = ) back
             (Array.init 12 (fun i -> float_of_int i *. 0.25)));
        back.(1) <- 999.0;
        check (float_ 0.0) "to_array copies" 0.25 (Matrix.get m 0 1);
        match Matrix.of_array ~rows:2 ~cols:5 src with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "frobenius of known matrix" `Quick (fun () ->
        let m = Matrix.init 2 2 (fun _ _ -> 2.0) in
        check (float_ 1e-12) "sqrt(16)" 4.0 (Matrix.frobenius m));
    Alcotest.test_case "approx_equal scales with magnitude" `Quick (fun () ->
        let a = Matrix.init 2 2 (fun _ _ -> 1e12) in
        let b = Matrix.init 2 2 (fun _ _ -> 1e12 +. 1e-3) in
        check bool_ "relative comparison" true (Matrix.approx_equal a b));
  ]

let blas_tests =
  [
    Alcotest.test_case "dgemm_naive on a known product" `Quick (fun () ->
        (* [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50] *)
        let a = Matrix.init 2 2 (fun i j -> float_of_int ((2 * i) + j + 1)) in
        let b = Matrix.init 2 2 (fun i j -> float_of_int ((2 * i) + j + 5)) in
        let c = Matrix.create 2 2 in
        Blas.dgemm_naive a b c;
        check (float_ 1e-12) "c00" 19.0 (Matrix.get c 0 0);
        check (float_ 1e-12) "c01" 22.0 (Matrix.get c 0 1);
        check (float_ 1e-12) "c10" 43.0 (Matrix.get c 1 0);
        check (float_ 1e-12) "c11" 50.0 (Matrix.get c 1 1));
    Alcotest.test_case "alpha and beta respected" `Quick (fun () ->
        let a = Matrix.identity 2 in
        let b = Matrix.identity 2 in
        let c = Matrix.init 2 2 (fun _ _ -> 1.0) in
        Blas.dgemm ~alpha:2.0 ~beta:3.0 a b c;
        (* c = 2*I + 3*ones *)
        check (float_ 1e-12) "diag" 5.0 (Matrix.get c 0 0);
        check (float_ 1e-12) "off" 3.0 (Matrix.get c 0 1);
        (* every variant against the reference, across micro-tile edges
           and a KC boundary (k = 257), and the packed kernel under an
           odd blocking with every micro-kernel this CPU runs *)
        let alpha = 1.5 and beta = -0.5 in
        let odd_blocking bmicro a b c =
          Gemm_kernel.set_blocking
            { Gemm_kernel.bmc = 96; bkc = 72; bnc = 120; bmicro };
          Fun.protect ~finally:Gemm_kernel.reset_blocking (fun () ->
              Blas.dgemm ~alpha ~beta a b c)
        in
        List.iter
          (fun (m, k, n) ->
            let a = Matrix.random ~seed:1 m k in
            let b = Matrix.random ~seed:2 k n in
            let want = Matrix.random ~seed:3 m n in
            let c0 = Matrix.copy want in
            Blas.dgemm_naive ~alpha ~beta a b want;
            List.iter
              (fun (name, dgemm) ->
                let c = Matrix.copy c0 in
                dgemm a b c;
                check bool_
                  (Printf.sprintf "%s %dx%dx%d" name m k n)
                  true (Matrix.approx_equal want c))
              ([
                 ("packed", fun a b c -> Blas.dgemm ~alpha ~beta a b c);
                 ( "blocked",
                   fun a b c -> Blas.dgemm_blocked ~alpha ~beta a b c );
               ]
              @ List.map
                  (fun mi ->
                    ( Gemm_kernel.micro_to_string mi ^ ", odd blocking",
                      odd_blocking mi ))
                  (Gemm_kernel.supported_micros ())))
          [ (1, 1, 1); (3, 5, 2); (7, 3, 9); (96, 64, 32); (130, 257, 139) ]);
    Alcotest.test_case "blocked agrees with naive (square)" `Quick (fun () ->
        let a = Matrix.random ~seed:1 33 33 in
        let b = Matrix.random ~seed:2 33 33 in
        let c1 = Matrix.create 33 33 and c2 = Matrix.create 33 33 in
        Blas.dgemm_naive a b c1;
        Blas.dgemm_blocked ~block:8 a b c2;
        check bool_ "equal" true (Matrix.approx_equal ~tol:1e-12 c1 c2));
    Alcotest.test_case "blocked agrees with naive (rectangular)" `Quick
      (fun () ->
        let a = Matrix.random ~seed:3 17 29 in
        let b = Matrix.random ~seed:4 29 23 in
        let c1 = Matrix.create 17 23 and c2 = Matrix.create 17 23 in
        Blas.dgemm_naive a b c1;
        Blas.dgemm_blocked ~block:7 a b c2;
        check bool_ "equal" true (Matrix.approx_equal ~tol:1e-12 c1 c2));
    Alcotest.test_case "dgemm rejects shape mismatches" `Quick (fun () ->
        let a = Matrix.create 2 3 and b = Matrix.create 2 3 in
        let c = Matrix.create 2 3 in
        match Blas.dgemm a b c with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "dgemv" `Quick (fun () ->
        let a = Matrix.init 2 3 (fun i j -> float_of_int ((3 * i) + j + 1)) in
        let x = [| 1.0; 2.0; 3.0 |] in
        let y = [| 100.0; 100.0 |] in
        Blas.dgemv ~alpha:1.0 ~beta:0.0 a x y;
        check (float_ 1e-12) "y0" 14.0 y.(0);
        check (float_ 1e-12) "y1" 32.0 y.(1));
    Alcotest.test_case "daxpy / ddot / dscal / dnrm2" `Quick (fun () ->
        let x = [| 1.0; 2.0; 3.0 |] and y = [| 10.0; 20.0; 30.0 |] in
        Blas.daxpy 2.0 x y;
        check (float_ 1e-12) "daxpy" 12.0 y.(0);
        check (float_ 1e-12) "ddot" (12.0 +. 48.0 +. 108.0) (Blas.ddot x y);
        Blas.dscal 0.5 y;
        check (float_ 1e-12) "dscal" 6.0 y.(0);
        check (float_ 1e-12) "dnrm2" 5.0 (Blas.dnrm2 [| 3.0; 4.0 |]));
    Alcotest.test_case "vector_add is the vecadd task" `Quick (fun () ->
        let a = [| 1.0; 2.0 |] and b = [| 3.0; 4.0 |] in
        Blas.vector_add a b;
        check (float_ 1e-12) "a0" 4.0 a.(0);
        check (float_ 1e-12) "a1" 6.0 a.(1);
        check (float_ 1e-12) "b untouched" 3.0 b.(0));
    Alcotest.test_case "flops_dgemm" `Quick (fun () ->
        check (float_ 0.0) "2mnk" 1_000_000.0 (Blas.flops_dgemm 100 100 50));
  ]

(* Properties: distributivity of tiled computation — computing C by
   tiles equals computing C in one piece.  This is the invariant the
   runtime's data partitioning relies on. *)
let tiled_equals_whole =
  QCheck.Test.make ~name:"tile-parallel dgemm equals whole dgemm" ~count:50
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 24))
    (fun (ti, tj, n) ->
      let tile_rows = ((n - 1) / ti) + 1 and tile_cols = ((n - 1) / tj) + 1 in
      let a = Matrix.random ~seed:n n n and b = Matrix.random ~seed:(n + 1) n n in
      let whole = Matrix.create n n in
      Blas.dgemm a b whole;
      let tiled = Matrix.create n n in
      let row = ref 0 in
      while !row < n do
        let rows = min tile_rows (n - !row) in
        let col = ref 0 in
        while !col < n do
          let cols = min tile_cols (n - !col) in
          let a_strip = Matrix.sub_block a ~row:!row ~col:0 ~rows ~cols:n in
          let b_strip = Matrix.sub_block b ~row:0 ~col:!col ~rows:n ~cols in
          let c_tile = Matrix.create rows cols in
          Blas.dgemm a_strip b_strip c_tile;
          Matrix.set_block tiled ~row:!row ~col:!col c_tile;
          col := !col + cols
        done;
        row := !row + rows
      done;
      Matrix.approx_equal ~tol:1e-12 whole tiled)

let blocked_matches_naive =
  QCheck.Test.make ~name:"blocked dgemm = naive dgemm for random shapes"
    ~count:50
    QCheck.(
      quad (int_range 1 20) (int_range 1 20) (int_range 1 20) (int_range 1 9))
    (fun (m, k, n, block) ->
      let a = Matrix.random ~seed:m m k and b = Matrix.random ~seed:n k n in
      let c1 = Matrix.init m n (fun i j -> float_of_int (i - j)) in
      let c2 = Matrix.copy c1 in
      Blas.dgemm_naive ~alpha:1.5 ~beta:0.5 a b c1;
      Blas.dgemm_blocked ~alpha:1.5 ~beta:0.5 ~block a b c2;
      Matrix.approx_equal ~tol:1e-12 c1 c2)

let daxpy_linear =
  QCheck.Test.make ~name:"daxpy is linear" ~count:100
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 20) (float_range (-10.) 10.)) (float_range (-4.) 4.))
    (fun (xs, alpha) ->
      let x = Array.of_list xs in
      let y = Array.make (Array.length x) 1.0 in
      let y2 = Array.copy y in
      Blas.daxpy alpha x y;
      Blas.daxpy (2.0 *. alpha) x y2;
      (* y2 - y = alpha * x *)
      Array.for_all2
        (fun d xi -> Float.abs (d -. (alpha *. xi)) <= 1e-9)
        (Array.map2 ( -. ) y2 y)
        x)

(* ------------------------------------------------------------------ *)
(* Domain pool and pooled kernels                                      *)

let domain_pool_tests =
  [
    Alcotest.test_case "every index visited exactly once" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:4 (fun pool ->
            let n = 10_000 in
            let hits = Array.make n 0 in
            Domain_pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
                hits.(i) <- hits.(i) + 1);
            check bool_ "all once" true (Array.for_all (fun h -> h = 1) hits)));
    Alcotest.test_case "num_domains accessor; < 1 rejected" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:3 (fun pool ->
            check int_ "three" 3 (Domain_pool.num_domains pool));
        match Domain_pool.create ~num_domains:0 () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "num_domains = 1 is a sequential loop" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:1 (fun pool ->
            let sum = ref 0 in
            (* Safe unsynchronized: everything runs on this domain. *)
            Domain_pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
                sum := !sum + i);
            check int_ "gauss" 4950 !sum));
    Alcotest.test_case "empty and tiny ranges" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:2 (fun pool ->
            let calls = Atomic.make 0 in
            Domain_pool.parallel_for pool ~lo:5 ~hi:5 (fun _ ->
                Atomic.incr calls);
            check int_ "empty range" 0 (Atomic.get calls);
            Domain_pool.parallel_for pool ~lo:2 ~hi:3 (fun i ->
                check int_ "index" 2 i;
                Atomic.incr calls);
            check int_ "one call" 1 (Atomic.get calls)));
    Alcotest.test_case "reusable across many calls" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:3 (fun pool ->
            let n = 512 in
            let acc = Array.make n 0 in
            for _ = 1 to 50 do
              Domain_pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
                  acc.(i) <- acc.(i) + 1)
            done;
            check bool_ "50 everywhere" true
              (Array.for_all (fun v -> v = 50) acc)));
    Alcotest.test_case "exception propagates, pool survives" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:3 (fun pool ->
            (match
               Domain_pool.parallel_for pool ~lo:0 ~hi:1_000 (fun i ->
                   if i = 500 then failwith "boom")
             with
            | () -> Alcotest.fail "expected Failure"
            | exception Failure m -> check Alcotest.string "msg" "boom" m);
            let hits = Array.make 100 0 in
            Domain_pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
                hits.(i) <- 1);
            check bool_ "usable after failure" true
              (Array.for_all (fun h -> h = 1) hits)));
    Alcotest.test_case "repeated failures never poison the pool" `Quick
      (fun () ->
        (* The failure path must leave the workers parked and the job
           slot clean at every pool width, round after round. *)
        List.iter
          (fun num_domains ->
            Domain_pool.with_pool ~num_domains (fun pool ->
                for round = 1 to 3 do
                  (match
                     Domain_pool.parallel_for pool ~lo:0 ~hi:1_000 (fun i ->
                         if i mod 97 = 0 then raise Exit)
                   with
                  | () -> Alcotest.fail "expected Exit"
                  | exception Exit -> ());
                  let n = 256 in
                  let hits = Array.make n 0 in
                  Domain_pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
                      hits.(i) <- hits.(i) + 1);
                  check bool_
                    (Printf.sprintf "domains=%d round %d clean" num_domains
                       round)
                    true
                    (Array.for_all (fun h -> h = 1) hits)
                done))
          [ 1; 2; 4 ]);
    Alcotest.test_case "exception identity and payload survive the domains"
      `Quick (fun () ->
        let exception Boom of int in
        Domain_pool.with_pool ~num_domains:3 (fun pool ->
            match
              Domain_pool.parallel_for pool ~lo:0 ~hi:1_000 (fun i ->
                  if i = 777 then raise (Boom i))
            with
            | () -> Alcotest.fail "expected Boom"
            | exception Boom i -> check int_ "payload intact" 777 i));
    Alcotest.test_case "nested parallel_for runs inline" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:2 (fun pool ->
            let outer = 8 and inner = 64 in
            let hits = Array.make (outer * inner) 0 in
            Domain_pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:outer (fun o ->
                Domain_pool.parallel_for pool ~lo:0 ~hi:inner (fun i ->
                    hits.((o * inner) + i) <- hits.((o * inner) + i) + 1));
            check bool_ "all once" true (Array.for_all (fun h -> h = 1) hits)));
    Alcotest.test_case "shutdown idempotent; sequential afterwards" `Quick
      (fun () ->
        let pool = Domain_pool.create ~num_domains:3 () in
        Domain_pool.shutdown pool;
        Domain_pool.shutdown pool;
        let sum = ref 0 in
        Domain_pool.parallel_for pool ~lo:0 ~hi:10 (fun i -> sum := !sum + i);
        check int_ "still works" 45 !sum);
    Alcotest.test_case "chunk < 1 rejected" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:2 (fun pool ->
            match Domain_pool.parallel_for ~chunk:0 pool ~lo:0 ~hi:4 ignore with
            | _ -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ()));
    Alcotest.test_case "pooled dgemm bit-identical to sequential" `Quick
      (fun () ->
        Domain_pool.with_pool ~num_domains:3 (fun pool ->
            List.iter
              (fun n ->
                let a = Matrix.random ~seed:n n n
                and b = Matrix.random ~seed:(n + 1) n n in
                let c_seq = Matrix.init n n (fun i j -> float_of_int (i + j)) in
                let c_par = Matrix.copy c_seq in
                Blas.dgemm ~alpha:1.5 ~beta:0.5 a b c_seq;
                Blas.dgemm ~alpha:1.5 ~beta:0.5 ~pool a b c_par;
                check (float_ 0.0)
                  (Printf.sprintf "n=%d identical" n)
                  0.0
                  (Matrix.max_abs_diff c_seq c_par))
              [ 65; 96; 200 ]));
    Alcotest.test_case "pooled dgemv/daxpy bit-identical on large inputs"
      `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:4 (fun pool ->
            let a = Matrix.random ~seed:5 300 300 in
            let x = Array.init 300 (fun i -> sin (float_of_int i)) in
            let y_seq = Array.init 300 (fun i -> cos (float_of_int i)) in
            let y_par = Array.copy y_seq in
            Blas.dgemv ~alpha:1.1 ~beta:0.7 a x y_seq;
            Blas.dgemv ~alpha:1.1 ~beta:0.7 ~pool a x y_par;
            check bool_ "dgemv identical" true (y_seq = y_par);
            let n = 70_000 in
            let x = Array.init n (fun i -> sin (float_of_int i)) in
            let y_seq = Array.init n (fun i -> cos (float_of_int i)) in
            let y_par = Array.copy y_seq in
            Blas.daxpy 1.5 x y_seq;
            Blas.daxpy ~pool 1.5 x y_par;
            check bool_ "daxpy identical" true (y_seq = y_par)));
    Alcotest.test_case "pooled ddot deterministic across domain counts" `Quick
      (fun () ->
        let n = 100_000 in
        let x = Array.init n (fun i -> sin (float_of_int i)) in
        let y = Array.init n (fun i -> cos (float_of_int (2 * i))) in
        let seq = Blas.ddot x y in
        let d2 =
          Domain_pool.with_pool ~num_domains:2 (fun pool -> Blas.ddot ~pool x y)
        in
        let d4 =
          Domain_pool.with_pool ~num_domains:4 (fun pool -> Blas.ddot ~pool x y)
        in
        check (float_ 0.0) "same partials whatever the domain count" d2 d4;
        check bool_ "close to sequential" true
          (Float.abs (seq -. d2) <= 1e-9 *. Float.max 1.0 (Float.abs seq)));
    Alcotest.test_case "pooled lapack kernels bit-identical" `Quick (fun () ->
        Domain_pool.with_pool ~num_domains:3 (fun pool ->
            let n = 96 in
            let spd = Lapack.random_spd ~seed:7 n in
            let l_seq = Matrix.copy spd and l_par = Matrix.copy spd in
            Lapack.dpotrf l_seq;
            Lapack.dpotrf ~pool l_par;
            check (float_ 0.0) "dpotrf" 0.0 (Matrix.max_abs_diff l_seq l_par);
            let b_seq = Matrix.random ~seed:8 n n in
            let b_par = Matrix.copy b_seq in
            Lapack.dtrsm_rlt ~l:l_seq b_seq;
            Lapack.dtrsm_rlt ~pool ~l:l_seq b_par;
            check (float_ 0.0) "dtrsm_rlt" 0.0 (Matrix.max_abs_diff b_seq b_par);
            let a = Matrix.random ~seed:9 n n in
            let c_seq = Matrix.copy spd and c_par = Matrix.copy spd in
            Lapack.dsyrk_ln ~a c_seq;
            Lapack.dsyrk_ln ~pool ~a c_par;
            check (float_ 0.0) "dsyrk_ln" 0.0 (Matrix.max_abs_diff c_seq c_par);
            let b = Matrix.random ~seed:10 n n in
            let g_seq = Matrix.copy spd and g_par = Matrix.copy spd in
            Lapack.dgemm_nt ~a ~b g_seq;
            Lapack.dgemm_nt ~pool ~a ~b g_par;
            check (float_ 0.0) "dgemm_nt" 0.0 (Matrix.max_abs_diff g_seq g_par);
            (* Odd shapes: the row solves interleave four rows, so row
               counts of 1, 2 and 3 mod 4 take the remainder path, and
               n off a multiple of nb ends in a partial column block.
               Beyond pooled = sequential, check the answers solve. *)
            List.iter
              (fun n ->
                let a = Lapack.random_spd ~seed:n n in
                let l = Matrix.copy a and l_par = Matrix.copy a in
                Lapack.dpotrf l;
                Lapack.dpotrf ~pool l_par;
                let name = Printf.sprintf "dpotrf n=%d" n in
                check (float_ 0.0) name 0.0 (Matrix.max_abs_diff l l_par);
                check bool_ (name ^ " residual") true
                  (Lapack.cholesky_residual ~a ~l < 1e-12 *. float_of_int (n * n));
                if n = 65 || n = 129 then
                  List.iter
                    (fun m ->
                      let b = Matrix.random ~seed:(m + n) m n in
                      let x = Matrix.copy b and x_par = Matrix.copy b in
                      Lapack.dtrsm_rlt ~l x;
                      Lapack.dtrsm_rlt ~pool ~l x_par;
                      let name = Printf.sprintf "dtrsm_rlt %dx%d" m n in
                      check (float_ 0.0) name 0.0 (Matrix.max_abs_diff x x_par);
                      (* b - x * l^T must vanish *)
                      Lapack.dgemm_nt ~a:x ~b:l b;
                      check bool_ (name ^ " residual") true
                        (Matrix.frobenius b < 1e-12 *. float_of_int (m * n)))
                    [ 1; 2; 3; 5; 33; 130 ])
              [ 1; 2; 3; 5; 33; 65; 129; 130; 131 ]));
  ]

(* Golden digests: results must stay bit-identical to the values
   recorded before the kernels were last reworked. *)
let digest (m : Matrix.t) =
  let b = Buffer.create (8 * m.rows * m.cols) in
  Array.iter
    (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
    (Matrix.to_array m);
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_sizes = [ 1; 3; 7; 64; 100; 129; 255; 256; 257; 513 ]

let golden_cases =
  List.concat_map
    (fun n ->
      [
        (Printf.sprintf "random %d" n, fun () -> Matrix.random n n);
        ( Printf.sprintf "random seed=%d %dx%d" (n * 7919) n (n + 3),
          fun () -> Matrix.random ~seed:(n * 7919) n (n + 3) );
        (Printf.sprintf "random_spd %d" n, fun () -> Lapack.random_spd ~seed:n n);
      ])
    golden_sizes
  @ [
      ("random seed=-1", fun () -> Matrix.random ~seed:(-1) 9 11);
      ("random seed=max_int", fun () -> Matrix.random ~seed:max_int 9 11);
    ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "dpotrf %d" n,
          fun () ->
            let a = Lapack.random_spd ~seed:(n + 1) n in
            Lapack.dpotrf a;
            a ))
      [ 1; 2; 3; 5; 33; 64; 65; 129; 130 ]
  @ List.concat_map
      (fun n ->
        List.map
          (fun m ->
            ( Printf.sprintf "dtrsm_rlt %dx%d" m n,
              fun () ->
                let l = Lapack.random_spd ~seed:n n in
                Lapack.dpotrf l;
                let b = Matrix.random ~seed:(m + n) m n in
                Lapack.dtrsm_rlt ~l b;
                b ))
          [ 1; 2; 3; 5; 33; 130 ])
      [ 1; 3; 64; 65; 129 ]

let golden_expected =
  [
      ("random 1", "9ea7a5146d89d80f44054d8194234b96");
      ("random seed=7919 1x4", "5e534d420067e55290703c11de22f60f");
      ("random_spd 1", "87d2bd5e697139d3ab91a01152dde5fc");
      ("random 3", "3fc77211843b807a0d83e68432d4c212");
      ("random seed=23757 3x6", "e5b18b3cfecd196b9f571eee51d34822");
      ("random_spd 3", "643deb9fff6cad9f6924d6ce2085a1ac");
      ("random 7", "d3e492b1647b23b8c10c69daedcdb1ce");
      ("random seed=55433 7x10", "d7da0017ec9a97b402ffa8d7e846147a");
      ("random_spd 7", "3f1f0426c89b2404d18063c10838823b");
      ("random 64", "37f0c6e8c204629947928f6ea5280506");
      ("random seed=506816 64x67", "58e5355cb1f26d70ea6f0f6ddb9df80e");
      ("random_spd 64", "bd0d588463ea3d08105fdf3985858c84");
      ("random 100", "ca1fd1407154bf1c8d078b310ccd7892");
      ("random seed=791900 100x103", "5b77cd354f6219a8d1800bf05d5883e1");
      ("random_spd 100", "471dce613ffde7385d3e53d58f8ca964");
      ("random 129", "2ea2b65be27e3db84fb8d6d62bc6a7f6");
      ("random seed=1021551 129x132", "3a6a93952a69bfaed812cb4561d2fea8");
      ("random_spd 129", "c94de347465440c5f6e4186b28c6325c");
      ("random 255", "2c707e73fb2de5d1694b60409d17b9e3");
      ("random seed=2019345 255x258", "2f5d04faaa0f19f38104eb403d42724f");
      ("random_spd 255", "7b834bfdafb4831b719e0c2a922cdf76");
      ("random 256", "5612cb7f6d5f4e6548c8b671e8649513");
      ("random seed=2027264 256x259", "0df47cbf5e381e1877a180bd8cfe16bc");
      ("random_spd 256", "3b059e38c151507cccd4583e1978b025");
      ("random 257", "40618360cf0940fea47b800005bca02a");
      ("random seed=2035183 257x260", "28bd5c63e12bc5c5c1ce883fb8d0237b");
      ("random_spd 257", "654cadf463f57912696e2521f4ac78f2");
      ("random 513", "f82af8a571c9b2ef70bc5a136b61e42b");
      ("random seed=4062447 513x516", "52f19049d02ccb71f9c3b5ff998c4fe4");
      ("random_spd 513", "dd8e681e4f29126b48b0aff3ce4f0151");
      ("random seed=-1", "15061e9c039256fda1fd5e3b6c3ac1e8");
      ("random seed=max_int", "15061e9c039256fda1fd5e3b6c3ac1e8");
      ("dpotrf 1", "5f94babc5a8c240d6dbd9235f81e0a87");
      ("dpotrf 2", "ed9a6a8d372416bbaa980f0bae1c4b36");
      ("dpotrf 3", "ebc7bd6d039dc03071a2b1f98b94e108");
      ("dpotrf 5", "d56a8d9378e30c378ae3db875da8d9c7");
      ("dpotrf 33", "f8b105c83c5c364700a7fe914496bd33");
      ("dpotrf 64", "4eaae41344c159b7a6cc001b4436f3a6");
      ("dpotrf 65", "6baca27c62da334eff418e3c957fdb14");
      ("dpotrf 129", "1822a93478548a19984652d6d90b0ed2");
      ("dpotrf 130", "1838bb59f603d2df7333f828d2e427fc");
      ("dtrsm_rlt 1x1", "a26f5e40f35a5d0aff49e5d1a8c87e77");
      ("dtrsm_rlt 2x1", "33743b431421fdd45c5acecfb70008d1");
      ("dtrsm_rlt 3x1", "342ae10237d2c98b60b53d47144520bc");
      ("dtrsm_rlt 5x1", "4b369c3947c0507d45b85f7ca95c9f81");
      ("dtrsm_rlt 33x1", "8b271d27a1e2b95c947ad757340d510d");
      ("dtrsm_rlt 130x1", "5917b40d4fa704382f623bdadeea24ed");
      ("dtrsm_rlt 1x3", "ecd9d9d90ffa565254f42b48b9ef354e");
      ("dtrsm_rlt 2x3", "9993b96f651c7e325448f9d2f0458564");
      ("dtrsm_rlt 3x3", "aa37d89480343f4c5124e66a11e29bd0");
      ("dtrsm_rlt 5x3", "b8f2fc644120ca61dc6b1a8c68730687");
      ("dtrsm_rlt 33x3", "afcbf1e15e351c9855506cd3c51dc1d6");
      ("dtrsm_rlt 130x3", "69c9808d52e233ca4976158d5978a58b");
      ("dtrsm_rlt 1x64", "8719f33b30cec12d8e3eb9987e168420");
      ("dtrsm_rlt 2x64", "6a2ca686a9f0572807a179aeb0f97918");
      ("dtrsm_rlt 3x64", "0bd9a6520f2724781ffdfcc296a50f5d");
      ("dtrsm_rlt 5x64", "543d6d6d4858f3a2eab849d1c9229457");
      ("dtrsm_rlt 33x64", "6ee64bbe0e27dacdd776d7b1d9cd2469");
      ("dtrsm_rlt 130x64", "9e5b484d224fe7545fb07a30e2f9d680");
      ("dtrsm_rlt 1x65", "1c274e2255c0865f8f002d2f9526e646");
      ("dtrsm_rlt 2x65", "8e92b5ddd12f57e98c73edeb714f9923");
      ("dtrsm_rlt 3x65", "10a0acbac4b7d1df980c545d24153ac7");
      ("dtrsm_rlt 5x65", "fe3059ba83b3e01885cbee8b12b7f9d3");
      ("dtrsm_rlt 33x65", "64fb7039654b42f8c6685eed98c27b4f");
      ("dtrsm_rlt 130x65", "2105cc7a569049ac058a023253fb8d6b");
      ("dtrsm_rlt 1x129", "145f59e7967d200c1df23b8b671fb72f");
      ("dtrsm_rlt 2x129", "a4e25daacff212dde6cc4322e4e85b72");
      ("dtrsm_rlt 3x129", "e6c29929b2f8675a9820ba8e32dd015b");
      ("dtrsm_rlt 5x129", "2f8a0a011fb92bd81a301145d04302e3");
      ("dtrsm_rlt 33x129", "b8c1ade5b2d46df848dfe0f5af5b5f79");
      ("dtrsm_rlt 130x129", "a17adbe2425f8b81814fe8a8af59e9bf");
  ]

let check_golden () =
  List.iter2
    (fun (label, f) (label', want) ->
      check Alcotest.string "case" label' label;
      check Alcotest.string label want (digest (f ())))
    golden_cases golden_expected

let golden_tests =
  [
    Alcotest.test_case "inputs and tile kernels match golden digests" `Quick
      check_golden;
    (* the kernel of AVX2-only hosts gives the same bits *)
    Alcotest.test_case "golden digests hold with the avx2 micro-kernel forced"
      `Quick (fun () ->
        Gemm_kernel.set_blocking
          { (Gemm_kernel.default_blocking ()) with bmicro = Gemm_kernel.Avx2 };
        Fun.protect ~finally:Gemm_kernel.reset_blocking check_golden);
  ]

(* ------------------------------------------------------------------ *)
(* Matrix.random: the 16-lane generator against the one-step LCG     *)

let bits_of (m : Matrix.t) = Array.map Int64.bits_of_float (Matrix.to_array m)

let reference_random ~seed len =
  let s = ref (seed land 0x3FFFFFFF) in
  Array.init len (fun _ ->
      s := ((!s * 1664525) + 1013904223) land 0xFFFFFFFF;
      Int64.bits_of_float ((float_of_int !s /. 2147483648.0) -. 1.0))

let lcg_tests =
  [
    Alcotest.test_case "random equals the one-step LCG at every length"
      `Quick (fun () ->
        (* lengths 0-48: two full groups of 16 lanes and every tail
           length 0-15 after zero, one and two groups *)
        List.iter
          (fun seed ->
            for len = 0 to 48 do
              check bool_
                (Printf.sprintf "seed %d, length %d" seed len)
                true
                (bits_of (Matrix.random ~seed 1 len)
                = reference_random ~seed len)
            done;
            check bool_
              (Printf.sprintf "seed %d, 7x5" seed)
              true
              (bits_of (Matrix.random ~seed 7 5) = reference_random ~seed 35))
          [ -1; 0; max_int ]);
  ]

(* ------------------------------------------------------------------ *)
(* Strided views: each LAPACK kernel in place on a tile of a larger    *)
(* buffer, against its Matrix.t entry point on a copied-out tile       *)

(* A [rows x cols] tile at (row0, col0) of a buffer [ld] wide, with
   ld > cols and junk all around the tile. *)
type placed = { buf : Matrix.buf; off : int; ld : int; rows : int; cols : int }

let place ~seed (row0, col0, pad) (m : Matrix.t) =
  let ld = col0 + m.cols + pad in
  let buf = (Matrix.random ~seed (row0 + m.rows + 1) ld).data in
  let off = (row0 * ld) + col0 in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      buf.{off + (i * ld) + j} <- Matrix.get m i j
    done
  done;
  { buf; off; ld; rows = m.rows; cols = m.cols }

let copy_out p =
  Matrix.init p.rows p.cols (fun i j -> p.buf.{p.off + (i * p.ld) + j})

let snapshot p = Array.init (Bigarray.Array1.dim p.buf) (fun i -> p.buf.{i})

(* Every element outside the tile is bit-identical to [before]. *)
let outside_unchanged p before =
  let inside i =
    i >= p.off && (i - p.off) / p.ld < p.rows && (i - p.off) mod p.ld < p.cols
  in
  Array.for_all Fun.id
    (Array.mapi
       (fun i x ->
         inside i || Int64.bits_of_float x = Int64.bits_of_float p.buf.{i})
       before)

let view_sizes = [ 1; 3; 33; 65; 130 ]

(* Besides free placements, tiles of an uneven grid: n = 130 or 65 in
   3 tiles, the sizes Data.partition_tiles cuts (44/43, 22/21). *)
let gen_size = QCheck.Gen.oneofl (view_sizes @ [ 44; 43; 22; 21 ])
let gen_place = QCheck.Gen.(triple (int_bound 3) (int_bound 3) (int_range 1 5))

let view_pool = Domain_pool.create ~num_domains:2 ()

(* [run ?pool] must hold with no pool and with a 2-domain pool. *)
let view_property name gen run =
  QCheck.Test.make ~name ~count:20 (QCheck.make gen) (fun x ->
      run ?pool:None x && run ?pool:(Some view_pool) x)

(* The written tile matches [want] bit for bit, the junk around it and
   every read operand's whole buffer are untouched. *)
let view_ok ~want ~written ~before ~reads =
  bits_of (copy_out written) = bits_of want
  && outside_unchanged written before
  (* an empty tile: nothing is inside, the whole buffer is checked *)
  && List.for_all
       (fun (p, snap) -> outside_unchanged { p with rows = 0 } snap)
       reads

let dpotrf_view_matches =
  view_property "dpotrf on a strided view = dpotrf on a copy"
    QCheck.Gen.(pair gen_size gen_place)
    (fun ?pool (n, pl) ->
      let a = Lapack.random_spd ~seed:n n in
      let want = Matrix.copy a in
      Lapack.dpotrf ?pool want;
      let p = place ~seed:1 pl a in
      let before = snapshot p in
      Lapack.dpotrf_view ?pool ~n ~a:p.buf ~aoff:p.off ~lda:p.ld ();
      view_ok ~want ~written:p ~before ~reads:[])

let dtrsm_view_matches =
  view_property "dtrsm_rlt on strided views = dtrsm_rlt on copies"
    QCheck.Gen.(quad gen_size gen_size gen_place gen_place)
    (fun ?pool (m, n, pl_l, pl_b) ->
      let l = Lapack.random_spd ~seed:n n in
      Lapack.dpotrf l;
      let b = Matrix.random ~seed:(m + n) m n in
      let want = Matrix.copy b in
      Lapack.dtrsm_rlt ?pool ~l want;
      let pl = place ~seed:2 pl_l l and pb = place ~seed:3 pl_b b in
      let l_snap = snapshot pl and before = snapshot pb in
      Lapack.dtrsm_rlt_view ?pool ~m ~n ~l:pl.buf ~loff:pl.off ~ldl:pl.ld
        ~b:pb.buf ~boff:pb.off ~ldb:pb.ld ();
      view_ok ~want ~written:pb ~before ~reads:[ (pl, l_snap) ])

let dsyrk_view_matches =
  view_property "dsyrk_ln on strided views = dsyrk_ln on copies"
    QCheck.Gen.(quad gen_size gen_size gen_place gen_place)
    (fun ?pool (n, k, pl_a, pl_c) ->
      let a = Matrix.random ~seed:(n + k) n k in
      let c = Lapack.random_spd ~seed:k n in
      let want = Matrix.copy c in
      Lapack.dsyrk_ln ?pool ~a want;
      let pa = place ~seed:4 pl_a a and pc = place ~seed:5 pl_c c in
      let a_snap = snapshot pa and before = snapshot pc in
      Lapack.dsyrk_ln_view ?pool ~n ~k ~a:pa.buf ~aoff:pa.off ~lda:pa.ld
        ~c:pc.buf ~coff:pc.off ~ldc:pc.ld ();
      view_ok ~want ~written:pc ~before ~reads:[ (pa, a_snap) ])

let dgemm_nt_view_matches =
  view_property "dgemm_nt on strided views = dgemm_nt on copies"
    QCheck.Gen.(
      pair (triple gen_size gen_size gen_size)
        (triple gen_place gen_place gen_place))
    (fun ?pool ((m, n, k), (pl_a, pl_b, pl_c)) ->
      let a = Matrix.random ~seed:m m k
      and b = Matrix.random ~seed:(n + 1) n k
      and c = Matrix.random ~seed:(k + 2) m n in
      let want = Matrix.copy c in
      Lapack.dgemm_nt ?pool ~a ~b want;
      let pa = place ~seed:6 pl_a a
      and pb = place ~seed:7 pl_b b
      and pc = place ~seed:8 pl_c c in
      let a_snap = snapshot pa and b_snap = snapshot pb
      and before = snapshot pc in
      Lapack.dgemm_nt_view ?pool ~m ~n ~k ~a:pa.buf ~aoff:pa.off ~lda:pa.ld
        ~b:pb.buf ~boff:pb.off ~ldb:pb.ld ~c:pc.buf ~coff:pc.off ~ldc:pc.ld ();
      view_ok ~want ~written:pc ~before ~reads:[ (pa, a_snap); (pb, b_snap) ])

(* The packed kernel against the naive reference across random shapes
   and scalars, including dimensions below the micro-tile (16 x 8 with
   Avx512, 4 x 8 with Avx2) that exercise the zero-padded packing
   edges. *)
let packed_matches_naive =
  QCheck.Test.make ~name:"packed dgemm = naive dgemm for random shapes"
    ~count:60
    QCheck.(
      pair
        (triple (int_range 1 50) (int_range 1 50) (int_range 1 50))
        (pair (float_range (-2.) 2.) (float_range (-2.) 2.)))
    (fun ((m, k, n), (alpha, beta)) ->
      let a = Matrix.random ~seed:(m + k) m k
      and b = Matrix.random ~seed:(n + 1) k n in
      let c1 = Matrix.init m n (fun i j -> float_of_int (i - j) *. 0.5) in
      let c2 = Matrix.copy c1 in
      Blas.dgemm_naive ~alpha ~beta a b c1;
      Blas.dgemm ~alpha ~beta a b c2;
      Matrix.approx_equal ~tol:1e-12 c1 c2)

let copy_buf (b : Matrix.buf) =
  let b' = Matrix.alloc_buf (Bigarray.Array1.dim b) in
  Bigarray.Array1.blit b b';
  b'

(* Avx512 against Avx2 on random views: both kernels must write the
   same bits everywhere in C's buffer.  Sizes reach below the 16 x 8
   tile and past KC = 256. *)
let avx512_matches_avx2 =
  let dim =
    QCheck.Gen.(frequency [ (1, int_range 1 17); (2, int_range 1 300) ])
  in
  let scalar =
    QCheck.Gen.(oneof [ oneofl [ 0.0; 1.0; -1.0 ]; float_range (-2.) 2. ])
  in
  QCheck.Test.make ~name:"avx512 micro-kernel = avx2 micro-kernel bit for bit"
    ~count:30
    (QCheck.make
       QCheck.Gen.(
         pair (triple dim dim dim)
           (quad bool (float_range (-2.) 2.) scalar
              (triple gen_place gen_place gen_place))))
    (fun ((m, n, k), (trans_b, alpha, beta, (pl_a, pl_b, pl_c))) ->
      (not (Gemm_kernel.micro_supported Gemm_kernel.Avx512))
      ||
      let a = place ~seed:1 pl_a (Matrix.random ~seed:m m k)
      and b =
        place ~seed:2 pl_b
          (if trans_b then Matrix.random ~seed:n n k
           else Matrix.random ~seed:n k n)
      and c = place ~seed:3 pl_c (Matrix.random ~seed:k m n) in
      let run bmicro =
        let cbuf = copy_buf c.buf in
        Gemm_kernel.set_blocking
          { (Gemm_kernel.default_blocking ()) with bmicro };
        Fun.protect ~finally:Gemm_kernel.reset_blocking (fun () ->
            Gemm_kernel.gemm ~trans_b ~m ~n ~k ~alpha ~beta ~a:a.buf ~aoff:a.off
              ~lda:a.ld ~b:b.buf ~boff:b.off ~ldb:b.ld ~c:cbuf ~coff:c.off
              ~ldc:c.ld ());
        snapshot { c with buf = cbuf } |> Array.map Int64.bits_of_float
      in
      run Gemm_kernel.Avx512 = run Gemm_kernel.Avx2)

(* The left-looking row solve the C loop replaced, kept as the
   reference: x[r][j] = (x[r][j] - sum_t x[r][t]*l[j][t]) / l[j][j],
   subtracting for t ascending. *)
let reference_solve_rows ~(x : Matrix.buf) ~ldx ~(l : Matrix.buf) ~ldl ~j0 ~j1
    ~lo ~hi =
  for r = lo to hi - 1 do
    let ro = r * ldx in
    for j = j0 to j1 - 1 do
      let lj = j * ldl in
      let acc = ref x.{ro + j} in
      for t = j0 to j - 1 do
        acc := !acc -. (x.{ro + t} *. l.{lj + t})
      done;
      x.{ro + j} <- !acc /. l.{lj + j}
    done
  done

let buf_bits (b : Matrix.buf) =
  Array.init (Bigarray.Array1.dim b) (fun i -> Int64.bits_of_float b.{i})

(* Widths up to the panel width nb = 64, 1-70 rows (and 500-600, where
   a 2-domain pool really splits the rows), the diagonal block at a
   column offset j0 in a buffer wider than the block, and the dpotrf
   case where X and L are one buffer. *)
let solve_rows_matches_reference =
  QCheck.Test.make ~name:"C solve_rows = left-looking OCaml loop bit for bit"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 64)
           (frequency [ (4, int_range 1 70); (1, int_range 500 600) ])
           (int_bound 5) bool))
    (fun (w, rows, j0, aliased) ->
      let j1 = j0 + w in
      let ld = j1 + 3 in
      let lo = if aliased then j1 else 2 in
      let hi = lo + rows in
      let x0 = (Matrix.random ~seed:(w + rows) (hi + 1) ld).data in
      let l0 =
        if aliased then x0 else (Matrix.random ~seed:w (j1 + 1) ld).data
      in
      let fac = Lapack.random_spd ~seed:w w in
      Lapack.dpotrf fac;
      for i = 0 to w - 1 do
        for j = 0 to w - 1 do
          l0.{((j0 + i) * ld) + j0 + j} <- Matrix.get fac i j
        done
      done;
      let solve f =
        let x = copy_buf x0 in
        f ~x ~l:(if aliased then x else l0);
        buf_bits x
      in
      let want =
        solve (fun ~x ~l ->
            reference_solve_rows ~x ~ldx:ld ~l ~ldl:ld ~j0 ~j1 ~lo ~hi)
      in
      let l_before = buf_bits l0 in
      List.for_all
        (fun pool ->
          solve (fun ~x ~l ->
              Lapack.solve_rows ?pool ~x ~xoff:0 ~ldx:ld ~l ~loff:0 ~ldl:ld ~j0
                ~j1 ~lo ~hi ())
          = want)
        [ None; Some view_pool ]
      && buf_bits l0 = l_before)

(* The blocked Cholesky with the left-looking OCaml loop that the C
   diagonal factor replaced, kept as the reference.  Its panel solve
   is the reference row solve above and its trailing update one GEMM
   over the whole trailing square: every element sums the same
   products in the same order whatever the blocking, and the strict
   upper triangle it also writes is never read and zeroed at the end. *)
let reference_dpotrf ~n ~(a : Matrix.buf) ~aoff ~lda =
  let nb = 64 in
  let at i j = aoff + (i * lda) + j in
  let k0 = ref 0 in
  while !k0 < n do
    let k1 = min (!k0 + nb) n in
    for kk = !k0 to k1 - 1 do
      let pivot = ref a.{at kk kk} in
      for l = !k0 to kk - 1 do
        let v = a.{at kk l} in
        pivot := !pivot -. (v *. v)
      done;
      if !pivot <= 0.0 then raise (Lapack.Not_positive_definite kk);
      let lkk = sqrt !pivot in
      a.{at kk kk} <- lkk;
      for i = kk + 1 to k1 - 1 do
        let acc = ref a.{at i kk} in
        for l = !k0 to kk - 1 do
          acc := !acc -. (a.{at i l} *. a.{at kk l})
        done;
        a.{at i kk} <- !acc /. lkk
      done
    done;
    if k1 < n then begin
      let sub = Bigarray.Array1.sub a aoff (Bigarray.Array1.dim a - aoff) in
      reference_solve_rows ~x:sub ~ldx:lda ~l:sub ~ldl:lda ~j0:!k0 ~j1:k1
        ~lo:k1 ~hi:n;
      Gemm_kernel.gemm ~trans_b:true ~m:(n - k1) ~n:(n - k1) ~k:(k1 - !k0)
        ~alpha:(-1.0) ~beta:1.0 ~a ~aoff:(at k1 !k0) ~lda ~b:a
        ~boff:(at k1 !k0) ~ldb:lda ~c:a ~coff:(at k1 k1) ~ldc:lda ()
    end;
    k0 := k1
  done;
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      a.{at i j} <- 0.0
    done
  done

(* [dpotrf_view] and [reference_dpotrf] on copies of the placed
   matrix: the bits of each result, or the pivot index each raised. *)
let both_dpotrf p =
  let run f =
    let b = copy_buf p.buf in
    match f b with
    | () -> Ok (buf_bits b)
    | exception Lapack.Not_positive_definite i -> Error i
  in
  let n = p.rows and aoff = p.off and lda = p.ld in
  ( run (fun a -> Lapack.dpotrf_view ~n ~a ~aoff ~lda ()),
    run (fun a -> reference_dpotrf ~n ~a ~aoff ~lda) )

let dpotrf_matches_reference =
  QCheck.Test.make
    ~name:"dpotrf_view = left-looking OCaml diagonal factor bit for bit"
    ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 1 200) gen_place))
    (fun (n, pl) ->
      let got, want = both_dpotrf (place ~seed:n pl (Lapack.random_spd ~seed:n n)) in
      (match got with Ok _ -> true | Error _ -> false) && got = want)

let diag_factor_tests =
  [
    Alcotest.test_case "a non-positive pivot raises its own index" `Quick
      (fun () ->
        let n = 129 in
        List.iter
          (fun p ->
            let a = Lapack.random_spd ~seed:5 n in
            (* the leading p x p minor stays positive definite; pivot p
               is at most a_pp, zero exactly at p = 0 *)
            Matrix.set a p p (if p = 0 then 0.0 else -1.0);
            let got, want = both_dpotrf (place ~seed:1 (1, 3, 2) a) in
            let name = Printf.sprintf "pivot %d" p in
            check bool_ (name ^ " (reference)") true (want = Error p);
            check bool_ name true (got = Error p);
            Alcotest.check_raises name (Lapack.Not_positive_definite p)
              (fun () -> Lapack.dpotrf a))
          [ 0; 37; 63; 64; 100 ]);
    Alcotest.test_case "a NaN entry spreads as in the OCaml loop, no raise"
      `Quick (fun () ->
        List.iter
          (fun (i, j) ->
            let n = 129 in
            let a = Lapack.random_spd ~seed:6 n in
            Matrix.set a i j Float.nan;
            let got, want = both_dpotrf (place ~seed:2 (0, 0, 1) a) in
            let name = Printf.sprintf "nan at %d,%d" i j in
            check bool_ (name ^ " factors") true
              (match got with Ok _ -> true | Error _ -> false);
            check bool_ name true (got = want);
            Lapack.dpotrf a;
            check bool_ (name ^ " reaches the last pivot") true
              (Float.is_nan (Matrix.get a (n - 1) (n - 1))))
          [ (0, 0); (5, 3); (70, 64); (128, 2) ]);
  ]

(* Minor page faults of this process so far: field 10 of
   /proc/self/stat, counted after the parenthesised command name
   (which may hold spaces); None where there is no such file. *)
let minor_faults () =
  match In_channel.with_open_text "/proc/self/stat" In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
      let p = String.rindex stat ')' + 2 in
      match String.split_on_char ' ' (String.sub stat p (String.length stat - p)) with
      | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags
        :: minflt :: _ ->
          int_of_string_opt minflt
      | _ -> None)

(* A service allocating job-sized matrices: three 256x256 per round,
   every fifth round three 512x512 and a full major collection that
   frees them all.  With Matrix's allocation policy the freed buffers
   are reused in place; with glibc's defaults the 50 measured rounds
   faulted in about 14 000 pages. *)
let alloc_round r =
  let n = if r mod 5 = 4 then 512 else 256 in
  let ms = List.init 3 (fun _ -> Matrix.create n n) in
  ignore (Sys.opaque_identity ms);
  if n = 512 then Gc.full_major ()

let fault_tests =
  [
    Alcotest.test_case "job-sized matrices fault in no fresh pages" `Quick
      (fun () ->
        match minor_faults () with
        | None ->
            print_endline "kernels: /proc/self/stat unreadable, fault guard skipped"
        | Some _ when not Matrix.resident_buffers ->
            print_endline "kernels: libc is not glibc, fault guard skipped"
        | Some _ ->
            for r = 0 to 19 do alloc_round r done;
            let before = Option.get (minor_faults ()) in
            for r = 0 to 49 do alloc_round r done;
            let faults = Option.get (minor_faults ()) - before in
            if faults > 64 then
              Alcotest.failf "%d minor faults in 50 rounds (at most 64)" faults);
  ]

let packed_pooled_bitwise_tests =
  [
    Alcotest.test_case "pooled packed bit-identical at 1/2/4 domains" `Quick
      (fun () ->
        (* m spans several MC panels so the parallel path really runs;
           the result must not depend on the domain count at all. *)
        let m = 300 and k = 64 and n = 48 in
        let a = Matrix.random ~seed:11 m k
        and b = Matrix.random ~seed:12 k n in
        let c_seq = Matrix.init m n (fun i j -> float_of_int (i + j)) in
        let c_ref = Matrix.copy c_seq in
        Blas.dgemm ~alpha:1.25 ~beta:(-0.5) a b c_ref;
        List.iter
          (fun num_domains ->
            Domain_pool.with_pool ~num_domains (fun pool ->
                let c = Matrix.copy c_seq in
                Blas.dgemm ~alpha:1.25 ~beta:(-0.5) ~pool a b c;
                check (float_ 0.0)
                  (Printf.sprintf "%d domains identical" num_domains)
                  0.0
                  (Matrix.max_abs_diff c_ref c)))
          [ 1; 2; 4 ]);
  ]

(* One shared pool for the property below: spawning domains per
   sample would dominate the run time. *)
let property_pool = Domain_pool.create ~num_domains:4 ()

let pooled_dgemm_matches_sequential =
  QCheck.Test.make ~name:"pooled dgemm = sequential dgemm bit-for-bit"
    ~count:40
    QCheck.(
      quad (int_range 1 80) (int_range 1 40) (int_range 1 40) (int_range 1 9))
    (fun (m, k, n, block) ->
      let a = Matrix.random ~seed:m m k and b = Matrix.random ~seed:n k n in
      let c1 = Matrix.init m n (fun i j -> float_of_int (i - j)) in
      let c2 = Matrix.copy c1 in
      Blas.dgemm_blocked ~alpha:1.5 ~beta:0.5 ~block a b c1;
      Blas.dgemm_blocked ~alpha:1.5 ~beta:0.5 ~block ~pool:property_pool a b c2;
      Matrix.max_abs_diff c1 c2 = 0.0)

let () =
  if not (Gemm_kernel.micro_supported Gemm_kernel.Avx512) then
    print_endline
      "kernels: this CPU reports no avx512f; the avx512 = avx2 property is \
       vacuous";
  let qt = List.map QCheck_alcotest.to_alcotest in
  let result =
    try
      Alcotest.run ~and_exit:false "kernels"
        [
          ("matrix", matrix_tests);
          ("blas", blas_tests);
          ("domain_pool", domain_pool_tests);
          ("packed_pooled", packed_pooled_bitwise_tests);
          ("golden", golden_tests);
          ("lcg", lcg_tests);
          ("diag_factor", diag_factor_tests);
          ("faults", fault_tests);
          ( "properties",
            qt
              [
                tiled_equals_whole; blocked_matches_naive;
                packed_matches_naive; daxpy_linear;
                pooled_dgemm_matches_sequential; dpotrf_view_matches;
                dtrsm_view_matches; dsyrk_view_matches; dgemm_nt_view_matches;
                avx512_matches_avx2; solve_rows_matches_reference;
                dpotrf_matches_reference;
              ] );
        ];
      None
    with e -> Some e
  in
  Domain_pool.shutdown property_pool;
  Domain_pool.shutdown view_pool;
  match result with Some e -> raise e | None -> ()

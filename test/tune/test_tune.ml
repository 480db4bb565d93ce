(* Tests for the calibration store and GEMM autotuner: bucketing, the
   estimation ladder, JSON persistence (round-trip, corruption, hash
   mismatch — never a crash), the schema contract, the runtime's
   learned-model scheduling, and cold-vs-warm determinism. *)

open Tune
module GK = Kernels.Gemm_kernel
module Engine = Taskrt.Engine
module Matrix = Kernels.Matrix

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let float_ tol = Alcotest.float tol
let cfg_2gpu () = Taskrt.Machine_config.of_platform_exn Pdl_hwprobe.Zoo.xeon_2gpu

let mk_store ?(hash = "feedfacefeedface") () =
  Store.create ~pdl_hash:hash ~platform:"test-platform" ()

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Store: bucketing                                                    *)

let bucket_tests =
  [
    Alcotest.test_case "octave buckets, clamped at zero" `Quick (fun () ->
        check int_ "sub-flop" 0 (Store.bucket_of_flops 0.5);
        check int_ "one flop" 0 (Store.bucket_of_flops 1.0);
        check int_ "1024 flops" 10 (Store.bucket_of_flops 1024.0);
        check int_ "just below an octave" 9 (Store.bucket_of_flops 1023.0);
        check int_ "1e13 does not clamp" 43 (Store.bucket_of_flops 1e13));
    Alcotest.test_case "bounds are the half-open octave" `Quick (fun () ->
        let lo, hi = Store.bucket_bounds 10 in
        check (float_ 0.0) "lo" 1024.0 lo;
        check (float_ 0.0) "hi" 2048.0 hi);
  ]

let bucket_inverse =
  QCheck.Test.make ~name:"bucket_bounds bracket bucket_of_flops" ~count:200
    QCheck.(float_range 1.0 1e14)
    (fun f ->
      let b = Store.bucket_of_flops f in
      let lo, hi = Store.bucket_bounds b in
      lo <= f && f < hi)

(* ------------------------------------------------------------------ *)
(* Store: observation and the estimation ladder                        *)

let feed store ~codelet ~pu ~flops ~seconds n =
  for _ = 1 to n do
    Store.observe store ~codelet ~pu ~flops ~seconds
  done

let estimate_tests =
  [
    Alcotest.test_case "empty store estimates nothing" `Quick (fun () ->
        let s = mk_store () in
        check (Alcotest.option (float_ 0.0)) "none" None
          (Store.estimate s ~codelet:"k" ~pu:"cpu" ~flops:1e6));
    Alcotest.test_case "below min_samples estimates nothing" `Quick (fun () ->
        let s = mk_store () in
        feed s ~codelet:"k" ~pu:"cpu" ~flops:1e6 ~seconds:2e-3
          (Store.min_samples - 1);
        check (Alcotest.option (float_ 0.0)) "none" None
          (Store.estimate s ~codelet:"k" ~pu:"cpu" ~flops:1e6);
        check int_ "samples counted" (Store.min_samples - 1)
          (Store.samples s ~codelet:"k" ~pu:"cpu" ~flops:1e6));
    Alcotest.test_case "non-positive observations are ignored" `Quick
      (fun () ->
        let s = mk_store () in
        Store.observe s ~codelet:"k" ~pu:"cpu" ~flops:0.0 ~seconds:1.0;
        Store.observe s ~codelet:"k" ~pu:"cpu" ~flops:1e6 ~seconds:(-1.0);
        check int_ "nothing recorded" 0 (Store.total_samples s));
    Alcotest.test_case "hot bucket scales its measured rate" `Quick (fun () ->
        let s = mk_store () in
        feed s ~codelet:"k" ~pu:"cpu" ~flops:1e6 ~seconds:2e-3
          Store.min_samples;
        (* rate = 2e-9 s/flop *)
        check (Alcotest.option (float_ 1e-15)) "same bucket" (Some 2e-3)
          (Store.estimate s ~codelet:"k" ~pu:"cpu" ~flops:1e6));
    Alcotest.test_case "one qualifying bucket scales linearly" `Quick
      (fun () ->
        let s = mk_store () in
        feed s ~codelet:"k" ~pu:"cpu" ~flops:1e6 ~seconds:2e-3
          Store.min_samples;
        check (Alcotest.option (float_ 1e-12)) "4x flops, 4x time"
          (Some 8e-3)
          (Store.estimate s ~codelet:"k" ~pu:"cpu" ~flops:4e6));
    Alcotest.test_case "two buckets fit a power law" `Quick (fun () ->
        let s = mk_store () in
        (* t = c * f^1.5 sampled exactly at two octaves. *)
        let c = 1e-12 in
        let t f = c *. (f ** 1.5) in
        let f1 = Float.pow 2.0 10.0 and f2 = Float.pow 2.0 20.0 in
        feed s ~codelet:"k" ~pu:"cpu" ~flops:f1 ~seconds:(t f1)
          Store.min_samples;
        feed s ~codelet:"k" ~pu:"cpu" ~flops:f2 ~seconds:(t f2)
          Store.min_samples;
        let fq = Float.pow 2.0 15.0 in
        match Store.estimate s ~codelet:"k" ~pu:"cpu" ~flops:fq with
        | None -> Alcotest.fail "expected an estimate"
        | Some est ->
            check bool_ "within 1% of the true curve" true
              (Float.abs (est -. t fq) /. t fq < 0.01));
    Alcotest.test_case "estimates are per (codelet, pu)" `Quick (fun () ->
        let s = mk_store () in
        feed s ~codelet:"k" ~pu:"cpu" ~flops:1e6 ~seconds:2e-3
          Store.min_samples;
        check (Alcotest.option (float_ 0.0)) "other pu" None
          (Store.estimate s ~codelet:"k" ~pu:"gpu0" ~flops:1e6);
        check (Alcotest.option (float_ 0.0)) "other codelet" None
          (Store.estimate s ~codelet:"j" ~pu:"cpu" ~flops:1e6));
  ]

(* ------------------------------------------------------------------ *)
(* Store: persistence                                                  *)

let populated () =
  let s = mk_store () in
  feed s ~codelet:"dgemm" ~pu:"cpu-cores#0" ~flops:1e9 ~seconds:0.1 4;
  feed s ~codelet:"dgemm" ~pu:"gpu0" ~flops:1e9 ~seconds:0.004 5;
  feed s ~codelet:"potrf" ~pu:"cpu-cores#1" ~flops:3.3e7 ~seconds:7e-3 3;
  Store.set_gemm_config s
    { Store.g_mc = 256; g_kc = 256; g_nc = 1024; g_micro = "avx2";
      g_gflops = 24.1 };
  s

let persistence_tests =
  [
    Alcotest.test_case "save/load round-trips the whole store" `Quick
      (fun () ->
        let s = populated () in
        check bool_ "dirty before save" true (Store.dirty s);
        Store.save s;
        check bool_ "clean after save" false (Store.dirty s);
        let l, warn =
          Store.load ~pdl_hash:(Store.pdl_hash s)
            ~platform:(Store.platform s) ()
        in
        check (Alcotest.option string_) "no warning" None warn;
        check string_ "identical serialization" (Store.to_json_string s)
          (Store.to_json_string l);
        check int_ "samples" (Store.total_samples s) (Store.total_samples l);
        check (Alcotest.option (float_ 1e-15)) "estimates survive"
          (Store.estimate s ~codelet:"dgemm" ~pu:"gpu0" ~flops:2e9)
          (Store.estimate l ~codelet:"dgemm" ~pu:"gpu0" ~flops:2e9);
        Sys.remove (Store.path s));
    Alcotest.test_case "names with UTF-8, tabs and quotes survive save/load"
      `Quick (fun () ->
        (* OCaml's %S escapes non-ASCII bytes as \ddd, which JSON has no
           reading for: a store written that way came back cold *)
        let s =
          Store.create ~pdl_hash:"0ddba11c0ffee000"
            ~platform:"plat\xc3\xa9\t\"x\"" ()
        in
        let codelet = "gemm\xc3\xa9\t\"q\"" and pu = "gpu\xe2\x82\xac\t0" in
        feed s ~codelet ~pu ~flops:1e9 ~seconds:0.01 4;
        Store.save s;
        let l, warn =
          Store.load ~pdl_hash:(Store.pdl_hash s) ~platform:"ignored" ()
        in
        Sys.remove (Store.path s);
        check (Alcotest.option string_) "no warning" None warn;
        check string_ "platform" (Store.platform s) (Store.platform l);
        check int_ "samples" 4 (Store.samples l ~codelet ~pu ~flops:1e9);
        check string_ "identical serialization" (Store.to_json_string s)
          (Store.to_json_string l));
    Alcotest.test_case "missing file is a cold start, no warning" `Quick
      (fun () ->
        let l, warn =
          Store.load ~pdl_hash:"0123456789abcdef" ~platform:"nowhere" ()
        in
        check (Alcotest.option string_) "silent" None warn;
        check int_ "cold" 0 (Store.total_samples l));
    Alcotest.test_case "corrupt file warns and starts cold" `Quick (fun () ->
        let s = mk_store () in
        write_file (Store.path s) "{ \"version\": 1, \"cells\": [ gar";
        let l, warn =
          Store.load ~pdl_hash:(Store.pdl_hash s)
            ~platform:(Store.platform s) ()
        in
        check bool_ "warned" true (warn <> None);
        check int_ "cold" 0 (Store.total_samples l);
        Sys.remove (Store.path s));
    Alcotest.test_case "hash mismatch warns and starts cold" `Quick (fun () ->
        let s = populated () in
        let other = "0000000000000000" in
        write_file
          (Filename.concat "." (Store.filename ~pdl_hash:other))
          (Store.to_json_string s);
        let l, warn = Store.load ~pdl_hash:other ~platform:"other" () in
        check bool_ "warned" true (warn <> None);
        check int_ "cold" 0 (Store.total_samples l);
        Sys.remove (Store.filename ~pdl_hash:other));
    Alcotest.test_case "a GEMM blocking this CPU cannot run warns, is ignored"
      `Quick (fun () ->
        let s = populated () in
        Store.set_gemm_config s
          { Store.g_mc = 128; g_kc = 256; g_nc = 1024; g_micro = "avx512";
            g_gflops = 40.0 };
        Store.save s;
        let load () =
          Store.load ~pdl_hash:(Store.pdl_hash s) ~platform:(Store.platform s)
            ()
        in
        GK.as_avx2_host (fun () ->
            let l, warn = load () in
            check bool_ "warned" true (warn <> None);
            check bool_ "blocking dropped" true (Store.gemm_config l = None);
            check int_ "samples kept" (Store.total_samples s)
              (Store.total_samples l);
            check bool_ "apply has nothing to install" false
              (Gemm_tune.apply l);
            check bool_ "blocking_of_cfg refuses it" true
              (Gemm_tune.blocking_of_cfg (Option.get (Store.gemm_config s))
              = None));
        if GK.micro_supported GK.Avx512 then begin
          let l, warn = load () in
          check (Alcotest.option string_) "runnable here: no warning" None warn;
          check bool_ "kept" true (Store.gemm_config l <> None)
        end;
        Sys.remove (Store.path s));
    Alcotest.test_case "wrong version warns and starts cold" `Quick (fun () ->
        let s = mk_store () in
        write_file (Store.path s)
          (Printf.sprintf
             "{ \"version\": 99, \"pdl_hash\": %S, \"platform\": \"p\", \
              \"cells\": [] }"
             (Store.pdl_hash s));
        let l, warn =
          Store.load ~pdl_hash:(Store.pdl_hash s)
            ~platform:(Store.platform s) ()
        in
        check bool_ "warned" true (warn <> None);
        check int_ "cold" 0 (Store.total_samples l);
        Sys.remove (Store.path s));
    Alcotest.test_case "crash mid-save: truncated store loads cold, next \
                        save overwrites cleanly" `Quick (fun () ->
        (* simulate the torn-write window save's fsync+rename guards
           against: a complete-looking CALIB_<hash>.json holding only a
           prefix of the bytes *)
        let s = populated () in
        let json = Store.to_json_string s in
        write_file (Store.path s) (String.sub json 0 (String.length json / 2));
        let l, warn =
          Store.load ~pdl_hash:(Store.pdl_hash s)
            ~platform:(Store.platform s) ()
        in
        check bool_ "torn file warns" true (warn <> None);
        check int_ "torn file loads as empty" 0 (Store.total_samples l);
        (* recovery: repopulate and save over the torn file *)
        Store.observe l ~codelet:"dgemm" ~pu:"cpu0" ~flops:1e9 ~seconds:0.5;
        Store.save l;
        let l2, warn2 =
          Store.load ~pdl_hash:(Store.pdl_hash s)
            ~platform:(Store.platform s) ()
        in
        check (Alcotest.option string_) "clean after re-save" None warn2;
        check int_ "re-saved samples load" (Store.total_samples l)
          (Store.total_samples l2);
        Sys.remove (Store.path s));
  ]

let truncation_never_crashes =
  QCheck.Test.make ~name:"truncated store never crashes the loader"
    ~count:60
    QCheck.(int_range 0 2000)
    (fun cut ->
      let s = populated () in
      let json = Store.to_json_string s in
      let cut = min cut (String.length json) in
      write_file (Store.path s) (String.sub json 0 cut);
      let l, warn =
        Store.load ~pdl_hash:(Store.pdl_hash s) ~platform:(Store.platform s)
          ()
      in
      Sys.remove (Store.path s);
      if cut = String.length json then
        warn = None && Store.total_samples l = Store.total_samples s
      else warn <> None && Store.total_samples l = 0)

let garbage_never_crashes =
  QCheck.Test.make ~name:"arbitrary bytes never crash the loader" ~count:60
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun junk ->
      let s = mk_store () in
      write_file (Store.path s) junk;
      let l, _warn =
        Store.load ~pdl_hash:(Store.pdl_hash s) ~platform:(Store.platform s)
          ()
      in
      Sys.remove (Store.path s);
      Store.total_samples l >= 0)

(* ------------------------------------------------------------------ *)
(* Schema: the persisted document matches schemas/calibration.schema   *)

module J = Obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_hex16 v =
  String.length v = 16
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       v

(* A small validator covering exactly the JSON-Schema subset the
   calibration schema uses: const, type, enum, pattern (the hex-16
   hash), required, properties, additionalProperties:false, items,
   minimum, exclusiveMinimum. *)
let schema_errors schema doc =
  let errs = ref [] in
  let err path msg = errs := Printf.sprintf "%s: %s" path msg :: !errs in
  let rec go path s d =
    (match J.member "const" s with
    | Some c -> if c <> d then err path "const mismatch"
    | None -> ());
    (match J.member "type" s with
    | Some (J.Str ty) ->
        let ok =
          match (ty, d) with
          | "object", J.Obj _ -> true
          | "array", J.Arr _ -> true
          | "string", J.Str _ -> true
          | "number", J.Num _ -> true
          | "integer", J.Num x -> Float.is_integer x
          | _ -> false
        in
        if not ok then err path ("expected " ^ ty)
    | _ -> ());
    (match J.member "enum" s with
    | Some (J.Arr vs) -> if not (List.mem d vs) then err path "not in enum"
    | _ -> ());
    (match (J.member "pattern" s, d) with
    | Some (J.Str "^[0-9a-f]{16}$"), J.Str v ->
        if not (is_hex16 v) then err path "pattern mismatch"
    | Some _, _ -> err path "unsupported pattern"
    | None, _ -> ());
    (match (J.member "minimum" s, d) with
    | Some (J.Num m), J.Num x -> if x < m then err path "below minimum"
    | _ -> ());
    (match (J.member "exclusiveMinimum" s, d) with
    | Some (J.Num m), J.Num x ->
        if x <= m then err path "not above exclusiveMinimum"
    | _ -> ());
    match d with
    | J.Obj fields ->
        (match J.member "required" s with
        | Some (J.Arr reqs) ->
            List.iter
              (function
                | J.Str r ->
                    if not (List.mem_assoc r fields) then
                      err path ("missing required " ^ r)
                | _ -> ())
              reqs
        | _ -> ());
        let props =
          match J.member "properties" s with Some (J.Obj p) -> p | _ -> []
        in
        (match J.member "additionalProperties" s with
        | Some (J.Bool false) ->
            List.iter
              (fun (k, _) ->
                if not (List.mem_assoc k props) then
                  err path ("unexpected property " ^ k))
              fields
        | _ -> ());
        List.iter
          (fun (k, sub) ->
            match List.assoc_opt k fields with
            | Some v -> go (path ^ "." ^ k) sub v
            | None -> ())
          props
    | J.Arr items -> (
        match J.member "items" s with
        | Some isch ->
            List.iteri
              (fun i v -> go (Printf.sprintf "%s[%d]" path i) isch v)
              items
        | None -> ())
    | _ -> ()
  in
  go "$" schema doc;
  List.rev !errs

let load_schema () =
  match J.parse (read_file "../../schemas/calibration.schema.json") with
  | Ok s -> s
  | Error e -> Alcotest.fail ("schema is not valid JSON: " ^ e)

let schema_tests =
  [
    Alcotest.test_case "schema file itself parses" `Quick (fun () ->
        ignore (load_schema ()));
    Alcotest.test_case "a populated store validates" `Quick (fun () ->
        let schema = load_schema () in
        let doc =
          match J.parse (Store.to_json_string (populated ())) with
          | Ok d -> d
          | Error e -> Alcotest.fail ("store JSON unparseable: " ^ e)
        in
        check (Alcotest.list string_) "no violations" []
          (schema_errors schema doc));
    Alcotest.test_case "an empty store validates" `Quick (fun () ->
        let schema = load_schema () in
        let doc =
          match J.parse (Store.to_json_string (mk_store ())) with
          | Ok d -> d
          | Error e -> Alcotest.fail ("store JSON unparseable: " ^ e)
        in
        check (Alcotest.list string_) "no violations" []
          (schema_errors schema doc));
    Alcotest.test_case "the validator does reject bad documents" `Quick
      (fun () ->
        let schema = load_schema () in
        let bad =
          J.Obj
            [
              ("version", J.Num 1.0); ("pdl_hash", J.Str "NOT-A-HASH");
              ("platform", J.Str "p"); ("cells", J.Arr []);
              ("extra", J.Bool true);
            ]
        in
        check bool_ "violations found" true (schema_errors schema bad <> []));
  ]

(* ------------------------------------------------------------------ *)
(* GEMM autotuner plumbing (searches themselves run in bench)          *)

let gemm_tests =
  [
    Alcotest.test_case "blocking <-> store config round-trip" `Quick
      (fun () ->
        List.iter
          (fun b ->
            let cfg = Gemm_tune.cfg_of_blocking ~gflops:1.0 b in
            check bool_ "round-trips" true
              (Gemm_tune.blocking_of_cfg cfg = Some b))
          (Gemm_tune.candidates ()));
    Alcotest.test_case "invalid stored config is rejected" `Quick (fun () ->
        check bool_ "bad micro" true
          (Gemm_tune.blocking_of_cfg
             { Store.g_mc = 64; g_kc = 64; g_nc = 64; g_micro = "sse9";
               g_gflops = 1.0 }
          = None);
        check bool_ "bad block" true
          (Gemm_tune.blocking_of_cfg
             { Store.g_mc = 0; g_kc = 64; g_nc = 64; g_micro = "avx2";
               g_gflops = 1.0 }
          = None));
    Alcotest.test_case "set_blocking validates" `Quick (fun () ->
        match
          GK.set_blocking { GK.bmc = 0; bkc = 1; bnc = 1; bmicro = GK.Avx2 }
        with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ ->
            check bool_ "unchanged" true
              (GK.current_blocking () = (GK.default_blocking ())));
    Alcotest.test_case "set_blocking refuses a micro-kernel the CPU lacks"
      `Quick (fun () ->
        GK.as_avx2_host (fun () ->
            check bool_ "avx2 default" true
              ((GK.default_blocking ()).GK.bmicro = GK.Avx2);
            match
              GK.set_blocking
                { (GK.default_blocking ()) with GK.bmicro = GK.Avx512 }
            with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ ->
                check bool_ "unchanged" true
                  (GK.current_blocking () = GK.default_blocking ()));
        check bool_ "probed default restored" true
          (GK.current_blocking () = GK.default_blocking ()));
    Alcotest.test_case "the tuner screens only micro-kernels the CPU runs"
      `Quick (fun () ->
        check bool_ "host candidates" true
          (List.for_all
             (fun b -> GK.micro_supported b.GK.bmicro)
             (Gemm_tune.candidates ()));
        GK.as_avx2_host (fun () ->
            let r =
              Gemm_tune.search ~sizes:[ 32 ] ~screen_size:32 ~reps:1 ()
            in
            let micros =
              List.map (fun t -> t.Gemm_tune.t_blocking.GK.bmicro) r.table
            in
            check bool_ "no avx512 candidate" true
              (List.for_all
                 (fun b -> b.GK.bmicro <> GK.Avx512)
                 (Gemm_tune.candidates ()));
            check bool_ "no avx512 finalist" true
              (not (List.mem GK.Avx512 micros));
            check bool_ "winner runnable" true
              (r.Gemm_tune.best.GK.bmicro <> GK.Avx512)));
    Alcotest.test_case "apply installs the stored blocking" `Quick (fun () ->
        let s = mk_store () in
        check bool_ "nothing to apply" false (Gemm_tune.apply s);
        Store.set_gemm_config s
          { Store.g_mc = 128; g_kc = 256; g_nc = 512; g_micro = "portable";
            g_gflops = 2.0 };
        check bool_ "applied" true (Gemm_tune.apply s);
        check bool_ "installed" true
          (GK.current_blocking ()
          = { GK.bmc = 128; bkc = 256; bnc = 512; bmicro = GK.Portable });
        GK.reset_blocking ();
        check bool_ "reset" true
          (GK.current_blocking () = (GK.default_blocking ())));
    Alcotest.test_case "ensure searches once, then applies" `Quick (fun () ->
        let s = mk_store () in
        let r =
          Gemm_tune.ensure ~sizes:[ 64 ] ~screen_size:64 ~reps:1
            ~candidates:[ (GK.default_blocking ()) ] s
        in
        check bool_ "first call searched" true (r <> None);
        check bool_ "winner recorded" true (Store.gemm_config s <> None);
        let r2 =
          Gemm_tune.ensure ~sizes:[ 64 ] ~screen_size:64 ~reps:1
            ~candidates:[ (GK.default_blocking ()) ] s
        in
        check bool_ "second call applied the record" true (r2 = None);
        GK.reset_blocking ());
    Alcotest.test_case "search restores the installed blocking" `Quick
      (fun () ->
        let before = GK.current_blocking () in
        let r =
          Gemm_tune.search ~sizes:[ 64 ] ~screen_size:64 ~reps:1
            ~candidates:[ (GK.default_blocking ()) ] ()
        in
        check bool_ "restored" true (GK.current_blocking () = before);
        check bool_ "a lone default candidate wins within the guard" true
          (r.Gemm_tune.best = (GK.default_blocking ()) && r.Gemm_tune.guard_ok));
  ]

let portable_micro_correct =
  QCheck.Test.make ~name:"portable micro-kernel matches naive" ~count:15
    QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 1 40))
    (fun (m, k, n) ->
      let a = Matrix.random ~seed:m m k and b = Matrix.random ~seed:n k n in
      let c1 = Matrix.random ~seed:(m + n) m n in
      let c2 = Matrix.copy c1 in
      Kernels.Blas.dgemm_naive ~alpha:1.25 ~beta:0.5 a b c1;
      GK.set_blocking { GK.bmc = 8; bkc = 12; bnc = 16; bmicro = GK.Portable };
      Fun.protect ~finally:GK.reset_blocking (fun () ->
          Kernels.Blas.dgemm_packed ~alpha:1.25 ~beta:0.5 a b c2);
      Matrix.approx_equal c1 c2)

(* ------------------------------------------------------------------ *)
(* Engine integration: learned models drive HEFT                       *)

let run_noops ?tune ?explore_eps ?true_gflops n =
  let rt =
    Engine.create ~policy:Engine.Heft ~execute_kernels:false ?tune
      ?explore_eps ?true_gflops (cfg_2gpu ())
  in
  let cl =
    Taskrt.Codelet.noop ~name:"cal" ~flops:1e9 ~archs:[ "cpu"; "gpu" ]
  in
  for _ = 1 to n do
    let h = Taskrt.Data.register_virtual ~rows:8 ~cols:8 () in
    Engine.submit rt cl [ (h, Taskrt.Codelet.RW) ]
  done;
  let stats = Engine.wait_all rt in
  (stats, Engine.calibration rt)

let engine_tests =
  [
    Alcotest.test_case "true_gflops validates its targets" `Quick (fun () ->
        (match run_noops ~true_gflops:[ ("no-such-worker", 5.0) ] 1 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        match run_noops ~true_gflops:[ ("gpu0", 0.0) ] 1 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "no store means no calibration counters" `Quick
      (fun () ->
        let _, cal = run_noops 8 in
        check int_ "empty" 0 (List.length cal));
    Alcotest.test_case "cold store falls back to declared speeds" `Quick
      (fun () ->
        let s = mk_store () in
        let _, cal = run_noops ~tune:s ~explore_eps:0.0 10 in
        match cal with
        | [ c ] ->
            check string_ "codelet" "cal" c.Engine.cs_codelet;
            check int_ "all static" 10 c.Engine.cs_static_fallbacks;
            check int_ "no hits" 0 c.Engine.cs_model_hits;
            check int_ "samples fed back" 10 (Store.total_samples s)
        | _ -> Alcotest.fail "expected one codelet entry");
    Alcotest.test_case "warm store prices from the model" `Quick (fun () ->
        let s = mk_store () in
        ignore (run_noops ~tune:s ~explore_eps:0.0 40);
        let _, cal = run_noops ~tune:s ~explore_eps:0.0 10 in
        match cal with
        | [ c ] ->
            check bool_ "model hits" true (c.Engine.cs_model_hits > 0);
            check int_ "accounted" 10
              (c.Engine.cs_model_hits + c.Engine.cs_static_fallbacks)
        | _ -> Alcotest.fail "expected one codelet entry");
    Alcotest.test_case "eps=1 on a cold store always explores" `Quick
      (fun () ->
        let s = mk_store () in
        let _, cal = run_noops ~tune:s ~explore_eps:1.0 6 in
        match cal with
        | [ c ] -> check int_ "all explored" 6 c.Engine.cs_explorations
        | _ -> Alcotest.fail "expected one codelet entry");
    Alcotest.test_case "learned models beat a skewed declaration" `Quick
      (fun () ->
        (* GPUs declared fast, actually 4x slower. *)
        let cfg = cfg_2gpu () in
        let true_gflops =
          Array.to_list cfg.Taskrt.Machine_config.workers
          |> List.filter_map (fun (w : Taskrt.Machine_config.worker) ->
                 if w.Taskrt.Machine_config.w_arch = "gpu" then
                   Some
                     ( w.Taskrt.Machine_config.w_name,
                       w.Taskrt.Machine_config.w_gflops /. 4.0 )
                 else None)
        in
        let model ?tune () =
          (Taskrt.Tiled_dgemm.run_model ~policy:Engine.Heft ~tiles:8
             ~true_gflops ?tune cfg ~n:8192)
            .Taskrt.Tiled_dgemm.stats
            .Engine.makespan
        in
        let static = model () in
        let s = mk_store () in
        for _ = 1 to 3 do
          ignore (model ~tune:s ())
        done;
        let learned = model ~tune:s () in
        check bool_ "learned strictly better" true (learned < static);
        check bool_ "by at least 5%" true (learned <= static *. 0.95));
  ]

let calibrated_runs_deterministic =
  QCheck.Test.make ~name:"calibrated scheduling is deterministic" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 8 12))
    (fun (tiles, logn) ->
      let n = 1 lsl logn in
      let once () =
        let s = mk_store () in
        let cfg = cfg_2gpu () in
        ignore
          (Taskrt.Tiled_dgemm.run_model ~policy:Engine.Heft ~tiles ~tune:s
             cfg ~n);
        let r =
          Taskrt.Tiled_dgemm.run_model ~policy:Engine.Heft ~tiles ~tune:s cfg
            ~n
        in
        (r.Taskrt.Tiled_dgemm.stats.Engine.makespan, Store.total_samples s)
      in
      once () = once ())

let warm_bit_identical =
  QCheck.Test.make ~name:"warm-store execution is bit-identical to cold"
    ~count:10
    QCheck.(pair (int_range 8 64) (int_range 1 3))
    (fun (n, tiles) ->
      let a = Matrix.random ~seed:n n n
      and b = Matrix.random ~seed:(n * 3) n n in
      let cfg = cfg_2gpu () in
      let cold =
        Option.get
          (Taskrt.Tiled_dgemm.run ~policy:Engine.Heft ~tiles cfg ~a ~b)
            .Taskrt.Tiled_dgemm.c
      in
      let s = mk_store () in
      ignore (Taskrt.Tiled_dgemm.run ~policy:Engine.Heft ~tiles ~tune:s cfg ~a ~b);
      let warm =
        Option.get
          (Taskrt.Tiled_dgemm.run ~policy:Engine.Heft ~tiles ~tune:s cfg ~a
             ~b)
            .Taskrt.Tiled_dgemm.c
      in
      Matrix.max_abs_diff cold warm = 0.0)

(* ------------------------------------------------------------------ *)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tune"
    [
      ("buckets", bucket_tests);
      ("estimate", estimate_tests);
      ("persistence", persistence_tests);
      ("schema", schema_tests);
      ("gemm", gemm_tests);
      ("engine", engine_tests);
      ( "properties",
        qt
          [
            bucket_inverse; truncation_never_crashes; garbage_never_crashes;
            portable_micro_correct; calibrated_runs_deterministic;
            warm_bit_identical;
          ]
      );
    ]

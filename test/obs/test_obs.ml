(* Unit tests for the obs telemetry library: ring-buffer semantics
   (overwrite, multi-domain), histogram quantiles, counter gating,
   the JSON parser, and the Chrome trace round-trip. *)

(* Small rings make overwrite behavior cheap to exercise.  Must run
   before any span is recorded: a domain's ring is created with the
   capacity in force at its first record. *)
let () = Obs.Span.set_ring_capacity 128

let fresh () =
  Obs.Config.set_enabled true;
  Obs.Export.reset_all ()

(* --- spans / rings -------------------------------------------------- *)

let test_disabled_records_nothing () =
  fresh ();
  Obs.Config.set_enabled false;
  let sp = Obs.Span.start () in
  Alcotest.(check int) "start returns 0 when off" 0 sp;
  Obs.Span.record ~cat:"t" ~name:"x" sp;
  Obs.Span.instant ~cat:"t" ~name:"y" ();
  Alcotest.(check int) "no events" 0 (List.length (Obs.Span.events ()))

let test_ring_overwrite () =
  fresh ();
  let cap = Obs.Span.ring_capacity () in
  Alcotest.(check int) "test capacity" 128 cap;
  for i = 1 to 200 do
    Obs.Span.record_interval ~cat:"t"
      ~name:(Printf.sprintf "s%d" i)
      i (i + 1)
  done;
  let evs =
    List.filter (fun (e : Obs.Span.event) -> e.ev_cat = "t") (Obs.Span.events ())
  in
  Alcotest.(check int) "keeps newest cap events" cap (List.length evs);
  (match evs with
  | e :: _ -> Alcotest.(check string) "oldest survivor" "s73" e.ev_name
  | [] -> Alcotest.fail "no events");
  (match List.rev evs with
  | e :: _ -> Alcotest.(check string) "newest" "s200" e.ev_name
  | [] -> Alcotest.fail "no events");
  (match Obs.Span.ring_stats () with
  | (_, pushed, c) :: _ ->
      Alcotest.(check int) "pushed total" 200 pushed;
      Alcotest.(check int) "ring capacity" 128 c
  | [] -> Alcotest.fail "no rings")

let test_span_nesting_wellformed () =
  fresh ();
  let outer = Obs.Span.start () in
  let inner = Obs.Span.start () in
  (* burn a few cycles so the intervals are non-degenerate *)
  let acc = ref 0 in
  for i = 1 to 10_000 do
    acc := !acc + i
  done;
  ignore !acc;
  Obs.Span.record ~cat:"n" ~name:"inner" inner;
  Obs.Span.record ~cat:"n" ~name:"outer" outer;
  let find name =
    List.find (fun (e : Obs.Span.event) -> e.ev_name = name) (Obs.Span.events ())
  in
  let i = find "inner" and o = find "outer" in
  Alcotest.(check bool) "inner within outer" true
    (o.ev_t0 <= i.ev_t0 && i.ev_t1 <= o.ev_t1);
  Alcotest.(check bool) "same domain lane" true (i.ev_dom = o.ev_dom)

(* Four domains record into their own rings concurrently; after the
   join each ring holds exactly min(n, capacity) untorn events in
   push order. *)
let test_concurrent_rings =
  QCheck.Test.make ~count:10 ~name:"ring: 4 domains record without tearing"
    QCheck.(int_range 1 500)
    (fun n ->
      Obs.Config.set_enabled true;
      Obs.Span.clear ();
      let doms =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                let name = "d" ^ string_of_int d in
                for i = 1 to n do
                  Obs.Span.record_interval ~cat:"c" ~name i (i + 1)
                done;
                (Domain.self () :> int)))
      in
      let ids = List.map Domain.join doms in
      let events = Obs.Span.events () in
      let cap = Obs.Span.ring_capacity () in
      List.for_all
        (fun id ->
          let evs =
            List.filter (fun (e : Obs.Span.event) -> e.ev_dom = id) events
          in
          List.length evs = min n cap
          && List.for_all (fun (e : Obs.Span.event) -> e.ev_t1 = e.ev_t0 + 1) evs
          && fst
               (List.fold_left
                  (fun (ok, prev) (e : Obs.Span.event) ->
                    (ok && e.ev_t0 = prev + 1, e.ev_t0))
                  (true, max 0 (n - cap))
                  evs))
        ids)

(* --- counters ------------------------------------------------------- *)

let test_counter_gating () =
  fresh ();
  let c = Obs.Counter.make "test_counter" in
  Obs.Config.set_enabled false;
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Alcotest.(check int) "disabled: no counts" 0 (Obs.Counter.value c);
  Obs.Config.set_enabled true;
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "enabled: counts" 5 (Obs.Counter.value c);
  Alcotest.(check bool) "registered" true
    (List.exists (fun c -> Obs.Counter.name c = "test_counter")
       (Obs.Counter.all ()));
  let again = Obs.Counter.make "test_counter" in
  Obs.Counter.incr again;
  Alcotest.(check int) "make is idempotent by name" 6 (Obs.Counter.value c);
  Obs.Counter.reset_all ();
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c)

(* --- histograms ----------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Obs.Histogram.create () in
  for i = 1 to 1000 do
    Obs.Histogram.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum exact" 500.5 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-12)) "min exact" 0.001 (Obs.Histogram.min_value h);
  Alcotest.(check (float 1e-12)) "max exact" 1.0 (Obs.Histogram.max_value h);
  let p50 = Obs.Histogram.percentile h 50.0
  and p95 = Obs.Histogram.percentile h 95.0
  and p99 = Obs.Histogram.percentile h 99.0 in
  let close ~q est truth =
    Alcotest.(check bool)
      (Printf.sprintf "p%g within bucket error (got %g, want ~%g)" q est truth)
      true
      (Float.abs (est -. truth) /. truth < 0.12)
  in
  close ~q:50.0 p50 0.5;
  close ~q:95.0 p95 0.95;
  close ~q:99.0 p99 0.99;
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p95 && p95 <= p99)

let test_histogram_single_value () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.observe h 0.0371;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%g clamps to the single value" q)
        0.0371
        (Obs.Histogram.percentile h q))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ]

let test_histogram_merge () =
  let h1 = Obs.Histogram.create () and h2 = Obs.Histogram.create () in
  for i = 1 to 100 do
    Obs.Histogram.observe h1 (float_of_int i /. 1000.0);
    Obs.Histogram.observe h2 (float_of_int (i + 900) /. 1000.0)
  done;
  Obs.Histogram.merge ~into:h1 h2;
  Alcotest.(check int) "merged count" 200 (Obs.Histogram.count h1);
  Alcotest.(check (float 1e-12)) "merged min" 0.001 (Obs.Histogram.min_value h1);
  Alcotest.(check (float 1e-12)) "merged max" 1.0 (Obs.Histogram.max_value h1)

let test_histogram_buckets () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 0.001; 0.00102; 0.5; 0.5; 0.5 ];
  (* bucket_bounds is the inverse of bucket_of: every observed value
     falls inside its own bucket's range. *)
  List.iter
    (fun v ->
      let i = Obs.Histogram.bucket_of v in
      let lo, hi = Obs.Histogram.bucket_bounds i in
      Alcotest.(check bool)
        (Printf.sprintf "%g inside bucket %d [%g, %g)" v i lo hi)
        true
        (lo <= v && v < hi))
    [ 0.001; 0.00102; 0.5 ];
  (match Obs.Histogram.nonzero_buckets h with
  | [ (i1, 2); (i2, 3) ] ->
      Alcotest.(check bool) "ascending" true (i1 < i2);
      Alcotest.(check int) "counts via bucket_count" 2
        (Obs.Histogram.bucket_count h i1);
      Alcotest.(check int) "counts via bucket_count" 3
        (Obs.Histogram.bucket_count h i2)
  | other ->
      Alcotest.failf "expected two nonzero buckets, got %d"
        (List.length other));
  match Obs.Histogram.bucket_count h (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_histogram_named_gating () =
  fresh ();
  Obs.Config.set_enabled false;
  Obs.Histogram.observe_named "test_hist" 0.5;
  Obs.Config.set_enabled true;
  Obs.Histogram.observe_named "test_hist" 0.25;
  let h = Obs.Histogram.get_or_make "test_hist" in
  Alcotest.(check int) "only the enabled observation" 1
    (Obs.Histogram.count h)

(* --- JSON parser ---------------------------------------------------- *)

let test_json_values () =
  let open Obs.Json in
  (match parse "[1, 2.5, -3e2, \"x\", true, false, null]" with
  | Ok (Arr [ Num 1.0; Num 2.5; Num -300.0; Str "x"; Bool true; Bool false;
              Null ]) ->
      ()
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  (match parse "{\"a\": {\"b\": [\"c\\u0041\\n\"]}}" with
  | Ok doc -> (
      match Option.bind (member "a" doc) (member "b") with
      | Some (Arr [ Str s ]) -> Alcotest.(check string) "escapes" "cA\n" s
      | _ -> Alcotest.fail "lookup failed")
  | Error e -> Alcotest.fail e)

let test_json_rejects () =
  List.iter
    (fun doc ->
      match Obs.Json.parse doc with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" doc)
      | Error _ -> ())
    [ "{"; "[1,]"; "123abc"; "{\"a\":1} trailing"; "\"unterminated"; "" ]

(* The reader accepts only the JSON grammar: [int_of_string] used to
   let "\u0_41" decode to "A", and [float_of_string] let +1, 01, 1.
   and .5 through. *)
let test_json_strict () =
  List.iter
    (fun doc ->
      match Obs.Json.parse doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error _ -> ())
    [ "\"\\u0_41\""; "+1"; "01"; "1."; ".5"; "\"\\u00g1\""; "-"; "1e";
      "1e+"; "-01"; "\"a\tb\"" ];
  List.iter
    (fun (doc, want) ->
      match Obs.Json.parse doc with
      | Ok (Obs.Json.Num x) -> Alcotest.(check (float 0.)) doc want x
      | _ -> Alcotest.failf "rejected %S" doc)
    [ ("0", 0.); ("-0", -0.); ("10", 10.); ("0.5", 0.5); ("-1.5e-3", -1.5e-3);
      ("1E+5", 1e5); ("2e0", 2.) ];
  match Obs.Json.parse "\"\\u00e9\\u0041\"" with
  | Ok (Obs.Json.Str s) -> Alcotest.(check string) "\\u escapes" "\xc3\xa9A" s
  | _ -> Alcotest.fail "four-digit \\u escapes refused"

let test_json_non_finite () =
  Alcotest.(check string) "nan and infinities are written as null"
    "[null,null,null,1]"
    (Obs.Json.(
       to_text (Arr [ Num Float.nan; Num infinity; Num neg_infinity; Num 1. ])))

(* Bitwise float equality, so -0. must come back as -0. *)
let rec same_json a b =
  let open Obs.Json in
  match (a, b) with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr xs, Arr ys -> List.equal same_json xs ys
  | Obj xs, Obj ys ->
      List.equal (fun (k, v) (k', v') -> k = k' && same_json v v') xs ys
  | _ -> a = b

(* Values whose nesting depth is drawn from 0..10: each level holds
   one child of the next depth among shallow siblings. Keys and
   strings are arbitrary bytes; floats are finite, with -0.,
   subnormals and the extremes drawn often. *)
let gen_json =
  let open QCheck.Gen in
  let open Obs.Json in
  let bytes = string_size ~gen:char (int_bound 8) in
  let num =
    oneof
      [ oneofl
          [ 0.; -0.; 5e-324; -5e-324; 2.2250738585072009e-308; Float.min_float;
            max_float; -.max_float; 0.1; 1e15; -1e15; 9007199254740992. ];
        map float_of_int int;
        map Int64.float_of_bits ui64 ]
    >|= fun x -> if Float.is_finite x then x else 0.5
  in
  let leaf =
    oneof
      [ return Null; map (fun b -> Bool b) bool; map (fun x -> Num x) num;
        map (fun s -> Str s) bytes ]
  in
  let rec nested depth =
    if depth = 0 then leaf
    else
      let siblings = list_size (int_bound 2) leaf in
      triple siblings (nested (depth - 1)) siblings >>= fun (pre, deep, post) ->
      let items = pre @ (deep :: post) in
      oneof
        [ return (Arr items);
          map
            (fun keys -> Obj (List.combine keys items))
            (list_repeat (List.length items) bytes) ]
  in
  int_range 0 10 >>= nested

let test_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse inverts to_text"
    (QCheck.make ~print:Obs.Json.to_text gen_json)
    (fun v ->
      match Obs.Json.parse (Obs.Json.to_text v) with
      | Ok v' -> same_json v v'
      | Error _ -> false)

(* Mutations of written documents, and soup over JSON's own alphabet,
   reach the reader's error paths far more often than uniform bytes. *)
let mutate_gen text =
  let open QCheck.Gen in
  let alphabet = "{}[]\",:0123456789-+.eE \t\n\\/ubfnrtalse\x00\x1f\xc3" in
  let one s =
    let n = String.length s in
    int_bound (max 0 n) >>= fun i ->
    let rest k = String.sub s k (n - k) in
    oneof
      [ (* delete *)
        return (if i < n then String.sub s 0 i ^ rest (i + 1) else s);
        (* insert *)
        map
          (fun c -> String.sub s 0 i ^ String.make 1 c ^ rest i)
          (oneofl (List.init (String.length alphabet) (String.get alphabet)));
        (* truncate *)
        return (String.sub s 0 i) ]
  in
  int_range 1 4 >>= fun k ->
  let rec go k s = if k = 0 then return s else one s >>= go (k - 1) in
  go k text

let gen_json_bytes =
  let open QCheck.Gen in
  let soup =
    let alphabet = "{}[]\",:0123456789-+.eE \t\n\\/utrfalsn" in
    string_size
      ~gen:(oneofl (List.init (String.length alphabet) (String.get alphabet)))
      (int_bound 40)
  in
  frequency
    [ (3, gen_json >>= fun v -> mutate_gen (Obs.Json.to_text v));
      (2, soup);
      (1, string_size ~gen:char (int_bound 40)) ]

let arb_json_bytes = QCheck.make ~print:(Printf.sprintf "%S") gen_json_bytes

let test_json_total =
  QCheck.Test.make ~count:2000 ~name:"parse never raises on mutated bytes"
    arb_json_bytes (fun s ->
      match Obs.Json.parse s with Ok _ | Error _ -> true)

(* The scanning reader against the byte-at-a-time one it replaced: the
   same value (floats compared bit for bit) or the same error text. *)
let test_json_oracle =
  QCheck.Test.make ~count:2000 ~name:"parse agrees with the reference reader"
    arb_json_bytes (fun s ->
      match (Obs.Json.parse s, Json_oracle.parse s) with
      | Ok a, Ok b -> same_json a b
      | Error a, Error b ->
          a = b || QCheck.Test.fail_reportf "errors differ: %S vs %S" a b
      | Ok _, Error e ->
          QCheck.Test.fail_reportf "only the reference refused: %s" e
      | Error e, Ok _ ->
          QCheck.Test.fail_reportf "only the reference accepted: %s" e)

let test_json_depth () =
  let nest d = String.make d '[' ^ String.make d ']' in
  let cap = Obs.Json.max_depth in
  (match Obs.Json.parse (nest cap) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth %d refused: %s" cap e);
  (match Obs.Json.parse (nest (cap + 1)) with
  | Ok _ -> Alcotest.failf "depth %d accepted" (cap + 1)
  | Error e ->
      Alcotest.(check string) "error text"
        (Printf.sprintf "at offset %d: nesting deeper than %d" cap cap) e);
  match Obs.Json.parse (String.make (1 lsl 20) '{') with
  | Ok _ -> Alcotest.fail "a megabyte of '{' accepted"
  | Error _ -> ()

(* --- Chrome export round-trip --------------------------------------- *)

let test_chrome_roundtrip () =
  fresh ();
  (* Synthetic nested intervals plus a name that needs escaping. *)
  Obs.Span.record_interval ~cat:"t" ~name:"inner" ~args:"k=v" 2_000 3_000;
  Obs.Span.record_interval ~cat:"t" ~name:"outer" 1_000 5_000;
  Obs.Span.record_interval ~cat:"t" ~name:"we\"ird\\name\n" 6_000 7_000;
  Obs.Span.record_interval ~cat:"t" ~name:"mark" 8_000 8_000;
  let doc = Obs.Export.to_chrome_json [] in
  match Obs.Json.parse doc with
  | Error e -> Alcotest.fail ("emitted trace does not parse: " ^ e)
  | Ok json ->
      let evs =
        match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list
        with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let name e =
        match Obs.Json.member "name" e with
        | Some (Obs.Json.Str s) -> s
        | _ -> ""
      in
      let ph e =
        match Obs.Json.member "ph" e with
        | Some (Obs.Json.Str s) -> s
        | _ -> ""
      in
      let num k e =
        match Option.bind (Obs.Json.member k e) Obs.Json.to_number with
        | Some f -> f
        | None -> Alcotest.fail ("missing number " ^ k)
      in
      Alcotest.(check bool) "escaped name round-trips" true
        (List.exists (fun e -> name e = "we\"ird\\name\n") evs);
      Alcotest.(check bool) "zero-duration span becomes an instant" true
        (List.exists (fun e -> name e = "mark" && ph e = "i") evs);
      let find n = List.find (fun e -> name e = n && ph e = "X") evs in
      let inner = find "inner" and outer = find "outer" in
      Alcotest.(check bool) "nesting preserved in the export" true
        (num "ts" inner >= num "ts" outer
        && num "ts" inner +. num "dur" inner
           <= num "ts" outer +. num "dur" outer);
      (match Option.bind (Obs.Json.member "args" inner) (Obs.Json.member "detail")
       with
      | Some (Obs.Json.Str s) -> Alcotest.(check string) "args kept" "k=v" s
      | _ -> Alcotest.fail "inner args lost")

let contains text sub =
  let n = String.length sub and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_prometheus_exposition () =
  fresh ();
  let c = Obs.Counter.make "prom_counter" in
  Obs.Counter.add c 7;
  Obs.Histogram.observe_named "prom_hist" 0.125;
  let text = Obs.Export.prometheus () in
  let has = contains text in
  Alcotest.(check bool) "counter line" true
    (has "# TYPE obs_prom_counter_total counter" && has "obs_prom_counter_total 7");
  Alcotest.(check bool) "summary type" true
    (has "# TYPE obs_prom_hist_seconds summary");
  Alcotest.(check bool) "quantile labels" true
    (has "obs_prom_hist_seconds{quantile=\"0.5\"}");
  Alcotest.(check bool) "count line" true (has "obs_prom_hist_seconds_count 1")

(* --- trace context -------------------------------------------------- *)

let test_trace_ctx_codec () =
  Obs.Trace_ctx.set_seed 0x5eedL;
  let a = Obs.Trace_ctx.make () in
  Obs.Trace_ctx.set_seed 0x5eedL;
  let b = Obs.Trace_ctx.make () in
  Alcotest.(check bool) "seeded generation is deterministic" true (a = b);
  Alcotest.(check bool) "to_string/of_string round-trip" true
    (Obs.Trace_ctx.of_string (Obs.Trace_ctx.to_string a) = Some a);
  Alcotest.(check bool) "a bare trace id decodes with span 0" true
    (match Obs.Trace_ctx.of_string "00000000deadbeef" with
    | Some c ->
        Obs.Trace_ctx.to_string c = "00000000deadbeef-0000000000000000"
    | None -> false);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Obs.Trace_ctx.of_string s = None))
    [
      ""; "xyz"; "0000000000000000"; "00000000deadbeef-";
      "-0000000000000001"; "00000000deadbeef-00000000000000010";
      "00000000deadbeef 0000000000000001";
    ]

(* The Printf/Scanf codec the hand-written hex replaced, as an oracle. *)
let ref_to_string (t : Obs.Trace_ctx.t) =
  Printf.sprintf "%016Lx-%016Lx" t.trace_id t.span_id

let ref_of_string s =
  let hex64 s =
    if s = "" || String.length s > 16
       || not (String.for_all (function
                 | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                 | _ -> false) s)
    then None
    else try Some (Scanf.sscanf s "%Lx%!" Fun.id) with _ -> None
  in
  let ctx tid sid =
    if tid = 0L then None
    else Some { Obs.Trace_ctx.trace_id = tid; span_id = sid }
  in
  match String.index_opt s '-' with
  | None -> Option.bind (hex64 s) (fun t -> ctx t 0L)
  | Some i -> (
      match
        ( hex64 (String.sub s 0 i),
          hex64 (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some t, Some sp -> ctx t sp
      | _ -> None)

let test_trace_ctx_oracle =
  let open QCheck.Gen in
  let hex = oneofl (String.to_seq "0123456789abcdefABCDEF-xg " |> List.of_seq) in
  let text =
    oneof
      [ map2
          (fun a b -> ref_to_string { Obs.Trace_ctx.trace_id = a; span_id = b })
          ui64 ui64;
        string_size ~gen:hex (int_bound 36) ]
  in
  QCheck.Test.make ~count:2000 ~name:"hex codec agrees with Printf/Scanf"
    (QCheck.make ~print:(Printf.sprintf "%S") text) (fun s ->
      let parsed = Obs.Trace_ctx.of_string s in
      parsed = ref_of_string s
      && Option.fold ~none:true
           ~some:(fun c -> Obs.Trace_ctx.to_string c = ref_to_string c)
           parsed)

let test_trace_ctx_ambient () =
  let ctx = Option.get (Obs.Trace_ctx.of_string "00000000000000ff-01") in
  Alcotest.(check int) "flow id folds the trace id" 255
    (Obs.Trace_ctx.flow_id ctx);
  Alcotest.(check int) "no ambient flow outside" 0
    (Obs.Trace_ctx.current_flow ());
  let seen =
    Obs.Trace_ctx.with_current ctx (fun () -> Obs.Trace_ctx.current_flow ())
  in
  Alcotest.(check int) "ambient flow inside with_current" 255 seen;
  Alcotest.(check int) "restored after" 0 (Obs.Trace_ctx.current_flow ())

(* --- scheduler decision log ----------------------------------------- *)

let test_decision_ring () =
  fresh ();
  Obs.Decision.set_capacity 8;
  let tok =
    Obs.Decision.record ~tag:"t/0" ~task:1 ~codelet:"gemm" ~pu:"gpu0"
      ~source:Obs.Decision.Calibrated ~est_s:0.5 ~eft_s:0.75
      ~estimates:[ ("gpu0", 0.75); ("cpu0", 2.0) ]
      ~vt:1.0
  in
  Alcotest.(check bool) "token valid" true (tok >= 0);
  Obs.Decision.complete tok ~dispatched:1.25 ~actual_s:1.0;
  (match Obs.Decision.records () with
  | [ r ] ->
      Alcotest.(check string) "chosen pu" "gpu0" r.Obs.Decision.d_pu;
      Alcotest.(check (float 1e-9)) "queue wait = dispatched - vt" 0.25
        r.Obs.Decision.d_queue_wait_s;
      Alcotest.(check (float 1e-9)) "actual back-filled" 1.0
        r.Obs.Decision.d_actual_s
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  let h = Obs.Histogram.get_or_make Obs.Decision.rel_err_hist in
  Alcotest.(check int) "relative error observed" 1 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "rel err = |actual-est|/actual" 0.5
    (Obs.Histogram.sum h);
  (* wraparound: 20 more records into capacity 8 *)
  for i = 1 to 20 do
    ignore
      (Obs.Decision.record ~tag:"" ~task:i ~codelet:"c" ~pu:"cpu0"
         ~source:Obs.Decision.Static ~est_s:1.0 ~eft_s:1.0
         ~estimates:[ ("cpu0", 1.0) ]
         ~vt:0.0)
  done;
  Alcotest.(check int) "count includes overwritten" 21 (Obs.Decision.count ());
  Alcotest.(check int) "dropped = count - capacity" 13
    (Obs.Decision.dropped ());
  Alcotest.(check int) "retained = capacity" 8
    (List.length (Obs.Decision.records ()));
  (* the first record's slot was overwritten: its token is now stale *)
  Obs.Decision.complete tok ~dispatched:9.0 ~actual_s:9.0;
  Alcotest.(check int) "stale completion dropped silently" 1
    (Obs.Histogram.count h);
  Obs.Decision.set_capacity 4096;
  Obs.Config.set_enabled false;
  let t2 =
    Obs.Decision.record ~tag:"" ~task:0 ~codelet:"c" ~pu:"p"
      ~source:Obs.Decision.Exploration ~est_s:1.0 ~eft_s:1.0 ~estimates:[]
      ~vt:0.0
  in
  Alcotest.(check int) "disabled yields -1" (-1) t2;
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (Obs.Decision.records ()))

let test_decision_jsonl () =
  fresh ();
  let tok =
    Obs.Decision.record ~tag:"a/shard0" ~task:7 ~codelet:"dgemm" ~pu:"gpu1"
      ~source:Obs.Decision.Exploration ~est_s:0.25 ~eft_s:0.5
      ~estimates:[ ("gpu1", 0.5); ("cpu0", 1.5) ]
      ~vt:2.0
  in
  Obs.Decision.complete tok ~dispatched:2.5 ~actual_s:0.5;
  let line = String.trim (Obs.Decision.to_jsonl ()) in
  match Obs.Json.parse line with
  | Error e -> Alcotest.fail ("jsonl line does not parse: " ^ e)
  | Ok o ->
      let str k = Option.bind (Obs.Json.member k o) Obs.Json.to_string in
      let num k = Option.bind (Obs.Json.member k o) Obs.Json.to_number in
      Alcotest.(check (option string)) "pu" (Some "gpu1") (str "pu");
      Alcotest.(check (option string)) "source" (Some "exploration")
        (str "source");
      Alcotest.(check (option string)) "tag" (Some "a/shard0") (str "tag");
      Alcotest.(check bool) "per-PU estimates kept" true
        (match
           Option.bind (Obs.Json.member "estimates" o)
             (Obs.Json.member "cpu0")
         with
        | Some (Obs.Json.Num f) -> f = 1.5
        | _ -> false);
      Alcotest.(check bool) "queue wait" true (num "queue_wait_s" = Some 0.5);
      Alcotest.(check bool) "rel err" true (num "rel_err" = Some 0.5)

(* --- SLO windows ----------------------------------------------------- *)

let test_slo_window () =
  Obs.Slo.drop_all ();
  let s = Obs.Slo.get_or_make ~objective:0.9 ~window_s:60.0 "api" in
  for _ = 1 to 8 do
    Obs.Slo.observe s ~now:10.0 ~good:true
  done;
  Obs.Slo.observe s ~now:10.0 ~good:false;
  Obs.Slo.observe s ~now:10.0 ~good:false;
  Alcotest.(check (pair int int)) "window counts" (8, 2)
    (Obs.Slo.window_counts s);
  (* a 20% bad fraction against a 10% error budget burns 2x *)
  Alcotest.(check (float 1e-9)) "burn rate" 2.0 (Obs.Slo.burn_rate s);
  Alcotest.(check (pair int int)) "events age out of the window" (0, 0)
    (Obs.Slo.window_counts ~now:1000.0 s);
  Alcotest.(check (float 1e-9)) "empty window burns nothing" 0.0
    (Obs.Slo.burn_rate ~now:1000.0 s);
  Alcotest.(check (pair int int)) "totals persist" (8, 2) (Obs.Slo.totals s);
  Alcotest.(check bool) "registry is idempotent by name" true
    (Obs.Slo.get_or_make "api" == s);
  (match Obs.Slo.get_or_make ~objective:1.5 "bad-objective" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (match Obs.Slo.get_or_make ~window_s:0.0 "bad-window" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Obs.Slo.drop_all ()

(* --- satellite guards: dropped spans, label escaping ----------------- *)

let test_dropped_spans () =
  fresh ();
  let cap = Obs.Span.ring_capacity () in
  for i = 1 to cap + 50 do
    Obs.Span.record_interval ~cat:"d" ~name:"s" i (i + 1)
  done;
  Alcotest.(check int) "dropped counts overwrites" 50 (Obs.Span.dropped ());
  Alcotest.(check bool) "per-domain gauge in prometheus" true
    (contains (Obs.Export.prometheus ()) "obs_span_ring_dropped{domain=");
  Alcotest.(check bool) "summary reports the loss" true
    (contains (Obs.Export.summary ()) "dropped spans: 50");
  Alcotest.(check bool) "summary has a span-ring section" true
    (contains (Obs.Export.summary ()) "== span rings ==")

let test_label_escaping () =
  fresh ();
  Obs.Slo.drop_all ();
  Alcotest.(check string) "label_escape covers \\ \" and newline"
    "a\\\\b\\\"c\\nd"
    (Obs.Export.label_escape "a\\b\"c\nd");
  (* a hostile tenant name must neither break the exposition format
     nor leak an unescaped quote *)
  let hostile = "te\\na\"nt\nx" in
  let s = Obs.Slo.get_or_make ("serve:" ^ hostile) in
  Obs.Slo.observe s ~now:1.0 ~good:true;
  let text = Obs.Export.prometheus () in
  let esc = Obs.Export.label_escape ("serve:" ^ hostile) in
  Alcotest.(check bool) "escaped label value emitted" true
    (contains text (Printf.sprintf "obs_slo_good_total{slo=\"%s\"} 1" esc));
  Alcotest.(check bool) "no raw newline inside a label" true
    (not (contains text "te\\na\"nt\nx\"}"));
  Alcotest.(check bool) "burn-rate family typed" true
    (contains text "# TYPE obs_slo_burn_rate gauge"
    && contains text "# HELP obs_slo_burn_rate");
  Obs.Slo.drop_all ()

(* --- trace-event schema checker -------------------------------------- *)

let test_trace_check_gate () =
  fresh ();
  Obs.Span.record_interval ~cat:"t" ~name:"a" ~flow:7 1_000 2_000;
  Obs.Span.record_interval ~cat:"t" ~name:"b" ~flow:7 3_000 4_000;
  Obs.Span.instant ~cat:"t" ~name:"mark" ();
  let doc = Obs.Export.to_chrome_json [] in
  (match Obs.Trace_check.validate_string doc with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "exporter output rejected: %s" (String.concat "; " es));
  Alcotest.(check bool) "flow events rendered" true
    (contains doc "\"ph\":\"s\"" && contains doc "\"ph\":\"f\"");
  List.iter
    (fun bad ->
      match Obs.Trace_check.validate_string bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "checker accepted %s" bad)
    [
      "not json";
      "{\"traceEvents\": 3}";
      (* X without dur *)
      "[{\"ph\":\"X\",\"name\":\"x\",\"ts\":1,\"pid\":0,\"tid\":0}]";
      (* unknown phase *)
      "[{\"ph\":\"q\",\"name\":\"x\",\"ts\":1,\"pid\":0,\"tid\":0}]";
      (* flow start with no finish: an orphan arrow *)
      "[{\"ph\":\"s\",\"name\":\"f\",\"ts\":1,\"pid\":0,\"tid\":0,\"id\":1}]";
      (* unbalanced B *)
      "[{\"ph\":\"B\",\"name\":\"x\",\"ts\":1,\"pid\":0,\"tid\":0}]";
      (* flow event without an id *)
      "[{\"ph\":\"s\",\"name\":\"f\",\"ts\":1,\"pid\":0,\"tid\":0}]";
    ];
  Alcotest.(check bool) "balanced B/E with a matched flow passes" true
    (Obs.Trace_check.validate_string
       "[{\"ph\":\"B\",\"name\":\"x\",\"ts\":1,\"pid\":0,\"tid\":0},\
        {\"ph\":\"E\",\"name\":\"x\",\"ts\":2,\"pid\":0,\"tid\":0},\
        {\"ph\":\"s\",\"name\":\"f\",\"ts\":1,\"pid\":0,\"tid\":0,\"id\":4},\
        {\"ph\":\"f\",\"name\":\"f\",\"ts\":2,\"pid\":0,\"tid\":0,\"id\":4,\
        \"bp\":\"e\"}]"
     = Ok ())

(* Whatever spans are recorded — any timestamps, any flow ids — the
   exporter's output must pass the schema gate: matched flow chains,
   no orphan ids, every event carrying its phase's required keys. *)
let test_export_always_validates =
  QCheck.Test.make ~count:50
    ~name:"chrome export always passes the schema gate"
    QCheck.(
      small_list (triple (int_range 0 10_000) (int_range 0 1_000) (int_range 0 5)))
    (fun spans ->
      Obs.Config.set_enabled true;
      Obs.Span.clear ();
      List.iter
        (fun (t0, d, flow) ->
          Obs.Span.record_interval ~cat:"p" ~name:"s" ~flow t0 (t0 + d))
        spans;
      let ok =
        Obs.Trace_check.validate_string (Obs.Export.to_chrome_json []) = Ok ()
      in
      Obs.Span.clear ();
      ok)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_ring_overwrite;
          Alcotest.test_case "nesting well-formed" `Quick
            test_span_nesting_wellformed;
          QCheck_alcotest.to_alcotest test_concurrent_rings;
        ] );
      ( "counters",
        [ Alcotest.test_case "gating and registry" `Quick test_counter_gating ]
      );
      ( "histograms",
        [
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "single value" `Quick test_histogram_single_value;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "bucket introspection" `Quick
            test_histogram_buckets;
          Alcotest.test_case "named gating" `Quick test_histogram_named_gating;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "strict grammar" `Quick test_json_strict;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite;
          QCheck_alcotest.to_alcotest test_json_roundtrip;
          Alcotest.test_case "nesting cap" `Quick test_json_depth;
          QCheck_alcotest.to_alcotest test_json_total;
          QCheck_alcotest.to_alcotest test_json_oracle;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "prometheus" `Quick test_prometheus_exposition;
          Alcotest.test_case "dropped spans surface everywhere" `Quick
            test_dropped_spans;
          Alcotest.test_case "label escaping" `Quick test_label_escaping;
        ] );
      ( "trace-ctx",
        [
          Alcotest.test_case "codec" `Quick test_trace_ctx_codec;
          QCheck_alcotest.to_alcotest test_trace_ctx_oracle;
          Alcotest.test_case "ambient flow" `Quick test_trace_ctx_ambient;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "ring, wraparound, staleness" `Quick
            test_decision_ring;
          Alcotest.test_case "jsonl shape" `Quick test_decision_jsonl;
        ] );
      ( "slo",
        [ Alcotest.test_case "window and burn rate" `Quick test_slo_window ] );
      ( "trace-check",
        [
          Alcotest.test_case "schema gate" `Quick test_trace_check_gate;
          QCheck_alcotest.to_alcotest test_export_always_validates;
        ] );
    ]

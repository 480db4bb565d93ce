(* Tests for the task service: wire protocol totality and round-trips,
   PU sharding invariants, engine re-entrancy under interleaving, and
   the service's admission / fairness / deadline / drain semantics. *)

module P = Serve.Protocol
module Service = Serve.Service
module MC = Taskrt.Machine_config
module Engine = Taskrt.Engine
module Fault = Taskrt.Fault
module Matrix = Kernels.Matrix

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let cfg_of name = MC.of_platform_exn (Option.get (Pdl_hwprobe.Zoo.find name))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* (id, checksum) of every successful DONE among [replies]. *)
let ok_sums replies =
  List.filter_map
    (function
      | P.Done { id; status = P.Jok { checksum; _ }; _ } -> Some (id, checksum)
      | _ -> None)
    replies

(* ------------------------------------------------------------------ *)
(* Protocol: generators                                                *)

let gen_job =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun n tiles seed -> P.Dgemm { n; tiles = min tiles n; seed })
          (int_range 1 512) (int_range 1 8) (int_range 0 1_000_000);
        map3
          (fun n tiles seed -> P.Cholesky { n; tiles = min tiles n; seed })
          (int_range 1 512) (int_range 1 8) (int_range 0 1_000_000);
        map3
          (fun width depth task_flops -> P.Graph { width; depth; task_flops })
          (int_range 1 16) (int_range 1 16)
          (float_range 1e-3 1e6);
      ])

(* Tenant names stress the JSON string escaper: quotes, backslashes,
   newlines, control characters. *)
let gen_tenant =
  QCheck.Gen.(
    map
      (fun s -> if s = "" then "t" else s)
      (string_size ~gen:(oneof [ printable; return '"'; return '\\'; return '\n' ])
         (int_range 1 12)))

(* Trace contexts in the wire format: 16 hex digits, optionally "-"
   and 16 more.  Absent with even odds so both codec paths run. *)
let gen_trace =
  QCheck.Gen.(
    oneof
      [
        return None;
        map2
          (fun tid sid ->
            Some (Printf.sprintf "%016x-%016x" (max 1 tid) sid))
          (int_range 1 0xFFFFFF) (int_range 0 0xFFFFFF);
        map (fun tid -> Some (Printf.sprintf "%016x" (max 1 tid)))
          (int_range 1 0xFFFFFF);
      ])

(* Idempotency keys over the full legal alphabet, absent half the
   time so both codec paths run. *)
let gen_idem =
  QCheck.Gen.(
    oneof
      [
        return None;
        map Option.some
          (string_size
             ~gen:
               (oneofl
                  [ 'a'; 'Z'; 'm'; '0'; '9'; '-'; '_'; '.'; ':' ])
             (int_range 1 P.max_idem_len));
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun (tenant, job) (deadline_ms, trace) idem ->
            P.Submit { tenant; job; deadline_ms; idem; trace })
          (pair gen_tenant gen_job)
          (pair
             (oneof [ return None; map (fun f -> Some (Float.abs f)) pfloat ])
             gen_trace)
          gen_idem;
        return P.Run;
        return P.Stats;
        map
          (fun b -> P.Drain { budget_ms = Option.map Float.abs b })
          (oneof [ return None; map Option.some pfloat ]);
        return P.Ping;
      ])

let arb_request = QCheck.make ~print:P.request_to_string gen_request

let request_roundtrip =
  QCheck.Test.make ~name:"requests round-trip through the codec" ~count:500
    arb_request (fun r -> P.request_of_string (P.request_to_string r) = Ok r)

let gen_status =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun makespan_s checksum (tasks, coalesced, shard) ->
            P.Jok { makespan_s; checksum; tasks; coalesced; shard })
          (map Float.abs pfloat) (string_size ~gen:printable (int_range 0 20))
          (triple (int_range 0 999) bool (int_range 0 7));
        map (fun r -> P.Jfailed r) (string_size ~gen:printable (int_range 0 30));
        return P.Jtimeout;
        return P.Jcancelled;
      ])

(* Stats rows with hostile tenant names and the SLO block both ways
   (a latency target or deadline-only). *)
let gen_tenant_row =
  QCheck.Gen.(
    map3
      (fun tenant (slo_ms, good, bad) burn ->
        {
          P.tr_tenant = tenant; tr_submitted = good + bad; tr_completed = good;
          tr_rejected = 0; tr_timeouts = 0; tr_cancelled = 0; tr_failed = bad;
          tr_coalesced = 0; tr_queue = 0; tr_cap = 8; tr_weight = 1.0;
          tr_busy_vs = 0.5; tr_quarantined = [];
          tr_slo_ms = slo_ms; tr_slo_good = good; tr_slo_bad = bad;
          tr_burn_rate = burn;
        })
      gen_tenant
      (triple
         (oneof
            [ return None; map (fun f -> Some (1.0 +. Float.abs f)) pfloat ])
         (int_range 0 999) (int_range 0 999))
      (map Float.abs pfloat))

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun id credit trace -> P.Accepted { id; credit; trace })
          (int_range 0 100000) (int_range 0 64) gen_trace;
        map3
          (fun tenant (queue, cap) retry_ms ->
            P.Overloaded { tenant; queue; cap; retry_ms })
          gen_tenant
          (pair (int_range 0 64) (int_range 1 64))
          (map Float.abs pfloat);
        return P.Draining;
        map3
          (fun id tenant (latency_ms, status, trace) ->
            P.Done { id; tenant; latency_ms; status; trace })
          (int_range 0 100000) gen_tenant
          (triple (map Float.abs pfloat) gen_status gen_trace);
        map
          (fun rows -> P.Stats_reply rows)
          (list_size (int_range 0 3) gen_tenant_row);
        map (fun completed -> P.Idle { completed }) (int_range 0 9999);
        map2
          (fun completed cancelled -> P.Drained { completed; cancelled })
          (int_range 0 9999) (int_range 0 9999);
        return P.Pong;
        map2
          (fun code reason -> P.Error { code; reason })
          (oneofl [ P.Parse; P.Version; P.Bad_request ])
          (string_size ~gen:printable (int_range 0 40));
      ])

let arb_reply = QCheck.make ~print:P.reply_to_string gen_reply

let reply_roundtrip =
  QCheck.Test.make ~name:"replies round-trip through the codec" ~count:500
    arb_reply (fun r -> P.reply_of_string (P.reply_to_string r) = Ok r)

(* Decoding is total: any byte soup yields Ok or a structured error,
   never an exception. *)
let decode_total =
  QCheck.Test.make ~name:"decoding never raises on garbage" ~count:500
    QCheck.(string_gen QCheck.Gen.(oneof [ char; printable ]))
    (fun s ->
      (match P.request_of_string s with Ok _ | Error _ -> true)
      && match P.reply_of_string s with Ok _ | Error _ -> true)

let framing_roundtrip =
  QCheck.Test.make ~name:"framing round-trips and reports truncation"
    ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 300))
    (fun payload ->
      let f = P.frame payload in
      let b = Bytes.of_string f in
      P.deframe b ~off:0 ~len:(Bytes.length b)
      = P.Frame (payload, Bytes.length b)
      && (Bytes.length b = 4
         || P.deframe b ~off:0 ~len:(Bytes.length b - 1) = P.Need))

let protocol_tests =
  [
    Alcotest.test_case "version mismatch is a structured refusal" `Quick
      (fun () ->
        (match P.request_of_string "{\"v\":2,\"op\":\"ping\"}" with
        | Error { P.e_code = P.Version; _ } -> ()
        | _ -> Alcotest.fail "expected a version error");
        match P.request_of_string "{\"op\":\"ping\"}" with
        | Error { P.e_code = P.Parse; _ } -> ()
        | _ -> Alcotest.fail "expected a parse error for the missing field");
    Alcotest.test_case "unknown op and malformed jobs are bad requests"
      `Quick (fun () ->
        (match P.request_of_string "{\"v\":1,\"op\":\"launch\"}" with
        | Error { P.e_code = P.Bad_request; _ } -> ()
        | _ -> Alcotest.fail "expected bad-request for unknown op");
        match
          P.request_of_string
            "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":-4,\"tiles\":2,\"seed\":1}}"
        with
        | Error { P.e_code = P.Bad_request; _ } -> ()
        | _ -> Alcotest.fail "expected bad-request for negative n");
    Alcotest.test_case "a megabyte of '[' is refused in milliseconds" `Quick
      (fun () ->
        (* the largest frame the daemon accepts, nested as deep as it
           goes: without a nesting cap the decoder recursed through all
           of it, and held the single-threaded daemon for a second *)
        let payload = String.make P.max_frame '[' in
        let t0 = Unix.gettimeofday () in
        let r = P.request_of_string payload in
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        (match r with
        | Error { P.e_code = P.Parse; _ } -> ()
        | _ -> Alcotest.fail "expected a parse error");
        if ms > 50.0 then Alcotest.failf "took %.1f ms to refuse" ms);
    Alcotest.test_case "oversized frame length is corrupt" `Quick (fun () ->
        match
          P.deframe (Bytes.of_string "\x7f\xff\xff\xff....") ~off:0 ~len:8
        with
        | P.Corrupt _ -> ()
        | _ -> Alcotest.fail "expected Corrupt");
    Alcotest.test_case "admission caps refuse oversized jobs" `Quick
      (fun () ->
        let bad fmt =
          Printf.ksprintf
            (fun payload ->
              match P.request_of_string payload with
              | Error { P.e_code = P.Bad_request; _ } -> ()
              | Ok _ -> Alcotest.failf "accepted oversized job: %s" payload
              | Error { P.e_reason; _ } ->
                  Alcotest.failf "wrong error for %s: %s" payload e_reason)
            fmt
        in
        (* an n that would OOM the daemon in Matrix.random *)
        bad
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":20000000,\"tiles\":2,\"seed\":1}}";
        bad
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"cholesky\",\"n\":%d,\"tiles\":2,\"seed\":1}}"
          (P.max_n + 1);
        bad
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":2048,\"tiles\":%d,\"seed\":1}}"
          (P.max_tiles + 1);
        (* parameters individually in range, cost over the cap *)
        bad
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"graph\",\"width\":1024,\"depth\":64,\"task_flops\":1e9}}";
        bad
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"graph\",\"width\":1024,\"depth\":1024,\"task_flops\":1.0}}";
        (* a maximal in-cap job still parses *)
        match
          P.request_of_string
            "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"graph\",\"width\":64,\"depth\":64,\"task_flops\":1e6}}"
        with
        | Ok (P.Submit _) -> ()
        | _ -> Alcotest.fail "in-cap job refused");
    Alcotest.test_case "pre-trace frames still decode" `Quick (fun () ->
        (match
           P.request_of_string
             "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7}}"
         with
        | Ok (P.Submit { trace = None; _ }) -> ()
        | _ -> Alcotest.fail "submit without a trace field refused");
        (match
           P.reply_of_string "{\"v\":1,\"re\":\"accepted\",\"id\":1,\"credit\":3}"
         with
        | Ok (P.Accepted { trace = None; _ }) -> ()
        | _ -> Alcotest.fail "accepted without a trace field refused");
        match
          P.reply_of_string
            "{\"v\":1,\"re\":\"stats\",\"tenants\":[{\"tenant\":\"a\",\
             \"submitted\":1,\"completed\":1,\"rejected\":0,\"timeouts\":0,\
             \"cancelled\":0,\"failed\":0,\"coalesced\":0,\"queue\":0,\
             \"cap\":8,\"weight\":1,\"busy_vs\":0,\"quarantined\":[]}]}"
        with
        | Ok (P.Stats_reply [ row ]) ->
            check bool_ "SLO block defaults on decode" true
              (row.P.tr_slo_ms = None && row.P.tr_slo_good = 0
              && row.P.tr_slo_bad = 0 && row.P.tr_burn_rate = 0.0)
        | _ -> Alcotest.fail "stats row without an SLO block refused");
    Alcotest.test_case "an unparseable trace is a bad request" `Quick
      (fun () ->
        let bad trace =
          match
            P.request_of_string
              (Printf.sprintf
                 "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7},\"trace\":%s}"
                 trace)
          with
          | Error { P.e_code = P.Bad_request; _ } -> ()
          | _ -> Alcotest.failf "trace %s admitted" trace
        in
        bad "\"xyz\"";
        bad "\"0000000000000000\"";
        bad "\"00000000deadbeef-\"";
        bad "\"00000000deadbeef-00000000000000010\"");
  ]

(* ------------------------------------------------------------------ *)
(* Sharding                                                            *)

let worker_names (c : MC.t) =
  Array.to_list c.MC.workers |> List.map (fun w -> w.MC.w_name)

let shard_partition =
  QCheck.Test.make ~name:"shards partition the machine's workers" ~count:100
    QCheck.(
      pair (int_range 1 24)
        (oneofl [ "xeon-2gpu"; "xeon-x5550-smp"; "cell-qs20"; "dual-host" ]))
    (fun (shards, pf) ->
      let cfg = cfg_of pf in
      let parts = Serve.Shard.split cfg ~shards in
      let all = List.concat_map worker_names (Array.to_list parts) in
      List.sort compare all = List.sort compare (worker_names cfg)
      && List.length (List.sort_uniq compare all) = List.length all
      && Array.length parts = min shards (Array.length cfg.MC.workers)
      && Array.for_all
           (fun (p : MC.t) ->
             Array.for_all
               (fun (w : MC.worker) ->
                 w.MC.w_node < p.MC.node_count
                 && (w.MC.w_node = 0 || MC.link_for_node p w.MC.w_node <> None))
               p.MC.workers)
           parts)

(* The acceptance property: two engines on disjoint PU shards,
   submitted to in interleaved order, produce results bit-identical
   to two engines run one after the other. *)
let engine_interleave =
  QCheck.Test.make
    ~name:"interleaved shard engines are bit-identical to sequential runs"
    ~count:25
    QCheck.(pair (int_range 1 10000) (int_range 1 3))
    (fun (seed, tiles) ->
      let parts = Serve.Shard.split (cfg_of "xeon-2gpu") ~shards:2 in
      let a = Matrix.random ~seed 32 32
      and b = Matrix.random ~seed:(seed + 1) 32 32 in
      let go e =
        let c = Matrix.create 32 32 in
        ignore (Taskrt.Tiled_dgemm.run_on ~tiles e ~a ~b ~c);
        Matrix.checksum c
      in
      let interleaved =
        let e0 = Engine.create ~policy:Engine.Heft parts.(0)
        and e1 = Engine.create ~policy:Engine.Heft parts.(1) in
        let c0 = go e0 in
        let c1 = go e1 in
        [ c0; go e0; c1; go e1 ]
      in
      let sequential =
        let e0 = Engine.create ~policy:Engine.Heft parts.(0) in
        let r0 = [ go e0; go e0 ] in
        let e1 = Engine.create ~policy:Engine.Heft parts.(1) in
        r0 @ [ go e1; go e1 ]
      in
      interleaved = sequential)

(* ------------------------------------------------------------------ *)
(* Job buffers: a warm service reuses its matrices                     *)

(* One job through [svc]: its DONE frame with the id zeroed, a fixed
   clock and trace context setting the rest.  makespan_s stays in: a
   shard engine simulates each job from a clock origin of 0, so its
   bits do not depend on what ran before on that engine. *)
let done_bytes svc job =
  ignore
    (Service.submit svc ~tenant:"t" ~trace:"00000000000000a1-00000000000000b2"
       job);
  match Service.run_until_idle svc with
  | [ P.Done d ] -> P.reply_to_string (P.Done { d with id = 0 })
  | rs -> Printf.sprintf "%d replies" (List.length rs)

let buffer_service () =
  Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")

let gen_dense_job =
  QCheck.Gen.(
    map3
      (fun chol n tiles ->
        let n = (2 * n) + 1 in
        let tiles = min n tiles in
        if chol then P.Cholesky { n; tiles; seed = n + tiles }
        else P.Dgemm { n; tiles; seed = n * tiles })
      bool (int_range 0 80) (int_range 1 5))

let show_dense = function
  | P.Dgemm { n; tiles; seed } -> Printf.sprintf "dgemm %d/%d/%d" n tiles seed
  | P.Cholesky { n; tiles; seed } ->
      Printf.sprintf "cholesky %d/%d/%d" n tiles seed
  | P.Graph _ -> "graph"

(* A long-lived service, its buffers grown by large jobs and reused
   by small ones (the sequence runs forward, then backward), answers
   every job as a fresh service does; with every buffer holding NaN
   before each job, its DONE frames stay the same to the byte. *)
let buffers_reuse =
  QCheck.Test.make ~name:"reused job buffers give a fresh service's DONE bytes"
    ~count:20
    (QCheck.make
       ~print:(fun js -> String.concat "; " (List.map show_dense js))
       QCheck.Gen.(list_size (int_range 1 5) gen_dense_job))
    (fun jobs ->
      let jobs = jobs @ List.rev jobs in
      let fresh =
        List.map (fun j -> done_bytes (buffer_service ()) j) jobs
      in
      let run ~poison =
        let svc = buffer_service () in
        List.map
          (fun j ->
            if poison then Service.fill_buffers svc Float.nan;
            let d = done_bytes svc j in
            if Service.buffer_bytes svc > Service.max_buffer_bytes then
              QCheck.Test.fail_report "job buffers exceed their bound";
            d)
          jobs
      in
      let clean = run ~poison:false in
      clean = fresh && run ~poison:true = clean)

let buffer_tests =
  [
    Alcotest.test_case "a warm Cholesky 512 job grows no packing buffer" `Quick
      (fun () ->
        Obs.Config.set_enabled true;
        Obs.Counter.reset_all ();
        let pack_allocs () =
          List.find
            (fun c -> Obs.Counter.name c = "gemm_pack_alloc")
            (Obs.Counter.all ())
          |> Obs.Counter.value
        in
        let svc = buffer_service () in
        let job seed = P.Cholesky { n = 512; tiles = 4; seed } in
        ignore (done_bytes svc (job 1));
        let warm = pack_allocs () in
        ignore (done_bytes svc (job 2));
        let after = pack_allocs () in
        Obs.Export.reset_all ();
        Obs.Config.set_enabled false;
        check int_ "the second job allocates nothing" warm after);
    Alcotest.test_case "a warm service allocates no job buffer" `Quick
      (fun () ->
        Obs.Config.set_enabled true;
        Obs.Counter.reset_all ();
        let allocs () =
          List.find
            (fun c -> Obs.Counter.name c = "serve_buffer_alloc")
            (Obs.Counter.all ())
          |> Obs.Counter.value
        in
        let svc = buffer_service () in
        let mix i =
          [ P.Dgemm { n = 48; tiles = 2; seed = i };
            P.Cholesky { n = 64; tiles = 4; seed = i } ]
        in
        List.iter (fun j -> ignore (done_bytes svc j)) (mix 1);
        let warm = allocs () in
        for i = 2 to 6 do
          List.iter (fun j -> ignore (done_bytes svc j)) (mix i)
        done;
        let after = allocs () in
        let bytes = Service.buffer_bytes svc in
        (* an over-cap job is refused before it can grow a buffer *)
        (match
           Service.submit svc ~tenant:"t"
             (P.Dgemm { n = P.max_n + 1; tiles = 1; seed = 1 })
         with
        | P.Error _ -> ()
        | r -> Alcotest.failf "over-cap job admitted: %s" (P.reply_to_string r));
        Obs.Export.reset_all ();
        Obs.Config.set_enabled false;
        check int_ "warm-up: three buffers, two of them grown again" 5 warm;
        check int_ "later jobs of the same shapes allocate nothing" warm after;
        check int_ "resident bytes: two 64x64 and one 48x48"
          (8 * ((2 * 64 * 64) + (48 * 48)))
          bytes;
        check int_ "refused job grew nothing" bytes (Service.buffer_bytes svc);
        check int_ "the stated bound" (3 * P.max_n * P.max_n * 8)
          Service.max_buffer_bytes);
  ]

(* ------------------------------------------------------------------ *)
(* Service semantics                                                   *)

let gjob i = P.Graph { width = 2; depth = 2; task_flops = 1e6 +. float_of_int i }

let service_tests =
  [
    Alcotest.test_case "admission enforces the per-tenant cap" `Quick
      (fun () ->
        let svc =
          Service.create ~shards:1 ~queue_cap:2 ~now:(fun () -> 0.0)
            (cfg_of "xeon-2gpu")
        in
        let r1 = Service.submit svc ~tenant:"a" (gjob 1) in
        let r2 = Service.submit svc ~tenant:"a" (gjob 2) in
        let r3 = Service.submit svc ~tenant:"a" (gjob 3) in
        check bool_ "first accepted"
          (match r1 with P.Accepted { credit = 1; _ } -> true | _ -> false)
          true;
        check bool_ "second exhausts credit"
          (match r2 with P.Accepted { credit = 0; _ } -> true | _ -> false)
          true;
        check bool_ "third overloaded"
          (match r3 with
          | P.Overloaded { queue = 2; cap = 2; _ } -> true
          | _ -> false)
          true;
        (* the other tenant is unaffected by a's full queue *)
        check bool_ "tenant b unaffected"
          (match Service.submit svc ~tenant:"b" (gjob 4) with
          | P.Accepted _ -> true
          | _ -> false)
          true);
    Alcotest.test_case "deadlines expire while queued" `Quick (fun () ->
        let clock = ref 0.0 in
        let svc =
          Service.create ~shards:1 ~now:(fun () -> !clock) (cfg_of "xeon-2gpu")
        in
        ignore (Service.submit svc ~tenant:"a" ~deadline_ms:5.0 (gjob 1));
        ignore (Service.submit svc ~tenant:"a" (gjob 2));
        clock := 0.010;
        let statuses =
          List.filter_map
            (function P.Done { status; _ } -> Some status | _ -> None)
            (Service.run_until_idle svc)
        in
        check int_ "both jobs reported" 2 (List.length statuses);
        check bool_ "first timed out"
          (match statuses with P.Jtimeout :: _ -> true | _ -> false)
          true;
        check bool_ "second ran"
          (match statuses with [ _; P.Jok _ ] -> true | _ -> false)
          true);
    Alcotest.test_case "drain cancels beyond the budget and refuses work"
      `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        for i = 1 to 4 do
          ignore (Service.submit svc ~tenant:"a" (gjob i))
        done;
        let dones, final = Service.drain svc ~budget_ms:0.0 () in
        check int_ "all four reported" 4 (List.length dones);
        check bool_ "all cancelled"
          (List.for_all
             (function
               | P.Done { status = P.Jcancelled; _ } -> true | _ -> false)
             dones)
          true;
        check bool_ "summary counts them"
          (final = P.Drained { completed = 0; cancelled = 4 })
          true;
        check bool_ "post-drain submit refused"
          (Service.submit svc ~tenant:"a" (gjob 9) = P.Draining)
          true;
        check bool_ "service reports draining" (Service.is_draining svc) true);
    Alcotest.test_case "per-tenant faults stay with their tenant" `Quick
      (fun () ->
        let crash =
          {
            Fault.none with
            Fault.events = [ Fault.Crash { pu = "gpu0"; at = 1e-6 } ];
          }
        in
        (* tenant b's results, with and without a crashing tenant a *)
        let run ~with_a =
          let svc =
            Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
          in
          if with_a then begin
            Service.configure_tenant svc ~name:"a" ~faults:crash ();
            ignore
              (Service.submit svc ~tenant:"a"
                 (P.Dgemm { n = 64; tiles = 4; seed = 1 }))
          end;
          ignore
            (Service.submit svc ~tenant:"b"
               (P.Dgemm { n = 64; tiles = 4; seed = 2 }));
          let b_sums =
            List.filter_map
              (function
                | P.Done { tenant = "b"; status = P.Jok { checksum; _ }; _ } ->
                    Some checksum
                | _ -> None)
              (Service.run_until_idle svc)
          in
          (svc, b_sums)
        in
        let svc, contended = run ~with_a:true in
        let _, alone = run ~with_a:false in
        check (Alcotest.list Alcotest.string) "a sees its quarantine"
          [ "gpu0" ]
          (Service.quarantined svc ~tenant:"a");
        check (Alcotest.list Alcotest.string) "b sees a clean machine" []
          (Service.quarantined svc ~tenant:"b");
        check (Alcotest.list Alcotest.string) "b bit-identical beside a" alone
          contended;
        check int_ "b's job ran" 1 (List.length contended));
    Alcotest.test_case "oversized direct submits draw bad-request" `Quick
      (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        (match
           Service.submit svc ~tenant:"a"
             (P.Dgemm { n = 20_000_000; tiles = 2; seed = 1 })
         with
        | P.Error { code = P.Bad_request; _ } -> ()
        | _ -> Alcotest.fail "huge dgemm admitted");
        (match
           Service.submit svc ~tenant:"a"
             (P.Graph { width = 1024; depth = 1024; task_flops = 1.0 })
         with
        | P.Error { code = P.Bad_request; _ } -> ()
        | _ -> Alcotest.fail "huge graph admitted");
        (* the refusal never registers the tenant or consumes a slot *)
        check int_ "no tenant rows" 0 (List.length (Service.stats svc)));
    Alcotest.test_case "dispatch cost is independent of cost/quantum" `Quick
      (fun () ->
        (* cost 4e9 over quantum 1e-3 is ~4e12 accrual passes; the
           fast-forward must dispatch this without spinning them (and
           without the deficit saturating below the job cost) *)
        let svc =
          Service.create ~shards:1 ~quantum:1e-3 ~now:(fun () -> 0.0)
            (cfg_of "xeon-2gpu")
        in
        ignore
          (Service.submit svc ~tenant:"slow"
             (P.Graph { width = 2; depth = 2; task_flops = 1e9 }));
        ignore
          (Service.submit svc ~tenant:"other"
             (P.Graph { width = 2; depth = 2; task_flops = 1e3 }));
        let statuses =
          List.filter_map
            (function P.Done { status; _ } -> Some status | _ -> None)
            (Service.run_until_idle svc)
        in
        check int_ "both jobs reported" 2 (List.length statuses);
        check bool_ "both ran"
          (List.for_all (function P.Jok _ -> true | _ -> false) statuses)
          true);
    Alcotest.test_case "stats rows reflect the ledger" `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~queue_cap:2 ~now:(fun () -> 0.0)
            (cfg_of "xeon-2gpu")
        in
        for i = 1 to 3 do
          ignore (Service.submit svc ~tenant:"a" (gjob i))
        done;
        ignore (Service.run_until_idle svc);
        (match Service.stats svc with
        | [ row ] ->
            check int_ "submitted" 2 row.P.tr_submitted;
            check int_ "rejected" 1 row.P.tr_rejected;
            check int_ "completed" 2 row.P.tr_completed;
            check int_ "queue empty" 0 row.P.tr_queue
        | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
        (* identical queued jobs coalesce onto one execution *)
        let svc =
          Service.create ~queue_cap:3 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        let job = P.Dgemm { n = 32; tiles = 2; seed = 7 } in
        for _ = 1 to 3 do
          ignore (Service.submit svc ~tenant:"a" job)
        done;
        let dones = Service.run_until_idle svc in
        check (Alcotest.list bool_) "first runs, the rest ride along"
          [ false; true; true ]
          (List.filter_map
             (function
               | P.Done { status = P.Jok { coalesced; _ }; _ } -> Some coalesced
               | _ -> None)
             dones);
        check int_ "one checksum" 1
          (List.length (List.sort_uniq compare (List.map snd (ok_sums dones))));
        match Service.stats svc with
        | [ row ] -> check int_ "coalesced" 2 row.P.tr_coalesced
        | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
    Alcotest.test_case "deficit round robin shares dispatch by weight" `Quick
      (fun () ->
        (* six jobs from a, then two from b, one shard; distinct flops,
           or coalescing would merge them.  a is first in DRR order, so
           only b's weight can put b ahead. *)
        let order ?b_weight () =
          let svc =
            Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
          in
          for i = 1 to 8 do
            let tenant = if i <= 6 then "a" else "b" in
            ignore (Service.submit svc ~tenant (gjob i))
          done;
          Option.iter
            (fun weight -> Service.configure_tenant svc ~name:"b" ~weight ())
            b_weight;
          List.filter_map
            (function P.Done { tenant; _ } -> Some tenant | _ -> None)
            (Service.run_until_idle svc)
        in
        check (Alcotest.list Alcotest.string) "equal weights alternate"
          [ "a"; "b"; "a"; "b"; "a"; "a"; "a"; "a" ]
          (order ());
        check int_ "weight 2.0 takes 2 of the first 3" 2
          (List.length
             (List.filter (String.equal "b")
                (List.filteri (fun i _ -> i < 3) (order ~b_weight:2.0 ())))));
    Alcotest.test_case "SLO window and burn rate surface in stats" `Quick
      (fun () ->
        let clock = ref 0.0 in
        let svc =
          Service.create ~shards:1 ~now:(fun () -> !clock) (cfg_of "xeon-2gpu")
        in
        (* one Ok finish, one deadline expiry: a 50% bad window burns
           the 1% error budget of the default 0.99 objective 50x over *)
        ignore (Service.submit svc ~tenant:"slo-tenant" (gjob 1));
        ignore (Service.run_until_idle svc);
        ignore
          (Service.submit svc ~tenant:"slo-tenant" ~deadline_ms:1.0 (gjob 2));
        clock := !clock +. 0.010;
        ignore (Service.run_until_idle svc);
        (match Service.stats svc with
        | [ row ] ->
            check int_ "one good event" 1 row.P.tr_slo_good;
            check int_ "one bad event" 1 row.P.tr_slo_bad;
            check bool_ "burn rate over budget" true
              (row.P.tr_burn_rate > 1.0);
            check bool_ "no latency target by default"
              (row.P.tr_slo_ms = None) true
        | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
        check bool_ "burn rate in the Prometheus exposition" true
          (contains (Obs.Export.prometheus ())
             "obs_slo_burn_rate{slo=\"serve:slo-tenant\"}");
        (* an unreachable latency target flips Ok finishes to bad; the
           real wall clock makes any finite latency miss 1e-9 ms *)
        let svc2 = Service.create ~shards:1 ~slo_ms:25.0 (cfg_of "xeon-2gpu") in
        Service.configure_tenant svc2 ~name:"slo-tight" ~slo_ms:1e-9 ();
        ignore (Service.submit svc2 ~tenant:"slo-tight" (gjob 3));
        ignore (Service.run_until_idle svc2);
        match Service.stats svc2 with
        | [ row ] ->
            check bool_ "target echoed" (row.P.tr_slo_ms = Some 1e-9) true;
            check int_ "missed target counts bad" 1 row.P.tr_slo_bad
        | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
    Alcotest.test_case "tile jobs copy no matrix data" `Quick (fun () ->
        (* the tile codelets compute in place on views of the job's
           matrices: Data.read_matrix/write_matrix, which count every
           byte they copy, never run for a DGEMM or Cholesky job *)
        Obs.Config.set_enabled true;
        Obs.Counter.reset_all ();
        let svc = Service.create ~shards:1 (cfg_of "xeon-2gpu") in
        List.iter
          (fun job -> ignore (Service.submit svc ~tenant:"t" job))
          [
            P.Dgemm { n = 256; tiles = 2; seed = 3 };
            P.Cholesky { n = 512; tiles = 4; seed = 4 };
          ];
        let replies = Service.run_until_idle svc in
        let copied =
          List.find
            (fun c -> Obs.Counter.name c = "data_copy_bytes")
            (Obs.Counter.all ())
          |> Obs.Counter.value
        in
        Obs.Export.reset_all ();
        Obs.Config.set_enabled false;
        check int_ "two ok jobs" 2 (List.length (ok_sums replies));
        check int_ "bytes copied" 0 copied);
  ]

(* ------------------------------------------------------------------ *)
(* Trace export: each tenant gets its own set of lanes                 *)

module J = Obs.Json

let trace_tests =
  [
    Alcotest.test_case "tenant lanes are tagged and disjoint" `Quick
      (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        ignore
          (Service.submit svc ~tenant:"a"
             (P.Dgemm { n = 64; tiles = 4; seed = 1 }));
        ignore
          (Service.submit svc ~tenant:"b"
             (P.Dgemm { n = 64; tiles = 4; seed = 2 }));
        ignore (Service.run_until_idle svc);
        let doc =
          Obs.Export.to_chrome_json
            (Taskrt.Trace_export.events (Service.tenant_traces svc))
        in
        let json =
          match J.parse doc with
          | Ok j -> j
          | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
        in
        let events =
          Option.get (Option.bind (J.member "traceEvents" json) J.to_list)
        in
        (* (lane name, tid) for every thread_name metadata event *)
        let lanes =
          List.filter_map
            (fun ev ->
              match
                ( Option.bind (J.member "name" ev) J.to_string,
                  Option.bind (J.member "args" ev) (fun a ->
                      Option.bind (J.member "name" a) J.to_string),
                  Option.bind (J.member "tid" ev) J.to_number )
              with
              | Some "thread_name", Some lane, Some tid -> Some (lane, tid)
              | _ -> None)
            events
        in
        let prefixed p = List.filter (fun (l, _) -> String.length l > 2
          && String.sub l 0 2 = p) lanes
        in
        let a_lanes = prefixed "a/" and b_lanes = prefixed "b/" in
        check bool_ "tenant a has tagged lanes" true (a_lanes <> []);
        check bool_ "tenant b has tagged lanes" true (b_lanes <> []);
        let tids l = List.map snd l in
        check bool_ "tenants never share a tid" true
          (List.for_all (fun t -> not (List.mem t (tids b_lanes)))
             (tids a_lanes));
        (* every non-metadata event's tid belongs to some tagged lane *)
        let tagged = tids lanes in
        check bool_ "every event sits on a tagged lane" true
          (List.for_all
             (fun ev ->
               match
                 ( Option.bind (J.member "ph" ev) J.to_string,
                   Option.bind (J.member "tid" ev) J.to_number )
               with
               | Some "M", _ | _, None -> true
               | _, Some tid -> List.mem tid tagged)
             events));
    Alcotest.test_case "a stranded job keeps earlier jobs' trace events"
      `Quick (fun () ->
        (* every PU of the one shard crashes at 5 ms of virtual time:
           the job running then is stranded (Engine.Stuck) and the
           service restarts the shard's engine *)
        let cfg = cfg_of "xeon-2gpu" in
        let crash_all =
          {
            Fault.none with
            Fault.events =
              Array.to_list cfg.MC.workers
              |> List.map (fun w ->
                     Fault.Crash { pu = w.MC.w_name; at = 5e-3 });
          }
        in
        let svc = Service.create ~shards:1 ~now:(fun () -> 0.0) cfg in
        Service.configure_tenant svc ~name:"a" ~faults:crash_all ();
        let job = P.Graph { width = 4; depth = 4; task_flops = 1e6 } in
        let rec run_until_failed ok =
          if ok > 1000 then Alcotest.fail "no job was stranded";
          ignore (Service.submit svc ~tenant:"a" job);
          match Service.run_until_idle svc with
          | [ P.Done { status = P.Jok _; _ } ] -> run_until_failed (ok + 1)
          | [ P.Done { status = P.Jfailed _; _ } ] -> ok
          | _ -> Alcotest.fail "expected one DONE per job"
        in
        let ok = run_until_failed 0 in
        check bool_ "jobs ran before the crash" true (ok >= 1);
        let _, events, faults = List.hd (Service.tenant_traces svc) in
        let before = List.filteri (fun i _ -> i < ok * 16) events in
        check (Alcotest.list int_) "every earlier task is still traced"
          (List.init (ok * 16) Fun.id)
          (List.sort compare
             (List.map (fun (e : Engine.trace_event) -> e.tr_task) before));
        check bool_ "the crashes are in the fault log" true
          (List.exists (fun (f : Engine.fault_event) -> f.f_kind = "crash")
             faults));
    Alcotest.test_case "a long-lived tenant's trace state stays bounded"
      `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        let job = P.Graph { width = 8; depth = 8; task_flops = 1e6 } in
        let run_jobs n =
          for _ = 1 to n do
            ignore (Service.submit svc ~tenant:"a" job);
            (match Service.run_until_idle svc with
            | [ P.Done { status = P.Jok _; _ } ] -> ()
            | _ -> Alcotest.fail "expected one ok DONE per job");
            List.iter
              (fun e ->
                if Engine.trace e <> [] || Engine.fault_log e <> [] then
                  Alcotest.fail "an engine kept events after its job")
              (Service.engines svc ~tenant:"a")
          done
        in
        let live_words () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        run_jobs 300;
        let at_300 = live_words () in
        run_jobs 2700;
        let at_3000 = live_words () in
        let _, events, _ = List.hd (Service.tenant_traces svc) in
        check int_ "the ring holds trace_cap events" Service.trace_cap
          (List.length events);
        (* one shard: the newest trace_cap tasks of 3000 x 64 *)
        let newest = (3000 * 64) - Service.trace_cap in
        check (Alcotest.list int_) "and ends with the newest jobs' tasks"
          (List.init Service.trace_cap (fun i -> newest + i))
          (List.sort compare
             (List.map (fun (e : Engine.trace_event) -> e.tr_task) events));
        let slack_words = 2 * 1024 * 1024 / (Sys.word_size / 8) in
        if
          float_of_int at_3000
          > (1.25 *. float_of_int at_300) +. float_of_int slack_words
        then
          Alcotest.failf
            "live heap grew from %d words at 300 jobs to %d at 3000" at_300
            at_3000)
  ]

(* A trace ring equals a list that keeps the newest [cap] task events
   and [cap] fault events, read grouped by shard: over caps below,
   at and above the ring's first allocation of 64 slots. *)
let ring_reference =
  QCheck.Test.make ~name:"a trace ring keeps the newest events by shard"
    ~count:200
    QCheck.(
      pair (int_range 1 200)
        (list_of_size Gen.(int_range 0 60)
           (pair (int_range 0 2) (int_range 0 40))))
    (fun (cap, batches) ->
      let ring = Serve.Trace_ring.create ~cap in
      let next = ref 0 in
      let tick () = incr next; !next in
      let task shard k =
        {
          Engine.tr_task = k;
          tr_codelet = Printf.sprintf "c%d" (k mod 3);
          tr_worker = Printf.sprintf "w%d" shard;
          tr_start = float_of_int k;
          tr_compute_start = float_of_int k +. 0.5;
          tr_end = float_of_int k +. 1.0;
          tr_bytes_in = float_of_int (8 * k);
        }
      and fault shard k =
        {
          Engine.f_time = float_of_int k;
          f_kind = "retry";
          f_worker = Printf.sprintf "w%d" shard;
          f_task = k;
          f_detail = "";
        }
      in
      let tasks, faults =
        List.fold_left
          (fun (tasks, faults) (shard, n) ->
            let ts = List.init n (fun _ -> task shard (tick ())) in
            let fs = List.init (n mod 3) (fun _ -> fault shard (tick ())) in
            Serve.Trace_ring.add ring ~shard (ts, fs);
            ( tasks @ List.map (fun e -> (shard, e)) ts,
              faults @ List.map (fun f -> (shard, f)) fs ))
          ([], []) batches
      in
      let newest l = List.filteri (fun i _ -> i >= List.length l - cap) l in
      let by_shard l =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) (newest l)
        |> List.map snd
      in
      Serve.Trace_ring.contents ring = (by_shard tasks, by_shard faults))

(* ------------------------------------------------------------------ *)
(* Flow connectivity: a traced job's spans chain service -> kernel     *)

(* An accepted job carrying a client trace must export as one
   connected Perfetto flow: exactly one "s" and one "f" event, every
   flow event carrying the trace's flow id, every flow event bound to
   a recorded slice (same ts/pid/tid), and the bound slices spanning
   the service queue and the engine's kernel execution — no orphan
   arrows, no parallel chains. *)
let flow_chain =
  QCheck.Test.make
    ~name:"a traced job exports one connected service->kernel flow chain"
    ~count:15
    QCheck.(pair (int_range 1 10000) (int_range 1 0xFFFF))
    (fun (seed, tid) ->
      Obs.Config.set_enabled true;
      Obs.Export.reset_all ();
      let svc =
        Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
      in
      let trace = Printf.sprintf "%016x-0000000000000001" tid in
      let echoed =
        let job =
          if seed mod 2 = 0 then P.Dgemm { n = 48; tiles = 2; seed }
          else P.Cholesky { n = 48; tiles = 2; seed }
        in
        match Service.submit svc ~tenant:"t" ~trace job with
        | P.Accepted { trace = Some t; _ } -> t = trace
        | _ -> false
      in
      let done_echoed =
        match Service.run_until_idle svc with
        | [ P.Done { trace = Some t; _ } ] -> t = trace
        | _ -> false
      in
      (* every scheduler decision names the chosen PU among its
         per-PU estimates *)
      let decisions_named =
        Obs.Decision.count () > 0
        && List.for_all
             (fun (d : Obs.Decision.record) ->
               List.mem_assoc d.Obs.Decision.d_pu d.Obs.Decision.d_estimates)
             (Obs.Decision.records ())
      in
      let doc = Obs.Export.to_chrome_json [] in
      Obs.Export.reset_all ();
      Obs.Config.set_enabled false;
      let schema_ok = Obs.Trace_check.validate_string doc = Ok () in
      let events =
        match J.parse doc with
        | Ok j ->
            Option.value ~default:[]
              (Option.bind (J.member "traceEvents" j) J.to_list)
        | Error _ -> []
      in
      let ph ev = Option.bind (J.member "ph" ev) J.to_string in
      let key ev =
        ( Option.bind (J.member "ts" ev) J.to_number,
          Option.bind (J.member "pid" ev) J.to_number,
          Option.bind (J.member "tid" ev) J.to_number )
      in
      let flows =
        List.filter
          (fun ev ->
            match ph ev with Some ("s" | "t" | "f") -> true | _ -> false)
          events
      in
      let count p = List.length (List.filter (fun ev -> ph ev = Some p) flows) in
      let ids = List.filter_map (fun ev -> J.to_number (Option.get (J.member "id" ev))) flows in
      let slices = List.filter (fun ev -> ph ev = Some "X") events in
      let slice_of ev = List.find_opt (fun x -> key x = key ev) slices in
      let bound_names =
        List.filter_map
          (fun ev ->
            Option.bind (slice_of ev) (fun x ->
                Option.bind (J.member "name" x) J.to_string))
          flows
      in
      let named n = List.filter (fun x -> J.member "name" x = Some (J.Str n)) in
      let has_prefix p n =
        String.length n >= String.length p
        && String.sub n 0 (String.length p) = p
      in
      echoed && done_echoed && decisions_named && schema_ok && flows <> []
      && count "s" = 1 && count "f" = 1
      && List.for_all (fun i -> i = float_of_int tid) ids
      && List.length bound_names = List.length flows
      && List.exists (has_prefix "queue:") bound_names
      && List.exists (has_prefix "exec:") bound_names
      (* input synthesis: one span per job, on the job's flow *)
      && List.length (named "synth" slices) = 1
      && List.mem "synth" bound_names)

(* ------------------------------------------------------------------ *)
(* Backward compatibility: the pre-durability wire dialect             *)

let compat_tests =
  [
    Alcotest.test_case "keyless submits encode byte-identically to the \
                        pre-durability dialect" `Quick (fun () ->
        (* an old-style client's frames must be exactly what the new
           encoder produces when idem is absent, so replaying a PR 9
           transcript against the new daemon is a no-op diff *)
        let old =
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7}}"
        in
        let req =
          P.Submit
            {
              tenant = "a";
              job = P.Dgemm { n = 32; tiles = 2; seed = 7 };
              deadline_ms = None;
              idem = None;
              trace = None;
            }
        in
        check Alcotest.string "identical bytes" old (P.request_to_string req);
        check bool_ "identical decode" true
          (P.request_of_string old = Ok req));
    Alcotest.test_case "valid keys round-trip; malformed keys draw \
                        bad-request" `Quick (fun () ->
        let submit_with idem =
          Printf.sprintf
            "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7},\"idem\":%s}"
            idem
        in
        (match P.request_of_string (submit_with "\"req-1.a:b_C\"") with
        | Ok (P.Submit { idem = Some "req-1.a:b_C"; _ }) -> ()
        | _ -> Alcotest.fail "legal key refused");
        let bad idem =
          match P.request_of_string (submit_with idem) with
          | Error { P.e_code = P.Bad_request; _ } -> ()
          | _ -> Alcotest.failf "malformed key admitted: %s" idem
        in
        bad "\"\"";
        bad "\"has space\"";
        bad "\"nul\\u0000key\"";
        bad (Printf.sprintf "%S" (String.make (P.max_idem_len + 1) 'a'));
        bad "42");
  ]

(* ------------------------------------------------------------------ *)
(* Idempotency: the daemon-side dedup window                           *)

let submit_done svc ~tenant ?idem job =
  ignore (Service.submit svc ~tenant ?idem job);
  List.filter_map
    (function P.Done _ as d -> Some d | _ -> None)
    (Service.run_until_idle svc)

let idem_tests =
  [
    Alcotest.test_case "a pending key replays ACCEPTED with the original id"
      `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        let r1 = Service.submit svc ~tenant:"a" ~idem:"k1" (gjob 1) in
        let r2 = Service.submit svc ~tenant:"a" ~idem:"k1" (gjob 1) in
        let id1 =
          match r1 with P.Accepted { id; _ } -> id | _ -> Alcotest.fail "r1"
        in
        (match r2 with
        | P.Accepted { id; _ } -> check int_ "same id" id1 id
        | _ -> Alcotest.fail "retry not accepted");
        check bool_ "no replay owed while pending" true
          (Service.take_replays svc = []);
        check int_ "exactly one copy enqueued" 1
          (match Service.stats svc with
          | [ row ] -> row.P.tr_submitted
          | _ -> -1));
    Alcotest.test_case "a completed key replays the cached DONE verbatim"
      `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        let dones = submit_done svc ~tenant:"a" ~idem:"k1" (gjob 1) in
        let original =
          match dones with [ d ] -> d | _ -> Alcotest.fail "one done"
        in
        let r = Service.submit svc ~tenant:"a" ~idem:"k1" (gjob 1) in
        (match (r, original) with
        | P.Accepted { id; _ }, P.Done { id = oid; _ } ->
            check int_ "original id echoed" oid id
        | _ -> Alcotest.fail "retry not accepted");
        (match Service.take_replays svc with
        | [ replay ] ->
            check Alcotest.string "bit-identical DONE"
              (P.reply_to_string original)
              (P.reply_to_string replay)
        | l -> Alcotest.failf "expected one replay, got %d" (List.length l));
        check bool_ "the job never re-ran" true
          (Service.run_until_idle svc = []);
        (* dedup wins over draining: a retry mid-drain still replays *)
        ignore (Service.drain svc ());
        match Service.submit svc ~tenant:"a" ~idem:"k1" (gjob 1) with
        | P.Accepted _ -> ()
        | _ -> Alcotest.fail "retry during drain refused");
    Alcotest.test_case "keys are tenant-scoped" `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        ignore (submit_done svc ~tenant:"a" ~idem:"k" (gjob 1));
        (* the same key from another tenant is fresh work *)
        let dones = submit_done svc ~tenant:"b" ~idem:"k" (gjob 1) in
        check int_ "b's job ran" 1 (List.length dones));
    Alcotest.test_case "an invalid key on the direct API is a bad request"
      `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        match Service.submit svc ~tenant:"a" ~idem:"not ok" (gjob 1) with
        | P.Error { code = P.Bad_request; _ } -> ()
        | _ -> Alcotest.fail "invalid key admitted");
    Alcotest.test_case "the completed-key window is bounded" `Quick (fun () ->
        let svc =
          Service.create ~shards:1 ~dedup_cap:2 ~now:(fun () -> 0.0)
            (cfg_of "xeon-2gpu")
        in
        ignore (submit_done svc ~tenant:"a" ~idem:"k1" (gjob 1));
        ignore (submit_done svc ~tenant:"a" ~idem:"k2" (gjob 2));
        ignore (submit_done svc ~tenant:"a" ~idem:"k3" (gjob 3));
        (* k1 evicted: its retry is fresh work, not a replay *)
        ignore (Service.submit svc ~tenant:"a" ~idem:"k1" (gjob 1));
        check bool_ "no cached reply for the evicted key" true
          (Service.take_replays svc = []);
        check bool_ "the resubmitted job runs" true
          (Service.run_until_idle svc <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Journal: the WAL's codec, torn tails, and replay                    *)

module Journal = Serve.Journal

let tmp_journal () =
  Filename.temp_file "cascabel_test_journal" ".wal"

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let mk_accept ?(id = 1) ?(tenant = "a") ?idem ?trace ?deadline_ms job =
  Journal.Accept
    {
      Journal.a_id = id;
      a_tenant = tenant;
      a_job = job;
      a_deadline_ms = deadline_ms;
      a_idem = idem;
      a_trace = trace;
    }

let mk_done ?(id = 1) ?(tenant = "a") ?idem () =
  Journal.Complete
    {
      c_idem = idem;
      c_reply =
        P.Done
          {
            id;
            tenant;
            latency_ms = 1.5;
            status =
              P.Jok
                {
                  makespan_s = 0.25;
                  checksum = "00ff";
                  tasks = 4;
                  coalesced = false;
                  shard = 0;
                };
            trace = None;
          };
    }

let journal_tests =
  [
    Alcotest.test_case "recover pairs accepts with completions" `Quick
      (fun () ->
        let path = tmp_journal () in
        let j = Journal.open_append path in
        Journal.append j (mk_accept ~id:1 ~idem:"k1" (gjob 1));
        Journal.append j (mk_accept ~id:2 (gjob 2));
        Journal.append j (mk_done ~id:1 ~idem:"k1" ());
        Journal.close j;
        let r = Journal.recover path in
        Sys.remove path;
        check bool_ "not torn" false r.Journal.r_torn;
        check int_ "all records read" 3 r.Journal.r_entries;
        check int_ "ids continue past the journal" 2 r.Journal.r_next_id;
        (match r.Journal.r_pending with
        | [ a ] -> check int_ "job 2 still pending" 2 a.Journal.a_id
        | l -> Alcotest.failf "expected one pending, got %d" (List.length l));
        match r.Journal.r_completed with
        | [ (tenant, key, P.Done { id; _ }) ] ->
            check Alcotest.string "tenant" "a" tenant;
            check Alcotest.string "key" "k1" key;
            check int_ "id" 1 id
        | _ -> Alcotest.fail "expected one completed key");
    Alcotest.test_case "a torn tail is discarded, the prefix survives"
      `Quick (fun () ->
        let path = tmp_journal () in
        let l1 = Journal.entry_to_line (mk_accept ~id:1 (gjob 1)) in
        let l2 = Journal.entry_to_line (mk_accept ~id:2 (gjob 2)) in
        (* cut the second record mid-payload, no trailing newline *)
        write_raw path (l1 ^ String.sub l2 0 (String.length l2 - 7));
        let r = Journal.recover path in
        Sys.remove path;
        check bool_ "torn" true r.Journal.r_torn;
        check int_ "prefix record kept" 1 r.Journal.r_entries;
        check int_ "job 1 pending" 1 (List.length r.Journal.r_pending));
    Alcotest.test_case "appending after a torn tail never hides new records"
      `Quick (fun () ->
        (* a naive append would glue the next record onto the torn
           bytes; since replay stops at the first bad line, every
           record of the new incarnation would then be invisible to
           the incarnation after it.  open_append must drop the torn
           bytes first. *)
        let path = tmp_journal () in
        let l1 = Journal.entry_to_line (mk_accept ~id:1 (gjob 1)) in
        let l2 = Journal.entry_to_line (mk_accept ~id:2 (gjob 2)) in
        write_raw path (l1 ^ String.sub l2 0 (String.length l2 - 7));
        let j = Journal.open_append path in
        Journal.append j (mk_done ~id:1 ());
        Journal.close j;
        let entries, torn = Journal.replay path in
        Sys.remove path;
        check bool_ "clean after the torn tail was dropped" false torn;
        check int_ "prefix plus the new record" 2 (List.length entries);
        check bool_ "the new completion is readable" true
          (match List.rev entries with
          | Journal.Complete _ :: _ -> true
          | _ -> false));
    Alcotest.test_case "a corrupted byte fails the CRC, not the daemon"
      `Quick (fun () ->
        let path = tmp_journal () in
        let line = Journal.entry_to_line (mk_accept ~id:1 (gjob 1)) in
        let b = Bytes.of_string line in
        (* flip one payload byte; the stored CRC now disagrees *)
        Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 1));
        write_raw path (Bytes.to_string b);
        let r = Journal.recover path in
        Sys.remove path;
        check bool_ "torn" true r.Journal.r_torn;
        check int_ "nothing recovered" 0 r.Journal.r_entries);
    Alcotest.test_case "an over-cap job cannot be smuggled via the journal"
      `Quick (fun () ->
        (* the embedded request runs through the protocol decoder, so
           admission caps hold even against a hand-edited journal *)
        let huge =
          "{\"v\":1,\"op\":\"submit\",\"tenant\":\"a\",\"job\":{\"kind\":\"dgemm\",\"n\":20000000,\"tiles\":2,\"seed\":1}}"
        in
        List.iter
          (fun req ->
            let payload =
              Printf.sprintf "{\"r\":\"accept\",\"id\":1,\"req\":%s}" req
            in
            let line =
              Printf.sprintf "%08x %s" (Journal.crc32 payload) payload
            in
            match Journal.entry_of_line line with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "over-cap accept decoded: %s" payload)
          [ P.json_string huge (* v1 *); huge (* v2 *) ]);
    Alcotest.test_case "restore re-runs pending work bit-identically" `Quick
      (fun () ->
        (* run a reference service; then simulate a crash after accept
           by journaling accepts only, and compare checksums *)
        let job = P.Dgemm { n = 48; tiles = 3; seed = 11 } in
        let checksum_of dones =
          List.filter_map
            (function
              | P.Done { status = P.Jok { checksum; _ }; _ } -> Some checksum
              | _ -> None)
            dones
        in
        let reference =
          let svc =
            Service.create ~shards:1 ~now:(fun () -> 0.0)
              (cfg_of "xeon-2gpu")
          in
          checksum_of (submit_done svc ~tenant:"a" job)
        in
        let path = tmp_journal () in
        let j = Journal.open_append path in
        Journal.append j (mk_accept ~id:7 ~tenant:"a" ~idem:"k" job);
        Journal.close j;
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        Service.restore svc (Journal.recover path);
        Sys.remove path;
        let dones =
          List.filter_map
            (function P.Done _ as d -> Some d | _ -> None)
            (Service.run_until_idle svc)
        in
        check bool_ "recovered result bit-identical" true
          (checksum_of dones = reference);
        (match dones with
        | [ P.Done { id; _ } ] -> check int_ "journaled id kept" 7 id
        | _ -> Alcotest.fail "expected one done");
        (* the recovered completion seeds the dedup window *)
        ignore (Service.submit svc ~tenant:"a" ~idem:"k" job);
        check int_ "retry replays instead of re-running" 1
          (List.length (Service.take_replays svc));
        (* The same under 30% transient PU faults: a crash after a
           partly run burst, then the client resubmits every key.  Each
           key draws exactly one DONE, carrying the fault-free bits. *)
        let faults =
          {
            Fault.none with
            Fault.seed = 42;
            transient_rate = 0.3;
            retries = 8;
            quarantine_after = 0;
          }
        in
        let burst =
          List.init 6 (fun i ->
              ( Printf.sprintf "key-%d" i,
                P.Dgemm { n = 32; tiles = 2; seed = 100 + i } ))
        in
        let fault_free =
          let svc =
            Service.create ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
          in
          List.concat_map
            (fun (_, job) -> checksum_of (submit_done svc ~tenant:"t" job))
            burst
        in
        let incarnation () =
          let j = Journal.open_append path in
          let svc =
            Service.create ~journal:j ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
          in
          Service.configure_tenant svc ~name:"t" ~faults ();
          (j, svc)
        in
        let submit svc i =
          let k, job = List.nth burst i in
          match Service.submit svc ~tenant:"t" ~idem:k job with
          | P.Accepted { id; _ } -> id
          | _ -> Alcotest.failf "%s refused" k
        in
        let j1, svc1 = incarnation () in
        List.iter (fun i -> ignore (submit svc1 i)) [ 0; 1 ];
        ignore (Service.run_until_idle svc1);
        List.iter (fun i -> ignore (submit svc1 i)) [ 2; 3 ];
        Journal.close j1;
        let j2, svc2 = incarnation () in
        Service.restore svc2 (Journal.recover path);
        let ids = List.init 6 (submit svc2) in
        let replies = Service.take_replays svc2 @ Service.run_until_idle svc2 in
        Journal.close j2;
        Sys.remove path;
        List.iter2
          (fun id want ->
            check (Alcotest.list Alcotest.string) "one fault-free DONE" [ want ]
              (List.filter_map
                 (fun (id', sum) -> if id' = id then Some sum else None)
                 (ok_sums replies)))
          ids fault_free);
    Alcotest.test_case "restore never resurrects a completed job" `Quick
      (fun () ->
        let path = tmp_journal () in
        let j = Journal.open_append path in
        Journal.append j (mk_accept ~id:1 ~idem:"k" (gjob 1));
        Journal.append j (mk_done ~id:1 ~idem:"k" ());
        Journal.close j;
        let svc =
          Service.create ~shards:1 ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
        in
        Service.restore svc (Journal.recover path);
        Sys.remove path;
        check bool_ "nothing to run" false (Service.has_work svc);
        ignore (Service.submit svc ~tenant:"a" ~idem:"k" (gjob 1));
        check int_ "the cached DONE replays across the restart" 1
          (List.length (Service.take_replays svc)));
  ]

(* Arbitrary journal histories: accepts with optional completions, in
   acceptance order, with idempotency keys and hostile tenant names. *)
let gen_history =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (map3
         (fun (tenant, job) idem completed -> (tenant, job, idem, completed))
         (pair gen_tenant gen_job)
         gen_idem bool))

let arb_history =
  QCheck.make
    ~print:(fun h ->
      String.concat ";"
        (List.map
           (fun (t, _, i, c) ->
             Printf.sprintf "(%S,%s,%b)" t
               (match i with None -> "-" | Some k -> k)
               c)
           h))
    gen_history

let history_entries h =
  List.concat
    (List.mapi
       (fun i (tenant, job, idem, completed) ->
         let id = i + 1 in
         mk_accept ~id ~tenant ?idem job
         :: (if completed then [ mk_done ~id ~tenant ?idem () ] else []))
       h)

let journal_roundtrip =
  QCheck.Test.make ~name:"journal replay inverts append" ~count:100
    arb_history (fun h ->
      let entries = history_entries h in
      let path = tmp_journal () in
      let j = Journal.open_append path in
      List.iter (Journal.append j) entries;
      Journal.close j;
      let read, torn = Journal.replay path in
      Sys.remove path;
      (not torn) && read = entries)

let journal_truncation_safe =
  QCheck.Test.make
    ~name:"truncation at any offset never raises, never resurrects"
    ~count:100
    QCheck.(pair arb_history (int_range 0 10_000))
    (fun (h, cut) ->
      let entries = history_entries h in
      let bytes = String.concat "" (List.map Journal.entry_to_line entries) in
      let cut = min cut (String.length bytes) in
      let path = tmp_journal () in
      write_raw path (String.sub bytes 0 cut);
      let r = Journal.recover path in
      (* completions whose record survived the cut, by construction of
         the framed byte stream *)
      let surviving_done_ids =
        let read, _ = Journal.replay path in
        List.filter_map
          (function
            | Journal.Complete { c_reply = P.Done { id; _ }; _ } ->
                Some id
            | _ -> None)
          read
      in
      Sys.remove path;
      let pending_ids =
        List.map (fun a -> a.Journal.a_id) r.Journal.r_pending
      in
      let all_ids = List.mapi (fun i _ -> i + 1) h in
      (cut = String.length bytes && not r.Journal.r_torn
      || cut < String.length bytes)
      && List.for_all (fun id -> List.mem id all_ids) pending_ids
      && List.for_all
           (fun id -> not (List.mem id pending_ids))
           surviving_done_ids
      && List.length (List.sort_uniq compare pending_ids)
         = List.length pending_ids)

(* Byte-level damage to a valid document: deletions, insertions of
   JSON punctuation and truncation, one to four of them. *)
let mutate text =
  let open QCheck.Gen in
  let alphabet = "{}[]\",:0123456789-.e \\u\n\x00" in
  let one s =
    let n = String.length s in
    int_bound n >>= fun i ->
    let rest k = String.sub s k (n - k) in
    oneof
      [ return (if i < n then String.sub s 0 i ^ rest (i + 1) else s);
        map
          (fun c -> String.sub s 0 i ^ String.make 1 c ^ rest i)
          (oneofl (List.init (String.length alphabet) (String.get alphabet)));
        return (String.sub s 0 i) ]
  in
  int_range 1 4 >>= fun k ->
  let rec go k s = if k = 0 then return s else one s >>= go (k - 1) in
  go k text

let request_total =
  QCheck.Test.make ~name:"requests decode totally when mutated" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(gen_request >>= fun r -> mutate (P.request_to_string r)))
    (fun s ->
      match P.request_of_string s with Ok _ | Error _ -> true)

(* Mutated journal lines, half of them re-framed with a matching CRC so
   the damage reaches the record decoder rather than the checksum. *)
let entry_total =
  let gen =
    QCheck.Gen.(
      pair gen_history bool >>= fun (h, reframe) ->
      match history_entries h with
      | [] -> return ""
      | es ->
          oneofl es >>= fun e ->
          let line = Journal.entry_to_line e in
          let payload = String.sub line 9 (String.length line - 10) in
          if reframe then
            map
              (fun p -> Printf.sprintf "%08x %s" (Journal.crc32 p) p)
              (mutate payload)
          else mutate line)
  in
  QCheck.Test.make ~name:"journal lines decode totally when mutated"
    ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun line ->
      match Journal.entry_of_line line with Ok _ | Error _ -> true)

(* Journals with the irregularities a real one can hold: duplicate
   accepts, completions with no accept, keys completed more than once,
   ids out of order. *)
type jop =
  | Acc of int * string * string option
  | Fin of int * string * string option

let gen_jops =
  QCheck.Gen.(
    list_size (int_range 0 24)
      (map3
         (fun accept (id, tenant) idem ->
           if accept then Acc (id, tenant, idem) else Fin (id, tenant, idem))
         (frequency [ (3, return true); (2, return false) ])
         (pair (int_range 1 8) (oneofl [ "a"; "b" ]))
         (oneofl [ None; Some "k1"; Some "k2"; Some "k3"; Some "k4" ])))

let jop_entries =
  List.map (function
    | Acc (id, tenant, idem) -> mk_accept ~id ~tenant ?idem (gjob id)
    | Fin (id, tenant, idem) -> mk_done ~id ~tenant ?idem ())

type damage = Intact | Cut of int | Unterminated | Flip of int | Empty | Missing

let gen_damage =
  QCheck.Gen.(
    oneof
      [ return Intact; map (fun i -> Cut i) (int_bound 4000);
        return Unterminated; map (fun i -> Flip i) (int_bound 4000);
        return Empty; return Missing ])

let write_damaged path bytes = function
  | Missing -> ()
  | Empty -> write_raw path ""
  | Intact -> write_raw path bytes
  | Cut i -> write_raw path (String.sub bytes 0 (min i (String.length bytes)))
  | Unterminated ->
      let n = String.length bytes in
      write_raw path (if n > 0 then String.sub bytes 0 (n - 1) else bytes)
  | Flip i ->
      (* one payload byte: a CRC mismatch somewhere mid-file *)
      let b = Bytes.of_string bytes in
      let n = Bytes.length b in
      if n > 0 then begin
        let i = i mod n in
        if Bytes.get b i <> '\n' then
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20))
      end;
      write_raw path (Bytes.to_string b)

let show_jops (ops, damage, window) =
  Printf.sprintf "%s / %s / window %s"
    (String.concat " "
       (List.map
          (function
            | Acc (id, t, k) ->
                Printf.sprintf "A%d%s%s" id t (Option.value ~default:"" k)
            | Fin (id, t, k) ->
                Printf.sprintf "D%d%s%s" id t (Option.value ~default:"" k))
          ops))
    (match damage with
    | Intact -> "intact" | Cut i -> Printf.sprintf "cut %d" i
    | Unterminated -> "unterminated" | Flip i -> Printf.sprintf "flip %d" i
    | Empty -> "empty" | Missing -> "missing")
    (match window with None -> "unbounded" | Some w -> string_of_int w)

let arb_journal =
  QCheck.make ~print:show_jops
    QCheck.Gen.(
      triple gen_jops gen_damage (opt (int_range 0 5)))

(* A journal file in a fresh path, per [damage]; removed after [k]. *)
let with_journal (ops, damage) k =
  let path = tmp_journal () in
  Sys.remove path;
  write_damaged path
    (String.concat "" (List.map Journal.entry_to_line (jop_entries ops)))
    damage;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> k path)

(* The reader's reference: the whole file split at its newlines, every
   complete line decoded until the first bad one. *)
let reference_replay path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ([], false)
  | contents ->
      let rec go acc = function
        | [] -> (List.rev acc, false)
        | [ tail ] -> (List.rev acc, tail <> "")
        | line :: rest -> (
            match Journal.entry_of_line line with
            | Ok e -> go (e :: acc) rest
            | Error _ -> (List.rev acc, true))
      in
      go [] (String.split_on_char '\n' contents)

(* Recovery's reference: the plan folded over [replay] with lists. *)
let reference_recover ?window path =
  let entries, torn = Journal.replay path in
  let pending = ref [] and completed = ref [] and next_id = ref 0 in
  List.iter
    (function
      | Journal.Accept a ->
          next_id := max !next_id a.Journal.a_id;
          if not (List.mem_assoc a.a_id !pending) then
            pending := !pending @ [ (a.a_id, a) ]
      | Journal.Complete { c_idem; c_reply = P.Done { id; tenant; _ } as r }
        ->
          next_id := max !next_id id;
          pending := List.remove_assoc id !pending;
          Option.iter
            (fun k -> completed := (tenant, k, r) :: !completed)
            c_idem
      | Journal.Complete _ -> ()
      | Journal.Next_id id -> next_id := max !next_id id)
    entries;
  let completed = List.rev !completed in
  let drop =
    match window with Some w -> List.length completed - w | None -> 0
  in
  {
    Journal.r_pending = List.map snd !pending;
    r_completed = List.filteri (fun i _ -> i >= drop) completed;
    r_next_id = !next_id;
    r_entries = List.length entries;
    r_torn = torn;
  }

let recover_reference =
  QCheck.Test.make ~name:"streaming recovery equals a fold over replay"
    ~count:500 arb_journal (fun (ops, damage, window) ->
      with_journal (ops, damage) (fun path ->
          Journal.replay path = reference_replay path
          && Journal.recover ?window path = reference_recover ?window path))

(* Restoring the windowed plan leaves the service in the state the
   whole history leaves it in: the same ids, dedup answers and pending
   order, observed through the public API. *)
let restore_windowed =
  QCheck.Test.make ~name:"a windowed recovery restores the same service"
    ~count:200
    (QCheck.make
       ~print:(fun (ops, damage, cap) ->
         show_jops (ops, damage, Some cap))
       QCheck.Gen.(triple gen_jops gen_damage (int_range 1 4)))
    (fun (ops, damage, cap) ->
      with_journal (ops, damage) (fun path ->
          let restored window =
            Obs.Trace_ctx.set_seed 1L;
            let svc =
              Service.create ~shards:1 ~dedup_cap:cap ~now:(fun () -> 0.0)
                (cfg_of "xeon-2gpu")
            in
            Service.restore svc (Journal.recover ?window path);
            let probes =
              List.concat_map
                (fun tenant ->
                  List.map
                    (fun k ->
                      let r = Service.submit svc ~tenant ~idem:k (gjob 99) in
                      (r, Service.take_replays svc))
                    [ "k1"; "k2"; "k3"; "k4" ])
                [ "a"; "b" ]
            in
            let fresh = Service.submit svc ~tenant:"a" (gjob 98) in
            let dones =
              List.filter_map
                (function
                  | P.Done { id; tenant; _ } -> Some (id, tenant)
                  | _ -> None)
                (Service.run_until_idle svc)
            in
            (probes, fresh, dones)
          in
          restored (Some cap) = restored None))

(* What a restart takes from a recovery: compaction must keep it. *)
let live r = (r.Journal.r_pending, r.Journal.r_completed, r.Journal.r_next_id)

(* A compaction keeps what a restart recovers: the rewritten journal
   recovers to the same pending jobs, dedup window and next id as the
   original, whatever the history and wherever it was torn. *)
let compact_reference =
  QCheck.Test.make ~name:"a compacted journal recovers the same live state"
    ~count:500 arb_journal (fun (ops, damage, window) ->
      with_journal (ops, damage) (fun path ->
          let before = Journal.recover ?window path in
          match Journal.compact path before with
          | Error e -> QCheck.Test.fail_reportf "compaction failed: %s" e
          | Ok c ->
              let after = Journal.recover ?window path in
              live after = live before
              && c.Journal.records_after = after.Journal.r_entries
              && (not after.Journal.r_torn)
              && not (Sys.file_exists (path ^ ".compact"))))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let compaction_tests =
  [
    Alcotest.test_case "ids continue past a keyless newest job" `Quick
      (fun () ->
        let path = tmp_journal () in
        let j = Journal.open_append path in
        Journal.append j (mk_accept ~id:1 ~idem:"k1" (gjob 1));
        Journal.append j (mk_done ~id:1 ~idem:"k1" ());
        Journal.append j (mk_accept ~id:9 (gjob 9));
        Journal.append j (mk_done ~id:9 ());
        Journal.close j;
        let before = Journal.recover path in
        ignore (Result.get_ok (Journal.compact path before));
        let after = Journal.recover path in
        Sys.remove path;
        check int_ "next id kept" 9 after.Journal.r_next_id;
        check int_ "next record and one keyed completion" 2
          after.Journal.r_entries;
        check bool_ "same live state" true (live after = live before));
    Alcotest.test_case "compaction is due on history, not on a young journal"
      `Quick (fun () ->
        let r entries torn =
          { Journal.empty_recovery with r_entries = entries; r_torn = torn }
        in
        check bool_ "young" false (Journal.compaction_due (r 1026 false));
        check bool_ "history" true (Journal.compaction_due (r 1027 false));
        check bool_ "torn" true (Journal.compaction_due (r 3 true)));
    Alcotest.test_case "a leftover side file is ignored and removed" `Quick
      (fun () ->
        let path = tmp_journal () in
        let j = Journal.open_append path in
        Journal.append j (mk_accept ~id:1 (gjob 1));
        Journal.close j;
        let clean = Journal.recover path in
        write_raw (path ^ ".compact")
          (Journal.entry_to_line (Journal.Next_id 42));
        let r = Journal.recover path in
        let j = Journal.open_append path in
        let side_left = Sys.file_exists (path ^ ".compact") in
        Journal.close j;
        Sys.remove path;
        check bool_ "recovery ignores the side file" true (r = clean);
        check bool_ "open_append removed it" false side_left);
    Alcotest.test_case "a compaction that cannot write changes nothing"
      `Quick (fun () ->
        let path = tmp_journal () in
        let j = Journal.open_append path in
        for id = 1 to 3 do
          Journal.append j (mk_accept ~id (gjob id));
          Journal.append j (mk_done ~id ())
        done;
        Journal.close j;
        let bytes = read_file path in
        (* a directory where the side file goes: the write fails *)
        Sys.mkdir (path ^ ".compact") 0o755;
        let result = Journal.compact path (Journal.recover path) in
        let after = read_file path in
        Sys.rmdir (path ^ ".compact");
        Sys.remove path;
        check bool_ "refused" true (Result.is_error result);
        check Alcotest.string "journal byte-identical" bytes after);
    Alcotest.test_case "a kill at any point of a compaction loses nothing"
      `Quick (fun () ->
        (* a crash before the rename leaves the whole journal and part
           of the side file; after it, the whole compacted journal *)
        let path = tmp_journal () in
        let j = Journal.open_append path in
        for id = 1 to 12 do
          let idem =
            if id mod 3 = 0 then None else Some (Printf.sprintf "k%d" id)
          in
          Journal.append j (mk_accept ~id ?idem (gjob id));
          if id mod 4 <> 0 then Journal.append j (mk_done ~id ?idem ())
        done;
        Journal.close j;
        let journal = read_file path in
        let plan = Journal.recover ~window:4 path in
        ignore (Result.get_ok (Journal.compact path plan));
        let compacted = read_file path in
        let recovers_plan () =
          live (Journal.recover ~window:4 path) = live plan
        in
        for cut = 0 to String.length compacted do
          write_raw path journal;
          write_raw (path ^ ".compact") (String.sub compacted 0 cut);
          if not (recovers_plan ()) then
            Alcotest.failf "killed %d bytes into the side file" cut;
          Journal.close (Journal.open_append path);
          if Sys.file_exists (path ^ ".compact") then
            Alcotest.failf "side file left after %d bytes" cut
        done;
        write_raw path compacted;
        let renamed = recovers_plan () in
        Sys.remove path;
        check bool_ "after the rename" true renamed);
    Alcotest.test_case "a journal torn mid-file is rewritten whole" `Quick
      (fun () ->
        (* a bad record with a newline is no torn tail: appending after
           it would hide every new record behind it.  The compaction a
           torn journal draws makes the journal clean again. *)
        let path = tmp_journal () in
        let l1 = Journal.entry_to_line (mk_accept ~id:1 (gjob 1)) in
        let l2 =
          Bytes.of_string (Journal.entry_to_line (mk_accept ~id:2 (gjob 2)))
        in
        Bytes.set l2 12 (Char.chr (Char.code (Bytes.get l2 12) lxor 1));
        let l3 = Journal.entry_to_line (mk_accept ~id:3 (gjob 3)) in
        write_raw path (l1 ^ Bytes.to_string l2 ^ l3);
        let r = Journal.recover path in
        check bool_ "torn" true r.Journal.r_torn;
        check bool_ "due" true (Journal.compaction_due r);
        ignore (Result.get_ok (Journal.compact path r));
        let j = Journal.open_append path in
        Journal.append j (mk_done ~id:1 ());
        Journal.close j;
        let after = Journal.recover path in
        Sys.remove path;
        check bool_ "clean" false after.Journal.r_torn;
        check int_ "next, accept, the new completion" 3
          after.Journal.r_entries;
        check int_ "nothing pending" 0 (List.length after.Journal.r_pending));
  ]

(* ------------------------------------------------------------------ *)

(* Golden DONE checksums: the result bits of every kernel path a
   served job runs, recorded before the kernels were last reworked. *)
let golden_jobs =
  List.concat_map
    (fun (mk, sizes) ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun tiles -> List.map (fun seed -> mk n tiles seed) [ 1; 2; 3; 4 ])
            [ 2; 3; 4; 5 ])
        sizes)
    [
      ((fun n tiles seed -> P.Dgemm { n; tiles; seed }), [ 32; 77; 256 ]);
      ((fun n tiles seed -> P.Cholesky { n; tiles; seed }), [ 64; 100; 257; 512 ]);
    ]

let job_label = function
  | P.Dgemm { n; tiles; seed } -> Printf.sprintf "dgemm n=%d t=%d s=%d" n tiles seed
  | P.Cholesky { n; tiles; seed } ->
      Printf.sprintf "cholesky n=%d t=%d s=%d" n tiles seed
  | P.Graph _ -> "graph"

let golden_checksums () =
  let svc =
    Service.create ~policy:Engine.Heft ~shards:2 ~queue_cap:(List.length golden_jobs)
      ~now:(fun () -> 0.0) (cfg_of "xeon-2gpu")
  in
  List.iter (fun j -> ignore (Service.submit svc ~tenant:"golden" j)) golden_jobs;
  let sums =
    List.filter_map
      (function
        | P.Done { id; status = P.Jok { checksum; _ }; _ } -> Some (id, checksum)
        | P.Done { id; _ } -> Some (id, "failed")
        | _ -> None)
      (Service.run_until_idle svc)
    |> List.sort compare |> List.map snd
  in
  List.combine (List.map job_label golden_jobs) sums

let golden_expected =
  [
      ("dgemm n=32 t=2 s=1", "4049ff04817a2e92");
      ("dgemm n=32 t=2 s=2", "c02cde1310d86c3c");
      ("dgemm n=32 t=2 s=3", "4042871570656b50");
      ("dgemm n=32 t=2 s=4", "c050d08aadf99f2d");
      ("dgemm n=32 t=3 s=1", "4049ff04817a2e92");
      ("dgemm n=32 t=3 s=2", "c02cde1310d86c3c");
      ("dgemm n=32 t=3 s=3", "4042871570656b50");
      ("dgemm n=32 t=3 s=4", "c050d08aadf99f2d");
      ("dgemm n=32 t=4 s=1", "4049ff04817a2e92");
      ("dgemm n=32 t=4 s=2", "c02cde1310d86c3c");
      ("dgemm n=32 t=4 s=3", "4042871570656b50");
      ("dgemm n=32 t=4 s=4", "c050d08aadf99f2d");
      ("dgemm n=32 t=5 s=1", "4049ff04817a2e92");
      ("dgemm n=32 t=5 s=2", "c02cde1310d86c3c");
      ("dgemm n=32 t=5 s=3", "4042871570656b50");
      ("dgemm n=32 t=5 s=4", "c050d08aadf99f2d");
      ("dgemm n=77 t=2 s=1", "40443edbf0422c87");
      ("dgemm n=77 t=2 s=2", "c06de6f2b42011ff");
      ("dgemm n=77 t=2 s=3", "4072b1ed8fb3b032");
      ("dgemm n=77 t=2 s=4", "c061ed266dea9df3");
      ("dgemm n=77 t=3 s=1", "40443edbf0422c87");
      ("dgemm n=77 t=3 s=2", "c06de6f2b42011ff");
      ("dgemm n=77 t=3 s=3", "4072b1ed8fb3b032");
      ("dgemm n=77 t=3 s=4", "c061ed266dea9df3");
      ("dgemm n=77 t=4 s=1", "40443edbf0422c87");
      ("dgemm n=77 t=4 s=2", "c06de6f2b42011ff");
      ("dgemm n=77 t=4 s=3", "4072b1ed8fb3b032");
      ("dgemm n=77 t=4 s=4", "c061ed266dea9df3");
      ("dgemm n=77 t=5 s=1", "40443edbf0422c87");
      ("dgemm n=77 t=5 s=2", "c06de6f2b42011ff");
      ("dgemm n=77 t=5 s=3", "4072b1ed8fb3b032");
      ("dgemm n=77 t=5 s=4", "c061ed266dea9df3");
      ("dgemm n=256 t=2 s=1", "408d1485e6bd1e76");
      ("dgemm n=256 t=2 s=2", "404ecebdbe381c2c");
      ("dgemm n=256 t=2 s=3", "c08ac59cd0743b5c");
      ("dgemm n=256 t=2 s=4", "4071b2c1b42bd087");
      ("dgemm n=256 t=3 s=1", "408d1485e6bd1e76");
      ("dgemm n=256 t=3 s=2", "404ecebdbe381c2c");
      ("dgemm n=256 t=3 s=3", "c08ac59cd0743b5c");
      ("dgemm n=256 t=3 s=4", "4071b2c1b42bd087");
      ("dgemm n=256 t=4 s=1", "408d1485e6bd1e76");
      ("dgemm n=256 t=4 s=2", "404ecebdbe381c2c");
      ("dgemm n=256 t=4 s=3", "c08ac59cd0743b5c");
      ("dgemm n=256 t=4 s=4", "4071b2c1b42bd087");
      ("dgemm n=256 t=5 s=1", "408d1485e6bd1e76");
      ("dgemm n=256 t=5 s=2", "404ecebdbe381c2c");
      ("dgemm n=256 t=5 s=3", "c08ac59cd0743b5c");
      ("dgemm n=256 t=5 s=4", "4071b2c1b42bd087");
      ("cholesky n=64 t=2 s=1", "40822af8e854ead5");
      ("cholesky n=64 t=2 s=2", "4081ce3b9cc93a89");
      ("cholesky n=64 t=2 s=3", "40820bdbf336128f");
      ("cholesky n=64 t=2 s=4", "40824bbfbcbbcc12");
      ("cholesky n=64 t=3 s=1", "40822af8e854ead5");
      ("cholesky n=64 t=3 s=2", "4081ce3b9cc93a88");
      ("cholesky n=64 t=3 s=3", "40820bdbf336128f");
      ("cholesky n=64 t=3 s=4", "40824bbfbcbbcc11");
      ("cholesky n=64 t=4 s=1", "40822af8e854ead5");
      ("cholesky n=64 t=4 s=2", "4081ce3b9cc93a89");
      ("cholesky n=64 t=4 s=3", "40820bdbf336128f");
      ("cholesky n=64 t=4 s=4", "40824bbfbcbbcc12");
      ("cholesky n=64 t=5 s=1", "40822af8e854ead5");
      ("cholesky n=64 t=5 s=2", "4081ce3b9cc93a88");
      ("cholesky n=64 t=5 s=3", "40820bdbf336128f");
      ("cholesky n=64 t=5 s=4", "40824bbfbcbbcc12");
      ("cholesky n=100 t=2 s=1", "4091a2229cfa36e0");
      ("cholesky n=100 t=2 s=2", "4091544d5f35e3ef");
      ("cholesky n=100 t=2 s=3", "4091d647776e6b37");
      ("cholesky n=100 t=2 s=4", "40916f6219fea5bb");
      ("cholesky n=100 t=3 s=1", "4091a2229cfa36e0");
      ("cholesky n=100 t=3 s=2", "4091544d5f35e3ee");
      ("cholesky n=100 t=3 s=3", "4091d647776e6b38");
      ("cholesky n=100 t=3 s=4", "40916f6219fea5bb");
      ("cholesky n=100 t=4 s=1", "4091a2229cfa36e0");
      ("cholesky n=100 t=4 s=2", "4091544d5f35e3ef");
      ("cholesky n=100 t=4 s=3", "4091d647776e6b39");
      ("cholesky n=100 t=4 s=4", "40916f6219fea5bb");
      ("cholesky n=100 t=5 s=1", "4091a2229cfa36e0");
      ("cholesky n=100 t=5 s=2", "4091544d5f35e3ef");
      ("cholesky n=100 t=5 s=3", "4091d647776e6b37");
      ("cholesky n=100 t=5 s=4", "40916f6219fea5bb");
      ("cholesky n=257 t=2 s=1", "40b2bc3cd586f0d4");
      ("cholesky n=257 t=2 s=2", "40b248aef2269442");
      ("cholesky n=257 t=2 s=3", "40b1fb9c6b6e3713");
      ("cholesky n=257 t=2 s=4", "40b22785b3e455c1");
      ("cholesky n=257 t=3 s=1", "40b2bc3cd586f0d2");
      ("cholesky n=257 t=3 s=2", "40b248aef2269443");
      ("cholesky n=257 t=3 s=3", "40b1fb9c6b6e3713");
      ("cholesky n=257 t=3 s=4", "40b22785b3e455c1");
      ("cholesky n=257 t=4 s=1", "40b2bc3cd586f0d2");
      ("cholesky n=257 t=4 s=2", "40b248aef2269442");
      ("cholesky n=257 t=4 s=3", "40b1fb9c6b6e3712");
      ("cholesky n=257 t=4 s=4", "40b22785b3e455c1");
      ("cholesky n=257 t=5 s=1", "40b2bc3cd586f0d1");
      ("cholesky n=257 t=5 s=2", "40b248aef2269442");
      ("cholesky n=257 t=5 s=3", "40b1fb9c6b6e3713");
      ("cholesky n=257 t=5 s=4", "40b22785b3e455c1");
      ("cholesky n=512 t=2 s=1", "40c9d9995dbb216c");
      ("cholesky n=512 t=2 s=2", "40c9baee4f4d5d61");
      ("cholesky n=512 t=2 s=3", "40c9c5e981781019");
      ("cholesky n=512 t=2 s=4", "40c990f68c781d79");
      ("cholesky n=512 t=3 s=1", "40c9d9995dbb216c");
      ("cholesky n=512 t=3 s=2", "40c9baee4f4d5d62");
      ("cholesky n=512 t=3 s=3", "40c9c5e98178101b");
      ("cholesky n=512 t=3 s=4", "40c990f68c781d77");
      ("cholesky n=512 t=4 s=1", "40c9d9995dbb216c");
      ("cholesky n=512 t=4 s=2", "40c9baee4f4d5d61");
      ("cholesky n=512 t=4 s=3", "40c9c5e981781019");
      ("cholesky n=512 t=4 s=4", "40c990f68c781d79");
      ("cholesky n=512 t=5 s=1", "40c9d9995dbb216e");
      ("cholesky n=512 t=5 s=2", "40c9baee4f4d5d60");
      ("cholesky n=512 t=5 s=3", "40c9c5e98178101b");
      ("cholesky n=512 t=5 s=4", "40c990f68c781d77");
  ]

let golden_tests =
  [
    Alcotest.test_case "DONE checksums match golden values" `Quick (fun () ->
        List.iter2
          (fun (label, got) (label', want) ->
            check Alcotest.string "case" label' label;
            check Alcotest.string label want got)
          (golden_checksums ()) golden_expected);
  ]

(* ------------------------------------------------------------------ *)
(* Golden wire bytes: every request/reply variant and both journal
   entry kinds, with optional fields present and absent, awkward
   strings and boundary floats.  The expected bytes were recorded from
   the hand-written encoder this codec replaced. *)

let odd = "q\"b\\s\nn\tt\001c\195\169"
let floats = [ 0.1; -0.; 5e-324; 1e300; 1e15; 9007199254740992. ]
let trace_id = "0123456789abcdef-fedcba9876543210"

let row ?slo_ms ~quarantined w =
  {
    P.tr_tenant = odd;
    tr_submitted = 9;
    tr_completed = 7;
    tr_rejected = 1;
    tr_timeouts = 0;
    tr_cancelled = 2;
    tr_failed = 3;
    tr_coalesced = 4;
    tr_queue = 5;
    tr_cap = 64;
    tr_weight = w;
    tr_busy_vs = 0.1;
    tr_quarantined = quarantined;
    tr_slo_ms = slo_ms;
    tr_slo_good = 11;
    tr_slo_bad = 12;
    tr_burn_rate = 1e300;
  }

let ok_status ~coalesced makespan_s =
  P.Jok { makespan_s; checksum = "00ff"; tasks = 4; coalesced; shard = 1 }

(* The journal records the wire goldens pin; each is written as a v2
   line and must also decode from its recorded v1 line. *)
let journal_golden_entries =
  [
    ( "journal/accept-bare",
      Serve.Journal.Accept
        {
          a_id = 1;
          a_tenant = odd;
          a_job = P.Dgemm { n = 32; tiles = 2; seed = 7 };
          a_deadline_ms = None;
          a_idem = None;
          a_trace = None;
        } );
    ( "journal/accept-full",
      Serve.Journal.Accept
        {
          a_id = 2;
          a_tenant = "t";
          a_job = P.Graph { width = 3; depth = 2; task_flops = 0.1 };
          a_deadline_ms = Some 5e-324;
          a_idem = Some "k-1";
          a_trace = Some trace_id;
        } );
    ( "journal/done-bare",
      Serve.Journal.Complete
        {
          c_idem = None;
          c_reply =
            P.Done
              {
                id = 1;
                tenant = odd;
                latency_ms = 1e300;
                status = P.Jfailed odd;
                trace = None;
              };
        } );
    ( "journal/done-full",
      Serve.Journal.Complete
        {
          c_idem = Some "k-1";
          c_reply =
            P.Done
              {
                id = 2;
                tenant = "t";
                latency_ms = 9007199254740992.;
                status = ok_status ~coalesced:true (-0.);
                trace = Some trace_id;
              };
        } );
  ]

let wire_cases () =
  let req r = P.request_to_string r and rep r = P.reply_to_string r in
  let each prefix f =
    List.mapi (fun i x -> (Printf.sprintf "%s/%d" prefix i, f x)) floats
  in
  [
    ( "submit/bare",
      req
        (P.Submit
           {
             tenant = odd;
             job = P.Dgemm { n = 32; tiles = 2; seed = 7 };
             deadline_ms = None;
             idem = None;
             trace = None;
           }) );
    ( "submit/full",
      req
        (P.Submit
           {
             tenant = "t";
             job = P.Cholesky { n = 64; tiles = 4; seed = -3 };
             deadline_ms = Some 0.1;
             idem = Some "k-1.a:b_C";
             trace = Some trace_id;
           }) );
    ( "submit/trace-only",
      req
        (P.Submit
           {
             tenant = "t";
             job = P.Dgemm { n = 1; tiles = 1; seed = 0 };
             deadline_ms = None;
             idem = None;
             trace = Some trace_id;
           }) );
    ("run", req P.Run);
    ("stats", req P.Stats);
    ("ping", req P.Ping);
    ("drain/none", req (P.Drain { budget_ms = None }));
  ]
  @ each "submit/graph" (fun f ->
        req
          (P.Submit
             {
               tenant = odd;
               job = P.Graph { width = 3; depth = 2; task_flops = f };
               deadline_ms = Some f;
               idem = None;
               trace = None;
             }))
  @ each "drain" (fun f -> req (P.Drain { budget_ms = Some f }))
  @ [
      ("accepted/bare", rep (P.Accepted { id = 1; credit = 0; trace = None }));
      ( "accepted/trace",
        rep (P.Accepted { id = 42; credit = -5; trace = Some trace_id }) );
      ("draining", rep P.Draining);
      ("idle", rep (P.Idle { completed = 17 }));
      ("drained", rep (P.Drained { completed = 3; cancelled = 2 }));
      ("pong", rep P.Pong);
      ( "done/failed",
        rep
          (P.Done
             {
               id = 5;
               tenant = odd;
               latency_ms = 2.5;
               status = P.Jfailed odd;
               trace = Some trace_id;
             }) );
      ( "done/timeout",
        rep
          (P.Done
             {
               id = 6;
               tenant = "t";
               latency_ms = 0.;
               status = P.Jtimeout;
               trace = None;
             }) );
      ( "done/cancelled",
        rep
          (P.Done
             {
               id = 7;
               tenant = "t";
               latency_ms = 1e15;
               status = P.Jcancelled;
               trace = None;
             }) );
      ("stats/empty", rep (P.Stats_reply []));
      ( "stats/rows",
        rep
          (P.Stats_reply
             [
               row ~slo_ms:0.1 ~quarantined:[ "gpu0"; odd ] 2.0;
               row ~quarantined:[] 5e-324;
             ]) );
    ]
  @ List.map
      (fun code ->
        ( "error/" ^ P.err_code_to_string code,
          rep (P.Error { code; reason = odd }) ))
      [ P.Parse; P.Version; P.Bad_request ]
  @ each "overloaded" (fun f ->
        rep (P.Overloaded { tenant = odd; queue = 3; cap = 4; retry_ms = f }))
  @ each "done/ok" (fun f ->
        rep
          (P.Done
             {
               id = 8;
               tenant = odd;
               latency_ms = f;
               status = ok_status ~coalesced:(f > 1.) f;
               trace = (if f > 1. then Some trace_id else None);
             }))
  @ List.map
      (fun (label, e) -> (label, Serve.Journal.entry_to_line e))
      journal_golden_entries
  @ [ ("journal/next", Serve.Journal.entry_to_line (Serve.Journal.Next_id 42)) ]

let wire_expected =
  [
    ("submit/bare",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7}}");
    ("submit/full",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"t\",\"job\":{\"kind\":\"cholesky\",\"n\":64,\"tiles\":4,\"seed\":-3},\"deadline_ms\":0.10000000000000001,\"idem\":\"k-1.a:b_C\",\"trace\":\"0123456789abcdef-fedcba9876543210\"}");
    ( "submit/trace-only",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"t\",\"job\":{\"kind\":\"dgemm\",\"n\":1,\"tiles\":1,\"seed\":0},\"trace\":\"0123456789abcdef-fedcba9876543210\"}");
    ("run",
     "{\"v\":1,\"op\":\"run\"}");
    ("stats",
     "{\"v\":1,\"op\":\"stats\"}");
    ("ping",
     "{\"v\":1,\"op\":\"ping\"}");
    ("drain/none",
     "{\"v\":1,\"op\":\"drain\"}");
    ("submit/graph/0",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":0.10000000000000001},\"deadline_ms\":0.10000000000000001}");
    ("submit/graph/1",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":-0},\"deadline_ms\":-0}");
    ("submit/graph/2",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":4.9406564584124654e-324},\"deadline_ms\":4.9406564584124654e-324}");
    ("submit/graph/3",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":1.0000000000000001e+300},\"deadline_ms\":1.0000000000000001e+300}");
    ("submit/graph/4",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":1000000000000000},\"deadline_ms\":1000000000000000}");
    ("submit/graph/5",
     "{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":9007199254740992},\"deadline_ms\":9007199254740992}");
    ("drain/0",
     "{\"v\":1,\"op\":\"drain\",\"budget_ms\":0.10000000000000001}");
    ("drain/1",
     "{\"v\":1,\"op\":\"drain\",\"budget_ms\":-0}");
    ("drain/2",
     "{\"v\":1,\"op\":\"drain\",\"budget_ms\":4.9406564584124654e-324}");
    ("drain/3",
     "{\"v\":1,\"op\":\"drain\",\"budget_ms\":1.0000000000000001e+300}");
    ("drain/4",
     "{\"v\":1,\"op\":\"drain\",\"budget_ms\":1000000000000000}");
    ("drain/5",
     "{\"v\":1,\"op\":\"drain\",\"budget_ms\":9007199254740992}");
    ("accepted/bare",
     "{\"v\":1,\"re\":\"accepted\",\"id\":1,\"credit\":0}");
    ("accepted/trace",
     "{\"v\":1,\"re\":\"accepted\",\"id\":42,\"credit\":-5,\"trace\":\"0123456789abcdef-fedcba9876543210\"}");
    ("draining",
     "{\"v\":1,\"re\":\"draining\"}");
    ("idle",
     "{\"v\":1,\"re\":\"idle\",\"completed\":17}");
    ("drained",
     "{\"v\":1,\"re\":\"drained\",\"completed\":3,\"cancelled\":2}");
    ("pong",
     "{\"v\":1,\"re\":\"pong\"}");
    ("done/failed",
     "{\"v\":1,\"re\":\"done\",\"id\":5,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":2.5,\"trace\":\"0123456789abcdef-fedcba9876543210\",\"status\":\"failed\",\"reason\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\"}");
    ("done/timeout",
     "{\"v\":1,\"re\":\"done\",\"id\":6,\"tenant\":\"t\",\"latency_ms\":0,\"status\":\"timeout\"}");
    ("done/cancelled",
     "{\"v\":1,\"re\":\"done\",\"id\":7,\"tenant\":\"t\",\"latency_ms\":1000000000000000,\"status\":\"cancelled\"}");
    ("stats/empty",
     "{\"v\":1,\"re\":\"stats\",\"tenants\":[]}");
    ("stats/rows",
     "{\"v\":1,\"re\":\"stats\",\"tenants\":[{\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"submitted\":9,\"completed\":7,\"rejected\":1,\"timeouts\":0,\"cancelled\":2,\"failed\":3,\"coalesced\":4,\"queue\":5,\"cap\":64,\"weight\":2,\"busy_vs\":0.10000000000000001,\"quarantined\":[\"gpu0\",\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\"],\"slo_ms\":0.10000000000000001,\"slo_good\":11,\"slo_bad\":12,\"burn_rate\":1.0000000000000001e+300},{\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"submitted\":9,\"completed\":7,\"rejected\":1,\"timeouts\":0,\"cancelled\":2,\"failed\":3,\"coalesced\":4,\"queue\":5,\"cap\":64,\"weight\":4.9406564584124654e-324,\"busy_vs\":0.10000000000000001,\"quarantined\":[],\"slo_good\":11,\"slo_bad\":12,\"burn_rate\":1.0000000000000001e+300}]}");
    ("error/parse",
     "{\"v\":1,\"re\":\"error\",\"code\":\"parse\",\"reason\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\"}");
    ("error/version",
     "{\"v\":1,\"re\":\"error\",\"code\":\"version\",\"reason\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\"}");
    ("error/bad-request",
     "{\"v\":1,\"re\":\"error\",\"code\":\"bad-request\",\"reason\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\"}");
    ("overloaded/0",
     "{\"v\":1,\"re\":\"overloaded\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"queue\":3,\"cap\":4,\"retry_ms\":0.10000000000000001}");
    ("overloaded/1",
     "{\"v\":1,\"re\":\"overloaded\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"queue\":3,\"cap\":4,\"retry_ms\":-0}");
    ("overloaded/2",
     "{\"v\":1,\"re\":\"overloaded\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"queue\":3,\"cap\":4,\"retry_ms\":4.9406564584124654e-324}");
    ("overloaded/3",
     "{\"v\":1,\"re\":\"overloaded\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"queue\":3,\"cap\":4,\"retry_ms\":1.0000000000000001e+300}");
    ("overloaded/4",
     "{\"v\":1,\"re\":\"overloaded\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"queue\":3,\"cap\":4,\"retry_ms\":1000000000000000}");
    ("overloaded/5",
     "{\"v\":1,\"re\":\"overloaded\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"queue\":3,\"cap\":4,\"retry_ms\":9007199254740992}");
    ("done/ok/0",
     "{\"v\":1,\"re\":\"done\",\"id\":8,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":0.10000000000000001,\"status\":\"ok\",\"makespan_s\":0.10000000000000001,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":false,\"shard\":1}");
    ("done/ok/1",
     "{\"v\":1,\"re\":\"done\",\"id\":8,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":-0,\"status\":\"ok\",\"makespan_s\":-0,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":false,\"shard\":1}");
    ("done/ok/2",
     "{\"v\":1,\"re\":\"done\",\"id\":8,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":4.9406564584124654e-324,\"status\":\"ok\",\"makespan_s\":4.9406564584124654e-324,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":false,\"shard\":1}");
    ("done/ok/3",
     "{\"v\":1,\"re\":\"done\",\"id\":8,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":1.0000000000000001e+300,\"trace\":\"0123456789abcdef-fedcba9876543210\",\"status\":\"ok\",\"makespan_s\":1.0000000000000001e+300,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":true,\"shard\":1}");
    ("done/ok/4",
     "{\"v\":1,\"re\":\"done\",\"id\":8,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":1000000000000000,\"trace\":\"0123456789abcdef-fedcba9876543210\",\"status\":\"ok\",\"makespan_s\":1000000000000000,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":true,\"shard\":1}");
    ("done/ok/5",
     "{\"v\":1,\"re\":\"done\",\"id\":8,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":9007199254740992,\"trace\":\"0123456789abcdef-fedcba9876543210\",\"status\":\"ok\",\"makespan_s\":9007199254740992,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":true,\"shard\":1}");
    ("journal/accept-bare",
     "b0e2c489 {\"r\":\"accept\",\"id\":1,\"req\":{\"v\":1,\"op\":\"submit\",\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"job\":{\"kind\":\"dgemm\",\"n\":32,\"tiles\":2,\"seed\":7}}}\n");
    ("journal/accept-full",
     "54e85f11 {\"r\":\"accept\",\"id\":2,\"req\":{\"v\":1,\"op\":\"submit\",\"tenant\":\"t\",\"job\":{\"kind\":\"graph\",\"width\":3,\"depth\":2,\"task_flops\":0.10000000000000001},\"deadline_ms\":4.9406564584124654e-324,\"idem\":\"k-1\",\"trace\":\"0123456789abcdef-fedcba9876543210\"}}\n");
    ("journal/done-bare",
     "602f753d {\"r\":\"done\",\"reply\":{\"v\":1,\"re\":\"done\",\"id\":1,\"tenant\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\",\"latency_ms\":1.0000000000000001e+300,\"status\":\"failed\",\"reason\":\"q\\\"b\\\\s\\nn\\u0009t\\u0001c\195\169\"}}\n");
    ("journal/done-full",
     "1a69f468 {\"r\":\"done\",\"idem\":\"k-1\",\"reply\":{\"v\":1,\"re\":\"done\",\"id\":2,\"tenant\":\"t\",\"latency_ms\":9007199254740992,\"trace\":\"0123456789abcdef-fedcba9876543210\",\"status\":\"ok\",\"makespan_s\":-0,\"checksum\":\"00ff\",\"tasks\":4,\"coalesced\":true,\"shard\":1}}\n");
    ("journal/next",
     "56fd9097 {\"r\":\"next\",\"id\":42}\n");
  ]

(* The same records as v1 wrote them, the frame held as a JSON string:
   a v1 journal must still replay, to the same entries. *)
let journal_v1_lines =
  [
    ("journal/accept-bare",
     "7394d946 {\"r\":\"accept\",\"id\":1,\"req\":\"{\\\"v\\\":1,\\\"op\\\":\\\"submit\\\",\\\"tenant\\\":\\\"q\\\\\\\"b\\\\\\\\s\\\\nn\\\\u0009t\\\\u0001c\195\169\\\",\\\"job\\\":{\\\"kind\\\":\\\"dgemm\\\",\\\"n\\\":32,\\\"tiles\\\":2,\\\"seed\\\":7}}\"}\n");
    ("journal/accept-full",
     "9fc920a9 {\"r\":\"accept\",\"id\":2,\"req\":\"{\\\"v\\\":1,\\\"op\\\":\\\"submit\\\",\\\"tenant\\\":\\\"t\\\",\\\"job\\\":{\\\"kind\\\":\\\"graph\\\",\\\"width\\\":3,\\\"depth\\\":2,\\\"task_flops\\\":0.10000000000000001},\\\"deadline_ms\\\":4.9406564584124654e-324,\\\"idem\\\":\\\"k-1\\\",\\\"trace\\\":\\\"0123456789abcdef-fedcba9876543210\\\"}\"}\n");
    ("journal/done-bare",
     "73571996 {\"r\":\"done\",\"reply\":\"{\\\"v\\\":1,\\\"re\\\":\\\"done\\\",\\\"id\\\":1,\\\"tenant\\\":\\\"q\\\\\\\"b\\\\\\\\s\\\\nn\\\\u0009t\\\\u0001c\195\169\\\",\\\"latency_ms\\\":1.0000000000000001e+300,\\\"status\\\":\\\"failed\\\",\\\"reason\\\":\\\"q\\\\\\\"b\\\\\\\\s\\\\nn\\\\u0009t\\\\u0001c\195\169\\\"}\"}\n");
    ("journal/done-full",
     "688d19cc {\"r\":\"done\",\"idem\":\"k-1\",\"reply\":\"{\\\"v\\\":1,\\\"re\\\":\\\"done\\\",\\\"id\\\":2,\\\"tenant\\\":\\\"t\\\",\\\"latency_ms\\\":9007199254740992,\\\"trace\\\":\\\"0123456789abcdef-fedcba9876543210\\\",\\\"status\\\":\\\"ok\\\",\\\"makespan_s\\\":-0,\\\"checksum\\\":\\\"00ff\\\",\\\"tasks\\\":4,\\\"coalesced\\\":true,\\\"shard\\\":1}\"}\n");
  ]

let wire_tests =
  [
    Alcotest.test_case "frames and journal lines match recorded bytes" `Quick
      (fun () ->
        let got = wire_cases () in
        check int_ "case count" (List.length wire_expected) (List.length got);
        List.iter2
          (fun (label, got) (label', want) ->
            check Alcotest.string "case" label' label;
            check Alcotest.string label want got)
          got wire_expected);
    Alcotest.test_case "v1 journal lines decode to the same entries" `Quick
      (fun () ->
        List.iter2
          (fun (label, line) (label', entry) ->
            check Alcotest.string "case" label' label;
            let line = String.sub line 0 (String.length line - 1) in
            match Serve.Journal.entry_of_line line with
            | Ok e -> check bool_ label true (e = entry)
            | Error e -> Alcotest.failf "%s: %s" label e)
          journal_v1_lines journal_golden_entries);
    Alcotest.test_case "a v1 journal keeps replaying after v2 appends" `Quick
      (fun () ->
        let path = tmp_journal () in
        write_raw path (String.concat "" (List.map snd journal_v1_lines));
        let j = Journal.open_append path in
        Journal.append j (mk_accept ~id:3 (gjob 3));
        Journal.close j;
        let entries, torn = Journal.replay path in
        Sys.remove path;
        check bool_ "clean" false torn;
        let want =
          List.map snd journal_golden_entries @ [ mk_accept ~id:3 (gjob 3) ]
        in
        check bool_ "v1 records, then the v2 one" true (entries = want));
  ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ("protocol", protocol_tests);
      ("compat", compat_tests);
      ("idempotency", idem_tests);
      ("journal", journal_tests);
      ("compaction", compaction_tests);
      ("service", service_tests);
      ("buffers", buffer_tests);
      ("golden", golden_tests);
      ("wire", wire_tests);
      ("trace", trace_tests);
      ( "properties",
        qt
          [
            request_roundtrip; reply_roundtrip; decode_total; request_total;
            entry_total; framing_roundtrip; journal_roundtrip;
            journal_truncation_safe; recover_reference; restore_windowed;
            compact_reference;
            shard_partition; engine_interleave; ring_reference; flow_chain;
            buffers_reuse;
          ]
      );
    ]

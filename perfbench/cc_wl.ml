(* cc-dgemm: the paper's case study on the compile path.  The annotated
   serial program examples/programs/dgemm.c, with N and the fill chosen
   here, goes through PDL load -> parse -> Codegen.translate ->
   Emit_c.emit -> Native.build (cc + dlopen), then runs repeatedly with
   its variant bodies as compiled code.  The only workload on the
   compile and native paths; serving is not involved.

   N = 512 keeps a run near 0.65 s on one core (about half in native
   task bodies, half in the interpreted serial loops), so a 20 s run of
   the benchmark sees about 30 program executions.  The fill moduli come
   from the seed; every product and partial sum is a multiple of 0.5
   below 2^53, so the printed checksum is exact and must equal the one
   computed with Kernels.Blas.dgemm. *)

let name = "cc-dgemm"
let n = 512
let source = "examples/programs/dgemm.c"

let replace ~sub ~by s =
  let ls = String.length sub in
  let rec find i =
    if i + ls > String.length s then failwith (source ^ ": no " ^ sub)
    else if String.sub s i ls = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + ls) (String.length s - i - ls)

let program ~p ~q =
  Stats.read_file source
  |> replace ~sub:"#define N 32" ~by:(Printf.sprintf "#define N %d" n)
  |> replace ~sub:"1.0 + i % 9" ~by:(Printf.sprintf "1.0 + i %% %d" p)
  |> replace ~sub:"0.5 * (i % 11)" ~by:(Printf.sprintf "0.5 * (i %% %d)" q)

let expected ~p ~q =
  let fill f = Kernels.Matrix.init n n (fun i j -> f ((i * n) + j)) in
  let a = fill (fun i -> 1.0 +. float_of_int (i mod p))
  and b = fill (fun i -> 0.5 *. float_of_int (i mod q))
  and c = Kernels.Matrix.create n n in
  Kernels.Blas.dgemm a b c;
  let sum = ref 0.0 in
  for i = 0 to (n * n) - 1 do
    sum := !sum +. Bigarray.Array1.get c.Kernels.Matrix.data i
  done;
  Printf.sprintf "checksum=%.3f\n" !sum

type compiled = {
  platform : Pdl_model.Machine.platform;
  unit_ : Minic.Ast.unit_;
  repo : Cascabel.Repository.t;
  native : Cascabel.Native.t;
  stages : (string * float) list;  (* seconds per pipeline stage *)
  total : float;
}

let compile ~src ~dir =
  let fail what = function
    | Ok v -> v
    | Error msg -> failwith (what ^ ": " ^ msg)
  in
  let t0 = Stats.now () in
  let platform, load =
    Stats.time (fun () ->
        fail "pdl" (Result.map_error (String.concat "; ") (Pdl.Codec.load_file Daemon.platform)))
  in
  let unit_, parse =
    Stats.time (fun () ->
        fail "parse" (Result.map_error Minic.Parser.error_to_string (Minic.Parser.parse src)))
  in
  let repo = Cascabel.Repository.create () in
  let out, translate =
    Stats.time (fun () ->
        fail "translate"
          (Result.map_error (String.concat "; ")
             (Cascabel.Codegen.translate ~repo ~platform unit_)))
  in
  let em, emit = Stats.time (fun () -> fail "emit" (Cascabel.Emit_c.emit out)) in
  Unix.mkdir dir 0o755;
  let native, build =
    Stats.time (fun () ->
        match Cascabel.Native.build ~dir em with
        | Cascabel.Native.Loaded t -> t
        | Cascabel.Native.No_toolchain m | Cascabel.Native.Compile_error m ->
            failwith ("native build: " ^ m))
  in
  {
    platform;
    unit_;
    repo;
    native;
    stages =
      [
        ("pdl.load", load);
        ("minic.parse", parse);
        ("cascabel.translate", translate);
        ("cascabel.emit", emit);
        ("cascabel.native_build", build);
      ];
    total = Stats.now () -. t0;
  }

let run_once c =
  Stats.time (fun () ->
      Cascabel.Runnable.run ~policy:Taskrt.Engine.Heft ~fuel:max_int
        ~native:c.native ~repo:c.repo ~platform:c.platform c.unit_)

type outcome = {
  ok : bool;  (* right output, all tasks native *)
  wall : float;
  makespan : float;
  tasks : int;
  native_tasks : int;
  fallbacks : int;
}

let outcome ~want (r, wall) =
  match r with
  | Error e ->
      prerr_endline ("cc-dgemm run failed: " ^ e);
      { ok = false; wall; makespan = nan; tasks = 0; native_tasks = 0; fallbacks = 0 }
  | Ok (rep : Cascabel.Runnable.report) ->
      {
        ok =
          rep.exit_code = 0 && rep.stdout = want && rep.native_fallbacks = 0
          && rep.native_tasks > 0;
        wall;
        makespan = rep.stats.Taskrt.Engine.makespan;
        tasks = rep.tasks_submitted;
        native_tasks = rep.native_tasks;
        fallbacks = rep.native_fallbacks;
      }

(* Compile five times (set-up is their median), keep the last build;
   one untimed warm-up run. *)
let prepare ~seed =
  let dir = Metric.scratch name in
  let rng = Random.State.make [| seed; 0xcc |] in
  let p = 5 + Random.State.int rng 9 and q = 7 + Random.State.int rng 11 in
  let src = program ~p ~q in
  let builds =
    List.init 5 (fun i ->
        compile ~src ~dir:(Filename.concat dir (Printf.sprintf "build%d" i)))
  in
  let c = List.nth builds 4 in
  List.iter (fun b -> if b != c then Cascabel.Native.close b.native) builds;
  let want = expected ~p ~q in
  ignore (run_once c);
  (builds, c, want)

(* Runs of the compiled program until [seconds] have passed (at least
   [min_runs]); [traced i] says whether run [i] records spans. *)
let runs c ~want ~seconds ~min_runs ~traced =
  let t0 = Stats.now () in
  let rec go i acc =
    if i >= min_runs && Stats.now () -. t0 >= seconds then List.rev acc
    else begin
      let on = traced i in
      Obs.Config.set_enabled on;
      Obs.Export.reset_all ();
      let o = outcome ~want (run_once c) in
      let spans = if on then Obs.Span.events () else [] in
      Obs.Config.set_enabled false;
      go (i + 1) ((o, spans) :: acc)
    end
  in
  go 0 []

let checks outs =
  let m = (List.hd outs).makespan in
  List.for_all (fun o -> o.ok && o.makespan = m) outs

let span_s pred spans =
  List.fold_left
    (fun acc (e : Obs.Span.event) ->
      if pred e then acc +. Obs.Clock.to_s (e.ev_t1 - e.ev_t0) else acc)
    0.0 spans

let median_of f xs = Stats.median (Stats.sorted (List.map f xs))

let run ~seed ~seconds ~trace =
  let builds, c, want = prepare ~seed in
  (* traced: runs alternate spans off / on, so the untraced half gives
     the tracing overhead *)
  let rs =
    runs c ~want ~seconds
      ~min_runs:(if trace then 2 else 1)
      ~traced:(fun i -> trace && i mod 2 = 1)
  in
  Cascabel.Native.close c.native;
  let outs = List.map fst rs in
  let ok = checks outs in
  if not ok then prerr_endline "check: a cc-dgemm run printed the wrong checksum";
  let first = List.hd outs in
  let common =
    [
      Metric.v "cascabel.sim_makespan_vs" "vs" first.makespan;
      Metric.v "latency.samples" "count" (float_of_int (List.length outs));
    ]
  in
  let metrics =
    if not trace then
      let lat = Stats.sorted (List.map (fun o -> o.wall *. 1000.0) outs) in
      [
        Metric.v "setup_s" "s" (median_of (fun b -> b.total) builds);
        Metric.v "latency_p50_ms" "ms" (Stats.median lat);
        Metric.v "throughput_jobs_per_s" "1/s" (1000.0 /. Stats.median lat);
        Metric.v "peak_rss_mb" "MB" (Daemon.vm_hwm_mb 0);
        Metric.v "latency.p90_ms" "ms" (Stats.percentile lat 90.0);
      ]
    else
      let on = List.filteri (fun i _ -> i mod 2 = 1) rs
      and off = List.filteri (fun i _ -> i mod 2 = 0) rs in
      let per_run = float_of_int (max 1 (List.length on)) in
      let spans = List.concat_map snd on in
      let exec = span_s (fun e -> String.starts_with ~prefix:"exec:" e.ev_name) spans
      and drain = span_s (fun e -> e.ev_name = "drain") spans
      and native = span_s (fun e -> e.ev_name = "native_exec") spans
      and run_wall = Stats.sum (List.map (fun (o, _) -> o.wall) on) in
      let p50 xs = median_of (fun (o, _) -> o.wall) xs in
      let stage s = median_of (fun b -> List.assoc s b.stages) builds in
      [
        Metric.v "pdl.load_ms" "ms" (Metric.pdl_load_ms ());
        Metric.v "kernels.dgemm_gflops" "GFLOP/s" (Metric.dgemm_gflops n);
        Metric.v "engine.tasks_per_job" "count" (float_of_int first.tasks);
        Metric.v "engine.exec_ms_per_job" "ms" (exec *. 1000.0 /. per_run);
        Metric.v "engine.overhead_ms_per_job" "ms" ((drain -. exec) *. 1000.0 /. per_run);
        Metric.v "engine.exec_frac" "frac" (exec /. drain);
        Metric.v "cascabel.interp_frac" "frac" ((run_wall -. drain) /. run_wall);
        Metric.v "cascabel.native_frac" "frac"
          (float_of_int first.native_tasks
          /. float_of_int (max 1 (first.native_tasks + first.fallbacks)));
        Metric.v "cascabel.build_frac" "frac"
          (median_of (fun b -> List.assoc "cascabel.native_build" b.stages /. b.total) builds);
        Metric.v "trace.unattributed_frac" "frac"
          (median_of
             (fun b -> 1.0 -. (Stats.sum (List.map snd b.stages) /. b.total))
             builds);
        Metric.v "obs.tracing_overhead_pct" "%" (100.0 *. ((p50 on /. p50 off) -. 1.0));
        (* supporting numbers, printed only *)
        Metric.v "minic.parse_ms" "ms" (1000.0 *. stage "minic.parse");
        Metric.v "cascabel.translate_ms" "ms" (1000.0 *. stage "cascabel.translate");
        Metric.v "cascabel.emit_ms" "ms" (1000.0 *. stage "cascabel.emit");
        Metric.v "cascabel.native_build_s" "s" (stage "cascabel.native_build");
        Metric.v "cascabel.native_exec_s" "s" (native /. per_run);
        Metric.v "cascabel.interp_s" "s" ((run_wall -. drain) /. per_run);
      ]
  in
  {
    Metric.correct = ok;
    attempted = List.length outs;
    failed = List.length (List.filter (fun o -> not o.ok) outs);
    metrics = metrics @ common;
  }

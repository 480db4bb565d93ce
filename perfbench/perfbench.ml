(* The repository benchmark.  Run it from the checkout root through
   perfbench/run.sh, which builds the daemon and this program first:

     bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
     bash perfbench/run.sh --workload all --repeat 5 --out A.json
     bash perfbench/run.sh compare A.json B.json
     bash perfbench/run.sh smoke

   One workload and one run prints a "metric NAME VALUE UNIT" line per
   number it measured, then, as its last line, the result object with
   exactly the metrics BENCHMARK.json declares: the end-to-end ones
   with --trace 0, the per-layer ones with --trace 1.  It exits 1 when
   an output check fails.  Several workloads or runs re-run this
   program once per run and aggregate medians, quartiles and spreads. *)

open Stats

let workloads = [ "serve-small"; "serve-heavy"; "serve-durable"; "cc-dgemm" ]

let run_workload w ~seed ~seconds ~trace =
  match w with
  | "serve-small" -> Serve_wl.run Serve_wl.Small ~seed ~seconds ~trace
  | "serve-heavy" -> Serve_wl.run Serve_wl.Heavy ~seed ~seconds ~trace
  | "serve-durable" -> Serve_wl.run Serve_wl.Durable ~seed ~seconds ~trace
  | _ -> Cc_wl.run ~seed ~seconds ~trace

let benchmark_json = "BENCHMARK.json"

let declared ~trace =
  field_list (if trace then "per_layer" else "end_to_end") (json_of_file benchmark_json)
  |> List.map (fun m -> (field_str "name" m, field_str "unit" m))

let time_units = [ "s"; "ms"; "us" ]

(* A layer a workload never enters reports 0 for its counts and shares
   (journal bytes on serve-small, cascabel shares on serving); a time
   must always be measured. *)
let result_line ~trace (r : Metric.run) =
  let value (name, unit_) =
    match List.find_opt (fun (m : Metric.t) -> m.name = name) r.metrics with
    | Some m when m.unit_ = unit_ && Float.is_finite m.value -> m.value
    | Some m when m.unit_ = unit_ -> failwith (name ^ " has no finite value")
    | Some m -> failwith (Printf.sprintf "%s: unit %s, declared %s" name m.unit_ unit_)
    | None when not (List.mem unit_ time_units) -> 0.0
    | None -> failwith ("this workload measures no " ^ name)
  in
  obj
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        obj
          (List.map
             (fun ((name, unit_) as d) ->
               (name, obj [ ("value", num (value d)); ("unit", str unit_) ]))
             (declared ~trace)) );
    ]

let single w ~seed ~seconds ~trace =
  Daemon.pin_self ();
  let ticks = Metric.cpu_ticks () in
  let r = run_workload w ~seed ~seconds ~trace in
  List.iter
    (fun (m : Metric.t) -> Printf.printf "metric %s %s %s\n" m.name (num m.value) m.unit_)
    (r.metrics @ [ Metric.v "host.steal_frac" "frac" (Metric.steal_since ticks) ]);
  print_endline (result_line ~trace r);
  exit (if r.correct then 0 else 1)

(* --- several runs: one child process each ------------------------------ *)

type sample = {
  s_correct : bool;
  s_attempted : int;
  s_failed : int;
  s_metrics : (string * (float * string)) list;
}

let child w ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
      "--seconds"; num seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  let lines = String.split_on_char '\n' (String.trim out) in
  let metrics =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "metric"; name; v; u ] -> Some (name, (float_of_string v, u))
        | _ -> None)
      lines
  in
  match Obs.Json.parse (List.nth lines (List.length lines - 1)) with
  | Ok j ->
      {
        s_correct = field "correct" j = Obs.Json.Bool true;
        s_attempted = int_of_float (field_num "attempted" j);
        s_failed = int_of_float (field_num "failed" j);
        s_metrics = metrics;
      }
  | Error _ | (exception _) ->
      Printf.eprintf "%s run with seed %d printed no result\n%!" w seed;
      { s_correct = false; s_attempted = 0; s_failed = 0; s_metrics = metrics }

let host () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines
      |> List.find (String.starts_with ~prefix:"model name")
      |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
    with _ -> "unknown"
  in
  obj
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("cpu", str cpu);
    ]

let summary w samples =
  let names =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst s.s_metrics) samples)
  in
  Printf.printf "\n%s: %d runs, output checks %s, %d of %d jobs failed\n" w
    (List.length samples)
    (if List.for_all (fun s -> s.s_correct) samples then "passed" else "FAILED")
    (List.fold_left (fun n s -> n + s.s_failed) 0 samples)
    (List.fold_left (fun n s -> n + s.s_attempted) 0 samples);
  Printf.printf "  %-34s %-8s %14s %14s %14s %8s\n" "metric" "unit" "median" "q1"
    "q3" "spread";
  let rows =
    List.map
      (fun name ->
        let vs = List.filter_map (fun s -> List.assoc_opt name s.s_metrics) samples in
        let unit_ = snd (List.hd vs) in
        let a = sorted (List.map fst vs) in
        let q1, med, q3 = quartiles a in
        let spread = if med = 0.0 then 0.0 else Float.abs ((q3 -. q1) /. med) in
        Printf.printf "  %-34s %-8s %14.6g %14.6g %14.6g %7.2f%%\n" name unit_ med
          q1 q3 (100.0 *. spread);
        ( name,
          obj
            [
              ("unit", str unit_);
              ("median", num med);
              ("q1", num q1);
              ("q3", num q3);
              ("spread", num spread);
              ("samples", arr (Array.to_list (Array.map num a)));
            ] ))
      names
  in
  obj
    [
      ("runs", string_of_int (List.length samples));
      ("correct", string_of_bool (List.for_all (fun s -> s.s_correct) samples));
      ("attempted", arr (List.map (fun s -> string_of_int s.s_attempted) samples));
      ("failed", arr (List.map (fun s -> string_of_int s.s_failed) samples));
      ("metrics", obj rows);
    ]

let multi ws ~seed ~seconds ~trace ~repeat ~out =
  let results =
    List.map
      (fun w ->
        let samples =
          List.init repeat (fun i -> child w ~seed:(seed + i) ~seconds ~trace)
        in
        (w, samples))
      ws
  in
  let doc =
    obj
      [
        ("host", host ());
        ("seed", string_of_int seed);
        ("seconds", num seconds);
        ("trace", string_of_bool trace);
        ("workloads", obj (List.map (fun (w, s) -> (w, summary w s)) results));
      ]
  in
  Option.iter (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (doc ^ "\n"))) out;
  List.for_all (fun (_, ss) -> List.for_all (fun s -> s.s_correct) ss) results

(* --- compare two results files ----------------------------------------- *)

let compare_files a b =
  let bounds =
    field_list "end_to_end" (json_of_file benchmark_json)
    |> List.map (fun m ->
           (field_str "name" m, (field_num "bound" m, field_str "better" m = "higher")))
  in
  let ja = json_of_file a and jb = json_of_file b in
  Printf.printf "%-14s %-24s %14s %14s %8s  %s\n" "workload" "metric" "A median"
    "B median" "change" "verdict";
  let worse = ref false in
  List.iter
    (fun (w, wa) ->
      match Obs.Json.member w (field "workloads" jb) with
      | None -> ()
      | Some wb ->
          List.iter
            (fun (name, (bound, higher)) ->
              match
                (Obs.Json.member name (field "metrics" wa), Obs.Json.member name (field "metrics" wb))
              with
              | Some ma, Some mb ->
                  let med = field_num "median" and spread = field_num "spread" in
                  let samples m =
                    List.filter_map Obs.Json.to_number (field_list "samples" m)
                  in
                  (* positive = worse, as a share of A's median *)
                  let sign = if higher then -1.0 else 1.0 in
                  let change = sign *. (med mb -. med ma) /. med ma in
                  let all_better =
                    List.for_all
                      (fun x ->
                        List.for_all (fun y -> sign *. (x -. y) < 0.0) (samples ma))
                      (samples mb)
                  and all_worse =
                    List.for_all
                      (fun x ->
                        List.for_all (fun y -> sign *. (x -. y) > 0.0) (samples ma))
                      (samples mb)
                  in
                  let verdict =
                    if (spread ma > bound || spread mb > bound) && not (all_better || all_worse)
                    then "unresolved"
                    else if change > bound then "worse"
                    else if change < -.bound then "better"
                    else "within bound"
                  in
                  if verdict = "worse" then worse := true;
                  Printf.printf "%-14s %-24s %14.6g %14.6g %+7.2f%%  %s\n" w name (med ma)
                    (med mb) (100.0 *. change) verdict
              | _ -> ())
            bounds)
    (members (field "workloads" ja));
  exit (if !worse then 1 else 0)

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                 [--repeat R] [--out FILE]\n\
    \       perfbench compare A.json B.json\n\
    \       perfbench smoke";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_files a b
  | [ "smoke" ] ->
      (* every workload, 0.5 s, seed 1, untraced and traced *)
      let ok =
        List.for_all
          (fun trace -> multi workloads ~seed:1 ~seconds:0.5 ~trace ~repeat:1 ~out:None)
          [ false; true ]
      in
      print_endline (if ok then "smoke: all output checks passed" else "smoke: FAILED");
      exit (if ok then 0 else 1)
  | args ->
      let workload = ref "all" and seed = ref 1 and seconds = ref 20.0
      and trace = ref false and repeat = ref 1 and out = ref None in
      let rec parse = function
        | "--workload" :: w :: rest -> workload := w; parse rest
        | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
        | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
        | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
        | "--repeat" :: r :: rest -> repeat := int_of_string r; parse rest
        | "--out" :: f :: rest -> out := Some f; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      (try parse args with Failure _ -> usage ());
      if !workload <> "all" && not (List.mem !workload workloads) then begin
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " workloads);
        exit 2
      end;
      if !workload <> "all" && !repeat = 1 && !out = None then
        single !workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      else
        let ws = if !workload = "all" then workloads else [ !workload ] in
        let ok = multi ws ~seed:!seed ~seconds:!seconds ~trace:!trace ~repeat:!repeat ~out:!out in
        exit (if ok then 0 else 1)

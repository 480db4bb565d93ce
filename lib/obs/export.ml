(* Sinks: Chrome/Perfetto trace-event JSON, Prometheus-style text
   exposition, and a human-readable summary.

   A Chrome trace is one list of trace-event objects: the caller's
   virtual-time events (pid 0, see Taskrt.Trace_export) followed by
   the recorded wall-clock spans (pid 1), so both timelines open side
   by side in one viewer.  Spans tagged with a flow id (Trace_ctx) are
   additionally linked by s/t/f flow events, so one request reads as
   a connected arrow chain across lanes. *)

(* The wall-clock spans as trace events, [] when nothing was recorded.
   Timestamps are microseconds relative to the earliest recorded
   span, so the numbers stay small in the viewer. *)
let wall_events () =
  let events = Span.events () in
  if events = [] then []
  else begin
    let base =
      List.fold_left (fun acc (e : Span.event) -> min acc e.ev_t0) max_int
        events
    in
    let us ns = Json.Num (float_of_int (ns - base) /. 1e3) in
    let int i = Json.Num (float_of_int i) in
    let str s = Json.Str s in
    let pid = Json.Num 1. in
    let meta name args =
      Json.Obj
        ([ ("name", str name); ("ph", str "M"); ("pid", pid) ]
        @ args)
    in
    let thread_names =
      List.map
        (fun dom ->
          meta "thread_name"
            [ ("tid", int dom);
              ("args", Json.Obj [ ("name", str (Printf.sprintf "domain %d" dom)) ]) ])
        (Span.domains ())
    in
    let spans =
      List.map
        (fun (e : Span.event) ->
          let args =
            if e.ev_args = "" then []
            else [ ("args", Json.Obj [ ("detail", str e.ev_args) ]) ]
          in
          let timing =
            if e.ev_t1 > e.ev_t0 then
              [ ("ph", str "X"); ("ts", us e.ev_t0);
                ("dur", Json.Num (float_of_int (e.ev_t1 - e.ev_t0) /. 1e3)) ]
            else [ ("ph", str "i"); ("ts", us e.ev_t0); ("s", str "t") ]
          in
          Json.Obj
            ([ ("name", str e.ev_name); ("cat", str e.ev_cat) ]
            @ timing
            @ [ ("pid", pid); ("tid", int e.ev_dom) ]
            @ args))
        events
    in
    (* Flow events: for every flow id, an arrow chain visiting its
       spans in start order — ph "s" on the first hop, "t" on middle
       hops, "f" (with bp:"e" so it binds to the enclosing slice) on
       the last.  Each flow event shares its slice's ts/pid/tid, which
       is what binds it to that slice in the viewer.  A flow seen on a
       single span draws no arrow, so it is skipped. *)
    let by_flow : (int, Span.event list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (e : Span.event) ->
        if e.ev_flow <> 0 then
          Hashtbl.replace by_flow e.ev_flow
            (e :: Option.value ~default:[] (Hashtbl.find_opt by_flow e.ev_flow)))
      events;
    let flow_ids = Hashtbl.fold (fun id _ acc -> id :: acc) by_flow [] in
    let flows =
      List.concat_map
        (fun id ->
          let group =
            List.sort
              (fun (a : Span.event) (b : Span.event) ->
                compare (a.ev_t0, a.ev_t1, a.ev_dom) (b.ev_t0, b.ev_t1, b.ev_dom))
              (Hashtbl.find by_flow id)
          in
          let last = List.length group - 1 in
          if last < 1 then []
          else
            List.mapi
              (fun k (e : Span.event) ->
                let ph, bp =
                  if k = 0 then ("s", [])
                  else if k = last then ("f", [ ("bp", str "e") ])
                  else ("t", [])
                in
                Json.Obj
                  ([ ("name", str "flow"); ("cat", str "trace"); ("ph", str ph);
                     ("id", int id); ("ts", us e.ev_t0); ("pid", pid);
                     ("tid", int e.ev_dom) ]
                  @ bp))
              group)
        (List.sort compare flow_ids)
    in
    (meta "process_name"
       [ ("args", Json.Obj [ ("name", str "wall clock (telemetry)") ]) ]
    :: thread_names)
    @ spans @ flows
  end

let to_chrome_json virtual_events =
  Json.to_text
    (Json.Obj [ ("traceEvents", Json.Arr (virtual_events @ wall_events ())) ])

let write_chrome path virtual_events =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_chrome_json virtual_events))

(* --- Prometheus-style exposition ----------------------------------- *)

let metric_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

(* Label-value escaping per the Prometheus text format: backslash,
   double quote, and line feed must be escaped inside the quotes. *)
let label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prometheus () =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun c ->
      let n = "obs_" ^ metric_name (Counter.name c) ^ "_total" in
      if Counter.help c <> "" then out "# HELP %s %s\n" n (Counter.help c);
      out "# TYPE %s counter\n" n;
      out "%s %d\n" n (Counter.value c))
    (Counter.all ());
  List.iter
    (fun h ->
      let n = "obs_" ^ metric_name (Histogram.name h) ^ "_seconds" in
      out "# HELP %s log-bucketed latency distribution (seconds)\n" n;
      out "# TYPE %s summary\n" n;
      List.iter
        (fun q ->
          out "%s{quantile=\"%g\"} %.9f\n" n (q /. 100.0)
            (Histogram.percentile h q))
        [ 50.0; 95.0; 99.0 ];
      out "%s_sum %.9f\n" n (Histogram.sum h);
      out "%s_count %d\n" n (Histogram.count h))
    (Histogram.all ());
  let rings = Span.ring_stats () in
  if rings <> [] then begin
    out "# HELP obs_span_ring_dropped spans lost to ring overwrite-oldest\n";
    out "# TYPE obs_span_ring_dropped gauge\n";
    List.iter
      (fun (dom, pushed, cap) ->
        out "obs_span_ring_dropped{domain=\"%d\"} %d\n" dom
          (max 0 (pushed - cap)))
      rings
  end;
  let slos = Slo.all () in
  if slos <> [] then begin
    out "# HELP obs_slo_good_total events within the objective\n";
    out "# TYPE obs_slo_good_total counter\n";
    List.iter
      (fun s ->
        out "obs_slo_good_total{slo=\"%s\"} %d\n"
          (label_escape (Slo.name s))
          (fst (Slo.totals s)))
      slos;
    out "# HELP obs_slo_bad_total events violating the objective\n";
    out "# TYPE obs_slo_bad_total counter\n";
    List.iter
      (fun s ->
        out "obs_slo_bad_total{slo=\"%s\"} %d\n"
          (label_escape (Slo.name s))
          (snd (Slo.totals s)))
      slos;
    out "# HELP obs_slo_objective the availability objective\n";
    out "# TYPE obs_slo_objective gauge\n";
    List.iter
      (fun s ->
        out "obs_slo_objective{slo=\"%s\"} %g\n"
          (label_escape (Slo.name s))
          (Slo.objective s))
      slos;
    out
      "# HELP obs_slo_burn_rate rolling-window error-budget burn rate \
       (1.0 = burning exactly the budget)\n";
    out "# TYPE obs_slo_burn_rate gauge\n";
    List.iter
      (fun s ->
        out "obs_slo_burn_rate{slo=\"%s\"} %g\n"
          (label_escape (Slo.name s))
          (Slo.burn_rate s))
      slos
  end;
  Buffer.contents buf

(* --- human-readable summary ---------------------------------------- *)

let summary () =
  let buf = Buffer.create 1024 in
  let counters = Counter.all () in
  if counters <> [] then begin
    Buffer.add_string buf "== counters ==\n";
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "%-28s %12d\n" (Counter.name c) (Counter.value c)))
      counters
  end;
  let hists = List.filter (fun h -> Histogram.count h > 0) (Histogram.all ()) in
  if hists <> [] then begin
    Buffer.add_string buf "== latency histograms ==\n";
    Buffer.add_string buf
      (Printf.sprintf "%-28s %8s %10s %10s %10s %10s %10s\n" "histogram"
         "count" "mean [ms]" "p50 [ms]" "p95 [ms]" "p99 [ms]" "max [ms]");
    List.iter
      (fun h ->
        let ms f = 1e3 *. f in
        Buffer.add_string buf
          (Printf.sprintf "%-28s %8d %10.4f %10.4f %10.4f %10.4f %10.4f\n"
             (Histogram.name h) (Histogram.count h)
             (ms (Histogram.mean h))
             (ms (Histogram.percentile h 50.0))
             (ms (Histogram.percentile h 95.0))
             (ms (Histogram.percentile h 99.0))
             (ms (Histogram.max_value h))))
      hists
  end;
  let slos = List.filter (fun s -> Slo.totals s <> (0, 0)) (Slo.all ()) in
  if slos <> [] then begin
    Buffer.add_string buf "== slo ==\n";
    Buffer.add_string buf
      (Printf.sprintf "%-28s %9s %8s %8s %10s\n" "slo" "objective" "good"
         "bad" "burn rate");
    List.iter
      (fun s ->
        let good, bad = Slo.totals s in
        Buffer.add_string buf
          (Printf.sprintf "%-28s %9g %8d %8d %10.3f\n" (Slo.name s)
             (Slo.objective s) good bad (Slo.burn_rate s)))
      slos
  end;
  if Decision.count () > 0 then
    Buffer.add_string buf
      (Printf.sprintf "== scheduler decisions ==\n%d recorded, %d retained%s\n"
         (Decision.count ())
         (List.length (Decision.records ()))
         (let d = Decision.dropped () in
          if d > 0 then Printf.sprintf " (%d oldest overwritten)" d else ""));
  let rings = Span.ring_stats () in
  if rings <> [] then begin
    Buffer.add_string buf "== span rings ==\n";
    List.iter
      (fun (dom, pushed, cap) ->
        Buffer.add_string buf
          (Printf.sprintf "domain %-4d %8d spans recorded, capacity %d%s\n"
             dom pushed cap
             (if pushed > cap then
                Printf.sprintf " (%d oldest overwritten)" (pushed - cap)
              else "")))
      rings;
    let d = Span.dropped () in
    if d > 0 then
      Buffer.add_string buf
        (Printf.sprintf "dropped spans: %d (see dropped_spans counter)\n" d)
  end;
  Buffer.contents buf

let reset_all () =
  Counter.reset_all ();
  Histogram.reset_all ();
  Slo.reset_all ();
  Decision.clear ();
  Span.clear ()

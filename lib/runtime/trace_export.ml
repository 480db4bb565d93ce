(* Stable worker -> lane mapping in first-appearance order. *)
let lanes events =
  let table = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun (e : Engine.trace_event) ->
      if not (Hashtbl.mem table e.tr_worker) then begin
        Hashtbl.replace table e.tr_worker !next;
        incr next
      end)
    events;
  table

let us t = Obs.Json.Num (t *. 1e6)
let int i = Obs.Json.Num (float_of_int i)
let str s = Obs.Json.Str s

let thread_name tid name =
  Obs.Json.Obj
    [ ("name", str "thread_name"); ("ph", str "M"); ("pid", int 0);
      ("tid", int tid); ("args", Obs.Json.Obj [ ("name", str name) ]) ]

(* One engine's lanes, thread ids from [tid0]; every lane name (worker
   and fault lanes alike) is prefixed with [lane] when it is not "".
   Returns the next free thread id and the events. *)
let engine_events tid0 (lane, events, faults) =
  let lane_name w = if lane = "" then w else lane ^ "/" ^ w in
  let table = lanes events in
  let names =
    Hashtbl.fold
      (fun worker tid acc -> thread_name (tid0 + tid) (lane_name worker) :: acc)
      table []
    |> List.rev
  in
  let slices =
    List.concat_map
      (fun (e : Engine.trace_event) ->
        let tid = int (tid0 + Hashtbl.find table e.tr_worker) in
        let x name cat t0 t1 args =
          Obs.Json.Obj
            [ ("name", str name); ("cat", str cat); ("ph", str "X");
              ("ts", us t0); ("dur", us (t1 -. t0)); ("pid", int 0);
              ("tid", tid); ("args", Obs.Json.Obj args) ]
        in
        let task =
          x (Printf.sprintf "t%d" e.tr_task) "task" e.tr_compute_start e.tr_end
            [ ("codelet", str e.tr_codelet) ]
        in
        if e.tr_compute_start > e.tr_start then
          [ x (Printf.sprintf "t%d:in" e.tr_task) "transfer" e.tr_start
              e.tr_compute_start
              [ ("bytes", Obs.Json.Num e.tr_bytes_in) ];
            task ]
        else [ task ])
      events
  in
  (* Fault-layer decisions land on their own lane as instant events,
     after the worker lanes. *)
  let fault_tid = tid0 + Hashtbl.length table in
  let fault_lane =
    if faults = [] then []
    else
      thread_name fault_tid (lane_name "faults")
      :: List.map
           (fun (f : Engine.fault_event) ->
             let detail =
               String.concat " "
                 (List.filter
                    (fun s -> s <> "")
                    [ f.f_worker;
                      (if f.f_task >= 0 then Printf.sprintf "t%d" f.f_task
                       else "");
                      f.f_detail ])
             in
             Obs.Json.Obj
               [ ("name", str f.f_kind); ("cat", str "fault"); ("ph", str "i");
                 ("s", str "t"); ("ts", us f.f_time); ("pid", int 0);
                 ("tid", int fault_tid);
                 ("args", Obs.Json.Obj [ ("detail", str detail) ]) ])
           faults
  in
  ((fault_tid + if faults = [] then 0 else 1), names @ slices @ fault_lane)

let events engines =
  let process =
    Obs.Json.Obj
      [ ("name", str "process_name"); ("ph", str "M"); ("pid", int 0);
        ("args", Obs.Json.Obj [ ("name", str "virtual time (sim)") ]) ]
  in
  process :: List.concat (snd (List.fold_left_map engine_events 0 engines))

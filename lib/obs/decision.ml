(* Scheduler decision log.

   Every HEFT placement pushes one record into a process-wide ring:
   which PU won, what every eligible PU's earliest-finish estimate
   was, and whether the estimate came from calibration, the static
   model, or an exploration roll.  When the task completes the engine
   fills in the measured compute time and the queue wait, and the
   estimate-vs-actual relative error feeds the [sched_est_rel_err]
   histogram — the calibration-quality signal the README documents.

   The ring is mutex-guarded (decisions are engine-loop rate, not
   kernel rate) and overwrite-oldest like the span rings; [record]
   returns a token the engine stores on the task so completion can
   find its record even after wraparound (a stale token is simply
   dropped). Recording is gated on Config.on like every other
   probe. *)

type source = Calibrated | Static | Exploration

let source_to_string = function
  | Calibrated -> "calibrated"
  | Static -> "static"
  | Exploration -> "exploration"

type record = {
  d_seq : int;  (** monotonically increasing; doubles as the token *)
  d_tag : string;  (** engine label, e.g. ["tenant-a/shard0"]; "" standalone *)
  d_task : int;
  d_codelet : string;
  d_pu : string;  (** the chosen worker *)
  d_source : source;
  d_est_s : float;  (** predicted compute seconds on the chosen PU *)
  d_eft_s : float;  (** chosen earliest finish time (virtual seconds) *)
  d_estimates : (string * float) list;  (** per-PU earliest finish times *)
  d_vt : float;  (** virtual time of the decision *)
  mutable d_queue_wait_s : float;  (** dispatch - decision; nan until done *)
  mutable d_actual_s : float;  (** measured compute seconds; nan until done *)
}

let mutex = Mutex.create ()
let capacity = ref 4096
let ring : record option array ref = ref (Array.make !capacity None)
let seq = ref 0

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let set_capacity n =
  if n < 1 then invalid_arg "Obs.Decision.set_capacity";
  with_lock (fun () ->
      capacity := n;
      ring := Array.make n None;
      seq := 0)

let clear () =
  with_lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      seq := 0)

let rel_err_hist = "sched_est_rel_err"

let record ~tag ~task ~codelet ~pu ~source ~est_s ~eft_s ~estimates ~vt =
  if not (Config.on ()) then -1
  else
    with_lock (fun () ->
        let token = !seq in
        incr seq;
        !ring.(token mod Array.length !ring) <-
          Some
            {
              d_seq = token;
              d_tag = tag;
              d_task = task;
              d_codelet = codelet;
              d_pu = pu;
              d_source = source;
              d_est_s = est_s;
              d_eft_s = eft_s;
              d_estimates = estimates;
              d_vt = vt;
              d_queue_wait_s = Float.nan;
              d_actual_s = Float.nan;
            };
        token)

let complete token ~dispatched ~actual_s =
  if token >= 0 then begin
    let filled =
      with_lock (fun () ->
          match !ring.(token mod Array.length !ring) with
          | Some r when r.d_seq = token ->
              r.d_queue_wait_s <- Float.max 0.0 (dispatched -. r.d_vt);
              r.d_actual_s <- actual_s;
              if r.d_est_s > 0.0 && actual_s > 0.0 then
                Some (Float.abs (actual_s -. r.d_est_s) /. actual_s)
              else None
          | _ -> None)
    in
    match filled with
    | Some err -> Histogram.observe_named rel_err_hist err
    | None -> ()
  end

(* Oldest-first snapshot. *)
let records () =
  with_lock (fun () ->
      let cap = Array.length !ring in
      let n = min !seq cap in
      let first = if !seq <= cap then 0 else !seq mod cap in
      List.filter_map
        (fun k -> !ring.((first + k) mod cap))
        (List.init n Fun.id))

let count () = with_lock (fun () -> !seq)
let dropped () = with_lock (fun () -> max 0 (!seq - Array.length !ring))

(* --- JSONL export --------------------------------------------------- *)

let jsonl_of r =
  let num x = Json.Num x in
  let tag = if r.d_tag = "" then [] else [ ("tag", Json.Str r.d_tag) ] in
  let outcome =
    if Float.is_nan r.d_actual_s then []
    else
      [ ("queue_wait_s", num r.d_queue_wait_s); ("actual_s", num r.d_actual_s) ]
      @
      if r.d_est_s > 0.0 && r.d_actual_s > 0.0 then
        [ ("rel_err",
           num (Float.abs (r.d_actual_s -. r.d_est_s) /. r.d_actual_s)) ]
      else []
  in
  Json.to_text
    (Json.Obj
       ([ ("seq", num (float_of_int r.d_seq));
          ("task", num (float_of_int r.d_task));
          ("codelet", Json.Str r.d_codelet); ("pu", Json.Str r.d_pu);
          ("source", Json.Str (source_to_string r.d_source));
          ("est_s", num r.d_est_s); ("eft_s", num r.d_eft_s);
          ("vt", num r.d_vt) ]
       @ tag
       @ [ ("estimates",
            Json.Obj (List.map (fun (pu, eft) -> (pu, num eft)) r.d_estimates))
         ]
       @ outcome))

let to_jsonl () =
  String.concat "" (List.map (fun r -> jsonl_of r ^ "\n") (records ()))

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_jsonl ()))

(* Minimal Chrome/Perfetto trace-event schema checker.

   Json.to_text guarantees the trace parses; this validator is the
   runtest gate that keeps its events well-formed, so a malformed file fails
   `dune runtest` instead of silently rendering as an empty timeline
   in the UI.  Checks: the document parses, `traceEvents` is an
   array of objects, every event carries the keys its phase requires,
   the phase is one of B E X i s f t (plus M metadata, which the
   exporters legitimately emit for process/thread names), durations
   are non-negative, B/E begin-end events balance per thread, and
   every flow id seen on s/t/f events has both a start and an end —
   no orphan arrows. *)

let num_field name j =
  match Json.member name j with Some (Json.Num _) -> true | _ -> false

let str_field name j =
  match Json.member name j with Some (Json.Str _) -> true | _ -> false

let get_num name j =
  match Json.member name j with Some (Json.Num n) -> Some n | _ -> None

let id_string j =
  match Json.member "id" j with
  | Some (Json.Num n) -> Some (Printf.sprintf "%.17g" n)
  | Some (Json.Str s) -> Some ("s:" ^ s)
  | _ -> None

let validate_events events =
  let errors = ref [] in
  let err i fmt =
    Printf.ksprintf (fun s -> errors := Printf.sprintf "event %d: %s" i s :: !errors) fmt
  in
  (* flow id -> (starts, steps, ends) *)
  let flows : (string, int * int * int) Hashtbl.t = Hashtbl.create 16 in
  (* (pid, tid) -> B count - E count *)
  let depth : (float * float, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i ev ->
      match ev with
      | Json.Obj _ -> (
          let ph =
            match Json.member "ph" ev with Some (Json.Str s) -> s | _ -> ""
          in
          match ph with
          | "M" ->
              (* metadata: needs a name and a pid *)
              if not (str_field "name" ev) then err i "metadata without name";
              if not (num_field "pid" ev) then err i "metadata without pid"
          | "B" | "E" | "X" | "i" | "s" | "f" | "t" ->
              if not (str_field "name" ev) then err i "missing name";
              if not (num_field "ts" ev) then err i "missing ts";
              if not (num_field "pid" ev) then err i "missing pid";
              if not (num_field "tid" ev) then err i "missing tid";
              (match ph with
              | "X" -> (
                  match get_num "dur" ev with
                  | None -> err i "X event without dur"
                  | Some d -> if d < 0.0 then err i "negative dur")
              | "B" | "E" ->
                  let key =
                    ( Option.value ~default:Float.nan (get_num "pid" ev),
                      Option.value ~default:Float.nan (get_num "tid" ev) )
                  in
                  let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
                  Hashtbl.replace depth key (d + if ph = "B" then 1 else -1)
              | "s" | "f" | "t" -> (
                  match id_string ev with
                  | None -> err i "flow event without id"
                  | Some id ->
                      let s, st, e =
                        Option.value ~default:(0, 0, 0)
                          (Hashtbl.find_opt flows id)
                      in
                      Hashtbl.replace flows id
                        (match ph with
                        | "s" -> (s + 1, st, e)
                        | "t" -> (s, st + 1, e)
                        | _ -> (s, st, e + 1)))
              | _ -> ())
          | "" -> err i "missing ph"
          | other -> err i "unknown ph %S" other)
      | _ -> err i "not an object")
    events;
  Hashtbl.iter
    (fun id (s, _st, e) ->
      if s = 0 then
        errors := Printf.sprintf "flow %s has no start (ph s)" id :: !errors;
      if e = 0 then
        errors := Printf.sprintf "flow %s has no end (ph f)" id :: !errors)
    flows;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then
        errors :=
          Printf.sprintf "pid %g tid %g: B/E unbalanced by %d" pid tid d
          :: !errors)
    depth;
  match List.rev !errors with [] -> Ok () | es -> Error es

let validate json =
  let events =
    match json with
    | Json.Arr evs -> Some evs
    | Json.Obj _ -> (
        match Json.member "traceEvents" json with
        | Some (Json.Arr evs) -> Some evs
        | _ -> None)
    | _ -> None
  in
  match events with
  | None -> Error [ "no traceEvents array" ]
  | Some evs -> validate_events evs

let validate_string s =
  match Json.parse s with
  | Error e -> Error [ "parse error: " ^ e ]
  | Ok j -> validate j

let validate_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate_string s

(* The cascabeld job journal: an append-only, CRC-framed JSONL
   write-ahead log.

   One record per line:

     <crc32:8 lowercase hex> <payload JSON>\n

   where the CRC-32 (IEEE 802.3, the zlib polynomial) covers exactly
   the payload bytes.  The payload reuses the wire codec: an "accept"
   record embeds the SUBMIT request verbatim, a "done" record embeds
   the DONE reply verbatim, so journal validation is the protocol's
   own validation and a hand-edited journal cannot smuggle an
   out-of-cap job past admission.

   The reader is built for the one failure mode an append-only log
   has: a torn tail.  A crash (SIGKILL, power loss) can leave the
   last line truncated or half-flushed; replay accepts every valid
   prefix record and stops at the first framing, CRC or decode
   failure, counting the cut as [r_torn].  It never raises on any
   byte soup and never "resurrects" a job whose completion record
   survived: a job is pending after replay iff its accept record is
   in the valid prefix and no completion record for its id is. *)

module P = Protocol

(* --- CRC-32 (IEEE), table-driven ---------------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* --- records ------------------------------------------------------------ *)

type accepted = {
  a_id : int;
  a_tenant : string;
  a_job : P.job;
  a_deadline_ms : float option;
  a_idem : string option;
  a_trace : string option;
}

type entry =
  | Accept of accepted
  | Complete of { c_idem : string option; c_reply : P.reply }

module J = Obs.Json

let entry_payload e =
  J.to_text
    (match e with
    | Accept a ->
        let req =
          P.request_to_string
            (P.Submit
               {
                 tenant = a.a_tenant;
                 job = a.a_job;
                 deadline_ms = a.a_deadline_ms;
                 idem = a.a_idem;
                 trace = a.a_trace;
               })
        in
        J.Obj
          [ ("r", J.Str "accept"); ("id", J.Num (float_of_int a.a_id));
            ("req", J.Str req) ]
    | Complete { c_idem; c_reply } ->
        J.Obj
          (("r", J.Str "done")
           :: (match c_idem with None -> [] | Some k -> [ ("idem", J.Str k) ])
          @ [ ("reply", J.Str (P.reply_to_string c_reply)) ]))

let entry_to_line e =
  let payload = entry_payload e in
  Printf.sprintf "%08x %s\n" (crc32 payload) payload

let fail fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt

let entry_of_payload s =
  match J.parse s with
  | Error e -> fail "record is not valid JSON: %s" e
  | Ok o -> (
      let get_str k = Option.bind (J.member k o) J.to_string in
      match get_str "r" with
      | Some "accept" -> (
          let id =
            match Option.bind (J.member "id" o) J.to_number with
            | Some f when Float.is_integer f && f >= 0.0 && f <= 1e15 ->
                Some (int_of_float f)
            | _ -> None
          in
          match (id, get_str "req") with
          | Some a_id, Some req -> (
              match P.request_of_string req with
              | Ok (P.Submit { tenant; job; deadline_ms; idem; trace }) ->
                  Ok
                    (Accept
                       {
                         a_id;
                         a_tenant = tenant;
                         a_job = job;
                         a_deadline_ms = deadline_ms;
                         a_idem = idem;
                         a_trace = trace;
                       })
              | Ok _ -> fail "accept record embeds a non-submit request"
              | Error e -> fail "accept record: %s" e.P.e_reason)
          | _ -> fail "accept record needs id and req")
      | Some "done" -> (
          match get_str "reply" with
          | Some reply -> (
              match P.reply_of_string reply with
              | Ok (P.Done _ as c_reply) ->
                  Ok (Complete { c_idem = get_str "idem"; c_reply })
              | Ok _ -> fail "done record embeds a non-done reply"
              | Error e -> fail "done record: %s" e)
          | None -> fail "done record needs a reply")
      | Some r -> fail "unknown record kind %S" r
      | None -> fail "record needs an \"r\" field")

let hex8 s =
  String.length s = 8
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let entry_of_line line =
  if String.length line < 10 || line.[8] <> ' ' then
    fail "line is not CRC-framed (want \"<crc8> <json>\")"
  else
    let crc_hex = String.sub line 0 8 in
    if not (hex8 crc_hex) then fail "bad CRC field %S" crc_hex
    else
      let payload = String.sub line 9 (String.length line - 9) in
      let crc = int_of_string ("0x" ^ crc_hex) in
      if crc <> crc32 payload then
        fail "CRC mismatch (stored %s, computed %08x)" crc_hex (crc32 payload)
      else entry_of_payload payload

(* --- the writer --------------------------------------------------------- *)

type durability = Buffer | Flush | Fsync

let durability_of_string = function
  | "buffer" -> Some Buffer
  | "flush" -> Some Flush
  | "fsync" -> Some Fsync
  | _ -> None

let durability_to_string = function
  | Buffer -> "buffer"
  | Flush -> "flush"
  | Fsync -> "fsync"

type t = {
  oc : out_channel;
  path : string;
  durability : durability;
  mutable appended : int;
}

(* A SIGKILL mid-write leaves an unterminated partial line; appending
   straight after it would glue the next record onto the torn bytes,
   corrupting both, and replay — which stops at the first bad line —
   would then never see anything this incarnation writes.  Drop the
   torn bytes before appending: recover has already ignored them, so
   nothing recoverable is lost and the valid-prefix invariant holds
   for the next crash. *)
let truncate_torn_tail path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      let keep =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let n = in_channel_length ic in
            if n = 0 then None
            else begin
              seek_in ic (n - 1);
              if input_char ic = '\n' then None
              else begin
                (* scan back to the last newline; 0 if there is none *)
                let rec last_nl i =
                  if i < 0 then 0
                  else begin
                    seek_in ic i;
                    if input_char ic = '\n' then i + 1 else last_nl (i - 1)
                  end
                in
                Some (last_nl (n - 1))
              end
            end)
      in
      Option.iter
        (fun len ->
          try Unix.truncate path len with Unix.Unix_error _ -> ())
        keep

let open_append ?(durability = Flush) path =
  if Sys.file_exists path then truncate_torn_tail path;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  { oc; path; durability; appended = 0 }

let path t = t.path
let appended t = t.appended

let sync t =
  flush t.oc;
  if t.durability = Fsync then
    try Unix.fsync (Unix.descr_of_out_channel t.oc)
    with Unix.Unix_error _ | Invalid_argument _ -> ()

let append t e =
  output_string t.oc (entry_to_line e);
  t.appended <- t.appended + 1;
  match t.durability with Buffer -> () | Flush | Fsync -> sync t

let close t =
  sync t;
  close_out_noerr t.oc

(* --- replay ------------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          Some (really_input_string ic n))

(* Split into complete lines; a final segment without its newline is
   the torn tail and is never parsed. *)
let complete_lines s =
  let rec go acc i =
    match String.index_from_opt s i '\n' with
    | None -> (List.rev acc, i < String.length s)
    | Some j -> go (String.sub s i (j - i) :: acc) (j + 1)
  in
  go [] 0

let replay path =
  match read_file path with
  | None -> ([], false)
  | Some contents ->
      let lines, unterminated = complete_lines contents in
      let rec go acc = function
        | [] -> (List.rev acc, unterminated)
        | line :: rest -> (
            match entry_of_line line with
            | Ok e -> go (e :: acc) rest
            | Error _ ->
                (* first bad record: everything after it is beyond the
                   valid prefix, whatever it contains *)
                (List.rev acc, true))
      in
      go [] lines

type recovery = {
  r_pending : accepted list;
  r_completed : (string * string * P.reply) list;
  r_next_id : int;
  r_entries : int;
  r_torn : bool;
}

let empty_recovery =
  { r_pending = []; r_completed = []; r_next_id = 0; r_entries = 0;
    r_torn = false }

let recover path =
  let entries, torn = replay path in
  let pending = Hashtbl.create 32 in
  let order = ref [] in
  let completed = ref [] in
  let next_id = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Accept a ->
          next_id := max !next_id a.a_id;
          if not (Hashtbl.mem pending a.a_id) then begin
            Hashtbl.replace pending a.a_id a;
            order := a.a_id :: !order
          end
      | Complete { c_idem; c_reply } -> (
          match c_reply with
          | P.Done { id; tenant; _ } ->
              next_id := max !next_id id;
              Hashtbl.remove pending id;
              (match c_idem with
              | Some k -> completed := (tenant, k, c_reply) :: !completed
              | None -> ())
          | _ -> ()))
    entries;
  {
    r_pending =
      List.rev !order
      |> List.filter_map (fun id -> Hashtbl.find_opt pending id);
    r_completed = List.rev !completed;
    r_next_id = !next_id;
    r_entries = List.length entries;
    r_torn = torn;
  }

(* The cascabeld job journal: an append-only, CRC-framed JSONL
   write-ahead log.

   One record per line:

     <crc32:8 lowercase hex> <payload JSON>\n

   where the CRC-32 (IEEE 802.3, the zlib polynomial) covers exactly
   the payload bytes.  The payload reuses the wire codec: an "accept"
   record nests the SUBMIT request, a "done" record the DONE reply, so
   journal validation is the protocol's own validation and a
   hand-edited journal cannot smuggle an out-of-cap job past
   admission.  Format v2 nests the frame as a JSON value; v1 held its
   text as a JSON string, which the reader still accepts.

   The reader is built for the one failure mode an append-only log
   has: a torn tail.  A crash (SIGKILL, power loss) can leave the
   last line truncated or half-flushed; replay accepts every valid
   prefix record and stops at the first framing, CRC or decode
   failure, counting the cut as [r_torn].  It never raises on any
   byte soup and never "resurrects" a job whose completion record
   survived: a job is pending after replay iff its accept record is
   in the valid prefix and no completion record for its id is.

   A restart rewrites a journal whose history outweighs its live
   state: [compact] writes what [recover] kept to a side file and
   renames it over the journal, so the next restart reads the live
   state only. *)

module P = Protocol

(* --- CRC-32 (IEEE), sliced by 8 in C ----------------------------------- *)

external crc32_init : unit -> unit = "cas_crc32_init"

external crc32_sub :
  string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "cas_crc32_sub" "cas_crc32_sub_untagged"
[@@noalloc]

let () = crc32_init ()
let crc32 s = crc32_sub s 0 (String.length s)

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
  | Next_id of int

module J = Obs.Json

let num i = J.Num (float_of_int i)

let entry_json = function
  | Accept a ->
      J.Obj
        [ ("r", J.Str "accept"); ("id", num a.a_id);
          ( "req",
            P.request_to_json
              (P.Submit
                 {
                   tenant = a.a_tenant;
                   job = a.a_job;
                   deadline_ms = a.a_deadline_ms;
                   idem = a.a_idem;
                   trace = a.a_trace;
                 }) ) ]
  | Complete { c_idem; c_reply } ->
      J.Obj
        (("r", J.Str "done")
         :: (match c_idem with None -> [] | Some k -> [ ("idem", J.Str k) ])
        @ [ ("reply", P.reply_to_json c_reply) ])
  | Next_id id -> J.Obj [ ("r", J.Str "next"); ("id", num id) ]

let entry_to_line e =
  let payload = J.to_text (entry_json e) in
  Printf.sprintf "%08x %s\n" (crc32 payload) payload

let fail fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt

(* A record's nested frame is a JSON value (v2) or, in a v1 record,
   a JSON string holding the frame's text: the [J.Str] branches below
   are all that is left of v1. *)
let entry_of_payload s =
  match J.parse s with
  | Error e -> fail "record is not valid JSON: %s" e
  | Ok o -> (
      let id =
        match Option.bind (J.member "id" o) J.to_number with
        | Some f when Float.is_integer f && f >= 0.0 && f <= 1e15 ->
            Some (int_of_float f)
        | _ -> None
      in
      match Option.bind (J.member "r" o) J.to_string with
      | Some "accept" -> (
          match (id, J.member "req" o) with
          | Some a_id, Some req -> (
              let decoded =
                match req with
                | J.Str v1 -> P.request_of_string v1
                | v2 -> P.request_of_json v2
              in
              match decoded with
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
          match J.member "reply" o with
          | Some reply -> (
              let decoded =
                match reply with
                | J.Str v1 -> P.reply_of_string v1
                | v2 -> P.reply_of_json v2
              in
              match decoded with
              | Ok (P.Done _ as c_reply) ->
                  Ok
                    (Complete
                       {
                         c_idem = Option.bind (J.member "idem" o) J.to_string;
                         c_reply;
                       })
              | Ok _ -> fail "done record embeds a non-done reply"
              | Error e -> fail "done record: %s" e)
          | None -> fail "done record needs a reply")
      | Some "next" -> (
          match id with
          | Some id -> Ok (Next_id id)
          | None -> fail "next record needs an id")
      | Some r -> fail "unknown record kind %S" r
      | None -> fail "record needs an \"r\" field")

(* The stored CRC: eight lowercase hex digits at the start of [line],
   or -1. *)
let stored_crc line =
  let rec go i acc =
    if i = 8 then acc
    else
      match String.unsafe_get line i with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> -1
  in
  go 0 0

let entry_of_line line =
  let n = String.length line in
  if n < 10 || line.[8] <> ' ' then
    fail "line is not CRC-framed (want \"<crc8> <json>\")"
  else
    let crc = stored_crc line in
    if crc < 0 then fail "bad CRC field %S" (String.sub line 0 8)
    else
      let computed = crc32_sub line 9 (n - 9) in
      if crc <> computed then
        fail "CRC mismatch (stored %s, computed %08x)" (String.sub line 0 8)
          computed
      else entry_of_payload (String.sub line 9 (n - 9))

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

let compact_path path = path ^ ".compact"

let open_append ?(durability = Flush) path =
  (* a side file left by a compaction that died before its rename:
     the journal it was to replace is still whole *)
  (try Sys.remove (compact_path path) with Sys_error _ -> ());
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

(* --- the reader ------------------------------------------------------- *)

(* Fold [f] over the records of the valid prefix, one line at a time:
   only the current line is held, never the file or a list of its
   lines.  Returns the fold, the number of records and whether the
   journal was torn.  A final line without its newline is the torn
   tail and is never decoded: reading it ends past the file's length,
   so a line is complete iff its newline lies inside the file. *)
let fold_valid_prefix path f init =
  match open_in_bin path with
  | exception Sys_error _ -> (init, 0, false)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let size = try in_channel_length ic with Sys_error _ -> 0 in
          let rec go acc n pos =
            match input_line ic with
            | exception End_of_file -> (acc, n, false)
            | exception Sys_error _ -> (acc, n, true)
            | line -> (
                let next = pos + String.length line + 1 in
                if next > size then (acc, n, true)
                else
                  match entry_of_line line with
                  | Ok e -> go (f acc e) (n + 1) next
                  | Error _ ->
                      (* first bad record: everything after it is
                         beyond the valid prefix, whatever it holds *)
                      (acc, n, true))
          in
          go init 0 0)

let replay path =
  let rev, _, torn = fold_valid_prefix path (fun acc e -> e :: acc) [] in
  (List.rev rev, torn)

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

let recover ?(window = max_int) path =
  (* All recovery holds while it reads: the accepts not yet completed,
     each with its record number, and the newest [window] keyed
     completions.  Both follow the daemon's live state, not the
     journal's history.  The fold's accumulator is the record number. *)
  let pending = Hashtbl.create 64 and completed = Queue.create () in
  let next_id = ref 0 in
  let step seq = function
    | Accept a ->
        next_id := max !next_id a.a_id;
        if not (Hashtbl.mem pending a.a_id) then
          Hashtbl.replace pending a.a_id (seq, a);
        seq + 1
    | Next_id id ->
        next_id := max !next_id id;
        seq + 1
    | Complete { c_idem; c_reply } ->
        (match c_reply with
        | P.Done { id; tenant; _ } -> (
            next_id := max !next_id id;
            Hashtbl.remove pending id;
            match c_idem with
            | Some k ->
                Queue.add (tenant, k, c_reply) completed;
                if Queue.length completed > window then
                  ignore (Queue.pop completed)
            | None -> ())
        | _ -> ());
        seq + 1
  in
  let _, entries, torn = fold_valid_prefix path step 0 in
  {
    r_pending =
      Hashtbl.fold (fun _ p acc -> p :: acc) pending []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd;
    r_completed = List.of_seq (Queue.to_seq completed);
    r_next_id = !next_id;
    r_entries = entries;
    r_torn = torn;
  }

(* --- compaction --------------------------------------------------------- *)

let compact_floor = 1024
let live_records r = 1 + List.length r.r_completed + List.length r.r_pending

let compaction_due r =
  r.r_torn || r.r_entries > (2 * live_records r) + compact_floor

type compaction = {
  records_before : int;
  bytes_before : int;
  records_after : int;
  bytes_after : int;
}

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Some file systems refuse to fsync a directory; the rename is then
   as durable as they make it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let compact path r =
  let side = compact_path path in
  let bytes_before = file_size path in
  let write oc =
    let put e = output_string oc (entry_to_line e) in
    put (Next_id r.r_next_id);
    List.iter
      (fun (_, k, c_reply) -> put (Complete { c_idem = Some k; c_reply }))
      r.r_completed;
    List.iter (fun a -> put (Accept a)) r.r_pending;
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc)
  in
  let give_up reason =
    (try Sys.remove side with Sys_error _ -> ());
    Error reason
  in
  match
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
        side
    in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc);
    Unix.rename side path
  with
  | () ->
      fsync_dir (Filename.dirname path);
      Ok
        {
          records_before = r.r_entries;
          bytes_before;
          records_after = live_records r;
          bytes_after = file_size path;
        }
  | exception Sys_error m -> give_up m
  | exception Unix.Unix_error (err, fn, _) ->
      give_up (fn ^ ": " ^ Unix.error_message err)

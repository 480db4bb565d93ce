(* Request-scoped trace context.

   A context is a (trace id, span id) pair of 64-bit ids drawn from a
   splitmix64 stream (the same generator the fault model uses), so ids
   are well-mixed and collision-free for any realistic request volume.
   The daemon mints one per accepted job unless the client supplied its
   own in the protocol `trace` field; everything the job touches —
   service queue span, engine exec spans, native/kernel spans — tags
   its span with the context's flow id, and Export.to_chrome_json renders
   the tagged spans as one connected Perfetto flow (arrow chain).

   The "current" context is ambient per domain (Domain.DLS): the
   service installs it around a job's execution so layers below (the
   engine, the interpreter) need no plumbing to find it. *)

type t = { trace_id : int64; span_id : int64 }

(* splitmix64: counter * gamma mixed through two xor-multiply rounds. *)
let sm64_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let gamma = 0x9e3779b97f4a7c15L
let seed = Atomic.make 0x5eed_cab5L
let counter = Atomic.make 0

let set_seed s =
  Atomic.set seed s;
  Atomic.set counter 0

let next_id () =
  let c = Atomic.fetch_and_add counter 1 in
  let z = Int64.add (Atomic.get seed) (Int64.mul (Int64.of_int (c + 1)) gamma) in
  let id = sm64_mix z in
  if id = 0L then 1L else id

let make () = { trace_id = next_id (); span_id = next_id () }
let child t = { t with span_id = next_id () }

let hex_digits = "0123456789abcdef"

(* "%016Lx-%016Lx", nibble by nibble: this runs on every submit and
   every journal record, where Printf's format interpretation was most
   of the cost. *)
let to_string t =
  let b = Bytes.create 33 in
  let put off x =
    for k = 0 to 15 do
      let nib = Int64.to_int (Int64.shift_right_logical x (4 * (15 - k))) in
      Bytes.unsafe_set b (off + k) hex_digits.[nib land 15]
    done
  in
  put 0 t.trace_id;
  Bytes.unsafe_set b 16 '-';
  put 17 t.span_id;
  Bytes.unsafe_to_string b

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The unsigned value of the 1-16 hex digits in [s.[off .. off+len-1]],
   or [None].  The high and low 32 bits accumulate in two native ints,
   so no [int64] is boxed per digit. *)
let parse_hex64 s off len =
  if len < 1 || len > 16 then None
  else
    let rec go i hi lo =
      if i = off + len then
        Some
          (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      else
        let h = hex_value (String.unsafe_get s i) in
        if h < 0 then None
        else
          go (i + 1)
            ((hi lsl 4) lor (lo lsr 28))
            (((lo lsl 4) lor h) land 0xffff_ffff)
    in
    go off 0 0

let of_string s =
  let n = String.length s in
  match String.index_opt s '-' with
  | None -> (
      match parse_hex64 s 0 n with
      | Some id when id <> 0L -> Some { trace_id = id; span_id = 0L }
      | _ -> None)
  | Some i -> (
      match (parse_hex64 s 0 i, parse_hex64 s (i + 1) (n - i - 1)) with
      | Some tid, Some sid when tid <> 0L -> Some { trace_id = tid; span_id = sid }
      | _ -> None)

(* Perfetto flow ids are plain JSON integers; fold the trace id into a
   positive 62-bit int (0 is reserved for "no flow"). *)
let flow_id t =
  let i = Int64.to_int (Int64.logand t.trace_id 0x3fff_ffff_ffff_ffffL) in
  if i = 0 then 1 else i

(* --- ambient per-domain current context ---------------------------- *)

let dls : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let current () = !(Domain.DLS.get dls)
let set_current c = Domain.DLS.get dls := c

let with_current t f =
  let cell = Domain.DLS.get dls in
  let saved = !cell in
  cell := Some t;
  Fun.protect ~finally:(fun () -> cell := saved) f

let current_flow () = match current () with Some t -> flow_id t | None -> 0

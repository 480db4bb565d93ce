module Engine = Taskrt.Engine
module A = Bigarray.Array1

(* Name strings [intern] remembers by address. *)
let seen_cap = 32

(* Slot [s] of a task event is ints.{4s .. 4s+3} = shard, task id,
   codelet name id, worker name id, and times.{4s .. 4s+3} = dispatch,
   compute start, end, bytes in: 64 bytes, where a boxed
   [Engine.trace_event] in a list takes about 150 (its floats are
   boxed too). The slots are Bigarrays, outside the OCaml heap: the GC
   lets its heap grow in proportion to live heap data, so the 1 MiB of
   rings of perfbench serve-small's 4 tenants raised the daemon's peak
   RSS by 3.9 MB when held in heap arrays, and by 0.9 MB as Bigarrays
   (2-vCPU Xeon host). *)
type t = {
  cap : int;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* id -> name *)
  seen : string array;  (* name strings met before, by address *)
  seen_ids : int array;
  mutable n_seen : int;
  mutable ints : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable times : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
  mutable len : int;  (* events held, at most [cap] *)
  mutable oldest : int;  (* slot of the oldest event; 0 until full *)
  faults : (int * Engine.fault_event) Queue.t;
}

let create ~cap =
  {
    cap;
    ids = Hashtbl.create 16;
    names = [||];
    seen = Array.make seen_cap "";
    seen_ids = Array.make seen_cap 0;
    n_seen = 0;
    ints = A.create Bigarray.int Bigarray.c_layout 0;
    times = A.create Bigarray.float64 Bigarray.c_layout 0;
    len = 0;
    oldest = 0;
    faults = Queue.create ();
  }

(* A tenant's engines know a handful of codelet and worker names, so
   the table stays as small as the machine and the job kinds.  The
   engines hand over the same few strings job after job (a worker's
   name, a codelet's), so [intern] first looks for the string itself
   among the first [seen_cap] it met, and hashes only on a miss. *)
let lookup r name =
  match Hashtbl.find_opt r.ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length r.ids in
      if id = Array.length r.names then
        r.names <- Array.append r.names (Array.make (max 8 id) name);
      r.names.(id) <- name;
      Hashtbl.add r.ids name id;
      id

let rec intern_from r name i =
  if i = r.n_seen then begin
    let id = lookup r name in
    if i < seen_cap then begin
      r.seen.(i) <- name;
      r.seen_ids.(i) <- id;
      r.n_seen <- i + 1
    end;
    id
  end
  else if r.seen.(i) == name then r.seen_ids.(i)
  else intern_from r name (i + 1)

let intern r name = intern_from r name 0

let slots r = A.dim r.times / 4

(* Storage doubles until it holds [cap] events; from then on the
   oldest slot is reused. *)
let next_slot r =
  if r.len = slots r && r.len < r.cap then begin
    let n = min r.cap (max 64 (2 * r.len)) in
    let ints = A.create Bigarray.int Bigarray.c_layout (4 * n)
    and times = A.create Bigarray.float64 Bigarray.c_layout (4 * n) in
    A.blit r.ints (A.sub ints 0 (4 * r.len));
    A.blit r.times (A.sub times 0 (4 * r.len));
    r.ints <- ints;
    r.times <- times
  end;
  if r.len < slots r then begin
    r.len <- r.len + 1;
    r.len - 1
  end
  else begin
    let s = r.oldest in
    r.oldest <- (s + 1) mod r.cap;
    s
  end

let add r ~shard (events, faults) =
  List.iter
    (fun (e : Engine.trace_event) ->
      let i = 4 * next_slot r in
      r.ints.{i} <- shard;
      r.ints.{i + 1} <- e.tr_task;
      r.ints.{i + 2} <- intern r e.tr_codelet;
      r.ints.{i + 3} <- intern r e.tr_worker;
      r.times.{i} <- e.tr_start;
      r.times.{i + 1} <- e.tr_compute_start;
      r.times.{i + 2} <- e.tr_end;
      r.times.{i + 3} <- e.tr_bytes_in)
    events;
  List.iter
    (fun f ->
      Queue.add (shard, f) r.faults;
      if Queue.length r.faults > r.cap then ignore (Queue.take r.faults))
    faults

let event r s =
  let i = 4 * s in
  ( r.ints.{i},
    {
      Engine.tr_task = r.ints.{i + 1};
      tr_codelet = r.names.(r.ints.{i + 2});
      tr_worker = r.names.(r.ints.{i + 3});
      tr_start = r.times.{i};
      tr_compute_start = r.times.{i + 1};
      tr_end = r.times.{i + 2};
      tr_bytes_in = r.times.{i + 3};
    } )

let by_shard tagged =
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) tagged
  |> List.map snd

let contents r =
  let n = slots r in
  ( by_shard (List.init r.len (fun k -> event r ((r.oldest + k) mod n))),
    by_shard (List.of_seq (Queue.to_seq r.faults)) )

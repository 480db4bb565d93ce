(* Binary-heap event queue keyed by (time, sequence number); the
   sequence number makes same-time events fire in insertion order. *)

type event = { time : float; seq : int; action : unit -> unit }

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
}

let dummy_event = { time = 0.0; seq = 0; action = ignore }

let create () =
  {
    heap = Array.make 64 dummy_event;
    size = 0;
    clock = 0.0;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock

let[@inline] earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Both sifts carry the moving event in hand and shift the events
   they pass over into the hole it leaves: one array write per level. *)
let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy_event in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let heap = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  (* sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let parent = heap.(p) in
    if earlier ev parent then begin
      heap.(!i) <- parent;
      i := p
    end
    else continue := false
  done;
  heap.(!i) <- ev

let pop t =
  assert (t.size > 0);
  let heap = t.heap in
  let top = heap.(0) in
  let size = t.size - 1 in
  t.size <- size;
  let last = heap.(size) in
  heap.(size) <- dummy_event;
  if size > 0 then begin
    (* sift down: [last] descends from the root.  The left child is
       compared first, then the right one against the smaller so far:
       with a NaN time, which events compare decides the order. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i and least = ref last in
      if l < size && earlier heap.(l) !least then begin
        smallest := l;
        least := heap.(l)
      end;
      if r < size && earlier heap.(r) !least then begin
        smallest := r;
        least := heap.(r)
      end;
      if !smallest = !i then continue := false
      else begin
        heap.(!i) <- !least;
        i := !smallest
      end
    done;
    heap.(!i) <- last
  end;
  top

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now (%g)" time
         t.clock);
  let ev = { time; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  push t ev

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let run t =
  while t.size > 0 do
    let ev = pop t in
    t.clock <- ev.time;
    t.processed <- t.processed + 1;
    ev.action ()
  done

let events_processed t = t.processed

(* Shifting every time by the same amount keeps their order, but
   rounding may turn two distinct times equal, which would hand the
   tie to the sequence number; rebuilding the heap keeps it valid
   under the new keys whatever happened. *)
let rebase t by =
  t.clock <- t.clock -. by;
  let pending = Array.sub t.heap 0 t.size in
  t.size <- 0;
  Array.iter (fun ev -> push t { ev with time = ev.time -. by }) pending

type resource = { rname : string; mutable free_at : float }

let resource rname = { rname; free_at = 0.0 }
let resource_name r = r.rname
let busy_until r = r.free_at
let rebase_resource r by = r.free_at <- r.free_at -. by

let peek r ~at ~duration =
  let start = Float.max at r.free_at in
  (start, start +. duration)

let acquire r ~at ~duration =
  let start, finish = peek r ~at ~duration in
  r.free_at <- finish;
  (start, finish)

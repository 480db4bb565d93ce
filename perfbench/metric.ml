(* What one run of one workload reports. *)

type t = { name : string; value : float; unit_ : string }

let v name unit_ value = { name; value; unit_ }

type run = {
  correct : bool;  (* every output check passed *)
  attempted : int;  (* jobs sent, or program runs *)
  failed : int;  (* refused, failed, timed out or never answered *)
  metrics : t list;
      (* the end-to-end metrics (untraced run) or the per-layer ones
         (traced run), plus supporting numbers that are printed but are
         not part of the result line *)
}

(* A fresh, empty scratch directory for one workload under the
   checkout: sockets, journals and native build artifacts live here. *)
let scratch name =
  let rec rm p =
    match Unix.lstat p with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
  in
  let rec mkdir p =
    if not (Sys.file_exists p) then begin
      mkdir (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  let dir = Filename.concat ".perfbench/run" name in
  rm dir;
  mkdir dir;
  dir

(* Aggregate (steal, total) CPU ticks from /proc/stat.  Steal is time
   the hypervisor ran other guests on our CPUs: a run with a large share
   of it measured the host, not the program. *)
let cpu_ticks () =
  match
    In_channel.with_open_text "/proc/stat" input_line
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  with
  | "cpu" :: user :: nice :: sys :: idle :: iowait :: irq :: softirq :: steal :: _
    ->
      let ticks = List.map int_of_string [ user; nice; sys; idle; iowait; irq; softirq; steal ] in
      (int_of_string steal, List.fold_left ( + ) 0 ticks)
  | _ | (exception _) -> (0, 0)

let steal_since (s0, t0) =
  let s1, t1 = cpu_ticks () in
  float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))

(* --- direct probes of single layers, timed from outside --------------- *)

(* Median seconds per call over at least 0.1 s and 3 samples; a sample
   times a batch of calls lasting about a millisecond, and [prep] makes
   each call's input untimed. *)
let per_call ~prep run =
  let _, first = Stats.time (fun () -> run (prep ())) in
  let batch = max 1 (int_of_float (1e-3 /. Float.max first 1e-9)) in
  let rec go acc total =
    if total >= 0.1 && List.length acc >= 3 then acc
    else
      let xs = List.init batch (fun _ -> prep ()) in
      let _, dt = Stats.time (fun () -> List.iter (fun x -> ignore (run x)) xs) in
      go ((dt /. float_of_int batch) :: acc) (total +. dt)
  in
  Stats.median (Stats.sorted (go [] 0.0))

let pdl_load_ms () =
  1000.0
  *. per_call
       ~prep:(fun () -> ())
       (fun () -> Result.get_ok (Pdl.Codec.load_file Daemon.platform))

let dgemm_gflops n =
  let a = Kernels.Matrix.random ~seed:1 n n
  and b = Kernels.Matrix.random ~seed:2 n n
  and c = Kernels.Matrix.create n n in
  Kernels.Blas.flops_dgemm n n n
  /. per_call ~prep:(fun () -> ()) (fun () -> Kernels.Blas.dgemm a b c)
  /. 1e9

let potrf_gflops n =
  let spd = Kernels.Lapack.random_spd ~seed:3 n in
  Kernels.Lapack.flops_potrf n
  /. per_call
       ~prep:(fun () -> Kernels.Matrix.copy spd)
       (fun m -> Kernels.Lapack.dpotrf m)
  /. 1e9

(* The calibration store: measured execution-time models keyed by
   (codelet, PU, size-bucket), plus the tuned GEMM blocking, persisted
   as CALIB_<pdl-hash>.json.

   Size buckets are one-per-octave over the task's flop count
   (floor(log2 flops), unbounded) — coarser than Obs.Histogram's
   2^(1/4) scheme, but the histogram's 256-bucket range clamps near
   3.6e9 while tile flop counts reach 1e13, and an octave is accurate
   enough once the per-bucket rate (seconds per flop) is learned
   rather than the raw mean.

   Estimation ladder, most to least informed:
   1. the target bucket holds >= min_samples observations: scale its
      measured rate to the queried flop count;
   2. >= 2 qualifying buckets elsewhere: power-law fit t = exp(a) *
      f^b by least squares in log-log space over bucket means;
   3. exactly 1 qualifying bucket: linear flops scaling of its rate;
   4. otherwise None — the scheduler falls back to declared gflops. *)

type cell = {
  mutable n : int;
  mutable sum_s : float;  (* total observed seconds *)
  mutable sum_f : float;  (* total flops those observations did *)
  mutable min_s : float;
  mutable max_s : float;
}

type gemm_cfg = {
  g_mc : int;
  g_kc : int;
  g_nc : int;
  g_micro : string;  (* Gemm_kernel.micro_to_string *)
  g_gflops : float;  (* measured throughput of the winner, for reports *)
}

type t = {
  pdl_hash : string;
  platform : string;
  cells : (string * string * int, cell) Hashtbl.t;
  mutable gemm : gemm_cfg option;
  mutable dirty : bool;
}

let version = 1
let min_samples = 3

let create ~pdl_hash ~platform () =
  { pdl_hash; platform; cells = Hashtbl.create 64; gemm = None; dirty = false }

let pdl_hash t = t.pdl_hash
let platform t = t.platform
let filename ~pdl_hash = Printf.sprintf "CALIB_%s.json" pdl_hash
let path ?(dir = ".") t = Filename.concat dir (filename ~pdl_hash:t.pdl_hash)

(* --- bucketing ------------------------------------------------------ *)

let bucket_of_flops f =
  if f <= 1.0 then 0
  else
    let b = int_of_float (Float.floor (Float.log2 f)) in
    if b < 0 then 0 else b

let bucket_bounds i = (Float.pow 2.0 (float_of_int i), Float.pow 2.0 (float_of_int (i + 1)))

(* --- observation ---------------------------------------------------- *)

let observe t ~codelet ~pu ~flops ~seconds =
  if seconds > 0.0 && flops > 0.0 then begin
    let key = (codelet, pu, bucket_of_flops flops) in
    let c =
      match Hashtbl.find_opt t.cells key with
      | Some c -> c
      | None ->
          let c =
            { n = 0; sum_s = 0.0; sum_f = 0.0; min_s = infinity; max_s = 0.0 }
          in
          Hashtbl.replace t.cells key c;
          c
    in
    c.n <- c.n + 1;
    c.sum_s <- c.sum_s +. seconds;
    c.sum_f <- c.sum_f +. flops;
    if seconds < c.min_s then c.min_s <- seconds;
    if seconds > c.max_s then c.max_s <- seconds;
    t.dirty <- true
  end

let samples t ~codelet ~pu ~flops =
  match Hashtbl.find_opt t.cells (codelet, pu, bucket_of_flops flops) with
  | Some c -> c.n
  | None -> 0

let total_samples t =
  Hashtbl.fold (fun _ c acc -> acc + c.n) t.cells 0

(* --- estimation ----------------------------------------------------- *)

let qualifying t ~codelet ~pu =
  Hashtbl.fold
    (fun (cd, p, b) c acc ->
      if cd = codelet && p = pu && c.n >= min_samples && c.sum_f > 0.0 then
        (b, c) :: acc
      else acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let estimate t ~codelet ~pu ~flops =
  if flops <= 0.0 then None
  else
    let bucket = bucket_of_flops flops in
    match Hashtbl.find_opt t.cells (codelet, pu, bucket) with
    | Some c when c.n >= min_samples && c.sum_f > 0.0 ->
        Some (flops *. (c.sum_s /. c.sum_f))
    | _ -> (
        match qualifying t ~codelet ~pu with
        | [] -> None
        | [ (_, c) ] -> Some (flops *. (c.sum_s /. c.sum_f))
        | cells ->
            (* Least-squares power law over bucket means in log-log
               space: ln t = a + b ln f. *)
            let pts =
              List.map
                (fun (_, c) ->
                  let nf = float_of_int c.n in
                  (Float.log (c.sum_f /. nf), Float.log (c.sum_s /. nf)))
                cells
            in
            let m = float_of_int (List.length pts) in
            let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
            let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
            let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
            let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
            let denom = (m *. sxx) -. (sx *. sx) in
            if Float.abs denom < 1e-12 then
              (* All buckets collapse to one size: fall back to the
                 pooled rate. *)
              let sum_s, sum_f =
                List.fold_left
                  (fun (s, f) (_, c) -> (s +. c.sum_s, f +. c.sum_f))
                  (0.0, 0.0) cells
              in
              Some (flops *. (sum_s /. sum_f))
            else
              let b = ((m *. sxy) -. (sx *. sy)) /. denom in
              let a = (sy -. (b *. sx)) /. m in
              let est = Float.exp (a +. (b *. Float.log flops)) in
              if Float.is_finite est && est > 0.0 then Some est else None)

(* --- GEMM blocking record ------------------------------------------- *)

let gemm_config t = t.gemm

let set_gemm_config t cfg =
  t.gemm <- Some cfg;
  t.dirty <- true

(* --- persistence ---------------------------------------------------- *)

let dirty t = t.dirty

let to_json_string t =
  let module J = Obs.Json in
  let int i = J.Num (float_of_int i) in
  let gemm =
    match t.gemm with
    | None -> []
    | Some g ->
        [ ("gemm",
           J.Obj
             [ ("mc", int g.g_mc); ("kc", int g.g_kc); ("nc", int g.g_nc);
               ("micro", J.Str g.g_micro); ("gflops", J.Num g.g_gflops) ]) ]
  in
  let cells =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.cells []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun ((codelet, pu, bucket), c) ->
           J.Obj
             [ ("codelet", J.Str codelet); ("pu", J.Str pu);
               ("bucket", int bucket); ("n", int c.n); ("sum_s", J.Num c.sum_s);
               ("sum_f", J.Num c.sum_f); ("min_s", J.Num c.min_s);
               ("max_s", J.Num c.max_s) ])
  in
  J.to_text
    (J.Obj
       ([ ("version", int version); ("pdl_hash", J.Str t.pdl_hash);
          ("platform", J.Str t.platform) ]
       @ gemm
       @ [ ("cells", J.Arr cells) ]))

let save ?(dir = ".") t =
  let p = path ~dir t in
  let tmp = p ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_json_string t);
  (* fsync before the rename: the rename is atomic, but without it a
     crash can publish a complete-looking name over truncated bytes —
     the one window the atomic-rename discipline does not cover *)
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  close_out oc;
  Sys.rename tmp p;
  t.dirty <- false

(* Parse one store file into a fresh [t]. Any structural problem is an
   Error string — the caller turns it into a warning and starts cold;
   a corrupt store must never take the run down. *)
let of_json ~expect_hash json =
  let module J = Obs.Json in
  let str k o = Option.bind (J.member k o) J.to_string in
  let num k o = Option.bind (J.member k o) J.to_number in
  match str "pdl_hash" json with
  | None -> Error "missing pdl_hash"
  | Some h when h <> expect_hash ->
      Error
        (Printf.sprintf "pdl_hash mismatch (file %s, platform %s)" h
           expect_hash)
  | Some h -> (
      match num "version" json with
      | Some v when int_of_float v <> version ->
          Error (Printf.sprintf "unsupported version %g" v)
      | None -> Error "missing version"
      | Some _ -> (
          let platform = Option.value ~default:"" (str "platform" json) in
          let t = create ~pdl_hash:h ~platform () in
          (match J.member "gemm" json with
          | None -> ()
          | Some g -> (
              match
                (num "mc" g, num "kc" g, num "nc" g, str "micro" g,
                 num "gflops" g)
              with
              | Some mc, Some kc, Some nc, Some micro, Some gf ->
                  t.gemm <-
                    Some
                      {
                        g_mc = int_of_float mc;
                        g_kc = int_of_float kc;
                        g_nc = int_of_float nc;
                        g_micro = micro;
                        g_gflops = gf;
                      }
              | _ -> ()));
          match Option.bind (J.member "cells" json) J.to_list with
          | None -> Error "missing cells array"
          | Some cells -> (
              try
                List.iter
                  (fun cj ->
                    match
                      ( str "codelet" cj,
                        str "pu" cj,
                        num "bucket" cj,
                        num "n" cj,
                        num "sum_s" cj,
                        num "sum_f" cj )
                    with
                    | Some cd, Some pu, Some b, Some n, Some ss, Some sf ->
                        let c =
                          {
                            n = int_of_float n;
                            sum_s = ss;
                            sum_f = sf;
                            min_s =
                              Option.value ~default:ss (num "min_s" cj);
                            max_s =
                              Option.value ~default:ss (num "max_s" cj);
                          }
                        in
                        if c.n <= 0 || not (Float.is_finite ss) then
                          raise Exit;
                        Hashtbl.replace t.cells
                          (cd, pu, int_of_float b)
                          c
                    | _ -> raise Exit)
                  cells;
                t.dirty <- false;
                Ok t
              with Exit -> Error "malformed cell entry")))

let runnable_micro g =
  match Kernels.Gemm_kernel.micro_of_string g.g_micro with
  | Some m -> Kernels.Gemm_kernel.micro_supported m
  | None -> true (* an unknown name is refused by Gemm_tune.blocking_of_cfg *)

let load ?(dir = ".") ~pdl_hash ~platform () =
  let p = Filename.concat dir (filename ~pdl_hash) in
  let fresh () = create ~pdl_hash ~platform () in
  if not (Sys.file_exists p) then (fresh (), None)
  else
    let read_all () =
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Obs.Json.parse (read_all ()) with
    | Error e ->
        ( fresh (),
          Some (Printf.sprintf "calibration store %s unreadable (%s); starting cold" p e)
        )
    | Ok json -> (
        match of_json ~expect_hash:pdl_hash json with
        | Ok ({ gemm = Some g; _ } as t) when not (runnable_micro g) ->
            (* recorded on a CPU with more vector units than this one *)
            t.gemm <- None;
            ( t,
              Some
                (Printf.sprintf
                   "calibration store %s: GEMM blocking ignored (this CPU \
                    cannot run the %s micro-kernel)"
                   p g.g_micro) )
        | Ok t -> (t, None)
        | Error e ->
            ( fresh (),
              Some
                (Printf.sprintf
                   "calibration store %s ignored (%s); starting cold" p e) ))
    | exception Sys_error e ->
        (fresh (), Some (Printf.sprintf "calibration store %s: %s" p e))

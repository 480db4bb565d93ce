(* Order statistics and the small JSON writer shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank, 1-based, clamped into the sample. *)
let at_rank a r = a.(max 0 (min (Array.length a - 1) (r - 1)))

let percentile a q =
  if Array.length a = 0 then nan
  else at_rank a (int_of_float (Float.ceil (q /. 100.0 *. float_of_int (Array.length a))))

let median a = percentile a 50.0

(* Python's statistics.quantiles(data, n=4), the default "exclusive"
   method: the quartiles the run-to-run spread is judged by. *)
let quartiles a =
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* Monotonic seconds with nanosecond resolution, for durations only. *)
let now () = Obs.Clock.to_s (Obs.Clock.now_ns ())

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- JSON output ------------------------------------------------------- *)

(* Every digit the float carries: results are compared as measured. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let str s = Serve.Protocol.json_string s
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"

(* --- JSON input -------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let json_of_file path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing JSON field %S" k)

let field_str k j = Option.get (Obs.Json.to_string (field k j))
let field_num k j = Option.get (Obs.Json.to_number (field k j))
let field_list k j = Option.value ~default:[] (Obs.Json.to_list (field k j))
let members = function Obs.Json.Obj kv -> kv | _ -> []

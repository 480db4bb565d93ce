type library = int64
type fn = int64

type arg = Buf of Kernels.Matrix.buf | Int of int | Float of float

type host = {
  alloc : int -> int;
  out : string -> unit;
  submit : int -> int array -> unit;
  wait_all : unit -> unit;
  dgemm : int -> int -> int -> int -> int -> int -> unit;
}

external capi_dlopen : string -> library = "caml_capi_dlopen"
external capi_dlsym : library -> string -> fn = "caml_capi_dlsym"
external capi_dlclose : library -> unit = "caml_capi_dlclose"
external call : host -> fn -> arg array -> unit = "caml_capi_call"
external run_main : host -> fn -> int = "caml_capi_run_main"
external address : Kernels.Matrix.buf -> int = "caml_capi_address"
external peek_long : int -> int = "caml_capi_peek_long"
external peek_double : int -> float = "caml_capi_peek_double"

let load path =
  match capi_dlopen path with
  | h -> Ok h
  | exception Failure msg -> Error msg

let sym lib name =
  let fn = capi_dlsym lib name in
  if Int64.equal fn 0L then None else Some fn

let close lib = capi_dlclose lib

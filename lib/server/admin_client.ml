module Wire = Synts_clock.Wire
module Admin = Synts_obs.Admin

type t = { fd : Unix.file_descr; mutable closed : bool }

let connect_fd = function
  | Server.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Server.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd

let connect address = { fd = connect_fd address; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let roundtrip t req =
  Frame.send t.fd (Wire.frame (Admin.encode_request req));
  let reply =
    match Frame.recv t.fd with
    | `Eof -> failwith "admin channel closed"
    | `Frame f -> f
  in
  match Wire.unframe reply with
  | Error e -> failwith ("corrupt admin reply frame: " ^ e)
  | Ok body -> (
      match Admin.decode_response body with
      | Error e -> failwith ("bad admin reply: " ^ e)
      | Ok resp -> resp)

let unexpected what resp =
  Format.kasprintf failwith "unexpected %s reply: %a" what Admin.pp_response
    resp

let health t =
  match roundtrip t Admin.Health with
  | Admin.Health_r { ok; backend; processes; dimension } ->
      (ok, backend, processes, dimension)
  | Admin.Error_r e -> failwith e
  | other -> unexpected "health" other

let metrics t fmt =
  match roundtrip t (Admin.Metrics fmt) with
  | Admin.Metrics_r body -> body
  | Admin.Error_r e -> failwith e
  | other -> unexpected "metrics" other

let stats t =
  match roundtrip t Admin.Stats with
  | Admin.Stats_r st -> st
  | Admin.Error_r e -> failwith e
  | other -> unexpected "stats" other

let tracedump t =
  match roundtrip t Admin.Tracedump with
  | Admin.Tracedump_r { dropped; spans; jsonl } -> (dropped, spans, jsonl)
  | Admin.Error_r e -> failwith e
  | other -> unexpected "tracedump" other

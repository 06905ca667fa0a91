module Wire = Synts_clock.Wire

type metrics_format = Prom | Json

type request = Health | Metrics of metrics_format | Stats | Tracedump

type conn_stat = {
  conn : int;
  events_in : int;
  stamps_out : int;
  dedup_hits : int;
  last_seq : int;
}

type stream_stat = {
  chains : int;
  live : int;
  retired : int;
  width : int;
  exact : bool;
  repairs : int;
}

type stats = {
  backend : string;
  clients : int;
  batches : int;
  messages : int;
  internal : int;
  dedup_hits : int;
  errors : int;
  dropped : int;
  pending : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  conns : conn_stat list;
  stream : stream_stat option;
}

type response =
  | Health_r of {
      ok : bool;
      backend : string;
      processes : int;
      dimension : int;
    }
  | Metrics_r of string
  | Stats_r of stats
  | Tracedump_r of { dropped : int; spans : int; jsonl : string }
  | Error_r of string

let family_magic = '\xAD'
let current_version = 2

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let varint s off =
  match Wire.read_varint s off with
  | Some (v, off') -> (v, off')
  | None -> fail "truncated varint at byte %d" off

let byte s off =
  if off >= String.length s then fail "truncated admin message at byte %d" off
  else (Char.code s.[off], off + 1)

let put_string buf s =
  Wire.put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string s off =
  let len, off = varint s off in
  if off + len > String.length s then fail "truncated string at byte %d" off
  else (String.sub s off len, off + len)

(* Doubles travel as their IEEE bits, big-endian — 8 bytes, no textual
   round-trip, so quantiles survive the wire bit-exactly. *)
let put_f64 buf f =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.bits_of_float f);
  Buffer.add_bytes buf b

let get_f64 s off =
  if off + 8 > String.length s then fail "truncated float at byte %d" off
  else
    (Int64.float_of_bits (String.get_int64_be s off), off + 8)

let finish_at s off what =
  if off <> String.length s then
    fail "%s: %d trailing bytes" what (String.length s - off)

let header buf =
  Buffer.add_char buf family_magic;
  Buffer.add_char buf (Char.chr current_version)

let check_header what s =
  if String.length s < 2 then fail "truncated %s header" what;
  if s.[0] <> family_magic then
    fail "not an admin-family message (magic 0x%02x)" (Char.code s.[0]);
  let version = Char.code s.[1] in
  if version <> current_version then
    fail "unsupported admin version %d (this build speaks %d)" version
      current_version;
  2

(* {2 Requests} *)

let encode_request r =
  let buf = Buffer.create 8 in
  header buf;
  (match r with
  | Health -> Buffer.add_char buf '\x00'
  | Metrics fmt ->
      Buffer.add_char buf '\x01';
      Buffer.add_char buf (match fmt with Prom -> '\x00' | Json -> '\x01')
  | Stats -> Buffer.add_char buf '\x02'
  | Tracedump -> Buffer.add_char buf '\x03');
  Buffer.contents buf

let decode_request s =
  try
    let off = check_header "request" s in
    let tag, off = byte s off in
    match tag with
    | 0 ->
        finish_at s off "Health";
        Ok Health
    | 1 ->
        let fmt, off = byte s off in
        let fmt =
          match fmt with
          | 0 -> Prom
          | 1 -> Json
          | f -> fail "unknown metrics format %d" f
        in
        finish_at s off "Metrics";
        Ok (Metrics fmt)
    | 2 ->
        finish_at s off "Stats";
        Ok Stats
    | 3 ->
        finish_at s off "Tracedump";
        Ok Tracedump
    | t -> fail "unknown admin request tag %d" t
  with Fail e -> Error e

(* {2 Responses} *)

let encode_response r =
  let buf = Buffer.create 128 in
  header buf;
  (match r with
  | Health_r { ok; backend; processes; dimension } ->
      Buffer.add_char buf '\x00';
      Buffer.add_char buf (if ok then '\x01' else '\x00');
      put_string buf backend;
      Wire.put_varint buf processes;
      Wire.put_varint buf dimension
  | Metrics_r body ->
      Buffer.add_char buf '\x01';
      put_string buf body
  | Stats_r st ->
      Buffer.add_char buf '\x02';
      put_string buf st.backend;
      Wire.put_varint buf st.clients;
      Wire.put_varint buf st.batches;
      Wire.put_varint buf st.messages;
      Wire.put_varint buf st.internal;
      Wire.put_varint buf st.dedup_hits;
      Wire.put_varint buf st.errors;
      Wire.put_varint buf st.dropped;
      Wire.put_varint buf st.pending;
      put_f64 buf st.p50_ms;
      put_f64 buf st.p90_ms;
      put_f64 buf st.p99_ms;
      Wire.put_varint buf (List.length st.conns);
      List.iter
        (fun { conn; events_in; stamps_out; dedup_hits; last_seq } ->
          Wire.put_varint buf conn;
          Wire.put_varint buf events_in;
          Wire.put_varint buf stamps_out;
          Wire.put_varint buf dedup_hits;
          (* last_seq starts at -1 (nothing observed yet): shift by one
             so it stays in varint range. *)
          Wire.put_varint buf (last_seq + 1))
        st.conns;
      (match st.stream with
      | None -> Buffer.add_char buf '\x00'
      | Some { chains; live; retired; width; exact; repairs } ->
          Buffer.add_char buf '\x01';
          Wire.put_varint buf chains;
          Wire.put_varint buf live;
          Wire.put_varint buf retired;
          Wire.put_varint buf width;
          Buffer.add_char buf (if exact then '\x01' else '\x00');
          Wire.put_varint buf repairs)
  | Tracedump_r { dropped; spans; jsonl } ->
      Buffer.add_char buf '\x03';
      Wire.put_varint buf dropped;
      Wire.put_varint buf spans;
      put_string buf jsonl
  | Error_r msg ->
      Buffer.add_char buf '\x04';
      put_string buf msg);
  Buffer.contents buf

let decode_response s =
  try
    let off = check_header "response" s in
    let tag, off = byte s off in
    match tag with
    | 0 ->
        let ok, off = byte s off in
        let backend, off = get_string s off in
        let processes, off = varint s off in
        let dimension, off = varint s off in
        finish_at s off "Health_r";
        Ok (Health_r { ok = ok <> 0; backend; processes; dimension })
    | 1 ->
        let body, off = get_string s off in
        finish_at s off "Metrics_r";
        Ok (Metrics_r body)
    | 2 ->
        let backend, off = get_string s off in
        let clients, off = varint s off in
        let batches, off = varint s off in
        let messages, off = varint s off in
        let internal, off = varint s off in
        let dedup_hits, off = varint s off in
        let errors, off = varint s off in
        let dropped, off = varint s off in
        let pending, off = varint s off in
        let p50_ms, off = get_f64 s off in
        let p90_ms, off = get_f64 s off in
        let p99_ms, off = get_f64 s off in
        let nconns, off = varint s off in
        let off = ref off in
        let conns =
          List.init nconns (fun _ ->
              let conn, o = varint s !off in
              let events_in, o = varint s o in
              let stamps_out, o = varint s o in
              let dedup_hits, o = varint s o in
              let last_seq, o = varint s o in
              off := o;
              { conn; events_in; stamps_out; dedup_hits;
                last_seq = last_seq - 1 })
        in
        let flag, o = byte s !off in
        let stream, o =
          match flag with
          | 0 -> (None, o)
          | 1 ->
              let chains, o = varint s o in
              let live, o = varint s o in
              let retired, o = varint s o in
              let width, o = varint s o in
              let exact, o = byte s o in
              let repairs, o = varint s o in
              ( Some
                  { chains; live; retired; width; exact = exact <> 0; repairs },
                o )
          | f -> fail "unknown stream flag %d" f
        in
        finish_at s o "Stats_r";
        Ok
          (Stats_r
             {
               backend; clients; batches; messages; internal; dedup_hits;
               errors; dropped; pending; p50_ms; p90_ms; p99_ms; conns;
               stream;
             })
    | 3 ->
        let dropped, off = varint s off in
        let spans, off = varint s off in
        let jsonl, off = get_string s off in
        finish_at s off "Tracedump_r";
        Ok (Tracedump_r { dropped; spans; jsonl })
    | 4 ->
        let msg, off = get_string s off in
        finish_at s off "Error_r";
        Ok (Error_r msg)
    | t -> fail "unknown admin response tag %d" t
  with Fail e -> Error e

let pp_request ppf = function
  | Health -> Format.fprintf ppf "Health"
  | Metrics Prom -> Format.fprintf ppf "Metrics(prom)"
  | Metrics Json -> Format.fprintf ppf "Metrics(json)"
  | Stats -> Format.fprintf ppf "Stats"
  | Tracedump -> Format.fprintf ppf "Tracedump"

let pp_response ppf = function
  | Health_r { ok; backend; processes; dimension } ->
      Format.fprintf ppf "Health{ok=%b; %s; n=%d; d=%d}" ok backend processes
        dimension
  | Metrics_r body -> Format.fprintf ppf "Metrics(%d bytes)" (String.length body)
  | Stats_r st ->
      Format.fprintf ppf
        "Stats{%s; clients=%d; batches=%d; msgs=%d; dropped=%d; pending=%d}"
        st.backend st.clients st.batches st.messages st.dropped st.pending
  | Tracedump_r { dropped; spans; _ } ->
      Format.fprintf ppf "Tracedump{spans=%d; dropped=%d}" spans dropped
  | Error_r e -> Format.fprintf ppf "Error(%s)" e

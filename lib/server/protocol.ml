module Wire = Synts_clock.Wire
module Vector = Synts_clock.Vector
module Ingest = Synts_ingest.Ingest
module Internal_events = Synts_core.Internal_events

type request =
  | Hello
  | Observe of { seq : int; events : Ingest.event array }
  | Drain
  | Finish
  | Verify
  | Stats
  | Churn of string
  | Shutdown

type response =
  | Welcome of { processes : int; dimension : int; epoch : int }
  | Outcomes of Ingest.outcome array
  | Resolved of (Ingest.ticket * Internal_events.stamp) list
  | Verified of { ok : bool; checked : int }
  | Stats_r of {
      clients : int;
      batches : int;
      messages : int;
      internal : int;
      dropped : int;
      pending : int;
    }
  | Epoch_r of { epoch : int; processes : int; dimension : int }
  | Error_r of string
  | Bye

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let varint s off =
  match Wire.read_varint s off with
  | Some (v, off') -> (v, off')
  | None -> fail "truncated varint at byte %d" off

let byte s off =
  if off >= String.length s then fail "truncated message at byte %d" off
  else (Char.code s.[off], off + 1)

(* A vector embedded mid-message: component count, then the components —
   the same self-delimiting shape [Wire.encode] uses standalone. *)
let vector s off =
  let count, off = varint s off in
  let v = Array.make count 0 in
  let off = ref off in
  for i = 0 to count - 1 do
    let x, o = varint s !off in
    v.(i) <- x;
    off := o
  done;
  (v, !off)

let put_vector buf v = Buffer.add_string buf (Wire.encode v)

let put_string buf s =
  Wire.put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string s off =
  let len, off = varint s off in
  if off + len > String.length s then fail "truncated string at byte %d" off
  else (String.sub s off len, off + len)

let finish_at s off what =
  if off <> String.length s then
    fail "%s: %d trailing bytes" what (String.length s - off)

(* {2 Requests} *)

let encode_request r =
  let buf = Buffer.create 32 in
  (match r with
  | Hello -> Buffer.add_char buf '\x00'
  | Observe { seq; events } ->
      Buffer.add_char buf '\x01';
      Wire.put_varint buf seq;
      Wire.put_varint buf (Array.length events);
      Array.iter
        (function
          | Ingest.Message { src; dst } ->
              Buffer.add_char buf '\x00';
              Wire.put_varint buf src;
              Wire.put_varint buf dst
          | Ingest.Internal { proc } ->
              Buffer.add_char buf '\x01';
              Wire.put_varint buf proc)
        events
  | Drain -> Buffer.add_char buf '\x02'
  | Finish -> Buffer.add_char buf '\x03'
  | Verify -> Buffer.add_char buf '\x04'
  | Stats -> Buffer.add_char buf '\x05'
  | Shutdown -> Buffer.add_char buf '\x06'
  | Churn delta ->
      Buffer.add_char buf '\x07';
      put_string buf delta);
  Buffer.contents buf

let decode_request s =
  try
    if s = "" then fail "empty request"
    else begin
      let tag, off = byte s 0 in
      match tag with
      | 0 ->
          finish_at s off "Hello";
          Ok Hello
      | 1 ->
          let seq, off = varint s off in
          let count, off = varint s off in
          let off = ref off in
          let events =
            Array.init count (fun _ ->
                let kind, o = byte s !off in
                match kind with
                | 0 ->
                    let src, o = varint s o in
                    let dst, o = varint s o in
                    off := o;
                    Ingest.Message { src; dst }
                | 1 ->
                    let proc, o = varint s o in
                    off := o;
                    Ingest.Internal { proc }
                | k -> fail "unknown event kind %d" k)
          in
          finish_at s !off "Observe";
          Ok (Observe { seq; events })
      | 2 ->
          finish_at s off "Drain";
          Ok Drain
      | 3 ->
          finish_at s off "Finish";
          Ok Finish
      | 4 ->
          finish_at s off "Verify";
          Ok Verify
      | 5 ->
          finish_at s off "Stats";
          Ok Stats
      | 6 ->
          finish_at s off "Shutdown";
          Ok Shutdown
      | 7 ->
          let delta, off = get_string s off in
          finish_at s off "Churn";
          Ok (Churn delta)
      | t -> fail "unknown request tag %d" t
    end
  with Fail e -> Error e

(* {2 Responses} *)

let encode_response r =
  let buf = Buffer.create 64 in
  (match r with
  | Welcome { processes; dimension; epoch } ->
      Buffer.add_char buf '\x00';
      Wire.put_varint buf processes;
      Wire.put_varint buf dimension;
      Wire.put_varint buf epoch
  | Outcomes outcomes ->
      Buffer.add_char buf '\x01';
      Wire.put_varint buf (Array.length outcomes);
      Array.iter
        (function
          | Ingest.Stamped v ->
              Buffer.add_char buf '\x00';
              put_vector buf v
          | Ingest.Deferred ticket ->
              Buffer.add_char buf '\x01';
              Wire.put_varint buf ticket)
        outcomes
  | Resolved resolved ->
      Buffer.add_char buf '\x02';
      Wire.put_varint buf (List.length resolved);
      List.iter
        (fun (ticket, (stamp : Internal_events.stamp)) ->
          Wire.put_varint buf ticket;
          Wire.put_varint buf stamp.proc;
          put_vector buf stamp.prev;
          (match stamp.succ with
          | None -> Buffer.add_char buf '\x00'
          | Some v ->
              Buffer.add_char buf '\x01';
              put_vector buf v);
          Wire.put_varint buf stamp.counter)
        resolved
  | Verified { ok; checked } ->
      Buffer.add_char buf '\x03';
      Buffer.add_char buf (if ok then '\x01' else '\x00');
      Wire.put_varint buf checked
  | Stats_r { clients; batches; messages; internal; dropped; pending } ->
      Buffer.add_char buf '\x04';
      Wire.put_varint buf clients;
      Wire.put_varint buf batches;
      Wire.put_varint buf messages;
      Wire.put_varint buf internal;
      Wire.put_varint buf dropped;
      Wire.put_varint buf pending
  | Error_r msg ->
      Buffer.add_char buf '\x05';
      put_string buf msg
  | Bye -> Buffer.add_char buf '\x06'
  | Epoch_r { epoch; processes; dimension } ->
      Buffer.add_char buf '\x07';
      Wire.put_varint buf epoch;
      Wire.put_varint buf processes;
      Wire.put_varint buf dimension);
  Buffer.contents buf

let decode_response s =
  try
    if s = "" then fail "empty response"
    else begin
      let tag, off = byte s 0 in
      match tag with
      | 0 ->
          let processes, off = varint s off in
          let dimension, off = varint s off in
          let epoch, off = varint s off in
          finish_at s off "Welcome";
          Ok (Welcome { processes; dimension; epoch })
      | 1 ->
          let count, off = varint s off in
          let off = ref off in
          let outcomes =
            Array.init count (fun _ ->
                let kind, o = byte s !off in
                match kind with
                | 0 ->
                    let v, o = vector s o in
                    off := o;
                    Ingest.Stamped v
                | 1 ->
                    let ticket, o = varint s o in
                    off := o;
                    Ingest.Deferred ticket
                | k -> fail "unknown outcome kind %d" k)
          in
          finish_at s !off "Outcomes";
          Ok (Outcomes outcomes)
      | 2 ->
          let count, off = varint s off in
          let off = ref off in
          let resolved =
            List.init count (fun _ ->
                let ticket, o = varint s !off in
                let proc, o = varint s o in
                let prev, o = vector s o in
                let flag, o = byte s o in
                let succ, o =
                  match flag with
                  | 0 -> (None, o)
                  | 1 ->
                      let v, o = vector s o in
                      (Some v, o)
                  | f -> fail "unknown succ flag %d" f
                in
                let counter, o = varint s o in
                off := o;
                (ticket, { Internal_events.proc; prev; succ; counter }))
          in
          finish_at s !off "Resolved";
          Ok (Resolved resolved)
      | 3 ->
          let ok, off = byte s off in
          let checked, off = varint s off in
          finish_at s off "Verified";
          Ok (Verified { ok = ok <> 0; checked })
      | 4 ->
          let clients, off = varint s off in
          let batches, off = varint s off in
          let messages, off = varint s off in
          let internal, off = varint s off in
          let dropped, off = varint s off in
          let pending, off = varint s off in
          finish_at s off "Stats_r";
          Ok (Stats_r { clients; batches; messages; internal; dropped; pending })
      | 5 ->
          let msg, off = get_string s off in
          finish_at s off "Error_r";
          Ok (Error_r msg)
      | 6 ->
          finish_at s off "Bye";
          Ok Bye
      | 7 ->
          let epoch, off = varint s off in
          let processes, off = varint s off in
          let dimension, off = varint s off in
          finish_at s off "Epoch_r";
          Ok (Epoch_r { epoch; processes; dimension })
      | t -> fail "unknown response tag %d" t
    end
  with Fail e -> Error e

let pp_request ppf = function
  | Hello -> Format.fprintf ppf "Hello"
  | Observe { seq; events } ->
      Format.fprintf ppf "Observe{seq=%d; %d events}" seq (Array.length events)
  | Drain -> Format.fprintf ppf "Drain"
  | Finish -> Format.fprintf ppf "Finish"
  | Verify -> Format.fprintf ppf "Verify"
  | Stats -> Format.fprintf ppf "Stats"
  | Churn delta -> Format.fprintf ppf "Churn{%s}" delta
  | Shutdown -> Format.fprintf ppf "Shutdown"

let pp_response ppf = function
  | Welcome { processes; dimension; epoch } ->
      Format.fprintf ppf "Welcome{n=%d; d=%d; epoch=%d}" processes dimension
        epoch
  | Outcomes o -> Format.fprintf ppf "Outcomes(%d)" (Array.length o)
  | Resolved r -> Format.fprintf ppf "Resolved(%d)" (List.length r)
  | Verified { ok; checked } ->
      Format.fprintf ppf "Verified{ok=%b; checked=%d}" ok checked
  | Stats_r { clients; batches; messages; internal; dropped; pending } ->
      Format.fprintf ppf
        "Stats{clients=%d; batches=%d; msgs=%d; internal=%d; dropped=%d; \
         pending=%d}"
        clients batches messages internal dropped pending
  | Epoch_r { epoch; processes; dimension } ->
      Format.fprintf ppf "Epoch{e=%d; n=%d; d=%d}" epoch processes dimension
  | Error_r e -> Format.fprintf ppf "Error(%s)" e
  | Bye -> Format.fprintf ppf "Bye"

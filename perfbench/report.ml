(* What a run reports: operations attempted and failed, the reasons for
   failures, metrics, and diagnostic lines printed above the result. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* newest first, capped *)
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable lines : string list;  (* newest first *)
}

let create () =
  { attempted = 0; failed = 0; problems = []; metrics = []; lines = [] }

let attempt r = r.attempted <- r.attempted + 1

let fail r fmt =
  Printf.ksprintf
    (fun s ->
      r.failed <- r.failed + 1;
      if List.length r.problems < 16 then r.problems <- s :: r.problems)
    fmt

(* [n] failed operations of one kind (none when [n = 0]). *)
let fail_n r n fmt =
  Printf.ksprintf
    (fun s ->
      if n > 0 then begin
        fail r "%s" s;
        r.failed <- r.failed + n - 1
      end)
    fmt

(* [check r ok fmt] counts one failed operation unless [ok]. *)
let check r ok fmt =
  Printf.ksprintf (fun s -> if not ok then fail r "%s" s) fmt

let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics
let line r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let print r =
  List.iter print_endline (List.rev r.lines);
  List.iter (fun p -> Printf.printf "# failure: %s\n" p) (List.rev r.problems);
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0 && r.attempted > 0)
    (max 1 r.attempted) r.failed
    (String.concat ", " metrics)

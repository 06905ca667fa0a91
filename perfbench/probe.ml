(* Measurement primitives: clocks, /proc readers, order statistics and
   the span accumulators of the traced run. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_mono_ns_byte" "perfbench_mono_ns"
[@@noalloc]

external cpu_ns : unit -> (int[@untagged])
  = "perfbench_cpu_ns_byte" "perfbench_cpu_ns"
[@@noalloc]

external pid_cpu_ns : int -> (int[@untagged])
  = "perfbench_pid_cpu_ns_byte" "perfbench_pid_cpu_ns"
[@@noalloc]

external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(* Peak resident set ("VmHWM") of a process, in MiB. *)
let vm_hwm_mib pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  List.find_map
    (fun l ->
      if starts_with ~prefix:"VmHWM:" l then
        match words l with
        | [ _; kb; _ ] -> Some (float_of_string kb /. 1024.)
        | _ -> None
      else None)
    (read_lines path)
  |> Option.value ~default:Float.nan

(* The CPU the run is pinned to; -1 when unpinned. *)
let pinned = ref (-1)

(* Tick counters of the pinned CPU (of all CPUs when unpinned):
   (steal, total). *)
let cpu_ticks () =
  let prefix = if !pinned < 0 then "cpu " else Printf.sprintf "cpu%d " !pinned in
  match List.find_opt (starts_with ~prefix) (read_lines "/proc/stat") with
  | None -> (0, 0)
  | Some l ->
      let fields = List.tl (words l) |> List.map int_of_string in
      let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 fields)

let online_cpus () =
  List.length (List.filter (starts_with ~prefix:"processor") (read_lines "/proc/cpuinfo"))

let cpu_model () =
  List.find_map
    (fun l ->
      if starts_with ~prefix:"model name" l then
        match String.index_opt l ':' with
        | Some i -> Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None
      else None)
    (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

(* Host-noise bracket around a timed phase: the share of all CPU ticks
   the hypervisor stole meanwhile. *)
type steal = { mutable steal : int; mutable total : int }

let steal_acc () = { steal = 0; total = 0 }

let with_steal acc f =
  let s0, t0 = cpu_ticks () in
  Fun.protect f ~finally:(fun () ->
      let s1, t1 = cpu_ticks () in
      acc.steal <- acc.steal + (s1 - s0);
      acc.total <- acc.total + (t1 - t0))

let steal_share acc =
  if acc.total = 0 then 0. else float_of_int acc.steal /. float_of_int acc.total

(* Order statistics, nearest rank on a sorted copy. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1 |> max 0))

let median xs = quantile xs 0.5

(* The percentile [p] of each block of [block] consecutive samples,
   median over blocks; over all samples when there are under three
   blocks. With [block] = 1000, a block's p99 has ten samples beyond it,
   and a stall spoils the blocks it falls in rather than the figure. *)
let block_quantile xs p ~block =
  let blocks = Array.length xs / block in
  if blocks < 3 then quantile xs p
  else median (Array.init blocks (fun b -> quantile (Array.sub xs (b * block) block) p))

(* A float sample, kept outside the OCaml heap in a buffer reserved up
   front: only the pages written count towards the process's resident
   set, and no growth copies show up in an in-process [peak_mem_mib]. *)
type samples = {
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let samples () = { data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (1 lsl 23); len = 0 }

let push s x =
  if s.len < Bigarray.Array1.dim s.data then begin
    Bigarray.Array1.unsafe_set s.data s.len x;
    s.len <- s.len + 1
  end

let to_array s = Array.init s.len (Bigarray.Array1.get s.data)

(* Host speed. A shared VM runs the same work up to 1.8x slower for
   minutes at a time, with no steal to show for it, and a slow stretch
   can outlast a run. So the meter runs a fixed reference pass after
   every window and scales the window's timings to a host on which the
   pass takes [nominal_reference_ns] of CPU. The pass is the benchmark's
   own code, shaped like a vector-clock merge: element-wise max of two
   pseudo-randomly chosen 8-int vectors into a third, over a ring of
   16,384 vectors (about 1.2 MiB). It calls nothing from the libraries
   under test, so a change to them cannot move it, and it allocates
   nothing, so it leaves the collector's state alone. Of the passes
   tried (integer chains, random reads in 128 KiB or 4 MiB, this merge
   over 2,048 to 65,536 vectors, allocating or not), this one followed
   the session and offline workloads' CPU time per event most closely
   over minutes of host drift on a 2-vCPU VM. *)
let reference_ring = Array.init 16384 (fun _ -> Array.make 8 0)

let reference_pass () =
  let ring = reference_ring and x = ref 7 in
  for i = 0 to 3_999 do
    x := ((!x * 0x2545F491) + i) land 0x3FFFFFFF;
    let a = ring.(!x land 16383) and b = ring.((!x lsr 11) land 16383) and c = ring.(i land 16383) in
    for k = 0 to 7 do
      c.(k) <- max a.(k) b.(k) + if k = i land 7 then 1 else 0
    done
  done

let nominal_reference_ns = 1e6

(* CPU ns of one reference pass. *)
let reference_ns () =
  let c0 = cpu_ns () in
  reference_pass ();
  float_of_int (cpu_ns () - c0)

(* The factor that scales a time measured now to the nominal host:
   below 1 when the host is slow. The median of three passes, for the
   set-ups, which are timed one at a time. *)
let host_factor () =
  let a = reference_ns () and b = reference_ns () and c = reference_ns () in
  nominal_reference_ns /. Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The timed phase of an end-to-end run, cut into windows of [size] ns
   of measured time. Each closed window keeps its events, wall and CPU
   time, the range of its call latencies in [lat], and the reference
   pass run right after it. *)
let window_ns = 200_000_000

type window = {
  w_count : int;  (* events *)
  w_wall : int;
  w_cpu_ns : int;
  lat_from : int;
  lat_to : int;
  reference : float;
}

type meter = {
  size : int;
  lat : samples;  (* ms, every call in order *)
  mutable windows : window list;  (* newest first *)
  mutable first : int;  (* index in [lat] of the open window's first call *)
  mutable w_events : int;
  mutable w_ns : int;
  mutable w_cpu : int;
  mutable events : int;
  mutable ns : int;
}

let meter ?(size = window_ns) () =
  {
    size;
    lat = samples ();
    windows = [];
    first = 0;
    w_events = 0;
    w_ns = 0;
    w_cpu = 0;
    events = 0;
    ns = 0;
  }

(* [cpu] is the call's CPU ns when measured per call; a meter fed 0
   takes the window's CPU at [close] instead. *)
let record m ~events ~ns ~cpu latency_ms =
  Option.iter (push m.lat) latency_ms;
  m.w_events <- m.w_events + events;
  m.w_ns <- m.w_ns + ns;
  m.w_cpu <- m.w_cpu + cpu

let full m = m.w_ns >= m.size

(* Close the open window and run the reference pass. The caller keeps
   the pass out of the next window's wall and CPU time. *)
let close ?cpu m =
  let cpu = Option.value cpu ~default:m.w_cpu in
  if m.w_events > 0 || m.lat.len > m.first then
    m.windows <-
      {
        w_count = m.w_events;
        w_wall = m.w_ns;
        w_cpu_ns = cpu;
        lat_from = m.first;
        lat_to = m.lat.len;
        reference = reference_ns ();
      }
      :: m.windows;
  m.events <- m.events + m.w_events;
  m.ns <- m.ns + m.w_ns;
  m.first <- m.lat.len;
  m.w_events <- 0;
  m.w_ns <- 0;
  m.w_cpu <- 0

(* Per-window figures, each with the window's host factor: nominal over
   the median reference pass of the window and its two neighbours on
   each side, which smooths the noise of a single short pass. A window
   shorter than a quarter of [window_ns] is too short to rate, but its
   latencies are kept. *)
type figures = {
  rates : float array;  (* events/s per rated window *)
  cpus : float array;  (* CPU us per event per rated window *)
  p50s : float array;  (* median latency per rated window, ms *)
  lats : float array;  (* every latency, ms, in order *)
  factors : float array;  (* host factor per window *)
}

let rated_window w = w.w_wall >= window_ns / 4 && w.w_count > 0
let rated m = List.length (List.filter rated_window m.windows)

let figures ~scale m =
  let ws = Array.of_list (List.rev m.windows) in
  let n = Array.length ws in
  let factor i =
    if not scale then 1.
    else
      let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
      nominal_reference_ns /. median (Array.init (hi - lo + 1) (fun k -> ws.(lo + k).reference))
  in
  let factors = Array.init n factor in
  let lats = to_array m.lat in
  Array.iteri
    (fun i w ->
      for j = w.lat_from to w.lat_to - 1 do
        lats.(j) <- lats.(j) *. factors.(i)
      done)
    ws;
  let rated = List.filter (fun i -> rated_window ws.(i)) (List.init n Fun.id) in
  let per f = Array.of_list (List.map f rated) in
  {
    rates = per (fun i -> float_of_int ws.(i).w_count *. 1e9 /. float_of_int ws.(i).w_wall /. factors.(i));
    cpus = per (fun i -> float_of_int ws.(i).w_cpu_ns /. 1e3 /. float_of_int ws.(i).w_count *. factors.(i));
    p50s =
      Array.of_list
        (List.filter_map
           (fun i ->
             let w = ws.(i) in
             if w.lat_to > w.lat_from then Some (median (Array.sub lats w.lat_from (w.lat_to - w.lat_from)))
             else None)
           rated);
    lats;
    factors;
  }

(* The six end-to-end metrics from a finished meter: host-scaled, then
   medians over windows (blocks for p99), so that what contention the
   reference pass does not capture moves a few windows rather than the
   figure. *)
let report_e2e r m ~setups ~peak_mem =
  let f = figures ~scale:true m in
  Report.metric r "events_per_s" "1/s" (median f.rates);
  Report.metric r "call_p50_ms" "ms" (median f.p50s);
  Report.metric r "call_p99_ms" "ms" (block_quantile f.lats 0.99 ~block:1000);
  Report.metric r "cpu_us_per_event" "us" (median f.cpus);
  Report.metric r "setup_s" "s" (median (to_array setups));
  Report.metric r "peak_mem_mib" "MiB" peak_mem

(* Spread of the per-window figures behind the reported medians, the
   host factors, and the medians before scaling. *)
let describe m =
  let q xs = Printf.sprintf "%.4g/%.4g/%.4g" (quantile xs 0.1) (quantile xs 0.5) (quantile xs 0.9) in
  let f = figures ~scale:true m and raw = figures ~scale:false m in
  String.concat "\n"
    [
      Printf.sprintf "# per window p10/p50/p90 (scaled): events/s %s; CPU us/event %s; p50 ms %s"
        (q f.rates) (q f.cpus) (q f.p50s);
      Printf.sprintf "# host factor p10/p50/p90 %s (reference pass nominal %.0f us CPU)"
        (q f.factors) (nominal_reference_ns /. 1e3);
      Printf.sprintf "# unscaled medians: events/s %.6g; p50 ms %.6g; p99 ms %.6g; CPU us/event %.6g"
        (median raw.rates) (median raw.p50s)
        (block_quantile raw.lats 0.99 ~block:1000)
        (median raw.cpus);
    ]

(* Runtime (GC) time, from the runtime's own event ring: the
   nanoseconds spent inside outermost runtime phases, summed as
   [poll] reads them. Started by the traced runs only. *)
let runtime_ns = ref 0
let depth = ref 0
let entered = ref 0L

let callbacks =
  let ts t = Runtime_events.Timestamp.to_int64 t in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t _ ->
      if !depth = 0 then entered := ts t;
      incr depth)
    ~runtime_end:(fun _ t _ ->
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          runtime_ns := !runtime_ns + Int64.to_int (Int64.sub (ts t) !entered)
      end)
    ()

let cursor = ref None

let start_runtime_events () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

(* Spans of the traced run: one accumulator per layer, charged with the
   duration, the runtime (GC) time inside it and the minor words of each
   call into that layer. [ns] excludes the runtime time, which is
   reported as a layer of its own. *)
type span = {
  name : string;
  mutable ns : int;
  mutable gc_ns : int;
  mutable minor_words : float;
}

let span name = { name; ns = 0; gc_ns = 0; minor_words = 0. }

(* The probes' own allocation (boxing of [Gc.minor_words]' result, if
   any), measured once and subtracted from every span. *)
let probe_words =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  w1 -. w0

let time sp f =
  poll ();
  let g0 = !runtime_ns in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  poll ();
  let gc = !runtime_ns - g0 in
  sp.ns <- sp.ns + (t1 - t0 - gc);
  sp.gc_ns <- sp.gc_ns + gc;
  sp.minor_words <- sp.minor_words +. (w1 -. w0 -. probe_words);
  r

(* Self time including the runtime time inside the span. *)
let wall sp = sp.ns + sp.gc_ns
let gc_of sps = List.fold_left (fun a sp -> a + sp.gc_ns) 0 sps
let per x n = if n = 0 then 0. else x /. float_of_int n
let ns_per sp n = per (float_of_int sp.ns) n

(* The traced layers must account for the call they break down. *)
let check_coverage r coverage =
  Report.check r (coverage >= 0.9) "layer coverage %.3f is below 0.9" coverage

(* Major words and the top heap size over a traced run, from
   [Gc.quick_stat] taken before ([gc0]) and after it. *)
let report_heap r gc0 ~events =
  let gc1 = Gc.quick_stat () in
  Report.metric r "gc.major_words_per_event" "words"
    (per (gc1.Gc.major_words -. gc0.Gc.major_words) events);
  Report.metric r "gc.top_heap_mib" "MiB"
    (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

(* The workload contract and the two kinds of run.

   An end-to-end run sets the workload up several times (reporting the
   median set-up time: generating the inputs and whatever the workload
   prepares before its first timed op), then drives it as a closed loop
   with one client for the requested number of seconds, tracing off.
   Latency is the median over every op, throughput the items completed
   per second of program-call time.  A traced run drives a fixed pass
   three times — traced, untraced, traced — and reports per-layer self
   time, calls, allocation and the deterministic counters, which must
   repeat exactly between the two traced passes. *)

module Trace = Tc_obs.Trace

(* One end-to-end run of a workload, after set-up. *)
type run = {
  step : int -> float * bool;
      (** perform op [i]: its wall latency (program calls only; the
          benchmark's own output checks run outside the timed region) and
          whether the op succeeded and its outputs checked out *)
  finish : unit -> bool * float list * string list;
      (** run-level checks after the loop: whether they passed, the
          predicted GFLOPS of the kernels chosen, and notes to print *)
}

(* A counter from one fixed pass; [det] counters must repeat exactly. *)
type counter = { name : string; value : float; det : bool }

type pass = { wall_s : float; ops : int; failed : int; counters : counter list }

type workload = {
  name : string;
  op : string;  (** what one op is *)
  items_per_op : int;  (** throughput items (kernels, requests, E(T)) per op *)
  item : string;
  tail : float;  (** declared tail percentile *)
  rss_ops : int;
      (** peak RSS is read once this many ops are done (or at the end of a
          shorter run), so a faster program is not charged for the extra
          work it fits into the same seconds *)
  setup : seed:int -> run;
  pass : seed:int -> unit -> pass;
      (** prepare a fixed pass; each call of the result runs it from the
          same starting state *)
}

let setups = 3
let setup_share = 0.05

let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (fmt v) unit)
          metrics))

let header (w : workload) ~seed ~mode =
  Printf.printf "perfbench %s  workload=%s seed=%d jobs=%d loop=closed clients=1\n"
    mode w.name seed Gen.jobs;
  Printf.printf "  one op = %s\n" w.op

let e2e (w : workload) ~seed ~seconds =
  header w ~seed ~mode:"end-to-end";
  (* Set up [setups] times before the loop, keeping the last, and again
     during it whenever set-ups have taken less than [setup_share] of the
     loop so far: the reported median then samples the machine across the
     whole run, not just its first moments. *)
  let timed_setup () = Clock.time (fun () -> w.setup ~seed) in
  let setup_times = ref [] in
  let run = ref None in
  for _ = 1 to setups do
    let r, dt = timed_setup () in
    setup_times := dt :: !setup_times;
    run := Some r
  done;
  let run = Option.get !run in
  let extra_s = ref 0.0 in
  let lats = ref [] and n = ref 0 and failed = ref 0 and rss = ref nan in
  let t0 = Clock.now () in
  while Clock.now () -. t0 < seconds do
    (* An op that raises is a failed op without a latency. *)
    let lat, ok = try run.step !n with _ -> (nan, false) in
    lats := lat :: !lats;
    incr n;
    if not ok then incr failed;
    if !n = w.rss_ops then rss := Clock.peak_rss_mb ();
    if !extra_s < setup_share *. (Clock.now () -. t0) then begin
      let _, dt = timed_setup () in
      setup_times := dt :: !setup_times;
      extra_s := !extra_s +. dt
    end
  done;
  let setup_times = Array.of_list !setup_times in
  if Float.is_nan !rss then rss := Clock.peak_rss_mb ();
  let wall = Clock.now () -. t0 in
  let checks_ok, gflops, notes = run.finish () in
  let n = !n and failed = !failed in
  (* An op that raised has no latency; every other op counts, including
     the ones whose output check failed. *)
  let ms =
    List.rev !lats |> List.filter (fun l -> not (Float.is_nan l)) |> List.map (fun l -> l *. 1e3)
    |> Array.of_list
  in
  let busy = Array.fold_left ( +. ) 0.0 ms *. 1e-3 in
  let p50 = Stats.median ms in
  let tail_p = Stats.tail_percentile ~declared:w.tail (Array.length ms) in
  let tail = match tail_p with Some p -> Stats.percentile ms p | None -> nan in
  let throughput = float_of_int (Array.length ms * w.items_per_op) /. busy in
  let setup_s = Stats.median setup_times in
  let rss = !rss in
  let geo = Stats.geomean gflops in
  Printf.printf "  setup_s               %.4f s (median of %d set-ups, %d during the loop; iqr %.1f%%)\n"
    setup_s (Array.length setup_times) (Array.length setup_times - setups)
    (100.0 *. Stats.iqr_share setup_times);
  Printf.printf "  throughput_per_s      %.3f %s/s (%d ops x %d over %.3f s in program calls; %.3f s loop wall)\n"
    throughput w.item (Array.length ms) w.items_per_op busy wall;
  Printf.printf "  latency_p50_ms        %.4f ms (median of %d ops; iqr %.1f%%)\n"
    p50 (Array.length ms) (100.0 *. Stats.iqr_share ms);
  (match tail_p with
  | Some p ->
      Printf.printf "  latency tail          %.4f ms (p%g of all ops, n=%d, %d beyond; printed, not bounded)\n" tail p n
        (int_of_float (float_of_int n *. (1.0 -. (p /. 100.0))))
  | None -> Printf.printf "  latency tail          n/a (only %d ops)\n" n);
  Printf.printf "  peak_rss_mb           %.1f MB (VmHWM after %d ops)\n" rss (min n w.rss_ops);
  Printf.printf "  kernel_gflops_geomean %.2f GFLOPS (simulator-predicted, %d kernels)\n"
    geo (List.length gflops);
  Printf.printf "  failed                %d of %d ops; run-level checks %s\n" failed n
    (if checks_ok then "passed" else "FAILED");
  List.iter (fun l -> Printf.printf "  %s\n" l) notes;
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", throughput, "1/s");
      ("latency_p50_ms", p50, "ms");
      ("peak_rss_mb", rss, "MB");
      ("kernel_gflops_geomean", geo, "GFLOPS");
    ]
  in
  let metrics = List.filter (fun (_, v, _) -> Float.is_finite v) metrics in
  print_endline
    (json_line ~correct:(checks_ok && failed = 0) ~attempted:n ~failed metrics)

(* Program span names whose counts are reported (and must repeat). *)
let program_spans =
  [
    "driver.generate"; "driver.pipeline"; "driver.refine"; "cache.generate";
    "serve.batch"; "serve.parse"; "serve.generate"; "serve.request";
    "serve.predict.cogent"; "serve.predict.pipelined"; "serve.predict.ttgt";
    "serve.execute"; "audit.measure"; "ttgt.plan"; "ttgt.estimate";
  ]

let counter_value counters name =
  match List.find_opt (fun (c : counter) -> c.name = name) counters with
  | Some c -> c.value
  | None -> 0.0

let det_counters p = List.filter (fun (c : counter) -> c.det) p.counters

let per_layer ~overhead (l : Layers.t) (p : pass) =
  let c = counter_value p.counters in
  let s name = Layers.self l name in
  let calls name = float_of_int (Layers.calls l name) in
  let pl k = float_of_int (Layers.pipeline l k) in
  let gens = c "cache.generations" and hits = c "cache.hits" in
  [
    ("expr.parse_s", s "expr.parse", "s");
    ("expr.calls", calls "expr.parse", "count");
    ("driver.search_s", s "driver.search", "s");
    ("driver.refine_s", s "driver.refine", "s");
    ("driver.candidates", pl "enumerated", "count");
    ("driver.kept", pl "kept", "count");
    ("driver.bound_aborted", pl "bound_aborted", "count");
    ("driver.alloc_words", c "driver.alloc_words", "words");
    ("kir.emit_s", s "kir.emit", "s");
    ("kir.bytes", c "kir.bytes", "bytes");
    ("kir.alloc_words", c "kir.alloc_words", "words");
    ("cache.generations", gens, "count");
    ("cache.hits", hits, "count");
    ("cache.hit_ratio", (if gens +. hits > 0.0 then hits /. (gens +. hits) else 0.0), "ratio");
    ("planstore.load_s", s "planstore.load", "s");
    ("planstore.save_s", s "planstore.save", "s");
    ("planstore.rows", c "planstore.rows", "count");
    ("sim.run_s", s "sim.run", "s");
    ("sim.calls", calls "sim.run", "count");
    ("ttgt.run_s", s "ttgt.run", "s");
    ("ttgt.calls", calls "ttgt.run", "count");
    ("serve.dispatch_s", s "serve.dispatch", "s");
    ("serve.generate_s", s "serve.generate", "s");
    ("audit.measure_s", s "audit.measure", "s");
    ("audit.samples", c "audit.samples", "count");
    ("audit.sim_mismatch", c "audit.sim_mismatch", "count");
    ("interp.execute_s", s "interp.execute", "s");
    ("ttgt.execute_s", s "ttgt.execute", "s");
    ("ref.contract_s", s "ref.contract", "s");
    ("interp.alloc_words", c "interp.alloc_words", "words");
    ("trace.overhead_ratio", overhead, "ratio");
    ("trace.spans", float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) l.Layers.spans 0), "count");
  ]
  @ List.map
      (fun name -> ("spans." ^ name, float_of_int (Layers.span_count l name), "count"))
      program_spans

let traced (w : workload) ~seed =
  header w ~seed ~mode:"traced";
  let pass = w.pass ~seed in
  let record () =
    let t = Trace.make ~clock:Clock.now () in
    let p = Trace.with_installed t pass in
    (p, Layers.of_events (Trace.events t))
  in
  (* The untraced pass runs between the traced ones, so neither side of
     the overhead ratio is the cold first pass alone. *)
  let b, lb = record () in
  let a = pass () in
  let c, lc = record () in
  let overhead = ((b.wall_s +. c.wall_s) /. (2.0 *. a.wall_s)) -. 1.0 in
  let metrics = per_layer ~overhead lb b in
  (* Deterministic counters: everything the benchmark counted from
     results, span counts per name and the planner's own tallies must
     repeat exactly between the traced passes; result counters must also
     match the untraced pass. *)
  let span_table l = (Layers.sorted_spans l, Hashtbl.fold (fun k v acc -> (k, v) :: acc) l.Layers.pipeline [] |> List.sort compare) in
  let repeat_ok =
    det_counters a = det_counters b
    && det_counters b = det_counters c
    && span_table lb = span_table lc
  in
  Printf.printf "  fixed pass: %d ops; traced %.4f s, untraced %.4f s, traced %.4f s\n"
    b.ops b.wall_s a.wall_s c.wall_s;
  Printf.printf "  self time by layer (traced pass 1):\n";
  List.iter
    (fun (layer, sec) ->
      Printf.printf "    %-22s %10.4f s  %6d calls\n" layer sec (Layers.calls lb layer))
    (Layers.sorted_self lb);
  Printf.printf "  deterministic counters (%s between passes):\n"
    (if repeat_ok then "repeat exactly" else "DIFFER");
  List.iter (fun (c : counter) -> Printf.printf "    %-22s %s\n" c.name (fmt c.value)) (det_counters b);
  List.iter (fun (k, v) -> Printf.printf "    span %-17s %d\n" k v) (Layers.sorted_spans lb);
  let failed = a.failed + b.failed + c.failed in
  print_endline
    (json_line
       ~correct:(repeat_ok && failed = 0)
       ~attempted:(a.ops + b.ops + c.ops) ~failed metrics)

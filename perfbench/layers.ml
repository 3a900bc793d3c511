(* Per-layer accounting over a recorded span tree.

   A layer's self time is the duration of its spans minus the part their
   child spans cover.  Spans come from two places: the program's own
   instrumentation in Driver, Cache, Serve and Ttgt, which records into
   the trace context the benchmark installs, and the benchmark's
   wrappers around public calls (expr.parse, driver.run, kir.emit,
   planstore.load/save, interp.execute, ttgt.execute, ref.contract). *)

module Trace = Tc_obs.Trace

(* The layer a span's self time is charged to; [None] charges it to the
   enclosing span's layer (helpers that only refine their caller). *)
let layer_of name args =
  match name with
  | "expr.parse" | "serve.parse" -> Some "expr.parse"
  | "driver.pipeline" -> Some "driver.search"
  | "prune.filter" | "ttgt.plan" | "ttgt.estimate" -> None
  | "serve.predict.cogent" | "serve.predict.pipelined" -> Some "sim.run"
  | "serve.execute" -> (
      match List.assoc_opt "strategy" args with
      | Some (Trace.String "ttgt") -> Some "ttgt.run"
      | _ -> Some "sim.run")
  | "serve.predict.ttgt" -> Some "ttgt.run"
  | "serve.request" -> Some "serve.dispatch"
  | n -> Some n

type t = {
  self_s : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  calls : (string, int) Hashtbl.t;  (** layer -> spans charged as roots of it *)
  spans : (string, int) Hashtbl.t;  (** span name -> count *)
  pipeline : (string, int) Hashtbl.t;  (** summed driver.pipeline counters *)
}

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
let bump_int tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let of_events events =
  let t =
    {
      self_s = Hashtbl.create 32;
      calls = Hashtbl.create 32;
      spans = Hashtbl.create 32;
      pipeline = Hashtbl.create 4;
    }
  in
  (* Events are in creation order, a span before its children, so the
     parent of a span at depth d is the latest span at depth d-1 on the
     same track.  [open_] holds, per (track, depth), the layer and the
     accumulated child cover of that latest span. *)
  let open_ = Hashtbl.create 16 in
  let spans =
    List.filter_map
      (function
        | Trace.Span s -> Some (s.name, s.args, s.dur_us *. 1e-6, s.depth, s.track)
        | _ -> None)
      events
  in
  let layers =
    List.map
      (fun (name, args, dur, depth, track) ->
        bump_int t.spans name 1;
        if name = "driver.pipeline" then
          List.iter
            (function
              | k, Trace.Int v -> bump_int t.pipeline k v
              | _ -> ())
            args;
        let parent = Hashtbl.find_opt open_ (track, depth - 1) in
        let layer =
          match (layer_of name args, parent) with
          | Some l, _ -> l
          | None, Some (pl, _) -> pl
          | None, None -> name
        in
        (match parent with
        | Some (pl, cover) ->
            cover := !cover +. dur;
            if pl <> layer then bump_int t.calls layer 1
        | None -> bump_int t.calls layer 1);
        let cover = ref 0.0 in
        Hashtbl.replace open_ (track, depth) (layer, cover);
        (layer, dur, cover))
      spans
  in
  List.iter (fun (layer, dur, cover) -> bump t.self_s layer (dur -. !cover)) layers;
  t

let self t layer = Option.value ~default:0.0 (Hashtbl.find_opt t.self_s layer)
let calls t layer = Option.value ~default:0 (Hashtbl.find_opt t.calls layer)
let span_count t name = Option.value ~default:0 (Hashtbl.find_opt t.spans name)
let pipeline t k = Option.value ~default:0 (Hashtbl.find_opt t.pipeline k)

let sorted_self t =
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.self_s [])

let sorted_spans t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.spans [])

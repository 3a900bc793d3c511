(* compile: the `cogent gen` path, one op = one kernel.  Each request
   line is parsed (Request.of_line, Request.problem), planned
   (Driver.run) and emitted as CUDA (Codegen.emit).  The requests are the
   48 TCCG index structures under the six device/precision mixes, each
   with its own seeded extent scale: 288 distinct contractions, in seeded
   order, cycled for the whole run. *)

module Trace = Tc_obs.Trace

(* Each structure's six scales are stratified over 0.5-2x (one per sixth
   of the log range, assigned to the mixes in seeded order), so every
   seed plans the same spread of sizes. *)
let requests ~seed =
  let st = Gen.rng ~seed ~salt:1 in
  let m = Array.length Gen.mixes in
  let a =
    Array.concat
      (List.map
         (fun e ->
           let bin = Array.init m Fun.id in
           Gen.shuffle st bin;
           Array.mapi
             (fun j mix ->
               Gen.request e (Gen.scaled e (Gen.stratified st ~lo:0.5 ~hi:2.0 ~bins:m bin.(j))) mix)
             Gen.mixes)
         (Array.to_list Gen.structures))
  in
  Gen.shuffle st a;
  a

type allocs = { driver : float ref; emit : float ref }

let allocs () = { driver = ref 0.0; emit = ref 0.0 }

(* One kernel: parse, plan, emit.  [Error] on any typed failure. *)
let compile_one allocs ~id (r : Gen.request) =
  match Trace.with_span "expr.parse" (fun () -> Gen.parse ~id r) with
  | Error m -> Error m
  | Ok (req, problem) -> (
      let ctx = Tc_serve.Request.ctx ~default:Gen.ctx req in
      match
        Clock.counting allocs.driver (fun () ->
            Trace.with_span "driver.run" (fun () -> Cogent.Driver.run ctx problem))
      with
      | Error e -> Error (Cogent.Driver.error_to_string e)
      | Ok d ->
          let src =
            Clock.counting allocs.emit (fun () ->
                Trace.with_span "kir.emit" (fun () ->
                    Cogent.Codegen.emit d.Cogent.Driver.plan))
          in
          Ok (d, src))

let emitted_ok src = String.length src > 0 && Gen.contains src ~sub:"__global__"

let setup ~seed =
  let reqs = requests ~seed in
  let n = Array.length reqs in
  (* Per-item digest of the emitted source and the chosen plan from the
     first pass; every later pass must reproduce it exactly. *)
  let digests = Array.make n "" and plans = Array.make n None and allocs = allocs () in
  let step i =
    let k = i mod n in
    let r, lat = Clock.time (fun () -> compile_one allocs ~id:(i + 1) reqs.(k)) in
    let ok =
      match r with
      | Error _ -> false
      | Ok (d, src) ->
          let dg = Digest.string src in
          if digests.(k) = "" then begin
            digests.(k) <- dg;
            plans.(k) <- Some d.Cogent.Driver.plan
          end;
          emitted_ok src && digests.(k) = dg
    in
    (lat, ok)
  in
  let finish () =
    let chosen = List.filter_map Fun.id (Array.to_list plans) in
    let gflops = List.map Gen.simulate chosen in
    let digest = Digest.to_hex (Digest.string (String.concat "" (Array.to_list digests))) in
    ( true,
      gflops,
      [
        Printf.sprintf "plan digest %s over %d of %d requests (every pass reproduces it)"
          digest (List.length chosen) n;
      ] )
  in
  { Harness.step; finish }

let pass ~seed =
  let reqs = requests ~seed in
  fun () ->
    let allocs = allocs () in
    let failed = ref 0 and bytes = ref 0 and candidates = ref 0 and kept = ref 0
    and aborted = ref 0 and digests = Buffer.create 4096 in
    let (), wall =
      Clock.time (fun () ->
          Array.iteri
            (fun i r ->
              match compile_one allocs ~id:(i + 1) r with
              | Error _ -> incr failed
              | Ok (d, src) ->
                  if not (emitted_ok src) then incr failed;
                  bytes := !bytes + String.length src;
                  candidates := !candidates + d.Cogent.Driver.prune_stats.Cogent.Prune.enumerated;
                  kept := !kept + d.Cogent.Driver.prune_stats.Cogent.Prune.kept;
                  aborted := !aborted + d.Cogent.Driver.bound_aborted;
                  Buffer.add_string digests (Digest.string src))
            reqs)
    in
    let det name v = { Harness.name; value = float_of_int v; det = true } in
    {
      Harness.wall_s = wall;
      ops = Array.length reqs;
      failed = !failed;
      counters =
        [
          det "kir.bytes" !bytes;
          det "driver.enumerated" !candidates;
          det "driver.kept" !kept;
          det "driver.bound_aborted" !aborted;
          det "plan.digest" (Hashtbl.hash (Buffer.contents digests));
          { name = "driver.alloc_words"; value = !(allocs.driver); det = false };
          { name = "kir.alloc_words"; value = !(allocs.emit); det = false };
        ];
    }

let workload =
  {
    Harness.name = "compile";
    op = "one kernel: parse a request line, Driver.run, Codegen.emit (CUDA)";
    items_per_op = 1;
    item = "kernels";
    tail = 99.0;
    rss_ops = 1000;
    setup;
    pass;
  }

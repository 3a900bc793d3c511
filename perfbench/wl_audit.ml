(* audit: audited serving.  One op = one batch of two distinct requests
   at reduced extents (see [volume]), sent to a Serve session opened with
   an accuracy collector.  Every batch re-measures its plans' ground-truth counters
   (Interp.measure), which dominates.  Set-up serves each batch once, so
   plans are cached and the reports of that pass are the reference. *)

module Serve = Tc_serve.Serve
module Audit = Tc_audit.Audit
module Benchrep = Tc_profile.Benchrep
module Trace = Tc_obs.Trace

(* Ground-truth replay cost grows with the iteration space, which spans
   orders of magnitude across the suite at a common scale.  Each request
   is therefore scaled so its iteration space (the product of all its
   extents) is [volume] within a seeded +-10%: bounded, comparable work
   per request.  At 1e6 the throughput of ten runs spread by 0.18-0.29
   (interquartile range over median) on a shared 2-vCPU VM; at 2e5 it
   varied less than half as much as compile's over the same minutes, while
   audit.measure still takes two thirds of the traced self time. *)
let volume = 2.0e5

let scale_for (e : Tc_tccg.Suite.entry) st =
  let v = List.fold_left (fun acc (_, n) -> acc *. float_of_int n) 1.0 e.Tc_tccg.Suite.sizes in
  let target = volume *. Gen.log_uniform st 0.9 1.1 in
  (target /. v) ** (1.0 /. float_of_int (List.length e.Tc_tccg.Suite.sizes))

(* Every structure under every mix (288 requests, each key distinct), in
   seeded order, paired into 144 batches: with one seeded mix per
   structure the median batch cost moved by half between seeds. *)
let batches ~seed =
  let st = Gen.rng ~seed ~salt:3 in
  let reqs =
    Array.concat
      (List.map
         (fun e -> Array.map (fun mix -> Gen.request e (Gen.scaled e (scale_for e st)) mix) Gen.mixes)
         (Array.to_list Gen.structures))
  in
  Gen.shuffle st reqs;
  Array.init (Array.length reqs / 2) (fun i -> [ reqs.(2 * i); reqs.((2 * i) + 1) ])

let parse batch =
  List.mapi
    (fun i (r : Gen.request) ->
      Tc_serve.Request.of_line ~default:Gen.ctx ~id:(i + 1) r.Gen.line
      |> Result.map_error (fun m -> (i + 1, m)))
    batch

(* The samples appended since [before]: one per request, none of them
   disagreeing with the simulator's exact counters. *)
let new_samples collector ~before =
  List.filteri (fun i _ -> i >= before) (Audit.samples collector)

let samples_ok batch samples =
  List.length samples = List.length batch && not (List.exists Audit.sim_mismatch samples)

let open_audited () =
  let collector = Audit.collector () in
  match Serve.open_session ~audit:collector Gen.ctx with
  | Ok s -> (s, collector)
  | Error m -> failwith ("perfbench audit: " ^ m)

let serve_checked (session, collector) batch =
  let before = List.length (Audit.samples collector) in
  let report, lat = Clock.time (fun () -> Serve.run session (parse batch)) in
  let samples = new_samples collector ~before in
  let ok =
    samples_ok batch samples
    && List.for_all (fun (r : Serve.response) -> Result.is_ok r.Serve.result) report.Serve.responses
  in
  (report, lat, samples, ok)

let setup ~seed =
  let b = batches ~seed in
  let s = open_audited () in
  let warm_ok = ref true in
  let reference =
    Array.map
      (fun batch ->
        let report, _, _, ok = serve_checked s batch in
        if not ok then warm_ok := false;
        Serve.report_doc ~wall_s:0.0 report)
      b
  in
  let gflops = ref [] in
  let step i =
    let k = i mod Array.length b in
    let report, lat, _, ok = serve_checked s b.(k) in
    let ok =
      ok && Benchrep.equal_modulo_wall (Serve.report_doc ~wall_s:lat report) reference.(k)
    in
    if i < Array.length b then
      List.iter
        (fun (r : Serve.response) ->
          match r.Serve.result with Ok o -> gflops := o.Serve.gflops :: !gflops | Error _ -> ())
        report.Serve.responses;
    (lat, ok)
  in
  let finish () =
    (!warm_ok, !gflops, [ Printf.sprintf "%d batches cycled; each report equals the set-up pass's" (Array.length b) ])
  in
  { Harness.step; finish }

let cycles = 2

let pass ~seed =
  let b = batches ~seed in
  fun () ->
    let failed = ref 0 and samples = ref 0 and mismatch = ref 0 and gens = ref 0 and hits = ref 0 in
    let (), wall =
      Clock.time (fun () ->
          let s = open_audited () in
          (* The first cycle generates every plan, the later ones serve
             them from the session cache. *)
          for _ = 1 to cycles do
            Array.iter
              (fun batch ->
                let report, _, smp, ok = serve_checked s batch in
                if not ok then incr failed;
                samples := !samples + List.length smp;
                mismatch := !mismatch + List.length (List.filter Audit.sim_mismatch smp);
                gens := !gens + report.Serve.summary.Serve.generations;
                hits := !hits + report.Serve.summary.Serve.hits)
              b
          done)
    in
    let det name v = { Harness.name; value = float_of_int v; det = true } in
    {
      Harness.wall_s = wall;
      ops = cycles * Array.length b;
      failed = !failed;
      counters =
        [
          det "audit.samples" !samples;
          det "audit.sim_mismatch" !mismatch;
          det "cache.generations" !gens;
          det "cache.hits" !hits;
        ];
    }

let workload =
  {
    Harness.name = "audit";
    op = "one audited Serve batch of 2 distinct requests, reduced extents";
    items_per_op = 2;
    item = "audited requests";
    tail = 95.0;
    rss_ops = 100;
    setup;
    pass;
  }

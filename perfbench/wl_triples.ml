(* triples: one op = one CCSD(T) E(T) evaluation of a toy closed-shell
   system, through the COGENT plans (Interp.execute) and then through the
   TTGT pipeline (Ttgt.execute); both energies must match the Reference
   energy that set-up computes.  The seed draws the system's amplitudes. *)

module Triples = Tc_ccsdt.Triples
module Trace = Tc_obs.Trace

let nh = 3
let np = 4
let rel_tol = 1e-9

let agrees ~reference e = Float.abs (e -. reference) <= rel_tol *. Float.abs reference

(* The 18 triples contractions at the toy extents: h-indices (a, b, c)
   get [nh], p-indices (d, e, f) [np], and the contracted g is occupied
   in the SD1 family and virtual in SD2. *)
let problems () =
  let at ~occupied (e : Tc_tccg.Suite.entry) =
    let extent = function
      | 'a' | 'b' | 'c' -> nh
      | 'g' -> if occupied then nh else np
      | _ -> np
    in
    Tc_expr.Problem.of_string_exn e.Tc_tccg.Suite.expr
      ~sizes:(List.map (fun (i, _) -> (i, extent i)) e.Tc_tccg.Suite.sizes)
  in
  List.map (at ~occupied:true) (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd1)
  @ List.map (at ~occupied:false) (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd2)

(* The kernels the COGENT method runs: the default-context plan of each. *)
let plans () =
  List.map
    (fun p ->
      match Cogent.Driver.run Cogent.Ctx.default p with
      | Ok d -> d.Cogent.Driver.plan
      | Error e -> failwith (Cogent.Driver.error_to_string e))
    (problems ())

let setup ~seed =
  let sys = Triples.make ~seed ~nh ~np () in
  let reference = Triples.correction ~method_:Triples.Reference sys in
  let step _ =
    let (ec, et), lat =
      Clock.time (fun () ->
          let ec = Triples.correction ~method_:Triples.Cogent_plans sys in
          (ec, Triples.correction ~method_:Triples.Ttgt_pipeline sys))
    in
    (lat, agrees ~reference ec && agrees ~reference et)
  in
  let finish () =
    ( true,
      List.map Gen.simulate (plans ()),
      [ Printf.sprintf "nh=%d np=%d; Reference E(T) = %.12f, tolerance %g relative" nh np reference rel_tol ] )
  in
  { Harness.step; finish }

let operand ~seed p (t : Tc_expr.Ast.tensor_ref) =
  let sizes =
    Tc_expr.Sizes.of_list
      (List.map (fun i -> (i, Tc_expr.Problem.extent p i)) t.Tc_expr.Ast.indices)
  in
  Tc_tensor.Dense.random ~seed (Tc_tensor.Shape.of_indices ~sizes t.Tc_expr.Ast.indices)

(* The traced pass times the layers of an evaluation itself: for each of
   the 18 contractions, plan it, run the plan (Interp.execute), the TTGT
   pipeline (Ttgt.execute) and the reference (Contract_ref.contract) on
   seeded operands; both results must match the reference.  The sweep is
   repeated [sweeps] times so the pass is long enough to time. *)
let sweeps = 8

let pass ~seed =
  let problems = problems () in
  let operands =
    List.mapi
      (fun k p ->
        let orig = (Tc_expr.Problem.info p).Tc_expr.Classify.original in
        ( operand ~seed:(seed + (2 * k)) p orig.Tc_expr.Ast.lhs,
          operand ~seed:(seed + (2 * k) + 1) p orig.Tc_expr.Ast.rhs ))
      problems
  in
  fun () ->
    let failed = ref 0 and driver_alloc = ref 0.0 and interp_alloc = ref 0.0 in
    let (), wall =
      Clock.time (fun () ->
          for _ = 1 to sweeps do
          List.iter2
            (fun p (lhs, rhs) ->
              match
                Clock.counting driver_alloc (fun () ->
                    Trace.with_span "driver.run" (fun () -> Cogent.Driver.run Cogent.Ctx.default p))
              with
              | Error _ -> incr failed
              | Ok d ->
                  let c =
                    Clock.counting interp_alloc (fun () ->
                        Trace.with_span "interp.execute" (fun () ->
                            Cogent.Interp.execute d.Cogent.Driver.plan ~lhs ~rhs))
                  in
                  let t = Trace.with_span "ttgt.execute" (fun () -> Tc_ttgt.Ttgt.execute p ~lhs ~rhs) in
                  let r =
                    Trace.with_span "ref.contract" (fun () ->
                        Tc_tensor.Contract_ref.contract
                          ~out_indices:(Tc_expr.Problem.info p).Tc_expr.Classify.externals lhs rhs)
                  in
                  let close x = Tc_tensor.Dense.max_abs_diff x r <= 1e-9 in
                  if not (close c && close t) then incr failed)
            problems operands
          done)
    in
    {
      Harness.wall_s = wall;
      ops = sweeps * List.length problems;
      failed = !failed;
      counters =
        [
          { name = "driver.alloc_words"; value = !driver_alloc; det = false };
          { name = "interp.alloc_words"; value = !interp_alloc; det = false };
        ];
    }

let workload =
  {
    Harness.name = "triples";
    op = Printf.sprintf "one CCSD(T) E(T) at nh=%d np=%d, COGENT plans then TTGT" nh np;
    items_per_op = 1;
    item = "E(T)";
    tail = 90.0;
    rss_ops = 50;
    setup;
    pass;
  }

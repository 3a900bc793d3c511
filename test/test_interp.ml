(* The plan interpreter executes exactly the schedule the CUDA generator
   emits; agreement with the reference contraction on adversarial cases
   (non-divisible tiles, swapped operands, grid-mapped externals, empty
   register tiles) validates the code-generation schema itself.  Every
   fixed case is also held bit for bit to the per-element Index.Map data
   path the interpreter replaced ({!Execute_brute}). *)

open Tc_tensor
open Tc_gpu
open Tc_expr
open Cogent

let fail = Alcotest.fail

let b idx tile = { Mapping.index = idx; tile }

let same_bits x y =
  Shape.equal (Dense.shape x) (Dense.shape y)
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       (Dense.unsafe_data x) (Dense.unsafe_data y)

let check_vs_brute what plan ~lhs ~rhs =
  let got = Interp.execute plan ~lhs ~rhs
  and want = Execute_brute.execute plan ~lhs ~rhs in
  if not (same_bits got want) then
    fail
      (Format.asprintf "%s: stride-resolved path differs from the oracle (%.3e)"
         what (Dense.max_abs_diff got want))

let run_case ~expr ~sizes ~mapping =
  let problem = Problem.of_string_exn expr ~sizes in
  let info = Problem.info problem in
  let orig = info.Classify.original in
  let shape_of indices = Shape.of_indices ~sizes:(Problem.sizes problem) indices in
  let lhs = Dense.random ~seed:11 (shape_of orig.Ast.lhs.Ast.indices) in
  let rhs = Dense.random ~seed:12 (shape_of orig.Ast.rhs.Ast.indices) in
  let expected =
    Contract_ref.contract ~out_indices:info.Classify.externals lhs rhs
  in
  let plan =
    Plan.make ~problem ~mapping ~arch:Arch.v100 ~precision:Precision.FP64
  in
  let got = Interp.execute plan ~lhs ~rhs in
  if not (Dense.equal_approx ~tol:1e-9 expected got) then
    fail
      (Format.asprintf "interp mismatch (%.3e) for %s under %a"
         (Dense.max_abs_diff expected got)
         expr Mapping.pp mapping);
  check_vs_brute expr plan ~lhs ~rhs

let test_gemm_exact_tiles () =
  run_case ~expr:"ab-ac-cb" ~sizes:[ ('a', 16); ('b', 16); ('c', 8) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 8 ];
        regx = [];
        tby = [ b 'b' 8 ];
        regy = [];
        tbk = [ b 'c' 4 ];
        grid = [];
      }

let test_gemm_non_divisible () =
  (* 13, 9, 7 are divisible by none of the tiles *)
  run_case ~expr:"ab-ac-cb" ~sizes:[ ('a', 13); ('b', 9); ('c', 7) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'c' 4 ];
        grid = [];
      }

let test_eq1_with_register_tiles () =
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [ b 'b' 2 ];
        tby = [ b 'd' 4 ];
        regy = [ b 'c' 2 ];
        tbk = [ b 'e' 2; b 'f' 2 ];
        grid = [];
      }

let test_grid_mapped_externals () =
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'd' 4 ];
        regy = [];
        tbk = [ b 'e' 3; b 'f' 1 ];
        grid = [ 'b'; 'c' ];
      }

let test_swapped_operands () =
  (* out FVI in the rhs: interp must resolve the canonical swap *)
  run_case ~expr:"abcd-be-aecd"
    ~sizes:[ ('a', 5); ('b', 4); ('c', 3); ('d', 4); ('e', 6) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [ b 'c' 2 ];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'e' 4 ];
        grid = [ 'd' ];
      }

let test_multi_index_thread_dims () =
  (* two indices packed on TBx exercises the mixed-radix decomposition *)
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 2); ('b', 3); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 2; b 'b' 2 ];
        regx = [];
        tby = [ b 'd' 4 ];
        regy = [ b 'c' 2 ];
        tbk = [ b 'e' 2; b 'f' 2 ];
        grid = [];
      }

let test_no_internal_outer_product () =
  (* pure outer product: no contraction index at all *)
  run_case ~expr:"ab-a-b" ~sizes:[ ('a', 9); ('b', 6) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [];
        grid = [];
      }

let test_internal_fvi_inputs () =
  (* both inputs have an internal FVI (hardest coalescing case) *)
  run_case ~expr:"ab-cad-dcb"
    ~sizes:[ ('a', 5); ('b', 6); ('c', 4); ('d', 3) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'c' 2; b 'd' 3 ];
        grid = [];
      }

let test_tile_bigger_than_remainder () =
  (* extent 5 with tile 4: the second block is 1 wide *)
  run_case ~expr:"ab-ac-cb" ~sizes:[ ('a', 5); ('b', 5); ('c', 5) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'c' 4 ];
        grid = [];
      }

let test_two_index_tbk_remainders () =
  (* e = 5 and f = 3 under tile 2: a remainder chunk on both TB_k axes *)
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 5); ('f', 3) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [ b 'b' 2 ];
        tby = [ b 'd' 4 ];
        regy = [ b 'c' 3 ];
        tbk = [ b 'e' 2; b 'f' 2 ];
        grid = [];
      }

let test_shape_mismatch_rejected () =
  let problem =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 4); ('b', 4); ('c', 4) ]
  in
  let plan =
    Plan.make ~problem
      ~mapping:
        {
          Mapping.tbx = [ b 'a' 4 ];
          regx = [];
          tby = [ b 'b' 4 ];
          regy = [];
          tbk = [ b 'c' 4 ];
          grid = [];
        }
      ~arch:Arch.v100 ~precision:Precision.FP64
  in
  let bad = Dense.create (Shape.make [ ('a', 4); ('c', 5) ]) in
  let rhs = Dense.create (Shape.make [ ('c', 4); ('b', 4) ]) in
  match Interp.execute plan ~lhs:bad ~rhs with
  | exception Invalid_argument _ -> ()
  | _ -> fail "shape mismatch accepted"

let test_inf_times_zero_propagates () =
  (* The emitted kernel multiplies unconditionally, so an inf meeting a
     zero yields NaN exactly where the reference has one: A[a=0,c=0] = inf
     against a zero row B[c=0,b] poisons the whole output row a = 0. *)
  let sizes = [ ('a', 4); ('b', 4); ('c', 4) ] in
  let problem = Problem.of_string_exn "ab-ac-cb" ~sizes in
  let lhs = Dense.random ~seed:11 (Shape.make [ ('a', 4); ('c', 4) ]) in
  let rhs = Dense.random ~seed:12 (Shape.make [ ('c', 4); ('b', 4) ]) in
  Dense.set lhs [| 0; 0 |] Float.infinity;
  for j = 0 to 3 do
    Dense.set rhs [| 0; j |] 0.0
  done;
  let expected = Contract_ref.contract ~out_indices:[ 'a'; 'b' ] lhs rhs in
  if not (Float.is_nan (Dense.get expected [| 0; 0 |])) then
    fail "reference does not produce NaN";
  List.iter
    (fun t ->
      let mapping =
        {
          Mapping.tbx = [ b 'a' t ];
          regx = [];
          tby = [ b 'b' t ];
          regy = [];
          tbk = [ b 'c' t ];
          grid = [];
        }
      in
      let plan =
        Plan.make ~problem ~mapping ~arch:Arch.v100 ~precision:Precision.FP64
      in
      let got = Interp.execute plan ~lhs ~rhs in
      Dense.iteri expected (fun pos e ->
          let g = Dense.get got pos in
          if Float.is_nan e <> Float.is_nan g then
            fail
              (Printf.sprintf "tile %d: C[%d,%d] = %g, reference %g" t pos.(0)
                 pos.(1) g e);
          if (not (Float.is_nan e)) && Float.abs (e -. g) > 1e-9 then
            fail (Printf.sprintf "tile %d: finite entry differs" t)))
    [ 4; 3 ]

let operands problem =
  let orig = (Problem.info problem).Classify.original in
  let shape_of indices =
    Shape.of_indices ~sizes:(Problem.sizes problem) indices
  in
  ( Dense.random ~seed:21 (shape_of orig.Ast.lhs.Ast.indices),
    Dense.random ~seed:22 (shape_of orig.Ast.rhs.Ast.indices) )

let test_brute_extent_below_tile () =
  (* Mapping.validate caps tiles at the extent, so widen the tiles of a
     valid plan afterwards: one chunk per axis, each a strict prefix. *)
  let sizes = [ ('a', 5); ('b', 3); ('c', 6) ] in
  let problem = Problem.of_string_exn "ab-ac-cb" ~sizes in
  let gemm ta tb tc =
    {
      Mapping.tbx = [ b 'a' ta ];
      regx = [];
      tby = [ b 'b' tb ];
      regy = [];
      tbk = [ b 'c' tc ];
      grid = [];
    }
  in
  let plan =
    Plan.make ~problem ~mapping:(gemm 4 2 4) ~arch:Arch.v100
      ~precision:Precision.FP64
  in
  let plan = { plan with Plan.mapping = gemm 8 4 8 } in
  let lhs, rhs = operands problem in
  check_vs_brute "extent < tile" plan ~lhs ~rhs

let test_brute_triples () =
  (* The 18 CCSD(T) triples kernels at nh = 3, np = 4 under the plans the
     E(T) evaluation runs: h-indices a, b, c are occupied, the contracted
     g is occupied in SD1 and virtual in SD2. *)
  let nh = 3 and np = 4 in
  let at ~occupied (e : Tc_tccg.Suite.entry) =
    let extent = function
      | 'a' | 'b' | 'c' -> nh
      | 'g' -> if occupied then nh else np
      | _ -> np
    in
    ( e.Tc_tccg.Suite.name,
      Problem.of_string_exn e.Tc_tccg.Suite.expr
        ~sizes:(List.map (fun (i, _) -> (i, extent i)) e.Tc_tccg.Suite.sizes)
    )
  in
  let kernels =
    List.map (at ~occupied:true)
      (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd1)
    @ List.map (at ~occupied:false)
        (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd2)
  in
  Alcotest.(check int) "18 kernels" 18 (List.length kernels);
  List.iter
    (fun (name, problem) ->
      let lhs, rhs = operands problem in
      check_vs_brute name (Driver.best_plan problem) ~lhs ~rhs)
    kernels

let interp_matches_brute =
  QCheck.Test.make ~count:60 ~name:"interp == Index.Map oracle (bit for bit)"
    Gen.case_arbitrary (fun c ->
      let problem = c.Gen.problem in
      List.iter
        (fun mapping ->
          check_vs_brute
            (Format.asprintf "%a under %a" Problem.pp problem Mapping.pp
               mapping)
            (Plan.make ~problem ~mapping ~arch:Arch.v100
               ~precision:Precision.FP64)
            ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs)
        (Gen.sample_mappings problem);
      true)

(* The strongest property in the repository: for random contractions, the
   plan COGENT itself selects executes to exactly the reference result. *)
let interp_matches_reference_on_best_plan =
  QCheck.Test.make ~count:120 ~name:"interp(best plan) == reference"
    Gen.case_arbitrary (fun c ->
      let plan = Driver.best_plan c.Gen.problem in
      let got = Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs in
      Dense.equal_approx ~tol:1e-9 (Gen.reference c) got)

(* And not only for the selected plan: any surviving configuration must
   compute the same function. *)
let interp_matches_reference_on_ranked_plans =
  QCheck.Test.make ~count:25 ~name:"interp(any ranked plan) == reference"
    Gen.case_arbitrary (fun c ->
      let r = Driver.generate_exn c.Gen.problem in
      let expected = Gen.reference c in
      let plans = Driver.top_plans ~n:4 r in
      List.for_all
        (fun plan ->
          Dense.equal_approx ~tol:1e-9 expected
            (Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs))
        plans)

(* the precision choice affects resources and codegen, never the schedule's
   host semantics *)
let interp_precision_independent =
  QCheck.Test.make ~count:40 ~name:"interp agrees across precisions"
    Gen.case_arbitrary (fun c ->
      let mapping = (Driver.best_plan c.Gen.problem).Plan.mapping in
      let run precision =
        let plan =
          Plan.make ~problem:c.Gen.problem ~mapping ~arch:Arch.v100 ~precision
        in
        Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs
      in
      Dense.equal_approx ~tol:0.0 (run Precision.FP64) (run Precision.FP32))

let () =
  Alcotest.run "interp"
    [
      ( "fixed cases",
        [
          Alcotest.test_case "gemm, exact tiles" `Quick test_gemm_exact_tiles;
          Alcotest.test_case "gemm, non-divisible tiles" `Quick
            test_gemm_non_divisible;
          Alcotest.test_case "Eq. 1 with register tiles" `Quick
            test_eq1_with_register_tiles;
          Alcotest.test_case "grid-mapped externals" `Quick
            test_grid_mapped_externals;
          Alcotest.test_case "swapped operands" `Quick test_swapped_operands;
          Alcotest.test_case "multi-index thread dims" `Quick
            test_multi_index_thread_dims;
          Alcotest.test_case "outer product (no internals)" `Quick
            test_no_internal_outer_product;
          Alcotest.test_case "internal FVIs on both inputs" `Quick
            test_internal_fvi_inputs;
          Alcotest.test_case "boundary remainder tiles" `Quick
            test_tile_bigger_than_remainder;
          Alcotest.test_case "two-index TB_k remainders" `Quick
            test_two_index_tbk_remainders;
          Alcotest.test_case "shape mismatch rejected" `Quick
            test_shape_mismatch_rejected;
          Alcotest.test_case "inf x 0 propagates as NaN" `Quick
            test_inf_times_zero_propagates;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "extent < tile" `Quick
            test_brute_extent_below_tile;
          Alcotest.test_case "18 triples kernels" `Quick test_brute_triples;
          Gen.to_alcotest interp_matches_brute;
        ] );
      ( "properties",
        [
          Gen.to_alcotest interp_matches_reference_on_best_plan;
          Gen.to_alcotest interp_matches_reference_on_ranked_plans;
          Gen.to_alcotest interp_precision_independent;
        ] );
    ]

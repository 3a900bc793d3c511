(* perfbench: the repository's benchmark.

     dune exec --root . ./perfbench/main.exe -- --workload compile --seed 1 --seconds 30 --trace 0

   Run from the repository root; dune builds the benchmark from source
   first (its output goes to standard error).

   Workloads: compile, serve, audit, triples (see README.md).  With
   --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of standard output is one JSON object. *)

let workloads =
  [ Wl_compile.workload; Wl_serve.workload; Wl_audit.workload; Wl_triples.workload ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (compile|serve|audit|triples) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.Harness.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  Tc_par.Pool.set_default_jobs Gen.jobs;
  at_exit (fun () -> Gen.remove_tree Gen.workdir);
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some 0 when seconds > 0.0 -> Harness.e2e w ~seed ~seconds
  | Some seed, Some _, Some 1 -> Harness.traced w ~seed
  | _ -> usage ()

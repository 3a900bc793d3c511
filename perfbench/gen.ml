(* Seeded input generation.  Everything the program receives is made
   here from the run's seed: JSONL request lines for the compile, serve
   and audit workloads, toy-system sizes for triples. *)

open Tc_gpu

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* Device/precision mix: the classic FP64/FP32 devices, plus the A100/H100
   tensor-core precisions so the schema race and the MMA path run. *)
let mixes =
  [|
    (Arch.p100, Precision.FP64);
    (Arch.v100, Precision.FP64);
    (Arch.v100, Precision.FP32);
    (Arch.a100, Precision.FP32);
    (Arch.a100, Precision.FP16);
    (Arch.h100, Precision.TF32);
  |]

let simulate plan = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.gflops

(* The context the CLI builds: simulator-measured refinement, one worker
   (the pool spawns no domain at jobs=1). *)
let jobs = 1
let ctx = Cogent.Ctx.make ~measure:simulate ~jobs ()

let structures = Array.of_list Tc_tccg.Suite.all

(* A request: the JSONL line the program parses, plus what the generator
   knows about it. *)
type request = {
  line : string;
  entry : Tc_tccg.Suite.entry;
  sizes : (char * int) list;
  arch : Arch.t;
  precision : Precision.t;
}

let scaled (e : Tc_tccg.Suite.entry) scale =
  List.map
    (fun (i, n) -> (i, max 1 (int_of_float (Float.round (float_of_int n *. scale)))))
    e.Tc_tccg.Suite.sizes

let request (e : Tc_tccg.Suite.entry) sizes (arch, precision) =
  let line =
    Printf.sprintf {|{"expr":"%s","sizes":"%s","arch":"%s","precision":"%s"}|}
      e.Tc_tccg.Suite.expr
      (String.concat ","
         (List.map (fun (i, n) -> Printf.sprintf "%c=%d" i n) sizes))
      (String.lowercase_ascii arch.Arch.name)
      (Precision.to_string precision)
  in
  { line; entry = e; sizes; arch; precision }

(* Scale drawn log-uniformly from [lo, hi]. *)
let log_uniform st lo hi =
  exp (log lo +. Random.State.float st (log hi -. log lo))

(* A scale in the [b]-th of [bins] equal parts of the log range [lo, hi]:
   stratified draws keep the spread of problem sizes the same across
   seeds. *)
let stratified st ~lo ~hi ~bins b =
  let step = (hi /. lo) ** (1.0 /. float_of_int bins) in
  let l = lo *. (step ** float_of_int b) in
  log_uniform st l (l *. step)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let parse ~id r =
  Result.bind (Tc_serve.Request.of_line ~default:ctx ~id r.line) (fun req ->
      Result.map (fun p -> (req, p)) (Tc_serve.Request.problem req))

(* The plan-cache key a request resolves to, through the public API. *)
let key r =
  match parse ~id:1 r with
  | Ok (req, p) ->
      Cogent.Cache.key (Tc_serve.Request.ctx ~default:ctx req) p
  | Error m -> failwith ("perfbench: generated a malformed request: " ^ m)

let contains s ~sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Scratch space in the working directory (the plan store of the serve
   workload); removed when the benchmark exits. *)
let workdir = ".perfbench_work"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

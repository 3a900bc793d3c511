(* serve: one op = one JSONL batch sent to a long-lived Serve session
   opened on a plan store that set-up pre-filled.  A batch has as many
   lines as the repository's example request stream
   (examples/serve_requests.jsonl, 54 lines) and, like it, one malformed
   line, which must be rejected with [Bad_request].  The rest of the
   traffic is synthetic: the repository records no served traffic to
   derive it from, so each share below is an assumption, named with what
   it drives.

   - [novel_per_batch] novel keys (3 of 54, a 6% miss share) miss the
     store and are generated: this share sets how much planner work
     (serve.generate and the driver spans) serve does, and how many rows
     close_session writes back.
   - The other lines repeat 48 stored keys, one per TCCG structure, with
     Zipf 1/(rank+1) popularity: this sets the cache hit count and which
     keys' dispatch race dominates.  The catalogue is the same for every
     seed (see [stream]).
   - [sibling_share] of the stored-key requests are size-class siblings
     (other extents, same plan-cache key), the requests whose own extents
     differ from their plan's, which the dispatch regret is computed for.

   The session lives for a cycle of [cycle_batches] batches, then closes
   (flushing its novel plans to the store), the store is restored to its
   pre-filled rows and the session reopens, so every cycle replays the
   same batches against the same state and each batch's novel keys miss
   again.  The close and the reopen are timed as part of the next cycle's
   first op; the restore is the benchmark's and is not. *)

module Serve = Tc_serve.Serve
module Benchrep = Tc_profile.Benchrep
module Trace = Tc_obs.Trace

let batch_size = 54
let malformed_per_batch = 1
let novel_per_batch = 3
let sibling_share = 0.25
let cycle_batches = 15
let novel_bands = 5
(* Each set-up and each traced pass gets its own store directory, so a
   repeated set-up never touches the store of a live session. *)
let stores = ref 0

let fresh_store () =
  incr stores;
  Filename.concat Gen.workdir (Printf.sprintf "serve-store-%d" !stores)

type kind = Stored | Novel | Malformed

type stream = {
  st : Random.State.t;
  hot : Gen.request array;
  sibling : Gen.request option array;
  cdf : float array;  (** Zipf popularity over [hot], cumulative *)
  used : (string, unit) Hashtbl.t;  (** keys handed out so far *)
  order : Tc_tccg.Suite.entry array;  (** structures of the novel keys, cycled *)
  mutable novel : int;  (** novel keys handed out so far *)
  mutable next_id : int;
}

(* Perturb extents one index at a time, keeping the plan-cache key. *)
let sibling_of (r : Gen.request) =
  let key = Gen.key r in
  let sizes =
    List.fold_left
      (fun sizes (i, n) ->
        let try_n n' =
          if n' < 1 then None
          else
            let s = List.map (fun (j, m) -> if j = i then (j, n') else (j, m)) sizes in
            if Gen.key (Gen.request r.Gen.entry s (r.arch, r.precision)) = key then Some s
            else None
        in
        match try_n (n + 1) with
        | Some s -> s
        | None -> Option.value ~default:sizes (try_n (n - 1)))
      r.Gen.sizes r.Gen.sizes
  in
  if sizes = r.Gen.sizes then None
  else Some (Gen.request r.Gen.entry sizes (r.arch, r.precision))

(* The stored keys — one per structure, with its extents (stratified over
   0.5-2x), device mix and popularity rank — are the same for every seed
   (drawn from a constant), so runs with different seeds serve the same
   catalogue; the seed draws the traffic: every request's Zipf draw, which
   requests are siblings, where the novel keys go and what they are.
   Zipf-skewed traffic is dominated by its top dozen keys, so a seeded
   catalogue moved the mean per-request cost by a third between seeds. *)
let stream ~seed =
  let catalogue = Gen.rng ~seed:0 ~salt:2 in
  let n = Array.length Gen.structures in
  let rank = Array.init n Fun.id and bin = Array.init n Fun.id in
  Gen.shuffle catalogue rank;
  Gen.shuffle catalogue bin;
  let hot =
    Array.mapi
      (fun i e ->
        Gen.request e
          (Gen.scaled e (Gen.stratified catalogue ~lo:0.5 ~hi:2.0 ~bins:n bin.(i)))
          Gen.mixes.(rank.(i) mod Array.length Gen.mixes))
      Gen.structures
  in
  let weights = Array.map (fun r -> 1.0 /. float_of_int (r + 1)) rank in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let cdf = Array.map (fun w -> acc := !acc +. (w /. total); !acc) weights in
  let used = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace used (Gen.key r) ()) hot;
  let st = Gen.rng ~seed ~salt:2 in
  let order = Array.copy Gen.structures in
  Gen.shuffle st order;
  { st; hot; sibling = Array.map sibling_of hot; cdf; used; order; novel = 0; next_id = 1 }

let pick_stored s =
  let u = Random.State.float s.st 1.0 in
  let rec find i = if i >= Array.length s.cdf - 1 || s.cdf.(i) >= u then i else find (i + 1) in
  let h = find 0 in
  match s.sibling.(h) with
  | Some sib when Random.State.float s.st 1.0 < sibling_share -> sib
  | _ -> s.hot.(h)

(* A key no earlier request used.  Novel keys walk the structures in a
   seeded order with the mixes and [novel_bands] scale bands of 0.25-4x
   in turn, so
   a cycle's misses cover the suite evenly; the scale is redrawn within
   its band until the size class is fresh. *)
let pick_novel s =
  let j = s.novel in
  s.novel <- j + 1;
  let n = Array.length s.order in
  let e = s.order.(j mod n) in
  let turn = j + (j / n) in
  let mix = Gen.mixes.(turn mod Array.length Gen.mixes) in
  (* A band can hold no fresh size class (say, it only reproduces the
     stored key's); then the whole range is used. *)
  let rec draw attempts =
    if attempts = 0 then failwith "perfbench serve: no fresh novel key";
    let scale =
      if attempts > 500 then Gen.stratified s.st ~lo:0.25 ~hi:4.0 ~bins:novel_bands (turn mod novel_bands)
      else Gen.log_uniform s.st 0.25 4.0
    in
    let r = Gen.request e (Gen.scaled e scale) mix in
    let k = Gen.key r in
    if Hashtbl.mem s.used k then draw (attempts - 1)
    else begin
      Hashtbl.replace s.used k ();
      r
    end
  in
  draw 1000

(* A line of the example stream's malformed form: a seeded structure
   whose sizes do not parse ("a=oops"). *)
let pick_malformed s =
  let e = Gen.structures.(Random.State.int s.st (Array.length Gen.structures)) in
  let r = s.hot.(0) in
  let first = fst (List.hd e.Tc_tccg.Suite.sizes) in
  { r with Gen.line = Printf.sprintf {|{"expr":"%s","sizes":"%c=oops"}|} e.Tc_tccg.Suite.expr first; entry = e }

(* The next batch: (id, request, kind) in request order.  The malformed
   and novel lines go to distinct seeded positions. *)
let next_batch s =
  let special = Hashtbl.create 8 and drawn = ref [] in
  while Hashtbl.length special < malformed_per_batch + novel_per_batch do
    let pos = Random.State.int s.st batch_size in
    if not (Hashtbl.mem special pos) then begin
      Hashtbl.replace special pos (if List.length !drawn < malformed_per_batch then Malformed else Novel);
      drawn := pos :: !drawn
    end
  done;
  List.init batch_size (fun pos ->
      let kind = Option.value ~default:Stored (Hashtbl.find_opt special pos) in
      let r =
        match kind with
        | Stored -> pick_stored s
        | Novel -> pick_novel s
        | Malformed -> pick_malformed s
      in
      let id = s.next_id in
      s.next_id <- id + 1;
      (id, r, kind))

let parse_batch batch =
  List.map
    (fun (id, (r : Gen.request), _) ->
      Tc_serve.Request.of_line ~default:Gen.ctx ~id r.Gen.line
      |> Result.map_error (fun m -> (id, m)))
    batch

let open_store dir =
  match Trace.with_span "planstore.load" (fun () -> Serve.open_session ~store:dir Gen.ctx) with
  | Ok s -> s
  | Error m -> failwith ("perfbench serve: " ^ m)

(* Pre-fill the store: serve each stored key's first requester on a
   store-backed session and flush it.  Returns the stored rows. *)
let prefill (s : stream) dir =
  if not (Sys.file_exists Gen.workdir) then Sys.mkdir Gen.workdir 0o755;
  let session = open_store dir in
  let report =
    Serve.run session
      (parse_batch (Array.to_list (Array.mapi (fun i r -> (i + 1, r, Stored)) s.hot)))
  in
  if report.Serve.summary.Serve.errors > 0 then failwith "perfbench serve: prefill failed";
  Serve.close_session session;
  match Tc_serve.Planstore.load ~dir with
  | Ok rows -> rows
  | Error m -> failwith ("perfbench serve: " ^ m)

(* Per-batch checks: every well-formed request Ok, every malformed one
   rejected as [Bad_request], and exactly the novel keys first seen in
   this batch were generated (stored keys generate nothing). *)
let batch_ok seen batch (report : Serve.report) =
  let fresh =
    List.fold_left
      (fun n (_, r, kind) ->
        match kind with
        | Novel when not (Hashtbl.mem seen r.Gen.line) ->
            Hashtbl.replace seen r.Gen.line ();
            n + 1
        | _ -> n)
      0 batch
  in
  List.length batch = List.length report.Serve.responses
  && List.for_all2
       (fun (_, _, kind) (r : Serve.response) ->
         match (kind, r.Serve.result) with
         | Malformed, Error (Serve.Bad_request _) -> true
         | Malformed, _ -> false
         | (Stored | Novel), result -> Result.is_ok result)
       batch report.Serve.responses
  && report.Serve.summary.Serve.generations = fresh

(* Reports are checked entry by entry: every request line must get the
   same report entry (modulo its id) each time it is served, and after
   the loop a fresh session without a store — the cold reference — serves
   the stored keys' first requesters and then every distinct line the
   run sent, in first-appearance order; the run's entries must equal the
   reference's under [Benchrep.equal_modulo_wall]. *)
type entries = {
  order : Gen.request list ref;  (** distinct lines, latest first *)
  first : (string, Benchrep.entry) Hashtbl.t;  (** line -> entry, id blanked *)
  gflops : (string, float) Hashtbl.t;  (** plan key -> dispatched GFLOPS *)
}

let entries () = { order = ref []; first = Hashtbl.create 1024; gflops = Hashtbl.create 1024 }

let anonymous (e : Benchrep.entry) = { e with Benchrep.name = "" }

let record_batch t batch (report : Serve.report) =
  let doc = Serve.report_doc ~wall_s:0.0 report in
  List.iter (fun (r : Serve.response) ->
      match r.Serve.result with
      | Ok o -> Hashtbl.replace t.gflops o.Serve.key o.Serve.gflops
      | Error _ -> ())
    report.Serve.responses;
  List.length batch = List.length doc.Benchrep.entries
  && List.for_all2
    (fun (_, (r : Gen.request), _) e ->
      match Hashtbl.find_opt t.first r.Gen.line with
      | Some seen -> seen = anonymous e
      | None ->
          Hashtbl.replace t.first r.Gen.line (anonymous e);
          t.order := r :: !(t.order);
          true)
    batch doc.Benchrep.entries

let matches_cold_reference (s : stream) t =
  let run_lines = List.rev !(t.order) in
  let hot_lines = Array.to_list s.hot in
  let session = match Serve.open_session Gen.ctx with Ok s -> s | Error m -> failwith m in
  let report =
    Serve.run session
      (parse_batch (List.mapi (fun i r -> (i + 1, r, Stored)) (hot_lines @ run_lines)))
  in
  let reference = Serve.report_doc ~wall_s:0.0 report in
  let skip = List.length hot_lines in
  let reference =
    {
      reference with
      Benchrep.entries =
        List.filteri (fun i _ -> i >= skip) (List.map anonymous reference.Benchrep.entries);
    }
  in
  let run =
    {
      reference with
      Benchrep.entries =
        List.map (fun (r : Gen.request) -> Hashtbl.find t.first r.Gen.line) run_lines;
    }
  in
  Benchrep.equal_modulo_wall run reference

let store_rows dir =
  match Tc_serve.Planstore.load ~dir with Ok rows -> List.length rows | Error _ -> -1

let cycle ~seed dir =
  let s = stream ~seed in
  let rows = prefill s dir in
  (s, rows, Array.init cycle_batches (fun _ -> next_batch s))

let setup ~seed =
  let dir = fresh_store () in
  let s, rows, batches = cycle ~seed dir in
  let session = ref (open_store dir) in
  let seen = Hashtbl.create 256 and t = entries () and generations = ref 0 in
  let restarts = ref [] in
  let step i =
    let k = i mod cycle_batches in
    let restart_s =
      if k = 0 && i > 0 then begin
        let (), close_s = Clock.time (fun () -> Serve.close_session !session) in
        Tc_serve.Planstore.save ~dir rows;
        let reopened, open_s = Clock.time (fun () -> open_store dir) in
        session := reopened;
        restarts := (close_s +. open_s) :: !restarts;
        Hashtbl.reset seen;
        generations := 0;
        close_s +. open_s
      end
      else 0.0
    in
    let batch = batches.(k) in
    let report, lat = Clock.time (fun () -> Serve.run !session (parse_batch batch)) in
    let ok = batch_ok seen batch report && record_batch t batch report in
    generations := !generations + report.Serve.summary.Serve.generations;
    (restart_s +. lat, ok)
  in
  let finish () =
    let cold_ok = matches_cold_reference s t in
    Serve.close_session !session;
    let rows_after = store_rows dir in
    let stored = List.length rows in
    ( cold_ok && rows_after = stored + !generations,
      Hashtbl.fold (fun _ g acc -> g :: acc) t.gflops [],
      [
        Printf.sprintf "reports equal the cold reference: %b; store rows %d = %d stored + %d generated"
          cold_ok rows_after stored !generations;
        Printf.sprintf "%d session restarts, close + reopen (timed in the cycle's first op) median %.4f s"
          (List.length !restarts)
          (if !restarts = [] then 0.0 else Stats.median (Array.of_list !restarts));
      ] )
  in
  { Harness.step; finish }

(* The fixed pass: one session lifetime — open the pre-filled store, serve
   one cycle, close. *)
let pass ~seed =
  let dir = fresh_store () in
  let _, rows, batches = cycle ~seed dir in
  fun () ->
    Tc_serve.Planstore.save ~dir rows;
    let seen = Hashtbl.create 256 in
    let failed = ref 0 and gens = ref 0 and hits = ref 0 in
    let (), wall =
      Clock.time (fun () ->
          let session = open_store dir in
          Array.iter
            (fun batch ->
              let report = Serve.run session (parse_batch batch) in
              if not (batch_ok seen batch report) then incr failed;
              gens := !gens + report.Serve.summary.Serve.generations;
              hits := !hits + report.Serve.summary.Serve.hits)
            batches;
          Trace.with_span "planstore.save" (fun () -> Serve.close_session session))
    in
    let det name v = { Harness.name; value = float_of_int v; det = true } in
    {
      Harness.wall_s = wall;
      ops = cycle_batches;
      failed = !failed;
      counters =
        [ det "cache.generations" !gens; det "cache.hits" !hits; det "planstore.rows" (store_rows dir) ];
    }

let workload =
  {
    Harness.name = "serve";
    op =
      Printf.sprintf
        "one %d-line JSONL batch (%d novel keys, %d malformed line) to a long-lived store-backed Serve session"
        batch_size novel_per_batch malformed_per_batch;
    items_per_op = batch_size;
    item = "requests";
    tail = 95.0;
    rss_ops = 30;
    setup;
    pass;
  }

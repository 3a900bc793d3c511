(* Test oracle for {!Cogent.Interp.execute}: the data path that resolves
   every staged and stored element through an [Index.Map] of global
   coordinates and the named accessors below.  The library resolves the
   same addresses through precomputed strides and offset tables instead;
   the cross-validation tests hold the two equal bit for bit.  Kept
   verbatim apart from the private helpers it needs from [Interp] and
   [Dense], which are copied below, and the counter replay, which
   {!Measure_brute} covers. *)

open Tc_tensor
open Tc_expr
open Cogent

(* ---- named element access (coordinates looked up by index) ---- *)

let named_offset t env =
  let strides = Dense.strides t in
  let off = ref 0 in
  List.iteri
    (fun k i -> off := !off + (Index.Map.find i env * strides.(k)))
    (Shape.indices (Dense.shape t));
  !off

(* [get_named t env] reads the element whose coordinate along each shape
   index [i] is [Index.Map.find i env]; extra bindings in [env] are
   ignored.  The flat array access keeps the bounds check. *)
let get_named t env = (Dense.unsafe_data t).(named_offset t env)
let set_named t env v = (Dense.unsafe_data t).(named_offset t env) <- v

let add_named t env v =
  let data = Dense.unsafe_data t and off = named_offset t env in
  data.(off) <- data.(off) +. v

(* ---- helpers copied from Interp ---- *)

(* Mixed-radix decomposition, first radix fastest:
   [decompose 13 [|4;2;2|]] is [|1;1;1|] since 13 = 1 + 4*(1 + 2*1). *)
let decompose_into out lin radices =
  let r = ref lin in
  for k = 0 to Array.length radices - 1 do
    out.(k) <- !r mod radices.(k);
    r := !r / radices.(k)
  done

let decompose lin radices =
  let out = Array.make (Array.length radices) 0 in
  decompose_into out lin radices;
  out

let ceil_div a b = (a + b - 1) / b

type axis = { index : Index.t; tile : int; extent : int; chunks : int }

let axes_of_bindings problem bindings =
  List.map
    (fun b ->
      let extent = Problem.extent problem b.Mapping.index in
      {
        index = b.Mapping.index;
        tile = b.Mapping.tile;
        extent;
        chunks = ceil_div extent b.Mapping.tile;
      })
    bindings

(* ---- the oracle ---- *)

let execute (plan : Plan.t) ~lhs ~rhs =
  let problem = plan.Plan.problem in
  let mapping = plan.Plan.mapping in
  let info = Problem.info problem in
  (* Resolve the canonicalization swap: [a] is the canonical lhs. *)
  let a, b = if info.Classify.swapped then (rhs, lhs) else (lhs, rhs) in
  let check name want got =
    if not (Shape.equal want (Dense.shape got)) then
      invalid_arg
        (Format.asprintf "Interp: %s has shape %a, expected %a" name Shape.pp
           (Dense.shape got) Shape.pp want)
  in
  check "lhs input" (Problem.lhs_shape problem) a;
  check "rhs input" (Problem.rhs_shape problem) b;
  let out = Dense.create (Problem.out_shape problem) in

  (* Execution-space axes. *)
  let tbx = axes_of_bindings problem mapping.Mapping.tbx in
  let regx = axes_of_bindings problem mapping.Mapping.regx in
  let tby = axes_of_bindings problem mapping.Mapping.tby in
  let regy = axes_of_bindings problem mapping.Mapping.regy in
  let tbk = axes_of_bindings problem mapping.Mapping.tbk in
  let grid_axes =
    List.map
      (fun index ->
        let extent = Problem.extent problem index in
        { index; tile = 1; extent; chunks = extent })
      mapping.Mapping.grid
  in
  (* Grid decomposition covers every external index: tiled ones contribute
     ceil(N/T) chunks, grid ones N chunks. *)
  let block_axes = tbx @ regx @ tby @ regy @ grid_axes in
  let block_radices = Array.of_list (List.map (fun ax -> ax.chunks) block_axes) in
  let num_blocks = Array.fold_left ( * ) 1 block_radices in
  let step_radices = Array.of_list (List.map (fun ax -> ax.chunks) tbk) in
  let num_steps = Array.fold_left ( * ) 1 step_radices in

  (* Shared-memory slabs, one per input: lhs externals (tbx then regx
     order, plus any grid-mapped lhs external at tile 1) x internals; rhs
     externals x internals. *)
  let lhs_grid =
    List.filter
      (fun ax -> List.exists (Index.equal ax.index) info.Classify.lhs_externals)
      grid_axes
  and rhs_grid =
    List.filter
      (fun ax -> List.exists (Index.equal ax.index) info.Classify.rhs_externals)
      grid_axes
  in
  let side_a = tbx @ regx @ lhs_grid and side_b = tby @ regy @ rhs_grid in
  let slab_shape side_axes =
    Shape.make (List.map (fun ax -> (ax.index, ax.tile)) (side_axes @ tbk))
  in
  let slab_a = Dense.create (slab_shape side_a) in
  let slab_b = Dense.create (slab_shape side_b) in

  let size_tbx = Mapping.size_tbx mapping
  and size_tby = Mapping.size_tby mapping
  and space_regx = Mapping.size_regx mapping
  and space_regy = Mapping.size_regy mapping
  and space_tbk = Mapping.size_tbk mapping in
  let tbx_radices = Array.of_list (List.map (fun ax -> ax.tile) tbx) in
  let tby_radices = Array.of_list (List.map (fun ax -> ax.tile) tby) in
  let regx_radices = Array.of_list (List.map (fun ax -> ax.tile) regx) in
  let regy_radices = Array.of_list (List.map (fun ax -> ax.tile) regy) in
  let tbk_radices = Array.of_list (List.map (fun ax -> ax.tile) tbk) in

  (* Per-coordinate offset tables into the slabs: a thread/register/step
     coordinate's slab offset is the dot product of its decomposed
     multi-index with the slab strides over those axes (grid-mapped slab
     axes sit at coordinate 0), so the inner product below adds three
     table entries per read instead of building an [Index.Map].  Every
     coordinate is below its axis tile — the slab extent — so the reads
     are in range by construction and go unchecked. *)
  let offset_table radices strides first count =
    let n = Array.length radices in
    let coords = Array.make n 0 in
    Array.init count (fun lin ->
        decompose_into coords lin radices;
        let off = ref 0 in
        for k = 0 to n - 1 do
          off := !off + (coords.(k) * strides.(first + k))
        done;
        !off)
  in
  let sa_str = Dense.strides slab_a and sb_str = Dense.strides slab_b in
  let n_tbx = List.length tbx
  and n_regx = List.length regx
  and n_tby = List.length tby
  and n_regy = List.length regy
  and n_lhs_grid = List.length lhs_grid
  and n_rhs_grid = List.length rhs_grid in
  let tx_off_a = offset_table tbx_radices sa_str 0 size_tbx in
  let rx_off_a = offset_table regx_radices sa_str n_tbx space_regx in
  let k_off_a =
    offset_table tbk_radices sa_str (n_tbx + n_regx + n_lhs_grid) space_tbk
  in
  let ty_off_b = offset_table tby_radices sb_str 0 size_tby in
  let ry_off_b = offset_table regy_radices sb_str n_tby space_regy in
  let k_off_b =
    offset_table tbk_radices sb_str (n_tby + n_regy + n_rhs_grid) space_tbk
  in

  let env_add axes coords env =
    List.fold_left
      (fun (k, env) ax -> (k + 1, Index.Map.add ax.index coords.(k) env))
      (0, env) axes
    |> snd
  in

  (* Fill a slab from global memory with bounds guards (zero padding). *)
  let fill_slab slab tensor side_axes block_bases step_bases =
    let all_axes = side_axes @ tbk in
    Dense.iteri slab (fun pos _ ->
        let in_range = ref true in
        let env =
          List.fold_left
            (fun (k, env) ax ->
              let base =
                match Index.Map.find_opt ax.index block_bases with
                | Some v -> v
                | None -> Index.Map.find ax.index step_bases
              in
              let g = base + pos.(k) in
              if g >= ax.extent then in_range := false;
              (k + 1, Index.Map.add ax.index g env))
            (0, Index.Map.empty) all_axes
          |> snd
        in
        let v = if !in_range then get_named tensor env else 0.0 in
        Dense.set slab pos v)
  in

  let bcoords = Array.make (Array.length block_radices) 0 in
  let scoords = Array.make (Array.length step_radices) 0 in
  for block = 0 to num_blocks - 1 do
    decompose_into bcoords block block_radices;
    let block_bases =
      List.fold_left
        (fun (k, m) ax ->
          (k + 1, Index.Map.add ax.index (bcoords.(k) * ax.tile) m))
        (0, Index.Map.empty) block_axes
      |> snd
    in
    (* Per-thread accumulators: acc.(ty * size_tbx + tx) is the register
       tile, indexed by ry * space_regx + rx. *)
    let acc =
      Array.init (size_tbx * size_tby) (fun _ ->
          Array.make (space_regx * space_regy) 0.0)
    in
    for step = 0 to num_steps - 1 do
      decompose_into scoords step step_radices;
      let step_bases =
        List.fold_left
          (fun (k, m) ax ->
            (k + 1, Index.Map.add ax.index (scoords.(k) * ax.tile) m))
          (0, Index.Map.empty) tbk
        |> snd
      in
      fill_slab slab_a a side_a block_bases step_bases;
      fill_slab slab_b b side_b block_bases step_bases;
      (* The serial TB_k sweep with per-thread outer products. *)
      for kk = 0 to space_tbk - 1 do
        let ka = Array.unsafe_get k_off_a kk
        and kb = Array.unsafe_get k_off_b kk in
        for ty = 0 to size_tby - 1 do
          let tyb = Array.unsafe_get ty_off_b ty + kb in
          for tx = 0 to size_tbx - 1 do
            let txa = Array.unsafe_get tx_off_a tx + ka in
            let reg = acc.((ty * size_tbx) + tx) in
            for ry = 0 to space_regy - 1 do
              let bval = Dense.unsafe_get slab_b (tyb + ry_off_b.(ry)) in
              for rx = 0 to space_regx - 1 do
                let aval = Dense.unsafe_get slab_a (txa + rx_off_a.(rx)) in
                reg.((ry * space_regx) + rx) <-
                  reg.((ry * space_regx) + rx) +. (aval *. bval)
              done
            done
          done
        done
      done
    done;
    (* Store finalized register tiles with bounds guards. *)
    for ty = 0 to size_tby - 1 do
      let tycoords = decompose ty tby_radices in
      for tx = 0 to size_tbx - 1 do
        let txcoords = decompose tx tbx_radices in
        let reg = acc.((ty * size_tbx) + tx) in
        for ry = 0 to space_regy - 1 do
          let rycoords = decompose ry regy_radices in
          for rx = 0 to space_regx - 1 do
            let rxcoords = decompose rx regx_radices in
            let local =
              env_add tbx txcoords
                (env_add regx rxcoords
                   (env_add tby tycoords (env_add regy rycoords Index.Map.empty)))
            in
            let in_range = ref true in
            let env =
              List.fold_left
                (fun env ax ->
                  let base = Index.Map.find ax.index block_bases in
                  let l =
                    match Index.Map.find_opt ax.index local with
                    | Some v -> v
                    | None -> 0 (* grid index: tile 1 *)
                  in
                  let g = base + l in
                  if g >= ax.extent then in_range := false;
                  Index.Map.add ax.index g env)
                Index.Map.empty block_axes
            in
            if !in_range then
              set_named out env reg.((ry * space_regx) + rx)
          done
        done
      done
    done
  done;
  out

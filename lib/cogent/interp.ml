open Tc_tensor
open Tc_expr

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

(* Boundary classes of one axis as (representative coordinate,
   multiplicity): every chunk but the last cuts a full tile, so the cut
   [min tile (extent - coord * tile)] takes at most two values — the full
   tile on coordinates 0 .. chunks-2 and the remainder on chunks-1.
   Extents are positive, so every multiplicity is at least 1. *)
let axis_classes ax =
  if ax.extent mod ax.tile = 0 || ax.chunks = 1 then [ (0, ax.chunks) ]
  else [ (0, ax.chunks - 1); (ax.chunks - 1, 1) ]

(* The product of per-axis classes: representative coordinate vectors
   (axis order) with the product of their multiplicities. *)
let class_product axes =
  List.fold_right
    (fun ax rest ->
      List.concat_map
        (fun (coord, m) ->
          List.map (fun (coords, mr) -> (coord :: coords, m * mr)) rest)
        (axis_classes ax))
    axes [ ([], 1) ]
  |> List.map (fun (coords, m) -> (Array.of_list coords, m))

type counters = {
  mutable tx_lhs : float;
  mutable tx_rhs : float;
  mutable tx_out : float;
  mutable smem_bytes : float;
  mutable fma_padded : float;
  mutable fma_useful : float;
  mutable store_tx_block_max : float;
  mutable blocks : int;
  mutable steps : int;
}

let create_counters () =
  {
    tx_lhs = 0.0;
    tx_rhs = 0.0;
    tx_out = 0.0;
    smem_bytes = 0.0;
    fma_padded = 0.0;
    fma_useful = 0.0;
    store_tx_block_max = 0.0;
    blocks = 0;
    steps = 0;
  }

(* Replay the emitted schedule's memory accesses and tally hardware
   counters, one representative block and step per boundary class.  The
   walk is value-independent (addresses and guards only depend on the
   plan), so [execute] runs it once next to the data pass.  Loads follow
   the cooperative padded sweep of the generated CUDA (operand layout
   order, waves of [threads] lanes, guards masking out-of-range lanes);
   stores are one wave of the whole thread block per register coordinate;
   both are costed with {!Txcount.staged_sweep}. *)
let measure_into (c : counters) (plan : Plan.t) =
  let problem = plan.Plan.problem in
  let mapping = plan.Plan.mapping in
  let prec = plan.Plan.precision in
  let ept = Tc_gpu.Precision.elems_per_transaction prec in
  let width = Mapping.threads_per_block mapping in
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
  let block_axes = tbx @ regx @ tby @ regy @ grid_axes in
  let count_chunks = List.fold_left (fun n ax -> n * ax.chunks) 1 in
  let num_blocks = count_chunks block_axes and num_steps = count_chunks tbk in
  (* Locate an index's coordinate slot: (true, k) for the k-th block axis,
     (false, k) for the k-th step (tbk) axis. *)
  let locate i =
    let rec find k = function
      | [] -> None
      | ax :: rest ->
          if Index.equal ax.index i then Some k else find (k + 1) rest
    in
    match find 0 block_axes with
    | Some k -> (true, k)
    | None -> (
        match find 0 tbk with
        | Some k -> (false, k)
        | None -> invalid_arg "Interp.measure: foreign index")
  in
  (* Per-tensor load descriptors, operand layout order (FVI first). *)
  let operand_axes shape =
    Shape.indices shape
    |> List.map (fun i ->
           let from_block, slot = locate i in
           let ax =
             if from_block then List.nth block_axes slot else List.nth tbk slot
           in
           (ax.tile, ax.extent, Shape.stride shape i, from_block, slot))
    |> Array.of_list
  in
  let lhs_axes = operand_axes (Problem.lhs_shape problem) in
  let rhs_axes = operand_axes (Problem.rhs_shape problem) in
  let cut_axes axes bcoords scoords =
    Array.map
      (fun (tile, extent, stride, from_block, slot) ->
        let coord = if from_block then bcoords.(slot) else scoords.(slot) in
        { Txcount.tile; cut = min tile (extent - (coord * tile)); stride })
      axes
  in
  (* Store descriptors: threads enumerate tbx (fastest) then tby bindings
     addressing the output layout; regx/regy cuts gate how many waves a
     block issues. *)
  let out_shape = Problem.out_shape problem in
  let slot_of_block_axis ax =
    let rec find k = function
      | [] -> invalid_arg "Interp.measure: store axis"
      | bx :: rest ->
          if Index.equal bx.index ax.index then k else find (k + 1) rest
    in
    find 0 block_axes
  in
  let store_axes =
    List.map
      (fun ax ->
        (ax.tile, ax.extent, Shape.stride out_shape ax.index,
         slot_of_block_axis ax))
      (tbx @ tby)
    |> Array.of_list
  in
  let cut_of bcoords (tile, extent, slot) =
    min tile (extent - (bcoords.(slot) * tile))
  in
  let reg_axes =
    List.map
      (fun ax -> (ax.tile, ax.extent, slot_of_block_axis ax))
      (regx @ regy)
    |> Array.of_list
  in
  let x_axes =
    List.map (fun ax -> (ax.tile, ax.extent, slot_of_block_axis ax))
      (tbx @ regx)
    |> Array.of_list
  and y_axes =
    List.map (fun ax -> (ax.tile, ax.extent, slot_of_block_axis ax))
      (tby @ regy)
    |> Array.of_list
  in
  let cut_prod bcoords axes =
    Array.fold_left (fun a d -> a * cut_of bcoords d) 1 axes
  in
  let size_regx = Mapping.size_regx mapping
  and size_regy = Mapping.size_regy mapping
  and size_tbk = Mapping.size_tbk mapping in
  let tbk_arr =
    Array.of_list (List.map (fun ax -> (ax.tile, ax.extent)) tbk)
  in
  (* A coordinate enters the replay only through its per-axis cuts, so
     the per-step body runs once per (block class, step class) pair on
     representative coordinates, weighted by the pair's multiplicity.
     Counts are multiplied as ints and converted once per term: every
     float sum stays an exact integer, bit-identical to walking every
     (block, step) pair. *)
  let step_classes = class_product tbk in
  List.iter
    (fun (bcoords, bmult) ->
      let xcount = cut_prod bcoords x_axes
      and ycount = cut_prod bcoords y_axes in
      List.iter
        (fun (scoords, smult) ->
          let w = bmult * smult in
          c.tx_lhs <-
            c.tx_lhs
            +. float_of_int
                 (w
                 * Txcount.staged_sweep ~width ~ept
                     (cut_axes lhs_axes bcoords scoords));
          c.tx_rhs <-
            c.tx_rhs
            +. float_of_int
                 (w
                 * Txcount.staged_sweep ~width ~ept
                     (cut_axes rhs_axes bcoords scoords));
          let kcount = ref 1 in
          Array.iteri
            (fun k (tile, extent) ->
              kcount := !kcount * min tile (extent - (scoords.(k) * tile)))
            tbk_arr;
          c.fma_useful <-
            c.fma_useful +. float_of_int (w * xcount * ycount * !kcount))
        step_classes;
      let thread_axes =
        Array.map
          (fun (tile, extent, stride, slot) ->
            { Txcount.tile; cut = cut_of bcoords (tile, extent, slot); stride })
          store_axes
      in
      let wave = Txcount.staged_sweep ~width ~ept thread_axes in
      let block_tx = wave * cut_prod bcoords reg_axes in
      c.tx_out <- c.tx_out +. float_of_int (bmult * block_tx);
      (* every class has multiplicity >= 1, so each is a real block *)
      let block_tx = float_of_int block_tx in
      if block_tx > c.store_tx_block_max then c.store_tx_block_max <- block_tx)
    (class_product block_axes);
  let pairs = num_blocks * num_steps in
  c.smem_bytes <-
    c.smem_bytes
    +. float_of_int
         (Mapping.smem_elems mapping * Tc_gpu.Precision.bytes prec * pairs);
  c.fma_padded <-
    c.fma_padded
    +. float_of_int (width * size_regx * size_regy * size_tbk * pairs);
  c.blocks <- c.blocks + num_blocks;
  c.steps <- c.steps + num_steps

let measure (plan : Plan.t) =
  let c = create_counters () in
  measure_into c plan;
  c

(* How [execute] stores one group of tile axes (tbx, regx, tby or regy):
   per coordinate its local index vector and output offset, and the
   current block's guard; [first] is the group's first block slot. *)
type store_group = {
  first : int;
  tiles : int array;
  extents : int array;
  locals : int array array;
  offs : int array;
  ok : bool array;
}

let execute ?counters (plan : Plan.t) ~lhs ~rhs =
  Option.iter (fun c -> measure_into c plan) counters;
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
  let out_shape = Problem.out_shape problem in
  let out = Dense.create out_shape in

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

  (* Per-coordinate offset tables: a thread/register/step coordinate's
     offset is the dot product of its decomposed multi-index with the
     strides of those axes.  Into the slabs (grid-mapped slab axes sit at
     coordinate 0) every coordinate is below its axis tile — the slab
     extent — so the inner product's reads are in range by construction
     and go unchecked; into the output the store guards them. *)
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

  (* Fill a slab from global memory with bounds guards (zero padding).
     Each slab axis is described once by its tile, extent, operand stride
     and the coordinate slot its chunk base comes from: a block slot for
     the side axes, a step slot for TB_k.  The slab holds exactly the
     operand's indices (Mapping.validate), so every axis has a stride.
     The walk visits the slab's linear positions with an odometer over
     its tiles (axis 0 fastest), adds up each one's global offset and
     zeroes it when any coordinate is past its extent. *)
  let block_slot i =
    let rec find k = function
      | [] -> invalid_arg "Interp.execute: foreign index"
      | ax :: rest -> if Index.equal ax.index i then k else find (k + 1) rest
    in
    find 0 block_axes
  in
  let fill slab tensor side_axes =
    let shape = Dense.shape tensor in
    let n_side = List.length side_axes in
    let axes = Array.of_list (side_axes @ tbk) in
    let rank = Array.length axes in
    let tiles = Array.map (fun ax -> ax.tile) axes
    and extents = Array.map (fun ax -> ax.extent) axes
    and strides = Array.map (fun ax -> Shape.stride shape ax.index) axes
    and slots =
      Array.mapi
        (fun k ax -> if k < n_side then block_slot ax.index else k - n_side)
        axes
    in
    let pos = Array.make rank 0 and base = Array.make rank 0 in
    let rec bump k =
      if k < rank then begin
        pos.(k) <- pos.(k) + 1;
        if pos.(k) = tiles.(k) then begin
          pos.(k) <- 0;
          bump (k + 1)
        end
      end
    in
    fun bcoords scoords ->
      for k = 0 to rank - 1 do
        let coords = if k < n_side then bcoords else scoords in
        base.(k) <- coords.(slots.(k)) * tiles.(k)
      done;
      for lin = 0 to Dense.numel slab - 1 do
        let off = ref 0 and in_range = ref true in
        for k = 0 to rank - 1 do
          let g = base.(k) + pos.(k) in
          if g >= extents.(k) then in_range := false;
          off := !off + (g * strides.(k))
        done;
        Dense.unsafe_set slab lin
          (if !in_range then Dense.unsafe_get tensor !off else 0.0);
        bump 0
      done
  in
  let fill_a = fill slab_a a side_a and fill_b = fill slab_b b side_b in

  (* Store tables, one group each for tbx, regx, tby and regy: every
     coordinate's local index vector and its offset into the output. *)
  let out_strides axes =
    Array.of_list (List.map (fun ax -> Shape.stride out_shape ax.index) axes)
  in
  let store_group axes radices first count =
    {
      first;
      tiles = radices;
      extents = Array.of_list (List.map (fun ax -> ax.extent) axes);
      locals = Array.init count (fun lin -> decompose lin radices);
      offs = offset_table radices (out_strides axes) 0 count;
      ok = Array.make count true;
    }
  in
  let tx_o = store_group tbx tbx_radices 0 size_tbx
  and rx_o = store_group regx regx_radices n_tbx space_regx
  and ty_o = store_group tby tby_radices (n_tbx + n_regx) size_tby
  and ry_o =
    store_group regy regy_radices (n_tbx + n_regx + n_tby) space_regy
  in
  (* A block's guard for one coordinate: every axis's chunk base plus the
     local index is below the extent. *)
  let set_guards g bcoords =
    for lin = 0 to Array.length g.locals - 1 do
      let local = g.locals.(lin) and in_range = ref true in
      for k = 0 to Array.length local - 1 do
        if (bcoords.(g.first + k) * g.tiles.(k)) + local.(k) >= g.extents.(k)
        then in_range := false
      done;
      g.ok.(lin) <- !in_range
    done
  in
  let block_strides = out_strides block_axes
  and block_tiles = Array.of_list (List.map (fun ax -> ax.tile) block_axes) in

  (* Per-thread accumulators, allocated once and zeroed per block: the
     register tile of thread (tx, ty) starts at
     ((ty * size_tbx) + tx) * space_reg and is indexed by
     ry * space_regx + rx, in range by construction (unchecked). *)
  let space_reg = space_regx * space_regy in
  let acc = Array.make (size_tbx * size_tby * space_reg) 0.0 in

  let bcoords = Array.make (Array.length block_radices) 0 in
  let scoords = Array.make (Array.length step_radices) 0 in
  for block = 0 to num_blocks - 1 do
    decompose_into bcoords block block_radices;
    Array.fill acc 0 (Array.length acc) 0.0;
    for step = 0 to num_steps - 1 do
      decompose_into scoords step step_radices;
      fill_a bcoords scoords;
      fill_b bcoords scoords;
      (* The serial TB_k sweep with per-thread outer products.  Every
         product is accumulated, zeros included, as in the emitted kernel:
         a non-finite operand propagates exactly as it does there. *)
      for kk = 0 to space_tbk - 1 do
        let ka = Array.unsafe_get k_off_a kk
        and kb = Array.unsafe_get k_off_b kk in
        for ty = 0 to size_tby - 1 do
          let tyb = Array.unsafe_get ty_off_b ty + kb in
          for tx = 0 to size_tbx - 1 do
            let txa = Array.unsafe_get tx_off_a tx + ka in
            let reg = ((ty * size_tbx) + tx) * space_reg in
            for ry = 0 to space_regy - 1 do
              let bval =
                Dense.unsafe_get slab_b (tyb + Array.unsafe_get ry_off_b ry)
              in
              let r = reg + (ry * space_regx) in
              for rx = 0 to space_regx - 1 do
                let aval =
                  Dense.unsafe_get slab_a (txa + Array.unsafe_get rx_off_a rx)
                in
                Array.unsafe_set acc (r + rx)
                  (Array.unsafe_get acc (r + rx) +. (aval *. bval))
              done
            done
          done
        done
      done
    done;
    (* Store finalized register tiles with bounds guards: one base offset
       per block (grid axes have tile 1 and local coordinate 0, so they
       only shift it), then the four per-coordinate guards and offsets. *)
    let base = ref 0 in
    for k = 0 to Array.length bcoords - 1 do
      base := !base + (bcoords.(k) * block_tiles.(k) * block_strides.(k))
    done;
    set_guards tx_o bcoords;
    set_guards rx_o bcoords;
    set_guards ty_o bcoords;
    set_guards ry_o bcoords;
    for ty = 0 to size_tby - 1 do
      let oty = !base + ty_o.offs.(ty) in
      for tx = 0 to size_tbx - 1 do
        let otx = oty + tx_o.offs.(tx) in
        let reg = ((ty * size_tbx) + tx) * space_reg in
        for ry = 0 to space_regy - 1 do
          let ory = otx + ry_o.offs.(ry) in
          for rx = 0 to space_regx - 1 do
            if ty_o.ok.(ty) && tx_o.ok.(tx) && ry_o.ok.(ry) && rx_o.ok.(rx)
            then
              Dense.unsafe_set out (ory + rx_o.offs.(rx))
                acc.(reg + (ry * space_regx) + rx)
          done
        done
      done
    done
  done;
  out

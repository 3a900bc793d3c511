(* Test oracle for {!Cogent.Interp.measure}: the brute-force replay that
   walks every (block, step) pair of the emitted schedule and recomputes
   each sweep's transactions.  The library replays one representative per
   boundary class instead; the cross-validation tests hold the two equal
   on every counter.  Kept verbatim apart from the private helpers it
   needs from [Interp], which are copied below. *)

open Tc_tensor
open Tc_expr
open Cogent

(* Mixed-radix decomposition, first radix fastest:
   [decompose 13 [|4;2;2|]] is [|1;1;1|] since 13 = 1 + 4*(1 + 2*1). *)
let decompose_into out lin radices =
  let r = ref lin in
  for k = 0 to Array.length radices - 1 do
    out.(k) <- !r mod radices.(k);
    r := !r / radices.(k)
  done

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

let measure_into (c : Interp.counters) (plan : Plan.t) =
  let problem = plan.Plan.problem in
  let mapping = plan.Plan.mapping in
  let prec = plan.Plan.precision in
  let ept = Tc_gpu.Precision.elems_per_transaction prec in
  let elt_bytes = float_of_int (Tc_gpu.Precision.bytes prec) in
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
  let block_radices =
    Array.of_list (List.map (fun ax -> ax.chunks) block_axes)
  in
  let num_blocks = Array.fold_left ( * ) 1 block_radices in
  let step_radices = Array.of_list (List.map (fun ax -> ax.chunks) tbk) in
  let num_steps = Array.fold_left ( * ) 1 step_radices in
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
  let smem_step =
    float_of_int (Mapping.smem_elems mapping) *. elt_bytes
  in
  let fma_slots_step =
    float_of_int width
    *. float_of_int (Mapping.size_regx mapping)
    *. float_of_int (Mapping.size_regy mapping)
    *. float_of_int (Mapping.size_tbk mapping)
  in
  let tbk_arr =
    Array.of_list (List.map (fun ax -> (ax.tile, ax.extent)) tbk)
  in
  let bcoords = Array.make (Array.length block_radices) 0 in
  let scoords = Array.make (Array.length step_radices) 0 in
  for block = 0 to num_blocks - 1 do
    decompose_into bcoords block block_radices;
    let xcount = float_of_int (cut_prod bcoords x_axes)
    and ycount = float_of_int (cut_prod bcoords y_axes) in
    for step = 0 to num_steps - 1 do
      decompose_into scoords step step_radices;
      c.tx_lhs <-
        c.tx_lhs
        +. float_of_int
             (Txcount.staged_sweep ~width ~ept
                (cut_axes lhs_axes bcoords scoords));
      c.tx_rhs <-
        c.tx_rhs
        +. float_of_int
             (Txcount.staged_sweep ~width ~ept
                (cut_axes rhs_axes bcoords scoords));
      c.smem_bytes <- c.smem_bytes +. smem_step;
      c.fma_padded <- c.fma_padded +. fma_slots_step;
      let kcount = ref 1 in
      Array.iteri
        (fun k (tile, extent) ->
          kcount := !kcount * min tile (extent - (scoords.(k) * tile)))
        tbk_arr;
      c.fma_useful <-
        c.fma_useful +. (xcount *. ycount *. float_of_int !kcount)
    done;
    let thread_axes =
      Array.map
        (fun (tile, extent, stride, slot) ->
          { Txcount.tile; cut = cut_of bcoords (tile, extent, slot); stride })
        store_axes
    in
    let wave = Txcount.staged_sweep ~width ~ept thread_axes in
    let regs = cut_prod bcoords reg_axes in
    let block_tx = float_of_int (wave * regs) in
    c.tx_out <- c.tx_out +. block_tx;
    if block_tx > c.store_tx_block_max then c.store_tx_block_max <- block_tx
  done;
  c.blocks <- c.blocks + num_blocks;
  c.steps <- c.steps + num_steps

let measure (plan : Plan.t) =
  let c = Interp.create_counters () in
  measure_into c plan;
  c

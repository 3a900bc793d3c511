(** Host-side execution of a kernel plan.

    Interprets exactly the schedule the CUDA generator emits (Algorithm 1):
    the grid is decomposed per external index, each block stages
    hyper-rectangular slabs of both inputs into simulated shared memory once
    per step (guarded, zero-padded at boundaries), each (thread, register
    coordinate) accumulates outer-product contributions across the serial
    TB_k dimension, and finalized register tiles are stored back with bounds
    guards.

    Because the loop structure, decompositions and address arithmetic mirror
    the generated CUDA one-for-one, agreement with {!Tc_tensor.Contract_ref}
    validates the code generation schema itself. *)

open Tc_tensor

type counters = {
  mutable tx_lhs : float;
      (** DRAM transactions loading the canonical lhs (all blocks, all
          steps), counted with the {!Txcount} convention *)
  mutable tx_rhs : float;
  mutable tx_out : float;  (** DRAM transactions storing the output *)
  mutable smem_bytes : float;
      (** bytes staged into shared memory (padded slabs, every step) *)
  mutable fma_padded : float;
      (** FMA slots issued by the padded loop structure *)
  mutable fma_useful : float;
      (** FMAs contributing to an in-range output at an in-range k *)
  mutable store_tx_block_max : float;
      (** largest per-block store traffic, in transactions *)
  mutable blocks : int;
  mutable steps : int;
}
(** Ground-truth hardware counters for one execution of the emitted
    schedule — the measured side of what {!Cost.estimate} and
    {!Tc_sim.Simkernel.transactions_exact} predict.  Fields accumulate, so
    one record can sink several executions. *)

val create_counters : unit -> counters

val execute :
  ?counters:counters -> Plan.t -> lhs:Dense.t -> rhs:Dense.t -> Dense.t
(** [execute plan ~lhs ~rhs] contracts the tensors given {e as written} in
    the original expression (any lhs/rhs canonicalization swap is resolved
    internally) and returns the output tensor in its declared layout.

    The data path is stride-resolved: each slab axis is described once by
    its tile, extent, operand stride and the block or step coordinate its
    chunk base comes from, so staging walks the slab adding up global
    offsets (zero where any coordinate is past its extent); stores add a
    per-block base offset to per-coordinate output offsets of the tbx,
    regx, tby and regy coordinates under one guard per coordinate.  The
    loop nest and accumulation order are those of the emitted kernel, and
    every product is accumulated unconditionally as there, so non-finite
    values propagate as in the emitted kernel ([inf *. 0.] gives NaN).  The
    per-element [Index.Map] walk this replaces is kept in the test suite as
    this function's bit-exact oracle.

    When [counters] is given, the emitted schedule's memory accesses are
    replayed alongside the data pass and tallied into it, exactly as
    {!measure_into} does (the replay is value-independent, so it runs once
    per execution).
    @raise Invalid_argument if a tensor's shape does not match the plan's
    problem. *)

val measure_into : counters -> Plan.t -> unit
(** [measure_into c plan] is the counter-only replay of the emitted
    schedule, added into [c]: it allocates and touches no tensor data, so
    it is usable at full TCCG problem sizes where a data execution would
    be prohibitive.

    A block or step coordinate enters the tally only through its per-axis
    cuts, and on each tiled axis the cut takes at most two values: the
    full tile or the one remainder tile (grid axes have tile 1 and are
    always full).  The replay therefore runs the per-step sweep once per
    (block class, step class) pair, on one representative coordinate
    vector per class, and weights it by the class multiplicity;
    [store_tx_block_max] is the largest representative's store traffic.
    Counts are multiplied as integers, so the totals equal a walk over
    every (block, step) pair bit for bit — the brute walk is kept in the
    test suite as this function's oracle. *)

val measure : Plan.t -> counters
(** [measure plan] is {!measure_into} on fresh counters. *)

(** E18: the kernel-fusion / off-heap-slab ablation.

    The pipeline compiles adjacent {!Netstack.Stage.Rewrite} /
    {!Netstack.Stage.Filter} kernels into fused groups; the mempool
    stores payloads in an off-heap [Bigarray] slab the GC never scans.
    This experiment isolates what each buys — and what fusion must
    {e not} change:

    - a deterministic section pinning the equivalence contract: in the
      calls modes (Direct/Tagged) a fused pipeline is cycle-identical,
      output-identical and telemetry-identical to the unfused chain;
      under Isolated mode a fused group costs one protection-domain
      crossing where the unfused chain paid one per stage (same
      outputs); and the payload backing (heap [Bytes] vs off-heap
      slab) is invisible to the virtual-cycle model.
    - a wall-clock race sweeping {unfused, fused} x {heap Bytes,
      off-heap slab} on the Direct-mode Maglev NF, plus the Tagged
      fused arm for the isolation-tax ratio. *)

val default_rounds : int
val default_batch_size : int

(** {2 Deterministic section} *)

type det_run = {
  dr_crafted : int;
  dr_tx : int;
  dr_cycles : int64;
  dr_groups : string list list;  (** The compiled fusion plan. *)
  dr_telemetry : string;         (** Rendered registry, for equality checks. *)
  dr_reports : Netstack.Pipeline.stage_report list;
      (** Per-domain accounting; [[]] outside Isolated mode. *)
}

type det_mode = Direct | Isolated | Tagged

val run_det :
  ?rounds:int ->
  ?batch_size:int ->
  ?backing:Netstack.Slab.backing ->
  mode:det_mode ->
  fuse:bool ->
  unit ->
  det_run
(** One fresh environment (private telemetry registry) serving the
    Figure-2 Maglev NF for [rounds] batches. Defaults: 200 rounds of
    32, off-heap backing. *)

type det_result = {
  d_rounds : int;
  d_batch_size : int;
  d_calls : (det_mode * det_run * det_run) list;  (** mode, unfused, fused. *)
  d_iso_unfused : det_run;
  d_iso_fused : det_run;
  d_bytes : det_run;  (** Direct fused over [Heap_bytes]. *)
  d_slab : det_run;   (** Direct fused over [Off_heap]. *)
}

val run_stats : ?rounds:int -> unit -> det_result

val crossings : det_run -> int
(** Total protection-domain entries across the run (Isolated only). *)

val same_outputs : det_run -> det_run -> bool

val print_stats : det_result -> unit
(** Virtual counters only — byte-identical across runs and hosts; the
    golden [test/golden/fusion_stats.txt] pins it. *)

(** {2 Sharded determinism block} *)

val shard_stages : Netstack.Shard.queue_ctx -> Netstack.Stage.t list
(** The Maglev NF adapted to the sharded engine's stage constructor
    (fresh per-queue Maglev state; pipelines fuse by default). *)

val run_shard_stats : ?rounds:int -> shards:int -> unit -> Netstack.Shard.result
(** One sharded run of the fused NF. The printed block
    ({!print_shard_stats}) is byte-identical for any [shards] — what
    [repro check fusion] diffs across 1/2/4 shards. *)

val print_shard_stats : Netstack.Shard.result -> unit

(** {2 Wall-clock section} *)

val wall_arm :
  mode:det_mode ->
  fuse:bool ->
  backing:Netstack.Slab.backing ->
  string ->
  string * (int -> int)
(** A named {!Measure.race} arm: the Figure-2 Maglev NF in a fresh
    environment with its own telemetry registry, served by
    {!Measure.serve} through one recycled batch of 32. *)

type wall_result = {
  w_batches : int;
  w_reps : int;
  w_rows : Measure.row list;
      (** Direct fused off-heap first (the reference of every paired
          ratio), the 2x2 cells, the Tagged fused off-heap arm last. *)
}

(** {2 Combined entry point} *)

type result = {
  stats : det_result;
  shard : Netstack.Shard.result;  (** The one-shard {!run_shard_stats} ledger. *)
  wall : wall_result;
}

val run : quick:bool -> unit -> result
val print : result -> unit

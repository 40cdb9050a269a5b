(** E17: the megaflow flow-cache fast path — hit rate vs sustained
    Mpps, cached vs uncached, over a heavy-tailed Zipf flow mix.

    The NF under test is deliberately slow-path-heavy: a linear-scan
    5-tuple rule DB (~128 rules, every accepted packet walks the whole
    table) in front of the Figure-2 Maglev/GRE chain. The per-queue
    {!Netstack.Flowcache} memoises the fused verdict of that whole
    chain, so the experiment measures exactly what OVS megaflows buy:
    first packet pays the full classification, the rest of the flow
    replays the memoised rewrite.

    Two sections: a deterministic one (virtual counters only —
    byte-identical for any shard count, and the cached/uncached
    serve/drop ledgers must agree exactly) and a wall-clock one
    (sustained Mpps with the traffic-generator cost backed out). *)

val make_stages :
  clock:Cycles.Clock.t -> ?rule_pad:int -> unit -> Netstack.Stage.t list
(** Fresh per-queue stage state (rule DB + Maglev table). The stage
    descriptors declare both state owners' mutation hooks, so a
    {!Netstack.Pipeline} built with a flowcache wires the cache's
    invalidation automatically. [rule_pad] sizes the never-matching
    prefix of the rule table (default 120; the wall-clock section
    uses 760). *)

val shard_stages : Netstack.Shard.queue_ctx -> Netstack.Stage.t list
(** {!make_stages} adapted to the sharded engine's stage constructor. *)

(** {2 Deterministic section} *)

val default_exponent : float
val default_stats_queues : int
val default_stats_rounds : int
val default_stats_flows : int
val default_stats_capacity : int

val run_stats :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?flows:int ->
  ?exponent:float ->
  ?capacity:int ->
  ?ttl_cycles:int64 ->
  ?seed:int64 ->
  cached:bool ->
  shards:int ->
  unit ->
  Netstack.Shard.result
(** One sharded run over the Zipf plan, with or without per-queue
    flow caches. Defaults: 4 queues, 400 rounds, batch 32, 20k flows,
    s = 1.2, 256-entry caches, 150k-cycle TTL (both small enough that
    LRU and TTL evictions actually occur in the golden), seed 2017. *)

type stats_pair = {
  sp_cached : Netstack.Shard.result;
  sp_uncached : Netstack.Shard.result;
}

val run_stats_pair : ?rounds:int -> shards:int -> unit -> stats_pair
(** {!run_stats} cached and uncached, at the defaults but [rounds]. *)

val ledger_match : stats_pair -> bool
(** The engine-scale equivalence check: crafted/served/degraded/dropped
    identical between the cached and uncached runs. *)

val print_stats : cached:bool -> Netstack.Shard.result -> unit
val print_stats_pair : stats_pair -> unit

(** {2 Wall-clock section} *)

val default_rule_pad : int
val default_flows : int
val default_capacity : int

type wall_path =
  | Generator  (** rx craft + free, no pipeline. *)
  | Uncached  (** The NF without a flow cache. *)
  | Cached  (** The NF behind a flow cache of [capacity] entries. *)

val wall_arm :
  plan:Netstack.Traffic.plan ->
  capacity:int ->
  rule_pad:int ->
  batch_size:int ->
  wall_path ->
  (int -> int) * (unit -> float)
(** One {!Measure.race} arm over a fresh single-queue environment
    (seed 2017) drawing from [plan], and a reader for its cache hit
    rate so far (0 without a cache). NF arms run {!Measure.serve}
    through one recycled batch of [batch_size]. *)

type wall_result = {
  w_flows : int;
  w_capacity : int;
  w_rules : int;
  w_batches : int;
  w_reps : int;
  w_rows : Measure.row list;
      (** uncached (the reference of every paired ratio), cached,
          generator. *)
  w_pipe_mpps : float * float;
      (** Uncached and cached median Mpps with the generator's
          per-packet time subtracted. *)
  w_pipe_speedup : float;  (** Cached over uncached, pipeline only — the headline. *)
  w_hit_rate : float;  (** Cached arm, hits / lookups over the whole race. *)
}

(** {2 Combined entry point} *)

type result = {
  stats : stats_pair;
  wall : wall_result;
}

val run : quick:bool -> unit -> result
val print : result -> unit

(* E17: the megaflow flow-cache fast path (OVS/DOCA model).

   Two sections, split the same way E14/E16 are:

   - a deterministic section driving the sharded engine over a Zipf
     flow mix with and without a per-queue flow cache, printing only
     virtual counters (no wall-clock) — byte-identical for any shard
     count, and the cached/uncached serve/drop ledgers must agree
     exactly (the slow/fast equivalence claim at engine scale);
   - a wall-clock section driving a single-queue pipeline over a
     million-flow Zipf population, reporting sustained Mpps cached vs
     uncached and the cache hit rate. The NF chain is deliberately
     rule-heavy (a linear-scan 5-tuple firewall in front of the
     Figure-2 Maglev chain), which is exactly the cost profile the
     megaflow cache exists to amortise. *)

let vip = 0xC0A80001
let backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)

let default_flows = 1_000_000
let default_exponent = 1.2
let default_capacity = 131_072
let default_rule_pad = 120
let default_rule_drops = 8

(* [pad] accept rules that cannot match the 10.0.0.0/16 client
   population (so every packet scans past them), then [drops] rules
   dropping src-port slices of it (so the cache memoises genuine drop
   verdicts, not only serves). *)
let build_rules db ~pad ~drops =
  for i = 0 to pad - 1 do
    Netstack.Ruledb.add db
      (Netstack.Ruledb.rule
         ~src:(Int32.logor 0x0B000000l (Int32.of_int ((i land 0xff) lsl 8)), 24)
         Netstack.Ruledb.Accept)
  done;
  for i = 0 to drops - 1 do
    let lo = 2_000 + (i * 6_000) in
    Netstack.Ruledb.add db
      (Netstack.Ruledb.rule ~src_port:(lo, lo + 1023) Netstack.Ruledb.Drop)
  done

(* The wall-clock section scans a classifier four times the size of
   the deterministic one: megaflow caches are priced for big rule
   tables, and the slow path should cost what OVS's does. *)
let wall_rule_pad = 760

(* The E17 NF: ruledb -> csum -> ttl -> maglev-gre. The stage
   descriptors declare their state owners' mutation hooks
   ([Ruledb.on_mutate], [Maglev.on_change]); [Pipeline.create]
   subscribes the cache's invalidation through them — the owner-side
   staleness barrier DESIGN.md §12 argues is complete, wired by
   construction. *)
let make_stages ~clock ?(rule_pad = default_rule_pad) () =
  let db = Netstack.Ruledb.create ~clock () in
  build_rules db ~pad:rule_pad ~drops:default_rule_drops;
  let mg = Netstack.Maglev.create ~clock ~backends () in
  [
    Netstack.Ruledb.stage db;
    Netstack.Filters.checksum_verify;
    Netstack.Filters.ttl_decrement;
    Netstack.Filters.maglev_gre mg ~vip;
  ]

let shard_stages (ctx : Netstack.Shard.queue_ctx) =
  make_stages ~clock:ctx.Netstack.Shard.qc_clock ()

(* --- Deterministic section ------------------------------------------- *)

let default_stats_queues = 4
let default_stats_rounds = 400
let default_stats_flows = 20_000
(* Small enough that the golden block exhibits the full lifecycle:
   LRU evictions (capacity < per-queue working set) and TTL evictions
   (TTL < a queue's total virtual run time). *)
let default_stats_capacity = 256
let default_stats_ttl = 150_000L

let run_stats ?(queues = default_stats_queues) ?(rounds = default_stats_rounds)
    ?(batch_size = 32) ?(flows = default_stats_flows) ?(exponent = default_exponent)
    ?(capacity = default_stats_capacity) ?(ttl_cycles = default_stats_ttl) ?(seed = 2017L)
    ~cached ~shards () =
  let plan = Netstack.Traffic.plan (Netstack.Traffic.Zipf { flows; exponent }) in
  let cache =
    if cached then
      Some Netstack.Shard.{ c_capacity = capacity; c_ttl_cycles = ttl_cycles }
    else None
  in
  let spec =
    Netstack.Shard.default_spec ~shards ~queues ~rounds ~batch_size ~seed ~flows
      ~traffic:plan ?cache ~mode:Netstack.Shard.Direct ~stages:shard_stages ()
  in
  Netstack.Shard.run (Netstack.Shard.create spec)

let counter_value reg name =
  match Telemetry.Registry.find reg name with
  | Some (Telemetry.Registry.Counter c) -> Telemetry.Counter.value c
  | Some _ | None -> 0

(* One deterministic block: the engine ledger, then (cached only) the
   cache's own conservation line, then the merged telemetry table.
   Nothing here depends on the shard count or the wall clock. *)
let print_stats ~cached (r : Netstack.Shard.result) =
  let tag = if cached then "cached" else "uncached" in
  Printf.printf "flowcache counts (%s): crafted=%d served=%d degraded=%d dropped=%d\n" tag
    r.Netstack.Shard.r_crafted r.Netstack.Shard.r_served r.Netstack.Shard.r_degraded
    r.Netstack.Shard.r_dropped;
  (if cached then begin
     let reg = r.Netstack.Shard.r_telemetry in
     let v n = counter_value reg ("netstack.flowcache." ^ n) in
     let lookups = v "lookups" and hits = v "hits" and misses = v "misses" in
     Printf.printf
       "flowcache lifecycle (%s): lookups=%d hits=%d misses=%d conserved=%b installs=%d \
        evict_lru=%d evict_ttl=%d evict_stale=%d invalidations=%d\n"
       tag lookups hits misses
       (lookups = hits + misses)
       (v "installs") (v "evictions_lru") (v "evictions_ttl") (v "evictions_stale")
       (v "invalidations")
   end);
  Telemetry.Render.print
    ~title:(Printf.sprintf "flowcache telemetry (%s)" tag)
    r.Netstack.Shard.r_telemetry;
  print_newline ()

type stats_pair = {
  sp_cached : Netstack.Shard.result;
  sp_uncached : Netstack.Shard.result;
}

let run_stats_pair ?rounds ~shards () =
  {
    sp_cached = run_stats ?rounds ~cached:true ~shards ();
    sp_uncached = run_stats ?rounds ~cached:false ~shards ();
  }

let ledger_match p =
  let c = p.sp_cached and u = p.sp_uncached in
  c.Netstack.Shard.r_crafted = u.Netstack.Shard.r_crafted
  && c.Netstack.Shard.r_served = u.Netstack.Shard.r_served
  && c.Netstack.Shard.r_degraded = u.Netstack.Shard.r_degraded
  && c.Netstack.Shard.r_dropped = u.Netstack.Shard.r_dropped

let print_stats_pair p =
  print_stats ~cached:true p.sp_cached;
  print_stats ~cached:false p.sp_uncached;
  Printf.printf "flowcache ledger match (cached vs uncached): %b\n" (ledger_match p)

(* --- Wall-clock section ----------------------------------------------- *)

type wall_path = Generator | Uncached | Cached

(* One race arm over a fresh single-queue environment on the shared
   traffic plan, and a reader for its cache hit rate (0 without a
   cache). The generator arm crafts and frees without any pipeline:
   every NF arm pays that identical rx bill, so its rate is what the
   pipeline-only column subtracts. *)
let wall_arm ~plan ~capacity ~rule_pad ~batch_size path =
  let clock = Cycles.Clock.create () in
  let pool = Netstack.Mempool.create ~clock ~capacity:4096 () in
  let engine = Netstack.Engine.create ~clock ~pool () in
  let traffic = Netstack.Traffic.of_plan ~rng:(Cycles.Rng.create 2017L) plan in
  let nic = Netstack.Nic.create ~engine ~traffic () in
  let batch = Netstack.Batch.create ~capacity:batch_size in
  match path with
  | Generator ->
    let run n =
      let received = ref 0 in
      for _ = 1 to n do
        Netstack.Nic.rx_batch_into nic batch batch_size;
        received := !received + Netstack.Batch.length batch;
        Netstack.Nic.drop_batch nic batch
      done;
      !received
    in
    (run, fun () -> 0.)
  | Uncached | Cached ->
    let fc =
      if path = Cached then
        Some (Netstack.Flowcache.create ~clock ~capacity ~ttl_cycles:(Int64.shift_left 1L 62) ())
      else None
    in
    let stages = make_stages ~clock ~rule_pad () in
    let pipe =
      Netstack.Pipeline.create ~engine ~mode:Netstack.Pipeline.Direct ?flowcache:fc stages
    in
    let hit_rate () =
      match fc with
      | None -> 0.
      | Some fc ->
        let s = Netstack.Flowcache.stats fc in
        if s.Netstack.Flowcache.lookups = 0 then 0.
        else
          float_of_int s.Netstack.Flowcache.hits /. float_of_int s.Netstack.Flowcache.lookups
    in
    (Measure.serve ~nic ~pipe ~batch, hit_rate)

type wall_result = {
  w_flows : int;
  w_capacity : int;
  w_rules : int;
  w_batches : int;
  w_reps : int;
  w_rows : Measure.row list;  (* uncached (the reference), cached, generator *)
  w_pipe_mpps : float * float;  (* uncached, cached *)
  w_pipe_speedup : float;
  w_hit_rate : float;
}

let wall_batch_size = 64

let run_wall ~flows ~capacity ~reps ~batches () =
  let plan = Netstack.Traffic.plan (Netstack.Traffic.Zipf { flows; exponent = default_exponent }) in
  let arm path =
    wall_arm ~plan ~capacity ~rule_pad:wall_rule_pad ~batch_size:wall_batch_size path
  in
  let uncached, _ = arm Uncached and cached, hit_rate = arm Cached and gen, _ = arm Generator in
  let rows =
    Measure.race ~reps ~batches [ ("uncached", uncached); ("cached", cached); ("generator", gen) ]
  in
  (* Back the generator's per-packet time out of each NF arm's median
     (clamped: the subtraction may consume at most 90% of it, so a
     pathological host cannot produce negative rates). *)
  let gen_s = 1. /. (List.nth rows 2).Measure.mpps in
  let pipe r =
    let s = 1. /. r.Measure.mpps in
    1. /. (s -. min gen_s (0.9 *. s))
  in
  let u = pipe (List.nth rows 0) and c = pipe (List.nth rows 1) in
  {
    w_flows = flows;
    w_capacity = capacity;
    w_rules = wall_rule_pad + default_rule_drops;
    w_batches = batches;
    w_reps = reps;
    w_rows = rows;
    w_pipe_mpps = (u, c);
    w_pipe_speedup = c /. u;
    w_hit_rate = hit_rate ();
  }

let print_wall w =
  Printf.printf
    "E17 (extension): megaflow flow-cache fast path (wall clock)\n\
    \  Zipf(s=%.2f) over %d flows, cache capacity %d, batch=%d, %d interleaved rounds\n\
    \  of %d batches; NF = ruledb(%d rules, linear scan) -> csum -> ttl -> maglev-gre\n"
    default_exponent w.w_flows w.w_capacity wall_batch_size w.w_reps w.w_batches w.w_rules;
  Measure.print w.w_rows;
  let u, c = w.w_pipe_mpps in
  Printf.printf
    "  pipeline only (generator subtracted): uncached %.3f Mpps, cached %.3f Mpps\n\
    \  cached hit rate %s. Target: >= 5x pipeline speedup at >= 90%% hit rate:\n\
    \  %.2fx — %s\n"
    u c (Table.fpct w.w_hit_rate) w.w_pipe_speedup
    (if w.w_pipe_speedup >= 5.0 && w.w_hit_rate >= 0.9 then "met" else "MISSED")

(* --- Combined entry point (repro registry) ----------------------------- *)

type result = {
  stats : stats_pair;
  wall : wall_result;
}

let run ~quick () =
  let stats =
    if quick then run_stats_pair ~rounds:150 ~shards:1 ()
    else run_stats_pair ~shards:1 ()
  in
  let wall =
    if quick then run_wall ~flows:200_000 ~capacity:65_536 ~reps:10 ~batches:250 ()
    else run_wall ~flows:default_flows ~capacity:default_capacity ~reps:40 ~batches:300 ()
  in
  { stats; wall }

let print r =
  print_stats_pair r.stats;
  print_newline ();
  print_wall r.wall

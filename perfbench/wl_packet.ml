(* The two packet workloads: one op is one 32-packet batch through
   Nic.rx_batch_into -> Pipeline.run -> Nic.tx_batch, with one
   recycled rx batch.

   maglev-iso-64b: the Figure-2 Maglev NF under Isolated (SFI) mode,
   fused, uniform traffic over 1024 flows, no flow cache. At 64-byte
   frames per-packet cost dominates: every packet pays rx, each stage
   kernel, the protection-domain crossings and the cost model.

   megaflow-zipf: the E17 NF (linear-scan rule DB, then the Maglev/GRE
   chain) in Direct mode behind a 32768-entry flow cache, Zipf(1.2)
   traffic over 100k flows. Its mirror image: lookup, replay and
   install do most of the work, the stage kernels see only the misses,
   and there is no SFI. *)

open Netstack

let batch_size = 32

type rig = {
  clock : Cycles.Clock.t;
  pool : Mempool.t;
  nic : Nic.t;
  pipe : Pipeline.t;
  telemetry : Telemetry.Registry.t;
  batch : Batch.t;
  mutable last_rx : int;
  mutable last_tx : int;
  mutable last_ok : bool;
  mutable rx : int;
  mutable tx : int;
}

let rig ~clock ~pool ~nic ~pipe ~telemetry =
  {
    clock;
    pool;
    nic;
    pipe;
    telemetry;
    batch = Batch.create ~capacity:batch_size;
    last_rx = 0;
    last_tx = 0;
    last_ok = true;
    rx = 0;
    tx = 0;
  }

let tx r = function
  | Ok out ->
    r.last_ok <- true;
    r.last_tx <- Nic.tx_batch r.nic out
  | Error _ ->
    r.last_ok <- false;
    r.last_tx <- 0

let serve r =
  Nic.rx_batch_into r.nic r.batch batch_size;
  let n = Batch.length r.batch in
  r.last_rx <- n;
  tx r (Pipeline.run r.pipe r.batch);
  n

(* Per-op output check: no Pipeline.run error, a full batch received,
   and every buffer back in the pool once tx returns (a dropped packet
   must have been released, not leaked). [lossless]: nothing may be
   dropped at all. *)
let check ~lossless r =
  r.rx <- r.rx + r.last_rx;
  r.tx <- r.tx + r.last_tx;
  r.last_ok && r.last_rx = batch_size && r.last_tx <= r.last_rx
  && ((not lossless) || r.last_tx = r.last_rx)
  && Mempool.in_use r.pool = 0

(* End of run: the NIC's own counters agree with the harness ledger,
   rx = tx + the drops the stages and the flow cache recorded, and the
   pool is fully returned. *)
let finish ?(fast_drops = fun () -> 0) r =
  let dropped =
    Telemetry.Registry.sum_matching r.telemetry ~prefix:"netstack.stage." ~suffix:".drops"
    + fast_drops ()
  in
  Nic.rx_packets r.nic = r.rx
  && Nic.tx_packets r.nic = r.tx
  && r.rx = r.tx + dropped
  && Mempool.available r.pool = Mempool.capacity r.pool

let cycle_counters r =
  let c = Cycles.Clock.cache_counters r.clock in
  [|
    Int64.to_float (Cycles.Clock.now r.clock);
    float_of_int c.Cycles.Cache.l1_hits;
    float_of_int c.Cycles.Cache.l2_hits;
    float_of_int c.Cycles.Cache.l3_hits;
    float_of_int c.Cycles.Cache.dram_accesses;
  |]

let cycle_metrics (w : Meter.window) =
  let pp i = Wl.per w.Meter.w_delta.(i) w.Meter.w_items in
  [
    ("cycles.virtual_per_pkt", pp 0, "cycles");
    ("cycles.l1_hits_per_pkt", pp 1, "count");
    ("cycles.l2_hits_per_pkt", pp 2, "count");
    ("cycles.l3_hits_per_pkt", pp 3, "count");
    ("cycles.dram_per_pkt", pp 4, "count");
  ]

let stationary (w : Meter.window) ~exact_words =
  [
    ("cycles.virtual_per_pkt", Wl.per w.Meter.w_delta.(0) w.Meter.w_items, false);
    ("minor_words_per_item", Meter.words_per_item w, exact_words);
  ]

let warm r n =
  for _ = 1 to n do
    ignore (serve r);
    if not (check ~lossless:false r) then failwith "perfbench: warm-up batch failed"
  done

(* --- maglev-iso-64b ---------------------------------------------------- *)

let iso_env seed =
  let telemetry = Telemetry.Registry.create () in
  let env = Experiments.Env.make ~seed ~telemetry () in
  let _mg, stages = Experiments.Env.maglev_nf env in
  (env, stages, telemetry)

let iso_spans =
  [|
    "op"; "nic.rx"; "pipeline.run"; "nic.tx"; "replica"; "stage.checksum_verify";
    "stage.ttl_decrement"; "stage.maglev_gre";
  |]

let sp_op = 0
let sp_rx = 1
let sp_run = 2
let sp_tx = 3
let sp_replica = 4
let sp_stage0 = 5

let traced_serve tr r =
  Trace.enter tr sp_op;
  Trace.enter tr sp_rx;
  Nic.rx_batch_into r.nic r.batch batch_size;
  Trace.leave tr;
  let n = Batch.length r.batch in
  r.last_rx <- n;
  Trace.enter tr sp_run;
  let res = Pipeline.run r.pipe r.batch in
  Trace.leave tr;
  Trace.enter tr sp_tx;
  tx r res;
  Trace.leave tr;
  Trace.leave tr;
  n

let iso_setup seed () =
  let env, stages, telemetry = iso_env seed in
  let open Experiments.Env in
  let pipe =
    Pipeline.create ~engine:env.engine ~mode:(Pipeline.Isolated env.manager) ~fuse:true stages
  in
  let r =
    rig ~clock:env.clock ~pool:env.pool ~nic:env.nic ~pipe ~telemetry
  in
  warm r 512;
  (* The Direct, unfused replica the traced run times stage by stage:
     same seed, so it is fed the same traffic. Built on first use, so
     set-up time does not include it. *)
  let replica_rig =
    lazy
      (let renv, rstages, _ = iso_env seed in
       (renv, Array.of_list rstages, Batch.create ~capacity:batch_size))
  in
  let n_stages = List.length stages in
  let tr = Trace.create iso_spans in
  let replica () =
    let renv, rstages, rbatch = Lazy.force replica_rig in
    Trace.enter tr sp_replica;
    Nic.rx_batch_into renv.nic rbatch batch_size;
    let b = ref rbatch in
    for i = 0 to Array.length rstages - 1 do
      Trace.enter tr (sp_stage0 + i);
      b := Stage.process rstages.(i) renv.engine !b;
      Trace.leave tr
    done;
    ignore (Nic.tx_batch renv.nic !b);
    Trace.leave tr
  in
  let crossings = float_of_int (List.length (Pipeline.fused_groups pipe)) in
  let chk () = check ~lossless:true r in
  let counters () = cycle_counters r in
  let layer w =
    let pkts = float_of_int (Trace.count tr sp_run * batch_size) in
    let ns id = Wl.per (Trace.total_ns tr id) pkts in
    let batches = float_of_int (Trace.count tr sp_run) in
    let stage_ns = Array.init n_stages (fun i -> Trace.total_ns tr (sp_stage0 + i)) in
    [
      ("nic.rx_ns_per_pkt", ns sp_rx, "ns");
      ("nic.tx_ns_per_pkt", ns sp_tx, "ns");
      ("pipeline.run_ns_per_pkt", ns sp_run, "ns");
      ("stage.checksum_verify_ns_per_pkt", ns sp_stage0, "ns");
      ("stage.ttl_decrement_ns_per_pkt", ns (sp_stage0 + 1), "ns");
      ("stage.maglev_gre_ns_per_pkt", ns (sp_stage0 + 2), "ns");
      ( "sfi.crossing_ns_per_batch",
        Wl.per (Trace.total_ns tr sp_run -. Array.fold_left ( +. ) 0. stage_ns) batches,
        "ns" );
      ("sfi.crossings_per_batch", crossings, "count");
    ]
    @ cycle_metrics w
  in
  {
    Wl.op = { Meter.run = (fun () -> serve r); check = chk; counters };
    traced =
      {
        Meter.run =
          (fun () ->
            let n = traced_serve tr r in
            replica ();
            n);
        check = chk;
        counters;
      };
    trace = tr;
    layer;
    stationary = stationary ~exact_words:true;
    finish = (fun () -> finish r);
    close = ignore;
  }

let maglev_iso =
  {
    Wl.name = "maglev-iso-64b";
    window = 4096;
    setups = 21;
    max_ops_per_s = 100_000;
    prepare = (fun ~seed -> (true, iso_setup seed));
  }

(* --- megaflow-zipf ---------------------------------------------------- *)

let zipf_flows = 100_000
let zipf_exponent = 1.2
let cache_capacity = 32_768

let mf_rig ~seed ~cached =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:4096 () in
  let telemetry = Telemetry.Registry.create () in
  let engine = Engine.create ~clock ~pool ~telemetry () in
  let traffic =
    Traffic.create ~rng:(Cycles.Rng.create seed)
      (Traffic.Zipf { flows = zipf_flows; exponent = zipf_exponent })
  in
  let nic = Nic.create ~engine ~traffic () in
  let fc =
    if cached then
      Some (Flowcache.create ~clock ~capacity:cache_capacity ~ttl_cycles:(Int64.shift_left 1L 62) ())
    else None
  in
  let stages = Experiments.Megaflow.make_stages ~clock () in
  let pipe = Pipeline.create ~engine ~mode:Pipeline.Direct ?flowcache:fc stages in
  (rig ~clock ~pool ~nic ~pipe ~telemetry, fc)

(* Before timing: a shadow uncached pipeline on the same seed must
   transmit byte-identical frames, batch by batch, across the cache's
   fill (misses and installs) and into steady state (replays). *)
let shadow_batches = 2048

let shadow_check seed =
  let c, fc = mf_rig ~seed ~cached:true in
  let u, _ = mf_rig ~seed ~cached:false in
  let frames r =
    Nic.rx_batch_into r.nic r.batch batch_size;
    match Pipeline.run r.pipe r.batch with
    | Ok out ->
      let fs = List.map Packet.to_string (Batch.packets out) in
      ignore (Nic.tx_batch r.nic out);
      Some fs
    | Error _ -> None
  in
  let ok = ref true in
  for _ = 1 to shadow_batches do
    match (frames c, frames u) with
    | Some a, Some b -> if not (List.equal String.equal a b) then ok := false
    | _ -> ok := false
  done;
  let hits = match fc with Some fc -> (Flowcache.stats fc).Flowcache.hits | None -> 0 in
  !ok && hits > 0

let mf_spans = [| "op"; "nic.rx"; "pipeline.run"; "nic.tx" |]

let fc_counters fc =
  let s = Flowcache.stats fc in
  [|
    float_of_int s.Flowcache.lookups;
    float_of_int s.Flowcache.hits;
    float_of_int s.Flowcache.installs;
    float_of_int (s.Flowcache.evictions_lru + s.Flowcache.evictions_ttl + s.Flowcache.evictions_stale);
  |]

(* Least-squares split of per-batch Pipeline.run time t_b over its hit
   and miss counts, t_b ~ h_b * hit_ns + m_b * miss_ns. No intercept:
   h_b + m_b is the batch size, so a constant would be collinear. *)
let hit_miss_split ~n ~(hits : Meter.samples) ~(misses : Meter.samples) ~(ns : Meter.samples) =
  let shh = ref 0. and smm = ref 0. and shm = ref 0. and sht = ref 0. and smt = ref 0. in
  for i = 0 to n - 1 do
    let h = hits.{i} and m = misses.{i} and t = ns.{i} in
    shh := !shh +. (h *. h);
    smm := !smm +. (m *. m);
    shm := !shm +. (h *. m);
    sht := !sht +. (h *. t);
    smt := !smt +. (m *. t)
  done;
  let det = (!shh *. !smm) -. (!shm *. !shm) in
  if det = 0. then (0., 0.)
  else (((!sht *. !smm) -. (!smt *. !shm)) /. det, ((!smt *. !shh) -. (!sht *. !shm)) /. det)

let mf_setup ~max_batches seed () =
  let r, fc = mf_rig ~seed ~cached:true in
  let fc = Option.get fc in
  warm r 4096;
  let tr = Trace.create mf_spans in
  let hits = Meter.samples max_batches
  and misses = Meter.samples max_batches
  and run_ns = Meter.samples max_batches in
  let nb = ref 0 in
  let traced () =
    Trace.enter tr sp_op;
    Trace.enter tr sp_rx;
    Nic.rx_batch_into r.nic r.batch batch_size;
    Trace.leave tr;
    let n = Batch.length r.batch in
    r.last_rx <- n;
    let s0 = Flowcache.stats fc in
    let t0 = Meter.now_ns () in
    Trace.enter tr sp_run;
    let res = Pipeline.run r.pipe r.batch in
    Trace.leave tr;
    let t1 = Meter.now_ns () in
    let s1 = Flowcache.stats fc in
    if !nb < max_batches then begin
      hits.{!nb} <- float_of_int (s1.Flowcache.hits - s0.Flowcache.hits);
      misses.{!nb} <- float_of_int (s1.Flowcache.misses - s0.Flowcache.misses);
      run_ns.{!nb} <- float_of_int (t1 - t0);
      incr nb
    end;
    Trace.enter tr sp_tx;
    tx r res;
    Trace.leave tr;
    Trace.leave tr;
    n
  in
  let chk () = check ~lossless:false r in
  let counters () = Array.append (cycle_counters r) (fc_counters fc) in
  let layer (w : Meter.window) =
    let pkts = float_of_int (Trace.count tr sp_run * batch_size) in
    let ns id = Wl.per (Trace.total_ns tr id) pkts in
    let d i = w.Meter.w_delta.(i) in
    let kpkts = w.Meter.w_items /. 1e3 in
    let hit_ns, miss_ns = hit_miss_split ~n:!nb ~hits ~misses ~ns:run_ns in
    [
      ("nic.rx_ns_per_pkt", ns sp_rx, "ns");
      ("nic.tx_ns_per_pkt", ns sp_tx, "ns");
      ("pipeline.run_ns_per_pkt", ns sp_run, "ns");
      ("flowcache.hit_ratio", Wl.per (d 6) (d 5), "ratio");
      ("flowcache.installs_per_kpkt", Wl.per (d 7) kpkts, "count");
      ("flowcache.evictions_per_kpkt", Wl.per (d 8) kpkts, "count");
      ("flowcache.hit_ns", hit_ns, "ns");
      ("flowcache.miss_ns", miss_ns, "ns");
    ]
    @ cycle_metrics w
  in
  {
    Wl.op = { Meter.run = (fun () -> serve r); check = chk; counters };
    traced = { Meter.run = traced; check = chk; counters };
    trace = tr;
    layer;
    stationary = stationary ~exact_words:false;
    finish =
      (fun () -> finish ~fast_drops:(fun () -> (Flowcache.stats fc).Flowcache.dropped_fast) r);
    close = ignore;
  }

(* The hit/miss regression samples the first 64Ki traced batches. *)
let split_batches = 65_536

let megaflow =
  {
    Wl.name = "megaflow-zipf";
    window = 16_384;
    setups = 5;
    max_ops_per_s = 50_000;
    prepare = (fun ~seed -> (shadow_check seed, mf_setup ~max_batches:split_batches seed));
  }

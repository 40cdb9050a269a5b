(* Packets-per-second throughput of the Maglev NF pipeline.

   Sustained rx -> pipeline -> tx traffic, reported as wall-clock
   megapackets/second — the number a DPDK operator would quote. Two
   {!Experiments.Measure.race}s: every Maglev configuration against
   the default direct arm, and the E17 megaflow NF with and without its
   flow cache. Absolute values are host-dependent; the paired ratios
   are the paper's Figure 2 story told in real time. *)

let batch_size = 32
let prefix = "throughput: "

(* The Figure-2 NF in every calls mode, then the E18 ablations (fusion
   pass off / GC-scanned [Bytes] payloads) and the E20 pair (the plain
   NF through the write-through byte twins vs the column plane). *)
let maglev_race ~reps ~batches =
  let fusion ?(fuse = true) ?(backing = Netstack.Slab.Off_heap) mode label =
    Experiments.Fusion_ablation.wall_arm ~mode ~fuse ~backing (prefix ^ "maglev NF, " ^ label)
  in
  let soa ~soa label =
    Experiments.Soa_ablation.wall_arm ~soa ~fuse:true ~batch_size (prefix ^ "maglev NF, " ^ label)
  in
  Experiments.Measure.race ~reps ~batches
    [
      fusion Direct "direct";
      fusion Isolated "isolated";
      fusion Tagged "tagged";
      fusion ~fuse:false Direct "direct unfused";
      fusion ~backing:Netstack.Slab.Heap_bytes Direct "direct heap-bytes";
      soa ~soa:false "direct bytes";
      soa ~soa:true "direct soa";
    ]

(* The E17 NF (linear-scan rule DB in front of the Maglev chain) over a
   Zipf mix, with and without the flow cache, plus the rx generator
   alone. The population/capacity pair is sized so the cached arm runs
   at a realistic ~95% hit rate, not an all-hit best case. *)
let megaflow_race ~reps ~batches =
  let plan =
    Netstack.Traffic.plan (Netstack.Traffic.Zipf { flows = 100_000; exponent = 1.2 })
  in
  let arm path label =
    ( prefix ^ label,
      fst
        (Experiments.Megaflow.wall_arm ~plan ~capacity:32_768
           ~rule_pad:Experiments.Megaflow.default_rule_pad ~batch_size path) )
  in
  Experiments.Measure.race ~reps ~batches
    [
      arm Uncached "megaflow NF, uncached";
      arm Cached "megaflow NF, cached";
      arm Generator "megaflow rx generator";
    ]

(* [(reps, batches)]: many short windows. A round of seven 30-50 ms
   windows stays inside one phase of the host's speed, so its paired
   ratios are tight; forty rounds spread every arm over the whole run. *)
let schedule ~quick = if quick then (10, 512) else (40, 1024)

let measure ~quick =
  let reps, batches = schedule ~quick in
  [ maglev_race ~reps ~batches; megaflow_race ~reps ~batches ]

let run ~quick =
  let reps, batches = schedule ~quick in
  Printf.printf "Pipeline throughput (wall clock, batch=%d, %d interleaved rounds of %d batches):\n"
    batch_size reps batches;
  List.iter Experiments.Measure.print (measure ~quick)

(* E18: the kernel-fusion / off-heap-slab ablation.

   Two sections, split the same way E17 is:

   - a deterministic section running the Figure-2 Maglev NF through
     fused and unfused pipelines and printing only virtual counters.
     It pins the three claims the fusion pass makes: in the calls
     modes (Direct/Tagged) fusion is *cycle-identical* — the fused
     group executes stage-major, so the stateful cache simulator sees
     the exact same line-touch sequence; under Isolated mode a fused
     group costs one protection-domain crossing where the unfused
     chain paid one per stage; and the payload backing (GC-scanned
     Bytes vs off-heap slab) is invisible to the virtual-cycle model.
   - a wall-clock race ({!Measure.race}) over the 2x2 ablation
     {unfused, fused} x {heap Bytes, off-heap slab} on the Direct-mode
     NF, plus the Tagged fused arm for the isolation-tax ratio. *)

let default_rounds = 200
let default_batch_size = 32

(* --- Deterministic section ------------------------------------------- *)

type det_run = {
  dr_crafted : int;
  dr_tx : int;
  dr_cycles : int64;
  dr_groups : string list list;
  dr_telemetry : string;  (* rendered table, used only for equality *)
  dr_reports : Netstack.Pipeline.stage_report list;  (* [] outside Isolated *)
}

type det_mode = Direct | Isolated | Tagged

let det_mode_name = function
  | Direct -> "direct"
  | Isolated -> "isolated"
  | Tagged -> "tagged"

let pipeline_mode env = function
  | Direct -> Netstack.Pipeline.Direct
  | Isolated -> Netstack.Pipeline.Isolated env.Env.manager
  | Tagged -> Netstack.Pipeline.Tagged

let run_det ?(rounds = default_rounds) ?(batch_size = default_batch_size)
    ?(backing = Netstack.Slab.Off_heap) ~mode ~fuse () =
  let telemetry = Telemetry.Registry.create () in
  let env = Env.make ~backing ~telemetry () in
  let _mg, stages = Env.maglev_nf env in
  let pipe =
    Netstack.Pipeline.create ~engine:env.Env.engine ~mode:(pipeline_mode env mode) ~fuse stages
  in
  let crafted = ref 0 and tx = ref 0 in
  for _ = 1 to rounds do
    let b = Netstack.Nic.rx_batch env.Env.nic batch_size in
    crafted := !crafted + Netstack.Batch.length b;
    match Netstack.Pipeline.run pipe b with
    | Ok out -> tx := !tx + Netstack.Nic.tx_batch env.Env.nic out
    | Error e -> failwith ("fusion_ablation: " ^ Sfi.Sfi_error.to_string e)
  done;
  {
    dr_crafted = !crafted;
    dr_tx = !tx;
    dr_cycles = Cycles.Clock.now env.Env.clock;
    dr_groups = Netstack.Pipeline.fused_groups pipe;
    dr_telemetry = Telemetry.Render.to_string telemetry;
    dr_reports =
      (match mode with
      | Isolated -> Netstack.Pipeline.stage_reports pipe
      | Direct | Tagged -> []);
  }

let groups_string groups =
  String.concat " " (List.map (fun g -> "[" ^ String.concat "+" g ^ "]") groups)

let crossings r =
  List.fold_left (fun acc sr -> acc + sr.Netstack.Pipeline.sr_entries) 0 r.dr_reports

type det_result = {
  d_rounds : int;
  d_batch_size : int;
  d_calls : (det_mode * det_run * det_run) list;  (* mode, unfused, fused *)
  d_iso_unfused : det_run;
  d_iso_fused : det_run;
  d_bytes : det_run;  (* direct fused, Heap_bytes backing *)
  d_slab : det_run;   (* direct fused, Off_heap backing *)
}

let run_stats ?(rounds = default_rounds) () =
  let batch_size = default_batch_size in
  let det = run_det ~rounds ~batch_size in
  {
    d_rounds = rounds;
    d_batch_size = batch_size;
    d_calls =
      List.map
        (fun mode -> (mode, det ~mode ~fuse:false (), det ~mode ~fuse:true ()))
        [ Direct; Tagged ];
    d_iso_unfused = det ~mode:Isolated ~fuse:false ();
    d_iso_fused = det ~mode:Isolated ~fuse:true ();
    d_bytes = det ~backing:Netstack.Slab.Heap_bytes ~mode:Direct ~fuse:true ();
    d_slab = det ~backing:Netstack.Slab.Off_heap ~mode:Direct ~fuse:true ();
  }

let same_outputs a b = a.dr_crafted = b.dr_crafted && a.dr_tx = b.dr_tx

let print_stats d =
  Printf.printf
    "E18: kernel fusion / off-heap slab ablation (deterministic)\n\
    \  NF = csum -> ttl-dec -> maglev-gre, 1024 uniform flows, batch=%d, rounds=%d\n\n"
    d.d_batch_size d.d_rounds;
  print_endline "calls modes: a fused pipeline must be cycle-identical to the unfused chain";
  Table.print
    ~header:[ "mode"; "variant"; "groups"; "crafted"; "tx"; "virtual cycles" ]
    (List.concat_map
       (fun (mode, unfused, fused) ->
         let row variant r =
           [
             det_mode_name mode;
             variant;
             groups_string r.dr_groups;
             Table.fi r.dr_crafted;
             Table.fi r.dr_tx;
             Int64.to_string r.dr_cycles;
           ]
         in
         [ row "unfused" unfused; row "fused" fused ])
       d.d_calls);
  List.iter
    (fun (mode, unfused, fused) ->
      Printf.printf "  %s: cycles identical=%b outputs identical=%b telemetry identical=%b\n"
        (det_mode_name mode)
        (Int64.equal unfused.dr_cycles fused.dr_cycles)
        (same_outputs unfused fused)
        (String.equal unfused.dr_telemetry fused.dr_telemetry))
    d.d_calls;
  print_newline ();
  print_endline "isolated mode: one protection-domain crossing per fused group";
  (* crossings/batch column: total crossings / batches served. *)
  let iso_row variant r =
    [
      variant;
      groups_string r.dr_groups;
      Table.fi (List.length r.dr_reports);
      Table.fi (crossings r);
      Table.ff ~decimals:2 (float_of_int (crossings r) /. float_of_int d.d_rounds);
      Int64.to_string r.dr_cycles;
    ]
  in
  Table.print
    ~header:[ "variant"; "groups"; "domains"; "crossings"; "crossings/batch"; "virtual cycles" ]
    [ iso_row "unfused" d.d_iso_unfused; iso_row "fused" d.d_iso_fused ];
  Printf.printf "  outputs identical (unfused vs fused)=%b  crossings saved=%d\n"
    (same_outputs d.d_iso_unfused d.d_iso_fused)
    (crossings d.d_iso_unfused - crossings d.d_iso_fused);
  print_newline ();
  print_endline "payload backing: the virtual-cycle model cannot see the storage substrate";
  Table.print
    ~header:[ "backing"; "crafted"; "tx"; "virtual cycles" ]
    [
      [
        "heap-bytes";
        Table.fi d.d_bytes.dr_crafted;
        Table.fi d.d_bytes.dr_tx;
        Int64.to_string d.d_bytes.dr_cycles;
      ];
      [
        "off-heap-slab";
        Table.fi d.d_slab.dr_crafted;
        Table.fi d.d_slab.dr_tx;
        Int64.to_string d.d_slab.dr_cycles;
      ];
    ];
  Printf.printf "  cycles identical=%b outputs identical=%b\n"
    (Int64.equal d.d_bytes.dr_cycles d.d_slab.dr_cycles)
    (same_outputs d.d_bytes d.d_slab)

(* --- Sharded determinism block ----------------------------------------- *)

(* The Maglev NF as a shard stage constructor: every queue gets its
   own Maglev instance on its own clock, and the resulting pipelines
   are fused (the default). The printed ledger and merged telemetry
   must be byte-identical for any shard count — `repro check fusion`
   diffs 1/2/4 shards through this block. *)
let shard_stages (ctx : Netstack.Shard.queue_ctx) =
  let clock = ctx.Netstack.Shard.qc_clock in
  let mg = Netstack.Maglev.create ~clock ~backends:Env.maglev_backends () in
  [
    Netstack.Filters.checksum_verify;
    Netstack.Filters.ttl_decrement;
    Netstack.Filters.maglev_gre mg ~vip:Env.vip;
  ]

let run_shard_stats ?(rounds = default_rounds) ~shards () =
  let spec =
    Netstack.Shard.default_spec ~shards ~queues:4 ~rounds ~batch_size:default_batch_size
      ~seed:2017L ~flows:1024 ~mode:Netstack.Shard.Direct ~stages:shard_stages ()
  in
  Netstack.Shard.run (Netstack.Shard.create spec)

(* Deliberately no shard count and no wall clock anywhere: the block
   must diff clean across shard counts. *)
let print_shard_stats (r : Netstack.Shard.result) =
  Printf.printf "fused shard ledger: crafted=%d served=%d degraded=%d dropped=%d\n"
    r.Netstack.Shard.r_crafted r.Netstack.Shard.r_served r.Netstack.Shard.r_degraded
    r.Netstack.Shard.r_dropped;
  Telemetry.Render.print ~title:"fused shard telemetry" r.Netstack.Shard.r_telemetry

(* --- Wall-clock section ----------------------------------------------- *)

(* One race arm: the NF in a fresh environment with its own telemetry
   registry, served through one recycled batch. *)
let wall_arm ~mode ~fuse ~backing label =
  let env = Env.make ~backing ~telemetry:(Telemetry.Registry.create ()) () in
  let _mg, stages = Env.maglev_nf env in
  let pipe =
    Netstack.Pipeline.create ~engine:env.Env.engine ~mode:(pipeline_mode env mode) ~fuse stages
  in
  let batch = Netstack.Batch.create ~capacity:default_batch_size in
  (label, Measure.serve ~nic:env.Env.nic ~pipe ~batch)

type wall_result = {
  w_batches : int;
  w_reps : int;
  w_rows : Measure.row list;
      (* direct fused off-heap first (the reference), tagged last *)
}

let run_wall ~reps ~batches () =
  let arm mode ~fuse backing label = wall_arm ~mode ~fuse ~backing label in
  let rows =
    Measure.race ~reps ~batches
      [
        arm Direct ~fuse:true Netstack.Slab.Off_heap "fused / off-heap-slab";
        arm Direct ~fuse:true Netstack.Slab.Heap_bytes "fused / heap-bytes";
        arm Direct ~fuse:false Netstack.Slab.Off_heap "unfused / off-heap-slab";
        arm Direct ~fuse:false Netstack.Slab.Heap_bytes "unfused / heap-bytes";
        arm Tagged ~fuse:true Netstack.Slab.Off_heap "tagged fused / off-heap-slab";
      ]
  in
  { w_batches = batches; w_reps = reps; w_rows = rows }

let direct_target_mpps = 0.578
let tagged_target_slowdown = 1.5

let print_wall w =
  Printf.printf
    "E18: kernel fusion / off-heap slab ablation (wall clock)\n\
    \  direct-mode Maglev NF (tagged arm last), batch=%d, %d interleaved rounds of %d batches\n"
    default_batch_size w.w_reps w.w_batches;
  Measure.print w.w_rows;
  let direct = List.hd w.w_rows and tagged = List.nth w.w_rows 4 in
  (* The tagged arm's paired ratio is tagged/direct; its inverse is the
     slowdown, so the quartiles swap ends. *)
  let slowdown = 1. /. tagged.Measure.ratio in
  Printf.printf
    "  tagged/direct slowdown (fused, off-heap): %.2fx [%.2f, %.2f] (target <= %.1fx — %s)\n\
    \  direct fused off-heap: %.3f Mpps (target >= %.3f — %s)\n"
    slowdown (1. /. tagged.Measure.ratio_q3) (1. /. tagged.Measure.ratio_q1)
    tagged_target_slowdown
    (if slowdown <= tagged_target_slowdown then "met" else "MISSED")
    direct.Measure.mpps direct_target_mpps
    (if direct.Measure.mpps >= direct_target_mpps then "met" else "MISSED")

(* --- Combined entry point (repro registry) ----------------------------- *)

type result = {
  stats : det_result;
  shard : Netstack.Shard.result;
  wall : wall_result;
}

let run ~quick () =
  let rounds = if quick then 60 else default_rounds in
  let stats = run_stats ~rounds () in
  let shard = run_shard_stats ~rounds ~shards:1 () in
  let wall =
    if quick then run_wall ~reps:10 ~batches:256 () else run_wall ~reps:40 ~batches:1024 ()
  in
  { stats; shard; wall }

let print r =
  print_stats r.stats;
  print_newline ();
  print_shard_stats r.shard;
  print_newline ();
  print_wall r.wall

type entry = {
  id : string;
  description : string;
  run : quick:bool -> unit;
  check : Check.spec option;
}

let or_fail = function Ok x -> x | Error msg -> failwith msg

(* Every golden-pinned block is replayed twice and, where the engine is
   sharded, re-rendered at 2 and 4 shards; no block may carry a failed
   identity line. *)
let spec ?(shards = [ 1; 2; 4 ]) ?(predicates = []) stats =
  Some { Check.stats; shards; predicates = Check.identity @ predicates }

let entries ~corpus =
  [
    {
      id = "fig2";
      description = "E1/E10: Figure 2 - isolation overhead vs Maglev, by batch size";
      run =
        (fun ~quick ->
          let trials = if quick then 30 else 100 in
          let batches = if quick then [ 1; 16; 256 ] else Fig2.default_batches in
          Fig2.print (Fig2.run ~batches ~trials ()));
      check = None;
    };
    {
      id = "pipeline-length";
      description = "E2: overhead independence of pipeline length";
      run =
        (fun ~quick ->
          let trials = if quick then 30 else 100 in
          Pipeline_length.print (Pipeline_length.run ~trials ()));
      check = None;
    };
    {
      id = "recovery";
      description = "E3: fault-recovery cost (paper: 4389 cycles)";
      run =
        (fun ~quick ->
          let trials = if quick then 100 else 1000 in
          Recovery.print (Recovery.run ~trials ()));
      check = None;
    };
    {
      id = "sfi-baselines";
      description = "E4: copying / tagged-heap / linear SFI comparison";
      run =
        (fun ~quick ->
          let trials = if quick then 30 else 100 in
          Sfi_baselines.print (Sfi_baselines.run ~trials ()));
      check = None;
    };
    {
      id = "ifc-matrix";
      description = "E5: Buffer-listing detection matrix (lines 16/17)";
      run = (fun ~quick:_ -> Ifc_matrix.print (Ifc_matrix.run ()));
      check = None;
    };
    {
      id = "ifc-store";
      description = "E6: secure-store verification + sectype copy cost";
      run = (fun ~quick:_ -> Ifc_store.print (Ifc_store.run ()));
      check = None;
    };
    {
      id = "ifc-scaling";
      description = "E7: verification cost scaling / compositional summaries";
      run =
        (fun ~quick ->
          let client_counts = if quick then [ 2; 8 ] else [ 2; 4; 8; 16; 32 ] in
          Ifc_scaling.print (Ifc_scaling.run ~client_counts ()));
      check = None;
    };
    {
      id = "fig3";
      description = "E8: Figure 3 - checkpointing the firewall rule DB";
      run = (fun ~quick:_ -> Fig3.print (Fig3.run ()));
      check = None;
    };
    {
      id = "ckpt-cost";
      description = "E9: checkpoint work vs DB size and sharing";
      run =
        (fun ~quick ->
          let sizes = if quick then [ (100, 2); (100, 4) ] else Ckpt_cost.default_sizes in
          Ckpt_cost.print (Ckpt_cost.run ~sizes ()));
      check = None;
    };
    {
      id = "availability";
      description = "E11 (extension): availability under fault injection";
      run =
        (fun ~quick ->
          let batches = if quick then 400 else 2000 in
          Availability.print (Availability.run ~batches ()));
      check = None;
    };
    {
      id = "rollback";
      description = "E13 (extension): middlebox rollback-recovery (ckpt + replay)";
      run =
        (fun ~quick ->
          let inputs = if quick then 517 else 2021 in
          Rollback.print (Rollback.run ~inputs ()));
      check = None;
    };
    {
      id = "multicore";
      description = "E12 (extension): multi-core scaling of isolated pipelines";
      run =
        (fun ~quick ->
          let batches_per_core = if quick then 800 else 3000 in
          Multicore.print (Multicore.run ~batches_per_core ()));
      check = None;
    };
    {
      id = "scale";
      description = "E14 (extension): sharded engine - scaling vs shard count, fixed queues";
      run =
        (fun ~quick ->
          let rounds = if quick then 300 else Scaling.default_rounds in
          let modes =
            if quick then Netstack.Shard.[ Direct; Isolated ] else Scaling.default_modes
          in
          Scaling.print (Scaling.run ~modes ~rounds ()));
      check =
        spec (fun ~shards ->
            Check.capture (fun () ->
                List.iter
                  (fun mode -> Scaling.print_stats ~mode (snd (Scaling.run_one ~mode ~shards ())))
                  Netstack.Shard.[ Direct; Isolated ]));
    };
    {
      id = "storm";
      description = "E15 (extension): deterministic fault storm vs restart policy";
      run =
        (fun ~quick ->
          let rounds = if quick then 150 else Storm.default_rounds in
          Storm.print (Storm.run ~rounds ()));
      check =
        spec (fun ~shards ->
            Check.capture (fun () ->
                List.iter
                  (fun policy -> Storm.print_stats ~policy (Storm.run_one ~shards ~policy ()))
                  Storm.default_policies));
    };
    {
      id = "ckpt-incr";
      description = "E16 (extension): incremental dirty-tracking checkpoints";
      run =
        (fun ~quick ->
          let iters = if quick then 8 else 30 in
          let full_iters = if quick then 4 else 12 in
          Ckpt_incr.print (Ckpt_incr.run ~iters ~full_iters ()));
      check =
        (* Minimal iteration counts: the deterministic columns do not
           depend on them. *)
        spec ~shards:[ 1 ] (fun ~shards:_ ->
            Check.capture (fun () ->
                Ckpt_incr.print_stats (snd (Ckpt_incr.run ~iters:4 ~full_iters:1 ()))));
    };
    {
      id = "flowcache";
      description = "E17 (extension): megaflow flow-cache fast path - hit rate vs Mpps";
      run = (fun ~quick -> Megaflow.print (Megaflow.run ~quick ()));
      check =
        spec
          ~predicates:[ Check.Present "flowcache ledger match (cached vs uncached): true" ]
          (fun ~shards ->
            Check.capture (fun () ->
                Megaflow.print_stats_pair (Megaflow.run_stats_pair ~shards ())));
    };
    {
      id = "fusion";
      description = "E18 (extension): kernel fusion / off-heap slab ablation";
      run = (fun ~quick -> Fusion_ablation.print (Fusion_ablation.run ~quick ()));
      check =
        spec (fun ~shards ->
            Check.capture (fun () ->
                Fusion_ablation.print_stats (Fusion_ablation.run_stats ());
                print_newline ();
                Fusion_ablation.print_shard_stats (Fusion_ablation.run_shard_stats ~shards ())));
    };
    {
      id = "recover";
      description = "E19 (extension): durable crash-restart recovery vs full rebuild";
      run =
        (fun ~quick ->
          Recover.print_stats
            (Recover.run_stats ~rounds:(if quick then 120 else Recover.default_rounds) ());
          print_newline ();
          or_fail (Recover.run_corpus ~dir:corpus ());
          print_newline ();
          if quick then
            Recover.print_wall
              (Recover.run_wall ~buckets:(1 lsl 16) ~total:4_000_000
                 ~persist_every:500_000 ())
          else Recover.print_wall (Recover.run_wall ()));
      check =
        spec (fun ~shards ->
            Check.capture (fun () ->
                Recover.print_stats (Recover.run_stats ~shards ());
                print_newline ();
                or_fail (Recover.run_corpus ~dir:corpus ())));
    };
    {
      id = "soa";
      description = "E20 (extension): structure-of-arrays header plane ablation";
      run = (fun ~quick -> Soa_ablation.print (Soa_ablation.run ~quick ()));
      check =
        spec (fun ~shards ->
            Check.capture (fun () ->
                Soa_ablation.print_stats (Soa_ablation.run_stats ());
                print_newline ();
                Soa_ablation.print_shard_stats (Soa_ablation.run_shard_stats ~shards ())));
    };
    {
      id = "reverify";
      description = "E21 (extension): incremental summary-cached IFC reverification";
      run =
        (fun ~quick ->
          let funcs = if quick then 200 else Reverify.default_funcs in
          let iters = if quick then 2 else Reverify.default_iters in
          let edits = max 1 (funcs / 100) in
          Reverify.print_stats (Reverify.run_stats ~funcs ~edits ~iters ());
          print_newline ();
          Reverify.print_wall (Reverify.run_wall ~funcs ~edits ()));
      check =
        spec ~shards:[ 1 ] (fun ~shards:_ ->
            Check.capture (fun () -> Reverify.print_stats (Reverify.run_stats ())));
    };
    {
      id = "ablations";
      description = "A1-A3: design-choice ablations";
      run =
        (fun ~quick ->
          let trials = if quick then 100 else 1000 in
          Ablations.print (Ablations.run ~trials ()));
      check = None;
    };
  ]

let all = entries ~corpus:Recover.default_corpus

let resolve entries = function
  | [] -> Ok entries
  | ids -> (
    let find id = List.find_opt (fun e -> String.equal e.id id) entries in
    match List.filter (fun id -> find id = None) ids with
    | [] -> Ok (List.filter_map find ids)
    | unknown -> Error unknown)

(* Wall-clock microbenchmarks.

   The experiment tables are produced by the deterministic cycle model;
   these rows time the same operations in real nanoseconds on the
   host, as a sanity check that relative ordering survives outside the
   simulator (absolute values are host-dependent and not comparable
   with the paper's Xeon numbers). One arm per paper artefact, all
   raced together by {!Experiments.Measure.race}. *)

(* Every window lasts at least this long: far above the clock's
   resolution, short enough for a few dozen arms x [reps] rounds. *)
let min_window_s = 0.02
let reps = 10

(* An arm repeating [op] [n] times per batch, [n] doubled up front until
   one window lasts [min_window_s]. Each run of [op] is one item, so the
   row's rate is runs per second. *)
let op_arm name op =
  let window n =
    snd
      (Experiments.Measure.time (fun () ->
           for _ = 1 to n do
             op ()
           done))
  in
  let n = ref 1 in
  while window !n < min_window_s do
    n := 2 * !n
  done;
  let n = !n in
  ( "beyond-safety " ^ name,
    fun batches ->
      for _ = 1 to batches * n do
        op ()
      done;
      batches * n )

let make_counter_rref () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"svc" () in
  Sfi.Rref.create d ~label:"counter" (ref 0)

(* E1/Figure 2: the protected call itself. *)
let rref_invoke () =
  let rref = make_counter_rref () in
  op_arm "fig2: rref invoke (protected call)" (fun () ->
      match Sfi.Rref.invoke rref (fun c -> incr c) with Ok () -> () | Error _ -> assert false)

(* The fast-path variant: first call validates in full and fingerprints
   the table epoch / caller / generation / policy; later calls skip the
   descriptor touch and policy evaluation but still run the weak
   upgrade, so revocation semantics are unchanged. *)
let rref_invoke_cached () =
  let rref = make_counter_rref () in
  op_arm "fig2: rref invoke (cached)" (fun () ->
      match Sfi.Rref.invoke_cached rref (fun c -> incr c) with
      | Ok () -> ()
      | Error _ -> assert false)

let direct_call () =
  let c = ref 0 in
  let f = Sys.opaque_identity (fun () -> incr c) in
  op_arm "fig2: plain function call (baseline)" (fun () -> f ())

(* E3: catch + recover. *)
let recovery () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"flaky" ~recovery:(fun _ -> ()) () in
  op_arm "e3: panic catch + domain recovery" (fun () ->
      (match Sfi.Pdomain.execute d (fun () -> Sfi.Panic.panic "x") with
      | Error _ -> ()
      | Ok _ -> assert false);
      match Sfi.Manager.recover mgr d with Ok () -> () | Error _ -> assert false)

(* E4: one 32-packet batch through the Maglev NF, direct vs isolated. *)
let pipeline name mode =
  let _, serve =
    Experiments.Fusion_ablation.wall_arm ~mode ~fuse:true ~backing:Netstack.Slab.Off_heap name
  in
  op_arm name (fun () -> ignore (serve 1))

let maglev_lookup () =
  let clock = Cycles.Clock.create () in
  let mg = Netstack.Maglev.create ~clock ~backends:Experiments.Env.maglev_backends () in
  let rng = Cycles.Rng.create 3L in
  let traffic = Netstack.Traffic.create ~rng (Netstack.Traffic.Uniform { flows = 1024 }) in
  op_arm "e4: maglev lookup (per flow)" (fun () ->
      ignore (Netstack.Maglev.lookup mg (Netstack.Traffic.next_flow traffic)))

(* E14: the RSS steering decision on the receive path. *)
let rss_steer () =
  let rss = Netstack.Rss.create ~queues:8 () in
  let rng = Cycles.Rng.create 11L in
  let traffic = Netstack.Traffic.create ~rng (Netstack.Traffic.Uniform { flows = 1024 }) in
  op_arm "e14: rss steer (per flow)" (fun () ->
      ignore (Netstack.Rss.queue rss (Netstack.Traffic.next_flow traffic)))

(* E5/E6: verification passes. *)
let verify name strategy program =
  op_arm name (fun () ->
      match Ifc.Verifier.verify ~strategy program with Ok _ -> () | Error _ -> assert false)

(* E8/E9: checkpointing the firewall DB. *)
let checkpoint name strategy =
  let db =
    Experiments.Ckpt_cost.make_database ~rng:(Cycles.Rng.create 7L) ~rules:500 ~alias_factor:2
  in
  op_arm name (fun () -> ignore (Chkpt.Checkpointable.checkpoint ~strategy Chkpt.Trie.desc db))

(* E16: steady-state incremental sync of the same 500-rule DB — the
   O(dirty) counterpart of the full-traversal fig3 rows. *)
let incr_sync name ~dirty_pct =
  op_arm name (Experiments.Ckpt_incr.bench_incr ~mode:Chkpt.Incr.Serial ~dirty_pct)

let arms () =
  [
    direct_call ();
    rref_invoke ();
    rref_invoke_cached ();
    recovery ();
    pipeline "e4: maglev NF batch, direct" Direct;
    pipeline "e4: maglev NF batch, isolated" Isolated;
    maglev_lookup ();
    rss_steer ();
    verify "e5: verify buffer (exact)" Ifc.Verifier.Exact Ifc.Examples.buffer_leak_safe;
    verify "e6: verify store-32 (exact/inline)" Ifc.Verifier.Exact
      (Ifc.Examples.secure_store ~clients:32 ());
    verify "e6: verify store-32 (compositional)" Ifc.Verifier.Compositional
      (Ifc.Examples.secure_store ~clients:32 ());
    verify "e6: verify store-32 (andersen)" Ifc.Verifier.Andersen
      (Ifc.Examples.secure_store ~clients:32 ());
    checkpoint "fig3: checkpoint 500-rule DB (rc flag)" Chkpt.Checkpointable.Rc_flag;
    checkpoint "fig3: checkpoint 500-rule DB (addr set)" Chkpt.Checkpointable.Addr_set;
    checkpoint "fig3: checkpoint 500-rule DB (naive)" Chkpt.Checkpointable.Naive;
    incr_sync "e16: incremental sync 500-rule DB (1% dirty)" ~dirty_pct:1;
    incr_sync "e16: incremental sync 500-rule DB (10% dirty)" ~dirty_pct:10;
    (* E21: summary-cached reverification over the generated
       500-function corpus. The compositional row hits Summary's
       per-instance memo after the first run, so it prices summary
       {e application} (the main pass), directly comparable with the
       cache-hit row; [cold] rebuilds from an empty cache every run;
       [warm] edits 1% of bodies before each run — the steady-state
       editing workload. Exact inlining takes ~500ms on this corpus
       (path re-emission), so the exact strategy keeps its store-32
       row above. *)
    verify "e21: verify gen-500 (compositional)" Ifc.Verifier.Compositional
      (Ifc.Gen.generate Ifc.Gen.default);
    op_arm "e21: ifc summary cold (gen-500)" (Experiments.Reverify.bench_cold ());
    op_arm "e21: ifc summary hit (gen-500)" (Experiments.Reverify.bench_hit ());
    op_arm "e21: ifc summary warm-1pct (gen-500)" (Experiments.Reverify.bench_warm ());
  ]

(* The race's rows sorted by name — the JSON emitter and the printed
   table share one race. *)
let measure () =
  List.sort
    (fun (a : Experiments.Measure.row) b -> compare a.name b.name)
    (Experiments.Measure.race ~reps ~batches:1 (arms ()))

let print rows =
  Printf.printf "Wall-clock microbenchmarks (median of %d interleaved rounds, monotonic clock):\n"
    reps;
  print_endline "  (host-dependent; the cycle-model tables above are the paper comparison)";
  List.iter
    (fun (r : Experiments.Measure.row) ->
      Printf.printf "  %-60s %12.1f ns/run %10.1f words/run\n" r.name (1e3 /. r.mpps)
        r.words_per_pkt)
    rows

let run () = print (measure ())

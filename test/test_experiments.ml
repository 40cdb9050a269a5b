(* Integration tests over the experiment harness: each test asserts the
   *shape* DESIGN.md §4 promises for the corresponding paper artefact
   (who wins, by roughly what factor, where crossovers fall). These are
   the repository's acceptance tests. *)

open Experiments

let test_fig2_shape () =
  let rows = Fig2.run ~batches:[ 1; 32; 256 ] ~warmup:10 ~trials:30 () in
  match rows with
  | [ b1; b32; b256 ] ->
    (* ~90 cycles per protected call at batch 1. *)
    Alcotest.(check bool)
      (Printf.sprintf "batch-1 overhead %.0f in [60,130]" b1.Fig2.overhead_per_call)
      true
      (b1.Fig2.overhead_per_call >= 60. && b1.Fig2.overhead_per_call <= 130.);
    (* Overhead grows with batch size (cache pressure), mildly. *)
    Alcotest.(check bool) "grows with batch" true
      (b256.Fig2.overhead_per_call >= b1.Fig2.overhead_per_call);
    Alcotest.(check bool) "grows < 2x" true
      (b256.Fig2.overhead_per_call <= 2. *. b1.Fig2.overhead_per_call);
    (* "Roughly the cost of 2 or 3 L3 cache accesses". *)
    Alcotest.(check bool)
      (Printf.sprintf "%.2f L3 equivalents in [1.5, 3.5]" b1.Fig2.l3_equivalents)
      true
      (b1.Fig2.l3_equivalents >= 1.5 && b1.Fig2.l3_equivalents <= 3.5);
    (* Negligible vs Maglev for large batches; not negligible at 1. *)
    Alcotest.(check bool) "under 1% at 256" true (b256.Fig2.overhead_vs_maglev < 0.01);
    Alcotest.(check bool) "under 2% at 32" true (b32.Fig2.overhead_vs_maglev < 0.02);
    Alcotest.(check bool) "material at batch 1" true (b1.Fig2.overhead_vs_maglev > 0.05);
    (* Maglev batch cost grows with batch size. *)
    Alcotest.(check bool) "maglev cost grows" true
      (b256.Fig2.maglev_cycles > 10. *. b1.Fig2.maglev_cycles)
  | _ -> Alcotest.fail "expected 3 rows"

let test_pipeline_length_independence () =
  let rows = Pipeline_length.run ~lengths:[ 1; 4; 16 ] ~trials:30 () in
  Alcotest.(check int) "3 rows" 3 (List.length rows);
  let dev = Pipeline_length.max_deviation rows in
  Alcotest.(check bool) (Printf.sprintf "deviation %.3f < 0.10" dev) true (dev < 0.10)

let test_recovery_shape () =
  let r = Recovery.run ~trials:100 () in
  (* Same order of magnitude as the paper's 4389 cycles. *)
  Alcotest.(check bool)
    (Printf.sprintf "total %.0f in [2000, 9000]" r.Recovery.total_mean)
    true
    (r.Recovery.total_mean >= 2000. && r.Recovery.total_mean <= 9000.);
  (* Unwinding dominates the recover step. *)
  Alcotest.(check bool) "catch >> recover" true
    (Cycles.Stats.mean r.Recovery.catch_cycles > Cycles.Stats.mean r.Recovery.recover_cycles)

let test_sfi_baselines_shape () =
  match Sfi_baselines.run ~trials:30 () with
  | [ direct; isolated; copying; tagged ] ->
    Alcotest.(check (float 0.)) "direct is the baseline" 0. direct.Sfi_baselines.overhead_vs_direct;
    (* Linear SFI: negligible overhead. *)
    Alcotest.(check bool)
      (Printf.sprintf "linear SFI %.1f%% < 10%%" (100. *. isolated.Sfi_baselines.overhead_vs_direct))
      true
      (isolated.Sfi_baselines.overhead_vs_direct < 0.10);
    (* Copying: unacceptable at line rate. *)
    Alcotest.(check bool) "copying > 50%" true (copying.Sfi_baselines.overhead_vs_direct > 0.5);
    (* Tagged heap: the paper's "over 100%". *)
    Alcotest.(check bool)
      (Printf.sprintf "tagged %.0f%% > 100%%" (100. *. tagged.Sfi_baselines.overhead_vs_direct))
      true
      (tagged.Sfi_baselines.overhead_vs_direct > 1.0);
    (* Ordering: ours beats both traditional architectures comfortably. *)
    Alcotest.(check bool) "isolated cheapest protection" true
      (isolated.Sfi_baselines.cycles_per_batch < copying.Sfi_baselines.cycles_per_batch
      && isolated.Sfi_baselines.cycles_per_batch < tagged.Sfi_baselines.cycles_per_batch)
  | _ -> Alcotest.fail "expected 4 rows"

let find_row rows ~program ~strategy =
  List.find_opt
    (fun r ->
      String.equal r.Ifc_matrix.program program
      && String.equal r.Ifc_matrix.strategy strategy)
    rows

let test_ifc_matrix_shape () =
  let rows = Ifc_matrix.run () in
  (* Every analysis is sound except the naive no-alias baseline. *)
  List.iter
    (fun r ->
      let expect_sound = not (String.equal r.Ifc_matrix.strategy "naive-no-alias") in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s soundness" r.Ifc_matrix.program r.Ifc_matrix.strategy)
        expect_sound r.Ifc_matrix.sound)
    rows;
  (* The paper's specific cells. *)
  (match find_row rows ~program:"buffer, direct leak" ~strategy:"exact-ownership" with
  | Some r -> Alcotest.(check (list int)) "line 16 flagged" [ 16 ] r.Ifc_matrix.flow_findings
  | None -> Alcotest.fail "missing row");
  (match find_row rows ~program:"buffer, alias exploit" ~strategy:"exact-ownership" with
  | Some r ->
    Alcotest.(check (list int)) "ownership error at 17" [ 17 ] r.Ifc_matrix.ownership_errors
  | None -> Alcotest.fail "missing row");
  (match find_row rows ~program:"buffer, alias exploit" ~strategy:"naive-no-alias" with
  | Some r ->
    Alcotest.(check string) "false negative" "VERIFIED" r.Ifc_matrix.verdict;
    Alcotest.(check string) "yet it leaks" "leaks" r.Ifc_matrix.dynamic
  | None -> Alcotest.fail "missing row");
  match find_row rows ~program:"buffer, alias exploit" ~strategy:"andersen-points-to" with
  | Some r -> Alcotest.(check (list int)) "andersen flags 17" [ 17 ] r.Ifc_matrix.flow_findings
  | None -> Alcotest.fail "missing row"

let test_ifc_store_shape () =
  let r = Ifc_store.run ~clients:5 () in
  List.iter
    (fun s ->
      let expected = if String.equal s.Ifc_store.variant "clean" then "VERIFIED" else "REJECTED" in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s verdict" s.Ifc_store.variant s.Ifc_store.strategy)
        expected s.Ifc_store.verdict;
      match s.Ifc_store.expected_line with
      | Some l ->
        Alcotest.(check (list int)) "finding at exactly the seeded line" [ l ]
          s.Ifc_store.finding_lines;
        Alcotest.(check int) "bug is real (dynamic leak)" 1 s.Ifc_store.dynamic_leaks
      | None -> Alcotest.(check int) "clean has no dynamic leaks" 0 s.Ifc_store.dynamic_leaks)
    r.Ifc_store.store;
  match r.Ifc_store.copies with
  | [ rust; sectype ] ->
    Alcotest.(check bool) "rust version accepted" true rust.Ifc_store.accepted;
    Alcotest.(check int) "rust version copies nothing" 0 rust.Ifc_store.runtime_copies;
    Alcotest.(check bool) "sectype version accepted after repair" true sectype.Ifc_store.accepted;
    Alcotest.(check bool) "sectype pays copies" true (sectype.Ifc_store.runtime_copies > 0)
  | _ -> Alcotest.fail "expected 2 copy rows"

let test_ifc_scaling_shape () =
  let rows = Ifc_scaling.run ~client_counts:[ 4; 16 ] () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "clients=%d all verified" r.Ifc_scaling.clients)
        true r.Ifc_scaling.all_verified;
      Alcotest.(check bool) "summaries cheaper than inlining" true
        (r.Ifc_scaling.compositional_transfers < r.Ifc_scaling.exact_transfers);
      Alcotest.(check bool) "alias analysis is the most expensive" true
        (r.Ifc_scaling.andersen_transfers > r.Ifc_scaling.exact_transfers))
    rows;
  (* Compositional advantage widens with program size. *)
  match rows with
  | [ small; large ] ->
    let ratio r =
      float_of_int r.Ifc_scaling.exact_transfers
      /. float_of_int r.Ifc_scaling.compositional_transfers
    in
    Alcotest.(check bool)
      (Printf.sprintf "advantage grows (%.2f -> %.2f)" (ratio small) (ratio large))
      true
      (ratio large >= ratio small)
  | _ -> Alcotest.fail "expected 2 rows"

let test_fig3_shape () =
  match Fig3.run () with
  | [ naive; addr; flag ] ->
    (* Figure 3b: naive duplicates the shared rule and loses sharing. *)
    Alcotest.(check int) "naive: one copy per leaf" 3 naive.Fig3.copies;
    Alcotest.(check bool) "naive loses sharing" false naive.Fig3.sharing_preserved;
    Alcotest.(check int) "naive copy has phantom rules" 3 naive.Fig3.rules_in_copy;
    (* Both sound strategies copy each rule once. *)
    Alcotest.(check int) "addr-set: 2 copies" 2 addr.Fig3.copies;
    Alcotest.(check int) "rc-flag: 2 copies" 2 flag.Fig3.copies;
    Alcotest.(check bool) "both preserve sharing" true
      (addr.Fig3.sharing_preserved && flag.Fig3.sharing_preserved);
    (* Only the conventional one pays hash lookups. *)
    Alcotest.(check int) "addr-set pays lookups" 3 addr.Fig3.hash_lookups;
    Alcotest.(check int) "rc-flag pays none" 0 flag.Fig3.hash_lookups
  | _ -> Alcotest.fail "expected 3 rows"

let test_ckpt_cost_shape () =
  let rows = Ckpt_cost.run ~sizes:[ (100, 2); (100, 4) ] () in
  List.iter
    (fun r ->
      Alcotest.(check int) "dedup copies = rules" r.Ckpt_cost.rules r.Ckpt_cost.dedup_copies;
      Alcotest.(check int) "naive copies = leaves" r.Ckpt_cost.leaves r.Ckpt_cost.naive_copies;
      Alcotest.(check (float 1e-9)) "overcopy = alias factor"
        (float_of_int r.Ckpt_cost.alias_factor)
        r.Ckpt_cost.naive_overcopy;
      Alcotest.(check int) "addr-set lookups = leaves" r.Ckpt_cost.leaves
        r.Ckpt_cost.addr_set_lookups;
      Alcotest.(check int) "rc-flag lookups = 0" 0 r.Ckpt_cost.rc_flag_lookups)
    rows

let test_availability_shape () =
  let rows = Availability.run ~probabilities:[ 0.0; 0.02 ] ~batches:400 () in
  match rows with
  | [ clean; faulty ] ->
    Alcotest.(check (float 0.)) "no faults -> 100%" 1.0 clean.Availability.availability;
    Alcotest.(check bool) "clean run: direct survives" true clean.Availability.direct_survives;
    Alcotest.(check bool) "faults occurred" true (faulty.Availability.faults > 0);
    Alcotest.(check int) "every fault recovered" faulty.Availability.faults
      faulty.Availability.recoveries;
    Alcotest.(check bool) "availability degrades gracefully" true
      (faulty.Availability.availability > 0.85);
    Alcotest.(check bool) "loss = one batch per fault" true
      (faulty.Availability.packets_lost = 32 * faulty.Availability.faults);
    Alcotest.(check int) "zero leaks" 0 faulty.Availability.buffers_leaked;
    Alcotest.(check bool) "direct pipeline dies" false faulty.Availability.direct_survives;
    Alcotest.(check bool) "MTTR same order as E3" true
      (faulty.Availability.mttr_cycles > 2000. && faulty.Availability.mttr_cycles < 12000.)
  | _ -> Alcotest.fail "expected 2 rows"

let test_rollback_shape () =
  let rows = Rollback.run ~intervals:[ 1; 64 ] ~inputs:517 () in
  match rows with
  | [ tight; loose ] ->
    Alcotest.(check bool) "every recovery exact" true
      (tight.Rollback.recovered_exact && loose.Rollback.recovered_exact);
    Alcotest.(check bool) "steady-state cost falls with interval" true
      (loose.Rollback.ckpt_nodes_per_input < tight.Rollback.ckpt_nodes_per_input);
    Alcotest.(check bool) "replay grows with interval" true
      (loose.Rollback.replayed_on_crash > tight.Rollback.replayed_on_crash);
    Alcotest.(check int) "interval 1 never replays" 0 tight.Rollback.replayed_on_crash
  | _ -> Alcotest.fail "expected 2 rows"

let test_multicore_shape () =
  (* Wall-clock based; only structural claims are asserted (this host
     may have a single core). *)
  let rows = Multicore.run ~cores_list:[ 1 ] ~batches_per_core:300 () in
  match rows with
  | [ one ] ->
    Alcotest.(check int) "one core row" 1 one.Multicore.cores;
    Alcotest.(check bool) "positive throughput" true (one.Multicore.direct_batches_per_s > 0.);
    Alcotest.(check (float 1e-9)) "self-scaling" 1.0 one.Multicore.scaling;
    (* Wall-clock on a possibly loaded single-core host: only rule out
       absurd values. *)
    Alcotest.(check bool) "isolation cost sane" true
      (one.Multicore.isolation_cost > -0.8 && one.Multicore.isolation_cost < 0.8)
  | _ -> Alcotest.fail "expected 1 row"

(* Measure.race over deterministic fake arms: an arm is [n -> items]. *)
let test_race_round_robin () =
  let log = ref [] in
  let arm i = (string_of_int i, fun n -> log := i :: !log; n) in
  let rows = Measure.race ~reps:3 ~batches:5 [ arm 0; arm 1; arm 2 ] in
  Alcotest.(check (list int))
    "one warm-up window per arm, then rounds in arm order"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2; 0; 1; 2 ]
    (List.rev !log);
  Alcotest.(check (list string)) "rows in arm order" [ "0"; "1"; "2" ]
    (List.map (fun r -> r.Measure.name) rows);
  let first = List.hd rows in
  Alcotest.(check (list (float 0.))) "the first arm is its own reference" [ 1.; 1.; 1. ]
    [ first.Measure.ratio; first.Measure.ratio_q1; first.Measure.ratio_q3 ]

let test_race_counts () =
  let calls = ref 0 in
  let warmed =
    ( "warmed",
      fun n ->
        incr calls;
        if !calls = 1 then 1000 else 3 * n )
  in
  match Measure.race ~reps:4 ~batches:10 [ warmed; ("fixed", fun _ -> 7) ] with
  | [ w; f ] ->
    Alcotest.(check int) "warm-up window not counted" (4 * 30) w.Measure.packets;
    Alcotest.(check int) "packets are what the arm returns" (4 * 7) f.Measure.packets
  | _ -> Alcotest.fail "expected 2 rows"

let test_race_words () =
  let quiet = ("quiet", fun n -> n) in
  let alloc =
    ( "alloc",
      fun n ->
        for i = 1 to n do
          (* A pair is a header plus two fields: 3 words. *)
          ignore (Sys.opaque_identity (i, i))
        done;
        n )
  in
  match Measure.race ~reps:5 ~batches:1000 [ quiet; alloc ] with
  | [ q; a ] ->
    Alcotest.(check (float 0.)) "no allocation, 0 words" 0. q.Measure.words_per_pkt;
    Alcotest.(check (float 0.)) "3 words per item" 3. a.Measure.words_per_pkt
  | _ -> Alcotest.fail "expected 2 rows"

let test_race_best () =
  let round = ref 0 in
  let burst =
    ( "burst",
      fun _ ->
        incr round;
        if !round = 3 then 1_000_000 else 1 )
  in
  match Measure.race ~reps:5 ~batches:1 [ burst ] with
  | [ b ] ->
    Alcotest.(check bool) "the fastest round sets best_mpps" true
      (b.Measure.best_mpps > 1000. *. b.Measure.mpps)
  | _ -> Alcotest.fail "expected 1 row"

(* E21's two arms must verify the same version in every window. *)
let test_reverify_wall_pairs_versions () =
  let w = Reverify.run_wall ~funcs:100 ~edits:1 ~iters:3 () in
  Alcotest.(check bool) "warm reports equal cold reports" true w.Reverify.w_equal;
  Alcotest.(check bool) "speedup interval ordered" true
    (w.Reverify.w_speedup_q1 <= w.Reverify.w_speedup
    && w.Reverify.w_speedup <= w.Reverify.w_speedup_q3)

let test_race_maglev_words_repeat () =
  let words () =
    match
      Measure.race ~reps:3 ~batches:64
        [
          Fusion_ablation.wall_arm ~mode:Fusion_ablation.Direct ~fuse:true
            ~backing:Netstack.Slab.Off_heap "direct";
        ]
    with
    | [ r ] -> r.Measure.words_per_pkt
    | _ -> Alcotest.fail "expected 1 row"
  in
  let a = words () in
  Alcotest.(check bool) (Printf.sprintf "%.3f words/pkt > 0" a) true (a > 0.);
  Alcotest.(check (float 0.)) "identical on a second run" a (words ())

let test_ablations_shape () =
  let r = Ablations.run ~trials:100 () in
  (match r.Ablations.pin with
  | [ full; pinned ] ->
    Alcotest.(check bool) "pinning is cheaper" true
      (pinned.Ablations.cycles_per_call < full.Ablations.cycles_per_call);
    Alcotest.(check bool) "but not revocable" true
      (full.Ablations.revocable && not pinned.Ablations.revocable)
  | _ -> Alcotest.fail "expected 2 pin rows");
  (* Zeroing any micro-cost can only reduce the overhead; the atomic
     upgrade is the single largest contributor. *)
  (match r.Ablations.attribution with
  | full :: rest ->
    List.iter
      (fun a -> Alcotest.(check bool) ("zeroing reduces: " ^ a.Ablations.zeroed) true (a.Ablations.delta_vs_full >= 0.))
      rest;
    let atomic = List.find (fun a -> a.Ablations.zeroed = "atomic_rmw") rest in
    List.iter
      (fun a ->
        Alcotest.(check bool) "atomic dominates" true
          (atomic.Ablations.delta_vs_full >= a.Ablations.delta_vs_full))
      rest;
    ignore full
  | [] -> Alcotest.fail "no attribution rows");
  (* Recovery total is monotone in the unwind cost. *)
  let totals = List.map (fun u -> u.Ablations.recovery_total) r.Ablations.unwind in
  Alcotest.(check bool) "monotone in unwind" true (List.sort compare totals = totals)

(* --- The check runner behind `repro check` -------------------------- *)

let fake ?(shards = [ 1; 2; 4 ]) stats =
  { Check.stats; shards; predicates = Check.identity }

let spec_of id =
  match Registry.resolve Registry.all [ id ] with
  | Ok [ { Registry.check = Some spec; _ } ] -> spec
  | _ -> Alcotest.failf "%s has no check spec" id

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_failure ~mentions spec =
  match Check.run spec with
  | Ok block -> Alcotest.failf "check passed on:\n%s" block
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg mentions)
      true (contains msg mentions)

let test_check_passes () =
  Alcotest.(check (result string string))
    "a stable block passes and is returned" (Ok "same\nblock\n")
    (Check.run (fake (fun ~shards:_ -> "same\nblock\n")))

let test_check_shard_dependent () =
  expect_failure ~mentions:"shards=2 differs from shards=1 replay 1 at line 2"
    (fake (fun ~shards -> Printf.sprintf "header\nqueues per shard=%d\n" (8 / shards)))

let test_check_replay_dependent () =
  let runs = ref 0 in
  expect_failure ~mentions:"shards=1 replay 2 differs"
    (fake ~shards:[ 1 ] (fun ~shards:_ ->
         incr runs;
         Printf.sprintf "run %d\n" !runs))

let test_check_identity_lines () =
  let fusion = spec_of "fusion" in
  List.iter
    (fun line ->
      expect_failure ~mentions:line { fusion with Check.stats = (fun ~shards:_ -> "ok\n" ^ line) })
    [
      "  direct: cycles identical=false";
      "  outputs identical (unfused vs fused)=false  crossings saved=0";
      "  cold-equal  no";
      "summary: cold-equivalent [MISS]";
    ]

let test_check_missing_ledger () =
  let flowcache = spec_of "flowcache" in
  expect_failure ~mentions:"flowcache ledger match"
    {
      flowcache with
      Check.stats = (fun ~shards:_ -> "flowcache ledger match (cached vs uncached): false\n");
    }

let test_every_check_has_golden () =
  List.iter
    (fun (e : Registry.entry) ->
      if e.Registry.check <> None then
        let golden =
          Printf.sprintf "golden/%s_stats.txt"
            (String.map (function '-' -> '_' | c -> c) e.Registry.id)
        in
        Alcotest.(check bool) (golden ^ " exists") true (Sys.file_exists golden))
    Registry.all

let test_resolve () =
  let ids r = Result.map (List.map (fun (e : Registry.entry) -> e.Registry.id)) r in
  Alcotest.(check (result (list string) (list string)))
    "named entries, in order" (Ok [ "soa"; "fig2" ])
    (ids (Registry.resolve Registry.all [ "soa"; "fig2" ]));
  Alcotest.(check (result (list string) (list string)))
    "every unknown id listed" (Error [ "bogus"; "nope" ])
    (ids (Registry.resolve Registry.all [ "bogus"; "fig2"; "nope" ]))

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "fig2 (E1/E10)" `Slow test_fig2_shape;
          Alcotest.test_case "pipeline length (E2)" `Slow test_pipeline_length_independence;
          Alcotest.test_case "recovery (E3)" `Slow test_recovery_shape;
          Alcotest.test_case "sfi baselines (E4)" `Slow test_sfi_baselines_shape;
          Alcotest.test_case "ifc matrix (E5)" `Quick test_ifc_matrix_shape;
          Alcotest.test_case "ifc store (E6)" `Quick test_ifc_store_shape;
          Alcotest.test_case "ifc scaling (E7)" `Quick test_ifc_scaling_shape;
          Alcotest.test_case "fig3 (E8)" `Quick test_fig3_shape;
          Alcotest.test_case "ckpt cost (E9)" `Quick test_ckpt_cost_shape;
          Alcotest.test_case "availability (E11)" `Slow test_availability_shape;
          Alcotest.test_case "rollback (E13)" `Quick test_rollback_shape;
          Alcotest.test_case "multicore (E12)" `Slow test_multicore_shape;
          Alcotest.test_case "ablations (A1-A3)" `Slow test_ablations_shape;
        ] );
      ( "check",
        [
          Alcotest.test_case "stable block passes" `Quick test_check_passes;
          Alcotest.test_case "shard-dependent block fails" `Quick test_check_shard_dependent;
          Alcotest.test_case "replay-dependent block fails" `Quick test_check_replay_dependent;
          Alcotest.test_case "failed identity line fails" `Quick test_check_identity_lines;
          Alcotest.test_case "missing ledger match fails" `Quick test_check_missing_ledger;
          Alcotest.test_case "every check has a golden" `Quick test_every_check_has_golden;
          Alcotest.test_case "id resolver" `Quick test_resolve;
        ] );
      ( "measure",
        [
          Alcotest.test_case "race visits arms round-robin" `Quick test_race_round_robin;
          Alcotest.test_case "race counts timed windows only" `Quick test_race_counts;
          Alcotest.test_case "race words per packet exact" `Quick test_race_words;
          Alcotest.test_case "recycled maglev words repeat" `Quick test_race_maglev_words_repeat;
          Alcotest.test_case "race best is the fastest round" `Quick test_race_best;
          Alcotest.test_case "reverify race pairs versions" `Quick test_reverify_wall_pairs_versions;
        ] );
    ]

(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --selftest

   A run prepares the workload's inputs and oracles (untimed), sets it
   up several times and reports the median set-up time, then drives
   the last instance as a closed loop with one outstanding op for S
   seconds. The last line of standard output is one JSON object:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. See NOTES.md for what each metric measures. *)

let workloads = [ Wl_packet.maglev_iso; Wl_packet.megaflow; Wl_ifc.workload; Wl_ckpt.workload ]

(* Every per-layer metric, in report order. A traced run prints all of
   them; one that does not apply to the workload reads 0. *)
let per_layer =
  [
    ("nic.rx_ns_per_pkt", "ns"); ("nic.tx_ns_per_pkt", "ns"); ("pipeline.run_ns_per_pkt", "ns");
    ("stage.checksum_verify_ns_per_pkt", "ns"); ("stage.ttl_decrement_ns_per_pkt", "ns");
    ("stage.maglev_gre_ns_per_pkt", "ns"); ("sfi.crossing_ns_per_batch", "ns");
    ("sfi.crossings_per_batch", "count"); ("cycles.virtual_per_pkt", "cycles");
    ("cycles.l1_hits_per_pkt", "count"); ("cycles.l2_hits_per_pkt", "count");
    ("cycles.l3_hits_per_pkt", "count"); ("cycles.dram_per_pkt", "count");
    ("flowcache.hit_ratio", "ratio"); ("flowcache.installs_per_kpkt", "count");
    ("flowcache.evictions_per_kpkt", "count"); ("flowcache.hit_ns", "ns");
    ("flowcache.miss_ns", "ns"); ("ifc.parse_ms", "ms"); ("ifc.validate_ms", "ms");
    ("ifc.cold_verify_ms", "ms"); ("ifc.reverify_us", "us"); ("ifc.validate_incremental_us", "us");
    ("ifc.hits_per_op", "count"); ("ifc.recomputed_per_op", "count");
    ("ifc.transfers_per_op", "count"); ("ifc.cone_per_op", "count");
    ("ifc.recompute_over_cone", "ratio"); ("chkpt.update_us", "us"); ("chkpt.sync_us", "us");
    ("chkpt.save_delta_us", "us"); ("chkpt.recover_us", "us"); ("chkpt.rebuild_us", "us");
    ("chkpt.dirty_chunks_per_op", "count"); ("chkpt.chunks_written_per_op", "count");
    ("chkpt.chunks_reused_per_op", "count"); ("chkpt.bytes_written_per_op", "bytes");
    ("gc.minor_collections_per_kitem", "count"); ("gc.major_collections_per_kitem", "count");
    ("gc.promoted_words_per_item", "words"); ("trace.overhead_ratio", "ratio");
    ("diag.op_p99_us", "us");
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " body)

(* The value text of metric [name] in a result line. *)
let json_value line name =
  let key = Printf.sprintf "%S: {\"value\": " name in
  let rec find i =
    if i + String.length key > String.length line then "missing"
    else if String.sub line i (String.length key) = key then begin
      let j = i + String.length key in
      let k = String.index_from line j ',' in
      String.sub line j (k - j)
    end
    else find (i + 1)
  in
  find 0

let cleanup_scratch () = try Unix.rmdir Wl_ckpt.scratch_root with Unix.Unix_error _ -> ()

(* Harness preparation, then [n] timed set-ups; all but the last
   instance are closed. Returns the prep check, the median set-up time
   and the instance. *)
let prepare_and_setup (w : Wl.t) ~seed ~n =
  let prep_ok, setup = w.Wl.prepare ~seed in
  let times = Array.make n 0. in
  let inst = ref None in
  for k = 0 to n - 1 do
    Option.iter (fun (i : Wl.inst) -> i.Wl.close ()) !inst;
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let i = setup () in
    times.(k) <- float_of_int (Meter.now_ns () - t0) *. 1e-9;
    inst := Some i
  done;
  (prep_ok, Meter.median times, Option.get !inst)

let run_workload (w : Wl.t) ~seed ~seconds ~trace =
  let prep_ok, setup_s, inst = prepare_and_setup w ~seed ~n:w.Wl.setups in
  let cap = max (2 * w.Wl.window) (int_of_float (seconds *. float_of_int w.Wl.max_ops_per_s)) in
  let lat = Meter.samples cap in
  let marks = [| w.Wl.window; 2 * w.Wl.window |] in
  let result ~attempted ~failed metrics =
    let finish_ok = inst.Wl.finish () in
    inst.Wl.close ();
    cleanup_scratch ();
    let correct = prep_ok && finish_ok && failed = 0 in
    if not correct then
      Printf.eprintf "perfbench: %s: output check failed (prep=%b finish=%b failed=%d)\n%!"
        w.Wl.name prep_ok finish_ok failed;
    print_result ~correct ~attempted ~failed metrics
  in
  if not trace then begin
    let r = Meter.run ~seconds ~marks ~cap ~lat inst.Wl.op in
    Printf.eprintf "throughput slices:%s\n%!"
      (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4g") (Meter.slice_rates r))));
    let win = Meter.window r.Meter.marks.(1) r.Meter.marks.(2) in
    result ~attempted:r.Meter.ops ~failed:r.Meter.failed
      [
        ("setup_s", setup_s, "s");
        ("throughput_per_s", Meter.throughput r, "1/s");
        ("op_p50_us", Meter.latency_us r 0.5, "us");
        ("op_p90_us", Meter.latency_us r 0.9, "us");
        ("minor_words_per_item", Meter.words_per_item win, "words");
        ("peak_heap_mb", Meter.peak_heap_mb win, "MB");
      ]
  end
  else begin
    (* Untraced and traced blocks alternate, so host drift hits both
       sides of the overhead ratio alike. Counts come from the first
       untraced block's window, which starts from the same post-set-up
       state as an untraced run's; span times come from the traced
       blocks. *)
    let blocks = 10 in
    let slice = seconds /. float_of_int (2 * blocks) in
    let pairs =
      List.init blocks (fun b ->
          let m = if b = 0 then marks else [||] in
          let u = Meter.run ~seconds:slice ~marks:m ~cap ~lat inst.Wl.op in
          let sorted = Meter.sorted_us u in
          (u, sorted, Meter.run ~seconds:slice ~marks:[||] ~cap ~lat inst.Wl.traced))
    in
    let us = List.map (fun (u, _, _) -> u) pairs and ts = List.map (fun (_, _, t) -> t) pairs in
    let first = List.hd us in
    let win = Meter.window first.Meter.marks.(1) first.Meter.marks.(2) in
    let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
    let untraced_tput = sum (fun r -> r.Meter.items) us /. (sum (fun r -> r.Meter.busy_ns) us *. 1e-9) in
    let traced_tput = sum (fun r -> r.Meter.items) ts /. (Trace.total_ns inst.Wl.trace 0 *. 1e-9) in
    let sorted = Array.concat (List.map (fun (_, s, _) -> s) pairs) in
    Array.sort Float.compare sorted;
    let measured =
      inst.Wl.layer win @ Meter.gc_metrics win
      @ [
          ("trace.overhead_ratio", untraced_tput /. traced_tput, "ratio");
          ("diag.op_p99_us", Meter.quantile sorted 0.99, "us");
        ]
    in
    Trace.print inst.Wl.trace;
    let value name =
      match List.find_opt (fun (n, _, _) -> String.equal n name) measured with
      | Some (_, v, _) -> v
      | None -> 0.
    in
    let count f = List.fold_left (fun acc r -> acc + f r) 0 (us @ ts) in
    result ~attempted:(count (fun r -> r.Meter.ops)) ~failed:(count (fun r -> r.Meter.failed))
      (List.map (fun (name, unit) -> (name, value name, unit)) per_layer)
  end

(* --- Self-test ---------------------------------------------------------- *)

(* Stationarity: with one seed, the per-op counts over the count window
   repeat exactly across two runs; the second window of a run matches
   the first (exactly for counts the op stream repeats, within 1% for
   counts of random traffic); a second seed changes them. Also: a null
   op allocates nothing, so the harness adds 0 to minor_words_per_item. *)
let selftest () =
  let failures = ref 0 in
  let expect cond fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") msg;
        if not cond then incr failures)
      fmt
  in
  let null = { Meter.run = (fun () -> 1); check = (fun () -> true); counters = (fun () -> [||]) } in
  let r = Meter.run ~seconds:0. ~marks:[| 10_000 |] ~cap:10_000 ~lat:(Meter.samples 10_000) null in
  let w = Meter.window r.Meter.marks.(0) r.Meter.marks.(1) in
  expect (w.Meter.w_words = 0.) "null op: %.0f minor words over %d ops" w.Meter.w_words w.Meter.w_ops;
  List.iter
    (fun (wl : Wl.t) ->
      let counts seed =
        let prep_ok, _, inst = prepare_and_setup wl ~seed ~n:1 in
        let n = wl.Wl.window in
        let r =
          Meter.run ~seconds:0. ~marks:[| n; 2 * n; 3 * n |] ~cap:(3 * n)
            ~lat:(Meter.samples (3 * n)) inst.Wl.op
        in
        let ok = prep_ok && r.Meter.failed = 0 && inst.Wl.finish () in
        inst.Wl.close ();
        let m = r.Meter.marks in
        (ok, inst.Wl.stationary (Meter.window m.(1) m.(2)), inst.Wl.stationary (Meter.window m.(2) m.(3)))
      in
      let ok_a, a1, a2 = counts 1L in
      let ok_b, b1, _ = counts 1L in
      let ok_c, c1, _ = counts 2L in
      expect (ok_a && ok_b && ok_c) "%s: every op and output check passed" wl.Wl.name;
      (* The heap's high-water mark is per process: compare two whole
         one-second runs. *)
      let e2e () =
        let out = Unix.open_process_args_in Sys.executable_name
            [| Sys.executable_name; "--workload"; wl.Wl.name; "--seed"; "1"; "--seconds"; "1"; "--trace"; "0" |]
        in
        let line = In_channel.input_all out in
        ignore (Unix.close_process_in out);
        List.map (fun name -> (name, json_value line name)) [ "peak_heap_mb"; "minor_words_per_item" ]
      in
      let r1 = e2e () and r2 = e2e () in
      List.iter2
        (fun (name, v1) (_, v2) ->
          expect (v1 = v2) "%s: %s repeats across whole runs (%s, %s)" wl.Wl.name name v1 v2)
        r1 r2;
      List.iteri
        (fun i (name, v, exact) ->
          let _, v2, _ = List.nth a2 i and _, vb, _ = List.nth b1 i and _, vc, _ = List.nth c1 i in
          expect (v = vb) "%s: %s repeats across runs (%.6g, %.6g)" wl.Wl.name name v vb;
          if exact then
            expect (v = v2) "%s: %s identical across halves (%.6g, %.6g)" wl.Wl.name name v v2
          else
            expect
              (Float.abs (v2 -. v) <= 0.01 *. Float.abs v)
              "%s: %s within 1%% across halves (%.6g, %.6g)" wl.Wl.name name v v2;
          if i = 0 then expect (v <> vc) "%s: %s changes with the seed (%.6g, %.6g)" wl.Wl.name name v vc)
        a1)
    workloads;
  cleanup_scratch ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end

(* --- Command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --selftest";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--selftest" ] -> selftest ()
  | _ :: args ->
    let rec parse acc = function
      | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let name = get "workload" in
    let w =
      match List.find_opt (fun (w : Wl.t) -> String.equal w.Wl.name name) workloads with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
    in
    let seed = match Int64.of_string_opt (get "seed") with Some s -> s | None -> usage () in
    let seconds =
      match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage ()
    in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    run_workload w ~seed ~seconds ~trace
  | [] -> usage ()

(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index) and
   finishes with the wall-clock races (DESIGN.md §10).

   Usage:
     dune exec bench/main.exe                 # everything, full trials
     dune exec bench/main.exe -- fig2 fig3    # selected experiments
     dune exec bench/main.exe -- --quick      # everything, reduced trials
     dune exec bench/main.exe -- --list       # available ids
     dune exec bench/main.exe -- --json       # wall-clock suite ->
                                              # BENCH_netstack.json *)

let wallclock_entry =
  {
    Experiments.Registry.id = "wallclock";
    description = "Wall-clock microbenchmarks";
    run = (fun ~quick:_ -> Wallclock.run ());
    check = None;
  }

let throughput_entry =
  {
    Experiments.Registry.id = "throughput";
    description = "Maglev NF pipeline throughput (wall clock, Mpps)";
    run = Throughput.run;
    check = None;
  }

let experiments = Experiments.Registry.all @ [ wallclock_entry; throughput_entry ]

let bench_json_path = "BENCH_netstack.json"
let bench_history_path = "BENCH_history.jsonl"

let today () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* The wall-clock trajectory: every microbenchmark row plus the
   sustained pipeline throughput, serialized for trend tracking across
   commits. A row carries its race's fastest round, not the median the
   tables print: the snapshot is compared with a committed baseline
   taken on another run, and a median follows whichever of the host's
   slow or fast phases the run happened to fall in. *)
let emit_json ~quick =
  let rows = Wallclock.measure () in
  Wallclock.print rows;
  let tp = List.concat (Throughput.measure ~quick) in
  let ns_per_item (r : Experiments.Measure.row) = 1e3 /. r.best_mpps in
  let entries =
    List.map
      (fun (r : Experiments.Measure.row) ->
        { Json.name = r.name; ns_per_run = ns_per_item r; mpps = None; words_per_pkt = None })
      rows
    @ List.map
        (fun (r : Experiments.Measure.row) ->
          {
            Json.name = r.name;
            ns_per_run = ns_per_item r *. float_of_int Throughput.batch_size;
            mpps = Some r.best_mpps;
            words_per_pkt = Some r.words_per_pkt;
          })
        tp
  in
  Json.write ~path:bench_json_path entries;
  Printf.printf "wrote %s (%d entries)\n" bench_json_path (List.length entries);
  (* The snapshot file is rewritten wholesale; the dated history line
     is what preserves the trajectory across commits. *)
  Json.append_history ~path:bench_history_path ~date:(today ()) entries;
  Printf.printf "appended %s\n" bench_history_path

let find id = List.find_opt (fun e -> String.equal e.Experiments.Registry.id id) experiments

(* Experiments that could not run (E19 without its corpus, say); the
   harness reports them and carries on, then exits 1. *)
let failed = ref []

let run_one ~quick (e : Experiments.Registry.entry) =
  Printf.printf "==== %s: %s ====\n" e.id e.description;
  (* Fresh global registry per experiment, so the snapshot printed
     after each figure belongs to that figure alone. *)
  Telemetry.Registry.reset Telemetry.Registry.global;
  (try e.run ~quick
   with Failure msg ->
     Printf.eprintf "%s: %s\n%!" e.id msg;
     failed := e.id :: !failed);
  print_newline ();
  Telemetry.Render.print ~title:(e.id ^ " telemetry") Telemetry.Registry.global;
  print_newline ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let ids = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  if List.mem "--json" args then emit_json ~quick
  else if List.mem "--list" args then
    List.iter
      (fun (e : Experiments.Registry.entry) -> Printf.printf "%-16s %s\n" e.id e.description)
      experiments
  else if ids <> [] then
    List.iter
      (fun id ->
        match find id with
        | Some e -> run_one ~quick e
        | None ->
          Printf.eprintf "unknown experiment %s (try --list)\n" id;
          exit 1)
      ids
  else begin
    print_endline
      "Reproducing every table/figure of 'System Programming in Rust: Beyond Safety'";
    print_endline "(virtual-clock cycles from the deterministic cost model; see DESIGN.md)";
    print_newline ();
    List.iter (run_one ~quick) experiments
  end;
  if !failed <> [] then begin
    Printf.eprintf "failed: %s\n" (String.concat ", " (List.rev !failed));
    exit 1
  end

(* The `repro` command-line tool: run any of the paper's experiments by
   id. `repro list` enumerates them; `repro run fig2 fig3` reproduces
   Figure 2 and Figure 3; `repro run --quick` runs everything fast;
   `repro check scale` replays a golden-pinned deterministic block,
   re-renders it across shard counts and prints it. *)

open Cmdliner
module Registry = Experiments.Registry

let ids_arg =
  let doc = "Experiment ids (see $(b,repro list)); all when omitted." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let corpus_arg =
  let doc = "Directory of E19's committed bad-checkpoint corpus." in
  Arg.(
    value & opt string Experiments.Recover.default_corpus & info [ "corpus" ] ~docv:"DIR" ~doc)

(* The one id resolver behind run, stats and check. *)
let select ~corpus ids =
  match Registry.resolve (Registry.entries ~corpus) ids with
  | Ok entries -> entries
  | Error unknown ->
    Printf.eprintf "unknown experiment(s): %s\n" (String.concat ", " unknown);
    exit 1

(* An experiment that cannot run (a missing corpus, say) fails with a
   message and exit status 1. *)
let or_exit (e : Registry.entry) f =
  try f ()
  with Failure msg ->
    Printf.eprintf "repro %s: %s\n" e.Registry.id msg;
    exit 1

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter
      (fun (e : Registry.entry) -> Printf.printf "%-16s %s\n" e.Registry.id e.Registry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc =
    "Run experiments (all of them when none is named): every table, including the \
     wall-clock sections, followed by the experiment's telemetry table."
  in
  let quick =
    let doc = "Reduced trial counts and sweep sizes (for quick runs / CI)." in
    Arg.(value & flag & info [ "quick"; "q" ] ~doc)
  in
  let run quick corpus ids =
    List.iter
      (fun (e : Registry.entry) ->
        Printf.printf "==== %s: %s ====\n" e.Registry.id e.Registry.description;
        (* Each experiment gets a clean slate in the global registry,
           so the table below is attributable to it alone. *)
        Telemetry.Registry.reset Telemetry.Registry.global;
        or_exit e (fun () -> e.Registry.run ~quick);
        print_newline ();
        Telemetry.Render.print ~title:(e.Registry.id ^ " telemetry") Telemetry.Registry.global;
        print_newline ())
      (select ~corpus ids)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ quick $ corpus_arg $ ids_arg)

let stats_cmd =
  let doc =
    "Run experiments quickly and print only their telemetry tables — the registry snapshot \
     (counters, gauges, histogram quantiles) each experiment records."
  in
  let run corpus ids =
    List.iter
      (fun (e : Registry.entry) ->
        Telemetry.Registry.reset Telemetry.Registry.global;
        (* The experiment's own tables are silenced: only the telemetry
           snapshot is wanted here. *)
        or_exit e (fun () ->
            ignore (Experiments.Check.capture (fun () -> e.Registry.run ~quick:true)));
        Telemetry.Render.print ~title:(e.Registry.id ^ " telemetry") Telemetry.Registry.global;
        print_newline ())
      (select ~corpus ids)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ corpus_arg $ ids_arg)

let check_cmd =
  let doc =
    "Check golden-pinned experiments (every one with a check spec when none is named): \
     replay the deterministic block, re-render it at every shard count of its spec, require \
     all renderings byte-identical and every identity line to hold, and print the one-shard \
     block — the text test/golden/<id>_stats.txt pins. Exits 1 naming the first failure."
  in
  let run corpus ids =
    let checks =
      List.filter_map
        (fun (e : Registry.entry) ->
          match e.Registry.check with
          | Some spec -> Some (e.Registry.id, spec)
          | None when ids = [] -> None
          | None ->
            Printf.eprintf "repro check: %s has no check spec\n" e.Registry.id;
            exit 1)
        (select ~corpus ids)
    in
    let failed =
      List.filter
        (fun (id, spec) ->
          match Experiments.Check.run spec with
          | Ok block ->
            if List.length checks > 1 then Printf.printf "==== %s ====\n" id;
            print_string block;
            false
          | Error msg ->
            Printf.eprintf "repro check %s: FAILED: %s\n" id msg;
            true)
        checks
    in
    if failed <> [] then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ corpus_arg $ ids_arg)

let verify_cmd =
  let doc =
    "Parse a Mir source file (see examples/programs/*.mir) and verify it: linearity \
     (ownership) checking plus information-flow analysis, with the strategy chosen by the \
     program's dialect unless overridden."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mir source file.")
  in
  let strategy =
    let strategy_conv =
      Arg.enum
        [
          ("exact", Ifc.Verifier.Exact);
          ("compositional", Ifc.Verifier.Compositional);
          ("incremental", Ifc.Verifier.Incremental);
          ("naive", Ifc.Verifier.Naive_no_alias);
          ("andersen", Ifc.Verifier.Andersen);
        ]
    in
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "strategy"; "s" ] ~docv:"STRATEGY"
          ~doc:"Analysis strategy: exact, compositional, incremental, naive, or andersen.")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute"; "x" ]
          ~doc:"Also run the program and report the dynamic events/leaks (ground truth).")
  in
  let run strategy execute file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Ifc.Parse.program source with
    | Error e ->
      Printf.eprintf "%s: %s\n" file (Ifc.Parse.error_to_string e);
      exit 2
    | Ok program -> (
      match Ifc.Verifier.verify ?strategy program with
      | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 2
      | Ok report ->
        Format.printf "%s:@.%a@." file Ifc.Verifier.pp_report report;
        if execute then begin
          match Ifc.Interp.run program with
          | outcome ->
            Printf.printf "dynamic: %d output event(s), %d leak(s)\n"
              (List.length outcome.Ifc.Interp.events)
              (List.length outcome.Ifc.Interp.leaks);
            List.iter
              (fun (leak : Ifc.Interp.event) ->
                Printf.printf "  LEAK at line %d on `%s': taint %s\n" leak.Ifc.Interp.eline
                  leak.Ifc.Interp.channel
                  (Ifc.Label.to_string (Ifc.Interp.event_taint leak)))
              outcome.Ifc.Interp.leaks
          | exception Ifc.Interp.Runtime_error { line; message } ->
            Printf.printf "dynamic: trapped at line %d: %s\n" line message
        end;
        (match report.Ifc.Verifier.verdict with
        | Ifc.Verifier.Verified -> exit 0
        | Ifc.Verifier.Rejected -> exit 1))
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ strategy $ execute $ file)

let () =
  let doc =
    "Reproduce the evaluation of 'System Programming in Rust: Beyond Safety' (HotOS '17)"
  in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; stats_cmd; check_cmd; verify_cmd ]))

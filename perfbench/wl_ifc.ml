(* ifc-reverify: E21's edit loop. The corpus is the Gen.default
   program (500 functions, 10-deep chains, its own fixed seed); the
   workload seed chooses the edits. Set-up parses its rendered source,
   validates it and runs a cold reverify, so a parser change shows in
   setup_s. Each op then reverifies the next version against one
   persistent summary cache. The versions are the base v0 and [edits]
   e1 .. eK, each one 5-function (1%) edit of v0, and the op stream
   alternates e1, v0, e2, v0, ..., eK, v0: every op is a 1% edit away
   from the last, edits never pile up, and nothing grows from op to
   op. *)

open Ifc

let edits = 5
let edit_versions = 96
let period = 2 * edit_versions

(* Version reverified by op [j] of a period (0 is the base), and the
   edit that separates it from the previous version. *)
let version j = if j mod 2 = 0 then (j / 2) + 1 else 0
let edit_of j = (j / 2) + 1

(* The E21 oracle rendering: strategy and transfer count normalised,
   since only they may differ between a cached and a cold run.
   Findings hold abstract label sets, so reports are compared as
   rendered text, never with polymorphic equality. *)
let report_body (r : Verifier.report) =
  Format.asprintf "%a" Verifier.pp_report
    { r with Verifier.strategy = Verifier.Compositional; transfers = 0 }

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "perfbench: %s: %s" what e)

let parse text =
  match Parse.program text with
  | Ok prog -> prog
  | Error e -> failwith ("perfbench: parse: " ^ Parse.error_to_string e)

type prep = {
  text : string;
  versions : Ast.program array;
  oracle : string array;  (** Per version. *)
  dirty : Ast.func list array;  (** Per op of a period. *)
  cone : int array;  (** Per op of a period. *)
}

let prepare_inputs seed =
  let spec = Gen.default in
  let text = Parse.to_source (Gen.generate spec) in
  (* Edits apply to the parsed corpus, not the generated one: parsing
     assigns its own statement lines, and set-up's cold reverify
     caches summaries of the parsed program. *)
  let v0 = parse text in
  let edited = Array.make (edit_versions + 1) (v0, []) in
  for i = 1 to edit_versions do
    edited.(i) <- Gen.edit ~seed:(Int64.add seed (Int64.of_int (1000 * i))) ~edits spec v0
  done;
  let versions = Array.map fst edited in
  (* A fresh record is a fresh instance for Summary's per-program
     memo, so each oracle run really is cold. *)
  let cold p =
    report_body
      (ok "oracle" (Verifier.verify ~strategy:Verifier.Compositional { p with Ast.main = p.Ast.main }))
  in
  let per_op f = Array.init period f in
  let names j = snd edited.(edit_of j) in
  {
    text;
    versions;
    oracle = Array.map cold versions;
    dirty =
      per_op (fun j -> List.filter_map (Ast.find_func versions.(version j)) (names j));
    cone = per_op (fun j -> List.length (Gen.transitive_callers versions.(version j) (names j)));
  }

let spans = [| "op"; "verifier.reverify"; "ast.validate_incremental" |]
let sp_op = 0
let sp_reverify = 1
let sp_validate_incr = 2

let ms t0 t1 = float_of_int (t1 - t0) *. 1e-6

let setup (p : prep) () =
  let t0 = Meter.now_ns () in
  let parsed = parse p.text in
  let t1 = Meter.now_ns () in
  (match Ast.validate parsed with
  | Ok () -> ()
  | Error _ -> failwith "perfbench: corpus does not validate");
  let t2 = Meter.now_ns () in
  let cache = Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let cold_report, _ = ok "cold reverify" (Verifier.reverify cache parsed) in
  let t3 = Meter.now_ns () in
  let parse_ms = ms t0 t1 and validate_ms = ms t1 t2 and cold_ms = ms t2 t3 in
  let pos = ref 0 in
  let last = ref cold_report in
  let last_stats = ref { Summary_cache.hits = 0; misses = 0; recomputed = 0; transfers = 0 } in
  let last_ok = ref true in
  let run () =
    (match Verifier.reverify cache p.versions.(version !pos) with
    | Ok (r, s) ->
      last := r;
      last_stats := s;
      last_ok := true
    | Error _ -> last_ok := false);
    1
  in
  (* Cumulative hits, recomputed, transfers, cone, validate_incremental
     failures: folded in by [check], outside the op's span. *)
  let totals = Array.make 5 0. in
  let check () =
    let j = !pos in
    pos := (j + 1) mod period;
    let s = !last_stats in
    totals.(0) <- totals.(0) +. float_of_int s.Summary_cache.hits;
    totals.(1) <- totals.(1) +. float_of_int s.Summary_cache.recomputed;
    totals.(2) <- totals.(2) +. float_of_int s.Summary_cache.transfers;
    totals.(3) <- totals.(3) +. float_of_int p.cone.(j);
    !last_ok
    && s.Summary_cache.recomputed <= p.cone.(j)
    && String.equal (report_body !last) p.oracle.(version j)
  in
  (* The cache holds one entry per function, so a few ops reach its
     steady state. *)
  for _ = 1 to 16 do
    ignore (run ());
    if not (check ()) then failwith "perfbench: warm-up reverify failed"
  done;
  let tr = Trace.create spans in
  let traced () =
    Trace.enter tr sp_op;
    Trace.enter tr sp_reverify;
    ignore (run ());
    Trace.leave tr;
    Trace.leave tr;
    let j = !pos in
    Trace.enter tr sp_validate_incr;
    let v = Ast.validate_incremental p.versions.(version j) ~dirty:p.dirty.(j) in
    Trace.leave tr;
    if Result.is_error v then totals.(4) <- totals.(4) +. 1.;
    1
  in
  let counters () = Array.copy totals in
  let per_op (w : Meter.window) i = Wl.per w.Meter.w_delta.(i) (float_of_int w.Meter.w_ops) in
  let us id = Wl.per (Trace.total_ns tr id) (float_of_int (Trace.count tr id)) *. 1e-3 in
  let layer w =
    [
      ("ifc.parse_ms", parse_ms, "ms");
      ("ifc.validate_ms", validate_ms, "ms");
      ("ifc.cold_verify_ms", cold_ms, "ms");
      ("ifc.reverify_us", us sp_reverify, "us");
      ("ifc.validate_incremental_us", us sp_validate_incr, "us");
      ("ifc.hits_per_op", per_op w 0, "count");
      ("ifc.recomputed_per_op", per_op w 1, "count");
      ("ifc.transfers_per_op", per_op w 2, "count");
      ("ifc.cone_per_op", per_op w 3, "count");
      ("ifc.recompute_over_cone", Wl.per w.Meter.w_delta.(1) w.Meter.w_delta.(3), "ratio");
    ]
  in
  let stationary w =
    [
      ("ifc.transfers_per_op", per_op w 2, true);
      ("minor_words_per_item", Meter.words_per_item w, true);
    ]
  in
  {
    Wl.op = { Meter.run; check; counters };
    traced = { Meter.run = traced; check; counters };
    trace = tr;
    layer;
    stationary;
    finish =
      (fun () ->
        String.equal (Parse.to_source parsed) p.text
        && String.equal (report_body cold_report) p.oracle.(0)
        && totals.(4) = 0.);
    close = ignore;
  }

let workload =
  {
    Wl.name = "ifc-reverify";
    window = period;
    setups = 9;
    max_ops_per_s = 5_000;
    prepare = (fun ~seed -> (true, setup (prepare_inputs seed)));
  }

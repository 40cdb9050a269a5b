(* ckpt-cycle: a 65,536-bucket counter table (Chkpt.Incr.iarr, 64
   chunks of 1024 buckets) checkpointed to a Chkpt.Durable store. One
   op is one checkpoint cycle:

   - apply one batch's worth of hashed bucket updates: 16 flows arrive
     (+1 on their bucket) and the 16 that arrived [lifetime] ops ago
     leave (-1), so a minority of chunks is dirty;
   - capture the dirty chunks, Incr.sync, Durable.save_delta;
   - cold-start a fresh handle: open_store, recover, iarr_of_chunks.

   The arrival pattern repeats every [period] ops and the table holds
   only the last [lifetime] ops' flows, so its contents, and with them
   every per-op count, repeat exactly. Chunks that a delta empties
   again match the all-zero chunk already in the pool, so written and
   reused chunks are both non-zero. Between ops, outside the timed
   span, the harness checks the recovered table against the live one
   and then deletes superseded manifests and unreferenced pool chunks,
   as a retention job would, so the store does not grow.

   The store lives in a scratch directory under the current directory. *)

open Chkpt

let buckets = 65_536
let chunk = 1024
let arrivals = 16
let lifetime = 2
let period = 64
let tag = "perfbench-counters"
let graph = 1

let scratch_root = ".perfbench-tmp"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat scratch_root (Printf.sprintf "ckpt-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    d

let digest a =
  let h = ref 0x0bf29ce484222325 in
  for i = 0 to Incr.iarr_length a - 1 do
    h := (!h lxor Incr.iarr_get a i) * 0x100000001b3
  done;
  !h

(* The pool names a chunk by Wire.fnv64 of its payload. Recomputed here
   with an unboxed accumulator, so the retention pass between ops adds
   no garbage for the next op's collections to pay for. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h

let chunk_file c = Wire.hex_of_hash (fnv64 c) ^ ".chunk"

(* Keep the newest manifest and the chunks it references. *)
let retain dir (r : Durable.recovered) =
  let newest = Printf.sprintf "ckpt-%08d.bsck" r.Durable.r_generation in
  Array.iter
    (fun f ->
      if String.length f > 5 && String.sub f 0 5 = "ckpt-" && f <> newest then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let keep = Hashtbl.create 128 in
  Array.iter (fun c -> Hashtbl.replace keep (chunk_file c) ()) r.Durable.r_chunks;
  let pool = Filename.concat dir "chunks" in
  Array.iter
    (fun f -> if not (Hashtbl.mem keep f) then Sys.remove (Filename.concat pool f))
    (Sys.readdir pool)

let spans =
  [| "op"; "chkpt.update"; "chkpt.sync"; "chkpt.save_delta"; "chkpt.recover"; "chkpt.rebuild" |]

let sp_op = 0
let sp_update = 1
let sp_sync = 2
let sp_save = 3
let sp_recover = 4
let sp_rebuild = 5

let setup (pattern : int array array) () =
  let dir = fresh_dir () in
  let telemetry = Telemetry.Registry.create () in
  let store = Durable.open_store ~telemetry ~graph ~dir () in
  let arr = Incr.iarr ~chunk (Array.make buckets 0) in
  let tracker = Incr.iarr_tracker arr in
  (* Start as if the [lifetime] ops before op 0 had run. *)
  for l = 1 to lifetime do
    Array.iter
      (fun b -> Incr.iarr_set arr b (Incr.iarr_get arr b + 1))
      pattern.(period - l)
  done;
  ignore (Incr.sync tracker);
  ignore (Durable.save store ~tag ~chunks:(Incr.iarr_to_chunks arr));
  let pos = ref 0 in
  let dirty_total = ref 0. and failures = ref 0 in
  (* The op leaves its outcome here for [check]; storing the values the
     calls returned allocates nothing inside the timed span. *)
  let last_dirty = ref 0 and last_gen = ref 0 in
  let last_rec = ref (None, []) in
  let last_built = ref (Error "no checkpoint") in
  let update () =
    let j = !pos in
    Array.iter (fun b -> Incr.iarr_set arr b (Incr.iarr_get arr b + 1)) pattern.(j);
    Array.iter
      (fun b -> Incr.iarr_set arr b (Incr.iarr_get arr b - 1))
      pattern.((j + period - lifetime) mod period)
  in
  let capture () =
    let dirty = Incr.iarr_dirty_list arr in
    let delta = List.map (fun c -> (c + 1, Incr.iarr_chunk_bytes arr c)) dirty in
    ignore (Incr.sync tracker);
    last_dirty := List.length delta;
    delta
  in
  let save delta = last_gen := Durable.save_delta store ~tag ~dirty:delta in
  let recover () =
    last_rec := Durable.recover (Durable.open_store ~telemetry ~graph ~dir ())
  in
  let rebuild () =
    match !last_rec with
    | Some r, [] -> last_built := Incr.iarr_of_chunks r.Durable.r_chunks
    | _ -> last_built := Error "no checkpoint"
  in
  let run () =
    update ();
    save (capture ());
    recover ();
    rebuild ();
    1
  in
  let tr = Trace.create spans in
  let span id f x =
    Trace.enter tr id;
    let y = f x in
    Trace.leave tr;
    y
  in
  let traced () =
    Trace.enter tr sp_op;
    span sp_update update ();
    span sp_save save (span sp_sync capture ());
    span sp_recover recover ();
    span sp_rebuild rebuild ();
    Trace.leave tr;
    1
  in
  let check () =
    pos := (!pos + 1) mod period;
    dirty_total := !dirty_total +. float_of_int !last_dirty;
    match (!last_rec, !last_built) with
    | (Some r, []), Ok a when r.Durable.r_generation = !last_gen ->
      let same = digest a = digest arr in
      retain dir r;
      same
    | _ ->
      incr failures;
      false
  in
  (* The table is periodic from op 0, so a few cycles warm the pool
     directory and the allocator. *)
  for _ = 1 to 8 do
    ignore (run ());
    if not (check ()) then failwith "perfbench: warm-up checkpoint cycle failed"
  done;
  let counter name =
    match Telemetry.Registry.find telemetry ("chkpt.durable." ^ name) with
    | Some (Telemetry.Registry.Counter c) -> float_of_int (Telemetry.Counter.value c)
    | _ -> 0.
  in
  let counters () =
    [|
      !dirty_total;
      counter "chunks_written";
      counter "chunks_reused";
      counter "bytes_written";
    |]
  in
  let per_op (w : Meter.window) i = Wl.per w.Meter.w_delta.(i) (float_of_int w.Meter.w_ops) in
  let us id = Wl.per (Trace.total_ns tr id) (float_of_int (Trace.count tr id)) *. 1e-3 in
  let layer w =
    [
      ("chkpt.update_us", us sp_update, "us");
      ("chkpt.sync_us", us sp_sync, "us");
      ("chkpt.save_delta_us", us sp_save, "us");
      ("chkpt.recover_us", us sp_recover, "us");
      ("chkpt.rebuild_us", us sp_rebuild, "us");
      ("chkpt.dirty_chunks_per_op", per_op w 0, "count");
      ("chkpt.chunks_written_per_op", per_op w 1, "count");
      ("chkpt.chunks_reused_per_op", per_op w 2, "count");
      ("chkpt.bytes_written_per_op", per_op w 3, "bytes");
    ]
  in
  let stationary w =
    [
      ("chkpt.chunks_written_per_op", per_op w 1, true);
      ("minor_words_per_item", Meter.words_per_item w, true);
    ]
  in
  {
    Wl.op = { Meter.run; check; counters };
    traced = { Meter.run = traced; check; counters };
    trace = tr;
    layer;
    stationary;
    finish = (fun () -> counter "rejected" = 0. && !failures = 0);
    close = (fun () -> rm_rf dir);
  }

(* One arrival pattern per op of a period: 16 flows hashed to buckets. *)
let pattern seed =
  let rng = Cycles.Rng.create seed in
  Array.init period (fun _ ->
      Array.init arrivals (fun _ ->
          let flow = Cycles.Rng.next_int64 rng in
          Int64.to_int (Int64.shift_right_logical flow 1) land (buckets - 1)))

let workload =
  {
    Wl.name = "ckpt-cycle";
    window = 2 * period;
    setups = 15;
    max_ops_per_s = 2_000;
    prepare = (fun ~seed -> (true, setup (pattern seed)));
  }

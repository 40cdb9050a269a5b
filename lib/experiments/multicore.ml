type row = {
  cores : int;
  direct_batches_per_s : float;
  isolated_batches_per_s : float;
  isolation_cost : float;
  scaling : float;
}

(* One replica: its own environment, pipeline and recycled batch,
   shared-nothing. *)
let replica ~seed ~isolated =
  let env = Env.make ~seed ~telemetry:(Telemetry.Registry.create ()) () in
  let stages = [ Netstack.Filters.checksum_verify; Netstack.Filters.ttl_decrement ] in
  let mode =
    if isolated then Netstack.Pipeline.Isolated env.Env.manager else Netstack.Pipeline.Direct
  in
  let pipe = Netstack.Pipeline.create ~engine:env.Env.engine ~mode stages in
  Measure.serve ~nic:env.Env.nic ~pipe ~batch:(Netstack.Batch.create ~capacity:32)

(* A race arm running [cores] replicas concurrently: the first on the
   calling domain, the rest on spawned ones. It returns batches served,
   so the race's rate is batches per second. *)
let arm ~cores ~isolated =
  match List.init cores (fun i -> replica ~seed:(Int64.of_int (1000 + i)) ~isolated) with
  | [] -> invalid_arg "Multicore: cores < 1"
  | first :: rest ->
    fun n ->
      let workers = List.map (fun serve -> Domain.spawn (fun () -> ignore (serve n))) rest in
      ignore (first n);
      List.iter Domain.join workers;
      cores * n

let default_cores_list () =
  (* Never oversubscribe the host: with fewer hardware threads than
     replicas the domains just timeslice and the numbers measure the
     scheduler, not the architecture. *)
  let rdc = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun c -> c <= rdc) [ 1; 2; 4; 8 ])

(* Each core count's direct and isolated arms race [reps] interleaved
   rounds; the timed work per replica and arm totals [batches_per_core]. *)
let reps = 10

let run ?cores_list ?(batches_per_core = 3000) () =
  let cores_list = match cores_list with Some l -> l | None -> default_cores_list () in
  let base = ref None in
  List.map
    (fun cores ->
      let rows =
        Measure.race ~reps ~batches:(max 1 (batches_per_core / reps))
          [
            ("direct", arm ~cores ~isolated:false);
            ("isolated", arm ~cores ~isolated:true);
          ]
      in
      let direct = List.nth rows 0 and isolated = List.nth rows 1 in
      let per_s r = r.Measure.mpps *. 1e6 in
      let scaling =
        match !base with
        | None ->
          base := Some (per_s isolated);
          1.0
        | Some one -> per_s isolated /. one
      in
      {
        cores;
        direct_batches_per_s = per_s direct;
        isolated_batches_per_s = per_s isolated;
        isolation_cost = 1. -. isolated.Measure.ratio;
        scaling;
      })
    cores_list

let print rows =
  Printf.printf
    "E12 (extension): multi-core scaling, shared-nothing replicas (wall clock)\n\
    \  (host reports %d usable core(s); replica counts are capped there)\n"
    (Domain.recommended_domain_count ());
  Table.print
    ~header:[ "cores"; "direct batches/s"; "isolated batches/s"; "isolation cost"; "scaling" ]
    (List.map
       (fun r ->
         [
           Table.fi r.cores;
           Table.ff ~decimals:0 r.direct_batches_per_s;
           Table.ff ~decimals:0 r.isolated_batches_per_s;
           Table.fpct r.isolation_cost;
           Table.ff ~decimals:2 r.scaling ^ "x";
         ])
       rows);
  print_endline
    "  SFI's costs are core-local (no shared validation state), so isolation\n\
    \  cost stays flat while throughput scales with cores"

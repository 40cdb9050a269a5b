(* The bechamel stub reads CLOCK_MONOTONIC; declared with an unboxed
   result so a clock read allocates nothing and cannot leak into the
   words-per-packet count of the window it brackets. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) *. 1e-9)

let serve ~nic ~pipe ~batch n =
  let size = Netstack.Batch.capacity batch in
  let received = ref 0 in
  for _ = 1 to n do
    Netstack.Nic.rx_batch_into nic batch size;
    received := !received + Netstack.Batch.length batch;
    match Netstack.Pipeline.run pipe batch with
    | Ok out -> ignore (Netstack.Nic.tx_batch nic out)
    | Error e -> failwith ("Measure.serve: " ^ Sfi.Sfi_error.to_string e)
  done;
  !received

type row = {
  name : string;
  packets : int;
  mpps : float;
  best_mpps : float;
  ratio : float;
  ratio_q1 : float;
  ratio_q3 : float;
  words_per_pkt : float;
}

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let pos = q *. float_of_int (Array.length s - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length s then s.(i)
  else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let race ~reps ~batches arms =
  let arms = Array.of_list arms in
  if Array.length arms = 0 then invalid_arg "Measure.race: no arms";
  if reps < 1 then invalid_arg "Measure.race: reps < 1";
  Array.iter (fun (_, run) -> ignore (run batches)) arms;
  let rates = Array.map (fun _ -> Array.make reps 0.) arms in
  let words = Array.make (Array.length arms) 0. in
  let packets = Array.make (Array.length arms) 0 in
  for r = 0 to reps - 1 do
    Array.iteri
      (fun i (_, run) ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let n = run batches in
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        rates.(i).(r) <- float_of_int n /. (float_of_int (max 1 (t1 - t0)) *. 1e-9);
        words.(i) <- words.(i) +. (w1 -. w0);
        packets.(i) <- packets.(i) + n)
      arms
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, _) ->
         let ratios = Array.mapi (fun r rate -> rate /. rates.(0).(r)) rates.(i) in
         {
           name;
           packets = packets.(i);
           mpps = quantile rates.(i) 0.5 /. 1e6;
           best_mpps = quantile rates.(i) 1. /. 1e6;
           ratio = quantile ratios 0.5;
           ratio_q1 = quantile ratios 0.25;
           ratio_q3 = quantile ratios 0.75;
           words_per_pkt =
             (if packets.(i) = 0 then 0. else words.(i) /. float_of_int packets.(i));
         })
       arms)

let print rows =
  Table.print
    ~header:[ "arm"; "Mpps"; "paired ratio"; "[q1, q3]"; "words/pkt" ]
    (List.map
       (fun r ->
         [
           r.name;
           Table.ff ~decimals:3 r.mpps;
           Table.ff ~decimals:3 r.ratio ^ "x";
           Printf.sprintf "[%.3f, %.3f]" r.ratio_q1 r.ratio_q3;
           Table.ff ~decimals:3 r.words_per_pkt;
         ])
       rows);
  Printf.printf "  paired ratio: rate / %s's rate in the same round, median [quartiles]\n"
    (List.hd rows).name

(* In-memory span recorder for the traced run. Spans are recorded from
   the benchmark's own code around its calls into each layer; each
   closed span adds its duration to its name's total and to its
   parent's child time, so a layer's self time is its total minus the
   part its child spans cover. Recording allocates nothing; the
   aggregate is written out once, when the run ends. *)

type t = {
  names : string array;
  total : float array;  (** ns, per name *)
  child : float array;  (** ns covered by child spans, per name *)
  count : int array;
  stack_id : int array;
  stack_start : int array;
  stack_child : float array;
  mutable depth : int;
}

let max_depth = 16

let create names =
  let n = Array.length names in
  {
    names;
    total = Array.make n 0.;
    child = Array.make n 0.;
    count = Array.make n 0;
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0.;
    depth = 0;
  }

let enter t id =
  let d = t.depth in
  t.stack_id.(d) <- id;
  t.stack_child.(d) <- 0.;
  t.depth <- d + 1;
  t.stack_start.(d) <- Meter.now_ns ()

let leave t =
  let stop = Meter.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.stack_id.(d) in
  let dur = float_of_int (stop - t.stack_start.(d)) in
  t.total.(id) <- t.total.(id) +. dur;
  t.child.(id) <- t.child.(id) +. t.stack_child.(d);
  t.count.(id) <- t.count.(id) + 1;
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) +. dur

let total_ns t id = t.total.(id)
let self_ns t id = t.total.(id) -. t.child.(id)
let count t id = t.count.(id)

let print t =
  Printf.printf "%-28s %10s %14s %14s\n" "span" "count" "total ms" "self ms";
  Array.iteri
    (fun id name ->
      if t.count.(id) > 0 then
        Printf.printf "%-28s %10d %14.3f %14.3f\n" name t.count.(id)
          (t.total.(id) *. 1e-6) (self_ns t id *. 1e-6))
    t.names

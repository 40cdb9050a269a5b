(* Host wall time and allocation accounting for the closed-loop timed
   phase: one outstanding op, each timed between two reads of the
   monotonic nanosecond clock, with its latency and its minor-heap
   allocation stored in preallocated off-heap float arrays (so the
   harness allocates nothing between ops and its buffers do not count
   towards the program's heap). *)

(* The bechamel stub reads CLOCK_MONOTONIC. Declared here with an
   unboxed result so that a clock read allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type samples = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let samples n : samples = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

type op = {
  run : unit -> int;  (** One op; returns the items it handled. *)
  check : unit -> bool;  (** Verifies the op just run; never timed. *)
  counters : unit -> float array;
      (** The workload's cumulative per-layer counters, read only at
          the marks below. *)
}

type mark = {
  m_ops : int;
  m_items : float;
  m_words : float;  (** Minor words allocated inside op spans. *)
  m_gc : Gc.stat;
  m_counters : float array;
}

type result = {
  ops : int;
  items : float;
  busy_ns : float;  (** Sum of op spans: GC pauses inside ops included. *)
  failed : int;
  lat : samples;  (** Per-op latency in ns, first [ops] entries. *)
  marks : mark array;  (** The state at op 0 and after each requested mark. *)
}

let snapshot ~ops ~items ~words (o : op) =
  { m_ops = ops; m_items = items; m_words = words; m_gc = Gc.quick_stat (); m_counters = o.counters () }

(* Run [o] until [seconds] have elapsed and at least the last of
   [marks] ops are done (the marks bound a deterministic count window,
   so counts read over it repeat exactly whatever the host speed), or
   until [cap] ops fill the sample buffer. *)
let run ~seconds ~marks ~cap ~(lat : samples) (o : op) =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let min_ops = Array.fold_left max 0 marks in
  let taken = ref [ snapshot ~ops:0 ~items:0. ~words:0. o ] in
  let next_mark = ref 0 in
  let n = ref 0 and failed = ref 0 in
  let items = ref 0. and words = ref 0. and busy = ref 0. in
  while (!n < min_ops || now_ns () < deadline) && !n < cap do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let k = o.run () in
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let dt = float_of_int (t1 - t0) in
    Bigarray.Array1.unsafe_set lat !n dt;
    busy := !busy +. dt;
    words := !words +. (w1 -. w0);
    items := !items +. float_of_int k;
    if not (o.check ()) then incr failed;
    incr n;
    if !next_mark < Array.length marks && !n = marks.(!next_mark) then begin
      taken := snapshot ~ops:!n ~items:!items ~words:!words o :: !taken;
      incr next_mark
    end
  done;
  {
    ops = !n;
    items = !items;
    busy_ns = !busy;
    failed = !failed;
    lat;
    marks = Array.of_list (List.rev !taken);
  }

(* Latency quantile in microseconds, linear interpolation between
   closest ranks over the sorted samples. *)
let sorted_us r =
  let a = Array.init r.ops (fun i -> Bigarray.Array1.unsafe_get r.lat i *. 1e-3) in
  Array.sort Float.compare a;
  a

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  quantile a 0.5

(* The run's ops are cut into [slices] consecutive equal runs. The
   host's speed wanders on a scale of seconds, so each reported timing
   is a median over slices: a slow second does not move it. *)
let slices = 20

let slice_bounds r =
  let per = max 1 (r.ops / slices) in
  Array.init (min slices r.ops) (fun s -> (s * per, per))

(* Items per second: per slice, its items over its summed op time (GC
   pauses inside ops included); median over slices. Every workload
   handles the same number of items per op. *)
let slice_rates r =
  let items_per_op = r.items /. float_of_int r.ops in
  Array.map
    (fun (first, n) ->
      let busy = ref 0. in
      for i = first to first + n - 1 do
        busy := !busy +. Bigarray.Array1.unsafe_get r.lat i
      done;
      items_per_op *. float_of_int n /. (!busy *. 1e-9))
    (slice_bounds r)

let throughput r = median (slice_rates r)

(* Latency quantile [q] in microseconds: per slice, then the median
   over slices. *)
let latency_us r q =
  median
    (Array.map
       (fun (first, n) ->
         let a = Array.init n (fun i -> Bigarray.Array1.unsafe_get r.lat (first + i) *. 1e-3) in
         Array.sort Float.compare a;
         quantile a q)
       (slice_bounds r))

(* Per-item and per-op figures over the window between two marks. *)
type window = {
  w_ops : int;
  w_items : float;
  w_words : float;
  w_gc0 : Gc.stat;
  w_gc1 : Gc.stat;
  w_delta : float array;  (** Workload counter deltas. *)
}

let window a b =
  {
    w_ops = b.m_ops - a.m_ops;
    w_items = b.m_items -. a.m_items;
    w_words = b.m_words -. a.m_words;
    w_gc0 = a.m_gc;
    w_gc1 = b.m_gc;
    w_delta = Array.mapi (fun i v -> v -. a.m_counters.(i)) b.m_counters;
  }

let words_per_item w = w.w_words /. w.w_items

(* Peak major heap by the end of the window: the allocation sequence up
   to there is fixed, so the figure repeats exactly. *)
let peak_heap_mb w = float_of_int (w.w_gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let gc_metrics w =
  let kitems = w.w_items /. 1e3 in
  let d f = float_of_int (f w.w_gc1 - f w.w_gc0) in
  [
    ("gc.minor_collections_per_kitem", d (fun s -> s.Gc.minor_collections) /. kitems, "count");
    ("gc.major_collections_per_kitem", d (fun s -> s.Gc.major_collections) /. kitems, "count");
    ( "gc.promoted_words_per_item",
      (w.w_gc1.Gc.promoted_words -. w.w_gc0.Gc.promoted_words) /. w.w_items,
      "words" );
  ]

(* What every workload hands the harness. *)

type inst = {
  op : Meter.op;  (** The timed op, no spans. *)
  traced : Meter.op;  (** The same op with spans recorded into [trace]. *)
  trace : Trace.t;
  layer : Meter.window -> (string * float * string) list;
      (** Per-layer metrics: counts from the untraced count window,
          times from [trace]. *)
  stationary : Meter.window -> (string * float * bool) list;
      (** Per-op counts the self-test compares across runs and across
          halves of a run; [true] marks a count the op stream repeats
          exactly, [false] one that depends on random traffic. *)
  finish : unit -> bool;  (** End-of-run output checks. *)
  close : unit -> unit;  (** Releases files and other outside state. *)
}

type t = {
  name : string;
  window : int;
      (** Length of the deterministic count window, which spans ops
          [window, 2 * window) of the timed phase: late enough that
          caches the first ops fill are in steady state. *)
  setups : int;
      (** Set-ups per run, median reported: enough for about a second
          of set-up work. *)
  max_ops_per_s : int;
      (** Sizes the latency buffer, with headroom over today's rate; a
          run that fills it stops early. *)
  prepare : seed:int64 -> bool * (unit -> inst);
      (** Harness-only preparation (inputs, oracles, pre-timing
          checks), untimed; returns whether its checks passed and the
          timed set-up, which ends after warm-up. *)
}

let per n d = if d = 0. then 0. else n /. d

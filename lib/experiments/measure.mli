(** The one wall-clock harness.

    Every host-time number the repository reports is taken here: a
    single span by {!time}, sustained packet traffic by {!serve}, and
    any comparison between configurations by {!race}. Absolute values
    are host-dependent; what a race makes comparable is its paired
    ratios, because every arm is sampled across the same stretch of
    host time. The virtual-cycle tables, not these numbers, reproduce
    the paper. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] once between two reads of the monotonic clock
    and returns its value with the elapsed seconds. The clock read
    allocates nothing. *)

val serve :
  nic:Netstack.Nic.t -> pipe:Netstack.Pipeline.t -> batch:Netstack.Batch.t -> int -> int
(** [serve ~nic ~pipe ~batch n] is the rx -> {!Netstack.Pipeline.run}
    -> tx loop, [n] times over: each round refills the caller-owned
    [batch] to its capacity ({!Netstack.Nic.rx_batch_into}) instead of
    allocating one. Returns the packets received, which is fewer than
    [n * capacity] only if the pool ran dry. A pipeline [Error] raises
    [Failure] carrying the {!Sfi.Sfi_error} text. *)

type row = {
  name : string;
  packets : int;  (** Items the arm returned over the timed rounds. *)
  mpps : float;  (** Median over rounds of millions of items per second. *)
  best_mpps : float;
      (** The fastest round's rate. Host interference only slows a
          window, so this is the least-disturbed reading: the statistic
          for absolute snapshots compared across runs. *)
  ratio : float;
      (** Median over rounds of this arm's rate divided by the first
          arm's rate in the same round; 1 for the first arm. *)
  ratio_q1 : float;  (** Lower quartile of the same per-round ratios. *)
  ratio_q3 : float;  (** Upper quartile. *)
  words_per_pkt : float;
      (** Minor-heap words allocated inside the timed windows per item.
          Deterministic for deterministic code: it repeats exactly run
          to run. *)
}

val race : reps:int -> batches:int -> (string * (int -> int)) list -> row list
(** [race ~reps ~batches arms] times named arms against each other.
    An arm [run] does [n] units of work when called as [run n] (for
    packet arms, [n] batches through {!serve}) and returns the items
    it handled. Every arm first runs one untimed warm-up window of
    [batches]; then [reps] rounds each run one timed window of every
    arm, in list order. Interleaving spreads time-correlated host noise
    over all arms alike, and a ratio formed within one round is a
    paired comparison. Rows come back in arm order. Raises
    [Invalid_argument] on an empty arm list or [reps < 1]. *)

val print : row list -> unit
(** The race table: Mpps, paired ratio against the first arm with its
    interquartile interval, and words per packet. *)

(** The experiment check spec: one description of what makes an
    experiment's deterministic block trustworthy, and one runner that
    enforces it.

    A spec renders the block for a given shard count. {!run} renders it
    twice at one shard, re-renders it once per other shard count, requires
    every rendering to be byte-identical, and then applies the
    identity-line predicates. The block itself is pinned against a
    committed golden by [test/dune], which makes the golden diff the
    cross-process replay. *)

type predicate =
  | Absent of string  (** No line may match this {!Str} regexp. *)
  | Present of string  (** Some line must match this {!Str} regexp. *)

type spec = {
  stats : shards:int -> string;
      (** The deterministic block, rendered; the same for every shard
          count and every replay, or the check fails. *)
  shards : int list;  (** The shard axis; [[1]] when there is none. *)
  predicates : predicate list;
}

val identity : predicate list
(** The identity lines no checked block may contain: [identical=false],
    [identical .*=false], [cold-equal *no] and [[MISS]]. *)

val run : spec -> (string, string) result
(** [Ok block] with the one-shard block, or [Error] naming the first
    failure: the first differing line between two renderings, the
    first line matching an [Absent] predicate, or a missing [Present]
    line. A [Failure] raised by [stats] is reported as an error. The
    global telemetry registry is reset before every rendering. *)

val capture : (unit -> unit) -> string
(** Run a printing function and return what it wrote to stdout. *)

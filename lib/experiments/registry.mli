(** The experiment registry: one entry per paper artefact (DESIGN.md
    §4), shared by the benchmark harness and the [repro] CLI. *)

type entry = {
  id : string;           (** e.g. ["fig2"]. *)
  description : string;
  run : quick:bool -> unit;
      (** Execute and print. [quick:true] trades trial counts /
          sweep sizes for speed (for CI and interactive use). *)
  check : Check.spec option;
      (** The golden-pinned deterministic block and its replay,
          shard-invariance and identity-line checks ([repro check]);
          [test/golden/<id>_stats.txt] pins the block. *)
}

val entries : corpus:string -> entry list
(** Every experiment; [corpus] is the bad-checkpoint corpus directory
    E19 ([recover]) reads. A missing or unreadable corpus makes that
    entry's [run] and [check] fail. *)

val all : entry list
(** [entries ~corpus:Recover.default_corpus]. *)

val resolve : entry list -> string list -> (entry list, string list) result
(** The entries named, in order (all of them when none is named), or
    [Error] with the ids that name no entry. *)
